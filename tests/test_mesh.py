"""Mesh construction, gmsh parsing, refinement, and the lake fixture."""

import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from bloomsim.mesh import (
    MeshError,
    TriMesh,
    lake_outline,
    load_gmsh_mesh,
    refine_uniform,
    synthetic_lake_mesh,
    two_triangle_square,
    write_msh22,
)

MSH22_SQUARE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
3
1 1 2 0 1 1 2
2 2 2 0 1 1 2 3
3 2 2 0 1 1 3 4
$EndElements
"""

MSH41_SQUARE = """$MeshFormat
4.1 0 8
$EndMeshFormat
$Nodes
1 4 1 4
2 1 0 4
1
2
3
4
0 0 0
1 0 0
1 1 0
0 1 0
$EndNodes
$Elements
2 3 1 3
1 1 1 1
1 1 2
2 1 2 2
2 1 2 3
3 1 3 4
$EndElements
"""

# the MSH22_SQUARE nodes and elements, plus an unused node 5, in two node
# blocks and with the line element in a block of its own
MSH41_TWO_NODE_BLOCKS = """$MeshFormat
4.1 0 8
$EndMeshFormat
$PhysicalNames
1
2 1 "lake"
$EndPhysicalNames
$Nodes
2 5 1 5
0 1 0 2
1
2
0 0 0
1 0 0
2 1 0 3
3
4
5
1 1 0
0 1 0
2 2 0
$EndNodes
$Elements
2 3 1 3
1 1 1 1
1 1 2
2 1 2 2
2 1 2 3
3 1 3 4
$EndElements
"""

MSH22_TWIN = MSH22_SQUARE.replace("$Nodes\n4\n", "$Nodes\n5\n").replace(
    "4 0 1 0\n", "4 0 1 0\n5 2 2 0\n")


class TestTriMesh:
    def test_two_triangle_square(self):
        mesh = two_triangle_square()
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2
        assert mesh.total_area == pytest.approx(1.0)
        assert len(mesh.boundary_edges) == 4
        assert mesh.boundary_length == pytest.approx(4.0)

    def test_degenerate_triangle_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshError, match="degenerate"):
            TriMesh(nodes, np.array([[0, 1, 2]]))

    def test_inverted_triangle_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="inverted"):
            TriMesh(nodes, np.array([[0, 2, 1]]))

    def test_unreferenced_node_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        with pytest.raises(MeshError, match="not referenced"):
            TriMesh(nodes, np.array([[0, 1, 2]]))

    def test_disconnected_mesh_rejected(self):
        nodes = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [9.0, 9.0], [10.0, 9.0], [9.0, 10.0]]
        )
        with pytest.raises(MeshError, match="disconnected"):
            TriMesh(nodes, np.array([[0, 1, 2], [3, 4, 5]]))

    def test_p1_gradients_reproduce_linear_function(self):
        mesh = synthetic_lake_mesh(target_h=150.0)
        # a nodal linear field u = 2x - 3y has constant gradient (2, -3)
        u = 2.0 * mesh.nodes[:, 0] - 3.0 * mesh.nodes[:, 1]
        ux = (mesh.grad_x * u[mesh.triangles]).sum(axis=1)
        uy = (mesh.grad_y * u[mesh.triangles]).sum(axis=1)
        assert np.allclose(ux, 2.0, atol=1e-10)
        assert np.allclose(uy, -3.0, atol=1e-10)


class TestGmshIO:
    def test_parse_v22_skips_non_triangles(self, tmp_path):
        path = tmp_path / "square22.msh"
        path.write_text(MSH22_SQUARE)
        with pytest.warns(UserWarning, match="non-triangle"):
            mesh = load_gmsh_mesh(path)
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2
        assert mesh.total_area == pytest.approx(1.0)

    def test_parse_v41(self, tmp_path):
        path = tmp_path / "square41.msh"
        path.write_text(MSH41_SQUARE)
        with pytest.warns(UserWarning, match="non-triangle"):
            mesh = load_gmsh_mesh(path)
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2
        assert mesh.total_area == pytest.approx(1.0)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text(MSH22_SQUARE.replace("2.2 0 8", "3.0 0 8"))
        with pytest.raises(MeshError, match="version"):
            load_gmsh_mesh(path)

    def test_no_triangles_rejected(self, tmp_path):
        text = MSH22_SQUARE.replace(
            "3\n1 1 2 0 1 1 2\n2 2 2 0 1 1 2 3\n3 2 2 0 1 1 3 4",
            "1\n1 1 2 0 1 1 2",
        )
        path = tmp_path / "lines_only.msh"
        path.write_text(text)
        with pytest.raises(MeshError, match="no triangles"):
            load_gmsh_mesh(path)

    @pytest.mark.parametrize("content, problem", [
        (MSH22_SQUARE.replace("3 2 2 0 1 1 3 4", "3 2 2 0 1 1 3 9").encode(),
         "undefined node tag 9"),
        (MSH22_SQUARE.replace("3 1 1 0", "3 1 one 0").encode(), "malformed gmsh file"),
        (b"$MeshFormat\n2.2 1 8\n" + struct.pack("<i", 1) + b"\n$EndMeshFormat\n$Nodes\n1\n"
         + struct.pack("<i3d", 1, -1.0, 0.5, 0.0) + b"\n$EndNodes\n", "binary"),
    ], ids=["undefined-tag", "non-numeric", "binary"])
    def test_malformed_file_rejected(self, tmp_path, content, problem):
        path = tmp_path / "malformed.msh"
        path.write_bytes(content)
        with pytest.raises(MeshError, match=problem):
            load_gmsh_mesh(path)

    def test_degenerate_triangle_in_file_rejected(self, tmp_path):
        text = MSH22_SQUARE.replace("2 2 2 0 1 1 2 3", "2 2 2 0 1 1 2 2")
        path = tmp_path / "degen.msh"
        path.write_text(text)
        with pytest.raises(MeshError):
            with pytest.warns(UserWarning):
                load_gmsh_mesh(path)

    def test_node_permutation_preserves_geometry(self, tmp_path):
        # same square with node ids listed in a different order
        permuted = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
7 1 1 0
2 0 0 0
9 0 1 0
5 1 0 0
$EndNodes
$Elements
2
1 2 2 0 1 2 5 7
2 2 2 0 1 2 7 9
$EndElements
"""
        p1 = tmp_path / "a.msh"
        p2 = tmp_path / "b.msh"
        p1.write_text(MSH22_SQUARE)
        p2.write_text(permuted)
        with pytest.warns(UserWarning):
            mesh_a = load_gmsh_mesh(p1)
        mesh_b = load_gmsh_mesh(p2)

        def geometry(mesh):
            # independent recomputation from raw coordinates
            xy = mesh.nodes[mesh.triangles]
            area = 0.5 * np.abs(
                (xy[:, 1, 0] - xy[:, 0, 0]) * (xy[:, 2, 1] - xy[:, 0, 1])
                - (xy[:, 2, 0] - xy[:, 0, 0]) * (xy[:, 1, 1] - xy[:, 0, 1])
            ).sum()
            return area, mesh.boundary_length

        assert geometry(mesh_a) == pytest.approx(geometry(mesh_b))

    def test_write_read_round_trip(self, tmp_path):
        mesh = synthetic_lake_mesh(target_h=150.0)
        path = tmp_path / "lake.msh"
        write_msh22(mesh, path)
        back = load_gmsh_mesh(path)
        assert back.n_nodes == mesh.n_nodes
        assert back.n_triangles == mesh.n_triangles
        assert back.total_area == pytest.approx(mesh.total_area)

    def test_msh22_bytes_match_per_value_writer(self, tmp_path, edge_values):
        lake = synthetic_lake_mesh()
        # the writer reads only nodes, triangles and their counts, so the
        # coordinates may carry values that no valid TriMesh admits
        mesh = SimpleNamespace(nodes=np.resize(edge_values, (lake.n_nodes, 2)),
                               triangles=lake.triangles, n_nodes=lake.n_nodes,
                               n_triangles=lake.n_triangles)
        write_msh22(mesh, tmp_path / "new.msh")
        # the per-value writer that the batched one replaced, kept as the oracle
        with open(tmp_path / "old.msh", "w", encoding="utf-8") as fh:
            fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
            fh.write(f"$Nodes\n{mesh.n_nodes}\n")
            for i, (x, y) in enumerate(mesh.nodes, start=1):
                fh.write(f"{i} {x:.17g} {y:.17g} 0\n")
            fh.write("$EndNodes\n")
            fh.write(f"$Elements\n{mesh.n_triangles}\n")
            for i, (a, b, c) in enumerate(mesh.triangles, start=1):
                fh.write(f"{i} 2 2 0 1 {a + 1} {b + 1} {c + 1}\n")
            fh.write("$EndElements\n")
        assert (tmp_path / "new.msh").read_bytes() == (tmp_path / "old.msh").read_bytes()

    @pytest.mark.parametrize("version", ["2.2", "4.1", "lake"])
    def test_every_truncation_rejected(self, tmp_path, version):
        path = tmp_path / "full.msh"
        if version == "lake":
            write_msh22(synthetic_lake_mesh(target_h=150.0), path)
        else:
            path.write_text(MSH22_SQUARE if version == "2.2" else MSH41_SQUARE)
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.msh"
        for k in range(len(lines)):
            cut.write_text("".join(lines[:k]))
            with pytest.raises(MeshError):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    load_gmsh_mesh(cut)

    @pytest.mark.parametrize("content, problem", [
        (MSH22_SQUARE.replace("$Nodes\n4\n", "$Nodes\n5\n"),
         "Nodes declares 5 entries but holds 4"),
        (MSH22_SQUARE.replace("$Elements\n3\n", "$Elements\n2\n"),
         "Elements declares 2 entries but holds 3"),
        (MSH22_SQUARE.replace("3 2 2 0 1 1 3 4\n", ""),
         "Elements declares 3 entries but holds 2"),
        (MSH41_SQUARE.replace("2 1 0 4\n", "2 1 0 5\n"),
         "Nodes block declares 5 entries but holds 4"),
        (MSH41_SQUARE.replace("2 1 2 2\n", "2 1 2 1\n"),
         r"Elements holds 1 line\(s\) past its 2 block\(s\)"),
        (MSH41_SQUARE.replace("1 4 1 4\n", "1 3 1 4\n"),
         "Nodes declares 3 entries but holds 4"),
        (MSH41_SQUARE.replace("2 3 1 3\n", "2 4 1 3\n"),
         "Elements declares 4 entries but holds 3"),
    ], ids=["v22-above", "v22-below", "v22-row-cut", "v41-block-above", "v41-block-below",
            "v41-total-below", "v41-total-above"])
    def test_count_mismatch_rejected(self, tmp_path, content, problem):
        path = tmp_path / "miscounted.msh"
        path.write_text(content)
        with pytest.raises(MeshError, match=problem):
            load_gmsh_mesh(path)

    @pytest.mark.parametrize("content", [
        # a second node tagged 2 at (2, 0) would leave the square with area 1.5
        MSH22_SQUARE.replace("$Nodes\n4\n", "$Nodes\n5\n").replace(
            "4 0 1 0\n", "4 0 1 0\n2 2 0 0\n"),
        MSH41_SQUARE.replace("3\n4\n0 0 0", "3\n2\n0 0 0"),
    ], ids=["v22", "v41"])
    def test_duplicate_node_tag_rejected(self, tmp_path, content):
        path = tmp_path / "duplicate.msh"
        path.write_text(content)
        with pytest.raises(MeshError, match="duplicate node tag 2"):
            load_gmsh_mesh(path)

    def test_v41_blocks_load_like_v22_twin(self, tmp_path):
        meshes = []
        for name, text in (("twin22.msh", MSH22_TWIN), ("twin41.msh", MSH41_TWO_NODE_BLOCKS)):
            path = tmp_path / name
            path.write_text(text)
            with pytest.warns(UserWarning, match="ignored 1 non-triangle"):
                meshes.append(load_gmsh_mesh(path))
        v22, v41 = meshes
        assert v41.n_nodes == 4  # the unused node 5 is dropped
        assert np.array_equal(v41.nodes, v22.nodes)
        assert np.array_equal(v41.triangles, v22.triangles)

    @pytest.mark.parametrize("refinements", [0, 1, 2])
    @pytest.mark.parametrize("target_h", [80.0, 130.0, 150.0])
    def test_write_read_is_exact(self, tmp_path, target_h, refinements):
        mesh = synthetic_lake_mesh(target_h=target_h)
        for _ in range(refinements):
            mesh = refine_uniform(mesh)
        path = tmp_path / "lake.msh"
        write_msh22(mesh, path)
        back = load_gmsh_mesh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.triangles, mesh.triangles)


class TestRefine:
    def test_red_refinement_quarters_elements(self):
        mesh = two_triangle_square()
        fine = refine_uniform(mesh)
        assert fine.n_triangles == 4 * mesh.n_triangles
        assert fine.total_area == pytest.approx(mesh.total_area)
        assert fine.max_edge_length() == pytest.approx(mesh.max_edge_length() / 2)
        # coarse nodes keep their indices
        assert np.allclose(fine.nodes[: mesh.n_nodes], mesh.nodes)

    def test_refined_lake_stays_valid(self):
        mesh = synthetic_lake_mesh(target_h=150.0)
        fine = refine_uniform(mesh)
        assert fine.total_area == pytest.approx(mesh.total_area)
        assert fine.n_triangles == 4 * mesh.n_triangles


class TestSyntheticLake:
    def test_outline_is_closed_loop_scale(self):
        pts = lake_outline()
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert radii.min() > 100.0 and radii.max() < 700.0

    def test_mesh_resolution_follows_target(self):
        coarse = synthetic_lake_mesh(target_h=150.0)
        fine = synthetic_lake_mesh(target_h=75.0)
        assert fine.n_triangles > 2.5 * coarse.n_triangles
        assert abs(fine.total_area - coarse.total_area) / coarse.total_area < 0.1

    def test_mesh_is_usable(self):
        mesh = synthetic_lake_mesh(target_h=100.0)
        assert mesh.n_triangles > 50
        assert np.all(mesh.areas > 0.0)
        assert mesh.boundary_length > 0.0


# Loop references for the vectorised mesh utilities: the dictionary and
# union-find versions the library used before, kept here as oracles.


def loop_components(n_nodes, triangles):
    parent = np.arange(n_nodes)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for tri in triangles:
        a = find(tri[0])
        for j in tri[1:]:
            b = find(j)
            if a != b:
                parent[b] = a
    return len({find(i) for i in range(n_nodes)})


def loop_boundary_edges(triangles):
    oriented, seen = {}, {}
    for tri in triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            seen[key] = seen.get(key, 0) + 1
            oriented[key] = (a, b)
    edges = [oriented[k] for k, c in seen.items() if c == 1]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def loop_refine(mesh):
    midpoint_index = {}
    new_nodes = [tuple(xy) for xy in mesh.nodes]

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint_index:
            xy = 0.5 * (mesh.nodes[a] + mesh.nodes[b])
            midpoint_index[key] = len(new_nodes)
            new_nodes.append((float(xy[0]), float(xy[1])))
        return midpoint_index[key]

    new_triangles = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_triangles.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return np.array(new_nodes), np.array(new_triangles)


@pytest.fixture(scope="module", params=[1, 2], ids=["refined1", "refined2"])
def refined_lake(request):
    mesh = synthetic_lake_mesh()
    for _ in range(request.param):
        mesh = refine_uniform(mesh)
    return mesh


class TestVectorisedAgainstLoops:
    def test_refine_numbering_matches_loop(self, refined_lake):
        nodes, triangles = loop_refine(refined_lake)
        fine = refine_uniform(refined_lake)
        assert np.array_equal(fine.nodes, nodes)
        assert np.array_equal(fine.triangles, triangles)

    def test_boundary_edges_match_loop(self, refined_lake):
        expected = loop_boundary_edges(refined_lake.triangles)
        assert np.array_equal(refined_lake.boundary_edges, expected)

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_component_count_matches_loop(self, refined_lake, copies):
        # side-by-side copies of the lake, each its own component
        n = refined_lake.n_nodes
        nodes = np.vstack([refined_lake.nodes + [2000.0 * k, 0.0] for k in range(copies)])
        triangles = np.vstack([refined_lake.triangles + n * k for k in range(copies)])
        assert loop_components(len(nodes), triangles) == copies
        if copies == 1:
            TriMesh(nodes, triangles)
        else:
            with pytest.raises(MeshError, match=rf"disconnected \({copies} components\)"):
                TriMesh(nodes, triangles)
