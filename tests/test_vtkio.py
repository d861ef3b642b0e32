"""Legacy VTK writer format checks."""

from types import SimpleNamespace

import numpy as np
import pytest

from bloomsim.core import QUOTA_B_FLOOR, _quota, default_params
from bloomsim.mesh import synthetic_lake_mesh, two_triangle_square
from bloomsim.solver2d import Field2D
from bloomsim.vtkio import write_vtk


def _point_data(field, params):
    # the arrays the CLI writes: the fields and their reported quota
    return {"B": field.B, "p": field.p, "P": field.P,
            "Q": _quota(field.B, field.p, params, QUOTA_B_FLOOR)}


@pytest.fixture
def written(tmp_path):
    mesh = two_triangle_square()
    params = default_params()
    field = Field2D.uniform(mesh, 2.0, 0.02, 0.4)
    path = tmp_path / "snap.vtk"
    write_vtk(mesh, path, _point_data(field, params))
    return mesh, path.read_text().splitlines()


def test_point_count_matches_mesh(written):
    mesh, lines = written
    points_line = next(l for l in lines if l.startswith("POINTS"))
    assert int(points_line.split()[1]) == mesh.n_nodes


def test_every_cell_is_a_triangle(written):
    mesh, lines = written
    idx = lines.index(f"CELL_TYPES {mesh.n_triangles}")
    types = lines[idx + 1 : idx + 1 + mesh.n_triangles]
    assert types == ["5"] * mesh.n_triangles
    cells_line = next(l for l in lines if l.startswith("CELLS"))
    _, n_cells, total = cells_line.split()
    assert int(n_cells) == mesh.n_triangles
    assert int(total) == 4 * mesh.n_triangles


def test_four_scalar_arrays(written):
    _, lines = written
    scalars = [l.split()[1] for l in lines if l.startswith("SCALARS")]
    assert scalars == ["B", "p", "P", "Q"]
    # every scalar section carries one value per node
    mesh_nodes = int(next(l for l in lines if l.startswith("POINT_DATA")).split()[1])
    assert mesh_nodes == 4


def test_values_round_trip(written, tmp_path):
    mesh, lines = written
    start = lines.index("SCALARS B double 1") + 2
    values = [float(v) for v in lines[start : start + mesh.n_nodes]]
    assert values == [2.0] * mesh.n_nodes


def test_size_mismatch_rejected(tmp_path):
    mesh = two_triangle_square()
    field = Field2D(np.ones(9), np.ones(9), np.ones(9))
    with pytest.raises(ValueError, match="point data 'B' does not match the mesh"):
        write_vtk(mesh, tmp_path / "bad.vtk", _point_data(field, default_params()))


def _write_vtk_per_value(field, mesh, path, params, title):
    # the per-value writer that the batched one replaced, kept as the oracle
    Q = _quota(field.B, field.p, params, QUOTA_B_FLOOR)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g} 0\n")
        fh.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {mesh.n_triangles}\n")
        for _ in range(mesh.n_triangles):
            fh.write("5\n")
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        for name, values in (("B", field.B), ("p", field.p), ("P", field.P), ("Q", Q)):
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            for value in values:
                fh.write(f"{value:.17g}\n")


def test_bytes_match_per_value_writer(tmp_path, edge_values):
    lake = synthetic_lake_mesh()
    n = lake.n_nodes
    # the writer reads only nodes, triangles and their counts, so the
    # coordinates may carry values that no valid TriMesh admits
    mesh = SimpleNamespace(nodes=np.resize(edge_values, (n, 2)), triangles=lake.triangles,
                           n_nodes=n, n_triangles=lake.n_triangles)
    field = Field2D(*(np.roll(np.resize(edge_values, n), k) for k in range(3)))
    params = default_params()
    with np.errstate(all="ignore"):
        write_vtk(mesh, tmp_path / "new.vtk", _point_data(field, params), title="t=0.5")
        _write_vtk_per_value(field, mesh, tmp_path / "old.vtk", params, title="t=0.5")
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()
