"""Triangular meshes: gmsh import, geometry, fixtures, refinement.

A :class:`TriMesh` stores nodes and triangles together with the precomputed
P1 geometry (areas, shape-function gradients, boundary edges).  Meshes come
from gmsh ASCII files (format 2.2 or the 4.1 block layout, both read section
by section with every declared count checked against the rows present) or
from the bundled synthetic lake generator used by tests and demos.  Uniform
"red" refinement splits every triangle into four, exactly halving element
diameters, which is what the convergence checks rely on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import Delaunay

from ._textio import write_rows

__all__ = [
    "TriMesh",
    "MeshError",
    "load_gmsh_mesh",
    "write_msh22",
    "refine_uniform",
    "two_triangle_square",
    "lake_outline",
    "synthetic_lake_mesh",
]

_AREA_TOL = 1e-14


class MeshError(ValueError):
    """Malformed or unusable mesh input."""


@dataclass
class TriMesh:
    """Nodes, triangles, and precomputed P1 element geometry.

    Construction validates the mesh: positive (counterclockwise) triangle
    areas, every node referenced, and a connected triangulation.
    """

    nodes: np.ndarray       # (N, 2)
    triangles: np.ndarray   # (M, 3) int
    areas: np.ndarray = field(init=False)
    grad_x: np.ndarray = field(init=False)   # (M, 3) d(phi_j)/dx per element
    grad_y: np.ndarray = field(init=False)
    boundary_edges: np.ndarray = field(init=False)  # (E, 2) node pairs

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshError("nodes must be an (N, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (M, 3) array")
        if self.triangles.size == 0:
            raise MeshError("mesh contains no triangles")
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.nodes):
            raise MeshError("triangle index out of range")

        x = self.nodes[:, 0][self.triangles]
        y = self.nodes[:, 1][self.triangles]
        twice_signed = _twice_signed_areas(x, y)
        if np.any(np.abs(twice_signed) < _AREA_TOL):
            raise MeshError("degenerate (zero-area) triangle")
        if np.any(twice_signed < 0):
            raise MeshError("inverted (clockwise) triangle")
        self.areas = 0.5 * twice_signed

        # constant P1 gradients: grad phi_j = (b_j, c_j) / (2 A)
        self.grad_x = np.stack(
            [y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1
        ) / (2.0 * self.areas[:, None])
        self.grad_y = np.stack(
            [x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1
        ) / (2.0 * self.areas[:, None])

        referenced = np.zeros(len(self.nodes), dtype=bool)
        referenced[self.triangles] = True
        if not referenced.all():
            raise MeshError(f"{(~referenced).sum()} node(s) not referenced by any triangle")
        n = len(self.nodes)
        edges, keys = _edges(self.triangles, n)
        graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
        n_components, _ = connected_components(graph, directed=False)
        if n_components != 1:
            raise MeshError(f"mesh is disconnected ({n_components} components)")
        # an edge is on the boundary when exactly one triangle has it; edges
        # keep their triangle's orientation and the order of first appearance
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        self.boundary_edges = edges[np.sort(first[counts == 1])]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())

    @property
    def boundary_length(self) -> float:
        if len(self.boundary_edges) == 0:
            return 0.0
        d = self.nodes[self.boundary_edges[:, 0]] - self.nodes[self.boundary_edges[:, 1]]
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def max_edge_length(self) -> float:
        corners = self.nodes[self.triangles]  # (M, 3, 2)
        d = corners - corners[:, [1, 2, 0]]   # edges ab, bc, ca
        return float(np.hypot(d[..., 0], d[..., 1]).max())


def _edges(triangles: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (3M, 2) directed edges ab, bc, ca of each triangle in turn, and
    one integer key per undirected edge, equal for both directions."""
    edges = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = edges.min(axis=1) * n_nodes + edges.max(axis=1)
    return edges, keys


def _twice_signed_areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Twice the signed area of each triangle from its (M, 3) vertex
    coordinates; positive for counterclockwise triangles."""
    return (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])


def _drop_unused(nodes: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the nodes no triangle references, renumbering the rest in order."""
    used = np.zeros(len(nodes), dtype=bool)
    used[triangles] = True
    remap = -np.ones(len(nodes), dtype=np.int64)
    remap[used] = np.arange(used.sum())
    return nodes[used], remap[triangles]


def _orient_ccw(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    out = triangles.copy()
    flip = _twice_signed_areas(nodes[:, 0][triangles], nodes[:, 1][triangles]) < 0
    out[flip, 1], out[flip, 2] = triangles[flip, 2], triangles[flip, 1]
    return out


def _section(lines: list[str], name: str) -> list[str]:
    """The lines between ``$name`` and ``$Endname``."""
    try:
        start = lines.index(f"${name}") + 1
    except ValueError:
        raise MeshError(f"missing ${name} section") from None
    try:
        return lines[start : lines.index(f"$End{name}", start)]
    except ValueError:
        raise MeshError(f"${name} section ends without $End{name}") from None


def _check_count(what: str, declared: str, held: int) -> None:
    if int(declared) != held:
        raise MeshError(f"{what} declares {declared} entries but holds {held}")


def _read_msh22(nodes: list[str], elements: list[str]):
    """Node tags, node xy, triangle node tags (all as text) and the number
    of other elements, from the v2.2 ``$Nodes`` and ``$Elements`` bodies."""
    _check_count("$Nodes", nodes[0], len(nodes) - 1)
    _check_count("$Elements", elements[0], len(elements) - 1)
    cells = [row.split() for row in nodes[1:]]
    triangles = [row[3 + int(row[2]) :] for row in map(str.split, elements[1:])
                 if int(row[1]) == 2]
    return ([c[0] for c in cells], [(c[1], c[2]) for c in cells], triangles,
            len(elements) - 1 - len(triangles))


def _blocks(body: list[str], what: str, lines_per_entry: int) -> list[tuple[list, list]]:
    """The header fields and lines of each entity block of a v4.1 section,
    checked against the block sizes and the section's declared totals."""
    n_blocks, total = body[0].split()[:2]
    blocks, at, entries = [], 1, 0
    for _ in range(int(n_blocks)):
        head = body[at].split()
        rows = body[at + 1 : at + 1 + lines_per_entry * int(head[3])]
        _check_count(f"a {what} block", head[3], len(rows) // lines_per_entry)
        blocks.append((head, rows))
        at += 1 + len(rows)
        entries += int(head[3])
    if at != len(body):
        raise MeshError(f"{what} holds {len(body) - at} line(s) past its {n_blocks} block(s)")
    _check_count(what, total, entries)
    return blocks


def _read_msh41(nodes: list[str], elements: list[str]):
    """As :func:`_read_msh22`, from the v4.1 block layout."""
    tags, xy = [], []
    for _, rows in _blocks(nodes, "$Nodes", 2):
        n = len(rows) // 2
        tags += rows[:n]
        xy += [(c[0], c[1]) for c in map(str.split, rows[n:])]
    triangles, skipped = [], 0
    for head, rows in _blocks(elements, "$Elements", 1):
        if int(head[2]) == 2:
            triangles += [row.split()[1:] for row in rows]
        else:
            skipped += len(rows)
    return tags, xy, triangles, skipped


def load_gmsh_mesh(path) -> TriMesh:
    """Read a gmsh ASCII mesh (v2.2 or v4.1), keeping the 2D triangles.

    Both versions are read from the bodies of their ``$MeshFormat``,
    ``$Nodes`` and ``$Elements`` sections.  Nodes are ordered by tag and
    nodes no triangle uses are dropped.  Non-triangle elements are ignored
    with a count warning.  :class:`MeshError` is raised for unknown format
    versions, binary files, a missing section or ``$End`` marker, a declared
    count that differs from the rows present, a short or non-numeric row,
    a duplicate node tag, a triangle on an undefined node tag, a file
    without triangles, and inverted or degenerate triangles.
    """
    # undecodable bytes must not stop the header check; in a field they
    # fail to parse like any other malformed text
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = [line.strip() for line in fh.read().splitlines()]
    try:
        header = _section(lines, "MeshFormat")[0].split()
        version = header[0]
    except IndexError as exc:
        raise MeshError("missing $MeshFormat header") from exc
    if header[1:2] == ["1"]:
        raise MeshError("binary gmsh files are not supported")
    if version.startswith("2.2"):
        read = _read_msh22
    elif version.startswith("4.1"):
        read = _read_msh41
    else:
        raise MeshError(f"unsupported gmsh format version {version}")
    try:
        tags, xy, triangles, skipped = read(_section(lines, "Nodes"), _section(lines, "Elements"))
        tags = np.array(tags, dtype=np.int64)
        xy = np.array(xy, dtype=float)
        triangles = np.array(triangles, dtype=np.int64)
    except MeshError:
        raise
    except ValueError as exc:
        raise MeshError(f"malformed gmsh file: {exc}") from exc
    except IndexError as exc:
        raise MeshError("malformed gmsh file: a section or row ends early") from exc
    if triangles.size == 0:
        raise MeshError("mesh file contains no triangles")
    order = np.argsort(tags)
    tags = tags[order]
    repeated = tags[1:] == tags[:-1]
    if repeated.any():
        raise MeshError(f"duplicate node tag {tags[1:][repeated][0]}")
    undefined = ~np.isin(triangles, tags)
    if undefined.any():
        raise MeshError(f"triangle refers to undefined node tag {triangles[undefined][0]}")
    if skipped:
        warnings.warn(f"ignored {skipped} non-triangle element(s)")
    # gmsh files routinely carry boundary-only points; drop them
    return TriMesh(*_drop_unused(xy[order], np.searchsorted(tags, triangles)))


def write_msh22(mesh: TriMesh, path) -> None:
    """Write a minimal gmsh 2.2 ASCII file (triangles only)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{mesh.n_nodes}\n")
        nodes = np.column_stack([np.arange(1, mesh.n_nodes + 1), mesh.nodes, np.zeros(mesh.n_nodes)])
        write_rows(fh, nodes, " ", "\n")
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n{mesh.n_triangles}\n")
        # element number, type 2 (triangle), 2 tags (physical 0, elementary 1), nodes
        elements = np.column_stack([
            np.arange(1, mesh.n_triangles + 1),
            np.tile([2, 2, 0, 1], (mesh.n_triangles, 1)),
            mesh.triangles + 1,
        ])
        write_rows(fh, elements, " ", "\n")
        fh.write("$EndElements\n")


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Red refinement: each triangle splits into four via edge midpoints.

    The coarse nodes keep their indices (they come first in the refined
    node list), so coarse nodal fields can be compared against restricted
    fine fields directly.
    """
    n = mesh.n_nodes
    edges, keys = _edges(mesh.triangles, n)
    # midpoints are numbered after the coarse nodes in order of first
    # appearance, walking the triangles and their edges ab, bc, ca in turn
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ends = edges[np.sort(first)]
    new_nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[ends[:, 0]] + mesh.nodes[ends[:, 1]])])

    a, b, c = mesh.triangles.T
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    new_triangles = np.stack(
        [a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1
    ).reshape(-1, 3)
    return TriMesh(new_nodes, new_triangles)


def two_triangle_square(side: float = 1.0) -> TriMesh:
    """The unit square split along a diagonal; the smallest valid mesh."""
    nodes = np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    return TriMesh(nodes, triangles)


def lake_outline(n_points: int = 160, radius: float = 400.0) -> np.ndarray:
    """A smooth closed lake-like curve with two sheltered inlets (metres).

    Polar perturbation of a circle; points are counterclockwise and the
    curve does not self-intersect for the default coefficients.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
    r = radius * (
        1.0
        + 0.22 * np.cos(2 * theta)
        + 0.10 * np.sin(3 * theta)
        - 0.07 * np.cos(5 * theta)
    )
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def _points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd ray casting; boundary points are not guaranteed either way."""
    x, y = points[:, :1], points[:, 1:]  # (N, 1), broadcast against the E edges
    (x1, y1), (x2, y2) = np.roll(polygon, 1, axis=0).T, polygon.T
    crosses = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return np.logical_xor.reduce(crosses & (x < x_cross), axis=1)


def synthetic_lake_mesh(target_h: float = 80.0, radius: float = 400.0) -> TriMesh:
    """Unstructured triangulation of the synthetic lake outline.

    Boundary points at roughly ``target_h`` spacing plus a staggered interior
    lattice are Delaunay-triangulated; triangles whose centroid falls outside
    the outline are discarded, which carves out the non-convex inlets.
    """
    outline_n = max(32, int(round(2.0 * math.pi * radius * 1.2 / target_h)))
    outline = lake_outline(n_points=outline_n, radius=radius)

    lo = outline.min(axis=0) - target_h
    hi = outline.max(axis=0) + target_h
    xs = np.arange(lo[0], hi[0] + target_h, target_h)
    ys = np.arange(lo[1], hi[1] + target_h * 0.866, target_h * 0.866)
    # odd rows shift by half a spacing: a staggered, near-equilateral lattice
    X, Y = np.meshgrid(xs, ys)
    X = X + np.where(np.arange(len(ys)) % 2, 0.5 * target_h, 0.0)[:, None]
    interior = np.column_stack([X.ravel(), Y.ravel()])
    # keep lattice points clear of the boundary so small slivers cannot form
    d2 = ((interior[:, None, 0] - outline[:, 0]) ** 2
          + (interior[:, None, 1] - outline[:, 1]) ** 2)
    keep = _points_in_polygon(interior, outline) & (d2.min(axis=1) > (0.55 * target_h) ** 2)
    points = np.vstack([outline, interior[keep]])

    tri = Delaunay(points)
    centroids = points[tri.simplices].mean(axis=1)
    inside = _points_in_polygon(centroids, outline)
    conn = _orient_ccw(points, tri.simplices[inside])
    # drop any nodes that lost all their triangles during the carve
    return TriMesh(*_drop_unused(points, conn))
