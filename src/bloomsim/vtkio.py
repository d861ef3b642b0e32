"""Legacy ASCII VTK output for 2D snapshots, one block write per section.

The writer takes the mesh and plain nodal arrays by name: it needs no solver.
"""

from __future__ import annotations

import numpy as np

from ._textio import write_rows
from .mesh import TriMesh

__all__ = ["write_vtk"]

_TRIANGLE_CELL_TYPE = 5


def write_vtk(mesh: TriMesh, path, point_data: dict, title: str = "lake state") -> None:
    """Write one snapshot as a legacy ASCII unstructured-grid VTK file.

    ``point_data`` maps each array name to its nodal values, one per mesh
    node; the arrays are written as ``SCALARS`` sections in the order
    given.  Raises ValueError, naming the array, if one does not match the
    mesh.
    """
    for name, values in point_data.items():
        if np.shape(values) != (mesh.n_nodes,):
            raise ValueError(f"point data {name!r} does not match the mesh")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        write_rows(fh, np.column_stack([mesh.nodes, np.zeros(mesh.n_nodes)]), " ", "\n")
        fh.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        write_rows(fh, np.column_stack([np.full(mesh.n_triangles, 3), mesh.triangles]), " ", "\n")
        fh.write(f"CELL_TYPES {mesh.n_triangles}\n")
        fh.write(f"{_TRIANGLE_CELL_TYPE}\n" * mesh.n_triangles)
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        for name, values in point_data.items():
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            write_rows(fh, np.asarray(values, dtype=float)[:, None], "", "\n")
