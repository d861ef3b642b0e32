"""Legacy ASCII VTK output for 2D snapshots, one block write per section."""

from __future__ import annotations

import numpy as np

from ._textio import write_rows
from .core import ModelParams
from .mesh import TriMesh
from .solver2d import Field2D

__all__ = ["write_vtk"]

_TRIANGLE_CELL_TYPE = 5


def write_vtk(field: Field2D, mesh: TriMesh, path, params: ModelParams, title: str = "lake state") -> None:
    """Write one snapshot as a legacy ASCII unstructured-grid VTK file.

    Point data arrays: B, p, P, and the diagnostic quota Q.
    """
    if field.B.size != mesh.n_nodes:
        raise ValueError("field size does not match mesh")
    Q = field.quota(params)
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
        for name, values in (("B", field.B), ("p", field.p), ("P", field.P), ("Q", Q)):
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            write_rows(fh, values[:, None], "", "\n")
