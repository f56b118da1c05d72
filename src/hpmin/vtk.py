"""Legacy ASCII VTK output (unstructured grids of QUAD cells)."""

from __future__ import annotations

import numpy as np

from .basis import tabulate
from .dofmap import sample_field

__all__ = ["write_vtk", "write_solution"]

QUAD_CELL_TYPE = 9


def write_vtk(path, points, cells, point_data=None, cell_data=None,
              title="hpmin output"):
    """Write 2D points and quad connectivity as a legacy VTK file.

    ``point_data`` / ``cell_data`` map field names to flat arrays.
    """
    points = np.asarray(points, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} double",
    ]
    lines.extend(f"{x:.12g} {y:.12g} 0" for x, y in points)
    lines.append(f"CELLS {len(cells)} {5 * len(cells)}")
    lines.extend("4 " + " ".join(map(str, quad)) for quad in cells)
    lines.append(f"CELL_TYPES {len(cells)}")
    lines.extend(str(QUAD_CELL_TYPE) for _ in range(len(cells)))
    for header, data in (("POINT_DATA", point_data), ("CELL_DATA", cell_data)):
        if not data:
            continue
        count = len(points) if header == "POINT_DATA" else len(cells)
        lines.append(f"{header} {count}")
        for name, values in data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{v:.12g}" for v in np.asarray(values, dtype=float))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_solution(path, model, v_full: np.ndarray, title: str) -> None:
    """Write a solved model as per-element display grids of QUAD cells.

    Each element contributes an independent patch on p + 1 equispaced
    points per direction, p the degree of ``model.dofmap``, where every
    component of the expansion is sampled, so the high-order content
    survives in a format that only knows bilinear cells.  A scalar field
    becomes point field ``u`` on the element's image under its bilinear
    map; a deformation (two components) becomes the points themselves.
    Cell field ``W`` is the element's mean energy density, its density
    integral over its area (the sum of w |J|), on each of its p^2 cells.
    """
    dofmap = model.dofmap
    n_sub = dofmap.p + 1
    t = np.linspace(-1.0, 1.0, n_sub)
    xi, eta = np.meshgrid(t, t, indexing="ij")
    table = tabulate(dofmap.p, np.column_stack([xi.ravel(), eta.ravel()]))
    values = sample_field(dofmap, v_full, table)  # (components, T, n_sub^2)
    if dofmap.components == 1:
        # the four nodal hats lead every degree's table: they are the bilinear map
        corners = dofmap.mesh.nodes[dofmap.mesh.elems2nodes]  # (T, 4, 2)
        points = np.einsum("mq,tmd->tqd", table.values[:4], corners)
        point_data = {"u": values.ravel()}
    else:
        points, point_data = values.transpose(1, 2, 0), None

    base = np.arange(dofmap.mesh.n_elems)[:, None] * (n_sub * n_sub)
    i, j = np.meshgrid(np.arange(n_sub - 1), np.arange(n_sub - 1), indexing="ij")
    ll = (i * n_sub + j).ravel()
    patch = np.stack([ll, ll + n_sub, ll + n_sub + 1, ll + 1], axis=1)
    cells = (base[:, :, None] + patch[None, :, :]).reshape(-1, 4)
    density = model.element_energies(v_full) / model.geometry.wdetj.sum(axis=1)
    write_vtk(path, points.reshape(-1, 2), cells, point_data=point_data,
              cell_data={"W": np.repeat(density, patch.shape[0])}, title=title)
