"""Wavefront OBJ export of surface grids.

Vertices are written row-major in (u, v) grid order and each grid quad
is split into two triangles along the diagonal from its lower-left
corner, so identical inputs produce byte-identical files.  Coordinates
are ambient-chart coordinates, not an isometric embedding.
"""

from __future__ import annotations

import numpy as np

from .errors import MeshUnsupported


def surface_vertices(imm, u_values, v_values):
    """Ambient coordinates of the immersion over a (u, v) grid."""
    if imm.n != 2:
        raise MeshUnsupported(f"mesh export needs n = 2, got n = {imm.n}")
    u, v = np.meshgrid(
        np.asarray(u_values, dtype=float), np.asarray(v_values, dtype=float), indexing="ij"
    )
    coords = imm.ambient_coordinates(np.stack([u.ravel(), v.ravel()], axis=-1))
    return coords.reshape(u.shape + (3,))


def obj_lines(vertices):
    """OBJ text lines for a (rows, cols, 3) vertex grid."""
    rows, cols, _ = vertices.shape
    lines = []
    for i in range(rows):
        for j in range(cols):
            x, y, z = (float(v) for v in vertices[i, j])
            lines.append(f"v {x!r} {y!r} {z!r}")
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, b = i * cols + j + 1, (i + 1) * cols + j + 1  # vertex (i, j) and the one below it
            lines.append(f"f {a} {b} {b + 1}")
            lines.append(f"f {a} {b + 1} {a + 1}")
    return lines


def write_obj(path, vertices):
    text = "\n".join(obj_lines(vertices)) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return text
