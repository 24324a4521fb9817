"""Catalog of initial-data fields realizable from a config file."""

import numpy as np

from .geometry import Mesh


def make_field(mesh: Mesh, kind: str, params: dict) -> np.ndarray:
    """The constant c, or the gaussian c + amplitude * exp(-|x|^2 / (2 width^2))
    centered at the origin, whose width must be finite and > 0."""
    if kind == "constant":
        return np.full(mesh.n_cells, float(params["c"]))
    if kind == "gaussian":
        width = params["width"]
        if not 0 < width < np.inf:
            raise ValueError(f"gaussian width must be finite and > 0, got {width:g}")
        r2 = np.sum(mesh.cell_centers**2, axis=1)
        return params["c"] + params["amplitude"] * np.exp(-r2 / (2.0 * width**2))
    raise ValueError(f"unknown initial-data kind {kind!r}")
