"""Catalog of initial-data fields realizable from a config file."""

import numpy as np

from .geometry import Mesh


def constant_field(mesh: Mesh, c: float) -> np.ndarray:
    return np.full(mesh.n_cells, float(c))


def gaussian_bump_field(mesh: Mesh, c: float, amplitude: float,
                        width: float) -> np.ndarray:
    """c + amplitude * exp(-|x|^2 / (2 width^2)) centered at the origin; the
    width must be finite and > 0."""
    if not 0 < width < np.inf:
        raise ValueError(f"gaussian width must be finite and > 0, got {width:g}")
    r2 = np.sum(mesh.cell_centers**2, axis=1)
    return c + amplitude * np.exp(-r2 / (2.0 * width**2))


def make_field(mesh: Mesh, kind: str, params: dict) -> np.ndarray:
    if kind == "constant":
        return constant_field(mesh, params["c"])
    if kind == "gaussian":
        return gaussian_bump_field(mesh, params["c"], params["amplitude"],
                                   params["width"])
    raise ValueError(f"unknown initial-data kind {kind!r}")
