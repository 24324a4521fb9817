"""Catalog of initial-data fields realizable from a config file."""

import numpy as np

from .geometry import Mesh


def constant_field(mesh: Mesh, c: float) -> np.ndarray:
    return np.full(mesh.n_cells, float(c))


def cosine_perturbed_field(mesh: Mesh, c: float, epsilon: float) -> np.ndarray:
    """c + epsilon * cos(pi * x1 / L1); nonnegative when epsilon <= c."""
    L1 = mesh.spec.half_extents[0]
    x1 = mesh.cell_centers[:, 0]
    return c + epsilon * np.cos(np.pi * x1 / L1)


def gaussian_bump_field(mesh: Mesh, c: float, amplitude: float,
                        width: float) -> np.ndarray:
    """c + amplitude * exp(-|x|^2 / (2 width^2)) centered at the origin."""
    r2 = np.sum(mesh.cell_centers**2, axis=1)
    return c + amplitude * np.exp(-r2 / (2.0 * width**2))


def make_field(mesh: Mesh, kind: str, params: dict) -> np.ndarray:
    if kind == "constant":
        return constant_field(mesh, params["c"])
    if kind == "cosine":
        return cosine_perturbed_field(mesh, params["c"], params["epsilon"])
    if kind == "gaussian":
        return gaussian_bump_field(mesh, params["c"], params["amplitude"],
                                   params["width"])
    raise KeyError(f"unknown initial-data kind {kind!r}")
