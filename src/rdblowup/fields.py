"""Catalog of initial-data fields realizable from a config file."""

import numpy as np

from .geometry import Mesh


def make_field(mesh: Mesh, kind: str, params: dict) -> np.ndarray:
    """The constant c, or the gaussian c + amplitude * exp(-|x|^2 / (2 width^2))
    centered at the origin, whose amplitude must be finite and whose width
    must be finite and > 0, with 2 width^2 a positive float.  A cell whose
    |x|^2 / (2 width^2) overflows, as far cells of a narrow gaussian or of a
    vast box do, takes the gaussian's limit there, c."""
    if kind == "constant":
        return np.full(mesh.n_cells, float(params["c"]))
    if kind == "gaussian":
        amplitude, width = params["amplitude"], params["width"]
        if not np.isfinite(amplitude):
            raise ValueError(f"gaussian amplitude must be finite, got {amplitude:g}")
        spread = 2.0 * width * width  # 0 or inf where width^2 leaves the floats
        if not (0 < width < np.inf and 0 < spread < np.inf):
            raise ValueError(f"gaussian width must be finite and > 0, with 2 width^2 a "
                             f"positive float, got {width:g}")
        with np.errstate(over="ignore"):
            r2 = np.sum(mesh.cell_centers**2, axis=1)
            return params["c"] + amplitude * np.exp(-r2 / spread)
    raise ValueError(f"unknown initial-data kind {kind!r}")
