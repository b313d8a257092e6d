"""Full-layout reference norms and the snapshot reader, for the tests only.

The package computes its norms from rfft-layout coefficients
(``spectral.half_norm``) and never reads a snapshot back; these are the
direct forms that the tests check it against.
"""

import math

import numpy as np

from fpmflow.spectral import RealField, SpectralField, TorusGrid, sobolev_weight


def l2_norm(F: SpectralField) -> float:
    """Physical L2 norm: (2pi)^{d/2} times the l2 norm of the coefficients."""
    return math.sqrt((2.0 * math.pi) ** F.grid.d * float(np.sum(np.abs(F.coeffs) ** 2)))


def sobolev_norm(F: SpectralField, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s) norm under the series convention."""
    w = sobolev_weight(F.grid.wavenumber_magnitude(), s, homogeneous)
    return math.sqrt((2.0 * math.pi) ** F.grid.d * float(np.sum(w * np.abs(F.coeffs) ** 2)))


def read_snapshot(path: str) -> tuple:
    """(RealField, t) from a file written by ``driver.write_snapshot``."""
    with open(path) as fh:
        d, n, t = fh.readline().split()
        d, n, t = int(d), int(n), float(t)
        vals = np.array([float(line) for line in fh])
    grid = TorusGrid(d=d, n=n)
    return RealField(grid, vals.reshape(grid.shape)), t
