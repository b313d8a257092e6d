"""Full-layout reference norms, the energy kernel and the snapshot reader, for the tests only.

The package computes its norms from rfft-layout coefficients
(``spectral.half_norm``), evaluates the energy identities through
``diagnostics.EnergyResidualKernel`` and never reads a snapshot back; these
are the direct forms that the tests check it against.
"""

import math

import numpy as np

from fpmflow.diagnostics import SeparableKernel
from fpmflow.model import ModelParams, velocity_symbol
from fpmflow.spectral import (RealField, SpectralField, TorusGrid, fractional_power,
                              sobolev_weight)


def mass(F: SpectralField) -> float:
    """Total mass (2pi)^d Re c_0."""
    return (2.0 * math.pi) ** F.grid.d * float(F.coeffs.flat[0].real)


def l2_norm(F: SpectralField) -> float:
    """Physical L2 norm: (2pi)^{d/2} times the l2 norm of the coefficients."""
    return math.sqrt((2.0 * math.pi) ** F.grid.d * float(np.sum(np.abs(F.coeffs) ** 2)))


def sobolev_norm(F: SpectralField, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s) norm under the series convention."""
    w = sobolev_weight(F.grid.wavenumber_magnitude(), s, homogeneous)
    return math.sqrt((2.0 * math.pi) ** F.grid.d * float(np.sum(w * np.abs(F.coeffs) ** 2)))


def energy_kernel(s: float, p: ModelParams, grid) -> SeparableKernel:
    """Kernel |xi|^{2s} xi.eta m(eta) driving d/dt (1/2)||rho||_{Hdot^s}^2.

    m(eta) = |eta|^{-2b} chi(mu |eta|) matches the (possibly regularized)
    velocity law of ``p``; s = 0 gives the L2 identity.
    """
    weight = fractional_power(2.0 * s)
    terms = []
    for j in range(grid.d):

        def a(xi, j=j):
            return weight(xi) * xi[..., j]

        def b(eta, j=j):
            return velocity_symbol(eta, p) * eta[..., j]

        terms.append((a, b))
    return SeparableKernel(terms=tuple(terms))


def read_snapshot(path: str) -> tuple:
    """(RealField, t) from a file written by ``driver.write_snapshot``."""
    with open(path) as fh:
        d, n, t = fh.readline().split()
        d, n, t = int(d), int(n), float(t)
        vals = np.array([float(line) for line in fh])
    grid = TorusGrid(d=d, n=n)
    return RealField(grid, vals.reshape(grid.shape)), t
