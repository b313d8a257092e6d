"""Right-hand side assembly for the nonlocal transport equation.

The evolved equation is

    d/dt rho + div(rho u) = nu Lap rho,   u = c_K Lambda^{alpha-d} grad rho,

with -2 <= alpha - d <= 0, written b = -(alpha-d)/2 in [0, 1].  The
optional regularization replaces |xi|^{alpha-d} by |xi|^{alpha-d}
chi(mu |xi|) with a smooth cutoff chi supported in [0, 1].

Diffusion is handled exactly by the integrating factor in the stepper, so
``nonlinear_rhs`` returns only -div(rho u) in coefficient space.

The fixed multipliers of a run live in one :class:`SpectralOperator`, which
works in rfft layout; states stay full-layout :class:`SpectralField` s.  The
functions that take an optional ``op`` build a throwaway operator without it.
``flux_divergence`` keeps the full-layout complex-FFT product as the
reference for the operator's divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    BUMP_CUTOFF,
    CutoffSpec,
    RealField,
    SpectralError,
    SpectralField,
    TorusGrid,
    apply_multiplier,
    dealias,
    dealias_mask,
    forward_transform,
    fractional_power,
    heat_multiplier,
    inverse_transform,
    random_real_field,
)


@dataclass(frozen=True)
class ModelParams:
    """Physical and regularization parameters.

    alpha_minus_d : kernel exponent in [-2, 0].
    c_K           : interaction strength (c_K < 0 repulsive).
    nu            : diffusion coefficient, >= 0.
    mu            : regularization scale, 0 disables the cutoff.
    cutoff        : smooth cutoff used when mu > 0.
    """

    alpha_minus_d: float
    c_K: float
    nu: float = 0.0
    mu: float = 0.0
    cutoff: CutoffSpec = BUMP_CUTOFF

    def __post_init__(self):
        if not (-2.0 <= self.alpha_minus_d <= 0.0):
            raise ValueError(f"alpha_minus_d must lie in [-2, 0], got {self.alpha_minus_d}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")

    @property
    def b(self) -> float:
        """Order of the negative fractional power: b = -(alpha-d)/2 in [0, 1]."""
        return -self.alpha_minus_d / 2.0


def velocity_symbol(kv: np.ndarray, p: ModelParams) -> np.ndarray:
    """Scalar part of the velocity multiplier on wavevectors kv of shape (..., d).

    |xi|^{alpha-d} chi(mu |xi|), 0 at xi = 0; the cutoff applies only when mu > 0.
    """
    sym = fractional_power(p.alpha_minus_d).symbol(kv)
    if p.mu > 0.0:
        sym = sym * p.cutoff.chi(p.mu * np.sqrt(np.sum(kv * kv, axis=-1)))
    return sym


class SpectralOperator:
    """The fixed Fourier multipliers of one run, in rfft layout.

    rfft layout keeps the last axis at wavenumbers 0..N/2; the other half
    follows from Hermitian symmetry.  Every transform here is a real FFT with
    ``norm="forward"``, so coefficients scale as in :mod:`fpmflow.spectral`
    (c_0 is the mean).  Build one per run and pass it down: it holds a few
    arrays of the grid's size, and nothing outside the run keeps it alive.

    Attributes (rfft layout unless noted):

    mask          : 2/3-rule dealias mask.
    neg_div       : -i xi_j on the dealiased band, one per component.
    vel           : velocity multipliers c_K |xi|^{alpha-d} chi(mu |xi|) i xi_j,
                    unpaired Nyquist zeroed as in ``spectral.gradient``.
    vel_dealiased : ``vel`` times ``mask``.
    mag2          : |xi|^2 in full layout, for the integrating factors.
    """

    def __init__(self, grid: TorusGrid, p: ModelParams):
        self.grid = grid
        half = grid.n // 2 + 1
        self.mag2 = grid.wavenumber_magnitude() ** 2
        kv = grid.wavevectors()[..., :half, :]
        self.mask = dealias_mask(grid)[..., :half]
        scale = p.c_K * velocity_symbol(kv, p)
        self.neg_div = []
        self.vel = []
        for j in range(grid.d):
            ik = 1j * kv[..., j]
            self.neg_div.append(np.where(self.mask, -ik, 0.0))
            self.vel.append(np.where(kv[..., j] == -(grid.n // 2), 0.0, scale * ik))
        self.vel_dealiased = [np.where(self.mask, v, 0.0) for v in self.vel]
        self._axes = tuple(range(grid.d))
        # Row of -xi_0 for each row xi_0, for the conjugate mirror in 2-D.
        self._neg_rows = (-np.arange(grid.n)) % grid.n

    def half(self, coeffs: np.ndarray) -> np.ndarray:
        """The rfft-layout part of full-layout coefficients (a view)."""
        return coeffs[..., : self.grid.n // 2 + 1]

    def physical(self, h: np.ndarray) -> np.ndarray:
        """Physical values of the real field with rfft-layout coefficients h."""
        return np.fft.irfftn(h, s=self.grid.shape, axes=self._axes, norm="forward")

    def dealiased_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Dealiased physical values of the field with full-layout coefficients."""
        return self.physical(self.mask * self.half(coeffs))

    def dealias(self, values: np.ndarray) -> np.ndarray:
        """Physical values with every |xi_j| > N/3 removed."""
        return self.physical(self.mask * np.fft.rfftn(values, norm="forward"))

    def full(self, h: np.ndarray) -> np.ndarray:
        """Full-layout coefficients from rfft-layout ones, Hermitian bit for bit.

        The last axis is completed by the conjugate mirror of h.  In 2-D the
        xi_1 = 0 column is made Hermitian as well, from its xi_0 > 0 half.
        """
        n = self.grid.n
        out = np.empty(self.grid.shape, dtype=np.complex128)
        out[..., : n // 2 + 1] = h
        if self.grid.d == 1:
            np.conjugate(h[n // 2 - 1:0:-1], out=out[n // 2 + 1:])
        else:
            np.conjugate(h[self._neg_rows, n // 2 - 1:0:-1], out=out[:, n // 2 + 1:])
            np.conjugate(h[n // 2 - 1:0:-1, 0], out=out[n // 2 + 1:, 0])
        return out

    def transport(self, rho_d: np.ndarray, u_d: list) -> np.ndarray:
        """Full-layout coefficients of -div(rho_d u_d) on the dealiased band.

        rho_d and the components u_d are dealiased physical values, so the
        product is the exact (no-wrap) convolution on the retained band.
        """
        acc = np.zeros(self.mask.shape, dtype=np.complex128)
        for m, uj in zip(self.neg_div, u_d):
            acc += m * np.fft.rfftn(rho_d * uj, norm="forward")
        acc[(0,) * self.grid.d] = 0.0  # divergence form: exact mass conservation
        return self.full(acc)


def velocity(rho_hat: SpectralField, p: ModelParams,
             op: SpectralOperator | None = None) -> list:
    """u = c_K Lambda^{alpha-d} grad rho (regularized when mu > 0), one RealField per component."""
    if op is None:
        op = SpectralOperator(rho_hat.grid, p)
    h = op.half(rho_hat.coeffs)
    return [RealField(rho_hat.grid, op.physical(m * h)) for m in op.vel]


def flux_divergence(rho: RealField, u: list) -> SpectralField:
    """Coefficients of div(rho u); the product is formed after dealiasing.

    Both factors are dealiased (2/3 rule), multiplied pointwise, and the
    divergence output is dealiased again so the result equals the exact
    (no-wrap) spectral convolution on the retained band.
    """
    grid = rho.grid
    mask = dealias_mask(grid)
    rho_d = inverse_transform(dealias(forward_transform(rho)))
    out = np.zeros(grid.shape, dtype=np.complex128)
    kv = grid.wavevectors()
    for j, uj in enumerate(u):
        if uj.grid != grid:
            raise SpectralError("velocity component on a different grid")
        uj_d = inverse_transform(dealias(forward_transform(uj)))
        prod_hat = np.fft.fftn(rho_d.values * uj_d.values) / grid.npoints
        out += 1j * kv[..., j] * prod_hat
    out = np.where(mask, out, 0.0)
    out.flat[0] = 0.0  # divergence form: exact mass conservation
    return SpectralField(grid, out)


def nonlinear_rhs(rho_hat: SpectralField, p: ModelParams,
                  op: SpectralOperator | None = None) -> SpectralField:
    """Nonlinear part of d/dt rho_hat: -(div(rho u))^; diffusion handled elsewhere.

    With the run's operator ``op`` this costs 1 + 2d real FFTs.
    """
    if not np.all(np.isfinite(rho_hat.coeffs)):
        raise SpectralError("non-finite coefficients in state")
    if op is None:
        op = SpectralOperator(rho_hat.grid, p)
    h = op.half(rho_hat.coeffs)
    rho_d = op.dealiased_values(rho_hat.coeffs)
    u_d = [op.physical(m * h) for m in op.vel_dealiased]
    return SpectralField(rho_hat.grid, op.transport(rho_d, u_d))


def mollify_initial(rho0: RealField, mu: float) -> RealField:
    """Smooth initial data by the heat kernel at time mu^2/2; mean preserved exactly."""
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if mu == 0.0:
        return RealField(rho0.grid, rho0.values.copy())
    F = forward_transform(rho0)
    return inverse_transform(apply_multiplier(F, heat_multiplier(mu * mu / 2.0)))


@dataclass(frozen=True)
class InitialCondition:
    """Initial data specification.

    kind is one of:
      - "cosine":   mean + amplitude * cos(k . x)   (requires mean >= amplitude >= 0
                    for nonnegative data)
      - "gaussian": periodized Gaussian with total mass ``mass`` and width ``sigma``,
                    centered at ``center``
      - "random":   smooth random field, coefficient decay exponent ``decay``,
                    shifted by ``mean``
    """

    kind: str
    mean: float = 1.0
    amplitude: float = 0.5
    k: tuple = (1,)
    mass: float = 1.0
    sigma: float = 0.5
    center: tuple = (math.pi,)
    decay: float = 3.0
    seed: int = 0

    def build(self, grid: TorusGrid) -> RealField:
        if self.kind == "cosine":
            if not (self.mean >= self.amplitude >= 0.0):
                raise ValueError("cosine data needs mean >= amplitude >= 0")
            kvec = self.k if len(self.k) == grid.d else self.k * grid.d
            xs = grid.points()
            phase = sum(kj * xj for kj, xj in zip(kvec, xs))
            return RealField(grid, self.mean + self.amplitude * np.cos(phase))
        if self.kind == "gaussian":
            if self.mass <= 0.0:
                raise ValueError("gaussian data needs positive mass")
            center = self.center if len(self.center) == grid.d else self.center * grid.d
            # Periodized Gaussian assembled in coefficient space:
            # c_xi = mass / (2pi)^d * exp(-sigma^2 |xi|^2 / 2 - i xi.center).
            kv = grid.wavevectors()
            mag2 = np.sum(kv * kv, axis=-1)
            phase = sum(kv[..., j] * center[j] for j in range(grid.d))
            coeffs = (
                self.mass
                / (2.0 * math.pi) ** grid.d
                * np.exp(-self.sigma ** 2 * mag2 / 2.0)
                * np.exp(-1j * phase)
            )
            return inverse_transform(SpectralField(grid, coeffs))
        if self.kind == "random":
            rng = np.random.default_rng(self.seed)
            return random_real_field(
                grid, rng, decay=self.decay, amplitude=self.amplitude, mean=self.mean
            )
        raise ValueError(f"unknown initial condition kind {self.kind!r}")
