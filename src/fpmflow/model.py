"""Right-hand side assembly for the nonlocal transport equation.

The evolved equation is

    d/dt rho + div(rho u) = nu Lap rho,   u = c_K Lambda^{alpha-d} grad rho,

with -2 <= alpha - d <= 0, written b = -(alpha-d)/2 in [0, 1].  The
optional regularization replaces |xi|^{alpha-d} by |xi|^{alpha-d}
chi(mu |xi|) with a smooth cutoff chi supported in [0, 1].

Diffusion is handled exactly by the integrating factor in the stepper, so
``nonlinear_rhs`` returns only -div(rho u) in coefficient space.
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
    gradient,
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


def velocity(rho_hat: SpectralField, p: ModelParams) -> list:
    """u = c_K Lambda^{alpha-d} grad rho (regularized when mu > 0), one RealField per component."""
    sym = velocity_symbol(rho_hat.grid.wavevectors(), p)
    scaled = SpectralField(rho_hat.grid, p.c_K * sym * rho_hat.coeffs)
    return [inverse_transform(g) for g in gradient(scaled)]


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


def nonlinear_rhs(rho_hat: SpectralField, p: ModelParams) -> SpectralField:
    """Nonlinear part of d/dt rho_hat: -(div(rho u))^; diffusion handled elsewhere."""
    if not np.all(np.isfinite(rho_hat.coeffs)):
        raise SpectralError("non-finite coefficients in state")
    rho = inverse_transform(rho_hat)
    u = velocity(rho_hat, p)
    div = flux_divergence(rho, u)
    return SpectralField(rho_hat.grid, -div.coeffs)


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
