"""Right-hand side assembly for the nonlocal transport equation.

The evolved equation is

    d/dt rho + div(rho u) = nu Lap rho,   u = c_K Lambda^{alpha-d} grad rho,

with -2 <= alpha - d <= 0, written b = -(alpha-d)/2 in [0, 1].  The
optional regularization replaces |xi|^{alpha-d} by |xi|^{alpha-d}
chi(mu |xi|) with a smooth cutoff chi supported in [0, 1].

Diffusion is handled exactly by the integrating factor in the stepper, so
``nonlinear_rhs`` returns only -div(rho u) in coefficient space.

A run builds one :class:`SpectralOperator` (its params as ``op.p``, its fixed
multipliers in rfft layout) and passes it to ``velocity``, ``nonlinear_rhs``
and the stepper.  States are rfft-layout coefficient arrays h from the run's
first transform (``op.coefficients``) on; ``op.full`` builds full layout for
what a run hands out.  Products are dealiased once: ``op.mask * h``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    RealField,
    SpectralError,
    SpectralField,
    TorusGrid,
    apply_multiplier,
    bump,
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
    mu            : regularization scale, 0 disables the bump cutoff.
    """

    alpha_minus_d: float
    c_K: float
    nu: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not (-2.0 <= self.alpha_minus_d <= 0.0):
            raise ValueError(f"alpha_minus_d must lie in [-2, 0], got {self.alpha_minus_d}")
        if not math.isfinite(self.c_K):
            raise ValueError(f"c_K must be finite, got {self.c_K}")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")

    @property
    def b(self) -> float:
        """Order of the negative fractional power: b = -(alpha-d)/2 in [0, 1]."""
        return -self.alpha_minus_d / 2.0


def velocity_symbol(kv: np.ndarray, p: ModelParams) -> np.ndarray:
    """Scalar part of the velocity multiplier on wavevectors kv of shape (..., d).

    |xi|^{alpha-d} bump(mu |xi|), 0 at xi = 0; the cutoff applies only when mu > 0.
    """
    sym = fractional_power(p.alpha_minus_d)(kv)
    if p.mu > 0.0:
        sym = sym * bump(p.mu * np.sqrt(np.sum(kv * kv, axis=-1)))
    return sym


class SpectralOperator:
    """The parameters and fixed Fourier multipliers of one run, in rfft layout.

    rfft layout keeps the last axis at wavenumbers 0..N/2; the other half
    follows from Hermitian symmetry.  Every transform here is a real FFT with
    ``norm="forward"``, so coefficients scale as in :mod:`fpmflow.spectral`
    (c_0 is the mean).  Build one per run and pass it down: it holds a few
    arrays of the grid's size, and nothing outside the run keeps it alive.

    Attributes (all in rfft layout):

    p             : the run's :class:`ModelParams`.
    mag           : |xi|, for the integrating factors and the diagnostics.
    mask          : 2/3-rule dealias mask.
    neg_div       : -i xi_j on the dealiased band, one per component.
    vel           : velocity multipliers c_K |xi|^{alpha-d} chi(mu |xi|) i xi_j,
                    zero on the unpaired Nyquist mode -N/2 of axis j, where an
                    odd derivative has no Hermitian partner.
    """

    def __init__(self, grid: TorusGrid, p: ModelParams):
        self.grid = grid
        self.p = p
        self.mag = self.half(grid.wavenumber_magnitude())
        kv = grid.wavevectors()[..., : grid.n // 2 + 1, :]
        self.mask = self.half(dealias_mask(grid))
        scale = p.c_K * velocity_symbol(kv, p)
        self.neg_div = []
        self.vel = []
        for j in range(grid.d):
            ik = 1j * kv[..., j]
            self.neg_div.append(np.where(self.mask, -ik, 0.0))
            self.vel.append(np.where(kv[..., j] == -(grid.n // 2), 0.0, scale * ik))
        self._axes = tuple(range(grid.d))

    def half(self, coeffs: np.ndarray) -> np.ndarray:
        """The rfft-layout part of full-layout coefficients (a view)."""
        return coeffs[..., : self.grid.n // 2 + 1]

    def coefficients(self, rho: RealField) -> np.ndarray:
        """rfft-layout coefficients of rho, a run's first state, with the columns k = 0 and
        N/2 made Hermitian bit for bit: rows -1..1-N/2 from 1..N/2-1, rows 0 and N/2 real."""
        n = self.grid.n
        h = self.half(forward_transform(rho).coeffs).copy()
        ends = h[..., [0, n // 2]].reshape(-1, 2)  # a single row in 1-D
        ends[n // 2 + 1:] = np.conj(ends[n // 2 - 1:0:-1])
        ends[::n // 2] = ends[::n // 2].real
        h[..., [0, n // 2]] = ends
        return h

    def full(self, h: np.ndarray) -> SpectralField:
        """The full-layout field whose rfft-layout part is h bit for bit; the other
        columns mirror h, so it is Hermitian bit for bit when h is a run's state."""
        n = self.grid.n
        rows = (-np.arange(n)) % n if self.grid.d == 2 else Ellipsis
        mirror = np.conj(h[rows, n // 2 - 1:0:-1])
        return SpectralField(self.grid, np.concatenate([h, mirror], axis=-1))

    def physical(self, h: np.ndarray) -> np.ndarray:
        """Physical values of the real field with rfft-layout coefficients h."""
        return np.fft.irfftn(h, s=self.grid.shape, axes=self._axes, norm="forward")

    def transport(self, rho_d: np.ndarray, u_d: list) -> np.ndarray:
        """rfft-layout coefficients of -div(rho_d u_d) on the dealiased band.

        rho_d and the components u_d are dealiased physical values, so the
        product is the exact (no-wrap) convolution on the retained band.
        """
        acc = np.zeros(self.mask.shape, dtype=np.complex128)
        for m, uj in zip(self.neg_div, u_d):
            acc += m * np.fft.rfftn(rho_d * uj, norm="forward")
        acc[(0,) * self.grid.d] = 0.0  # divergence form: exact mass conservation
        if self.grid.d == 2:  # column 0 mirrors itself (column N/2 is masked): keep it Hermitian
            acc[self.grid.n // 2 + 1:, 0] = np.conj(acc[self.grid.n // 2 - 1:0:-1, 0])
        return acc


def velocity(h: np.ndarray, op: SpectralOperator) -> list:
    """u = c_K Lambda^{alpha-d} grad rho (regularized when mu > 0) of rfft-layout h, per axis."""
    return [RealField(op.grid, op.physical(m * h)) for m in op.vel]


def nonlinear_rhs(h: np.ndarray, op: SpectralOperator) -> np.ndarray:
    """rfft-layout -(div(rho u))^ in 1 + 2d real FFTs; the stepper handles diffusion exactly."""
    if not np.all(np.isfinite(h)):
        raise SpectralError("non-finite coefficients in state")
    hm = op.mask * h
    rho_d = op.physical(hm)
    u_d = [op.physical(m * hm) for m in op.vel]
    del hm  # transport does not need it; freeing it first keeps the peak memory down
    return op.transport(rho_d, u_d)


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
