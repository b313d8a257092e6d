"""Right-hand side assembly for the nonlocal transport equation.

The evolved equation is

    d/dt rho + div(rho u) = nu Lap rho,   u = c_K Lambda^{alpha-d} grad rho,

with -2 <= alpha - d <= 0, written b = -(alpha-d)/2 in [0, 1].  The
optional regularization replaces |xi|^{alpha-d} by |xi|^{alpha-d}
chi(mu |xi|) with a smooth cutoff chi supported in [0, 1].

Diffusion is handled exactly by the integrating factor in the stepper, so
``nonlinear_rhs`` returns only -div(rho u) in coefficient space.

A run builds one :class:`SpectralOperator` (its params as ``op.p``, its fixed
multipliers on the grid's rfft-layout lattice) and passes it to ``velocity``,
``nonlinear_rhs`` and the stepper.  States are rfft-layout coefficient arrays h
from the run's first transform (:func:`fpmflow.spectral.half_coefficients`) on;
the layout itself, its lattice (:meth:`fpmflow.spectral.TorusGrid.half_wavevectors`)
and its transforms belong to :mod:`fpmflow.spectral`.  Products are dealiased
once: ``op.mask * h``.  The initial data are built and mollified on that lattice
too, with the heat factor exp(-t sum_j xi_j^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    RealField,
    SpectralError,
    TorusGrid,
    bump,
    half_inverse,
    half_transform,
    magnitude,
    mirror_rows,
    radial_power,
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
    mag = magnitude(kv)
    sym = radial_power(mag, p.alpha_minus_d)
    if p.mu > 0.0:
        sym = sym * bump(p.mu * mag)
    return sym


class SpectralOperator:
    """The parameters and fixed Fourier multipliers of one run, in rfft layout.

    rfft layout is :mod:`fpmflow.spectral`'s: the last axis at wavenumbers
    0..N/2, c_0 the mean.  Build one per run and pass it down: it holds a few
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
        self.mag = grid.half_magnitude()
        kv = grid.half_wavevectors()
        self.mask = grid.half_mask()
        scale = p.c_K * velocity_symbol(kv, p)
        self.neg_div = []
        self.vel = []
        for j in range(grid.d):
            ik = 1j * kv[..., j]
            self.neg_div.append(np.where(self.mask, -ik, 0.0))
            self.vel.append(np.where(kv[..., j] == -(grid.n // 2), 0.0, scale * ik))

    def physical(self, h: np.ndarray) -> np.ndarray:
        """Physical values of the real field with rfft-layout coefficients h."""
        return half_inverse(h, self.grid.shape)

    def transport(self, rho_d: np.ndarray, u_d: list) -> np.ndarray:
        """rfft-layout coefficients of -div(rho_d u_d) on the dealiased band.

        rho_d and the components u_d are dealiased physical values, so the
        product is the exact (no-wrap) convolution on the retained band.
        Leading axes are a batch: each field gets its own zero mode and mirror.
        """
        terms = (m * half_transform(rho_d * uj, self.grid.shape)
                 for m, uj in zip(self.neg_div, u_d))
        acc = next(terms)  # the one term in 1-D: no zeroed accumulator to add it to
        for term in terms:
            acc += term
        acc[(...,) + (0,) * self.grid.d] = 0.0  # divergence form: exact mass conservation
        if self.grid.d == 2:  # column 0 mirrors itself (column N/2 is masked): keep it Hermitian
            mirror_rows(self.grid, acc[..., 0])
        return acc


def velocity(h: np.ndarray, op: SpectralOperator) -> list:
    """Values of u = c_K Lambda^{alpha-d} grad rho (regularized if mu > 0) per axis, from h."""
    return [op.physical(m * h) for m in op.vel]


def nonlinear_rhs(h: np.ndarray, op: SpectralOperator, maxima: bool = False):
    """rfft-layout -(div(rho u))^ in 1 + 2d real FFTs; the stepper handles diffusion exactly.

    With ``maxima`` it returns (rhs, max|u_d|, max|rho_d|): the largest speed over
    the components and the largest density of the dealiased fields it multiplies.
    """
    if not np.all(np.isfinite(h)):
        raise SpectralError("non-finite coefficients in state")
    hm = op.mask * h
    rho_d = op.physical(hm)
    u_d = [op.physical(m * hm) for m in op.vel]
    del hm  # transport does not need it; freeing it first keeps the peak memory down
    if not maxima:
        return op.transport(rho_d, u_d)
    # max|x| as max(max x, -min x): no |x| temporary of the grid's size
    umax = max(max(float(u.max()), -float(u.min())) for u in u_d)
    rho_max = max(float(rho_d.max()), -float(rho_d.min()))
    return op.transport(rho_d, u_d), umax, rho_max


def mollify_initial(rho0: RealField, mu: float) -> RealField:
    """Smooth initial data by the heat kernel at time mu^2/2; mean preserved exactly."""
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if mu == 0.0:
        return RealField(rho0.grid, rho0.values.copy())
    grid = rho0.grid
    h = half_transform(rho0.values, grid.shape)
    kv = grid.half_wavevectors()
    heat = np.exp(-(mu * mu / 2.0) * np.sum(kv * kv, axis=-1))
    return RealField(grid, half_inverse(heat * h, grid.shape))


@dataclass(frozen=True)
class InitialCondition:
    """Initial data specification; a bad kind or value raises ValueError when it is built.

    kind is one of:
      - "cosine":   mean + amplitude * cos(k . x)   (requires mean >= amplitude >= 0
                    for nonnegative data)
      - "gaussian": periodized Gaussian with total mass ``mass`` > 0 and width
                    ``sigma``, centered at ``center``
      - "random":   smooth random field, coefficient decay exponent ``decay``,
                    shifted by ``mean``
    k and center hold one entry per axis, or one entry for every axis.
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

    def __post_init__(self):
        if self.kind not in ("cosine", "gaussian", "random"):
            raise ValueError(f"unknown initial condition kind {self.kind!r}")
        values = (self.mean, self.amplitude, self.mass, self.sigma, self.decay, *self.center)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"initial data values must be finite, got {values}")
        if self.kind == "cosine" and not self.mean >= self.amplitude >= 0.0:
            raise ValueError("cosine data needs mean >= amplitude >= 0")
        if self.kind == "gaussian" and not self.mass > 0.0:
            raise ValueError("gaussian data needs positive mass")

    def vectors(self, d: int) -> tuple:
        """(k, center) with d entries each; ValueError unless each has 1 or d entries."""
        out = []
        for name, v in (("k", self.k), ("center", self.center)):
            if len(v) not in (1, d):
                raise ValueError(f"init {name} has {len(v)} entries; "
                                 f"it takes 1, or 1 per axis ({d})")
            out.append(v if len(v) == d else v * d)
        return tuple(out)

    def build(self, grid: TorusGrid) -> RealField:
        k, center = self.vectors(grid.d)
        if self.kind == "cosine":
            phase = sum(kj * xj for kj, xj in zip(k, grid.points()))
            return RealField(grid, self.mean + self.amplitude * np.cos(phase))
        if self.kind == "gaussian":
            # Periodized Gaussian, the heat kernel at time sigma^2 / 2, assembled in rfft layout:
            # c_xi = mass / (2pi)^d * exp(-sigma^2 |xi|^2 / 2 - i xi.center).
            kv = grid.half_wavevectors()
            phase = sum(kv[..., j] * center[j] for j in range(grid.d))
            heat = np.exp(-(self.sigma ** 2 / 2.0) * np.sum(kv * kv, axis=-1))
            coeffs = self.mass / (2.0 * math.pi) ** grid.d * heat * np.exp(-1j * phase)
            return RealField(grid, half_inverse(coeffs, grid.shape))
        rng = np.random.default_rng(self.seed)
        return random_real_field(
            grid, rng, decay=self.decay, amplitude=self.amplitude, mean=self.mean
        )
