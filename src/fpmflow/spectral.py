"""Fourier representation of periodic fields and multiplier operators.

Fields live on the torus [0, 2pi)^d with d in {1, 2}, so wavenumbers are
integer vectors.  Coefficients follow the convention

    f(x) = sum_xi c_xi exp(i xi . x),

i.e. c_0 is the mean of the field and the physical L2 norm equals
(2pi)^{d/2} times the l2 norm of the coefficients.  Coefficient arrays are
stored in numpy FFT ordering (wavenumbers 0, 1, ..., N/2-1, -N/2, ..., -1
along each axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class SpectralError(ValueError):
    """Raised on inconsistent grids or invalid spectral data."""


class SymmetryError(SpectralError):
    """Raised when coefficients violate Hermitian symmetry."""


# Relative imaginary residue tolerated when transforming back to physical space.
HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on [0, 2pi)^d with integer wavenumbers.

    Parameters
    ----------
    d : spatial dimension, 1 or 2.
    n : modes per dimension, even and >= 8.
    """

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise SpectralError(f"dimension must be 1 or 2, got {self.d}")
        if self.n < 8 or self.n % 2 != 0:
            raise SpectralError(f"modes per dim must be even and >= 8, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * math.pi / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def npoints(self) -> int:
        return self.n ** self.d

    def axis_wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers along one axis, FFT ordering."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    def wavevectors(self) -> np.ndarray:
        """Array of shape grid.shape + (d,) holding the wavenumber lattice."""
        k = self.axis_wavenumbers()
        if self.d == 1:
            return k[:, None].astype(np.float64)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        return np.stack([kx, ky], axis=-1).astype(np.float64)

    def wavenumber_magnitude(self) -> np.ndarray:
        kv = self.wavevectors()
        return np.sqrt(np.sum(kv * kv, axis=-1))

    def points(self) -> list:
        """Physical coordinate arrays, one per dimension (meshgrid for d=2)."""
        x = np.arange(self.n) * self.dx
        if self.d == 1:
            return [x]
        return list(np.meshgrid(x, x, indexing="ij"))


@dataclass
class RealField:
    """Physical-space field: real values on the grid points."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape:
            raise SpectralError(
                f"value shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def check_finite(self):
        if not np.all(np.isfinite(self.values)):
            raise SpectralError("field contains non-finite values")


@dataclass
class SpectralField:
    """Coefficient-space field in FFT ordering."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != self.grid.shape:
            raise SpectralError(
                f"coeff shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    @property
    def mean(self) -> float:
        return float(self.coeffs.flat[0].real)


@dataclass(frozen=True)
class MultiplierSpec:
    """Fourier multiplier: symbol on nonzero modes plus an explicit zero-mode value.

    ``symbol`` is evaluated vectorized on a wavenumber array of shape
    (..., d) and must return finite values at every nonzero lattice point.
    """

    symbol: Callable[[np.ndarray], np.ndarray]
    zero_mode_rule: complex = 0.0


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth cutoff chi >= 0 supported in [0, 1] with chi(0) = 1."""

    chi: Callable[[np.ndarray], np.ndarray]
    name: str = "bump"


def _bump(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ri * ri))
    return out


#: Default cutoff: chi(r) = exp(1 - 1/(1 - r^2)) on [0, 1), zero outside.
BUMP_CUTOFF = CutoffSpec(chi=_bump, name="bump")


def forward_transform(f: RealField) -> SpectralField:
    """Physical values -> Fourier coefficients (c_0 is the mean)."""
    f.check_finite()
    coeffs = np.fft.fftn(f.values) / f.grid.npoints
    return SpectralField(f.grid, coeffs)


def inverse_transform(F: SpectralField) -> RealField:
    """Fourier coefficients -> physical values; input must be Hermitian."""
    vals = np.fft.ifftn(F.coeffs) * F.grid.npoints
    scale = np.max(np.abs(vals.real))
    imax = np.max(np.abs(vals.imag))
    if imax > HERMITIAN_RTOL * max(scale, 1.0):
        raise SymmetryError(
            f"coefficients violate Hermitian symmetry (imag residue {imax:.3e})"
        )
    return RealField(F.grid, vals.real)


def field_from_function(grid: TorusGrid, fn) -> RealField:
    """Sample fn on the physical grid (fn takes one array per dimension)."""
    return RealField(grid, np.asarray(fn(*grid.points()), dtype=np.float64))


def apply_multiplier(F: SpectralField, m: MultiplierSpec) -> SpectralField:
    """Scale coefficients pointwise by the symbol; zero mode follows the rule."""
    kv = F.grid.wavevectors()
    sym = np.asarray(m.symbol(kv))
    out = F.coeffs * sym
    zero = (0,) * F.grid.d
    out[zero] = m.zero_mode_rule * F.coeffs[zero]
    return SpectralField(F.grid, out)


def fractional_power(s: float) -> MultiplierSpec:
    """Multiplier |xi|^s on nonzero modes, zero at the zero mode.

    Every |xi|^s with that zero-mode rule in the package goes through ``symbol``.
    """

    def symbol(kv):
        mag = np.sqrt(np.sum(kv * kv, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(mag > 0.0, mag ** s, 0.0)
        return out

    return MultiplierSpec(symbol=symbol, zero_mode_rule=0.0)


def heat_multiplier(t: float) -> MultiplierSpec:
    """Multiplier exp(-t |xi|^2); zero mode 1 (mean preserved exactly)."""

    def symbol(kv):
        mag2 = np.sum(kv * kv, axis=-1)
        return np.exp(-t * mag2)

    return MultiplierSpec(symbol=symbol, zero_mode_rule=1.0)


def dealias_mask(grid: TorusGrid) -> np.ndarray:
    """Boolean mask keeping modes with every |xi_j| <= N/3 (2/3 rule)."""
    cut = grid.n / 3.0
    k = grid.axis_wavenumbers()
    keep1 = np.abs(k) <= cut
    if grid.d == 1:
        return keep1
    return keep1[:, None] & keep1[None, :]


def dealias(F: SpectralField) -> SpectralField:
    """Zero every coefficient with any |xi_j| > N/3."""
    return SpectralField(F.grid, np.where(dealias_mask(F.grid), F.coeffs, 0.0))


def gradient(F: SpectralField) -> list:
    """Spectral gradient components i xi_j F, as spectral fields.

    The unpaired Nyquist mode -N/2 is zeroed (odd derivative has no
    Hermitian partner there).
    """
    kv = F.grid.wavevectors()
    out = []
    for j in range(F.grid.d):
        kj = kv[..., j]
        deriv = 1j * kj * F.coeffs
        deriv[kj == -F.grid.n // 2] = 0.0
        out.append(SpectralField(F.grid, deriv))
    return out


def dealiased_product(f: RealField, g: RealField) -> RealField:
    """Pointwise product with both factors dealiased first (2/3 rule)."""
    if f.grid != g.grid:
        raise SpectralError("fields on different grids")
    fd = inverse_transform(dealias(forward_transform(f)))
    gd = inverse_transform(dealias(forward_transform(g)))
    return RealField(f.grid, fd.values * gd.values)


def l2_norm(F: SpectralField) -> float:
    """Physical L2 norm: (2pi)^{d/2} times the l2 norm of the coefficients."""
    return math.sqrt((2.0 * math.pi) ** F.grid.d * float(np.sum(np.abs(F.coeffs) ** 2)))


def random_real_field(grid: TorusGrid, rng, decay: float = 2.0, amplitude: float = 1.0,
                      mean: float = 0.0) -> RealField:
    """Smooth random real field with coefficient magnitudes ~ (1+|xi|)^{-decay}."""
    mag = grid.wavenumber_magnitude()
    raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coeffs = raw * (1.0 + mag) ** (-decay)
    # Hermitian-symmetrize by transforming through physical space.
    vals = np.fft.ifftn(coeffs * grid.npoints).real
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals = vals * (amplitude / peak)
    return RealField(grid, vals + mean)
