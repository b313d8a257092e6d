"""Fourier representation of periodic fields and multiplier operators.

Fields live on the torus [0, 2pi)^d with d in {1, 2}, so wavenumbers are
integer vectors.  Coefficients follow the convention

    f(x) = sum_xi c_xi exp(i xi . x),

i.e. c_0 is the mean of the field and the physical L2 norm equals
(2pi)^{d/2} times the l2 norm of the coefficients.  Coefficient arrays are
stored in numpy FFT ordering (wavenumbers 0, 1, ..., N/2-1, -N/2, ..., -1
along each axis), in rfft layout: the last axis keeps only numpy's first
N/2 + 1 wavenumbers 0, ..., N/2-1, -N/2, the rest following from Hermitian
symmetry.  This module is the only one that knows the layout: the grid's
lattice in it (:meth:`TorusGrid.half_wavevectors`, with |xi| and the 2/3 dealias
mask on it), the real transform pair :func:`half_transform` /
:func:`half_inverse`, the column-weighted sum :func:`half_sum` with the
Parseval norm :func:`half_norm`, a run's first state made Hermitian bit for
bit (:func:`half_coefficients`), and the restriction of a finer grid's state
to a grid's band (:func:`band_power`).
A Fourier multiplier is an array on that lattice, applied to every mode: its
value at xi = 0 is what the multiplier does to the mean.  Every |xi|^s of the
package that is 0 at xi = 0 comes from :func:`radial_power`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SpectralError(ValueError):
    """Raised on inconsistent grids or invalid spectral data."""


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

    @property
    def axes(self) -> tuple:
        """The grid axes of a stack of fields of shape (..., *grid.shape): the last d."""
        return tuple(range(-self.d, 0))

    def axis_wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers along one axis, FFT ordering."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    def _lattice(self, last: np.ndarray) -> np.ndarray:
        """The wavevectors of every axis's wavenumbers, but ``last`` on the last axis."""
        axes = [self.axis_wavenumbers()] * (self.d - 1) + [last]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).astype(np.float64)

    def wavevectors(self) -> np.ndarray:
        """Array of shape grid.shape + (d,) holding the wavenumber lattice."""
        return self._lattice(self.axis_wavenumbers())

    def half_wavevectors(self) -> np.ndarray:
        """The lattice in rfft layout: its last axis holds numpy's first N/2 + 1
        wavenumbers, so column N/2 is the mode -N/2."""
        return self._lattice(self.axis_wavenumbers()[:self.n // 2 + 1])

    def half_magnitude(self) -> np.ndarray:
        """|xi| on the rfft-layout lattice."""
        return magnitude(self.half_wavevectors())

    def half_mask(self) -> np.ndarray:
        """2/3-rule dealias mask on the rfft-layout lattice: every |xi_j| <= N/3."""
        return np.all(np.abs(self.half_wavevectors()) <= self.n / 3.0, axis=-1)

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
            raise SpectralError(f"value shape {self.values.shape} does not match grid "
                                f"{self.grid.shape}")


def bump(r: np.ndarray) -> np.ndarray:
    """Smooth cutoff chi(r) = exp(1 - 1/(1 - r^2)) on [0, 1), zero outside; chi(0) = 1."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ri * ri))
    return out


def magnitude(kv: np.ndarray) -> np.ndarray:
    """|xi| of the wavevectors kv of shape (..., d)."""
    return np.sqrt(np.sum(kv * kv, axis=-1))


def radial_power(mag: np.ndarray, s: float) -> np.ndarray:
    """mag^s where mag > 0, else 0: every |xi|^s with that zero-mode rule in the package."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mag > 0.0, mag ** s, 0.0)


def sobolev_weight(mag: np.ndarray, s: float, homogeneous: bool) -> np.ndarray:
    """H^s weight of |c_xi|^2 from mag = |xi|: |xi|^{2s} if homogeneous, else (1 + |xi|^2)^s."""
    if s < -2.0:
        raise ValueError(f"s must be >= -2, got {s}")
    if homogeneous:
        return radial_power(mag, 2.0 * s)
    return (1.0 + mag ** 2) ** s


def half_sum(shape: tuple, values: np.ndarray) -> np.ndarray:
    """Sum over the last len(shape) axes of rfft-layout values on a grid of this shape,
    each column counted for the modes it stands for in a real field's spectrum: column 0
    once, the others twice, but the column at n/2 of an even last axis n once."""
    n = shape[-1]
    col = np.full(n // 2 + 1, 2.0)
    col[0] = 1.0
    if n % 2 == 0:
        col[-1] = 1.0
    return np.sum(col * values, axis=tuple(range(-len(shape), 0)))


def half_transform(values: np.ndarray, shape: tuple) -> np.ndarray:
    """rfft-layout coefficients of real values on a grid of this shape (leading axes batched)."""
    # On one axis rfftn makes this very rfft call, after argument handling that costs
    # 1-2 us of a 10 us call at N = 256; given axes but not s, it takes longer still.
    if len(shape) == 1:
        return np.fft.rfft(values, n=shape[0], norm="forward")
    return np.fft.rfftn(values, s=shape, axes=tuple(range(-len(shape), 0)), norm="forward")


def half_inverse(h: np.ndarray, shape: tuple) -> np.ndarray:
    """Real values on a grid of this shape from rfft-layout h (leading axes batched)."""
    if len(shape) == 1:  # the one call irfftn makes on one axis, as in half_transform
        return np.fft.irfft(h, n=shape[0], norm="forward")
    return np.fft.irfftn(h, s=shape, axes=tuple(range(-len(shape), 0)), norm="forward")


def half_norm(grid: TorusGrid, power: np.ndarray, weight=1.0) -> np.ndarray:
    """Weighted Parseval norm sqrt((2pi)^d sum_xi w |c_xi|^2) of a real field, from the
    power |h|^2 of its rfft-layout coefficients h; batched over leading axes."""
    return np.sqrt((2.0 * math.pi) ** grid.d * half_sum(grid.shape, weight * power))


def mirror_rows(grid: TorusGrid, a: np.ndarray) -> None:
    """Set rows -1..1-N/2 of a (rows on its last axis, leading axes batched) to the
    conjugates of rows 1..N/2-1, in place: the Hermitian rule of a column that is its
    own mirror."""
    a[..., grid.n // 2 + 1:] = np.conj(a[..., grid.n // 2 - 1:0:-1])


def half_coefficients(rho: RealField) -> np.ndarray:
    """rfft-layout coefficients of rho, a run's first state, with the columns k = 0 and
    N/2 made Hermitian bit for bit (in 2-D, rfftn's are not): rows -1..1-N/2 from
    1..N/2-1, rows 0 and N/2 real.  A non-finite rho is a SpectralError."""
    if not np.all(np.isfinite(rho.values)):
        raise SpectralError("field contains non-finite values")
    n = rho.grid.n
    h = half_transform(rho.values, rho.grid.shape)
    ends = h[..., [0, n // 2]].reshape(-1, 2)  # a single row in 1-D, which mirrors nothing
    mirror_rows(rho.grid, ends.T)
    ends[::n // 2] = ends[::n // 2].real
    h[..., [0, n // 2]] = ends
    return h


def band_power(grid: TorusGrid, h: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """|c_fine - c|^2 on the band [-N/2, N/2)^d of grid, for :func:`half_norm` on grid, from
    the rfft-layout h of a field on grid and fine of one on a finer grid.  Column N/2 of h is
    the mode -N/2: it meets the conjugate of fine's column N/2 at the mirrored rows."""
    n, m = grid.n, 2 * fine.shape[-1] - 2
    k = grid.axis_wavenumbers()
    rows, mirrored = ((k % m,), (-k % m,)) if grid.d == 2 else ((), ())
    power = np.abs(fine[rows + (slice(0, n // 2 + 1),)] - h) ** 2
    power[..., n // 2] = np.abs(np.conj(fine[mirrored + (n // 2,)]) - h[..., n // 2]) ** 2
    if grid.d == 2:  # half_sum doubles columns 1..N/2-1: row -N/2 of them holds row N/2 too
        r, c = n // 2, slice(1, n // 2)
        power[r, c] = 0.5 * (power[r, c] + np.abs(fine[r, c] - h[r, c]) ** 2)
    return power


def random_series(grid: TorusGrid, rng, envelope, lead: tuple = ()) -> np.ndarray:
    """Values of Re sum_xi g_xi envelope(|xi|) exp(i xi . x), g_xi complex Gaussian, one
    series per index of the leading shape ``lead``; the envelope's values broadcast
    against lead + grid.shape.  One draw takes the real parts of a series' g, then their
    imaginary parts, series after series, and one inverse FFT makes every series: the
    values, bit for bit, of one call per series in turn."""
    re, im = np.moveaxis(rng.standard_normal(lead + (2,) + grid.shape), len(lead), 0)
    raw = re + 1j * im
    del re, im  # the transform does not need the draws: free them before it runs
    return np.fft.ifftn(raw * envelope(magnitude(grid.wavevectors())) * grid.npoints,
                        axes=grid.axes).real


def random_real_values(grid: TorusGrid, rng, decay: float = 2.0, amplitude: float = 1.0,
                       mean: float = 0.0, lead: tuple = ()) -> np.ndarray:
    """Values of smooth random real fields with coefficient magnitudes ~ (1+|xi|)^{-decay},
    one per index of ``lead`` (:func:`random_series`), each scaled to peak |.| amplitude
    (unless its peak is 0) and shifted by mean."""
    vals = random_series(grid, rng, lambda mag: (1.0 + mag) ** (-decay), lead)
    peak = np.max(np.abs(vals), axis=grid.axes, keepdims=True)
    return vals * np.divide(amplitude, peak, out=np.ones_like(peak), where=peak > 0) + mean


def random_real_field(grid: TorusGrid, rng, decay: float = 2.0, amplitude: float = 1.0,
                      mean: float = 0.0) -> RealField:
    """One field of :func:`random_real_values`."""
    return RealField(grid, random_real_values(grid, rng, decay, amplitude, mean))
