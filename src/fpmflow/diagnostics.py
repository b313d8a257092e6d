"""Norms, blow-up functionals, and the trilinear form behind the energy identities.

The two monitored functionals are weighted lattice l1 sums of the
coefficients,

    B1 = sum_xi |xi|^2 (1 + |xi|) |c_xi|,
    B2 = ( sum_xi |xi| (1 + |xi|) |c_xi| )^2,

whose time integrals control continuation of the solution.  The trilinear
form

    T[G] = Re sum_xi sum_eta G(xi, eta) conj(c(xi)) c(eta) c(xi - eta)

is evaluated either by the direct double lattice sum ("naive") or through
linear convolutions ("fft") for kernels separable as sum_k a_k(xi) b_k(eta).
Both paths treat xi - eta outside the resolved band as absent (coefficient
zero, no periodic wrap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, velocity_symbol
from .spectral import SpectralField, fractional_power, l2_norm

TWO_PI = 2.0 * math.pi


@dataclass
class DiagnosticsRecord:
    """One sampled row of run diagnostics."""

    t: float
    mass: float
    min_rho: float
    max_rho: float
    l2: float
    hs: dict          # s -> (homogeneous, inhomogeneous) norm pair
    B1: float
    B2: float
    int_B1: float     # time integral of B1 up to t
    int_B2sq: float   # time integral of B2 (already the squared l1 norm) up to t
    energy_residual_L2: float = 0.0
    energy_residual_Hs: float = 0.0


def mass(F: SpectralField) -> float:
    """Total mass (2pi)^d Re c_0."""
    return TWO_PI ** F.grid.d * float(F.coeffs.flat[0].real)


def sobolev_norm(F: SpectralField, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s) norm under the series convention."""
    if s < -2.0:
        raise ValueError(f"s must be >= -2, got {s}")
    mag2 = F.grid.wavenumber_magnitude() ** 2
    p2 = np.abs(F.coeffs) ** 2
    if homogeneous:
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(mag2 > 0.0, mag2 ** s, 0.0)
    else:
        w = (1.0 + mag2) ** s
    return math.sqrt(TWO_PI ** F.grid.d * float(np.sum(w * p2)))


def blowup_B1(F: SpectralField) -> float:
    """Lattice sum of |xi|^2 (1 + |xi|) |c_xi|."""
    mag = F.grid.wavenumber_magnitude()
    return float(np.sum(mag ** 2 * (1.0 + mag) * np.abs(F.coeffs)))


def blowup_B2(F: SpectralField) -> float:
    """Squared lattice sum of |xi| (1 + |xi|) |c_xi|."""
    mag = F.grid.wavenumber_magnitude()
    return float(np.sum(mag * (1.0 + mag) * np.abs(F.coeffs))) ** 2


@dataclass(frozen=True)
class SeparableKernel:
    """Kernel G(xi, eta) = sum_k a_k(xi) b_k(eta).

    Factors are callables evaluated vectorized on wavenumber arrays of
    shape (..., d).  The object is also directly callable, so the naive
    and fft paths of ``trilinear_T`` share one definition.
    """

    terms: tuple  # tuple of (a, b) callable pairs

    def __call__(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        out = None
        for a, b in self.terms:
            t = np.asarray(a(xi)) * np.asarray(b(eta))
            out = t if out is None else out + t
        return out


def _shifted(F: SpectralField) -> np.ndarray:
    """Coefficients reordered so index i along each axis means wavenumber i - N/2.

    The unpaired Nyquist slice (wavenumber -N/2, no +N/2 partner on the
    lattice) is zeroed so the summation lattice is symmetric; otherwise the
    change-of-variables cancellation for anti-symmetric kernels only holds
    up to the Nyquist content.
    """
    c = np.fft.fftshift(F.coeffs).copy()
    for ax in range(F.grid.d):
        sl = [slice(None)] * F.grid.d
        sl[ax] = 0
        c[tuple(sl)] = 0.0
    return c


def _lattice_vectors(grid) -> np.ndarray:
    """Wavenumber vectors in shifted order, shape grid.shape + (d,)."""
    k = np.arange(-grid.n // 2, grid.n // 2, dtype=np.float64)
    if grid.d == 1:
        return k[:, None]
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return np.stack([kx, ky], axis=-1)


def _trilinear_naive(G, F: SpectralField, absolute: bool = False) -> float:
    grid = F.grid
    if grid.n > 64:
        raise ValueError("naive trilinear mode requires N <= 64")
    c = _shifted(F).reshape(-1)
    kv = _lattice_vectors(grid).reshape(-1, grid.d)
    m = c.size
    half = grid.n // 2
    # Integer coordinates on [0, N) per axis for the xi - eta lookup.
    coords = (kv + half).astype(np.int64)
    total = 0.0
    chunk = max(1, 10_000_000 // m)
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        xi = kv[start:stop, None, :]
        eta = kv[None, :, :]
        gval = np.asarray(G(xi, eta), dtype=np.float64)
        diff = coords[start:stop, None, :] - (coords[None, :, :] - half)
        inside = np.all((diff >= 0) & (diff < grid.n), axis=-1)
        flat = np.zeros(diff.shape[:2], dtype=np.int64)
        for ax in range(grid.d):
            flat = flat * grid.n + np.clip(diff[..., ax], 0, grid.n - 1)
        c_diff = np.where(inside, c[flat], 0.0)
        block = gval * np.conj(c[start:stop])[:, None] * c[None, :] * c_diff
        if absolute:
            total += float(np.sum(np.abs(block)))
        else:
            total += float(np.sum(block.real))
    return total


def _trilinear_fft(G: SeparableKernel, F: SpectralField) -> float:
    """Zero-padded FFT convolutions: padding to 2N per axis leaves no wrap."""
    grid = F.grid
    c = _shifted(F)
    kv = _lattice_vectors(grid)
    pad = (2 * grid.n,) * grid.d
    axes = tuple(range(grid.d))
    band = tuple(slice(grid.n // 2, 3 * grid.n // 2) for _ in axes)
    c_pad = np.fft.fftn(c, s=pad, axes=axes)
    total = 0.0
    for a, b in G.terms:
        w = np.asarray(b(kv)) * c
        inner = np.fft.ifftn(np.fft.fftn(w, s=pad, axes=axes) * c_pad, axes=axes)[band]
        total += float(np.sum((np.conj(c) * np.asarray(a(kv)) * inner).real))
    return total


def trilinear_T(G, F: SpectralField, mode: str = "naive") -> float:
    """Evaluate T[G] = Re sum_{xi,eta} G(xi,eta) conj(c(xi)) c(eta) c(xi-eta).

    ``mode="naive"`` accepts any callable kernel (N <= 64); ``mode="fft"``
    requires a :class:`SeparableKernel`.
    """
    if mode == "naive":
        return _trilinear_naive(G, F)
    if mode == "fft":
        if not isinstance(G, SeparableKernel):
            raise TypeError("fft mode requires a SeparableKernel")
        return _trilinear_fft(G, F)
    raise ValueError(f"unknown trilinear mode {mode!r}")


def trilinear_scale(G, F: SpectralField) -> float:
    """Magnitude scale sum |G| |c(xi)| |c(eta)| |c(xi-eta)| (naive path)."""
    return _trilinear_naive(G, F, absolute=True)


def energy_kernel(s: float, p: ModelParams, grid) -> SeparableKernel:
    """Kernel |xi|^{2s} xi.eta m(eta) driving d/dt (1/2)||rho||_{Hdot^s}^2.

    m(eta) = |eta|^{-2b} chi(mu |eta|) matches the (possibly regularized)
    velocity law of ``p``; s = 0 gives the L2 identity.
    """
    weight = fractional_power(2.0 * s).symbol
    terms = []
    for j in range(grid.d):

        def a(xi, j=j):
            return weight(xi) * xi[..., j]

        def b(eta, j=j):
            return velocity_symbol(eta, p) * eta[..., j]

        terms.append((a, b))
    return SeparableKernel(terms=tuple(terms))


def energy_residual_L2(samples, p: ModelParams) -> float:
    """|centered finite difference of (1/2)||rho||_{L2}^2  -  c_K (2pi)^d T[G]|.

    ``samples`` is a list of (t, SpectralField) with at least three entries;
    the identity is evaluated at the middle one.  Only valid for nu = 0.
    """
    return _energy_residual(samples, p, s=0.0)


def energy_residual_Hs(samples, p: ModelParams, s: float) -> float:
    """Hdot^s analogue of :func:`energy_residual_L2`."""
    return _energy_residual(samples, p, s=s)


def _energy_residual(samples, p: ModelParams, s: float) -> float:
    if p.nu != 0.0:
        raise ValueError("energy residual identity requires nu = 0")
    if len(samples) < 3:
        raise ValueError("need at least three consecutive sampled states")
    mid = len(samples) // 2
    (t0, F0), (tm, Fm), (t1, F1) = samples[mid - 1], samples[mid], samples[mid + 1]

    def energy(F):
        if s == 0.0:
            return 0.5 * l2_norm(F) ** 2
        return 0.5 * sobolev_norm(F, s, homogeneous=True) ** 2

    fd = (energy(F1) - energy(F0)) / (t1 - t0)
    G = energy_kernel(s, p, Fm.grid)
    rhs = p.c_K * TWO_PI ** Fm.grid.d * trilinear_T(G, Fm, mode="fft")
    return abs(fd - rhs)


def make_record(t: float, F: SpectralField, rho_values: np.ndarray, s_list,
                int_B1: float, int_B2sq: float) -> DiagnosticsRecord:
    """Assemble a diagnostics row from the current state."""
    hs = {
        float(s): (sobolev_norm(F, s, homogeneous=True), sobolev_norm(F, s))
        for s in s_list
    }
    return DiagnosticsRecord(
        t=t,
        mass=mass(F),
        min_rho=float(np.min(rho_values)),
        max_rho=float(np.max(rho_values)),
        l2=l2_norm(F),
        hs=hs,
        B1=blowup_B1(F),
        B2=blowup_B2(F),
        int_B1=int_B1,
        int_B2sq=int_B2sq,
    )
