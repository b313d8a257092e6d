"""Norms, blow-up functionals, and the trilinear form behind the energy identities.

The two monitored functionals are weighted lattice l1 sums of the
coefficients,

    B1 = sum_xi |xi|^2 (1 + |xi|) |c_xi|,
    B2 = ( sum_xi |xi| (1 + |xi|) |c_xi| )^2,

whose time integrals control continuation of the solution.  The trilinear
form

    T[G] = Re sum_xi sum_eta G(xi, eta) conj(c(xi)) c(eta) c(xi - eta)

is evaluated two ways.  The direct double lattice sum (:func:`_trilinear_naive`)
takes any kernel and the coefficients of every mode in numpy FFT ordering, and
one pass serves a stack of fields; ``verify`` probes the cancellation of
anti-symmetric kernels with it.  The energy identities of a nu = 0 run are
checked by one :class:`EnergyResidualKernel` per run, built from the run's
operator, which holds the factors of both identities in rfft layout on a 3N/2
grid per axis (Orszag's 3/2 rule) and takes each trilinear form by Parseval
from the spectrum of one physical product per component.  Both treat xi - eta
outside the resolved band as absent (coefficient zero, no periodic wrap): with
|xi_j|, |eta_j| <= N/2 - 1, no sum of three band wavenumbers reaches 3N/2, so
the product has no aliasing.

A run's states are rfft-layout coefficient arrays; their norms are
:func:`fpmflow.spectral.half_norm` and the B1/B2 sums
:func:`fpmflow.spectral.half_sum`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import SpectralOperator, velocity_symbol
from .spectral import half_inverse, half_norm, half_sum, half_transform, sobolev_weight

TWO_PI = 2.0 * math.pi
NAIVE_BLOCK = 10_000_000  # complex entries per block of the naive lattice sum


@dataclass
class DiagnosticsRecord:
    """One sampled row of run diagnostics.

    The energy residuals are nan where the identity was not evaluated: on the
    first and last rows, and in runs that do not compute them.
    """

    t: float
    mass: float
    min_rho: float
    max_rho: float
    l2: float
    hs: dict          # s -> (homogeneous, inhomogeneous) norm pair
    B1: float
    B2: float
    int_B1: float = 0.0    # time integral of B1 up to t
    int_B2sq: float = 0.0  # time integral of B2 (already the squared l1 norm) up to t
    energy_residual_L2: float = math.nan
    energy_residual_Hs: float = math.nan


def _blowup_functionals(grid, mag: np.ndarray, absc: np.ndarray) -> tuple:
    """(B1, B2) from |xi| and the moduli |c_xi| of a real field, both in rfft layout."""
    b1 = float(half_sum(grid.shape, mag ** 2 * (1.0 + mag) * absc))
    l1 = float(half_sum(grid.shape, mag * (1.0 + mag) * absc))
    return b1, l1 * l1  # a float product overflows to inf; float ** 2 would raise


def _shifted(grid, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of shape (..., *grid.shape) reordered so index i along each grid
    axis means wavenumber i - N/2.

    The unpaired Nyquist slice (wavenumber -N/2, no +N/2 partner on the
    lattice) is zeroed so the summation lattice is symmetric; otherwise the
    change-of-variables cancellation for anti-symmetric kernels only holds
    up to the Nyquist content.
    """
    c = np.fft.fftshift(coeffs, axes=grid.axes).copy()
    for ax in grid.axes:
        sl = [slice(None)] * c.ndim
        sl[ax] = 0
        c[tuple(sl)] = 0.0
    return c


def _padded(arr: np.ndarray, n: int) -> np.ndarray:
    """An rfft-layout N-grid array placed on the 3N/2 grid in rfft layout, zero off the band.

    Every |k_j| <= N/2 - 1 is kept; the unpaired -N/2 slice is dropped, as in
    ``_shifted``.  Only the k >= 0 half of the last axis is read.
    """
    m, h = 3 * n // 2, n // 2
    # per axis, (source, target) of k = 0..N/2-1 and, except on the last axis, of k = 1-N/2..-1
    low = (slice(0, h), slice(0, h))
    blocks = [(low, (slice(h + 1, n), slice(m - h + 1, m)))] * (arr.ndim - 1) + [(low,)]
    out = np.zeros((m,) * (arr.ndim - 1) + (m // 2 + 1,), dtype=arr.dtype)
    for block in itertools.product(*blocks):
        out[tuple(dst for _, dst in block)] = arr[tuple(src for src, _ in block)]
    return out


def _trilinear_naive(G, grid, coeffs: np.ndarray) -> tuple:
    """(T[G], sum |G| |c(xi)| |c(eta)| |c(xi-eta)|) of each field of a stack.

    ``coeffs`` holds the coefficients of every mode, shape (fields, *grid.shape).
    One pass over the lattice pairs serves every field: the kernel values and
    the xi - eta lookup are built once per block of xi rows.  The rows are
    blocked as for a single field and the fields as far as ``NAIVE_BLOCK``
    entries per block allow, so each field's sums are those of a pass of its own.
    """
    if grid.n > 64:
        raise ValueError("naive trilinear mode requires N <= 64")
    c = _shifted(grid, coeffs).reshape(len(coeffs), -1)
    axes = tuple(range(grid.d))
    kv = np.fft.fftshift(grid.wavevectors(), axes=axes).reshape(-1, grid.d)
    m = c.shape[1]
    half = grid.n // 2
    # Integer coordinates on [0, N) per axis for the xi - eta lookup.
    coords = (kv + half).astype(np.int64)
    total = np.zeros(len(c))
    scale = np.zeros(len(c))
    chunk = max(1, NAIVE_BLOCK // m)
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
        fields = max(1, NAIVE_BLOCK // ((stop - start) * m))
        for f0 in range(0, len(c), fields):
            cf = c[f0:f0 + fields]
            c_diff = np.where(inside, cf[:, flat], 0.0)
            block = gval * np.conj(cf[:, start:stop])[:, :, None] * cf[:, None, :] * c_diff
            total[f0:f0 + fields] += np.sum(block.real, axis=(1, 2))
            scale[f0:f0 + fields] += np.sum(np.abs(block), axis=(1, 2))
    return total, scale


class EnergyResidualKernel:
    """The energy identities of one nu = 0 run, evaluated from three samples.

    For s = 0 and the run's Hdot^s exponent, the residual is

        | three-point derivative of (1/2)||rho||^2  -  c_K (2pi)^d T[G_s] |

    at the middle sample, with G_s(xi, eta) = |xi|^{2s} xi.eta m(eta).  The
    energies are (1/2) l2^2 and (1/2) hsdot_s^2 of the samples' records.  The
    kernel reads the grid, the params and |xi| of the run's operator, and its
    factors live on the 3N/2 grid in rfft layout (last axis k >= 0):

    b      : -i m(eta) eta_j, m the velocity symbol, shared by both identities;
    a_L2   : -i xi_j;
    a_Hs   : -i |xi|^{2s} xi_j;
    weight : the Hdot^s energy weight |xi|^{2s} on the N grid, rfft layout.

    a and b are odd and c is Hermitian, so each -i a c is Hermitian and its
    field A is real.  T = sum_j mean(A_j B_j C) is taken by Parseval from the
    forward transforms of P_j = B_j C, so it needs 1 + d inverse and d forward
    real transforms, and the A_j are never formed.  Build one per run:
    nothing outside the run keeps it alive.  In a run on a grid of at least
    ``stepper.WORKER_MIN_POINTS`` points, :meth:`trilinear` of a sample's
    state runs on the run's worker thread while the next step is taken, and
    :meth:`residuals` gets the pair it returned.
    """

    def __init__(self, op: SpectralOperator, s: float):
        grid, p = op.grid, op.p
        if p.nu != 0.0:
            raise ValueError("energy residual identity requires nu = 0")
        n = grid.n
        kv = grid.half_wavevectors()
        m = velocity_symbol(kv, p)
        self.weight = w = sobolev_weight(op.mag, s, True)
        self.b = [_padded(-1j * m * kv[..., j], n) for j in range(grid.d)]
        self.a_L2 = [_padded(-1j * kv[..., j], n) for j in range(grid.d)]
        self.a_Hs = [_padded(-1j * w * kv[..., j], n) for j in range(grid.d)]
        self._scale = p.c_K * TWO_PI ** grid.d
        self._grid = grid
        self._shape = (3 * n // 2,) * grid.d

    def trilinear(self, h: np.ndarray) -> tuple:
        """(T[G_0], T[G_s]) of the state with rfft-layout coefficients h (1 + 2d real FFTs).

        P_j = B_j C is formed and transformed forward one j at a time; by Parseval each
        T = sum_j mean(A_j P_j) is a band sum of Re(conj(a_j c) P_j-hat), and each j's
        band term is added to both sums before P_j is dropped.
        """
        shape = self._shape
        c = _padded(h, self._grid.n)
        C = half_inverse(c, shape)
        bands = [0, 0]
        for j, b in enumerate(self.b):
            P = half_transform(half_inverse(b * c, shape) * C, shape)
            for i, a in enumerate((self.a_L2, self.a_Hs)):
                bands[i] = bands[i] + (np.conj(a[j] * c) * P).real
        return tuple(float(half_sum(shape, band)) for band in bands)

    def residuals(self, window, T=None) -> tuple:
        """(L2 residual, Hdot^s residual) at the middle of three (t, h, l2, hsdot_s) samples.

        T is the pair (T[G_0], T[G_s]) of the middle state, :meth:`trilinear` of its h
        when not given.
        """
        (t0, _, *n0), (tm, hm, *nm), (t1, _, *n1) = window
        h0, h1 = tm - t0, t1 - tm
        out = []
        for i, T_i in enumerate(self.trilinear(hm) if T is None else T):
            e0, em, e1 = (0.5 * norms[i] ** 2 for norms in (n0, nm, n1))
            # three-point dE/dt at tm, exact for quadratics at any spacing
            rate = (h0 * h0 * (e1 - em) + h1 * h1 * (em - e0)) / (h0 * h1 * (h0 + h1))
            out.append(abs(rate - self._scale * T_i))
        return tuple(out)


def make_record(t: float, h: np.ndarray, rho_values: np.ndarray, s_list,
                op) -> DiagnosticsRecord:
    """Assemble a diagnostics row from the state with rfft-layout coefficients h.

    ``op`` is the run's :class:`fpmflow.model.SpectralOperator`, whose |xi|
    every sum reads.  The B1 and B2 time integrals and the energy residuals
    are left to the caller, which sees the neighbouring samples.
    """
    grid = op.grid
    absc = np.abs(h)
    p2 = absc ** 2
    hs = {
        float(s): tuple(half_norm(grid, p2, sobolev_weight(op.mag, s, hom))
                        for hom in (True, False))
        for s in s_list
    }
    b1, b2 = _blowup_functionals(grid, op.mag, absc)
    return DiagnosticsRecord(
        t=t,
        mass=TWO_PI ** grid.d * float(h.flat[0].real),
        min_rho=float(np.min(rho_values)),
        max_rho=float(np.max(rho_values)),
        l2=half_norm(grid, p2),
        hs=hs,
        B1=b1,
        B2=b2,
    )
