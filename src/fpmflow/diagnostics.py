"""Norms, blow-up functionals, energy identities and the trilinear form.

The two monitored functionals are weighted lattice l1 sums of the
coefficients,

    B1 = sum_xi |xi|^2 (1 + |xi|) |c_xi|,
    B2 = ( sum_xi |xi| (1 + |xi|) |c_xi| )^2,

whose time integrals control continuation of the solution.  The trilinear
form

    T[G] = Re sum_xi sum_eta G(xi, eta) conj(c(xi)) c(eta) c(xi - eta)

is evaluated by the direct double lattice sum (:func:`_trilinear_naive`),
which takes any kernel and the coefficients of every mode in numpy FFT
ordering, treats xi - eta outside the resolved band as absent, and serves a
stack of fields in one pass; ``verify`` probes the cancellation of
anti-symmetric kernels with it.  A run checks its energy identities against
the rates :func:`energy_rates` reads from the transport term its step computes
anyway (on the dealiased band, the pairing with it is c_K T of the paper's
energy kernel), and :func:`identity_residuals` compares them with a three-point
derivative of the sampled norms.

A run's states are rfft-layout coefficient arrays; their norms are
:func:`fpmflow.spectral.half_norm` and the B1/B2 sums
:func:`fpmflow.spectral.half_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import half_norm, half_sum, sobolev_weight

TWO_PI = 2.0 * math.pi
NAIVE_BLOCK = 10_000_000  # complex entries per block of the naive lattice sum


@dataclass
class DiagnosticsRecord:
    """One sampled row of run diagnostics.

    The energy residuals are nan where the identity was not evaluated: on the
    first and last rows.
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


def energy_rates(h: np.ndarray, k1: np.ndarray, op, s: float) -> tuple:
    """(dE_0/dt, dE_s/dt) at the state with rfft-layout coefficients h, from its transport
    term k1 = nonlinear_rhs(h), stage 1 of the step that leaves it.

    E_s = (1/2) (2pi)^d sum_xi w |c_xi|^2 with w = 1 and w = |xi|^{2s}, and
    dc/dt = k1 - nu |xi|^2 c, so each rate is the band sum
    (2pi)^d sum_xi w (Re(conj(c) k1) - nu |xi|^2 |c|^2): no transform.  On the
    dealiased band Re sum conj(c) w k1 is c_K T[G_s], the trilinear form of the
    paper's energy estimate with G_s(xi, eta) = |xi|^{2s} xi.eta m(eta).
    """
    pairing = h.real * k1.real + h.imag * k1.imag
    if op.p.nu > 0.0:
        pairing -= op.p.nu * op.mag ** 2 * (h.real ** 2 + h.imag ** 2)
    scale = TWO_PI ** op.grid.d
    return tuple(scale * float(half_sum(op.grid.shape, w * pairing))
                 for w in (1.0, sobolev_weight(op.mag, s, True)))


def identity_residuals(window, rates) -> tuple:
    """(L2 residual, Hdot^s residual) at the middle of three (t, l2, hsdot_s) samples:

        | three-point derivative of (1/2) norm^2  -  its rate at the middle sample |

    with ``rates`` the pair of :func:`energy_rates` there.
    """
    (t0, *n0), (tm, *nm), (t1, *n1) = window
    h0, h1 = tm - t0, t1 - tm
    out = []
    for i, rate in enumerate(rates):
        e0, em, e1 = (0.5 * norms[i] ** 2 for norms in (n0, nm, n1))
        # three-point dE/dt at tm, exact for quadratics at any spacing
        fd = (h0 * h0 * (e1 - em) + h1 * h1 * (em - e0)) / (h0 * h1 * (h0 + h1))
        out.append(abs(fd - rate))
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
