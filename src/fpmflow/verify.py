"""Numerical verification of the analytic inequalities at desk scale.

Each estimate is probed as a ratio lhs/rhs over a deterministic sample of
inputs; the implicit constants are reported as empirical sup ratios.  A
report passes when the sup ratio is finite and refinement-stable (the sup
over the second half of the samples is within 2x of the first half).

Each population is drawn once and every report that uses it is evaluated
from that draw: :func:`pointwise_reports` gives every pointwise estimate of
one dimension the same (xi, eta) pairs, and :func:`commutator_reports` gives
every commutator report the same (f, g) trials.  A caller that wants a
single report asks these evaluators for it; no report has an entry point of
its own.

Each pointwise family (lemma1, gdecomp, bdiff) walks its pairs in blocks of
``POINTWISE_BLOCK`` = 8192.  One :class:`_Pairs` per block holds the
block's geometry (|xi|, |eta|, |xi - eta|, xi.eta and eta.(xi - eta)) and
the powers |.|^e that its reports have raised, so a power that several
reports of the family read (gdecomp's factors that do not depend on b,
lemma1's |xi - eta|^2) is raised once per block; each report's ratios go
into a population-length array of its own.  Against whole populations, with
every report raising its own powers, the walk took both dimensions'
pointwise reports at n = 100 000 from 131-149 to 115-124 ms in-process
(medians of five alternating rounds on 2 shared cores), and their traced
peak memory from 13.0 (d = 1) and 14.8 MB (d = 2) to 9.7 and 9.8 MB: a
block's temporaries replace the population's geometry and its
whole-population temporaries.
Each field population takes one draw and one batched transform
(:func:`spectral.random_series` with a leading shape); the antisymmetry
probe's fields then make one pass over the lattice pairs per kernel.  A
report's quantiles are read from a sorted copy of its ratios: the order
statistics that ``np.quantile`` of the unsorted ratios reads, found faster
where numpy's sort is SIMD-accelerated (numpy >= 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .spectral import (
    TorusGrid,
    half_inverse,
    half_norm,
    half_transform,
    radial_power,
    random_real_values,
    random_series,
    sobolev_weight,
)


@dataclass
class VerifyReport:
    """Summary of an estimate over a sample population."""

    name: str
    n: int
    sup_ratio: float
    argmax: dict
    quantiles: dict
    passed: bool
    first_half_sup: float = 0.0
    second_half_sup: float = 0.0

    def format(self) -> str:
        lines = [
            f"estimate: {self.name}",
            f"samples: {self.n}",
            f"sup_ratio: {self.sup_ratio:.12g}",
            f"first_half_sup: {self.first_half_sup:.12g}",
            f"second_half_sup: {self.second_half_sup:.12g}",
            "argmax: " + ", ".join(f"{k}={v}" for k, v in self.argmax.items()),
        ]
        for q, v in self.quantiles.items():
            lines.append(f"q{q}: {v:.12g}")
        lines.append(f"pass: {self.passed}")
        return "\n".join(lines) + "\n"


def _norm(v: np.ndarray) -> np.ndarray:
    """|v| over the last axis.  Adding the squared components column by column gives
    the bits of ``np.sum(v ** 2, axis=-1)`` for the one or two components of a
    wavevector, at a fifth of its cost."""
    v = np.asarray(v, dtype=np.float64)
    return np.sqrt(sum(v[..., j] ** 2 for j in range(v.shape[-1])))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u.v over the last axis, column by column like :func:`_norm`."""
    return sum(u[..., j] * v[..., j] for j in range(u.shape[-1]))


def _ratios_to_report(name: str, ratios: np.ndarray, degenerate: np.ndarray,
                      argmax_inputs) -> VerifyReport:
    live = ratios.copy()
    live[degenerate] = 0.0
    n = live.size
    sup = float(np.max(live)) if n else 0.0
    imax = int(np.argmax(live)) if n else 0
    half = n // 2
    s1 = float(np.max(live[:half])) if half else 0.0
    s2 = float(np.max(live[half:])) if n - half else 0.0
    passed = bool(np.isfinite(sup)) and (s1 == 0.0 or s2 <= 2.0 * s1)
    live.sort()  # the same order statistics, found faster in sorted order
    qs = dict(zip((50, 90, 99),
                  np.quantile(live, [0.5, 0.9, 0.99], overwrite_input=True).tolist()))
    return VerifyReport(
        name=name, n=n, sup_ratio=sup, argmax=argmax_inputs(imax),
        quantiles=qs, passed=passed, first_half_sup=s1, second_half_sup=s2,
    )


# ---------------------------------------------------------------------------
# pointwise wavenumber inequalities

# Pairs per block of the pointwise walk.  Both dimensions' pointwise reports at
# n = 100 000 took 143, 118, 111, 118 and 150 ms in-process at blocks of 2048,
# 4096, 8192, 16384 and 32768 pairs, and 167 ms in one block (2 shared cores,
# numpy 2.4).
POINTWISE_BLOCK = 8192


class _Pairs:
    """(xi, eta) pairs with the geometry every pointwise estimate reads.

    |xi|, |eta|, |xi - eta|, xi.eta and eta.(xi - eta) are computed when the
    pairs are made, and each power of the norms when an estimate first reads
    it (:meth:`_power`), which keeps it, read-only, for the estimates after
    it.  :func:`pointwise_reports` makes one ``_Pairs`` per block of
    ``POINTWISE_BLOCK`` pairs and evaluates every report of a family on it,
    so a power that several of them read is raised once per block.  Each
    estimate method builds its lhs and rhs in the operation order of its
    formula: its first operation on kept powers makes a new array, and the
    rest work in place on that.  Every power is a ``**`` of its own, as
    numpy's fast paths for exponents such as 2 or 0.5 make
    ``np.power(..., out=)`` differ from it in the last bit on some versions.
    """

    def __init__(self, xi, eta):
        self.xi = xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
        self.eta = eta = np.atleast_2d(np.asarray(eta, dtype=np.float64))
        diff = xi - eta
        self.axi, self.aeta, self.adiff = _norm(xi), _norm(eta), _norm(diff)
        self.dot = _dot(xi, eta)
        self.eta_dot_diff = _dot(eta, diff)
        self._powers = {}

    def _power(self, name: str, e: float, zero_mode: bool = False) -> np.ndarray:
        """The norm ``name`` to the power e (``radial_power``'s with ``zero_mode``),
        raised on first use and kept read-only."""
        key = (name, e, zero_mode)
        p = self._powers.get(key)
        if p is None:
            mag = getattr(self, name)
            p = self._powers[key] = radial_power(mag, e) if zero_mode else mag ** e
            p.flags.writeable = False
        return p

    def lemma1(self, s: float) -> tuple:
        """lhs = | |xi|^s - |xi-eta|^s - |eta|^s - s eta.(xi-eta) |eta|^{s-2} |,
        rhs = |xi-eta|^2 |eta|^{s-2} + |eta| |xi-eta|^{s-1}; the bound holds for s >= 3."""
        eta_sm2 = self._power("aeta", s - 2.0, zero_mode=True)
        lhs = np.subtract(self._power("axi", s), self._power("adiff", s))
        lhs -= self._power("aeta", s)
        t = np.multiply(s, self.eta_dot_diff)
        t *= eta_sm2
        lhs -= t
        np.abs(lhs, out=lhs)
        rhs = np.multiply(self._power("adiff", 2.0), eta_sm2)
        rhs += np.multiply(self.aeta, self._power("adiff", s - 1.0, zero_mode=True), out=t)
        return lhs, rhs

    def gdecomp(self, s: float, b: float) -> tuple:
        """For eta != 0: lhs = |G - G0 - G1 - Gs| with G = |xi|^{2s} xi.eta |eta|^{-2b} and
        G0, G1, Gs its |eta|^s, first-order and |xi-eta|^s parts; rhs =
        (|xi-eta|^2 |eta|^{s-2} + |eta| |xi-eta|^{s-1}) |xi|^s |eta|^{1-2b} (|xi-eta| + |eta|)."""
        dot = self.dot
        axs = self._power("axi", s)
        eta_m2b = self._power("aeta", -2.0 * b)
        lhs = np.multiply(self._power("axi", 2.0 * s), dot)  # G
        lhs *= eta_m2b
        t = np.multiply(self._power("aeta", s), axs)  # G0
        t *= dot
        t *= eta_m2b
        lhs -= t
        np.multiply(s, self.eta_dot_diff, out=t)  # G1
        t *= axs
        t *= dot
        t *= self._power("aeta", s - 2.0 - 2.0 * b)
        lhs -= t
        np.multiply(self._power("adiff", s), axs, out=t)  # Gs
        t *= dot
        t *= eta_m2b
        lhs -= t
        np.abs(lhs, out=lhs)
        rhs = np.multiply(self._power("adiff", 2.0), self._power("aeta", s - 2.0))
        rhs += np.multiply(self.aeta, self._power("adiff", s - 1.0, zero_mode=True), out=t)
        rhs *= axs
        rhs *= self._power("aeta", 1.0 - 2.0 * b)
        rhs *= np.add(self.adiff, self.aeta, out=t)
        return lhs, rhs

    def bdiff(self, b: float) -> tuple:
        """lhs = | |xi|^b - |eta|^b |,  rhs = |xi-eta| max(|xi|^{b-1}, |eta|^{b-1})."""
        lhs = np.subtract(self._power("axi", b), self._power("aeta", b))
        np.abs(lhs, out=lhs)
        rhs = np.maximum(self._power("axi", b - 1.0), self._power("aeta", b - 1.0))
        rhs *= self.adiff
        return lhs, rhs


def _safe_ratio(lhs, rhs):
    degenerate = rhs == 0.0
    ratio = np.zeros_like(rhs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(lhs, rhs, out=ratio, where=~degenerate)
    return ratio, degenerate


# ---------------------------------------------------------------------------
# wavenumber samplers


def _sample_pairs(d: int, n: int, rng) -> tuple:
    """Mixed sample of (xi, eta) pairs: lattice, log-uniform rays, adversarial."""
    n_lat = n // 2
    n_ray = n - n_lat
    xi_l = rng.integers(-1000, 1001, size=(n_lat, d)).astype(np.float64)
    eta_l = rng.integers(-1000, 1001, size=(n_lat, d)).astype(np.float64)

    def rays(count):
        r = 10.0 ** rng.uniform(-2.0, 3.0, size=count)
        v = rng.standard_normal((count, d))
        v /= np.maximum(_norm(v)[:, None], 1e-300)
        return r[:, None] * v

    xi_r = rays(n_ray)
    eta_r = rays(n_ray)
    # Adversarial families: near-collinear and extreme |eta|/|xi| ratios.
    n_adv = max(1, n // 20)
    base = rays(n_adv)
    perp = rng.standard_normal((n_adv, d)) * 1e-6
    xi_c = base
    eta_c = base * rng.uniform(0.5, 2.0, size=(n_adv, 1)) + perp
    xi_s = rays(n_adv)
    eta_s = xi_s * np.array([1e-3])[:, None]
    xi_b = rays(n_adv)
    eta_b = xi_b * np.array([1e3])[:, None]
    xi = np.concatenate([xi_l, xi_r, xi_c, xi_s, xi_b])
    eta = np.concatenate([eta_l, eta_r, eta_c, eta_s, eta_b])
    return xi, eta


def _family_reports(family: str, xi, eta, names, args) -> list:
    """One report per name of the estimate ``family`` (a :class:`_Pairs` method, called
    with the matching entry of ``args``) over the pairs (xi, eta).

    The pairs are walked in blocks of ``POINTWISE_BLOCK``: every report of the
    family reads the block's one ``_Pairs`` before the walk moves on, and puts
    its ratios into a population-length array of its own.
    """
    if not names:
        return []
    n = xi.shape[0]
    ratios = [np.empty(n) for _ in names]
    degenerate = [np.empty(n, dtype=bool) for _ in names]
    for start in range(0, n, POINTWISE_BLOCK):
        block = slice(start, start + POINTWISE_BLOCK)
        sides = getattr(_Pairs(xi[block], eta[block]), family)
        for a, ratio, deg in zip(args, ratios, degenerate):
            ratio[block], deg[block] = _safe_ratio(*sides(*a))
    return [_ratios_to_report(name, ratio, deg, lambda i: {"xi": xi[i].tolist(),
                                                           "eta": eta[i].tolist()})
            for name, ratio, deg in zip(names, ratios, degenerate)]


def _nonzero(xi, eta, v) -> tuple:
    """The pairs (xi, eta) where the vector v of each is not 0."""
    keep = _norm(v) > 0.0
    return (xi, eta) if keep.all() else (xi[keep], eta[keep])


def _pairs_reports(xi, eta, lemma1=(), gdecomp=(), bdiff=()) -> dict:
    """The reports of :func:`pointwise_reports` over the given (xi, eta) pairs, one per row."""
    d = xi.shape[1]
    out = {"lemma1": _family_reports("lemma1", xi, eta, [f"lemma1(s={s}, d={d})" for s in lemma1],
                                     [(s,) for s in lemma1])}
    xi, eta = _nonzero(xi, eta, eta)
    out["gdecomp"] = _family_reports("gdecomp", xi, eta,
                                     [f"gdecomp(s={s}, b={b}, d={d})" for s, b in gdecomp],
                                     gdecomp)
    xi, eta = _nonzero(xi, eta, xi)
    out["bdiff"] = _family_reports("bdiff", xi, eta, [f"bdiff(b={b}, d={d})" for b in bdiff],
                                   [(b,) for b in bdiff])
    return out


def pointwise_reports(d: int, n: int, seed: int = 0, lemma1=(), gdecomp=(), bdiff=()) -> dict:
    """Reports of the pointwise estimates over one draw of n (xi, eta) pairs in dimension d.

    ``lemma1`` lists values of s, ``gdecomp`` (s, b) pairs and ``bdiff``
    values of b; the result maps each of the three names to its reports in
    that order.  lemma1 sees every pair, gdecomp the pairs with eta != 0 and
    bdiff those with xi != 0 as well.  Each family walks its pairs in blocks
    (:func:`_family_reports`): only the filters and the ratios span the
    population.
    """
    return _pairs_reports(*_sample_pairs(d, n, np.random.default_rng(seed)),
                          lemma1, gdecomp, bdiff)


# ---------------------------------------------------------------------------
# commutator estimates on fields


def _commutator_lhs(grid: TorusGrid, f: np.ndarray, g: np.ndarray, b: float,
                    extract_symbol: bool) -> np.ndarray:
    """L2 norms of ([Lambda^{-b}, f grad] - correction) g, evaluated spectrally.

    f and g hold values of shape (..., *grid.shape), one trial per leading
    index, and all trials share each real FFT over the last d axes.  Products
    are formed from 2/3-dealiased factors.  With ``extract_symbol`` the
    correction is b sum_k (df/dx_k) d/dx_k Lambda^{-b-2} dg/dx_j.
    """
    kv, mag, mask = grid.half_wavevectors(), grid.half_magnitude(), grid.half_mask()
    ik = [np.where(mask, 1j * kv[..., j], 0.0) for j in range(grid.d)]
    lam = radial_power(mag, -b)
    lam2 = radial_power(mag, -b - 2.0)
    F, G = half_transform(f, grid.shape), half_transform(g, grid.shape)
    scale = np.maximum(1.0, np.max(np.abs(G), axis=grid.axes))
    if np.any(np.abs(G[(...,) + (0,) * grid.d].real) > 1e-12 * scale):
        raise ValueError("g must have zero mean")
    f_d = half_inverse(mask * F, grid.shape)
    df = [half_inverse(m * F, grid.shape) for m in ik] if extract_symbol else []
    power = 0.0
    for m_j in ik:
        dg = m_j * G
        # Lambda^{-b}(f dg/dx_j) - f Lambda^{-b}(dg/dx_j) - b (correction)
        rest = f_d * half_inverse(lam * dg, grid.shape)
        for dfk, m_k in zip(df, ik):
            rest = rest + b * dfk * half_inverse(m_k * lam2 * dg, grid.shape)
        comm = lam * half_transform(f_d * half_inverse(dg, grid.shape), grid.shape)
        power = power + np.abs(comm - half_transform(rest, grid.shape)) ** 2
    return half_norm(grid, power)


def _commutator_sides(grid: TorusGrid, f: np.ndarray, g: np.ndarray, b: float,
                      eps: float, plain: bool) -> tuple:
    """(lhs, rhs) per trial of the plain or the symbol-extracted commutator bound.

    plain:     rhs = ||f||_{H^{d/2+1-b+eps}} ||g||_{H^{-b}},   b in (0, 1];
    extracted: rhs = ||f||_{H^{d/2+3+eps}} ||g||_{H^{-b-1}},  b in (0, 1).
    """
    if not (0.0 < b < 1.0 or (plain and b == 1.0)):
        raise ValueError("b must lie in (0, 1]" if plain else "b must lie in (0, 1)")
    d = grid.d
    s_f, s_g = (d / 2.0 + 1.0 - b + eps, -b) if plain else (d / 2.0 + 3.0 + eps, -b - 1.0)
    lhs = _commutator_lhs(grid, f, g, b, extract_symbol=not plain)
    mag = grid.half_magnitude()

    def sobolev(v, s):
        power = np.abs(half_transform(v, grid.shape)) ** 2
        return half_norm(grid, power, sobolev_weight(mag, s, False))

    return lhs, sobolev(f, s_f) * sobolev(g, s_g)


def _commutator_fields(grid: TorusGrid, rng, n_trials: int) -> tuple:
    """Stacks f, g of n_trials random fields each, drawn f then g per trial in one draw.

    Their spectra decay like e^{-0.4|xi|} (f) and e^{-0.25|xi|} (g), so their norms are
    N-independent; each field is scaled to peak |.| 1, then f gets mean 1 and g mean 0.
    """
    rates = np.array([0.4, 0.25]).reshape((2,) + (1,) * grid.d)
    vals = random_series(grid, rng, lambda mag: np.exp(-rates * mag), lead=(n_trials, 2))
    peak = np.max(np.abs(vals), axis=grid.axes, keepdims=True)
    vals /= np.where(peak > 0, peak, 1.0)
    g = vals[:, 1]
    return vals[:, 0] + 1.0, g - np.mean(g, axis=grid.axes, keepdims=True)


def commutator_reports(b_list, plains, n_trials: int, N: int = 64, d: int = 1,
                       eps: float = 0.5, seed: int = 0) -> dict:
    """Commutator reports over one stack of random smooth (f, g) pairs.

    Maps each flag of ``plains`` (True: the plain bound, False: the
    symbol-extracted one) to its reports, one per b of ``b_list``.  The
    fields have exponentially decaying spectra so refining N leaves both
    sides of the estimate essentially unchanged.  The pairs are drawn as one
    stack (:func:`_commutator_fields`) and evaluated as one.
    """
    grid = TorusGrid(d=d, n=N)
    f, g = _commutator_fields(grid, np.random.default_rng(seed), n_trials)
    out = {}
    for plain in plains:
        tag = "plain_commutator" if plain else "commutator"
        out[plain] = [
            _ratios_to_report(f"{tag}(b={b}, N={N}, d={d}, eps={eps})",
                              *_safe_ratio(*_commutator_sides(grid, f, g, b, eps, plain)),
                              lambda i: {"trial": i})
            for b in b_list
        ]
    return out


def sample_antisymmetry(n_fields: int = 100, N: int = 32, d: int = 1,
                        seed: int = 0, tol: float = 1e-10) -> VerifyReport:
    """|T[G]| / magnitude scale for anti-symmetric kernels; passes when below tol.

    The fields come from one draw and one FFT, the coefficients of every mode,
    ``np.fft.fftn(random_real_field(grid, rng).values) / grid.npoints``, of each
    field in turn; one lattice pass per kernel gives T[G] and its scale for all of them.
    """
    grid = TorusGrid(d=d, n=N)
    fields = random_real_values(grid, np.random.default_rng(seed), decay=2.0, lead=(n_fields,))
    coeffs = np.fft.fftn(fields, axes=grid.axes) / grid.npoints
    kernels = antisymmetric_kernels()
    # one row per field, one column per kernel: case i is field i // 5, kernel i % 5
    vals = np.empty((n_fields, len(kernels)))
    scales = np.empty_like(vals)
    for k, G in enumerate(kernels):
        vals[:, k], scales[:, k] = diagnostics._trilinear_naive(G, grid, coeffs)
    rep = _ratios_to_report(f"antisymmetry(N={N}, d={d})",
                            *_safe_ratio(np.abs(vals).reshape(-1), scales.reshape(-1)),
                            lambda i: {"case": int(i)})
    rep.passed = bool(rep.sup_ratio <= tol)
    return rep


def antisymmetric_kernels() -> list:
    """Real anti-symmetric kernels G(eta, xi) = -G(xi, eta) used as cancellation probes."""
    return [
        lambda xi, eta: _dot(xi, eta) * (_norm(xi) ** 2 - _norm(eta) ** 2),
        lambda xi, eta: _norm(xi) - _norm(eta),
        lambda xi, eta: _norm(xi) ** 3 - _norm(eta) ** 3,
        lambda xi, eta: _dot(xi, eta) * (_norm(xi) - _norm(eta)),
        lambda xi, eta: np.sin(_norm(xi)) - np.sin(_norm(eta)),
    ]
