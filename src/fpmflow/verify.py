"""Numerical verification of the analytic inequalities at desk scale.

Each estimate is probed as a ratio lhs/rhs over a deterministic sample of
inputs; the implicit constants are reported as empirical sup ratios.  A
report passes when the sup ratio is finite and refinement-stable (the sup
over the second half of the samples is within 2x of the first half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import sobolev_norm, trilinear_T, trilinear_scale
from .spectral import (
    RealField,
    SpectralField,
    TorusGrid,
    dealiased_product,
    forward_transform,
    fractional_power,
    apply_multiplier,
    gradient,
    inverse_transform,
    l2_norm,
    random_real_field,
)


@dataclass
class RatioSample:
    """One evaluated inequality instance: lhs, rhs, and their ratio."""

    inputs: dict
    lhs: float
    rhs: float
    ratio: float
    degenerate: bool = False


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
    return np.sqrt(np.sum(np.asarray(v, dtype=np.float64) ** 2, axis=-1))


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
    qs = {p: float(np.quantile(live, p / 100.0)) for p in (50, 90, 99)}
    return VerifyReport(
        name=name, n=n, sup_ratio=sup, argmax=argmax_inputs(imax),
        quantiles=qs, passed=passed, first_half_sup=s1, second_half_sup=s2,
    )


# ---------------------------------------------------------------------------
# pointwise wavenumber inequalities


def lemma1_gap(xi, eta, s: float) -> RatioSample:
    """Gap of the elementary expansion of |xi|^s around eta, against its bound.

    lhs = | |xi|^s - |xi-eta|^s - |eta|^s - s eta.(xi-eta) |eta|^{s-2} |
    rhs = |xi-eta|^2 |eta|^{s-2} + |eta| |xi-eta|^{s-1},  valid for s >= 3.
    """
    if s < 3.0:
        raise ValueError("inequality requires s >= 3")
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    eta = np.atleast_2d(np.asarray(eta, dtype=np.float64))
    lhs, rhs = _lemma1_sides(xi, eta, s)
    ratio, deg = _safe_ratio(lhs, rhs)
    return RatioSample(
        inputs={"xi": xi[0], "eta": eta[0], "s": s},
        lhs=float(lhs[0]), rhs=float(rhs[0]), ratio=float(ratio[0]),
        degenerate=bool(deg[0]),
    )


def _lemma1_sides(xi, eta, s):
    diff = xi - eta
    axi, aeta, adiff = _norm(xi), _norm(eta), _norm(diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_sm2 = np.where(aeta > 0.0, aeta ** (s - 2.0), 0.0)
        diff_sm1 = np.where(adiff > 0.0, adiff ** (s - 1.0), 0.0)
    dot = np.sum(eta * diff, axis=-1)
    lhs = np.abs(axi ** s - adiff ** s - aeta ** s - s * dot * eta_sm2)
    rhs = adiff ** 2 * eta_sm2 + aeta * diff_sm1
    return lhs, rhs


def _safe_ratio(lhs, rhs):
    degenerate = rhs == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(degenerate, 0.0, lhs / np.where(degenerate, 1.0, rhs))
    return ratio, degenerate


def bdiff_check(xi, eta, b: float) -> RatioSample:
    """| |xi|^b - |eta|^b |  vs  |xi-eta| max(|xi|^{b-1}, |eta|^{b-1}), b in (0, 1]."""
    if not (0.0 < b <= 1.0):
        raise ValueError("b must lie in (0, 1]")
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    eta = np.atleast_2d(np.asarray(eta, dtype=np.float64))
    axi, aeta = _norm(xi), _norm(eta)
    if np.any(axi == 0.0) or np.any(aeta == 0.0):
        raise ValueError("xi and eta must be nonzero")
    lhs, rhs = _bdiff_sides(xi, eta, b)
    ratio, deg = _safe_ratio(lhs, rhs)
    return RatioSample(
        inputs={"xi": xi[0], "eta": eta[0], "b": b},
        lhs=float(lhs[0]), rhs=float(rhs[0]), ratio=float(ratio[0]),
        degenerate=bool(deg[0]),
    )


def _bdiff_sides(xi, eta, b):
    axi, aeta, adiff = _norm(xi), _norm(eta), _norm(xi - eta)
    lhs = np.abs(axi ** b - aeta ** b)
    rhs = adiff * np.maximum(axi ** (b - 1.0), aeta ** (b - 1.0))
    return lhs, rhs


def gdecomp_check(xi, eta, s: float, b: float) -> RatioSample:
    """Remainder |G - G0 - G1 - Gs| of the kernel decomposition against its bound."""
    if s < 3.0:
        raise ValueError("decomposition bound requires s >= 3")
    if not (0.0 <= b <= 1.0):
        raise ValueError("b must lie in [0, 1]")
    xi = np.atleast_2d(np.asarray(xi, dtype=np.float64))
    eta = np.atleast_2d(np.asarray(eta, dtype=np.float64))
    if np.any(_norm(eta) == 0.0):
        raise ValueError("eta must be nonzero")
    lhs, rhs = _gdecomp_sides(xi, eta, s, b)
    ratio, deg = _safe_ratio(lhs, rhs)
    return RatioSample(
        inputs={"xi": xi[0], "eta": eta[0], "s": s, "b": b},
        lhs=float(lhs[0]), rhs=float(rhs[0]), ratio=float(ratio[0]),
        degenerate=bool(deg[0]),
    )


def _gdecomp_sides(xi, eta, s, b):
    diff = xi - eta
    axi, aeta, adiff = _norm(xi), _norm(eta), _norm(diff)
    dot = np.sum(xi * eta, axis=-1)
    eta_dot_diff = np.sum(eta * diff, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta_m2b = np.where(aeta > 0.0, aeta ** (-2.0 * b), 0.0)
        eta_sm2m2b = np.where(aeta > 0.0, aeta ** (s - 2.0 - 2.0 * b), 0.0)
        diff_sm1 = np.where(adiff > 0.0, adiff ** (s - 1.0), 0.0)
    G = axi ** (2.0 * s) * dot * eta_m2b
    Gs = axi ** s * adiff ** s * dot * eta_m2b
    G0 = axi ** s * aeta ** s * dot * eta_m2b
    G1 = axi ** s * (s * eta_dot_diff) * dot * eta_sm2m2b
    lhs = np.abs(G - G0 - G1 - Gs)
    rhs = (
        (adiff ** 2 * aeta ** (s - 2.0) + aeta * diff_sm1)
        * axi ** s * aeta ** (1.0 - 2.0 * b) * (adiff + aeta)
    )
    return lhs, rhs


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


def sample_lemma1(s: float, d: int, n: int, seed: int = 0) -> VerifyReport:
    """Empirical sup ratio for the elementary inequality (s >= 3)."""
    rng = np.random.default_rng(seed)
    xi, eta = _sample_pairs(d, n, rng)
    lhs, rhs = _lemma1_sides(xi, eta, s)
    ratio, deg = _safe_ratio(lhs, rhs)
    deg = deg | (_norm(eta) == 0.0)
    return _ratios_to_report(
        f"lemma1(s={s}, d={d})", ratio, deg,
        lambda i: {"xi": xi[i].tolist(), "eta": eta[i].tolist()},
    )


def sample_bdiff(b: float, d: int, n: int, seed: int = 0) -> VerifyReport:
    rng = np.random.default_rng(seed)
    xi, eta = _sample_pairs(d, n, rng)
    ok = (_norm(xi) > 0.0) & (_norm(eta) > 0.0)
    xi, eta = xi[ok], eta[ok]
    lhs, rhs = _bdiff_sides(xi, eta, b)
    ratio, deg = _safe_ratio(lhs, rhs)
    return _ratios_to_report(
        f"bdiff(b={b}, d={d})", ratio, deg,
        lambda i: {"xi": xi[i].tolist(), "eta": eta[i].tolist()},
    )


def sample_gdecomp(s: float, b: float, d: int, n: int, seed: int = 0) -> VerifyReport:
    rng = np.random.default_rng(seed)
    xi, eta = _sample_pairs(d, n, rng)
    ok = _norm(eta) > 0.0
    xi, eta = xi[ok], eta[ok]
    lhs, rhs = _gdecomp_sides(xi, eta, s, b)
    ratio, deg = _safe_ratio(lhs, rhs)
    return _ratios_to_report(
        f"gdecomp(s={s}, b={b}, d={d})", ratio, deg,
        lambda i: {"xi": xi[i].tolist(), "eta": eta[i].tolist()},
    )


# ---------------------------------------------------------------------------
# commutator estimates on fields


def _commutator_lhs(f: RealField, g: RealField, b: float, extract_symbol: bool) -> float:
    """L2 norm of ([Lambda^{-b}, f grad] - correction) g, evaluated spectrally."""
    grid = f.grid
    fh = forward_transform(f)
    gh = forward_transform(g)
    if abs(gh.mean) > 1e-12 * max(1.0, float(np.max(np.abs(gh.coeffs)))):
        raise ValueError("g must have zero mean")
    grad_g = [inverse_transform(c) for c in gradient(gh)]
    grad_f = [inverse_transform(c) for c in gradient(fh)]
    lam_b = fractional_power(-b)
    total = 0.0
    for j in range(grid.d):
        # Lambda^{-b}(f dg/dx_j) - f Lambda^{-b}(dg/dx_j), products dealiased.
        prod = forward_transform(dealiased_product(f, grad_g[j]))
        term1 = apply_multiplier(prod, lam_b)
        lam_dg = inverse_transform(apply_multiplier(forward_transform(grad_g[j]), lam_b))
        term2 = forward_transform(dealiased_product(f, lam_dg))
        comm = term1.coeffs - term2.coeffs
        if extract_symbol:
            # b sum_k (df/dx_k) d/dx_k Lambda^{-b-2} dg/dx_j
            base = apply_multiplier(forward_transform(grad_g[j]), fractional_power(-b - 2.0))
            parts = gradient(base)
            corr = np.zeros(grid.shape, dtype=np.complex128)
            for k in range(grid.d):
                pk = inverse_transform(parts[k])
                corr += forward_transform(dealiased_product(grad_f[k], pk)).coeffs
            comm = comm - b * corr
        total += l2_norm(SpectralField(grid, comm)) ** 2
    return math.sqrt(total)


def commutator_ratio(f: RealField, g: RealField, b: float, eps: float = 0.5) -> RatioSample:
    """Symbol-extracted commutator bound: lhs / (||f||_{H^{d/2+3+eps}} ||g||_{H^{-b-1}})."""
    if not (0.0 < b < 1.0):
        raise ValueError("b must lie in (0, 1)")
    d = f.grid.d
    lhs = _commutator_lhs(f, g, b, extract_symbol=True)
    rhs = sobolev_norm(forward_transform(f), d / 2.0 + 3.0 + eps) * sobolev_norm(
        forward_transform(g), -b - 1.0
    )
    ratio, deg = _safe_ratio(np.array([lhs]), np.array([rhs]))
    return RatioSample(
        inputs={"b": b, "eps": eps, "N": f.grid.n, "d": d},
        lhs=lhs, rhs=float(rhs), ratio=float(ratio[0]), degenerate=bool(deg[0]),
    )


def plain_commutator_ratio(f: RealField, g: RealField, b: float,
                           eps: float = 0.5) -> RatioSample:
    """Plain commutator bound: lhs / (||f||_{H^{d/2+1-b+eps}} ||g||_{H^{-b}})."""
    if not (0.0 < b <= 1.0):
        raise ValueError("b must lie in (0, 1]")
    d = f.grid.d
    lhs = _commutator_lhs(f, g, b, extract_symbol=False)
    rhs = sobolev_norm(forward_transform(f), d / 2.0 + 1.0 - b + eps) * sobolev_norm(
        forward_transform(g), -b
    )
    ratio, deg = _safe_ratio(np.array([lhs]), np.array([rhs]))
    return RatioSample(
        inputs={"b": b, "eps": eps, "N": f.grid.n, "d": d},
        lhs=lhs, rhs=float(rhs), ratio=float(ratio[0]), degenerate=bool(deg[0]),
    )


def _analytic_random_field(grid: TorusGrid, rng, rate: float, mean: float) -> RealField:
    """Random field with exponentially decaying spectrum (norms N-independent)."""
    mag = grid.wavenumber_magnitude()
    raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    vals = np.fft.ifftn(raw * np.exp(-rate * mag) * grid.npoints).real
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals /= peak
    return RealField(grid, vals + mean)


def sample_commutator(b: float, n_trials: int, N: int = 64, d: int = 1,
                      eps: float = 0.5, seed: int = 0,
                      plain: bool = False) -> VerifyReport:
    """Sup ratio of the commutator estimate over random smooth (f, g) pairs.

    The fields have exponentially decaying spectra so refining N leaves
    both sides of the estimate essentially unchanged.
    """
    rng = np.random.default_rng(seed)
    grid = TorusGrid(d=d, n=N)
    ratios = np.zeros(n_trials)
    deg = np.zeros(n_trials, dtype=bool)
    for i in range(n_trials):
        f = _analytic_random_field(grid, rng, rate=0.4, mean=1.0)
        g = _analytic_random_field(grid, rng, rate=0.25, mean=0.0)
        g.values -= np.mean(g.values)
        if plain:
            rs = plain_commutator_ratio(f, g, b, eps)
        else:
            rs = commutator_ratio(f, g, b, eps)
        ratios[i] = rs.ratio
        deg[i] = rs.degenerate
    tag = "plain_commutator" if plain else "commutator"
    return _ratios_to_report(
        f"{tag}(b={b}, N={N}, d={d}, eps={eps})", ratios, deg,
        lambda i: {"trial": i},
    )


def sample_antisymmetry(n_fields: int = 100, N: int = 32, d: int = 1,
                        seed: int = 0, tol: float = 1e-10) -> VerifyReport:
    """|T[G]| / magnitude scale for anti-symmetric kernels; passes when below tol."""
    rng = np.random.default_rng(seed)
    grid = TorusGrid(d=d, n=N)
    kernels = antisymmetric_kernels()
    ratios = []
    for i in range(n_fields):
        F = forward_transform(random_real_field(grid, rng, decay=2.0))
        for G in kernels:
            scale = trilinear_scale(G, F)
            val = abs(trilinear_T(G, F, mode="naive"))
            ratios.append(val / scale if scale > 0.0 else 0.0)
    ratios = np.array(ratios)
    deg = np.zeros_like(ratios, dtype=bool)
    rep = _ratios_to_report(
        f"antisymmetry(N={N}, d={d})", ratios, deg, lambda i: {"case": int(i)}
    )
    rep.passed = bool(rep.sup_ratio <= tol)
    return rep


def antisymmetric_kernels() -> list:
    """Real anti-symmetric kernels G(eta, xi) = -G(xi, eta) used as cancellation probes."""

    def dot(xi, eta):
        return np.sum(xi * eta, axis=-1)

    def mag(v):
        return np.sqrt(np.sum(v * v, axis=-1))

    return [
        lambda xi, eta: dot(xi, eta) * (mag(xi) ** 2 - mag(eta) ** 2),
        lambda xi, eta: mag(xi) - mag(eta),
        lambda xi, eta: mag(xi) ** 3 - mag(eta) ** 3,
        lambda xi, eta: dot(xi, eta) * (mag(xi) - mag(eta)),
        lambda xi, eta: np.sin(mag(xi)) - np.sin(mag(eta)),
    ]
