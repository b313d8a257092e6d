"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import glob
import math
import os
import sys
import time

import numpy as np

from fpmflow.diagnostics import _trilinear_naive
from fpmflow.driver import (
    RunConfig,
    grid_refinement,
    load_config,
    mu_convergence,
    picard_iteration,
    run_simulation,
    run_to_final,
)
from fpmflow.model import ModelParams
from fpmflow.spectral import TorusGrid, half_inverse, random_real_field
from fpmflow.stepper import StepperConfig, integrate
from fpmflow.verify import (
    _commutator_lhs,
    _Pairs,
    _safe_ratio,
    commutator_reports,
    pointwise_reports,
    sample_antisymmetry,
)

from oracles import (SeparableKernel, apply_multiplier, field_from_function, forward_transform,
                     fractional_power, trilinear_fft)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(num, name, ok):
    line = f"[{num:2d}] {name:<28s} {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.stderr)
    assert ok, line


def mag(v):
    return np.sqrt(np.sum(v * v, axis=-1))


class TestAcceptance:
    def test_01_heat_exactness(self):
        g = TorusGrid(d=1, n=64)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=1.0)
        rho0 = field_from_function(g, lambda x: 1 + np.cos(x))
        cfg = StepperConfig(t_end=0.1, dt_mode="fixed", dt=1e-3)
        t0 = time.perf_counter()
        res = integrate(rho0, p, cfg)
        elapsed = time.perf_counter() - t0
        final = half_inverse(res.h, g.shape)
        ref = 1 + math.exp(-0.1) * np.cos(g.points()[0])
        rel = np.max(np.abs(final - ref)) / np.max(np.abs(ref))
        report(1, "heat-exactness", rel < 1e-8 and elapsed < 1.0)

    def test_02_mass_conservation(self):
        paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
        assert paths, "no shipped configs found"
        ok = True
        for path in paths:
            cfg = load_config(path, [])
            res = run_to_final(cfg)
            masses = [r.mass for r in res.records]
            scale = max(abs(masses[0]), 1.0)
            drift = max(abs(m - masses[0]) for m in masses) / scale
            ok = ok and drift <= 1e-12
        report(2, "mass-conservation", ok)

    def test_03_operator_algebra(self):
        rng = np.random.default_rng(101)
        ok = True
        for d in (1, 2):
            for n in (32, 64):
                g = TorusGrid(d=d, n=n)
                F = forward_transform(random_real_field(g, rng, decay=2.0))
                F.coeffs.flat[0] = 0.0
                for s1, s2 in ((0.5, 1.5), (-1.0, 2.0), (0.7, -0.7)):
                    one = apply_multiplier(
                        apply_multiplier(F, fractional_power(s1)),
                        fractional_power(s2))
                    both = apply_multiplier(F, fractional_power(s1 + s2))
                    scale = np.max(np.abs(both.coeffs))
                    err = np.max(np.abs(one.coeffs - both.coeffs))
                    ok = ok and err <= 1e-12 * max(scale, 1.0)
        report(3, "operator-algebra", ok)

    def test_04_trilinear_antisymmetry(self):
        rep = sample_antisymmetry(n_fields=100, N=32, d=1, seed=0, tol=1e-10)
        ok = rep.passed
        # Separable forms of the same anti-symmetric kernels: the naive lattice sum vs the
        # FFT evaluation of tests/oracles.py.
        kernels = [
            SeparableKernel(terms=(
                (lambda xi: xi[..., 0] * mag(xi) ** 2, lambda eta: eta[..., 0]),
                (lambda xi: -xi[..., 0], lambda eta: eta[..., 0] * mag(eta) ** 2),
            )),
            SeparableKernel(terms=(
                (lambda xi: mag(xi), lambda eta: np.ones(eta.shape[:-1])),
                (lambda xi: -np.ones(xi.shape[:-1]), lambda eta: mag(eta)),
            )),
            SeparableKernel(terms=(
                (lambda xi: mag(xi) ** 3, lambda eta: np.ones(eta.shape[:-1])),
                (lambda xi: -np.ones(xi.shape[:-1]), lambda eta: mag(eta) ** 3),
            )),
            SeparableKernel(terms=(
                (lambda xi: xi[..., 0] * mag(xi), lambda eta: eta[..., 0]),
                (lambda xi: -xi[..., 0], lambda eta: eta[..., 0] * mag(eta)),
            )),
            SeparableKernel(terms=(
                (lambda xi: np.sin(mag(xi)), lambda eta: np.ones(eta.shape[:-1])),
                (lambda xi: -np.ones(xi.shape[:-1]), lambda eta: np.sin(mag(eta))),
            )),
        ]
        rng = np.random.default_rng(103)
        for g in (TorusGrid(d=1, n=32), TorusGrid(d=2, n=16)):
            for _ in range(5):
                F = forward_transform(random_real_field(g, rng, decay=2.0))
                for K in kernels:
                    (a,), (scale,) = _trilinear_naive(K, g, F.coeffs[None])
                    b = trilinear_fft(K, F)
                    ok = ok and abs(a - b) <= 1e-10 * max(scale, 1.0)
        report(4, "trilinear-antisymmetry", ok)

    def test_05_energy_identity_order(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=0.0)
        g = TorusGrid(d=1, n=64)
        rho0 = field_from_function(g, lambda x: 1 + 0.5 * np.cos(x))
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = StepperConfig(t_end=0.2, dt_mode="fixed", dt=dt, sample_every=1)
            res = integrate(rho0, p, cfg)
            ts = [r.t for r in res.records]
            i = min(range(1, len(ts) - 1), key=lambda j: abs(ts[j] - 0.1))
            errs.append(res.records[i].energy_residual_L2)
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        report(5, "energy-identity-order", slope >= 2.0 - 0.05)

    def test_06_lemma1(self):
        ok = True
        for d in (1, 2):
            for rep in pointwise_reports(d, 100_000, seed=0, lemma1=(3.0, 4.0, 6.0))["lemma1"]:
                ok = ok and rep.passed and math.isfinite(rep.sup_ratio)
        spot, _ = _safe_ratio(*_Pairs([2.0], [1.0]).lemma1(3.0))
        ok = ok and spot[0] == 1.5
        rng = np.random.default_rng(107)
        for lam in (2.0, 10.0):
            for _ in range(50):
                xi = rng.standard_normal(2) * 5
                eta = rng.standard_normal(2) * 5
                (a,), (a_degenerate,) = _safe_ratio(*_Pairs(xi, eta).lemma1(4.0))
                (b,), _ = _safe_ratio(*_Pairs(lam * xi, lam * eta).lemma1(4.0))
                if not a_degenerate and a > 0:
                    ok = ok and abs(b - a) <= 1e-10 * a
        report(6, "lemma1-elementary", ok)

    def test_07_commutator(self):
        ok = True
        r64s, r128s = (commutator_reports((0.25, 0.5, 0.75), (False,), 200, N=N, d=1, eps=0.5,
                                          seed=0)[False] for N in (64, 128))
        for r64, r128 in zip(r64s, r128s):
            ok = ok and math.isfinite(r64.sup_ratio) and r64.sup_ratio > 0.0
            change = r128.sup_ratio / r64.sup_ratio
            ok = ok and 0.5 < change < 2.0
        g = TorusGrid(d=1, n=64)
        from fpmflow.spectral import RealField

        f_const = RealField(g, np.full(64, 1.7))
        gg = field_from_function(g, lambda x: np.cos(2 * x))
        ok = ok and _commutator_lhs(g, f_const.values, gg.values, 0.5, False) <= 1e-12
        report(7, "commutator-estimate", ok)

    def test_08_mu_convergence(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"), [])
        rows = mu_convergence(cfg, [0.5, 0.25, 0.125])
        errs = [r[1] for r in rows]
        report(8, "mu-convergence", all(b < a for a, b in zip(errs, errs[1:])))

    def test_09_picard_contraction(self):
        cfg = load_config(
            os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
            [("t_end", "0.05"), ("mu", "0.25"), ("dt_mode", "fixed"), ("dt", "1e-3")],
        )
        rep = picard_iteration(cfg, 7)
        d = rep["diffs"]
        ratios = [d[i] / d[i - 1] for i in range(2, 7)]  # n = 2..6
        report(9, "picard-contraction", all(r < 1.0 for r in ratios))

    def test_10_blowup_contrast(self):
        base = load_config(os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"), [])
        rep_res = run_to_final(base)
        ok = rep_res.reason == "completed" and rep_res.t >= 1.0 - 1e-12
        b1 = [r.B1 for r in rep_res.records]
        ok = ok and math.isfinite(rep_res.records[-1].int_B1)
        ok = ok and b1[-1] <= 10.0 * b1[0]
        attr = load_config(os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
                           [("c_K", "1.0")])
        att_res = run_to_final(attr)
        ok = ok and att_res.reason == "blowup_detected"
        tail = [r.B1 for r in att_res.records]
        tail = tail[len(tail) // 2:]
        ok = ok and all(y > x for x, y in zip(tail, tail[1:]))
        report(10, "blowup-contrast", ok)

    def test_11_spectral_self_convergence(self):
        # Analytic data with tail content near the N=64 dealias band, so the
        # coarse-level error sits well above machine precision.
        cfg = RunConfig(alpha_minus_d=-1.0, c_K=-1.0, nu=0.0,
                        init="gaussian:mass=3,sigma=0.35,center=3.141592653589793",
                        t_end=0.2, dt_mode="fixed", dt=1e-3)
        rows = grid_refinement(cfg, [64, 128, 256])
        ratio = rows[0][2] / rows[1][2]
        report(11, "spectral-self-convergence", ratio >= 10.0)

    def test_12_determinism(self, tmp_path):
        cfg_path = os.path.join(CONFIG_DIR, "repulsive_2d.cfg")
        blobs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            cfg = load_config(cfg_path, [("out", out)])
            assert run_simulation(cfg, quiet=True) == 0
            files = {}
            for fn in sorted(os.listdir(out)):
                with open(os.path.join(out, fn), "rb") as fh:
                    files[fn] = fh.read()
            blobs.append(files)
        report(12, "determinism", blobs[0] == blobs[1])
