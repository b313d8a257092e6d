"""Tests for the integrating-factor RK4 stepper and the run loop."""

import gc
import math

import numpy as np
import pytest

from fpmflow.model import (ModelParams, SpectralOperator, nonlinear_rhs, velocity,
                           velocity_symbol)
from fpmflow.spectral import (
    RealField,
    SpectralError,
    TorusGrid,
    half_coefficients,
    half_inverse,
    random_real_field,
)
from fpmflow import stepper
from fpmflow.stepper import StepperConfig, _integrating_factor_rk4, cfl_dt, integrate, step

from oracles import SpectralField, dealias_mask, field_from_function, full_field


def cosine_data(grid, amplitude=1.0):
    return field_from_function(grid, lambda x: 1 + amplitude * np.cos(x))


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def count_ffts(monkeypatch):
    """Count every numpy.fft transform call from now on, in total and per name."""
    counter = {"calls": 0}
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            counter["calls"] += 1
            counter[name] = counter.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counter


def reference_full_layout_step(F, dt, p):
    """One integrating-factor RK4 step on full-layout coefficients through complex FFTs.

    The right-hand side dealiases rho and every velocity component on the
    coefficients, multiplies them in physical space, and takes -i xi_j of each
    product on the dealiased band; gradients zero the unpaired Nyquist mode.
    This is the direct form of the rfft-layout step.
    """
    g = F.grid
    n = g.npoints
    kv = g.wavevectors()
    mask = dealias_mask(g)
    mag2 = np.sum(kv * kv, axis=-1)

    def physical(c):
        return (np.fft.ifftn(c) * n).real

    def rhs(c):
        cm = np.where(mask, c, 0.0)
        rho_d = physical(cm)
        scaled = p.c_K * velocity_symbol(kv, p) * cm
        out = np.zeros(g.shape, dtype=complex)
        for j in range(g.d):
            kj = kv[..., j]
            u_d = physical(np.where(kj == -(g.n // 2), 0.0, 1j * kj * scaled))
            out -= np.where(mask, 1j * kj, 0.0) * np.fft.fftn(rho_d * u_d) / n
        out.flat[0] = 0.0
        return out

    e_full = np.exp(-p.nu * mag2 * dt)
    e_half = np.exp(-p.nu * mag2 * dt / 2.0)
    c = F.coeffs
    k1 = rhs(c)
    k2 = rhs(e_half * (c + 0.5 * dt * k1))
    k3 = rhs(e_half * c + 0.5 * dt * k2)
    k4 = rhs(e_full * c + dt * e_half * k3)
    return SpectralField(g, e_full * c + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4))


class TestStep:
    @pytest.mark.parametrize("mu", [0.0, 0.25])
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_full_layout_reference(self, d, nu, mu):
        g = TorusGrid(d=d, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=nu, mu=mu)
        op = SpectralOperator(g, p)
        h = half_coefficients(random_real_field(g, np.random.default_rng(18), mean=1.0))
        out = full_field(g, step(h, lambda *_: 0.01, op)[0]).coeffs
        ref = reference_full_layout_step(full_field(g, h), 0.01, p).coeffs
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(out - full_field(g, h).coeffs)) > 1e-6  # the step moved the state


    @pytest.mark.parametrize("d", [1, 2])
    def test_inviscid_step_is_the_unit_factor_formula(self, d):
        # at nu = 0 no factor is applied, and the step equals the formula with factors 1.0
        g = TorusGrid(d=d, n=16)
        op = SpectralOperator(g, ModelParams(alpha_minus_d=-1.0, c_K=-1.0, mu=0.25))
        c = half_coefficients(random_real_field(g, np.random.default_rng(5), mean=1.0))

        def rhs(arr, tau):  # depends on the stage time, as picard's frozen RHS does
            return (1.0 + tau) * nonlinear_rhs(arr, op)

        dt, e_full, e_half = 0.01, 1.0, 1.0
        k1 = rhs(c, 0.0)
        k2 = rhs(e_half * (c + 0.5 * dt * k1), 0.5)
        k3 = rhs(e_half * c + 0.5 * dt * k2, 0.5)
        k4 = rhs(e_full * c + dt * e_half * k3, 1.0)
        expected = e_full * c + dt / 6.0 * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        assert np.array_equal(_integrating_factor_rk4(c, dt, k1, rhs, op), expected)
        assert not np.array_equal(expected, c)

    def test_heat_factor_exact(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=1.0)
        op = SpectralOperator(g, p)
        h = half_coefficients(cosine_data(g))
        out = step(h, lambda *_: 0.37, op)[0]
        assert out[1] == pytest.approx(h[1] * math.exp(-0.37), rel=1e-14)
        assert out[0] == pytest.approx(h[0], rel=1e-15)

    def test_no_dynamics_is_identity(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=0.0)
        op = SpectralOperator(g, p)
        h = half_coefficients(cosine_data(g))
        out = step(h, lambda *_: 0.1, op)[0]
        assert np.array_equal(out, h)

    def test_invalid_dt(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        with pytest.raises(ValueError):
            op = SpectralOperator(g, p)
            step(half_coefficients(cosine_data(g)), lambda *_: -0.1, op)

    @pytest.mark.parametrize("d, expected", [(1, 12), (2, 20)])
    def test_fft_count(self, monkeypatch, d, expected):
        # four RHS, each 1 + 2d real FFTs
        g = TorusGrid(d=d, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=0.1)
        op = SpectralOperator(g, p)
        h = half_coefficients(random_real_field(g, np.random.default_rng(3), mean=1.0))
        counter = count_ffts(monkeypatch)
        step(h, lambda *_: 1e-3, op)
        assert counter["calls"] == expected

    def test_grid_refinement_agreement(self):
        # one full nonlinear step on N=32 vs N=64 restricted to the coarse band
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        outs = {}
        for n in (32, 64):
            g = TorusGrid(d=1, n=n)
            op = SpectralOperator(g, p)
            h = half_coefficients(field_from_function(
                g, lambda x: 1 + 0.3 * np.cos(x) + 0.1 * np.cos(2 * x)))
            outs[n] = np.fft.fftshift(full_field(g, step(h, lambda *_: 1e-3, op)[0]).coeffs)
        coarse = outs[32]
        fine = outs[64][16:48]
        # compare inside the coarse dealias band only
        band = np.zeros(32, dtype=bool)
        band[16 - 10:16 + 11] = True
        assert np.max(np.abs(coarse[band] - fine[band])) < 1e-10


def stage_one_maxima(h, op):
    """(max|u_d|, max|rho_d|) that stage 1 of an adaptive step hands to the step-size rule."""
    return nonlinear_rhs(h, op, maxima=True)[1:]


class TestCflDt:
    def test_zero_velocity_capped(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        op = SpectralOperator(g, p)
        h = half_coefficients(RealField(g, np.zeros(32)))
        assert cfl_dt(*stage_one_maxima(h, op), op, safety=0.5, dt_max=0.05) == 0.05

    def test_transport_exponent_b1(self):
        # b = 1: grid exponent max(1, 0) = 1, dt scales linearly in dx
        p = ModelParams(alpha_minus_d=-2.0, c_K=-1.0)
        dts = {}
        for n in (32, 64):
            g = TorusGrid(d=1, n=n)
            op = SpectralOperator(g, p)
            maxima = stage_one_maxima(half_coefficients(cosine_data(g, 0.5)), op)
            dts[n] = cfl_dt(*maxima, op, safety=1.0, dt_max=np.inf)
        assert dts[32] / dts[64] == pytest.approx(2.0, rel=0.05)

    def test_diffusive_exponent_b0(self):
        # b = 0: grid exponent 2, halving dx quarters dt
        p = ModelParams(alpha_minus_d=0.0, c_K=-1.0)
        dts = {}
        for n in (32, 64):
            g = TorusGrid(d=1, n=n)
            # small amplitude so the rho-based constraint dominates
            op = SpectralOperator(g, p)
            maxima = stage_one_maxima(half_coefficients(cosine_data(g, 1e-6)), op)
            dts[n] = cfl_dt(*maxima, op, safety=1.0, dt_max=np.inf)
        assert dts[32] / dts[64] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("d", [1, 2])
    def test_maxima_are_those_of_the_dealiased_fields(self, d):
        g = TorusGrid(d=d, n=16)
        op = SpectralOperator(g, ModelParams(alpha_minus_d=-1.0, c_K=-1.0, mu=0.25))
        h = half_coefficients(random_real_field(g, np.random.default_rng(8), mean=1.0))
        k1, umax, rho_max = nonlinear_rhs(h, op, maxima=True)
        assert np.array_equal(k1, nonlinear_rhs(h, op))
        hm = op.mask * h
        assert rho_max == float(np.max(np.abs(op.physical(hm))))
        assert umax == max(float(np.max(np.abs(u))) for u in velocity(hm, op))
        assert umax > 0.0 and rho_max > 0.0

    def test_step_applies_the_rule_to_stage_one(self):
        g = TorusGrid(d=2, n=16)
        op = SpectralOperator(g, ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=0.05))
        h = half_coefficients(random_real_field(g, np.random.default_rng(9), mean=1.0))
        seen = []

        def rule(umax, rho_max):
            seen.append((umax, rho_max))
            return 2e-3

        out, dt, k1 = step(h, rule, op)
        assert seen == [stage_one_maxima(h, op)] and dt == 2e-3
        assert np.array_equal(k1, nonlinear_rhs(h, op))
        assert np.array_equal(out, step(h, lambda *_: 2e-3, op)[0])

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
    def test_rule_dt_not_finite_and_positive_is_a_spectral_error(self, bad):
        # an overflowing state gives a CFL dt of 0 or nan; the run ends blowup_detected
        g = TorusGrid(d=1, n=16)
        op = SpectralOperator(g, ModelParams(alpha_minus_d=-1.0, c_K=-1.0))
        with pytest.raises(SpectralError):
            step(half_coefficients(cosine_data(g)), lambda umax, rho_max: bad, op)


class TestIntegrate:
    def test_heat_exact_solution(self):
        g = TorusGrid(d=1, n=64)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=1.0)
        cfg = StepperConfig(t_end=0.1, dt_mode="fixed", dt=1e-3)
        res = integrate(cosine_data(g), p, cfg)
        assert res.reason == "completed"
        final = half_inverse(res.h, g.shape)
        ref = 1 + math.exp(-0.1) * np.cos(g.points()[0])
        rel = np.max(np.abs(final - ref)) / np.max(np.abs(ref))
        assert rel < 1e-8

    def test_mass_invariance(self):
        g = TorusGrid(d=1, n=64)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        cfg = StepperConfig(t_end=0.5, dt_mode="adaptive", safety=0.4)
        res = integrate(cosine_data(g, 0.5), p, cfg)
        m0 = res.records[0].mass
        assert res.records[-1].mass == pytest.approx(m0, rel=1e-12)

    def test_temporal_order_four(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        rho0 = cosine_data(g, 0.5)

        def run(dt):
            cfg = StepperConfig(t_end=0.2, dt_mode="fixed", dt=dt)
            return integrate(rho0, p, cfg).h  # the same max|.| as in full layout

        ref = run(1e-4)
        errs = [np.max(np.abs(run(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.3

    def test_integrating_factor_exact_any_dt(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=2.0)
        cfg = StepperConfig(t_end=0.4, dt_mode="fixed", dt=0.1)
        res = integrate(cosine_data(g), p, cfg)
        final = half_inverse(res.h, g.shape)
        ref = 1 + math.exp(-0.8) * np.cos(g.points()[0])
        assert np.max(np.abs(final - ref)) < 1e-13

    def test_one_operator_per_run_and_none_outlives_it(self, built_operators):
        g = TorusGrid(d=2, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=0.1)
        cfg = StepperConfig(t_end=0.05, dt_mode="adaptive", dt_max=0.01, sample_every=3)
        rho0 = random_real_field(g, np.random.default_rng(5), mean=1.0, amplitude=0.3)
        res = integrate(rho0, p, cfg)
        assert res.reason == "completed" and res.n_steps > 1
        gc.collect()
        assert len(built_operators) == 1 and built_operators[0]() is None

    @pytest.mark.parametrize("nu", [0.0, 0.05])
    @pytest.mark.parametrize("d", [1, 2])
    def test_energy_residual_fft_count(self, monkeypatch, d, nu):
        # the rates and the residuals read stage 1 and the sampled norms: no transform
        g = TorusGrid(d=d, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=nu)
        cfg = StepperConfig(t_end=0.02, dt_mode="fixed", dt=5e-3)
        rho0 = random_real_field(g, np.random.default_rng(6), mean=1.0, amplitude=0.3)
        counter = count_ffts(monkeypatch)
        added = []  # transforms made inside each call
        for name in ("energy_rates", "identity_residuals"):
            def counted(*args, fn=getattr(stepper, name)):
                before = counter["calls"]
                out = fn(*args)
                added.append(counter["calls"] - before)
                return out

            monkeypatch.setattr(stepper, name, counted)
        res = integrate(rho0, p, cfg)
        residuals = len(res.records) - 2
        assert residuals > 0 and added == [0] * (2 * residuals)

    @pytest.mark.parametrize("nu", [0.0, 0.05])
    @pytest.mark.parametrize("d", [1, 2])
    def test_run_fft_count(self, monkeypatch, d, nu):
        # only real FFTs: 1 forward for the first state, 4 (1 + 2d) per step (the step
        # size and the energy rates come from stage 1), 1 per sample after a step
        g = TorusGrid(d=d, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=nu)
        cfg = StepperConfig(t_end=0.02, dt_mode="adaptive", dt_max=5e-3)
        rho0 = random_real_field(g, np.random.default_rng(7), mean=1.0, amplitude=0.3)
        counter = count_ffts(monkeypatch)
        res = integrate(rho0, p, cfg)
        assert res.reason == "completed" and res.n_steps >= 4
        assert not any(counter.get(name) for name in FFT_NAMES if "r" not in name)
        samples = len(res.records) - 1
        residuals = sum(math.isfinite(r.energy_residual_L2) for r in res.records)
        assert residuals == samples - 1
        assert counter["calls"] == 1 + res.n_steps * 4 * (1 + 2 * d) + samples

    @pytest.mark.parametrize("nu", [0.0, 0.05])
    @pytest.mark.parametrize("d", [1, 2])
    def test_adaptive_run_capped_by_dt_max_is_the_fixed_dt_run(self, d, nu):
        # the CFL bound stays above dt_max, so every adaptive step takes dt_max
        g = TorusGrid(d=d, n=16)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=nu)
        rho0 = random_real_field(g, np.random.default_rng(10), mean=1.0, amplitude=0.3)
        runs = [integrate(rho0, p, StepperConfig(t_end=0.03, dt_max=4e-3, dt_mode=mode, dt=4e-3,
                                                 sample_every=2))
                for mode in ("adaptive", "fixed")]
        adaptive, fixed = runs
        assert adaptive.reason == fixed.reason == "completed" and adaptive.n_steps == 8
        assert adaptive.n_steps == fixed.n_steps and adaptive.t == fixed.t
        assert np.array_equal(adaptive.h, fixed.h)
        assert repr(adaptive.records) == repr(fixed.records)

    def test_fixed_dt_run_ignores_the_stage_one_maxima(self, monkeypatch):
        # safety and dt_max would bound an adaptive step far below the fixed dt
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        rho0 = cosine_data(g, 0.5)
        cfg = StepperConfig(t_end=0.05, dt_mode="fixed", dt=0.01, safety=0.1, dt_max=1e-4)
        op = SpectralOperator(g, p)
        maxima = stage_one_maxima(half_coefficients(rho0), op)
        assert cfl_dt(*maxima, op, cfg.safety, cfg.dt_max) < cfg.dt
        dts = []

        def recorded_step(state, rule, op):
            state, dt, k1 = step(state, rule, op)
            dts.append(dt)
            return state, dt, k1

        monkeypatch.setattr("fpmflow.stepper.step", recorded_step)
        res = integrate(rho0, p, cfg)
        assert res.reason == "completed" and res.n_steps == 5
        assert dts[:4] == [cfg.dt] * 4 and sum(dts) == pytest.approx(cfg.t_end, rel=1e-15)

    def test_determinism(self):
        g = TorusGrid(d=1, n=64)
        rng = np.random.default_rng(21)
        rho0 = random_real_field(g, rng, mean=1.2, amplitude=0.4)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        cfg = StepperConfig(t_end=0.3, dt_mode="adaptive", safety=0.4)
        r1 = integrate(rho0, p, cfg)
        r2 = integrate(rho0, p, cfg)
        assert np.array_equal(r1.h, r2.h)
        assert [rec.B1 for rec in r1.records] == [rec.B1 for rec in r2.records]

    def test_blowup_detection(self):
        g = TorusGrid(d=1, n=64)
        p = ModelParams(alpha_minus_d=-1.0, c_K=1.0)  # attractive, inviscid
        cfg = StepperConfig(t_end=5.0, dt_mode="adaptive", safety=0.4,
                            blowup_threshold=50.0)
        res = integrate(cosine_data(g, 0.5), p, cfg)
        assert res.reason == "blowup_detected"
        assert res.records[-1].B1 > 50.0

    def test_max_steps(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        cfg = StepperConfig(t_end=10.0, dt_mode="fixed", dt=1e-3, max_steps=5)
        res = integrate(cosine_data(g, 0.3), p, cfg)
        assert res.reason == "max_steps"
        assert res.n_steps == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, threshold", [(1.0, 1.0), (1e300, 1e6)])
    def test_first_sample_above_threshold_ends_the_run_before_any_step(self, scale, threshold):
        # the t = 0 sample was taken outside the loop's error state and never checked, so
        # data with B1 = 2e300 warned and then took sample_every steps before ending
        g = TorusGrid(d=1, n=64)
        rho0 = field_from_function(g, lambda x: scale * (1 + np.cos(x)))
        cfg = StepperConfig(t_end=0.1, dt_mode="fixed", dt=1e-3, sample_every=10,
                            blowup_threshold=threshold)
        res = integrate(rho0, ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=1.0), cfg)
        assert (res.reason, res.n_steps, res.t, len(res.records)) == ("blowup_detected", 0, 0.0, 1)
        assert res.records[0].B1 > threshold

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_state_that_overflows_ends_the_run_at_t0(self):
        # finite values whose transform sums past the float range
        g = TorusGrid(d=1, n=64)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        res = integrate(RealField(g, np.full(64, 1e308)), p,
                        StepperConfig(t_end=0.1, blowup_threshold=math.inf))
        assert (res.reason, res.n_steps, len(res.records)) == ("blowup_detected", 0, 1)
        assert not np.all(np.isfinite(res.h))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e120, 1e160])
    def test_residuals_run_under_the_loop_error_state(self, scale):
        # c_K = 0 and nu = 0 keep the state and make stage 1 zero: data near 1e120 have
        # energies near 1e241 and residuals of exactly 0, data near 1e160 energies past
        # the float range and non-finite residuals, without a warning either way
        g = TorusGrid(d=2, n=16)
        rho0 = field_from_function(g, lambda x, y: scale * (1 + 0.5 * np.cos(x + y)))
        cfg = StepperConfig(t_end=0.02, dt_mode="fixed", dt=5e-3, blowup_threshold=math.inf)
        res = integrate(rho0, ModelParams(alpha_minus_d=-1.0, c_K=0.0), cfg)
        interior = [(r.energy_residual_L2, r.energy_residual_Hs) for r in res.records[1:-1]]
        assert res.reason == "completed" and len(interior) == 3
        if scale == 1e120:
            assert interior == [(0.0, 0.0)] * 3
        else:
            assert not any(math.isfinite(r) for pair in interior for r in pair)

    def test_callback_order_and_integrals(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        cfg = StepperConfig(t_end=0.1, dt_mode="fixed", dt=5e-3, sample_every=2)
        res = integrate(cosine_data(g, 0.3), p, cfg)
        ts = [r.t for r in res.records]
        assert ts == sorted(ts)
        ib1 = [r.int_B1 for r in res.records]
        assert all(b >= a for a, b in zip(ib1, ib1[1:]))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            StepperConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, safety=1.5)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, dt_mode="imex")


class TestExactB1Solution:
    """At b = 1 and nu = 0, div u = -c_K (rho - mean), so along characteristics
    D rho / Dt = c_K rho (rho - mean): max rho and min rho are the closed form
    mean r0 / (r0 + (mean - r0) e^{c_K mean t}) of max rho0 and min rho0.  The data have
    mean 1, max 1.5 and min 0.5, so the attractive case (c_K = 1) blows up at T* = ln 3.
    The tolerances were fixed before the runs; each comment gives the value measured."""

    T_STAR = math.log(3.0)

    @staticmethod
    def error(d, n, c_K, dt, t_end):
        """Largest relative error of max rho and min rho over the samples of a run."""
        g = TorusGrid(d=d, n=n)
        x = g.points()
        vals = 1 + 0.5 * np.cos(x[0]) if d == 1 else 1 + 0.25 * (np.cos(x[0]) + np.cos(x[1]))
        cfg = StepperConfig(t_end=t_end, dt_mode="fixed", dt=dt, sample_every=10,
                            blowup_threshold=math.inf)
        res = integrate(RealField(g, vals), ModelParams(alpha_minus_d=-2.0, c_K=c_K), cfg)
        assert res.reason == "completed"

        def closed(r0, t):
            return r0 / (r0 + (1.0 - r0) * math.exp(c_K * t))

        return max(max(abs(r.max_rho / closed(1.5, r.t) - 1.0),
                       abs(r.min_rho / closed(0.5, r.t) - 1.0)) for r in res.records)

    def test_repulsive_case_is_the_closed_form_to_round_off(self):
        errs = [self.error(1, 128, -1.0, dt, 1.0) for dt in (4e-3, 2e-3, 1e-3)]
        assert errs[1] <= 1e-11  # 8.1e-14
        assert errs[0] >= 8.0 * errs[1] and errs[1] >= 8.0 * errs[2]  # RK4: 16x and 14x
        assert self.error(2, 64, -1.0, 2e-3, 0.5) <= 1e-11  # 8.1e-14

    def test_attractive_error_falls_with_n_up_to_four_fifths_of_blowup(self):
        errs = [self.error(1, n, 1.0, 2e-3, 0.8 * self.T_STAR) for n in (64, 128, 256)]
        assert errs[0] >= 10.0 * errs[1] and errs[1] >= 10.0 * errs[2]  # 2.6e-2, 3.5e-4, 1.8e-7

