"""Tests for the integrating-factor RK4 stepper and the run loop."""

import gc
import math

import numpy as np
import pytest

from fpmflow.model import ModelParams
from fpmflow.spectral import (
    RealField,
    TorusGrid,
    field_from_function,
    forward_transform,
    inverse_transform,
    random_real_field,
)
from fpmflow.stepper import StepperConfig, cfl_dt, integrate, step


def cosine_data(grid, amplitude=1.0):
    return field_from_function(grid, lambda x: 1 + amplitude * np.cos(x))


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def count_ffts(monkeypatch):
    """Count every numpy.fft transform call from now on; returns the counter."""
    counter = {"calls": 0}
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)

        def counted(*args, fn=fn, **kwargs):
            counter["calls"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counter


class TestStep:
    def test_heat_factor_exact(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=1.0)
        F = forward_transform(cosine_data(g))
        out = step(F, 0.37, p)
        assert out.coeffs[1] == pytest.approx(F.coeffs[1] * math.exp(-0.37), rel=1e-14)
        assert out.coeffs[0] == pytest.approx(F.coeffs[0], rel=1e-15)

    def test_no_dynamics_is_identity(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=0.0)
        F = forward_transform(cosine_data(g))
        out = step(F, 0.1, p)
        assert np.array_equal(out.coeffs, F.coeffs)

    def test_invalid_dt(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        with pytest.raises(ValueError):
            step(forward_transform(cosine_data(g)), -0.1, p)

    @pytest.mark.parametrize("d, expected", [(1, 12), (2, 20)])
    def test_fft_count(self, monkeypatch, d, expected):
        # four RHS, each 1 + 2d real FFTs
        g = TorusGrid(d=d, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=0.1)
        F = forward_transform(random_real_field(g, np.random.default_rng(3), mean=1.0))
        counter = count_ffts(monkeypatch)
        step(F, 1e-3, p)
        assert counter["calls"] == expected

    def test_grid_refinement_agreement(self):
        # one full nonlinear step on N=32 vs N=64 restricted to the coarse band
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        outs = {}
        for n in (32, 64):
            g = TorusGrid(d=1, n=n)
            F = forward_transform(field_from_function(
                g, lambda x: 1 + 0.3 * np.cos(x) + 0.1 * np.cos(2 * x)))
            outs[n] = np.fft.fftshift(step(F, 1e-3, p).coeffs)
        coarse = outs[32]
        fine = outs[64][16:48]
        # compare inside the coarse dealias band only
        band = np.zeros(32, dtype=bool)
        band[16 - 10:16 + 11] = True
        assert np.max(np.abs(coarse[band] - fine[band])) < 1e-10


class TestCflDt:
    def test_zero_velocity_capped(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        F = forward_transform(RealField(g, np.zeros(32)))
        assert cfl_dt(F, p, safety=0.5, dt_max=0.05) == 0.05

    def test_transport_exponent_b1(self):
        # b = 1: grid exponent max(1, 0) = 1, dt scales linearly in dx
        p = ModelParams(alpha_minus_d=-2.0, c_K=-1.0)
        dts = {}
        for n in (32, 64):
            g = TorusGrid(d=1, n=n)
            F = forward_transform(cosine_data(g, 0.5))
            dts[n] = cfl_dt(F, p, safety=1.0, dt_max=np.inf)
        assert dts[32] / dts[64] == pytest.approx(2.0, rel=0.05)

    def test_diffusive_exponent_b0(self):
        # b = 0: grid exponent 2, halving dx quarters dt
        p = ModelParams(alpha_minus_d=0.0, c_K=-1.0)
        dts = {}
        for n in (32, 64):
            g = TorusGrid(d=1, n=n)
            # small amplitude so the rho-based constraint dominates
            F = forward_transform(cosine_data(g, 1e-6))
            dts[n] = cfl_dt(F, p, safety=1.0, dt_max=np.inf)
        assert dts[32] / dts[64] == pytest.approx(4.0, rel=0.05)


class TestIntegrate:
    def test_heat_exact_solution(self):
        g = TorusGrid(d=1, n=64)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=1.0)
        cfg = StepperConfig(t_end=0.1, dt_mode="fixed", dt=1e-3)
        res = integrate(cosine_data(g), p, cfg)
        assert res.reason == "completed"
        final = inverse_transform(res.state).values
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
            return integrate(rho0, p, cfg).state.coeffs

        ref = run(1e-4)
        errs = [np.max(np.abs(run(dt) - ref)) for dt in (4e-3, 2e-3, 1e-3)]
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert abs(slope - 4.0) <= 0.3

    def test_integrating_factor_exact_any_dt(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=2.0)
        cfg = StepperConfig(t_end=0.4, dt_mode="fixed", dt=0.1)
        res = integrate(cosine_data(g), p, cfg)
        final = inverse_transform(res.state).values
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

    def test_determinism(self):
        g = TorusGrid(d=1, n=64)
        rng = np.random.default_rng(21)
        rho0 = random_real_field(g, rng, mean=1.2, amplitude=0.4)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        cfg = StepperConfig(t_end=0.3, dt_mode="adaptive", safety=0.4)
        r1 = integrate(rho0, p, cfg)
        r2 = integrate(rho0, p, cfg)
        assert np.array_equal(r1.state.coeffs, r2.state.coeffs)
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

    def test_callback_order_and_integrals(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        cfg = StepperConfig(t_end=0.1, dt_mode="fixed", dt=5e-3, sample_every=2)
        seen = []
        integrate(cosine_data(g, 0.3), p, cfg, on_sample=seen.append)
        ts = [r.t for r in seen]
        assert ts == sorted(ts)
        ib1 = [r.int_B1 for r in seen]
        assert all(b >= a for a, b in zip(ib1, ib1[1:]))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            StepperConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, safety=1.5)
        with pytest.raises(ValueError):
            StepperConfig(t_end=1.0, dt_mode="imex")
