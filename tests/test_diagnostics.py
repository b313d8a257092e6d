"""Tests for norms, blow-up functionals, the trilinear form, and energy residuals."""

import math

import numpy as np
import pytest

from fpmflow import stepper
from fpmflow.diagnostics import (
    EnergyResidualKernel,
    _blowup_functionals,
    _trilinear_naive,
    make_record,
)
from fpmflow.model import ModelParams, SpectralOperator
from fpmflow.spectral import (
    RealField,
    TorusGrid,
    half_norm,
    random_real_field,
)
from fpmflow.stepper import StepperConfig, integrate

from oracles import (SpectralField, apply_multiplier, energy_kernel, field_from_function,
                     forward_transform, fractional_power, full_field, half, mass, sobolev_norm)


def blowup(F):
    """(B1, B2) of the real field with full-layout coefficients F."""
    g = F.grid
    return _blowup_functionals(g, g.half_magnitude(), np.abs(half(g, F.coeffs)))


class TestMass:
    def test_cosine(self):
        g = TorusGrid(d=1, n=32)
        F = forward_transform(field_from_function(g, lambda x: 1 + 0.1 * np.cos(x)))
        assert mass(F) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_zero_field(self):
        g = TorusGrid(d=1, n=16)
        assert mass(forward_transform(RealField(g, np.zeros(16)))) == 0.0

    def test_gaussian_mass_after_step(self):
        from fpmflow.model import InitialCondition

        g = TorusGrid(d=1, n=64)
        rho0 = InitialCondition(kind="gaussian", mass=3.0, sigma=0.6).build(g)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=0.1)
        res = integrate(rho0, p, StepperConfig(t_end=0.05, dt_mode="fixed", dt=5e-3))
        assert mass(full_field(g, res.h)) == pytest.approx(3.0, rel=1e-12)


class TestSobolevNorm:
    def test_cosine_l2(self):
        g = TorusGrid(d=1, n=32)
        F = forward_transform(field_from_function(g, np.cos))
        assert sobolev_norm(F, 0.0, homogeneous=True) == pytest.approx(
            math.sqrt(math.pi), rel=1e-13
        )

    def test_constant_homogeneous_zero(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(RealField(g, np.full(16, 3.0)))
        for s in (-1.0, 0.0, 2.0):
            assert sobolev_norm(F, s, homogeneous=True) == 0.0

    def test_shift_identity(self):
        rng = np.random.default_rng(17)
        g = TorusGrid(d=1, n=64)
        F = forward_transform(random_real_field(g, rng))
        F.coeffs[0] = 0.0
        shifted = apply_multiplier(F, fractional_power(0.8))
        lhs = sobolev_norm(shifted, 1.2, homogeneous=True)
        rhs = sobolev_norm(F, 2.0, homogeneous=True)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invalid_s(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(RealField(g, np.zeros(16)))
        with pytest.raises(ValueError):
            sobolev_norm(F, -3.0)


class TestBlowupFunctionals:
    def test_cosine_values(self):
        g = TorusGrid(d=1, n=32)
        F = forward_transform(field_from_function(g, np.cos))
        b1, b2 = blowup(F)
        assert b1 == pytest.approx(2.0, abs=1e-12)
        assert b2 == pytest.approx(4.0, abs=1e-12)

    def test_constant_zero(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(RealField(g, np.full(16, 7.0)))
        assert blowup(F) == (0.0, 0.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(19)
        g = TorusGrid(d=1, n=32)
        F = forward_transform(random_real_field(g, rng))
        lam = -2.5
        G = SpectralField(g, lam * F.coeffs)
        (f1, f2), (g1, g2) = blowup(F), blowup(G)
        assert g1 == pytest.approx(abs(lam) * f1, rel=1e-13)
        assert g2 == pytest.approx(lam ** 2 * f2, rel=1e-13)

    def test_band_limited_exact_under_refinement(self):
        # fields supported in the small band keep B1/B2 unchanged when N doubles
        vals = {}
        for n in (32, 64):
            g = TorusGrid(d=1, n=n)
            F = forward_transform(field_from_function(
                g, lambda x: 0.5 * np.cos(3 * x) + 0.2 * np.sin(7 * x)))
            vals[n] = blowup(F)
        assert vals[32][0] == pytest.approx(vals[64][0], rel=1e-12)
        assert vals[32][1] == pytest.approx(vals[64][1], rel=1e-12)

    def test_pure_diffusion_closed_form(self):
        g = TorusGrid(d=1, n=32)
        rho0 = field_from_function(g, lambda x: 1 + 0.5 * np.cos(x) + 0.25 * np.cos(2 * x))
        F0 = forward_transform(rho0)
        nu, t_end = 1.5, 0.2
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0, nu=nu)
        res = integrate(rho0, p, StepperConfig(t_end=t_end, dt_mode="fixed", dt=0.05))
        k = g.axis_wavenumbers().astype(float)
        ref = float(np.sum(k ** 2 * (1 + np.abs(k)) * np.exp(-nu * k ** 2 * t_end)
                           * np.abs(F0.coeffs)))
        assert blowup(full_field(g, res.h))[0] == pytest.approx(ref, rel=1e-12)


def antisym_kernel(xi, eta):
    dot = np.sum(xi * eta, axis=-1)
    m2 = np.sum(xi * xi, axis=-1) - np.sum(eta * eta, axis=-1)
    return dot * m2


def naive(G, F) -> tuple:
    """(T[G], its magnitude scale) of the full-layout field F by the naive lattice sum."""
    (total,), (scale,) = _trilinear_naive(G, F.grid, F.coeffs[None])
    return total, scale


class TestTrilinear:
    def test_zero_kernel(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(field_from_function(g, np.cos))
        assert naive(lambda xi, eta: np.zeros(np.broadcast_shapes(
            xi.shape[:-1], eta.shape[:-1])), F)[0] == 0.0

    def test_antisymmetric_cancellation(self):
        rng = np.random.default_rng(23)
        g = TorusGrid(d=1, n=32)
        for _ in range(5):
            F = forward_transform(random_real_field(g, rng, decay=2.0))
            total, scale = naive(antisym_kernel, F)
            assert abs(total) <= 1e-10 * scale

    def test_antisymmetric_cancellation_2d(self):
        rng = np.random.default_rng(24)
        g = TorusGrid(d=2, n=16)
        F = forward_transform(random_real_field(g, rng, decay=2.0))
        total, scale = naive(antisym_kernel, F)
        assert abs(total) <= 1e-10 * scale

    def test_swap_order_identical(self):
        # summation with (eta, xi) roles swapped on the transposed kernel
        rng = np.random.default_rng(26)
        g = TorusGrid(d=1, n=16)
        F = forward_transform(random_real_field(g, rng))

        def G(xi, eta):
            return np.sum(xi * eta, axis=-1) * np.sum(eta * eta, axis=-1)

        direct = naive(G, F)[0]
        # T[G](rho) with conj moved by change of variables equals the direct sum
        def G_swapped(xi, eta):
            return G(eta, xi)

        swapped = naive(G_swapped, F)[0]
        # for real fields, T[G^T] = T[G] by the change of variables identity
        assert swapped == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_naive_size_limit(self):
        g = TorusGrid(d=1, n=128)
        F = forward_transform(field_from_function(g, np.cos))
        with pytest.raises(ValueError):
            naive(antisym_kernel, F)


def residual_window(op, s, samples):
    """(t, h, l2, hsdot_s) of each (t, SpectralField) sample, the norms from make_record."""
    out = []
    for t, F in samples:
        h = half(op.grid, F.coeffs)
        rec = make_record(t, h, op.physical(h), (s,), op)
        out.append((t, h, rec.l2, rec.hs[s][0]))
    return out


class TestEnergyResidual:
    def _records(self, p, dt, n=64, amplitude=0.5, t_end=0.06):
        g = TorusGrid(d=1, n=n)
        rho0 = field_from_function(g, lambda x: 1 + amplitude * np.cos(x))
        cfg = StepperConfig(t_end=t_end, dt_mode="fixed", dt=dt, sample_every=1)
        return integrate(rho0, p, cfg, energy_residuals=True).records

    def test_zero_interaction(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        assert self._records(p, 1e-3)[1].energy_residual_L2 < 1e-13

    def test_constant_state(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        F = forward_transform(RealField(g, np.full(32, 2.0)))
        op = SpectralOperator(g, p)
        window = residual_window(op, 4.0, [(0.0, F), (0.1, F), (0.2, F)])
        assert max(EnergyResidualKernel(op, 4.0).residuals(window)) < 1e-14

    def test_viscous_rejected(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=1.0)
        rho0 = RealField(TorusGrid(d=1, n=16), np.ones(16))
        cfg = StepperConfig(t_end=0.01, dt_mode="fixed", dt=5e-3)
        with pytest.raises(ValueError, match="nu = 0"):
            integrate(rho0, p, cfg, energy_residuals=True)

    def test_dt_refinement_order(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            records = self._records(p, dt, t_end=0.2)
            ts = [r.t for r in records]
            i = min(range(1, len(ts) - 1), key=lambda j: abs(ts[j] - 0.1))
            errs.append(records[i].energy_residual_L2)
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert slope >= 2.0 - 0.1


class TestEnergyResidualKernel:
    # N = 10 puts the factors on an odd 3N/2 = 15 grid
    @pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (1, 10), (2, 10)])
    @pytest.mark.parametrize("s", [0.0, 4.0])
    @pytest.mark.parametrize("mu", [0.0, 0.25])
    def test_trilinear_matches_naive(self, d, n, s, mu):
        g = TorusGrid(d=d, n=n)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, mu=mu)
        F = forward_transform(random_real_field(g, np.random.default_rng(27), decay=2.0))
        t_l2, t_hs = EnergyResidualKernel(SpectralOperator(g, p), s).trilinear(half(g, F.coeffs))
        for got, s_kernel in ((t_l2, 0.0), (t_hs, s)):
            ref = naive(energy_kernel(s_kernel, p, g), F)[0]
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("d,n", [(1, 32), (2, 16)])
    def test_uneven_spacing_gives_exact_rate(self, d, n):
        # c_K = 0 and F(t) = (1 + t) F0: E(t) = (1 + t)^2 E(0) is quadratic, so
        # the residual is exactly E'(tm) = 2 (1 + tm) E(0) at any spacing.
        g = TorusGrid(d=d, n=n)
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        F0 = forward_transform(random_real_field(g, np.random.default_rng(3), mean=1.0))
        op = SpectralOperator(g, p)
        window = residual_window(op, 4.0, [(t, SpectralField(g, (1.0 + t) * F0.coeffs))
                                           for t in (0.1, 0.13, 0.2)])
        res_l2, res_hs = EnergyResidualKernel(op, 4.0).residuals(window)
        e_l2 = 0.5 * sobolev_norm(F0, 0.0) ** 2
        e_hs = 0.5 * sobolev_norm(F0, 4.0, homogeneous=True) ** 2
        assert res_l2 == pytest.approx(2.0 * 1.13 * e_l2, rel=1e-12)
        assert res_hs == pytest.approx(2.0 * 1.13 * e_hs, rel=1e-12)

    def test_viscous_rejected(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=0.1)
        with pytest.raises(ValueError):
            EnergyResidualKernel(SpectralOperator(TorusGrid(d=1, n=16), p), 4.0)

    @pytest.mark.parametrize("d,n,on_worker", [(1, 64, False), (2, 16, False), (2, 16, True)],
                             ids=["1d", "2d", "2d-worker"])
    @pytest.mark.parametrize("c_K,cfg", [
        (-1.0, StepperConfig(t_end=0.05, dt_mode="fixed", dt=5e-3, s_list=(3.0, 4.0))),
        (1.0, StepperConfig(t_end=5.0, safety=0.4, blowup_threshold=50.0)),
    ])
    def test_in_run_residuals_equal_kernel_on_neighbouring_states(self, c_K, cfg, d, n,
                                                                  on_worker, monkeypatch,
                                                                  request):
        # the trilinear forms run in the loop, or on the run's worker thread: the same numbers
        if on_worker:
            request.getfixturevalue("worker_on_every_grid")
        g = TorusGrid(d=d, n=n)
        rho0 = field_from_function(g, lambda *x: 1 + 0.5 * np.cos(sum(x)))
        p = ModelParams(alpha_minus_d=-1.0, c_K=c_K)
        sampled = []  # (t, h) of every sample the run takes

        def recording(t, h, *args):
            sampled.append((t, h))
            return make_record(t, h, *args)

        monkeypatch.setattr(stepper, "make_record", recording)
        res = integrate(rho0, p, cfg, energy_residuals=True)
        assert res.reason == ("completed" if c_K < 0 else "blowup_detected")
        recs = res.records
        assert len(recs) == len(sampled) >= 3
        for rec in (recs[0], recs[-1]):
            assert math.isnan(rec.energy_residual_L2) and math.isnan(rec.energy_residual_Hs)
        op = SpectralOperator(g, p)
        kernel = EnergyResidualKernel(op, 4.0)
        norms = [(half_norm(g, np.abs(h) ** 2), half_norm(g, np.abs(h) ** 2, kernel.weight))
                 for _, h in sampled]
        for i in range(1, len(recs) - 1):
            window = [(t, h, *n) for (t, h), n in zip(sampled[i - 1:i + 2], norms[i - 1:i + 2])]
            got = (recs[i].energy_residual_L2, recs[i].energy_residual_Hs)
            assert got == kernel.residuals(window)
