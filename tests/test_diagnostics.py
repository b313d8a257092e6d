"""Tests for norms, blow-up functionals, the trilinear form, and energy residuals."""

import math

import numpy as np
import pytest

from fpmflow.diagnostics import (
    blowup_B1,
    blowup_B2,
    energy_kernel,
    energy_residual_L2,
    mass,
    sobolev_norm,
    trilinear_T,
    trilinear_scale,
)
from fpmflow.model import ModelParams
from fpmflow.spectral import (
    RealField,
    SpectralField,
    TorusGrid,
    apply_multiplier,
    field_from_function,
    forward_transform,
    fractional_power,
    random_real_field,
)
from fpmflow.stepper import StepperConfig, integrate


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
        assert mass(res.state) == pytest.approx(3.0, rel=1e-12)


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
        assert blowup_B1(F) == pytest.approx(2.0, abs=1e-12)
        assert blowup_B2(F) == pytest.approx(4.0, abs=1e-12)

    def test_constant_zero(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(RealField(g, np.full(16, 7.0)))
        assert blowup_B1(F) == 0.0
        assert blowup_B2(F) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(19)
        g = TorusGrid(d=1, n=32)
        F = forward_transform(random_real_field(g, rng))
        lam = -2.5
        G = SpectralField(g, lam * F.coeffs)
        assert blowup_B1(G) == pytest.approx(abs(lam) * blowup_B1(F), rel=1e-13)
        assert blowup_B2(G) == pytest.approx(lam ** 2 * blowup_B2(F), rel=1e-13)

    def test_band_limited_exact_under_refinement(self):
        # fields supported in the small band keep B1/B2 unchanged when N doubles
        vals = {}
        for n in (32, 64):
            g = TorusGrid(d=1, n=n)
            F = forward_transform(field_from_function(
                g, lambda x: 0.5 * np.cos(3 * x) + 0.2 * np.sin(7 * x)))
            vals[n] = (blowup_B1(F), blowup_B2(F))
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
        assert blowup_B1(res.state) == pytest.approx(ref, rel=1e-12)


def antisym_kernel(xi, eta):
    dot = np.sum(xi * eta, axis=-1)
    m2 = np.sum(xi * xi, axis=-1) - np.sum(eta * eta, axis=-1)
    return dot * m2


class TestTrilinear:
    def test_zero_kernel(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(field_from_function(g, np.cos))
        assert trilinear_T(lambda xi, eta: np.zeros(np.broadcast_shapes(
            xi.shape[:-1], eta.shape[:-1])), F) == 0.0

    def test_antisymmetric_cancellation(self):
        rng = np.random.default_rng(23)
        g = TorusGrid(d=1, n=32)
        for _ in range(5):
            F = forward_transform(random_real_field(g, rng, decay=2.0))
            scale = trilinear_scale(antisym_kernel, F)
            assert abs(trilinear_T(antisym_kernel, F)) <= 1e-10 * scale

    def test_antisymmetric_cancellation_2d(self):
        rng = np.random.default_rng(24)
        g = TorusGrid(d=2, n=16)
        F = forward_transform(random_real_field(g, rng, decay=2.0))
        scale = trilinear_scale(antisym_kernel, F)
        assert abs(trilinear_T(antisym_kernel, F)) <= 1e-10 * scale

    @pytest.mark.parametrize("d,n", [(1, 32), (2, 16)])
    def test_naive_fft_agreement(self, d, n):
        rng = np.random.default_rng(25)
        g = TorusGrid(d=d, n=n)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        K = energy_kernel(0.0, p, g)
        F = forward_transform(random_real_field(g, rng, decay=2.0))
        a = trilinear_T(K, F, mode="naive")
        b = trilinear_T(K, F, mode="fft")
        assert b == pytest.approx(a, rel=1e-10)

    def test_swap_order_identical(self):
        # summation with (eta, xi) roles swapped on the transposed kernel
        rng = np.random.default_rng(26)
        g = TorusGrid(d=1, n=16)
        F = forward_transform(random_real_field(g, rng))

        def G(xi, eta):
            return np.sum(xi * eta, axis=-1) * np.sum(eta * eta, axis=-1)

        direct = trilinear_T(G, F)
        # T[G](rho) with conj moved by change of variables equals the direct sum
        def G_swapped(xi, eta):
            return G(eta, xi)

        swapped = trilinear_T(G_swapped, F)
        # for real fields, T[G^T] = T[G] by the change of variables identity
        assert swapped == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_fft_requires_separable(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(field_from_function(g, np.cos))
        with pytest.raises(TypeError):
            trilinear_T(lambda xi, eta: xi[..., 0] * eta[..., 0], F, mode="fft")

    def test_naive_size_limit(self):
        g = TorusGrid(d=1, n=128)
        F = forward_transform(field_from_function(g, np.cos))
        with pytest.raises(ValueError):
            trilinear_T(antisym_kernel, F, mode="naive")


class TestEnergyResidual:
    def _samples(self, p, dt, n=64, amplitude=0.5, t_end=0.06):
        g = TorusGrid(d=1, n=n)
        rho0 = field_from_function(g, lambda x: 1 + amplitude * np.cos(x))
        cfg = StepperConfig(t_end=t_end, dt_mode="fixed", dt=dt, sample_every=1)
        res = integrate(rho0, p, cfg, keep_states=True)
        return res.states

    def test_zero_interaction(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=0.0)
        states = self._samples(p, 1e-3)
        assert energy_residual_L2(states[:3], p) < 1e-13

    def test_constant_state(self):
        g = TorusGrid(d=1, n=32)
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        F = forward_transform(RealField(g, np.full(32, 2.0)))
        states = [(0.0, F), (0.1, F), (0.2, F)]
        assert energy_residual_L2(states, p) < 1e-14

    def test_viscous_rejected(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0, nu=1.0)
        g = TorusGrid(d=1, n=16)
        F = forward_transform(RealField(g, np.ones(16)))
        with pytest.raises(ValueError):
            energy_residual_L2([(0.0, F)] * 3, p)

    def test_short_history_rejected(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        g = TorusGrid(d=1, n=16)
        F = forward_transform(RealField(g, np.ones(16)))
        with pytest.raises(ValueError):
            energy_residual_L2([(0.0, F), (0.1, F)], p)

    def test_dt_refinement_order(self):
        p = ModelParams(alpha_minus_d=-1.0, c_K=-1.0)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            states = self._samples(p, dt, t_end=0.2)
            ts = [t for t, _ in states]
            i = min(range(1, len(ts) - 1), key=lambda j: abs(ts[j] - 0.1))
            errs.append(energy_residual_L2(states[i - 1:i + 2], p))
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(errs), 1)[0]
        assert slope >= 2.0 - 0.1
