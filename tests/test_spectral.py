"""Tests for grids, transforms, multipliers, and dealiasing."""

import math

import numpy as np
import pytest

from fpmflow.model import ModelParams, velocity_symbol
from fpmflow.spectral import (
    BUMP_CUTOFF,
    MultiplierSpec,
    RealField,
    SpectralError,
    SpectralField,
    SymmetryError,
    TorusGrid,
    apply_multiplier,
    dealias,
    field_from_function,
    forward_transform,
    fractional_power,
    inverse_transform,
    l2_norm,
    random_real_field,
)


class TestTorusGrid:
    def test_basic_properties(self):
        g = TorusGrid(d=1, n=16)
        assert g.dx * g.n == pytest.approx(2 * math.pi, rel=1e-15)
        assert g.npoints == 16
        k = g.axis_wavenumbers()
        assert sorted(k) == list(range(-8, 8))

    def test_2d_lattice_size(self):
        g = TorusGrid(d=2, n=8)
        assert g.wavevectors().shape == (8, 8, 2)
        assert g.npoints == 64

    @pytest.mark.parametrize("d,n", [(3, 16), (1, 15), (1, 4), (0, 16)])
    def test_invalid_grid_rejected(self, d, n):
        with pytest.raises(SpectralError):
            TorusGrid(d=d, n=n)

    def test_field_shape_mismatch(self):
        g = TorusGrid(d=1, n=16)
        with pytest.raises(SpectralError):
            RealField(g, np.zeros(8))


class TestTransforms:
    def test_cos3x_coefficients(self):
        g = TorusGrid(d=1, n=32)
        F = forward_transform(field_from_function(g, lambda x: np.cos(3 * x)))
        assert F.coeffs[3] == pytest.approx(0.5, abs=1e-14)
        assert F.coeffs[-3] == pytest.approx(0.5, abs=1e-14)
        others = np.delete(F.coeffs, [3, 32 - 3])
        assert np.max(np.abs(others)) < 1e-14

    def test_constant_field(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(RealField(g, np.ones(16)))
        assert F.coeffs[0] == pytest.approx(1.0)
        assert np.max(np.abs(F.coeffs[1:])) < 1e-15

    @pytest.mark.parametrize("d,n", [(1, 16), (1, 64), (2, 16), (2, 32)])
    def test_round_trip_random(self, d, n):
        rng = np.random.default_rng(7)
        g = TorusGrid(d=d, n=n)
        f = RealField(g, rng.standard_normal(g.shape))
        back = inverse_transform(forward_transform(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * scale

    def test_inverse_single_mode(self):
        g = TorusGrid(d=1, n=16)
        c = np.zeros(16, dtype=complex)
        c[1] = 0.5
        c[-1] = 0.5
        f = inverse_transform(SpectralField(g, c))
        assert np.allclose(f.values, np.cos(g.points()[0]), atol=1e-14)

    def test_inverse_constant(self):
        g = TorusGrid(d=1, n=16)
        c = np.zeros(16, dtype=complex)
        c[0] = 2.0
        assert np.allclose(inverse_transform(SpectralField(g, c)).values, 2.0)

    def test_non_hermitian_rejected(self):
        g = TorusGrid(d=1, n=16)
        c = np.zeros(16, dtype=complex)
        c[1] = 1.0  # no conjugate partner
        with pytest.raises(SymmetryError):
            inverse_transform(SpectralField(g, c))

    def test_non_finite_rejected(self):
        g = TorusGrid(d=1, n=16)
        vals = np.ones(16)
        vals[3] = np.nan
        with pytest.raises(SpectralError):
            forward_transform(RealField(g, vals))

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for d, n in [(1, 32), (2, 16)]:
            g = TorusGrid(d=d, n=n)
            f = RealField(g, rng.standard_normal(g.shape))
            phys = math.sqrt(g.dx ** d * np.sum(f.values ** 2))
            assert l2_norm(forward_transform(f)) == pytest.approx(phys, rel=1e-12)


class TestMultipliers:
    def test_fractional_eigenfunction(self):
        g = TorusGrid(d=1, n=32)
        F = forward_transform(field_from_function(g, lambda x: np.cos(3 * x)))
        out = inverse_transform(apply_multiplier(F, fractional_power(0.5)))
        ref = math.sqrt(3) * np.cos(3 * g.points()[0])
        assert np.max(np.abs(out.values - ref)) < 1e-13

    def test_negative_power_kills_constant(self):
        g = TorusGrid(d=1, n=16)
        F = forward_transform(RealField(g, np.full(16, 5.0)))
        out = apply_multiplier(F, fractional_power(-1.0))
        assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_gradient_multiplier(self):
        g = TorusGrid(d=1, n=32)
        m = MultiplierSpec(symbol=lambda kv: 1j * kv[..., 0], zero_mode_rule=0.0)
        F = forward_transform(field_from_function(g, np.cos))
        out = inverse_transform(apply_multiplier(F, m))
        assert np.max(np.abs(out.values + np.sin(g.points()[0]))) < 1e-13

    def test_lambda_squared_is_minus_laplacian(self):
        g = TorusGrid(d=1, n=32)
        F = forward_transform(field_from_function(g, lambda x: np.cos(2 * x)))
        out = inverse_transform(apply_multiplier(F, fractional_power(2.0)))
        assert np.allclose(out.values, 4 * np.cos(2 * g.points()[0]), atol=1e-12)

    @pytest.mark.parametrize("d,n", [(1, 32), (1, 64), (2, 32)])
    def test_power_composition(self, d, n):
        rng = np.random.default_rng(11)
        g = TorusGrid(d=d, n=n)
        f = random_real_field(g, rng, decay=2.0)
        F = forward_transform(f)
        F.coeffs.flat[0] = 0.0  # mean-zero
        s1, s2 = 0.7, -1.3
        one = apply_multiplier(apply_multiplier(F, fractional_power(s1)),
                               fractional_power(s2))
        both = apply_multiplier(F, fractional_power(s1 + s2))
        scale = np.max(np.abs(F.coeffs))
        assert np.max(np.abs(one.coeffs - both.coeffs)) < 1e-12 * scale

    def test_round_trip_power(self):
        rng = np.random.default_rng(2)
        g = TorusGrid(d=1, n=64)
        F = forward_transform(random_real_field(g, rng))
        F.coeffs[0] = 0.0
        back = apply_multiplier(apply_multiplier(F, fractional_power(1.5)),
                                fractional_power(-1.5))
        assert np.max(np.abs(back.coeffs - F.coeffs)) < 1e-12

    def test_multiplier_linearity(self):
        rng = np.random.default_rng(5)
        g = TorusGrid(d=1, n=32)
        F = forward_transform(random_real_field(g, rng))
        G = forward_transform(random_real_field(g, rng))
        m = fractional_power(0.5)
        a, b = 2.5, -1.25
        combo = SpectralField(g, a * F.coeffs + b * G.coeffs)
        lhs = apply_multiplier(combo, m).coeffs
        rhs = a * apply_multiplier(F, m).coeffs + b * apply_multiplier(G, m).coeffs
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-15 * scale

    def test_real_output_preserved(self):
        rng = np.random.default_rng(9)
        g = TorusGrid(d=2, n=16)
        F = forward_transform(random_real_field(g, rng))
        out = apply_multiplier(F, fractional_power(0.5))
        # inverse_transform raises if Hermitian symmetry is broken
        inverse_transform(out)


class TestRegularizedPower:
    """The regularized power |xi|^{alpha-d} chi(mu |xi|) is model.velocity_symbol."""

    def test_mu_zero_matches_plain(self):
        g = TorusGrid(d=1, n=32)
        kv = g.wavevectors()
        plain = fractional_power(-0.5)
        reg = velocity_symbol(kv, ModelParams(alpha_minus_d=-0.5, c_K=1.0, mu=0.0))
        assert np.array_equal(plain.symbol(kv), reg)

    def test_support_property(self):
        p = ModelParams(alpha_minus_d=-0.5, c_K=1.0, mu=1.0)
        val = velocity_symbol(np.array([[1.0], [2.0], [-3.0]]), p)
        assert np.all(val == 0.0)
        p2 = ModelParams(alpha_minus_d=-1.0, c_K=1.0, mu=0.25)
        kv = TorusGrid(d=2, n=16).wavevectors()
        mag = np.sqrt(np.sum(kv * kv, axis=-1))
        sym = velocity_symbol(kv, p2)
        assert np.all(sym[mag >= 4.0] == 0.0)
        assert np.all(sym[(mag > 0.0) & (mag < 4.0)] > 0.0)

    def test_direct_evaluation(self):
        # |xi| = 1, alpha-d = -0.5, mu = 0.1: value chi(0.1) = exp(1 - 1/(1 - 0.01))
        p = ModelParams(alpha_minus_d=-0.5, c_K=1.0, mu=0.1)
        expected = math.exp(1.0 - 1.0 / (1.0 - 0.01))
        assert velocity_symbol(np.array([[1.0]]), p)[0] == pytest.approx(expected, rel=1e-14)

    def test_cutoff_at_origin(self):
        assert BUMP_CUTOFF.chi(np.array([0.0]))[0] == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ModelParams(alpha_minus_d=1.0, c_K=1.0)
        with pytest.raises(ValueError):
            ModelParams(alpha_minus_d=-0.5, c_K=1.0, mu=-0.1)


class TestDealias:
    def test_cut_boundary(self):
        g = TorusGrid(d=1, n=12)
        c = np.zeros(12, dtype=complex)
        c[5] = 1.0
        c[3] = 1.0
        c[4] = 1.0
        out = dealias(SpectralField(g, c))
        assert out.coeffs[5] == 0.0   # 5 > 12/3
        assert out.coeffs[3] == 1.0
        assert out.coeffs[4] == 1.0   # 4 <= 12/3

    def test_2d_any_component(self):
        g = TorusGrid(d=2, n=12)
        c = np.zeros((12, 12), dtype=complex)
        c[5, 1] = 1.0
        c[2, 2] = 1.0
        out = dealias(SpectralField(g, c))
        assert out.coeffs[5, 1] == 0.0
        assert out.coeffs[2, 2] == 1.0
