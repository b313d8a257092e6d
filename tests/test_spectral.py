"""Tests for grids, transforms, multipliers, and dealiasing."""

import math

import numpy as np
import pytest

from fpmflow.model import ModelParams, velocity_symbol
from fpmflow.spectral import (
    RealField,
    SpectralError,
    TorusGrid,
    bump,
    half_coefficients,
    half_inverse,
    half_norm,
    half_sum,
    half_transform,
    radial_power,
    random_real_field,
    random_real_values,
    random_series,
    sobolev_weight,
)

from oracles import (apply_multiplier, field_from_function, forward_transform,
                     fractional_power, full_field, half, inverse_transform, l2_norm,
                     random_field_in_turn, series_in_turn, sobolev_norm, wavenumber_magnitude)


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
        F = full_field(g, half_coefficients(field_from_function(g, lambda x: np.cos(3 * x))))
        assert F.coeffs[3] == pytest.approx(0.5, abs=1e-14)
        assert F.coeffs[-3] == pytest.approx(0.5, abs=1e-14)
        others = np.delete(F.coeffs, [3, 32 - 3])
        assert np.max(np.abs(others)) < 1e-14

    def test_constant_field(self):
        g = TorusGrid(d=1, n=16)
        F = full_field(g, half_coefficients(RealField(g, np.ones(16))))
        assert F.coeffs[0] == pytest.approx(1.0)
        assert np.max(np.abs(F.coeffs[1:])) < 1e-15

    @pytest.mark.parametrize("d,n", [(1, 16), (1, 64), (2, 16), (2, 32),
                                     (1, 8), (1, 48), (2, 8), (2, 48)])
    def test_round_trip_random(self, d, n):
        rng = np.random.default_rng(7)
        g = TorusGrid(d=d, n=n)
        f = RealField(g, rng.standard_normal(g.shape))
        back = RealField(g, half_inverse(half_coefficients(f), g.shape))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * scale
        # the real pair, batched over a leading axis: each field keeps its own spectrum
        stack = np.stack([f.values, rng.standard_normal(g.shape), np.zeros(g.shape)])
        h = half_transform(stack, g.shape)
        assert h.shape == (3,) + half(g, g.wavevectors()).shape[:-1]
        assert np.max(np.abs(h[0] - half(g, forward_transform(f).coeffs))) < 1e-15 * scale
        back = half_inverse(h, g.shape)
        assert np.max(np.abs(back - stack)) < 1e-12 * np.max(np.abs(stack))
        assert not np.any(back[2])
        if d == 1:  # the direct 1-D pair gives numpy's rfftn and irfftn, bit for bit
            for x in (f.values, stack):
                assert np.array_equal(half_transform(x, g.shape),
                                      np.fft.rfftn(x, s=g.shape, axes=(-1,), norm="forward"))
            # the grid's length, a shorter one, and an odd one that reads every column
            for target in (g.shape, (n // 2,), (2 * h.shape[-1] - 1,)):
                for hx in (h[0], h):
                    assert np.array_equal(half_inverse(hx, target),
                                          np.fft.irfftn(hx, s=target, axes=(-1,),
                                                        norm="forward"))

    def test_inverse_single_mode(self):
        g = TorusGrid(d=1, n=16)
        c = np.zeros(9, dtype=complex)
        c[1] = 0.5  # and its mirror c[-1] = 0.5
        f = half_inverse(c, g.shape)
        assert np.allclose(f, np.cos(g.points()[0]), atol=1e-14)

    def test_inverse_constant(self):
        g = TorusGrid(d=1, n=16)
        c = np.zeros(9, dtype=complex)
        c[0] = 2.0
        assert np.allclose(half_inverse(c, g.shape), 2.0)

    @pytest.mark.parametrize("d,n", [(1, 16), (2, 16), (2, 64)])
    def test_first_state_is_hermitian_fftn_and_finite(self, d, n):
        # a run's first state: rfftn's coefficients with columns 0 and N/2 made Hermitian
        # bit for bit (in 2-D rfftn's are not), those of the complex fftn to round-off
        g = TorusGrid(d=d, n=n)
        vals = np.random.default_rng(n).standard_normal(g.shape) + 1.0
        h = half_coefficients(RealField(g, vals))
        ref = np.fft.fftn(vals) / g.npoints
        assert np.max(np.abs(h - half(g, ref))) <= 1e-16 * np.max(np.abs(ref))
        ends = h[..., [0, n // 2]]
        mirrored = ends[(-np.arange(n)) % n] if d == 2 else ends
        assert np.array_equal(mirrored, np.conj(ends))
        vals[(3,) * d] = np.nan
        with pytest.raises(SpectralError):
            half_coefficients(RealField(g, vals))

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for d, n in [(1, 32), (2, 16)]:
            g = TorusGrid(d=d, n=n)
            f = RealField(g, rng.standard_normal(g.shape))
            phys = math.sqrt(g.dx ** d * np.sum(f.values ** 2))
            assert half_norm(g, np.abs(half_coefficients(f)) ** 2) == pytest.approx(phys,
                                                                                   rel=1e-12)


    @pytest.mark.parametrize("shape", [(16,), (15,), (12, 16), (15, 15)])
    def test_half_sum_is_parseval_on_even_and_odd_grids(self, shape):
        # an odd last axis has no column of its own mirror: only column 0 counts once
        values = np.random.default_rng(len(shape)).standard_normal((3,) + shape)
        power = np.abs(half_transform(values, shape)) ** 2
        want = np.mean(values ** 2, axis=tuple(range(1, 1 + len(shape))))
        assert np.allclose(half_sum(shape, power), want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (2, 48)])
    def test_half_norm_is_full_layout_norm(self, d, n):
        rng = np.random.default_rng(21)
        g = TorusGrid(d=d, n=n)
        fields = [random_real_field(g, rng, decay=1.0, mean=m) for m in (0.0, 2.0)]
        power = np.abs(half_transform(np.stack([f.values for f in fields]), g.shape)) ** 2
        norms = half_norm(g, power)
        assert norms.shape == (2,)
        for f, got in zip(fields, norms):
            assert got == pytest.approx(l2_norm(forward_transform(f)), rel=1e-13)
        mag = g.half_magnitude()
        for s in (-1.5, 0.0, 4.0):
            for hom in (True, False):
                got = half_norm(g, power, sobolev_weight(mag, s, hom))
                for f, x in zip(fields, got):
                    ref = sobolev_norm(forward_transform(f), s, homogeneous=hom)
                    assert x == pytest.approx(ref, rel=1e-13)


class TestMultipliers:
    def test_radial_power_zero_mode(self):
        out = radial_power(np.array([0.0, 2.0, 4.0]), -0.5)
        assert np.array_equal(out, [0.0, 2.0 ** -0.5, 0.5])

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 32)])
    def test_homogeneous_sobolev_weight_is_fractional_power(self, d, n):
        g = TorusGrid(d=d, n=n)
        for s in (-2.0, -0.75, 0.5, 3.0, 4.0):
            w = sobolev_weight(wavenumber_magnitude(g), s, True)
            assert np.array_equal(w, fractional_power(2.0 * s)(g.wavevectors()))

    def test_fractional_eigenfunction(self):
        g = TorusGrid(d=1, n=32)
        F = forward_transform(field_from_function(g, lambda x: np.cos(3 * x)))
        out = inverse_transform(apply_multiplier(F, fractional_power(0.5)))
        ref = math.sqrt(3) * np.cos(3 * g.points()[0])
        assert np.max(np.abs(out.values - ref)) < 1e-13

    def test_negative_power_kills_constant(self):
        g = TorusGrid(d=1, n=16)
        out = radial_power(g.half_magnitude(), -1.0) * half_transform(np.full(16, 5.0), g.shape)
        assert np.max(np.abs(out)) < 1e-15

    def test_gradient_multiplier(self):
        g = TorusGrid(d=1, n=32)
        F = forward_transform(field_from_function(g, np.cos))
        out = inverse_transform(apply_multiplier(F, lambda kv: 1j * kv[..., 0]))
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
        h = half_transform(random_real_field(g, rng, decay=2.0).values, g.shape)
        h.flat[0] = 0.0  # mean-zero
        mag = g.half_magnitude()
        s1, s2 = 0.7, -1.3
        one = radial_power(mag, s2) * (radial_power(mag, s1) * h)
        both = radial_power(mag, s1 + s2) * h
        scale = np.max(np.abs(h))
        assert np.max(np.abs(one - both)) < 1e-12 * scale

    def test_round_trip_power(self):
        rng = np.random.default_rng(2)
        g = TorusGrid(d=1, n=64)
        h = half_transform(random_real_field(g, rng).values, g.shape)
        h[0] = 0.0
        mag = g.half_magnitude()
        back = radial_power(mag, -1.5) * (radial_power(mag, 1.5) * h)
        assert np.max(np.abs(back - h)) < 1e-12

    def test_multiplier_linearity(self):
        rng = np.random.default_rng(5)
        g = TorusGrid(d=1, n=32)
        F = half_transform(random_real_field(g, rng).values, g.shape)
        G = half_transform(random_real_field(g, rng).values, g.shape)
        m = radial_power(g.half_magnitude(), 0.5)
        a, b = 2.5, -1.25
        lhs = m * (a * F + b * G)
        rhs = a * (m * F) + b * (m * G)
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
        assert np.array_equal(plain(kv), reg)

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
        assert bump(np.array([0.0]))[0] == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ModelParams(alpha_minus_d=1.0, c_K=1.0)
        with pytest.raises(ValueError):
            ModelParams(alpha_minus_d=-0.5, c_K=1.0, mu=-0.1)


class TestDealias:
    def test_cut_boundary(self):
        g = TorusGrid(d=1, n=12)
        c = np.zeros(7, dtype=complex)
        c[5] = 1.0
        c[3] = 1.0
        c[4] = 1.0
        out = np.where(g.half_mask(), c, 0.0)
        assert out[5] == 0.0   # 5 > 12/3
        assert out[3] == 1.0
        assert out[4] == 1.0   # 4 <= 12/3

    def test_2d_any_component(self):
        g = TorusGrid(d=2, n=12)
        c = np.zeros((12, 7), dtype=complex)
        c[5, 1] = 1.0
        c[2, 2] = 1.0
        out = np.where(g.half_mask(), c, 0.0)
        assert out[5, 1] == 0.0
        assert out[2, 2] == 1.0


class TestRandomSeries:
    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
    def test_batch_is_the_series_in_turn(self, d, n):
        g = TorusGrid(d=d, n=n)
        rates = np.array([0.4, 0.25]).reshape((2,) + (1,) * d)
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        got = random_series(g, rng, lambda mag: np.exp(-rates * mag), lead=(3, 2))
        assert got.shape == (3, 2) + g.shape
        for i in range(3):
            for j, rate in enumerate((0.4, 0.25)):
                want = series_in_turn(g, ref, lambda mag: np.exp(-rate * mag), 1)[0]
                assert np.array_equal(got[i, j], want)
        assert rng.random() == ref.random()  # the batch took as many draws as the loop

    @pytest.mark.parametrize("d,n", [(1, 32), (2, 16)])
    @pytest.mark.parametrize("decay,amplitude,mean", [(2.0, 1.0, 0.0), (3.0, 0.5, 1.0),
                                                      (1.0, 0.0, 2.0)])
    def test_random_fields_keep_their_bits(self, d, n, decay, amplitude, mean):
        g = TorusGrid(d=d, n=n)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        batch = random_real_values(g, rng, decay, amplitude, mean, lead=(4,))
        for i in range(4):
            assert np.array_equal(batch[i], random_field_in_turn(g, ref, decay, amplitude, mean))
        one = random_real_field(g, np.random.default_rng(5), decay, amplitude, mean)
        assert np.array_equal(one.values, batch[0])
