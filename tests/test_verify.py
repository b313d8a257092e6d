"""Tests for the inequality verification suite."""

import math
import tracemalloc

import numpy as np
import pytest

from fpmflow import diagnostics, verify
from fpmflow.driver import ESTIMATES, verify_suite
from fpmflow.spectral import RealField, TorusGrid, random_real_field
from fpmflow.verify import (
    _commutator_lhs,
    _commutator_sides,
    _norm,
    _Pairs,
    _ratios_to_report,
    _safe_ratio,
    _sample_pairs,
    antisymmetric_kernels,
    commutator_reports,
    pointwise_reports,
    sample_antisymmetry,
)

from oracles import (SpectralField, _analytic_random_field, antisymmetry_coeffs_in_turn,
                     apply_multiplier, commutator_fields_in_turn, dealias_mask,
                     field_from_function, forward_transform, fractional_power,
                     inverse_transform, l2_norm)


def reference_commutator_lhs(f, g, b, extract_symbol):
    """One (f, g) pair through full-layout complex FFTs with Hermitian-checked inverses.

    Every product dealiases both factors first; gradients zero the unpaired
    Nyquist mode.  This is the direct form of the batched real-FFT core.
    """
    grid = f.grid
    kv = grid.wavevectors()
    mask = dealias_mask(grid)

    def gradient(F):
        out = []
        for j in range(grid.d):
            deriv = 1j * kv[..., j] * F.coeffs
            deriv[kv[..., j] == -grid.n // 2] = 0.0
            out.append(SpectralField(grid, deriv))
        return out

    def dealiased_product(u, v):
        ud, vd = (inverse_transform(SpectralField(grid, np.where(
            mask, forward_transform(w).coeffs, 0.0))) for w in (u, v))
        return RealField(grid, ud.values * vd.values)

    fh = forward_transform(f)
    gh = forward_transform(g)
    grad_g = [inverse_transform(c) for c in gradient(gh)]
    grad_f = [inverse_transform(c) for c in gradient(fh)]
    lam_b = fractional_power(-b)
    total = 0.0
    for j in range(grid.d):
        prod = forward_transform(dealiased_product(f, grad_g[j]))
        term1 = apply_multiplier(prod, lam_b)
        lam_dg = inverse_transform(apply_multiplier(forward_transform(grad_g[j]), lam_b))
        term2 = forward_transform(dealiased_product(f, lam_dg))
        comm = term1.coeffs - term2.coeffs
        if extract_symbol:
            base = apply_multiplier(forward_transform(grad_g[j]), fractional_power(-b - 2.0))
            corr = np.zeros(grid.shape, dtype=np.complex128)
            for k, part in enumerate(gradient(base)):
                pk = inverse_transform(part)
                corr += forward_transform(dealiased_product(grad_f[k], pk)).coeffs
            comm = comm - b * corr
        total += l2_norm(SpectralField(grid, comm)) ** 2
    return math.sqrt(total)


def lhs_of(f, g, b, extract_symbol):
    return float(_commutator_lhs(f.grid, f.values, g.values, b, extract_symbol))


class TestLemma1:
    def test_spot_value(self):
        # xi=2, eta=1, s=3: lhs = |8 - 1 - 1 - 3| = 3, rhs = 1 + 1 = 2
        (lhs,), (rhs,) = sides = _Pairs([2.0], [1.0]).lemma1(3.0)
        (ratio,), (degenerate,) = _safe_ratio(*sides)
        assert ratio == 1.5 and not degenerate
        assert lhs == 3.0 and rhs == 2.0

    def test_coincident_degenerate(self):
        (ratio,), (degenerate,) = _safe_ratio(*_Pairs([5.0], [5.0]).lemma1(4.0))
        assert degenerate
        assert ratio == 0.0

    @pytest.mark.parametrize("lam", [2.0, 10.0])
    def test_scale_invariance(self, lam):
        rng = np.random.default_rng(31)
        for s in (3.0, 4.0, 6.0):
            for _ in range(20):
                xi = rng.standard_normal(2) * 5
                eta = rng.standard_normal(2) * 5
                (base,), (base_degenerate,) = _safe_ratio(*_Pairs(xi, eta).lemma1(s))
                scaled_sides = _Pairs(lam * xi, lam * eta).lemma1(s)
                (scaled,), (scaled_degenerate,) = _safe_ratio(*scaled_sides)
                if base_degenerate:
                    assert scaled_degenerate
                else:
                    assert scaled == pytest.approx(base, rel=1e-10)

    @pytest.mark.parametrize("s,d", [(3.0, 1), (4.0, 2), (6.0, 1)])
    def test_sampled_report(self, s, d):
        rep = pointwise_reports(d, 2000, seed=1, lemma1=(s,))["lemma1"][0]
        assert rep.passed
        assert math.isfinite(rep.sup_ratio)
        assert rep.quantiles[50] <= rep.quantiles[90] <= rep.quantiles[99]


class TestBdiff:
    def test_spot_value(self):
        # b=1: lhs = |3-1| = 2, rhs = 2 * max(1, 1) = 2
        ratio, _ = _safe_ratio(*_Pairs([3.0], [1.0]).bdiff(1.0))
        assert ratio[0] == 1.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            xi = rng.standard_normal(2) * 4 + 5
            eta = rng.standard_normal(2) * 4 + 5
            a, _ = _safe_ratio(*_Pairs(xi, eta).bdiff(0.5))
            b, _ = _safe_ratio(*_Pairs(eta, xi).bdiff(0.5))
            assert b[0] == pytest.approx(a[0], rel=1e-12)

    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0])
    def test_sampled_report(self, b):
        rep = pointwise_reports(1, 2000, seed=2, bdiff=(b,))["bdiff"][0]
        assert rep.passed
        assert rep.sup_ratio <= 1.0 + 1e-12


class TestGdecomp:
    def test_coincident_degenerate(self):
        ratio, degenerate = _safe_ratio(*_Pairs([3.0, 1.0], [3.0, 1.0]).gdecomp(4.0, 0.5))
        assert degenerate[0]
        assert ratio[0] == 0.0

    def test_scale_invariance(self):
        # lhs and rhs share homogeneity degree, so the ratio is scale free
        rng = np.random.default_rng(35)
        for _ in range(20):
            xi = rng.standard_normal(2) * 3
            eta = rng.standard_normal(2) * 3 + 1
            a, degenerate = _safe_ratio(*_Pairs(xi, eta).gdecomp(4.0, 0.5))
            b, _ = _safe_ratio(*_Pairs(7.0 * xi, 7.0 * eta).gdecomp(4.0, 0.5))
            if not degenerate[0]:
                assert b[0] == pytest.approx(a[0], rel=1e-9)

    @pytest.mark.parametrize("s,b", [(3.0, 0.25), (4.0, 0.5), (6.0, 1.0)])
    def test_sampled_report(self, s, b):
        rep = pointwise_reports(1, 2000, seed=3, gdecomp=((s, b),))["gdecomp"][0]
        assert rep.passed
        assert math.isfinite(rep.sup_ratio)


class TestCommutator:
    def test_constant_f_vanishes(self):
        g = TorusGrid(d=1, n=64)
        f = RealField(g, np.full(64, 2.0))
        gg = field_from_function(g, lambda x: np.cos(2 * x))
        lhs = lhs_of(f, gg, 0.5, extract_symbol=False)
        assert lhs < 1e-12

    def test_zero_g_degenerate(self):
        g = TorusGrid(d=1, n=32)
        f = field_from_function(g, lambda x: 1 + 0.3 * np.cos(x))
        ratio, degenerate = _safe_ratio(*_commutator_sides(g, f.values, np.zeros(32), 0.5,
                                                           0.5, plain=False))
        assert degenerate
        assert ratio == 0.0

    def test_nonzero_mean_g_rejected(self):
        g = TorusGrid(d=1, n=32)
        f = field_from_function(g, lambda x: 1 + 0.3 * np.cos(x))
        gg = RealField(g, np.full(32, 1.0))
        with pytest.raises(ValueError):
            _commutator_sides(g, f.values, gg.values, 0.5, 0.5, plain=False)

    def test_linearity_in_g(self):
        g = TorusGrid(d=1, n=64)
        f = field_from_function(g, lambda x: 1 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x))
        gg = field_from_function(g, lambda x: np.cos(3 * x) + 0.5 * np.sin(x))
        one = lhs_of(f, gg, 0.5, extract_symbol=True)
        two = lhs_of(f, RealField(g, 2.0 * gg.values), 0.5, extract_symbol=True)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_single_mode_closed_form(self):
        # f = cos x, g = cos 2x, b = 1/2: the commutator has only modes 1 and 3
        g = TorusGrid(d=1, n=32)
        f = field_from_function(g, np.cos)
        gg = field_from_function(g, lambda x: np.cos(2 * x))
        lhs = lhs_of(f, gg, 0.5, extract_symbol=False)
        c3 = 1.0 / math.sqrt(2.0) - 1.0 / math.sqrt(3.0)
        c1 = 1.0 / math.sqrt(2.0) - 1.0
        ref = math.sqrt(math.pi) * math.sqrt(c3 ** 2 + c1 ** 2)
        assert lhs == pytest.approx(ref, rel=1e-12)

    def test_invalid_b(self):
        g = TorusGrid(d=1, n=32)
        f = field_from_function(g, np.cos)
        with pytest.raises(ValueError):
            _commutator_sides(g, f.values, f.values, 1.0, 0.5, plain=False)
        with pytest.raises(ValueError):
            _commutator_sides(g, f.values, f.values, 1.5, 0.5, plain=True)

    @pytest.mark.parametrize("b", [0.25, 0.5, 0.75])
    def test_sampled_report_stable(self, b):
        rep = commutator_reports((b,), (False,), 20, N=64, seed=4)[False][0]
        assert rep.passed
        assert math.isfinite(rep.sup_ratio) and rep.sup_ratio > 0.0

    def test_plain_sampled_report(self):
        rep = commutator_reports((0.5,), (True,), 10, N=32, seed=5)[True][0]
        assert math.isfinite(rep.sup_ratio)

    @pytest.mark.parametrize("d,n", [(1, 64), (1, 128), (2, 32)])
    @pytest.mark.parametrize("extract_symbol", [True, False])
    def test_batched_core_matches_reference(self, d, n, extract_symbol):
        grid = TorusGrid(d=d, n=n)
        rng = np.random.default_rng(9)
        pairs = []
        for _ in range(3):
            f = _analytic_random_field(grid, rng, rate=0.4, mean=1.0)
            g = _analytic_random_field(grid, rng, rate=0.25, mean=0.0)
            pairs.append((f, g - np.mean(g)))
        f_stack = np.stack([f for f, _ in pairs])
        g_stack = np.stack([g for _, g in pairs])
        for b in (0.25, 0.5, 0.75):
            got = _commutator_lhs(grid, f_stack, g_stack, b, extract_symbol)
            for i, (f, g) in enumerate(pairs):
                ref = reference_commutator_lhs(RealField(grid, f), RealField(grid, g), b,
                                               extract_symbol)
                assert got[i] == pytest.approx(ref, rel=1e-12)

    def test_seed0_sup_ratio_pinned(self):
        # Pins the draw order of the (f, g) pairs as well as the arithmetic.
        rep = commutator_reports((0.5,), (False,), 200, N=64, seed=0)[False][0]
        assert rep.sup_ratio == pytest.approx(0.004147240805007349, rel=1e-12)


class TestAntisymmetry:
    def test_kernel_antisymmetry_pointwise(self):
        rng = np.random.default_rng(41)
        xi = rng.standard_normal((50, 2))
        eta = rng.standard_normal((50, 2))
        for G in antisymmetric_kernels():
            assert np.max(np.abs(G(xi, eta) + G(eta, xi))) < 1e-12

    def test_sampled_report(self):
        rep = sample_antisymmetry(n_fields=10, N=32, seed=6)
        assert rep.passed
        assert rep.sup_ratio <= 1e-10


class TestReportLogic:
    def test_degenerate_excluded_from_sup(self):
        ratios = np.array([1.0, 50.0, 2.0, 1.5])
        deg = np.array([False, True, False, False])
        rep = _ratios_to_report("t", ratios, deg, lambda i: {"i": i})
        assert rep.sup_ratio == 2.0

    def test_unstable_halves_fail(self):
        ratios = np.concatenate([np.full(50, 1.0), np.full(50, 3.0)])
        deg = np.zeros(100, dtype=bool)
        rep = _ratios_to_report("t", ratios, deg, lambda i: {"i": i})
        assert not rep.passed

    @pytest.mark.parametrize("n", [7, 1000, 99_999, 100_000])
    def test_quantiles_match_one_call_per_level(self, n):
        ratios = np.random.default_rng(n).lognormal(size=n)
        rep = _ratios_to_report("t", ratios, np.zeros(n, dtype=bool), lambda i: {"i": i})
        assert rep.quantiles == {p: float(np.quantile(ratios, p / 100.0)) for p in (50, 90, 99)}

    @pytest.mark.parametrize("special", [(), (np.inf,), (np.nan,), (np.inf, np.nan, -np.inf)])
    def test_input_kept_and_quantiles_of_the_unsorted_input(self, special):
        rng = np.random.default_rng(len(special))
        ratios = rng.lognormal(size=1001)
        deg = rng.random(1001) < 0.1
        where = rng.choice(1001, len(special), replace=False)
        ratios[where], deg[where] = special, False
        before = ratios.copy()
        rep = _ratios_to_report("t", ratios, deg, lambda i: {"i": i})
        assert np.array_equal(ratios, before, equal_nan=True)
        want = np.quantile(np.where(deg, 0.0, ratios), [0.5, 0.9, 0.99])
        assert np.array_equal([rep.quantiles[p] for p in (50, 90, 99)], want, equal_nan=True)

    def test_format_contains_fields(self):
        rep = pointwise_reports(1, 200, seed=7, lemma1=(3.0,))["lemma1"][0]
        text = rep.format()
        assert "sup_ratio:" in text and "pass:" in text and "q99:" in text


def one_report_at_a_time(seed, n):
    """The suite's reports one at a time, each making its own draw."""
    reps = [pointwise_reports(d, n, seed, lemma1=(s,))["lemma1"][0]
            for s in (3.0, 4.0, 6.0) for d in (1, 2)]
    reps += [pointwise_reports(d, n, seed, bdiff=(b,))["bdiff"][0]
             for b in (0.25, 0.5, 0.75, 1.0) for d in (1, 2)]
    reps += [pointwise_reports(d, n, seed, gdecomp=((3.0, b),))["gdecomp"][0]
             for b in (0.0, 0.5, 1.0) for d in (1, 2)]
    n_trials = min(200, max(10, n // 500))
    reps += [commutator_reports((b,), (plain,), n_trials, N=64, d=1, seed=seed)[plain][0]
             for plain in (False, True) for b in (0.25, 0.5, 0.75)]
    reps.append(sample_antisymmetry(n_fields=100, N=32, d=1, seed=seed))
    return reps


class TestSharedDraws:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_suite_equals_one_report_at_a_time(self, seed):
        suite = verify_suite(ESTIMATES, seed=seed, n=2000)
        alone = one_report_at_a_time(seed, 2000)
        assert len(suite) == len(alone) == 27
        for got, want in zip(suite, alone):
            assert got.format() == want.format()
            assert got.sup_ratio == want.sup_ratio
            assert got.quantiles == want.quantiles
            assert got.argmax == want.argmax

    def test_nested_filters_keep_the_nonzero_pairs(self):
        # Seed 0, d = 1 draws two pairs with xi = 0 and one with eta = 0.
        xi, eta = _sample_pairs(1, 2000, np.random.default_rng(0))
        for rep, keep, sides in (
            (pointwise_reports(1, 2000, 0, gdecomp=((3.0, 0.5),))["gdecomp"][0],
             _norm(eta) > 0.0, lambda x, e: _Pairs(x, e).gdecomp(3.0, 0.5)),
            (pointwise_reports(1, 2000, 0, bdiff=(0.5,))["bdiff"][0],
             (_norm(xi) > 0.0) & (_norm(eta) > 0.0), lambda x, e: _Pairs(x, e).bdiff(0.5)),
        ):
            x, e = xi[keep], eta[keep]
            assert x.shape[0] < xi.shape[0]
            want = _ratios_to_report(rep.name, *_safe_ratio(*sides(x, e)),
                                     lambda i: {"xi": x[i].tolist(), "eta": e[i].tolist()})
            assert rep.format() == want.format()

    def test_one_generator_per_population(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        verify_suite(ESTIMATES, n=2000)
        # (xi, eta) pairs for d = 1 and d = 2, the (f, g) stack, the antisymmetry fields.
        assert len(made) == 4

    @pytest.mark.parametrize("d,n,trials", [(1, 64, 200), (2, 32, 5)])
    def test_commutator_stacks_are_the_fields_in_turn(self, d, n, trials):
        grid = TorusGrid(d=d, n=n)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        f, g = verify._commutator_fields(grid, rng, trials)
        want_f, want_g = commutator_fields_in_turn(grid, ref, trials)
        assert np.array_equal(f, want_f) and np.array_equal(g, want_g)
        assert rng.random() == ref.random()  # the batch took as many draws as the loop

    @pytest.mark.parametrize("d,n,fields,seed", [(1, 32, 100, 0), (1, 32, 100, 1),
                                                 (2, 8, 3, 2)])
    def test_antisymmetry_stack_is_the_fields_in_turn(self, monkeypatch, d, n, fields, seed):
        seen = []
        naive = diagnostics._trilinear_naive

        def capture(G, grid, coeffs):
            seen.append(coeffs)
            return naive(G, grid, coeffs)

        monkeypatch.setattr(diagnostics, "_trilinear_naive", capture)
        sample_antisymmetry(fields, N=n, d=d, seed=seed)
        want = antisymmetry_coeffs_in_turn(TorusGrid(d=d, n=n), np.random.default_rng(seed),
                                           fields)
        assert len(seen) == len(antisymmetric_kernels())
        assert all(np.array_equal(coeffs, want) for coeffs in seen)

    def test_one_lattice_pass_per_kernel(self, monkeypatch):
        passes = []
        naive = diagnostics._trilinear_naive

        def counted(G, grid, coeffs):
            passes.append(len(coeffs))
            return naive(G, grid, coeffs)

        monkeypatch.setattr(diagnostics, "_trilinear_naive", counted)
        sample_antisymmetry(100)
        assert passes == [100] * len(antisymmetric_kernels())


# Every report of verify_suite(ESTIMATES, seed=0, n=2000): name, sup ratio and (q50, q90,
# q99), recorded from the fields drawn one at a time and quantiles taken from the unsorted
# ratios (numpy 2.4, x86-64).  TestSharedDraws compares the suite with itself, so only
# recorded values catch a change of draw order or of the quantile step.
SUITE_SEED0 = [
    ('lemma1(s=3.0, d=1)', 1.5000000000055187, (0.8862715600301123, 1.5, 1.5000000000000848)),
    ('lemma1(s=3.0, d=2)', 1.5000000000004108,
     (0.5000018810130469, 1.4037367425179954, 1.5000000000001181)),
    ('lemma1(s=4.0, d=1)', 5.997151688305408,
     (2.196722534106181, 4.967616498659213, 5.899186392744731)),
    ('lemma1(s=4.0, d=2)', 5.985272546714794,
     (1.0025012506253126, 3.9262900188534657, 5.458678111424518)),
    ('lemma1(s=6.0, d=1)', 28.883111707842936,
     (4.152433736440463, 15.945252405826231, 28.644373043905706)),
    ('lemma1(s=6.0, d=2)', 28.88014994709629,
     (2.0070060024982466, 7.28576868491663, 24.283354401659487)),
    ('bdiff(b=0.25, d=1)', 0.24997328629816973,
     (0.059302726612711486, 0.21503565105373676, 0.24712058748785845)),
    ('bdiff(b=0.25, d=2)', 0.24930752367364534,
     (0.047705036598056125, 0.14235603370573477, 0.23235837627118877)),
    ('bdiff(b=0.5, d=1)', 0.49996438088532674,
     (0.16134320102316818, 0.4518702899619396, 0.4961509239150757)),
    ('bdiff(b=0.5, d=2)', 0.49907612946258256,
     (0.12041489594848122, 0.32451314414036153, 0.47610140919875316)),
    ('bdiff(b=0.75, d=1)', 0.7499732850297597,
     (0.3606844952724449, 0.7127137776615724, 0.7471057698596792)),
    ('bdiff(b=0.75, d=2)', 0.7493066701157516,
     (0.25082622911758223, 0.5697272723059152, 0.7314824090483242)),
    ('bdiff(b=1.0, d=1)', 1.0, (1.0, 1.0, 1.0)),
    ('bdiff(b=1.0, d=2)', 1.0000000000000004,
     (0.8426653383195326, 0.9999999999999972, 1.0000000000000002)),
    ('gdecomp(s=3.0, b=0.0, d=1)', 1.5000000000092457,
     (0.35095014047264883, 1.5000000000000002, 1.5000000000001252)),
    ('gdecomp(s=3.0, b=0.0, d=2)', 1.5000000000004525,
     (0.05882718073415365, 1.324154307141605, 1.5000000000001137)),
    ('gdecomp(s=3.0, b=0.5, d=1)', 1.5000000000053373,
     (0.3509501404726488, 1.5000000000000002, 1.5000000000001115)),
    ('gdecomp(s=3.0, b=0.5, d=2)', 1.5000000000005185,
     (0.058827180734153627, 1.3241543071416049, 1.5000000000001175)),
    ('gdecomp(s=3.0, b=1.0, d=1)', 1.500000000005962,
     (0.3509501404726486, 1.5000000000000004, 1.500000000000155)),
    ('gdecomp(s=3.0, b=1.0, d=2)', 1.5000000000004616,
     (0.05882718073415363, 1.3241543071416049, 1.5000000000001121)),
    ('commutator(b=0.25, N=64, d=1, eps=0.5)', 0.0022404642286649153,
     (0.0009228574536658642, 0.001513082562190411, 0.002167726062017465)),
    ('commutator(b=0.5, N=64, d=1, eps=0.5)', 0.0026971882693495345,
     (0.0013311528727052795, 0.002236408409707553, 0.0026511102833853364)),
    ('commutator(b=0.75, N=64, d=1, eps=0.5)', 0.0033263846262658243,
     (0.001994195510665738, 0.0031883500631222366, 0.0033125811699514654)),
    ('plain_commutator(b=0.25, N=64, d=1, eps=0.5)', 0.059837312411733304,
     (0.03408062353846702, 0.044607454415543854, 0.05831432661211436)),
    ('plain_commutator(b=0.5, N=64, d=1, eps=0.5)', 0.11175304653978152,
     (0.07620803966618009, 0.09408361832144768, 0.10998610371794813)),
    ('plain_commutator(b=0.75, N=64, d=1, eps=0.5)', 0.20597218404309797,
     (0.12476135259849833, 0.1842668875104351, 0.2038016543898317)),
    ('antisymmetry(N=32, d=1)', 2.1591574327516876e-16,
     (1.1755088829828516e-17, 6.540238727306337e-17, 1.5778792092631297e-16)),
]


class TestRecordedSuite:
    def test_seed0_ratios_and_quantiles(self):
        reps = verify_suite(ESTIMATES, seed=0, n=2000)
        assert [rep.name for rep in reps] == [row[0] for row in SUITE_SEED0]
        for rep, (name, sup, qs) in zip(reps, SUITE_SEED0):
            assert rep.sup_ratio == pytest.approx(sup, rel=1e-12), name
            got = [rep.quantiles[p] for p in (50, 90, 99)]
            assert got == pytest.approx(list(qs), rel=1e-12), name


# Frozen copies of the pointwise formulas as they stood before the evaluators
# shared one geometry per population and worked in place.  The suite must
# reproduce their lhs, rhs and ratios bit for bit.


def ref_norm(v):
    return np.sqrt(np.sum(np.asarray(v, dtype=np.float64) ** 2, axis=-1))


def ref_radial_power(mag, s):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mag > 0.0, mag ** s, 0.0)


def ref_lemma1_sides(xi, eta, s):
    diff = xi - eta
    axi, aeta, adiff = ref_norm(xi), ref_norm(eta), ref_norm(diff)
    eta_sm2 = ref_radial_power(aeta, s - 2.0)
    diff_sm1 = ref_radial_power(adiff, s - 1.0)
    dot = np.sum(eta * diff, axis=-1)
    lhs = np.abs(axi ** s - adiff ** s - aeta ** s - s * dot * eta_sm2)
    rhs = adiff ** 2 * eta_sm2 + aeta * diff_sm1
    return lhs, rhs


def ref_gdecomp_sides(xi, eta, s, b):
    diff = xi - eta
    axi, aeta, adiff = ref_norm(xi), ref_norm(eta), ref_norm(diff)
    dot = np.sum(xi * eta, axis=-1)
    eta_dot_diff = np.sum(eta * diff, axis=-1)
    eta_m2b = ref_radial_power(aeta, -2.0 * b)
    eta_sm2m2b = ref_radial_power(aeta, s - 2.0 - 2.0 * b)
    diff_sm1 = ref_radial_power(adiff, s - 1.0)
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


def ref_bdiff_sides(xi, eta, b):
    axi, aeta, adiff = ref_norm(xi), ref_norm(eta), ref_norm(xi - eta)
    lhs = np.abs(axi ** b - aeta ** b)
    rhs = adiff * np.maximum(axi ** (b - 1.0), aeta ** (b - 1.0))
    return lhs, rhs


def ref_safe_ratio(lhs, rhs):
    degenerate = rhs == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(degenerate, 0.0, lhs / np.where(degenerate, 1.0, rhs))


def ref_pointwise(d, n, seed):
    """(name, xi, eta, lhs, rhs, ratio) of every pointwise report of the suite in dimension d."""
    xi, eta = _sample_pairs(d, n, np.random.default_rng(seed))
    out = [(f"lemma1(s={s}, d={d})", xi, eta, *ref_lemma1_sides(xi, eta, s))
           for s in (3.0, 4.0, 6.0)]
    ok = ref_norm(eta) > 0.0
    xi, eta = xi[ok], eta[ok]
    out += [(f"gdecomp(s=3.0, b={b}, d={d})", xi, eta, *ref_gdecomp_sides(xi, eta, 3.0, b))
            for b in (0.0, 0.5, 1.0)]
    ok = ref_norm(xi) > 0.0
    xi, eta = xi[ok], eta[ok]
    out += [(f"bdiff(b={b}, d={d})", xi, eta, *ref_bdiff_sides(xi, eta, b))
            for b in (0.25, 0.5, 0.75, 1.0)]
    return [row + (ref_safe_ratio(row[3], row[4]),) for row in out]


SUITE_POINTWISE = dict(lemma1=(3.0, 4.0, 6.0), gdecomp=((3.0, 0.0), (3.0, 0.5), (3.0, 1.0)),
                       bdiff=(0.25, 0.5, 0.75, 1.0))


class TestPointwiseGeometry:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_suite_sides_match_frozen_formulas(self, monkeypatch, seed):
        # The walk evaluates each family block by block: the pairs and sides of every block
        # are captured where the _Pairs methods return them and joined in walk order, and
        # each report's population of ratios where _ratios_to_report receives it.
        blocks, ratios = {}, {}
        names = {"lemma1": lambda d, s: f"lemma1(s={s}, d={d})",
                 "gdecomp": lambda d, s, b: f"gdecomp(s={s}, b={b}, d={d})",
                 "bdiff": lambda d, b: f"bdiff(b={b}, d={d})"}
        for family, name in names.items():
            def capture(pairs, *args, method=getattr(verify._Pairs, family), name=name):
                sides = method(pairs, *args)
                blocks.setdefault(name(pairs.xi.shape[1], *args), []).append(
                    [pairs.xi.copy(), pairs.eta.copy(), *(a.copy() for a in sides)])
                return sides

            monkeypatch.setattr(verify._Pairs, family, capture)
        to_report = verify._ratios_to_report

        def capture_ratios(name, r, degenerate, argmax_inputs):
            ratios[name] = r.copy()
            return to_report(name, r, degenerate, argmax_inputs)

        monkeypatch.setattr(verify, "_ratios_to_report", capture_ratios)
        want = ref_pointwise(1, 2000, seed) + ref_pointwise(2, 2000, seed)
        for block in (verify.POINTWISE_BLOCK, 700):  # one block, then three
            monkeypatch.setattr(verify, "POINTWISE_BLOCK", block)
            blocks.clear()
            ratios.clear()
            verify_suite(("lemma1", "gdecomp", "bdiff"), seed=seed, n=2000)
            assert sorted(blocks) == sorted(ratios) == sorted(row[0] for row in want)
            for name, *arrays in want:
                assert len(blocks[name]) == -(-arrays[0].shape[0] // block)
                got = [np.concatenate(parts) for parts in zip(*blocks[name])] + [ratios[name]]
                for a, b in zip(got, arrays):
                    assert a.shape == b.shape and np.all(a == b), name

    @pytest.mark.parametrize("d", [1, 2])
    def test_norm_and_dot_match_axis_sums(self, d):
        v = np.random.default_rng(d).standard_normal((500, d)) * 1e3
        w = np.random.default_rng(d + 2).standard_normal((500, d))
        assert np.all(_norm(v) == ref_norm(v))
        assert np.all(verify._dot(v, w) == np.sum(v * w, axis=-1))

    @staticmethod
    def pointwise_peak(d, n):
        verify.pointwise_reports(d, n, 0, **SUITE_POINTWISE)  # first-call allocations
        tracemalloc.start()
        try:
            verify.pointwise_reports(d, n, 0, **SUITE_POINTWISE)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("d", [1, 2])
    def test_pointwise_peak_memory(self, d):
        # The evaluators of whole populations peaked at 3.53 MB (d = 1) and 4.08 MB (d = 2);
        # the shared geometry must not cost more than the temporaries it saves.
        assert self.pointwise_peak(d, 20_000) <= {1: 3.53e6, 2: 4.08e6}[d]

    @pytest.mark.parametrize("d", [1, 2])
    def test_pointwise_peak_memory_at_full_samples(self, d):
        # At verify's default 100 000 pairs the whole-population evaluators peaked at
        # 13.00 MB (d = 1) and 14.84 MB (d = 2), and the block walk at 9.67 and 9.80 MB.
        assert self.pointwise_peak(d, 100_000) <= {1: 13.01e6, 2: 14.85e6}[d]


class TestPointwiseBlocks:
    @pytest.mark.parametrize("d", [1, 2])
    def test_block_size_does_not_change_a_report(self, monkeypatch, d):
        got = []
        for block in (7, 1000, 8192):
            monkeypatch.setattr(verify, "POINTWISE_BLOCK", block)
            reps = pointwise_reports(d, 2000, 0, **SUITE_POINTWISE)
            got.append([vars(rep) for family in SUITE_POINTWISE for rep in reps[family]])
        assert len(got[0]) == 10
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("block", [7, 1000])
    def test_zero_vectors_at_block_boundaries(self, monkeypatch, block):
        # Rows with eta = 0 or xi = 0 on both sides of the boundaries of blocks of 7: the
        # filters drop them from the families after lemma1, and the walk must give each
        # family the reports of its whole filtered population evaluated at once.
        monkeypatch.setattr(verify, "POINTWISE_BLOCK", block)
        rng = np.random.default_rng(12)
        xi, eta = rng.uniform(-4.0, 4.0, size=(2, 40, 2))
        eta[[6, 7, 14, 28]] = 0.0
        xi[[13, 20, 21, 27, 28]] = 0.0
        got = verify._pairs_reports(xi, eta, **SUITE_POINTWISE)
        keep = _norm(eta) > 0.0
        both = keep & (_norm(xi) > 0.0)
        for family, x, e in (("lemma1", xi, eta), ("gdecomp", xi[keep], eta[keep]),
                             ("bdiff", xi[both], eta[both])):
            args = SUITE_POINTWISE[family]
            assert len(got[family]) == len(args)
            for rep, a in zip(got[family], args):
                sides = getattr(_Pairs(x, e), family)(*np.atleast_1d(a))
                want = _ratios_to_report(rep.name, *_safe_ratio(*sides),
                                         lambda i: {"xi": x[i].tolist(), "eta": e[i].tolist()})
                assert rep.n == x.shape[0] and vars(rep) == vars(want)
        assert [rep.n for rep in got["lemma1"] + got["gdecomp"] + got["bdiff"]] == \
            [40] * 3 + [36] * 3 + [32] * 4


class TestBatchedNaive:
    @pytest.mark.parametrize("d,n,fields,block", [
        (1, 32, 100, None),    # the suite's probe: one block
        (2, 16, 7, 200_000),   # every row at once, fields in blocks of 3, 3 and 1
        (2, 16, 5, 3000),      # rows in blocks of 11, one field at a time
    ])
    def test_stack_equals_one_field_at_a_time(self, monkeypatch, d, n, fields, block):
        if block is not None:
            monkeypatch.setattr(diagnostics, "NAIVE_BLOCK", block)
        grid = TorusGrid(d=d, n=n)
        rng = np.random.default_rng(n + fields)
        coeffs = np.stack([forward_transform(random_real_field(grid, rng)).coeffs
                           for _ in range(fields)])
        for G in antisymmetric_kernels()[:2]:
            total, scale = diagnostics._trilinear_naive(G, grid, coeffs)
            assert total.shape == scale.shape == (fields,)
            for i in range(fields):
                one = diagnostics._trilinear_naive(G, grid, coeffs[i:i + 1])
                assert one[0][0] == total[i] and one[1][0] == scale[i]

    def test_block_bound_counts_fields(self, monkeypatch):
        # 3000 complex entries per block: two 32 x 32 lattices of the 100 fields at a
        # time (32 KB), where one block of all of them would take 1.6 MB
        monkeypatch.setattr(diagnostics, "NAIVE_BLOCK", 3000)
        grid = TorusGrid(d=1, n=32)
        rng = np.random.default_rng(8)
        coeffs = np.stack([forward_transform(random_real_field(grid, rng)).coeffs
                           for _ in range(100)])
        G = antisymmetric_kernels()[1]
        want = diagnostics._trilinear_naive(G, grid, coeffs)
        tracemalloc.start()
        try:
            got = diagnostics._trilinear_naive(G, grid, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert peak < 400_000
