"""Tests for configuration handling, output files, campaigns, and the CLI."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import fpmflow
from fpmflow.driver import (
    FMT,
    ConfigError,
    IncompleteRun,
    RunConfig,
    _audit,
    _parse_overrides,
    classify_regime,
    grid_refinement,
    load_config,
    main,
    mu_convergence,
    parse_init,
    picard_iteration,
    run_simulation,
    run_to_final,
    verify_suite,
    write_snapshot,
)
from fpmflow.model import velocity
from fpmflow.spectral import RealField, TorusGrid, half_coefficients
from fpmflow.stepper import _integrating_factor_rk4

from oracles import (SpectralField, apply_multiplier, field_from_function, forward_transform,
                     full_field, heat_multiplier, l2_norm, picard_in_turn, read_snapshot,
                     sobolev_norm)


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
PICARD_1D = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads",
                         "picard-1d.cfg")


def write_cfg(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


BASIC = """
# short inviscid run
dimension = 1
modes = 32
alpha_minus_d = -1.0
c_K = -1.0
nu = 0.0
init = cosine:mean=1,amplitude=0.3,k=1
t_end = 0.05
dt_mode = fixed
dt = 0.005
"""


def fftshift_refinement(cfg, n_list) -> list:
    """refine's errors from full-layout states: both spectra fftshifted, the fine one cut
    to the coarse band [-N/2, N/2)^d."""
    runs = [run_to_final(replace(cfg, modes=n)) for n in n_list]
    finals = [full_field(res.grid, res.h) for res in runs]
    errs = []
    for coarse, fine in zip(finals, finals[1:]):
        a, lo = coarse.grid.n, (fine.grid.n - coarse.grid.n) // 2
        band = np.fft.fftshift(fine.coeffs)[(slice(lo, lo + a),) * cfg.dimension]
        errs.append(l2_norm(SpectralField(coarse.grid, band - np.fft.fftshift(coarse.coeffs))))
    return errs


def full_layout_mu_convergence(cfg, mu_list, s) -> list:
    """mu-converge's rows (mu, L2 error, H^s error) from full-layout states."""
    ref = run_to_final(replace(cfg, mu=0.0))
    rows = []
    for mu in mu_list:
        res = run_to_final(replace(cfg, mu=mu))
        diff = full_field(ref.grid, res.h - ref.h)
        rows.append((mu, l2_norm(diff), sobolev_norm(diff, s)))
    return rows


class TestConfig:
    def test_load_basic(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path / "a.cfg", BASIC), [])
        assert cfg.modes == 32
        assert cfg.c_K == -1.0
        assert cfg.dt_mode == "fixed"

    def test_overrides_win(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path / "a.cfg", BASIC),
                          [("modes", "64"), ("nu", "0.25")])
        assert cfg.modes == 64
        assert cfg.nu == 0.25

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path / "a.cfg", BASIC + "viscosity = 1\n"), [])

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path / "a.cfg", "modes 64\n"), [])

    def test_invalid_value_wrapped(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path / "a.cfg",
                                  BASIC + "alpha_minus_d = 0.5\n"), [])

    def test_none_path_defaults(self):
        cfg = load_config(None, [])
        assert cfg == RunConfig()

    def test_s_list_parse(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path / "a.cfg", BASIC + "s_list = 3,4.5\n"), [])
        assert cfg.s_list == (3.0, 4.5)

    def test_empty_s_list(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path / "a.cfg", BASIC + "s_list =\n"), [])

    @pytest.mark.parametrize("key, value", [
        ("modes", 7), ("dimension", 3), ("nu", -1.0), ("dt", 0.0), ("s_list", (-3.0,)),
        ("init", "square:mean=1"), ("init", "cosine:k=1/2"), ("out", ""),
    ])
    def test_bad_key_is_a_config_error_when_the_config_is_made(self, key, value):
        with pytest.raises(ConfigError):
            RunConfig(**{key: value})
        with pytest.raises(ConfigError):
            replace(RunConfig(), **{key: value})

    def test_config_is_frozen(self):
        # a field set after construction would skip the check the config makes when made
        cfg = RunConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.modes = 7
        with pytest.raises(ConfigError):
            replace(cfg, modes=7)
        assert cfg.modes == 64


class TestParseInit:
    def test_cosine(self):
        ic = parse_init("cosine:mean=1,amplitude=0.5,k=2")
        assert ic.kind == "cosine"
        assert ic.amplitude == 0.5
        assert ic.k == (2,)

    def test_gaussian_center_tuple(self):
        ic = parse_init("gaussian:mass=2,sigma=0.5,center=3.14/1.0")
        assert ic.center == (3.14, 1.0)

    def test_random_seed_passthrough(self):
        ic = parse_init("random:decay=2", seed=11)
        assert ic.seed == 11

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_init("square:mean=1")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            parse_init("cosine:height=1")

    def test_bad_item(self):
        with pytest.raises(ConfigError):
            parse_init("cosine:mean")


class TestClassifyRegime:
    def _rho(self, mean=1.0, amplitude=0.3):
        g = TorusGrid(d=1, n=32)
        return field_from_function(g, lambda x: mean + amplitude * np.cos(x))

    def test_case1(self):
        cfg = RunConfig(c_K=-1.0, nu=0.0)
        assert classify_regime(cfg, self._rho()).startswith("case1")

    def test_case2(self):
        cfg = RunConfig(c_K=1.0, nu=0.5)
        assert classify_regime(cfg, self._rho()) == "case2 (viscous)"

    def test_endpoint_smallness_note(self):
        cfg = RunConfig(c_K=1.0, nu=0.5, alpha_minus_d=0.0)
        assert "smallness" in classify_regime(cfg, self._rho())

    def test_outside(self):
        cfg = RunConfig(c_K=1.0, nu=0.0)
        assert "outside" in classify_regime(cfg, self._rho())

    def test_negative_data_not_case1(self):
        cfg = RunConfig(c_K=-1.0, nu=0.0)
        assert "outside" in classify_regime(cfg, self._rho(mean=0.0, amplitude=1.0))


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        g = TorusGrid(d=2, n=8)
        rng = np.random.default_rng(3)
        f = RealField(g, rng.standard_normal(g.shape))
        path = str(tmp_path / "snap.txt")
        write_snapshot(path, f, 0.25)
        back, t = read_snapshot(path)
        assert t == 0.25
        assert np.array_equal(back.values, f.values)


class TestAudit:
    class R:
        def __init__(self, t, mass):
            self.t = t
            self.mass = mass

    def test_accepts_clean(self):
        _audit([self.R(0.0, 1.0), self.R(0.1, 1.0), self.R(0.2, 1.0 + 1e-14)])

    def test_rejects_time_regression(self):
        with pytest.raises(RuntimeError):
            _audit([self.R(0.0, 1.0), self.R(0.1, 1.0), self.R(0.1, 1.0)])

    def test_rejects_mass_drift(self):
        with pytest.raises(RuntimeError):
            _audit([self.R(0.0, 1.0), self.R(0.1, 1.0 + 1e-9)])


class TestRunSimulation:
    def test_outputs_and_exit_code(self, tmp_path):
        cfg = load_config(None, [("modes", "32"), ("t_end", "0.05"),
                                 ("dt_mode", "fixed"), ("dt", "0.005"),
                                 ("out", str(tmp_path / "run"))])
        assert run_simulation(cfg, quiet=True) == 0
        for name in ("series.csv", "snapshot_initial.txt",
                     "snapshot_final.txt", "status.txt"):
            assert os.path.exists(tmp_path / "run" / name)
        with open(tmp_path / "run" / "series.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "t" and "B1" in header and "hs_4" in header

    @pytest.mark.parametrize("nu", ["0", "0.1"])
    def test_residuals_nan_where_not_evaluated(self, tmp_path, nu):
        cfg = load_config(None, [("modes", "32"), ("t_end", "0.02"), ("nu", nu),
                                 ("dt_mode", "fixed"), ("dt", "0.005"),
                                 ("out", str(tmp_path / "run"))])
        assert run_simulation(cfg, quiet=True) == 0
        with open(tmp_path / "run" / "series.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
        cols = [header.index("energy_residual_L2"), header.index("energy_residual_Hs")]
        assert len(rows) == 5
        for i, row in enumerate(rows):
            values = [row[j] for j in cols]
            if nu == "0" and 0 < i < len(rows) - 1:
                assert all(math.isfinite(float(v)) for v in values)
            else:
                assert values == ["nan", "nan"]

    def test_blowup_exit_code(self, tmp_path):
        cfg = load_config(None, [
            ("modes", "64"), ("c_K", "1"), ("t_end", "5"),
            ("blowup_threshold", "50"), ("safety", "0.4"),
            ("out", str(tmp_path / "bl"))])
        assert run_simulation(cfg, quiet=True) == 2
        with open(tmp_path / "bl" / "status.txt") as fh:
            assert "reason blowup_detected" in fh.read()

    def test_attractive_fixed_dt_ends_in_blowup(self, tmp_path):
        # Used to raise a Hermitian symmetry error mid-run instead of reporting blow-up.
        out = tmp_path / "attractive"
        code = main(["simulate", "--config", os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
                     "--c_K", "1", "--dt_mode", "fixed", "--dt", "0.05",
                     "--blowup_threshold", "1e12", "--out", str(out)])
        assert code == 2
        with open(out / "status.txt") as fh:
            assert "reason blowup_detected" in fh.read()

    @pytest.mark.parametrize("dt", ["1.0", "3.0"])
    def test_overflowing_run_ends_in_blowup(self, tmp_path, dt):
        # Used to end in a traceback: at dt = 1 squaring B2's sum raised
        # OverflowError; at dt = 3 an RK4 stage turned non-finite and
        # nonlinear_rhs raised SpectralError.
        out = tmp_path / "overflow"
        code = main(["simulate", "--config", os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
                     "--c_K", "1", "--dt_mode", "fixed", "--t_end", "30",
                     "--blowup_threshold", "inf", "--dt", dt, "--out", str(out)])
        assert code == 2
        with open(out / "status.txt") as fh:
            assert "reason blowup_detected" in fh.read()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_first_sample_above_threshold_exits_two_before_any_step(self, tmp_path, capsys):
        # used to warn from the t = 0 sample and then take sample_every = 10 steps
        out = tmp_path / "huge"
        code = main(["simulate", "--config", os.path.join(CONFIG_DIR, "heat.cfg"),
                     "--init", "cosine:mean=1e300,amplitude=1e300", "--out", str(out)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        with open(out / "status.txt") as fh:
            status = dict(line.rstrip("\n").split(" ", 1) for line in fh)
        assert (status["reason"], status["t_final"], status["n_steps"]) == (
            "blowup_detected", "0", "0")
        with open(out / "series.csv") as fh:
            assert len(fh.readlines()) == 2  # the header and the t = 0 row

    @pytest.mark.parametrize("c_K", ["1.7e308", "-1.7e308"])
    def test_cfl_dt_overflow_ends_in_blowup(self, tmp_path, capsys, c_K):
        # Used to end in a ValueError traceback, exit 1: umax overflowed to inf, so the
        # CFL dt was 0.  The run now stops before the step, with the last state kept.
        out = tmp_path / "overflow"
        code = main(["simulate", "--config", os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
                     "--c_K", c_K, "--out", str(out)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        with open(out / "status.txt") as fh:
            assert "reason blowup_detected" in fh.read()

    @pytest.mark.parametrize("workload", ["viscous-2d", "inviscid-2d"])
    def test_benchmark_traced_call_counts(self, tmp_path, monkeypatch, workload):
        # the traced benchmark smoke requires 4 nonlinear_rhs calls per step and one step
        # call per step of status.txt; its tracer wraps each public function in every
        # fpmflow namespace that holds it
        bench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
        monkeypatch.syspath_prepend(bench)
        from spans import Tracer

        out = tmp_path / workload
        config = os.path.join(bench, "workloads", workload + ".cfg")
        tracer = Tracer()
        tracer.install()
        try:
            code = main(["simulate", "--config", config, "--modes", "16", "--out", str(out)])
        finally:
            tracer.uninstall()
        assert code == 0
        with open(out / "status.txt") as fh:
            n_steps = int(dict(line.split(" ", 1) for line in fh)["n_steps"])
        layer = tracer.call_summary(n_steps)["per_call"]
        assert n_steps > 1
        assert layer["stepper.step.calls"] == layer["stepper.cfl_dt.calls"] == n_steps
        assert layer["model.nonlinear_rhs.calls"] == 4 * n_steps


class TestCampaigns:
    def _cfg(self, **kw):
        base = dict(modes=32, t_end=0.05, dt_mode="fixed", dt=0.005)
        base.update(kw)
        return RunConfig(**base)

    def test_mu_convergence_rows(self):
        rows = mu_convergence(self._cfg(), [0.5, 0.25])
        assert [r[0] for r in rows] == [0.5, 0.25]
        assert rows[1][1] < rows[0][1]

    def test_mu_requires_descending_positive(self):
        with pytest.raises(ConfigError):
            mu_convergence(self._cfg(), [0.25, 0.5])
        with pytest.raises(ConfigError):
            mu_convergence(self._cfg(), [0.5, 0.0])

    def test_picard_contracts(self):
        rep = picard_iteration(self._cfg(mu=0.25, dt=0.0025), 5)
        d = rep["diffs"]
        assert len(d) == 5
        assert all(b < a for a, b in zip(d[1:], d[2:]))
        assert not rep["diverged"]

    def test_picard_includes_diffusion(self):
        # c_K = 0: every iterate is the heat flow of rho0, so d_1 measures it
        # and d_2 vanishes.
        cfg = self._cfg(c_K=0.0, nu=1.0, mu=0.25)
        rep = picard_iteration(cfg, 2)
        rho0 = forward_transform(cfg.initial_field())
        heat = apply_multiplier(rho0, heat_multiplier(cfg.nu * cfg.t_end))
        expected = l2_norm(SpectralField(rho0.grid, heat.coeffs - rho0.coeffs))
        assert expected > 0.0
        assert rep["diffs"][0] == pytest.approx(expected, rel=1e-12)
        assert rep["diffs"][1] == 0.0

    def test_picard_builds_one_operator_that_dies_with_it(self, built_operators):
        picard_iteration(self._cfg(mu=0.25), 2)
        gc.collect()
        assert len(built_operators) == 1 and built_operators[0]() is None

    @pytest.mark.parametrize("d", [1, 2])
    def test_picard_transport_step_costs(self, monkeypatch, d):
        # a wave is 4 stages of 1 irfftn + d rfftn over every live iterate at once; each
        # iterate-step adds 3 velocities of d irfftn each; the set-up transforms make rho0
        counts = {"fft": 0, "velocity": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "fft"))
        monkeypatch.setattr("fpmflow.driver.velocity", counted(velocity, "velocity"))
        cfg = self._cfg(dimension=d, modes=16, mu=0.25, dt=0.0125)
        n_steps = 4
        half_coefficients(cfg.initial_field())
        setup = counts["fft"]
        for n_max in (1, 2, 3, 7):  # 7 > n_steps: at most n_steps iterates are in flight
            counts.update(fft=0, velocity=0)
            picard_iteration(cfg, n_max)
            waves = n_steps + n_max - 1
            assert counts["fft"] == setup + waves * 4 * (1 + d) + 3 * d * n_steps * n_max
            assert counts["velocity"] == 3 * n_steps * n_max

    @staticmethod
    def _picard_peak(cfg, n_max) -> int:
        tracemalloc.start()
        try:
            picard_iteration(cfg, n_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_picard_memory_does_not_grow_with_the_step_count(self):
        cfg = self._cfg(modes=1024, mu=0.25, t_end=0.08, dt=0.01)
        state_bytes = 16 * (1024 // 2 + 1)
        picard_iteration(cfg, 3)  # numpy's first calls allocate what later calls reuse
        short = self._picard_peak(cfg, 3)  # 8 steps
        long = self._picard_peak(replace(cfg, dt=0.001), 3)  # 80 steps
        assert long - short < state_bytes

    def test_picard_holds_at_most_n_steps_iterates(self, monkeypatch):
        rows = []

        def spy(c, *args):
            rows.append(c.shape[0])
            return _integrating_factor_rk4(c, *args)

        cfg = self._cfg(modes=1024, mu=0.25, t_end=0.02, dt=0.005)  # 4 steps
        state_bytes = 16 * (1024 // 2 + 1)
        picard_iteration(cfg, 5)
        bounded = self._picard_peak(cfg, 5)
        many = self._picard_peak(cfg, 40)
        # the iterates past the first n_steps + 1 add their d_n and no state
        assert many - bounded < state_bytes
        monkeypatch.setattr("fpmflow.driver._integrating_factor_rk4", spy)
        picard_iteration(cfg, 40)
        assert max(rows) == 4 and len(rows) == 4 + 40 - 1

    @pytest.mark.parametrize("n_max", [1, 2, 3, 8])
    @pytest.mark.parametrize("case", ["picard-1d seed 0", "picard-1d seed 1", "2-D N=32",
                                      "nu > 0"])
    def test_picard_wavefront_is_the_iterates_in_turn(self, case, n_max):
        if case.startswith("picard-1d"):
            cfg = load_config(PICARD_1D, [("seed", case[-1])])  # 80 steps
        elif case == "2-D N=32":
            cfg = self._cfg(dimension=2, modes=32, mu=0.25, dt=0.0125)  # 4 steps
        else:
            cfg = self._cfg(mu=0.25, nu=0.1)  # 10 steps
        got, want = picard_iteration(cfg, n_max), picard_in_turn(cfg, n_max)
        assert got["diffs"] == want["diffs"] and len(got["diffs"]) == n_max
        assert got["diverged"] == want["diverged"]

    @pytest.mark.parametrize("n_max", [1, 2, 3, 8])
    def test_picard_overflow_is_the_iterates_in_turn(self, n_max):
        # the first iterate overflows: the iterates in flight behind it do so silently
        cfg = load_config(os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
                          [("mu", "0.25"), ("c_K", "1"), ("dt", "20"), ("t_end", "400")])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = picard_iteration(cfg, n_max)
            want = picard_in_turn(cfg, n_max)
        assert got["diffs"] == want["diffs"] == [math.inf]
        assert got["diverged"] and want["diverged"]

    def test_picard_requires_mu(self):
        with pytest.raises(ConfigError):
            picard_iteration(self._cfg(), 3)

    def test_picard_step_count_within_max_steps(self):
        cfg = self._cfg(mu=0.25, max_steps=10)  # t_end / dt = 10 steps
        assert len(picard_iteration(cfg, 1)["diffs"]) == 1
        with pytest.raises(ConfigError, match="more than max_steps = 9"):
            picard_iteration(replace(cfg, max_steps=9), 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_refinement_rows(self, d):
        rows = grid_refinement(self._cfg(t_end=0.02, dimension=d), [32, 64])
        assert rows[0][:2] == (32, 64)
        assert rows[0][2] < 1e-6
        # Off-centre data have no mirror symmetry, so the coarse modes at -N/2 differ from
        # their +N/2 mirrors, which are what rfft layout holds of the fine spectrum.
        cfg = self._cfg(t_end=0.02, dimension=d, init="gaussian:mass=3,sigma=0.4,center=1")
        n_list = [16, 32, 64]
        rows = grid_refinement(cfg, n_list)
        assert [r[:2] for r in rows] == [(16, 32), (32, 64)]
        for got, want in zip(rows, fftshift_refinement(cfg, n_list)):
            assert got[2] == pytest.approx(want, rel=1e-13)
        s_m1 = max(cfg.s_list) - 1.0
        for got, want in zip(mu_convergence(cfg, [0.5, 0.25]),
                             full_layout_mu_convergence(cfg, [0.5, 0.25], s_m1)):
            assert got[0] == want[0]
            assert got[1:] == pytest.approx(want[1:], rel=1e-13)

    def test_runs_and_campaigns_build_no_full_layout(self, monkeypatch, tmp_path):
        # on cosine data every transform of a run or campaign is a real FFT
        complex_calls = []
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
            def counted(*args, fn=getattr(np.fft, name), name=name, **kwargs):
                complex_calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        for d in (1, 2):
            cfg = self._cfg(dimension=d, modes=16, out=str(tmp_path / f"run{d}"))
            assert cfg.init.startswith("cosine:")
            assert run_simulation(cfg, quiet=True) == 0
            assert len(grid_refinement(cfg, [16, 32])) == 1
            assert len(mu_convergence(cfg, [0.5])) == 1
        assert complex_calls == []

    def test_mu_convergence_stops_at_an_incomplete_mu_run(self, monkeypatch):
        run_to_final = fpmflow.driver.run_to_final

        def budget_spent_at_mu_quarter(cfg):
            res = run_to_final(cfg)
            return replace(res, reason="max_steps") if cfg.mu == 0.25 else res

        monkeypatch.setattr("fpmflow.driver.run_to_final", budget_spent_at_mu_quarter)
        with pytest.raises(IncompleteRun, match="mu=0.25 ended max_steps"):
            mu_convergence(self._cfg(), [0.5, 0.25])

    def test_refinement_requires_doubling(self):
        with pytest.raises(ConfigError):
            grid_refinement(self._cfg(), [32, 48])

    def test_verify_suite_selection(self):
        reports = verify_suite(["antisymmetry"], n=100)
        assert len(reports) == 1 and reports[0].passed
        with pytest.raises(ConfigError):
            verify_suite([])
        with pytest.raises(ConfigError):
            verify_suite(["lemma2"])


class TestCli:
    def test_parse_overrides(self):
        assert _parse_overrides(["--modes", "64", "--nu", "0.5"]) == [
            ("modes", "64"), ("nu", "0.5")]
        with pytest.raises(ConfigError):
            _parse_overrides(["modes", "64"])
        with pytest.raises(ConfigError):
            _parse_overrides(["--modes"])

    def test_simulate_exit_zero(self, tmp_path, capsys):
        rc = main(["simulate", "--modes", "32", "--t_end", "0.02",
                   "--dt_mode", "fixed", "--dt", "0.005",
                   "--out", str(tmp_path / "cli")])
        assert rc == 0
        assert os.path.exists(tmp_path / "cli" / "series.csv")

    def test_config_error_exit_one(self, tmp_path, capsys):
        rc = main(["simulate", "--bogus_key", "1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "heat.cfg", "--modes", "7"],
        ["simulate", "--config", "heat.cfg", "--dimension", "3"],
        ["simulate", "--config", "heat.cfg", "--modes", "abc"],
        ["simulate", "--config", "heat.cfg", "--dt_mode", "fixed", "--dt", "0"],
        ["simulate", "--config", "heat.cfg", "--dt", "-1"],
        ["simulate", "--config", "repulsive_inviscid.cfg", "--dt_max", "0"],
        ["simulate", "--config", "heat.cfg", "--s_list", "-3"],
        ["simulate", "--config", "heat.cfg", "--s_list", "a"],
        ["simulate", "--config", "heat.cfg", "--t_end", "nan", "--max_steps", "10"],
        ["simulate", "--config", "heat.cfg", "--c_K", "nan"],
        ["simulate", "--config", "heat.cfg", "--nu", "nan"],
        ["simulate", "--config", "heat.cfg", "--mu", "inf"],
        ["simulate", "--config", "heat.cfg", "--cutoff", "bump"],
        ["simulate", "--config", "no_such.cfg"],
        ["picard", "--config", "repulsive_inviscid.cfg", "--mu", "0.25", "--dt", "0"],
        ["mu-converge", "--config", "heat.cfg", "--mu-list", "abc"],
        ["refine", "--config", "heat.cfg", "--n-list", "6,12"],
        ["refine", "--config", "heat.cfg", "--n-list", "4,8,16"],
        ["refine", "--config", "heat.cfg", "--n-list", "32,,64"],
        ["simulate", "--config", "repulsive_inviscid.cfg", "--init", "cosine:k=1/"],
        ["mu-converge", "--config", "heat.cfg", "--mu-list", "0.5,0.25,-0.1"],
        ["verify", "--samples", "-4", "--select", "lemma1"],
        ["simulate", "--config", "heat.cfg", "--init", "random:mean=1", "--seed", "-1"],
        ["verify", "--seed", "-1", "--select", "lemma1"],
        ["simulate", "--config", "heat.cfg", "--blowup_threshold", "nan"],
        ["simulate", "--config", "heat.cfg", "--blowup_threshold", "0"],
        ["picard", "--config", "repulsive_inviscid.cfg", "--mu", "0.25", "--n-max", "0"],
        ["mu-converge", "--config", "heat.cfg", "--s_list", "-1.5", "--mu-list", "0.5"],
        ["simulate", "--config", "repulsive_inviscid.cfg", "--init", "cosine:mean=0,amplitude=1"],
        ["simulate", "--config", "repulsive_inviscid.cfg", "--init", "gaussian:mass=-1"],
        ["simulate", "--config", "repulsive_inviscid.cfg", "--init", "cosine:k=1/5"],
        ["simulate", "--config", "repulsive_inviscid.cfg", "--init", "gaussian:center=1/2/3"],
        ["simulate", "--config", "repulsive_inviscid.cfg", "--init", "cosine:mean=inf"],
        ["simulate", "--config", "repulsive_2d.cfg", "--init", "cosine:k=1/2/3"],
        ["refine", "--config", "repulsive_inviscid.cfg", "--n-list", "64"],
        ["refine", "--config", "repulsive_inviscid.cfg", "--n-list", ","],
        ["mu-converge", "--config", "repulsive_inviscid.cfg", "--mu-list", ","],
        # a non-finite mu used to end in a ValueError traceback after the mu = 0 reference
        # run, and a tiny Picard dt in an OverflowError traceback allocating the trajectory
        ["mu-converge", "--config", "heat.cfg", "--mu-list", "nan"],
        ["mu-converge", "--config", "heat.cfg", "--mu-list", "inf"],
        ["mu-converge", "--config", "heat.cfg", "--mu-list", "0.5,nan"],
        ["picard", "--config", "repulsive_inviscid.cfg", "--mu", "0.25", "--dt", "1e-300"],
        ["picard", "--config", "repulsive_inviscid.cfg", "--mu", "0.25", "--dt", "5e-324"],
        # initial data that overflow on the grid ended in a SpectralError traceback
        ["simulate", "--config", "heat.cfg", "--init", "cosine:mean=1e308,amplitude=1e308"],
        ["simulate", "--config", "heat.cfg", "--init", "gaussian:mass=1e308,sigma=0.01"],
        # finite data whose first transform overflows ended blowup_detected at t = 0, warning
        ["simulate", "--config", "heat.cfg", "--init", "cosine:mean=1e308,amplitude=0"],
        # a Gaussian width whose square overflows ended in an OverflowError traceback
        ["simulate", "--config", "heat.cfg", "--init", "gaussian:sigma=1e200"],
        ["simulate", "--config", "heat.cfg", "--init", "gaussian:sigma=1e160"],
    ], ids=" ".join)
    def test_bad_value_is_config_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        for name in ("integrate", "_integrating_factor_rk4"):  # every error precedes any run
            monkeypatch.setattr(f"fpmflow.driver.{name}", no_run)
        argv = [os.path.join(CONFIG_DIR, a) if a.endswith(".cfg") else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "heat.cfg"],
        ["picard", "--config", "heat.cfg", "--mu", "0.25"],
        ["refine", "--config", "heat.cfg", "--n-list", "32,64"],
        ["mu-converge", "--config", "heat.cfg"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_init_leaves_no_out_directory(self, tmp_path, capsys, argv):
        # main made --out before the first field was built, so the config error left it
        init = ["--init", "cosine:mean=1e308,amplitude=0"]
        argv = [os.path.join(CONFIG_DIR, a) if a.endswith(".cfg") else a for a in argv]
        assert main(argv + init + ["--out", str(tmp_path / "new" / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []
        # an --out that was there before stays
        (tmp_path / "old").mkdir()
        assert main(argv + init + ["--out", str(tmp_path / "old")]) == 1
        assert os.listdir(tmp_path) == ["old"] and os.listdir(tmp_path / "old") == []

    def test_run_simulation_checks_the_first_field_before_making_out(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "heat.cfg"),
                          [("init", "cosine:mean=1e308,amplitude=0"),
                           ("out", str(tmp_path / "x"))])
        with pytest.raises(ConfigError, match="overflows"):
            run_simulation(cfg, quiet=True)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "heat.cfg", "--seed", "abc"],
        ["simulate", "--config", "heat.cfg", "--seed"],
        ["verify", "--samples", "abc"],
        ["picard", "--config", "repulsive_inviscid.cfg", "--mu", "0.25", "--n-max", "x"],
        ["bogus"],
        ["simulate", "--config", "heat.cfg", "--out", ""],
        ["refine", "--config", "heat.cfg", "--n-list", "32,64", "--out", ""],
        ["mu-converge", "--config", "heat.cfg", "--out", ""],
        ["picard", "--config", "repulsive_inviscid.cfg", "--mu", "0.25", "--out", ""],
    ], ids=" ".join)
    def test_usage_error_or_empty_out_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                      argv):
        # argparse exited 2, the code of a blow-up; an empty --out ended simulate in a
        # FileNotFoundError traceback and had the campaigns write into the working directory
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        for name in ("integrate", "picard_iteration", "verify_suite"):
            monkeypatch.setattr(f"fpmflow.driver.{name}", no_run)
        argv = [os.path.join(CONFIG_DIR, a) if a.endswith(".cfg") else a for a in argv]
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err

    def test_picard_with_a_non_finite_d_n_diverges(self, tmp_path, capsys):
        # attractive and a step of 20: the first iterate overflows; d_1 = inf used to be
        # followed by NaN d_n, overflow warnings and exit 0
        out = tmp_path / "p"
        rc = main(["picard", "--config", os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
                   "--mu", "0.25", "--c_K", "1", "--dt", "20", "--t_end", "400",
                   "--n-max", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "d_1 = inf\n"
        assert captured.err == "iteration diverged\n"
        with open(out / "picard.csv") as fh:
            assert fh.read().splitlines() == ["n,d_n", "1,inf"]

    @pytest.mark.parametrize("dimension", ["1", "2"])
    def test_unresolved_gaussian_run_ends_classified(self, tmp_path, capsys, dimension):
        # At N = 128 and sigma = 0.05 the unpaired -N/2 mode of the Gaussian is far above
        # round-off; a full-layout build ended this run in a Hermitian-symmetry traceback.
        out = tmp_path / "g"
        rc = main(["simulate", "--config", os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
                   "--dimension", dimension, "--init", "gaussian:sigma=0.05,center=1",
                   "--out", str(out)])
        assert rc == 2
        with open(out / "status.txt") as fh:
            assert fh.readline() == "reason blowup_detected\n"

    def test_campaign_csvs_are_fmt_rows_of_campaign_results(self, tmp_path, capsys):
        path = write_cfg(tmp_path / "c.cfg", BASIC + "mu = 0.25\n")
        out = tmp_path / "out"
        cfg = load_config(path, [])
        cases = [
            (["mu-converge", "--mu-list", "0.5,0.25"], "mu_convergence.csv",
             "mu,err_L2,err_Hsm1", mu_convergence(cfg, [0.5, 0.25])),
            (["picard", "--n-max", "2"], "picard.csv",
             "n,d_n", list(enumerate(picard_iteration(cfg, 2)["diffs"], 1))),
            (["refine", "--n-list", "16,32"], "refinement.csv",
             "N_coarse,N_fine,err_L2", grid_refinement(cfg, [16, 32])),
        ]
        for argv, name, header, rows in cases:
            assert main(argv + ["--config", path, "--out", str(out)]) == 0
            with open(out / name) as fh:
                lines = fh.read().splitlines()
            assert lines == [header] + [",".join(FMT % v for v in row) for row in rows]
            assert len(lines) == len(rows) + 1 > 1
        with open(out / "picard.csv") as fh:
            assert fh.read().splitlines()[1:] == [f"{i},{FMT % d}" for i, d in cases[1][3]]
        with open(out / "refinement.csv") as fh:
            assert fh.read().splitlines()[1].startswith("16,32,")

    @pytest.mark.parametrize("argv", [
        ["refine", "--n-list", "32,64"],
        ["mu-converge", "--mu-list", "0.5"],
    ])
    def test_campaign_with_blown_up_run_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        path = os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg")
        rc = main(argv + ["--config", path, "--c_K", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("campaign stopped: ")
        assert captured.err.count("\n") == 1 and "ended blowup_detected" in captured.err
        assert "err" not in captured.out
        assert os.listdir(out) == []  # made before the first run, and nothing written into it

    @pytest.mark.parametrize("command", ["simulate", "refine", "mu-converge", "picard", "verify"])
    def test_out_path_that_cannot_be_a_directory(self, tmp_path, capsys, monkeypatch, command):
        # used to end in a FileExistsError traceback; refine and mu-converge after all their runs
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        for name in ("integrate", "picard_iteration", "verify_suite"):
            monkeypatch.setattr(f"fpmflow.driver.{name}", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([command, "--out", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("select,reports", [("antisymmetry", 1), ("lemma1, bdiff", 14)])
    def test_verify_exit_zero(self, tmp_path, capsys, select, reports):
        rc = main(["verify", "--select", select, "--samples", "100",
                   "--out", str(tmp_path / "v")])
        assert rc == 0
        with open(tmp_path / "v" / "verify_report.txt") as fh:
            assert fh.read().count("estimate: ") == reports

    def test_verify_unknown_selection(self, capsys):
        assert main(["verify", "--select", "nosuch"]) == 1

    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(fpmflow.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = ("import sys, fpmflow.driver; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_byte_determinism(self, tmp_path):
        args = ["simulate", "--modes", "32", "--t_end", "0.05",
                "--dt_mode", "adaptive", "--safety", "0.4"]
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) == 0
            with open(out / "series.csv", "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]
