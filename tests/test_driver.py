"""Tests for configuration handling, output files, campaigns, and the CLI."""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest

import fpmflow
from fpmflow.driver import (
    ConfigError,
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
    read_snapshot,
    run_simulation,
    verify_suite,
    write_snapshot,
)
from fpmflow.spectral import (
    RealField,
    SpectralField,
    TorusGrid,
    apply_multiplier,
    field_from_function,
    forward_transform,
    heat_multiplier,
    l2_norm,
)


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


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

    def test_blowup_exit_code(self, tmp_path):
        cfg = load_config(None, [
            ("modes", "64"), ("c_K", "1"), ("t_end", "5"),
            ("blowup_threshold", "50"), ("safety", "0.4"),
            ("out", str(tmp_path / "bl"))])
        assert run_simulation(cfg, quiet=True) == 2
        with open(tmp_path / "bl" / "status.txt") as fh:
            assert "reason blowup_detected" in fh.read()

    def test_attractive_fixed_dt_ends_in_blowup(self, tmp_path):
        # Used to raise SymmetryError mid-run instead of reporting blow-up.
        out = tmp_path / "attractive"
        code = main(["simulate", "--config", os.path.join(CONFIG_DIR, "repulsive_inviscid.cfg"),
                     "--c_K", "1", "--dt_mode", "fixed", "--dt", "0.05",
                     "--blowup_threshold", "1e12", "--out", str(out)])
        assert code == 2
        with open(out / "status.txt") as fh:
            assert "reason blowup_detected" in fh.read()


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

    def test_picard_requires_mu(self):
        with pytest.raises(ConfigError):
            picard_iteration(self._cfg(), 3)

    def test_refinement_rows(self):
        rows = grid_refinement(self._cfg(t_end=0.02), [32, 64])
        assert rows[0][:2] == (32, 64)
        assert rows[0][2] < 1e-6

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

    def test_verify_exit_zero(self, tmp_path, capsys):
        rc = main(["verify", "--select", "antisymmetry", "--samples", "100",
                   "--out", str(tmp_path / "v")])
        assert rc == 0
        assert os.path.exists(tmp_path / "v" / "verify_report.txt")

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
