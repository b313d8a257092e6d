"""Benchmark harness for fpmflow: four workloads, end-to-end metrics, traced run.

    python3 perfbench/run.py --workload viscous-2d --seed 0 --seconds 20 --trace 0

Runs one workload through fpmflow's public driver entry points in a closed
loop, checks every call's output, and prints every metric by name with its
unit; the last line of standard output is one JSON object.  ``--trace 1``
reports the per-layer metrics instead.  Metric names and units come from
BENCHMARK.json at the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from spans import COUNTS, MEDIANS, SELF_TOTALS, TOTALS  # noqa: E402

# name -> (kind of driver call, config file under perfbench/workloads or None)
WORKLOADS = {
    "viscous-2d": ("simulate", "viscous-2d.cfg"),
    "inviscid-2d": ("simulate", "inviscid-2d.cfg"),
    "picard-1d": ("picard", "picard-1d.cfg"),
    "verify-suite": ("verify", None),
}
WORKERS = 5                # fresh interpreters per run, so set-up is timed five times
RUN_DEADLINE_S = 165.0     # stop starting workers past this, to end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_SEEDS = (0, 1)   # seeds whose outputs reference.json holds
# worker.reference_kernel's time at the reference speed: a 2-core shared VM, Python 3.11.
KERNEL_REF_S = 0.025
IGNORED_DIRS = {"__pycache__", ".git", ".perfbench_out"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def environment(env: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_vars": {v: env[v] for v in THREAD_VARS},
        "loadavg_1m_start": os.getloadavg()[0],
    }


def tree() -> set:
    """Every path under the checkout, except caches and the benchmark's own output."""
    paths = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in IGNORED_DIRS]
        rel = os.path.relpath(dirpath, ROOT)
        paths.update(os.path.normpath(os.path.join(rel, n)) for n in dirnames + filenames)
    return paths


def make_job(workload: str, seed: int, seconds: float, trace: bool, tmp: str,
             spans_path: str) -> dict:
    kind, config = WORKLOADS[workload]
    return {"kind": kind, "config": str(BENCH / "workloads" / config) if config else None,
            "seed": seed, "seconds": seconds, "trace": trace, "tmp": tmp,
            "spans_path": spans_path}


def start_worker(job: dict, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)


def run_workers(workload: str, seed: int, seconds: float, trace: bool, tmp: str,
                spans_path: Path, env: dict) -> tuple:
    """Start WORKERS fresh interpreters one after another; return (results, errors)."""
    results, errors = [], []
    start = time.monotonic()
    for w in range(WORKERS):
        remaining = RUN_DEADLINE_S - (time.monotonic() - start)
        if remaining <= 0:
            errors.append(f"worker {w} not started: run deadline reached")
            break
        # One request's spans are kept: the first traced call of the first worker.
        job = make_job(workload, seed, seconds / WORKERS, trace, tmp,
                       str(spans_path) if w == 0 else "")
        try:
            proc = start_worker(job, env, remaining)
        except subprocess.TimeoutExpired:
            errors.append(f"worker {w} killed after {remaining:.0f} s")
            break
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"worker {w} exited with code {proc.returncode}:\n"
                          + proc.stderr[-2000:])
            continue
        results.append(json.loads(lines[-1]))
    return results, errors


def tail(values: list):
    """Highest percentile with at least ten samples beyond it, as (percent, value).

    None unless that percentile lies at or above the median (20 samples or more).
    """
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def p99(values: list) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def trace_problems(kind: str, summary: dict, layer: dict) -> list:
    """Coverage invariants: a wrapper missing from some namespace breaks one of these."""
    problems = []
    if layer["model.nonlinear_rhs.calls"] != 4 * layer["stepper.step.calls"]:
        problems.append("model.nonlinear_rhs.calls != 4 x stepper.step.calls")
    if kind == "simulate":
        if layer["stepper.step.calls"] != summary["n_steps"]:
            problems.append("stepper.step.calls != n_steps in status.txt")
        if layer["diagnostics.make_record.calls"] != summary["series_rows"]:
            problems.append("diagnostics.make_record.calls != data rows in series.csv")
    if kind == "picard" and layer["model.velocity.calls"] != 3 * summary["work"]:
        problems.append("model.velocity.calls != 3 x transport steps x iterates")
    return problems


def end_to_end(results: list, calls: list) -> dict:
    """Samples per metric, each time rescaled to the reference speed.

    A time t measured while the reference kernel took k seconds is reported
    as t * KERNEL_REF_S / k.  The machine's speed drifts by tens of percent
    over tens of seconds; the kernel timed next to each sample cancels that
    drift, and the fpmflow code under test does not enter the kernel.
    """
    run_s = [c["run_s"] * KERNEL_REF_S / c["kernel_s"] for c in calls]
    return {
        "setup_s": [r["setup"]["setup_s"] * KERNEL_REF_S / r["setup"]["kernel_s"]
                    for r in results],
        "run_s": run_s,
        "work_per_s": [c["summary"]["work"] / t for c, t in zip(calls, run_s)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }


def wall_clock(results: list, calls: list) -> dict:
    """Raw samples behind the rescaled times, printed for reference."""
    return {
        "setup_wall_s": [r["setup"]["setup_s"] for r in results],
        "run_wall_s": [c["run_s"] for c in calls],
        "kernel_s": [c["kernel_s"] for c in calls],
    }


def per_layer(results: list, traced: list, untraced: list) -> dict:
    metrics = {}
    per_call = [c["trace"]["per_call"] for c in traced]
    for key in (*COUNTS, *TOTALS, *SELF_TOTALS, "spectral.fft_calls", "spectral.fft_points",
                "spectral.fft_bytes_computed", "spectral.fft_per_step",
                "diagnostics.retained_state_bytes"):
        metrics[key] = median([pc[key] for pc in per_call])
    for key in MEDIANS:
        durations = [d for c in traced for d in c["trace"]["durations"][key]]
        metrics[f"{key}_s"] = median(durations)
        metrics[f"{key}_p99_s"] = p99(durations)
    metrics["verify.ratios"] = median(
        [c["summary"]["work"] for c in traced if "reports" in c["summary"]])
    metrics["driver.bytes_written"] = median(
        [c["summary"].get("bytes_written", 0) for c in traced])
    metrics["driver.import_s"] = median([r["setup"]["import_s"] for r in results])
    metrics["driver.load_config_s"] = median(
        [r["setup"].get("load_config_s", 0.0) for r in results])
    metrics["trace.overhead_s"] = (median([c["run_s"] for c in traced])
                                   - median([c["run_s"] for c in untraced]))
    return metrics


WORK_NAME = {"simulate": "steps_per_s", "picard": "steps_per_s", "verify": "ratios_per_s"}


def report_lines(kind: str, samples: dict, units: dict) -> list:
    lines = []
    for name, values in samples.items():
        shown = WORK_NAME[kind] if name == "work_per_s" else name
        t = tail(values)
        tail_text = (f"p{t[0]:.0f} {t[1]:.6g}" if t
                     else "no tail percentile above the median (fewer than 20 samples)")
        lines.append(f"  {shown:<14} {median(values):>12.6g} {units.get(name, 's'):<6} "
                     f"median of {len(values)}; {tail_text}")
    return lines


def load_reference() -> dict:
    path = BENCH / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def record_reference(env: dict) -> int:
    """Write reference.json: the outputs of one call for each of REFERENCE_SEEDS."""
    reference = {}
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        for workload in WORKLOADS:
            for seed in REFERENCE_SEEDS:
                proc = start_worker(make_job(workload, seed, 0, False, tmp, ""), env,
                                    RUN_DEADLINE_S)
                if proc.returncode != 0:
                    raise RuntimeError(proc.stderr)
                call = json.loads(proc.stdout.strip().splitlines()[-1])["calls"][0]
                if call["error"]:
                    raise RuntimeError(call["error"])
                reference.setdefault(workload, {})[str(seed)] = call["summary"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json from this commit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fpmflow" / "driver.py").is_file():
        print(f"fpmflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    if args.record_reference:
        return record_reference(env)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = definition["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    kind = WORKLOADS[args.workload][0]
    env_record = environment(env)
    before = tree()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.unlink(missing_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    try:
        results, errors = run_workers(args.workload, args.seed, args.seconds,
                                      bool(args.trace), tmp, spans_path, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not results:
        print("no worker completed set-up:\n" + "\n".join(errors), file=sys.stderr)
        return 1
    env_record["loadavg_1m_end"] = os.getloadavg()[0]

    problems = list(errors)
    created = sorted(tree() - before)
    if created:
        problems.append(f"created files in the checkout: {created[:10]}")
    references = load_reference().get(args.workload, {})
    if "0" in references:
        problems += oracle.self_test(kind, references["0"])
    else:
        problems.append("no reference output for seed 0")

    calls = [c for r in results for c in r["calls"]]
    attempted = len(calls) + len(errors)
    failed = len(errors)
    reference = references.get(str(args.seed))
    for c in calls:
        if c["error"] is None:
            found = oracle.check(kind, c["summary"], reference)
            if c["traced"]:
                found += trace_problems(kind, c["summary"], c["trace"]["per_call"])
        else:
            found = [c["error"]]
        if found:
            failed += 1
            problems.append("; ".join(found))
    good = [c for c in calls if c["error"] is None]

    if args.trace:
        values = per_layer(results, [c for c in good if c["traced"]],
                           [c for c in good if not c["traced"]])
        samples = None
    else:
        samples = end_to_end(results, good)
        values = {name: median(v) for name, v in samples.items()}
    missing = [name for name in units if name not in values]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"fpmflow benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env_record))
    if samples:
        print(f"times at reference speed (reference kernel {KERNEL_REF_S:g} s):")
        print("\n".join(report_lines(kind, samples, units)))
        print(f"  {'fail_rate':<14} {failed / attempted:>12.6g} {'1':<6} "
              f"{failed} of {attempted} calls failed")
        print("wall-clock times as measured:")
        print("\n".join(report_lines(kind, wall_clock(results, good), {})))
    else:
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"environment": env_record, "problems": problems,
                                       "workers": results, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
