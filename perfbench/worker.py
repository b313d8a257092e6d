"""One fresh interpreter: time the set-up, then run workload calls in a closed loop.

run.py starts this script with one JSON argument (the job) and reads one
JSON object from the last line of its standard output.  Nothing from
fpmflow or numpy is imported before the set-up clock starts, so the import
time is what a fresh ``fpmflow`` process pays.

The fixed reference kernel is timed right after set-up and after every
call, so each call lies between two kernel timings and run.py can express
each time at a reference machine speed.
"""

import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace

PICARD_ITERATES = 8
VERIFY_SAMPLES = 100_000


def reference_kernel() -> float:
    """Seconds for a fixed mix of FFT, small-array numpy and interpreter work.

    It uses no fpmflow code.  Its 240-point FFTs share no cached plan with
    the workloads' grid sizes (32 to 256).
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.random.default_rng(0).random((240, 240))
    for _ in range(6):
        np.fft.ifftn(np.fft.fftn(a))
    b = np.ones(64)
    for _ in range(600):
        b = np.sqrt(b * 1.0001)
    d = {}
    for i in range(30000):
        d[i & 255] = d.get(i & 255, 0) + i
    return time.perf_counter() - t0


def call_workload(driver, kind, cfg, seed, out):
    if kind == "simulate":
        return driver.run_simulation(replace(cfg, out=out), quiet=True)
    if kind == "picard":
        return driver.picard_iteration(cfg, PICARD_ITERATES)
    return driver.verify_suite(driver.ESTIMATES, seed=seed, n=VERIFY_SAMPLES)


def _read_status(path):
    with open(path) as fh:
        return dict(line.rstrip("\n").split(" ", 1) for line in fh if " " in line)


def summarize(kind, cfg, ret, out):
    """The outputs the oracle checks, read back from what the call returned or wrote."""
    if kind == "simulate":
        status = _read_status(os.path.join(out, "status.txt"))
        with open(os.path.join(out, "series.csv")) as fh:
            header = fh.readline().strip().split(",")
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
        col = {name: i for i, name in enumerate(header)}
        with open(os.path.join(out, "snapshot_final.txt")) as fh:
            fh.readline()
            finite = all(abs(float(v)) < float("inf") for v in fh)
        n_steps = int(status["n_steps"])
        return {
            "exit_code": ret,
            "reason": status["reason"],
            "n_steps": n_steps,
            "series_rows": len(rows),
            "masses": [r[col["mass"]] for r in rows],
            "l2_final": rows[-1][col["l2"]],
            "B1_final": rows[-1][col["B1"]],
            "finite": finite,
            "bytes_written": sum(os.path.getsize(os.path.join(out, f))
                                 for f in os.listdir(out)),
            "work": n_steps,
        }
    if kind == "picard":
        transport_steps = round(cfg.t_end / ret["dt"])
        return {"diffs": list(ret["diffs"]), "diverged": bool(ret["diverged"]),
                "work": transport_steps * len(ret["diffs"])}
    return {"reports": {r.name: [r.n, r.sup_ratio, bool(r.passed)] for r in ret},
            "work": sum(r.n for r in ret)}


def main():
    job = json.loads(sys.argv[1])
    clock = time.perf_counter
    kind = job["kind"]
    t0 = clock()
    from fpmflow import driver
    t1 = clock()
    setup = {"import_s": t1 - t0}
    cfg = None
    if job["config"]:
        cfg = driver.load_config(job["config"], [("seed", str(job["seed"]))])
        t2 = clock()
        cfg.initial_field()
        setup["load_config_s"] = t2 - t1
        setup["setup_s"] = clock() - t0
    else:
        setup["setup_s"] = t1 - t0
    reference_kernel()  # the first run pays one-time costs; time the second
    kernels = [reference_kernel()]

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
    spans_written = False

    calls = []
    deadline = clock() + job["seconds"]
    seed = job["seed"]
    for iteration in itertools.count():
        started = clock()
        # Traced mode alternates untraced and traced calls on the same input.
        modes = ((False, True) if iteration % 2 == 0 else (True, False)) if tracer else (False,)
        for traced in modes:
            out = os.path.join(job["tmp"], f"call{len(calls)}")
            rec = {"traced": traced, "error": None}
            try:
                if traced:
                    tracer.reset()
                    tracer.install()
                try:
                    c0 = clock()
                    ret = call_workload(driver, kind, cfg, seed, out)
                    rec["run_s"] = clock() - c0
                finally:
                    if traced:
                        tracer.uninstall()
                rec["summary"] = summarize(kind, cfg, ret, out)
                if traced:
                    steps = 0 if kind == "verify" else rec["summary"]["work"]
                    rec["trace"] = tracer.call_summary(steps)
                    if job["spans_path"] and not spans_written:
                        with open(job["spans_path"], "w") as fh:
                            json.dump({"seed": seed, "spans": tracer.spans_json()}, fh)
                        spans_written = True
            except Exception:
                rec["error"] = traceback.format_exc(limit=3)
            shutil.rmtree(out, ignore_errors=True)
            kernels.append(reference_kernel())
            rec["kernel_s"] = (kernels[-2] + kernels[-1]) / 2
            calls.append(rec)
        # Stop when under half an iteration is left, so the overshoot averages out.
        if deadline - clock() < (clock() - started) / 2:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # Set-up is rescaled by the worker's median kernel time: one timing is too noisy.
    setup["kernel_s"] = statistics.median(kernels)
    print(json.dumps({"setup": setup, "calls": calls, "peak_rss_mb": rss_mb}))


if __name__ == "__main__":
    main()
