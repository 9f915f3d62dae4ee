"""growthcert benchmark: end-to-end and per-layer figures for the three routes.

Run from the root of a checkout::

    python3 bench/run.py --workload bulk --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --self-check

A run writes the workload's inputs from ``--seed``, then runs ``worker.py``
in its own process: one warm-up pass and timed passes of CLI calls for
``--seconds``.  Fresh imports of ``growthcert.cli`` are timed before and
after the passes (``setup_s``).  Every output of the last pass is checked
against the oracles in ``oracles.py``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans around each module's public functions) with
``--trace 1``.  See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread: under the default two, a 200x200 np.linalg.solve takes
# either ~0.6 ms or ~130 ms from call to call, which no median over a few
# passes absorbs.  This sets the benchmark's own processes (this one before
# numpy loads, and every child); the program is unchanged.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import workloads  # noqa: E402  (numpy must see the thread setting above)
from worker import TRACED  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Fresh starts timed before the passes and again after them: the host's
# speed drifts over tens of seconds, so the median of starts taken at two
# moments a run apart moves less from run to run than that of one burst.
SETUP_STARTS = 3

LAYERS = tuple(layer for layer, _ in TRACED.values())


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONSTARTUP", None)
    return env


def setup_times(starts: int, first: bool) -> list[float]:
    """Wall times of fresh interpreters importing growthcert.cli."""
    cmd = [sys.executable, "-c", "import growthcert.cli"]
    if first:
        subprocess.run(cmd, env=child_env(), check=True, timeout=60)  # writes bytecode once
    times = []
    for _ in range(starts):
        # no timeout here: with one, subprocess polls for the exit in 50 ms steps
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True)
        times.append(time.perf_counter() - start)
    return times


def run_worker(calls, seconds: int, trace: bool, workdir: Path) -> dict:
    plan, result = workdir / "plan.json", workdir / "result.json"
    workloads.write_json(plan, {"src": str(SRC), "calls": [c.argv for c in calls],
                                "seconds": seconds, "trace": trace})
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan), str(result)],
                   env=child_env(), check=True, timeout=seconds + 100)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _comparable(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(doc, dict):
        doc.pop("timings_ms", None)
    return doc


def verify(calls, res: dict) -> list[str]:
    """Oracle problems with the run; an empty list means every output is correct."""
    errs = []
    if any(codes != res["warm_codes"] for codes in res["codes"]):
        errs.append("exit codes differ between passes")
    for i, (call, code) in enumerate(zip(calls, res["warm_codes"])):
        out, warm = res["last_outs"][i], res["warm_outs"][i]
        if _comparable(out) != _comparable(warm):
            errs.append(f"call {i}: output of the last pass differs from the warm-up pass")
        if code == 0:
            errs += [f"call {i} ({call.argv[0]}): {e}" for e in workloads.check(call, out)]
        elif call.kind != "variational" or code != 3:
            errs.append(f"call {i} ({call.argv[0]}): unexpected exit code {code}")
    return errs


def layer_metrics(calls, res: dict) -> dict:
    """Per-layer figures: medians over the timed passes of per-pass totals."""
    spans = res["spans"]
    sums = [defaultdict(float) for _ in res["pass_s"]]
    for span in spans:
        if span["pass"] < 0:  # warm-up pass
            continue
        dur = span["end"] - span["start"]
        row = sums[span["pass"]]
        row[f"{span['layer']}_s"] += dur
        row[f"{span['layer']}#"] += span["count"]
        if span["parent"] is None:
            row["top"] += dur
        else:  # self time: a child's time is not its parent's
            row[f"{spans[span['parent']]['layer']}_s"] -= dur
    per_pass = []
    for row, total in zip(sums, res["pass_s"]):
        mc_s = row["montecarlo.estimate_s"]
        per_pass.append({f"{layer}_s": row[f"{layer}_s"] for layer in LAYERS} | {
            "model.input_mb": row["model.load#"],
            "eigensolver.iterations": row["eigensolver.solve#"],
            "jsonio.output_mb": row["jsonio.emit#"],
            "montecarlo.path_steps_per_s": row["montecarlo.estimate#"] / mc_s if mc_s else 0.0,
            "cli.overhead_s": total - row["top"],
        })
    metrics = {key: statistics.median(row[key] for row in per_pass) for key in per_pass[0]}
    gaps = [call.extra["log_rho"] - json.loads(out)["value"]
            for call, out in zip(calls, res["last_outs"]) if call.kind == "variational"]
    metrics["variational.gap_to_lambda"] = statistics.fmean(gaps) if gaps else 0.0
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool,
        sizes: dict = workloads.FULL) -> dict:
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if trace else setup_times(SETUP_STARTS, first=True)
        calls = workloads.build(workload, seed, workdir, sizes)
        res = run_worker(calls, seconds, trace, workdir)
        errs = verify(calls, res)
        if trace:
            metrics = layer_metrics(calls, res)
        else:
            setup += setup_times(SETUP_STARTS, first=False)
            metrics = {"setup_s": statistics.median(setup),
                       "pass_s": statistics.median(res["pass_s"]),
                       "peak_rss_mb": res["peak_rss_mb"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errs:
        print(f"{workload}: {e}", file=sys.stderr)
    codes = res["codes"]
    summary = {
        "correct": not errs,
        "attempted": sum(len(c) for c in codes),
        "failed": sum(code != 0 for c in codes for code in c),
        "metrics": metrics,
    }
    with open(OUT / f"{workload}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(summary | {"seed": seed, "pass_s": res["pass_s"], "spans": res["spans"]}, fh)
    return summary


def self_check() -> int:
    """Every workload on tiny inputs, both modes, plus oracles shown to reject bad outputs."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            summary = run(workload, seed=7, seconds=1, trace=trace, sizes=workloads.TINY)
            print(f"{workload} trace={int(trace)}: correct={summary['correct']} "
                  f"attempted={summary['attempted']} failed={summary['failed']}")
            ok &= summary["correct"]
    workdir = OUT / f"self-check-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # each output moved just past its oracle's tolerance must be rejected
        tampers = (("iterate", 0, "lambda", lambda doc: 1e-7),  # a cycle solve
                   ("bulk", -1, "point", lambda doc: 7 * doc["stderr"]))  # the mc call
        for workload, index, key, delta in tampers:
            call = workloads.build(workload, 7, workdir, workloads.TINY)[index]
            res = run_worker([call], 1, False, workdir)
            doc = json.loads(res["last_outs"][0])
            moved = delta(doc)
            doc[key] += moved
            rejected = bool(workloads.check(call, json.dumps(doc)))
            print(f"{workload}: oracle rejects {key} moved by {moved:.3g}: {rejected}")
            ok &= rejected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload on tiny inputs through the oracles")
    args = parser.parse_args()
    if not (SRC / "growthcert" / "cli.py").is_file():
        print(f"no growthcert sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload is required, with --seed >= 0 and --seconds >= 1")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(summary["metrics"]) != set(units):
        raise SystemExit(f"metrics {sorted(summary['metrics'])} differ from BENCHMARK.json")
    summary["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in summary["metrics"].items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
