"""Timed passes of CLI calls through ``growthcert.cli.run``, in-process.

Run by ``run.py`` in a process of its own, so that the peak resident memory
it reports covers only the package and the passes, not input generation or
the oracles.  Usage::

    python3 worker.py PLAN_JSON RESULT_JSON

The plan names the checkout's ``src`` directory, the calls of one pass, the
seconds to measure and whether to trace.  One untimed warm-up pass runs
first; timed passes then start until the time is used up (at least three).
The result holds the wall time and exit codes of every timed pass, the
stdout of the warm-up and last passes, the peak RSS and, when tracing, the
spans recorded around each layer's public functions.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time

# Public functions timed in a traced run: (module, function) -> (layer, count).
# ``count`` maps (args, result) to the layer's work count for that call.
TRACED = {
    ("model", "load_model"): ("model.load", lambda args, r: os.path.getsize(args[0]) / 1e6),
    ("model", "validate"): ("model.validate", None),
    ("eigensolver", "solve_eigen"): ("eigensolver.solve", lambda args, r: r.iterations),
    ("variational", "certificate_from_eigen"): ("variational.certificate", None),
    ("variational", "maximize"): ("variational.maximize", None),
    ("montecarlo", "estimate_growth"): ("montecarlo.estimate", lambda args, r: r.paths * r.n),
    ("jsonio", "dumps"): ("jsonio.emit", lambda args, r: len(r) / 1e6),
}


class Tracer:
    """Spans around wrapped calls, kept in memory: layer, pass, parent, start, end, count."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.pass_index = -1

    def wrap(self, layer, fn, count):
        def traced(*args, **kwargs):
            span = {"layer": layer, "pass": self.pass_index,
                    "parent": self.stack[-1] if self.stack else None, "count": 0}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span["count"] = count(args, result)
                return result
            except Exception as exc:
                if count is not None:  # a solver out of budget still did its iterations
                    span["count"] = getattr(exc, "iterations", 0)
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
        return traced

    def install(self):
        """Replace each traced function in every growthcert module that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "growthcert" or name.startswith("growthcert.")]
        for (mod, name), (layer, count) in TRACED.items():
            original = getattr(sys.modules[f"growthcert.{mod}"], name)
            wrapper = self.wrap(layer, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import growthcert
    import growthcert.cli

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(growthcert.__file__).startswith(src + os.sep):
        raise SystemExit(f"growthcert was imported from {growthcert.__file__}, not {src}")
    tracer = Tracer() if plan["trace"] else None
    if tracer is not None:
        tracer.install()

    calls = plan["calls"]
    real_stdout = sys.stdout

    def run_pass():
        outs, codes = [], []
        start = time.perf_counter()
        for argv in calls:
            buf = io.StringIO()
            sys.stdout = buf
            try:
                codes.append(growthcert.cli.run(argv))
            finally:
                sys.stdout = real_stdout
            outs.append(buf.getvalue())
        return time.perf_counter() - start, codes, outs

    _, warm_codes, warm_outs = run_pass()
    pass_s, codes, last_outs = [], [], None
    began = time.perf_counter()
    while len(pass_s) < 3 or time.perf_counter() - began < plan["seconds"]:
        if tracer is not None:
            tracer.pass_index = len(pass_s)
        elapsed, pass_codes, last_outs = run_pass()
        pass_s.append(elapsed)
        codes.append(pass_codes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "pass_s": pass_s,
        "codes": codes,
        "warm_codes": warm_codes,
        "warm_outs": warm_outs,
        "last_outs": last_outs,
        "peak_rss_mb": peak_kb / 1024.0,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
