"""Command-line front end.

Single-document contract: every invocation writes exactly one JSON document
(CSV for ``eps-sweep``) to standard output; diagnostics go to standard
error.  Exit codes: 0 success, 2 validation failure, 3 solver
non-convergence (a report is still emitted), 4 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__, jsonio
from .eigensolver import cw_bounds, epsilon_sweep, solve_eigen
from .errors import GrowthcertError, NoConvergence, SchemaError
from .model import (
    Policy,
    gen_exit_model,
    gen_graph_model,
    gen_portfolio_model,
    load_model,
    save_model,
    validate,
)
from .montecarlo import estimate_growth
from .variational import certificate_from_eigen, maximize, stationarity_residual


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def _positive(kind, above=0, below=math.inf):
    """argparse type: a finite ``kind`` value greater than ``above`` and below ``below``."""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not above < value < below:
            limit = "" if below == math.inf else f" and < {below}"
            raise argparse.ArgumentTypeError(f"must be finite and > {above}{limit}, got {text!r}")
        return value

    return parse


def _grid(text):
    """argparse type: comma-separated finite epsilons, each > 0, strictly decreasing."""
    grid = [_positive(float)(v) for v in text.split(",")]
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(f"must be strictly decreasing, got {text!r}")
    return grid


def _build_parser() -> _Parser:
    parser = _Parser(prog="growthcert",
                     description="Certified growth rates of multiplicative rewards "
                                 "on finite controlled chains.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a model file and report feasibility")
    p.add_argument("model")

    p = sub.add_parser("solve", help="certified growth rate with primal/dual witnesses")
    p.add_argument("model")
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.add_argument("--max-iter", type=_positive(int), default=100_000)
    p.add_argument("--eps-fallback", type=_positive(float), default=None)

    p = sub.add_parser("variational",
                       help="primal/dual bracket from Newton steps on the smoothed dual")
    p.add_argument("model")
    p.add_argument("--iters", type=_positive(int), default=500)
    p.add_argument("--tol", type=_positive(float), default=1e-6)

    p = sub.add_parser("bounds", help="Collatz-Wielandt bracket at a supplied vector")
    p.add_argument("model")
    p.add_argument("--f", required=True, metavar="VECTOR_JSON")

    p = sub.add_parser("mc", help="Monte Carlo growth estimate under a policy")
    p.add_argument("model")
    p.add_argument("--policy", required=True, metavar="POLICY_JSON")
    p.add_argument("--n", type=_positive(int), required=True)
    p.add_argument("--paths", type=_positive(int), required=True)
    p.add_argument("--batches", type=_positive(int, above=1), default=20)
    p.add_argument("--x0", type=_positive(int, above=-1), default=0)
    p.add_argument("--seed", type=_positive(int, above=-1, below=2 ** 64), default=0)

    p = sub.add_parser("gen", help="write a model file from a builtin family")
    gsub = p.add_subparsers(dest="family", required=True, parser_class=_Parser)

    g = gsub.add_parser("graph")
    g.add_argument("--adjacency", action="append", required=True, metavar="ROWS",
                   help="0/1 rows separated by ';', one flag per action graph")
    g.add_argument("--out", required=True)

    g = gsub.add_parser("portfolio")
    g.add_argument("--q", required=True, metavar="MATRIX",
                   help="factor chain rows, e.g. '0.9,0.1;0.2,0.8'")
    g.add_argument("--theta", type=float, required=True)
    g.add_argument("--r-bank", type=float, required=True)
    g.add_argument("--grid", required=True, metavar="VECTORS",
                   help="allocation vectors separated by ';', components by ','")
    g.add_argument("--support", required=True, metavar="JSON",
                   help="file with [[ [prob, [w...]], ... ] per (x, y)]")
    g.add_argument("--out", required=True)

    g = gsub.add_parser("exit")
    g.add_argument("--p", action="append", required=True, metavar="MATRIX",
                   help="full transition matrix, one flag per action")
    g.add_argument("--s0", required=True, metavar="INDICES",
                   help="comma-separated exited states, e.g. '0,4'")
    g.add_argument("--out", required=True)

    p = sub.add_parser("eps-sweep", help="growth rates of smoothed companions on a grid")
    p.add_argument("model")
    p.add_argument("--grid", type=_grid, required=True, metavar="EPS,EPS,...")
    p.add_argument("--out", required=True)

    return parser


def _parse_matrix(text: str) -> np.ndarray:
    try:
        return np.array([[float(v) for v in row.split(",")] for row in text.split(";")])
    except ValueError as exc:
        raise SchemaError(f"cannot parse matrix {text!r}: {exc}") from exc


def _parse_adjacency(text: str) -> np.ndarray:
    rows = text.split(";")
    try:
        return np.array([[int(ch) for ch in row] for row in rows])
    except ValueError as exc:
        raise SchemaError(f"cannot parse adjacency {text!r}: {exc}") from exc


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(i) for i in text.split(",")]
    except ValueError as exc:
        raise SchemaError(f"cannot parse indices {text!r}: {exc}") from exc


def _float_array(value, path, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {what} must be a rectangular array of numbers: {exc}") from exc


def _load_vector(path) -> np.ndarray:
    doc = jsonio.load(path, "vector file")
    if not isinstance(doc, list):
        raise SchemaError(f"{path}: vector file must be a JSON array")
    return _float_array(doc, path, "vector")


def _load_policy(path) -> Policy:
    doc = jsonio.load(path, "policy file")
    if not isinstance(doc, dict) or "phi" not in doc:
        raise SchemaError(f"{path}: policy file must be an object with field 'phi'")
    phi = _float_array(doc["phi"], path, "'phi'")
    kind = "deterministic" if np.all(np.isin(phi, (0.0, 1.0))) else "randomized"
    return Policy(phi, kind=kind)


def _policy_doc(policy: Policy) -> dict:
    return {"kind": policy.kind, "phi": policy.phi}


def _report_doc(report) -> dict:
    return {
        "stochastic_ok": report.stochastic_ok,
        "stochastic_violations": [list(v) for v in report.stochastic_violations],
        "a0_plus": report.a0_plus,
        "a1_plus": report.a1_plus,
        "dead_states": list(report.dead_states),
        "gain_irreducible": report.gain_irreducible,
    }


def _cmd_validate(args) -> tuple[str, int]:
    model = load_model(args.model)
    report = validate(model)
    doc = {"model": args.model}
    doc.update(_report_doc(report))
    doc["states"] = model.n_states
    doc["actions"] = model.n_actions
    return jsonio.dumps(doc), 0


def _cmd_solve(args) -> tuple[str, int]:
    t0 = time.perf_counter()
    model = load_model(args.model)
    t1 = time.perf_counter()
    validate(model)
    t2 = time.perf_counter()
    code = 0
    error = None
    try:
        sol = solve_eigen(model, tol=args.tol, max_iter=args.max_iter,
                          eps_fallback=args.eps_fallback)
    except NoConvergence as exc:
        if exc.solution is None:
            raise
        sol = exc.solution
        error = {"type": "NoConvergence", "message": str(exc)}
        code = 3
    t3 = time.perf_counter()
    cert_doc = None
    if sol.converged:
        cert = certificate_from_eigen(model, sol)
        cert_doc = {
            "primal_lower": cert.primal_lower,
            "dual_upper": cert.dual_upper,
            "gap": cert.gap,
            "eta": cert.eta.joint,
            "g": cert.g,
        }
    t4 = time.perf_counter()
    doc = {
        "lambda": sol.log_rho,
        "rho": sol.rho,
        "cw_lower": sol.cw_lower,
        "cw_upper": sol.cw_upper,
        "psi": sol.psi,
        "policy": _policy_doc(sol.v_star),
        "certificate": cert_doc,
        "regularized": sol.regularized,
        "epsilon": sol.epsilon,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "timings_ms": {
            "load": (t1 - t0) * 1e3,
            "validate": (t2 - t1) * 1e3,
            "solve": (t3 - t2) * 1e3,
            "certificate": (t4 - t3) * 1e3,
        },
        "tool_version": __version__,
    }
    if error is not None:
        doc["error"] = error
    return jsonio.dumps(doc), code


def _cmd_variational(args) -> tuple[str, int]:
    model = load_model(args.model)
    code = 0
    error = None
    try:
        cert = maximize(model, iters=args.iters, tol=args.tol)
    except NoConvergence as exc:
        cert = exc.certificate
        error = {"type": "NoConvergence", "message": str(exc)}
        code = 3
    doc = {
        "value": cert.primal_lower,
        "dual_upper": cert.dual_upper,
        "gap": cert.gap,
        "residual": stationarity_residual(cert.eta)[1],
        "eta": cert.eta.joint,
        "tool_version": __version__,
    }
    if error is not None:
        doc["error"] = error
    return jsonio.dumps(doc), code


def _cmd_bounds(args) -> tuple[str, int]:
    model = load_model(args.model)
    f = _load_vector(args.f)
    lower, upper = cw_bounds(model, f)
    return jsonio.dumps({"lower": lower, "upper": upper}), 0


def _cmd_mc(args) -> tuple[str, int]:
    if args.paths % args.batches:
        raise argparse.ArgumentError(
            None, f"--paths ({args.paths}) must be divisible by --batches ({args.batches})")
    model = load_model(args.model)
    if args.x0 >= model.n_states:
        raise argparse.ArgumentError(
            None, f"--x0 {args.x0} does not index a state of this "
                  f"{model.n_states}-state model")
    policy = _load_policy(args.policy)
    est = estimate_growth(model, policy, n=args.n, paths=args.paths,
                          batches=args.batches, x0=args.x0, seed=args.seed)
    doc = {
        "point": est.point,
        "stderr": est.stderr,
        "n": est.n,
        "paths": est.paths,
        "batches": est.batches,
        "seed": est.seed,
        "all_paths_dead": est.all_paths_dead,
    }
    return jsonio.dumps(doc), 0


def _cmd_gen(args) -> tuple[str, int]:
    if args.family == "graph":
        model = gen_graph_model([_parse_adjacency(a) for a in args.adjacency])
    elif args.family == "portfolio":
        grid = [vec.ravel() for vec in map(_parse_matrix, args.grid.split(";"))]
        support_doc = jsonio.load(args.support, "support file")
        if not (isinstance(support_doc, list)
                and all(isinstance(row, list) for row in support_doc)):
            raise SchemaError(f"{args.support}: support file must be a list of lists")
        model = gen_portfolio_model(
            Q=_parse_matrix(args.q),
            w_support=support_doc,
            theta=args.theta,
            r_bank=args.r_bank,
            grid=grid,
        )
    else:
        model = gen_exit_model(
            [_parse_matrix(p) for p in args.p],
            _parse_indices(args.s0),
        )
    save_model(model, args.out)
    doc = {
        "family": args.family,
        "out": args.out,
        "states": model.n_states,
        "actions": model.n_actions,
    }
    return jsonio.dumps(doc), 0


def _cmd_eps_sweep(args) -> tuple[str, int]:
    model = load_model(args.model)
    points = epsilon_sweep(model, args.grid)
    lines = ["epsilon,lambda_eps,converged,iterations"]
    for pt in points:
        lam = "" if pt.lambda_eps is None else jsonio.format_float(pt.lambda_eps)
        lines.append(
            f"{jsonio.format_float(pt.epsilon)},{lam},"
            f"{'true' if pt.converged else 'false'},{pt.iterations}"
        )
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text, 0


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "variational": _cmd_variational,
    "bounds": _cmd_bounds,
    "mc": _cmd_mc,
    "gen": _cmd_gen,
    "eps-sweep": _cmd_eps_sweep,
}


def run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text, code = _COMMANDS[args.command](args)
    except argparse.ArgumentError as exc:  # a usage problem found after parsing
        sys.stderr.write(f"{parser.prog} {args.command}: error: {exc}\n")
        return 4
    except GrowthcertError as exc:
        payload = {"type": type(exc).__name__, "message": str(exc)}
        violations = getattr(exc, "violations", None)
        if violations:
            payload["violations"] = [list(v) for v in violations]
        text, code = jsonio.dumps({"error": payload}), 2
    except (ValueError, OSError) as exc:
        text = jsonio.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
        code = 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run())
