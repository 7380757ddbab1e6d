"""Command line front end.

Subcommands: solve, analyze, probe, verify.  Exit codes: 0 on success (and
on a consistent equivalence report), 2 when the equivalence report is
inconsistent or undecided, 1 on errors, 64 on usage errors.  The default
seed comes from the KKTSTAB_SEED environment variable when a command
omits --seed; a seed that is not an integer of at least 0, in either
place, is a usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from ._version import __version__
from .instances import InstanceFormatError, load_instance
from .newton import InsufficientTraceError, NewtonError, NewtonOptions, local_rate
from .problem import DimensionError, residual
from .reports import emit_report
from .symmat import EigenDecompositionError
from .stability import (
    AnalyzerOptions,
    CurvatureDomainError,
    UnsupportedCaseError,
    equivalence_report,
    strong_regularity_probe,
)
from .verify import run_suite
from . import problem as problem_mod

USAGE_EXIT = 64

# the options that take a point, and the start of a value that reads as a
# negative number: "-1,2", "-.5;1" or "-inf,0"
_POINT_OPTIONS = ("--start", "--at")
_NEGATIVE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _joined_points(argv: list[str]) -> list[str]:
    """argv with each point option, or its abbreviation, followed by a value
    that begins like a negative number written as one token,
    ``--start=value``: argparse reads such a value, unless it is one plain
    number, as an option, and the point option as missing its value."""
    out: list[str] = []
    for arg in argv:
        if (out and len(out[-1]) > 2 and any(o.startswith(out[-1]) for o in _POINT_OPTIONS)
                and _NEGATIVE.match(arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _seed(args) -> int:
    """The command's seed: --seed, else KKTSTAB_SEED, else 0; a usage error
    unless it is an integer of at least 0."""
    if args.seed is not None:
        if args.seed < 0:
            raise _UsageError(f"--seed must be an integer of at least 0, got {args.seed}")
        return args.seed
    raw = os.environ.get("KKTSTAB_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise _UsageError(f"KKTSTAB_SEED must be an integer of at least 0, got {raw!r}")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(prog="kktstab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kktstab {__version__}")
    sub = parser.add_subparsers(dest="command")

    p_solve = sub.add_parser("solve", help="run the semismooth Newton solver")
    p_solve.add_argument("instance")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--max-iter", type=int, default=100)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--start", type=str, default=None,
                         help="comma separated n+m start coordinates")
    p_solve.add_argument("--json", type=str, default=None)

    p_an = sub.add_parser("analyze", help="run every stability check and the "
                                          "equivalence cross-check")
    p_an.add_argument("instance")
    p_an.add_argument("--at", type=str, default=None,
                      help="comma separated n+m point; defaults to the "
                           "instance's known solution")
    p_an.add_argument("--seed", type=int, default=None)
    p_an.add_argument("--tol", type=float, default=1e-8)
    p_an.add_argument("--num-delta", type=int, default=50)
    p_an.add_argument("--radius", type=float, default=0.05)
    p_an.add_argument("--json", type=str, default=None)

    p_pr = sub.add_parser("probe", help="sample the perturbed linearized "
                                        "inclusion for strong regularity")
    p_pr.add_argument("instance")
    p_pr.add_argument("--at", type=str, default=None)
    p_pr.add_argument("--radius", type=float, default=0.05)
    p_pr.add_argument("--num-delta", type=int, default=50)
    p_pr.add_argument("--seed", type=int, default=None)
    p_pr.add_argument("--tol", type=float, default=1e-8)
    p_pr.add_argument("--json", type=str, default=None)

    p_vf = sub.add_parser("verify", help="run the invariant suites")
    p_vf.add_argument("--suite", choices=("prox", "kkt", "all"), default="all")
    p_vf.add_argument("--seed", type=int, default=None)
    p_vf.add_argument("--json", type=str, default=None)
    return parser


def _parse_point_arg(problem, text: str):
    vals = np.array([float(t) for t in text.replace(";", ",").split(",") if t.strip()])
    if vals.size != problem.n + problem.m:
        raise DimensionError(
            f"--at/--start needs {problem.n + problem.m} values, got {vals.size}")
    return vals


def _analysis_point(problem, meta, at_text):
    if at_text is not None:
        return _parse_point_arg(problem, at_text)
    if meta.known_solution is not None:
        return meta.known_solution
    raise ValueError("no analysis point: pass --at or add known_solution to the file")


def _cmd_solve(args) -> int:
    problem, meta = load_instance(args.instance)
    if args.start is not None:
        start = _parse_point_arg(problem, args.start)
    elif meta.start is not None:
        start = meta.start
    elif meta.known_solution is not None:
        start = meta.known_solution
    else:
        start = np.zeros(problem.n + problem.m)
    opts = NewtonOptions(tol=args.tol, max_iter=args.max_iter)
    try:
        z, trace = problem_mod.solve(problem, start, opts)
    except NewtonError as exc:
        print(f"solve failed: {exc}")
        # the element of iteration k moved the iterate of residual k; the
        # last iterate's element has no entry when its line search collapsed
        svs = exc.trace.element_min_sv
        for k, rn in enumerate(exc.trace.residual_norms):
            sv = f"  sigma_min {svs[k]:.3e}" if k < len(svs) else ""
            print(f"  iter {k:3d}  residual {rn:.6e}{sv}")
        return 1
    rnorm = float(np.linalg.norm(residual(problem, z), np.inf))
    try:
        rate = local_rate(trace)
    except InsufficientTraceError:
        rate = "n/a"
    print(f"instance {meta.name}: converged in {trace.iterations} iterations")
    print(f"  x  = {np.array2string(np.asarray(z.x), precision=12)}")
    print(f"  mu = {np.array2string(np.asarray(z.mu), precision=12)}")
    print(f"  final residual {rnorm:.3e}, local rate {rate}")
    if args.json:
        payload = {
            "instance": meta.name,
            "x": list(map(float, np.atleast_1d(z.x))),
            "mu": list(map(float, np.atleast_1d(z.mu))),
            "final_residual": rnorm,
            "status": trace.status,
            "rate": rate,
            "residual_norms": trace.residual_norms,
            "step_lengths": trace.step_lengths,
            "element_min_singular_value_bounds": trace.element_min_sv,
        }
        emit_report(payload, args.json, kind="newton", seed=args.seed,
                    tolerances={"tol": args.tol})
    return 0


def _cmd_analyze(args) -> int:
    problem, meta = load_instance(args.instance)
    point = _analysis_point(problem, meta, args.at)
    opts = AnalyzerOptions(seed=args.seed, tol=args.tol, num_delta=args.num_delta,
                           radius=args.radius)
    report = equivalence_report(problem, point, opts)
    print(f"instance {meta.name}")
    print(f"  rcq            : {report.rcq.status} ({report.rcq.detail})")
    print(f"  srcq           : {report.srcq.status} ({report.srcq.detail})")
    print(f"  nondegeneracy  : {report.nondegeneracy.status} "
          f"({report.nondegeneracy.detail})")
    print(f"  multiplier     : {'unique' if report.multiplier_unique else 'not unique'}")
    ss = report.ssosc
    extra = f", min eig {ss.min_eigenvalue:.3e}" if hasattr(ss, "min_eigenvalue") else ""
    print(f"  second order   : {ss.status}{extra}")
    print(f"  element sweep  : {report.sweep.verdict} "
          f"(exact, margin {report.sweep.margin:.3e} over "
          f"{report.sweep.n_elements} elements)")
    print(f"  probe          : modulus {report.probe.modulus:.3e}, "
          f"{report.probe.violations} violations, {report.probe.failures} failures "
          f"({_probe_detail(report.probe)})")
    print(f"  consistency    : {report.consistency['verdict']}"
          + (f" ({report.consistency['disagreement']})"
             if report.consistency["disagreement"] else ""))
    if args.json:
        emit_report(report, args.json, kind="stability", seed=args.seed,
                    tolerances=report.tolerances)
    return 0 if report.consistency["verdict"] == "consistent" else 2


def _probe_detail(stats) -> str:
    """The local pieces of the probe's local model, and its first failure."""
    return f"{stats.pieces} local pieces" + (f"; {stats.failure}" if stats.failure else "")


def _cmd_probe(args) -> int:
    problem, meta = load_instance(args.instance)
    point = _analysis_point(problem, meta, args.at)
    stats = strong_regularity_probe(problem, point, AnalyzerOptions(
        radius=args.radius, num_delta=args.num_delta, seed=args.seed, tol=args.tol))
    print(f"instance {meta.name}: probe over {stats.num_delta} perturbations, "
          f"radius {stats.radius}")
    print(f"  solved {stats.solved}, failures {stats.failures}, "
          f"uniqueness violations {stats.violations}")
    print(f"  Lipschitz modulus estimate {stats.modulus:.6e}")
    print(f"  local model: {_probe_detail(stats)}")
    if args.json:
        emit_report(stats, args.json, kind="probe", seed=args.seed,
                    tolerances={"kkt": args.tol})
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok = all_ok and ok
    if args.json:
        payload = [{"check": n, "passed": bool(ok), "detail": d}
                   for n, ok, d in results]
        emit_report(payload, args.json, kind="verify", seed=args.seed, tolerances={})
    return 0 if all_ok else 1


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_joined_points(argv))
        if args.command is not None:
            args.seed = _seed(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    handler = {
        "solve": _cmd_solve,
        "analyze": _cmd_analyze,
        "probe": _cmd_probe,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (InstanceFormatError, DimensionError, UnsupportedCaseError, CurvatureDomainError,
            EigenDecompositionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
