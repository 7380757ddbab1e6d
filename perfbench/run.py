"""Planted-instance benchmark of kktstab.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload analyze-sdp --seed 1 --seconds 25 --trace 0

Workloads: analyze-sdp, analyze-nlp, solve-sdp (see workloads.py).  Each
run generates the workload's planted instances from the seed, loads them
through the library's validating loader and runs a closed loop on one
thread: one op (an ``equivalence_report`` plus its canonical dump, or a
``solve``) starts when the previous one ends.  The loop cycles through
the instance set, completes at least one pass, and stops at the first op
that ends after ``--seconds``.  BLAS is pinned to one thread before numpy
loads.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (half the time untraced, half traced, which also
gives the tracing overhead).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Records of
each run (environment, every metric, spans) go to ``.perfbench/`` in the
checkout.  The exit code is 1 when an output check fails and 2 when the
library sources are missing.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
SUBPROCESS_TIMEOUT = 120
TAIL_BEYOND = 10  # ops beyond the tail percentile

# per-layer metrics: name -> (unit, source kind, source name)
#   span_s: total span seconds per op; span_n: span count per op;
#   self_s: span self seconds per op; counter: counter value per op
PER_LAYER = {
    "stability.rcq_s": ("s/op", "span_s", "stability.rcq"),
    "stability.srcq_s": ("s/op", "span_s", "stability.srcq"),
    "stability.uniqueness_s": ("s/op", "span_s", "stability.uniqueness"),
    "stability.ssosc_s": ("s/op", "span_s", "stability.ssosc"),
    "stability.nondegeneracy_s": ("s/op", "span_s", "stability.nondegeneracy"),
    "stability.sweep_s": ("s/op", "span_s", "stability.sweep"),
    "stability.probe_s": ("s/op", "span_s", "stability.probe"),
    "stability.uniqueness_calls": ("count/op", "span_n", "stability.uniqueness"),
    "stability.kkt_checks": ("count/op", "span_n", "stability.kkt_check"),
    "stability.lp_solves": ("count/op", "span_n", "stability.linprog"),
    "stability.probe_solves": ("count/op", "span_n", "problem.linearized_solve"),
    "stability.probe_failures": ("count/op", "counter", "stability.probe_failures"),
    "pieces.cone_projections": ("count/op", "span_n", "pieces.cone_projection"),
    "pieces.cone_projection_s": ("s/op", "span_s", "pieces.cone_projection"),
    "pieces.clarke_element_calls": ("count/op", "span_n", "pieces.clarke_element"),
    "pieces.clarke_element_s": ("s/op", "span_s", "pieces.clarke_element"),
    "pieces.prox_calls": ("count/op", "span_n", "pieces.prox"),
    "pieces.prox_s": ("s/op", "span_s", "pieces.prox"),
    "pieces.sample_clarke_s": ("s/op", "span_s", "pieces.sample_clarke"),
    "pieces.cone_descriptors_calls": ("count/op", "span_n", "pieces.cone_descriptors"),
    "pieces.gamma_calls": ("count/op", "span_n", "pieces.gamma"),
    "symmat.eig_split_calls": ("count/op", "span_n", "symmat.eig_split"),
    "symmat.eig_split_s": ("s/op", "span_s", "symmat.eig_split"),
    "symmat.conjugation_matrix_calls": ("count/op", "span_n", "symmat.conjugation_matrix"),
    "symmat.conjugation_matrix_s": ("s/op", "span_s", "symmat.conjugation_matrix"),
    "symmat.svec_calls": ("count/op", "span_n", "symmat.svec"),
    "symmat.smat_calls": ("count/op", "span_n", "symmat.smat"),
    "problem.residual_calls": ("count/op", "span_n", "problem.residual"),
    "problem.residual_s": ("s/op", "span_s", "problem.residual"),
    "problem.sample_elements_s": ("s/op", "span_s", "problem.sample_elements"),
    "problem.elements_assembled": ("count/op", "counter", "problem.elements_assembled"),
    "problem.elements_kept": ("count/op", "counter", "problem.elements_kept"),
    "problem.element_bytes": ("B/op", "counter", "problem.element_bytes"),
    "problem.linearized_solves": ("count/op", "span_n", "problem.linearized_solve"),
    "newton.solves": ("count/op", "counter", "newton.solves"),
    "newton.iterations": ("count/op", "counter", "newton.iterations"),
    "newton.backtracks": ("count/op", "counter", "newton.backtracks"),
    "newton.ridge_steps": ("count/op", "counter", "newton.ridge_steps"),
    "newton.max_iter_hits": ("count/op", "counter", "newton.max_iter_hits"),
    "newton.stagnations": ("count/op", "counter", "newton.stagnations"),
    "newton.linalg_errors": ("count/op", "counter", "newton.linalg_errors"),
    "newton.element_s": ("s/op", "span_s", "newton.element"),
    "newton.residual_s": ("s/op", "span_s", "newton.residual"),
    "newton.self_s": ("s/op", "self_s", "newton.solve"),
    "reports.dump_s": ("s/op", "span_s", "reports.dump"),
}
# per-layer metrics of the whole run rather than per op
RUN_LAYER = {
    "stability.cone_search_share": "ratio",
    "instances.load_s": "s",
    "setup.import_s": "s",
    "setup.scipy_optimize_import_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}


def fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_library():
    """Import kktstab from this checkout's sources, never from elsewhere."""
    if not (SRC / "kktstab" / "__init__.py").is_file():
        fail(f"no library sources at {SRC / 'kktstab'}", 2)
    sys.path.insert(0, str(SRC))
    import kktstab

    if Path(kktstab.__file__).resolve().parent != (SRC / "kktstab").resolve():
        fail(f"kktstab imported from {kktstab.__file__}, not from {SRC}", 2)
    return kktstab


def setup_probe(workload_name: str, seed: int) -> None:
    """Time import, generation and loading in this fresh interpreter."""
    t0 = time.perf_counter()
    import_library()
    t1 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    instances = workloads.generate(workload, seed)
    t2 = time.perf_counter()
    workloads.load(instances)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0,
                      "generate_s": t2 - t1, "load_s": t3 - t2}))


def run_setup_probes(workload_name: str, seed: int) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT, check=False)
        if proc.returncode != 0:
            fail(f"setup probe failed:\n{proc.stderr}", 1)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def scipy_optimize_import_s() -> float:
    """Cumulative import time of scipy.optimize under ``import kktstab``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import kktstab"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=SUBPROCESS_TIMEOUT, check=False)
    if proc.returncode != 0:
        fail(f"import probe failed:\n{proc.stderr}", 1)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            return int(parts[1]) * 1e-6
    return 0.0


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(kk, workload, args) -> dict:
    import numpy as np
    import scipy

    import workloads

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kktstab": kk.__version__,
        "git_sha": git_sha(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": workloads.parameters(workload),
    }


# ----------------------------------------------------------------------
# the closed loop


class Window:
    """Ops of one measured window, in the order they ran.  ``seconds`` are
    wall times, ``scaled`` the same times at nominal host speed."""

    def __init__(self):
        self.slots: list[int] = []
        self.seconds: list[float] = []
        self.scaled: list[float] = []
        self.results: list = []
        self.elapsed = 0.0

    @property
    def ops(self) -> int:
        return len(self.seconds)


def measure(op, check, instances, loaded, seconds: float, tracer=None) -> Window:
    """Ops in passes over the instances until ``seconds`` have elapsed and
    the first pass is complete.  Only the op is timed and traced; its
    check runs after.  The reference kernel runs before every op and once
    after the last."""
    import workloads
    from reference import Reference
    from tracer import NO_OP

    win = Window()
    ref = Reference()
    t_start = time.perf_counter()
    while win.elapsed < seconds or win.ops < len(instances):
        for k, (inst, (problem, meta)) in enumerate(zip(instances, loaded)):
            ref.sample()
            span = None
            if tracer is not None:
                tracer.op = win.ops
                span = tracer.open("op")
            t0 = time.perf_counter()
            try:
                out = op(problem, meta, inst)
            except Exception as exc:  # a failed op is counted, the loop goes on
                out = workloads.OpResult(failed=True, error=f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(span)
                tracer.op = NO_OP
            res = out if isinstance(out, workloads.OpResult) else check(problem, inst, out)
            if win.ops >= len(instances):
                res.dump = ""  # only the first pass's reports are kept
            win.slots.append(k)
            win.seconds.append(t1 - t0)
            win.results.append(res)
            win.elapsed = t1 - t_start
            if win.elapsed >= seconds and win.ops >= len(instances):
                break
    ref.sample()
    win.scaled = [t * ref.scale_at(i) for i, t in enumerate(win.seconds)]
    return win


def tail(seconds: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND ops beyond it,
    and the op time at that percentile (nearest rank).  With too few ops
    for any percentile, (100, the slowest op)."""
    n = len(seconds)
    ordered = sorted(seconds)
    for q in range(99, 0, -1):
        rank = -(-q * n // 100)  # ceil(q n / 100), 1-based
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    return 100, ordered[-1]


def op_time_metrics(seconds: list[float]) -> dict[str, float]:
    """Throughput over the summed op times, median and tail op time."""
    return {"ops_per_s": len(seconds) / sum(seconds),
            "op_s.p50": statistics.median(seconds),
            "op_s.tail": tail(seconds)[1]}


def first_pass_fractions(win: Window, n_instances: int, op_kind: str) -> dict:
    """Failure, mismatch and inconsistency shares over the first pass,
    where every instance runs once; they repeat exactly for a seed."""
    first = win.results[:n_instances]
    done = [r for r in first if not r.failed]
    out = {"fail_frac": sum(r.failed for r in first) / len(first),
           "mismatch_frac": (sum(r.mismatch for r in done) / len(done)) if done else 1.0}
    if op_kind == "analyze":
        out["inconsistent_frac"] = (sum(r.inconsistent for r in done) / len(done)) if done else 1.0
    return out


def per_layer_metrics(tracer, ops: set[int]) -> dict[str, float]:
    spans = tracer.summary(ops)
    counters = tracer.counter_totals(ops)
    n = max(len(ops), 1)
    out = {}
    for name, (_, kind, source) in PER_LAYER.items():
        rec = spans.get(source, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        value = {"span_s": rec["total_s"], "span_n": rec["count"],
                 "self_s": rec["self_s"], "counter": counters.get(source, 0.0)}[kind]
        out[name] = value / n
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze-sdp", "analyze-nlp", "solve-sdp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args) -> int:
    kk = import_library()
    import workloads
    from tracer import Tracer, install

    workload = workloads.WORKLOADS[args.workload]
    env = environment(kk, workload, args)
    probes = run_setup_probes(workload.name, args.seed)

    instances = workloads.generate(workload, args.seed)
    t0 = time.perf_counter()
    loaded = workloads.load(instances)
    load_s = time.perf_counter() - t0
    op, check = workloads.make_op(workload, args.seed)
    # one untimed op for lazy set-up; its report is compared below
    warmup = check(loaded[0][0], instances[0], op(*loaded[0], instances[0]))

    errors: list[str] = []
    record: dict = {"environment": env, "setup_probes": probes}
    if args.trace == 0:
        win = measure(op, check, instances, loaded, args.seconds)
        windows = [win]
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            **op_time_metrics(win.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record["tail_percentile"] = tail(win.scaled)[0]
        record["wall"] = {**op_time_metrics(win.seconds),
                          "window_ops_per_s": win.ops / win.elapsed}
        record["fractions"] = first_pass_fractions(win, len(instances), workload.op)
    else:
        plain = measure(op, check, instances, loaded, args.seconds / 2)
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            traced = measure(op, check, instances, loaded, args.seconds / 2, tracer)
        finally:
            uninstall()
        windows = [plain, traced]
        metrics = per_layer_metrics(tracer, set(range(traced.ops)))
        spans = tracer.summary()
        cone_search = sum(spans.get(f"stability.{stage}", {}).get("total_s", 0.0)
                          for stage in ("rcq", "srcq", "uniqueness"))
        metrics.update({
            "stability.cone_search_share": cone_search / spans["op"]["total_s"],
            "instances.load_s": load_s,
            "setup.import_s": statistics.median(p["import_s"] for p in probes),
            "setup.scipy_optimize_import_s": scipy_optimize_import_s(),
            "trace.overhead": statistics.mean(traced.scaled) / statistics.mean(plain.scaled) - 1.0,
            "trace.coverage": tracer.coverage("op"),
        })
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()} | RUN_LAYER
        record["fractions"] = first_pass_fractions(plain, len(instances), workload.op)
        record["span_summary"] = spans
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{workload.name}-s{args.seed}.npz")

    for w in windows:
        for res in w.results:
            if res.check_error and res.check_error not in errors:
                errors.append(res.check_error)
    if workload.op == "analyze":
        if warmup.dump != windows[0].results[0].dump:
            errors.append("two same-seed reports of one instance dump differently")
    attempted = sum(w.ops for w in windows)
    failed = sum(r.failed for w in windows for r in w.results)
    record.update({
        "windows": [{"ops": w.ops, "elapsed_s": w.elapsed,
                     "op_seconds": w.seconds, "slots": w.slots,
                     "errors": sorted({r.error for r in w.results if r.error})}
                    for w in windows],
        "metrics": metrics, "check_errors": errors,
    })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("environment " + json.dumps(env))
    print("fractions " + json.dumps(record["fractions"]))
    if args.trace == 0:
        print(f"ops {win.ops} in {win.elapsed:.3f} s; "
              f"op_s.tail is p{record['tail_percentile']}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    _args = parse_args(sys.argv[1:])
    if _args.setup_probe:
        setup_probe(_args.workload, _args.seed)
    else:
        sys.exit(run(_args))
