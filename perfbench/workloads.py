"""Workload definitions: planted instance sets, the op each workload runs,
and the check of every op's output against the planted truth.

The library is reached only through its public functions
(``instance_from_dict``, ``equivalence_report``, ``solve``, ``kkt_check``,
``dumps_report``), looked up on the package at call time so that a traced
run sees the wrapped versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import kktstab as kk
import planted

SOLVE_TOL = 1e-10       # Newton residual target of solve-sdp
SOLVE_POINT_TOL = 1e-6  # distance to the planted point, relative to 1 + |z|
SOLVE_START_OFFSET = 1e-3

# Reduced analyzer settings shared by both analyze workloads.  The CLI
# defaults (1000 restarts, 50 deltas, 100 Newton iterations) cost 24-72 s
# per order-3 report, too long for a run measured in seconds.
ANALYZER = {"count": 32, "num_delta": 4, "radius": 0.05, "srcq_budget": 20,
            "newton_max_iter": 10}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str                 # "analyze" or "solve"
    slots: tuple            # one generator call per instance
    analyzer: dict = field(default_factory=dict)


def interleave(slots: tuple) -> tuple:
    """The slots in stride order, so that every stretch of consecutive ops
    mixes small and large instances and the labels."""
    k = len(slots)
    stride = next(s for s in range(round(0.3 * k), k) if math.gcd(s, k) == 1)
    return tuple(slots[(j * stride) % k] for j in range(k))


# Planted labels (nondegenerate, second order), cycled over each size grid:
# half strongly regular, a quarter failing each condition.
LABELS = ((True, True), (False, True), (True, True), (True, False))

# (order, |alpha|, |beta|, nondegenerate, second order): six index
# structures with nonempty beta, each under every label
SDP_SLOTS = interleave(tuple((order, na, nb) + labels
                             for order, na, nb in ((2, 1, 1), (2, 0, 1), (3, 1, 1),
                                                   (3, 0, 2), (4, 2, 1), (4, 1, 2))
                             for labels in LABELS))
# (n, blocks, nondegenerate, second order): n from 10 to 50, 2.5 variables
# per block, clipped to 5-20 blocks
NLP_SLOTS = interleave(tuple((n, min(20, max(5, round(n / 2.5)))) + LABELS[j % 4]
                             for j, n in enumerate(10 + round(40 * j / 47) for j in range(48))))
# PSD order; the plants are strongly regular with |beta| = 0, |gamma| = 2
SOLVE_ORDERS = interleave(tuple(range(10, 31)))

WORKLOADS = {
    "analyze-sdp": Workload(
        "analyze-sdp",
        "equivalence_report on epi-lifted PSD pencils of order 2-4 with nonempty beta: "
        "cone searches, PSD projections and stalled probe solves",
        "analyze", SDP_SLOTS, ANALYZER),
    "analyze-nlp": Workload(
        "analyze-nlp",
        "equivalence_report on polyhedral instances, n 10-50 with 5-20 blocks: "
        "exact LP path and many-block element sweep, no PSD work",
        "analyze", NLP_SLOTS, ANALYZER),
    "solve-sdp": Workload(
        "solve-sdp",
        "solve on strongly regular PSD pencils of order 10-30 from near the planted point: "
        "Clarke elements and dense Newton algebra, no stability work",
        "solve", SOLVE_ORDERS),
}


@dataclass
class Instance:
    data: dict
    plant: planted.Plant
    start: np.ndarray | None = None


def generate(workload: Workload, seed: int) -> list[Instance]:
    """The workload's planted instance dicts, from the seed alone."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    out = []
    for k, slot in enumerate(workload.slots):
        name = f"{workload.name}-{seed}-{k}"
        if workload.name == "analyze-sdp":
            order, na, nb, nd, so = slot
            data, plant = planted.psd_pencil(rng, order, na, nb, nd, so, name=name)
            out.append(Instance(data, plant))
        elif workload.name == "analyze-nlp":
            n, blocks, nd, so = slot
            data, plant = planted.polyhedral(rng, n, blocks, nd, so, name=name)
            out.append(Instance(data, plant))
        else:
            order = slot
            data, plant = planted.psd_pencil(rng, order, order - 2, 0, True, True,
                                             extra_vars=2, name=name)
            z = np.concatenate([plant.x, plant.mu])
            start = z + SOLVE_START_OFFSET * (1.0 + np.abs(z)) * rng.standard_normal(z.size)
            data["start"] = {"x": start[:plant.x.size].tolist(),
                             "mu": start[plant.x.size:].tolist()}
            out.append(Instance(data, plant, start))
    return out


def load(instances: list[Instance]) -> list:
    """(problem, meta) of each instance; the loader validates the planted
    point against the KKT system and raises on any defect."""
    return [kk.instance_from_dict(inst.data) for inst in instances]


# ----------------------------------------------------------------------
# ops and their checks


@dataclass
class OpResult:
    failed: bool = False
    mismatch: bool = False
    inconsistent: bool = False
    error: str = ""
    dump: str = ""          # canonical report text (analyze)
    check_error: str = ""   # an output check that failed (aborts the run)


def analyzer_options(workload: Workload, seed: int):
    a = workload.analyzer
    return kk.AnalyzerOptions(count=a["count"], num_delta=a["num_delta"],
                              radius=a["radius"], seed=seed,
                              srcq_budget=a["srcq_budget"],
                              newton=kk.NewtonOptions(max_iter=a["newton_max_iter"]))


def second_order_matches(status: str, plant: planted.Plant) -> bool:
    """A report skips the second-order check when the multiplier is not
    unique, which the theory allows only where nondegeneracy fails."""
    if status == "skipped":
        return not plant.nondegenerate
    return (status == "holds") == plant.second_order


def analyze(problem, meta, opts):
    """One analyze op: the report and its canonical dump, as the CLI's
    ``analyze --json`` makes them."""
    report = kk.equivalence_report(problem, meta.known_solution, opts)
    return report, kk.dumps_report(report, kind="stability", seed=opts.seed,
                                   tolerances=report.tolerances)


def check_analyze(problem, inst: Instance, out) -> OpResult:
    report, dump = out
    plant = inst.plant
    mismatch = ((report.nondegeneracy.status == "holds") != plant.nondegenerate
                or not second_order_matches(report.ssosc.status, plant))
    return OpResult(mismatch=mismatch,
                    inconsistent=report.consistency["verdict"] == "inconsistent",
                    dump=dump)


def check_solve(problem, inst: Instance, out, tol: float) -> OpResult:
    z, _ = out
    got = np.concatenate([z.x, z.mu])
    want = np.concatenate([inst.plant.x, inst.plant.mu])
    res = OpResult(mismatch=bool(np.max(np.abs(got - want))
                                 > SOLVE_POINT_TOL * (1.0 + np.max(np.abs(want)))))
    if not kk.kkt_check(problem, z, tol=tol).ok:
        res.check_error = f"{inst.data['name']}: converged point fails kkt_check at {tol:g}"
    return res


def make_op(workload: Workload, seed: int):
    """(op, check) for the workload.  ``op(problem, meta, instance)`` is
    the timed call; ``check(problem, instance, output)`` compares its
    output with the planted truth afterwards.  A solve that does not
    converge raises NewtonError, which the loop counts as a failed op."""
    if workload.op == "analyze":
        opts = analyzer_options(workload, seed)
        return (lambda problem, meta, inst: analyze(problem, meta, opts)), check_analyze
    opts = kk.NewtonOptions(tol=SOLVE_TOL)
    return ((lambda problem, meta, inst: kk.solve(problem, inst.start, opts)),
            (lambda problem, inst, out: check_solve(problem, inst, out, opts.tol)))


def parameters(workload: Workload) -> dict:
    """Workload parameters for the environment record."""
    out = {"op": workload.op, "slots": [list(s) if isinstance(s, tuple) else s
                                        for s in workload.slots]}
    if workload.op == "analyze":
        out["analyzer"] = dict(workload.analyzer)
    else:
        out.update(newton_tol=SOLVE_TOL, point_tol=SOLVE_POINT_TOL,
                   start_offset=SOLVE_START_OFFSET)
    return out
