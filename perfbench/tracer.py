"""In-memory span tracer that wraps the library's layer entry points.

Spans are recorded in flat arrays (name id, start, end, parent index, op
id) and written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls run on one
thread, so children never overlap.

Python binds imported names at import time, so ``install`` replaces a
function in every ``kktstab`` module namespace that holds it, and
replaces methods on the piece classes that define them.  Nothing inside
the library is edited.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

NO_PARENT = -1
NO_OP = -1
RIDGE_SV = 1e-10  # semismooth_solve's ridge-fallback threshold

# layers whose spans are kept only at the layer boundary: a call from one
# piece or symmat function into another of the same layer is not a span
OUTERMOST_LAYERS = frozenset({"pieces", "symmat"})


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self._layers: list[str] = []
        self.op = NO_OP
        self.counters: dict[int, Counter] = defaultdict(Counter)

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self._layers.append(name.split(".", 1)[0])
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        top = self._stack.pop()
        self._layers.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.op][name] += value

    def in_layer(self, layer: str) -> bool:
        return bool(self._layers) and self._layers[-1] == layer

    def wrap(self, fn, name: str, on_exit=None):
        """Return fn recorded as span ``name``.

        ``on_exit(result, exc, args, kwargs)`` runs after the call with the
        result or the exception it raised.
        """
        layer = name.split(".", 1)[0]
        outermost = layer in OUTERMOST_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and self.in_layer(layer):
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if on_exit is not None:
                    on_exit(None, exc, args, kwargs)
                raise
            self.close(idx)
            if on_exit is not None:
                on_exit(result, None, args, kwargs)
            return result

        return traced

    # -- summaries -------------------------------------------------------
    def durations(self) -> tuple[list[float], list[float]]:
        """(duration, self time) of every span."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def summary(self, ops: set[int] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self seconds, over the given ops
        (every op when None; spans outside an op are left out)."""
        dur, self_t = self.durations()
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name_id):
            op = self.op_id[i]
            if op == NO_OP or (ops is not None and op not in ops):
                continue
            rec = out.setdefault(self.names[nid], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            rec["count"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += self_t[i]
        return out

    def counter_totals(self, ops: set[int] | None = None) -> Counter:
        total: Counter = Counter()
        for op, c in self.counters.items():
            if op != NO_OP and (ops is None or op in ops):
                total.update(c)
        return total

    def coverage(self, op_span: str = "op") -> float:
        """Share of op-span time covered by their direct child spans."""
        dur, _ = self.durations()
        op_nid = self._name_ids.get(op_span)
        op_time = 0.0
        covered = 0.0
        for i, nid in enumerate(self.name_id):
            if nid == op_nid:
                op_time += dur[i]
            elif self.parent[i] != NO_PARENT and self.name_id[self.parent[i]] == op_nid:
                covered += dur[i]
        return covered / op_time if op_time > 0 else 0.0

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, "i4"),
                 start=np.frombuffer(self.start, "f8"), end=np.frombuffer(self.end, "f8"),
                 parent=np.frombuffer(self.parent, "i4"), op=np.frombuffer(self.op_id, "i4"))


# ----------------------------------------------------------------------
# patching the library


def _replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Bind ``replacement`` wherever a kktstab module holds ``original``."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "kktstab" or modname.startswith("kktstab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def _patch_method(cls, attr: str, replacement) -> tuple[object, str, object]:
    original = cls.__dict__[attr]
    setattr(cls, attr, replacement)
    return (cls, attr, original)


def _newton_counters(tracer: Tracer, newton_mod, np_linalg):
    def on_exit(result, exc, args, kwargs):
        tracer.count("newton.solves")
        if exc is None:
            trace = result[1]
        elif isinstance(exc, newton_mod.NewtonError):
            trace = exc.trace
            if isinstance(exc, newton_mod.NewtonNonConvergence):
                tracer.count("newton.max_iter_hits")
            elif isinstance(exc, newton_mod.NewtonStagnation):
                tracer.count("newton.stagnations")
        else:
            if isinstance(exc, np_linalg.LinAlgError):
                tracer.count("newton.linalg_errors")
            return
        opts = args[3] if len(args) > 3 else kwargs.get("opts")
        factor = (opts or newton_mod.NewtonOptions()).backtrack_factor
        tracer.count("newton.iterations", trace.iterations)
        tracer.count("newton.backtracks", sum(
            int(round(math.log(a) / math.log(factor))) for a in trace.step_lengths if a > 0))
        tracer.count("newton.ridge_steps", sum(1 for s in trace.element_min_sv if s < RIDGE_SV))

    return on_exit


def install(tracer: Tracer):
    """Wrap the layer entry points of the imported kktstab package.

    Returns a function that undoes every replacement.
    """
    import numpy as np

    from kktstab import newton, pieces, problem, reports, stability, symmat

    undo: list[tuple[object, str, object]] = []

    def everywhere(fn, name, on_exit=None):
        undo.extend(_replace_everywhere(fn, tracer.wrap(fn, name, on_exit)))

    # stability stages and the calls they make into other layers
    for fn, name in [(stability.rcq_check, "stability.rcq"),
                     (stability.srcq_check, "stability.srcq"),
                     (stability.multiplier_uniqueness, "stability.uniqueness"),
                     (stability.ssosc_check, "stability.ssosc"),
                     (stability.nondegeneracy_check, "stability.nondegeneracy"),
                     (stability.nonsingularity_sweep, "stability.sweep"),
                     (stability.strong_regularity_probe, "stability.probe")]:
        everywhere(fn, name)
    for attr, name in [("linprog", "stability.linprog"), ("kkt_check", "stability.kkt_check")]:
        original = getattr(stability, attr)
        setattr(stability, attr, tracer.wrap(original, name))
        undo.append((stability, attr, original))

    # problem layer
    def on_assembled(result, exc, args, kwargs):
        if exc is None:
            tracer.count("problem.elements_assembled")
            tracer.count("problem.element_bytes", result.matrix.size * result.matrix.itemsize)

    def on_sampled(result, exc, args, kwargs):
        if exc is None:
            tracer.count("problem.elements_kept", len(result))

    def on_linearized(result, exc, args, kwargs):
        if isinstance(exc, (newton.NewtonError, np.linalg.LinAlgError)):
            tracer.count("stability.probe_failures")

    everywhere(problem.residual, "problem.residual")
    everywhere(problem.sample_elements_R, "problem.sample_elements", on_sampled)
    everywhere(problem.assemble_element, "problem.assemble_element", on_assembled)
    everywhere(problem.solve_linearized_ge, "problem.linearized_solve", on_linearized)

    # Newton solver: the residual and element callbacks become child spans,
    # so the solver's self time is its SVDs and linear solves
    newton_exit = _newton_counters(tracer, newton, np.linalg)
    original_solve = newton.semismooth_solve

    def semismooth_solve(residual, element, z0, *rest, **kwargs):
        return original_solve(tracer.wrap(residual, "newton.residual"),
                              tracer.wrap(element, "newton.element"), z0, *rest, **kwargs)

    functools.update_wrapper(semismooth_solve, original_solve)
    undo.extend(_replace_everywhere(
        original_solve, tracer.wrap(semismooth_solve, "newton.solve", newton_exit)))

    # symmetric-matrix kernels
    for fn in (symmat.eig_split, symmat.conjugation_matrix, symmat.svec, symmat.smat):
        everywhere(fn, f"symmat.{fn.__name__}")

    # piece methods, on every class that defines them
    def wrap_cone(method):
        traced = tracer.wrap(method, "pieces.cone")

        @functools.wraps(method)
        def cone_method(self, *args, **kwargs):
            outer = not tracer.in_layer("pieces")
            cone = traced(self, *args, **kwargs)
            if not outer:
                return cone
            return dataclasses.replace(
                cone, project=tracer.wrap(cone.project, "pieces.cone_projection"))

        return cone_method

    method_spans = {"prox": "pieces.prox", "prox_conjugate": "pieces.prox",
                    "clarke_element": "pieces.clarke_element",
                    "sample_clarke": "pieces.sample_clarke",
                    "cone_descriptors": "pieces.cone_descriptors",
                    "gamma": "pieces.gamma"}
    classes = [c for c in vars(pieces).values()
               if isinstance(c, type) and issubclass(c, pieces.ConvexPiece)]
    for cls in classes:
        for attr, name in method_spans.items():
            if attr in cls.__dict__:
                undo.append(_patch_method(cls, attr, tracer.wrap(cls.__dict__[attr], name)))
        for attr in ("critical_polar_cone", "domain_normal_cone"):
            if attr in cls.__dict__:
                undo.append(_patch_method(cls, attr, wrap_cone(cls.__dict__[attr])))

    everywhere(reports.dumps_report, "reports.dump")

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
