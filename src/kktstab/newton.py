"""Damped semismooth Newton method on nonsmooth residual maps.

The driver works on any residual/element pair; the KKT front end in
:mod:`kktstab.problem` supplies the composite-problem specifics.  The
element callback returns dense matrices or an :class:`ElementStack`,
which screens its own Newton steps (by LU on the dense matrices here, on
a reduced system for the KKT elements kept in their blocks' frames) and
bounds each element's least singular value from above through a solve
against a fixed unit probe vector (in the frames' coordinates for framed
elements); only an element whose bound is small, or that follows a
singular one, gets an exact svd of its dense matrix, which only then is
formed for a framed element, and a singular one takes a
ridge-regularized least-squares step.  The svd and
the ridge Gram matrix are computed once per distinct element over the
current and the previous iteration, since rows of one stack, and
consecutive iterates of one row, often hold the same element.  Steps are
globalized by Armijo backtracking on half the squared residual norm, in
rounds that try several step lengths of the backtracking sequence at once:
round 0 runs from the full step down to the length that the row took in
its previous iteration, and each later round tries twice as many of the
row's next lengths as its round before.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-10
    max_iter: int = 100
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    min_step: float = 1e-12
    regularization_floor: float = 1e-12

    def __post_init__(self):
        for name in ("tol", "armijo_c", "min_step", "regularization_floor"):
            check_positive(name, getattr(self, name))
        if isinstance(self.backtrack_factor, bool) or not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError(
                f"backtrack_factor must lie in (0, 1), got {self.backtrack_factor!r}")
        check_integer("max_iter", self.max_iter, 1)


def check_positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless value is a finite positive number."""
    if isinstance(value, bool) or not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def check_integer(name: str, value: int, least: int) -> None:
    """Raise ValueError naming ``name`` unless value is an integer (not a
    bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


@dataclass
class NewtonTrace:
    residual_norms: list[float] = field(default_factory=list)
    step_lengths: list[float] = field(default_factory=list)
    element_min_sv: list[float] = field(default_factory=list)
    status: str = "running"

    @property
    def iterations(self) -> int:
        return len(self.step_lengths)


class NewtonError(RuntimeError):
    def __init__(self, message: str, trace: NewtonTrace):
        super().__init__(message)
        self.trace = trace


class NewtonNonConvergence(NewtonError):
    """Iteration limit reached before the residual target."""


class NewtonStagnation(NewtonError):
    """Line search collapsed below the minimal step length."""


class InsufficientTraceError(ValueError):
    """The trace is too short for rate classification."""


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each pair of rows, with the bits of np.dot on one pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _each_row(fn: Callable, *stacks: np.ndarray) -> tuple[np.ndarray | None, dict[int, Exception]]:
    """fn on whole stacks, or on each row alone when that raises.

    Returns the stacked results of the rows that did not raise and the
    exception of each row that did, by position.  A stacked LAPACK call or
    callback fails as a whole when one row fails; redone row by row, the
    error stays with the row that causes it.
    """
    try:
        return fn(*stacks), {}
    except Exception as exc:  # kept as the outcome of the row that raised it
        if len(stacks[0]) == 1:
            return None, {0: exc}
    outs, errors = [], {}
    for i in range(len(stacks[0])):
        try:
            outs.append(fn(*(s[i:i + 1] for s in stacks)))
        except Exception as exc:
            errors[i] = exc
    if not outs:
        return None, errors
    return (type(outs[0]).concatenate(outs) if isinstance(outs[0], ElementStack)
            else np.concatenate(outs)), errors


def _nan_rows(out: np.ndarray | None, errors: dict[int, Exception],
              shape: tuple[int, ...]) -> np.ndarray:
    """The stacked results of :func:`_each_row` at full size, with NaN rows
    where a row raised."""
    full = np.full(shape, np.nan)
    if out is not None:
        full[np.delete(np.arange(shape[0]), list(errors))] = out
    return full


RIDGE_SV = 1e-10  # an element with sigma_min below this takes a ridge step
SCREEN_SV = 1e-6  # a row whose bound on sigma_min falls below this gets an svd


@functools.cache
def _probe_vector(n: int) -> np.ndarray:
    """The unit probe vector of dimension n: fixed, so that a row's bits
    never depend on the stack it is solved in."""
    g = np.random.default_rng(0).standard_normal(n)
    g /= np.sqrt(np.dot(g, g))
    g.flags.writeable = False
    return g


def _screen(E: np.ndarray, r: np.ndarray, rr: np.ndarray,
            probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The LU steps ``E s = -r`` of a stack of rows and an upper bound on
    each row's sigma_min.

    One stacked ``solve(E, [-r | probe])`` gives the step and a solve
    against the unit probe vector; ``min(|r| / |s|, 1 / |E^-1 probe|)``
    bounds sigma_min(E) from above (Dixon 1983).  ``rr`` holds ``r . r`` of
    each row.  A row whose solve raised gets NaN columns, so its bound is
    NaN.
    """
    k, n = r.shape
    B = np.empty((k, n, 2))
    B[:, :, 0] = -r
    B[:, :, 1] = probe
    X, errors = _each_row(np.linalg.solve, E, B)
    if errors:
        X = _nan_rows(X, errors, B.shape)
    SY = X.transpose(2, 0, 1).copy()
    ss, yy = (SY[:, :, None, :] @ SY[:, :, :, None])[:, :, 0, 0]  # _rowdot of each
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return SY[0], np.minimum(np.sqrt(rr / ss), 1.0 / np.sqrt(yy))


class ElementStack:
    """The generalized-derivative elements of a stack of rows, as the driver
    uses them; this base class holds dense matrices (k, N, N).

    A subclass keeps its elements in another form and supplies the same
    three operations: ``screen`` (the Newton steps and an upper bound on
    each element's sigma_min), ``dense`` (the matrices of some rows, for
    the svd and the ridge step) and ``apply`` (each element times its
    row's step).  Rows are selected with ``[]`` and joined with
    ``concatenate``.
    """

    def __init__(self, matrices: np.ndarray):
        self.matrices = matrices

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, rows) -> ElementStack:
        return ElementStack(self.matrices[rows])

    @staticmethod
    def concatenate(stacks: list[ElementStack]) -> ElementStack:
        return ElementStack(np.concatenate([s.matrices for s in stacks]))

    def screen(self, r: np.ndarray, rr: np.ndarray,
               probe: Callable[[int], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The steps ``E s = -r`` of the rows and an upper bound on each
        element's sigma_min, NaN where it cannot be had; ``probe(d)`` is the
        fixed unit probe vector of dimension d."""
        return _screen(self.matrices, r, rr, probe(r.shape[1]))

    def dense(self, rows: np.ndarray) -> np.ndarray:
        """The dense element matrices of the given rows, (len(rows), N, N)."""
        return self.matrices[rows]

    def apply(self, S: np.ndarray) -> np.ndarray:
        """``E s`` for each row's element and step."""
        return (self.matrices @ S[..., None])[..., 0]


def _newton_steps(E: ElementStack, r: np.ndarray, rr: np.ndarray, floor: float,
                  was_singular: np.ndarray, known: dict
                  ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception], dict]:
    """Newton steps ``E s = -r`` for a stack of rows, screened for near
    singular elements.

    Each row is screened by ``E.screen``, except the rows whose previous
    element was singular (``was_singular``), which go straight to the svd.
    A row whose bound falls below SCREEN_SV (which includes every row whose
    solve raised or is not finite) gets the exact sigma_min of its dense
    element: below RIDGE_SV it takes the ridge-regularized least-squares
    step, else it keeps its screened step, solved again by LU only if that
    raised, is not finite or was skipped.

    The svd and the ridge Gram matrix ``E^T E + tau I`` run once per
    distinct element, keyed by its bytes; ``known`` holds them, or the
    exception the svd raised, for the elements of the previous iteration.
    Every row that holds an element shares its values, which are the bits
    its own svd would give, and ends with its exception.  The right-hand
    side ``-E^T r``, the solve and the LU screen stay per row.

    Returns the steps, one value per row that is the exact sigma_min on the
    rows the svd confirmed and the bound elsewhere (so always exact below
    SCREEN_SV), the exception of each row that failed, by position, and
    the decompositions of this iteration's elements, for the next one.
    """
    k, n = r.shape
    if was_singular.any():  # a bound of 0 sends a row to the svd
        S, bound = np.full((k, n), np.nan), np.zeros(k)
        lu = ~was_singular
        if lu.any():
            S[lu], bound[lu] = E[lu].screen(r[lu], rr[lu], _probe_vector)
    else:
        S, bound = E.screen(r, rr, _probe_vector)
    screened = bound >= SCREEN_SV  # a non-finite column makes the bound 0 or NaN
    if screened.all():
        return S, bound, {}, {}
    rows = (~screened).nonzero()[0]
    D = E.dense(rows)  # D[pos] is the element of row rows[pos]
    keys = [M.tobytes() for M in D]
    seen = {key: known[key] for key in keys if key in known}
    new = {key: pos for pos, key in enumerate(keys) if key not in seen}
    if new:
        svals, sv_errors = _each_row(lambda M: np.linalg.svd(M, compute_uv=False),
                                     D[list(new.values())])
        firsts = list(new.items())
        seen.update((firsts[pos][0], exc) for pos, exc in sv_errors.items())
        firsts = [first for pos, first in enumerate(firsts) if pos not in sv_errors]
        for (key, pos), sv in zip(firsts, svals if firsts else ()):
            gram = None
            if sv[-1] < RIDGE_SV:
                # ridge-regularized least squares keeps the iteration alive in
                # degenerate regions; the analyzer reports the degeneracy itself
                tau = max(floor, 1e-10 * float(sv[0]))
                gram = D[pos].T @ D[pos] + tau * np.eye(n)
            seen[key] = (sv[-1], gram)
    errors, redo, A, b = {}, [], [], []
    for j, M, key in zip(rows, D, keys):
        if isinstance(seen[key], Exception):
            errors[int(j)] = seen[key]
            continue
        bound[j], gram = seen[key]
        if gram is not None:
            A.append(gram)
            b.append(-M.T @ r[j])
        elif not np.isfinite(S[j]).all():
            A.append(M)
            b.append(-r[j])
        else:
            continue
        redo.append(j)
    if redo:
        steps, redo_errors = _each_row(lambda M, v: np.linalg.solve(M, v[..., None])[..., 0],
                                       np.array(A), np.array(b))
        errors.update((redo[pos], exc) for pos, exc in redo_errors.items())
        redo = np.delete(redo, list(redo_errors))
        if redo.size:
            S[redo] = steps
    return S, bound, errors, seen


def _step_lengths(lengths: np.ndarray, k: int, opts: NewtonOptions) -> np.ndarray:
    """The one-row loop's step lengths 1, f, f**2, ... (``alpha *= f`` for
    the backtrack factor f), extended from ``lengths`` to k of them, or to
    the last one not below ``min_step``."""
    if lengths.size >= k:
        return lengths
    out = lengths.tolist()
    while len(out) < k and out[-1] * opts.backtrack_factor >= opts.min_step:
        out.append(out[-1] * opts.backtrack_factor)
    return np.array(out)


def _trials(rows: np.ndarray, start: np.ndarray,
            count: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trials of one line-search round in which rows[j] tries the step
    lengths start[j], ..., start[j] + count[j] - 1 (count[j] >= 1): the row
    and the length index of each trial, and the position of each row's
    first trial."""
    firsts = np.cumsum(count) - count
    owner = np.repeat(rows, count)
    return owner, np.arange(owner.size) + np.repeat(start - firsts, count), firsts


def semismooth_solve_rows(residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          element: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          Z0: np.ndarray,
                          opts: NewtonOptions | None = None) -> list:
    """Run one semismooth Newton iteration per row of Z0, in lock-step.

    Parameters
    ----------
    residual : callable
        ``residual(Z, rows)`` maps a stack of points (k, N) to their
        residuals (k, N); ``rows`` holds the index into Z0 of each point,
        repeated for the trials of one row.
    element : callable
        ``element(Z, rows)`` maps a stack of points to one
        generalized-derivative matrix per row, (k, N, N), or to an
        :class:`ElementStack` of k rows.
    Z0 : ndarray
        Starting points, one per row.

    Returns one entry per row: ``(z, trace)`` for a converged row, else the
    exception that ended it, as ``semismooth_solve`` raises it for that
    row alone (NewtonNonConvergence, NewtonStagnation, a LinAlgError, an
    error from a callback, or a ValueError for a start that is not finite,
    whose residual is not finite or whose squared residual norm
    overflows).  Every row takes the steps, the line-search
    trials and the arithmetic of its own solve, bit for bit.  Each
    iteration makes one element call and one screen of the elements (for
    dense matrices, one stacked LU solve of the step and of a fixed probe
    vector) for the rows still running; only the rows whose bound on
    sigma_min falls below SCREEN_SV, or whose previous element was
    singular, get an svd of their dense element (see
    :func:`_newton_steps`), once for each distinct element of the current
    and the previous iteration: the rows that hold the same matrix, bit for
    bit, share its svd and ridge Gram matrix, and its svd error.  Each
    line-search round makes one residual call for the rows still
    searching, each row on its own trials of the one-row loop's step
    lengths 1, f, f**2, ... (``alpha *= backtrack_factor``, cut at
    ``min_step``): round 0 tries every length from 1 down to the one the
    row took in its previous iteration (only 1 in its first), and each
    later round twice as many of the row's next lengths as its round
    before, so the ``residual`` stack may hold a row several times.  Where
    every row took the full step, round 0 is one trial per row.  A row
    takes its first trial, in order, that raises or passes the Armijo
    test; the later trials of its round are discarded, and so is an
    exception they raise.  A trace's ``element_min_sv`` holds, per
    iteration, the exact sigma_min of the element where the svd ran and
    the upper bound elsewhere.
    """
    opts = opts or NewtonOptions()
    Z = np.array(Z0, dtype=float, ndmin=2)
    outcomes: list = [None] * len(Z)
    traces = [NewtonTrace() for _ in Z]
    finite = np.isfinite(Z).all(axis=1)
    for i in (~finite).nonzero()[0]:
        outcomes[i] = ValueError("starting point must be finite")
    # the state of the running rows only: row j of Z, R and rnorm is the
    # point, residual and residual norm of row act[j] of Z0
    act = finite.nonzero()[0]
    if not act.size:
        return outcomes
    Z = Z[act]

    def drop(errors: dict[int, Exception], rows: np.ndarray,
             *arrays: np.ndarray) -> list[np.ndarray]:
        """End rows[pos] with its exception for each pos in errors; return
        the arrays without those positions."""
        if not errors:
            return list(arrays)
        keep = np.ones(len(rows), dtype=bool)
        for pos, exc in errors.items():
            outcomes[rows[pos]] = exc
            keep[pos] = False
        return [a[keep] for a in arrays]

    def elements(Z: np.ndarray, rows: np.ndarray) -> ElementStack:
        E = element(Z, rows)
        return E if isinstance(E, ElementStack) else ElementStack(np.asarray(E, dtype=float))

    # a start whose residual, or its squared norm, is not finite leaves no
    # merit to descend on: it ends at once, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        R, errors = _each_row(residual, Z, act)
        bad = [] if R is None else (~np.isfinite(_rowdot(R, R))).nonzero()[0]
    act, Z = drop(errors, act, act, Z)
    act, Z, R = drop({j: ValueError("squared residual norm at the starting point overflows"
                                    if np.isfinite(R[j]).all() else
                                    "residual at the starting point is not finite")
                      for j in bad}, act, act, Z, R)
    if not act.size:
        return outcomes
    rnorm = np.abs(R).max(axis=1)
    for i, rn in zip(act.tolist(), rnorm.tolist()):
        traces[i].residual_norms.append(rn)
    min_sv = np.full(act.size, np.inf)  # of each row's previous element
    back = np.zeros(act.size, dtype=int)  # the index of each row's previous step length
    lengths = np.ones(1)  # the one-row loop's step lengths, as far as a row has tried them
    known: dict = {}  # the decompositions of the previous iteration's elements

    for _ in range(opts.max_iter):
        done = rnorm <= opts.tol
        if done.any():
            for j in done.nonzero()[0]:
                traces[act[j]].status = "converged"
                outcomes[act[j]] = (Z[j].copy(), traces[act[j]])
            act, Z, R, rnorm, min_sv, back = (a[~done] for a in (act, Z, R, rnorm, min_sv, back))
            if not act.size:
                break
        E, errors = _each_row(elements, Z, act)
        act, Z, R, rnorm, min_sv, back = drop(errors, act, act, Z, R, rnorm, min_sv, back)
        if not act.size:
            break
        rr = _rowdot(R, R)
        S, min_sv, errors, known = _newton_steps(E, R, rr, opts.regularization_floor,
                                                 min_sv < RIDGE_SV, known)
        act, Z, R, rnorm, E, rr, S, min_sv, back = drop(errors, act, act, Z, R, rnorm, E, rr,
                                                        S, min_sv, back)
        if not act.size:
            break
        merit = 0.5 * rr
        slope = _rowdot(E.apply(S), R)  # derivative of the merit along s
        slope = np.where(slope >= 0.0, -2.0 * merit, slope)

        # backtracking in rounds over the rows still searching, each row on
        # its own trials of the one-row loop's step lengths: round 0 tries
        # 1 down to the length that the row took in its previous iteration,
        # and each later round the row's next lengths, twice as many as in
        # its previous round, all in one residual call.  A row takes its
        # first trial that raises or passes the Armijo test; Z and R take
        # each accepted trial in place
        alpha = np.empty(act.size)  # each row's accepted step length
        moved = np.zeros(act.size, dtype=bool)
        search = np.arange(act.size)
        count = back + 1  # each row's trials in its current round
        nxt = np.zeros(act.size, dtype=int)  # the index of each row's first trial in it
        if back.any():
            owner, at, firsts = _trials(search, nxt, count)
            Z_new = Z[owner] + lengths[at][:, None] * S[owner]
        else:  # every row took the full step: one trial per row, of length index 0
            owner = firsts = search
            at, Z_new = nxt, Z + S  # read before nxt moves on
        while True:
            R_new, errors = _each_row(residual, Z_new, act[owner])
            raised = np.zeros(owner.size, dtype=bool)
            if errors:
                raised[list(errors)] = True
                R_new = _nan_rows(R_new, errors, Z_new.shape)
            trial = lengths[at]
            merit_new = 0.5 * _rowdot(R_new, R_new)
            ok = merit_new <= merit[owner] + opts.armijo_c * trial * slope[owner]
            if not errors and ok[firsts].all():
                Z[search], R[search] = Z_new[firsts], R_new[firsts]
                alpha[search], back[search] = trial[firsts], at[firsts]
                moved[search] = True
                break
            hits = np.where(ok | raised, np.arange(owner.size), owner.size)
            pick = np.minimum.reduceat(hits, firsts)  # each row's first hit
            found = pick < owner.size
            pick[~found] = 0
            take = found & ~raised[pick]
            Z[search[take]], R[search[take]] = Z_new[pick[take]], R_new[pick[take]]
            alpha[search[take]], back[search[take]] = trial[pick[take]], at[pick[take]]
            moved[search[take]] = True
            for j, t in zip(search[found & ~take], pick[found & ~take]):
                outcomes[act[j]] = errors[t]
            search = search[~found]
            if not search.size:
                break
            nxt[search] += count[search]
            count[search] *= 2
            lengths = _step_lengths(lengths, int((nxt[search] + count[search]).max()), opts)
            count[search] = np.minimum(count[search], lengths.size - nxt[search])
            for j in search[count[search] == 0]:  # no length left above min_step
                i = act[j]
                traces[i].status = "stagnated"
                outcomes[i] = NewtonStagnation(
                    f"line search collapsed at residual {rnorm[j]:.3e}", traces[i])
            search = search[count[search] > 0]
            if not search.size:
                break
            owner, at, firsts = _trials(search, nxt[search], count[search])
            Z_new = Z[owner] + lengths[at][:, None] * S[owner]
        if not moved.all():
            act, Z, R, alpha, min_sv, back = (a[moved] for a in (act, Z, R, alpha, min_sv, back))
        rnorm = np.abs(R).max(axis=1)
        for i, rn, a, sv in zip(act.tolist(), rnorm.tolist(), alpha.tolist(), min_sv.tolist()):
            traces[i].residual_norms.append(rn)
            traces[i].step_lengths.append(a)
            traces[i].element_min_sv.append(sv)
        if not act.size:
            break

    for j, i in enumerate(act):
        if rnorm[j] <= opts.tol:
            traces[i].status = "converged"
            outcomes[i] = (Z[j].copy(), traces[i])
        else:
            traces[i].status = "max_iter"
            outcomes[i] = NewtonNonConvergence(
                f"no convergence in {opts.max_iter} iterations, residual {rnorm[j]:.3e}",
                traces[i])
    return outcomes


def _pointwise(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """A map of one point as a row callback: one call per row of the stack
    (the trials of a line-search round), a single call for a single row."""
    def rows_fn(Z: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if len(Z) == 1:
            return np.asarray(fn(Z[0]))[None]
        return np.array([fn(z) for z in Z])
    return rows_fn


def semismooth_solve(residual: Callable, element: Callable, z0: np.ndarray,
                     opts: NewtonOptions | None = None, *,
                     stacked: bool = False) -> tuple[np.ndarray, NewtonTrace]:
    """Drive z to a zero of the residual map.

    Parameters
    ----------
    residual : callable
        Maps a point to the residual vector.
    element : callable
        Maps a point to one generalized-derivative matrix of the residual.
    z0 : ndarray
        Finite starting point.
    stacked : bool
        When true, ``residual`` and ``element`` are row callbacks
        ``fn(Z, rows)`` as in :func:`semismooth_solve_rows`, so that each
        line-search round evaluates its trials in one call.

    This is the one-row case of :func:`semismooth_solve_rows`.
    """
    if not stacked:
        residual, element = _pointwise(residual), _pointwise(element)
    outcome, = semismooth_solve_rows(residual, element, np.asarray(z0, dtype=float)[None], opts)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


NOISE_FLOOR = 1e-14


def local_rate(trace: NewtonTrace) -> str:
    """Classify the tail convergence rate of a converged trace.

    Returns one of 'quadratic', 'superlinear', 'linear', 'none'.  The
    quadratic verdict requires log e_{k+1} / log e_k >= 1.8 on the last
    comparable pairs above the noise floor; residuals that drop straight
    below the floor terminate the comparable tail (finite termination is
    faster than any measurable rate, not evidence against one).
    """
    if trace.status != "converged" or trace.iterations < 2:
        raise InsufficientTraceError(
            "rate classification needs a converged trace with at least 2 iterations")
    e = [max(v, 0.0) for v in trace.residual_norms]
    # comparable pairs: the log ratio is meaningful (e_k safely below 1),
    # or the residual fell straight below the noise floor, which is faster
    # than any measurable rate and scores as +inf
    ratios = []
    for a, b in zip(e, e[1:]):
        if a <= NOISE_FLOOR:
            continue
        if b <= NOISE_FLOOR:
            ratios.append(np.inf)
        elif a < 0.5:
            ratios.append(np.log(b) / np.log(a))
    tail = ratios[-3:]
    if tail:
        if min(tail) >= 1.8:
            return "quadratic"
        if min(tail) >= 1.1:
            return "superlinear"
    lin_pairs = [(a, b) for a, b in zip(e, e[1:]) if a > NOISE_FLOOR]
    if len(lin_pairs) >= 2 and all(b <= 0.9 * a for a, b in lin_pairs[-3:]):
        return "linear"
    return "none"
