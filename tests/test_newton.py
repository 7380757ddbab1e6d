import math

import numpy as np
import pytest

from kktstab import (
    InsufficientTraceError,
    NewtonError,
    NewtonNonConvergence,
    NewtonOptions,
    NewtonStagnation,
    NewtonTrace,
    load_battery,
    local_rate,
    residual,
    semismooth_solve,
    solve,
)
from kktstab import newton as newton_mod
from kktstab import problem as problem_mod
from kktstab.newton import _probe_vector
from kktstab.verify import newton_start_grid


def test_solve_nlp_from_spec_start():
    problem, meta = load_battery("nlp_toy")
    z, trace = solve(problem, meta.start, NewtonOptions(tol=1e-10))
    assert trace.iterations <= 10
    assert np.allclose(z.x, [1.0], atol=1e-9)
    assert np.allclose(z.mu, [1.0, 1.0], atol=1e-9)
    assert np.linalg.norm(residual(problem, z), np.inf) <= 1e-10


def test_solve_sdp_from_spec_start():
    problem, meta = load_battery("sdp_toy")
    z, trace = solve(problem, meta.start, NewtonOptions(tol=1e-10))
    assert np.allclose(z.x, [0.0], atol=1e-9)
    assert np.allclose(z.mu, [1.0, -1.0, 0.0, 0.0], atol=1e-9)
    assert np.linalg.norm(residual(problem, z), np.inf) <= 1e-10


def test_solve_returns_immediately_at_solution():
    problem, meta = load_battery("nlp_toy")
    z, trace = solve(problem, meta.known_solution)
    assert trace.iterations == 0
    assert np.allclose(z.stacked(), meta.known_solution.stacked())


def test_solve_rejects_nonfinite_start():
    problem, _ = load_battery("nlp_toy")
    with pytest.raises(ValueError):
        solve(problem, np.array([np.nan, 0.0, 0.0]))


def test_a_start_whose_residual_is_not_finite_ends_at_once():
    # a residual that overflows (or is NaN) and a finite residual whose
    # squared norm overflows leave no merit to descend on: such a start
    # ends with a ValueError before any element call
    calls = []

    def residual(z):
        return z * np.array([1.0, 1e200])

    def element(z):
        calls.append(z.tolist())
        return np.diag([1.0, 1e200])

    for start, message in (
            ([0.0, 1e150], "residual at the starting point is not finite"),
            ([np.inf, 0.0], "starting point must be finite"),
            ([1e300, 0.0], "squared residual norm at the starting point overflows")):
        with np.errstate(all="raise"):  # and no overflow warning either
            with pytest.raises(ValueError, match=f"^{message}$"):
                semismooth_solve(residual, element, np.array(start))
    assert not calls
    z, trace = semismooth_solve(residual, element, np.array([1.0, 0.0]))
    assert trace.status == "converged" and np.array_equal(z, [0.0, 0.0])
    assert calls == [[1.0, 0.0]]
    problem, _ = load_battery("nlp_toy")
    with pytest.raises(ValueError, match="^residual at the starting point is not finite$"):
        solve(problem, np.full(3, 1e308))


def test_merit_monotone_and_deterministic():
    problem, meta = load_battery("sdp_toy")
    start = meta.known_solution.stacked() + 0.4
    z1, t1 = solve(problem, start)
    z2, t2 = solve(problem, start)
    assert t1.residual_norms == t2.residual_norms
    assert t1.step_lengths == t2.step_lengths
    merits = [0.5 * r * r for r in t1.residual_norms]
    for a, b in zip(merits, merits[1:]):
        assert b <= a + 1e-15


def test_grid_convergence_strongly_regular_battery():
    opts = NewtonOptions(tol=1e-10)
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        for start in newton_start_grid(problem, meta, radius=0.5, count=10, seed=9):
            z, trace = solve(problem, start, opts)
            assert np.linalg.norm(residual(problem, z), np.inf) <= 1e-10, name


def test_local_rate_quadratic_on_regular_instances():
    for name in ("nlp_toy", "sdp_toy"):
        problem, meta = load_battery(name)
        rates = []
        for start in newton_start_grid(problem, meta, radius=0.5, count=10, seed=42):
            _, trace = solve(problem, start)
            if trace.iterations >= 2:
                rates.append(local_rate(trace))
        assert rates and all(r == "quadratic" for r in rates), (name, rates)


def test_degenerate_instance_newton_diagnostics():
    # the degenerate instance has a solution continuum: runs either land on
    # it quickly, stagnate, or traverse singular elements; the trace records
    # the degeneracy either way
    problem, meta = load_battery("sdp_degenerate")
    rng = np.random.default_rng(11)
    stagnations = 0
    singular_traces = 0
    for _ in range(60):
        start = meta.known_solution.stacked() + rng.uniform(-1.5, 1.5, 5)
        try:
            _, trace = solve(problem, start)
        except Exception as exc:
            assert hasattr(exc, "trace")
            stagnations += 1
            continue
        if trace.element_min_sv and min(trace.element_min_sv) <= 1e-8:
            singular_traces += 1
    assert stagnations > 0
    assert singular_traces > 0


def _ends(fn):
    """(kind, trace) of a solve: 'converged' or the name of its NewtonError."""
    try:
        return "converged", fn()[1]
    except NewtonError as exc:
        return type(exc).__name__, exc.trace


def test_degenerate_starts_end_as_with_dense_elements():
    # the starts of test_degenerate_instance_newton_diagnostics: solve's
    # framed steps end each one as the loop on dense elements does, with
    # the same iterations and ridge decisions
    problem, meta = load_battery("sdp_degenerate")
    rng = np.random.default_rng(11)
    kinds, stalled = set(), []
    for _ in range(60):
        start = meta.known_solution.stacked() + rng.uniform(-1.5, 1.5, 5)
        got = _ends(lambda: solve(problem, start))
        want = _ends(lambda: semismooth_solve_loop(
            lambda z: problem_mod.signed_residual(problem, z),
            lambda z: problem_mod.canonical_element(problem, z).matrix, start))
        assert got[0] == want[0] and got[1].iterations == want[1].iterations
        assert ([sv < 1e-10 for sv in got[1].element_min_sv]
                == [sv < 1e-10 for sv in want[1].element_min_sv])
        kinds.add(got[0])
        if got[0] == "NewtonStagnation":
            stalled.append(got[1].iterations)
    # no start runs to max_iter on a flat merit: each that does not converge
    # stagnates within 3 iterations
    assert kinds == {"converged", "NewtonStagnation"}
    assert len(stalled) == 5 and max(stalled) <= 3


def test_flagged_framed_row_takes_the_dense_ridge_step(monkeypatch):
    # sdp_degenerate's start has an exactly singular element: the framed
    # screen flags it, and the row takes the ridge step of the dense
    # element, bit for bit as a solve on dense elements does.  solve
    # evaluates its trial points with evaluate, the loop with signed_residual
    problem, meta = load_battery("sdp_degenerate")
    start = meta.start.stacked()
    points = []

    def spy(fn):
        def spied(problem, Z):
            points.append(np.asarray(Z).tobytes())
            return fn(problem, Z)
        return spied

    for name in ("evaluate", "signed_residual"):
        monkeypatch.setattr(problem_mod, name, spy(getattr(problem_mod, name)))
    formed = []
    dense = problem_mod.FramedElement.dense
    monkeypatch.setattr(problem_mod.FramedElement, "dense",
                        lambda self: formed.append(1) or dense(self))
    opts = NewtonOptions(max_iter=1)
    got = _ends(lambda: solve(problem, start, opts))
    framed_points = points[:]
    points.clear()
    want = _ends(lambda: semismooth_solve_loop(
        lambda z: problem_mod.signed_residual(problem, z),
        lambda z: problem_mod.canonical_element(problem, z).matrix, start, opts))
    assert got[0] == want[0] and got[1] == want[1]
    assert got[1].element_min_sv == [0.0]  # the svd confirmed a singular element
    assert framed_points == points  # the same trial points, bit for bit
    assert formed  # the dense element was formed for the screen


def test_local_rate_synthetic_traces():
    flat = NewtonTrace(residual_norms=[0.3, 0.3, 0.3, 0.3, 0.3],
                       step_lengths=[1.0] * 4, element_min_sv=[1.0] * 4,
                       status="converged")
    assert local_rate(flat) == "none"
    geo = NewtonTrace(residual_norms=[0.4 * 0.5 ** k for k in range(12)],
                      step_lengths=[1.0] * 11, element_min_sv=[1.0] * 11,
                      status="converged")
    assert local_rate(geo) == "linear"
    quad = NewtonTrace(residual_norms=[0.4, 0.4 ** 2, 0.4 ** 4, 0.4 ** 8, 0.4 ** 16],
                       step_lengths=[1.0] * 4, element_min_sv=[1.0] * 4,
                       status="converged")
    assert local_rate(quad) == "quadratic"


def test_local_rate_insufficient_trace():
    short = NewtonTrace(residual_norms=[1.0, 0.0], step_lengths=[1.0],
                        element_min_sv=[1.0], status="converged")
    with pytest.raises(InsufficientTraceError):
        local_rate(short)
    unconverged = NewtonTrace(residual_norms=[1.0] * 6, step_lengths=[1.0] * 5,
                              element_min_sv=[1.0] * 5, status="max_iter")
    with pytest.raises(InsufficientTraceError):
        local_rate(unconverged)


def test_newton_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(backtrack_factor=1.5)
    with pytest.raises(ValueError):
        NewtonOptions(tol=-1.0)


def _counted(fn, calls):
    def wrapped(z):
        calls.append(np.array(z, dtype=float))
        return fn(z)
    return wrapped


def test_nonconvergence_carries_its_trace_and_message():
    # an element ten times the derivative shrinks the residual by 0.9 per
    # full step, far too slowly for five iterations
    calls = []
    with pytest.raises(NewtonNonConvergence) as info:
        semismooth_solve(_counted(lambda z: z.copy(), calls), lambda z: 10.0 * np.eye(2),
                         np.array([1.0, -0.5]), NewtonOptions(max_iter=5))
    trace = info.value.trace
    assert trace.status == "max_iter"
    assert trace.step_lengths == [1.0] * 5
    assert trace.element_min_sv == pytest.approx([10.0] * 5)
    assert trace.residual_norms == pytest.approx([0.9 ** k for k in range(6)])
    assert str(info.value) == (f"no convergence in 5 iterations, "
                               f"residual {trace.residual_norms[-1]:.3e}")
    assert len(calls) == 6


def test_stagnation_carries_its_trace_and_message():
    # an element of the wrong sign makes every step an ascent step, so the
    # line search halves alpha from 1 down to 2**-10 < min_step
    calls = []
    with pytest.raises(NewtonStagnation) as info:
        semismooth_solve(_counted(lambda z: z.copy(), calls), lambda z: -np.eye(2),
                         np.array([1.0, 0.25]), NewtonOptions(min_step=1e-3))
    trace = info.value.trace
    assert trace.status == "stagnated"
    assert trace.residual_norms == [1.0] and trace.step_lengths == []
    assert str(info.value) == "line search collapsed at residual 1.000e+00"
    assert len(calls) == 1 + 10


def test_linalg_errors_propagate_from_the_element_and_its_svd():
    def element(z):
        if z[0] < 0.75:
            raise np.linalg.LinAlgError("element failed")
        return np.eye(2) * 2.0

    with pytest.raises(np.linalg.LinAlgError, match="element failed"):
        semismooth_solve(lambda z: z.copy(), element, np.array([1.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        semismooth_solve(lambda z: z.copy(), lambda z: np.full((2, 2), np.nan),
                         np.array([1.0, 1.0]))


def test_screen_confirms_and_ridges_a_hidden_near_singular_element():
    # sigma_min = 1e-12 hidden in a random orthogonal frame, so no entry or
    # pivot of E shows it; the LU bound flags the row and its svd ridges it
    rng = np.random.default_rng(5)
    N = 40
    Q1, _ = np.linalg.qr(rng.standard_normal((N, N)))
    Q2, _ = np.linalg.qr(rng.standard_normal((N, N)))
    E = (Q1 * np.append(np.linspace(2.0, 1.0, N - 1), 1e-12)) @ Q2.T
    svals = np.linalg.svd(E, compute_uv=False)
    assert svals[-1] < 1e-10
    b, z0 = rng.standard_normal(N), rng.standard_normal(N)
    trials = []

    def residual(z):
        trials.append(z.copy())
        return E @ z - b

    with pytest.raises(NewtonNonConvergence) as info:
        semismooth_solve(residual, lambda z: E, z0, NewtonOptions(max_iter=1))
    assert info.value.trace.element_min_sv == [svals[-1]]  # exact, not the bound
    r = E @ z0 - b
    tau = max(NewtonOptions().regularization_floor, 1e-10 * svals[0])
    ridge_step = np.linalg.solve(E.T @ E + tau * np.eye(N), -E.T @ r)
    assert trials[1].tobytes() == (z0 + ridge_step).tobytes()


def test_an_exactly_singular_element_takes_ridge_steps():
    # the LU solve of diag(1, 0, 1) raises; the svd confirms sigma_min = 0
    # and every iteration takes a ridge step instead of ending the row
    with pytest.raises(NewtonNonConvergence) as info:
        semismooth_solve(lambda z: _row_residual("singular", z),
                         lambda z: _row_element("singular", z),
                         np.array([1.0, 1.0, 1.0]), NewtonOptions(max_iter=8))
    assert info.value.trace.element_min_sv == [0.0] * 8


def test_a_step_that_does_not_lower_the_merit_ends_as_a_stagnation():
    # the first ridge step zeroes the regular coordinates of z; the second
    # passes the Armijo test with a slope of 0 and leaves the merit as it
    # is, which ends the solve at once, not after max_iter iterations
    with pytest.raises(NewtonStagnation) as info:
        semismooth_solve(lambda z: _row_residual("flat", z), lambda z: _row_element("flat", z),
                         np.array([1.0, 1.0, 1.0]), NewtonOptions(max_iter=8))
    trace = info.value.trace
    assert trace.status == "stagnated"
    assert (trace.residual_norms, trace.step_lengths, trace.element_min_sv) == (
        [1.0, 1.0], [1.0], [0.0])
    assert str(info.value) == "step does not lower the merit at residual 1.000e+00"


def test_a_huge_start_stagnates_on_its_flat_merit():
    # nlp_toy from x = 1e100: one step drops the residual to about 1, where
    # ridge steps on singular elements leave the merit flat; the solve
    # stagnates within 3 iterations instead of running all 100
    problem, _ = load_battery("nlp_toy")
    with pytest.raises(NewtonStagnation, match="does not lower the merit") as info:
        solve(problem, np.array([1e100, 1.0, 1.0]))
    trace = info.value.trace
    assert trace.iterations <= 3
    assert trace.residual_norms[0] == 1e100 and abs(trace.residual_norms[-1] - 1.0) < 1e-6


def test_a_flagged_regular_element_keeps_its_lu_step():
    # sigma_min = 1e-8: the probe's bound flags the row, the svd finds it
    # above the ridge threshold, and the row keeps its LU step
    D = np.diag([1.0, 1e-8, 1.0])
    c = np.array([0.5, 1e-9, -0.2])
    args = (lambda z: D @ z - c, lambda z: D, np.array([1.0, 1.0, 1.0]), NewtonOptions())
    z, trace = semismooth_solve(*args)
    assert trace.element_min_sv == [1e-8]  # the svd's exact value
    _same_outcome((z, trace), semismooth_solve_loop(*args))


def test_the_element_after_a_singular_one_goes_straight_to_the_svd():
    # singular at the start, regular after the first (ridge) step: the
    # second element skips the screen, the svd finds it regular, and the
    # row solves it alone; from the third on the screen runs again
    def element(z):
        return np.diag([1.0, 0.0, 1.0]) if abs(z[0]) > 0.5 else 2.0 * np.eye(3)

    args = (lambda z: z.copy(), element, np.array([1.0, 1.0, 1.0]), NewtonOptions(max_iter=4))
    with pytest.raises(NewtonNonConvergence) as info:
        semismooth_solve(*args)
    assert info.value.trace.element_min_sv[:2] == [0.0, 2.0]
    with pytest.raises(NewtonNonConvergence) as want:
        semismooth_solve_loop(*args)
    _same_outcome(info.value, want.value)


@pytest.mark.parametrize("name", ["sdp_toy", "sdp_degenerate"])
def test_linearized_solves_ridge_exactly_where_the_element_is_singular(name, monkeypatch):
    # solve_linearized_ge from three starts at each of ten perturbations:
    # every iteration's element takes a ridge step exactly where its exact
    # sigma_min is below the ridge threshold
    exact, traces = [], []

    def spied_solve(residual, element, z0, opts=None, **kwargs):
        calls = []

        def spied_element(z):
            E = element(z)
            calls.append(np.linalg.svd(E, compute_uv=False)[-1])
            return E

        exact.append(calls)
        try:
            out = newton_mod.semismooth_solve(residual, spied_element, z0, opts, **kwargs)
        except NewtonError as exc:
            traces.append(exc.trace)
            raise
        traces.append(out[1])
        return out

    monkeypatch.setattr(problem_mod, "semismooth_solve", spied_solve)
    problem, meta = load_battery(name)
    zbar = meta.known_solution.stacked()
    rng = np.random.default_rng(0)
    for _ in range(10):
        delta = 0.05 * rng.standard_normal(zbar.size)
        for offset in (0.0, 0.025, -0.025):
            try:
                problem_mod.solve_linearized_ge(problem, meta.known_solution, delta,
                                                zbar + offset * rng.standard_normal(zbar.size))
            except NewtonError:
                pass
    singular = 0
    for calls, trace in zip(exact, traces):
        # a stagnated solve's last element has no trace entry
        assert len(calls) - len(trace.element_min_sv) in (0, 1)
        for value, sv in zip(trace.element_min_sv, calls):
            assert (value < 1e-10) == (sv < 1e-10)  # ridged iff singular
            if sv < 1e-10:
                assert value == sv
                singular += 1
    assert len(traces) == 30
    assert singular > 0 or name == "sdp_toy"


def semismooth_solve_loop(residual, element, z0, opts=None):
    """The plain Newton loop, one trial per residual call, kept as the
    reference that semismooth_solve must reproduce bit for bit.

    ``element`` returns a dense matrix, or a framed element whose step,
    dense matrix and product take the place of the LU screen, the matrix
    and ``E @ s``."""
    opts = opts or NewtonOptions()
    z = np.asarray(z0, dtype=float).copy()
    if not np.all(np.isfinite(z)):
        raise ValueError("starting point must be finite")
    trace = NewtonTrace()
    r = residual(z)
    rnorm = float(np.linalg.norm(r, np.inf))
    trace.residual_norms.append(rnorm)
    min_sv = np.inf
    for _ in range(opts.max_iter):
        if rnorm <= opts.tol:
            trace.status = "converged"
            return z, trace
        E = element(z)
        framed = hasattr(E, "step")
        # the LU step and a solve against the probe bound sigma_min from
        # above; a low or non-finite bound is confirmed by the svd, and so
        # is every element after a singular one
        if min_sv < 1e-10:
            s, min_sv = np.full(z.size, np.nan), 0.0
        elif framed:
            s, min_sv = E.step(r, np.dot(r, r), _probe_vector)
        else:
            try:
                X = np.linalg.solve(E, np.stack([-r, _probe_vector(z.size)], axis=1))
            except np.linalg.LinAlgError:
                X = np.full((z.size, 2), np.nan)
            s, y = X.T.copy()
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                min_sv = float(np.minimum(np.sqrt(np.dot(r, r) / np.dot(s, s)),
                                          1.0 / np.sqrt(np.dot(y, y))))
        if not min_sv >= 1e-6:
            if framed:
                E = E.dense()  # the rest of the iteration sees the matrix
                framed = False
            svals = np.linalg.svd(E, compute_uv=False)
            min_sv = float(svals[-1])
            if min_sv < 1e-10:
                tau = max(opts.regularization_floor, 1e-10 * float(svals[0]))
                s = np.linalg.solve(E.T @ E + tau * np.eye(E.shape[1]), -E.T @ r)
            elif not np.all(np.isfinite(s)):
                s = np.linalg.solve(E, -r)
        merit = 0.5 * float(np.dot(r, r))
        slope = float(np.dot(E.apply(s) if framed else E @ s, r))
        if slope >= 0.0:
            slope = -2.0 * merit
        alpha = 1.0
        while True:
            z_new = z + alpha * s
            r_new = residual(z_new)
            merit_new = 0.5 * float(np.dot(r_new, r_new))
            if merit_new <= merit + opts.armijo_c * alpha * slope:
                break
            alpha *= opts.backtrack_factor
            if alpha < opts.min_step:
                trace.status = "stagnated"
                raise NewtonStagnation(f"line search collapsed at residual {rnorm:.3e}", trace)
        if not merit_new < merit:
            trace.status = "stagnated"
            raise NewtonStagnation(f"step does not lower the merit at residual {rnorm:.3e}", trace)
        z = z_new
        r = r_new
        rnorm = float(np.linalg.norm(r, np.inf))
        trace.residual_norms.append(rnorm)
        trace.step_lengths.append(alpha)
        trace.element_min_sv.append(min_sv)
    if rnorm <= opts.tol:
        trace.status = "converged"
        return z, trace
    trace.status = "max_iter"
    raise NewtonNonConvergence(
        f"no convergence in {opts.max_iter} iterations, residual {rnorm:.3e}", trace)


_CUBIC_C = np.array([0.5, -0.2, 1.0])


def _row_residual(kind, z):
    if kind == "cubic":
        return z + 0.3 * z ** 3 - _CUBIC_C
    if kind == "trapped" and np.all((0.16 < z) & (z < 0.17)):
        # only a trial past the first one that passes would land here
        raise ValueError("residual undefined on the trap")
    if kind == "residual_error" and np.max(np.abs(z)) < 0.3:
        raise ValueError("residual undefined near the origin")
    if kind == "singular":
        return 0.5 * z  # each ridge step halves the regular coordinates
    return z.copy()


def _row_element(kind, z):
    if kind == "cubic":
        return np.diag(1.0 + 0.9 * z ** 2)
    if kind == "slow":
        return 10.0 * np.eye(3)  # full steps shrink the residual by 0.9
    if kind == "wrong_sign":
        return -np.eye(3)  # every step is an ascent step
    if kind in ("overshoot", "trapped"):
        # the full step overshoots to -7/3 z; alpha = 1/2 is accepted
        # (-2/3 z), so the trial at 1/4, z / 6, never runs
        return 0.3 * np.eye(3)
    if kind == "turns":
        # full steps halve z until the element turns to ascent, where the
        # line search collapses
        return -np.eye(3) if np.max(np.abs(z)) < 0.3 else 2.0 * np.eye(3)
    if kind in ("singular", "flat"):
        # ridge steps that never reach the target; at "flat" the first one
        # zeroes the regular coordinates and the next leaves the merit as it is
        return np.diag([1.0, 0.0, 1.0])
    if kind == "element_error" and np.max(np.abs(z)) < 0.3:
        raise np.linalg.LinAlgError("element undefined near the origin")
    if kind == "svd_error" and np.max(np.abs(z)) < 0.3:
        return np.full((3, 3), np.nan)  # the svd fails
    return 2.0 * np.eye(3)


_ROWS = [  # (kind, start)
    ("cubic", [2.0, 2.0, 2.0]),
    ("slow", [1.0, -0.5, 0.25]),
    ("wrong_sign", [1.0, 0.25, 0.0]),
    ("element_error", [1.0, 1.0, -1.0]),
    ("cubic", [-1.0, 0.5, 3.0]),
    ("svd_error", [1.0, 0.5, 1.0]),
    ("singular", [1.0, 1.0, 1.0]),
    ("flat", [1.0, 1.0, 1.0]),
    ("residual_error", [1.0, -1.0, 1.0]),
    ("cubic", [np.nan, 0.0, 0.0]),
    ("zero", [0.0, 0.0, 0.0]),
    # rows that backtrack past the full step
    ("overshoot", [1.0, -0.5, 0.25]),
    ("trapped", [1.0, 1.0, 1.0]),
    ("turns", [1.0, 1.0, 1.0]),
]


def _same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, NewtonError):
            assert got.trace == want.trace
    else:
        assert not isinstance(got, Exception), got
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def _outcome(fn):
    """What a solve returns, or the exception that ends it."""
    try:
        return fn()
    except (NewtonError, np.linalg.LinAlgError, ValueError) as exc:
        return exc


def _logged_calls(kind, log):
    """A row kind's residual, which logs the shape and the bytes of each
    point it is called with, and its element."""
    def residual(z):
        log.append((np.shape(z), z.tobytes()))
        return _row_residual(kind, z)

    return residual, lambda z: _row_element(kind, z)


def _trace(out):
    return out.trace if isinstance(out, NewtonError) else out[1]


def test_each_way_a_solve_ends_matches_the_loop_bit_for_bit():
    opts = NewtonOptions(max_iter=8, min_step=1e-3)
    outcomes, ridged = [], []
    for kind, start in _ROWS:
        log, calls = [], []
        got = _outcome(lambda: semismooth_solve(*_logged_calls(kind, log), np.array(start), opts))
        want = _outcome(lambda: semismooth_solve_loop(*_logged_calls(kind, calls),
                                                      np.array(start), opts))
        _same_outcome(got, want)
        assert log == calls, kind  # iterates and trial points, in order
        assert all(shape == (3,) for shape, _ in log), kind  # one point per residual call
        outcomes.append(want)
        if kind == "singular":
            ridged.append(want.trace.element_min_sv[0])
    # every way a solve can end
    statuses = [type(out).__name__ if isinstance(out, Exception) else out[1].status
                for out in outcomes]
    assert statuses == ["converged", "NewtonNonConvergence", "NewtonStagnation",
                        "LinAlgError", "converged", "LinAlgError", "NewtonNonConvergence",
                        "NewtonStagnation", "ValueError", "ValueError", "converged",
                        "NewtonNonConvergence", "NewtonNonConvergence", "NewtonStagnation"]
    assert ridged == [0.0]  # a ridge step was taken
    # overshoot and trapped take alpha = 1/2 in each of 8 iterations, and
    # turns stagnates in its third
    assert [_trace(out).step_lengths for out in outcomes[-3:]] == [[0.5] * 8, [0.5] * 8,
                                                                   [1.0, 1.0]]


def test_the_line_search_evaluates_no_trial_past_its_first_hit():
    # an iteration that takes alpha = 2**-k makes k + 1 residual calls, so
    # a solve that returns or runs out of iterations makes 1 + sum(k + 1);
    # trapped's trap lies at the trial after its first hit and never runs
    opts = NewtonOptions(max_iter=8, min_step=1e-3)
    counted = []
    for kind, start in _ROWS:
        log = []
        out = _outcome(lambda: semismooth_solve(*_logged_calls(kind, log), np.array(start), opts))
        if isinstance(out, NewtonNonConvergence) or not isinstance(out, Exception):
            lengths = _trace(out).step_lengths
            assert len(log) == 1 + sum(round(-math.log2(a)) + 1 for a in lengths), kind
            counted.append(kind)
    assert counted == ["cubic", "slow", "cubic", "singular", "zero", "overshoot", "trapped"]


def test_a_trial_that_raises_ends_the_solve_only_before_the_first_hit():
    # the element 0.1 I makes each Newton step ten times too long, so the
    # line search tries 1, 1/2, 1/4 and 1/8, which passes, one point per
    # residual call: a trap at 1/16, past the hit, never runs, and one at
    # 1/2 ends the solve, as in the loop
    opts = NewtonOptions(max_iter=1, tol=0.5)
    for trap, want_calls in ((1 / 16, 5), (1 / 2, 3)):
        log = []

        def residual(z, trap=trap):
            log.append((np.shape(z), z.tobytes()))
            if z[0] == 1.0 - 10.0 * trap:
                raise ValueError("residual undefined on the trap")
            return z.copy()

        got = _outcome(lambda: semismooth_solve(residual, lambda z: 0.1 * np.eye(2),
                                                np.array([1.0, 0.0]), opts))
        got_log, log[:] = log[:], []
        want = _outcome(lambda: semismooth_solve_loop(residual, lambda z: 0.1 * np.eye(2),
                                                      np.array([1.0, 0.0]), opts))
        _same_outcome(got, want)
        assert got_log == log and len(log) == want_calls
        assert all(shape == (2,) for shape, _ in log)
        assert isinstance(got, ValueError) == (trap == 1 / 2)


def test_wrong_sign_row_tries_each_step_length_once():
    # the step of -I at the residual z is s = z, so the trials are
    # (1 + alpha) z for alpha = 1 down to 2**-9, the last above min_step
    log = []
    residual, element = _logged_calls("wrong_sign", log)
    start = np.array([1.0, 0.25, 0.0])
    with pytest.raises(NewtonStagnation, match="line search collapsed"):
        semismooth_solve(residual, element, start, NewtonOptions(max_iter=8, min_step=1e-3))
    trials = [start] + [start + 2.0 ** -k * start for k in range(10)]
    assert log == [((3,), z.tobytes()) for z in trials]


def test_each_line_search_starts_at_the_full_step():
    # the element 0.1 I makes each Newton step ten times too long: each
    # iteration tries 1, 1/2, 1/4 and 1/8, of which 1/8 passes, one point
    # per residual call
    shapes = []

    def residual(z):
        shapes.append(np.shape(z))
        return z.copy()

    opts = NewtonOptions(max_iter=3)
    start = np.array([1.0, -0.5, 0.25])
    with pytest.raises(NewtonNonConvergence) as got:
        semismooth_solve(residual, lambda z: 0.1 * np.eye(3), start, opts)
    assert got.value.trace.step_lengths == [0.125] * 3
    assert shapes == [(3,)] * (1 + 3 * 4)
    with pytest.raises(NewtonNonConvergence) as want:
        semismooth_solve_loop(lambda z: z.copy(), lambda z: 0.1 * np.eye(3), start, opts)
    _same_outcome(got.value, want.value)


def test_a_trial_whose_residual_raises_is_evaluated_once():
    calls = []
    with pytest.raises(ValueError, match="residual undefined"):
        semismooth_solve(_counted(lambda z: _row_residual("residual_error", z), calls),
                         lambda z: 2.0 * np.eye(3), np.array([1.0, -1.0, 1.0]))
    assert len(calls) == 3  # the start, the accepted step and the failing trial


@pytest.mark.parametrize("field, value", [
    ("tol", float("nan")), ("tol", float("inf")), ("tol", 0.0), ("tol", True),
    ("min_step", float("nan")), ("armijo_c", float("nan")),
    ("regularization_floor", -1.0), ("backtrack_factor", float("nan")),
    ("backtrack_factor", 1.0), ("max_iter", 2.5), ("max_iter", True), ("max_iter", 0),
])
def test_newton_options_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        NewtonOptions(**{field: value})


# three exactly singular elements with different Gram matrices
_SINGULAR = {"A": np.diag([1.0, 0.0, 1.0]), "B": np.diag([2.0, 0.0, 1.0]),
             "C": np.diag([1.0, 0.0, 3.0])}
# the element of each solve at each iteration: some repeat from one
# iteration to the next, B comes back at iteration 2 and C at iteration 4
_SCHEDULES = ["AAAAA", "AABBA", "BCCAA", "CCCBC"]
_SCHEDULE_STARTS = [[1.0, 1.0, 1.0], [2.0, -1.0, 0.5], [-1.0, 0.5, 3.0], [0.5, 2.0, -1.0]]


def _scheduled(schedule):
    """A one-point element that follows the schedule, one entry per call."""
    calls = iter(schedule)
    return lambda z: _SINGULAR[next(calls)]


def _spy_svd(monkeypatch):
    """Record the bytes of every matrix that np.linalg.svd decomposes."""
    seen, svd = [], np.linalg.svd

    def spied(M, *args, **kwargs):
        seen.extend(m.tobytes() for m in np.reshape(M, (-1,) + np.shape(M)[-2:]))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spied)
    return seen


def test_each_iteration_decomposes_its_own_singular_element(monkeypatch):
    # an exactly singular element gets its svd in every iteration that
    # holds it, also when the iteration before held the same one: the
    # driver keeps no decomposition from one iteration to the next
    opts = NewtonOptions(max_iter=len(_SCHEDULES[0]))
    names = {M.tobytes(): name for name, M in _SINGULAR.items()}
    decomposed = []
    for schedule, start in zip(_SCHEDULES, _SCHEDULE_STARTS):
        svds = _spy_svd(monkeypatch)
        per_iteration, scheduled = [], _scheduled(schedule)

        def element(z, scheduled=scheduled):
            per_iteration.append(len(svds))
            return scheduled(z)

        with pytest.raises(NewtonNonConvergence) as got:
            semismooth_solve(lambda z: 0.5 * z, element, np.array(start), opts)
        per_iteration.append(len(svds))
        decomposed.append("".join("".join(names[m] for m in svds[a:b])
                                  for a, b in zip(per_iteration, per_iteration[1:])))
        monkeypatch.undo()
        with pytest.raises(NewtonNonConvergence) as want:
            semismooth_solve_loop(lambda z: 0.5 * z, _scheduled(schedule), np.array(start),
                                  opts)
        _same_outcome(got.value, want.value)
        assert got.value.trace.element_min_sv == [0.0] * opts.max_iter  # ridge steps throughout
    assert decomposed == _SCHEDULES  # one svd per iteration, of its own element


@pytest.mark.parametrize("name", ["nlp_toy", "sdp_toy", "sdp_degenerate", "l1_toy",
                                  "smooth_toy"])
def test_solve_matches_the_loop_with_one_prox_call_per_trial(name, monkeypatch):
    problem, meta = load_battery(name)
    rng = np.random.default_rng(0)
    calls = []  # the point and the prox calls of each residual call of solve

    def spied_solve(residual, element, z0, opts=None, **kwargs):
        def counted(z):
            before = len(prox_calls)
            out = residual(z)
            calls.append((np.shape(z), prox_calls[before:]))
            return out

        return newton_mod.semismooth_solve(counted, element, z0, opts, **kwargs)

    # solve takes the prox and the frames of a trial from one call
    prox_calls, prox_gstar_frames = [], problem.prox_gstar_frames

    def spied_prox(w, *args):
        prox_calls.append(w.shape)
        return prox_gstar_frames(w, *args)

    monkeypatch.setattr(problem, "prox_gstar_frames", spied_prox)
    monkeypatch.setattr(problem_mod, "semismooth_solve", spied_solve)
    for _ in range(20):
        d = rng.standard_normal(problem.n + problem.m)
        start = meta.known_solution.stacked() + 3.0 * d / np.linalg.norm(d)
        try:
            pt, trace = solve(problem, start)
            got = (pt.stacked(), trace)
        except NewtonError as exc:
            got = exc
        try:
            want = semismooth_solve_loop(lambda z: problem_mod.signed_residual(problem, z),
                                         lambda z: problem_mod.framed_element(problem, z),
                                         start)
        except NewtonError as exc:
            want = exc
        _same_outcome(got, want)
    # each residual call, of one trial point, made one prox call on that point
    assert calls and all(shape == (problem.n + problem.m,) and prox == [(problem.m,)]
                         for shape, prox in calls)


def test_solve_backtracks_with_one_evaluate_call_per_trial(monkeypatch):
    # smooth_toy from (-1, -1, -2) backtracks in three of its six
    # iterations; one that takes alpha = 2**-k evaluates its k + 1 trial
    # points one at a time, after the start's one evaluation
    problem, _ = load_battery("smooth_toy")
    shapes, evaluate = [], problem_mod.evaluate

    def spied(problem, z):
        shapes.append(np.shape(z))
        return evaluate(problem, z)

    monkeypatch.setattr(problem_mod, "evaluate", spied)
    _, trace = solve(problem, np.array([-1.0, -1.0, -2.0]))
    assert trace.status == "converged"
    assert trace.step_lengths == [0.5, 1.0, 0.125, 0.5, 1.0, 1.0]
    assert 1 + sum(round(-math.log2(a)) + 1 for a in trace.step_lengths) == 12
    assert shapes == [(3,)] * 12


def test_solve_builds_the_element_only_at_the_last_evaluated_point(monkeypatch):
    def spied_solve(residual, element, z0, opts=None):
        residual(z0)
        residual(z0 + 1.0)
        return element(z0)

    monkeypatch.setattr(problem_mod, "semismooth_solve", spied_solve)
    problem, meta = load_battery("nlp_toy")
    with pytest.raises(ValueError, match="other than the last one evaluated"):
        solve(problem, meta.start)
