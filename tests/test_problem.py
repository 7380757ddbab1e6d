import math

import numpy as np
import pytest

from kktstab import (
    BoxIndicator,
    CompositeProblem,
    DimensionError,
    EpiSum,
    KKTPoint,
    L1Norm,
    NewtonError,
    NewtonOptions,
    OrthantIndicator,
    PSDConeIndicator,
    SmoothMap,
    assemble_element,
    canonical_element,
    clarke_element,
    kkt_check,
    linearized_residual,
    load_battery,
    residual,
    sample_elements_R,
    solve_linearized_ge,
    svec,
)
from kktstab.problem import as_point, solve_linearized_rows
from test_pieces_prox import dedup_elements_loop


def test_residual_zero_at_battery_solutions():
    for name in ("nlp_toy", "sdp_toy", "l1_toy"):
        problem, meta = load_battery(name)
        r = residual(problem, meta.known_solution)
        assert np.linalg.norm(r, np.inf) <= 1e-12, name


def test_residual_dimension_mismatch():
    problem, _ = load_battery("nlp_toy")
    with pytest.raises(DimensionError):
        residual(problem, np.zeros(5))


def test_kkt_check_reports_componentwise():
    problem, _ = load_battery("nlp_toy")
    rep = kkt_check(problem, KKTPoint(np.array([1.0]), np.array([1.0, 1.0])), 1e-10)
    assert rep.ok and rep.stationarity_norm <= 1e-14
    rep = kkt_check(problem, KKTPoint(np.array([1.1]), np.array([1.0, 1.0])), 1e-10)
    assert not rep.ok
    assert np.isclose(rep.stationarity_norm, 0.1, atol=1e-12)
    rep = kkt_check(problem, KKTPoint(np.array([-0.7]), np.array([0.2, -2.0])), 0.0)
    assert not rep.ok


def test_assemble_element_l1_origin():
    problem, _ = load_battery("l1_toy")
    z = KKTPoint(np.zeros(1), np.zeros(1))
    el = clarke_element(problem.pieces[0], np.zeros(1))
    E = assemble_element(problem, z, [el]).matrix
    assert np.allclose(E, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.isclose(np.linalg.det(E), -1.0)


def test_assemble_element_nlp_solution_hand_values():
    problem, meta = load_battery("nlp_toy")
    el = canonical_element(problem, meta.known_solution)
    expected = np.array([[1.0, 1.0, -1.0],
                         [0.0, -1.0, 0.0],
                         [-1.0, 0.0, 0.0]])
    assert np.allclose(el.matrix, expected, atol=1e-12)
    assert el.min_singular_value() > 0.1


def test_assemble_element_identity_block_reduces_to_minus_dmu():
    # a fully positive definite matrix block makes the prox derivative the
    # identity, so the second row block must act as -I on the dual step
    F = SmoothMap(
        n=1, m=3,
        eval=lambda x: svec(np.diag([2.0, 3.0])) + 0.0 * np.concatenate([x, x, x]),
        jacobian=lambda x: np.array([[1.0], [0.0], [1.0]]),
        weighted_hessian_fn=lambda x, mu: np.zeros((1, 1)),
    )
    problem = CompositeProblem(F, [PSDConeIndicator(2)])
    z = KKTPoint(np.zeros(1), np.zeros(3))
    el = canonical_element(problem, z)
    assert np.allclose(el.matrix[1:, 1:], -np.eye(3), atol=1e-12)
    assert np.allclose(el.matrix[1:, :1], 0.0, atol=1e-12)


def test_sample_elements_dedup_singleton():
    problem, _ = load_battery("l1_toy")
    els = sample_elements_R(problem, KKTPoint(np.zeros(1), np.zeros(1)), 8, seed=0)
    assert len(els) == 1


def test_sample_elements_kink_has_three_distinct():
    problem, _ = load_battery("l1_toy")
    z = KKTPoint(np.zeros(1), np.ones(1))  # F(x) + mu sits on the threshold
    els = sample_elements_R(problem, z, 8, seed=0)
    assert len(els) >= 3


def test_sample_elements_determinism():
    problem, meta = load_battery("sdp_degenerate")
    a = sample_elements_R(problem, meta.known_solution, 16, seed=5)
    b = sample_elements_R(problem, meta.known_solution, 16, seed=5)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.matrix, eb.matrix)


def test_linearized_residual_basics():
    problem, meta = load_battery("nlp_toy")
    zbar = meta.known_solution
    assert np.allclose(linearized_residual(problem, zbar, zbar), 0.0, atol=1e-14)
    for h in (0.1, -0.05, 0.02):
        z = KKTPoint(np.array([1.0 + h]), np.array([1.0, 1.0]))
        r = linearized_residual(problem, zbar, z)
        assert np.isclose(r[0], h, atol=1e-14)


def test_linearized_equals_residual_to_second_order():
    rng = np.random.default_rng(0)
    for name in ("nlp_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        zbar = meta.known_solution
        z0 = zbar.stacked()
        d = rng.standard_normal(z0.size)
        d /= np.linalg.norm(d)
        hs = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        gaps = []
        for h in hs:
            gap = np.linalg.norm(linearized_residual(problem, zbar, z0 + h * d)
                                 - residual(problem, z0 + h * d))
            gaps.append(max(gap, 1e-300))
        slope = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
        assert slope >= 1.9, name


def test_solve_ge_zero_delta_returns_base():
    for name in ("nlp_toy", "sdp_toy", "sdp_degenerate", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        z = solve_linearized_ge(problem, meta.known_solution,
                                np.zeros(problem.n + problem.m))
        gap = np.linalg.norm(z.stacked() - meta.known_solution.stacked())
        assert gap <= 1e-10, name


def test_solve_ge_l1_hand_solution():
    problem, meta = load_battery("l1_toy")
    zbar = meta.known_solution
    for d1, d2 in ((0.3, -0.2), (-0.7, 0.5), (0.05, 0.0)):
        z = solve_linearized_ge(problem, zbar, np.array([d1, d2]))
        assert np.isclose(z.mu[0], d1, atol=1e-10)
        assert np.isclose(z.x[0], -d2, atol=1e-10)
    # Lipschitz in the perturbation with unit slope per component
    za = solve_linearized_ge(problem, zbar, np.array([0.3, -0.2]))
    zb = solve_linearized_ge(problem, zbar, np.array([0.25, -0.1]))
    num = np.linalg.norm(za.stacked() - zb.stacked())
    den = np.linalg.norm([0.05, -0.1])
    assert num <= 1.5 * den


def test_solve_ge_nlp_small_perturbations_lipschitz():
    problem, meta = load_battery("nlp_toy")
    zbar = meta.known_solution
    rng = np.random.default_rng(1)
    for _ in range(20):
        delta = 0.05 * rng.standard_normal(3)
        z = solve_linearized_ge(problem, zbar, delta)
        gap = np.linalg.norm(z.stacked() - zbar.stacked())
        assert gap <= 10.0 * np.linalg.norm(delta)


def test_element_matches_residual_fd_at_smooth_points():
    from kktstab.verify import check_element_fd
    name, ok, detail = check_element_fd()
    assert ok, detail


def test_weighted_hessian_fd_fallback_and_jacobian_consistency():
    # quadratic map with the analytic Hessian callback withheld
    def f(x):
        return np.array([x[0] ** 2 + 0.5 * x[1] ** 2, x[0] * x[1]])

    def jac(x):
        return np.array([[2 * x[0], x[1]], [x[1], x[0]]])

    F = SmoothMap(n=2, m=2, eval=f, jacobian=jac)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(2)
        mu = rng.standard_normal(2)
        H = F.weighted_hessian(x, mu)
        exact = mu[0] * np.array([[2.0, 0.0], [0.0, 1.0]]) \
            + mu[1] * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(H, exact, atol=1e-6)
        assert np.allclose(H, H.T, atol=1e-10)
        # jacobian against finite differences of the map values
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (f(x + e) - f(x - e)) / (2 * h)
            assert np.allclose(jac(x)[:, j], fd, atol=1e-6)


def test_sample_elements_R_many_blocks_does_not_overflow(monkeypatch):
    # 13 blocks of 32 elements: 32**13 combinations overflow int64 to 0,
    # which once sent the sampler into enumerating every combination
    from kktstab import LinearOperatorElement, OrthantIndicator

    def fake_sample_clarke(self, z, count, seed):
        return [LinearOperatorElement(np.array([[k / 31.0]]), f"stub[{k}]")
                for k in range(32)]

    monkeypatch.setattr(OrthantIndicator, "sample_clarke", fake_sample_clarke)
    blocks = 13
    F = SmoothMap(n=1, m=blocks, eval=lambda x: np.full(blocks, x[0]),
                  jacobian=lambda x: np.ones((blocks, 1)),
                  weighted_hessian_fn=lambda x, mu: np.zeros((1, 1)))
    problem = CompositeProblem(F, [OrthantIndicator(1) for _ in range(blocks)])
    els = sample_elements_R(problem, np.zeros(1 + blocks), 8, seed=0)
    assert len(els) == 8
    assert els[0].provenance == ("stub[0]",) * blocks
    for count in (1, 8, 40):
        new = sample_elements_R(problem, np.zeros(1 + blocks), count, seed=0)
        old = sample_elements_loop(problem, np.zeros(1 + blocks), count, seed=0)
        assert len(new) == count
        assert [e.provenance for e in new] == [e.provenance for e in old]
        assert all(a.matrix.tobytes() == b.matrix.tobytes() for a, b in zip(new, old))


def sample_elements_loop(problem, z, count, seed):
    """The sweep's sampler with one assemble_element call per combination
    and a pairwise dedup of the assembled elements."""
    pt = as_point(problem, z)
    w = np.asarray(problem.F.eval(pt.x), dtype=float) + pt.mu
    per_block = [p.sample_clarke(wb, count, seed + 977 * i)
                 for i, (p, wb) in enumerate(zip(problem.pieces, problem.blocks(w)))]
    sizes = [len(s) for s in per_block]
    combos = [tuple(0 for _ in sizes)]
    if math.prod(sizes) <= count:
        combos = [tuple(ix) for ix in np.ndindex(*sizes)]
    else:
        rng = np.random.default_rng(seed)
        seen = {combos[0]}
        while len(combos) < count:
            pick = tuple(int(rng.integers(0, s)) for s in sizes)
            if pick not in seen:
                seen.add(pick)
                combos.append(pick)
    elements = [assemble_element(problem, pt, [per_block[i][j] for i, j in enumerate(combo)])
                for combo in combos]
    return dedup_elements_loop(elements)


def _mixed_kink_problem(fortran_jacobian):
    """Orthant, box, l1, PSD and epi-lifted blocks under a linear map with
    a nonzero Hessian form, at a point whose every block sits on kinks or
    has nonempty beta."""
    rng = np.random.default_rng(50)
    pieces = [OrthantIndicator(3, -1), BoxIndicator([-1.0, 0.0, -2.0], [1.0, 0.5, 2.0]),
              L1Norm(3), PSDConeIndicator(3), EpiSum(L1Norm(2))]
    w_blocks = [np.array([0.0, -0.4, 0.0]), np.array([-1.0, 0.2, 2.0]),
                np.array([1.0, -1.0, 0.3]), svec(np.diag([2.0, 0.0, -1.0])),
                np.array([0.5, -1.0, 1.0])]
    m = sum(p.dim for p in pieces)
    n = 4
    A = rng.standard_normal((m, n))
    if fortran_jacobian:
        A = np.asfortranarray(A)
    S = rng.standard_normal((n, n))
    F = SmoothMap(n=n, m=m, eval=lambda x: A @ x, jacobian=lambda x: A,
                  weighted_hessian_fn=lambda x, mu: S + S.T)
    x = rng.standard_normal(n)
    mu = np.concatenate(w_blocks) - A @ x
    return CompositeProblem(F, pieces), KKTPoint(x, mu)


def test_stacked_sampler_equals_the_per_combination_loop():
    cases = []
    for name in ("nlp_toy", "sdp_toy", "sdp_degenerate", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        cases.append((name, problem, meta.known_solution))
    cases.append(("l1_kink", load_battery("l1_toy")[0], KKTPoint(np.zeros(1), np.ones(1))))
    for fortran in (False, True):
        cases.append((f"mixed_kinks_f{fortran}",) + _mixed_kink_problem(fortran))
    sampled = set()
    for name, problem, z in cases:
        for count in (1, 8, 40):
            for seed in (0, 3):
                new = sample_elements_R(problem, z, count, seed)
                old = sample_elements_loop(problem, z, count, seed)
                assert [e.provenance for e in new] == [e.provenance for e in old], name
                for a, b in zip(new, old):
                    assert a.matrix.shape == b.matrix.shape, name
                    assert a.matrix.tobytes() == b.matrix.tobytes(), (name, count, seed)
                sampled.add(len(new) == count)
    assert sampled == {True, False}


def test_solve_linearized_rows_matches_one_row_solves():
    opts = NewtonOptions(max_iter=6)
    rng = np.random.default_rng(3)
    kinds = set()
    for name in ("sdp_degenerate", "nlp_toy"):
        problem, meta = load_battery(name)
        N = problem.n + problem.m
        deltas = 0.3 * rng.standard_normal((7, N))
        starts = meta.known_solution.stacked() + 0.5 * rng.standard_normal((7, N))
        starts[4, 0] = np.inf
        outs = solve_linearized_rows(problem, meta.known_solution, deltas, starts, opts)
        for out, delta, start in zip(outs, deltas, starts):
            try:
                want = solve_linearized_ge(problem, meta.known_solution, delta, start, opts)
            except (NewtonError, np.linalg.LinAlgError, ValueError) as exc:
                assert type(out) is type(exc) and str(out) == str(exc)
                kinds.add(type(exc).__name__)
                continue
            assert out.stacked().tobytes() == want.stacked().tobytes()
            kinds.add("solved")
    assert kinds == {"solved", "ValueError", "NewtonNonConvergence"}
    with pytest.raises(DimensionError, match="delta has 2 entries"):
        solve_linearized_rows(problem, meta.known_solution, np.zeros((3, 2)))
    with pytest.raises(DimensionError, match="starts have shape"):
        solve_linearized_rows(problem, meta.known_solution, np.zeros((3, N)), np.zeros((2, N)))


def test_prox_gstar_of_a_stack_equals_each_row():
    # random rows and rows on the kinks of each piece: F(x*) + mu* and its
    # sign flips, for every battery instance and for a problem of five
    # blocks of every kind (its blocks split the stack along the last axis)
    rng = np.random.default_rng(0)
    cases = [load_battery(name) for name in ("nlp_toy", "sdp_toy", "sdp_degenerate",
                                             "l1_toy", "smooth_toy")]
    cases = [(problem, meta.known_solution) for problem, meta in cases]
    cases.append(_mixed_kink_problem(False))
    for problem, pt in cases:
        w = np.asarray(problem.F.eval(pt.x), dtype=float) + pt.mu
        W = np.vstack([w, -w, np.round(w), 2.0 * rng.standard_normal((5, problem.m))])
        got = problem.prox_gstar(W)
        assert got.shape == W.shape
        want = np.array([problem.prox_gstar(row) for row in W])
        assert got.tobytes() == want.tobytes()
        assert problem.prox_gstar(W[:1]).tobytes() == want[:1].tobytes()


def _residual_loop(problem, z):
    """The KKT residual of one point with a one-point prox call."""
    x, mu = z[:problem.n], z[problem.n:]
    J = np.atleast_2d(np.asarray(problem.F.jacobian(x), dtype=float))
    w = np.asarray(problem.F.eval(x), dtype=float) + mu
    return np.concatenate([J.T @ mu, mu - problem.prox_gstar(w)])


def test_residual_of_a_stack_equals_each_row():
    rng = np.random.default_rng(1)
    cases = [load_battery(name) for name in ("nlp_toy", "sdp_toy", "sdp_degenerate",
                                             "l1_toy", "smooth_toy")]
    cases = [(problem, meta.known_solution) for problem, meta in cases]
    cases.append(_mixed_kink_problem(False))
    for problem, pt in cases:
        Z = pt.stacked() + np.vstack([np.zeros(problem.n + problem.m),
                                      rng.standard_normal((4, problem.n + problem.m))])
        want = np.array([_residual_loop(problem, z) for z in Z])
        assert residual(problem, Z).tobytes() == want.tobytes()
        for z, r in zip(Z, want):
            assert residual(problem, z).tobytes() == r.tobytes()
        assert residual(problem, pt).tobytes() == want[0].tobytes()
