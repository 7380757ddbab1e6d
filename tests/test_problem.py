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
from kktstab.newton import RIDGE_SV, SCREEN_SV, DenseElement, _newton_step, _probe_vector
from kktstab.pieces import ClarkeFrame
from kktstab import newton as newton_mod
from kktstab import pieces as pieces_mod
from kktstab import problem as problem_mod
from kktstab.problem import (FramedElement, as_point, evaluate, framed_element, signed_residual,
                             solve)
from kktstab.symmat import conjugation_matrix
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
    with pytest.raises(DimensionError, match="delta has 2 entries"):
        solve_linearized_ge(problem, meta.known_solution, np.zeros(2))


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


def test_sampler_draws_its_picks_in_batches_of_the_per_block_stream(monkeypatch):
    # rng.integers(0, sizes, size=(count, blocks)) yields, row by row, the
    # picks of one rng.integers(0, size) call per block, blocks of size 1
    # included; the sampler keeps the first distinct ones after the
    # canonical pick, and each element's provenance names its pick
    from kktstab import LinearOperatorElement

    size_of = {}

    def stub_sample_clarke(self, z, count, seed):
        return [LinearOperatorElement(np.array([[k / 8.0]]), f"stub[{k}]")
                for k in range(size_of[id(self)])]

    monkeypatch.setattr(OrthantIndicator, "sample_clarke", stub_sample_clarke)
    rng = np.random.default_rng(77)
    enumerated = set()
    for case in range(80):
        blocks = int(rng.integers(1, 10))
        sizes = rng.integers(1, 5, size=blocks).tolist()
        if case % 4 == 0:
            sizes = [int(rng.integers(1, 3))] * blocks
        count, seed = int(rng.integers(1, 30)), int(rng.integers(0, 1000))
        loop_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        loop = [tuple(int(loop_rng.integers(0, s)) for s in sizes) for _ in range(count)]
        batch = batch_rng.integers(0, sizes, size=(count, blocks)).tolist()
        assert list(map(tuple, batch)) == loop
        assert batch_rng.integers(9) == loop_rng.integers(9)  # the same draws consumed
        pieces = [OrthantIndicator(1) for _ in sizes]
        size_of.update({id(p): s for p, s in zip(pieces, sizes)})
        F = SmoothMap(n=1, m=blocks, eval=lambda x: np.full(blocks, x[0]),
                      jacobian=lambda x: np.ones((blocks, 1)),
                      weighted_hessian_fn=lambda x, mu: np.zeros((1, 1)))
        els = sample_elements_R(CompositeProblem(F, pieces), np.zeros(1 + blocks), count, seed)
        if math.prod(sizes) <= count:
            want = list(np.ndindex(*sizes))
        else:
            want, draw = [(0,) * blocks], np.random.default_rng(seed)
            while len(want) < count:
                pick = tuple(int(draw.integers(0, s)) for s in sizes)
                if pick not in want:
                    want.append(pick)
        assert [e.provenance for e in els] == [tuple(f"stub[{k}]" for k in p) for p in want]
        assert all(e.matrix.tobytes() == M.tobytes() for e, M in zip(els, els.matrices))
        enumerated.add(math.prod(sizes) <= count)
    assert enumerated == {True, False}


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


def _same_frames(got, want):
    return all(g.weight.tobytes() == f.weight.tobytes() and g.provenance == f.provenance
               and (g.eigvecs is None if f.eigvecs is None
                    else g.eigvecs.tobytes() == f.eigvecs.tobytes())
               for g, f in zip(got, want, strict=True))


def test_evaluate_has_the_bits_of_the_residual_and_the_framed_element():
    # one evaluation gives the signed residual, the Jacobian, w and the
    # frames of a point, with the bits of signed_residual and
    # framed_element; a block with no frame (a separable kind) gets
    # framed_element's from clarke_frame at w
    rng = np.random.default_rng(2)
    cases = [load_battery(name) for name in ("nlp_toy", "sdp_toy", "sdp_degenerate",
                                             "l1_toy", "smooth_toy")]
    cases = [(problem, meta.known_solution) for problem, meta in cases]
    cases.append(_mixed_kink_problem(False))

    def completed(problem, w, frames):
        return [p.clarke_frame(wb) if f is None else f
                for p, wb, f in zip(problem.pieces, problem.blocks(w), frames)]

    for problem, pt in cases:
        Z = pt.stacked() + np.vstack([np.zeros(problem.n + problem.m),
                                      rng.standard_normal((4, problem.n + problem.m))])
        shares = [isinstance(getattr(p, "inner", p), PSDConeIndicator) for p in problem.pieces]
        for z in Z:
            r, J, w, frames = evaluate(problem, z)
            want = framed_element(problem, z)
            assert r.tobytes() == signed_residual(problem, z).tobytes()
            assert J.tobytes() == want.J.tobytes()
            assert w.tobytes() == (np.asarray(problem.F.eval(z[:problem.n]), dtype=float)
                                  + z[problem.n:]).tobytes()
            assert [f is not None for f in frames] == shares
            assert _same_frames(completed(problem, w, frames), want.frames)


def _psd_points_decomposed(monkeypatch):
    """Spy on the PSD kind's eig_split: the number of points it decomposes,
    and how many of them in the element calls of solve's semismooth_solve."""
    count = {"points": 0, "in_element": 0}
    inside = []
    eig_split = pieces_mod.eig_split

    def spied_eig(v):
        count["points"] += 1 if np.ndim(v) == 1 else len(v)
        count["in_element"] += bool(inside) * (1 if np.ndim(v) == 1 else len(v))
        return eig_split(v)

    def spied_solve(residual, element, z0, opts=None, **kwargs):
        def counted(z):
            count["evaluated"] = count.get("evaluated", 0) + 1
            return residual(z)

        def in_element(z):
            inside.append(1)
            try:
                return element(z)
            finally:
                inside.pop()

        return newton_mod.semismooth_solve(counted, in_element, z0, opts, **kwargs)

    monkeypatch.setattr(pieces_mod, "eig_split", spied_eig)
    monkeypatch.setattr(problem_mod, "semismooth_solve", spied_solve)
    return count


@pytest.mark.parametrize("name", ["sdp_toy", "sdp_degenerate", "pencil12"])
def test_solve_decomposes_each_evaluated_point_once(name, monkeypatch):
    # each problem has one PSD block: solve's eig_split calls decompose one
    # point per evaluated point, and none in the element, which reuses the
    # frames of its residual's evaluation
    rng = np.random.default_rng(4)
    if name == "pencil12":
        problem, pt = _psd_pencil(rng, 12, 0)
        zbar = pt.stacked()
    else:
        problem, meta = load_battery(name)
        zbar = meta.known_solution.stacked()
    count = _psd_points_decomposed(monkeypatch)
    iterations = 0
    for _ in range(5):
        d = rng.standard_normal(zbar.size)
        try:
            _, trace = solve(problem, zbar + 1.5 * d / np.linalg.norm(d), NewtonOptions(max_iter=8))
        except NewtonError as exc:
            trace = exc.trace
        iterations += trace.iterations
    # the starts' residuals and one trial per iteration, and more: some
    # iterations backtracked
    assert iterations > 0 and count["evaluated"] > iterations + 5
    assert count["points"] == count["evaluated"] and count["in_element"] == 0


def _orthogonal(rng, k):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def _psd_pencil(rng, order, n_beta):
    """An epi-lifted PSD pencil with a quadratic objective, and a point whose
    PSD block F(x) + mu has n_beta zero eigenvalues and the others of both
    signs; the objective's multiplier is 1, as at a KKT point.  As in the
    planted pencils, n exceeds the k(k+1)/2 coordinates of the zero and
    negative eigenvalues' block, so the element is generically nonsingular."""
    k = n_beta + (order - n_beta) // 2
    n = k * (k + 1) // 2 + 2
    Ms = [rng.standard_normal((order, order)) for _ in range(n + 1)]
    M0, *Ms = [svec(M + M.T) for M in Ms]
    A = np.array(Ms).T
    G = rng.standard_normal((n, n))
    Q, a = G @ G.T - np.eye(n), rng.standard_normal(n)
    F = SmoothMap(n=n, m=1 + A.shape[0],
                  eval=lambda x: np.concatenate([[0.5 * x @ Q @ x + a @ x], M0 + A @ x]),
                  jacobian=lambda x: np.vstack([Q @ x + a, A]),
                  weighted_hessian_fn=lambda x, mu: mu[0] * Q)
    lam = np.zeros(order)
    rest = order - n_beta
    lam[:rest] = rng.uniform(0.5, 2.0, rest) * np.where(np.arange(rest) % 2, -1.0, 1.0)
    P = _orthogonal(rng, order)
    x = rng.standard_normal(n)
    mu = np.concatenate([[1.0], svec((P * lam) @ P.T) - M0 - A @ x])
    return CompositeProblem(F, [EpiSum(PSDConeIndicator(order))]), KKTPoint(x, mu)


def _framed_cases():
    """(name, problem, point) with a nonsingular canonical element: points
    around each battery solution, planted PSD pencils with |beta| = 0, 1 and
    2, and the mixed problem with separable kinks and an epi lift."""
    rng = np.random.default_rng(5)
    cases = []
    for name in ("nlp_toy", "sdp_toy", "sdp_degenerate", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        z = meta.known_solution.stacked()
        for k in range(6):
            cases.append((f"{name}#{k}", problem, z + rng.standard_normal(z.size)))
    for order, n_beta in ((3, 0), (4, 1), (5, 2), (6, 1), (6, 2)):
        cases.append((f"pencil{order}b{n_beta}",) + _psd_pencil(rng, order, n_beta))
    cases.append(("mixed_kinks",) + _mixed_kink_problem(False))
    return [(name, problem, as_point(problem, z).stacked()) for name, problem, z in cases]


def test_framed_steps_agree_with_dense_steps():
    kept = set()
    for name, problem, z in _framed_cases():
        E = canonical_element(problem, z).matrix
        s_e = np.linalg.svd(E, compute_uv=False)[-1]
        if s_e < 1e-6:
            continue  # no step to compare: the battery points include singular elements
        kept.add(name.split("#")[0])
        framed = framed_element(problem, z)
        r = signed_residual(problem, z)
        want = np.linalg.solve(E, -r)
        got, bound = framed.step(r, np.dot(r, r), _probe_vector)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        assert bound >= SCREEN_SV, name  # the screen keeps the framed step
        assert bound >= s_e * (1.0 - 1e-9), name  # the Dixon bound on E itself
        # the step solves E s = -r, so the driver's slope -r . r is its own
        assert np.linalg.norm(E @ got + r) <= 1e-12 * np.linalg.norm(r), name
        assert framed.matrix is None  # no dense element was formed
        assert framed.dense().tobytes() == E.tobytes(), name
    assert kept == {"nlp_toy", "sdp_toy", "sdp_degenerate", "l1_toy", "smooth_toy",
                    "pencil3b0", "pencil4b1", "pencil5b2", "pencil6b1", "pencil6b2",
                    "mixed_kinks"}
    # 300 random nonsingular framed elements; the singular ones drawn on the
    # way (sigma_min at rounding level) must be flagged
    rng, checked = np.random.default_rng(10), 0
    while checked < 300:
        row = _random_framed_row(rng, rng.choice([0.01, 1.0, 10.0, 100.0]))
        r = rng.standard_normal(row.H.shape[0] + row.w.size)
        _, bound = row.step(r, np.dot(r, r), _probe_vector)
        s_e = np.linalg.svd(row.dense(), compute_uv=False)[-1]
        if s_e < RIDGE_SV:
            assert not bound >= SCREEN_SV, (checked, s_e, bound)
            continue
        assert bound >= s_e * (1.0 - 1e-9), (checked, s_e, bound)
        checked += 1


def test_framed_bound_is_within_four_of_sigma_min_at_the_battery_starts():
    # the Dixon bound on E itself is tight enough to read: at the starts of
    # sdp_toy and nlp_toy it lies in [sigma_min(E), 4 sigma_min(E)]
    for name in ("sdp_toy", "nlp_toy"):
        problem, meta = load_battery(name)
        z = meta.start.stacked()
        r = signed_residual(problem, z)
        _, bound = framed_element(problem, z).step(r, np.dot(r, r), _probe_vector)
        s_e = np.linalg.svd(canonical_element(problem, z).matrix, compute_uv=False)[-1]
        assert s_e <= bound <= 4.0 * s_e, (name, bound, s_e)


def test_clarke_frame_coordinates_are_the_conjugation_matrix():
    rng = np.random.default_rng(6)
    for piece in (PSDConeIndicator(3), EpiSum(PSDConeIndicator(3)), EpiSum(L1Norm(2)),
                  BoxIndicator([-1.0, 0.0], [1.0, 2.0])):
        z = rng.standard_normal(piece.dim)
        frame = piece.clarke_frame(z)
        Q = np.eye(piece.dim)
        if frame.eigvecs is not None:
            Q[frame.lead:, frame.lead:] = conjugation_matrix(frame.eigvecs)
        V = rng.standard_normal((4, piece.dim))
        assert np.allclose(frame.coords(V), V @ Q, atol=1e-13)
        assert np.allclose(frame.vectors(V), V @ Q.T, atol=1e-13)
        assert np.allclose(Q @ np.diag(frame.weight) @ Q.T, frame.matrix(), atol=1e-13)
        assert frame.matrix().tobytes() == piece.clarke_element(z).matrix.tobytes()


def _random_framed_row(rng, scale):
    """A framed element with random H, J, eigenvectors and weights (some
    exactly 0, 1/2 and 1) over an epi-lifted PSD block and a box block."""
    pieces = [EpiSum(PSDConeIndicator(3)), BoxIndicator([-1.0] * 3, [1.0] * 3)]
    n, m = 3, sum(p.dim for p in pieces)
    problem = CompositeProblem(SmoothMap(n=n, m=m, eval=None, jacobian=None), pieces)
    G = rng.standard_normal((n, n))
    H = G @ np.diag(rng.choice([1.0, 1e-4, 1e-9], n)) @ G.T * rng.choice([-1.0, 1.0])
    J = scale * rng.standard_normal((m, n))
    w = rng.choice([0.0, 0.5, 1.0, rng.uniform()], m)
    w[0] = 1.0
    frames = [ClarkeFrame(w[:7], _orthogonal(rng, 3)), ClarkeFrame(w[7:])]
    return FramedElement(problem, H, J, frames)


def test_framed_sigma_min_factor():
    # E ~ diag(Lam)^-1 [[I, -Y], [0, I]] diag(R, -I) [[I, 0], [-Z, I]] in the
    # frame, with S before L, and min(s_R, 1) / (2c) <= s_E <= c min(s_R, 1)
    # with c = (1 + |J|_F)^2
    rng = np.random.default_rng(7)
    for trial in range(200):
        row = _random_framed_row(rng, rng.choice([0.01, 1.0, 10.0, 100.0]))
        n, w = row.H.shape[0], row.w
        c = (1.0 + np.linalg.norm(row.J)) ** 2
        E = row.dense()
        R, big, _ = row.reduced()
        Q = np.eye(w.size)
        Q[1:7, 1:7] = conjugation_matrix(row.frames[0].eigvecs)
        order = np.concatenate([np.arange(n), n + np.flatnonzero(~big), n + np.flatnonzero(big)])
        rot = np.eye(n + w.size)
        rot[n:, n:] = Q
        Et = (rot.T @ E @ rot)[np.ix_(order, order)]
        ws, wl, Jt = w[~big], w[big], Q.T @ row.J
        ns, nl = ws.size, wl.size
        k = n + ns
        upper, lower = np.eye(k + nl), np.eye(k + nl)
        upper[:n, k:] = -Jt[big].T
        lower[k:, :n] = -((1.0 - wl) / wl)[:, None] * Jt[big]
        middle = np.zeros((k + nl, k + nl))
        middle[:k, :k] = R
        middle[k:, k:] = -np.eye(nl)
        lam = np.concatenate([np.ones(n), 1.0 / (1.0 - ws), 1.0 / wl])
        assert np.all((1.0 <= lam) & (lam <= 2.0))
        assert np.allclose(Et, (upper @ middle @ lower) / lam[:, None], atol=1e-12 * c)
        s_e = np.linalg.svd(E, compute_uv=False)[-1]
        s_r = min(np.linalg.svd(R, compute_uv=False)[-1], 1.0)
        assert s_r / (2.0 * c) <= s_e * (1 + 1e-9) + 1e-13, trial
        assert s_e <= c * s_r * (1 + 1e-9) + 1e-13, trial


def test_flagged_framed_elements_take_the_dense_svd():
    # a regular element, a singular one and a near-singular one (weights
    # 1, so E = [[H, J^T], [0, -I]], and H has sigma_min 1e-13 and 1e-9):
    # the screen flags the last two and forms no dense element;
    # _newton_step forms them for the svd.  The singular one's ridge step,
    # sigma_min and slope have the bits they get on its dense matrix; the
    # near-singular one gets the svd's exact sigma_min but keeps its
    # framed step, and the regular one keeps its framed step and its
    # bound.  Both solved steps take the slope -r . r
    rng = np.random.default_rng(9)
    regular = _random_framed_row(rng, 1.0)

    def weight_one_row(smallest):
        G = _orthogonal(rng, 3)
        return FramedElement(regular.problem, G @ np.diag([1.0, -1.0, smallest]) @ G.T,
                             rng.standard_normal(regular.J.shape),
                             [ClarkeFrame(np.ones(7), _orthogonal(rng, 3)),
                              ClarkeFrame(np.ones(3))])

    singular, near = weight_one_row(1e-13), weight_one_row(1e-9)
    elements = [regular, singular, near]
    r = rng.standard_normal((3, 3 + regular.w.size))
    rr = np.einsum("ij,ij->i", r, r)
    (step, b), (_, b1), (near_step, b2) = [E.step(ri, rri, _probe_vector)
                                           for E, ri, rri in zip(elements, r, rr)]
    assert b >= SCREEN_SV and b1 < SCREEN_SV and b2 < SCREEN_SV
    assert regular.matrix is None and singular.matrix is None and near.matrix is None
    got = [_newton_step(E, ri, rri, 1e-12, False) for E, ri, rri in zip(elements, r, rr)]
    assert regular.matrix is None
    assert singular.matrix is not None and near.matrix is not None
    assert got[0][0].tobytes() == step.tobytes() and got[0][1] == b
    want_s, want_sv, want_slope = _newton_step(DenseElement(singular.matrix), r[1], rr[1],
                                               1e-12, False)
    assert got[1][1] < RIDGE_SV and got[1][1] == want_sv
    assert got[1][0].tobytes() == want_s.tobytes()
    assert got[1][2] == want_slope == np.dot(singular.matrix @ want_s, r[1])
    assert got[2][1] == np.linalg.svd(near.matrix, compute_uv=False)[-1]
    assert RIDGE_SV <= got[2][1] < SCREEN_SV
    assert got[2][0].tobytes() == near_step.tobytes()
    assert got[0][2] == -rr[0] and got[2][2] == -rr[2]
