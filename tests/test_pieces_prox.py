import numpy as np
import pytest

from kktstab import (
    BoxIndicator,
    CompositeProblem,
    EpiSum,
    L1Norm,
    OrthantIndicator,
    PSDConeIndicator,
    SmoothMap,
    eig_split,
    moreau_envelope,
    prox,
    prox_conjugate,
    smat,
    svec,
)
from kktstab.pieces import (
    _DEDUP_TOL,
    _LOWER,
    _UPPER,
    PIECE_KINDS,
    PSD_PATTERN_CAP,
    SEPARABLE_PATTERN_CAP,
    ClarkeFrame,
    LinearOperatorElement,
    dedup_elements,
)
from kktstab.stability import AnalysisPoint, nullspace
from kktstab.symmat import SQRT2, coupling
from kktstab.verify import piece_battery
from test_symmat import conjugation_matrix_loop, svec_loop


def psd_projection_oracle(A, iters=40000, step=5e-3):
    """Gradient descent on ||L L^T - A||_F^2 over the factor L; an
    eigenvalue-free route to the nearest positive semidefinite matrix."""
    m = A.shape[0]
    L = 0.5 * np.eye(m) + 0.01
    for _ in range(iters):
        R = L @ L.T - A
        L = L - step * (R + R.T) @ L
    return L @ L.T


def test_psd_prox_diagonal_example():
    piece = PSDConeIndicator(2)
    z = svec(np.diag([2.0, -1.0]))
    assert np.allclose(prox(piece, z, 1.0), svec(np.diag([2.0, 0.0])), atol=1e-14)


def test_psd_prox_offdiagonal_example_vs_factor_oracle():
    piece = PSDConeIndicator(2)
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = 0.5 * np.ones((2, 2))
    p = smat(prox(piece, svec(A), 1.0))
    assert np.allclose(p, expected, atol=1e-14)
    assert np.allclose(psd_projection_oracle(A), expected, atol=1e-5)


def test_psd_prox_sigma_invariant():
    piece = PSDConeIndicator(3)
    rng = np.random.default_rng(0)
    z = svec(_random_sym(rng, 3))
    assert np.allclose(prox(piece, z, 0.1), prox(piece, z, 10.0), atol=1e-14)


def test_l1_soft_threshold_examples():
    piece = L1Norm(1)
    assert prox(piece, np.array([0.5]), 1.0)[0] == 0.0
    assert prox(piece, np.array([3.0]), 1.0)[0] == 2.0
    assert prox(piece, np.array([-3.0]), 0.5)[0] == -2.5


def test_epi_lift_prox():
    piece = EpiSum(OrthantIndicator(1, -1))
    z = np.array([2.0, 1.5])
    assert np.allclose(prox(piece, z, 1.0), [1.0, 0.0])
    assert np.allclose(prox(piece, z, 2.0), [0.0, 0.0])


def test_prox_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        prox(L1Norm(1), np.array([1.0]), 0.0)


def test_prox_conjugate_examples():
    psd = PSDConeIndicator(2)
    out = prox_conjugate(psd, svec(np.diag([-1.0, 1.0])), 1.0)
    assert np.allclose(out, svec(np.diag([-1.0, 0.0])), atol=1e-14)
    l1 = L1Norm(1)
    assert np.isclose(prox_conjugate(l1, np.array([3.0]), 1.0)[0], 1.0)
    for piece in (psd, l1, OrthantIndicator(2, -1), BoxIndicator([-1.0, -1.0], [1.0, 1.0])):
        zero = np.zeros(piece.dim)
        assert np.allclose(prox_conjugate(piece, zero, 1.0), zero, atol=1e-14)


def test_moreau_envelope_examples():
    psd = PSDConeIndicator(2)
    value, grad = moreau_envelope(psd, svec(np.diag([2.0, -1.0])), 1.0)
    assert np.isclose(value, 0.5)
    assert np.allclose(grad, svec(np.diag([0.0, -1.0])), atol=1e-14)
    # fixed points of the prox give the bare function value and zero gradient
    z = svec(np.diag([1.0, 2.0]))
    value, grad = moreau_envelope(psd, z, 1.0)
    assert value == 0.0 and np.allclose(grad, 0.0)
    l1 = L1Norm(1)
    value, grad = moreau_envelope(l1, np.array([3.0]), 1.0)
    assert np.isclose(value, 2.5) and np.isclose(grad[0], 1.0)


def _random_sym(rng, m):
    A = rng.standard_normal((m, m))
    return A + A.T


def test_nonexpansiveness_battery():
    rng = np.random.default_rng(10)
    for name, piece in piece_battery():
        for _ in range(200):
            z1 = 2.0 * rng.standard_normal(piece.dim)
            z2 = 2.0 * rng.standard_normal(piece.dim)
            for sigma in (0.3, 1.0, 4.0):
                lhs = np.linalg.norm(piece.prox(z1, sigma) - piece.prox(z2, sigma))
                assert lhs <= np.linalg.norm(z1 - z2) + 1e-12, name


def test_moreau_identity_dual_route():
    # library path uses the identity; each piece's direct closed form is a
    # second, independent route
    rng = np.random.default_rng(11)
    for name, piece in piece_battery():
        for _ in range(100):
            z = 2.0 * rng.standard_normal(piece.dim)
            direct = piece.prox_conjugate_direct(z)
            assert np.linalg.norm(piece.prox_conjugate(z, 1.0) - direct) <= 1e-12, name
            assert np.linalg.norm(piece.prox(z, 1.0) + direct - z) <= 1e-12, name
            for sigma in (0.1, 10.0):
                lhs = piece.prox(z, sigma) \
                    + sigma * piece.prox_conjugate_direct(z / sigma, 1.0 / sigma)
                assert np.linalg.norm(lhs - z) <= 1e-10, name


def test_prox_and_frame_has_the_bits_of_prox_and_clarke_frame():
    # random points and points on kinks (zero eigenvalues, coordinates at
    # the box bounds and at +-1), one at a time and as a stack, whose rows
    # also have the bits of the one-point calls.  The PSD kind and its lift
    # give the frame; the separable kinds, which share no decomposition
    # between the two, give None, and their frame is clarke_frame's
    rng = np.random.default_rng(14)

    def same(got, want, shares):
        (p, f), g = got, want
        if not shares:
            return f is None and p.tobytes() == g[0].tobytes()
        return (p.tobytes() == g[0].tobytes() and f.weight.tobytes() == g[1].weight.tobytes()
                and f.provenance == g[1].provenance
                and (g[1].eigvecs is None if f.eigvecs is None
                     else f.eigvecs.tobytes() == g[1].eigvecs.tobytes()))

    for name, piece in piece_battery():
        shares = isinstance(getattr(piece, "inner", piece), PSDConeIndicator)
        Z = np.vstack([2.0 * rng.standard_normal((6, piece.dim)), np.zeros(piece.dim),
                       np.round(2.0 * rng.standard_normal((3, piece.dim)))])
        for z in [*Z, Z]:
            assert same(piece.prox_and_frame(z), (piece.prox(z), piece.clarke_frame(z)),
                        shares), name
        p, frame = piece.prox_and_frame(Z)
        for i, z in enumerate(Z):
            got = (p[i], ClarkeFrame(frame.weight[i], frame.eigvecs[i], frame.provenance)
                   if shares else None)
            assert same(got, (piece.prox(z), piece.clarke_frame(z)), shares), name


def test_fenchel_young_inequality():
    rng = np.random.default_rng(12)
    for name, piece in piece_battery():
        for _ in range(100):
            z = piece.prox(2.0 * rng.standard_normal(piece.dim))  # a domain point
            w = piece.prox_conjugate(2.0 * rng.standard_normal(piece.dim))
            fz = piece.value(z)
            fw = piece.conjugate_value(w)
            if np.isfinite(fz) and np.isfinite(fw):
                assert fz + fw >= float(z @ w) - 1e-8, name


def test_envelope_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    for name, piece in piece_battery():
        z = 1.5 * rng.standard_normal(piece.dim)
        for sigma in (0.5, 1.0):
            _, grad = piece.moreau_envelope(z, sigma)
            h = 1e-6
            fd = np.empty(piece.dim)
            for i in range(piece.dim):
                e = np.zeros(piece.dim)
                e[i] = h
                vp, _ = piece.moreau_envelope(z + e, sigma)
                vm, _ = piece.moreau_envelope(z - e, sigma)
                fd[i] = (vp - vm) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-5 * (1 + np.linalg.norm(grad)), name


# ----------------------------------------------------------------------
# Loop forms of the PSD element code, kept as oracles for the
# index-array implementation.

def _pair_loop(m):
    return [(i, j) for i in range(m) for j in range(i, m)]


def _classes_loop(lam):
    # alpha, beta and gamma are the signs of the clamped eigenvalues
    return np.array(["a" if v > 0.0 else "b" if v == 0.0 else "g" for v in lam])


def element_from_Z_loop(piece, split, Z_small, provenance):
    lam, P, _ = split
    cls = _classes_loop(lam)
    B = np.zeros((piece.dim, piece.dim))
    beta_coords = []
    for k, (i, j) in enumerate(_pair_loop(lam.size)):
        pair = cls[i] + cls[j]
        if pair in ("aa", "ab", "ba"):
            B[k, k] = 1.0
        elif pair in ("ag", "ga"):
            B[k, k] = coupling(lam, i, j)
        elif pair == "bb":
            beta_coords.append(k)
    if beta_coords:
        if Z_small is None:
            Z_small = np.eye(len(beta_coords))
        B[np.ix_(beta_coords, beta_coords)] = Z_small
    K = conjugation_matrix_loop(P)
    M = K @ B @ K.T
    return LinearOperatorElement(0.5 * (M + M.T), provenance)


def projection_kernel_block_loop(Q, pattern):
    M = Q @ np.diag(pattern.astype(float)) @ Q.T
    b = Q.shape[0]
    pairs = _pair_loop(b)
    K = np.empty((len(pairs), len(pairs)))
    for k, (i, j) in enumerate(pairs):
        E = np.zeros((b, b))
        if i == j:
            E[i, i] = 1.0
        else:
            E[i, j] = E[j, i] = 1.0 / SQRT2
        K[:, k] = svec_loop(M @ E @ M)
    return K


def sample_clarke_loop(piece, z, count, seed):
    sp = eig_split(z)
    nb = np.count_nonzero(sp[0] == 0.0)
    elements = [element_from_Z_loop(piece, sp, None, f"{piece.kind}:canonical(beta=I)")]
    if nb == 0:
        return elements
    sd = nb * (nb + 1) // 2
    elements.append(element_from_Z_loop(piece, sp, np.zeros((sd, sd)),
                                        f"{piece.kind}:zero-beta"))
    rng = np.random.default_rng(seed)
    for s in range(min(PSD_PATTERN_CAP, max(count, 4))):
        G = rng.standard_normal((nb, nb))
        Q, R = np.linalg.qr(G)
        Q = Q * np.sign(np.diag(R))
        pattern = rng.integers(0, 2, size=nb)
        Z = projection_kernel_block_loop(Q, pattern)
        tag = "".join(str(int(b)) for b in pattern)
        elements.append(element_from_Z_loop(piece, sp, Z, f"{piece.kind}:pattern[{tag}]q{s}"))
    while len(elements) < count + 2:
        theta = rng.uniform(0.05, 0.95)
        i, j = rng.integers(0, len(elements), size=2)
        mix = theta * elements[i].matrix + (1 - theta) * elements[j].matrix
        elements.append(LinearOperatorElement(mix, f"{piece.kind}:convex({i},{j})"))
    return dedup_elements(elements)[: max(count, 2)]


def cone_bases_loop(piece, xbar, ubar):
    lam, P, _ = eig_split(xbar + ubar)
    cls = _classes_loop(lam)
    K = conjugation_matrix_loop(P)
    aff_cols, lin_cols = [], []
    for k, (i, j) in enumerate(_pair_loop(lam.size)):
        pair = cls[i] + cls[j]
        if pair in ("aa", "ab", "ba", "ag", "ga"):
            aff_cols.append(k)
            lin_cols.append(k)
        elif pair == "bb":
            aff_cols.append(k)
    return K[:, aff_cols], K[:, lin_cols]


def _psd_structures():
    """Points svec(P diag(lam) P^T) of orders 1-8 with every index structure
    having |beta| <= 3, empty alpha and empty gamma included."""
    rng = np.random.default_rng(20)
    for m in range(1, 9):
        for nb in range(min(3, m) + 1):
            for na in range(m - nb + 1):
                ng = m - na - nb
                lam = np.concatenate([rng.uniform(0.5, 3.0, na), np.zeros(nb),
                                      -rng.uniform(0.5, 3.0, ng)])
                P, _ = np.linalg.qr(rng.standard_normal((m, m)))
                yield (m, na, nb, ng), svec(P @ np.diag(lam) @ P.T)


def test_psd_clarke_element_matches_loop_oracle():
    by_order = {}
    for case, z in _psd_structures():
        piece = PSDConeIndicator(case[0])
        sp = eig_split(z)
        lam = sp[0]
        assert (np.count_nonzero(lam > 0.0), np.count_nonzero(lam == 0.0),
                np.count_nonzero(lam < 0.0)) == case[1:]
        new = piece.clarke_element(z)
        old = element_from_Z_loop(piece, sp, None, f"{piece.kind}:canonical(beta=I)")
        assert new.provenance == old.provenance
        assert np.max(np.abs(new.matrix - old.matrix)) <= 1e-12, case
        assert np.array_equal(new.matrix, new.matrix.T), case
        by_order.setdefault(case[0], []).append((case, z, old.matrix))
    # one stack mixing every index structure of an order
    for m, rows in by_order.items():
        piece = PSDConeIndicator(m)
        stack = piece.clarke_element(np.array([z for _, z, _ in rows])).matrix
        for (case, z, old), M in zip(rows, stack):
            assert np.max(np.abs(M - old)) <= 1e-12, case
            assert M.tobytes() == piece.clarke_element(z).matrix.tobytes(), case


def test_psd_sample_clarke_matches_loop_oracle():
    for case, z in _psd_structures():
        piece = PSDConeIndicator(case[0])
        for count in (1, 6, 40):
            new = piece.sample_clarke(z, count, seed=3)
            old = sample_clarke_loop(piece, z, count, seed=3)
            assert new[0].matrix.tobytes() == piece.clarke_element(z).matrix.tobytes(), case
            assert [e.provenance for e in new] == [e.provenance for e in old], case
            for a, b in zip(new, old):
                assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12, case


def test_psd_cone_descriptor_bases_match_loop_oracle():
    for case, z in _psd_structures():
        piece = PSDConeIndicator(case[0])
        xbar = piece.prox(z)
        ubar = z - xbar
        desc = piece.structure(xbar, ubar)
        aff, lin = cone_bases_loop(piece, xbar, ubar)
        assert desc.affine_hull_basis.shape == aff.shape, case
        assert desc.lineality_basis.shape == lin.shape, case
        assert np.max(np.abs(desc.affine_hull_basis - aff), initial=0.0) <= 1e-12, case
        assert np.max(np.abs(desc.lineality_basis - lin), initial=0.0) <= 1e-12, case


def cone_point(structures, N=None, opts=None):
    """An analysis point under opts whose blocks have the given
    structures: the point (0, 0) of a linear map x -> J x on L1Norm blocks
    of the structures' sizes, with no KKT test and with its cached
    structures replaced.  J is 0 (one column), so null(J^T) is everything,
    or, when N is given, an orthonormal basis of span(N)^perp, so null(J^T)
    is span(N) and the point decides each cone on it."""
    dims = [st.critical.size for st in structures]
    m = sum(dims)
    J = np.zeros((m, 1)) if N is None else nullspace(N.T)
    if not J.shape[1]:
        J = np.zeros((m, 1))
    F = SmoothMap(n=J.shape[1], m=m, eval=lambda x: J @ x, jacobian=lambda x: J)
    point = AnalysisPoint(CompositeProblem(F, [L1Norm(d) for d in dims]),
                          np.zeros(J.shape[1] + m), opts, _kkt_test=False)
    point.structures = structures
    return point


def assert_projects_row_wise(project, dim, rng):
    """project on a stack equals projecting each row; 1-d stays 1-d."""
    for shape in ((5,), (2, 3)):
        V = rng.standard_normal(shape + (dim,))
        rows = np.array([project(v) for v in V.reshape(-1, dim)])
        out = project(V)
        assert out.shape == V.shape
        assert np.max(np.abs(out.reshape(-1, dim) - rows)) <= 1e-12
    assert project(V[0, 0]).shape == (dim,)


def _assert_point_projects_row_wise(st, rng):
    point = cone_point([st])
    for name in ("critical_polar_cone", "domain_normal_cone"):
        assert_projects_row_wise(lambda V: point.project(name, V), st.critical.size, rng)
    return point


def test_cone_projections_act_row_wise_on_stacks():
    rng = np.random.default_rng(8)
    for case, z in _psd_structures():
        piece = PSDConeIndicator(case[0])
        lifted = EpiSum(piece)
        xbar = piece.prox(z)
        ubar = z - xbar
        _assert_point_projects_row_wise(piece.structure(xbar, ubar), rng)
        lifted_st = lifted.structure(np.concatenate([[0.5], xbar]),
                                     np.concatenate([[1.0], ubar]))
        _assert_point_projects_row_wise(lifted_st, rng)
    for piece, z in ((OrthantIndicator(4), np.array([1.0, -1.0, 0.0, 2.0])),
                     (BoxIndicator([-1.0, 0.0, -np.inf], [1.0, 0.0, 2.0]),
                      np.array([0.5, 3.0, 2.0])),
                     (L1Norm(3), np.array([2.0, 1.0, -0.5]))):
        xbar = piece.prox(z)
        assert _assert_point_projects_row_wise(piece.structure(xbar, z - xbar), rng).polyhedral


# ----------------------------------------------------------------------
# Loop forms of the separable pieces, kept as oracles for the array code.


def _states_loop(piece, z):
    """Per-coordinate (state, half-line sign); state 1 free, 0 pinned, 2 kink.
    A coordinate within t = 1e-8 * max(1, max|z|) of a kink is on it, and a
    box narrower than 2t pins its coordinate."""
    t = 1e-8 * max(1.0, max(abs(float(v)) for v in z))
    out = []
    for i, zi in enumerate(z):
        if isinstance(piece, OrthantIndicator):
            w = piece.sign * zi
            out.append((1, 0.0) if w > t else (0, 0.0) if w < -t else (2, float(piece.sign)))
        elif isinstance(piece, BoxIndicator):
            lo, hi = piece.lower[i], piece.upper[i]
            if not hi - lo > 2 * t:
                out.append((0, 0.0))
            elif abs(zi - lo) <= t:
                out.append((2, 1.0))
            elif abs(zi - hi) <= t:
                out.append((2, -1.0))
            elif lo + t < zi < hi - t:
                out.append((1, 0.0))
            else:
                out.append((0, 0.0))
        else:
            a = abs(zi)
            out.append((1, 0.0) if a > 1.0 + t else (0, 0.0) if a < 1.0 - t
                       else (2, float(np.sign(zi))))
    return out


def separable_sample_clarke_loop(piece, z, count, seed):
    states = [s for s, _ in _states_loop(piece, z)]
    base = [1.0 if s == 1 else 0.0 for s in states]
    kinks = [i for i, s in enumerate(states) if s == 2]
    elements = [
        LinearOperatorElement(np.diag([0.0 if s == 0 else 1.0 for s in states]),
                              f"{piece.kind}:canonical"),
        LinearOperatorElement(np.diag(base), f"{piece.kind}:pattern-zeros"),
    ]
    rng = np.random.default_rng(seed)
    if kinks:
        if 2 ** len(kinks) <= SEPARABLE_PATTERN_CAP:
            patterns = [[(p >> i) & 1 for i in range(len(kinks))]
                        for p in range(2 ** len(kinks))]
        else:
            patterns = [list(rng.integers(0, 2, size=len(kinks)))
                        for _ in range(SEPARABLE_PATTERN_CAP)]
        for pat in patterns:
            diag = list(base)
            for k, b in zip(kinks, pat):
                diag[k] = float(b)
            tag = "".join(str(int(b)) for b in pat)
            elements.append(LinearOperatorElement(np.diag(diag), f"{piece.kind}:pattern[{tag}]"))
        while len(elements) < count + 2:
            theta = rng.uniform(0.05, 0.95)
            i, j = rng.integers(0, len(elements), size=2)
            mix = theta * elements[i].matrix + (1 - theta) * elements[j].matrix
            elements.append(LinearOperatorElement(mix, f"{piece.kind}:convex({i},{j})"))
    kept = []
    for el in elements:
        if all(np.max(np.abs(el.matrix - o.matrix)) > 1e-12 for o in kept):
            kept.append(el)
    return kept[: max(count, 2)]


def _separable_points(n_kinks, dim=9):
    """Points of each separable piece with exactly n_kinks kink coordinates;
    the other coordinates alternate between free and pinned."""
    rng = np.random.default_rng(30 + n_kinks)
    off = rng.uniform(0.2, 0.8, dim)
    side = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    kink = np.arange(dim) < n_kinks
    free = np.arange(dim) % 2 == 0
    for sign in (-1, 1):
        yield OrthantIndicator(dim, sign), np.where(kink, 0.0, sign * np.where(free, off, -off))
    lower = np.array([-1.0, 0.0, -np.inf, -2.0, -1.0, -3.0, 0.0, -1.0, -2.0])
    upper = np.array([1.0, 0.5, 2.0, np.inf, 1.0, 3.0, 1.0, np.inf, 2.0])
    at_bound = np.where(np.isfinite(lower), lower, upper)
    inside = 0.5 * (np.maximum(lower, -5.0) + np.minimum(upper, 5.0))
    outside = np.where(np.isfinite(upper), upper + off, lower - off)
    yield BoxIndicator(lower, upper), np.where(kink, at_bound, np.where(free, inside, outside))
    yield L1Norm(dim), side * np.where(kink, 1.0, np.where(free, 1.0 + off, off))


def test_separable_sample_clarke_matches_loop_oracle():
    for n_kinks in (0, 3, 7):
        for piece, z in _separable_points(n_kinks):
            states = [s for s, _ in _states_loop(piece, z)]
            assert states.count(2) == n_kinks, (piece.kind, n_kinks)
            assert {0, 1} <= set(states), (piece.kind, n_kinks)
            for count in (1, 12, 40):
                new = piece.sample_clarke(z, count, seed=5)
                old = separable_sample_clarke_loop(piece, z, count, seed=5)
                assert new[0].matrix.tobytes() == piece.clarke_element(z).matrix.tobytes(), \
                    (piece.kind, n_kinks, count)
                assert [e.provenance for e in new] == [e.provenance for e in old], \
                    (piece.kind, n_kinks, count)
                for a, b in zip(new, old):
                    assert np.array_equal(a.matrix, b.matrix), (piece.kind, n_kinks, count)


def test_box_array_forms_match_loop_oracle():
    rng = np.random.default_rng(31)
    piece = BoxIndicator([-1.0, 0.0, -np.inf, -2.0, 0.5], [1.0, 0.5, 2.0, np.inf, 0.5])
    for _ in range(200):
        z = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0], size=5) + \
            rng.choice([0.0, 0.0, 1e-13, 0.3], size=5)
        state, sign = piece._classify(z)
        assert list(zip(state.tolist(), sign.tolist())) == _states_loop(piece, z)
        total = 0.0
        for i in range(5):
            if z[i] > 0:
                total += piece.upper[i] * z[i]
            elif z[i] < 0:
                total += piece.lower[i] * z[i]
        assert piece.conjugate_value(z) == pytest.approx(total, rel=1e-12)
        for sigma in (0.5, 1.0, 4.0):
            direct = np.zeros(5)
            for i in range(5):
                lo, hi = piece.lower[i], piece.upper[i]
                if np.isfinite(hi) and z[i] > sigma * hi:
                    direct[i] = z[i] - sigma * hi
                elif np.isfinite(lo) and z[i] < sigma * lo:
                    direct[i] = z[i] - sigma * lo
            assert np.array_equal(piece.prox_conjugate_direct(z, sigma), direct)
        codes = piece.structure(piece.prox(z), z - piece.prox(z)).normal
        x = piece.prox(z)
        t = 1e-8 * max(1.0, float(np.max(np.abs(x))))
        for i in range(5):
            assert _LOWER[codes[i]] == (-np.inf if x[i] <= piece.lower[i] + t else 0.0)
            assert _UPPER[codes[i]] == (np.inf if x[i] >= piece.upper[i] - t else 0.0)


def test_kink_tolerance_scales_with_the_point_and_pins_narrow_boxes():
    # within t = 1e-8 * max(1, max|z|) of a kink a coordinate is on it
    orth = OrthantIndicator(3, -1)
    state, sign = orth._classify(np.array([3e-8, -3e-8, 1e-4]))
    assert state.tolist() == [0, 1, 0] and sign.tolist() == [0.0, 0.0, 0.0]
    state, sign = orth._classify(np.array([3e-8, -3e-8, 1e2]))
    assert state.tolist() == [2, 2, 0] and sign.tolist() == [-1.0, -1.0, 0.0]
    state, sign = L1Norm(3)._classify(np.array([1.0 + 5e-9, -1.0 + 5e-9, 0.5]))
    assert state.tolist() == [2, 2, 0] and sign.tolist() == [1.0, -1.0, 0.0]
    # a box narrower than 2t is one value: its coordinate is pinned inside,
    # on either bound and outside, like a box with lower == upper
    box = BoxIndicator([0.0, 0.0, 2.0], [1e-8, 1.0, 2.0])
    for z0 in (-1.0, 0.0, 5e-9, 1e-8, 1.0):
        state, sign = box._classify(np.array([z0, 1.0 - 5e-9, 2.0]))
        assert state.tolist() == [0, 2, 0] and sign.tolist() == [0.0, -1.0, 0.0], z0
        assert np.array_equal(np.diag(box.clarke_element(np.array([z0, 0.5, 2.0])).matrix),
                              [0.0, 1.0, 0.0])
    # a box of width 3e-8 is open while t = 1e-8 and narrow once t = 2e-8
    box = BoxIndicator([0.0, -1e3], [3e-8, 1e3])
    assert box._classify(np.array([0.0, 0.0]))[0].tolist() == [2, 1]
    assert box._classify(np.array([0.0, 2.0]))[0].tolist() == [0, 1]


def psd_prox_split_oracle(piece, z):
    """The PSD projection of one point, with a 2-d diagonal matrix."""
    lam, P, _ = eig_split(z)
    return svec(P @ np.diag(np.maximum(lam, 0.0)) @ P.T)


def _stack_rows(piece, rng):
    """Random rows, rows on kinks or with zero eigenvalues, and rows at
    other scales, so that a tolerance shared across rows would show."""
    rows = [2.0 * rng.standard_normal(piece.dim) for _ in range(3)]
    rows += [1e6 * rng.standard_normal(piece.dim), np.zeros(piece.dim)]
    inner = piece.inner if isinstance(piece, EpiSum) else piece
    lead = [0.0] if isinstance(piece, EpiSum) else []
    if isinstance(inner, PSDConeIndicator):
        lam = np.zeros(inner.order)
        lam[0], lam[-1] = 1.0, -1.0
        Q, _ = np.linalg.qr(rng.standard_normal((inner.order, inner.order)))
        rows.append(np.concatenate([lead, svec((Q * lam) @ Q.T)]))
    else:
        kink = (inner.upper if inner.kind == "box_indicator"
                else np.full(inner.dim, {"orthant_indicator": 0.0, "l1_norm": 1.0}[inner.kind]))
        # on the kink within its tolerance, and off it unless the tolerance
        # came from the row at scale 1e6
        rows += [np.concatenate([lead, kink + 5e-9]), np.concatenate([lead, kink + 5e-3])]
    return np.array(rows)


def test_prox_and_canonical_element_act_row_wise_on_stacks():
    rng = np.random.default_rng(5)
    pieces = [p for _, p in piece_battery()] + [PSDConeIndicator(4), L1Norm(3),
                                                EpiSum(BoxIndicator([-1.0, 0.0], [1.0, 3.0]))]
    for piece in pieces:
        Z = _stack_rows(piece, rng)
        P = piece.prox(Z)
        E = piece.clarke_element(Z)
        assert P.shape == Z.shape and E.matrix.shape == Z.shape + (piece.dim,)
        for z, p, e in zip(Z, P, E.matrix):
            assert p.tobytes() == piece.prox(z).tobytes(), piece.kind
            assert e.tobytes() == piece.clarke_element(z).matrix.tobytes(), piece.kind
        Z3 = Z[:4].reshape(2, 2, piece.dim)
        assert np.array_equal(piece.prox(Z3), P[:4].reshape(Z3.shape))
        assert np.array_equal(piece.clarke_element(Z3).matrix,
                              E.matrix[:4].reshape(Z3.shape + (piece.dim,)))
        if isinstance(piece, PSDConeIndicator):
            for z, p in zip(Z, P):
                assert p.tobytes() == psd_prox_split_oracle(piece, z).tobytes()


def dedup_elements_loop(elements):
    """Pairwise dedup with one max-norm comparison per kept element."""
    kept = []
    for el in elements:
        if all(np.max(np.abs(el.matrix - o.matrix)) > _DEDUP_TOL for o in kept):
            kept.append(el)
    return kept


def test_dedup_elements_matches_the_pairwise_loop():
    rng = np.random.default_rng(40)
    base = [rng.standard_normal((4, 4)) for _ in range(6)]
    cases = [[LinearOperatorElement(base[0], "only")]]
    # gaps of exactly the tolerance (exact in floating point from zero) are dropped
    cases.append([LinearOperatorElement(np.zeros((4, 4)) + np.eye(4)[k] * c * _DEDUP_TOL, f"t{k}")
                  for k, c in ((0, 0.0), (1, 1.0), (2, 2.0), (3, 1.0))])
    for trial in range(30):
        mats = [base[i] for i in rng.integers(0, 6, size=12)]
        # near copies just inside, at and just outside the tolerance
        mats = [M + rng.choice([0.0, 0.5, 1.0, 2.0]) * _DEDUP_TOL * rng.choice([-1, 1])
                * (rng.random((4, 4)) < 0.2) for M in mats]
        if trial % 5 == 0:
            mats[rng.integers(0, 12)] = np.full((4, 4), np.nan)
        cases.append([LinearOperatorElement(M, f"e{k}") for k, M in enumerate(mats)])
    dropped = 0
    for elements in cases:
        new = dedup_elements(elements)
        old = dedup_elements_loop(elements)
        assert [e.provenance for e in new] == [e.provenance for e in old]
        assert all(a is b for a, b in zip(new, old))
        dropped += len(elements) - len(new)
    assert dropped > 0


def _clarke_sample_points():
    """(piece, z) at smooth points, kinks and nonempty beta, separable pieces
    with more kink patterns than the enumeration cap, and epi lifts."""
    rng = np.random.default_rng(41)
    for _, piece in piece_battery():
        for _ in range(3):
            yield piece, 2.0 * rng.standard_normal(piece.dim)
    for n_kinks in (0, 3, 7, 9):
        for piece, z in _separable_points(n_kinks):
            yield piece, z
            yield EpiSum(piece), np.concatenate([[0.3], z])
    for case, z in _psd_structures():
        if case[0] <= 4:
            yield PSDConeIndicator(case[0]), z
            yield EpiSum(PSDConeIndicator(case[0])), np.concatenate([[-0.2], z])


def test_sample_clarke_elements_are_pairwise_distinct():
    # the contract that lets problem.sample_elements_R skip its own dedup
    kinds, sizes = set(), set()
    for piece, z in _clarke_sample_points():
        for count in (1, 2, 8, 40):
            for seed in (0, 9):
                els = piece.sample_clarke(z, count, seed)
                M = np.stack([e.matrix for e in els])
                gaps = np.max(np.abs(M[:, None] - M[None, :]), axis=(-2, -1))
                off = ~np.eye(len(els), dtype=bool)
                assert np.all(gaps[off] > _DEDUP_TOL), (piece.kind, count, seed)
                kinds.add(piece.kind)
                sizes.add(min(len(els), 3))
    assert kinds == set(PIECE_KINDS) and sizes == {1, 2, 3}
