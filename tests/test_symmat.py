import numpy as np
import pytest

from kktstab import EigenDecompositionError, conjugation_matrix, eig_split, smat, svec
from kktstab.symmat import SQRT2, coupling, svec_layout


# Loop forms of the svec kernels, kept as oracles for the index-array code.

def svec_loop(A):
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    out = np.empty(m * (m + 1) // 2)
    k = 0
    for i in range(m):
        out[k] = A[i, i]
        k += 1
        for j in range(i + 1, m):
            out[k] = SQRT2 * 0.5 * (A[i, j] + A[j, i])
            k += 1
    return out


def smat_loop(v):
    v = np.asarray(v, dtype=float)
    m = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    A = np.zeros((m, m))
    k = 0
    for i in range(m):
        A[i, i] = v[k]
        k += 1
        for j in range(i + 1, m):
            A[i, j] = A[j, i] = v[k] / SQRT2
            k += 1
    return A


def conjugation_matrix_loop(P):
    m = P.shape[0]
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    K = np.empty((len(pairs), len(pairs)))
    for k, (i, j) in enumerate(pairs):
        E = np.zeros((m, m))
        if i == j:
            E[i, i] = 1.0
        else:
            E[i, j] = E[j, i] = 1.0 / SQRT2
        K[:, k] = svec_loop(P @ E @ P.T)
    return K


def brute_force_sigma(lam, i, j):
    # scalar evaluation of the coupling ratio with the 0/0 := 1 convention
    num = max(lam[i], 0.0) + max(lam[j], 0.0)
    den = abs(lam[i]) + abs(lam[j])
    return 1.0 if den == 0.0 else num / den


def test_svec_roundtrip_and_inner_product():
    rng = np.random.default_rng(0)
    for _ in range(50):
        A = rng.standard_normal((4, 4))
        A = A + A.T
        B = rng.standard_normal((4, 4))
        B = B + B.T
        assert np.allclose(smat(svec(A)), A, atol=1e-14)
        assert np.isclose(svec(A) @ svec(B), np.trace(A @ B), atol=1e-12)


def test_conjugation_matrix_is_orthogonal():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((3, 3))
    P, _ = np.linalg.qr(G)
    K = conjugation_matrix(P)
    assert np.allclose(K.T @ K, np.eye(6), atol=1e-12)
    S = rng.standard_normal((3, 3))
    S = S + S.T
    assert np.allclose(K @ svec(S), svec(P @ S @ P.T), atol=1e-12)


def index_sets(lam):
    """alpha, beta, gamma: the signs of eig_split's clamped eigenvalues."""
    return np.flatnonzero(lam > 0.0), np.flatnonzero(lam == 0.0), np.flatnonzero(lam < 0.0)


def coupling_matrix(lam):
    ix = np.arange(lam.size)
    return coupling(lam, ix[:, None], ix)


def test_eig_split_example_mixed():
    lam, _, _ = eig_split(svec(np.diag([2.0, 0.0, -1.0])))
    alpha, beta, gamma = index_sets(lam)
    Sigma = coupling_matrix(lam)
    assert list(alpha) == [0] and list(beta) == [1] and list(gamma) == [2]
    assert np.isclose(Sigma[0, 2], 2.0 / 3.0)
    assert np.isclose(Sigma[0, 1], 1.0)
    assert np.isclose(Sigma[1, 1], 1.0)
    assert np.isclose(Sigma[1, 2], 0.0)
    # cross-check every entry against the scalar brute force
    for i in range(3):
        for j in range(3):
            assert np.isclose(Sigma[i, j], brute_force_sigma(lam, i, j))


def test_eig_split_zero_matrix_all_ones():
    lam, _, _ = eig_split(svec(np.zeros((3, 3))))
    alpha, beta, gamma = index_sets(lam)
    assert alpha.size == 0 and gamma.size == 0 and beta.size == 3
    assert np.allclose(coupling_matrix(lam), 1.0)


def test_eig_split_identity_all_alpha():
    lam, _, _ = eig_split(svec(np.eye(3)))
    assert list(index_sets(lam)[0]) == [0, 1, 2]
    assert np.allclose(coupling_matrix(lam), 1.0)


def test_eig_split_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(25):
        A = rng.standard_normal((5, 5))
        A = A + A.T
        lam, P, tol = eig_split(svec(A))
        alpha, beta, gamma = index_sets(lam)
        Sigma = coupling_matrix(lam)
        m = 5
        assert np.linalg.norm(P.T @ P - np.eye(m)) <= 1e-12 * m
        assert sorted(list(alpha) + list(beta) + list(gamma)) == list(range(m))
        assert np.all(lam[alpha] > tol)
        assert np.all(lam[beta] == 0.0)
        assert np.all(lam[gamma] < -tol)
        assert np.all(Sigma >= 0.0) and np.all(Sigma <= 1.0)
        assert np.allclose(Sigma, Sigma.T)
        # reconstruction against the clamped eigenvalues
        assert np.allclose(P @ np.diag(lam) @ P.T, A, atol=1e-7)


def test_eig_split_sigma_index_conventions():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    A = A + A.T
    A = A - np.eye(4) * np.linalg.eigvalsh(A)[1]  # force a zero eigenvalue
    lam, _, _ = eig_split(svec(A))
    alpha, beta, gamma = index_sets(lam)
    Sigma = coupling_matrix(lam)
    for i in list(alpha) + list(beta):
        for j in list(alpha) + list(beta):
            assert np.isclose(Sigma[i, j], 1.0)
    for i in list(gamma):
        for j in list(gamma) + list(beta):
            assert np.isclose(Sigma[i, j], 0.0)


def test_eig_split_stack_rows_match_one_row_calls_bit_for_bit():
    rng = np.random.default_rng(9)
    for m in range(1, 7):
        # one row per count of zero eigenvalues, 0 to m, signs mixed
        rows = []
        for nb in range(m + 1):
            lam = np.concatenate([np.zeros(nb), rng.choice([-1.0, 1.0], m - nb)
                                  * rng.uniform(0.5, 3.0, m - nb)])
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            rows.append(svec((Q * lam) @ Q.T))
        V = np.array(rows)
        lams, Ps, tols = eig_split(V)
        assert lams.shape == (m + 1, m) and Ps.shape == (m + 1, m, m) and tols.shape == (m + 1,)
        for nb, (v, lam, P, tol) in enumerate(zip(V, lams, Ps, tols)):
            one = eig_split(v)
            assert np.count_nonzero(lam == 0.0) == nb, (m, nb)
            assert lam.tobytes() == one[0].tobytes(), (m, nb)
            assert P.tobytes() == one[1].tobytes(), (m, nb)
            assert tol.tobytes() == one[2].tobytes(), (m, nb)


def eig_split_sorted(v):
    """``eig_split`` as it was, with the descending order taken by a stable
    argsort of eigh's eigenvalues: the oracle of its sort-free reversal."""
    w, P = np.linalg.eigh(smat(v))
    tol = np.asarray(1e-8 * np.fmax(1.0, np.max(np.abs(w), axis=-1, initial=0.0)))
    order = np.argsort(w, axis=-1, kind="stable")[..., ::-1]
    lam = np.take_along_axis(w, order, axis=-1)
    P = np.take_along_axis(P, order[..., None, :], axis=-1)
    lam[np.abs(lam) <= tol[..., None]] = 0.0
    return lam, P, tol


def test_eig_split_has_the_bits_of_the_sorted_split():
    # random stacks of orders 1-6, exactly repeated spectra (svec(I) and
    # diagonal matrices with ties), and spectra with eigenvalues clamped
    # to 0; one vector and a stack alike, the outputs C-contiguous
    rng = np.random.default_rng(11)
    cases = []
    for m in range(1, 7):
        cases.append(rng.standard_normal((5, m * (m + 1) // 2)))
        cases.append(svec(np.eye(m)))
        cases.append(svec(np.stack([np.diag(rng.choice([-2.0, 0.0, 1.0, 3.0], m))
                                    for _ in range(6)])))
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 2.0, m)
        lam[: (m + 1) // 2] = rng.choice([0.0, 3e-9, -3e-9], (m + 1) // 2)
        cases.append(svec((Q * lam) @ Q.T))
    clamped = 0
    for v in cases:
        got, want = eig_split(v), eig_split_sorted(v)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), v
        assert got[0].flags.c_contiguous and got[1].flags.c_contiguous
        clamped += np.count_nonzero(got[0] == 0.0)
    assert clamped > 0


def test_eigen_error_type_exists():
    assert issubclass(EigenDecompositionError, RuntimeError)


def test_svec_smat_bit_identical_to_loops():
    rng = np.random.default_rng(4)
    for m in range(1, 9):
        for _ in range(5):
            A = rng.standard_normal((m, m))  # asymmetric input is symmetrized
            for X in (A, A.T, A + A.T, np.asfortranarray(A)):
                assert np.array_equal(svec(X), svec_loop(X)), m
            v = rng.standard_normal(m * (m + 1) // 2)
            assert np.array_equal(smat(v), smat_loop(v)), m
            assert np.array_equal(smat(list(v)), smat_loop(v)), m
        # stacks map item by item, bit-identically
        Xs = rng.standard_normal((2, 3, m, m))
        vs = rng.standard_normal((2, 3, m * (m + 1) // 2))
        assert np.array_equal(svec(Xs), [[svec_loop(X) for X in row] for row in Xs]), m
        assert np.array_equal(smat(vs), [[smat_loop(v) for v in row] for row in vs]), m


def test_smat_rejects_non_triangular_length():
    with pytest.raises(ValueError):
        smat(np.zeros(4))


def test_conjugation_matrix_matches_loop_any_square_P():
    rng = np.random.default_rng(5)
    for m in range(1, 9):
        G = rng.standard_normal((m, m))
        Q, _ = np.linalg.qr(G)
        for P in (Q, G, np.diag(rng.standard_normal(m))):
            K = conjugation_matrix(P)
            assert np.max(np.abs(K - conjugation_matrix_loop(P))) <= 1e-12, m
            S = rng.standard_normal((m, m))
            S = S + S.T
            assert np.allclose(K @ svec(S), svec(P @ S @ P.T), atol=1e-12)
        # a stack maps row by row, bit for bit, and stays C-ordered
        Ps = rng.standard_normal((2, 3, m, m))
        Ks = conjugation_matrix(Ps)
        assert Ks.shape == (2, 3, m * (m + 1) // 2, m * (m + 1) // 2) and Ks.flags.c_contiguous
        for idx in np.ndindex(2, 3):
            assert Ks[idx].tobytes() == conjugation_matrix(Ps[idx]).tobytes(), (m, idx)


def test_coupling_is_the_split_sigma_bit_for_bit():
    rng = np.random.default_rng(6)
    for m in (1, 2, 3, 6):
        for na in range(m + 1):
            for nb in range(m - na + 1):
                lam = np.concatenate([rng.uniform(0.5, 3.0, na), np.zeros(nb),
                                      -rng.uniform(0.5, 3.0, m - na - nb)])
                Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
                lam = eig_split(svec((Q * lam) @ Q.T))[0]
                lay = svec_layout(m)
                w = coupling(lam, lay.rows, lay.cols)
                Sigma = coupling_matrix(lam)
                assert w.tobytes() == Sigma[lay.rows, lay.cols].tobytes(), (m, na, nb)
                # 0/0 := 1 on beta-beta, exactly
                bb = (lam[lay.rows] == 0.0) & (lam[lay.cols] == 0.0)
                assert np.count_nonzero(bb) == nb * (nb + 1) // 2
                assert np.all(w[bb] == 1.0)
                for k, (i, j) in enumerate(zip(lay.rows, lay.cols)):
                    assert np.isclose(w[k], brute_force_sigma(lam, i, j), rtol=1e-15)
    # a stack of eigenvalue rows gives each row's coefficients
    lams = np.array([[2.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 1.0, -3.0]])
    lay = svec_layout(3)
    ws = coupling(lams, lay.rows, lay.cols)
    for row, w in zip(lams, ws):
        assert w.tobytes() == coupling(row, lay.rows, lay.cols).tobytes()


def test_svec_layout_is_cached_and_read_only():
    lay = svec_layout(4)
    assert svec_layout(4) is lay
    rows, cols = np.triu_indices(4)
    assert np.array_equal(lay.rows, rows) and np.array_equal(lay.cols, cols)
    for a in lay:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_eig_split_default_tol_comes_from_its_own_eigenvalues():
    rng = np.random.default_rng(8)
    for m in (1, 2, 5, 12):
        for scale in (1e-3, 1.0, 1e4):
            A = rng.standard_normal((m, m))
            A = scale * (A + A.T)
            tol = eig_split(svec(A))[2]
            # the eigenvalues of the matrix it decomposes, smat(svec(A))
            w = np.linalg.eigh(smat(svec(A)))[0]
            assert tol == 1e-8 * max(1.0, float(np.max(np.abs(w))))
            # the spectral norm, without a second decomposition
            assert tol == pytest.approx(1e-8 * max(1.0, np.linalg.norm(A, 2)), rel=1e-12)


@pytest.mark.parametrize("norm", [1.4e-3, 1.4, 1e6])
def test_eig_split_failure_reports_order_and_norm(monkeypatch, norm):
    def failing(S):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    v = np.array([1.0, 2.0, -1.0])
    v *= norm / np.linalg.norm(v)
    with pytest.raises(EigenDecompositionError) as info:
        eig_split(v)
    message = str(info.value)
    assert "order 2" in message and f"Frobenius norm {norm:.3e})" in message
    assert "condition" not in message
    # a stack names its largest norm
    with pytest.raises(EigenDecompositionError) as info:
        eig_split(np.stack([v, 0.5 * v]))
    assert f"Frobenius norm {norm:.3e}, the largest of 2 in the stack)" in str(info.value)
