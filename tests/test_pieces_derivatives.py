import numpy as np
import pytest

from kktstab import (
    EpiSum,
    L1Norm,
    OrthantIndicator,
    PSDConeIndicator,
    clarke_element,
    prox_dirderiv,
    sample_clarke,
    smat,
    svec,
)
from kktstab.verify import pair_battery


def fd_dirderiv(piece, z, d, t=1e-7):
    return (piece.prox(z + t * d) - piece.prox(z)) / t


def test_psd_dirderiv_coupling_example():
    piece = PSDConeIndicator(2)
    z = svec(np.diag([1.0, -1.0]))
    d = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = prox_dirderiv(piece, z, d)
    assert np.allclose(smat(out), np.array([[0.0, 0.5], [0.5, 0.0]]), atol=1e-14)
    assert np.linalg.norm(out - fd_dirderiv(piece, z, d)) <= 1e-6


def test_dirderiv_zero_direction():
    for name, piece in (("psd", PSDConeIndicator(2)), ("l1", L1Norm(2)),
                        ("epi", EpiSum(OrthantIndicator(2, -1)))):
        z = 0.7 * np.arange(1, piece.dim + 1)
        assert np.allclose(prox_dirderiv(piece, z, np.zeros(piece.dim)), 0.0), name


def test_psd_dirderiv_pure_beta_block():
    piece = PSDConeIndicator(2)
    z = np.zeros(3)
    d = svec(np.diag([1.0, -1.0]))
    out = prox_dirderiv(piece, z, d)
    assert np.allclose(smat(out), np.diag([1.0, 0.0]), atol=1e-12)
    assert np.linalg.norm(out - fd_dirderiv(piece, z, d)) <= 1e-6


def test_dirderiv_positive_homogeneity():
    rng = np.random.default_rng(0)
    for name, piece, xbar, ubar in pair_battery():
        z = xbar + ubar
        d = rng.standard_normal(piece.dim)
        a = prox_dirderiv(piece, z, d)
        b = prox_dirderiv(piece, z, 2.5 * d)
        assert np.allclose(2.5 * a, b, atol=1e-12), name


def test_dirderiv_finite_difference_battery():
    rng = np.random.default_rng(1)
    from kktstab.verify import piece_battery
    for name, piece in piece_battery():
        drawn = 0
        while drawn < 60:
            z = 2.0 * rng.standard_normal(piece.dim)
            if piece.split_unstable(z):
                continue
            d = rng.standard_normal(piece.dim)
            err = np.linalg.norm(prox_dirderiv(piece, z, d) - fd_dirderiv(piece, z, d))
            assert err <= 1e-5 * (1 + np.linalg.norm(d)), name
            drawn += 1


def test_clarke_element_examples():
    l1 = L1Norm(1)
    assert np.allclose(clarke_element(l1, np.array([0.0])).matrix, [[0.0]])
    psd = PSDConeIndicator(2)
    assert np.allclose(clarke_element(psd, svec(np.diag([2.0, 1.0]))).matrix,
                       np.eye(3), atol=1e-12)
    assert np.allclose(clarke_element(psd, svec(np.diag([-1.0, -2.0]))).matrix,
                       np.zeros((3, 3)), atol=1e-12)


def test_clarke_element_kink_resolves_to_one():
    orth = OrthantIndicator(2, -1)
    el = clarke_element(orth, np.array([0.0, -1.0]))
    assert np.allclose(el.matrix, np.eye(2))
    l1 = L1Norm(1)
    assert np.allclose(clarke_element(l1, np.array([1.0])).matrix, [[1.0]])


def test_sample_clarke_l1_kink_contents():
    l1 = L1Norm(1)
    els = sample_clarke(l1, np.array([1.0]), 8, seed=0)
    vals = sorted(float(e.matrix[0, 0]) for e in els)
    assert any(np.isclose(v, 0.0) for v in vals)
    assert any(np.isclose(v, 1.0) for v in vals)
    assert any(0.0 + 1e-9 < v < 1.0 - 1e-9 for v in vals)


def test_sample_clarke_smooth_region_singleton():
    psd = PSDConeIndicator(2)
    els = sample_clarke(psd, svec(np.diag([2.0, 1.0])), 12, seed=3)
    assert len(els) == 1
    assert np.allclose(els[0].matrix, np.eye(3), atol=1e-12)


def test_sample_clarke_determinism_and_count_error():
    psd = PSDConeIndicator(3)
    z = svec(np.diag([1.0, 0.0, 0.0]))
    a = sample_clarke(psd, z, 10, seed=42)
    b = sample_clarke(psd, z, 10, seed=42)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.matrix, eb.matrix)
        assert ea.provenance == eb.provenance
    with pytest.raises(ValueError):
        sample_clarke(psd, z, 0, seed=0)


def test_sampled_elements_spectrum_and_monotonicity():
    rng = np.random.default_rng(2)
    for name, piece, xbar, ubar in pair_battery():
        els = sample_clarke(piece, xbar + ubar, 12, seed=7)
        has_canonical = False
        for el in els:
            M = el.matrix
            if np.allclose(M, clarke_element(piece, xbar + ubar).matrix):
                has_canonical = True
            assert np.max(np.abs(M - M.T)) <= 1e-10, name
            w = np.linalg.eigvalsh(0.5 * (M + M.T))
            assert w[0] >= -1e-10 and w[-1] <= 1.0 + 1e-10, name
            for _ in range(50):
                d = rng.standard_normal(piece.dim)
                Ud = M @ d
                assert np.dot(Ud, d - Ud) >= -1e-10, name
        assert has_canonical, name


def test_psd_beta_block_samples_include_zero_element():
    psd = PSDConeIndicator(2)
    els = sample_clarke(psd, np.zeros(3), 10, seed=0)
    provs = [e.provenance for e in els]
    assert any("canonical" in p for p in provs)
    assert any(np.allclose(e.matrix, 0.0) for e in els)


def _assert_rows_are_one_direction_calls(piece, z, D, label):
    S = piece.prox_dirderiv(z, D)
    assert S.shape == D.shape, label
    for d, s in zip(D, S):
        assert piece.prox_dirderiv(z, d).tobytes() == s.tobytes(), label


def test_stacked_prox_dirderiv_rows_are_the_one_direction_calls():
    # each row of a stack of directions at one point has the bits of its
    # own call: the separable kinds and their epigraph lifts at random
    # points with about 40% of the coordinates on a kink, and the
    # epi-lifted PSD blocks of the analyze-sdp plants of seeds 1-2 (|beta|
    # 1 or 2) with their inner blocks, also shifted by 0.1 I (|beta| 0)
    from kktstab import BoxIndicator, eig_split
    from kktstab.stability import AnalysisPoint
    from test_stability import _analyze_sdp

    rng = np.random.default_rng(3)
    separable = [(OrthantIndicator(8, 1), [0.0]), (OrthantIndicator(8, -1), [0.0]),
                 (BoxIndicator(-np.ones(8), 2.0 * np.ones(8)), [-1.0, 2.0]),
                 (L1Norm(8), [-1.0, 1.0])]
    for piece, kinks in separable:
        for case in range(20):
            z = 3.0 * rng.standard_normal(8)
            on = rng.random(8) < 0.4
            z[on] = rng.choice(kinks, on.sum())
            D = rng.standard_normal((7, 9))
            D[0] = 0.0
            _assert_rows_are_one_direction_calls(piece, z, D[:, 1:], (piece.kind, case))
            _assert_rows_are_one_direction_calls(EpiSum(piece), np.r_[0.5, z], D,
                                                 ("epi", piece.kind, case))
    betas = set()
    for seed in (1, 2):
        plants, opts = _analyze_sdp(seed)
        for k, (problem, meta, _) in enumerate(plants):
            point = AnalysisPoint(problem, meta.known_solution, opts)
            for p, xb, ub in point.pairs:
                w = xb + ub
                D = rng.standard_normal((9, p.dim))
                D[0] = 0.0
                _assert_rows_are_one_direction_calls(p, w, D, (seed, k))
                shift = 0.1 * svec(np.eye(p.inner.order))
                for z in (w[1:], w[1:] + shift):
                    betas.add(int(np.count_nonzero(eig_split(z)[0] == 0.0)))
                    _assert_rows_are_one_direction_calls(p.inner, z, D[:, 1:], (seed, k))
    assert betas == {0, 1, 2}
