import functools
import importlib.util
import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from kktstab import (
    BATTERY_NAMES,
    AnalyzerOptions,
    BoxIndicator,
    CompositeProblem,
    EpiSum,
    KKTPoint,
    L1Norm,
    NewtonError,
    NewtonOptions,
    OrthantIndicator,
    PSDConeIndicator,
    SmoothMap,
    UnsupportedCaseError,
    assumption_check,
    critical_subspace,
    critical_subspace_from_samples,
    equivalence_report,
    instance_from_dict,
    kkt_check,
    load_battery,
    multiplier_uniqueness,
    nondegeneracy_check,
    nonsingularity_sweep,
    rcq_check,
    sample_clarke,
    solve_linearized_ge,
    srcq_check,
    ssosc_check,
    strong_regularity_probe,
    svec,
)
from kktstab.pieces import (_LOWER, _UPPER, BLOCK, DOWN, FREE, PINNED, UP, BlockStructure,
                            ClarkeFrame, LinearOperatorElement)
from kktstab.symmat import eig_split, smat, svec_dim, svec_layout, svec_order
from kktstab.stability import (
    SWEEP_TOL,
    AnalysisPoint,
    CurvatureDomainError,
    _ap_nonzero_points,
    mutual_span_residual,
    nullspace,
    reduced_quadratic_form,
)
from kktstab.problem import assemble_element, linearized_residual, sample_elements_R
from kktstab.verify import (
    check_gamma_fixed_point_bound,
    check_gamma_properties,
    pair_battery,
    run_suite,
)
from test_pieces_prox import _psd_structures, assert_projects_row_wise, cone_point

FAST = AnalyzerOptions(num_delta=20, srcq_budget=400)


def test_critical_subspace_dims():
    for name, dim in (("sdp_toy", 0), ("nlp_toy", 0), ("l1_toy", 0), ("smooth_toy", 1)):
        problem, meta = load_battery(name)
        cs = critical_subspace(problem, meta.known_solution)
        assert cs.dim == dim, name
        if cs.dim:
            assert np.allclose(cs.basis.T @ cs.basis, np.eye(cs.dim), atol=1e-12)


def test_critical_subspace_requires_kkt_point():
    problem, _ = load_battery("nlp_toy")
    with pytest.raises(ValueError):
        critical_subspace(problem, KKTPoint(np.array([2.0]), np.array([1.0, 0.0])))


def test_nondegeneracy_battery():
    expected = {"nlp_toy": "holds", "sdp_toy": "holds", "l1_toy": "holds",
                "smooth_toy": "holds", "sdp_degenerate": "fails"}
    for name, status in expected.items():
        problem, meta = load_battery(name)
        v = nondegeneracy_check(problem, meta.known_solution)
        assert v.status == status, (name, v)
        assert v.tol > 0


def test_srcq_battery():
    problem, meta = load_battery("nlp_toy")
    assert srcq_check(problem, meta.known_solution).status == "holds"
    problem, meta = load_battery("l1_toy")
    assert srcq_check(problem, meta.known_solution).status == "holds"
    problem, meta = load_battery("sdp_degenerate")
    assert srcq_check(problem, meta.known_solution).status == "fails"
    problem, meta = load_battery("sdp_toy")
    assert srcq_check(problem, meta.known_solution).status == "holds"


def test_rcq_battery():
    for name in ("nlp_toy", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        assert rcq_check(problem, meta.known_solution).status == "holds", name
    for name in ("sdp_toy", "sdp_degenerate"):
        problem, meta = load_battery(name)
        v = rcq_check(problem, meta.known_solution, FAST)
        assert v.status == "holds", (name, v)


def test_multiplier_uniqueness():
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        unique, witness = multiplier_uniqueness(problem, meta.known_solution, FAST)
        assert unique and witness is None, name
    problem, meta = load_battery("sdp_degenerate")
    unique, witness = multiplier_uniqueness(problem, meta.known_solution, FAST)
    assert not unique
    # the witness is itself a multiplier for the same primal point
    assert kkt_check(problem, KKTPoint(meta.known_solution.x, witness), 1e-8).ok


def test_ssosc_battery():
    for name in ("nlp_toy", "sdp_toy", "l1_toy"):
        problem, meta = load_battery(name)
        res = ssosc_check(problem, meta.known_solution, FAST)
        assert res.status == "holds", name
        assert res.subspace_dim == 0
        assert res.min_eigenvalue == np.inf
    problem, meta = load_battery("smooth_toy")
    res = ssosc_check(problem, meta.known_solution, FAST)
    assert res.status == "holds"
    assert res.subspace_dim == 1
    assert np.isclose(res.min_eigenvalue, 1.0, atol=1e-10)


def test_ssosc_rejects_nonunique_multiplier():
    problem, meta = load_battery("sdp_degenerate")
    with pytest.raises(UnsupportedCaseError):
        ssosc_check(problem, meta.known_solution, FAST)


def test_ssosc_invariant_under_rebasing():
    problem, meta = load_battery("smooth_toy")
    cs = critical_subspace(problem, meta.known_solution)
    Q1 = reduced_quadratic_form(problem, meta.known_solution, cs.basis)
    rng = np.random.default_rng(0)
    G = rng.standard_normal((cs.dim, cs.dim))
    O, _ = np.linalg.qr(G)
    Q2 = reduced_quadratic_form(problem, meta.known_solution, cs.basis @ O)
    e1 = np.linalg.eigvalsh(Q1)[0]
    e2 = np.linalg.eigvalsh(Q2)[0]
    assert abs(e1 - e2) <= 1e-10


def test_sweep_battery():
    # the polyhedral toys have no kink: leg b is exact from their one element
    problem, meta = load_battery("l1_toy")
    s = nonsingularity_sweep(problem, meta.known_solution, AnalyzerOptions(count=8))
    assert s.verdict == "all-elements-nonsingular"
    assert np.isclose(s.margin, 1.0, atol=1e-12)
    problem, meta = load_battery("nlp_toy")
    s = nonsingularity_sweep(problem, meta.known_solution, AnalyzerOptions(count=8))
    assert s.verdict == "all-elements-nonsingular"
    # and so is sdp_toy's PSD block, with |beta| = 0
    problem, meta = load_battery("sdp_toy")
    s = nonsingularity_sweep(problem, meta.known_solution, AnalyzerOptions(count=8))
    assert s.verdict == "all-elements-nonsingular"
    problem, meta = load_battery("sdp_degenerate")
    s = nonsingularity_sweep(problem, meta.known_solution)
    assert s.verdict == "singular-element-found"
    assert s.margin <= 1e-8


def _planted_plants():
    """(name, problem, meta) of small planted polyhedral and PSD-pencil
    instances under every label, from the benchmark's generator, which
    uses only numpy."""
    if "planted" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "planted.py"
        spec = importlib.util.spec_from_file_location("planted", path)
        sys.modules["planted"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["planted"])
    planted = sys.modules["planted"]
    rng = np.random.default_rng(7)
    out = []
    for nd, so in ((True, True), (False, True), (True, False)):
        for n, blocks in ((10, 5), (24, 10)):
            data, _ = planted.polyhedral(rng, n, blocks, nd, so, name=f"nlp{n}-{nd}-{so}")
            out.append(data)
        for order, na, nb in ((2, 1, 1), (3, 0, 2), (4, 1, 2)):
            data, _ = planted.psd_pencil(rng, order, na, nb, nd, so,
                                         name=f"sdp{order}-{nd}-{so}")
            out.append(data)
    return [(data["name"],) + instance_from_dict(data) for data in out]


def _kink_weights(point, provenance):
    """Per block, the frame weights u of the element that the exact sweep
    names by ``provenance``: 1 / (1 + weight) on FREE and 0 on PINNED
    coordinates, and on the kinks (UP, DOWN and BLOCK) 1 (canonical), 0
    (pattern-zeros) or the common weight of a bisection witness."""
    weights = []
    for st, name in zip(point.structures, provenance):
        tag, u = re.search(r":(canonical|pattern-zeros|kink-weight\((.+?)\))\)*$", name).groups()
        kink = float(u) if u is not None else {"canonical": 1.0, "pattern-zeros": 0.0}[tag]
        weights.append(np.where(st.critical == FREE, 1.0 / (1.0 + st.weight),
                                np.where(st.critical == PINNED, 0.0, kink)))
    return weights


def _named_element(point, provenance):
    """The element [[H, J^T], [(I-U) J, -U]] named by the exact sweep, each
    block's U = Q diag(u) Q^T in its frame Q."""
    return assemble_element(point.problem, point.kkt,
                            [LinearOperatorElement(np.diag(u) if st.frame is None
                                                   else st.frame @ np.diag(u) @ st.frame.T)
                             for st, u in zip(point.structures,
                                              _kink_weights(point, provenance))])


def _extreme_provenance(point, tag):
    """The provenance of the extreme element named tag, "canonical" or
    "pattern-zeros", as the exact sweep writes it."""
    codes = point.model.codes
    kink = (codes != PINNED) & (codes != FREE)
    return tuple(p.provenance(tag if kb.any() else "canonical")
                 for p, kb in zip(point.problem.pieces, point.problem.blocks(kink)))


def _dense_sweep_oracle(point):
    """Whether leg b fails, read from the dense svd of both extreme
    elements, each formed in full and singular at a least singular value
    of at most SWEEP_TOL, and from the count test, the negative counts of
    A0 and Z1^T A0 Z1."""
    m = point.model
    kink = (m.codes != PINNED) & (m.codes != FREE)
    tags = ["canonical"] + (["pattern-zeros"] if kink.any() else [])
    svs = [_named_element(point, _extreme_provenance(point, tag)).min_singular_value()
           for tag in tags]
    counts = {int(np.sum(m.lam < 0.0))}
    if kink.any():
        counts.add(int(np.sum(np.linalg.eigvalsh(m.Z1.T @ m.A0 @ m.Z1) < 0.0)))
    return min(svs) <= SWEEP_TOL or len(counts) > 1


def _model_margin(point, provenance):
    """The margin of the element named by ``provenance``, from the local
    model: sigma_min(J_P) and min |lambda(A0)| at the canonical extreme,
    sigma_min(G) and min |lambda(Z1^T A0 Z1)| at the pattern-zeros one (a
    sigma_min of more rows than columns is 0), min |lambda| of the reduced
    matrix A0 + ((1 - u) / u) G^T G at a bisection witness of weight u."""
    m = point.model
    n_pinned, n_kinks = np.sum(m.codes == PINNED), np.sum((m.codes != PINNED) & (m.codes != FREE))
    tag = re.search(r"(pattern-zeros|kink-weight\((.+?)\))", " ".join(provenance))
    if tag is None:
        sv = 0.0 if n_pinned > m.J.shape[1] else np.min(m.svd_P[1], initial=np.inf)
        return min(sv, np.min(np.abs(m.lam), initial=np.inf))
    if tag.group(2) is None:
        sv = 0.0 if n_kinks > m.Z0.shape[1] else np.min(m.sv_G, initial=np.inf)
        return min(sv, np.min(np.abs(np.linalg.eigvalsh(m.Z1.T @ m.A0 @ m.Z1)), initial=np.inf))
    u = float(tag.group(2))
    return np.min(np.abs(np.linalg.eigvalsh(m.A0 + ((1.0 - u) / u) * (m.G.T @ m.G))))


def _more_pinned_rows_than_variables():
    """A polyhedral KKT point with n = 1 and three pinned rows: an
    epi-lifted orthant whose scalar row balances J^T mu, and two pinned
    coordinates of an orthant, rows 1 and 2."""
    J = np.array([[-5.0], [0.0], [1.0], [2.0]])
    c, mu = np.array([0.0, -1.0, 0.0, 0.0]), np.array([1.0, 0.0, 1.0, 2.0])
    F = SmoothMap(n=1, m=4, eval=lambda x: c + J @ x, jacobian=lambda x: J,
                  weighted_hessian_fn=lambda x, m: np.eye(1))
    return CompositeProblem(F, [EpiSum(OrthantIndicator(1)), OrthantIndicator(2, -1)]), \
        KKTPoint(np.zeros(1), mu)


def test_sweep_reads_the_dense_oracle_and_reports_the_models_margin():
    # the sampler takes every least singular value from one svd of the
    # sampled stack, which the elements' matrices are views of.  The exact
    # sweep forms no element: its verdict is that of the dense svd of both
    # extremes and the count test, at every battery point, planted plant
    # and seed-7 analyze plant and at a point with more pinned rows than
    # variables; its margin has the bits of the local model's quantity, and
    # a singular verdict names an element whose dense least singular value
    # is at most SWEEP_TOL
    cases = [(name,) + load_battery(name) for name in BATTERY_NAMES] + _planted_plants()
    for name, problem, meta in cases:
        elements = sample_elements_R(problem, meta.known_solution, 32, 7)
        svs = np.linalg.svd(elements.matrices, compute_uv=False)[:, -1]
        loop = [el.min_singular_value() for el in elements]
        assert svs.tobytes() == np.array(loop).tobytes(), name
        assert all(np.shares_memory(el.matrix, elements.matrices) for el in elements), name
    workloads = _benchmark_workloads()
    for name in ("analyze-nlp", "analyze-sdp"):
        insts = workloads.generate(workloads.WORKLOADS[name], 7)
        cases += [(problem.name, problem, meta) for problem, meta in workloads.load(insts)]
    more_rows, z = _more_pinned_rows_than_variables()
    cases.append(("more-rows", more_rows, SimpleNamespace(known_solution=z)))
    assert len(cases) == 5 + 15 + 72 + 1
    verdicts = {True: set(), False: set()}
    for name, problem, meta in cases:
        point = AnalysisPoint(problem, meta.known_solution, AnalyzerOptions(seed=7))
        singular = _dense_sweep_oracle(point)
        sweep = nonsingularity_sweep(problem, point)
        assert (sweep.verdict == "singular-element-found") == singular, name
        assert sweep.margin == _model_margin(point, sweep.argmin_provenance), name
        if singular:
            named = _named_element(point, sweep.argmin_provenance)
            assert named.min_singular_value() <= SWEEP_TOL, name
        verdicts[point.polyhedral].add(sweep.verdict)
    assert verdicts == {True: {"singular-element-found", "all-elements-nonsingular"},
                        False: {"singular-element-found", "all-elements-nonsingular"}}
    # more pinned rows than variables: J_P has no full row rank, and its
    # least singular value reads 0
    point = AnalysisPoint(more_rows, z)
    assert np.sum(point.model.codes == PINNED) > more_rows.n
    sweep = nonsingularity_sweep(more_rows, point)
    assert (sweep.verdict, sweep.margin) == ("singular-element-found", 0.0)
    assert sweep.argmin_provenance == _extreme_provenance(point, "canonical")


# leg b at the 48 analyze-nlp and 24 analyze-sdp plants of seed 7, with the
# benchmark's analyzer options, T where every element is nonsingular; these
# are the verdicts the sweep read while it formed both extreme elements
_SEED7_LEG_B = {"analyze-nlp": "TFTTTFTTTFTTTFTTTFTTTFTTTFTTTFTTTFTTTFTTTFTTTFTT",
                "analyze-sdp": "TTTFTTTFTFTFTTTFTTTFTTTF"}


def test_the_analyzer_forms_no_dense_element(monkeypatch):
    # with the dense element assembly and the canonical frame's element
    # replaced by functions that raise, every battery report and every
    # report of the seed-7 analyze plants completes, with the leg-b verdict
    # the sweep read while it formed elements
    import kktstab.problem as pr

    def no_element(*args, **kwargs):
        raise AssertionError("dense element formed")

    monkeypatch.setattr(pr, "_element_matrix", no_element)
    monkeypatch.setattr(ClarkeFrame, "element", no_element)
    for name in BATTERY_NAMES:
        problem, meta = load_battery(name)
        rep = equivalence_report(problem, meta.known_solution, FAST)
        assert rep.consistency["leg_b_elements_nonsingular"] == (name != "sdp_degenerate"), name
    workloads = _benchmark_workloads()
    for name, want in _SEED7_LEG_B.items():
        w = workloads.WORKLOADS[name]
        opts = workloads.analyzer_options(w, 7)
        got = "".join("T" if workloads.analyze(problem, meta, opts)[0].consistency[
                          "leg_b_elements_nonsingular"] else "F"
                      for problem, meta in workloads.load(workloads.generate(w, 7)))
        assert got == want, name


def _vertex_oracle(point):
    """Whether the product set of elements at a polyhedral point holds a
    singular one, from all 2^K vertices u in {0, 1}^K of the kink weights:
    a vertex element with a least singular value of at most SWEEP_TOL, or
    two vertices whose reduced Hessians on null(J_S), S the coordinates
    with u = 0, differ in their number of negative eigenvalues."""
    problem, pt = point.problem, point.kkt
    H = problem.F.weighted_hessian(pt.x, pt.mu)
    J = problem.F.jacobian(pt.x)
    codes = point.model.codes
    kinks = np.flatnonzero((codes == UP) | (codes == DOWN))
    singular, counts = False, set()
    for bits in itertools.product((0.0, 1.0), repeat=kinks.size):
        u = np.where(codes == PINNED, 0.0, 1.0)
        u[kinks] = bits
        E = assemble_element(problem, pt, [LinearOperatorElement(np.diag(ub))
                                           for ub in problem.blocks(u)])
        singular |= E.min_singular_value() <= SWEEP_TOL
        Z = nullspace(J[u == 0.0])
        counts.add(int(np.sum(np.linalg.eigvalsh(Z.T @ H @ Z) < 0.0)))
    return singular or len(counts) > 1, kinks.size


_COORDINATE_KINDS = ("orthant", "box", "l1")


def _random_coordinate(rng, kind, state):
    """(F_i, mu_i, bounds) of one coordinate of a separable block in the
    given state, 0 free, 1 pinned or 2 at a kink, as in the planted
    generator."""
    s = rng.uniform(0.5, 2.0)
    if kind == "orthant":  # y <= 0
        return ((-s, 0.0), (0.0, s), (0.0, 0.0))[state] + (None,)
    if kind == "box":
        lo, hi = -rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        side = rng.uniform() < 0.5
        y = hi if side else lo
        return ((0.5 * (lo + hi), 0.0), (y, s if side else -s), (y, 0.0))[state] + ((lo, hi),)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    return ((sign * s, sign), (0.0, rng.uniform(-0.9, 0.9)), (0.0, sign))[state] + (None,)


def _random_polyhedral_point(rng, max_kinks=8):
    """A random polyhedral KKT point x = 0 of F(x) = c + J x with a random
    symmetric weighted Hessian.  Block 0 is an epi-lifted orthant whose
    scalar row balances J^T mu; the others are orthant, box and l1 blocks
    of 1-3 coordinates, some epi-lifted, each coordinate free, pinned or at
    a kink (at most max_kinks).  In a third of the points one nonfree row
    of J is a combination of two others."""
    n = int(rng.integers(2, 7))
    # block 0: the scalar row (set last) and one free orthant coordinate
    pieces = [EpiSum(OrthantIndicator(1))]
    c, mu, rows = [0.0, -1.0], [1.0, 0.0], [np.zeros(n), rng.standard_normal(n)]
    nonfree, kinks = [], 0
    for _ in range(int(rng.integers(1, 6))):
        kind, dim = _COORDINATE_KINDS[rng.integers(3)], int(rng.integers(1, 4))
        lift = rng.uniform() < 0.3
        if lift:
            c.append(rng.standard_normal())
            mu.append(1.0)
            rows.append(rng.standard_normal(n))
        bounds = []
        for _ in range(dim):
            state = int(rng.choice(3, p=(0.3, 0.2, 0.5))) if kinks < max_kinks else 0
            kinks += state == 2
            y, u, b = _random_coordinate(rng, kind, state)
            if state:
                nonfree.append(len(c))
            c.append(y)
            mu.append(u)
            rows.append(rng.standard_normal(n))
            bounds.append(b)
        if kind == "box":
            piece = BoxIndicator(*zip(*bounds))
        else:
            piece = OrthantIndicator(dim, -1) if kind == "orthant" else L1Norm(dim)
        pieces.append(EpiSum(piece) if lift else piece)
    J, mu = np.array(rows), np.array(mu)
    if len(nonfree) >= 3 and rng.uniform() < 1 / 3:
        i, j, k = rng.choice(nonfree, size=3, replace=False)
        J[i] = rng.uniform(0.5, 1.5) * J[j] + rng.uniform(-1.0, 1.0) * J[k]
    J[0] = -(mu[1:] @ J[1:])
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    H = (Q * rng.uniform(-1.0, 2.0, n)) @ Q.T
    c = np.array(c)
    F = SmoothMap(n=n, m=c.size, eval=lambda x: c + J @ x, jacobian=lambda x: J,
                  weighted_hessian_fn=lambda x, m: H)
    return AnalysisPoint(CompositeProblem(F, pieces), KKTPoint(np.zeros(n), mu))


def test_exact_sweep_agrees_with_the_vertex_oracle():
    # every polyhedral planted plant and 120 random polyhedral points with at
    # most 8 kinks: the exact verdict is the 2^K vertex oracle's; a point read
    # nonsingular has no sampled element of least singular value at most
    # SWEEP_TOL, and a witness has kink weights in [0, 1] and one
    rng = np.random.default_rng(23)
    points = [AnalysisPoint(problem, meta.known_solution)
              for _, problem, meta in _planted_plants()]
    points = [p for p in points if p.polyhedral]
    assert len(points) == 6
    points += [_random_polyhedral_point(rng) for _ in range(120)]
    seen = set()
    for k, point in enumerate(points):
        assert point.polyhedral
        problem = point.problem
        sweep = nonsingularity_sweep(problem, point)
        want, n_kinks = _vertex_oracle(point)
        assert n_kinks <= 8
        assert (sweep.verdict == "singular-element-found") == want, k
        if not want:
            assert sweep.verdict == "all-elements-nonsingular", k
            elements = sample_elements_R(problem, point.kkt, 32, k)
            svs = np.linalg.svd(elements.matrices, compute_uv=False)[:, -1]
            assert svs.min() > SWEEP_TOL, k
            seen.add("nonsingular")
            continue
        weights = np.concatenate(_kink_weights(point, sweep.argmin_provenance))
        assert ((0.0 <= weights) & (weights <= 1.0)).all(), k
        sv = _named_element(point, sweep.argmin_provenance).min_singular_value()
        assert sv <= SWEEP_TOL and sweep.margin <= SWEEP_TOL, k
        bisected = any("kink-weight(" in name for name in sweep.argmin_provenance)
        seen.add("bisection witness" if bisected else "extreme witness")
        if bisected:
            # the two extremes, then one inertia per bisection step
            assert sweep.n_elements > 2, k
    assert seen == {"nonsingular", "extreme witness", "bisection witness"}


@pytest.mark.parametrize("seed", [7, 8])
def test_leg_b_reads_the_planted_labels_of_the_analyze_nlp_plants(monkeypatch, seed):
    # the analyze-nlp benchmark plants with its analyzer options, labels from
    # the planted generator: every nondegeneracy failure has a singular
    # element and every strongly regular plant none, and no point samples an
    # element
    import kktstab.problem as pr

    def no_sampling(*args, **kwargs):
        raise AssertionError("elements sampled")

    monkeypatch.setattr(pr, "sample_elements_R", no_sampling)
    workloads = _benchmark_workloads()
    w = workloads.WORKLOADS["analyze-nlp"]
    instances = workloads.generate(w, seed)
    opts = workloads.analyzer_options(w, seed)
    labels = {"singular": 0, "nonsingular": 0}
    for k, ((problem, meta), inst) in enumerate(zip(workloads.load(instances), instances)):
        verdict = nonsingularity_sweep(problem, meta.known_solution, opts).verdict
        if not inst.plant.nondegenerate:
            assert verdict == "singular-element-found", k
            labels["singular"] += 1
        if inst.plant.strongly_regular:
            assert verdict == "all-elements-nonsingular", k
            labels["nonsingular"] += 1
    assert labels == {"singular": 12, "nonsingular": 24}


def _probe_deltas(dim, opts):
    """The probe's perturbations, delta = 0 and then num_delta drawn
    uniformly from the ball of the radius, and the generator that drew
    them."""
    rng = np.random.default_rng(opts.seed)
    deltas = [np.zeros(dim)]
    for _ in range(opts.num_delta):
        u = rng.standard_normal(dim)
        u /= np.linalg.norm(u)
        r = rng.uniform() ** (1.0 / dim)
        deltas.append(opts.radius * r * u)
    return np.array(deltas), rng


def _piece_oracle(point, deltas):
    """(orientation, K, per delta, left) of the perturbed linearized
    inclusion at a polyhedral point, from every piece's dense affine
    system: the element
    [[H, J^T], [(I-U) J, -U]] of the piece's 0/1 kink weights u with right
    side (delta1, -(1-u) delta2).

    The orientation reads "singular canonical" or "singular switched
    piece" when an element has a least singular value of at most
    1e-8 max(1, largest), "reversed orientation" when the elements'
    determinants take both signs, and else "regular".  Only a regular point
    gets each delta's (solutions, delta): every piece's solution whose
    kinks keep to their sides within the kink tolerance.  Per delta
    stands the reason instead where the local model breaks down and the
    exact probe defers to Newton: a delta with no solution, or one with
    two more than 1e-6 apart.  ``left`` says whether a solution fails the
    linearized residual, as one does that leaves the local model; it still
    solves the B-derivative's equation, on which the exact probe checks it
    again and keeps it."""
    problem, pt, H, J = point.problem, point.kkt, point.hessian, point.J
    n, codes = problem.n, point.model.codes
    kinks = np.flatnonzero((codes == UP) | (codes == DOWN))
    sign = np.where(codes[kinks] == UP, 1.0, -1.0)
    t = 1e-8 * max(1.0, max(np.abs(xb + ub).max() for _, xb, ub in point.pairs))
    pieces = []
    for bits in itertools.product((1.0, 0.0), repeat=kinks.size):  # the canonical piece first
        u = np.where(codes == PINNED, 0.0, 1.0)
        u[kinks] = bits
        pieces.append((np.array(bits), u, np.block([[H, J.T], [(1.0 - u)[:, None] * J,
                                                            -np.diag(u)]])))
    s = [np.linalg.svd(E, compute_uv=False) for _, _, E in pieces]
    singular = [v[-1] <= 1e-8 * max(1.0, v[0]) for v in s]
    if singular[0]:
        return "singular canonical", kinks.size, None, False
    if any(singular):
        return "singular switched piece", kinks.size, None, False
    if len({np.linalg.slogdet(E)[0] for _, _, E in pieces}) > 1:
        return "reversed orientation", kinks.size, None, False
    found = [[] for _ in deltas]
    for bits, u, E in pieces:
        rhs = np.concatenate([deltas[:, :n], -(1.0 - u) * deltas[:, n:]], axis=1)
        for i, (delta, dz) in enumerate(zip(deltas, np.linalg.solve(E, rhs.T).T)):
            e, dmu = J[kinks] @ dz[:n] + delta[n:][kinks], dz[n + kinks]
            if np.max(np.where(bits == 1.0, -sign * e, sign * dmu), initial=-np.inf) <= t:
                found[i].append(pt.stacked() + dz)
    out, left = [], False
    for i, delta in enumerate(deltas):
        sols = found[i][:1 if i == 0 else None]  # at delta = 0 every piece has the point
        for z in sols:
            shifted = np.concatenate([z[:n], z[n:] + delta[n:]])
            r = linearized_residual(problem, pt, shifted) - np.concatenate(
                [delta[:n] + J.T @ delta[n:], delta[n:]])
            left |= bool(np.abs(r).max() > 2.0 * (point.opts.tol + t))
        if not sols:
            return "regular", kinks.size, "no solution", left
        if max((np.linalg.norm(a - b) for k, a in enumerate(sols) for b in sols[k + 1:]),
               default=0.0) > 1e-6:
            return "regular", kinks.size, "two solutions", left
        out.append((sols, delta))
    return "regular", kinks.size, out, left


def _rebuilt(point, J=None, H=None):
    """A random polyhedral point of ``_random_polyhedral_point`` (F(x) =
    c + J x at x = 0, mu_0 = 1) with its Jacobian or its weighted Hessian
    replaced; the scalar row 0 of J balances J^T mu again."""
    problem, mu = point.problem, point.kkt.mu
    c, J, H = problem.F.eval(point.kkt.x), (point.J if J is None else J).copy(), (
        point.hessian if H is None else H)
    J[0] = -(mu[1:] @ J[1:])
    F = SmoothMap(n=problem.n, m=problem.m, eval=lambda x: c + J @ x, jacobian=lambda x: J,
                  weighted_hessian_fn=lambda x, m: H)
    return AnalysisPoint(CompositeProblem(F, problem.pieces), point.kkt, point.opts)


def _singular_canonical(point, rng):
    """The point with a singular canonical element, or None: two pinned rows
    of J made dependent on a third (a null vector shared by every piece),
    or the weighted Hessian made singular on null(J_P) (one that is not)."""
    pinned = np.flatnonzero(point.model.codes == PINNED)
    if rng.uniform() < 0.5:
        if pinned.size < 3:
            return None
        i, j, k = rng.choice(pinned, size=3, replace=False)
        J = point.J.copy()
        J[i] = rng.uniform(0.5, 1.5) * J[j] + rng.uniform(-1.0, 1.0) * J[k]
        return _rebuilt(point, J=J)
    Z = nullspace(point.J[pinned])
    if not Z.shape[1]:
        return None
    lam, W = np.linalg.eigh(Z.T @ point.hessian @ Z)
    d = Z @ W[:, 0]
    return _rebuilt(point, H=point.hessian - lam[0] * np.outer(d, d))


def _no_newton(monkeypatch):
    """Replace the semismooth Newton solver by one that raises, in
    ``kktstab.newton`` and in ``kktstab.problem``, whose solves call it."""
    import kktstab.newton as nw
    import kktstab.problem as pr

    def no_newton(*args, **kwargs):
        raise AssertionError("Newton solve in the analyzer")

    monkeypatch.setattr(nw, "semismooth_solve", no_newton)
    monkeypatch.setattr(pr, "semismooth_solve", no_newton)


def _assert_certificate(stats, pieces, label):
    """The probe's certificate that a point is not strongly regular: one
    violation, at delta = 0, whose one solution is the point itself."""
    assert (stats.pieces, stats.violations, stats.failures, stats.failure, stats.solved,
            stats.modulus) == (pieces, 1, 0, "", 1, 0.0), label


def test_exact_probe_agrees_with_the_piece_oracle(monkeypatch):
    # the polyhedral planted plants and 150 random polyhedral points with at
    # most 6 kinks, some with a singular canonical element: where the
    # oracle's pieces are not coherently oriented the probe reads the
    # certificate with no Newton solve; elsewhere it reads each delta's
    # solution, also where a solution leaves the local model (a radius past
    # the nearest breakpoints), since the B-derivative's equation, which the
    # probe then checks, still holds there; it reads leg c undecided only
    # where the oracle finds no solution or two
    import kktstab.stability as st

    tallies = []
    real = st._probe_stats

    def spy(opts, solutions, violations, *rest):
        tallies.append((solutions, violations))
        return real(opts, solutions, violations, *rest)

    monkeypatch.setattr(st, "_probe_stats", spy)
    rng = np.random.default_rng(31)
    points = [AnalysisPoint(problem, meta.known_solution)
              for _, problem, meta in _planted_plants()]
    points = [p for p in points if p.polyhedral]
    for _ in range(150):
        point = _random_polyhedral_point(rng, max_kinks=6)
        altered = _singular_canonical(point, rng) if rng.uniform() < 0.3 else None
        points.append(altered or point)
    seen = set()
    for k, point in enumerate(points):
        # every tenth radius reaches past the nearest breakpoints
        opts = AnalyzerOptions(num_delta=8, seed=k, radius=0.5 if k % 10 == 9 else 0.05)
        point = AnalysisPoint(point.problem, point.kkt, opts)
        deltas = _probe_deltas(point.problem.n + point.problem.m, opts)[0]
        orientation, n_kinks, want, left = _piece_oracle(point, deltas)
        seen.add(orientation)
        if orientation != "regular":
            with monkeypatch.context() as mp:
                _no_newton(mp)
                stats = strong_regularity_probe(point.problem, point)
            _assert_certificate(stats, 2 ** n_kinks, k)
            (delta, z), = tallies[-1][0]
            assert not delta.any() and np.array_equal(z, point.kkt.stacked()), k
            continue
        stats = strong_regularity_probe(point.problem, point)
        if isinstance(want, str):
            assert stats.failures > 0 and stats.failure, (k, want)
            seen.add(want)
            continue
        if left:
            seen.add("leaves the local model")
        solutions, violations = tallies[-1]
        assert (stats.failures, stats.failure, violations) == (0, "", 0), k
        assert stats.solved == len(solutions) == len(want) == len(deltas), k
        for (delta, z), (sols, d) in zip(solutions, want):
            assert np.array_equal(delta, d), k
            assert min(np.abs(z - s).max() for s in sols) <= 1e-8 * (1.0 + np.abs(z).max()), k
    assert seen >= {"singular canonical", "singular switched piece", "reversed orientation",
                    "regular", "leaves the local model"}, seen


def _orthant_kinks(rows, h):
    """The point x = 0, mu = 0 of F(x) = J x into a nonpositive orthant,
    J of the given rows and weighted Hessian h I: every coordinate a kink."""
    J = np.array(rows, dtype=float)
    F = SmoothMap(n=J.shape[1], m=J.shape[0], eval=lambda x: J @ x, jacobian=lambda x: J,
                  weighted_hessian_fn=lambda x, mu: h * np.eye(J.shape[1]))
    problem = CompositeProblem(F, [OrthantIndicator(J.shape[0], -1)])
    return AnalysisPoint(problem, KKTPoint(np.zeros(J.shape[1]), np.zeros(J.shape[0])))


def test_a_fold_and_two_equal_kink_rows_read_the_certificate_without_newton(monkeypatch):
    # a fold, H = -1 with one kink: W = -1, so the two pieces have opposite
    # orientations (delta1 - delta2 < 0 has no solution and > 0 two).  Two
    # equal orthant rows with H = 1: W = [[1, 1], [1, 1]] is singular, and so
    # is the piece with both kinks switched, which is consistent exactly
    # where delta2 has equal entries.  Neither needs a Newton solve
    import kktstab.stability as st

    _no_newton(monkeypatch)
    fold = _orthant_kinks([[1.0]], -1.0)
    deltas = np.array([[0.0, 0.0], [-1e-7, 0.0], [-1e-2, 0.0], [1e-2, 0.0]])
    _assert_certificate(st._exact_probe(fold, deltas), 2, "fold")
    twin = _orthant_kinks([[1.0], [1.0]], 1.0)
    for d2 in ([1e-2, -1e-2], [1e-2, 1e-2]):
        _assert_certificate(st._exact_probe(twin, np.array([[0.0, 0.0, 0.0], [0.0] + d2])), 4,
                            d2)
    _assert_certificate(strong_regularity_probe(twin.problem, twin.kkt,
                                                AnalyzerOptions(num_delta=4)), 4, "twin")


def test_the_exact_probe_decides_both_100_block_plants_without_newton(monkeypatch):
    # 100 blocks and 45 kinks, with no Newton solve allowed: the strongly
    # regular plant solves every delta's complementarity problem over the
    # orthant and reads leg c true, and the nondegeneracy failure reads the
    # certificate
    planted = _benchmark_workloads().planted
    _no_newton(monkeypatch)
    for seed, nd in ((100, True), (101, False)):
        data, plant = planted.polyhedral(np.random.default_rng(seed), 250, 100, nd, True)
        assert plant.nondegenerate == plant.strongly_regular == nd
        problem, meta = instance_from_dict(data)
        point = AnalysisPoint(problem, meta.known_solution, AnalyzerOptions(num_delta=4))
        assert np.sum((point.model.codes == UP) | (point.model.codes == DOWN)) == 45
        stats = strong_regularity_probe(problem, point)
        if nd:
            assert (stats.pieces, stats.violations, stats.failures, stats.solved) == (
                2 ** 45, 0, 0, 5)
            assert 0.0 < stats.modulus < np.inf
        else:
            _assert_certificate(stats, 2 ** 45, "45 kinks")


def test_the_exact_probe_checks_with_the_points_own_linearization(monkeypatch):
    # the residual check of the exact probe takes the Hessian, J and F(xbar)
    # that the analysis point holds, with the bits of their evaluation in
    # linearized_residual, which it then does not repeat
    import kktstab.problem as pr

    for problem, meta in _analyze_nlp_plants(7)[:6]:
        point = AnalysisPoint(problem, meta.known_solution, AnalyzerOptions(num_delta=4))
        dim = problem.n + problem.m
        Z = point.kkt.stacked() + 1e-3 * np.random.default_rng(1).standard_normal((5, dim))
        parts = (point.hessian, point.J, point.Fbar)
        assert (linearized_residual(problem, point.kkt, Z, parts).tobytes()
                == linearized_residual(problem, point.kkt, Z).tobytes())
        with monkeypatch.context() as mp:
            mp.setattr(pr, "_base_parts", None)
            stats = strong_regularity_probe(problem, point)
        assert stats.failures == 0


@pytest.mark.parametrize("seed", [7, 8])
def test_leg_c_reads_the_planted_labels_of_the_analyze_nlp_plants(monkeypatch, seed):
    # the analyze-nlp benchmark plants with its analyzer options, and no
    # Newton solve allowed: every plant is decided exactly with no failed
    # solve, leg c holds at every strongly regular plant and saddle, and
    # every other plant reads the certificate
    _no_newton(monkeypatch)
    workloads = _benchmark_workloads()
    w = workloads.WORKLOADS["analyze-nlp"]
    instances = workloads.generate(w, seed)
    opts = workloads.analyzer_options(w, seed)
    so_fail = {7: set(), 8: {7, 23, 27}}[seed]
    legs = []
    for k, ((problem, meta), inst) in enumerate(zip(workloads.load(instances), instances)):
        probe = strong_regularity_probe(problem, meta.known_solution, opts)
        assert probe.failures == 0, k
        plant = inst.plant
        if plant.nondegenerate and k not in so_fail:
            # strongly regular, or a saddle that is (leg b holds)
            assert probe.violations == 0 and np.isfinite(probe.modulus), k
            legs.append("c")
        else:
            assert (probe.violations, probe.solved) == (1, 1), k
            legs.append("violation")
        if not plant.second_order:
            # the other second-order failures are strongly regular saddles:
            # leg b finds no singular element there
            sweep = nonsingularity_sweep(problem, meta.known_solution, opts)
            assert (k in so_fail) == (probe.violations > 0), k
            assert (k in so_fail) == (sweep.verdict == "singular-element-found"), k
    assert len(legs) == 48
    assert legs.count("violation") == 12 + len(so_fail)


def test_probe_battery():
    problem, meta = load_battery("l1_toy")
    p = strong_regularity_probe(problem, meta.known_solution,
                                AnalyzerOptions(radius=0.1, num_delta=25))
    assert p.violations == 0 and p.failures == 0
    assert p.modulus <= 2.0
    problem, meta = load_battery("nlp_toy")
    p = strong_regularity_probe(problem, meta.known_solution, AnalyzerOptions(num_delta=25))
    assert p.violations == 0 and p.failures == 0 and np.isfinite(p.modulus)
    problem, meta = load_battery("sdp_degenerate")
    p = strong_regularity_probe(problem, meta.known_solution, AnalyzerOptions(num_delta=25))
    assert p.violations > 0 or p.failures > 0


def test_probe_modulus_scale_covariance():
    for name in ("l1_toy", "nlp_toy"):
        problem, meta = load_battery(name)
        p1 = strong_regularity_probe(problem, meta.known_solution,
                                     AnalyzerOptions(radius=0.05, num_delta=40, seed=1))
        p2 = strong_regularity_probe(problem, meta.known_solution,
                                     AnalyzerOptions(radius=0.10, num_delta=40, seed=1))
        assert p1.violations == p2.violations == 0
        assert abs(p2.modulus - p1.modulus) <= 0.2 * p1.modulus, name


def test_equivalence_battery_consistent():
    positive = {"nlp_toy", "sdp_toy", "l1_toy", "smooth_toy"}
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy", "sdp_degenerate"):
        problem, meta = load_battery(name)
        rep = equivalence_report(problem, meta.known_solution, FAST)
        assert rep.consistency["verdict"] == "consistent", name
        legs = (rep.consistency["leg_a_second_order_and_nondegeneracy"],
                rep.consistency["leg_b_elements_nonsingular"],
                rep.consistency["leg_c_probe_strong_regularity"])
        assert all(legs) == (name in positive), (name, legs)
        assert not any(legs) == (name not in positive), (name, legs)


def test_nondegeneracy_implies_unique_multiplier_on_battery():
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        nd = nondegeneracy_check(problem, meta.known_solution)
        unique, _ = multiplier_uniqueness(problem, meta.known_solution, FAST)
        if nd.status == "holds":
            assert unique, name


def test_srcq_domain_identity():
    # instances where the strict qualification holds (or is heuristically
    # likely): the descriptor subspace equals the sampled-range subspace
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        v = srcq_check(problem, meta.known_solution, FAST)
        assert v.status in ("holds", "heuristic-likely"), name
        s1 = critical_subspace(problem, meta.known_solution)
        s2 = critical_subspace_from_samples(problem, meta.known_solution,
                                            count=16, seed=0)
        assert s1.dim == s2.dim, name
        assert mutual_span_residual(s1.basis, s2.basis) <= 1e-8, name


def test_assumption_checks_battery():
    for name, piece, xbar, ubar in pair_battery():
        samples = sample_clarke(piece, xbar + ubar, 16, seed=0)
        out = assumption_check(piece, xbar, ubar, samples)
        for key, verdict in out.items():
            assert verdict.status == "evidence-for", (name, key, verdict.detail)


def test_report_verdicts_carry_tolerances():
    problem, meta = load_battery("nlp_toy")
    rep = equivalence_report(problem, meta.known_solution, FAST)
    for v in (rep.rcq, rep.srcq, rep.nondegeneracy):
        assert v.tol > 0
    assert rep.sweep.tol > 0
    assert rep.tolerances["kkt"] > 0


# ----------------------------------------------------------------------
# The batched alternating-projection search against its per-restart loop


def ap_nonzero_points_loop(P_sub, project, budget, tol, rng, max_candidates=8):
    """One restart at a time, one vector per projection."""
    found = []
    for _ in range(budget):
        v = rng.standard_normal(P_sub.shape[0])
        ok = False
        for _ in range(60):
            v = P_sub @ project(v)
            nv = float(np.linalg.norm(v))
            if nv < 1e-13:
                break
            v = v / nv
            ok = True
        if not ok or float(np.linalg.norm(v)) < 0.5:
            continue
        res = float(np.linalg.norm(v - P_sub @ v)) + float(np.linalg.norm(v - project(v)))
        if res <= tol:
            if all(np.linalg.norm(v - u) > 1e-6 and np.linalg.norm(v + u) > 1e-6
                   for u in found):
                found.append(v)
            if len(found) >= max_candidates:
                break
    return found


def _lifted_psd_pair(lam, rng):
    """(piece, xbar, ubar) of an epi-lifted PSD block at P diag(lam) P^T."""
    m = len(lam)
    P, _ = np.linalg.qr(rng.standard_normal((m, m)))
    piece = EpiSum(PSDConeIndicator(m))
    z = np.concatenate([[0.3], svec(P @ np.diag(lam) @ P.T)])
    xbar = piece.prox(z)
    return piece, xbar, z - xbar


def _assert_same_candidates(P_sub, project, budget, seed, max_candidates=8):
    new = _ap_nonzero_points(P_sub, project, budget, 1e-8, np.random.default_rng(seed),
                             max_candidates)
    old = ap_nonzero_points_loop(P_sub, project, budget, 1e-8, np.random.default_rng(seed),
                                 max_candidates)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert np.max(np.abs(a - b)) <= 1e-10
    return len(new)


def _projections(structures):
    """The projections onto the critical polar and the domain normal cone
    of an analysis point with the given block structures."""
    point = cone_point(structures)
    return [functools.partial(point.project, name)
            for name in ("critical_polar_cone", "domain_normal_cone")]


def test_ap_nonzero_points_matches_loop_oracle():
    rng = np.random.default_rng(5)
    counts = []
    for lam in ([2.0, 0.0, -1.0], [0.0, 0.0, -1.5, -0.5], [0.0, 0.0, 0.0]):
        piece, xbar, ubar = _lifted_psd_pair(lam, rng)
        dim = piece.dim
        for project in _projections([piece.structure(xbar, ubar)]):
            for p in (2, dim - 1):
                N, _ = np.linalg.qr(rng.standard_normal((dim, p)))
                for seed in (0, 7):
                    counts.append(_assert_same_candidates(N @ N.T, project, 40, seed))
            N, _ = np.linalg.qr(rng.standard_normal((dim, dim - 1)))
            counts.append(_assert_same_candidates(N @ N.T, project, 40, 3, max_candidates=3))
    # both sides of the search are covered: nothing found, and the cut
    assert 0 in counts and 8 in counts and 3 in counts


def test_ap_nonzero_points_every_restart_dies():
    # the lift pins the scalar coordinate of the cone to zero, and a
    # positive definite block has the trivial critical polar cone, so one
    # projection round maps every restart to exactly zero
    rng = np.random.default_rng(6)
    piece, xbar, ubar = _lifted_psd_pair([2.0, 1.0], rng)
    e0 = np.zeros((piece.dim, 1))
    e0[0, 0] = 1.0
    N, _ = np.linalg.qr(rng.standard_normal((piece.dim, 2)))
    polar, normal = _projections([piece.structure(xbar, ubar)])
    for project, P_sub in ((normal, e0 @ e0.T), (polar, N @ N.T)):
        assert _assert_same_candidates(P_sub, project, 30, 0) == 0


def test_product_cone_projects_row_wise():
    # the point's projection acts block by block, as each block's own
    # point projects, and row-wise on stacks
    rng = np.random.default_rng(9)
    psd, xp, up = _lifted_psd_pair([1.0, 0.0, -2.0], rng)
    orth = OrthantIndicator(2)
    zo = np.array([1.0, -1.0])
    pairs = [(psd, xp, up), (orth, orth.prox(zo), zo - orth.prox(zo)), (psd, xp, up)]
    structures = [p.structure(xb, ub) for p, xb, ub in pairs]
    for blocks, polyhedral in ((structures, False), ([structures[1]] * 3, True)):
        point = cone_point(blocks)
        assert point.polyhedral == polyhedral
        m = point.problem.m
        for name in ("critical_polar_cone", "domain_normal_cone"):
            assert_projects_row_wise(functools.partial(point.project, name), m, rng)
            v = rng.standard_normal(m)
            each = [cone_point([st]).project(name, vb)
                    for st, vb in zip(blocks, point.problem.blocks(v))]
            assert point.project(name, v).tobytes() == np.concatenate(each).tobytes()


# ----------------------------------------------------------------------
# The curvature form against its polarization through the scalar term


def polarized(q, V):
    """Symmetric matrix of the quadratic function q on the columns of V,
    from q on each column and on each sum of two columns."""
    k = V.shape[1]
    g = [q(V[:, i]) for i in range(k)]
    G = np.diag(g)
    for i in range(k):
        for j in range(i + 1, k):
            G[i, j] = G[j, i] = 0.5 * (q(V[:, i] + V[:, j]) - g[i] - g[j])
    return G


def reduced_quadratic_form_polarized(problem, pt, basis):
    """The reduced form with the curvature term polarized over all blocks."""
    J = problem.F.jacobian(pt.x)
    pairs = list(zip(problem.pieces, problem.blocks(problem.F.eval(pt.x)),
                     problem.blocks(pt.mu)))

    def curvature(d):
        return sum(p.structure(xb, ub).gamma(vb)
                   for (p, xb, ub), vb in zip(pairs, problem.blocks(J @ d)))

    H = problem.F.weighted_hessian(pt.x, pt.mu)
    return basis.T @ H @ basis + polarized(curvature, basis)


def _curvature_pairs():
    """(name, piece, xbar, ubar): the verify battery and the PSD index
    structures of orders up to 5, empty alpha, beta or gamma included."""
    out = list(pair_battery())
    for case, z in _psd_structures():
        if case[0] <= 5:
            piece = PSDConeIndicator(case[0])
            out.append((f"psd{case}", piece, piece.prox(z), z - piece.prox(z)))
    return out


def _assert_close(new, old, label):
    assert new.shape == old.shape, label
    scale = 1.0 + np.max(np.abs(old), initial=0.0)
    assert np.max(np.abs(new - old), initial=0.0) <= 1e-12 * scale, label


def test_curvature_form_matches_polarized_gamma():
    rng = np.random.default_rng(11)
    seen_outside = 0
    for name, piece, xbar, ubar in _curvature_pairs():
        # the curvature domain is the span of the critical set's affine hull
        st = piece.structure(xbar, ubar)
        aff = st.affine_hull_basis
        for k in range(1, 7):
            V = aff @ rng.standard_normal((aff.shape[1], k))
            form = st.curvature_form(V)
            _assert_close(form, polarized(st.gamma, V), (name, k))
            assert np.array_equal(form, form.T), name
        if aff.shape[1] < piece.dim:
            seen_outside += 1
            W = np.hstack([V, rng.standard_normal((piece.dim, 1))])
            form = st.curvature_form(W)
            assert form[-1, -1] == np.inf and np.array_equal(form, form.T), name
            _assert_close(form[:-1, :-1], st.curvature_form(V), name)
    assert seen_outside >= 5


def _linear_problem(pairs, columns, rng):
    """F(x) = c + J x with J block diagonal in the given columns, c the
    stacked xbar and the multiplier the stacked ubar, at x = 0."""
    c = np.concatenate([xb for _, xb, _ in pairs])
    m, n = c.size, sum(C.shape[1] for C in columns)
    J = np.zeros((m, n))
    r = k = 0
    for C in columns:
        J[r:r + C.shape[0], k:k + C.shape[1]] = C
        r, k = r + C.shape[0], k + C.shape[1]
    S = rng.standard_normal((n, n))
    F = SmoothMap(n=n, m=m, eval=lambda x: c + J @ x, jacobian=lambda x: J,
                  weighted_hessian_fn=lambda x, mu: S + S.T)
    problem = CompositeProblem(F, [p for p, _, _ in pairs])
    return problem, KKTPoint(np.zeros(n), np.concatenate([ub for _, _, ub in pairs]))


def test_reduced_quadratic_form_matches_polarization():
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy", "sdp_degenerate"):
        problem, meta = load_battery(name)
        pt = meta.known_solution
        basis = critical_subspace(problem, pt).basis
        _assert_close(reduced_quadratic_form(problem, pt, basis),
                      reduced_quadratic_form_polarized(problem, pt, basis), name)
    rng = np.random.default_rng(12)
    pairs = [(p, xb, ub) for _, p, xb, ub in _curvature_pairs()]
    groups = [pairs[i:i + 3] for i in range(0, len(pairs), 3)]
    raised = 0
    for group in groups:
        affs = [p.structure(xb, ub).affine_hull_basis for p, xb, ub in group]
        problem, pt = _linear_problem(group, affs, rng)
        if problem.n:
            basis, _ = np.linalg.qr(rng.standard_normal((problem.n, min(problem.n, 6))))
            _assert_close(reduced_quadratic_form(problem, pt, basis),
                          reduced_quadratic_form_polarized(problem, pt, basis), group)
        # a Jacobian column off the domain of a block
        off = [np.hstack([A, rng.standard_normal((A.shape[0], 1))]) for A in affs]
        if any(A.shape[1] < A.shape[0] for A in affs):
            problem, pt = _linear_problem(group, off, rng)
            with pytest.raises(CurvatureDomainError):
                reduced_quadratic_form(problem, pt, np.eye(problem.n))
            raised += 1
    assert raised >= 3


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported on the first linear program, not with the
    # package: nlp_toy's cone is certified without one, and the critical
    # polar cone of two l1 kinks and one interior l1 coordinate, which holds
    # a point and leaves a plane of null(J^T) after its PINNED rows (none),
    # reaches one
    import kktstab

    code = ("import sys, numpy as np, kktstab\n"
            "print('scipy.optimize' in sys.modules)\n"
            "problem, meta = kktstab.load_battery('nlp_toy')\n"
            "v = kktstab.rcq_check(problem, meta.known_solution)\n"
            "print(v.status, v.detail)\n"
            "print('scipy.optimize' in sys.modules)\n"
            "a, c = np.ones(3), np.zeros(3)\n"
            "F = kktstab.SmoothMap(n=1, m=3, eval=lambda x: c + a * x[0],\n"
            "                      jacobian=lambda x: a[:, None],\n"
            "                      weighted_hessian_fn=lambda x, m: np.zeros((1, 1)))\n"
            "problem = kktstab.CompositeProblem(F, [kktstab.L1Norm(3)])\n"
            "mu = np.array([1.0, -1.0, 0.0])\n"
            "v = kktstab.srcq_check(problem, kktstab.KKTPoint(np.zeros(1), mu))\n"
            "print(v.status)\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kktstab.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    before, verdict, certified, kink, after = proc.stdout.splitlines()
    assert before == "False"
    assert verdict.startswith("holds ") and verdict.endswith("(exact)")
    assert certified == "False"
    assert kink == "fails"
    assert after == "True"


# ----------------------------------------------------------------------
# One analysis point per report


def test_equivalence_report_checks_one_point_and_shares_each_cone_decision(monkeypatch):
    import kktstab.stability as st

    problem, meta = load_battery("nlp_toy")
    checked, certificates, searched, uniqueness = [], [], [], []
    kkt = st.kkt_check
    # the point's KKT test reads its one evaluation: J, F and every prox
    monkeypatch.setattr(st, "kkt_check",
                        lambda p, z, tol=1e-8, **parts: checked.append((z, sorted(parts)))
                        or kkt(p, z, tol, **parts))
    gordan = st._gordan_certificate

    def certificate(B, codes, groups):
        certificates.append((codes.tobytes(), gordan(B, codes, groups)))
        return certificates[-1][1]

    monkeypatch.setattr(st, "_gordan_certificate", certificate)
    lp = st._lp_nonzero_points
    monkeypatch.setattr(st, "_lp_nonzero_points",
                        lambda N, codes, *a: searched.append(codes) or lp(N, codes, *a))
    unique = st.multiplier_uniqueness
    monkeypatch.setattr(st, "multiplier_uniqueness",
                        lambda *a, **k: uniqueness.append(a[1]) or unique(*a, **k))
    rep = equivalence_report(problem, meta.known_solution, FAST)
    assert rep.multiplier_unique and rep.srcq.status == rep.rcq.status == "holds"
    # the unique multiplier leaves no candidate to check, so the one KKT
    # check is the analysis point's
    assert len(checked) == 1 and checked[0][1] == ["parts", "prox"]
    # one decision per cone, each a verified certificate and no linear
    # program: the domain normal cone (rcq) and the critical polar cone,
    # shared by srcq and both uniqueness calls
    assert len(uniqueness) == 2 and uniqueness[0] is uniqueness[1]
    assert len(certificates) == 2 and all(ok for _, ok in certificates)
    assert len({codes for codes, _ in certificates}) == 2
    assert searched == []


def test_each_cone_is_searched_once_per_report(monkeypatch):
    # a PSD block of order 2 at the origin with J = svec(diag(1, 0)): both
    # cones meet null(J^T), a plane, in the ray of diag(0, -1), which no
    # certificate or ray test decides and which 20 restarts miss; the
    # critical polar cone passes srcq's span test, so srcq and both
    # uniqueness calls read its one search
    import kktstab.stability as st

    searched = []
    ap = st._ap_nonzero_points
    monkeypatch.setattr(st, "_ap_nonzero_points",
                        lambda P, project, *a: searched.append(project.args[0])
                        or ap(P, project, *a))
    a = svec(np.diag([1.0, 0.0]))
    F = SmoothMap(n=1, m=3, eval=lambda x: a * x[0], jacobian=lambda x: a[:, None],
                  weighted_hessian_fn=lambda x, m: np.zeros((1, 1)))
    problem = CompositeProblem(F, [PSDConeIndicator(2)])
    rep = equivalence_report(problem, np.zeros(4), AnalyzerOptions(num_delta=2, srcq_budget=20))
    assert (rep.rcq.status, rep.srcq.status, rep.multiplier_unique, rep.ssosc.status) == (
        "heuristic-likely", "heuristic-likely", True, "fails")
    assert sorted(searched) == ["critical_polar_cone", "domain_normal_cone"]
    # the degenerate battery instance keeps its second multiplier
    problem, meta = load_battery("sdp_degenerate")
    assert not equivalence_report(problem, meta.known_solution, FAST).multiplier_unique


@pytest.mark.parametrize("check", [rcq_check, srcq_check, nondegeneracy_check,
                                   multiplier_uniqueness, ssosc_check, critical_subspace,
                                   nonsingularity_sweep, strong_regularity_probe,
                                   equivalence_report], ids=lambda f: f.__name__)
def test_a_point_takes_no_other_options(check):
    problem, meta = load_battery("nlp_toy")
    point = AnalysisPoint(problem, meta.known_solution, FAST)
    with pytest.raises(ValueError, match="^the analysis point was built with other"):
        check(problem, point, AnalyzerOptions())
    check(problem, point, AnalyzerOptions(num_delta=20, srcq_budget=400))


def _pair_battery_problem(keep=lambda name: True):
    """One problem whose blocks are the verify pair battery's pairs (those
    whose names ``keep`` accepts), at a KKT point: F(x) = c + N x with c the
    stacked xbar and N an orthonormal basis of the multiplier's complement,
    plus a definite Hessian."""
    pairs = [(p, xb, ub) for name, p, xb, ub in pair_battery() if keep(name)]
    c = np.concatenate([xb for _, xb, _ in pairs])
    mu = np.concatenate([ub for _, _, ub in pairs])
    N = nullspace(mu[None, :])
    m, n = N.shape
    S = np.random.default_rng(3).standard_normal((n, n))
    F = SmoothMap(n=n, m=m, eval=lambda x: c + N @ x, jacobian=lambda x: N,
                  weighted_hessian_fn=lambda x, mu: S @ S.T)
    return CompositeProblem(F, [p for p, _, _ in pairs]), KKTPoint(np.zeros(n), mu)


@pytest.mark.parametrize("name", BATTERY_NAMES + ("pair_battery",))
def test_each_block_is_handled_once_per_report(monkeypatch, name):
    import kktstab.pieces as pc

    # a report takes every structure from the problem's block groups once:
    # one stacked subgradient pass, one _codes call per group of separable
    # blocks and one _structure call per other block, whose eig_split runs
    # once (eig_split calls are counted where the structure itself makes
    # them, not in the prox of a subgradient test); no piece.structure
    calls = {attr: [] for attr in ("structures", "check_subgradients", "check_subgradient",
                                   "structure", "_codes", "_structure", "eig_split")}
    active = []

    def count(cls, attr):
        def counted(self, *args, _attr=attr, _method=getattr(cls, attr), **kwargs):
            if not active or _attr != active[-1]:  # an epi lift's inner call is its own
                calls[_attr].append(self)
            active.append(_attr)
            try:
                return _method(self, *args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(cls, attr, counted)

    for attr in ("structures", "check_subgradients"):
        count(pc.BlockGroups, attr)
    for attr in ("structure", "check_subgradient"):
        count(pc.ConvexPiece, attr)
    count(pc._SeparablePiece, "_codes")
    for cls in pc.PIECE_KINDS.values():
        count(cls, "_structure")

    def counted_split(v, _split=pc.eig_split):
        if active and active[-1] == "_structure":
            calls["eig_split"].append(v)
        return _split(v)

    monkeypatch.setattr(pc, "eig_split", counted_split)
    if name == "pair_battery":
        problem, z = _pair_battery_problem()
    else:
        problem, meta = load_battery(name)
        z = meta.known_solution
    psd = [p for p in problem.pieces
           if isinstance(p, PSDConeIndicator) or isinstance(getattr(p, "inner", None),
                                                            PSDConeIndicator)]
    equivalence_report(problem, z, FAST)
    groups = problem.block_groups
    assert calls["structures"] == calls["check_subgradients"] == [groups]
    assert len(set(map(id, calls["check_subgradient"]))) == len(calls["check_subgradient"])
    assert calls["structure"] == []
    assert sorted(map(id, calls["_codes"])) == sorted(id(g[0]) for g in groups.groups)
    assert sorted(map(id, calls["_structure"])) == sorted(map(id, psd))
    assert len(calls["eig_split"]) == len(psd)


def _assert_same_structures(got, want, label):
    """Structure for structure, array for array: the same frames, codes and
    weights, dtypes and bits."""
    assert len(got) == len(want), label
    for k, (a, b) in enumerate(zip(got, want)):
        assert (a.frame is None) == (b.frame is None), (label, k)
        for field in ("frame", "critical", "normal", "weight"):
            u, v = getattr(a, field), getattr(b, field)
            if u is not None:
                assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), (
                    label, k, field)


def _per_block_structures(point):
    return [p.structure(xb, ub, point.opts.tol, pb)
            for (p, xb, ub), pb in zip(point.pairs, point.problem.blocks(point.prox))]


def _kink_block(rng, kind, sign):
    """A separable piece of the kind and a pair (xbar, ubar) at it whose
    z = xbar + ubar has one coordinate of modulus S in {3, 1e8, 3e9}, which
    sets the block's kink tolerance t = 1e-8 S, and the others at a kink
    plus c t, c in {-2, -1, -1/2, 0, 1/2, 1, 2}: exactly +-t from a kink
    among them.  A box mixes infinite bounds, boxes narrower than, exactly
    and wider than 2t, and bounds away from 0."""
    S = float(rng.choice([3.0, 1e8, 3e9]))
    t = 1e-8 * S
    c = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=int(rng.integers(2, 7)))
    top = S * rng.choice([-1.0, 1.0])
    if kind == "orthant":
        piece, z = OrthantIndicator(c.size + 1, sign), np.append(c * t, top)
    elif kind == "l1":
        kinks = rng.choice([-1.0, 1.0], size=c.size)
        piece, z = L1Norm(c.size + 1), np.append(kinks + c * t, top)
    else:
        menu = [(0.0, 1.0), (-1.0, 0.0), (-np.inf, 0.0), (0.0, np.inf), (-2.0, 1.5),
                (0.0, 1.5 * t), (0.0, 2.0 * t), (-2.0 * t, 0.0), (0.0, 3.0 * t)]
        lo, hi = np.array([menu[k] for k in rng.integers(len(menu), size=c.size)]).T
        kink = np.where(np.isfinite(lo) & (rng.uniform(size=c.size) < 0.5) | ~np.isfinite(hi),
                        lo, hi)
        piece = BoxIndicator(np.append(lo, -np.inf), np.append(hi, np.inf))
        z = np.append(kink + c * t, top)
    perm = rng.permutation(z.size)
    if kind == "box":
        piece = BoxIndicator(piece.lower[perm], piece.upper[perm])
    z = z[perm]
    xbar = piece.prox(z)
    return piece, xbar, z - xbar


def _kink_problem(rng, psd=False):
    """A problem F(x) = c of orthant (both signs), box and l1 blocks from
    ``_kink_block``, a third of them epi-lifted with a scalar coordinate up
    to 1e12, which is outside the inner tolerance, and with ``psd`` PSD
    blocks, alone and lifted, among them; and its pair (xbar, ubar)."""
    blocks = []
    for _ in range(int(rng.integers(3, 9))):
        kind = ["orthant", "box", "l1"][rng.integers(3)]
        piece, xb, ub = _kink_block(rng, kind, int(rng.choice([-1, 1])))
        if rng.uniform() < 0.35:
            c = float(rng.choice([0.5, 1e9, 1e12]))
            piece, xb, ub = EpiSum(piece), np.append(c, xb), np.append(1.0, ub)
        blocks.append((piece, xb, ub))
    if psd:
        for lifted in (False, True):
            piece = PSDConeIndicator(int(rng.integers(2, 4)))
            z = rng.standard_normal(piece.dim)
            xb = piece.prox(z)
            if lifted:
                piece, xb, z = EpiSum(piece), np.append(2.0, xb), np.append(3.0, z)
            blocks.insert(int(rng.integers(len(blocks) + 1)), (piece, xb, z - xb))
    pieces = [p for p, _, _ in blocks]
    xbar = np.concatenate([xb for _, xb, _ in blocks])
    ubar = np.concatenate([ub for _, _, ub in blocks])
    m = xbar.size
    F = SmoothMap(n=1, m=m, eval=lambda x: xbar, jacobian=lambda x: np.zeros((m, 1)))
    return CompositeProblem(F, pieces), KKTPoint(np.zeros(1), ubar)


def test_grouped_structures_have_the_bits_of_each_blocks_structure():
    # the analysis point classifies the separable blocks of one kind in one
    # call; its structures equal piece.structure block by block, at the
    # planted polyhedral plants of both labels and at hand-built points
    # with coordinates +-t from a kink in blocks of different tolerances
    cases = [(name, problem, meta.known_solution, AnalyzerOptions())
             for name, problem, meta in _planted_plants() if name.startswith("nlp")]
    cases += [(f"analyze-nlp-{k}", problem, meta.known_solution, AnalyzerOptions())
              for k, (problem, meta) in enumerate(_analyze_nlp_plants(7))]
    assert {name.split("-")[1] for name, *_ in cases[:6]} == {"True", "False"}
    for name, problem, z, opts in cases:
        point = AnalysisPoint(problem, z, opts)
        _assert_same_structures(point.structures, _per_block_structures(point), name)
    rng = np.random.default_rng(5)
    kinds, codes = set(), set()
    for k in range(60):
        problem, z = _kink_problem(rng, psd=k % 4 == 0)
        kinds.update((type(g[0]).__name__, getattr(g[0], "sign", 0))
                     for g in problem.block_groups.groups)
        point = AnalysisPoint(problem, z, _kkt_test=False)
        want = _per_block_structures(point)
        _assert_same_structures(point.structures, want, k)
        codes.update((c, n) for st in want for c, n in zip(st.critical, st.normal))
    assert kinds == {("OrthantIndicator", -1), ("OrthantIndicator", 1), ("BoxIndicator", 0),
                     ("L1Norm", 0)}
    assert {c for c, _ in codes} == {PINNED, FREE, UP, DOWN}
    assert {n for _, n in codes} == {PINNED, FREE, UP, DOWN, BLOCK}


def test_grouped_subgradient_tests_raise_as_each_block_does():
    # a pair that fails one block's subgradient test raises that block's
    # message, the first failing block's in block order; a residual within
    # rounding of its threshold decides as the block's own test does
    from kktstab import SubgradientError

    def outcome(fn):
        try:
            fn()
        except SubgradientError as exc:
            return str(exc)
        return None

    rng = np.random.default_rng(9)
    raised = 0
    for k in range(40):
        problem, z = _kink_problem(rng, psd=k % 2 == 0)
        mu = z.mu.copy()
        for b in rng.choice(len(problem.pieces), size=int(rng.integers(1, 3)), replace=False):
            mu[problem.offsets[b] + rng.integers(problem.pieces[b].dim)] += rng.choice([-3.0, 3.0])
        point = AnalysisPoint(problem, KKTPoint(z.x, mu), _kkt_test=False)
        want = outcome(lambda: _per_block_structures(point))
        assert outcome(lambda: point.structures) == want, k
        raised += want is not None
    assert 10 <= raised < 40
    # an orthant(+1) block at xbar = (p, -r), ubar = 0, between an l1 and a
    # box block: its residual r against tol (1 + |xbar|), r within a few
    # ulps of the threshold, where a norm summed in another order than
    # np.linalg.norm's can decide otherwise
    tol = 1e-6
    decided = set()
    for k in range(300):
        p = rng.uniform(0.5, 2.0, size=int(rng.integers(1, 6)))
        r0 = tol
        for _ in range(4):  # r0 = tol (1 + |(p, -r0)|)
            r0 = tol * (1.0 + np.linalg.norm(np.append(p, -r0)))
        for r in r0 * (1.0 + np.arange(-6, 7) * 2.0 ** -52):
            pieces = [L1Norm(2), OrthantIndicator(p.size + 1, 1), BoxIndicator([0.0], [1.0])]
            xbar = np.concatenate([[0.0, 0.0], p, [-r, 0.5]])
            m = xbar.size
            F = SmoothMap(n=1, m=m, eval=lambda x: xbar, jacobian=lambda x: np.zeros((m, 1)))
            point = AnalysisPoint(CompositeProblem(F, pieces),
                                  KKTPoint(np.zeros(1), np.zeros(m)), AnalyzerOptions(tol=tol),
                                  _kkt_test=False)
            want = outcome(lambda: _per_block_structures(point))
            assert outcome(lambda: point.structures) == want, (k, r)
            decided.add(want is None)
    assert decided == {True, False}


def _per_block_map(problem, method, w, *args):
    """The per-block loop of a piece method over the blocks of w (and of
    each array among args), concatenated: the oracle of ``BlockGroups``."""
    parts = [problem.blocks(a) if isinstance(a, np.ndarray) else [a] * len(problem.pieces)
             for a in args]
    return np.concatenate([getattr(p, method)(wb, *rest) for p, wb, *rest
                           in zip(problem.pieces, problem.blocks(w), *parts)], axis=-1)


def test_grouped_prox_maps_have_the_bits_of_the_per_block_loops():
    # BlockGroups.prox and prox_conjugate at sigma 0.5, 1 and 3, and
    # prox_dirderiv at wbar, equal the per-block loops bit for bit, on one
    # point and on stacks, and so does prox_update on points: at the
    # battery, the pair battery (PSD and separable blocks), the analyze-nlp
    # plants of seed 7 and the _kink_problem mixes (infinite and narrow
    # boxes, blocks whose magnitudes differ by up to 1e9, epi lifts, PSD
    # blocks alone and lifted), whose coordinates +-t from a kink read
    # their own block's tolerance t
    cases = [(name, *load_battery(name)) for name in BATTERY_NAMES]
    cases = [(name, problem, meta.known_solution) for name, problem, meta in cases]
    cases.append(("pair_battery", *_pair_battery_problem()))
    cases += [(problem.name, problem, meta.known_solution)
              for problem, meta in _analyze_nlp_plants(7)]
    rng = np.random.default_rng(13)
    cases += [(f"kink-{k}", *_kink_problem(rng, psd=k % 3 == 0)) for k in range(30)]

    def same(got, want, label):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                          want.tobytes()), label

    for name, problem, z in cases:
        groups = problem.block_groups
        wbar = problem.F.eval(z.x) + z.mu
        scale = np.abs(wbar) + 1.0
        W = np.vstack([wbar, wbar + 1e-9 * scale * rng.standard_normal(wbar.size),
                       scale * rng.standard_normal((4, wbar.size))])
        for w in (wbar, W, W[None]):
            for sigma in (0.5, 1.0, 3.0):
                for method in ("prox", "prox_conjugate"):
                    same(getattr(groups, method)(w, sigma),
                         _per_block_map(problem, method, w, sigma), (name, method, sigma))
        D = scale * rng.standard_normal((5, wbar.size))
        for d in (D[0], D, D[:, None]):
            same(groups.prox_dirderiv(wbar, d), _per_block_map(problem, "prox_dirderiv", wbar, d),
                 (name, "prox_dirderiv", d.shape))
        # prox_update from the prox at wbar, at points that move all, one or
        # none of the blocks
        moved = []
        for b in (0, len(problem.pieces) - 1):
            v, block = wbar.copy(), slice(problem.offsets[b], problem.offsets[b + 1])
            v[block] = W[2, block]
            moved.append(v)
        pbar = groups.prox(wbar)
        for v in (wbar, W[1], W[2], *moved):
            same(groups.prox_update(v, wbar, pbar), _per_block_map(problem, "prox", v, 1.0),
                 (name, "prox_update"))
        same(problem.prox_g(W, 3.0), _per_block_map(problem, "prox", W, 3.0), name)
        same(problem.prox_gstar(W, 0.5), _per_block_map(problem, "prox_conjugate", W, 0.5), name)


@pytest.mark.parametrize("name", BATTERY_NAMES + ("pair_battery", "analyze-nlp", "analyze-sdp"))
def test_each_report_evaluates_its_point_once(monkeypatch, name):
    # F, J and the weighted Hessian run once per report, and the blockwise
    # prox once at wbar = F(x) + mu over the whole report: each group of
    # the problem's block groups runs its joined piece's prox once at its
    # coordinates of wbar, and each other block its piece's prox once at
    # its slice.  The analysis point's one evaluation serves the KKT test,
    # the subgradient tests, the uniqueness candidates (which project again
    # only the parts that moved) and the probe
    if name == "pair_battery":
        cases = [(*_pair_battery_problem(), FAST)]
    elif name in BATTERY_NAMES:
        problem, meta = load_battery(name)
        cases = [(problem, meta.known_solution, FAST)]
    else:
        workloads = _benchmark_workloads()
        w = workloads.WORKLOADS[name]
        opts = workloads.analyzer_options(w, 7)
        insts = workloads.generate(w, 7)
        cases = [(problem, meta.known_solution, opts)
                 for problem, meta in workloads.load(insts)]
    for problem, z, opts in cases:
        wbar = problem.F.eval(z.x) + z.mu
        calls = dict.fromkeys(("eval", "jacobian", "weighted_hessian"), 0)
        for attr in calls:
            def counted(*args, _attr=attr, _fn=getattr(problem.F, attr), _calls=calls):
                _calls[_attr] += 1
                return _fn(*args)

            monkeypatch.setattr(problem.F, attr, counted)
        groups = problem.block_groups
        targets = ([(piece, wbar[index]) for piece, index, _ in groups.groups]
                   + [(p, wbar[block]) for p, block in groups.own])
        assert len(targets) <= len(problem.pieces), problem.name
        at_wbar = [0] * len(targets)
        for i, (p, wb) in enumerate(targets):
            def prox(v, *args, _i=i, _wb=wb, _prox=p.prox, _at_wbar=at_wbar):
                v = np.asarray(v, dtype=float)
                _at_wbar[_i] += v.shape == _wb.shape and v.tobytes() == _wb.tobytes()
                return _prox(v, *args)

            monkeypatch.setattr(p, "prox", prox)
        equivalence_report(problem, z, opts)
        assert calls == dict.fromkeys(calls, 1), (problem.name, calls)
        assert at_wbar == [1] * len(targets), (problem.name, at_wbar)


@pytest.mark.parametrize("check", [check_gamma_properties, check_gamma_fixed_point_bound])
def test_gamma_checks_build_one_structure_per_pair(monkeypatch, check):
    import kktstab.pieces as pc

    built = []
    original = pc.ConvexPiece.structure

    def counted(self, *args, **kwargs):
        built.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(pc.ConvexPiece, "structure", counted)
    _, ok, detail = check()
    assert ok, detail
    assert len(built) == len(pair_battery())


def test_checks_accept_an_array_a_kkt_point_or_an_analysis_point():
    from kktstab.stability import AnalysisPoint

    problem, meta = load_battery("smooth_toy")
    pt = meta.known_solution
    opts = AnalyzerOptions(count=8, num_delta=3, srcq_budget=50)
    forms = (pt.stacked(), pt, AnalysisPoint(problem, pt, opts))
    for check in (rcq_check, srcq_check, nondegeneracy_check, multiplier_uniqueness,
                  ssosc_check):
        results = [check(problem, z, opts) for z in forms]
        assert all(repr(r) == repr(results[0]) for r in results), check.__name__
    subspaces = [critical_subspace(problem, z, opts) for z in forms]
    assert all(np.array_equal(s.basis, subspaces[0].basis) for s in subspaces)
    sweeps = [nonsingularity_sweep(problem, z, opts) for z in forms]
    assert all(s == sweeps[0] for s in sweeps)
    probes = [strong_regularity_probe(problem, z, opts) for z in forms]
    assert all(p == probes[0] for p in probes)
    Q = [reduced_quadratic_form(problem, z, subspaces[0].basis) for z in forms]
    assert all(np.array_equal(q, Q[0]) for q in Q)


def test_each_check_tests_kkt_at_its_own_tol():
    # off the known solution by 3e-7: a KKT point at 1e-6 but not at 1e-8
    problem, _ = load_battery("nlp_toy")
    z = np.array([1.0000003, 1.0, 1.0])
    for check in (rcq_check, srcq_check, nondegeneracy_check, multiplier_uniqueness,
                  ssosc_check, critical_subspace, nonsingularity_sweep):
        with pytest.raises(ValueError, match="not a KKT point at tolerance 1.0e-08"):
            check(problem, z, AnalyzerOptions(tol=1e-8))
        check(problem, z, AnalyzerOptions(tol=1e-6))
    rep = equivalence_report(problem, z, AnalyzerOptions(num_delta=10, tol=1e-6))
    assert rep.consistency["verdict"] == "consistent"
    assert rep.nondegeneracy.status == "holds" and rep.ssosc.status == "holds"


# ----------------------------------------------------------------------
# Kink classification with the scale-aware tolerance


def _kink_instance(piece, a, c, mu):
    """F(x) = c + a x on one block, at x = 0 with multiplier mu."""
    a, c = np.asarray(a, float), np.asarray(c, float)
    F = SmoothMap(n=1, m=a.size, eval=lambda x: c + a * x[0], jacobian=lambda x: a[:, None],
                  weighted_hessian_fn=lambda x, m: np.zeros((1, 1)))
    return CompositeProblem(F, [piece]), KKTPoint(np.zeros(1), np.asarray(mu, float))


# (piece, a, [exact (c, mu), then (c, mu) 1e-15 off the kink in the first
# coordinate, to either side]); every coordinate is on a kink at the exact
# point
KINK_CASES = [
    (OrthantIndicator(2, -1), [1.0, 1.0],
     [([0.0, 0.0], [0.0, 0.0]), ([-1e-15, 0.0], [0.0, 0.0]), ([0.0, 0.0], [1e-15, 0.0])]),
    (BoxIndicator([-1.0, -1.0], [1.0, 1.0]), [1.0, 1.0],
     [([-1.0, -1.0], [0.0, 0.0]), ([-1.0 + 1e-15, -1.0], [0.0, 0.0]),
      ([-1.0, -1.0], [-1e-15, 0.0])]),
    (L1Norm(2), [1.0, 1.0],
     [([0.0, 0.0], [1.0, -1.0]), ([1e-15, 0.0], [1.0, -1.0]),
      ([0.0, 0.0], [1.0 - 1e-15, -1.0])]),
    # one coordinate: the element with derivative 1 on the kink is singular
    (OrthantIndicator(1, -1), [1.0], [([0.0], [0.0]), ([0.0], [1e-15])]),
    (BoxIndicator([-1.0], [1.0]), [1.0], [([-1.0], [0.0]), ([-1.0], [-1e-15])]),
]


def _kink_verdicts(problem, pt):
    return (nondegeneracy_check(problem, pt).status,
            nonsingularity_sweep(problem, pt).verdict,
            critical_subspace(problem, pt).dim)


def test_rounding_off_a_kink_keeps_the_kink_verdicts():
    for piece, a, points in KINK_CASES:
        exact, *perturbed = [_kink_instance(piece, a, c, mu) for c, mu in points]
        want = _kink_verdicts(*exact)
        for problem, pt in perturbed:
            w = problem.F.eval(pt.x) + pt.mu
            assert not np.array_equal(w, exact[0].F.eval(pt.x) + exact[1].mu)
            assert np.max(np.abs(w - (exact[0].F.eval(pt.x) + exact[1].mu))) <= 2e-15
            assert _kink_verdicts(problem, pt) == want, (piece.kind, w)


def _verdicts(rep):
    return (rep.rcq.status, rep.srcq.status, rep.nondegeneracy.status,
            rep.multiplier_unique, rep.ssosc.status, getattr(rep.ssosc, "subspace_dim", None),
            rep.sweep.verdict, rep.consistency["verdict"])


def test_battery_verdicts_survive_perturbations_below_1e_10():
    opts = AnalyzerOptions(count=16, num_delta=4, srcq_budget=100)
    rng = np.random.default_rng(13)
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy", "sdp_degenerate"):
        problem, meta = load_battery(name)
        z = meta.known_solution.stacked()
        want = _verdicts(equivalence_report(problem, z, opts))
        for scale in (1e-10, 1e-13):
            dz = scale * rng.uniform(-1.0, 1.0, z.size)
            assert _verdicts(equivalence_report(problem, z + dz, opts)) == want, (name, scale)


def _beta2_pencil():
    """(problem, meta) of a planted PSD pencil of order 3 with |beta| = 2 and
    a nondegeneracy failure."""
    data, _ = _benchmark_workloads().planted.psd_pencil(np.random.default_rng(0), 3, 0, 2,
                                                        False, True, name="beta2")
    return instance_from_dict(data)


def _leg_c(stats):
    return stats.violations == 0 and stats.failures == 0 and np.isfinite(stats.modulus)


def test_probe_tests_kkt_at_its_tol():
    # off the known solution by 3e-7: a KKT point at 1e-6 but not at 1e-8
    problem, _ = load_battery("nlp_toy")
    point = np.array([1.0000003, 1.0, 1.0])
    with pytest.raises(ValueError, match="not a KKT point at tolerance 1.0e-08"):
        strong_regularity_probe(problem, point, AnalyzerOptions(num_delta=5))
    opts = AnalyzerOptions(num_delta=5, tol=1e-6)
    stats = strong_regularity_probe(problem, point, opts)
    assert stats.failures == stats.violations == 0 and stats.solved == 6
    # the |beta| = 2 pencil with the lift's multiplier off by 1e-7, which
    # leaves the PSD block's eigenvalues alone: its conic probe reads the
    # certificate of its nondegeneracy failure
    problem, meta = _beta2_pencil()
    point = meta.known_solution.stacked()
    point[problem.n] += 1e-7
    with pytest.raises(ValueError, match="not a KKT point at tolerance 1.0e-08"):
        strong_regularity_probe(problem, point, AnalyzerOptions(num_delta=5))
    _assert_certificate(strong_regularity_probe(problem, point, opts), 1, "beta2")


@pytest.mark.parametrize("kwargs, message", [
    ({"num_delta": -3}, "num_delta must be an integer of at least 0"),
    ({"num_delta": 2.5}, "num_delta must be an integer of at least 0"),
    ({"num_delta": True}, "num_delta must be an integer of at least 0"),
    ({"radius": -1.0}, "radius must be a finite positive number"),
    ({"radius": 0.0}, "radius must be a finite positive number"),
    ({"radius": float("nan")}, "radius must be a finite positive number"),
    ({"radius": float("inf")}, "radius must be a finite positive number"),
    ({"seed": -1}, "seed must be an integer of at least 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer of at least 0"),
    ({"seed": True}, "seed must be an integer of at least 0"),
])
def test_probe_arguments_are_validated(kwargs, message):
    with pytest.raises(ValueError, match=message):
        AnalyzerOptions(**kwargs)


@pytest.mark.parametrize("name", ["nlp_toy", "sdp_toy", "sdp_degenerate"])
def test_the_newton_options_of_an_analysis_change_nothing(name):
    # AnalyzerOptions still accepts its Newton options, validated by
    # NewtonOptions itself, but the analyzer runs no Newton solve: not at a
    # polyhedral point, nor at a PSD point, nor at the degenerate PSD point
    # where Newton rows used to run out of iterations
    with pytest.raises(ValueError, match="max_iter"):
        AnalyzerOptions(newton=NewtonOptions(max_iter=0))
    problem, meta = load_battery(name)
    reports = [equivalence_report(problem, meta.known_solution,
                                  AnalyzerOptions(num_delta=5, newton=newton))
               for newton in (NewtonOptions(), NewtonOptions(max_iter=1, tol=1.0))]
    assert reports[0] == reports[1]


def _sampling_calls(name):
    """The battery problem, its known solution z (smooth for l1_toy, at a
    kink for sdp_degenerate) and every entry point that samples elements,
    as call(count, seed): the problem's samplers at z, and every piece's
    sampler at smooth points and at kinks alike."""
    problem, meta = load_battery(name)
    z = meta.known_solution
    w = problem.F.eval(z.x) + z.mu
    assert all(p.smooth_at(wb) for p, wb in zip(problem.pieces, problem.blocks(w))) == (
        name == "l1_toy")
    calls = [lambda c, s: sample_elements_R(problem, z, c, s),
             lambda c, s: critical_subspace_from_samples(problem, z, count=c, seed=s),
             lambda c, s: nonsingularity_sweep(problem, z, AnalyzerOptions(count=c, seed=s))]
    if name == "l1_toy":
        # its kink (0, 1), not a KKT point, where numpy used to object
        calls.append(lambda c, s: sample_elements_R(problem, np.array([0.0, 1.0]), c, s))
    for other in BATTERY_NAMES:
        prob, m = load_battery(other)
        wo = prob.F.eval(m.known_solution.x) + m.known_solution.mu
        calls += [lambda c, s, p=p, wb=wb: sample_clarke(p, wb, c, s)
                  for p, wb in zip(prob.pieces, prob.blocks(wo))]
    calls.append(lambda c, s: sample_clarke(L1Norm(2), [1.0, 0.3], c, s))
    return problem, z, calls


@pytest.mark.parametrize("name", ["l1_toy", "sdp_degenerate"])  # smooth, kink
@pytest.mark.parametrize("seed", [-1, -2, 1.0, True])
def test_seeded_entry_points_reject_a_bad_seed(name, seed):
    problem, z, sampling = _sampling_calls(name)
    calls = [lambda s: AnalyzerOptions(seed=s), lambda s: run_suite("prox", seed=s)]
    calls += [lambda s, f=f: f(8, s) for f in sampling]
    for call in calls:
        with pytest.raises(ValueError, match=f"seed must be an integer of at least 0, got {seed!r}"):
            call(seed)


@pytest.mark.parametrize("name", ["l1_toy", "sdp_degenerate"])  # smooth, kink
@pytest.mark.parametrize("count", [0, 2.5, True])
def test_sampling_entry_points_reject_a_bad_count(name, count):
    for call in _sampling_calls(name)[2]:
        with pytest.raises(ValueError,
                           match=re.escape(f"count must be an integer of at least 1, got {count!r}")):
            call(count, 0)


# ----------------------------------------------------------------------
# The polyhedral cone test: one rank test and one certified linear program


def lp_nonzero_points_coordinatewise(N, codes, tol):
    """The exact search with up to 2p linear programs, one per coordinate
    and sign, kept as the reference for the rank test plus one LP.  Row i
    of N lies in the interval of its class code codes[i]."""
    from scipy.optimize import linprog

    p = N.shape[1]
    if p == 0:
        return []
    lower, upper = _LOWER[codes], _UPPER[codes]
    eq_rows, ub_rows = [], []
    for i in range(N.shape[0]):
        lo, hi = lower[i], upper[i]
        if lo == 0.0 and hi == 0.0:
            eq_rows.append(N[i])
        elif lo == 0.0 and np.isinf(hi):
            ub_rows.append(-N[i])
        elif np.isinf(lo) and hi == 0.0:
            ub_rows.append(N[i])
    A_eq = np.array(eq_rows) if eq_rows else None
    b_eq = np.zeros(len(eq_rows)) if eq_rows else None
    A_ub = np.array(ub_rows) if ub_rows else None
    b_ub = np.zeros(len(ub_rows)) if ub_rows else None
    for j in range(p):
        for sgn in (1.0, -1.0):
            c = np.zeros(p)
            c[j] = -sgn
            res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                          bounds=[(-1.0, 1.0)] * p, method="highs")
            if res.status == 0 and -res.fun > max(tol, 1e-9):
                v = N @ res.x
                if np.linalg.norm(v - np.clip(v, lower, upper)) <= tol * (1.0 + np.linalg.norm(v)):
                    return [v]
    return []


# the class code of a coordinate: pinned, nonnegative, nonpositive, free
_ROW_KINDS = np.array([PINNED, UP, DOWN, FREE])


def _cone_case(rng, m, p, kinds):
    N = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :p]
    return N, _ROW_KINDS[np.asarray(kinds, dtype=int)]


def _interval_project(codes):
    """The projection onto the interval cone of the codes, as an analysis
    point with one identity-frame block makes it."""
    st = BlockStructure(None, codes, codes, np.zeros(codes.size))
    return functools.partial(cone_point([st]).project, "domain_normal_cone")


def _coefficient_rows(N, codes):
    """(E, G): the rows of N that the codes' intervals pin to 0, and the
    signed rows they bound on one side, so that N t is in the cone iff
    E t = 0 and G t <= 0."""
    lo, hi = _LOWER[codes], _UPPER[codes]
    sign = np.where(np.isinf(lo) & (hi == 0.0), 1.0,
                    np.where((lo == 0.0) & np.isinf(hi), -1.0, 0.0))
    return N[(lo == 0.0) & (hi == 0.0)], sign[sign != 0.0, None] * N[sign != 0.0]


def _cone_cases():
    """Seeded random interval cones in random orthonormal N, plus the
    corner cases: p = 0, only pinned rows, only one-sided rows, free rows,
    a rank-deficient [E; G] and the whole space."""
    rng = np.random.default_rng(2024)
    cases = [_cone_case(rng, 5, 0, [0, 1, 2, 3, 1]),        # p = 0
             _cone_case(rng, 6, 3, [0, 0, 0, 3, 3, 3]),     # only E, full rank
             _cone_case(rng, 6, 3, [0, 0, 3, 3, 3, 3]),     # only E, rank 2
             _cone_case(rng, 6, 3, [1, 2, 1, 2, 1, 1]),     # only G
             _cone_case(rng, 6, 2, [1, 1, 1, 1, 1, 1]),     # only G, one sign
             _cone_case(rng, 6, 4, [1, 2, 0, 3, 3, 3]),     # rank-deficient M
             _cone_case(rng, 5, 3, [3, 3, 3, 3, 3]),        # the whole space
             _cone_case(rng, 4, 4, [1, 1, 1, 1])]           # span(N) is everything
    for _ in range(150):
        m = int(rng.integers(1, 12))
        p = int(rng.integers(0, m + 1))
        weights = rng.dirichlet(np.ones(4))
        cases.append(_cone_case(rng, m, p, rng.choice(4, size=m, p=weights)))
    return cases


def _assert_certified(N, codes, search, tol=1e-8, exact_duals=True):
    """A 'holds' carries lam >= 1 and nu with G^T lam + E^T nu below half
    the smallest singular value of [E; G], which proves the coefficient
    cone is {0} (and, from the solver's own duals, near 0); a 'fails'
    carries a nonzero point of span(N) in the cone."""
    if search.status == "holds":
        assert search.points == []
        if N.shape[1] == 0:
            return
        lam, nu = search.certificate
        E, G = _coefficient_rows(N, codes)
        assert lam.shape == (G.shape[0],) and nu.shape == (E.shape[0],)
        assert np.all(lam >= 1.0)
        r = np.linalg.norm(G.T @ lam + E.T @ nu)
        if exact_duals:
            assert r <= 1e-9 * (1.0 + np.linalg.norm(lam) + np.linalg.norm(nu))
        assert r < 0.5 * np.linalg.svd(np.vstack([E, G]), compute_uv=False)[-1]
    elif search.status == "fails":
        (v,) = search.points
        assert search.certificate is None
        assert np.linalg.norm(v) > 0.5
        assert np.linalg.norm(v - N @ (N.T @ v)) <= 1e-9 * np.linalg.norm(v)
        lo, hi = _LOWER[codes], _UPPER[codes]
        assert np.linalg.norm(v - np.clip(v, lo, hi)) <= tol * (1.0 + np.linalg.norm(v))
    else:
        raise AssertionError(f"uncertified search: {search}")


def _battery_and_kink_points():
    """The analysis points of the five battery instances and of every
    KINK_CASES point, at the default options."""
    points = [AnalysisPoint(problem, meta.known_solution) for problem, meta in
              map(load_battery, ("nlp_toy", "sdp_toy", "sdp_degenerate", "l1_toy",
                                 "smooth_toy"))]
    return points + [AnalysisPoint(*_kink_instance(piece, a, c, mu))
                     for piece, a, cases in KINK_CASES for c, mu in cases]


def _battery_cone_cases():
    """(N, codes) of the interval cones of the battery points and of every
    KINK_CASES point: null(J^T) and each row's class code, from the
    two-svd oracle."""
    cones = [_two_svd_cone(point, name) for point in _battery_and_kink_points()
             if point.polyhedral for name in ("critical_polar_cone", "domain_normal_cone")]
    return [(cone.N, cone.codes) for cone in cones]


class TwoSvdCone(NamedTuple):
    """A cone's kernels as two svds give them: N = null(J^T) at the point's
    tol, W its rows in every block's frame, each row's class code and block
    index, and T = null(W_P) for the PINNED rows P at the same tol.  W T
    spans the part of null(J^T) in frame coordinates that is 0 on P, the
    span that ``AnalysisPoint.cone_kernel`` reads from one svd of J_f[~P]."""

    N: np.ndarray
    W: np.ndarray
    codes: np.ndarray
    groups: np.ndarray
    T: np.ndarray


def _two_svd_cone(point, name):
    """The TwoSvdCone of the named cone at an analysis point."""
    from kktstab.stability import _CONE_CODES

    tol = point.opts.tol
    N = nullspace(point.J.T, tol)
    W = np.vstack([st.coords(Nb.T) for st, Nb in zip(point.structures,
                                                    point.problem.blocks(N.T))])
    codes = np.concatenate([_CONE_CODES[name](st) for st in point.structures])
    groups = np.repeat(np.arange(len(point.structures)),
                       [st.critical.size for st in point.structures])
    return TwoSvdCone(N, W, codes, groups, nullspace(W[codes == PINNED], tol))


def test_one_lp_cone_test_agrees_with_the_coordinate_lps_and_is_certified(monkeypatch):
    import kktstab.stability as st

    calls = []
    real = st.linprog
    monkeypatch.setattr(st, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k))
    cases = _battery_cone_cases() + _cone_cases()
    seen = set()
    for N, codes in cases:
        before = len(calls)
        search = st._lp_nonzero_points(N, codes, _interval_project(codes), 1e-8)
        assert len(calls) - before <= 1
        want = "fails" if lp_nonzero_points_coordinatewise(N, codes, 1e-8) else "holds"
        assert search.status == want, (N.shape, codes)
        _assert_certified(N, codes, search)
        seen.add((search.status, len(calls) > before))
    # every outcome occurs: rank-test and LP verdicts of both kinds
    assert seen == {("holds", False), ("holds", True), ("fails", False), ("fails", True)}


def _lp_holds_cases():
    out = []
    for N, codes in _cone_cases():
        if N.shape[1]:
            E, G = _coefficient_rows(N, codes)
            if G.shape[0] and np.linalg.matrix_rank(np.vstack([E, G])) == N.shape[1] \
                    and not lp_nonzero_points_coordinatewise(N, codes, 1e-8):
                out.append((N, codes))
    return out


@pytest.mark.parametrize("corrupt", ["nan", "negative", "noise", "unsolved"])
def test_corrupted_duals_never_yield_holds(monkeypatch, corrupt):
    # NaN duals, lam <= -1, and a failed solve can never certify; noisy
    # duals yield 'holds' only where they still prove the cone trivial
    import kktstab.stability as st

    real = st.linprog
    rng = np.random.default_rng(11)

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        ub, eq = res.ineqlin.marginals, res.eqlin.marginals
        g = ub.size // 2
        if corrupt == "nan":
            ub, eq = np.full_like(ub, np.nan), np.full_like(eq, np.nan)
        elif corrupt == "negative":
            ub = np.concatenate([np.full(g, 2.0), ub[g:]])
        elif corrupt == "noise":
            ub = ub + 1e3 * rng.standard_normal(ub.shape)
            eq = eq + 1e3 * rng.standard_normal(eq.shape)
        else:
            res.status = 4
        res.ineqlin.marginals, res.eqlin.marginals = ub, eq
        return res

    cases = _lp_holds_cases()
    assert len(cases) >= 20
    for N, codes in cases:
        assert st._lp_nonzero_points(N, codes, _interval_project(codes), 1e-8).status == "holds"
    monkeypatch.setattr(st, "linprog", corrupted)
    kept = 0
    for N, codes in cases:
        search = st._lp_nonzero_points(N, codes, _interval_project(codes), 1e-8)
        if search.status == "holds":
            _assert_certified(N, codes, search, exact_duals=False)
            kept += 1
        else:
            assert search == ([], "heuristic-likely", None)
    assert kept <= (len(cases) // 10 if corrupt == "noise" else 0)


def test_an_uncertified_polyhedral_search_reads_heuristic_likely(monkeypatch):
    import kktstab.stability as st

    real = st.linprog

    def unsolved(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status = 4
        return res

    monkeypatch.setattr(st, "linprog", unsolved)
    # with the certificate refused, both cones of a three-coordinate orthant
    # kink reach the linear program: they pin no row, so a plane of
    # null(J^T) is left, too much for the ray test
    monkeypatch.setattr(st, "_gordan_certificate", lambda B, codes, groups: False)
    problem, pt = _kink_instance(OrthantIndicator(3, -1), [1.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3)
    point = AnalysisPoint(problem, pt)
    for name in ("critical_polar_cone", "domain_normal_cone"):
        assert _two_svd_cone(point, name).T.shape[1] == 2
        assert point.cone_kernel(name)[0].shape[1] == 2
    for check in (rcq_check, srcq_check):
        v = check(problem, point)
        assert (v.status, v.detail) == (
            "heuristic-likely", "no point found and no certificate verified (linear program)")
    assert multiplier_uniqueness(problem, point) == (True, None)


def _certificate(W, codes, groups):
    """``_gordan_certificate`` on W T, for T the kernel of W's PINNED rows."""
    from kktstab.stability import _gordan_certificate

    return _gordan_certificate(W @ nullspace(W[codes == PINNED]), codes, groups)


def test_gordan_certificate_never_certifies_an_interval_cone_with_a_point():
    seen = set()
    for N, codes in _battery_cone_cases() + _cone_cases():
        W, groups = N, np.zeros(codes.size, dtype=int)
        if N.shape[1] and _certificate(W, codes, groups):
            assert not lp_nonzero_points_coordinatewise(N, codes, 1e-8), codes
            # from the rank test of the pinned rows, or from Gordan's alternative
            seen.add(nullspace(W[codes == PINNED]).shape[1] == 0)
    assert seen == {True, False}
    # an analysis point reads its interval cones in the identity frame, W =
    # N, projects onto them by clipping each row to its code's interval, and
    # its decision, certificate first, agrees with the coordinate LPs
    rng = np.random.default_rng(4)
    for piece, a, points in KINK_CASES:
        for c, mu in points:
            point = AnalysisPoint(*_kink_instance(piece, a, c, mu))
            for name in ("critical_polar_cone", "domain_normal_cone"):
                N, W, codes, _, _ = _two_svd_cone(point, name)
                assert np.array_equal(W, N)
                v = rng.standard_normal(N.shape[0])
                assert np.array_equal(point.project(name, v),
                                      np.clip(v, _LOWER[codes], _UPPER[codes]))
                want = "fails" if lp_nonzero_points_coordinatewise(N, codes, 1e-8) else "holds"
                assert point.cone_search(name)[1] == want, (piece.kind, c, mu)


# ----------------------------------------------------------------------
# The exact certificate of non-polyhedral cones


def _random_frame_structures(rng):
    """1-3 blocks, each in a random orthonormal frame with an NSD block of
    order 1-3 after 0-3 PINNED, FREE, UP or DOWN coordinates; the cone
    under test is each structure's domain normal cone."""
    out = []
    for _ in range(rng.integers(1, 4)):
        extra = rng.choice([PINNED, FREE, UP, DOWN], size=rng.integers(0, 4))
        codes = np.concatenate([extra, np.full(svec_dim(rng.integers(1, 4)), BLOCK)])
        frame, _ = np.linalg.qr(rng.standard_normal((codes.size, codes.size)))
        out.append(BlockStructure(frame, codes, codes, np.zeros(codes.size)))
    return out


def _frame_cone(structures):
    """The projection onto the product of the structures' domain normal
    cones, and the map N -> (W, codes, groups) of the two-svd oracle
    ``_two_svd_cone``."""
    cuts = np.cumsum([st.normal.size for st in structures])

    def rows(N):
        W = np.vstack([st.coords(Nb.T) for st, Nb in zip(structures,
                                                        np.split(N.T, cuts[:-1], axis=-1))])
        groups = np.repeat(np.arange(len(structures)), [st.normal.size for st in structures])
        return W, np.concatenate([st.normal for st in structures]), groups

    return _projections(structures)[1], rows


def _frame_cone_point(structures, rng):
    """A nonzero point of the product cone: 0 on PINNED, a line, half line
    or -R R^T (R of one column) per coordinate class."""
    parts = []
    for st in structures:
        c = st.normal
        w = rng.standard_normal(c.size)
        w[c == PINNED] = 0.0
        w[c == UP] = np.abs(w[c == UP])
        w[c == DOWN] = -np.abs(w[c == DOWN])
        r = rng.standard_normal((svec_order(np.count_nonzero(c == BLOCK)), 1))
        w[c == BLOCK] = svec(-r @ r.T)
        parts.append(st.frame @ w)
    return np.concatenate(parts)


def test_gordan_certificate_never_certifies_a_planted_point_or_an_ap_witness():
    rng = np.random.default_rng(21)
    seen = set()
    for case in range(80):
        structures = _random_frame_structures(rng)
        project, rows = _frame_cone(structures)
        dim = sum(st.normal.size for st in structures)
        cols = rng.standard_normal((dim, int(rng.integers(1, max(2, dim)))))
        planted = case % 2 == 0
        if planted:
            p = cols[:, 0] = _frame_cone_point(structures, rng)
            assert np.linalg.norm(p - project(p)) <= 1e-12 * np.linalg.norm(p)
        N, _ = np.linalg.qr(cols)
        W, codes, groups = rows(N)
        certified = _certificate(W, codes, groups)
        # an analysis point whose null(J^T) is span(N) decides the same cone
        # from its own kernel
        status = cone_point(structures, N, AnalyzerOptions(srcq_budget=20)).cone_search(
            "domain_normal_cone")[1]
        if planted:
            assert not certified and status != "holds", case
        elif certified:
            assert status == "holds", case
            assert not _ap_nonzero_points(N @ N.T, project, 1000, 1e-8,
                                          np.random.default_rng(case)), case
        pinned_rank = nullspace(W[codes == PINNED]).shape[1] == 0
        seen.add((planted, certified, certified and pinned_rank))
    # planted points, and certificates from both the rank test and Gordan's
    # alternative, with uncertified random cases as well
    assert seen >= {(True, False, False), (False, True, True), (False, True, False),
                    (False, False, False)}


def _gordan_delta(y, sizes):
    g = y.size - int(np.sum(sizes))
    ends = g + np.cumsum(sizes)
    return min([y[:g].min()] + [np.linalg.eigvalsh(smat(y[a:b]))[0]
                                for a, b in zip(ends - sizes, ends)])


def test_gordan_certificate_keeps_its_factor_two_margin():
    # y = y_perp + t u, u in range(A): at t* the margin delta sigma_min
    # equals 2 |A^T y| exactly; just past t* the certificate is refused
    from kktstab.stability import _gordan_verifies

    rng = np.random.default_rng(8)
    sizes = np.array([3, 1])
    A = rng.standard_normal((2 + int(sizes.sum()), 2))
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    y0 = np.concatenate([np.ones(2), svec(np.eye(2)), [1.0]])
    y_perp = y0 - U @ (U.T @ y0)
    assert _gordan_delta(y_perp, sizes) > 0.0 and _gordan_verifies(A, sv[-1], y_perp, sizes)

    def ratio(t):
        y = y_perp + t * U[:, 0]
        return _gordan_delta(y, sizes) * sv[-1] / (2.0 * np.linalg.norm(A.T @ y))

    lo, hi = 1e-12, 1.0
    assert ratio(lo) > 1.0 > ratio(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ratio(mid) > 1.0 else (lo, mid)
    for t, want in ((lo * (1.0 - 1e-9), True), (hi * (1.0 + 1e-9), False)):
        y = y_perp + t * U[:, 0]
        assert (ratio(t) > 1.0) == want
        assert _gordan_verifies(A, sv[-1], y, sizes) is want


def test_one_psd_certificate_serves_srcq_and_uniqueness(monkeypatch):
    import kktstab.stability as st

    searches, certificates = [], []
    ap, gordan = st._ap_nonzero_points, st._gordan_certificate
    monkeypatch.setattr(st, "_ap_nonzero_points",
                        lambda *a, **k: searches.append(1) or ap(*a, **k))
    monkeypatch.setattr(st, "_gordan_certificate",
                        lambda *a: certificates.append(1) or gordan(*a))
    problem, meta = load_battery("sdp_toy")
    point = AnalysisPoint(problem, meta.known_solution)
    v = srcq_check(problem, point)
    assert (v.status, v.detail) == ("holds", "polar intersection is trivial (exact)")
    assert multiplier_uniqueness(problem, point) == (True, None)
    assert len(certificates) == 1
    rep = equivalence_report(problem, meta.known_solution, FAST)
    assert (rep.rcq.status, rep.srcq.status, rep.multiplier_unique) == ("holds", "holds", True)
    # one certificate per cone of the report, and no alternating projections
    assert len(certificates) == 3 and not searches


def test_ray_witness_finds_the_one_ray_of_a_single_line_intersection():
    # span(N) holds p and #PINNED generic columns, or #PINNED + 1 of them:
    # the kernel T of the PINNED rows is one line, p's when p is planted, and
    # then its ray is the cone's only nonzero point in span(N).  Gordan's
    # alternative cannot decide that; the exact test of both rays does, and
    # a generic line whose rays both leave the cone is an exact 'holds',
    # where alternating projections find nothing either
    from kktstab.stability import _ray_decision

    rng = np.random.default_rng(31)
    seen = set()
    for case in range(60):
        structures = _random_frame_structures(rng)
        project, rows = _frame_cone(structures)
        pinned = sum(int(np.count_nonzero(st.normal == PINNED)) for st in structures)
        cols = rng.standard_normal((sum(st.normal.size for st in structures), 1 + pinned))
        planted = case % 2 == 0
        if planted:
            p = _frame_cone_point(structures, rng)
            cols[:, 0] = p
        N, _ = np.linalg.qr(cols)
        W, codes, groups = rows(N)
        T = nullspace(W[codes == PINNED])
        assert T.shape[1] == 1, case
        found, status = _ray_decision(N @ T, project, 1e-8)
        assert cone_point(structures, N).cone_search("domain_normal_cone")[1] == status, case
        if planted:
            assert not _certificate(W, codes, groups), case
            assert status == "fails"
            (v,) = found
            assert abs(v @ p) == pytest.approx(np.linalg.norm(v) * np.linalg.norm(p))
        if status == "fails":
            (v,) = found
            assert np.linalg.norm(v - project(v)) <= 1e-8 * (1.0 + np.linalg.norm(v)), case
        else:
            assert found == []
            assert not _ap_nonzero_points(N @ N.T, project, 1000, 1e-8,
                                          np.random.default_rng(case)), case
        seen.add((planted, status))
    assert seen >= {(True, "fails"), (False, "holds")}


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded from its file read-only."""
    _planted_plants()  # puts perfbench/planted.py in sys.modules
    if "workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        sys.modules["workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["workloads"])
    return sys.modules["workloads"]


def _analyze_nlp_plants(seed):
    """The analyze-nlp benchmark instances of a seed, as (problem, meta)."""
    workloads = _benchmark_workloads()
    return workloads.load(workloads.generate(workloads.WORKLOADS["analyze-nlp"], seed))


def test_the_ray_decision_of_a_one_line_kernel_is_exact(monkeypatch):
    # on every interval cone whose PINNED rows leave one line of span(N),
    # the two rays decide as the coordinate LPs do, both ways
    import kktstab.stability as st

    seen = set()
    for N, codes in _battery_cone_cases() + _cone_cases():
        T = nullspace(N[codes == PINNED])
        if T.shape[1] != 1:
            continue
        _, status = st._ray_decision(N @ T, _interval_project(codes), 1e-8)
        want = "fails" if lp_nonzero_points_coordinatewise(N, codes, 1e-8) else "holds"
        assert status == want, codes
        seen.add(status)
    assert seen == {"fails", "holds"}
    # analyze-nlp seed 8 #13: the certificate's candidate has a negative
    # entry on its domain normal cone, a one-line kernel whose rays both
    # leave the cone; no linear program is needed to read it
    def no_lp(*args, **kwargs):
        raise AssertionError("linear program called")

    monkeypatch.setattr(st, "linprog", no_lp)
    problem, meta = _analyze_nlp_plants(8)[13]
    point = AnalysisPoint(problem, meta.known_solution)
    _, W, codes, groups, T = _two_svd_cone(point, "domain_normal_cone")
    assert T.shape[1] == 1 and point.cone_kernel("domain_normal_cone")[0].shape[1] == 1
    assert not _certificate(W, codes, groups)
    v = rcq_check(problem, point)
    assert (v.status, v.detail) == ("holds", "normal-cone intersection is trivial (exact)")


@pytest.mark.parametrize("index", [37, 45])
def test_rcq_fails_at_analyze_nlp_plants_moved_below_the_kink_tolerance(index):
    # two ND-fail plants whose domain normal cones held a point only while
    # an active coordinate sat within 1e-12 (1 + |x|) of its bound; the
    # activity threshold is the kink tolerance, so a move of 1e-11 or 1e-9
    # keeps the cone and rcq's "fails"
    problem, meta = _analyze_nlp_plants(8)[index]
    z = meta.known_solution.stacked()
    assert rcq_check(problem, z).status == "fails"
    rng = np.random.default_rng(index)
    for scale in (1e-11, 1e-9):
        d = rng.standard_normal(z.size)
        v = rcq_check(problem, z + scale * d / np.linalg.norm(d))
        assert v.status == "fails", (scale, v)


def _cone_verdicts(problem, z, opts):
    """rcq, srcq, nondegeneracy (status and detail), multiplier uniqueness,
    ssosc with its subspace dimension, and the critical subspace's
    dimension at z."""
    point = AnalysisPoint(problem, z, opts)
    unique, _ = multiplier_uniqueness(problem, point)
    nd = nondegeneracy_check(problem, point)
    ssosc = ssosc_check(problem, point) if unique else None
    return (rcq_check(problem, point).status, srcq_check(problem, point).status,
            (nd.status, nd.detail), unique, ssosc and ssosc.status,
            ssosc and ssosc.subspace_dim, critical_subspace(problem, point).dim)


def _embed(problem, bases):
    """The blockwise bases as one block-diagonal matrix with m rows."""
    out = np.zeros((problem.m, sum(b.shape[1] for b in bases)))
    col = 0
    for lo, b in zip(problem.offsets, bases):
        out[lo:lo + b.shape[0], col:col + b.shape[1]] = b
        col += b.shape[1]
    return out


def _joint_rank(point, B):
    """Numerical rank of [J, B] at the point's tol, relative to its largest
    singular value."""
    s = np.linalg.svd(np.hstack([point.J, B]), compute_uv=False)
    return int(np.sum(s > point.opts.tol * max(1.0, s[0] if s.size else 0.0)))


def test_the_models_kernels_agree_with_the_per_block_routes():
    # the critical subspace, ssosc, nondegeneracy and srcq's span test read
    # the two kernels of AnalysisPoint.model; each must agree with the
    # route it replaced: the preimage of the embedded affine hulls, the
    # per-block curvature forms of reduced_quadratic_form, and the svd rank
    # of J beside the embedded lineality or affine-hull bases
    workloads = _benchmark_workloads()
    cases = [(name, *load_battery(name), None)
             for name in ("nlp_toy", "l1_toy", "smooth_toy", "sdp_toy", "sdp_degenerate")]
    for name in ("analyze-nlp", "analyze-sdp"):
        w = workloads.WORKLOADS[name]
        opts = workloads.analyzer_options(w, 7)
        cases += [(problem.name, problem, meta, opts)
                  for problem, meta in workloads.load(workloads.generate(w, 7))]
    assert len(cases) == 77
    seen = set()
    for name, problem, meta, opts in cases:
        point = AnalysisPoint(problem, meta.known_solution, opts)
        cs = critical_subspace(problem, point)
        affine = _embed(problem, [st.affine_hull_basis for st in point.structures])
        preimage = nullspace(point.J - affine @ (affine.T @ point.J))
        assert cs.dim == preimage.shape[1], name
        assert mutual_span_residual(cs.basis, preimage) <= 1e-10, name
        lineality = _embed(problem, [st.lineality_basis for st in point.structures])
        rank = _joint_rank(point, lineality)
        assert nondegeneracy_check(problem, point).detail == f"rank {rank} of {problem.m}", name
        seen.add(("nondegeneracy", rank == problem.m))
        if not point.polyhedral:
            rank = _joint_rank(point, affine)
            span_failed = srcq_check(problem, point).detail.startswith("span test")
            assert span_failed == (rank < problem.m), name
            seen.add(("span test", span_failed))
        unique, _ = multiplier_uniqueness(problem, point)
        if unique and cs.dim:
            Q = reduced_quadratic_form(problem, point, cs.basis)
            got = ssosc_check(problem, point)
            assert got.subspace_dim == cs.dim, name
            scale = max(1.0, float(np.abs(Q).max()))
            assert abs(got.min_eigenvalue - np.linalg.eigvalsh(Q)[0]) <= 1e-12 * scale, name
            seen.add(("ssosc", got.status))
    assert seen >= {("nondegeneracy", True), ("nondegeneracy", False), ("span test", False),
                    ("ssosc", "holds"), ("ssosc", "fails")}


@pytest.mark.parametrize("seed", [7, 8])
def test_cone_verdicts_of_analyze_sdp_plants_survive_sub_tolerance_moves(monkeypatch, seed):
    # every plant, among them those with a |beta| = 1 block whose pinned
    # rows, or J itself, have a zero singular value (#7, #11, #15 and #23):
    # a move of 1e-9 lifts it to about 1e-10, so rank decisions must be made
    # at the analysis tol, not below it.  Leg c, from the B-derivative probe
    # with no Newton solve allowed, keeps its verdict too, also at the
    # |beta| = 2 plants whose leg c used to flip under such moves (seed 7
    # #2, #10 and #17; seed 8 #12 and #17)
    _no_newton(monkeypatch)
    plants, opts = _analyze_sdp(seed)
    for k, (problem, meta, _) in enumerate(plants):
        z = meta.known_solution.stacked()
        want = None
        for scale in (0.0, 1e-11, 1e-9):
            for r in range(1 if scale == 0.0 else 2):
                u = np.random.default_rng([seed, k, r]).standard_normal(z.size)
                moved = z + scale * u / np.linalg.norm(u)
                probe = strong_regularity_probe(problem, moved, opts)
                assert probe.failures == 0, (k, scale, r)
                got = _cone_verdicts(problem, moved, opts) + (_leg_c(probe),)
                want = want or got
                assert got == want, (k, scale, r)


def _analyze_sdp(seed):
    """The analyze-sdp benchmark plants of a seed, as (problem, meta, plant),
    and the benchmark's analyzer options."""
    workloads = _benchmark_workloads()
    w = workloads.WORKLOADS["analyze-sdp"]
    instances = workloads.generate(w, seed)
    return ([(problem, meta, inst.plant)
             for (problem, meta), inst in zip(workloads.load(instances), instances)],
            workloads.analyzer_options(w, seed))


def _psd_segment(problem, pt, ts):
    """The dense elements [[H, J^T], [(I-U) J, -U]] of an epi-lifted PSD
    pencil along U_beta-beta = t I, one per t, built from the eigenvalues
    and eigenvectors of the block alone: U D = P (Sigma o (P^T D P)) P^T
    with Sigma 1 on alpha-alpha and alpha-beta, lam_i / (lam_i - lam_j) on
    alpha-gamma, t on beta-beta and 0 elsewhere, and 1 on the lift."""
    w = problem.F.eval(pt.x) + pt.mu
    lam, P, _ = eig_split(w[1:])
    pos, neg = np.maximum(lam, 0.0), np.maximum(-lam, 0.0)
    ends = []
    for t in (0.0, 1.0):
        den = np.abs(lam)[:, None] + np.abs(lam)[None, :]
        Sigma = np.where(den > 0.0, (pos[:, None] + pos[None, :]) / np.where(den > 0.0, den, 1.0),
                         t)
        Sigma[(neg[:, None] > 0.0) & (neg[None, :] > 0.0)] = 0.0
        d = lam.size * (lam.size + 1) // 2
        U = np.eye(d + 1)
        U[1:, 1:] = np.array([svec(P @ (Sigma * (P.T @ smat(e) @ P)) @ P.T)
                              for e in np.eye(d)]).T
        ends.append(U)
    U = ends[0] + ts[:, None, None] * (ends[1] - ends[0])  # affine in t
    return assemble_element(problem, pt, [LinearOperatorElement(U)]).matrix


def test_leg_b_is_the_segment_oracle_at_analyze_sdp_plants():
    # every analyze-sdp plant of seeds 7 and 8 (|beta| 1 or 2) with the
    # benchmark's options: leg b reads singular iff an extreme element
    # (V = 0 or V = I) is, or the determinant changes sign along V = t I,
    # read by slogdet on 801 values of t in [0, 1]; the sign changes are the
    # second-order failures that sampled elements used to miss
    ts = np.linspace(0.0, 1.0, 801)
    seen = set()
    for seed in (7, 8):
        plants, opts = _analyze_sdp(seed)
        for k, (problem, meta, plant) in enumerate(plants):
            E = _psd_segment(problem, meta.known_solution, ts)
            extreme = (np.linalg.svd(E[[0, -1]], compute_uv=False)[:, -1] <= SWEEP_TOL).any()
            change = np.unique(np.linalg.slogdet(E)[0]).size > 1
            sweep = nonsingularity_sweep(problem, meta.known_solution, opts)
            assert (sweep.verdict == "singular-element-found") == (extreme or change), (seed, k)
            case = "singular extreme" if extreme else "sign change" if change else "nonsingular"
            seen.add((plant.structure["beta"], case))
            if case == "sign change":
                assert not plant.second_order, (seed, k)
    assert seen == {(b, case) for b in (1, 2)
                    for case in ("singular extreme", "sign change", "nonsingular")}


@pytest.mark.parametrize("seed", [7, 8])
def test_legs_b_and_c_read_the_planted_labels_of_the_analyze_sdp_plants(monkeypatch, seed):
    # the analyze-sdp plants with the benchmark's options: leg b finds no
    # singular element at a strongly regular plant and one at every
    # nondegeneracy failure; at every plant, |beta| = 1 (one half-line kink,
    # 2 pieces) and |beta| = 2 (one PSD factor, no half-line kink), the
    # probe solves the B-derivative with no Newton solve allowed, leg c
    # equals leg b, and it holds at every strongly regular plant
    _no_newton(monkeypatch)
    plants, opts = _analyze_sdp(seed)
    tally = {"SR": 0, "ND-fail": 0, "|beta| = 1": 0, "|beta| = 2": 0, "leg c": 0}
    for k, (problem, meta, plant) in enumerate(plants):
        point = AnalysisPoint(problem, meta.known_solution, opts)
        leg_b = nonsingularity_sweep(problem, point).verdict == "all-elements-nonsingular"
        if plant.strongly_regular:
            assert leg_b, k
            tally["SR"] += 1
        if not plant.nondegenerate:
            assert not leg_b, k
            tally["ND-fail"] += 1
        beta = plant.structure["beta"]
        probe = strong_regularity_probe(problem, point)
        assert (probe.pieces, probe.failures) == (2 if beta == 1 else 1, 0), k
        assert _leg_c(probe) == leg_b, k
        tally[f"|beta| = {beta}"] += 1
        tally["leg c"] += _leg_c(probe)
    # leg c holds at the 12 strongly regular plants and the strongly regular
    # saddles (second-order failures with leg b true): 5 at seed 7, 3 at 8
    assert tally == {"SR": 12, "ND-fail": 6, "|beta| = 1": 16, "|beta| = 2": 8,
                     "leg c": 17 if seed == 7 else 15}


@pytest.mark.parametrize("rng_seed, na, nb", [(5, 14, 2), (6, 13, 3)])
@pytest.mark.parametrize("nondegenerate", [True, False])
def test_leg_c_equals_leg_b_on_order_30_pencils(monkeypatch, rng_seed, na, nb, nondegenerate):
    # planted PSD pencils of order 30 (N = 603) with |beta| = 2 and 3, the
    # strongly regular plant and its nondegeneracy failure, at the
    # benchmark's options: no Newton solve, leg c equal to leg b and to the
    # planted label
    _no_newton(monkeypatch)
    workloads = _benchmark_workloads()
    data, plant = workloads.planted.psd_pencil(np.random.default_rng(rng_seed), 30, na, nb,
                                               nondegenerate, True)
    problem, meta = instance_from_dict(data)
    opts = workloads.analyzer_options(workloads.WORKLOADS["analyze-sdp"], 7)
    point = AnalysisPoint(problem, meta.known_solution, opts)
    leg_b = nonsingularity_sweep(problem, point).verdict == "all-elements-nonsingular"
    probe = strong_regularity_probe(problem, point)
    assert probe.failures == 0
    assert _leg_c(probe) == leg_b == plant.strongly_regular == nondegenerate


@functools.cache
def _north_star_plants():
    """(problem, meta, plant, opts) of the planted order-30 PSD pencils
    with |beta| = 1, 2 and 3, each strongly regular and failing
    nondegeneracy, and of both 100-block polyhedral plants, under the
    benchmark's analyzer options of seed 7."""
    workloads = _benchmark_workloads()
    plants = [(workloads.planted.psd_pencil(np.random.default_rng(rng_seed), 30, na, nb, nd,
                                            True), "analyze-sdp")
              for rng_seed, na, nb in ((5, 14, 1), (5, 14, 2), (6, 13, 3))
              for nd in (True, False)]
    plants += [(workloads.planted.polyhedral(np.random.default_rng(seed), 250, 100, nd, True),
                "analyze-nlp") for seed, nd in ((100, True), (101, False))]
    return [(*instance_from_dict(data), plant,
             workloads.analyzer_options(workloads.WORKLOADS[name], 7))
            for (data, plant), name in plants]


def _two_svd_decision(point, name):
    """The named cone's status as the analyzer decided it from the two-svd
    oracle ``_two_svd_cone``, in the order of ``AnalysisPoint.cone_search``:
    an empty N, the certificate on W T, the rays of a one-column T, then
    the linear program or the alternating projections on span(N)."""
    import kktstab.stability as st

    N, W, codes, groups, T = _two_svd_cone(point, name)
    opts = point.opts
    if not N.shape[1] or st._gordan_certificate(W @ T, codes, groups):
        return "holds"
    project = functools.partial(point.project, name)
    if T.shape[1] == 1:
        return st._ray_decision(N @ T, project, opts.tol)[1]
    if point.polyhedral:
        return st._lp_nonzero_points(N, codes, project, opts.tol).status
    found = st._ap_nonzero_points(N @ N.T, project, opts.srcq_budget, opts.tol,
                                  np.random.default_rng(opts.seed))
    return "fails" if found else "heuristic-likely"


def test_each_cone_kernel_spans_the_two_svd_oracles_kernel():
    # B = null(J_f[~P]^T), one svd, against W T from the svd of J^T and the
    # kernel T of the PINNED frame rows W_P: the same dimension, the same
    # span, and the same decision of the cone, on both cones of the battery
    # and kink points, the 72 seed-7 analyze plants and the north-star plants
    workloads = _benchmark_workloads()
    points = _battery_and_kink_points()
    for name in ("analyze-nlp", "analyze-sdp"):
        w = workloads.WORKLOADS[name]
        opts = workloads.analyzer_options(w, 7)
        points += [AnalysisPoint(problem, meta.known_solution, opts)
                   for problem, meta in workloads.load(workloads.generate(w, 7))]
    points += [AnalysisPoint(problem, meta.known_solution, opts)
               for problem, meta, _, opts in _north_star_plants()]
    # a three-coordinate orthant kink, whose cones pin no row: a plane of
    # null(J^T), decided by the linear program
    points.append(AnalysisPoint(*_kink_instance(OrthantIndicator(3, -1), [1.0, 1.0, 1.0],
                                                [0.0] * 3, [0.0] * 3)))
    assert len(points) == 5 + 13 + 72 + 8 + 1
    seen = set()
    for point in points:
        for name in ("critical_polar_cone", "domain_normal_cone"):
            cone = _two_svd_cone(point, name)
            B, codes, groups = point.cone_kernel(name)
            assert np.array_equal(codes, cone.codes) and np.array_equal(groups, cone.groups)
            assert B.shape == (point.problem.m, cone.T.shape[1]), point.problem.name
            assert not B[codes == PINNED].any()
            assert np.abs(B.T @ B - np.eye(B.shape[1])).max(initial=0.0) <= 1e-12
            assert mutual_span_residual(B, cone.W @ cone.T) <= 1e-8, point.problem.name
            status = point.cone_search(name)[1]
            assert status == _two_svd_decision(point, name), (point.problem.name, name)
            seen.add((point.polyhedral, min(B.shape[1], 2), status))
    # empty, one-line and wider kernels, decided every way at both kinds of point
    assert seen == {(True, 0, "holds"), (True, 1, "holds"), (True, 1, "fails"), (True, 2, "holds"),
                    (False, 0, "holds"), (False, 1, "holds"), (False, 1, "fails"),
                    (False, 2, "holds"), (False, 2, "fails")}


def test_the_north_star_reports_run_no_svd_of_j_transpose(monkeypatch):
    # every np.linalg.svd operand of the reports of the order-30 pencils and
    # of the 100-block plants: none has m rows or m columns, as J^T (n x m)
    # did, and both cones of a PSD plant pin the same rows, so its report
    # runs one cone-kernel svd, of J_f[~P]^T (n x |~P|); leg b keeps the
    # planted label
    from kktstab.stability import _CONE_CODES

    shapes = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: shapes.append(np.shape(a)) or real(a, *args, **kw))
    for problem, meta, plant, opts in _north_star_plants():
        shapes.clear()
        point = AnalysisPoint(problem, meta.known_solution, opts)
        rep = equivalence_report(problem, point)
        assert rep.consistency["leg_b_elements_nonsingular"] == plant.strongly_regular
        assert shapes and all(problem.m not in shape for shape in shapes), (problem.name, shapes)
        widths = {int(np.sum(np.concatenate([_CONE_CODES[name](st) for st in point.structures])
                             != PINNED)) for name in ("critical_polar_cone", "domain_normal_cone")}
        if not point.polyhedral:
            assert len(widths) == 1 and shapes.count((problem.n, *widths)) == 1, shapes


@pytest.mark.parametrize("seed", [7, 8])
def test_cone_verdicts_of_analyze_nlp_plants_survive_sub_tolerance_moves(seed):
    # every analyze-nlp plant: the cone kernels are read at the analysis tol
    # from J_f on the rows a cone does not pin, whose scale is J's, so a
    # move of 1e-11 or 1e-9 changes no rcq, srcq or uniqueness verdict, nor
    # nondegeneracy, ssosc or the critical subspace
    workloads = _benchmark_workloads()
    opts = workloads.analyzer_options(workloads.WORKLOADS["analyze-nlp"], seed)
    for k, (problem, meta) in enumerate(_analyze_nlp_plants(seed)):
        z = meta.known_solution.stacked()
        want = _cone_verdicts(problem, z, opts)
        for scale in (1e-11, 1e-9):
            for r in range(2):
                u = np.random.default_rng([seed, k, r]).standard_normal(z.size)
                got = _cone_verdicts(problem, z + scale * u / np.linalg.norm(u), opts)
                assert got == want, (k, scale, r)


def test_b_derivative_solutions_are_the_newton_solutions_to_first_order(monkeypatch):
    # sdp_toy (|beta| = 0), the strongly regular |beta| = 1 and |beta| = 2
    # analyze-sdp plants of seed 7 and a mixed problem: each delta's
    # solution of the B-derivative's equation lies within 50 radius^2 of
    # the solution of the linearized inclusion that solve_linearized_ge
    # finds by semismooth Newton from the point, at radii 1e-3 and 1e-4
    # (the largest gap is about 15 radius^2); a wrong frame or delta2 term
    # would leave a gap of order radius
    import kktstab.stability as st

    solved = []
    real = st._probe_stats
    monkeypatch.setattr(st, "_probe_stats",
                        lambda opts, solutions, *rest: solved.append(solutions)
                        or real(opts, solutions, *rest))
    plants = [load_battery("sdp_toy") + (None,)] + [
        p for p in _analyze_sdp(7)[0] if p[2].strongly_regular]
    # and the pair battery without its |beta| = 2 pair: PSD blocks of orders
    # 2 and 3, unlifted, next to orthant, box and l1 blocks
    problem, z = _pair_battery_problem(lambda name: name != "psd2_origin")
    plants.append((problem, SimpleNamespace(known_solution=z), None))
    assert len(plants) == 14
    compared = 0
    for radius in (1e-3, 1e-4):
        opts = AnalyzerOptions(num_delta=4, radius=radius, seed=3)
        for problem, meta, _ in plants:
            exact = strong_regularity_probe(problem, meta.known_solution, opts)
            assert _leg_c(exact)
            for delta, z1 in solved[-1]:
                try:
                    z2 = solve_linearized_ge(problem, meta.known_solution, delta).stacked()
                except NewtonError:
                    continue
                assert np.abs(z1 - z2).max() <= 50.0 * radius ** 2, (problem.name, radius)
                compared += 1
    assert compared >= 130


def _in_product_cone(v, cones, tol):
    """Whether v lies within tol of R_+ on the coordinates outside the PSD
    factors ``cones`` and of S+ on each, read from eigenvalues."""
    half = np.ones(v.size, dtype=bool)
    for idx, _ in cones:
        half[idx] = False
    return bool((v[half] >= -tol).all()
                and all(np.linalg.eigvalsh(smat(v[idx]))[0] >= -tol for idx, _ in cones))


def test_conic_solutions_at_the_strongly_regular_beta2_plants(monkeypatch):
    # each delta of the strongly regular |beta| = 2 analyze-sdp plants of
    # seed 7, at the benchmark's options and at the CLI defaults: y and
    # w = q + M y lie in the cone and <y, w> <= 1e-12, read from
    # eigenvalues, and the B-derivative residual of every solution is within
    # the probe's bound; the BLOCK kinks of the block, in order, are the
    # beta-beta coordinates of its frame in the svec layout of |beta|
    import kktstab.stability as st

    solves, residuals = [], []
    real_solve, real_residual = st._conic_complementarity, st._b_derivative_residual
    monkeypatch.setattr(st, "_conic_complementarity", lambda M, Q, cones: solves.append(
        (M, Q, cones, real_solve(M, Q, cones))) or solves[-1][-1])
    monkeypatch.setattr(st, "_b_derivative_residual", lambda *args: residuals.append(
        real_residual(*args)) or residuals[-1])
    _no_newton(monkeypatch)
    plants, bench = _analyze_sdp(7)
    plants = [p for p in plants if p[2].structure["beta"] == 2 and p[2].strongly_regular]
    assert len(plants) == 4
    rows = 0
    for problem, meta, _ in plants:
        for opts in (bench, AnalyzerOptions(seed=7)):
            point = AnalysisPoint(problem, meta.known_solution, opts)
            codes = point.model.codes
            kinks = np.flatnonzero((codes != PINNED) & (codes != FREE))
            assert (codes[kinks] == BLOCK).all() and kinks.size == 3
            lam = eig_split((point.wbar)[1:])[0]  # the lifted block's eigenvalues
            lay, beta = svec_layout(lam.size), np.flatnonzero(lam == 0.0)
            sub = svec_layout(beta.size)
            assert np.array_equal(lay.rows[kinks - 1] - beta[0], sub.rows)
            assert np.array_equal(lay.cols[kinks - 1] - beta[0], sub.cols)
            probe = strong_regularity_probe(problem, point)
            assert (probe.violations, probe.failures) == (0, 0)
            M, Q, cones, Y = solves[-1]
            assert [(idx.tolist(), cone.order) for idx, cone in cones] == [([0, 1, 2], 2)]
            for q, y in zip(Q, Y):
                w = q + M @ y
                assert _in_product_cone(y, cones, 1e-12) and _in_product_cone(w, cones, 1e-12)
                assert abs(y @ w) <= 1e-12
                rows += 1
            side_tol = 1e-8 * max(1.0, np.abs(point.wbar).max())
            deltas = _probe_deltas(problem.n + problem.m, opts)[0]
            bound = 2.0 * (opts.tol + side_tol) * np.maximum(1.0, np.abs(deltas).max(axis=1))
            assert (np.abs(residuals[-1]).max(axis=1) <= bound).all()
    assert rows == 4 * (5 + 51)


def test_conic_complementarity_solves_random_positive_definite_problems():
    # orthant coordinates next to one or two PSD factors of orders 2-4, with
    # a positive definite M of condition number up to 1e3: every row's
    # solution lies in the cone with w = q + M y, complementary to 1e-10,
    # scales with q, and q = 0 has y = 0
    import kktstab.stability as st

    rng = np.random.default_rng(11)
    for case in range(40):
        k1, orders = int(rng.integers(0, 4)), rng.integers(2, 5, size=rng.integers(1, 3))
        dims = [svec_dim(int(o)) for o in orders]
        K = k1 + sum(dims)
        Qo = np.linalg.qr(rng.standard_normal((K, K)))[0]
        M = (Qo * np.exp(rng.uniform(0.0, np.log(1e3), K))) @ Qo.T
        M = 0.5 * (M + M.T)
        starts = k1 + np.cumsum([0] + dims[:-1])
        cones = [(np.arange(a, a + d), PSDConeIndicator(int(o)))
                 for a, d, o in zip(starts, dims, orders)]
        Q = rng.standard_normal((6, K))
        Q[0] = 0.0
        Y = st._conic_complementarity(M, Q, cones)
        assert np.isfinite(Y).all(), case
        assert not Y[0].any()
        for q, y in zip(Q, Y):
            w = q + M @ y
            scale = 1e-10 * (1.0 + np.linalg.norm(y)) * (1.0 + np.linalg.norm(w))
            assert _in_product_cone(y, cones, scale) and _in_product_cone(w, cones, scale), case
            assert abs(y @ w) <= scale, case
        Y3 = st._conic_complementarity(M, 3.0 * Q, cones)
        assert np.allclose(Y3, 3.0 * Y, rtol=1e-9, atol=1e-12), case


def _projection_and_dense_v_newton_matrix(z, A, eye, half, cones):
    """Pi_C and I - V A through the dense (rows, K, K) stack of the Clarke
    elements V: the reference of ``_projection_and_newton_matrix``."""
    K = A.shape[0]
    p = np.maximum(z, 0.0)
    V = np.zeros(z.shape + (K,))
    V[:, half, half] = z[:, half] > 0.0
    for idx, cone in cones:
        p[:, idx], frame = cone.prox_and_frame(z[:, idx])
        V[:, idx[:, None], idx] = frame.matrix()
    return p, eye - V @ A


def test_the_conic_newton_matrices_have_the_bits_of_the_dense_clarke_stack():
    # random stacks of points over the orthant alone (K = 0 to 60), and
    # over PSD factors of orders 2-4 beside 0-40 orthant coordinates, each
    # factor's first row built with |beta| = 2 (two zero eigenvalues), A =
    # I - gamma M as the solver takes it.  The projections and the orthant
    # rows have the bits of the dense V stack's at every K: such a row of
    # V A has one nonzero term.  A factor's rows sum the same products, but
    # BLAS may sum them in another order once the (K, K) product takes an
    # edge kernel (OpenBLAS: from K = 9 with its Haswell kernels, K = 17
    # with its SkylakeX ones), so they have its bits up to K = 8, which
    # covers the probe's K = 3 at a |beta| = 2 block, and agree to rounding
    # past it
    import kktstab.stability as st

    rng = np.random.default_rng(23)
    for case in range(100):  # case 0 has K = 0
        if case < 20:
            k1, orders = (case and int(rng.integers(0, 61))), []
        else:
            k1 = int(rng.integers(0, 41 if case >= 60 else 3))
            orders = [int(o) for o in rng.integers(2, 5 if case >= 60 else 3,
                                                   size=rng.integers(1, 3))]
        dims = [svec_dim(o) for o in orders]
        K = k1 + sum(dims)
        starts = k1 + np.cumsum([0] + dims[:-1])
        cones = [(np.arange(a, a + d), PSDConeIndicator(o))
                 for a, d, o in zip(starts, dims, orders)]
        half = np.ones(K, dtype=bool)
        for idx, _ in cones:
            half[idx] = False
        G = rng.standard_normal((K, K))
        M = G @ G.T + 0.1 * np.eye(K)
        eye = np.eye(K)
        A = eye - 0.95 / max(np.linalg.eigvalsh(M)[-1], 1.0) * M if K else eye
        z = rng.standard_normal((7, K))
        for (idx, _), o in zip(cones, orders):
            P = np.linalg.qr(rng.standard_normal((o, o)))[0]
            z[0, idx] = svec((P * np.append(rng.standard_normal(o - 2), [0.0, 0.0])) @ P.T)
        (p, E), (p_want, E_want) = (
            f(z, A, eye, half, cones)
            for f in (st._projection_and_newton_matrix, _projection_and_dense_v_newton_matrix))
        assert p.tobytes() == p_want.tobytes(), case
        assert E.shape == E_want.shape == (7, K, K), case
        if K <= 8:
            assert E.tobytes() == E_want.tobytes(), case
        else:
            assert E[:, half].tobytes() == E_want[:, half].tobytes(), case
            assert np.abs(E - E_want).max() <= 1e-15, case


def test_conic_complementarity_solves_orthant_problems_up_to_100_kinks():
    # with no PSD factor the cone is the orthant: y >= 0, w = q + M y >= 0
    # and y^T w = 0 for M = D W D, W symmetric positive definite and D a
    # random sign matrix; with no kink every y is empty
    import kktstab.stability as st

    rng = np.random.default_rng(5)
    for K in (0, 1, 2, 5, 10, 30, 60, 100):
        for _ in range(4):
            A = rng.standard_normal((K, K))
            s = rng.choice([-1.0, 1.0], size=K)
            M = s[:, None] * (A @ A.T + 0.1 * np.eye(K)) * s
            q = rng.standard_normal(K)
            Y = st._conic_complementarity(M, q[None], [])
            assert Y.shape == (1, K), K
            y = Y[0]
            w = q + M @ y
            scale = 1.0 + np.abs(q).max(initial=0.0)
            assert y.min(initial=0.0) >= 0.0, K
            assert w.min(initial=0.0) >= -1e-10 * scale, K
            assert abs(y @ w) <= 1e-10 * scale * (1.0 + np.abs(y).sum()), K


def test_conic_complementarity_solves_the_worst_case_of_least_index_pivoting():
    # M = L^T L with L = I + 2 tril(ones, -1) and q = -1 make least-index
    # principal pivoting visit all 2^K complementary bases (Fathi 1979);
    # the solution is y = e_K with w = (1, ..., 1, 0)
    import kktstab.stability as st

    K = 30
    L = np.eye(K) + 2.0 * np.tril(np.ones((K, K)), -1)
    M, q = L.T @ L, -np.ones(K)
    y = st._conic_complementarity(M, q[None], [])[0]
    w = q + M @ y
    assert np.abs(y - np.eye(K)[-1]).max() <= 1e-10
    assert w.min() >= -1e-10 and abs(y @ w) <= 1e-10
    assert np.abs(w - np.append(np.ones(K - 1), 0.0)).max() <= 1e-10


def test_a_conic_solve_that_does_not_converge_reads_undecided(monkeypatch):
    # with one Newton iteration allowed, the solves end unconverged, except
    # where y = 0 solves (delta 0, whose q is 0, and a q inside the cone), at
    # the strongly regular |beta| = 2 plants of seed 7 and at every analyze-nlp
    # plant of seed 7 whose probe solves its deltas (leg b holds and it has a
    # kink): each is a failure, the first is named, and the report reads leg
    # c undecided
    import kktstab.stability as st

    monkeypatch.setattr(st, "_CONIC_MAX_ITER", 1)
    plants, opts = _analyze_sdp(7)
    cases = [(problem, meta, "analyze-sdp") for problem, meta, plant in plants
             if plant.structure["beta"] == 2 and plant.strongly_regular]
    cases += [(problem, meta, "analyze-nlp") for problem, meta in _analyze_nlp_plants(7)]
    seen = {"analyze-sdp": 0, "analyze-nlp": 0}
    for problem, meta, name in cases:
        rep = equivalence_report(problem, meta.known_solution, opts)
        c = rep.consistency
        if name == "analyze-nlp" and not (c["leg_b_elements_nonsingular"]
                                          and rep.probe.pieces > 1):
            continue  # the certificate, or no kink: no solve runs
        assert rep.probe.failures > 0
        assert rep.probe.failures + rep.probe.solved == opts.num_delta + 1
        assert re.fullmatch(r"delta [1-9]\d*: the conic complementarity solve did not "
                            r"converge", rep.probe.failure), rep.probe.failure
        assert c["leg_c_probe_strong_regularity"] is None and c["verdict"] == "undecided"
        assert c["note"].startswith("leg b is exact at this point; leg c is undecided")
        seen[name] += 1
    assert seen == {"analyze-sdp": 4, "analyze-nlp": 36}


@pytest.mark.parametrize("radius", [1e3, 1e6, 1e10, 1e100])
def test_the_probe_check_scales_with_the_perturbation(radius):
    # the strongly regular |beta| = 2 pencil of order 3: the B-derivative's
    # equation is positively homogeneous, so its rounding grows with |delta|
    # and the check's bound with max(1, |delta|_inf); at every radius up to
    # 1e100 every delta is solved and passes, with the modulus of radius 0.05
    problem, meta = instance_from_dict(_benchmark_workloads().planted.psd_pencil(
        np.random.default_rng(0), 3, 0, 2, True, True)[0])
    want = strong_regularity_probe(problem, meta.known_solution)
    assert (want.violations, want.failures) == (0, 0)
    rep = equivalence_report(problem, meta.known_solution, AnalyzerOptions(radius=radius))
    assert rep.consistency["leg_c_probe_strong_regularity"] is True
    assert (rep.probe.failures, rep.probe.failure) == (0, "")
    assert rep.probe.modulus == pytest.approx(want.modulus, rel=1e-9)


def test_the_analyzer_imports_no_newton_solver():
    # strong regularity is decided on the local model: kktstab.stability
    # takes only the options class and two validators from kktstab.newton
    import ast

    import kktstab.stability as st

    tree = ast.parse(Path(st.__file__).read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for module, name in imported if module and module.endswith("newton")} == {
        "NewtonOptions", "check_integer", "check_positive"}
    assert not any(isinstance(node, ast.Import) and any("newton" in a.name for a in node.names)
                   for node in ast.walk(tree))
    assert not any(module == "problem" and name.startswith("solve")
                   for module, name in imported)


def test_the_b_derivative_check_reads_a_wrong_solution_undecided(monkeypatch):
    # with every delta's complementarity problem answered by y = 0 (each kink
    # on its excess branch), a probe whose true solutions all have y = 0 is
    # unchanged, and one where a delta switches the |beta| = 1 kink fails the
    # B-derivative check there: leg c is undecided, and the failure names a
    # switched delta
    import kktstab.stability as st

    real, switched = st._conic_complementarity, []
    monkeypatch.setattr(st, "_conic_complementarity", lambda M, Q, cones: switched.extend(
        real(M, Q, cones).any(axis=1).tolist()) or np.zeros_like(Q))
    seen = set()
    for problem, meta, plant in _analyze_sdp(7)[0]:
        if plant.structure["beta"] != 1 or not plant.strongly_regular:
            continue
        switched.clear()
        probe = strong_regularity_probe(problem, meta.known_solution,
                                        AnalyzerOptions(num_delta=6, seed=2))
        assert (probe.failures > 0) == any(switched), problem.name
        assert probe.failures <= sum(switched) and probe.solved == 7 - probe.failures
        if probe.failures:
            j = int(re.match(r"delta (\d+): residual .* above its bound ", probe.failure)[1])
            assert switched[j], probe.failure
        seen.add(probe.failures > 0)
    assert seen == {True, False}


def _random_mixed_point(rng):
    """A random KKT point x = 0 of F(x) = c + J x over a random subset of the
    pair battery's pairs, without its |beta| = 2 pair: PSD blocks with
    |beta| <= 1 next to separable blocks with kinks.  J = N R with N an
    orthonormal basis of the multiplier's complement, so J^T mu = 0, and
    the weighted Hessian is random symmetric, indefinite in half the
    points."""
    pairs = [(p, xb, ub) for name, p, xb, ub in pair_battery()
             if name != "psd2_origin" and rng.uniform() < 0.6]
    pairs = pairs or [(p, xb, ub) for name, p, xb, ub in pair_battery()][:1]
    c = np.concatenate([xb for _, xb, _ in pairs])
    mu = np.concatenate([ub for _, _, ub in pairs])
    N = nullspace(mu[None, :])
    n = int(rng.integers(2, N.shape[1] + 1))
    J = N[:, :n] @ rng.standard_normal((n, n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    H = (Q * rng.uniform(-1.0 if rng.uniform() < 0.5 else 0.2, 2.0, n)) @ Q.T
    F = SmoothMap(n=n, m=c.size, eval=lambda x: c + J @ x, jacobian=lambda x: J,
                  weighted_hessian_fn=lambda x, m: H)
    return CompositeProblem(F, [p for p, _, _ in pairs]), KKTPoint(np.zeros(n), mu)


def _b_derivative_pieces(point, deltas):
    """(orientation, K, per delta) of the B-derivative's equation at a point
    whose PSD blocks have |beta| <= 1, from every piece's dense system in
    the original coordinates: the element [[H, J^T], [(I-U) J, -U]] with
    every block's U = Q diag(u) Q^T from its canonical ``clarke_frame``,
    the kink weights (UP and DOWN coordinates, and a 1 x 1 beta-beta
    block) set to the piece's 0/1 bits, and right side (delta1,
    -(I-U) delta2).  The orientation reads "singular piece" or "reversed
    orientation" as ``_piece_oracle``'s does, else "regular", which gets
    each delta's solutions whose kinks keep to their sides in the frames."""
    problem, pt, H, J = point.problem, point.kkt, point.hessian, point.J
    n = problem.n
    frames, kinks, signs = [], [], []
    for (p, xb, ub), st in zip(point.pairs, point.structures):
        codes = np.where(st.critical == BLOCK, UP, st.critical) if (
            np.sum(st.critical == BLOCK) == 1) else st.critical
        assert not (codes == BLOCK).any()
        frames.append(p.clarke_frame(xb + ub))
        kinks.append((codes == UP) | (codes == DOWN))
        signs.append(np.where(codes == DOWN, -1.0, 1.0))
    t = 1e-8 * max(1.0, max(np.abs(xb + ub).max() for _, xb, ub in point.pairs))
    K = int(sum(k.sum() for k in kinks))
    pieces = []
    for bits in itertools.product((1.0, 0.0), repeat=K):
        us, i = [], 0
        for f, k in zip(frames, kinks):
            u = f.weight.copy()
            u[k] = bits[i:i + k.sum()]
            i += k.sum()
            us.append(u)
        U = np.zeros((problem.m, problem.m))
        for lo, f, u in zip(problem.offsets, frames, us):
            U[lo:lo + u.size, lo:lo + u.size] = ClarkeFrame(u, f.eigvecs).matrix()
        IU = np.eye(problem.m) - U
        pieces.append((us, IU, np.block([[H, J.T], [IU @ J, -U]])))
    svs = [np.linalg.svd(E, compute_uv=False) for _, _, E in pieces]
    if any(v[-1] <= 1e-8 * max(1.0, v[0]) for v in svs):
        return "singular piece", K, None
    if len({np.linalg.slogdet(E)[0] for _, _, E in pieces}) > 1:
        return "reversed orientation", K, None
    out = []
    for delta in deltas:
        sols = []
        for us, IU, E in pieces:
            dz = np.linalg.solve(E, np.concatenate([delta[:n], -IU @ delta[n:]]))
            e = problem.blocks(J @ dz[:n] + delta[n:])
            dmu = problem.blocks(dz[n:])
            ok = True
            for f, k, s, u, eb, mb in zip(frames, kinks, signs, us, e, dmu):
                ef, mf = f.coords(eb)[k], f.coords(mb)[k]
                ok &= bool(np.all(np.where(u[k] == 1.0, -s[k] * ef, s[k] * mf) <= t))
            if ok:
                sols.append(pt.stacked() + dz)
        out.append((sols, delta))
    return "regular", K, out


def test_b_derivative_probe_agrees_with_the_piece_oracle(monkeypatch):
    # the |beta| = 1 analyze-sdp plants of seed 7 and 80 random mixed points
    # of PSD (|beta| <= 1) and separable blocks: where the oracle's pieces
    # are not coherently oriented the probe reads the certificate with no
    # Newton solve; elsewhere each delta has one solution up to the kink
    # tolerance, and the probe reads it
    import kktstab.stability as st

    tallies = []
    real = st._probe_stats
    monkeypatch.setattr(st, "_probe_stats", lambda opts, solutions, *rest:
                        tallies.append(solutions) or real(opts, solutions, *rest))
    _no_newton(monkeypatch)
    rng = np.random.default_rng(41)
    cases = [(problem, meta.known_solution) for problem, meta, plant in _analyze_sdp(7)[0]
             if plant.structure["beta"] == 1]
    cases += [_random_mixed_point(rng) for _ in range(80)]
    seen = set()
    for k, (problem, z) in enumerate(cases):
        opts = AnalyzerOptions(num_delta=6, seed=k)
        point = AnalysisPoint(problem, z, opts)
        deltas = _probe_deltas(problem.n + problem.m, opts)[0]
        orientation, K, want = _b_derivative_pieces(point, deltas)
        stats = strong_regularity_probe(problem, point)
        seen.add((orientation, point.polyhedral, K > 1))
        if orientation != "regular":
            _assert_certificate(stats, 2 ** K, k)
            continue
        assert (stats.failures, stats.violations, stats.solved) == (0, 0, len(deltas)), k
        for (delta, z1), (sols, d) in zip(tallies[-1], want):
            assert np.array_equal(delta, d) and sols, k
            scale = 1e-8 * (1.0 + np.abs(z1).max())
            assert max(np.abs(a - b).max() for a in sols for b in sols) <= scale, k
            assert np.abs(z1 - sols[0]).max() <= scale, k
    assert {o for o, polyhedral, many in seen if not polyhedral and many} == {
        "singular piece", "reversed orientation", "regular"}, seen


def test_leg_c_of_an_analyze_sdp_plant_survives_sub_tolerance_moves():
    # analyze-sdp seed 8 #4 (|beta| = 1, strongly regular), whose Newton
    # probe gained a failed solve under one 1e-9 move: moved twice by 1e-11
    # and twice by 1e-9, the B-derivative probe keeps leg c
    (problem, meta, plant), opts = _analyze_sdp(8)[0][4], _analyze_sdp(8)[1]
    assert plant.structure["beta"] == 1 and plant.strongly_regular
    z = meta.known_solution.stacked()
    for scale in (0.0, 1e-11, 1e-9):
        for r in range(2):
            u = np.random.default_rng([8, 4, r]).standard_normal(z.size)
            probe = strong_regularity_probe(problem, z + scale * u / np.linalg.norm(u), opts)
            assert _leg_c(probe), (scale, r)


_SINGLE_RAY_INSTANCE = {  # planted PSD pencil: order 3, |alpha| = |beta| = 1, degenerate
    "name": "single-ray", "n": 4,
    "F": {"builtin": {"id": "affine_pencil", "params": {
        "objective": {"const": 0.0,
                      "linear": [1.7075260505494865, -1.670551469013153, -0.10909719746748336,
                                 -1.3001299193740998],
                      "quadratic": [[0.9699768569880909, -0.009044965938631423,
                                     -0.0296073798693941, -0.21316126266093835],
                                    [-0.009044965938631423, 2.876307935620442,
                                     -0.46499768739765757, 0.6765668589932058],
                                    [-0.0296073798693941, -0.46499768739765757,
                                     0.6245402512995044, -0.0362717436542684],
                                    [-0.21316126266093835, 0.6765668589932058,
                                     -0.0362717436542684, 1.006965190103871]]},
        "pencil_const": [[-1.483642476100935, 0.8347690028192107, -1.2098330960145205],
                         [0.8347690028192107, -1.2734782611626327, 1.6700647209282447],
                         [-1.2098330960145205, 1.6700647209282447, -3.8494528180662226]],
        "pencil_coeff": [[[0.2528681416909311, 0.16431811616555814, -0.6585228437958774],
                          [0.16431811616555814, -0.4357573003896156, 0.7195192200636131],
                          [-0.6585228437958774, 0.7195192200636131, -2.7210882925542257]],
                         [[1.2924681896516526, -0.043187739397536146, -0.24856826720908579],
                          [-0.043187739397536146, 0.5607606077197743, -1.5301524544615048],
                          [-0.24856826720908579, -1.5301524544615048, -1.0099512041209442]],
                         [[-0.18494573411437742, -0.4433042594335752, 0.20568138994566665],
                          [-0.4433042594335752, 0.6674818851430173, -0.2747121508687032],
                          [0.20568138994566665, -0.2747121508687032, 0.4021705250468464]],
                         [[1.5645728067832274, -0.6780167603796744, 0.6279710331324329],
                          [-0.6780167603796744, 0.11093746450181749, 0.5411079279121913],
                          [0.6279710331324329, 0.5411079279121913, 0.5546125103378571]]]}}},
    "g": [{"kind": "epi_lift", "inner": {"kind": "psd_indicator", "order": 3}}],
    "known_solution": {"x": [-1.5686858503476075, 0.6982593725779938, 0.4069076647684114,
                             0.7729043020765998],
                       "mu": [1.0, -0.5267213831647439, -0.9071297044008635, -0.1216843985460039,
                              -0.7811381186598063, -0.14818639767622088, -0.014055906331859951]},
}


def test_a_single_ray_cone_fails_and_uniqueness_finds_the_second_multiplier(monkeypatch):
    # the PSD polar cone meets null(J^T) in one ray, which 20 restarts of
    # alternating projections at seed 7 miss; the exact ray test finds it,
    # and srcq, uniqueness and the report share it
    import kktstab.stability as st

    searches = []
    ap = st._ap_nonzero_points
    monkeypatch.setattr(st, "_ap_nonzero_points",
                        lambda *a, **k: searches.append(1) or ap(*a, **k))
    problem, meta = instance_from_dict(_SINGLE_RAY_INSTANCE)
    opts = AnalyzerOptions(num_delta=4, srcq_budget=20, seed=7)
    point = AnalysisPoint(problem, meta.known_solution, opts)
    v = srcq_check(problem, point)
    assert (v.status, v.detail) == ("fails", "nonzero polar intersection point found")
    unique, mu = multiplier_uniqueness(problem, point)
    assert not unique
    assert np.max(np.abs(mu - meta.known_solution.mu)) > 1e-6
    assert kkt_check(problem, KKTPoint(meta.known_solution.x, mu)).ok
    rep = equivalence_report(problem, meta.known_solution, opts)
    assert (rep.srcq.status, rep.multiplier_unique, rep.ssosc.status) == (
        "fails", False, "skipped")
    assert not searches


@pytest.mark.parametrize("check", [check_gamma_properties, "assumption_check"])
def test_gamma_oracle_loops_test_each_pair_once(monkeypatch, check):
    import kktstab.pieces as pc

    tested = []
    original = pc.ConvexPiece.check_subgradient
    monkeypatch.setattr(pc.ConvexPiece, "check_subgradient",
                        lambda self, *a, **k: tested.append(self) or original(self, *a, **k))
    if check == "assumption_check":
        for name, piece, xbar, ubar in pair_battery():
            samples = sample_clarke(piece, xbar + ubar, 16, seed=0)
            assumption_check(piece, xbar, ubar, samples)
    else:
        assert check()[1]
    assert [p.kind for p in tested] == [p.kind for _, p, _, _ in pair_battery()]


# ----------------------------------------------------------------------
# Tolerances, counts and the point are validated


@pytest.mark.parametrize("field", ["tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), True])
def test_analyzer_tolerances_must_be_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite positive number"):
        AnalyzerOptions(**{field: value})


@pytest.mark.parametrize("field", ["count", "srcq_budget"])
@pytest.mark.parametrize("value", [0, -2, 2.5, 3.0, True])
def test_analyzer_counts_must_be_integers_of_at_least_one(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer of at least 1"):
        AnalyzerOptions(**{field: value})
    AnalyzerOptions(**{field: np.int64(1)})


def test_analysis_point_rejects_a_bad_tol_and_a_non_finite_point():
    problem, meta = load_battery("nlp_toy")
    z = meta.known_solution.stacked()
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^tol must be a finite positive number"):
            AnalysisPoint(problem, z, AnalyzerOptions(tol=tol))
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(z.size):
            w = z.copy()
            w[i] = bad
            with pytest.raises(ValueError, match="^point must be finite$"):
                AnalysisPoint(problem, w)
            with pytest.raises(ValueError, match="^point must be finite$"):
                AnalysisPoint(problem, w, _kkt_test=False)
    assert AnalysisPoint(problem, z, _kkt_test=False).opts == AnalyzerOptions()


def test_a_nan_difference_quotient_makes_the_probe_modulus_nan():
    # d1 - d2 and z1 - z2 overflow, so their quotient is inf / inf: the
    # modulus is NaN, not the 0.0 of max(0.0, nan), and leg c cannot read
    # it as finite; quotients before or after it do not hide it
    import kktstab.stability as st

    big = np.full(3, 1e308)
    small = np.array([0.0, 0.0, 1e-3])
    for solutions in ([(big, big), (-big, -big)], [(small, small), (big, big), (-big, -big)],
                      [(big, big), (-big, -big), (small, 2.0 * small)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = st._probe_stats(AnalyzerOptions(), solutions, 0, 1)
        assert np.isnan(stats.modulus), solutions
    finite = st._probe_stats(AnalyzerOptions(), [(small, small), (2.0 * small, 3.0 * small)],
                             0, 1)
    assert finite.modulus == 2.0


def _modulus_loop(solutions):
    """The probe's modulus as the scalar double loop over the pairs in
    order: the reference of ``_modulus``."""
    modulus = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (d1, z1) in enumerate(solutions):
            for d2, z2 in solutions[i + 1:]:
                gap = float(np.linalg.norm(d1 - d2))
                if gap > 1e-12:
                    q = float(np.linalg.norm(z1 - z2)) / gap
                    if q > modulus or q != q:
                        modulus = q
    return modulus


def test_the_stacked_modulus_has_the_bits_of_the_scalar_loop():
    # random stacks whose quotients tie up to rounding (Z = D Q, Q
    # orthogonal, so every quotient is 1 up to an ulp or so), with repeated
    # deltas, gaps within a few ulps of the 1e-12 cut, and overflowing or
    # NaN rows: the modulus has the bits of the scalar loop, with no warning.
    # The last five stacks have the probe's 51 rows at the CLI defaults:
    # three with 6, 18 and 60 columns, taken in chunks of 26, 8 and 2 rows,
    # and two with 1,200 columns, about the 400-block plant's n + m, one row
    # at a time
    import kktstab.stability as st

    rng = np.random.default_rng(17)
    for k in range(405):
        n, dim = int(rng.integers(2, 30)), int(rng.integers(1, 40))
        if k >= 400:
            n, dim = 51, (1200, 1200, 3, 9, 30)[k - 400]
        D = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 3)
        Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0] * 10.0 ** rng.integers(-2, 3)
        Z = D @ Q + (0.0 if k % 2 else 1e-13 * rng.standard_normal((n, dim)))
        if k % 3 == 0:
            D[rng.integers(n, size=2)] = D[0]
        if k % 5 == 0:
            e = np.zeros(dim)
            e[0] = 1e-12 * (1.0 + rng.integers(-4, 5) * 2.0 ** -52)
            D[-1] = D[0] + e
        if k % 7 == 0:
            Z[rng.integers(n)] = rng.choice([1e200, np.nan, np.inf])
        if k % 11 == 0:
            D[rng.integers(n)] = 1e308
        solutions = list(zip(D, Z))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = st._probe_stats(AnalyzerOptions(), solutions, 0, 1).modulus
        want = _modulus_loop(solutions)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (k, got, want)
    assert st._probe_stats(AnalyzerOptions(), [], 0, 1).modulus == 0.0


def test_a_polyhedral_solution_off_the_local_pieces_keeps_the_exact_probe(monkeypatch):
    # analyze-nlp seed 8 #43, slot (19, 8, True, False), a strongly regular
    # saddle, at the CLI defaults (50 deltas, radius 0.05): some delta's
    # local solution leaves the pieces around the point and fails the
    # linearized residual, but it solves the B-derivative's equation, so
    # leg c stays true on the exact probe with no Newton row
    import kktstab.stability as st

    checked = []
    real = st._b_derivative_residual
    monkeypatch.setattr(st, "_b_derivative_residual", lambda point, dz, deltas:
                        checked.append(len(dz)) or real(point, dz, deltas))
    _no_newton(monkeypatch)
    problem, meta = _analyze_nlp_plants(8)[43]
    point = AnalysisPoint(problem, meta.known_solution, AnalyzerOptions(seed=8))
    probe = strong_regularity_probe(problem, point)
    assert (probe.failures, probe.solved) == (0, 51)
    assert _leg_c(probe) and checked and 0 < checked[0] < 51, checked
    assert nonsingularity_sweep(problem, point).verdict == "all-elements-nonsingular"


def test_a_non_finite_exact_probe_residual_reads_undecided(monkeypatch):
    # the exact probe's residual check passes only where every entry is
    # finite and within its bound: one NaN or inf entry in the last delta's
    # row makes that delta a failure, as a wrong solution does, at a
    # polyhedral point (nlp_toy), a |beta| = 1 point and a |beta| = 2 point
    # (strongly regular analyze-sdp plants of seed 7).  At the polyhedral
    # point a row that fails the linearized residual is checked again on
    # the B-derivative's equation, so only both spoiled make it fail
    import kktstab.stability as st

    plants, opts = _analyze_sdp(7)
    cases = [(load_battery("nlp_toy"), AnalyzerOptions(),
              ("linearized_residual", "_b_derivative_residual"))]
    for beta in (1, 2):
        problem, meta, _ = next(p for p in plants
                                if p[2].structure["beta"] == beta and p[2].strongly_regular)
        cases.append(((problem, meta), opts, ("_b_derivative_residual",)))
    for (problem, meta), opts, names in cases:
        point = AnalysisPoint(problem, meta.known_solution, opts)
        deltas, _ = _probe_deltas(problem.n + problem.m, opts)
        clean = st._exact_probe(point, deltas)
        assert (clean.violations, clean.failures, clean.solved) == (0, 0, len(deltas)), names
        for bad in (np.nan, np.inf, -np.inf):
            with monkeypatch.context() as mp:
                for name in names:
                    def spoiled(*args, real=getattr(st, name), bad=bad):
                        r = real(*args)
                        r[-1, -1] = bad
                        return r

                    mp.setattr(st, name, spoiled)
                    stats = st._exact_probe(point, deltas)
                    if name != names[-1]:
                        assert stats == clean, (name, bad)
                        continue
                    assert (stats.failures, stats.solved) == (1, len(deltas) - 1), (name, bad)
                    assert stats.failure.startswith(
                        f"delta {len(deltas) - 1}: residual {abs(bad)} above its bound"), stats


def test_the_b_derivative_check_calls_each_blocks_prox_dirderiv_once(monkeypatch):
    # the |beta| = 1 analyze-sdp plants of seed 7 and sdp_toy (|beta| = 0):
    # at every oriented point the check takes the blocks' directional
    # derivatives from one call of the problem's block groups, which makes
    # one call per group of separable blocks and one per other block, on
    # the stack of every delta's direction; so do mixed points of
    # separable groups, epi lifts and PSD blocks alone and lifted
    import kktstab.stability as st

    def spied(problem):
        groups, calls = problem.block_groups, []
        targets = [(piece, "_dirderiv", index.size) for piece, index, _ in groups.groups]
        targets += [(p, "prox_dirderiv", p.dim) for p, _ in groups.own]
        for piece, attr, _ in targets:
            def counted(z, d, *args, real=getattr(piece, attr), _piece=piece):
                calls.append((id(_piece), np.shape(d)))
                return real(z, d, *args)

            monkeypatch.setattr(piece, attr, counted)
        return calls, [(id(piece), size) for piece, _, size in targets]

    plants, opts = _analyze_sdp(7)
    cases = [((problem, meta), opts) for problem, meta, plant in plants
             if plant.structure["beta"] == 1]
    cases.append((load_battery("sdp_toy"), AnalyzerOptions()))
    checked = 0
    for (problem, meta), opts in cases:
        point = AnalysisPoint(problem, meta.known_solution, opts)
        calls, targets = spied(problem)
        deltas, _ = _probe_deltas(problem.n + problem.m, opts)
        stats = st._exact_probe(point, deltas)
        assert stats.failures == 0
        if stats.violations == 0:
            assert calls == [(t, (len(deltas), size)) for t, size in targets]
            checked += 1
        else:
            assert calls == []  # the certificate needs no solution
    assert checked == 13
    rng = np.random.default_rng(11)
    joined = 0  # the most blocks in one group
    for k in range(12):
        problem, z = _kink_problem(rng, psd=k % 2 == 0)
        point = AnalysisPoint(problem, z, _kkt_test=False)
        calls, targets = spied(problem)
        dz, deltas = rng.standard_normal((2, 7, problem.n + problem.m))
        st._b_derivative_residual(point, dz, deltas)
        assert calls == [(t, (7, size)) for t, size in targets], k
        joined = max([joined] + [sizes.size for *_, (_, sizes) in problem.block_groups.groups])
    assert joined > 1
