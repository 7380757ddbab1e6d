"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured quantities at the stated tolerances."""

import time

import numpy as np
from kktstab import (
    AnalyzerOptions,
    NewtonOptions,
    PSDConeIndicator,
    assumption_check,
    critical_subspace,
    critical_subspace_from_samples,
    dumps_report,
    eig_split,
    equivalence_report,
    gamma,
    gamma_oracle,
    load_battery,
    local_rate,
    prox_dirderiv,
    residual,
    sample_clarke,
    solve,
    srcq_check,
    svec,
)
from kktstab.stability import mutual_span_residual
from kktstab.verify import (
    check_element_properties,
    check_moreau_identity,
    check_nonexpansiveness,
    newton_start_grid,
    pair_battery,
)


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c1_prox_identity_suite():
    t0 = time.perf_counter()
    name_m, ok_m, detail_m = check_moreau_identity(n_draws=1000, seed=101)
    name_n, ok_n, detail_n = check_nonexpansiveness(n_draws=1000, seed=102)
    elapsed = time.perf_counter() - t0
    ok = ok_m and ok_n and elapsed < 10.0
    _report(1, ok, f"{detail_m}; {detail_n}; runtime {elapsed:.1f}s (< 10s)")


def test_c2_element_inequality_suite():
    name, ok, detail = check_element_properties(n_draws=100, seed=103, count=16)
    _report(2, ok, detail)


def _psd_pair_full():
    piece = PSDConeIndicator(3)
    A = np.diag([2.0, 0.0, -1.0])
    xbar = svec(np.maximum(A, 0.0))
    ubar = svec(np.minimum(A, 0.0))
    return piece, xbar, ubar


def test_c3_psd_derivative_and_curvature_suite():
    rng = np.random.default_rng(104)
    # directional derivative vs one-sided finite differences, well separated
    worst_fd = 0.0
    for piece in (PSDConeIndicator(2), PSDConeIndicator(3)):
        drawn = 0
        while drawn < 100:
            z = 2.0 * rng.standard_normal(piece.dim)
            lam, _, tol = eig_split(z)
            nz = np.abs(lam[np.abs(lam) > tol])
            if nz.size and nz.min() < 1e-4:
                continue
            d = rng.standard_normal(piece.dim)
            t = 1e-7
            fd = (piece.prox(z + t * d) - piece.prox(z)) / t
            err = np.linalg.norm(prox_dirderiv(piece, z, d) - fd)
            worst_fd = max(worst_fd, err / (1.0 + np.linalg.norm(d)))
            drawn += 1
    ok_fd = worst_fd <= 1e-5

    piece, xbar, ubar = _psd_pair_full()
    P = eig_split(xbar + ubar)[1]
    K = np.eye(3)  # A is diagonal: eigenvector frame is a signed permutation
    samples = sample_clarke(piece, xbar + ubar, 24, seed=105)
    worst_gap = 0.0
    both_infinite = 0
    for _ in range(100):
        el = samples[int(rng.integers(0, len(samples)))]
        v = el.matrix @ rng.standard_normal(piece.dim)
        closed = gamma(piece, xbar, ubar, v)
        oracle = gamma_oracle(piece, xbar, ubar, v, samples)
        assert np.isfinite(closed) and np.isfinite(oracle)
        worst_gap = max(worst_gap, abs(closed - oracle) / (1.0 + abs(closed)))
    for _ in range(100):
        Vt = np.zeros((3, 3))
        # out-of-domain: nonzero coupling into the negative block
        Vt[1, 2] = Vt[2, 1] = 1.0 + rng.uniform(0, 1)
        Vt[2, 2] = rng.standard_normal()
        Vt[0, 0] = rng.standard_normal()
        v = svec(P @ Vt @ P.T)
        closed = gamma(piece, xbar, ubar, v)
        oracle = gamma_oracle(piece, xbar, ubar, v, samples)
        if not np.isfinite(closed) and not np.isfinite(oracle):
            both_infinite += 1
    ok = ok_fd and worst_gap <= 1e-8 and both_infinite == 100
    _report(3, ok, f"fd error {worst_fd:.3e} (<=1e-5), curvature gap "
                   f"{worst_gap:.3e} (<=1e-8), {both_infinite}/100 jointly infinite")


def test_c4_newton_local_theory():
    t0 = time.perf_counter()
    opts = NewtonOptions(tol=1e-10)
    worst = 0.0
    rates = {}
    for name in ("nlp_toy", "sdp_toy", "l1_toy"):
        problem, meta = load_battery(name)
        rs = []
        for start in newton_start_grid(problem, meta, radius=0.5, count=10, seed=42):
            z, trace = solve(problem, start, opts)
            worst = max(worst, float(np.linalg.norm(residual(problem, z), np.inf)))
            if trace.iterations >= 2:
                rs.append(local_rate(trace))
        rates[name] = rs
    elapsed = time.perf_counter() - t0
    quad_ok = all(r == "quadratic" for r in rates["nlp_toy"]) and rates["nlp_toy"] \
        and all(r == "quadratic" for r in rates["sdp_toy"]) and rates["sdp_toy"]
    ok = worst <= 1e-10 and quad_ok and elapsed < 5.0
    _report(4, ok, f"worst residual {worst:.3e} (<=1e-10), rates nlp/sdp all "
                   f"quadratic, runtime {elapsed:.1f}s (< 5s)")


def test_c5_equivalence_cross_check():
    t0 = time.perf_counter()
    opts = AnalyzerOptions(count=32, num_delta=50, seed=0)
    details = []
    ok = True
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "sdp_degenerate", "smooth_toy"):
        problem, meta = load_battery(name)
        rep = equivalence_report(problem, meta.known_solution, opts)
        consistent = rep.consistency["verdict"] == "consistent"
        ok = ok and consistent
        if name == "sdp_degenerate":
            ok = ok and rep.nondegeneracy.status == "fails"
            ok = ok and rep.sweep.verdict == "singular-element-found"
            ok = ok and rep.sweep.margin <= 1e-8
            ok = ok and (rep.probe.violations > 0 or rep.probe.failures > 0)
        else:
            # leg b is exact at every point, sdp_toy's PSD block included
            ok = ok and rep.consistency["leg_a_second_order_and_nondegeneracy"]
            ok = ok and rep.sweep.verdict == "all-elements-nonsingular"
            ok = ok and rep.sweep.margin > 1e-6
            ok = ok and rep.probe.violations == 0 and rep.probe.failures == 0
            ok = ok and np.isfinite(rep.probe.modulus)
        details.append(f"{name}={rep.consistency['verdict']}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(5, ok, ", ".join(details) + f"; runtime {elapsed:.1f}s (< 60s)")


def test_c6_domain_identity_under_srcq():
    worst = 0.0
    checked = []
    for name in ("nlp_toy", "sdp_toy", "l1_toy", "smooth_toy"):
        problem, meta = load_battery(name)
        v = srcq_check(problem, meta.known_solution, AnalyzerOptions(srcq_budget=500))
        if v.status not in ("holds", "heuristic-likely"):
            continue
        s1 = critical_subspace(problem, meta.known_solution)
        s2 = critical_subspace_from_samples(problem, meta.known_solution,
                                            count=16, seed=0)
        res = mutual_span_residual(s1.basis, s2.basis) if s1.dim == s2.dim else np.inf
        worst = max(worst, res)
        checked.append(name)
    ok = bool(checked) and worst <= 1e-8
    _report(6, ok, f"instances {checked}, worst mutual residual {worst:.3e} (<=1e-8)")


def test_c7_structural_assumption_checkers():
    bad = []
    for name, piece, xbar, ubar in pair_battery():
        samples = sample_clarke(piece, xbar + ubar, 16, seed=0)
        out = assumption_check(piece, xbar, ubar, samples)
        for key, verdict in out.items():
            if verdict.status != "evidence-for":
                bad.append((name, key))
    _report(7, not bad, f"all checkers report evidence-for"
            + (f"; failures: {bad}" if bad else " on every battery point"))


def test_c8_deterministic_reports():
    opts = AnalyzerOptions(count=16, num_delta=15, seed=5)
    texts = []
    for _ in range(2):
        problem, meta = load_battery("sdp_toy")
        rep = equivalence_report(problem, meta.known_solution, opts)
        texts.append(dumps_report(rep, kind="stability", seed=opts.seed,
                                  tolerances=rep.tolerances))
    ok = texts[0] == texts[1]
    _report(8, ok, f"repeated stability reports byte-identical "
                   f"({len(texts[0])} bytes)")
