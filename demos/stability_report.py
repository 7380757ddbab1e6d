"""The full stability analysis across the battery: constraint
qualifications, the second-order condition, the element sweep, the
perturbation probe, and the consistency verdict tying them together."""

from kktstab import AnalyzerOptions, BATTERY_NAMES, equivalence_report, load_battery

opts = AnalyzerOptions(count=32, num_delta=30, seed=0)
for name in BATTERY_NAMES:
    problem, meta = load_battery(name)
    rep = equivalence_report(problem, meta.known_solution, opts)
    ss = rep.ssosc
    eig = getattr(ss, "min_eigenvalue", None)
    print(f"== {name}")
    print(f"   rcq {rep.rcq.status}; srcq {rep.srcq.status}; "
          f"nondegeneracy {rep.nondegeneracy.status}; "
          f"multiplier {'unique' if rep.multiplier_unique else 'not unique'}")
    print(f"   second-order: {ss.status}"
          + (f" (min reduced eigenvalue {eig:.3e})" if eig is not None else ""))
    print(f"   element sweep: {rep.sweep.verdict}, margin "
          f"{rep.sweep.margin:.3e} over {rep.sweep.n_elements} elements")
    print(f"   probe: modulus {rep.probe.modulus:.3e}, "
          f"{rep.probe.violations} uniqueness violations, "
          f"{rep.probe.failures} solver failures")
    legs = rep.consistency
    print(f"   legs: a={legs['leg_a_second_order_and_nondegeneracy']} "
          f"b={legs['leg_b_elements_nonsingular']} "
          f"c={legs['leg_c_probe_strong_regularity']} "
          f"-> {legs['verdict']}")
    print()
