"""Self-tests of the benchmark: planted labels, tracer arithmetic, and
tiny in-process runs of each workload.  Run with
``python -m pytest perfbench -q`` from the repository root."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import run

kk = run.import_library()

import planted  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402

HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# generator


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("nondeg,so", [(True, True), (False, True), (True, False)])
def test_psd_plant_labels_and_kkt(seed, nondeg, so):
    rng = np.random.default_rng(seed)
    data, plant = planted.psd_pencil(rng, 3, 1, 1, nondeg, so)
    problem, meta = kk.instance_from_dict(data)  # validates the KKT point
    assert plant.nondegenerate == nondeg
    assert plant.second_order == so
    assert np.allclose(meta.known_solution.x, plant.x)
    assert plant.structure["beta"] == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("nondeg,so", [(True, True), (False, True), (True, False)])
def test_polyhedral_plant_labels_and_kkt(seed, nondeg, so):
    rng = np.random.default_rng(seed)
    data, plant = planted.polyhedral(rng, 12, 5, nondeg, so)
    kk.instance_from_dict(data)
    assert plant.nondegenerate == nondeg
    assert plant.second_order == so
    assert plant.structure["critical_dim"] > 0
    assert plant.structure["pinned"] + plant.structure["kinks"] < data["n"]
    # the objective Hessian is the whole Lagrangian Hessian: definite for a
    # planted 'holds', indefinite for a planted 'fails'
    H = np.array(data["F"]["polynomial"][0]["quadratic"])
    assert (np.linalg.eigvalsh(H)[0] > 0) == so


def test_generation_is_deterministic():
    w = workloads.WORKLOADS["analyze-nlp"]
    a = workloads.generate(w, 5)
    b = workloads.generate(w, 5)
    assert [json.dumps(i.data) for i in a] == [json.dumps(i.data) for i in b]
    c = workloads.generate(w, 6)
    assert json.dumps(a[0].data) != json.dumps(c[0].data)


def test_workloads_hold_both_labels():
    for name in ("analyze-sdp", "analyze-nlp"):
        insts = workloads.generate(workloads.WORKLOADS[name], 0)
        labels = {i.plant.strongly_regular for i in insts}
        assert labels == {True, False}


def test_exact_affine_is_correctly_rounded():
    assert planted.exact_affine([0.1], [[1.0, 1.0]], [0.2, -0.3])[0] == \
        float(sum(map(Fraction, (0.1, 0.2, -0.3))))
    x = np.random.default_rng(0).standard_normal(7)
    rows = np.random.default_rng(1).standard_normal((3, 7))
    want = [float(Fraction(0.5) + sum(Fraction(a) * Fraction(v) for a, v in zip(r, x)))
            for r in rows]
    assert planted.exact_affine([0.5] * 3, rows, x).tolist() == want


# ----------------------------------------------------------------------
# tracer


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    tr.op = 0
    top = tr.open("op")                 # 0
    child = tr.open("stability.rcq")    # 1
    grand = tr.open("problem.residual")  # 3
    tr.close(grand)                     # 4
    tr.close(child)                     # 6
    second = tr.open("reports.dump")    # 7
    tr.close(second)                    # 8
    tr.close(top)                       # 10
    dur, self_t = tr.durations()
    assert dur == [10.0, 5.0, 1.0, 1.0]
    assert self_t == [4.0, 4.0, 1.0, 1.0]
    summary = tr.summary()
    assert summary["stability.rcq"] == {"count": 1, "total_s": 5.0, "self_s": 4.0}
    assert tr.coverage("op") == pytest.approx(0.6)


def test_outermost_layer_spans_only():
    tr = Tracer()
    inner = tr.wrap(lambda: None, "pieces.prox")
    outer = tr.wrap(lambda: inner(), "pieces.clarke_element")
    other = tr.wrap(lambda: outer(), "problem.residual")
    other()
    assert [tr.names[i] for i in tr.name_id] == ["problem.residual", "pieces.clarke_element"]


def test_install_restores_the_library():
    before = (kk.stability.rcq_check, kk.pieces.eig_split, kk.pieces.PSDConeIndicator.prox)
    uninstall = install(Tracer())
    assert kk.stability.rcq_check is not before[0]
    assert kk.pieces.eig_split is not before[1]
    uninstall()
    assert (kk.stability.rcq_check, kk.pieces.eig_split,
            kk.pieces.PSDConeIndicator.prox) == before


# ----------------------------------------------------------------------
# tiny runs of each workload


def tiny(name):
    w = workloads.WORKLOADS[name]
    slots = {"analyze-sdp": ((2, 1, 1, True, True), (2, 0, 1, True, False)),
             "analyze-nlp": ((10, 5, True, True), (10, 5, True, False)),
             "solve-sdp": (6,)}[name]
    return workloads.Workload(w.name, w.why, w.op, slots, w.analyzer)


@pytest.mark.parametrize("name", ["analyze-sdp", "analyze-nlp", "solve-sdp"])
def test_tiny_traced_run(name):
    w = tiny(name)
    insts = workloads.generate(w, 3)
    loaded = workloads.load(insts)
    op, check = workloads.make_op(w, 3)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        win = run.measure(op, check, insts, loaded, 0.0, tracer)
    finally:
        uninstall()
    assert win.ops == len(insts)
    assert not any(r.failed or r.check_error for r in win.results)
    assert not any(r.mismatch for r in win.results)
    m = run.per_layer_metrics(tracer, set(range(win.ops)))
    assert set(m) == set(run.PER_LAYER)
    assert tracer.coverage("op") > 0.9
    symmat = [v for k, v in m.items() if k.startswith("symmat.")]
    stability = [v for k, v in m.items() if k.startswith("stability.")]
    if name == "analyze-nlp":
        assert not any(symmat)
    if name == "solve-sdp":
        assert not any(stability)
        assert m["newton.solves"] == 1
    else:
        assert m["stability.uniqueness_calls"] == 2
        assert m["stability.probe_solves"] == m["newton.solves"]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {k: u for k, (u, _, _) in run.PER_LAYER.items()} | run.RUN_LAYER
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "solve-sdp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
