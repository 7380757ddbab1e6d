import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

import kktstab
from kktstab import (
    BATTERY_NAMES,
    InstanceFormatError,
    dumps_report,
    emit_report,
    instance_from_dict,
    kkt_check,
    load_battery,
    load_instance,
    load_report,
    parse_piece,
    run_command,
)
from kktstab.problem import DimensionError


def _nlp_dict():
    return {
        "name": "nlp_toy",
        "n": 1,
        "F": {"polynomial": [
            {"const": 0.0, "linear": [0.0], "quadratic": [[1.0]]},
            {"const": 1.0, "linear": [-1.0]},
        ]},
        "g": [{"kind": "epi_lift",
               "inner": {"kind": "orthant_indicator", "dim": 1, "sign": -1}}],
        "known_solution": {"x": [1.0], "mu": [1.0, 1.0]},
    }


def test_battery_loads_and_validates():
    for name in BATTERY_NAMES:
        problem, meta = load_battery(name)
        assert meta.known_solution is not None
        assert kkt_check(problem, meta.known_solution, 1e-8).ok, name


def test_loader_contract_nlp():
    problem, meta = instance_from_dict(_nlp_dict())
    assert problem.n == 1 and problem.m == 2
    assert len(problem.pieces) == 1
    assert problem.pieces[0].kind == "epi_lift"


def test_loader_dimension_error_names_dims():
    data = _nlp_dict()
    data["g"] = [{"kind": "l1_norm", "dim": 3}]
    with pytest.raises(DimensionError) as exc:
        instance_from_dict(data)
    assert "3" in str(exc.value) and "2" in str(exc.value)


def test_loader_unknown_kind():
    data = _nlp_dict()
    data["g"] = [{"kind": "socp_ball", "dim": 2}]
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_loader_rejects_bad_known_solution():
    data = _nlp_dict()
    data["known_solution"] = {"x": [1.2], "mu": [1.0, 1.0]}
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_loader_parse_error_carries_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "name": "x",\n  bad\n}\n')
    with pytest.raises(InstanceFormatError) as exc:
        load_instance(p)
    assert "line 3" in str(exc.value)


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(InstanceFormatError):
        load_instance(tmp_path / "nope.json")


def test_report_round_trip_and_byte_identical(tmp_path):
    payload = {
        "name": "demo",
        "values": [1.0, 0.1 + 0.2, 1e-17, float("inf"), float("-inf")],
        "flag": True,
        "nested": {"b": 2, "a": [3, None]},
    }
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    emit_report(payload, p1, kind="probe", seed=7, tolerances={"tol": 1e-8})
    emit_report(payload, p2, kind="probe", seed=7, tolerances={"tol": 1e-8})
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    doc = load_report(p1)
    assert doc["payload"]["values"] == payload["values"]
    assert doc["payload"]["nested"] == {"b": 2, "a": [3, None]}
    assert doc["seed"] == 7
    assert doc["tool"] == "kktstab"
    # the infinite entries round-trip through the sentinel strings
    raw = json.loads(b1.decode())
    assert raw["payload"]["values"][3] == "+inf"
    assert raw["payload"]["values"][4] == "-inf"


def test_report_float_precision_lossless():
    rng = np.random.default_rng(0)
    vals = list(rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50))
    text = dumps_report({"vals": vals}, kind="probe")
    parsed = json.loads(text)
    assert parsed["payload"]["vals"] == vals


def _to_jsonable(obj):
    """The plain JSON values of a report, as the writer once built them
    before writing: part of the oracle of the one-pass writer."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_jsonable(obj, indent, out):
    """The canonical text of plain JSON values: the rest of the oracle."""
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append('"nan"' if np.isnan(obj) else ('"+inf"' if obj > 0 else '"-inf"')
                   if np.isinf(obj) else format(obj, ".17g"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _write_jsonable(v, indent + 1, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(str(k)) + ": ")
            _write_jsonable(obj[k], indent + 1, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def _dumps_oracle(payload, kind, seed=None, tolerances=None):
    doc = {"tool": "kktstab", "version": kktstab.__version__, "kind": kind, "seed": seed,
           "tolerances": _to_jsonable(tolerances or {}), "payload": _to_jsonable(payload)}
    out = []
    _write_jsonable(doc, 0, out)
    out.append("\n")
    return "".join(out)


@dataclasses.dataclass
class _Leaf:
    zeta: float
    alpha: tuple
    mid: np.ndarray


@dataclasses.dataclass
class _Node:
    leaf: _Leaf
    leaves: list
    table: dict
    flag: np.bool_


def test_one_pass_writer_has_the_bytes_of_the_jsonable_tree():
    # the 5 battery reports, the 48 analyze-nlp and 24 analyze-sdp plants
    # of seed 7 with the benchmark's options, and edge payloads
    from test_stability import _benchmark_workloads

    docs = []
    for name in BATTERY_NAMES:
        problem, meta = kktstab.load_battery(name)
        rep = kktstab.equivalence_report(problem, meta.known_solution)
        docs.append((rep, "stability", 0, rep.tolerances))
        docs.append((rep.probe, "probe", None, None))
    workloads = _benchmark_workloads()
    for w in ("analyze-nlp", "analyze-sdp"):
        opts = workloads.analyzer_options(workloads.WORKLOADS[w], 7)
        for problem, meta in workloads.load(workloads.generate(workloads.WORKLOADS[w], 7)):
            rep = kktstab.equivalence_report(problem, meta.known_solution, opts)
            docs.append((rep, "stability", opts.seed, rep.tolerances))
    assert len(docs) == 10 + 72
    leaf = _Leaf(-0.0, (1, 2.5, "x", None), np.arange(6.0).reshape(2, 3))
    edge = {
        "reals": [float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, -0.0, 0.1],
        "empty": [[], {}, (), np.zeros(0), np.zeros((2, 0)), _Leaf(1.0, (), np.zeros(0))],
        "numpy": [np.float64(1.5), np.float32(0.1), np.int64(-3), np.uint8(7), np.bool_(True),
                  np.bool_(False), np.float64("nan"), np.float64("-inf")],
        "arrays": [np.array([True, False]), np.arange(3), np.array([[np.nan, np.inf]])],
        "text": ["sigma \u03c3 \u2014 lambda \u03bb \u00fc", "\u2028 \"quoted\" \\ \n\t", ""],
        "nested": _Node(leaf, [leaf, (leaf,)], {2: "two", "b": {"c": (True, None)}},
                        np.bool_(True)),
        1: "an int key", (2, 3): "a tuple key", "\u00e9": "a non-ASCII key",
    }
    docs += [(edge, "edge", 5, {"tol": np.float64(1e-8), "n": np.int32(4)}),
             ([], "empty", None, {}), ({}, "empty", None, None), (leaf, "leaf", None, None)]
    for payload, kind, seed, tolerances in docs:
        want = _dumps_oracle(payload, kind, seed, tolerances)
        assert dumps_report(payload, kind, seed, tolerances) == want, kind
    for bad in ({1, 2}, 1j, np.array(2.0), object(), _Leaf):
        with pytest.raises(TypeError):
            _dumps_oracle({"x": bad}, "bad")
        with pytest.raises(TypeError):
            dumps_report({"x": bad}, "bad")


def _battery_file(name):
    from kktstab import battery_path
    from importlib import resources
    with resources.as_file(battery_path(name)) as p:
        return str(p)


def test_cli_solve_exit_codes(tmp_path, capsys):
    rc = run_command(["solve", _battery_file("nlp_toy"), "--tol", "1e-10",
                      "--json", str(tmp_path / "s.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "converged" in out
    doc = load_report(tmp_path / "s.json")
    assert doc["kind"] == "newton"
    assert np.isclose(doc["payload"]["x"][0], 1.0, atol=1e-8)


def test_cli_solve_failure_lists_sigma_min_per_iteration(capsys):
    # the second of the unit directions from default_rng(0), 3.0 away from
    # the l1_toy solution: the solve stagnates on exactly singular elements,
    # at the second ridge step, which leaves the merit as it is
    problem, meta = load_battery("l1_toy")
    rng = np.random.default_rng(0)
    d = [rng.standard_normal(problem.n + problem.m) for _ in range(2)][1]
    start = meta.known_solution.stacked() + 3.0 * d / np.linalg.norm(d)
    rc = run_command(["solve", _battery_file("l1_toy"),
                      "--start", ",".join(repr(float(v)) for v in start)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "step does not lower the merit at residual 5.000e-01" in out
    lines = [line for line in out.splitlines() if line.lstrip().startswith("iter")]
    assert len(lines) == 2  # the start and one ridge step
    assert "sigma_min 0.000e+00" in lines[0]
    assert "sigma_min" not in lines[1]  # the flat step recorded no element


def test_cli_analyze_consistent_negative_instance(tmp_path, capsys):
    rc = run_command(["analyze", _battery_file("sdp_degenerate"),
                      "--num-delta", "10", "--json", str(tmp_path / "a.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "consistent" in out
    doc = load_report(tmp_path / "a.json")
    assert doc["payload"]["nondegeneracy"]["status"] == "fails"
    assert doc["payload"]["sweep"]["verdict"] == "singular-element-found"


def test_cli_probe(tmp_path, capsys):
    rc = run_command(["probe", _battery_file("l1_toy"), "--radius", "0.1",
                      "--num-delta", "10", "--json", str(tmp_path / "p.json")])
    capsys.readouterr()
    assert rc == 0
    doc = load_report(tmp_path / "p.json")
    assert doc["payload"]["violations"] == 0


def test_cli_usage_and_error_codes(tmp_path, capsys):
    assert run_command([]) == 64
    assert run_command(["bogus"]) == 64
    capsys.readouterr()
    assert run_command(["solve", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_cli_determinism_byte_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "a1.json", tmp_path / "a2.json"
    argv = ["analyze", _battery_file("nlp_toy"), "--seed", "3",
            "--num-delta", "10"]
    assert run_command(argv + ["--json", str(f1)]) == 0
    assert run_command(argv + ["--json", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_cli_verify_prox_suite(capsys):
    rc = run_command(["verify", "--suite", "prox"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_start_override(capsys):
    rc = run_command(["solve", _battery_file("nlp_toy"),
                      "--start", "1.6,0.9,0.4"])
    out = capsys.readouterr().out
    assert rc == 0 and "converged" in out
    rc = run_command(["solve", _battery_file("nlp_toy"), "--start", "1.0,2.0"])
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize("command, option, name, value", [
    ("solve", "--start", "smooth_toy", "-1,-1,-2"),
    ("analyze", "--at", "l1_toy", "-0,-0"),
    ("probe", "--at", "l1_toy", "-0.0,0"),
    ("solve", "--sta", "smooth_toy", "-1,-1,-2"),
])
def test_cli_point_with_a_negative_first_value_takes_either_form(tmp_path, capsys, command,
                                                                  option, name, value):
    # "--start -1,-1,-2" is "--start=-1,-1,-2", abbreviated or not: the same
    # exit code and the same --json dump; a point option with no value
    # stays a usage error
    dumps = []
    for form in ([option, value], [f"{option}={value}"]):
        path = tmp_path / f"{len(dumps)}.json"
        rc = run_command([command, _battery_file(name), *form, "--json", str(path)])
        dumps.append((rc, path.read_bytes()))
    capsys.readouterr()
    assert dumps[0] == dumps[1] and dumps[0][0] in (0, 2)
    for tail in ([option], [option, "--json", str(tmp_path / "x.json")]):
        assert run_command([command, _battery_file(name), *tail]) == 64
        assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("start, message", [
    ("1e308,1e308,1e308", "residual at the starting point is not finite"),
    ("1,1e200,1", "squared residual norm at the starting point overflows"),
])
def test_cli_start_with_an_overflowing_residual_is_one_line_error(capsys, start, message):
    rc = run_command(["solve", _battery_file("nlp_toy"), "--start", start])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


OVERFLOW = "error: the probe overflows at radius 1e+308; take a smaller radius\n"


@pytest.mark.parametrize("command", ["analyze", "probe"])
def test_cli_probe_whose_solutions_overflow_is_one_line_error(capsys, command):
    # at radius 1e308 every difference quotient of nlp_toy's probe is
    # inf / inf: the probe raises its overflow error, no numpy warning
    # reaches stderr, and no report reads leg c true
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_command([command, _battery_file("nlp_toy"), "--radius", "1e308"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == OVERFLOW
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("command", ["analyze", "probe"])
@pytest.mark.parametrize("name", ["sdp_toy", "beta2_pencil"])
def test_cli_psd_probes_that_overflow_are_one_line_errors(tmp_path, capsys, name, command):
    # at radius 1e308 the data of the local model's complementarity
    # problem overflows, at sdp_toy's B-derivative probe (|beta| = 1) and
    # at the conic probe of a strongly regular pencil with |beta| = 2: one
    # error line, with no numpy warning
    if name == "beta2_pencil":
        from test_stability import _benchmark_workloads
        data, _ = _benchmark_workloads().planted.psd_pencil(np.random.default_rng(0), 3, 0, 2,
                                                            True, True)
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(data))
    else:
        path = _battery_file(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_command([command, str(path), "--radius", "1e308"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == OVERFLOW
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_cli_env_var_default_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KKTSTAB_SEED", "17")
    f = tmp_path / "env.json"
    assert run_command(["probe", _battery_file("l1_toy"), "--num-delta", "5",
                        "--json", str(f)]) == 0
    capsys.readouterr()
    assert load_report(f)["seed"] == 17


def test_piece_spec_round_trip():
    from kktstab import parse_piece
    specs = [
        {"kind": "psd_indicator", "order": 3},
        {"kind": "orthant_indicator", "dim": 2, "sign": 1},
        {"kind": "box_indicator", "lower": [-1.0, 0.0], "upper": [1.0, 0.0]},
        {"kind": "l1_norm", "dim": 4},
        {"kind": "epi_lift", "inner": {"kind": "psd_indicator", "order": 2}},
    ]
    for spec in specs:
        assert parse_piece(spec).spec() == spec


def test_cli_piece_missing_key_is_one_line_error(tmp_path, capsys):
    data = _nlp_dict()
    data["g"] = [{"kind": "epi_lift", "inner": {"kind": "psd_indicator"}}]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    assert run_command(["solve", str(f)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "'order'" in err and "psd_indicator" in err
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_cli_piece_bad_value_is_one_line_error(tmp_path, capsys):
    data = _nlp_dict()
    data["g"][0]["inner"]["dim"] = [1]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    assert run_command(["solve", str(f)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "orthant_indicator" in err and "[1]" in err
    data["g"][0]["inner"]["sign"] = "minus"
    data["g"][0]["inner"]["dim"] = 1
    with pytest.raises(InstanceFormatError, match="'minus'"):
        instance_from_dict(data)
    # an inner piece's own error passes through the lift unchanged
    data["g"][0]["inner"] = {"kind": "no_such_kind"}
    with pytest.raises(InstanceFormatError) as exc:
        instance_from_dict(data)
    assert str(exc.value) == "unknown piece kind 'no_such_kind'"


@pytest.mark.parametrize("g", [
    [{"kind": "orthant_indicator", "dim": 3}, {"kind": "orthant_indicator", "dim": -1}],
    [{"kind": "epi_lift", "inner": {"kind": "psd_indicator", "order": -2}}],
    [{"kind": "orthant_indicator", "dim": 2.7}],
    [{"kind": "orthant_indicator", "dim": 2}, {"kind": "orthant_indicator", "dim": 0}],
])
def test_cli_piece_size_must_be_a_positive_integer(tmp_path, capsys, g):
    # each of these block lists sums to the map's two outputs once a bad
    # size is truncated or taken as is
    data = _nlp_dict()
    del data["known_solution"]
    data["g"] = g
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    assert run_command(["solve", str(f)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "must be an integer of at least 1" in err
    assert "piece 'orthant_indicator'" in err or "piece 'psd_indicator'" in err


def _malformed(path, value):
    data = _sdp_dict() if path[:2] == ("F", "builtin") else _nlp_dict()
    if not path:
        return value
    _set(data, path, value)
    return data


@pytest.mark.parametrize("path, value, message", [
    ((), None, "the instance must be a JSON object"),
    ((), 3, "the instance must be a JSON object"),
    (("F",), None, "field 'F' must be a JSON object"),
    (("g",), None, "field 'g' must be a JSON array"),
    (("F",), {"builtin": []}, "field 'F': builtin must be a JSON object"),
    (("F", "polynomial"), None, "field 'F': polynomial must be a JSON array"),
    (("F", "polynomial", 0), 3, "output 0 must be a JSON object"),
    (("n",), [1], "n must be an integer of at least 1, got [1]"),
    (("n",), 1.5, "n must be an integer of at least 1, got 1.5"),
    (("n",), True, "n must be an integer of at least 1, got True"),
    (("n",), "1", "n must be an integer of at least 1, got '1'"),
    (("n",), 0, "n must be an integer of at least 1, got 0"),
    (("n",), -1, "n must be an integer of at least 1, got -1"),
    (("F", "builtin", "params", "pencil_const"), 3,
     "pencil_const must be a square matrix, got shape ()"),
    (("F", "builtin", "params", "pencil_const"), [1.0, 0.0],
     "pencil_const must be a square matrix, got shape (2,)"),
    (("g", 0, "inner"), {"kind": "box_indicator", "lower": [np.inf], "upper": [np.inf]},
     "piece 'box_indicator' has an invalid value in {'lower': [inf], 'upper': [inf]}: "
     "the box is empty: a lower bound is +inf or an upper bound -inf"),
    (("g", 0, "inner"), {"kind": "box_indicator", "lower": [-np.inf], "upper": [-np.inf]},
     "piece 'box_indicator' has an invalid value in {'lower': [-inf], 'upper': [-inf]}: "
     "the box is empty: a lower bound is +inf or an upper bound -inf"),
    # a nested list is not a vector; the message names its field
    (("g", 0, "inner"), {"kind": "box_indicator", "lower": [[-1.0]], "upper": [[0.0]]},
     "piece 'box_indicator' has an invalid value in {'lower': [[-1.0]], 'upper': [[0.0]]}: "
     "lower must be a 1-d array, got shape (1, 1)"),
    (("g", 0, "inner"), {"kind": "box_indicator", "lower": [-1.0], "upper": [[0.0]]},
     "piece 'box_indicator' has an invalid value in {'lower': [-1.0], 'upper': [[0.0]]}: "
     "upper must be a 1-d array, got shape (1, 1)"),
    (("F", "polynomial", 0, "linear"), [[0.0]],
     "output 0: linear part must be a 1-d array, got shape (1, 1)"),
    (("known_solution", "x"), [[1.0]], "known_solution: x must be a 1-d array, got shape (1, 1)"),
    (("known_solution", "mu"), [[1.0, 1.0]],
     "known_solution: mu must be a 1-d array, got shape (1, 2)"),
    (("start",), {"x": [[2.0]], "mu": [1.0, 0.5]},
     "start: x must be a 1-d array, got shape (1, 1)"),
    (("start",), {"x": [2.0], "mu": [[1.0], [0.5]]},
     "start: mu must be a 1-d array, got shape (2, 1)"),
])
def test_cli_malformed_instance_shape_is_one_line_error(tmp_path, capsys, path, value, message):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(_malformed(path, value)))
    assert run_command(["solve", str(f)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {f}: {message}\n"
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        instance_from_dict(_malformed(path, value))


@pytest.mark.parametrize("key, value, message", [
    ("objective", None, "builtin map 'affine_pencil' is missing required key 'objective'"),
    ("pencil_coeff", None, "builtin map 'affine_pencil' is missing required key 'pencil_coeff'"),
    ("objective", 3, "objective must be a JSON object"),
    ("pencil_coeff", 3, "pencil_coeff must be a JSON array"),
    (None, None, "field 'F': builtin params must be a JSON object"),
])
def test_malformed_builtin_params_are_format_errors(key, value, message):
    data = _sdp_dict()
    params = data["F"]["builtin"]["params"]
    if key is None:
        data["F"]["builtin"]["params"] = []
    elif value is None:
        del params[key]
    else:
        params[key] = value
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        instance_from_dict(data)


def test_polynomial_is_not_a_builtin_map_id(tmp_path, capsys):
    # the polynomial map is the top-level key F.polynomial only
    data = _nlp_dict()
    data["F"] = {"builtin": {"id": "polynomial", "params": {"outputs": 3}}}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    assert run_command(["analyze", str(f)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {f}: unknown builtin map id 'polynomial'\n"


def test_integral_float_n_still_loads():
    data = _nlp_dict()
    data["n"] = 1.0
    problem, _ = instance_from_dict(data)
    assert problem.n == 1 and isinstance(problem.n, int)


def test_cli_non_integer_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("KKTSTAB_SEED", "abc")
    assert run_command(["probe", _battery_file("l1_toy"), "--num-delta", "5"]) == 64
    assert "KKTSTAB_SEED" in capsys.readouterr().err
    # an explicit --seed does not read the environment
    assert run_command(["probe", _battery_file("l1_toy"), "--num-delta", "5",
                        "--seed", "3"]) == 0


def test_cli_nonfinite_coefficient_is_one_line_error(tmp_path, capsys):
    data = _nlp_dict()
    data["F"]["polynomial"][0]["linear"] = [float("nan")]
    del data["known_solution"]
    f = tmp_path / "nan.json"
    f.write_text(json.dumps(data))
    assert run_command(["solve", str(f)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "linear" in err and "non-finite" in err


def _set(data, path, value):
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _sdp_dict():
    with open(_battery_file("sdp_toy"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("make,field", [
    (lambda: _set(_nlp_dict(), ["F", "polynomial", 1, "const"], float("inf")), "const"),
    (lambda: _set(_nlp_dict(), ["F", "polynomial", 0, "quadratic"], [[float("-inf")]]),
     "quadratic"),
    (lambda: _set(_nlp_dict(), ["known_solution", "x"], [float("nan")]), "known_solution: x"),
    (lambda: _set(_nlp_dict(), ["start"], {"x": [1.0], "mu": [1.0, float("inf")]}),
     "start: mu"),
    (lambda: _set(_sdp_dict(), ["F", "builtin", "params", "pencil_coeff", 0, 1, 1],
                  float("nan")), "pencil_coeff[0]"),
    (lambda: _set(_sdp_dict(), ["F", "builtin", "params", "pencil_const", 0, 0],
                  float("inf")), "pencil_const"),
    (lambda: _set(_sdp_dict(), ["F", "builtin", "params", "objective", "linear"],
                  [float("nan")]), "objective: linear"),
])
def test_loader_rejects_nonfinite_numbers(make, field):
    with pytest.raises(InstanceFormatError) as exc:
        instance_from_dict(make())
    assert field in str(exc.value)


def test_loader_box_bounds_may_be_infinite_but_not_nan():
    data = _nlp_dict()
    data["g"] = [{"kind": "epi_lift", "inner": {"kind": "box_indicator",
                                                "lower": [float("-inf")], "upper": [0.0]}}]
    instance_from_dict(data)
    data["g"][0]["inner"]["lower"] = [float("nan")]
    with pytest.raises(ValueError, match="NaN"):
        instance_from_dict(data)


def _poly_dict(n: int, outputs: list) -> dict:
    return {"name": "poly", "n": n, "F": {"polynomial": outputs},
            "g": [{"kind": "l1_norm", "dim": len(outputs)}]}


def _dense_polynomial(n: int, outputs: list):
    """The oracle: value, Jacobian and weighted Hessian of the polynomial
    map by the dense per-output formulas, with a zero matrix for each
    output without a quadratic."""
    c0 = np.array([float(out.get("const", 0.0)) for out in outputs])
    A = np.array([np.asarray(out.get("linear", np.zeros(n)), dtype=float) for out in outputs])
    quads = [0.5 * (Q + Q.T) for Q in (np.asarray(out.get("quadratic", np.zeros((n, n))),
                                                  dtype=float) for out in outputs)]

    def whess(mu):
        H = np.zeros((n, n))
        for mi, Q in zip(mu, quads):
            if mi != 0.0:
                H = H + mi * Q
        return 0.5 * (H + H.T)

    return (lambda x: c0 + A @ x + 0.5 * np.array([x @ Q @ x for Q in quads]),
            lambda x: A + np.array([Q @ x for Q in quads]), whess)


def test_polynomial_map_has_the_bits_of_the_dense_per_output_formulas():
    # outputs without a quadratic, with an explicit zero one, with an
    # antisymmetric one (whose symmetrization is 0), and curved ones; signed
    # zeros in the data and points with negative and all-negative coordinates
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8, 20):
        for trial in range(4):
            outputs = []
            for k in range(2 * n + 3):
                out = {"const": float(rng.choice([0.0, -0.0, rng.standard_normal()])),
                       "linear": (rng.standard_normal(n) * rng.integers(0, 2, n)).tolist()}
                shape = k % 5
                if shape == 1:
                    out["quadratic"] = np.zeros((n, n)).tolist()
                elif shape == 2:
                    S = rng.standard_normal((n, n))
                    out["quadratic"] = (S - S.T).tolist()
                elif shape == 3:
                    out["quadratic"] = rng.standard_normal((n, n)).tolist()
                elif shape == 4:
                    Q = np.zeros((n, n))
                    Q[rng.integers(n), rng.integers(n)] = -rng.uniform(1.0, 2.0)
                    out["quadratic"] = Q.tolist()
                if trial == 3 and k % 2:
                    del out["linear"]
                outputs.append(out)
            problem, _ = instance_from_dict(_poly_dict(n, outputs))
            value, jac, whess = _dense_polynomial(n, outputs)
            points = [rng.standard_normal(n), -np.abs(rng.standard_normal(n)), -np.zeros(n),
                      -1e150 * rng.uniform(1.0, 2.0, n)]
            for x in points:
                mu = rng.standard_normal(len(outputs)) * rng.integers(0, 2, len(outputs))
                assert problem.F.eval(x).tobytes() == value(x).tobytes(), (n, trial, x)
                assert problem.F.jacobian(x).tobytes() == jac(x).tobytes(), (n, trial, x)
                assert (problem.F.weighted_hessian(x, mu).tobytes()
                        == whess(mu).tobytes()), (n, trial, x)


@pytest.mark.parametrize("quadratic, error, message", [
    ([[float("nan")]], InstanceFormatError, "output 1: quadratic part has a non-finite entry"),
    ([[0.0, float("inf")], [0.0, 0.0]], InstanceFormatError,
     "output 1: quadratic part has a non-finite entry"),
    (None, InstanceFormatError, "output 1: quadratic part has a non-finite entry"),
    ([[0.0, 0.0], [0.0, 0.0]], DimensionError,
     "output 1: quadratic part has shape (2, 2), expected (1, 1)"),
    ([[1.0, 0.0], [0.0, 2.0]], DimensionError,
     "output 1: quadratic part has shape (2, 2), expected (1, 1)"),
    (0.0, DimensionError, "output 1: quadratic part has shape (), expected (1, 1)"),
    ([0.0], DimensionError, "output 1: quadratic part has shape (1,), expected (1, 1)"),
    ([[0.0], [0.0, 0.0]], ValueError, "inhomogeneous"),
])
def test_a_bad_quadratic_is_a_loader_error_zero_or_not(quadratic, error, message):
    data = _nlp_dict()
    data["F"]["polynomial"][1]["quadratic"] = quadratic
    with pytest.raises(error, match=re.escape(message)):
        instance_from_dict(data)


def test_cli_eigendecomposition_error_exits_1(capsys, monkeypatch):
    import kktstab.pieces
    from kktstab import EigenDecompositionError

    def failing_split(*args, **kwargs):
        raise EigenDecompositionError("eigendecomposition failed for 2x2 matrix")

    monkeypatch.setattr(kktstab.pieces, "eig_split", failing_split)
    assert run_command(["analyze", _battery_file("sdp_toy")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "eigendecomposition failed" in err


def test_cli_infinite_curvature_exits_1(capsys, monkeypatch):
    import kktstab.pieces

    # a negative residual tolerance puts every critical direction outside
    # the curvature domain, so ssosc_check's domain guard raises
    monkeypatch.setattr(kktstab.pieces, "DOM_RESIDUAL_TOL", -1.0)
    assert run_command(["analyze", _battery_file("smooth_toy"), "--num-delta", "2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "curvature is infinite" in err


@pytest.mark.parametrize("sign", [-1.7, 1.2, True, "1"])
def test_cli_orthant_sign_must_be_plus_or_minus_one(tmp_path, capsys, sign):
    data = _nlp_dict()
    data["g"][0]["inner"]["sign"] = sign
    with pytest.raises(InstanceFormatError, match="sign must be"):
        instance_from_dict(data)
    f = tmp_path / "bad_sign.json"
    f.write_text(json.dumps(data))
    assert run_command(["solve", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"sign must be +1 or -1, got {sign!r}" in err


def test_orthant_sign_accepts_integral_plus_or_minus_one():
    for sign in (1, -1, 1.0, -1.0):
        piece = parse_piece({"kind": "orthant_indicator", "dim": 2, "sign": sign})
        assert piece.sign == sign and type(piece.sign) is int


def test_cli_analyze_checks_the_point_at_tol(capsys):
    # off the known solution by 3e-7: a KKT point at 1e-6 but not at 1e-8
    point = "1.0000003,1.0,1.0"
    assert run_command(["analyze", _battery_file("nlp_toy"), "--tol", "1e-6",
                        "--at", point, "--num-delta", "10"]) == 0
    out = capsys.readouterr().out
    assert "consistency    : consistent" in out
    assert run_command(["analyze", _battery_file("nlp_toy"), "--at", point,
                        "--num-delta", "10"]) == 1
    assert "not a KKT point at tolerance 1.0e-08" in capsys.readouterr().err


def test_cli_analyze_accepts_a_point_kkt_check_accepts(tmp_path, capsys):
    # each coordinate of the orthant block's fixed-point residual is 0.9e-8,
    # so its max-norm passes kkt_check at 1e-8 while its 2-norm, 1.8e-8, is
    # over tol (1 + |xbar|); the block's subgradient test uses the max-norm
    data = {
        "name": "orthant_near_kink",
        "n": 4,
        "F": {"polynomial": [{"const": 0.0, "linear": list(row)} for row in np.eye(4)]},
        "g": [{"kind": "orthant_indicator", "dim": 4}],
        "known_solution": {"x": [0.9e-8] * 4, "mu": [0.0] * 4},
    }
    f = tmp_path / "orthant_near_kink.json"
    f.write_text(json.dumps(data))
    assert run_command(["analyze", str(f), "--num-delta", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "consistency    : consistent" in captured.out


def test_cli_probe_checks_the_point_at_tol(capsys):
    # off the known solution by 3e-7: a KKT point at 1e-6 but not at 1e-8
    point = "1.0000003,1.0,1.0"
    assert run_command(["probe", _battery_file("nlp_toy"), "--tol", "1e-6",
                        "--at", point, "--num-delta", "10"]) == 0
    assert "failures 0, uniqueness violations 0" in capsys.readouterr().out
    assert run_command(["probe", _battery_file("nlp_toy"), "--at", point,
                        "--num-delta", "10"]) == 1
    assert "not a KKT point at tolerance 1.0e-08" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["probe", "analyze"])
@pytest.mark.parametrize("option, value, message", [
    ("--num-delta", "-3", "num_delta must be an integer of at least 0, got -3"),
    ("--radius", "-1", "radius must be a finite positive number, got -1.0"),
    ("--radius", "nan", "radius must be a finite positive number, got nan"),
    ("--radius", "inf", "radius must be a finite positive number, got inf"),
])
def test_cli_probe_arguments_are_one_line_errors(capsys, command, option, value, message):
    assert run_command([command, _battery_file("nlp_toy"), option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("option, value", [("--tol", "nan"), ("--tol", "-1"),
                                           ("--max-iter", "0")])
def test_cli_solve_rejects_bad_newton_options(capsys, option, value):
    assert run_command(["solve", _battery_file("nlp_toy"), option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["probe", "analyze"])
@pytest.mark.parametrize("option, value, message", [
    ("--tol", "inf", "tol must be a finite positive number, got inf"),
    ("--tol", "0", "tol must be a finite positive number, got 0.0"),
    ("--tol", "-1", "tol must be a finite positive number, got -1.0"),
    ("--tol", "nan", "tol must be a finite positive number, got nan"),
    ("--at", "nan,1,1", "point must be finite"),
    ("--at", "1,1,inf", "point must be finite"),
])
def test_cli_tolerance_and_point_are_one_line_errors(capsys, command, option, value,
                                                      message):
    # --tol inf used to print an "inconsistent" report and exit 2, --tol 0
    # was accepted, and --tol -1 or nan blamed the point
    assert run_command([command, _battery_file("nlp_toy"), option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_analyze_has_no_samples_option(capsys):
    # the element sweep samples no element, so the option had no effect
    assert run_command(["analyze", _battery_file("nlp_toy"), "--samples", "32"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unrecognized arguments: --samples 32\n")


@pytest.mark.parametrize("command", ["solve", "analyze", "probe", "verify"])
def test_cli_negative_seed_is_a_usage_error(capsys, monkeypatch, command):
    argv = [command] if command == "verify" else [command, _battery_file("nlp_toy")]
    assert run_command(argv + ["--seed", "-1"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be an integer of at least 0, got -1\n")
    assert "Traceback" not in err
    monkeypatch.setenv("KKTSTAB_SEED", "-3")
    assert run_command(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: KKTSTAB_SEED must be an integer of at least 0, got '-3'\n")
