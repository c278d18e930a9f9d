import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heckemod import Weight, partition_shape, shape_from_json, shape_to_json, tableau_from_json, weight_to_json
from heckemod.classify import ADJACENT_EQUAL, ConditionViolation
from heckemod.cli import _SHAPES_MAX_COUNT, console_main, main
from heckemod.shapes import _ShapeContext, shape_count


@pytest.fixture
def shape_file(tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(shape_to_json(partition_shape(1, [[2, 1]]))))
    return str(path)


def write_weight(tmp_path, a, b, ell):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(weight_to_json(Weight(tuple(a), tuple(b)), ell)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_shapes(capsys):
    code, out = run(capsys, ["shapes", "--ell", "1", "--n", "3", "--window", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8 and len(data["shapes"]) == 8
    assert all(shape_from_json(s).n == 3 for s in data["shapes"])
    # more colors than Python's default recursion limit
    code, out = run(capsys, ["shapes", "--ell", "1100", "--n", "1", "--window", "0"])
    assert code == 0 and json.loads(out)["count"] == 1100


def test_syt(capsys, shape_file):
    code, out = run(capsys, ["syt", "--shape", shape_file])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["hook_dimension"] == 2
    tabs = [tableau_from_json(t) for t in data["tableaux"]]
    assert len(set(tabs)) == 2


def test_syt_skew_has_no_hook_number(capsys, tmp_path):
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({
        "ell": 1,
        "components": [{"beta": 0, "offset": "0",
                        "cells": [[1, 1], [2, 0], [2, -1]]}]}))
    code, out = run(capsys, ["syt", "--shape", str(path)])
    assert code == 0
    data = json.loads(out)
    assert "hook_dimension" not in data
    assert data["count"] == 2


def test_build(capsys, shape_file):
    code, out = run(capsys, ["build", "--shape", shape_file])
    assert code == 0
    data = json.loads(out)
    assert (data["ell"], data["n"], data["dim"]) == (1, 3, 2)
    assert "mat_s" not in data
    code, out = run(capsys, ["build", "--shape", shape_file, "--dump-matrices"])
    data = json.loads(out)
    assert len(data["mat_s"]) == 2
    code, out = run(capsys, ["build", "--shape", shape_file, "--dense"])
    data = json.loads(out)
    assert data["mat_s"][1][0][1] == {"ell": 1, "coeffs": ["3/4"]}


def test_verify(capsys, shape_file):
    code, out = run(capsys, ["verify", "--shape", shape_file])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["relations"]["ok"] is True
    assert "commutant_dimension" not in data
    code, out = run(capsys, ["verify", "--shape", shape_file,
                             "--intertwiners", "--jm", "--commutant"])
    data = json.loads(out)
    assert data["commutant_dimension"] == 1
    assert data["irreducible"] is True
    assert data["intertwiners"]["ok"] and data["jucys_murphy"]["ok"]


def test_classify_accept(capsys, tmp_path):
    weight_file = write_weight(tmp_path, [0, 1, -1], [0, 0, 0], 1)
    code, out = run(capsys, ["classify", "--weight", weight_file])
    assert code == 0
    data = json.loads(out)
    assert shape_from_json(data["shape"]) == partition_shape(1, [[2, 1]])
    assert tableau_from_json(data["tableau"]).labels == ((1, 2, 3),)


def test_classify_reject(capsys, tmp_path):
    weight_file = write_weight(tmp_path, [0, -1, 0], [0, 0, 0], 1)
    code, out = run(capsys, ["classify", "--weight", weight_file])
    assert code == 2
    data = json.loads(out)
    assert data["rejected"]["kind"] == "MissingUpStep"
    assert data["rejected"]["i"] == 1 and data["rejected"]["j"] == 3
    assert data["rejected"]["required_a"] == "1"


@pytest.mark.parametrize("a, rejected", [
    ([0, 0], {"kind": "AdjacentEqual", "i": 1, "j": 2}),
    ([0, 1, 0], {"kind": "MissingDownStep", "i": 1, "j": 3, "required_a": "-1"}),
])
def test_classify_rejects_each_kind(capsys, tmp_path, a, rejected):
    weight_file = write_weight(tmp_path, a, [0] * len(a), 1)
    code, out = run(capsys, ["classify", "--weight", weight_file])
    assert code == 2
    assert out == json.dumps({"rejected": rejected}, indent=2) + "\n"


def test_classify_refuses_a_rational_too_long_to_write(capsys, tmp_path):
    # 10**4300 has one digit more than Python writes: refused when read, so
    # no partial document reaches stdout
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"ell": 1, "a": ["1e4300"], "b": [0]}))
    assert main(["classify", "--weight", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: malformed input: ValueError(\"weight field 'a' must be a "
                            "rational (an integer or a string such as -3/2), got '1e4300'\")\n")


def test_classify_refuses_an_offset_too_long_to_write(capsys, tmp_path):
    # 10**-4299 is read, but at ell = 10 its component offset has a
    # denominator of 4 301 digits: refused before any output, naming the entry
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"ell": 10, "a": ["0", "1e-4299"], "b": [0, 0]}))
    assert main(["classify", "--weight", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: malformed input: ValueError(\"weight field 'a[1]': its "
                            "content offset has a denominator too long to write\")\n")


def test_classify_no_addable_position_is_an_internal_fault(capsys, tmp_path, monkeypatch):
    # a condition-passing weight always reconstructs, so the raise is reached
    # only with the condition check switched off: [0, 0] then puts label 2
    # below label 1 with no box to its left
    monkeypatch.setattr("heckemod.classify._first_violation", lambda entries, ell: None)
    weight_file = write_weight(tmp_path, [0, 0], [0, 0], 1)
    assert main(["classify", "--weight", weight_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal verification failure: reconstruct: label 2:" in captured.err


def test_twist_condition_failure_is_an_internal_fault(capsys, shape_file, monkeypatch):
    # the weights of a twisted module always reconstruct, so a failed
    # condition there is reached only with the condition check forced to fail
    violation = ConditionViolation(ADJACENT_EQUAL, 1, 2)
    monkeypatch.setattr("heckemod.classify._first_violation", lambda entries, ell: violation)
    assert main(["twist", "--shape", shape_file, "--rho"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal verification failure: ")


def test_build_module_degenerate_pair_is_an_internal_fault(capsys, shape_file, monkeypatch):
    # standardness puts consecutive labels with a content difference in
    # {0, +-1} in row or column neighbours, so the raise is reached only with
    # the neighbour sets emptied: labels 1, 2 then share a row with d = 1
    class Unblocked(_ShapeContext):
        def __init__(self, shape):
            super().__init__(shape)
            self.blocked = [set() for _ in self.blocked]

    # the shape read from the file builds its context on first use, here
    monkeypatch.setattr("heckemod.shapes._ShapeContext", Unblocked)
    assert main(["build", "--shape", shape_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal verification failure: build_module: content difference 1 " in captured.err


def test_unexpected_exception_is_an_internal_fault(capsys, shape_file, monkeypatch):
    # only ValueError is malformed input; anything else is the program's fault
    def broken(shape):
        raise KeyError("boom")

    monkeypatch.setattr("heckemod.shapes.enumerate_syt", broken)
    assert main(["syt", "--shape", shape_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal fault in 'syt': KeyError('boom')\n"


def test_twist(capsys, shape_file):
    code, out = run(capsys, ["twist", "--shape", shape_file, "--t", "1/2"])
    assert code == 0
    data = json.loads(out)
    twisted = shape_from_json(data["twisted_shape"])
    assert twisted.components[0].offset == Fraction(1, 2)
    code, out = run(capsys, ["twist", "--shape", shape_file, "--rho"])
    assert code == 0
    data = json.loads(out)
    assert data["automorphism"] == {"kind": "rho"}
    # [2,1] is self-conjugate under rho up to canonical form
    assert shape_from_json(data["twisted_shape"]).n == 3


def test_twist_requires_exactly_one_automorphism(capsys, shape_file):
    assert main(["twist", "--shape", shape_file]) == 1
    assert main(["twist", "--shape", shape_file, "--t", "1", "--rho"]) == 1
    capsys.readouterr()


def test_jm_check(capsys, shape_file, tmp_path):
    code, out = run(capsys, ["jm-check", "--shape", shape_file])
    assert code == 0
    assert json.loads(out)["ok"] is True
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps({
        "ell": 1,
        "components": [{"beta": 0, "offset": "0",
                        "cells": [[1, 1], [2, 0], [2, -1]]}]}))
    assert main(["jm-check", "--shape", str(skew)]) == 2
    capsys.readouterr()


def test_suite(capsys):
    code, out = run(capsys, ["suite", "--ell", "1", "--max-n", "2"])
    assert code == 0
    assert "relations" in out and "fail" not in out
    assert out.count("pass") >= 10


def test_exit_codes_for_bad_input(capsys, tmp_path):
    # missing file
    assert main(["syt", "--shape", str(tmp_path / "missing.json")]) == 1
    # malformed json
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["syt", "--shape", str(garbled)]) == 1
    # json that is not a shape
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"ell": 1, "components": []}))
    assert main(["syt", "--shape", str(empty)]) == 2
    # mathematically invalid shape
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "ell": 1,
        "components": [{"beta": 0, "offset": "0", "cells": [[1, 0], [1, 2]]}]}))
    assert main(["syt", "--shape", str(broken)]) == 2
    assert main(["build", "--shape", str(broken)]) == 2
    # weight fields that are not integers as the format requires
    for field, bad in (("b", {"ell": 2, "a": ["0", "1"], "b": [True, 0]}),
                       ("ell", {"ell": 0, "a": ["0"], "b": [0]}),
                       ("ell", {"ell": -1, "a": ["0"], "b": [0]}),
                       ("ell", {"ell": True, "a": ["0"], "b": [0]}),
                       # containers that are not JSON arrays
                       ("a", {"ell": 1, "a": "01", "b": [0, 0]}),
                       ("a", {"ell": 2, "a": {"0": 1, "2": 1}, "b": [0, 0]}),
                       ("b", {"ell": 1, "a": ["0", "1"], "b": "00"}),
                       ("b", {"ell": 1, "a": ["0"], "b": {"0": 0}}),
                       # a required field that is missing
                       ("a", {"ell": 1, "b": [0]}),
                       # rationals that are inexact, not numbers or not finite
                       ("a", {"ell": 1, "a": [0.5], "b": [0]}),
                       ("a", {"ell": 1, "a": [float("nan")], "b": [0]}),
                       ("a", {"ell": 1, "a": [float("inf")], "b": [0]}),
                       ("a", {"ell": 1, "a": [True], "b": [0]}),
                       ("a", {"ell": 1, "a": ["1/0"], "b": [0]}),
                       ("a", {"ell": 1, "a": ["x"], "b": [0]})):
        weight = tmp_path / "bad_weight.json"
        weight.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["classify", "--weight", str(weight)]) == 1
        assert f"'{field}'" in capsys.readouterr().err
    # shape fields that are not integers as the format requires
    cell = {"beta": 0, "offset": "0", "cells": [[1, 0]]}
    for field, bad in (("ell", {"ell": -1, "components": [cell]}),
                       ("ell", {"ell": 1.5, "components": [cell]}),
                       ("ell", {"ell": True, "components": [cell]}),
                       ("beta", {"ell": 1, "components": [{**cell, "beta": False}]}),
                       ("cells", {"ell": 1,
                                  "components": [{**cell, "cells": [[True, 0]]}]}),
                       # containers that are not JSON arrays, cells that are
                       # not [row, content] pairs
                       ("components", {"ell": 1, "components": cell}),
                       ("cells", {"ell": 1, "components": [{**cell, "cells": "10"}]}),
                       ("cells", {"ell": 1, "components": [{**cell, "cells": [[1]]}]}),
                       ("cells", {"ell": 1, "components": [{**cell, "cells": [[1, 0, 0]]}]}),
                       ("cells", {"ell": 1, "components": [{**cell, "cells": [10]}]}),
                       ("cells", {"ell": 1, "components": [{**cell, "cells": {"1": 0}}]}),
                       # a cell listed twice is not read as one box
                       ("cells", {"ell": 1, "components": [{**cell, "cells": [[1, 0], [1, 0]]}]}),
                       # a required field that is missing
                       ("offset", {"ell": 1, "components": [{"beta": 0, "cells": [[1, 0]]}]}),
                       # offsets that are inexact, not numbers or not finite
                       ("offset", {"ell": 1, "components": [{**cell, "offset": 0.25}]}),
                       ("offset", {"ell": 1, "components": [{**cell, "offset": float("nan")}]}),
                       ("offset", {"ell": 1, "components": [{**cell, "offset": float("-inf")}]}),
                       ("offset", {"ell": 1, "components": [{**cell, "offset": False}]}),
                       ("offset", {"ell": 1, "components": [{**cell, "offset": "1/0"}]}),
                       ("offset", {"ell": 1, "components": [{**cell, "offset": "x"}]})):
        shape = tmp_path / "bad_shape.json"
        shape.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify", "--shape", str(shape)]) == 1
        assert f"'{field}'" in capsys.readouterr().err
    # documents and components that are not JSON objects
    for command, bad in (("classify", [2, ["0"], [0]]),
                         ("verify", [1, [cell]]),
                         ("verify", {"ell": 1, "components": [5]})):
        path = tmp_path / "not_an_object.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        flag = "--weight" if command == "classify" else "--shape"
        assert main([command, flag, str(path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err
    # usage problems
    capsys.readouterr()
    assert main(["shapes", "--ell", "1", "--n", "3", "--window", "-3"]) == 1
    assert "argument --window:" in capsys.readouterr().err
    assert main(["shapes", "--ell", "1", "--n", "3"]) == 1
    for kappa in ("1/0", "x", "nan"):
        assert main(["twist", "--shape", str(broken), "--t", kappa]) == 1
        assert "argument --t:" in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("field, value, message", [
    ("beta", False, "shape field 'beta' must be an integer, got False"),
    ("cells", [[1.5, 0]], "shape field 'cells' needs [row, content] integer pairs, "
                          "got [[1.5, 0]]"),
    ("offset", 0.25, "shape field 'offset' must be a rational (an integer or a string "
                     "such as -3/2), got 0.25"),
    ("offset", "1e4300", "shape field 'offset' must be a rational (an integer or a string "
                         "such as -3/2), got '1e4300'"),
])
def test_shape_field_messages(capsys, tmp_path, field, value, message):
    # the library reader owns these rules; the CLI words them as before
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"ell": 1, "components": [
        {"beta": 0, "offset": "0", "cells": [[1, 0]], field: value}]}))
    assert main(["build", "--shape", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed input: ValueError({message!r})\n"


def test_degenerate_shape_is_rejected(capsys, tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({
        "ell": 1,
        "components": [
            {"beta": 0, "offset": "0", "cells": [[1, 0]]},
            {"beta": 0, "offset": "0", "cells": [[1, 1]]}]}))
    assert main(["build", "--shape", str(path)]) == 2
    capsys.readouterr()


def test_console_main_raises_system_exit(capsys, shape_file):
    with pytest.raises(SystemExit) as exc:
        console_main(["syt", "--shape", shape_file])
    assert exc.value.code == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, flag", [
    (["shapes", "--ell", "0", "--n", "2", "--window", "2"], "--ell"),
    (["shapes", "--ell", "1", "--n", "-1", "--window", "2"], "--n"),
    (["shapes", "--ell", "1", "--n", "0", "--window", "2"], "--n"),
    (["shapes", "--ell", "two", "--n", "2", "--window", "2"], "--ell"),
    (["suite", "--ell", "0", "--max-n", "2"], "--ell"),
    (["suite", "--ell", "1", "--max-n", "0"], "--max-n"),
    # suite builds every shape, so its ell is capped at 16
    (["suite", "--ell", "17", "--max-n", "1"], "--ell"),
    # shapes lists every shape, so it refuses more than its cap
    (["shapes", "--ell", "100003", "--n", "2", "--window", "2"], "--ell"),
])
def test_sizes_below_one_are_usage_errors(capsys, argv, flag):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err


def test_shapes_names_the_count_and_the_cap(capsys):
    # the count comes before any shape is built, so a huge ell is refused at once
    assert main(["shapes", "--ell", "1009", "--n", "2", "--window", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "give 511563 shapes" in captured.err
    assert f"more than the {_SHAPES_MAX_COUNT} that shapes lists" in captured.err
    assert shape_count(1100, 1, 0) <= _SHAPES_MAX_COUNT < shape_count(1009, 2, 2)


# ---------------------------------------------------------------------------
# fuzzing the JSON boundary

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 4), st.floats(),
                     st.sampled_from(["0", "1/2", "-1", "2/3", "x", "1/0", ""]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["ell", "a", "b", "beta", "offset", "cells", "components"]),
        inner, max_size=3),
    max_leaves=8)


def _mostly(good):
    """``good`` nine times in ten, else any JSON value."""
    return st.integers(0, 9).flatmap(lambda k: good if k else _JSON)


# mostly well-formed documents, with any field open to any JSON value; at most
# two components of three cells keep every module small
_CELLS = st.sampled_from([[[1, 0]], [[1, 0], [1, 1]], [[1, 0], [2, -1]],
                          [[1, 0], [1, 1], [2, -1]], [[1, 1], [2, 0], [2, -1]]]) | st.lists(
    _mostly(st.tuples(st.integers(0, 3), st.integers(-2, 3)).map(list)), max_size=3)
_COMPONENT = st.fixed_dictionaries({
    "beta": _mostly(st.integers(0, 2)),
    "offset": _mostly(st.sampled_from(["0", "1/2", "1/3", 1, 2])),
    "cells": _mostly(_CELLS)})
_SHAPE = _mostly(st.fixed_dictionaries({
    "ell": _mostly(st.integers(1, 3)),
    "components": _mostly(st.lists(_mostly(_COMPONENT), min_size=1, max_size=2))}))
_WEIGHT = _mostly(st.fixed_dictionaries({
    "ell": _mostly(st.integers(1, 3)),
    "a": _mostly(st.lists(_mostly(st.sampled_from(["0", "1", "-1", "1/2", "2", 3])),
                          max_size=5)),
    "b": _mostly(st.lists(_mostly(st.integers(0, 2)), max_size=5))}))
_COMMANDS = {
    "syt": ["--shape"], "build": ["--dump-matrices", "--shape"],
    "verify": ["--intertwiners", "--jm", "--commutant", "--shape"],
    "classify": ["--weight"], "twist": ["--rho", "--shape"], "jm-check": ["--shape"],
}


@given(st.sampled_from(sorted(_COMMANDS)), st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_documents_exit_with_a_reason(capsys, tmp_path, command, data):
    # an exit code of 3 or an uncaught exception would be a fault of the
    # program; every refusal says why on stderr, or, for classify's
    # mathematical rejection, as the witness on stdout
    document = data.draw(_WEIGHT if command == "classify" else _SHAPE)
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    capsys.readouterr()
    code = main([command, *_COMMANDS[command], str(path)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (document, captured.err)
    assert "Traceback" not in captured.err
    if code:
        assert captured.err or (command == "classify" and code == 2
                                and "rejected" in json.loads(captured.out))


def test_shapes_builds_the_catalogue_once(capsys, monkeypatch):
    # the count and the list read one catalogue
    from heckemod import shapes

    built = []
    catalogue = shapes._one_coordinate_catalog

    def counted(n, window):
        built.append((n, window))
        return catalogue(n, window)

    monkeypatch.setattr(shapes, "_one_coordinate_catalog", counted)
    code, out = run(capsys, ["shapes", "--ell", "2", "--n", "4", "--window", "3"])
    assert code == 0 and built == [(4, 3)]
    assert json.loads(out)["count"] == shape_count(2, 4, 3) == len(shapes.enumerate_shapes(2, 4, 3))


def test_suite_reports_a_central_character_failure(capsys, monkeypatch):
    # central characters are scalar on every built module, so the FAIL row
    # is reached only with one evaluation forced to refuse
    from heckemod import modules
    from heckemod.errors import NotScalar

    character = modules.central_character

    def refuse_one(module):
        if module.n == 2 and module.dim == 2:
            raise NotScalar("forced")
        return character(module)

    monkeypatch.setattr(modules, "central_character", refuse_one)
    code, out = run(capsys, ["suite", "--ell", "1", "--max-n", "2"])
    assert code == 3
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "central_character  2       3  FAIL (1)", "suite: FAIL (ell=1, n<=2)"]


def test_twist_to_several_shapes_is_an_internal_fault(capsys, shape_file, monkeypatch):
    # the weights of a twisted simple module classify to one shape, so the
    # refusal is reached only with each weight classified to itself
    monkeypatch.setattr("heckemod.classify.reconstruct", lambda weight, ell: (weight, None))
    assert main(["twist", "--shape", shape_file, "--rho"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal verification failure: twisted module weights "
                            "classify to several shapes\n")


def test_python_dash_m_runs_the_suite():
    import os
    import subprocess
    import sys

    import heckemod

    src = os.path.dirname(os.path.dirname(os.path.abspath(heckemod.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "heckemod", "suite", "--ell", "1", "--max-n", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines()[-1] == "suite: pass (ell=1, n<=2)"
