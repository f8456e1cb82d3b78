import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from choifactor import (
    FileFormatError,
    PairSumMap,
    dumps,
    load_map_file,
    map_doc,
    make_factor,
    parse_map_file,
    transfer,
    transpose_map,
)
import choifactor
from choifactor.cli import main
from helpers import small_weight_elements

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_dumps_is_compact_and_ordered():
    doc = {"b": [1.5, 2], "a": {"x": True, "y": None}}
    assert dumps(doc) == '{"b":[1.5,2],"a":{"x":true,"y":null}}'


def test_dumps_float_seventeen_digits():
    text = dumps({"v": 1.0 / 3.0})
    assert json.loads(text)["v"] == 1.0 / 3.0
    assert dumps({"v": -0.0}) == '{"v":0}'


def test_dumps_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps({"v": float("nan")})


def test_cli_spectral_decomposes_an_element_at_a_small_weight(tmp_path):
    # n^2 terms whose frames span all of M_{n^2}, at the weights [1e-8, 1]
    t = small_weight_elements(2, count=1)[0]
    path = tmp_path / "small_weight.json"
    path.write_text(dumps(map_doc(PairSumMap(2, np.stack((t.a, t.b), axis=1)), t.rep)),
                    encoding="utf-8")
    code, out, err = run_cli(["spectral", str(path)])
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 4


def test_pretty_and_compact_agree():
    code, compact, _ = run_cli(["choi", str(DATA / "identity.json")])
    code2, pretty, _ = run_cli(["choi", str(DATA / "identity.json"), "--pretty"])
    assert code == code2 == 0
    assert json.loads(compact) == json.loads(pretty)
    assert "\n  " in pretty


def test_map_doc_roundtrip():
    rep = make_factor(2, [0.25, 0.75])
    phi = transpose_map(2)
    doc = map_doc(phi, rep)
    phi2, rep2 = parse_map_file(json.loads(dumps(doc)))
    assert np.abs(transfer(phi2) - transfer(phi)).max() < 1e-15
    assert rep2.same_as(rep)


def test_parse_rejects_bad_documents():
    with pytest.raises(FileFormatError):
        parse_map_file([1, 2])
    with pytest.raises(FileFormatError):
        parse_map_file({"n": 1, "terms": []})
    with pytest.raises(FileFormatError):
        parse_map_file({"n": True, "terms": []})
    with pytest.raises(FileFormatError):  # too long for a float
        parse_map_file({"n": 10**400, "terms": []})
    # an n^2 x n^2 complex operator numpy cannot index: 16 n^4 bytes above
    # the largest np.intp; the largest n below that bound is read
    largest = math.isqrt(math.isqrt(np.iinfo(np.intp).max // 16))
    for n in (largest + 1, 100000, 10**13):
        with pytest.raises(FileFormatError, match="too large"):
            parse_map_file({"n": n, "terms": []})
    assert parse_map_file({"n": largest, "terms": []})[0].n == largest
    with pytest.raises(FileFormatError):
        parse_map_file({"n": 2, "terms": [{"A": [[1, 2], [3, 4]]}]})
    with pytest.raises(FileFormatError):
        parse_map_file({"n": 2, "terms": [], "state": {"weights": ["x", "y"]}})
    with pytest.raises(FileFormatError):
        parse_map_file({"n": 2, "terms": [], "state": "maximal"})


def test_parse_complex_entries_strictly():
    bad = {"n": 2, "terms": [{"A": [[[0, 0], [0, 0]], [[0, 0], [0, True]]], "B": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}
    with pytest.raises(FileFormatError):
        parse_map_file(bad)


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="400-digits")],
)
@pytest.mark.parametrize(
    "cmd", ["choi", "dphi", "adjoint", "cp", "kraus", "positive", "spectral"]
)
def test_cli_nonfinite_entries_exit_2(tmp_path, cmd, literal):
    # Python's json reads these literals as non-finite floats, or as an
    # integer too long for a float
    text = (
        '{"n": 2, "terms": [{"A": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]], '
        '"B": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}' % literal
    )
    path = tmp_path / "nonfinite.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli([cmd, str(path)])
    assert code == 2
    assert out == ""
    assert "finite" in err


# finite entries whose products overflow: in A alone, in A and B, and with
# non-uniform weights
HUGE_DOCS = {
    "a": '{"n": 2, "terms": [{"A": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]], '
         '"B": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]}',
    "ab": '{"n": 2, "terms": [{"A": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]], '
          '"B": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]}]}',
    "ab_weighted": '{"n": 2, "terms": [{"A": [[[1e200, 1e200], [1e200, 0]], [[0, 0], [1, 0]]], '
                   '"B": [[[1e200, 0], [0, 0]], [[1e200, -1e200], [1, 0]]]}], '
                   '"state": {"weights": [1, 3]}}',
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(HUGE_DOCS))
@pytest.mark.parametrize(
    "cmd", ["choi", "dphi", "adjoint", "cp", "kraus", "positive", "spectral"]
)
def test_cli_huge_entries_never_end_in_a_traceback(tmp_path, cmd, name):
    # spectral reads the same document as an element file
    path = tmp_path / f"huge_{name}.json"
    path.write_text(HUGE_DOCS[name], encoding="utf-8")
    code, out, err = run_cli([cmd, str(path)])
    if cmd == "adjoint":
        assert code == 0
    assert code in (0, 2)
    if code == 2:
        assert out == ""
        assert "error:" in err


@pytest.mark.parametrize("name", sorted(HUGE_DOCS))
def test_cli_huge_entries_print_only_the_error_line(tmp_path, name):
    # overflow in numpy shows as the exit code and the error line, not as
    # RuntimeWarnings on stderr
    path = tmp_path / f"huge_{name}.json"
    path.write_text(HUGE_DOCS[name], encoding="utf-8")
    for cmd in ["choi", "dphi", "adjoint", "cp", "kraus", "positive", "spectral"]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli([cmd, str(path)])
        assert [str(w.message) for w in caught] == []
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1


# The exit code and error line of each subcommand on each document. An
# overflowed probe output of cp is never certified positive, and the exact
# path refuses it before its eigensolver, as an overflowed dual Choi
# operator or element is refused before it is diagonalized.
_DIAGONALIZE = "error: cannot diagonalize: entries out of floating point range\n"
_OPNORM = "error: cannot take the operator norm: entries out of floating point range\n"
HUGE_OUTCOMES = {
    "a": {"choi": (0, ""), "dphi": (0, ""), "adjoint": (0, ""), "cp": (0, ""),
          "kraus": (0, ""), "positive": (0, ""),
          "spectral": (2, "error: self-adjointness defect 5.000e+199\n")},
    "ab": {"choi": (2, "error: cannot serialize inf: the result is not a finite number\n"),
           "dphi": (2, "error: cannot serialize inf: the result is not a finite number\n"),
           "adjoint": (0, ""), "cp": (2, _DIAGONALIZE),
           "kraus": (2, _DIAGONALIZE), "positive": (2, _OPNORM), "spectral": (2, _DIAGONALIZE)},
    "ab_weighted": {"choi": (2, "error: cannot serialize nan: the result is not a finite number\n"),
                    "dphi": (2, "error: cannot serialize inf: the result is not a finite number\n"),
                    "adjoint": (0, ""), "cp": (2, _DIAGONALIZE), "kraus": (2, _OPNORM),
                    "positive": (2, _OPNORM), "spectral": (2, _OPNORM)},
}


def test_cli_cp_disagreement_exits_4_with_one_error_line(monkeypatch):
    # no map is known to keep disagreeing once the tolerances are made
    # consistent, so the disagreement is raised by a stand-in check_cp
    report = choifactor.check_cp(choifactor.identity_map(2))

    def disagreeing(*args, **kwargs):
        raise choifactor.InternalDisagreement(report)

    monkeypatch.setattr(choifactor.cli, "check_cp", disagreeing)
    code, out, err = run_cli(["cp", str(DATA / "identity.json")])
    assert (code, out) == (4, "")
    assert err.startswith("error: cp checks disagree") and err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(HUGE_DOCS))
def test_cli_huge_entries_keep_their_exit_codes_and_error_lines(tmp_path, name):
    path = tmp_path / f"huge_{name}.json"
    path.write_text(HUGE_DOCS[name], encoding="utf-8")
    for cmd, outcome in HUGE_OUTCOMES[name].items():
        code, _, err = run_cli([cmd, str(path)])
        assert (code, err) == outcome, cmd


def test_cli_huge_entries_leave_stdout_empty_on_exit_2(tmp_path):
    # LAPACK reports inf or NaN arguments by printing to the process's stdout
    # from C, which only a separate process shows
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(choifactor.__file__).parents[1]))
    runs = []
    for name, text in HUGE_DOCS.items():
        path = tmp_path / f"huge_{name}.json"
        path.write_text(text, encoding="utf-8")
        for cmd in ["choi", "dphi", "adjoint", "cp", "kraus", "positive", "spectral"]:
            runs.append((name, cmd, [sys.executable, "-m", "choifactor", cmd, str(path)]))
    with ThreadPoolExecutor(max_workers=3) as pool:
        procs = list(pool.map(
            lambda run: subprocess.run(run[2], capture_output=True, text=True, env=env), runs))
    for (name, cmd, _), proc in zip(runs, procs):
        assert proc.returncode in (0, 2), (name, cmd, proc.stderr)
        if proc.returncode == 2:
            assert proc.stdout == "", (name, cmd)
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["cp", "--tol", "-1"],
    ["positive", "--restarts", "0"],
    ["positive", "--restarts", "-3"],
    ["positive", "--oracle", "--resolution", "0"],
    ["cp", "--tol", "loose"],
    ["cp", "--tol", "inf"],
    ["positive", "--seed", "-1"],
    ["positive", "--iters", "-3"],
    ["cp", "--tol", "nan"],
    ["cp", "--tol", "-0.5"],
    ["kraus", "--tol", "inf"],
    ["positive", "--tol", "1e400"],
    ["spectral", "--tol", "tight"],
])
def test_cli_out_of_range_options_exit_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv + [str(DATA / "transpose.json")])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"usage: choifactor {argv[0]} ")
    assert f"argument {argv[-2]}:" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("option", [["--trials", "5"], ["--seed", "3"]])
def test_cli_cp_takes_no_trials_or_seed(option):
    # cp draws no random probe, so it has nothing for either to drive
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["cp", str(DATA / "transpose.json")] + option)
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert f"unrecognized arguments: {' '.join(option)}" in err.getvalue()


def test_cli_missing_file_exits_2():
    code, out, err = run_cli(["choi", str(DATA / "no_such_file.json")])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_cli_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    # not JSON, and JSON nested too deeply for the reader's recursion
    for text in ("{not json", "[" * 100000 + "]" * 100000):
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["dphi", str(bad)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1



@pytest.mark.parametrize(
    "cmd", ["choi", "dphi", "adjoint", "cp", "kraus", "positive", "spectral"]
)
def test_cli_file_that_is_not_utf8_exits_2(tmp_path, cmd):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b'\xff\xfe{"n":2}')
    code, out, err = run_cli([cmd, str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_cli_weights_whose_sum_overflows_are_normalized(tmp_path):
    # [1e308, 1e308] normalizes to the uniform weights, so every subcommand
    # prints what it prints for the tracial state
    doc = json.loads((DATA / "random_hp.json").read_text(encoding="utf-8"))
    doc["state"] = {"weights": [1e308, 1e308]}
    path = tmp_path / "huge_weights.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for cmd in ["choi", "dphi", "adjoint", "cp", "kraus", "positive", "spectral"]:
        assert run_cli([cmd, str(path)]) == run_cli([cmd, str(DATA / "random_hp.json")]), cmd


def test_cli_bad_weights_exit_2(tmp_path):
    # a negative weight, and one too long for a float
    for weights in ([1.0, -1.0], [10**400, 1]):
        doc = {"n": 2, "terms": [], "state": {"weights": weights}}
        path = tmp_path / "bad_weights.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run_cli(["dphi", str(path)])
        assert code == 2
        assert "error:" in err
    # an n the reader refuses, and one whose 3.6 PiB dual Choi operator no
    # address space holds, so that allocating it fails at once
    for n in (100000, 4000):
        path = tmp_path / "huge_n.json"
        path.write_text(json.dumps({"n": n, "terms": []}), encoding="utf-8")
        code, out, err = run_cli(["dphi", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_cli_assert_failures():
    code, out, _ = run_cli(["cp", str(DATA / "transpose.json"), "--assert"])
    assert code == 3
    assert json.loads(out)["cp"] is False
    code, _, _ = run_cli(["kraus", str(DATA / "transpose.json"), "--assert"])
    assert code == 3
    code, _, _ = run_cli(["positive", str(DATA / "transpose.json"), "--assert"])
    assert code == 0
    code, _, _ = run_cli(["positive", str(DATA / "trace_minus_id.json"), "--assert"])
    assert code == 3
    code, _, _ = run_cli(["cp", str(DATA / "identity.json"), "--assert"])
    assert code == 0


def test_cli_adjoint_output_is_a_map_file(tmp_path):
    code, out, _ = run_cli(["adjoint", str(DATA / "conjugation.json")])
    assert code == 0
    back = tmp_path / "adj.json"
    back.write_text(out, encoding="utf-8")
    phi_adj, rep = load_map_file(back)
    phi, _ = load_map_file(DATA / "conjugation.json")
    assert rep.tracial
    # pairs are swapped relative to the input
    for (a, b), (c, d) in zip(phi_adj.terms, phi.terms):
        assert np.abs(a - d).max() < 1e-15
        assert np.abs(b - c).max() < 1e-15
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    from choifactor import apply_map

    lhs = np.trace(apply_map(phi, a) @ b)
    rhs = np.trace(a @ apply_map(phi_adj, b))
    assert abs(lhs - rhs) < 1e-12


def test_cli_dphi_honors_weights(tmp_path):
    phi, _ = load_map_file(DATA / "identity.json")
    rep = make_factor(2, [0.25, 0.75])
    path = tmp_path / "weighted.json"
    path.write_text(dumps(map_doc(phi, rep)), encoding="utf-8")
    code, out, _ = run_cli(["dphi", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["state"] == {"weights": [0.25, 0.75]}
    got = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    from choifactor import dual_choi

    assert np.abs(got - dual_choi(phi, rep)).max() < 1e-15


def test_cli_positive_decides_a_hermiticity_defect_within_tol(tmp_path):
    # the defect passes the test at --tol 1e-7, so the see-saw must not
    # refuse the dual Choi operator at a tighter tolerance of its own
    from choifactor import conjugation_map, identity_map, map_scale, map_sum

    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    phi = map_sum(identity_map(3), map_scale(conjugation_map(g), 1e-8j))
    path = tmp_path / "tiny_defect.json"
    path.write_text(dumps(map_doc(phi, make_factor(3))), encoding="utf-8")
    code, out, _ = run_cli(["positive", str(path), "--tol", "1e-7", "--assert"])
    assert code in (0, 3)
    assert json.loads(out)["method"] == "seesaw"


def test_cli_cp_at_tol_0_passes_the_trace_onto_e00(tmp_path):
    # C -> Tr(C) e_00 at n = 4 (A_i = e_0i, B_i = e_i0) is CP, and the exact
    # zeros of its outputs must not make the checks disagree at --tol 0
    from choifactor import PairSumMap
    from choifactor.linalg import matrix_units

    units = matrix_units(4).reshape(4, 4, 4, 4)
    phi = PairSumMap(4, np.stack((units[0], units[:, 0]), axis=1))
    path = tmp_path / "trace_e00.json"
    path.write_text(dumps(map_doc(phi, make_factor(4))), encoding="utf-8")
    code, out, err = run_cli(["cp", str(path), "--tol", "0", "--assert"])
    assert (code, err) == (0, "")
    assert json.loads(out)["cp"] is True


def test_cli_positive_oracle_flag():
    code, out, _ = run_cli(
        ["positive", str(DATA / "trace_minus_id.json"), "--oracle", "--resolution", "60"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "not-positive"
    assert doc["resolution"] == 60
    assert abs(doc["value"] - (-0.25)) < 1e-3


def test_cli_positive_oracle_at_n_3_exits_2(tmp_path):
    # refused whether or not the map preserves Hermiticity
    from choifactor import trace_map

    rng = np.random.default_rng(3)
    non_hp = PairSumMap(3, ((rng.standard_normal((3, 3)), 1j * rng.standard_normal((3, 3))),))
    for name, phi in (("trace", trace_map(3)), ("non_hp", non_hp)):
        path = tmp_path / f"{name}_n3.json"
        path.write_text(dumps(map_doc(phi, make_factor(3))), encoding="utf-8")
        code, out, err = run_cli(["positive", str(path), "--oracle"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def test_cli_spectral_counts():
    code, out, _ = run_cli(["spectral", str(DATA / "transpose.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    coeffs = sorted(item["coefficient"] for item in doc["items"])
    assert np.allclose(coeffs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_cli_double_run_bytes_equal():
    argv = ["positive", str(DATA / "random_hp.json"), "--seed", "42"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


@pytest.mark.parametrize("name", ["identity", "transpose", "trace", "conjugation", "trace_minus_id", "random_hp"])
@pytest.mark.parametrize("cmd,extra", [
    ("cp", []),
    ("kraus", []),
    ("positive", ["--seed", "42"]),
    ("spectral", []),
])
def test_cli_matches_golden(name, cmd, extra):
    code, out, _ = run_cli([cmd] + extra + [str(DATA / f"{name}.json")])
    assert code == 0
    want = (GOLDEN / f"{name}__{cmd}.json").read_text(encoding="utf-8")
    assert out == want


def test_cli_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "choifactor", "choi", str(DATA / "transpose.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src")),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    got = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.abs(got - swap).max() < 1e-15
