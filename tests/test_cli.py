import io
import json
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from choifactor import (
    FileFormatError,
    dumps,
    load_map_file,
    map_doc,
    make_factor,
    parse_map_file,
    transfer,
    transpose_map,
)
from choifactor.cli import main

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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "cmd", ["choi", "dphi", "adjoint", "cp", "kraus", "positive", "spectral"]
)
def test_cli_nonfinite_entries_exit_2(tmp_path, cmd, literal):
    # Python's json reads these literals as non-finite floats
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


def test_cli_missing_file_exits_2():
    code, out, err = run_cli(["choi", str(DATA / "no_such_file.json")])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_cli_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["dphi", str(bad)])
    assert code == 2
    assert "error:" in err


def test_cli_bad_weights_exit_2(tmp_path):
    doc = {"n": 2, "terms": [], "state": {"weights": [1.0, -1.0]}}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(["dphi", str(path)])
    assert code == 2
    assert "error:" in err


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


def test_cli_positive_oracle_flag():
    code, out, _ = run_cli(
        ["positive", str(DATA / "trace_minus_id.json"), "--oracle", "--resolution", "60"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "not-positive"
    assert doc["resolution"] == 60
    assert abs(doc["value"] - (-0.25)) < 1e-3


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
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    got = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.abs(got - swap).max() < 1e-15
