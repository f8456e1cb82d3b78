"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program(cli=True)

import choifactor  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS + run.EXTRA_WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    first = workloads.digest(workloads.generate(name, 11))
    assert workloads.digest(workloads.generate(name, 11)) == first
    assert workloads.digest(workloads.generate(name, 12)) != first


def _flip_cp(report):
    return dataclasses.replace(report, cp=not report.cp)


def _flip_positive(cert):
    return dataclasses.replace(
        cert, verdict="not-positive" if cert.verdict == "positive" else "positive")


def _flip_cli(out):
    return out.replace(b'"cp":true', b'"cp":false')


@pytest.mark.parametrize("name, home, attribute, flip, first", [
    ("cp_sweep", choifactor, "check_cp", _flip_cp, 0),
    ("positivity_sweep", choifactor, "check_positive", _flip_positive, 0),
    ("cli_corpus", workloads, "run_cli", _flip_cli, 3),  # request 3: cp on a CP corpus map
])
def test_a_flipped_verdict_counts_as_a_failure(monkeypatch, name, home, attribute, flip, first):
    requests = workloads.build(name, workloads.generate(name, 5))[first:first + 4]
    real, calls = getattr(home, attribute), []

    def fake(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        return flip(out) if len(calls) == 1 else out

    monkeypatch.setattr(home, attribute, fake)
    res = run.closed_loop(requests, len(requests), 0, 1)
    assert res.attempted == 4 and res.failed == 1 and len(res.wrong) == 1
    assert res.wrong[0].startswith(requests[0].label)


def test_metric_tables_match_benchmark_json():
    rows = [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]]
    assert rows == list(run.END_TO_END)
    rows = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert rows == [row[:3] for row in spans.PER_LAYER]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS + run.EXTRA_WORKLOADS) == sorted(workloads.NAMES)
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


def test_loop_ends_on_a_round_and_spreads_the_pauses_over_the_run():
    requests = [workloads.Request(str(i), lambda: time.sleep(0.01), lambda out: None)
                for i in range(4)]
    paused = []
    res = run.closed_loop(requests, 2, 0.3, 1,
                          between=[lambda: paused.append(time.sleep(0.1))] * 3)
    assert len(paused) == 3 and res.failed == 0
    assert res.attempted % 2 == 0 and res.rounds == res.attempted // 2
    assert 0.25 < res.wall_s < 0.4  # the pauses are not part of the run's time


def test_tracer_nests_spans_and_restores_the_functions():
    tracer = spans.Tracer()
    original = choifactor.maps.dual_choi
    with tracer.installed():
        assert choifactor.dual_choi is not original
        with tracer.request(7):
            choifactor.check_cp(choifactor.identity_map(2))
    assert choifactor.dual_choi is original and choifactor.maps.dual_choi is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "request" and names[1] == "maps.check_cp"
    assert tracer.spans[1][3] == 0
    assert all(span[4] == 7 for span in tracer.spans)
    dual = tracer.spans[names.index("maps.dual_choi")]
    parent = dual[3]
    while tracer.spans[parent][0] != "maps.check_cp":
        parent = tracer.spans[parent][3]
    metrics = spans.layer_metrics(tracer.spans, 1, 0.0, 0.0)
    assert metrics["maps.check_cp.calls"] == (1.0, "count")
    assert metrics["maps.amplification.p50_ms"][0] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS + run.EXTRA_WORKLOADS)
def test_printed_metrics_match_benchmark_json(name, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    section = BENCH["per_layer" if trace else "end_to_end"]
    printed = {key: value["unit"] for key, value in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in section}
    if not trace:
        assert result["attempted"] >= run.MIN_REQUESTS
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cp_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
