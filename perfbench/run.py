"""Benchmark for choifactor: one workload, closed loop, one client.

    python3 perfbench/run.py --workload cp_sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Makes the workload's inputs from --seed, sends its requests one after
another from this process (cli_corpus: one `python -m choifactor` process
per request), checks every answer, and stops at the end of the round of
inputs nearest to --seconds, once at least MIN_REQUESTS requests were
made. Human-readable lines come first; the last line of standard output is
one JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics of a traced run (--trace 1). See perfbench/README.md.
"""
from __future__ import annotations

import os

# Every matrix here is at most 64 x 64: a second BLAS thread adds only
# scheduler noise. Pinned before numpy is first imported, and inherited by
# the processes this script starts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cp_sweep", "cli_corpus")  # those of BENCHMARK.json
EXTRA_WORKLOADS = ("positivity_sweep", "algebra_sweep")  # run the same way, on request
MIN_REQUESTS = 100  # so that at least ten samples lie beyond p90
SETUP_ROUNDS = 7
PROBE_TIMEOUT_S = 150

# name, unit, better
END_TO_END = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def import_program(cli: bool = False) -> None:
    """Import choifactor from this checkout's src/, or exit non-zero."""
    if not (SRC / "choifactor" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'choifactor'} is missing; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import choifactor

    if cli:
        import choifactor.cli  # noqa: F401
    if Path(choifactor.__file__).resolve().parent != SRC / "choifactor":
        sys.exit(f"error: imported choifactor from {choifactor.__file__}, not {SRC}")


@dataclasses.dataclass
class LoopResult:
    latencies: list = dataclasses.field(default_factory=list)  # seconds per request
    refused: collections.Counter = dataclasses.field(default_factory=collections.Counter)
    wrong: list = dataclasses.field(default_factory=list)
    busy_s: float = 0.0  # time spent inside requests
    wall_s: float = 0.0
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.refused.values()) + len(self.wrong)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.busy_s


def closed_loop(requests, round_size: int, seconds: float, min_requests: int,
                tracer=None, between=()) -> LoopResult:
    """Send the requests one after another, cycling through them, and stop
    at the end of the round that lies nearest to --seconds, once at least
    min_requests were made. The callables in `between` are spread evenly
    over the run, between two requests; the time they take is not part of
    the run's measured time."""
    res = LoopResult()
    pending = list(between)
    paused = 0.0
    start = round_start = time.perf_counter()
    while True:
        req = requests[res.attempted % len(requests)]
        span = tracer.request(res.attempted) if tracer is not None else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            try:
                out = req.call()
            except Exception as exc:  # a refused or crashed request is counted, not fatal
                out, error = None, type(exc).__name__
            else:
                error = None
            elapsed = time.perf_counter() - t0
            if tracer is not None and req.probe is not None:
                req.probe()
        res.latencies.append(elapsed)
        res.busy_s += elapsed
        if error is not None:
            res.refused[error] += 1
        else:
            message = req.check(out)
            if message is not None:
                res.wrong.append(f"{req.label}: {message}")
        now = time.perf_counter()
        ran = now - start - paused
        if res.attempted % round_size == 0:
            res.rounds += 1
            # another round would end about one round later: stop here when
            # that lies farther past --seconds than this end lies before it
            round_s, round_start = now - round_start, now
            if ran + round_s / 2 >= seconds and res.attempted >= min_requests:
                break
        if pending and ran >= seconds * (len(between) - len(pending) + 0.5) / len(between):
            pending.pop(0)()
            pause = time.perf_counter() - now
            paused += pause
            round_start += pause
    res.wall_s = time.perf_counter() - start - paused
    for call in pending:  # a run shorter than planned
        call()
    return res


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up in a fresh process: import, library-side construction of the
    inputs and one warm-up request, timed apart from the input draws."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr[-500:]}")
    return json.loads(out.stdout.splitlines()[-1])


def _probe_main(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import_program(cli=workload == "cli_corpus")
    t1 = time.perf_counter()
    import workloads

    specs = workloads.generate(workload, seed)
    t2 = time.perf_counter()
    requests = workloads.build(workload, specs)
    t3 = time.perf_counter()
    with contextlib.suppress(Exception):  # the loop counts a failing request, not the set-up
        requests[0].call()
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2, "warmup_s": t4 - t3}))


def _peak_rss_mb(workload: str) -> float:
    import workloads

    if workload == "cli_corpus":  # the command line processes, not the set-up probes
        return workloads.CLI_PEAK_RSS_KB[0] / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _line(name, value, unit, note=""):
    print(f"{name:<46} {value:>14.6g} {unit:<6} {note}".rstrip())


def _describe(res: LoopResult, label: str) -> None:
    print(f"# {label}: {res.attempted} requests in {res.rounds} rounds, wall {res.wall_s:.2f} s, "
          f"busy {res.busy_s:.2f} s, ops_per_s {res.ops_per_s:.4g}")
    refused = ", ".join(f"{k} x{v}" for k, v in sorted(res.refused.items())) or "none"
    print(f"# failed {res.failed}: refused {refused}; wrong answers {len(res.wrong)}")
    for message in res.wrong[:10]:
        print(f"#   wrong: {message}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np  # imported late: a set-up probe times the first numpy import

    import spans
    import workloads

    specs = workloads.generate(workload, seed)
    workloads.prepare(specs)
    requests = workloads.build(workload, specs)
    round_size = len(requests) // workloads.ROUNDS[workload]
    with contextlib.suppress(Exception):  # warm-up; the loop counts failures
        requests[0].call()
    print(f"# perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"loop=closed clients=1 blas_threads={BLAS_THREADS}")
    print(f"# {round_size} requests per round, {workloads.ROUNDS[workload]} distinct rounds, "
          f"inputs sha256 {workloads.digest(specs)[:16]}")
    print(f"# python {platform.python_version()} numpy {np.__version__} on {platform.machine()}, "
          f"{os.cpu_count()} cpus")

    if not trace:
        # the set-up probes are spread over the run, so that their median,
        # like the loop's figures, spans the whole run and not a few seconds
        setups = []
        res = closed_loop(requests, round_size, seconds, MIN_REQUESTS,
                          between=[lambda: setups.append(setup_probe(workload, seed))] * SETUP_ROUNDS)
        rss = _peak_rss_mb(workload)
        setup_s = statistics.median(p["import_s"] + p["build_s"] + p["warmup_s"] for p in setups)
        _describe(res, "untraced")
        # Percentiles are taken in each round (the same mix of classes) and
        # averaged over the rounds: the host's speed changes during a run
        # then move them in proportion, not in steps between two levels.
        lat_ms = np.asarray(res.latencies).reshape(res.rounds, round_size) * 1e3
        q50, q90 = np.percentile(lat_ms, [50, 90], axis=1)
        beyond = int(np.sum(lat_ms > q90[:, None]))
        pooled50, pooled90 = np.percentile(lat_ms, [50, 90])
        metrics = {
            "latency_p50_ms": (float(q50.mean()), "ms"),
            "latency_p90_ms": (float(q90.mean()), "ms"),
            "ops_per_s": (res.ops_per_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        notes = {
            "latency_p50_ms": f"{res.attempted} samples in {res.rounds} rounds of {round_size}; "
                              f"pooled median {pooled50:.4g}",
            "latency_p90_ms": f"{beyond} samples beyond their round's p90; pooled p90 {pooled90:.4g}",
            "ops_per_s": f"{res.attempted} requests / {res.busy_s:.3f} s inside requests",
            "setup_s": f"median of {SETUP_ROUNDS} fresh-process set-ups spread over the run",
            "peak_rss_mb": ("largest command line process (wait4)" if workload == "cli_corpus"
                            else "RUSAGE_SELF"),
        }
        for name, (value, unit) in metrics.items():
            _line(name, value, unit, notes[name])
        _line("fail_ratio", res.failed / res.attempted, "ratio",
              f"{res.failed} / {res.attempted} (reported as failed / attempted)")
        return _result(res.attempted, res.failed, not res.wrong, metrics)

    # traced run: an untraced half, then a traced half, each of whole rounds
    plain = closed_loop(requests, round_size, seconds / 2, 1)
    tracer = spans.Tracer()
    with tracer.installed(extra=[("cli.process", workloads, "run_cli")]):
        traced = closed_loop(requests, round_size, seconds / 2, 1, tracer=tracer)
    path = workloads.OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    import_ms = 0.0
    if workload == "cli_corpus":
        import_ms = statistics.median(setup_probe(workload, seed)["import_s"]
                                      for _ in range(SETUP_ROUNDS)) * 1e3
    overhead = 100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
    _describe(plain, "untraced half")
    _describe(traced, "traced half")
    print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    metrics = spans.layer_metrics(tracer.spans, traced.rounds, import_ms, overhead)
    moves = {name: note for name, _, _, note in spans.PER_LAYER}
    for name, (value, unit) in metrics.items():
        derived = " (derived: check_cp self time)" if name == "maps.amplification.p50_ms" else ""
        _line(name, value, unit, f"-> {moves[name]}{derived}")
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return _result(attempted, failed, not (plain.wrong or traced.wrong), metrics)


def _result(attempted, failed, correct, metrics) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _probe_main(args.workload, args.seed)
        return 0
    if args.workload == "all":
        code = 0
        for workload in WORKLOADS + EXTRA_WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
        return code
    import_program(cli=args.workload == "cli_corpus")
    sys.path.insert(0, str(HERE))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
