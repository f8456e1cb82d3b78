"""Seeded inputs, requests and answer checks for the benchmark workloads.

generate(name, seed) makes the inputs from the seed alone, as plain numpy
arrays and bytes, together with the reference answers from truth.py: this
is the benchmark's own work and is not timed. build(name, specs) turns the
arrays into choifactor objects (PairSumMap, PairSumElement, make_factor),
which is the library-side set-up that setup_s times. Each Request has a
call into the program, which is timed, and a check of its answer, which is
not.

Request calls look functions up on the choifactor package and on this
module at call time, so the traced run can wrap them from outside.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable

import numpy as np

import choifactor as cf
import choifactor.cli as cf_cli
import truth

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
DATA = ROOT / "tests" / "data"

NAMES = ("cp_sweep", "positivity_sweep", "algebra_sweep", "cli_corpus")

TOL = 1e-9  # the library's default tolerance for check_cp and check_positive
CLI_TIMEOUT_S = 120


@dataclasses.dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the answer is right
    probe: "Callable[[], object] | None" = None  # extra in-process call, traced runs only


class CliExit(Exception):
    """The command line process ended with a non-zero exit code."""


# Rounds of inputs per workload. A round holds one input of every class
# (family, size, operation); later rounds draw fresh inputs of the same
# classes, so averaging over more of them steadies the figures between
# seeds. The loop stops only at the end of a round.
ROUNDS = {"cp_sweep": 8, "positivity_sweep": 40, "algebra_sweep": 20, "cli_corpus": 1}


def generate(name: str, seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return [spec for r in range(ROUNDS[name]) for spec in _GENERATORS[name](rng, seed, r)]


def build(name: str, specs: list[dict]) -> list[Request]:
    return [_REQUEST_MAKERS[name](spec) for spec in specs]


def prepare(specs: list[dict]) -> None:
    """Write the generated input files that the specs refer to."""
    for spec in specs:
        content = spec.get("content")
        path = ROOT / spec.get("file", "")
        if content is not None and (not path.is_file() or path.read_bytes() != content):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)


def digest(specs: list[dict]) -> str:
    """Hash of every input byte, to show that a seed fixes the inputs."""
    h = hashlib.sha256()
    for spec in specs:
        for key in sorted(spec):
            value = spec[key]
            h.update(key.encode())
            if isinstance(value, np.ndarray):
                h.update(f"{value.shape}{value.dtype.str}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
            elif isinstance(value, bytes):
                h.update(value)
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- drawing


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _haar(rng, n):
    q, r = np.linalg.qr(_cgauss(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _dag(m):
    return np.conj(np.swapaxes(m, -1, -2))


def _units(n, pairs):
    out = np.zeros((len(pairs), n, n), dtype=np.complex128)
    for t, (i, j) in enumerate(pairs):
        out[t, i, j] = 1.0
    return out


def _all_pairs(n):
    return [(i, j) for i in range(n) for j in range(n)]


def _weights(rng, n):
    w = 0.5 / n + 0.5 * rng.dirichlet(np.ones(n))
    return w / w.sum()


def _unit_vector(rng, n):
    v = _cgauss(rng, n)
    return v / np.linalg.norm(v)


def _kraus(rng, n, k):
    """C -> sum_t V_t* C V_t: completely positive."""
    v = _cgauss(rng, k, n, n) / np.sqrt(max(k, 1) * n)
    return _dag(v), v


def _sign_mixed(rng, n, k):
    """C -> sum_t s_t V_t* C V_t with real s_t of either sign."""
    a, b = _kraus(rng, n, k)
    return rng.standard_normal(k)[:, None, None] * a, b


def _transpose_type(rng, n, k):
    """C -> c U T_S(W C W*) U*, T_S summing e_ij C e_ij over k pairs, at least
    one off the diagonal: never CP; the full transpose when k = n^2."""
    if k == 1:
        pairs = [tuple(rng.choice(n, size=2, replace=False))]
    elif k == n:
        shift = int(rng.integers(1, n))
        pairs = [(i, (i + shift) % n) for i in range(n)]
    else:
        pairs = _all_pairs(n)
    u, w = _haar(rng, n), _haar(rng, n)
    units = _units(n, pairs)
    return rng.uniform(0.5, 1.5) * (u @ units @ w), _dag(w) @ units @ _dag(u)


def _reduction_type(rng, n, k):
    """k - 1 Kraus terms minus one unitary conjugation: never CP."""
    a, b = _kraus(rng, n, k - 1)
    w = _haar(rng, n)
    return np.concatenate([a, -_dag(w)[None]]), np.concatenate([b, w[None]])


def _band(n, t):
    """identity + t * transpose, written as map_sum(identity, map_scale(transpose, t))."""
    eye = np.eye(n, dtype=np.complex128)[None]
    units = _units(n, _all_pairs(n))
    return np.concatenate([eye, t * units]), np.concatenate([eye, units])


def _reduction(rng, n, a):
    """C -> a Tr(C) I - V C V*, with V = U W and the trace written as
    sum_ij U e_ij W C W* e_ji U*: positive exactly when a >= 1."""
    u, w = _haar(rng, n), _haar(rng, n)
    pairs = _all_pairs(n)
    e, et = _units(n, pairs), _units(n, [(j, i) for i, j in pairs])
    v = u @ w
    return (
        np.concatenate([a * (u @ e @ w), -v[None]]),
        np.concatenate([_dag(w) @ et @ _dag(u), _dag(v)[None]]),
    )


def _decomposable(rng, n):
    """n^2 Kraus terms plus W* C^T W: positive with a margin, but its Choi
    matrix is sign-mixed."""
    a, b = _kraus(rng, n, n * n)
    w = _haar(rng, n) / np.sqrt(n)
    units = _units(n, _all_pairs(n))
    return np.concatenate([a, _dag(w) @ units]), np.concatenate([b, units @ w])


def _kraus_minus_measure(rng, n):
    """Kraus terms minus q <z|C|z> |w><w|, with q chosen so that
    <w|phi(z z*)|w> = -1/2: not positive."""
    a, b = _kraus(rng, n, n)
    z, w = _unit_vector(rng, n), _unit_vector(rng, n)
    s = float(np.sum(np.abs(np.einsum("i,tij,j->t", w.conj(), a, z)) ** 2))
    q = s + 0.5
    return (
        np.concatenate([a, -q * np.outer(w, z.conj())[None]]),
        np.concatenate([b, np.outer(z, w.conj())[None]]),
    )


def _non_hp(rng, n):
    """Unpaired random terms: the map does not preserve Hermiticity."""
    return _cgauss(rng, n, n, n) / np.sqrt(n), _cgauss(rng, n, n, n) / np.sqrt(n)


def _label(spec):
    k = len(spec["a"])
    weighted = " weighted" if spec.get("w") is not None else ""
    return f"{spec['kind']} n={spec['n']} k={k}{weighted}"


def _weights_of(spec):
    w = spec.get("w")
    return np.full(spec["n"], 1.0 / spec["n"]) if w is None else w


def _map(spec):
    n = spec["n"]
    phi = cf.PairSumMap(n, tuple(zip(spec["a"], spec["b"])))
    rep = cf.make_factor(n, "tracial" if spec.get("w") is None else spec["w"])
    return phi, rep


# ---------------------------------------------------------------- cp_sweep

CP_SIZES = ((4, 1), (4, 4), (4, 16), (6, 1), (6, 6), (6, 36), (8, 1), (8, 8))
CP_FAMILIES = {  # family, verdict known by construction (None: from the Choi matrix)
    "kraus": (_kraus, True),
    "transpose": (_transpose_type, False),
    "reduction": (_reduction_type, False),
    "sign_mixed": (_sign_mixed, None),
}
# the near-boundary band identity + t * transpose, t across (tol/n, n tol):
# (n, number of log-spaced cells, one t drawn in each)
BAND_CELLS = ((2, 24), (3, 24))


def _gen_cp(rng, seed, r):
    specs = []
    for n, k in CP_SIZES:
        for kind, (family, known) in CP_FAMILIES.items():
            a, b = family(rng, n, k)
            cp = truth.cp_verdict(a, b)
            if known is not None and cp != known:
                raise RuntimeError(f"{kind} map drawn with cp={cp}")
            w = _weights(rng, n) if len(specs) % 3 == 0 else None
            low = truth.hermitian_part_min(truth.choi(a, b))[1]
            specs.append({"kind": kind, "n": n, "a": a, "b": b, "w": w, "cp": cp, "choi_min": low})
    for n, cells in BAND_CELLS:
        edges = np.geomspace(TOL / n, n * TOL, cells + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            t = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            a, b = _band(n, t)
            low = truth.hermitian_part_min(truth.choi(a, b))[1]
            # mathematically not CP (Choi eigenvalue -t), but within the
            # tolerance band either verdict is accepted; a refusal is a failure
            specs.append({"kind": "band", "n": n, "a": a, "b": b, "w": None, "cp": None,
                          "choi_min": low, "t": t})
    return specs


def _build_cp(spec):
    phi, rep = _map(spec)

    def check(report):
        if spec["cp"] is not None and report.cp != spec["cp"]:
            return f"cp={report.cp}, expected {spec['cp']}"
        if not truth.close(report.min_eig_choi, spec["choi_min"], 1e-9):
            return f"min_eig_choi {report.min_eig_choi!r}, expected {spec['choi_min']!r}"
        return None

    return Request(_label(spec), lambda: cf.check_cp(phi, rep=rep), check)


# ---------------------------------------------------------------- positivity_sweep

POS_SIZES = (3, 4, 6)
POS_REPEATS = 2
# non_hp first: the set-up's warm-up request is the first one, and its cost
# does not depend on the draw
POS_FAMILIES = ("non_hp", "reduction_lo", "reduction_hi", "decomposable", "kraus_minus_measure")
# Non-uniform weights slow the see-saw on the reduction and decomposable
# families 10-100 fold, by an amount that varies tenfold between draws;
# they stay on the families whose cost they leave steady.
WEIGHTED_FAMILIES = ("kraus_minus_measure", "non_hp")
# n = 2 with oracle=True; "reduction" draws a on either side of 1
ORACLE_FAMILIES = ("reduction_lo", "reduction_hi", "decomposable", "kraus_minus_measure", "reduction")


def _pos_family(rng, kind, n):
    """(A stack, B stack, verdict known by construction)."""
    if kind == "reduction":
        kind = "reduction_lo" if rng.random() < 0.5 else "reduction_hi"
    if kind == "reduction_lo":
        return (*_reduction(rng, n, rng.uniform(0.5, 0.9)), "not-positive")
    if kind == "reduction_hi":
        return (*_reduction(rng, n, rng.uniform(1.1, 2.0)), "positive")
    if kind == "decomposable":
        return (*_decomposable(rng, n), "positive")
    if kind == "kraus_minus_measure":
        return (*_kraus_minus_measure(rng, n), "not-positive")
    return (*_non_hp(rng, n), "not-positive")


def _gen_positivity(rng, seed, r):
    plan = [(n, kind, False) for n in POS_SIZES for _ in range(POS_REPEATS) for kind in POS_FAMILIES]
    plan += [(2, kind, True) for kind in ORACLE_FAMILIES]
    specs = []
    for n, kind, oracle in plan:
        a, b, verdict = _pos_family(rng, kind, n)
        w = _weights(rng, n) if kind in WEIGHTED_FAMILIES and len(specs) % 2 == 0 else None
        method = "direct" if kind == "non_hp" else "brute" if oracle else "seesaw"
        specs.append({"kind": kind, "n": n, "a": a, "b": b, "w": w, "oracle": oracle,
                      "verdict": verdict, "method": method})
    return specs


def _build_positivity(spec):
    phi, rep = _map(spec)
    a, b = spec["a"], spec["b"]

    def check(cert):
        if (cert.verdict, cert.method) != (spec["verdict"], spec["method"]):
            return f"{cert.verdict} by {cert.method}, expected {spec['verdict']} by {spec['method']}"
        u, v = np.asarray(cert.witness_u), np.asarray(cert.witness_v)
        pair = truth.pairing(truth.dual_choi(a, b, _weights_of(spec)), u, v)
        out = truth.apply(a, b, np.outer(v, v.conj()))
        defect, low = truth.hermitian_part_min(out)
        if cert.method == "direct":
            if not truth.close([cert.value, cert.pairing_imag], [pair.real, pair.imag], 1e-9):
                return f"pairing {cert.value!r}{cert.pairing_imag:+}i, recomputed {pair!r}"
            if defect <= TOL:
                return "phi(vv*) is Hermitian, so the witness refutes nothing"
            return None
        if not truth.close(cert.value, pair.real, 1e-9):
            return f"pairing {cert.value!r}, recomputed {pair.real!r}"
        if cert.verdict == "not-positive" and low >= -TOL / 2:
            return f"phi(vv*) has lowest eigenvalue {low!r}, not below -tol/2"
        return None

    return Request(_label(spec) + (" oracle" if spec["oracle"] else ""),
                   lambda: cf.check_positive(phi, rep, oracle=spec["oracle"]), check)


# ---------------------------------------------------------------- algebra_sweep

ALG_SIZES = tuple((n, k) for n in (3, 4, 6) for k in (n, n + n // 2, 2 * n))


def _self_adjoint(rng, n, k):
    """sum_t s_t (1(x)S_t) E (1(x)S_t*) with real s_t."""
    s = _cgauss(rng, k, n, n) / np.sqrt(n)
    return rng.standard_normal(k)[:, None, None] * s, _dag(s)


def _gen_algebra(rng, seed, r):
    specs = []
    for index, (n, k) in enumerate(ALG_SIZES):
        w = _weights(rng, n) if index % 3 == 0 else None
        wv = _weights_of({"n": n, "w": w})
        a, b = _self_adjoint(rng, n, k)
        a2, b2 = _self_adjoint(rng, n, k)
        dense = truth.state_sum(a, b, wv)
        scale = rng.uniform(0.5, 2.0, size=k)[:, None, None]
        ca, cb = np.concatenate([a, scale * a]), np.concatenate([b, b])
        ka, kb = _kraus(rng, n, k)
        ga, gb = _cgauss(rng, k, n, n) / np.sqrt(n), _cgauss(rng, k, n, n) / np.sqrt(n)
        sa, sb = _sign_mixed(rng, n, k)
        sj = truth.choi(sa, sb)
        specs += [
            {"kind": "spectral", "n": n, "a": a, "b": b, "w": w, "dense": dense},
            {"kind": "product", "n": n, "a": a, "b": b, "a2": a2, "b2": b2, "w": w,
             "dense": dense @ truth.state_sum(a2, b2, wv)},
            {"kind": "compress", "n": n, "a": ca, "b": cb, "w": w,
             "dense": truth.state_sum(ca, cb, wv)},
            {"kind": "materialize", "n": n, "a": a, "b": b, "w": w, "dense": dense},
            {"kind": "roundtrip", "n": n, "a": ga, "b": gb, "transfer": truth.transfer(ga, gb)},
            {"kind": "kraus", "n": n, "a": ka, "b": kb, "w": w, "transfer": truth.transfer(ka, kb)},
            {"kind": "adjoint", "n": n, "a": sa, "b": sb,
             "choi_min": truth.hermitian_part_min(sj)[1],
             "adjoint_choi_min": truth.hermitian_part_min(truth.choi(sb, sa))[1]},
        ]
    return specs


def _element(spec, a="a", b="b"):
    rep = cf.make_factor(spec["n"], "tracial" if spec.get("w") is None else spec["w"])
    return cf.PairSumElement(rep, tuple(zip(spec[a], spec[b])))


def _term_stacks(element):
    return (np.array([t[0] for t in element.terms]).reshape(-1, element.rep.n, element.rep.n),
            np.array([t[1] for t in element.terms]).reshape(-1, element.rep.n, element.rep.n))


def _dense_check(spec, rtol=1e-8):
    w = _weights_of(spec)

    def check(element):
        if not truth.close(truth.state_sum(*_term_stacks(element), w), spec["dense"], rtol):
            return "term list does not reproduce the expected operator"
        return None

    return check


def _build_algebra(spec):
    kind, w = spec["kind"], _weights_of(spec)
    label = _label(spec)
    if kind == "spectral":
        e = _element(spec)

        def check(sd):
            y = np.array([truth.implemented_vector(s, w) for _, s in sd.items]).reshape(len(sd), -1)
            c = np.array([c for c, _ in sd.items], dtype=float)
            if not truth.close((y.T * c) @ y.conj(), spec["dense"], 1e-8):
                return "spectral pieces do not rebuild the element"
            return None

        return Request(label, lambda: cf.spectral_decompose(e), check)
    if kind == "product":
        e, e2 = _element(spec), _element(spec, "a2", "b2")
        return Request(label, lambda: cf.element_product(e, e2), _dense_check(spec))
    if kind == "compress":
        e = _element(spec)
        dense_ok = _dense_check(spec)

        def check(out):
            return "compression made the term list longer" if len(out) > len(e) else dense_ok(out)

        return Request(label, lambda: cf.compress(e), check)
    if kind == "materialize":
        e = _element(spec)

        def check(m):
            return None if truth.close(m, spec["dense"], 1e-10) else "dense matrix differs"

        return Request(label, lambda: cf.materialize(e), check)
    phi, rep = _map(spec)
    if kind == "roundtrip":
        def check(t):
            return None if truth.close(t, spec["transfer"], 1e-9) else "recovered map differs"

        return Request(label, lambda: cf.map_from_dual_choi(cf.dual_choi(phi, rep), rep), check)
    if kind == "kraus":
        def check(kd):
            v = np.array(kd.ops).reshape(-1, spec["n"], spec["n"])
            if min(kd.coefficients, default=1.0) <= 0:
                return "non-positive Kraus coefficient"
            if not truth.close(truth.transfer(_dag(v), v), spec["transfer"], 1e-8):
                return "Kraus operators do not rebuild the map"
            return None

        return Request(label, lambda: cf.kraus_decompose(phi, rep), check)

    def check(rep_):
        if not (rep_.positivity_agree and rep_.choi_hermitian):
            return f"positivity_agree={rep_.positivity_agree}, choi_hermitian={rep_.choi_hermitian}"
        if max(rep_.swap_transpose_error, rep_.conjugation_error) > 1e-9:
            return f"symmetry errors {rep_.swap_transpose_error!r}, {rep_.conjugation_error!r}"
        if not (truth.close(rep_.min_eig_choi, spec["choi_min"], 1e-9)
                and truth.close(rep_.min_eig_adjoint_choi, spec["adjoint_choi_min"], 1e-9)):
            return "Choi minimum eigenvalues differ"
        return None

    return Request(label, lambda: cf.adjoint_choi_symmetry(phi), check)


# ---------------------------------------------------------------- cli_corpus

CORPUS = ("conjugation", "identity", "random_hp", "trace", "trace_minus_id", "transpose")
CORPUS_COMMANDS = ("choi", "dphi", "adjoint", "cp", "kraus", "positive", "spectral")
GOLDEN_ARGS = {"positive": ("--seed", "42")}  # as scripts/make_goldens.py ran them
# generated Kraus maps, about 350 KB of JSON each: (n, terms, weighted)
LARGE_MAPS = ((6, 108, True), (8, 64, False))
LARGE_COMMANDS = ("choi", "dphi", "adjoint", "kraus")


def _doc_matrix(m):
    return np.array([[complex(re, im) for re, im in row] for row in m])


def _doc_terms(doc, n):
    a = np.array([_doc_matrix(t["A"]) for t in doc["terms"]]).reshape(-1, n, n)
    b = np.array([_doc_matrix(t["B"]) for t in doc["terms"]]).reshape(-1, n, n)
    return a, b


def _read_map_file(data: bytes):
    doc = json.loads(data)
    n = doc["n"]
    a, b = _doc_terms(doc, n)
    state = doc.get("state", "tracial")
    w = np.full(n, 1.0 / n) if state == "tracial" else np.array(state["weights"], dtype=float)
    return n, a, b, w / w.sum()


def _map_file_bytes(a, b, w) -> bytes:
    def matrix(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    doc = {"n": a.shape[1], "terms": [{"A": matrix(x), "B": matrix(y)} for x, y in zip(a, b)],
           "state": "tracial" if w is None else {"weights": [float(x) for x in w]}}
    return json.dumps(doc).encode()


def _expected(command, a, b, w):
    if command == "choi":
        return truth.choi(a, b)
    if command == "dphi":
        return truth.dual_choi(a, b, w)
    if command == "adjoint":
        return truth.transfer(b, a)
    return truth.transfer(a, b)  # kraus: the map its operators must rebuild


def _gen_cli(rng, seed, r):
    specs = []
    for name in CORPUS:
        path = DATA / f"{name}.json"
        n, a, b, w = _read_map_file(path.read_bytes())
        for command in CORPUS_COMMANDS:
            golden = DATA / "golden" / f"{name}__{command}.json"
            spec = {"kind": name, "n": n, "file": str(path.relative_to(ROOT)),
                    "argv": (command, *GOLDEN_ARGS.get(command, ()))}
            if golden.is_file():
                spec["golden"] = golden.read_bytes()
            else:
                spec.update(a=a, b=b, w=w, expected=_expected(command, a, b, w))
            specs.append(spec)
    for n, k, weighted in LARGE_MAPS:
        a, b = _kraus(rng, n, k)
        w = _weights(rng, n) if weighted else None
        content = _map_file_bytes(a, b, w)
        path = OUT / f"cli-seed{seed}" / f"kraus_n{n}_r{r}.json"
        for command in LARGE_COMMANDS:
            wv = _weights_of({"n": n, "w": w})
            specs.append({"kind": f"kraus_n{n}", "n": n, "file": str(path.relative_to(ROOT)),
                          "argv": (command,), "content": content, "a": a, "b": b, "w": wv,
                          "expected": _expected(command, a, b, wv)})
    return specs


CLI_PEAK_RSS_KB = [0]  # largest ru_maxrss of a command line process so far


def run_cli(argv: list[str]) -> bytes:
    """One `python -m choifactor` process; its standard output. The process
    is reaped with wait4, so that its own peak memory is recorded apart from
    that of the other processes the benchmark starts."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "choifactor", *argv],
                                stdout=subprocess.PIPE, stderr=err,
                                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=ROOT)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        CLI_PEAK_RSS_KB[0] = max(CLI_PEAK_RSS_KB[0], usage.ru_maxrss)
        if proc.returncode != 0:
            err.seek(0)
            raise CliExit(f"exit {proc.returncode}: {err.read().decode(errors='replace')[-300:]}")
    return out


def _check_cli(spec, out: bytes):
    if "golden" in spec:
        return None if out == spec["golden"] else "output differs from the golden file"
    doc = json.loads(out)
    command, n = spec["argv"][0], spec["n"]
    if command in ("choi", "dphi"):
        got = _doc_matrix(doc["matrix"])
    elif command == "adjoint":
        got = truth.transfer(*_doc_terms(doc, n))
    else:
        if not doc["positive"]:
            return "kraus refused a completely positive map"
        v = np.array([_doc_matrix(m) for m in doc["ops"]]).reshape(-1, n, n)
        got = truth.transfer(_dag(v), v)
    return None if truth.close(got, spec["expected"], 1e-8) else f"{command} output differs"


def _build_cli(spec):
    command, *extra = spec["argv"]
    argv = [command, str(ROOT / spec["file"]), *extra]

    def in_process():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cf_cli.main(argv)

    return Request(f"{command} {spec['kind']}", lambda: run_cli(argv),
                   lambda out: _check_cli(spec, out), probe=in_process)


_GENERATORS = {"cp_sweep": _gen_cp, "positivity_sweep": _gen_positivity,
               "algebra_sweep": _gen_algebra, "cli_corpus": _gen_cli}
_REQUEST_MAKERS = {"cp_sweep": _build_cp, "positivity_sweep": _build_positivity,
             "algebra_sweep": _build_algebra, "cli_corpus": _build_cli}
