"""Regenerate the test corpus and the golden CLI outputs.

Run from the repository root; choifactor is imported from this checkout's
src/:

    python3 scripts/make_goldens.py            # rewrite tests/data
    python3 scripts/make_goldens.py --check    # compare only, write nothing

Corpus map files land in tests/data/, one golden file per (corpus,
command) pair in tests/data/golden/. Everything is seeded, so reruns
reproduce the files byte for byte.

With --check the corpus and goldens are generated into a temporary
directory and compared byte for byte with tests/data; every file that
differs, is missing, or sits in tests/data/golden without being generated
is listed, and the exit status is 1 if there is any, else 0. A change
meant to leave every output as it was can prove so without touching the
tree.
"""
from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from choifactor import (  # noqa: E402
    PairSumMap,
    check_positive,
    choi,
    conjugation_map,
    formats,
    identity_map,
    make_factor,
    map_scale,
    map_sum,
    trace_map,
    transpose_map,
)
from choifactor.cli import main as cli_main  # noqa: E402

DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden"

COMMANDS = {
    "cp": ["cp"],
    "kraus": ["kraus"],
    "positive": ["positive", "--seed", "42"],
    "spectral": ["spectral"],
}


def _cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _pinned_hp_map() -> PairSumMap:
    # lowest seed whose map has a solidly negative Choi matrix and a
    # decisive, comfortably negative product-pairing certificate
    for seed in range(500):
        rng = np.random.default_rng(seed)
        vs = [_cgauss(rng, 2, 2) for _ in range(2)]
        ts = rng.standard_normal(2)
        phi = PairSumMap(2, tuple((t * v.conj().T, v) for t, v in zip(ts, vs)))
        if np.linalg.eigvalsh(choi(phi)).min() > -0.05:
            continue
        cert = check_positive(phi)
        if cert.verdict == "not-positive" and cert.value < -0.02:
            return phi
    raise RuntimeError("no suitable seed found")


def corpus() -> dict[str, dict]:
    rep = make_factor(2)
    v = _cgauss(np.random.default_rng(7), 2, 2)
    maps = {
        "identity": identity_map(2),
        "transpose": transpose_map(2),
        "trace": trace_map(2),
        "conjugation": conjugation_map(v),
        "trace_minus_id": map_sum(trace_map(2), map_scale(identity_map(2), -1.0)),
        "random_hp": _pinned_hp_map(),
    }
    return {name: formats.map_doc(phi, rep) for name, phi in maps.items()}


def write_all(data: pathlib.Path) -> list[pathlib.Path]:
    """Write the corpus and its goldens under data; returns the paths written."""
    golden = data / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in corpus().items():
        path = data / f"{name}.json"
        path.write_text(formats.dumps(doc, pretty=True) + "\n", encoding="utf-8")
        written.append(path)
        for cmd, argv in COMMANDS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv + [str(path)])
            if code != 0:
                raise RuntimeError(f"{cmd} on {name} exited {code}")
            out = golden / f"{name}__{cmd}.json"
            out.write_text(buf.getvalue(), encoding="utf-8")
            written.append(out)
    return written


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = pathlib.Path(tmp)
        rel = {p.relative_to(fresh) for p in write_all(fresh)}
        differ = sorted(
            r for r in rel
            if not (DATA / r).is_file() or not filecmp.cmp(fresh / r, DATA / r, shallow=False)
        )
    stale = sorted(p.relative_to(DATA) for p in GOLDEN.glob("*") if p.relative_to(DATA) not in rel)
    for r in differ:
        print(f"differs or missing: tests/data/{r}")
    for r in stale:
        print(f"not generated: tests/data/{r}")
    print(f"{len(rel)} files generated, {len(differ)} differ, {len(stale)} not generated")
    return 1 if differ or stale else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with tests/data instead of writing it; exit 1 on any difference",
    )
    if parser.parse_args().check:
        return check()
    for path in write_all(DATA):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
