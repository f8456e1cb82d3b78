"""The two bit records hold: scripts/report_digest.py --check, at one and
at two BLAS threads, and scripts/make_goldens.py --check, each run as its
own process from the repository root."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, threads", [
    ("report_digest.py", "1"),
    ("report_digest.py", "2"),
    ("make_goldens.py", None),
], ids=["report_digest-1-thread", "report_digest-2-threads", "make_goldens"])
def test_bit_record_check_passes(script, threads):
    env = dict(os.environ)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--check"],
                          capture_output=True, text=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
