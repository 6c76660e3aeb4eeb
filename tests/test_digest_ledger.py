"""Every file of a fixed toy run against the committed digest ledger.

``tests/digests.json`` holds, per platform fingerprint, the sha256 of each
file that ``tests/digest_ledger.py``'s toy run writes. A change that moves an
artifact's bytes must re-record the ledger in the same diff, so the files it
moved show in review. The fingerprint is the bits of numpy's SVD,
eigendecomposition and matrix product of a fixed matrix, because the BLAS
build and CPU kernel change the artifacts' bits too. On a platform the
ledger does not hold, this test skips and names the fingerprint; there,
``PYTHONPATH=src python tests/digest_ledger.py --record`` files the platform,
from a tree whose artifacts are known good.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asas.cli

HERE = Path(__file__).resolve().parent


def test_toy_run_matches_the_ledger():
    src = str(Path(asas.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(HERE / "digest_ledger.py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    ledger = json.loads((HERE / "digests.json").read_text())
    if got["fingerprint"] not in ledger:
        pytest.skip(
            f"platform fingerprint {got['fingerprint']} ({got['platform']}) is not in "
            "tests/digests.json; record it with `python tests/digest_ledger.py --record`"
        )
    assert got["files"] == ledger[got["fingerprint"]]["files"]
