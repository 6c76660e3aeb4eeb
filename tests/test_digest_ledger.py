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


def _toy_run(**env: str) -> dict:
    """``digest_ledger.py``'s entry from a fresh interpreter, with ``env`` set."""
    src = str(Path(asas.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(HERE / "digest_ledger.py")],
        env=dict(os.environ, PYTHONPATH=path, **env), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_toy_run_matches_the_ledger():
    got = _toy_run()
    ledger = json.loads((HERE / "digests.json").read_text())
    if got["fingerprint"] not in ledger:
        pytest.skip(
            f"platform fingerprint {got['fingerprint']} ({got['platform']}) is not in "
            "tests/digests.json; record it with `python tests/digest_ledger.py --record`"
        )
    assert got["files"] == ledger[got["fingerprint"]]["files"]


def test_toy_run_does_not_depend_on_the_string_hash_seed():
    # String hashes, so the iteration order of a set of strings, change with
    # the seed; no platform entry is needed, so this also runs where the
    # ledger test skips.
    seed_0, seed_1 = (_toy_run(PYTHONHASHSEED=seed)["files"] for seed in ("0", "1"))
    assert seed_0 == seed_1
