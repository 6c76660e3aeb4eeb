"""The fixed toy run behind the digest ledger, and the platform key it is filed under.

    PYTHONPATH=src python tests/digest_ledger.py           # print this platform's entry
    PYTHONPATH=src python tests/digest_ledger.py --record  # file it in tests/digests.json

The run writes ``scripts/make_toy_data.py``'s workspace and runs
``train-features``, ``predict`` (on the training and test answers, then on
the test answers alone), ``tune --trials 3 --epochs 3``, ``ensemble`` and
``report`` on it, in a temporary directory. Its entry is the sha256 of
every file the run leaves there. The key is a fingerprint of the platform's
linear algebra: the bits of an SVD, an eigendecomposition and a matrix
product of a fixed matrix, large enough for the blocked kernels. The BLAS
build and CPU kernel change those bits, and with them the artifacts.
``tests/test_digest_ledger.py`` runs this file in a fresh interpreter, so
that ``asas`` pins one BLAS thread before numpy loads.
"""
from __future__ import annotations

import asas  # noqa: F401  (first: it pins one BLAS thread before numpy loads)

import hashlib
import importlib.util
import json
import os
import platform
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from asas.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "digests.json"

_FEATURES = "--prompt-text toydata/prompt_1.txt --embeddings toydata/embeddings_1.tsv"
COMMANDS = [
    f"train-features --config toydata/asas.conf --prompt 1 {_FEATURES} --out fixed",
    f"predict --config toydata/asas.conf --prompt 1 {_FEATURES} --model fixed/model.txt"
    " --out fixed/test_predictions.tsv",
    f"predict --data toydata/test.tsv --prompt 1 {_FEATURES} --model fixed/model.txt"
    " --out fixed/fresh_predictions.tsv",
    f"tune --config toydata/asas.conf --prompt 1 --trials 3 --epochs 3 {_FEATURES} --out run",
    "ensemble --config toydata/asas.conf --prompt 1 --m 2 --members toydata/member_0.tsv"
    " toydata/member_1.tsv toydata/member_2.tsv run/predictions.tsv --out ens",
    "report --out table.tsv ens/report_test.tsv",
]


def fingerprint() -> str:
    a = np.random.default_rng(0).standard_normal((256, 256))
    h = hashlib.sha256()
    for part in (*np.linalg.svd(a), *np.linalg.eigh(a + a.T), a @ a[::-1]):
        h.update(part.tobytes())
    return h.hexdigest()[:16]


def toy_run(work: Path) -> dict[str, str]:
    """The sha256 of each file under ``work`` after the toy run there."""
    spec = importlib.util.spec_from_file_location(
        "make_toy_data", ROOT / "scripts" / "make_toy_data.py"
    )
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    os.chdir(work)  # artifact headers name their inputs by the paths given
    argv, sys.argv = sys.argv, ["make_toy_data.py", "toydata"]
    try:
        made = toy.main()
    finally:
        sys.argv = argv
    if made != 0:
        raise SystemExit("make_toy_data.py failed")
    for command in COMMANDS:
        if main(shlex.split(command)) != 0:
            raise SystemExit(f"asas {command} failed")
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*")) if p.is_file()
    }


def entry() -> dict:
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet  # the commands' progress lines
        try:
            files = toy_run(Path(tmp))
        finally:
            sys.stdout = stdout
            os.chdir(ROOT)
    return {
        "fingerprint": fingerprint(),
        "platform": f"{platform.machine()} {platform.system()}, numpy {np.__version__}",
        "files": files,
    }


if __name__ == "__main__":
    got = entry()
    if sys.argv[1:] == ["--record"]:
        ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
        ledger[got["fingerprint"]] = {"platform": got["platform"], "files": got["files"]}
        LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(json.dumps(got))
