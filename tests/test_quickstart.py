"""The README's Quickstart, run command by command as it is written."""
from __future__ import annotations

import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

import asas
from asas.cli import main

ROOT = Path(__file__).resolve().parents[1]


def quickstart_commands() -> list[list[str]]:
    """The indented block under the Quickstart heading, one argv per command."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## Quickstart on synthetic data") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("#"))
    block = "\n".join(ln.strip() for ln in lines[start:end] if ln.startswith("    "))
    return [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()]


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    commands = quickstart_commands()
    assert commands[0][:2] == ["python", "scripts/make_toy_data.py"]
    assert [argv[0] for argv in commands[1:]] == ["asas"] * (len(commands) - 1)
    monkeypatch.chdir(tmp_path)

    script = ROOT / commands[0][1]
    spec = importlib.util.spec_from_file_location("make_toy_data", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", commands[0][1:])
    assert module.main() == 0

    for argv in commands[1:]:
        assert main(argv[1:]) == 0, " ".join(argv)
    rows = (tmp_path / "toydata" / "table.tsv").read_text(encoding="utf-8").splitlines()
    assert any(row.split("\t")[0] == "mean" for row in rows)


def test_toy_data_help_writes_nothing(tmp_path):
    src = str(Path(asas.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_toy_data.py"), "--help"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: make_toy_data.py [-h] [out]")
    assert list(tmp_path.iterdir()) == []
