"""The process entry: ``python -m etsmc`` and the ``etsmc`` console script.

etsmc.__main__.entry freezes what the imports left to the collector and
exits with cli.main's code; cli.main, called in process, freezes nothing.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etsmc.__main__ as entry_module
from etsmc.cli import main

ROOT = Path(__file__).resolve().parents[1]

SPARSE_CONFIG = "mu = 1\nm1 = 1\n"

#: argv (run from a directory that holds sparse.cfg) -> exit code
CASES = {
    "passes": (["--scenario", "nominal", "--duration", "0.02"], 0),
    # lyapunov-decrease-outside-band, known red for this config
    "invariant-fails": (["--config", "sparse.cfg", "--duration", "2"], 1),
    "config-error": (["--duration", "-1"], 2),
}


def _files(run_root: Path) -> dict:
    return {str(p.relative_to(run_root)): p.read_bytes()
            for p in sorted(run_root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", CASES)
def test_module_run_matches_in_process_main(tmp_path, monkeypatch, capsys,
                                            case):
    argv, code = CASES[case]
    argv = [*argv, "--out", "runs"]
    for where in ("child", "here"):
        (tmp_path / where).mkdir()
        (tmp_path / where / "sparse.cfg").write_text(SPARSE_CONFIG)
    child = subprocess.run(
        [sys.executable, "-m", "etsmc", *argv], cwd=tmp_path / "child",
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True)
    monkeypatch.chdir(tmp_path / "here")
    assert main(argv) == code
    here = capsys.readouterr()
    assert child.returncode == code, child.stderr
    assert (child.stdout, child.stderr) == (here.out, here.err)
    assert "Traceback" not in child.stderr
    assert (_files(tmp_path / "child" / "runs")
            == _files(tmp_path / "here" / "runs"))


def test_in_process_main_freezes_nothing(tmp_path):
    before = gc.get_freeze_count()
    assert main(["--duration", "0.02", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


def test_entry_freezes_then_exits_with_the_code_of_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(entry_module, "main",
                        lambda: calls.append("main") or 1)
    with pytest.raises(SystemExit) as exc:
        entry_module.entry()
    assert exc.value.code == 1
    assert calls == ["freeze", "main"]


def test_console_script_is_the_module_entry():
    text = (ROOT / "pyproject.toml").read_text()
    assert '\netsmc = "etsmc.__main__:entry"\n' in text
