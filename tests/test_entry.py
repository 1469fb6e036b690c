"""The process entry: ``python -m etsmc`` and the ``etsmc`` console script.

etsmc.__main__.entry freezes what the imports left to the collector and
exits with cli.main's code; cli.main, called in process through the
run_cli runner of conftest.py, freezes nothing.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etsmc.__main__ as entry_module

ROOT = Path(__file__).resolve().parents[1]

SPARSE_CONFIG = "mu = 1\nm1 = 1\n"

#: (config text or None, argv of a nominal run) -> exit code
CASES = {
    "passes": (None, "--duration 0.02", 0),
    # lyapunov-decrease-outside-band, known red for this config
    "invariant-fails": (SPARSE_CONFIG, "--duration 2", 1),
    "config-error": (None, "--duration -1", 2),
}


def _files(run_root: Path) -> dict:
    return {str(p.relative_to(run_root)): p.read_bytes()
            for p in sorted(run_root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", CASES)
def test_module_run_matches_in_process_main(tmp_path, run_cli, case):
    config, argv, code = CASES[case]
    rc, out, err, _ = run_cli(tmp_path / "here", "nominal", config, argv)
    assert rc == code
    # the child gets the run.cfg and the argv that run_cli gives main
    (tmp_path / "child").mkdir()
    if config is not None:
        (tmp_path / "child" / "run.cfg").write_text(config + "\n")
        argv = f"--config run.cfg {argv}"
    child = subprocess.run(
        [sys.executable, "-m", "etsmc", "--scenario", "nominal",
         *argv.split(), "--out", "runs"], cwd=tmp_path / "child",
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True)
    assert child.returncode == code, child.stderr
    assert (child.stdout, child.stderr) == (out, err)
    assert "Traceback" not in child.stderr
    assert (_files(tmp_path / "child" / "runs")
            == _files(tmp_path / "here" / "runs"))


def test_in_process_main_freezes_nothing(tmp_path, run_cli):
    before = gc.get_freeze_count()
    assert run_cli(tmp_path, "nominal", None, "--duration 0.02")[0] == 0
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
