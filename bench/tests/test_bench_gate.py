"""The correctness gate rejects what it is meant to reject."""

import json
import shutil

import pytest

import gate

ALLOWED = {"lyapunov-decrease-outside-band"}


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    from etsmc import cli
    out = tmp_path_factory.mktemp("clean")
    assert cli.main(["--duration", "0.05", "--out", str(out)]) == 0
    return out / "nominal"


@pytest.fixture
def run_dir(clean_run, tmp_path):
    copy = tmp_path / "nominal"
    shutil.copytree(clean_run, copy)
    return copy


def _rewrite_manifest(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["files"] = {name: gate.sha256_file(run_dir / name)
                         for name in manifest["files"]}
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def test_clean_run_passes(run_dir):
    problems, digests = gate.check_cli_unit(run_dir, 0, "", ALLOWED)
    assert problems == []
    assert set(digests) == gate.ARTIFACTS - {"manifest.json"}


def test_flipped_artifact_byte(run_dir):
    path = run_dir / "trajectory.csv"
    data = bytearray(path.read_bytes())
    data[-3] ^= 0x01
    path.write_bytes(bytes(data))
    problems, _ = gate.check_cli_unit(run_dir, 0, "", ALLOWED)
    assert "manifest digests differ from the files" in problems


def test_missing_artifact(run_dir):
    (run_dir / "events.svg").unlink()
    problems, _ = gate.check_cli_unit(run_dir, 0, "", ALLOWED)
    assert problems == ["missing artifacts: events.svg"]


def test_row_counts(run_dir):
    for name in ("trajectory.csv", "events.csv"):
        path = run_dir / name
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    _rewrite_manifest(run_dir)
    problems, _ = gate.check_cli_unit(run_dir, 0, "", ALLOWED)
    assert len(problems) == 2
    assert problems[0].startswith("trajectory.csv has")
    assert problems[1].startswith("events.csv has")
    assert problems[0].endswith("expected 51")


def test_unexpected_invariant_name():
    stderr = "invariant check failed: lyapunov-decrease-outside-band, gaps-ge-step\n"
    assert gate.check_exit(1, stderr, ALLOWED) == [
        "unexpected invariants: gaps-ge-step"]
    assert gate.check_exit(1, stderr, ALLOWED | {"gaps-ge-step"}) == []
    assert gate.check_exit(1, stderr, set()) != []


def test_traceback_exit():
    stderr = ("Traceback (most recent call last):\n"
              "  File \"x.py\", line 1, in <module>\n"
              "OverflowError: cannot convert float infinity to integer\n")
    problems = gate.check_exit(1, stderr, ALLOWED)
    assert "traceback on stderr" in problems
    assert "exit 1 without named invariants" in problems


def test_config_error_exit():
    assert gate.check_exit(2, "error: bad\n", ALLOWED) == ["exit code 2"]


def test_manifest_invariants_must_match_stderr(run_dir):
    stderr = "invariant check failed: lyapunov-decrease-outside-band\n"
    problems, _ = gate.check_cli_unit(run_dir, 1, stderr, ALLOWED)
    assert problems == ["manifest invariants differ from stderr"]


def test_repeat_and_pinned():
    assert gate.check_repeat({"a": "1"}, {"a": "1"}) == []
    assert gate.check_repeat({"a": "1"}, {"a": "2"}) != []
    assert gate.check_pinned("d", "d", 44.0, 44.0) == []
    assert len(gate.check_pinned("d", "e", 44.0, 44.5)) == 2


def test_sweep_record():
    good = {"et": {"rows": 11, "step_count": 10, "event_count": 3,
                   "flagged": 3, "logged": 3},
            "tt": {"rows": 11, "step_count": 10, "event_count": 11,
                   "flagged": 11},
            "invariants": ["lyapunov-decrease-outside-band"]}
    assert gate.check_sweep_config(good, ALLOWED) == []
    bad = json.loads(json.dumps(good))
    bad["et"]["logged"] = 2
    bad["tt"]["event_count"] = bad["tt"]["flagged"] = 10
    bad["invariants"].append("event-cross-consistency")
    assert len(gate.check_sweep_config(bad, ALLOWED)) == 3
