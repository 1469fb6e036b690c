"""Correctness gate applied to every timed benchmark unit.

Each check returns a list of problems; an empty list means the unit passed.
The functions read only files and plain values, so the parent process and
the worker processes share them without importing etsmc.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

PINNED = Path(__file__).resolve().parent / "pinned.json"

ARTIFACTS = frozenset({
    "trajectory.csv", "events.csv", "metrics.txt", "metrics.json",
    "composition.svg", "temperature.svg", "events.svg", "manifest.json",
})

_INVARIANT_LINE = re.compile(r"^invariant check failed: (.*)$", re.MULTILINE)


def load_pins() -> dict:
    """Values recorded at the seed commit: digests, l_bar, invariants."""
    return json.loads(PINNED.read_text())


def allowed_invariants(workload: str) -> set[str]:
    return set(load_pins()["allowed_invariants"][workload])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1  # minus the header line


def check_exit(returncode: int, stderr: str, allowed: set[str]) -> list[str]:
    """Exit 0, or exit 1 naming only invariants allowed for the workload."""
    problems = []
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if returncode == 1:
        found = _INVARIANT_LINE.search(stderr)
        if found is None:
            problems.append("exit 1 without named invariants")
        else:
            names = set(found.group(1).split(", "))
            unexpected = sorted(names - allowed)
            if unexpected:
                problems.append("unexpected invariants: " + ", ".join(unexpected))
    elif returncode != 0:
        problems.append(f"exit code {returncode}")
    return problems


def check_artifacts(run_dir: Path) -> tuple[list[str], dict[str, str]]:
    """Check one CLI output directory; returns (problems, artifact digests).

    The digests are those of the files, not those the manifest claims.
    """
    run_dir = Path(run_dir)
    present = {p.name for p in run_dir.iterdir()} if run_dir.is_dir() else set()
    missing = sorted(ARTIFACTS - present)
    if missing:
        return ["missing artifacts: " + ", ".join(missing)], {}
    problems = []
    digests = {name: sha256_file(run_dir / name)
               for name in sorted(ARTIFACTS - {"manifest.json"})}
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if manifest.get("files") != digests:
        problems.append("manifest digests differ from the files")
    metrics = json.loads((run_dir / "metrics.json").read_text())
    problems += check_rows(run_dir, metrics["step_count"] + 1,
                           metrics["event_count"])
    return problems, digests


def check_rows(run_dir: Path, trajectory_rows: int, event_rows: int
               ) -> list[str]:
    """CSV data rows: one per grid point (step_count + 1), one per event."""
    problems = []
    for name, expected in (("trajectory.csv", trajectory_rows),
                           ("events.csv", event_rows)):
        rows = _data_rows(Path(run_dir) / name)
        if rows != expected:
            problems.append(f"{name} has {rows} rows, expected {expected}")
    return problems


def check_cli_unit(run_dir: Path, returncode: int, stderr: str,
                   allowed: set[str]) -> tuple[list[str], dict[str, str]]:
    """Every gate check that one CLI run allows on its own."""
    problems = check_exit(returncode, stderr, allowed)
    if returncode == 2:
        return problems, {}
    artifact_problems, digests = check_artifacts(run_dir)
    if returncode == 1 and not artifact_problems:
        manifest = json.loads((Path(run_dir) / "manifest.json").read_text())
        named = _INVARIANT_LINE.search(stderr)
        if named and manifest.get("invariant_violations") != named.group(1).split(", "):
            problems.append("manifest invariants differ from stderr")
    return problems + artifact_problems, digests


def check_sweep_config(record: dict, allowed: set[str]) -> list[str]:
    """Checks on one in-memory sweep config: ``et`` and ``tt`` hold the
    event- and time-triggered runs' counts, ``invariants`` the violations."""
    problems = []
    for side in ("et", "tt"):
        r = record[side]
        if r["rows"] != r["step_count"] + 1:
            problems.append(f"{side}: {r['rows']} trajectory rows for "
                            f"{r['step_count']} steps")
        if r["event_count"] != r["flagged"]:
            problems.append(f"{side}: event count {r['event_count']}, "
                            f"flagged {r['flagged']}")
    if record["et"]["logged"] != record["et"]["event_count"]:
        problems.append(f"et: {record['et']['logged']} logged events, "
                        f"event count {record['et']['event_count']}")
    if record["tt"]["event_count"] != record["tt"]["step_count"] + 1:
        problems.append("time-triggered run skipped a grid point")
    unexpected = sorted(set(record["invariants"]) - allowed)
    if unexpected:
        problems.append("unexpected invariants: " + ", ".join(unexpected))
    return problems


def check_repeat(reference, digests) -> list[str]:
    """Repeats of one seed must give identical digests."""
    return [] if digests == reference else ["digests differ between repeats"]


def check_pinned(digests, pinned, l_bar, pinned_l_bar) -> list[str]:
    """Default-seed outputs must equal those pinned from the seed commit."""
    problems = []
    if digests != pinned:
        problems.append("digests differ from the pinned seed-commit digests")
    if l_bar != pinned_l_bar:
        problems.append(f"l_bar {l_bar!r} differs from pinned {pinned_l_bar!r}")
    return problems
