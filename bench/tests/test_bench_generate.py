"""The seeded input generator is deterministic and keeps work per seed fixed."""

import json
from collections import Counter

import pytest

import generate


def _snapshot(workdir):
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_same_seed_same_inputs(tmp_path, workload, seed):
    a = generate.write_inputs(workload, seed, tmp_path / "a")
    b = generate.write_inputs(workload, seed, tmp_path / "b")
    snap_a, snap_b = _snapshot(tmp_path / "a"), _snapshot(tmp_path / "b")
    snap_a.pop("plan.json"), snap_b.pop("plan.json")
    assert snap_a == snap_b
    # plans differ only in the directory they point into
    text_b = json.dumps(b).replace(str(tmp_path / "b"), str(tmp_path / "a"))
    assert json.loads(text_b) == a


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_seeds_differ(tmp_path, workload):
    generate.write_inputs(workload, 1, tmp_path / "a")
    generate.write_inputs(workload, 2, tmp_path / "b")
    snap_a, snap_b = _snapshot(tmp_path / "a"), _snapshot(tmp_path / "b")
    snap_a.pop("plan.json"), snap_b.pop("plan.json")
    assert snap_a != snap_b


def test_default_seed_keeps_documented_defaults():
    assert generate.cli_values(generate.DEFAULT_SEED) == {}


def test_short_workload_overrides_duration(tmp_path):
    plan = generate.write_inputs("cli-short", 3, tmp_path)
    assert plan["argv"][-2:] == ["--duration", "1.0"]


@pytest.mark.parametrize("seed", range(10))
def test_sweep_shape_is_fixed(seed):
    entries = generate.sweep_entries(seed)
    cells = Counter((e["scenario"], e["regime"]) for e in entries)
    assert set(cells.values()) == {generate.SWEEP_PER_CELL}
    assert len(cells) == len(generate.SWEEP_SCENARIOS) * len(generate.REGIMES)
    total = sum(e["values"]["t_end"] for e in entries)
    assert total == pytest.approx(generate.SWEEP_TOTAL_HORIZON, abs=0.01)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_program_accepts_generated_configs(tmp_path, workload):
    from etsmc.config import parse_config
    plan = generate.write_inputs(workload, 5, tmp_path)
    for entry in plan.get("entries", [plan]):
        kind = "regulate" if entry.get("scenario", "").startswith("regulate-") \
            else "nominal"
        parse_config(entry["config"], scenario=kind)
