"""Pinned behaviour: SHA-256 of every CLI artifact on short runs, and l_bar.

Longer nominal, disturbed, sparse regulate and mixed nominal runs pin the
two CSV files across more rows than one writer block holds, and the three
SVG files, where plots.emit_plot thins each series to MAX_POINTS.  A sparse
baseline-comparison run pins the metrics of a baseline that differs from
its event-triggered run.

The full-horizon runs of the session fixtures (50,000 steps each), which
the acceptance gate reads, are pinned by the digest of their float64
records, so a change to their late-horizon bits shows without flipping a
criterion.

Refactors must leave these bytes unchanged.  A change that alters a digest
on purpose updates it here and says why in CHANGES.md.
"""

import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from etsmc.config import build_config
from etsmc.sim import Trajectory
from etsmc.trigger import EventLog, estimate_lipschitz

GOLDEN = {
    # every step fires, so the time-triggered baseline matches the run
    "baseline-comparison": {
        "composition.svg": "29f9d2c785fba98c559e3ef54d35888ac0fb2a3d1dc049db30dc8704aa9c129f",
        "events.csv": "63a2c32eb710936b20e1e703e7f15a7ff4a3a18d9c25a1cd694b600d1aa38803",
        "events.svg": "003abfa9d8822f02b56966d6602353d59df781de2ce880407e5b4bc9b6370de8",
        "manifest.json": "a39c656230f07baee5ca1c2111f7c2b7855285c4cb6895fa7709c7eb1685faaf",
        "metrics.json": "b9d9f042b171ffd05590ac43a55c8e40c6569673be739178865a405726c8f062",
        "metrics.txt": "4672f7dba37724df24c9d18e83413540878bfc01b7c18079d209c8785b73fa20",
        "temperature.svg": "5afc6b3bb914b57cc1f58bba79780eb9ff225e78b8ff0044df27cdab555e710a",
        "trajectory.csv": "154b9aa0ca0098516fa36fd285ea92d3c7560c2419d8b1308e3a06eaf43013ba",
    },
    "nominal": {
        "composition.svg": "45f6096a27020a7b4c5e768efb39bd933e19e56d339bc282639062c47ace6a3d",
        "events.csv": "63a2c32eb710936b20e1e703e7f15a7ff4a3a18d9c25a1cd694b600d1aa38803",
        "events.svg": "36f0396f0a31475447313fc169131764db4bd1347a3ecefb7a29903ba33b6c26",
        "manifest.json": "6d4b1b4e0aa2e7a727bdfa314c689b2173d45fc15ab702d7aeb70760b378b443",
        "metrics.json": "597164be654047e90009b252be9dcafab6d6db64a419565e66ac9adf79c9fc04",
        "metrics.txt": "6a6dd7b9bf515e27e1cb967f7f185714cdb43b0bf0745724f782984ad0467022",
        "temperature.svg": "25d43cd8c5cf1e6c7bbf12ace58ac93f55576c7efcd27159a539986b3dc48a9a",
        "trajectory.csv": "154b9aa0ca0098516fa36fd285ea92d3c7560c2419d8b1308e3a06eaf43013ba",
    },
    "disturbed": {
        "composition.svg": "4369e3b1e6fdf9c7f85edff4cd54e8921f46fe461e091c2ca4cfcd94e58b7b03",
        "events.csv": "430c2c2ef37a006f43709c9a6c78abdd8dd10b452e2c2fbf637d9d06519d50d2",
        "events.svg": "03ed0679f53e5109f2bd13480d5a9a7d30c116d7e68f0885a878dbeed1950044",
        "manifest.json": "4b6d0b517aa8bc76ff42be9801102be6bf11b33af66714d21a8442b1c4cb5fe3",
        "metrics.json": "0e3e12b834e7bbadf8a97a2f00d537f840d88dcb803b7e25782ccae5083aaf20",
        "metrics.txt": "a5b3dddf28bc9f1f87d6dfb9f31969543833838b455e81d494eb486af962fc05",
        "temperature.svg": "d1cb225b69af0131d70ac50f00585a081d7ce5340f7882b280b3b1058db948f3",
        "trajectory.csv": "3e3a0f47bb13d60ae12c0c541963ebacb77131881b752e02b422c9930bffba3b",
    },
    "regulate-300": {
        "composition.svg": "5aa400d0b8164f0366ba10200c3c94bc8583dfe1dafb8c9de682a51daba5196f",
        "events.csv": "96d461a27a5e1a085866a982f141af2b38ac6dd6ea3fba57cf380dedf7e9ad6c",
        "events.svg": "db3fd0bd08856199440859990ac0cc69928bb1deb510dff9504fd5cba007288c",
        "manifest.json": "2d2e0c14f4d577c84fc205f079a75aeb50183d11533af7f777081f4a72a6cb73",
        "metrics.json": "6898c4f422f803dc70d5e631f16090dd98a341d02afcceb29b529e571470e890",
        "metrics.txt": "f78d79d24c4e66f4e182dd8c34d55168d99dc536b8388393b0861338bb4376d7",
        "temperature.svg": "977b078fd4e3c4dcd7e8381da85aecd784d32c6d57d7d3fbbc3bf32b43cef7db",
        "trajectory.csv": "9e2c5d34f9924f248599fdb17c31f10d406c8656719d1d0e4e733e191e6e3295",
    },
    "regulate-400": {
        "composition.svg": "7bef9c6dea61c5bc7e952fd51c646270ada0f508ac018be4b2dd6367c469d4bb",
        "events.csv": "8575c7fa556e230806ffbb2dc54956a48c01165b5c651af39184d951befbed9f",
        "events.svg": "de1ac36f95602e5b26a71aba5e2bc13bdd72e4c572d1515e0f52fe98ea91034c",
        "manifest.json": "d0e199495512ce8c9f046baa8ac62c0d2fa2e42872e99c3eedb469a80bd676f9",
        "metrics.json": "27577ed353c68d9d4cefae5a89119734dbbcc84ec3fbb48529cdb4fcce077e50",
        "metrics.txt": "5bd5b5d69af5c92bb00c1de7a741b93046ae2010b338872ed1bb3ee4d1e8bb3d",
        "temperature.svg": "18d14ef016b82456a35afcea918052e45540d7838d680c275c559e1ccbbeb1a9",
        "trajectory.csv": "f1665ce8edeb9dd4e0445f6c5e63e2cdbfd2ca9cec7203e17c20cf6dd687635f",
    },
    "regulate-500": {
        "composition.svg": "b061c603f06584734f0f119d2019d075e1cfd7b58743e1b59c4f0ab64a8448d8",
        "events.csv": "d8a861c70a0592d70c60e40084d8d7cdd846a022e733f577270ce4043b8c2843",
        "events.svg": "80c9069149484a280a1c1b4e7d3b2b1e7e36d1eb7cf17744a7fc5140c7334acd",
        "manifest.json": "33b02ef54ac750267af7570e5b13e51530d7e70c83787fd809c331f9c787e4cb",
        "metrics.json": "1aa336a6cbc5d5997f8b81cb4df9e9ed8e0ccd3d127f4b98d9e72a4a845a4809",
        "metrics.txt": "3882300570a7b1ba509359210170d23dafd917a5c9d2c4c4ae74dc6938538c58",
        "temperature.svg": "069968419ab975f452f01a79500f1274a39d6162c383ab2e067eb7a729059905",
        "trajectory.csv": "3c157ce96ce2ab4867842f4d2d6b17c436adfde6069eae67b29742801729f14c",
    },
}

SPARSE_CONFIG = "mu = 1\nm1 = 1\n"
MIXED_CONFIG = "mu = 0.5\nm1 = 2\n"

#: --duration 10 runs, id -> (scenario, config text or None, digests): 10,001
#: trajectory rows each, and 10,001 events each on the dense runs.  The
#: trajectory figures keep every sixth point and the last, and a dense
#: events.svg every fifth of its 10,000 gaps and the last.
GOLDEN_LONG = {
    "nominal": ("nominal", None, {
        "composition.svg": "55e8ff370a3afb4ab44b7cc535aee2eb0f36747be50d7c6da665a2fba38554f1",
        "events.csv": "729a730d88e8c8c53f31fd26cbf609f4820f08905d2eb006d67d26025973ffb8",
        "events.svg": "864780a05ef843f38ef0060b01e561d17601ffda052962fbe4eb63eb8cc2a8fd",
        "temperature.svg": "bed8fb9826c20aa06066f8588f366e93a32cffe69cda93ec1474e00715f8ee9f",
        "trajectory.csv": "f8a13171d76e4d614500b5ac945c94ca91f7c6b880f633525c3f191c0924b514",
    }),
    "disturbed": ("disturbed", None, {
        "composition.svg": "d89f12cfc70082249180009b10a497e9ced75ecb0a25317e6d672653356f930d",
        "events.csv": "5909f5208013c4b0ecb8cb682c1e9603cb6440e417583bd391c77e869dc73616",
        "events.svg": "91f06513699a11c4fba1c8e07509e5ad693be210d626cb44fc4e46950229597d",
        "temperature.svg": "cde44948c115314a81a5d13f2e829f2de9391d911f562118f524c4b4cf921589",
        "trajectory.csv": "79f8c1896b869026daa8b2e4bd405df520ca34206acf7b5cb160b288d3b6139e",
    }),
    # 265 events, in trajectory blocks 0, 1, 2 and 5 (13, 194, 57 and 1
    # of them), and in one part-full event block
    "sparse-regulate": ("regulate-400", SPARSE_CONFIG, {
        "composition.svg": "6be2260d17c53b13226b2cc5b67f1cb173acc1d8ab4bbeba6b563f7885f9f437",
        "events.csv": "c080772bd879eefda6c4c28f999a515b62f2f1da88d3ad98a0f14749d48c161b",
        "events.svg": "02c00a162d0b9d0ea9b9b0810d84349dee690e118fd65920989c2c3eecccaa19",
        "temperature.svg": "c354dac76a6b749dfaa3a3ed8e1f019452604fbd7ba6a87384518ca140e6d00a",
        "trajectory.csv": "406ea7b6cecc9a6d5693d877a7f9b0a1dcf3660fabd612b7ff1e27dcbec84c57",
    }),
    # 883 events, whose trajectory blocks hold one event, a full block of
    # them or none, [1, 1, 1] + [0]*6 + [331, 512, 35] + [0]*5 + [1, 1, 0];
    # events.csv is a full event block and a part-full one
    "mixed-nominal": ("nominal", MIXED_CONFIG, {
        "composition.svg": "7d589d436abac939f6d64a505a91ebb5d5e2a9dc77ff20eb04ab28df2c7709e9",
        "events.csv": "980420bfa815c4dd2fd91f60f6ab6270a5cce00d5680e64c2ed3bbe7cf150b6e",
        "events.svg": "bc1d1fb0205fbfcb7287fdbae0066e288a2cb5c2f00c50ee6231c4d8c2edfaff",
        "temperature.svg": "6b7180bd6dcdf08e7dd92ee0ab3d2505c262b43fac8c9d7b81434f689fe85787",
        "trajectory.csv": "cf638c7f495a50af55702b9682a2d49c89f774c0948ed46f2f7b685196652cc9",
    }),
}

#: metrics.json of baseline-comparison with SPARSE_CONFIG at --duration 2:
#: 4 events in 2,000 steps, so the baseline cannot match the run.
SPARSE_BASELINE_METRICS = (
    "393d1d758fce4138fc8959547bc9a4e6ecfcf540fe1e5ae23c38feba9b5dbaf0")

L_BAR = 44.22060080686917

#: run -> SHA-256 of the float64 bytes of every Trajectory field, then of
#: every EventLog field of an event-triggered run, at the default 50 time
#: units
FULL_HORIZON = {
    "nominal":
        "768e999e938269c7b42ef5b087d6abf56e25a995ab8f3b0a67e307c1368d4e72",
    "disturbed":
        "e1aeac5e79f6f14f74939d98e072aa9fd707485e6ade70fb27358e58b933ee9e",
    "nominal-time-triggered":
        "cd640ea0dc28fdf298e227395c8a7d472ca2689597961d0a168cebdc7894fd19",
    "disturbed-time-triggered":
        "dde7e2af96b762cdc4dd3e946c236beca7b3f70c14cf80866215aab4b1baadd9",
    "regulate-300":
        "a935ceec8949b3f19befff11903728e56c4a39fdc101cd0e270248584a73a4f9",
    "regulate-400":
        "aced62eaccf402a2d3d4859a9ccd0fa50ad4e7d4441c0936087668b7e1b14ae0",
    "regulate-500":
        "5c59062765a03bd8b88bf38915619a1c676a40e9ecc3b69ae6a41debe9a296d2",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_cli_artifact_digests(scenario, tmp_path, run_cli):
    rc, _, _, run_dir = run_cli(tmp_path, scenario, None, "--duration 2")
    assert rc == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in run_dir.iterdir()}
    assert digests == GOLDEN[scenario]


@pytest.mark.parametrize("scenario,config,digests", GOLDEN_LONG.values(),
                         ids=list(GOLDEN_LONG))
def test_long_run_digests(scenario, config, digests, tmp_path, run_cli):
    rc, _, _, run_dir = run_cli(tmp_path, scenario, config, "--duration 10")
    # exit 1: lyapunov-decrease-outside-band is known red past short horizons
    assert rc in (0, 1)
    assert {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_sparse_baseline_comparison_metrics_digest(tmp_path, run_cli):
    rc, _, _, run_dir = run_cli(tmp_path, "baseline-comparison",
                                SPARSE_CONFIG, "--duration 2")
    # exit 1: lyapunov-decrease-outside-band is known red for this config
    assert rc in (0, 1)
    data = (run_dir / "metrics.json").read_bytes()
    assert json.loads(data)["event_ratio"] < 1.0
    assert hashlib.sha256(data).hexdigest() == SPARSE_BASELINE_METRICS


def test_default_plant_lipschitz_estimate():
    assert estimate_lipschitz(build_config({}).plant).l_bar == L_BAR


def record_digest(traj, log=None):
    digest = hashlib.sha256()
    for f in fields(Trajectory):
        digest.update(np.ascontiguousarray(getattr(traj, f.name),
                                           dtype=np.float64).tobytes())
    for f in fields(EventLog) if log is not None else ():
        digest.update(np.asarray(getattr(log, f.name),
                                 dtype=np.float64).tobytes())
    return digest.hexdigest()


def test_full_horizon_run_digests(nominal_run, disturbed_run, regulate_runs,
                                  nominal_tt, disturbed_tt):
    # the session's runs: this test hashes them and runs no loop itself
    runs = {"nominal": nominal_run[:2], "disturbed": disturbed_run[:2],
            "nominal-time-triggered": nominal_tt[:1],
            "disturbed-time-triggered": disturbed_tt[:1]}
    for setpoint, (_, traj, log, _) in regulate_runs.items():
        runs[f"regulate-{setpoint:.0f}"] = traj, log
    assert {name: record_digest(*run)
            for name, run in runs.items()} == FULL_HORIZON
