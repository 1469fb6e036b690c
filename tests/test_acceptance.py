"""Release acceptance gate.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line and then asserts,
so a plain run of this module is the acceptance scoreboard.  Criteria are
asserted exactly as stated; none are weakened to force green.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from etsmc.cli import run_scenario
from etsmc.config import build_config
from etsmc.controller import continuous_control, event_control_update
from etsmc.plant import DimlessState, Disturbance
from etsmc.sim import (run_event_triggered, run_time_triggered,
                       verify_reachability)

REFERENCE_BAND = (0.4067, 0.4454)


def report(label, ok, detail=""):
    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def steady_e2_max(traj):
    tail = traj.t >= 40.0
    return float(np.abs(traj.x2 - traj.x2ref)[tail].max())


def test_acceptance_1_startup_tracking(nominal_run):
    traj, _, _, elapsed = nominal_run
    e2 = steady_e2_max(traj)
    ok = e2 <= 0.06 and elapsed < 5.0
    assert report("1 startup tracking", ok,
                  f"steady |e2|={e2:.4f} (<=0.06), runtime={elapsed:.2f}s (<5s)")


def test_acceptance_2_disturbance_band(disturbed_run):
    traj, _, _ = disturbed_run
    tail = traj.t >= 0.4 * traj.t[-1]
    lo, hi = float(traj.x1[tail].min()), float(traj.x1[tail].max())
    ok = lo >= 0.40 and hi <= 0.47
    assert report("2 disturbance band", ok,
                  f"achieved [{lo:.4f}, {hi:.4f}] within [0.40, 0.47]; "
                  f"reference band [{REFERENCE_BAND[0]}, {REFERENCE_BAND[1]}]")


def test_acceptance_3a_disturbed_takes_more_samples(nominal_run,
                                                    disturbed_run):
    nom = nominal_run[2]
    dis = disturbed_run[2]
    ok = dis.event_count > nom.event_count
    assert report("3a event economy (disturbed > nominal)", ok,
                  f"disturbed={dis.event_count}, nominal={nom.event_count}")


def test_acceptance_3b_update_ratio_below_half(nominal_run, disturbed_run,
                                               nominal_tt, disturbed_tt):
    r_nom = nominal_run[2].event_count / nominal_tt[1].event_count
    r_dis = disturbed_run[2].event_count / disturbed_tt[1].event_count
    ok = r_nom < 0.5 and r_dis < 0.5
    assert report("3b event economy (ratios < 0.5)", ok,
                  f"nominal ratio={r_nom:.3f}, disturbed ratio={r_dis:.3f}")


def test_acceptance_4_zeno_exclusion(nominal_run, disturbed_run,
                                     regulate_runs, default_cfg):
    h = default_cfg.h
    logs = [nominal_run[1], disturbed_run[1]]
    logs += [regulate_runs[k][2] for k in sorted(regulate_runs)]
    min_gap = min(min(log.gaps) for log in logs)
    min_bound = min(min(log.bound_at_event) for log in logs)
    ok = min_gap >= h and min_bound > 0.0
    assert report("4 zeno exclusion", ok,
                  f"min gap={min_gap:g} (>= h={h:g}), "
                  f"min bound={min_bound:.3e} (> 0)")


def _all_scenario_trajs(nominal_run, disturbed_run, regulate_runs):
    trajs = [("nominal", nominal_run[0]), ("disturbed", disturbed_run[0])]
    trajs += [(f"regulate-{int(k)}", regulate_runs[k][1])
              for k in sorted(regulate_runs)]
    return trajs


def test_acceptance_5a_reachability(nominal_run, disturbed_run,
                                    regulate_runs):
    worst_eta = math.inf
    violations = 0
    for _, traj in _all_scenario_trajs(nominal_run, disturbed_run,
                                       regulate_runs):
        res = verify_reachability(traj)
        assert res.applicable
        worst_eta = min(worst_eta, res.eta_hat)
        violations += len(res.violations)
    ok = worst_eta > 0.0 and violations == 0
    assert report("5a reachability", ok,
                  f"min eta_hat={worst_eta:.3f} (> 0), "
                  f"violations={violations} (= 0)")


def test_acceptance_5b_lyapunov_monotone_outside_band(
        nominal_run, disturbed_run, regulate_runs):
    worst = {}
    for name, traj in _all_scenario_trajs(nominal_run, disturbed_run,
                                          regulate_runs):
        outside = np.abs(traj.sigma[:-1]) > traj.band[:-1]
        increases = int(np.count_nonzero(outside & (np.diff(traj.v) > 0.0)))
        if increases:
            worst[name] = increases
    ok = not worst
    assert report("5b Lyapunov decrease outside band", ok,
                  "V increases outside the band at "
                  + ", ".join(f"{k}: {v} samples" for k, v in worst.items())
                  if worst else "V nonincreasing outside band everywhere")


def test_acceptance_5c_falsification_control(flipped_run):
    res = verify_reachability(flipped_run[0])
    ok = res.applicable and (res.eta_hat <= 0.0 or res.violations)
    assert report("5c falsification (flipped sign must fail)", ok,
                  f"flipped eta_hat={res.eta_hat:.3f}")


@pytest.fixture(scope="module")
def psi_sweep(default_cfg, nominal_run, nominal_tt):
    """Sup-norm gap between event-triggered and every-step control per psi."""
    gaps = {}
    agree = {}

    def sup_gap(et_traj, tt_traj):
        return float(max(np.abs(et_traj.x1 - tt_traj.x1).max(),
                         np.abs(et_traj.x2 - tt_traj.x2).max()))

    def law_agreement(cfg, traj):
        p, sp, r = cfg.plant, cfg.sliding, cfg.reference
        d = cfg.disturbance()
        idxs = np.flatnonzero(traj.event)
        sample = idxs[:: max(1, len(idxs) // 200)]
        for i in sample:
            x = DimlessState(float(traj.x1[i]), float(traj.x2[i]))
            t = float(traj.t[i])
            held = event_control_update(x, t, p, d, r, sp)
            if held.u != continuous_control(x, t, p, d, r, sp):
                return False
            if held.u != traj.u[i]:
                return False
        return True

    for psi in (0.5, 0.1, 0.02):
        cfg = replace(default_cfg, trigger=replace(default_cfg.trigger,
                                                   psi=psi))
        if psi == 0.5:
            et_traj = nominal_run[0]
            tt_traj = nominal_tt[0]
        else:
            et_traj = run_event_triggered(cfg)[0]
            tt_traj = run_time_triggered(cfg)[0]
        gaps[psi] = sup_gap(et_traj, tt_traj)
        agree[psi] = law_agreement(cfg, et_traj)
    return gaps, agree


def test_acceptance_6_refinement_consistency(psi_sweep):
    gaps, agree = psi_sweep
    ordered = [gaps[p] for p in (0.5, 0.1, 0.02)]
    monotone = all(b <= a for a, b in zip(ordered, ordered[1:]))
    laws = all(agree.values())
    ok = monotone and laws
    assert report("6 refinement consistency", ok,
                  "sup gaps psi 0.5/0.1/0.02 = "
                  + "/".join(f"{g:.3e}" for g in ordered)
                  + f", exact law agreement at events: {laws}")


def test_acceptance_7_numerical_hygiene(tmp_path):
    from etsmc.plant import DimlessParams, eval_f1, eval_f2, jacobian

    p = build_config({}).plant
    rng = np.random.default_rng(123)
    step = 1e-6
    fd_ok = True
    for _ in range(100):
        x1, x2 = rng.uniform(0, 1), rng.uniform(0, 5)
        j = jacobian(DimlessState(x1, x2), p)
        fd = np.empty((2, 2))
        for col, (d1, d2) in enumerate(((step, 0.0), (0.0, step))):
            hi = DimlessState(x1 + d1, x2 + d2)
            lo = DimlessState(x1 - d1, x2 - d2)
            fd[0, col] = (eval_f1(hi, p) - eval_f1(lo, p)) / (2 * step)
            fd[1, col] = (eval_f2(hi, p) - eval_f2(lo, p)) / (2 * step)
        if np.linalg.norm(j - fd) > 1e-5 * max(1.0, np.linalg.norm(j)):
            fd_ok = False

    from etsmc.sim import rk4_step
    lin = DimlessParams(da=1e-300, gamma=20.0, b_rise=8.0, beta=0.3,
                        x2c0=0.0)

    def err(n):
        h = 1.0 / n
        x = DimlessState(1.0, 0.0)
        for i in range(n):
            x = rk4_step(x, 0.0, i * h, h, lin, Disturbance.zero())
        return abs(x.x1 - math.exp(-1.0))

    order = math.log2(err(16) / err(32))

    cfg = build_config({"t_end": 2.0})
    m1, _ = run_scenario("nominal", cfg, tmp_path / "a")
    m2, _ = run_scenario("nominal", cfg, tmp_path / "b")
    rerun_ok = m1 == m2

    ok = fd_ok and order >= 3.9 and rerun_ok
    assert report("7 numerical hygiene", ok,
                  f"jacobian fd<=1e-5: {fd_ok}, rk4 order={order:.2f} "
                  f"(>=3.9), bit-identical reruns: {rerun_ok}")


def test_acceptance_8a_regulation_tracking(regulate_runs):
    worst = {}
    for k in sorted(regulate_runs):
        _, traj, _, _ = regulate_runs[k]
        worst[int(k)] = steady_e2_max(traj)
    ok = all(v <= 0.06 for v in worst.values())
    assert report("8a regulation tracking", ok,
                  ", ".join(f"{k} K: steady |e2|={v:.4f}"
                            for k, v in worst.items()) + " (<= 0.06)")


def test_acceptance_8b_events_sparse_at_steady_state(regulate_runs):
    detail = []
    ok = True
    for k in sorted(regulate_runs):
        _, traj, _, _ = regulate_runs[k]
        n = len(traj.t)
        cut = n // 5
        early = float(traj.event[:cut].mean())
        late = float(traj.event[-cut:].mean())
        detail.append(f"{int(k)} K: early={early:.3f}, late={late:.3f}")
        ok = ok and late < early
    assert report("8b regulation event sparsity", ok,
                  "; ".join(detail) + " (late < early required)")
