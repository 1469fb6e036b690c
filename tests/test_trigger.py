import math
import re
import struct
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from etsmc.config import build_config
from etsmc.controller import SlidingParams
from etsmc.plant import (ConfigError, DimlessParams, DimlessState,
                         PlantError, jacobian_stack)
from etsmc.sim import run_event_triggered, write_trajectory_csv
from etsmc.trigger import (CSV_BLOCK, LIPSCHITZ_BOX, LIPSCHITZ_SAFETY,
                           EventLog, LipschitzEstimate,
                           TriggerParams, _spectral_norm_2x2,
                           estimate_lipschitz, margin, thresholds,
                           write_event_csv, zeno_bound, zeno_bounds)

NOMINAL = DimlessParams(da=0.078, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)
SP = SlidingParams(lambda1=1.0, lambda2=2.0, mu=25.0)
TP = TriggerParams(zeta=0.8, xi=0.8, psi=0.5, m1=1e-4, m2=0.2025,
                   varsigma=0.97)


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(zeta=0.0), dict(xi=-1.0), dict(psi=0.0), dict(psi=1.0),
        dict(m1=-1e-9), dict(m2=-1.0), dict(m1=0.0, m2=0.0),
        dict(varsigma=0.0), dict(varsigma=1.0), dict(trigger_both=0.5),
        dict(trigger_both=2.0),
    ])
    def test_rejects_invalid(self, bad):
        kw = dict(zeta=0.8, xi=0.8, psi=0.5, m1=1e-4, m2=0.2025,
                  varsigma=0.97)
        kw.update(bad)
        with pytest.raises(ConfigError):
            TriggerParams(**kw)

    def test_psi_message(self):
        with pytest.raises(ConfigError, match=r"psi must lie in \(0,1\)"):
            TriggerParams(zeta=0.8, xi=0.8, psi=1.5, m1=1e-4, m2=0.2025,
                          varsigma=0.97)

    def test_default_index_is_temperature(self):
        assert TP.trigger_both == 0.0


def tol_at(t, tp=TP):
    """The tolerance at the single time t."""
    return float(thresholds(np.array([t]), tp)[0])


class TestThreshold:
    def test_initial_value(self):
        # 0.5 * (1e-4 + 0.2025) = 0.10130
        assert tol_at(0.0) == pytest.approx(0.10130, abs=1e-15)

    def test_decays_to_floor(self):
        assert tol_at(1e6) == pytest.approx(0.5 * 1e-4, rel=1e-12)

    def test_decreasing(self):
        vals = thresholds(np.linspace(0.0, 50.0, 200), TP)
        assert np.all(vals[1:] <= vals[:-1])
        # strictly decreasing while the decay term is above one ulp of
        # the floor
        early = thresholds(np.linspace(0.0, 30.0, 100), TP)
        assert np.all(early[1:] < early[:-1])

    def test_series_matches_scalar_evaluation_bitwise(self):
        # t reaches 1000, so exp(-varsigma*t) passes through subnormals to 0.0
        h = 0.01
        tols = thresholds(np.arange(100_001) * h, TP)
        assert tols[-1] == TP.psi * TP.m1
        for i in range(0, 100_001, 7):
            t = i * h
            ex = math.exp(-TP.varsigma * t)
            assert tols[i] == tol_at(t) == (
                TP.psi * (TP.m1 + TP.m2 * ex)), i


class TestDelta:
    # margin(e1, e2, e1dot, e2dot, tol, tp); the loop fires at margin >= 0
    def test_hand_value(self):
        # |0.8*0.1 + 0.8*0.2^2| - 0.1013 = 0.112 - 0.1013 = 0.0107
        assert margin(0.0, 0.1, 0.0, 0.2, tol_at(0.0), TP) == pytest.approx(
            0.0107, abs=1e-12)

    def test_default_ignores_composition_error(self):
        assert margin(100.0, 0.0, 100.0, 0.0, tol_at(0.0), TP) < 0.0

    def test_both_indices_take_the_max(self):
        tp = TriggerParams(zeta=0.8, xi=0.8, psi=0.5, m1=1e-4, m2=0.2025,
                           varsigma=0.97, trigger_both=1.0)
        assert margin(1.0, 0.0, 0.0, 0.0, tol_at(0.0, tp), tp) == (
            pytest.approx(0.8 - 0.10130, abs=1e-12))

    def test_fires_exactly_at_zero_margin(self):
        # tolerances picked so the margin is exactly 0.0 in floating point
        tp = TriggerParams(zeta=1.0, xi=1.0, psi=0.5, m1=0.1, m2=0.1,
                           varsigma=0.5)
        tol = tol_at(0.0, tp)
        assert margin(0.0, 0.1, 0.0, 0.0, tol, tp) == 0.0
        assert margin(0.0, 0.0999, 0.0, 0.0, tol, tp) < 0.0

    def test_rate_enters_squared(self):
        tol = tol_at(0.0)
        assert margin(0.0, 0.0, 0.0, 0.5, tol, TP) == margin(
            0.0, 0.0, 0.0, -0.5, tol, TP)

    @pytest.mark.parametrize("both,indices", [(0.0, (2,)), (1.0, (1, 2))])
    def test_matches_index_tuple_formula_bitwise(self, both, indices):
        # the formula as it was written over a tuple of error indices
        def indexed(e1, e2, e1dot, e2dot, tol):
            val = -math.inf
            if 1 in indices:
                val = abs(TP.zeta * e1 + TP.xi * e1dot * e1dot)
            if 2 in indices:
                v2 = abs(TP.zeta * e2 + TP.xi * e2dot * e2dot)
                if v2 > val:
                    val = v2
            return val - tol

        tp = replace(TP, trigger_both=both)
        bits = struct.Struct("<d").pack
        values = [0.0, -0.0, 5e-324, 1.0, -1.0, 1e308, -1e308, math.inf,
                  -math.inf, math.nan]
        for tol in (0.0, tol_at(0.0), math.inf, math.nan):
            for errs in product(values, repeat=4):
                assert bits(margin(*errs, tol, tp)) == bits(
                    indexed(*errs, tol)), (errs, tol)


class TestZenoBound:
    LIP = LipschitzEstimate(l_bar=4.0, sample_count=100)

    def test_monotone_in_discretization_error(self):
        x = DimlessState(0.4, 2.6)
        bounds = [zeno_bound(x, e, self.LIP, NOMINAL, SP)
                  for e in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_monotone_in_gain(self):
        x = DimlessState(0.4, 2.6)
        lo = zeno_bound(x, 0.01, self.LIP, NOMINAL,
                        SlidingParams(1.0, 2.0, 5.0))
        hi = zeno_bound(x, 0.01, self.LIP, NOMINAL,
                        SlidingParams(1.0, 2.0, 50.0))
        assert lo > hi

    def test_batch_matches_per_state_formula_bitwise(self):
        rng = np.random.default_rng(3)
        x1 = rng.uniform(0.0, 1.0, 200).tolist()
        x2 = rng.uniform(0.0, 5.0, 200).tolist()
        # ||M|| = ||lambda||/|lambda2| and ||Bbar|| = beta
        m_norm = math.hypot(1.0, 2.0) / 2.0
        lbar, eps = self.LIP.l_bar, 0.013
        expected = []
        for a, b in zip(x1, x2):
            denom = (lbar * (1.0 + m_norm) * math.hypot(a, b)
                     + NOMINAL.beta * SP.mu)
            expected.append(math.log1p(lbar * eps / denom) / lbar)
        assert zeno_bounds(x1, x2, eps, self.LIP, NOMINAL, SP) == expected

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(PlantError, match="eps_max must be positive"):
            zeno_bound(DimlessState(0.4, 2.6), 0.0, self.LIP, NOMINAL, SP)
        with pytest.raises(PlantError, match="l_bar must be positive"):
            LipschitzEstimate(l_bar=0.0, sample_count=100)

    def test_gain_norms_match_the_svd_of_m(self):
        # M = Bbar lambda^T/(lambda2 beta) has rank one, so its spectral
        # norm is ||lambda||/|lambda2|, and ||Bbar|| = beta: the bound
        # takes both in closed form, within 4 ulp of the SVD of M, and
        # with its very bits on the default design
        rng = np.random.default_rng(19)
        betas, l1s, l2s = rng.uniform(0.1, 5.0, (3, 1500))
        l1s *= rng.choice([-1.0, 1.0], 1500)
        l2s *= rng.choice([-1.0, 1.0], 1500)
        designs = [(NOMINAL.beta, SP.lambda1, SP.lambda2, 0)] + [
            (*d, 4) for d in zip(betas.tolist(), l1s.tolist(), l2s.tolist())]
        x, eps, lbar = DimlessState(0.4, 2.6), 0.013, self.LIP.l_bar
        for beta, l1, l2, ulps in designs:
            bbar = np.array([0.0, beta])
            svd = float(np.linalg.norm(np.outer(bbar, [l1, l2]) / (l2 * beta),
                                       2))
            m_norm = math.hypot(l1, l2) / abs(l2)
            assert abs(m_norm - svd) <= ulps * math.ulp(svd), (beta, l1, l2)
            assert float(np.linalg.norm(bbar)) == beta
            sp = SlidingParams(l1, l2, 25.0)
            denom = (lbar * (1.0 + m_norm) * math.hypot(x.x1, x.x2)
                     + beta * sp.mu)
            assert zeno_bound(x, eps, self.LIP, replace(NOMINAL, beta=beta),
                              sp) == math.log1p(lbar * eps / denom) / lbar

    def test_underflowing_control_term_raises(self):
        # ||Bbar||*mu = 0.3 * 5e-324 rounds to 0: the origin's denominator
        # vanishes, while a state away from it still has a bound
        sp = SlidingParams(lambda1=1.0, lambda2=2.0, mu=5e-324)
        assert zeno_bound(DimlessState(0.4, 2.6), 0.01, self.LIP,
                          NOMINAL, sp) > 0.0
        with pytest.raises(PlantError, match="not positive"):
            zeno_bounds([0.4, 0.0], [2.6, 0.0], 0.01, self.LIP, NOMINAL, sp)


class TestLipschitz:
    def test_linear_limit(self):
        # with a vanishing reaction term the Jacobian is constant
        # diag(-1, -(1+beta)) so the estimate is safety * (1 + beta)
        p = DimlessParams(da=1e-300, gamma=20.0, b_rise=8.0, beta=0.3,
                          x2c0=0.0)
        est = estimate_lipschitz(p)
        assert est.l_bar == pytest.approx(LIPSCHITZ_SAFETY * 1.3, rel=1e-9)

    def test_closed_form_helper_agrees_with_numpy(self):
        # the squared Frobenius norm alone would overflow at scale 1e300
        # and underflow at 1e-300
        rng = np.random.default_rng(5)
        for scale in [1.0] * 50 + [1e-300] * 10 + [1e300] * 10:
            m = rng.normal(size=(2, 2)) * scale
            assert _spectral_norm_2x2(*m.ravel().tolist()) == pytest.approx(
                np.linalg.norm(m, 2), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("p,count", [
        # the four corners; x2* = 180 lies outside the box
        (NOMINAL, 4),
        (replace(NOMINAL, da=1e-300), 4),
        # x2* = gamma(gamma - 2)/2 = 2.625 is inside the box, so the two
        # points on the line x2 = x2* join the corners
        (replace(NOMINAL, gamma=3.5), 6),
    ], ids=["nominal", "linear-limit", "interior-peak"])
    def test_bound_covers_dense_grid(self, p, count):
        est = estimate_lipschitz(p)
        assert est.sample_count == count
        (x1lo, x1hi), (x2lo, x2hi) = LIPSCHITZ_BOX
        x1g, x2g = np.meshgrid(np.linspace(x1lo, x1hi, 201),
                               np.linspace(x2lo, x2hi, 801), indexing="ij")
        jac = jacobian_stack(x1g.ravel(), x2g.ravel(), p)
        grid_max = float(np.linalg.norm(jac, 2, axis=(1, 2)).max())
        assert est.l_bar >= grid_max
        # the bound itself, without the safety factor, is certified: it
        # misses the grid maximum by rounding at most
        assert est.l_bar / LIPSCHITZ_SAFETY >= grid_max * (1.0 - 1e-14)

    @pytest.mark.parametrize("field", ["da", "b_rise"])
    def test_nonfinite_jacobian_raises(self, field):
        # Da or B*Da times the exponential overflows to inf (times 0, nan);
        # the point is named before any norm is taken
        with pytest.raises(PlantError, match="Jacobian is not finite"):
            estimate_lipschitz(replace(NOMINAL, **{field: 1e308}))


def _rowwise_event_csv(log):
    """The per-row event formatter the block writer replaced, as reference."""
    lines = ["k,t_k,T_k,delta_fired,zeno_bound"]
    for k, t_k in enumerate(log.instants):
        gap = repr(log.gaps[k]) if k < len(log.gaps) else "nan"
        lines.append(f"{k},{t_k!r},{gap},{log.delta_at_event[k]!r},"
                     f"{log.bound_at_event[k]!r}")
    return "\n".join(lines) + "\n"


SPECIAL = [-0.0, math.nan, math.inf, 5e-324, 1e16, 1e-5]

class TestEventCsv:
    def test_blocks_match_rowwise_formatter(self, tmp_path):
        # one event has no gap; the third length has n - 1 gaps, a multiple
        # of CSV_BLOCK, so the last event's nan interval is the one row of
        # the last block
        for n in (1, 2 * CSV_BLOCK + 3, 2 * CSV_BLOCK + 1):
            rng = np.random.default_rng(11)
            instants = np.cumsum(rng.uniform(1e-3, 0.5, n)).tolist()
            cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
                    for _ in range(3)]
            for j, col in enumerate(cols):
                # the special values at the block edges and inside a block
                for k, v in enumerate(SPECIAL):
                    at = (CSV_BLOCK - 1 + k + j,
                          min(2 * CSV_BLOCK + j % 3, n - 1), 17 * k + j)
                    col[[i for i in at if i < n]] = v
            log = EventLog(instants=instants, gaps=cols[0][:-1].tolist(),
                           delta_at_event=cols[1].tolist(),
                           bound_at_event=cols[2].tolist())
            path = tmp_path / f"events-{n}.csv"
            write_event_csv(log, path)
            assert path.read_bytes() == _rowwise_event_csv(log).encode(), n
            assert len(path.read_text().splitlines()) == n + 1, n

    @pytest.mark.parametrize("shared", [False, True],
                             ids=["alone", "shared-text"])
    def test_writer_text_is_bounded_by_the_block(self, tmp_path, traced_peak,
                                                 shared):
        # an event at every row of 10,001: the writer holds one CSV_BLOCK
        # of formatted rows at a time and no column-sized copy of the log,
        # about 0.21 to 0.25 MB; 400,000 B leaves a 37% margin, below
        # the 0.52 to 0.54 MB it took with a padded copy of the gaps
        traj, log, _ = run_event_triggered(build_config({"t_end": 10.0}))
        assert len(log.instants) == 10_001
        text = (write_trajectory_csv(traj, tmp_path / "trajectory.csv")
                if shared else None)
        _, kept, peak = traced_peak(write_event_csv, log,
                                    tmp_path / "events.csv", text)
        assert peak - kept <= 400_000

    def test_event_text_must_cover_the_log(self, tmp_path):
        log = EventLog(instants=[0.0, 0.25], gaps=[0.25],
                       bound_at_event=[1e-4, 2e-4],
                       delta_at_event=[-0.1, 0.0])
        path = tmp_path / "events.csv"
        write_event_csv(log, path, event_text=[("0.0", "-0.1"), ("", ""),
                                               ("0.25", "0.0")])
        written = path.read_bytes()
        assert written == _rowwise_event_csv(log).encode()
        # the count is checked before the file is opened, so a refused
        # call leaves the file as it was
        for text, rows in (([("0.0", "-0.1")], 1),
                           ([("0.0\n0.25", "-0.1\n0.0"), ("1.0", "0.5")], 3)):
            with pytest.raises(ValueError,
                               match=f"{rows} event rows, the log 2"):
                write_event_csv(log, path, event_text=text)
            assert path.read_bytes() == written

    @pytest.mark.parametrize("gaps,deltas,bounds", [
        ([0.25, 0.5], [-0.1, 0.0], [1e-4, 2e-4]),
        ([], [-0.1, 0.0], [1e-4, 2e-4]),
        ([0.25], [-0.1, 0.0], [1e-4, 2e-4, 3e-4]),
        ([0.25], [-0.1, 0.0], [1e-4]),
        ([0.25], [-0.1, 0.0, 0.02], [1e-4, 2e-4]),
    ], ids=["extra-gap", "no-gap", "extra-bound", "missing-bound",
            "extra-delta"])
    def test_log_columns_must_match_the_instants(self, tmp_path, gaps,
                                                 deltas, bounds):
        # n instants take n - 1 gaps and n margins and bounds; anything
        # else is refused before the file is opened, where it would
        # otherwise write a wrong T_k or drop rows
        log = EventLog(instants=[0.0, 0.25], gaps=gaps,
                       bound_at_event=bounds, delta_at_event=deltas)
        path = tmp_path / "events.csv"
        lengths = (len(gaps), len(deltas), len(bounds))
        with pytest.raises(ValueError, match=re.escape(
                f"2 instants and (gaps, delta_at_event, bound_at_event) = "
                f"{lengths}, not (1, 2, 2)")):
            write_event_csv(log, path)
        assert not path.exists()
