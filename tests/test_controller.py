import math

import numpy as np
import pytest

from etsmc.config import build_config
from etsmc.controller import (HeldControl, ReferenceSignal, SlidingParams,
                              continuous_control, drift_vector,
                              event_control_update, sign, switching_law)
from etsmc.plant import (ConfigError, DimlessParams, DimlessState,
                         Disturbance, drift)

NOMINAL = DimlessParams(da=0.078, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)
SP = SlidingParams(lambda1=1.0, lambda2=2.0, mu=25.0)
REF = ReferenceSignal(x1_const=0.4472, x2ss=2.6516, k1=1.0, k2=1.0)


class TestSlidingParams:
    def test_zero_lambda2_rejected(self):
        with pytest.raises(ConfigError):
            SlidingParams(lambda1=1.0, lambda2=0.0, mu=1.0)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ConfigError):
            SlidingParams(lambda1=1.0, lambda2=2.0, mu=0.0)


class TestReference:
    def test_startup_shape(self):
        assert REF.x2ref(0.0) == 0.0
        assert REF.x2ref(50.0) == pytest.approx(2.6516, abs=1e-12)
        assert REF.x2ref(1.0) == pytest.approx(2.6516 * (1 - math.exp(-1)))

    def test_constant_composition_reference(self):
        # the composition reference has no rate, so the first row of the
        # undisturbed error drift is f1 at every time
        x = DimlessState(0.3, 1.0)
        f1 = drift(x.x1, x.x2, NOMINAL)[0]
        for t in (0.0, 1.0, 42.0):
            g = drift_vector(x, t, NOMINAL, Disturbance.zero(), REF)
            assert g[0] == f1

    def test_derivative_matches_finite_differences(self):
        step = 1e-6
        for t in (0.0, 0.5, 3.0, 10.0):
            fd = (REF.x2ref(t + step) - REF.x2ref(t - step)) / (2 * step)
            assert REF.x2ref_dot(t) == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_initial_rate(self):
        assert REF.x2ref_dot(0.0) == pytest.approx(2.6516)

    @pytest.mark.parametrize("bad", [
        dict(x1_const=math.nan), dict(x2ss=math.inf), dict(k1=-math.inf),
        dict(k2=math.nan), dict(k2=-1e300), dict(k2=-1e-9),
    ])
    def test_rejects_invalid(self, bad):
        kw = dict(x1_const=0.4472, x2ss=2.6516, k1=1.0, k2=1.0)
        kw.update(bad)
        with pytest.raises(ConfigError):
            ReferenceSignal(**kw)

    @pytest.mark.parametrize("x2ss", [2.6516, 20.0 / 3.0])  # default, 400 K
    def test_series_matches_scalar_evaluation_bitwise(self, x2ss):
        # t reaches 1000, so exp(-k2*t) passes through subnormals to 0.0
        ref = ReferenceSignal(x1_const=0.4472, x2ss=x2ss, k1=1.0, k2=1.0)
        h = 0.01
        x2r, x2rd = ref.x2ref_series(np.arange(100_001) * h)
        assert x2r[-1] == x2ss and x2rd[-1] == 0.0
        for i in range(0, 100_001, 7):
            t = i * h
            ex = math.exp(-ref.k2 * t)
            assert x2r[i] == ref.x2ref(t) == x2ss * (1.0 - ref.k1 * ex), i
            assert x2rd[i] == ref.x2ref_dot(t) == (
                x2ss * ref.k1 * ref.k2 * ex), i
        assert type(ref.x2ref(1.0)) is float
        assert type(ref.x2ref_dot(1.0)) is float


class TestSigmaSign:
    def test_sigma_weighted_sum(self):
        # with a zero drift only mu*sign(lambda1*e1 + lambda2*e2) is left:
        # sigma = 0.5 - 0.5 = 0 switches nothing, sigma = 3 switches down
        assert switching_law(0.5, -0.25, 0.0, 0.0, SP, 0.3) == 0.0
        assert switching_law(1.0, 1.0, 0.0, 0.0, SP, 0.3) == -25.0 / 0.6

    def test_sign_convention(self):
        assert sign(2.5) == 1.0
        assert sign(-1e-30) == -1.0
        assert sign(0.0) == 0.0


class TestDriftVector:
    def test_origin_hand_value(self):
        # f1(0,0) = Da = 0.078; f2(0,0) = B*Da = 0.624; x2ref_dot(0) = 2.6516
        f = drift_vector(DimlessState(0.0, 0.0), 0.0, NOMINAL,
                         Disturbance.zero(), REF)
        assert f[0] == pytest.approx(0.078, abs=1e-15)
        assert f[1] == pytest.approx(0.624 - 2.6516, abs=1e-12)

    def test_disturbance_channel_placement(self):
        # d2 enters the composition row with a minus, d1 the temperature
        # row with a plus; at t = pi/2 the sinusoids sit at their amplitudes
        d = Disturbance(amp1=0.01, freq1=1.0, amp2=0.02, freq2=1.0)
        t = 0.5 * math.pi
        clean = drift_vector(DimlessState(0.2, 0.5), t, NOMINAL,
                             Disturbance.zero(), REF)
        noisy = drift_vector(DimlessState(0.2, 0.5), t, NOMINAL, d, REF)
        assert noisy[0] - clean[0] == pytest.approx(-0.02, abs=1e-15)
        assert noisy[1] - clean[1] == pytest.approx(0.01, abs=1e-15)


class TestControlLaw:
    def test_zero_reference_hand_value(self):
        # e = 0 at the origin with a null reference, so sign(sigma) = 0 and
        # u = -(lambda . f)/(lambda2*beta) = -(0.078 + 2*0.624)/0.6 = -2.21
        ref0 = ReferenceSignal(x1_const=0.0, x2ss=0.0, k1=1.0, k2=1.0)
        u = continuous_control(DimlessState(0.0, 0.0), 0.0, NOMINAL,
                               Disturbance.zero(), ref0, SP)
        assert u == pytest.approx(-2.21, abs=1e-12)

    def test_startup_hand_value(self):
        # sigma(0) = -0.4472 < 0, f = (0.078, 0.624 - 2.6516):
        # u = -((0.078 + 2*(-2.0276)) - 25)/0.6 = 28.9772/0.6
        u = continuous_control(DimlessState(0.0, 0.0), 0.0, NOMINAL,
                               Disturbance.zero(), REF, SP)
        assert u == pytest.approx(28.9772 / 0.6, rel=1e-12)

    def test_gain_scales_switching_term_only(self):
        sp_hi = SlidingParams(lambda1=1.0, lambda2=2.0, mu=50.0)
        x = DimlessState(0.1, 0.1)
        lo = continuous_control(x, 0.0, NOMINAL, Disturbance.zero(), REF, SP)
        hi = continuous_control(x, 0.0, NOMINAL, Disturbance.zero(), REF, sp_hi)
        s = sign(SP.lambda1 * (x.x1 - 0.4472)
                 + SP.lambda2 * (x.x2 - REF.x2ref(0.0)))
        assert hi - lo == pytest.approx(-25.0 * s / 0.6, rel=1e-12)


class TestEventForm:
    def test_snapshot_and_value(self):
        d = Disturbance.zero()
        x = DimlessState(0.3, 1.0)
        hc = event_control_update(x, 2.0, NOMINAL, d, REF, SP)
        # the event form is the continuous law at the snapshot (x, t_k),
        # and the held value is all it keeps
        assert hc == HeldControl(
            u=continuous_control(x, 2.0, NOMINAL, d, REF, SP))

    def test_laws_coincide_on_random_states(self):
        import numpy as np
        rng = np.random.default_rng(11)
        d = Disturbance.zero()
        for _ in range(50):
            x = DimlessState(rng.uniform(0, 1), rng.uniform(0, 5))
            t = rng.uniform(0, 50)
            hc = event_control_update(x, t, NOMINAL, d, REF, SP)
            assert hc.u == continuous_control(x, t, NOMINAL, d, REF, SP)

    def test_laws_match_the_loop_formula_under_disturbance(self):
        # sim._run_loop computes the control as switching_law(e1, e2,
        # f1 - d2, f2 + d1 - x2ref_dot, ...); the dataclass forms must give
        # the same bits with the disturbance on
        cfg = build_config({}, scenario="disturbed")
        p, sp, r = cfg.plant, cfg.sliding, cfg.reference
        d = cfg.disturbance()
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = DimlessState(rng.uniform(0, 1), rng.uniform(0, 5))
            t = float(rng.uniform(0, 50))
            f1, f2 = drift(x.x1, x.x2, p)
            d1v, d2v = d.eval(t)
            assert d1v != 0.0 and d2v != 0.0
            g1, g2 = f1 - d2v, f2 + d1v - r.x2ref_dot(t)
            u = switching_law(x.x1 - r.x1_const, x.x2 - r.x2ref(t), g1, g2,
                              sp, p.beta)
            g = drift_vector(x, t, p, d, r)
            assert (g[0].hex(), g[1].hex()) == (g1.hex(), g2.hex())
            assert continuous_control(x, t, p, d, r, sp).hex() == u.hex()
            assert event_control_update(x, t, p, d, r, sp).u.hex() == u.hex()
