import math

import numpy as np
import pytest

from etsmc.controller import (ErrorState, HeldControl, ReferenceSignal,
                              SlidingParams, continuous_control, drift_vector,
                              error_state, event_control_update, sigma, sign)
from etsmc.plant import (DimlessParams, DimlessState, Disturbance,
                         InvalidParameterError, state_derivative)

NOMINAL = DimlessParams(da=0.078, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)
SP = SlidingParams(lambda1=1.0, lambda2=2.0, mu=25.0)
REF = ReferenceSignal(x1_const=0.4472, x2ss=2.6516, k1=1.0, k2=1.0)


class TestSlidingParams:
    def test_zero_lambda2_rejected(self):
        with pytest.raises(InvalidParameterError):
            SlidingParams(lambda1=1.0, lambda2=0.0, mu=1.0)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(InvalidParameterError):
            SlidingParams(lambda1=1.0, lambda2=2.0, mu=0.0)


class TestReference:
    def test_startup_shape(self):
        assert REF.x2ref(0.0) == 0.0
        assert REF.x2ref(50.0) == pytest.approx(2.6516, abs=1e-12)
        assert REF.x2ref(1.0) == pytest.approx(2.6516 * (1 - math.exp(-1)))

    def test_constant_composition_reference(self):
        for t in (0.0, 1.0, 42.0):
            assert REF.x1ref(t) == 0.4472
            assert REF.x1ref_dot(t) == 0.0

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
        with pytest.raises(InvalidParameterError):
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
        e = ErrorState(e1=0.5, e2=-0.25, e1dot=0.0, e2dot=0.0)
        assert sigma(e, SP) == pytest.approx(0.5 - 0.5)
        assert sigma(ErrorState(1.0, 1.0, 0.0, 0.0), SP) == 3.0

    def test_sign_convention(self):
        assert sign(2.5) == 1.0
        assert sign(-1e-30) == -1.0
        assert sign(0.0) == 0.0


class TestErrorState:
    def test_rates_come_from_held_control(self):
        d = Disturbance.zero()
        x = DimlessState(0.1, 0.2)
        t, u = 1.5, -0.7
        e = error_state(x, u, t, NOMINAL, d, REF)
        rate = state_derivative(x, u, t, NOMINAL, d)
        assert e.e1 == x.x1 - 0.4472
        assert e.e2 == x.x2 - REF.x2ref(t)
        assert e.e1dot == rate.x1
        assert e.e2dot == rate.x2 - REF.x2ref_dot(t)


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
        d = Disturbance(amp1=0.01, freq1=1.0, amp2=0.02, freq2=1.0,
                        bound=0.05)
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
        e = ErrorState(x.x1 - 0.4472, x.x2 - REF.x2ref(0.0), 0.0, 0.0)
        s = sign(sigma(e, SP))
        assert hi - lo == pytest.approx(-25.0 * s / 0.6, rel=1e-12)


class TestEventForm:
    def test_snapshot_and_value(self):
        d = Disturbance.zero()
        x = DimlessState(0.3, 1.0)
        hc = event_control_update(x, 2.0, NOMINAL, d, REF, SP)
        assert isinstance(hc, HeldControl)
        assert hc.t_k == 2.0
        assert hc.x_k == x
        # the event form is the continuous law frozen at the snapshot
        assert hc.u == continuous_control(x, 2.0, NOMINAL, d, REF, SP)
        e = ErrorState(x.x1 - 0.4472, x.x2 - REF.x2ref(2.0), 0.0, 0.0)
        assert hc.sigma_k == sigma(e, SP)

    def test_laws_coincide_on_random_states(self):
        import numpy as np
        rng = np.random.default_rng(11)
        d = Disturbance.zero()
        for _ in range(50):
            x = DimlessState(rng.uniform(0, 1), rng.uniform(0, 5))
            t = rng.uniform(0, 50)
            hc = event_control_update(x, t, NOMINAL, d, REF, SP)
            assert hc.u == continuous_control(x, t, NOMINAL, d, REF, SP)
