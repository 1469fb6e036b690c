
import math
import re

import numpy as np
import pytest

from etsmc.plant import (ConfigError, DimlessParams, DimlessState,
                         Disturbance, PlantError, composition_nullcline, drift,
                         eval_f1, eval_f2, jacobian, jacobian_stack,
                         kelvin_to_x2, pointwise)

NOMINAL = DimlessParams(da=0.078, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)


def exactly(message: str) -> str:
    """A pytest.raises match pattern that accepts message and nothing else."""
    return f"^{re.escape(message)}$"


#: The error text at x2 = -gamma, where 1 + x2/gamma vanishes.
SINGULAR = exactly("1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)")


class TestDrift:
    def test_f1_origin(self):
        assert eval_f1(DimlessState(0.0, 0.0), NOMINAL) == pytest.approx(0.078)

    def test_f1_full_conversion(self):
        # (1 - x1) = 0 kills the reaction term for any admissible x2
        for x2 in (0.0, 2.5, -3.0):
            assert eval_f1(DimlessState(1.0, x2), NOMINAL) == pytest.approx(-1.0)

    def test_f1_residual_at_operating_point(self):
        # not an exact f1 zero; frozen via direct evaluation of the model
        res = eval_f1(DimlessState(0.4472, 2.7517), NOMINAL)
        assert res == pytest.approx(0.037168504792458534, abs=1e-12)

    def test_f2_origin(self):
        assert eval_f2(DimlessState(0.0, 0.0), NOMINAL) == pytest.approx(0.624)

    def test_f2_zero_at_cool_full_conversion(self):
        assert eval_f2(DimlessState(1.0, 0.0), NOMINAL) == pytest.approx(0.0)

    def test_f2_balances_with_oracle_control(self):
        # place x1 on the reaction nullcline at the reported temperature and
        # pick u from the steady-state balance; both drifts then vanish
        x2 = 2.7517
        x1 = composition_nullcline(x2, NOMINAL)
        x = DimlessState(x1, x2)
        u = -eval_f2(x, NOMINAL) / NOMINAL.beta
        assert abs(eval_f1(x, NOMINAL)) < 1e-12
        assert abs(eval_f2(x, NOMINAL) + NOMINAL.beta * u) < 1e-12

    def test_singular_exponent(self):
        with pytest.raises(PlantError, match=SINGULAR):
            eval_f1(DimlessState(0.5, -NOMINAL.gamma), NOMINAL)
        with pytest.raises(PlantError, match=SINGULAR):
            jacobian(DimlessState(0.5, -NOMINAL.gamma), NOMINAL)

    def test_exponential_overflow_is_a_plant_error(self):
        # the regulate-500 setpoint of gamma = 1e300 maps to x2 ~ 6.7e299
        p = DimlessParams(da=0.078, gamma=1e300, b_rise=8.0, beta=0.3,
                          x2c0=0.0)
        with pytest.raises(PlantError, match=exactly(
                "exp(x2/(1+x2/gamma)) overflows "
                "(x2=6.666666666666667e+299, gamma=1e+300)")):
            drift(0.0, 6.666666666666667e299, p)
        with pytest.raises(PlantError):
            composition_nullcline(6.666666666666667e299, p)

    def test_matches_drift_components_without_input(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = DimlessState(rng.uniform(0, 1), rng.uniform(0, 5))
            f1, f2 = drift(x.x1, x.x2, NOMINAL)
            assert eval_f1(x, NOMINAL) == f1
            assert eval_f2(x, NOMINAL) == f2


class TestJacobian:
    def test_origin_entry(self):
        j = jacobian(DimlessState(0.0, 0.0), NOMINAL)
        assert j[0, 0] == pytest.approx(-1.078)

    def test_full_conversion_kills_temperature_sensitivity(self):
        j = jacobian(DimlessState(1.0, 0.0), NOMINAL)
        assert j[0, 1] == 0.0


def _scalar_jacobian(x1, x2, p):
    """The Jacobian formula evaluated in Python floats, one point."""
    den = 1.0 + x2 / p.gamma
    ex = math.exp(x2 / den)
    dex = ex / (den * den)
    rem = 1.0 - x1
    return [[-1.0 - p.da * ex, p.da * rem * dex],
            [-p.b_rise * p.da * ex,
             -1.0 + p.b_rise * p.da * rem * dex - p.beta]]


class TestJacobianStack:
    STIFF = DimlessParams(da=0.5, gamma=5.0, b_rise=8.0, beta=0.3, x2c0=0.0)

    @pytest.mark.parametrize("p", [NOMINAL, STIFF], ids=["default", "stiff"])
    def test_matches_scalar_path_bitwise(self, p):
        rng = np.random.default_rng(7)
        x1 = rng.uniform(0.0, 1.0, 4096)
        x2 = rng.uniform(0.0, 5.0, 4096)
        stack = jacobian_stack(x1, x2, p)
        assert stack.shape == (4096, 2, 2)
        pairs = list(zip(x1.tolist(), x2.tolist()))
        scalar = np.array([_scalar_jacobian(a, b, p) for a, b in pairs])
        single = np.array([jacobian(DimlessState(a, b), p) for a, b in pairs])
        assert np.array_equal(stack, scalar)
        assert np.array_equal(stack, single)
        norms = np.linalg.norm(stack, 2, axis=(1, 2))
        assert np.array_equal(norms, [np.linalg.norm(j, 2) for j in scalar])

    def test_singular_point_raises(self):
        with pytest.raises(PlantError, match=SINGULAR):
            jacobian_stack(np.array([0.0, 0.5]), np.array([0.0, -20.0]),
                           NOMINAL)


class TestConversions:
    def test_kelvin_identity_at_nominal(self):
        assert kelvin_to_x2(300.0, 300.0, 20.0) == 0.0

    def test_kelvin_hand_value(self):
        assert kelvin_to_x2(350.0, 300.0, 20.0) == pytest.approx(10.0 / 3.0)

    def test_kelvin_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            temp = rng.uniform(200.0, 900.0)
            back = 300.0 + kelvin_to_x2(temp, 300.0, 20.0) * 300.0 / 20.0
            assert back == pytest.approx(temp, abs=1e-12)

    def test_invalid_dimless(self):
        with pytest.raises(ConfigError):
            DimlessParams(da=-0.1, gamma=20.0, b_rise=8.0, beta=0.3, x2c0=0.0)


class TestDisturbance:
    def test_sinusoidal_amplitude_bounds(self):
        d = Disturbance(0.026, 0.1, 0.037, 0.1)
        ts = np.linspace(0.0, 200.0, 20001)
        d1, d2 = d.series(ts)
        assert np.abs(d1).max() <= 0.026
        assert np.abs(d2).max() <= 0.037
        for t in ts[::100]:
            d.eval(t)  # must not raise

    def test_series_matches_scalar_evaluation_bitwise(self):
        # the grid and the RK4 stage times of a t_end = 1000 run, built as
        # the loop builds them
        h = 0.01
        ts = np.arange(100_001) * h
        t0s = ts[1:] - h
        d = Disturbance(0.026, 0.1, -0.037, 2.7)
        for grid in (ts, t0s, t0s + 0.5 * h):
            d1, d2 = d.series(grid)
            for t, v1, v2 in zip(grid.tolist(), d1.tolist(), d2.tolist()):
                assert v1 == 0.026 * math.sin(0.1 * t), t
                assert v2 == -0.037 * math.sin(2.7 * t), t

    def test_nonfinite_phase_raises(self):
        d = Disturbance(0.026, 1e308, 0.037, 0.1)
        d.eval(1.0)  # 1e308 * 1.0 is finite
        with pytest.raises(PlantError, match="not finite"):
            d.series(np.array([0.0, 1.0, 2.0]))


class TestPointwise:
    EDGES = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                      -5e-324, 1.0, -745.2, 709.7])

    @staticmethod
    def bits(a):
        return np.asarray(a, dtype=np.float64).view(np.int64)

    @pytest.mark.parametrize("fn", [float, math.exp, math.atan, abs],
                             ids=["identity", "exp", "atan", "abs"])
    def test_equals_the_list_map_bitwise(self, fn):
        expected = np.array(list(map(fn, self.EDGES.tolist())))
        out = pointwise(fn, self.EDGES)
        assert out.dtype == np.float64
        assert np.array_equal(self.bits(out), self.bits(expected))

    def test_empty_array(self):
        out = pointwise(math.exp, np.array([]))
        assert out.dtype == np.float64 and out.shape == (0,)

    def test_strided_view(self):
        view = np.linspace(-3.0, 3.0, 11)[::2]
        expected = np.array(list(map(math.exp, view.tolist())))
        assert np.array_equal(self.bits(pointwise(math.exp, view)),
                              self.bits(expected))

    def test_propagates_the_function_error(self):
        with pytest.raises(OverflowError):
            pointwise(math.exp, np.array([0.0, 1000.0]))
        with pytest.raises(ValueError):
            pointwise(math.sin, np.array([math.inf]))
