"""The CLI exit-code contract: tables of exit-1 and exit-2 cases, and
properties over extreme config values.

0 is success, 1 is a named run invariant violated and nothing else, 2 is a
config, plant or IO error reported on an ``error:`` line.  No exception may
escape ``cli.main``.  Every run goes through the ``run_cli`` runner of
conftest.py, which checks that contract for the code that comes back; the
tests here check which code and which text.  ``EXIT_1`` holds an input
that violates each run invariant, and ``test_exit_1`` runs each row once:
an invariant that no run can fail has no row, and fails
``test_invariant_names_are_found``.  ``EXIT_2`` lists the inputs that must
exit 2, each with its ``error:`` text, and ``test_exit_2`` runs each row
once, under the row's id.
"""

import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from etsmc import sim
from etsmc.cli import SCENARIOS
from etsmc.config import KEYS

#: h and t_end are left out, so --duration 0.02 holds every run to 20 steps.
CONTRACT_KEYS = sorted(set(KEYS) - {"h", "t_end"})

EXTREMES = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e300, -1e300, 1e308, -1e308,
                     float("nan"), float("inf"), float("-inf")]),
    st.integers(min_value=-3, max_value=3),
)


@st.composite
def config_texts(draw):
    keys = draw(st.lists(st.sampled_from(CONTRACT_KEYS), min_size=1,
                         max_size=4, unique=True))
    return "".join(f"{key} = {draw(EXTREMES)!r}\n" for key in keys)


#: (id, invariant, config text, --duration) of nominal runs that exit 1
#: naming that invariant alone, on stderr and in manifest.json.
EXIT_1 = [
    # the chattering that keeps criterion 5b red, within 2 time units at
    # a smaller switching gain and a wider band
    ("lyapunov-rise", "lyapunov-decrease-outside-band", "mu = 1\nm1 = 1",
     "2"),
    # ||Bbar||*mu = beta*mu overflows, so the t = 0 bound is log1p(num/inf)
    # = 0.0; x0 = (0, 0) and x2ref(0) = 0 make sigma = 0 there, the law
    # adds no mu term, and no later event fires in 20 steps
    ("zeno-bound-zero", "zeno-bound-positive",
     "beta = 2\nmu = 1e308\nx1ref = 0", "0.02"),
    # L(1 + ||M||) overflows, ||M|| being 1/6e-309, and meets ||x0|| = 0:
    # the t = 0 bound is log1p(num/nan) = nan
    ("zeno-bound-nan", "zeno-bound-positive",
     "da = 5e-324\nlambda2 = 6e-309\nx1ref = 0", "0.02"),
]


def test_invariant_names_are_found(invariants):
    assert invariants == {row[1] for row in EXIT_1}


@pytest.mark.parametrize("row_id,invariant,config,duration", EXIT_1,
                         ids=[row[0] for row in EXIT_1])
def test_exit_1(row_id, invariant, config, duration, tmp_path, run_cli):
    # the runner checks that manifest.json names the same invariants
    rc, _, err, _ = run_cli(tmp_path, "nominal", config,
                            f"--duration {duration}")
    assert (rc, err) == (1, f"invariant check failed: {invariant}\n")


# each example reaches a numpy floating-point warning site, a warning at
# which fails the runner: sigma and V, the x2 reference, the gain norms and
# the squared tracking error
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(scenario=st.sampled_from(list(SCENARIOS)), text=config_texts())
@example(scenario="nominal", text="x1ref = -1e308\nx0_2 = 3\n")
@example(scenario="nominal", text="k1 = 1e308\n")
@example(scenario="nominal", text="beta = 1e300\n")
@example(scenario="baseline-comparison",
         text="x1ref = -1e300\nlambda1 = 2\nx2ss = 1e300\nk1 = 0\n")
def test_exit_code_contract(run_cli, scenario, text):
    # an exception escaping main fails the example with its traceback
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(tmp, scenario, text, "--duration 0.02")


#: --duration and h extremes (None: not set).  No pair of them makes a run
#: that fits under sim.MAX_STEPS, so each is rejected with the config,
#: before any array is allocated.
DURATIONS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
             -5e-324, 1e308, -1e308, None]
STEPS = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, 5e-324,
         1e300, 1e308, None]
HORIZON_ERRORS = ("value for 'h' must be finite",
                  "h must be positive and finite",
                  "t_end must be finite and at least 10*h",
                  f"exceeds the ceiling of {sim.MAX_STEPS}")


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(duration=st.sampled_from(DURATIONS), h=st.sampled_from(STEPS))
def test_duration_and_step_extremes_exit_2(run_cli, duration, h):
    assume(duration is not None or h is not None)
    # the = form, since argparse reads a bare "-inf" as an option
    argv = "" if duration is None else f"--duration={duration!r}"
    with tempfile.TemporaryDirectory() as tmp:
        # a draw that got past the config would run the loop, and fail
        rc, _, err, _ = run_cli(tmp, "nominal",
                                None if h is None else f"h = {h!r}", argv,
                                loop=False)
    assert rc == 2, err
    assert any(text in err for text in HORIZON_ERRORS), err


#: (id, scenario, config text or None, extra argv, stderr text,
#: before_loop).  The text is part of the one stderr line; a text from
#: "error: " to "\n" is the whole line.  A before_loop row fails with the
#: config or the checks ahead of the closed loop, which it never enters.
EXIT_2 = [
    # the config file
    ("unknown-key", "nominal", "unknown_key = 1", "", "error:", True),
    ("physical-block", "nominal", "k0 = 3.784e7\ncaf0 = 1\nf0 = 1\nrho = 1e6\n"
     "cp = 1\ndh = -2e5\nrhoc = 1e6\ncpc = 1\nv = 1\nfc = 1\ne = 49884\n"
     "r = 8.314\ntf0 = 300\ntc0 = 300\na = 1\nb = 0", "--duration 1",
     "unknown key 'k0'", True),
    ("missing-config", "nominal", None, "--config absent.cfg", "error:", True),
    ("digit-group-underscore", "nominal", "mu = 2_5", "--duration 0.02",
     "error: line 1: value for 'mu' is not a decimal number\n", True),
    ("arabic-indic-zero", "nominal", "zeta = \u0660.8", "--duration 0.02",
     "error: line 1: value for 'zeta' is not a decimal number\n", True),
    ("key-kelvin-sign", "nominal", "\u212a1 = 0.5", "--duration 0.02",
     "error: line 1: unknown key '\u212a1'\n", True),
    ("nbsp-after-value", "nominal", "mu = 25\u00a0", "--duration 0.02",
     "error: line 1: value for 'mu' is not a decimal number\n", True),
    ("nbsp-before-key", "nominal", "\u00a0mu = 25", "--duration 0.02",
     "error: line 1: unknown key '\\xa0mu'\n", True),
    ("em-space-after-key", "nominal", "mu\u2003= 25", "--duration 0.02",
     "error: line 1: unknown key 'mu\\u2003'\n", True),
    ("non-utf8", "nominal", b"mu = 25\n\xff\xfe = 1", "--duration 0.02",
     "UTF-8", True),
    # a line ends at \n alone, not at the other breaks of str.splitlines()
    ("file-separator", "nominal", "mu = 1\x1ch = 2e-3", "--duration 0.02",
     "error: line 1: value for 'mu' is not a decimal number\n", True),
    ("line-separator", "nominal", "mu = 1\u2028h = 2e-3", "--duration 0.02",
     "error: line 1: value for 'mu' is not a decimal number\n", True),
    ("form-feed", "nominal", "mu = 1\x0ch = 2e-3\nzeta = bad",
     "--duration 0.02",
     "error: line 1: value for 'mu' is not a decimal number\n", True),
    # values out of range
    ("negative-step", "nominal", "h = -1", "", "h must be positive", True),
    ("infinite-horizon", "nominal", "t_end = inf", "", "finite", True),
    ("step-ceiling", "nominal", "t_end = 1e9", "", "ceiling", True),
    # 11 steps of h end past the largest float
    ("grid-time-overflow", "nominal", "h = 1.789e307\nt_end = 1.79e308", "",
     "error: the last grid time 11*h = inf is not finite\n", True),
    ("nonfinite-plant-value", "nominal", "x2c0 = nan", "", "x2c0", True),
    ("trigger_both-2", "nominal", "trigger_both = 2", "--duration 0.02",
     "trigger_both must be 0 or 1", True),
    # --duration takes the text a config value takes
    ("duration-digit-group-underscore", "nominal", None, "--duration 1_0e-1",
     "error: --duration '1_0e-1' is not a decimal number\n", True),
    ("duration-arabic-indic-digits", "nominal", None,
     "--duration \u0660.\u0660\u0662",
     "error: --duration '\u0660.\u0660\u0662' is not a decimal number\n",
     True),
    # extreme values, each reported where numpy would warn or overflow
    ("disturbance-phase-overflow", "disturbed", "d1_freq = 1e308",
     "--duration 2.5", "phase", False),
    ("negative-reference-rate", "nominal", "k2 = -1e300", "--duration 0.02",
     "k2", True),
    ("gain-divisor-underflow", "nominal", "lambda2 = -5e-324",
     "--duration 0.02", "lambda2*beta", True),
    ("drift-exponential-overflow", "regulate-500", "gamma = 1e300",
     "--duration 0.02", "overflows", True),
    ("jacobian-da-overflow", "nominal", "da = 1e308", "--duration 0.02",
     "Jacobian is not finite", True),
    ("jacobian-b-rise-overflow", "nominal", "b_rise = 1e308",
     "--duration 0.02", "Jacobian is not finite", True),
    ("band-zero-weight", "nominal", "lambda1 = 0", "--duration 0.02",
     "trigger band", True),
    ("band-subnormal-weight-overflow", "nominal", "lambda1 = 5e-324",
     "--duration 0.02", "trigger band", True),
    ("sigma-at-float-max", "nominal", "x1ref = -1e308", "--duration 0.02",
     "V = sigma^2/2 is not finite", False),
    ("lyapunov-v-overflow", "nominal", "x1ref = 1e300", "--duration 0.02",
     "V = sigma^2/2 is not finite", False),
    # x1 passes 1.1 at the first step, but a failed run warns of nothing
    ("warning-then-record-error", "nominal", "x1ref = 1e300\nx0_1 = 1.2",
     "--duration 0.02", "V = sigma^2/2 is not finite", False),
    ("reference-overflow", "nominal", "k1 = 1e308", "--duration 0.02",
     "x2 reference", False),
    ("huge-beta-state-overflow", "nominal", "beta = 1e300", "--duration 0.02",
     "state became nonfinite", False),
    ("gain-norm-overflow", "nominal", "lambda1 = 1e300\nlambda2 = 1e-10",
     "--duration 0.02", "gain matrix M", True),
    ("zeno-denominator-full-horizon", "nominal", "mu = 5e-324", "",
     "error: Zeno bound denominator L(1 + ||M||)||x_k|| + ||Bbar||*mu is "
     "not positive (mu=5e-324)\n", True),
    # The reference x2 = -100 drives the temperature down through x2 =
    # -gamma = -20, where 1 + x2/gamma vanishes.  Each x0_2 was bisected so
    # that one point of an RK4 step lands on -20 exactly (singular) or is
    # the first to fall just below it (overflow); the id names that point.
    # d1_freq = 1.5*pi/h sets the disturbance apart at the middle and the
    # end of the first step, so that the later points can be reached.
    ("stage-2-overflow-gamma", "nominal", "gamma = 1000000\nx0_2 = 700",
     "--duration 0.02", "error: exp(x2/(1+x2/gamma)) overflows "
     "(x2=-1.2120387540852948e+299, gamma=1000000.0)\n", False),
    ("stage-2-singular", "nominal", "x2ss = -100\nk1 = 0\nx0_2 = -19.99375",
     "--duration 0.02",
     "error: 1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)\n", False),
    ("stage-3-singular", "disturbed", "x2ss = -100\nk1 = 0\nd1_amp = -100\n"
     "d1_freq = 3141.592653589793\nx0_2 = -19.9437540625", "--duration 0.02",
     "error: 1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)\n", False),
    ("stage-4-singular", "nominal",
     "x2ss = -100\nk1 = 0\nx0_2 = -19.98750811971875", "--duration 0.02",
     "error: 1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)\n", False),
    ("next-drift-singular", "disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
     "d1_freq = 4712.38898038469\nx0_2 = -19.990552436888013",
     "--duration 0.02",
     "error: 1 + x2/gamma vanishes (x2=-20.0, gamma=20.0)\n", False),
    ("stage-2-overflow", "disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
     "d1_freq = 4712.38898038469\nx0_2 = -19.9195", "--duration 0.02",
     "error: exp(x2/(1+x2/gamma)) overflows (x2=-20.00015312096196, "
     "gamma=20.0)\n", False),
    ("stage-3-overflow", "disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
     "d1_freq = 4712.38898038469\nx0_2 = -19.911", "--duration 0.02",
     "error: exp(x2/(1+x2/gamma)) overflows (x2=-20.00018459237209, "
     "gamma=20.0)\n", False),
    ("stage-4-overflow", "disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
     "d1_freq = 4712.38898038469\nx0_2 = -19.9", "--duration 0.02",
     "error: exp(x2/(1+x2/gamma)) overflows (x2=-20.00395496641699, "
     "gamma=20.0)\n", False),
    ("next-drift-overflow", "disturbed", "x2ss = -100\nk1 = 0\nd1_amp = 10\n"
     "d1_freq = 4712.38898038469\nx0_2 = -19.94075", "--duration 0.02",
     "error: exp(x2/(1+x2/gamma)) overflows (x2=-20.00016505873047, "
     "gamma=20.0)\n", False),
    ("nonfinite-state", "nominal", "x0_1 = 1.5e308", "--duration 0.02",
     "error: state became nonfinite at t=0.001: (nan, nan)\n", False),
    # the zeno-bound-nan config: u overflows to inf at the last step,
    # where no next state turns it into nan
    ("nonfinite-control", "nominal",
     "da = 5e-324\nlambda2 = 6e-309\nx1ref = 0", "--duration 0.737",
     "error: control u is not finite at t=0.737\n", False),
]


@pytest.mark.parametrize("row_id,scenario,config,argv,text,before_loop",
                         EXIT_2, ids=[row[0] for row in EXIT_2])
def test_exit_2(row_id, scenario, config, argv, text, before_loop, tmp_path,
                run_cli):
    rc, _, err, _ = run_cli(tmp_path, scenario, config, argv,
                            loop=not before_loop)
    assert rc == 2 and text in err, err
