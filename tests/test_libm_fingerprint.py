"""The C library's exp, sin and log1p, CPython's hypot and numpy's mean,
fingerprinted.

Every artifact byte flows through math.exp (the drift, the trigger
tolerance, the x2 reference and the Jacobians behind l_bar), math.sin (the
disturbance), math.log1p (the Zeno bounds) or math.hypot (the
discretization error eps and the state norms of the Zeno bounds).  IEEE 754
fixes + - * / and sqrt, but not these: another libm may round some results
differently, and CPython computes hypot itself, so another Python may too.
The tracking RMSE of metrics.json goes through np.mean, whose pairwise
summation is the one order-sensitive numpy reduction on the way to an
artifact; another numpy may add in another order.  Each digest here hashes
one function's float64 results over a seeded sample of the arguments a
default run passes it, so that a golden digest that fails on another
platform, Python or numpy, next to a failure here, has a named cause.  The
digests were pinned on glibc 2.36 (x86-64) with numpy 2.4.6; the hypot
digest reads the same on CPython 3.11.7, 3.12.1 and 3.13.0.
"""

import hashlib
import math
import random
import struct

import numpy as np
import pytest

#: Arguments drawn per function.
SAMPLES = 20_000

#: name -> (function, the range of each of its arguments)
FUNCTIONS = {"exp": (math.exp, [(-50.0, 10.0)]),
             "sin": (math.sin, [(0.0, 5.0)]),
             "log1p": (math.log1p, [(0.0, 1.0)]),
             "hypot": (math.hypot, [(-1.0, 1.0), (-5.0, 5.0)])}

#: name -> SHA-256 of its results as little-endian float64
PINNED = {
    "exp": "91ca65497e43bf62fb991f049d661829cc13364596b09c54f05451c0ddfbef94",
    "sin": "dd154241e94d574d4a9ce07e810d31807030416ea7c75085ee0083c4af40d724",
    "log1p":
        "6422ad2ca42fcb460e99273508d4f8604bb25671a442a2483737f7b8a245af59",
    "hypot":
        "0e7d54a0b4c19feb9b17820b1ae4160fcd641bf06f947781cf5765c6bf6eb34a",
}


@pytest.mark.parametrize("name", FUNCTIONS)
def test_libm_results_are_the_pinned_bits(name):
    fn, ranges = FUNCTIONS[name]
    rng = random.Random(f"libm-{name}")
    results = [fn(*(rng.uniform(lo, hi) for lo, hi in ranges))
               for _ in range(SAMPLES)]
    digest = hashlib.sha256(struct.pack(f"<{SAMPLES}d", *results)).hexdigest()
    assert digest == PINNED[name], (
        f"math.{name} rounds differently from the one the goldens were "
        f"pinned on: {digest}")


#: Sample lengths for np.mean: below, at and above numpy's 128-element
#: pairwise block, and a default run's 50,001 grid points.  On the last
#: sample np.mean gives 0.4983865139133647 and a left-to-right sum
#: 0.4983865139133611, so the digest tells the two orders apart.
MEAN_LENGTHS = (8, 127, 128, 129, 1_000, 50_001)
MEAN_PINNED = "c28581eae1a74dab5c5bc0cc724857ab6d90a70734286a458fbf20c1e45fc5a3"


def test_numpy_mean_is_the_pinned_bits():
    rng = random.Random("numpy-mean")
    samples = [[rng.random() for _ in range(n)] for n in MEAN_LENGTHS]
    means = [float(np.mean(np.array(a))) for a in samples]
    digest = hashlib.sha256(struct.pack(f"<{len(means)}d", *means)).hexdigest()
    assert digest == MEAN_PINNED, (
        f"numpy {np.__version__} np.mean sums in another order from the one "
        f"the goldens were pinned on: {digest}")
