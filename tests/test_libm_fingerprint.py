"""The C library's exp, sin and log1p, fingerprinted.

Every artifact byte flows through math.exp (the drift, the trigger
tolerance, the x2 reference and the Jacobians behind l_bar), math.sin (the
disturbance) or math.log1p (the Zeno bounds).  IEEE 754 fixes + - * / and
sqrt, but not these: another libm may round some results differently.  Each
digest here hashes one function's float64 results over a seeded sample of
the arguments a default run passes it, so that a golden digest that fails
on another platform, next to a failure here, has a named cause.  The
digests were pinned on glibc 2.36 (x86-64).
"""

import hashlib
import math
import random
import struct

import pytest

#: Arguments drawn per function.
SAMPLES = 20_000

#: name -> (function, argument range)
FUNCTIONS = {"exp": (math.exp, (-50.0, 10.0)), "sin": (math.sin, (0.0, 5.0)),
             "log1p": (math.log1p, (0.0, 1.0))}

#: name -> SHA-256 of its results as little-endian float64
PINNED = {
    "exp": "91ca65497e43bf62fb991f049d661829cc13364596b09c54f05451c0ddfbef94",
    "sin": "dd154241e94d574d4a9ce07e810d31807030416ea7c75085ee0083c4af40d724",
    "log1p":
        "6422ad2ca42fcb460e99273508d4f8604bb25671a442a2483737f7b8a245af59",
}


@pytest.mark.parametrize("name", FUNCTIONS)
def test_libm_results_are_the_pinned_bits(name):
    fn, (lo, hi) = FUNCTIONS[name]
    rng = random.Random(f"libm-{name}")
    results = [fn(rng.uniform(lo, hi)) for _ in range(SAMPLES)]
    digest = hashlib.sha256(struct.pack(f"<{SAMPLES}d", *results)).hexdigest()
    assert digest == PINNED[name], (
        f"math.{name} rounds differently from the libm the goldens were "
        f"pinned on: {digest}")
