"""The bytes of repr(float) for whole blocks of float64 values, on numpy.

repr prints the shortest decimal that reads back as the same double, the
nearest such decimal when there are several, ties to the even digit.
CPython's repr costs about 500 ns per 17-digit value; this module finds
the same digits for a whole array at once, on uint64 arrays, by Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020; the digit
loop of Java's DoubleToDecimal).  Java keeps at least two digits (it
prints 4.9E-324 where Python prints 5e-324), so three of its parts are
left out here: the s >= 100 guard on the one-digit-shorter test, the x10
step for the two smallest subnormals, and the integer fast path, which
only saves time.

The digits are then laid out as repr lays them out: positionally when
the decimal exponent lies in [-4, 15] ('0.000123', '12.5', '1e+16' is
the first that is not), else as d.ddde+XX with at least two exponent
digits; nan, inf and the signed zeros print as repr prints them.  Each
text sits in a 32-byte row of NUL-padded slots: the sign, the digits,
the exponent and the tail that join appends.  join packs the rows into
one bytes object by deleting the NULs, which no text holds.  The bytes
are packed into uint64 words little-endian, the byte order of every
platform CI runs on.  ints spells nonnegative integers, the k of
events.csv, into the same rows from the same digit table.

A pass of the kernel makes about a hundred numpy calls, a fixed cost of
about 0.2 ms, so the time per value falls with the pass size: on 200,000
random doubles about 540 ns at 512 values, 300 at 1,024, 220 at 2,048
and 180 at 4,096 (one CPU of a 2-core VM, best of 12).  cells formats
what it is given in one pass, and the writers give it one block of
CSV_BLOCK rows.  The tables are built when the writers import the module.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

U64 = np.uint64
_M32 = U64(0xFFFF_FFFF)
_M63 = U64(0x7FFF_FFFF_FFFF_FFFF)

#: k in [K_MIN, K_MAX] indexes the 10^-k table
K_MIN, K_MAX = -324, 292
#: Rows of a CSV block, which the writers format in one pass each: it
#: bounds the text held at once.  A trajectory block is 7 x 512 + 1 values,
#: an event block at most 4 x 512 + 1, and a pass's scratch peaks at about
#: 146 B a value.  A 10,001-step dense run's trajectory and event writers
#: hold about 0.56 and 0.25 MB at 512 rows, 1.11 and 0.51 MB at 1,024; on
#: 50k dense steps both took 0.151 s at 512 rows, 0.142 s at 1,024 and
#: 0.199 s at 256 (best of 7, one CPU of a 2-vCPU VM).
CSV_BLOCK = 512
#: The largest integer ints spells: eight digits, two entries of the quad
#: table.  The k of events.csv is at most sim.MAX_STEPS (1,000,000).
INT_MAX = 10 ** 8 - 1
#: The decimal exponents [-E_LIM, E_LIM] of the layout tables, with room
#: for the garbage exponents of nan and inf.
E_LIM = 330


def _flog2pow10(e: int) -> int:
    """floor(log2(10^e)), for |e| up to about 1,000."""
    return (e * 913124641741) >> 38


def _g_table() -> np.ndarray:
    """The rows g1 and g0, by k - K_MIN, where g = g1 2^63 + g0 =
    floor(10^-k 2^(125 - flog2pow10(-k))) + 1 lies in [2^125, 2^126)."""
    g1, g0 = [], []
    for k in range(K_MIN, K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            beta = (10 ** -k << shift if shift >= 0
                    else 10 ** -k >> -shift)
        else:
            beta = (1 << shift) // 10 ** k
        g = beta + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    table = np.array([g1, g0], dtype=U64)
    table.flags.writeable = False
    return table


def _bytes_word(text: bytes, at: int = 0) -> int:
    """The uint64 whose little-endian bytes hold text from byte at on."""
    return int.from_bytes(text, "little") << 8 * at


def _layout_tables() -> tuple[np.ndarray, ...]:
    """The read-only tables _texts and ints read, in the order of the
    names bound to them below."""
    n = np.arange(10_000)
    digits = np.zeros((10_000, 4), dtype=np.uint8)
    for j, p in enumerate((1000, 100, 10, 1)):
        digits[:, j] = 48 + n // p % 10
    quad = digits.view(np.uint32).ravel()
    pow10 = np.array([10 ** i for i in range(20)], dtype=U64)
    # per layout: the positional ones of exponents -4 to 15, then the
    # scientific one
    cut, head, tail, tail_scale, least = ([] for _ in range(5))
    dots = np.zeros((21, 4), dtype=U64)
    for i, e in enumerate([*range(-4, 16), None]):
        p = 1 if e is None or e < 0 else e + 1  # digits before the dot
        dots.view(np.uint8)[i, p + 1] = 2
        if e is not None and e < 0:
            cut.append(10 ** 17), head.append(0)
            tail.append(10 ** (2 - e)), tail_scale.append(10 ** (6 + e))
        else:
            cut.append(10 ** (17 - p)), head.append(10 ** (16 - p))
            tail.append(100), tail_scale.append(10 ** 6)
        least.append(0 if e is None else p + 3)
    layout = [np.array(t, dtype=U64) for t in (cut, head, tail, tail_scale)]
    keep = np.zeros((33, 4), dtype=U64)
    for end in range(33):
        keep.view(np.uint8)[end, :end] = 0xFF
    es = np.arange(-E_LIM, E_LIM + 1)
    positional = (es >= -4) & (es <= 15)
    code = np.where(positional, es + 4, 20)
    suffix = np.array([0 if pos else _bytes_word(f"e{e:+03d}".encode(), 3)
                       for e, pos in zip(es.tolist(), positional.tolist())],
                      dtype=U64)
    tables = (quad, pow10, *layout, np.array(least, dtype=np.intp), dots,
              keep, code, suffix)
    for table in tables:
        table.flags.writeable = False
    return tables


#: The kernel's tables, built once at import (about 1.5 ms) and shared
#: by every pass.
_G = _g_table()
(_QUAD, _POW10, _CUT_AT, _HEAD_SCALE, _TAIL_DIV, _TAIL_SCALE, _LEAST, _DOTS,
 _KEEP, _CODE_OF, _SUFFIX) = _layout_tables()


def _mulhi(a, c_hi, c_lo):
    """The high 64 bits of a c, for a < 2^63 and c < 2^60 given as its
    32-bit limbs: the middle sum then stays below 2^64."""
    a_hi, a_lo = a >> U64(32), a & _M32
    mid = a_hi * c_lo
    mid += a_lo * c_hi
    low = a_lo * c_lo
    low >>= U64(32)
    mid += low
    mid >>= U64(32)
    a_hi *= c_hi
    a_hi += mid
    return a_hi


def _rop(y1, y0, x1):
    """Java's rop(g cp 2^-127) from hi and lo of g1 cp, y1 and y0, and hi
    of g0 cp, x1: the floor of the product, with the lowest bit set
    unless the product is an integer (as far as x1 tells)."""
    z = y0 >> U64(1)
    z += x1
    vb = z >> U64(63)
    vb += y1
    z &= _M63
    z += _M63
    z >>= U64(63)
    vb |= z
    return vb


def _rop_moved(y1, y0, x1, x0, g1, g0, shift, over_shift, sign):
    """_rop of g (cp + sign 2^shift) from the parts of g cp, over_shift
    being 64 - shift."""
    parts = []
    for hi, lo, g in ((y1, y0, g1), (x1, x0, g0)):
        moved = g << shift
        over = g >> over_shift
        if sign > 0:
            moved += lo
            over += moved < lo  # the carry
            over += hi
        else:
            np.subtract(lo, moved, out=moved)
            over += moved > lo  # the borrow
            np.subtract(hi, over, out=over)
        parts += [over, moved]
    return _rop(parts[0], parts[1], parts[2])


def decimals(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) with d 10^k the shortest decimal that rounds to x, the one
    nearest x among those, ties to even, for each finite nonzero float64
    of x; d is uint64, k int64.  Other elements give meaningless pairs."""
    bits = x.view(U64)
    q = (bits >> U64(52)).astype(np.int64)
    q &= 0x7FF  # the biased exponent
    c = bits & U64((1 << 52) - 1)
    c |= np.minimum(q, 1).astype(U64) << U64(52)
    # the gap below c = 2^52 is half the gap above, except at the
    # smallest normal exponent
    irregular = (c == U64(1 << 52)) & (q > 1)
    np.maximum(q, 1, out=q)
    q -= 1075  # x = c 2^q
    k = q * 661971961083
    k -= irregular * 274743187321
    k >>= 41
    shift = k * -913124641741
    shift >>= 38
    shift += q
    shift += 4  # h + 2, with h in [2, 5]
    del q
    shift = shift.astype(U64)
    g1, g0 = _G.take(k - K_MIN, axis=1)
    cp = c << shift
    odd = c & U64(1)  # an odd c excludes the ends of its rounding interval
    del c
    c_hi, c_lo = cp >> U64(32), cp & _M32
    y1, y0 = _mulhi(g1, c_hi, c_lo), g1 * cp
    x1, x0 = _mulhi(g0, c_hi, c_lo), g0 * cp
    del c_hi, c_lo, cp
    vb = _rop(y1, y0, x1)
    # the ends of the rounding interval, at (4c -+ 2) 2^h, and at
    # (4c - 1) 2^h below a power of two
    shift -= U64(1)
    over = U64(64) - shift
    vbr = _rop_moved(y1, y0, x1, x0, g1, g0, shift, over, 1)
    shift -= irregular
    over += irregular
    vbl = _rop_moved(y1, y0, x1, x0, g1, g0, shift, over, -1)
    del y1, y0, x1, x0, g1, g0, shift, over
    vbl += odd
    s = vb >> U64(2)
    s4 = s << U64(2)
    # s or s + 1, whichever lies in the interval, or the nearer, ties to
    # the even one; one of the two always lies in it
    nearer = (vb & U64(3)) + (s & U64(1)) >= 3
    up = (s4 + U64(4) + odd) <= vbr
    up &= (vbl > s4) | nearer
    d = s + up
    # the decimal one digit shorter, below or above x, when just one of
    # the two lies in the interval
    s //= U64(10)
    s *= U64(40)  # 4 sp10
    lower = vbl <= s
    upper = s + U64(40) + odd <= vbr
    lower ^= upper
    s >>= U64(2)
    s += upper * U64(10)
    np.copyto(d, s, where=lower)
    return d, k


_INF = U64(_bytes_word(b"\0inf"))
_MINUS_INF = U64(_bytes_word(b"-inf"))
_NAN = U64(_bytes_word(b"\0nan"))
#: byte 0 of a text, '0' as the digits leave it, less the sign's
_SIGN = np.array([ord("0"), ord("0") - ord("-")], dtype=U64)


def _texts(x: np.ndarray) -> np.ndarray:
    """The (n, 4) uint64 rows whose bytes, NULs deleted, spell repr(x[i])
    for the contiguous float64 array x.

    Byte 0 holds '-' or NUL, bytes 1 to 23 the digits and the dot, NUL
    padded, bytes 19 to 23 the exponent (e+16) of the scientific layout,
    and bytes 24 to 31 are NUL, for the tail.
    """
    d, k = decimals(x)
    finite = np.isfinite(x)
    special = x == 0.0
    special |= ~finite
    # the zeros print 0.0, with exponent 0; inf and nan are written below
    d[special] = 0
    k[special] = 1
    nd = np.searchsorted(_POW10[:18], d, side="right")  # digits of d
    sig = _POW10.take(17 - nd)  # the digits of d, as 17 with trailing zeros
    sig *= d
    del d
    k += nd
    e = k
    e += E_LIM - 1  # the decimal exponent of the leading digit, less -E_LIM
    del nd, k
    code = _CODE_OF.take(e)
    # the 16 digits of head and the 8 of tail are the text, its dot a 0,
    # held from byte 0 on: that byte takes the sign
    cut = _CUT_AT.take(code)
    head = sig // cut
    sig -= head * cut
    head *= _HEAD_SCALE.take(code)
    del cut
    div = _TAIL_DIV.take(code)
    head += sig // div
    sig %= div
    sig *= _TAIL_SCALE.take(code)
    tail = sig
    del div, sig
    # the text in three groups of eight digits, from byte 0 on (as the
    # ASCII of '0000' to '9999' in two uint32 halves each)
    groups = np.empty((3, len(x)), dtype=U64)
    groups[0] = head // U64(10 ** 9)
    groups[1] = head // U64(10) % U64(10 ** 8)
    groups[2] = head % U64(10) * U64(10 ** 7) + tail // U64(10)
    del head, tail
    hi = groups // U64(10 ** 4)
    groups -= hi * U64(10 ** 4)
    text = _QUAD.take(groups.view(np.int64)).astype(U64)
    text <<= U64(32)
    text |= _QUAD.take(hi.view(np.int64))
    del groups, hi
    words = np.zeros((len(x), 4), dtype=U64)
    words[:, :3] = text.T
    # the byte of the last nonzero digit: in each word, the top set bit
    # of the digits less '0', read off its float's exponent
    text ^= U64(0x3030_3030_3030_3030)
    top = text.astype(np.float64).view(np.int64)
    del text
    top >>= 52
    top -= 1023  # the top bit, and below -1000 for none
    top >>= 3
    top += np.array([[0], [8], [16]])
    end = np.maximum(np.maximum(top[0], top[1]), top[2])
    del top
    end += 1
    np.maximum(end, _LEAST.take(code), out=end)
    words -= _DOTS.take(code, axis=0)  # the dot's '0' to '.'
    words &= _KEEP.take(end, axis=0)
    words[:, 2] |= _SUFFIX.take(e)
    words[:, 0] -= _SIGN.take(x.view(U64) >> U64(63))
    if not finite.all():
        inf = np.where(x > 0, _INF, _MINUS_INF)
        words[~finite] = 0
        words[~finite, 0] = np.where(np.isnan(x), _NAN, inf)[~finite]
    return words


def cells(columns: Sequence) -> np.ndarray:
    """The repr texts of the rows of equal-length float columns.

    Each column is an ndarray, a memoryview or a list of floats; a
    zero-stride column (one value broadcast) is formatted once.  Returns
    an (m, c, 4) uint64 array for m rows of c columns, for join.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    m = len(cols[0])
    if any(len(c) != m for c in cols):
        raise ValueError(f"columns of {[len(c) for c in cols]} rows")
    once = [c.strides == (0,) for c in cols]
    values = np.concatenate([c[:1] if o else c for c, o in zip(cols, once)])
    words = _texts(values)
    # column j's texts start at starts[j]; a zero-stride one has one text
    starts = np.cumsum([0] + [1 if o else m for o in once])[:-1]
    return words[starts + np.arange(m)[:, None] * ~np.array(once)]


def ints(k: np.ndarray, words: np.ndarray) -> None:
    """Fill the (n, 4) uint64 rows words, as cells lays out a text, with
    str(k[i]) for the integers k in [0, INT_MAX].

    Raises ValueError, before words is written, for a k outside them.
    """
    if len(k) and not (0 <= k.min() and k.max() <= INT_MAX):
        raise ValueError(f"ints spells 0 to {INT_MAX}, not {k.min()} to "
                         f"{k.max()}")
    hi = k // 10_000
    text = _QUAD.take(k - hi * 10_000).astype(U64)
    text <<= U64(32)
    text |= _QUAD.take(hi)
    # the eight digits from byte 0 on, less their leading zeros
    zeros = 7 - np.searchsorted(_POW10[1:8], k, side="right")
    text >>= (zeros * 8).astype(U64)
    words[:, 0] = text
    words[:, 1:] = 0


def join(words: np.ndarray, tails) -> bytes:
    """The texts of cells' words, each followed by its tail, in C order.

    tails is a bytes array ('S' dtype, at most 4 bytes an element, no
    NUL) that broadcasts to words.shape[:-1]; it is written into the
    tail slot of words.
    """
    words.view(np.uint32)[..., 7] = np.asarray(tails, dtype="S4").view(
        np.uint32)
    return words.tobytes().translate(None, b"\0")

