"""The text `repr` gives a float64, and `str` an integer, formed in numpy a block at a time.

float_words finds each value's shortest round-trip digits, the ones repr
prints, by Ryu's d2d (Adams, "Ryu: fast float-to-string conversion", PLDI
2018). The value and the ends of its rounding interval, each times 4, are
multiplied by a 125-bit power of 5 or its inverse from a table and shifted,
which leaves about 18 decimal digits; digits are then removed while the
interval still holds two candidates (each row's count of places is found
first, one power of 10 per pass over the block, and the places go at once),
and the last digit removed rounds the value. The 55 x 125-bit
products are formed from 32-bit limbs in uint64 across the block. The tests
of whether the value or the interval's ends are exact (the paper's
trailing-zero cases) run only on the rows whose exponent allows it.

The digits are then laid out as CPython's repr does, in three uint64 words
of ASCII per value: fixed notation for -4 < decpt <= 16, where the value is
0.DIGITS x 10^decpt, and d[.ddd]e+XX, with at least two exponent digits,
otherwise; zeros, nan, inf and -inf are their own cases. int_words writes
str(int(v)) into the same three words. Table formats a block of a numeric
table's rows, a CSV map's or a JSON grid's, with one call per kind of cell
into one byte matrix: each cell's text after its prefix, NUL-padded, each
run of adjacent cells of one kind copied in at once, and the NULs dropped in
one pass.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

FLOAT_WIDTH = 24  # len("-1.7976931348623157e+308"), the longest repr of a float64

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_POW5_BITS = 125


def _padded(texts) -> np.ndarray:
    """Each text, NUL-padded to 24 bytes, as three uint64 words in memory order."""
    return np.frombuffer(b"".join(t.ljust(24, b"\0") for t in texts), dtype=_U64).reshape(-1, 3)


@functools.cache
def _tables() -> dict:
    """Ryu's multiplier, shift and decimal exponent for each biased binary
    exponent, the ASCII words and the layouts, built from Python ints on
    first use."""
    b = np.arange(2047)
    e2 = np.maximum(b, 1) - 1077
    pos, ne2 = e2 >= 0, -e2
    q = np.where(pos, (e2 * 78913 >> 18) - (e2 > 3), (ne2 * 732923 >> 20) - (ne2 > 1))
    i = ne2 - q
    pow5bits = (np.where(pos, q, i) * 1217359 >> 19) + 1
    # e2 >= 0: 2^e2 / 10^q = 2^(e2 - q) / 5^q, by the inverse of 5^q to 125 bits;
    # e2 < 0: 2^e2 / 10^(q + e2) = 5^i / 2^q, by 5^i cut to its top 125 bits
    mult = []
    for pos_b, p5 in zip(pos.tolist(), (5**k for k in np.where(pos, q, i).tolist())):
        if pos_b:
            mult.append((1 << (p5.bit_length() - 1 + _POW5_BITS)) // p5 + 1)
        else:
            cut = p5.bit_length() - _POW5_BITS
            mult.append(p5 >> cut if cut >= 0 else p5 << -cut)
    d = np.arange(10000)
    quad = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1).astype(np.uint8) + 48
    # byte masks and a '.' at each place 0 to 24 of three words
    places = [(b"\xff" * k).ljust(24, b"\0") for k in range(25)]
    exponents = [f"e{x:+03d}".encode() for x in range(-324, 309)]
    return {
        "m0": np.array([v & 0xFFFFFFFFFFFFFFFF for v in mult], dtype=_U64),
        "m1": np.array([v >> 64 for v in mult], dtype=_U64),
        "s": (np.where(pos, ne2 + q + pow5bits + _POW5_BITS - 1, q - pow5bits + _POW5_BITS) - 64).astype(_U64),
        "exp10": np.where(pos, q, q + e2),
        "q": q,
        "implicit": np.where(b > 0, 1 << 52, 0).astype(_U64),
        # vr is exact where 2^q divides 4 m2 (e2 < 0, 1 < q < 63); an all-ones mask never matches
        "tz_mask": np.where(~pos & (q > 1) & (q < 63), (1 << np.minimum(q, 62)) - 1, -1).view(_U64),
        # the exponents where the ends of the interval may be exact too (_rare)
        "rare": (pos & (q <= 21)) | (~pos & (q <= 1)),
        "pow10": np.array([10**k for k in range(20)], dtype=_U64),
        "pow5": np.array([5**k for k in range(22)], dtype=_U64),
        "quad": quad.view(np.uint32).ravel().astype(_U64),
        "keep": _padded(places).T.copy(),
        "dot": _padded([b"\0" * k + b"." for k in range(24)] + [b""]).T.copy(),
        # '-' for a sign, then '0.' and -decpt zeros: row 5 sign + (1 - decpt)
        "prefix": _padded([sign + lead for sign in (b"", b"-")
                           for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")])[:, 0],
        "prefix_bits": np.array([8 * (sign + lead) for sign in (0, 1) for lead in (0, 2, 3, 4, 5)], dtype=_U64),
        "exponent": np.frombuffer(b"".join(e.ljust(8, b"\0") for e in exponents), dtype=np.uint8).reshape(-1, 8),
        "specials": _padded([b"nan", b"inf", b"-inf"]),
    }


def _umul(a_lo, a_hi, b, low):
    """a b for a = a_hi 2^32 + a_lo and b, uint64: returns the high word and
    writes the low one to low."""
    b_lo, b_hi = b & _M32, b >> 32
    mid = a_hi * b_lo + ((a_lo * b_lo) >> 32)
    cross = a_lo * b_hi + (mid & _M32)
    np.multiply(a_lo | (a_hi << 32), b, out=low)
    return a_hi * b_hi + (mid >> 32) + (cross >> 32)


def _shift(mid, hi, s):
    """(hi 2^128 + mid 2^64 + lo) >> (64 + s), for 0 < s < 64, as uint64."""
    return (mid >> s) | (hi << (64 - s))


def _add_shift(lo, mid, hi, d0, d1, s):
    """((hi, mid, lo) + (d1, d0)) >> (64 + s), for d1 < 2^63."""
    lo2 = lo + d0
    mid2 = mid + d1 + (lo2 < lo)
    return _shift(mid2, hi + (mid2 < mid), s)


def _sub_shift(lo, mid, hi, d0, d1, s):
    """((hi, mid, lo) - (d1, d0)) >> (64 + s), for d1 < 2^63."""
    lo2 = lo - d0
    mid2 = mid - d1 - (lo2 > lo)
    return _shift(mid2, hi - (mid2 > mid), s)


def _shortest(bits):
    """Ryu's d2d on the bit patterns of finite, nonzero, positive float64s:
    (digits, exp10) with value ~ digits 10^exp10 and digits the shortest that
    round-trip, the nearest to the value among those, ties to even."""
    t = _tables()
    biased = (bits >> 52).astype(np.intp)
    mant = bits & _U64((1 << 52) - 1)
    m0, m1, s = t["m0"][biased], t["m1"][biased], t["s"][biased]
    # (hi, mid, lo) = mv M for mv = 4 m2; vr, vp and vm are mv M, (mv + 2) M and
    # (mv - 1 - mm_shift) M, each shifted right by 64 + s
    mv = (mant | t["implicit"][biased]) << 2
    mv_lo, mv_hi = mv & _M32, mv >> 32
    lo, mid = np.empty_like(mv), np.empty_like(mv)
    carry = _umul(mv_lo, mv_hi, m0, lo)
    hi = _umul(mv_lo, mv_hi, m1, mid)
    del mv_lo, mv_hi
    mid += carry
    hi += mid < carry
    vr = _shift(mid, hi, s)
    two0, two1 = m0 << 1, (m1 << 1) | (m0 >> 63)
    vp = _add_shift(lo, mid, hi, two0, two1, s)
    vm = _sub_shift(lo, mid, hi, two0, two1, s)
    rows = np.flatnonzero(mant == 0)
    rows = rows[biased[rows] > 1]  # a power of 2: the gap below is half, mm_shift = 0
    vm[rows] = _sub_shift(lo[rows], mid[rows], hi[rows], m0[rows], m1[rows], s[rows])
    del lo, mid, hi, carry, two0, two1, m0, m1, s

    vr_tz = (mv & t["tz_mask"][biased]) == 0
    vm_tz = np.zeros(len(bits), dtype=bool)
    rows = np.flatnonzero(t["rare"][biased])
    if rows.size:
        _rare(rows, t["q"][biased[rows]], mv[rows], mant[rows], biased[rows], vp, vr_tz, vm_tz)
    vr, vm, removed, last = _remove(vr, vp, vm, vr_tz, vm_tz)
    last[vr_tz & (last == 5) & (vr % 2 == 0)] = 4  # a removed 5 that was exactly half rounds to even
    accept = (mv & 4) == 0  # an even mantissa's interval includes its ends
    return vr + (((vr == vm) & ~(accept & vm_tz)) | (last >= 5)), t["exp10"][biased] + removed


def _rare(rows, q, mv, mant, biased, vp, vr_tz, vm_tz):
    """Ryu's exactness tests on the rows from 2^54 up (e2 >= 0, q <= 21) and
    near 2^53 (e2 < 0, q <= 1): set vr_tz and vm_tz, and exclude an exact vp
    the interval does not include."""
    accept, mm_shift = (mv & 4) == 0, ((mant != 0) | (biased <= 1)).astype(_U64)
    big = biased >= 1077
    p5 = _tables()["pow5"][q]
    five = mv % 5 == 0
    vr_tz[rows] = np.where(big, five & (mv % p5 == 0), True)
    vm_tz[rows] = np.where(big, ~five & accept & ((mv - 1 - mm_shift) % p5 == 0), accept & (mm_shift == 1))
    vp[rows] -= np.where(big, ~five & ~accept & ((mv + 2) % p5 == 0), ~accept)


def _remove(vr, vp, vm, vr_tz, vm_tz):
    """Ryu's digit removal: while vp / 10 > vm / 10, drop vr's, vp's and vm's
    last digit; then, where vm is exact, while vm ends in 0. As vp / 10^k >
    vm / 10^k holds for k places whenever it holds for k + 1, each row's
    count of places is found first, one power of 10 per pass, and the places
    go at once. vm_tz keeps whether every digit removed from vm was 0, vr_tz
    whether every one removed from vr but the last was. Returns vr and vm
    with their places removed, the count and the last digit removed from vr."""
    pow10 = _tables()["pow10"]
    count = np.zeros(len(vr), dtype=np.int64)
    k = 1
    while (go := vp // pow10[k] > vm // pow10[k]).any():
        count += go
        k += 1
    above = pow10[np.maximum(count - 1, 0)]
    head = vr // above  # vr less all its places removed but the last
    vr_tz &= vr == head * above
    last = np.where(count > 0, head % 10, 0)
    vr = np.where(count > 0, head // 10, vr)
    below = pow10[count]
    vm_next = vm // below
    vm_tz &= vm == vm_next * below
    vm = vm_next
    rows = np.flatnonzero(vm_tz & (vm % 10 == 0))
    while rows.size:
        r = vr[rows]
        vr_tz[rows] &= last[rows] == 0
        last[rows], vr[rows], vm[rows] = r % 10, r // 10, vm[rows] // 10
        count[rows] += 1
        rows = rows[vm[rows] % 10 == 0]
    return vr, vm, count, last


def _quads(v, places):
    """The ASCII words of v's four digits above each of places, in turn, and the rest of v below the last."""
    t = _tables()
    words = []
    for place in places:
        top = v // t["pow10"][place]
        v = v - top * t["pow10"][place]
        words.append(t["quad"][top.astype(np.intp)])
    return words, v


def float_words(x, out, specials=None):
    """Write repr(float(v)) of each value v of x into the rows of out, a
    (len(x), 3) uint64 array, as 24 bytes in memory order, NUL after the text;
    nan, inf and -inf are written as the rows of specials, if given.

    The 17 digits, left-aligned, are cut to the places the text shows, a
    '.' is inserted after the integer places, and the text is shifted past
    its prefix (the sign, and '0.000' before a fixed value below 1); a
    scientific value's exponent is written after its digits."""
    t = _tables()
    pow10 = t["pow10"]
    bits = np.ascontiguousarray(x, dtype=np.float64).view(_U64)
    mag = bits & _U64((1 << 63) - 1)
    finite = mag < _U64(0x7FF << 52)
    rows = np.flatnonzero(finite & (mag != 0))
    if rows.size == len(bits):
        digits, exp10 = _shortest(mag)
    else:  # 0.0 is 0 x 10^0
        digits, exp10 = np.zeros(len(bits), dtype=_U64), np.zeros(len(bits), dtype=np.int64)
        if rows.size:
            digits[rows], exp10[rows] = _shortest(mag[rows])
    olen = np.searchsorted(pow10[1:17], digits, side="right") + 1
    decpt = exp10 + olen
    sci = (decpt <= -4) | (decpt > 16)
    # the digits left-aligned in 17 places; digit k is byte k
    words, last = _quads(digits * pow10[17 - olen], (13, 9, 5, 1))
    w0, w1, w2 = words[0] | (words[1] << 32), words[2] | (words[3] << 32), last + ord("0")
    # keep olength places, or up to the one after the point of an integral fixed value
    keep = np.where(sci, olen, np.maximum(olen, decpt + 1))
    w0 &= t["keep"][0][keep]
    w1 &= t["keep"][1][keep]
    w2 &= t["keep"][2][keep]
    # the point after the integer places: decpt of a fixed value from 1, 1 of a
    # scientific one with more digits; 24 (none) otherwise
    at = np.where(sci, np.where(olen > 1, 1, 24), np.where(decpt > 0, decpt, 24))
    lo0, lo1, lo2 = (w & t["keep"][k][at] for k, w in enumerate((w0, w1, w2)))
    hi0, hi1, hi2 = w0 ^ lo0, w1 ^ lo1, w2 ^ lo2
    w0 = lo0 | (hi0 << 8) | t["dot"][0][at]
    w1 = lo1 | (hi1 << 8) | (hi0 >> 56) | t["dot"][1][at]
    w2 = lo2 | (hi2 << 8) | (hi1 >> 56) | t["dot"][2][at]
    # the prefix: '-', then '0.' and -decpt zeros before a fixed value below 1
    sign = (bits >> 63).astype(np.intp)
    prefix = 5 * sign + np.where(sci | (decpt > 0), 0, 1 - decpt)
    shift = t["prefix_bits"][prefix]
    out[:, 2] = (w2 << shift) | (w1 >> (64 - shift))
    out[:, 1] = (w1 << shift) | (w0 >> (64 - shift))
    out[:, 0] = (w0 << shift) | t["prefix"][prefix]
    rows = np.flatnonzero(sci)
    if rows.size:  # 'e', the exponent's sign and digits after the last place
        at = rows * 24 + sign[rows] + olen[rows] + (olen[rows] > 1)
        tail = t["exponent"][decpt[rows] - 1 + 324]
        text = out.view(np.uint8).reshape(-1)
        for k in range(5):
            text[at + k] = tail[:, k]
    rows = np.flatnonzero(~finite)
    if rows.size:
        specials = t["specials"] if specials is None else specials
        out[rows] = specials[np.where(mag[rows] > _U64(0x7FF << 52), 0, 1 + sign[rows])]  # nan, inf, -inf


def int_words(x, out):
    """Write str(int(v)) of each value v of x, an integer array, into the rows
    of out, a (len(x), 3) uint64 array, as 24 bytes in memory order, NUL after
    the text: |v|'s 20 digits, shifted past their leading zeros, then past a '-'."""
    t = _tables()
    x = np.asarray(x)
    sign = x < 0
    mag = x.astype(np.int64 if x.dtype.kind == "i" else _U64).view(_U64)
    np.negative(mag, out=mag, where=sign)
    olen = np.searchsorted(t["pow10"][1:], mag, side="right") + 1
    words, last = _quads(mag, (16, 12, 8, 4))
    digits = np.zeros((len(x), 6), dtype=_U64)  # 20 digits, then NUL
    digits[:, 0], digits[:, 1], digits[:, 2] = words[0] | (words[1] << 32), words[2] | (words[3] << 32), t["quad"][last]
    zeros = 20 - olen
    at, shift = np.arange(len(x)) * 6 + zeros // 8, (8 * (zeros % 8)).astype(_U64)
    w0, w1, w2 = ((digits.ravel()[at + k] >> shift) | (digits.ravel()[at + k + 1] << (64 - shift)) for k in range(3))
    shift = 8 * sign.astype(_U64)
    out[:, 2] = (w2 << shift) | (w1 >> (64 - shift))
    out[:, 1] = (w1 << shift) | (w0 >> (64 - shift))
    out[:, 0] = (w0 << shift) | (sign * _U64(ord("-")))


class Table:
    """The text of a numeric table, a block of rows at a time. A row's cells
    are the columns of parts, 2-D arrays side by side, each of one kind
    (float, signed or unsigned integer), each after its prefix; `end` ends
    each row. A float cell is repr(float(v)), with nan, inf and -inf the names
    in nonfinite if given, and an integer cell str(int(v)). A block holds at
    most `budget` cells of each kind; its workspace is reused by every block."""

    def __init__(self, parts, prefixes, end, budget, nonfinite=None):
        self.parts = parts
        cells = [p.dtype.kind for p in parts for _ in range(p.shape[1])]
        count = {k: cells.count(k) for k in dict.fromkeys(cells)}
        self.block = min(len(parts[0]), max(1, budget // max(count.values())))
        # an integer cell is as wide as its kind's longest extreme
        width = {k: FLOAT_WIDTH if k == "f" else
                 max(len(str(int(v))) for p in parts if p.dtype.kind == k for v in (p.min(), p.max()))
                 for k in count}
        pad = max(map(len, prefixes))
        row = b"".join(pre.encode().ljust(pad, b"\0") + bytes(width[k]) for pre, k in zip(prefixes, cells))
        self.matrix = np.empty((self.block, len(row) + len(end)), dtype=np.uint8)
        self.matrix[:] = np.frombuffer(row + end.encode(), dtype=np.uint8)
        specials = None if nonfinite is None else _padded(name.encode() for name in nonfinite)
        self.kinds, words = [], {}  # per kind: its parts, a block's values and words, and its writer
        for k, n in count.items():
            words[k] = np.empty((self.block * n, 3), dtype=_U64)
            values = np.empty((self.block, n), dtype={"f": np.float64, "i": np.int64, "u": _U64}[k])
            write = functools.partial(float_words, specials=specials) if k == "f" else int_words
            self.kinds.append(([p for p in parts if p.dtype.kind == k], values, words[k], write))
        # per run of adjacent cells of one kind: their bytes in the matrix (a
        # view, as the split axis is contiguous) and their words' text
        self.runs, at, done = [], 0, dict.fromkeys(count, 0)
        for k, run in itertools.groupby(cells):
            n, stride = len(list(run)), pad + width[k]
            place = self.matrix[:, at : at + n * stride].reshape(self.block, n, stride)[:, :, pad:]
            text = words[k].view(np.uint8).reshape(self.block, count[k], FLOAT_WIDTH)
            self.runs.append((place, text[:, done[k] : done[k] + n, : width[k]]))
            at, done[k] = at + n * stride, done[k] + n

    def text(self, start: int) -> bytes:
        """The block of rows from start, as ASCII."""
        stop = min(start + self.block, len(self.parts[0]))
        n = stop - start
        for parts, values, words, write in self.kinds:
            np.concatenate([p[start:stop] for p in parts], axis=1, out=values[:n])
            write(values[:n].reshape(-1), words[: n * values.shape[1]])
        for place, text in self.runs:
            place[:n] = text[:n]
        return self.matrix[:n].tobytes().translate(None, b"\0")
