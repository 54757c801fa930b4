"""The ``%.17g`` text of float64 values, written and read in NumPy passes.

Every float of a CSV file is written as ``'%.17g' % x`` byte for byte
(``_g17``): the value scaled to 17 digits exactly with Dekker's
two-product against a double-double table of powers of ten
(``_g17_tables``), the digits from a table of 4-digit groups, and the %g
layout as NUL-padded 8-byte lanes that one ``bytes.translate`` compacts.
The few values that cannot be decided safely that way (zeros, non-finite
values, magnitudes outside [1e-250, 1e250], near-ties) take Python's ``%``.

Reading is the inverse (``_parse_values``): a field's digits are read as
little-endian 8-byte lanes, turned into an exact integer eight digits at a
time, and the integer times its power of ten is rounded with the same
two-product against the same table.  A field that cannot be decided safely
that way is left to the caller, and ``_FLOAT`` states the grammar whole.
"""

from __future__ import annotations

from functools import cache
from types import SimpleNamespace

import numpy as np

# ``_g17`` writes a value's text as six 8-byte lanes, its characters in
# order with NULs between them, which the writer deletes: (0) the comma,
# the sign, the "0.000" prefix and the first digit; (1, 2) digits 2-17
# that precede the decimal point, then the point; (3, 4) digits 2-17
# that follow it; (5) the exponent.  Values of magnitude in [1e-250,
# 1e250] are decided in NumPy passes; the rest take Python's ``%``.
_LANES = 6
_EXPONENTS = range(-250, 251)
_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's split into two 26-bit halves


def _lanes(texts) -> np.ndarray:
    """Each text, NUL-padded to 8 bytes, as one uint64 lane: the lanes
    hold the bytes in text order whatever the machine's byte order."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low exactly, each of 26 significant bits
    or fewer, so a product of two halves is exact."""
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


@cache
def _g17_tables() -> SimpleNamespace:
    """The tables of ``_g17``, built on the first write or read, per exponent
    e in ``_EXPONENTS`` and per 4-digit group.

    10**(16 - e) as a double-double hi + lo, within 2**-106 relative: each
    part is a ratio of Python integers rounded once, hi's Dekker halves
    beside it.  Per sign and e, the lane of the prefix; per e, that of the
    exponent, and how many digits precede the decimal point (0 for the
    "0.000" forms, whose point is in the prefix).  Per first digit, its
    lane; per group 0..9999, its four digits and its trailing zeros.
    """
    hi, lo = [], []
    for e in _EXPONENTS:
        if e <= 16:
            n = 10 ** (16 - e)
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            d = 10 ** (e - 16)
            hi.append(1 / d)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * d) / (den * d))
    hi = np.array(hi)
    k = np.arange(10000, dtype=np.uint16)
    quads = np.empty((10000, 4), np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        quads[:, j] = k // scale % 10
    quads += ord("0")
    fixed = [-4 <= e < 17 for e in _EXPONENTS]
    return SimpleNamespace(
        hi=hi, hi_split=_split(hi), lo=np.array(lo),
        quads=quads.view(np.uint32).ravel(),
        zeros=sum((k % 10**j == 0).astype(np.intp) for j in range(1, 5)),
        # per sign, then per e
        prefix=_lanes([b"," + sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                       for sign in (b"\0", b"-") for e in _EXPONENTS]),
        first=_lanes([b"\0" * 7 + b"%d" % digit for digit in range(10)]),
        exponent=_lanes([b"" if f else b"e%+03d" % e for e, f in zip(_EXPONENTS, fixed)]),
        before_point=np.array([(e + 1 if e >= 0 else 0) if f else 1
                               for e, f in zip(_EXPONENTS, fixed)]),
        # keep[j][m], dot[j][m]: digits 2..m, and a point after them, in
        # lane j of digits 2-9 and 10-17
        keep=[_lanes([b"\xff" * min(max(m - start, 0), 8) for m in range(18)])
              for start in (1, 9)],
        dot=[_lanes([b"\0" * (m - start) + b"." if start <= m < start + 8 else b""
                     for m in range(18)]) for start in (1, 9)],
    )


def _two_product(a: np.ndarray, i: np.ndarray,
                 t: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """a hi = product + err exactly, where hi is row i of the table's
    10**(16 - e) (Dekker's two-product)."""
    product = a * t.hi[i]
    hi_high, hi_low = (part[i] for part in t.hi_split)
    a_high, a_low = _split(a)
    err = a_high * hi_high
    err -= product
    err += np.multiply(a_high, hi_low, out=a_high)
    err += np.multiply(a_low, hi_high, out=a_high)
    err += np.multiply(a_low, hi_low, out=a_low)
    return product, err


def _rounded(a: np.ndarray, i: np.ndarray, t: SimpleNamespace,
             fast: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D = a 10**(16 - e) rounded to an integer, half to even, where i is
    e's row of the tables, as the floats D // 1e8 and D % 1e8; clears
    ``fast`` where D may be wrong or tied."""
    # a 10**(16 - e) = product + err + a lo: the first two are a hi exactly,
    # the last is rounded, within 1e-14 with lo's own error.
    product, err = _two_product(a, i, t)
    frac = a * t.lo[i]
    frac += err
    units = np.floor(frac)
    frac -= units
    fast &= product >= 1e16 + 64
    fast &= product < 1e17 - 64
    tie = np.subtract(frac, 0.5, out=err)
    fast &= np.abs(tie, out=tie) > 1e-6
    # Every step is exact: high * 1e8 is (high < 2**30, 1e8 = 390625 *
    # 2**8), and a floor of a rounded quotient that is one off is mended
    # by the carry.
    high = np.floor(product / 1e8)
    low = np.subtract(product, high * 1e8, out=product)
    low += units
    low += frac > 0.5
    carry = np.floor(low / 1e8)
    low -= carry * 1e8
    high += carry
    return high, low


def _digit_groups(high: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The first digit of D, and its other 16 as four 4-digit groups, from
    D // 1e8 and D % 1e8; the float quotients by 1e4 and 1e8 floor
    exactly below 2**53."""
    first = np.floor(high / 1e8)
    high -= first * 1e8
    groups = []
    for part in (high, low):
        q = np.floor(part / 1e4)
        groups += [q.astype(np.intp), (part - q * 1e4).astype(np.intp)]
    return first.astype(np.intp), groups


def _g17(x: np.ndarray, out: np.ndarray) -> None:
    """The ``,%.17g`` text of each float of the 1-D x, byte for byte, into
    the (6, x.size) uint64 lanes ``out`` (see ``_LANES``).

    %.17g is the value rounded to 17 significant digits D, half to even,
    times 10**e: fixed notation for -4 <= e < 17, else d.ddde+XX, either
    with trailing zeros stripped.  Here e = floor(log10 |x|) and D is
    ``_rounded``.  A value is left to Python's ``%`` when that rounding
    could be wrong or tied: the scaled value's fraction lies within 1e-6
    of a half (exact ties such as 1e15 + 0.25 occur, and the product is
    within 1e-14), or it lies within 64 of [1e16, 1e17)'s edges, where e
    may be one off.  So do zeros, non-finite values and magnitudes outside
    [1e-250, 1e250], where the table ends.  D's digits come from a table
    of 4-digit groups, and each part of the text is a lane masked by the
    exponent and the count of digits kept.
    """
    t = _g17_tables()
    a = np.abs(x)
    fast = a >= 1e-250
    fast &= a <= 1e250
    np.copyto(a, 1.0, where=~fast)
    i = np.floor(np.log10(a)).astype(np.intp)
    i -= _EXPONENTS[0]
    first, groups = _digit_groups(*_rounded(a, i, t, fast))
    # the last nonzero digit, 1..17, counted from the first
    last = 17 - t.zeros[groups[3]]
    zero = groups[3] == 0
    for g in groups[2::-1]:
        last -= zero * t.zeros[g]
        zero &= g == 0
    out[0] = t.prefix[np.where(x < 0, i + len(_EXPONENTS), i)]
    out[0] |= t.first[first]
    before = t.before_point[i]
    point = np.where(last > before, before, 0)
    # two groups side by side, in the order they are stored
    pair = np.empty((x.shape[0], 2), np.uint32)
    lane = pair.view(np.uint64).reshape(-1)
    for j in range(2):
        pair[:, 0] = t.quads[groups[2 * j]]
        pair[:, 1] = t.quads[groups[2 * j + 1]]
        keep = t.keep[j][before]
        np.bitwise_and(lane, keep, out=out[1 + j])
        out[1 + j] |= t.dot[j][point]
        keep = np.invert(keep, out=keep)
        keep &= t.keep[j][last]
        np.bitwise_and(lane, keep, out=out[3 + j])
    out[5] = t.exponent[i]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([b",%.17g" % v for v in x[slow].tolist()], dtype=f"S{8 * _LANES}")
        out[:, slow] = text.view(np.uint64).reshape(-1, _LANES).T


# A float field as a band file may spell it: the grammar of ``_parse_values``,
# which every text of ``_g17`` follows, or a value that is not finite.
_FLOAT = rb"(?:-?(?:\d+\.?\d*|\.\d+)(?:e[+-]\d\d\d?)?|-?inf|nan)"
_U64 = np.uint64


def _u64(text: bytes) -> np.uint64:
    """Eight bytes as one little-endian lane, the first in the low byte."""
    return _U64(int.from_bytes(text, "little"))


_ZEROS = _u64(b"0" * 8)
_POINTS = _u64(b"\x1e" * 8)  # "." ^ "0"
_ONES = _u64(b"\x01" * 8)
_NOT_DIGIT = _u64(b"\x76" * 8)  # a byte above 9 reaches 0x80 when this is added
_HIGH_BITS = _u64(b"\x80" * 8)
# The last three bytes of a field that are exponent digits, as a mask of
# bits 40-63: none, two (after "e" and a sign) or three.
_EXPONENT_DIGITS = np.array([0, 0xFFFF00, 0xFFFFFF], dtype=_U64)


@cache
def _mantissa_tables() -> SimpleNamespace:
    """The tables of ``_parse_values``, on a 24-byte window as three lanes:
    per length n = 0..24 of the mantissa, the mask of its last n bytes
    (``keep``); per g = 0..63, the byte a point leaves, "." ^ "0", where
    it has g - 1 digits after it (``point``, none for g = 0 or past 24);
    per lane, the multiplier that turns a lane whose byte j holds the
    point into g in its top byte (``after``); and per g, 10**g and
    9 * 10**(g - 1), which take the point's zero out of the integer
    (``div``, ``mul``; no point for g = 0)."""
    def lanes(texts):
        return np.frombuffer(b"".join(texts), "<u8").reshape(-1, 3).astype(_U64)
    return SimpleNamespace(
        keep=lanes([bytes(24 - n) + b"\xff" * n for n in range(25)]),
        point=lanes([bytes(24)] + [bytes(24 - g) + b"\x1e" + bytes(g - 1) for g in range(1, 25)]
                    + [bytes(24)] * 39),
        after=np.array([int.from_bytes(bytes(j + 8 * (2 - k) + 1 for j in range(8)), "little")
                        for k in range(3)], dtype=_U64),
        div=np.array([2**64 - 1] + [10**g for g in range(1, 20)] + [2**64 - 1] * 44, dtype=_U64),
        mul=np.array([0] + [9 * 10**(g - 1) for g in range(1, 20)] + [0] * 44, dtype=_U64),
    )


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The number each lane of eight digit values 0..9 spells, the first in
    the low byte (Lemire, "Number parsing at a gigabyte per second", 2021):
    pairs, then quads, then the eight, each a multiply and a shift; in
    place."""
    x *= _U64(10 << 8 | 1)
    x >>= _U64(8)
    x &= _u64(b"\xff\0" * 4)
    x *= _U64(100 << 16 | 1)
    x >>= _U64(16)
    x &= _u64(b"\xff\xff\0\0" * 2)
    x *= _U64(10000 << 32 | 1)
    x >>= _U64(32)
    return x


def _windows(buf: bytes, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each offset on, as one bytes item
    each: gathered, they are whole little-endian lanes of text."""
    return np.ndarray((len(buf) - width + 1,), f"S{width}", buf, 0, (1,))


def _parse_values(buf: bytes, b: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray | None:
    """The floats of the fields b[s:t] of ``buf``, or None unless every one
    is decided.

    A field decided here is ``-?``, a mantissa of at most 24 digits and
    one point, with a digit besides the point, then ``e``, a sign and two
    or three digits, or nothing; that is every text of ``_g17``.  The
    mantissa is read as the three lanes that end where it does, with the
    bytes before it set to "0" and its point to a 0 digit.  Eight digits
    at a time (``_eight_digits``) they spell an integer N below 10**19,
    from which the point's zero is taken out: the integer D of the
    mantissa's digits.  The value is D 10**q, where q is the exponent less
    the digits after the point, and is rounded once with Dekker's
    two-product against ``_g17``'s table, whose row 16 - e holds 10**q for
    q in [-234, 266]: the sum is within 2**-100 of D 10**q, relative, and
    is kept only where its rounding error lies further than 2**-40 of the
    gap to the next double toward zero from half that gap, so that it is
    the correctly rounded value.
    """
    mt = _mantissa_tables()
    neg = b[s] == ord("-")
    s = s + neg
    # The last eight bytes: "e", a sign and three digits, or "e", a sign
    # and two, end the field.
    tail = _windows(buf, 8)[t - 8].view("<u8")
    chars = tail.view(np.uint8).reshape(-1, 8)
    e2 = chars[:, 4] == ord("e")
    e3 = chars[:, 3] == ord("e")
    e3 &= ~e2
    form = e2 + 2 * e3
    digits = (tail ^ _ZEROS) >> _U64(40)
    digits &= _EXPONENT_DIGITS.take(form)
    wrong = digits | (digits + _NOT_DIGIT)
    exponent = digits.astype(np.intp)
    exponent = (exponent & 0xFF) * 100 + (exponent >> 8 & 0xFF) * 10 + (exponent >> 16)
    sign = np.where(e2, chars[:, 5], chars[:, 4])
    minus = sign == ord("-")
    if not ((sign == ord("+")) | minus | (form == 0)).all():
        return None
    exponent = np.where(minus, -exponent, exponent)
    end = t - 4 * e2 - 5 * e3
    length = end - s
    if ((length < 1) | (length > 24)).any():
        return None
    x = _windows(buf, 24)[end - 24].view("<u8").reshape(-1, 3)
    x ^= _ZEROS
    x &= mt.keep.take(length, axis=0)
    # g: 1 + the digits after the point, from the lane that holds it.  A
    # byte past the point may be flagged too (a borrow), and then g is
    # wrong and the point, which stays, fails the digit test.
    y = x ^ _POINTS
    flags = y - _ONES
    np.invert(y, out=y)
    flags &= y
    flags &= _HIGH_BITS
    flags >>= _U64(7)
    flags *= mt.after
    flags >>= _U64(56)
    g = flags[:, 0] + flags[:, 1]
    g += flags[:, 2]
    g = g.astype(np.intp)
    x ^= mt.point.take(g, axis=0, mode="clip")
    np.add(x, _NOT_DIGIT, out=y)
    y |= x
    if ((wrong & _U64(0x808080)).any() or (y & _HIGH_BITS).any()
            or (length <= (g > 0)).any()):
        return None
    n = _eight_digits(x)
    if (n[:, 0] >= 1000).any():
        return None
    n[:, 0] *= _U64(10**16)
    n[:, 1] *= _U64(10**8)
    n = n[:, 0] + n[:, 1] + n[:, 2]
    # N = I 10**g + F has the digits I before the point, a zero, and the
    # g - 1 digits F after it; D = I 10**(g - 1) + F.
    d = n - n // mt.div.take(g, mode="clip") * mt.mul.take(g, mode="clip")
    i = 16 - _EXPONENTS[0] - exponent + np.maximum(g - 1, 0)
    if ((i < 0) | (i >= len(_EXPONENTS))).any():
        return None
    t10 = _g17_tables()
    high = d.astype(float)
    low = (d - high.astype(_U64)).view(np.int64).astype(float)
    value, err = _two_product(high, i, t10)
    err += high * t10.lo[i]
    err += low * t10.hi[i]
    rounding = value.copy()
    value += err
    # The rounding error of the sum, exactly (Fast2Sum: |err| < |value|).
    rounding -= value
    rounding += err
    # The gap below the sum, or 0 if D is 0 and the sum exact.
    gap = value - (value.view(_U64) - (d != 0)).view(float)
    if not ((np.abs(rounding) < gap * (0.5 - 2.0**-40)) | (d == 0)).all():
        return None
    return np.where(neg, -value, value)
