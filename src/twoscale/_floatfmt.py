"""Shortest round-trip text of float64 arrays, vectorized over numpy uint64.

Contract: the text of every double v is exactly the bytes of
``repr(float(v))``, the shortest decimal that reads back as v (the closest
one when several are that short), in Python's layout.  That text is a
function of the double alone, so ``float(text)`` gives v back bit for bit
and a file written with it is byte-identical to a ``repr`` join.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), in the form of JDK 19+ ``DoubleToDecimal.toDecimal``: the
binary significand times a table entry g(k), rounded to odd at 2^-127, and
integer floor-log approximations pick the decimal without the bignum
arithmetic of ``dtoa``.  The 64 x 64 -> 128 bit products run on 32-bit
limbs.  Of the three products Schubfach takes, only the middle one is
formed: the two ends of the rounding interval differ from it by the gap
g 2^(h+1) 2^-127, whose integer part and top 63 fraction bits are table
entries, so only a value whose fraction bits tie with the gap's, or whose
lower gap halves (a power of two), forms its end products.  Only normal values take that path; for them the scaled
significand is always >= 100, so Java's two-digit rule for subnormals never
applies.  Signed zeros are laid out directly; subnormals, infinities and nan
are rendered by ``repr`` one at a time.

``format_lines`` writes each value's text and a newline as ``WORDS``
little-endian uint64 words, 48 byte slots, one for each character Python's
layout may place:

    word 0   sign | "0." | three leading zeros | d0 | '.' or NUL
    1 .. 4   d_i and the '.' or NUL after it, for i = 1 .. 16; the last slot
             of word 4 is the '.' of an integral value's ".0"
    word 5   its '0' | 'e' | exponent sign | three exponent digits | '\\n' | NUL

Each row starts from its layout's word table: the constant bytes, '0' in
the slots that take a digit and NUL in the unused ones.  Since only
trailing zero digits fall in unused slots, ORing in the digit values
(d0 in word 0, four-digit groups in words 1-4 with zero bytes between their
digits, the exponent digits in word 5) completes the text, and a caller
that puts the words next to other text in one matrix drops every NUL at
once.
"""

from __future__ import annotations

import functools

import numpy as np

# values per kernel pass: its temporaries stay in cache
CHUNK = 8192
# uint64 words per value line
WORDS = 6

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_T_MASK = _U((1 << 52) - 1)
_C_MIN = _U(1 << 52)
_Q_MIN = -1074
_K_MIN, _K_MAX = -324, 292
# decimal point positions -_POINT .. _POINT - 1 index the point tables
_POINT = 320


def flog10pow2(q):
    """floor(q log10 2) for the binary exponents q of doubles."""
    return (q * 661971961083) >> 41


def flog10_three_quarters_pow2(q):
    """floor(log10(3/4 2^q)) for the binary exponents q of doubles."""
    return (q * 661971961083 - 274743187321) >> 41


def flog2pow10(e):
    """floor(e log2 10) for |e| <= 400."""
    return (e * 913124641741) >> 38


def g_entry(k: int) -> int:
    """g(k) = floor(10^-k 2^(125 - flog2pow10(-k))) + 1, in [2^125, 2^126)."""
    shift = 125 - flog2pow10(-k)
    num = 10 ** max(-k, 0) << max(shift, 0)
    den = 10 ** max(k, 0) << max(-shift, 0)
    return num // den + 1


@functools.cache
def _exponent_tables():
    """Built once, on first use: g = g1 2^63 + g0 as the rows g1, g0 of a
    (2, 617) uint64 table by k - _K_MIN; and, for each biased exponent e of
    a double whose lower gap is its upper, k = flog10pow2(e - 1075), a
    (5, 2048) uint64 table of its g1 and g0, the shift h + 2 that scales
    its significand, and the integer part and the top 63 fraction bits of
    g 2^(h+1) 2^-127."""
    g = [g_entry(k) for k in range(_K_MIN, _K_MAX + 1)]
    by_k = np.array([[v >> 63 for v in g], [v & ((1 << 63) - 1) for v in g]], dtype=_U)
    q = np.arange(2048) - 1075
    k = flog10pow2(q)
    h = q + flog2pow10(-k) + 2
    g1, g0 = by_k[:, k - _K_MIN]
    s = (h + 1).astype(_U)
    gap = g1 >> (_U(64) - s)
    gap_fraction = ((g1 << (s - _U(1))) & _M63) | (g0 >> (_U(64) - s))
    by_e = np.stack([g1, g0, (h + 2).astype(_U), gap, gap_fraction])
    for table in (by_k, by_e):
        table.flags.writeable = False
    return by_k, by_e


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), limbs < 2^32, b1 < 2^31."""
    m1 = a1 * b0
    mid = a0 * b1 + ((a0 * b0) >> _U(32)) + (m1 & _M32)
    return a1 * b1 + (m1 >> _U(32)) + (mid >> _U(32))


def _product(g1, g0, cp):
    """The integer part of g cp 2^-127 and the top 63 bits of its fraction,
    g = g1 2^63 + g0, as Schubfach's rop(g, cp) forms them, cp < 2^63 even."""
    ch, cl = cp >> _U(32), cp & _M32
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0 >> _U(32), g0 & _M32, ch, cl)
    return _mulhi(g1 >> _U(32), g1 & _M32, ch, cl) + (z >> _U(63)), z & _M63


def _rop(g1, g0, cp):
    """Schubfach's rop(g, cp): g cp 2^-127 rounded to odd, g = g1 2^63 + g0,
    cp < 2^63 even."""
    whole, fraction = _product(g1, g0, cp)
    return whole | ((fraction + _M63) >> _U(63))


def _interval(bits):
    """(vb, vbl, vbr, k) of ``DoubleToDecimal.toDecimal(q, c, 0)`` for each
    normal double given by its ``bits``: its value and rounding interval's
    ends scaled by 10^-k 2^2, rounded to odd, the ends narrowed by c's
    parity."""
    by_k, by_e = _exponent_tables()
    c = (bits & _T_MASK) | _C_MIN
    e = ((bits >> _U(52)) & _U(0x7FF)).view(np.int64)
    whole, fraction = _product(by_e[0].take(e), by_e[1].take(e), c << by_e[2].take(e))
    k = flog10pow2(e - 1075)
    vb = whole | ((fraction + _M63) >> _U(63))
    # the ends are g (cp -+ 2^(h+1)) 2^-127, vb's product -+ the gap: a
    # fraction that differs from the gap's in its top 63 bits decides the
    # borrow or carry, and the difference or sum is not whole; an end whose
    # top bits tie, or a lower gap that halves, forms its product
    gap, gap_fraction = by_e[3].take(e), by_e[4].take(e)
    odd = c & _U(1)
    vbl = ((whole - gap - (fraction < gap_fraction)) | _U(1)) + odd
    upper = fraction + gap_fraction
    vbr = ((whole + gap + (upper >> _U(63))) | _U(1)) - odd
    redo = np.flatnonzero((fraction == gap_fraction) | (((upper + _U(2)) & _M63) <= _U(2)) | (c == _C_MIN))
    if len(redo):
        q, c = e[redo] - 1075, c[redo]
        irregular = (c == _C_MIN) & (q != _Q_MIN)
        k[redo] = np.where(irregular, flog10_three_quarters_pow2(q), flog10pow2(q))
        h = (q + flog2pow10(-k[redo]) + 2).astype(_U)
        g1, g0 = (row.take(k[redo] - _K_MIN) for row in by_k)
        cb = c << _U(2)
        vb[redo] = _rop(g1, g0, cb << h)
        vbl[redo] = _rop(g1, g0, (cb - _U(2) + irregular) << h) + (c & _U(1))
        vbr[redo] = _rop(g1, g0, (cb + _U(2)) << h) - (c & _U(1))
    return vb, vbl, vbr, k


def _decimal(bits):
    """(f, k): f 10^k is the decimal ``DoubleToDecimal.toDecimal(q, c, 0)``
    picks for each normal double given by its ``bits``."""
    vb, vbl, vbr, k = _interval(bits)
    s = vb >> _U(2)
    # one digit shorter: exactly one of s' 10^(k+1), (s' + 1) 10^(k+1) in range
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    shorter = upin != (((sp10 + _U(10)) << _U(2)) <= vbr)
    # else s 10^k or (s + 1) 10^k: the one in range, or the closer one
    sb = vb & ~_U(3)  # s << 2
    uin = vbl <= sb
    win = sb + _U(4) <= vbr
    mid = sb + _U(2)
    closer_s = (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0))
    take_s = (uin & ~win) | ((uin == win) & closer_s)
    f = np.where(shorter, sp10 + _U(10) * ~upin, s + ~take_s)
    return f, k


@functools.cache
def _tables():
    """Built once, on first use: the (WORDS, 816) layout words of each
    layout key; the four digits of each of 0..9999 spread over alternate
    bytes, and twice the count of its digits up to the last nonzero one
    (-32 for 0000); and, by decimal point position, its layout class times
    34 and its exponent digits (none when positional) in the bytes of word 5."""
    cls, ndig, negative = (a.ravel() for a in np.indices((24, 17, 2)))
    ndig = ndig + 1
    # the layout classes: decimal point positions -3..16 laid out
    # positionally, then the exponent's sign and whether it has three digits,
    # with a point position of each: 1e-5, 1e-200, 1e16, 1e200
    point = np.where(cls < 20, cls - 3, np.array([-4, -199, 17, 201])[np.maximum(cls - 20, 0)])
    positional = cls < 20
    scientific = ~positional
    lead = positional & (point <= 0)
    kept = np.where(positional, np.maximum(ndig, point), ndig)
    dot = np.where(positional, np.where(point < ndig, point, 0), ndig > 1)
    tail = positional & (point >= ndig)
    column = np.arange(17)

    slots = np.zeros((len(cls), 8 * WORDS), dtype=np.uint8)
    slots[:, 0] = negative * ord("-")
    slots[:, 1] = lead * ord("0")
    slots[:, 2] = lead * ord(".")
    slots[:, 3:6] = (column[1:4] <= -point[:, None]) * lead[:, None] * ord("0")
    slots[:, 6:39:2] = (column < kept[:, None]) * ord("0")
    slots[:, 7:39:2] = (column[1:] == dot[:, None]) * ord(".")
    slots[:, 39] = tail * ord(".")
    slots[:, 40] = tail * ord("0")
    slots[:, 41] = scientific * ord("e")
    slots[:, 42] = scientific * np.where(point > 1, ord("+"), ord("-"))
    slots[:, 43] = (scientific & (np.abs(point - 1) >= 100)) * ord("0")
    slots[:, 44:46] = scientific[:, None] * ord("0")
    slots[:, 46] = ord("\n")
    layouts = np.ascontiguousarray(slots.view("<u8").T)

    quad = np.arange(10000)
    digits = np.stack([quad // 1000, quad // 100 % 10, quad // 10 % 10, quad % 10])
    spread = (digits.astype(_U) << (_U(16) * np.arange(4, dtype=_U))[:, None]).sum(axis=0, dtype=_U)
    last = 4 - np.argmax(digits[::-1] != 0, axis=0)
    counts = np.where(quad == 0, -32, 2 * last).astype(np.int8)

    point = np.arange(-_POINT, _POINT)
    positional = (point >= -3) & (point <= 16)
    cls = np.where(positional, point + 3, 20 + 2 * (point > 1) + (np.abs(point - 1) >= 100))
    power = np.abs(point - 1) * ~positional
    exponent = ((power // 100 << 24) + (power // 10 % 10 << 32) + (power % 10 << 40)).astype(_U)
    tables = (layouts, spread, counts, 34 * cls, exponent)
    for table in tables:
        table.flags.writeable = False
    return tables


def format_lines(values, out):
    """Write the ``repr`` text and a newline of each double of 1-D
    ``values`` into the rows of ``out``, a (len(values), WORDS) uint64 array
    or a column slice of a wider one, NUL in unused slots."""
    layouts, spread, counts, classes, exponent = _tables()
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(_U)
    magnitude = bits & _M63
    zero = magnitude == 0
    rare = (magnitude >= _U(0x7FF << 52)) | (magnitude < _C_MIN) & ~zero
    # 3.0, of regular gap, stands in for zeros and rare values in the digit
    # kernel; its f = 3 10^16 at point 1 is a zero's layout once d0 drops to 0
    magnitude[zero | rare] = 0x4008000000000000
    f, k = _decimal(magnitude)

    # 2^52 <= f < 10^17 for a normal double (10^k <= 2^q < 10^(k+1)), so f has
    # 16 or 17 digits; padded to 17, f 10^k = 0.d0 d1 ... d16 x 10^point, and
    # point indexes the point tables offset by _POINT
    short = f < _U(10**16)
    f *= short.astype(_U) * _U(9) + _U(1)
    point = k + (17 + _POINT) - short
    top = f // _U(10**16)
    rest = f - top * _U(10**16)
    top[zero] = 0
    hi = rest // _U(10**8)
    lo = rest - hi * _U(10**8)
    hi_hi, lo_hi = hi // _U(10000), lo // _U(10000)
    groups = [g.view(np.int64) for g in (hi_hi, hi - hi_hi * _U(10000), lo_hi, lo - lo_hi * _U(10000))]

    # twice the digits after d0 up to the last nonzero one: of the last
    # nonzero group, 8 per group before it (a zero group reads -32)
    count = np.zeros(len(f), dtype=np.int8)
    for j, group in enumerate(groups):
        np.maximum(count, counts.take(group) + np.int8(8 * j), out=count)
    key = classes.take(point) + count + (bits >> _U(63)).view(np.int64)
    # each word: its layout's constant bytes, ORed with its digits
    digits = [top << _U(48), *(spread.take(group) for group in groups), exponent.take(point)]
    for j, word in enumerate(digits):
        np.bitwise_or(layouts[j].take(key), word, out=out[:, j])

    for i in np.flatnonzero(rare):
        text = repr(float(values[i])).encode("ascii") + b"\n"
        out[i] = 0
        out[i].view(np.uint8)[: len(text)] = np.frombuffer(text, dtype=np.uint8)


def texts(values) -> list:
    """The ``repr`` bytes of each double of 1-D ``values``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    out = []
    for start in range(0, len(values), CHUNK):
        chunk = values[start : start + CHUNK]
        lines = np.empty((len(chunk), WORDS), dtype=_U)
        format_lines(chunk, lines)
        out.extend(lines.tobytes().translate(None, b"\0").split(b"\n")[:-1])
    return out
