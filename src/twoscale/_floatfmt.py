"""Shortest round-trip text of float64 arrays, vectorized over numpy uint64.

Contract: the text of every double v is exactly the bytes of
``repr(float(v))``, the shortest decimal that reads back as v (the closest
one when several are that short), in Python's layout.  That text is a
function of the double alone, so ``float(text)`` gives v back bit for bit
and a file written with it is byte-identical to a ``repr`` join.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), in the form of JDK 19+ ``DoubleToDecimal.toDecimal``: one
127-bit product of the binary significand with a table entry g(k), and
integer floor-log approximations, pick the decimal without the bignum
arithmetic of ``dtoa``.  The 64 x 64 -> 128 bit products run on 32-bit
limbs.  Only normal values take that path; for them the scaled significand
is always >= 100, so Java's two-digit rule for subnormals never applies.
Signed zeros are laid out directly; subnormals, infinities and nan are
rendered by ``repr`` one at a time.

``format_into`` lays each text out in ``WIDTH`` fixed byte slots, one for
each character Python's layout may place, and fills the unused slots with
NUL, so a caller can put those slots next to other text in one byte matrix
and drop every NUL at once.
"""

from __future__ import annotations

import functools

import numpy as np

# values per kernel pass: its temporaries stay in cache
CHUNK = 8192

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_T_MASK = _U((1 << 52) - 1)
_C_MIN = _U(1 << 52)
_Q_MIN = -1074
_K_MIN, _K_MAX = -324, 292

# The slots of one value, left to right: sign | "0." | three leading zeros
# after the point | d0, then ('.' or NUL, d_i) for i = 1..16 | ".0" of an
# integral value | 'e', exponent sign, three exponent digits.
_SIGN, _LEAD, _DIGITS, _TAIL, _EXP = 0, 1, 6, 39, 41
WIDTH = 46
_COLUMN = np.arange(17)


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
def _tables():
    """Built once, on first use: the g table as five rows g1, g1 >> 32,
    g1 & M32, g0 >> 32, g0 & M32 with g = g1 2^63 + g0; the four ASCII
    digits of 0..9999 as little-endian uint32 words; and the trailing zero
    count of each of those four-digit groups."""
    g = [g_entry(k) for k in range(_K_MIN, _K_MAX + 1)]
    g1 = np.array([v >> 63 for v in g], dtype=_U)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=_U)
    limbs = (g1, g1 >> _U(32), g1 & _M32, g0 >> _U(32), g0 & _M32)
    quad = np.arange(10000)
    ascii4 = np.stack([quad // 1000, quad // 100 % 10, quad // 10 % 10, quad % 10], axis=1)
    quads = (ascii4 + ord("0")).astype(np.uint8).view("<u4").ravel()
    zeros4 = np.where(quad == 0, 4, np.argmax(ascii4[:, ::-1] != 0, axis=1))
    for table in (*limbs, quads, zeros4):
        table.flags.writeable = False
    return limbs, quads, zeros4


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), limbs < 2^32, b1 < 2^31."""
    m1 = a1 * b0
    mid = a0 * b1 + ((a0 * b0) >> _U(32)) + (m1 & _M32)
    return a1 * b1 + (m1 >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """Schubfach's rop(g, cp): g cp 2^-127 rounded to odd, cp < 2^63."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> _U(32), cp & _M32
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0h, g0l, ch, cl)
    return (_mulhi(g1h, g1l, ch, cl) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _decimal(bits, limbs):
    """(f, k): f 10^k is the decimal ``DoubleToDecimal.toDecimal(q, c, 0)``
    picks for each normal double given by its ``bits``."""
    t = bits & _T_MASK
    c = t | _C_MIN
    q = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64) - 1075
    irregular = (t == 0) & (q != _Q_MIN)
    k = np.where(irregular, flog10_three_quarters_pow2(q), flog10pow2(q))
    h = (q + flog2pow10(-k) + 2).astype(_U)
    g = [row.take(k - _K_MIN) for row in limbs]
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + (c & _U(1))
    vbr = _rop(g, (cb + _U(2)) << h) - (c & _U(1))

    s = vb >> _U(2)
    # one digit shorter: exactly one of s' 10^(k+1), (s' + 1) 10^(k+1) in range
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    shorter = upin != (((sp10 + _U(10)) << _U(2)) <= vbr)
    # else s 10^k or (s + 1) 10^k: the one in range, or the closer one
    uin = vbl <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) <= vbr
    mid = (s << _U(2)) + _U(2)
    closer_s = (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0))
    take_s = np.where(uin != win, uin, closer_s)
    f = np.where(shorter, sp10 + _U(10) * ~upin, s + ~take_s)
    return f, k


def _key(point, ndig, negative):
    """Layout key of each value: its ``repr`` layout class (decimal point
    position -3..16 when positional; else the exponent's sign and whether it
    has three digits), significant digit count 1..17 and sign."""
    positional = (point >= -3) & (point <= 16)
    scientific = 20 + 2 * (point > 1) + (np.abs(point - 1) >= 100)
    cls = np.where(positional, point + 3, scientific)
    return (cls * 17 + ndig - 1) * 2 + negative


@functools.cache
def _layouts():
    """(816, WIDTH) uint8: the constant bytes of each layout key's text, 0xFF
    in the slots that take one of its digits or exponent digits, NUL in the
    unused slots."""
    cls, ndig, negative = (a.ravel() for a in np.indices((24, 17, 2)))
    ndig = ndig + 1
    # a decimal point position of each class: positional, then 1e-5, 1e-200,
    # 1e16, 1e200
    point = np.where(cls < 20, cls - 3, np.array([-4, -199, 17, 201])[np.maximum(cls - 20, 0)])
    positional = cls < 20
    scientific = ~positional
    lead = positional & (point <= 0)
    kept = np.where(positional, np.maximum(ndig, point), ndig)
    dot = np.where(positional, np.where(point < ndig, point, 0), ndig > 1)
    tail = positional & (point >= ndig)

    out = np.zeros((len(cls), WIDTH), dtype=np.uint8)
    out[:, _SIGN] = negative * ord("-")
    out[:, _LEAD] = lead * ord("0")
    out[:, _LEAD + 1] = lead * ord(".")
    out[:, _LEAD + 2 : _DIGITS] = (_COLUMN[1:4] <= -point[:, None]) * lead[:, None] * ord("0")
    out[:, _DIGITS:_TAIL:2] = (_COLUMN < kept[:, None]) * 0xFF
    out[:, _DIGITS + 1 : _TAIL : 2] = (_COLUMN[1:] == dot[:, None]) * ord(".")
    out[:, _TAIL] = tail * ord(".")
    out[:, _TAIL + 1] = tail * ord("0")
    out[:, _EXP] = scientific * ord("e")
    out[:, _EXP + 1] = scientific * np.where(point > 1, ord("+"), ord("-"))
    out[:, _EXP + 2] = (scientific & (np.abs(point - 1) >= 100)) * 0xFF
    out[:, _EXP + 3 :] = scientific[:, None] * 0xFF
    out.flags.writeable = False
    return out


def format_into(values, out):
    """Write the ``repr`` text of each double of 1-D ``values`` into the rows
    of ``out``, a (len(values), WIDTH) uint8 array, NUL in unused slots."""
    limbs, quads, zeros4 = _tables()
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    bits = values.view(_U)
    magnitude = bits & _M63
    zero = magnitude == 0
    rare = (magnitude >= _U(0x7FF << 52)) | (magnitude < _C_MIN) & ~zero
    # 1.0 stands in for zeros and rare values in the digit kernel
    f, k = _decimal(np.where(zero | rare, _U(0x3FF0000000000000), bits), limbs)

    # 2^52 <= f < 10^17 for a normal double (10^k <= 2^q < 10^(k+1)), so f has
    # 16 or 17 digits; padded to 17, f 10^k = 0.d0 d1 ... d16 x 10^point
    short = f < _U(10**16)
    f = f * (_U(1) + _U(9) * short)
    point = k + 17 - short
    top = f // _U(10**16)
    rest = f - top * _U(10**16)
    hi = (rest // _U(10**8)).astype(np.intp)
    lo = (rest % _U(10**8)).astype(np.intp)
    groups = [hi // 10000, hi % 10000, lo // 10000, lo % 10000]
    words = np.empty((n, 5), dtype="<u4")
    words[:, 0] = (top.astype(np.uint32) + ord("0")) << 24
    for j, group in enumerate(groups):
        words[:, j + 1] = quads.take(group)
    digits = words.view(np.uint8)[:, 3:]
    digits[zero, 0] = ord("0")
    # trailing zeros: of the last nonzero four-digit group, plus 4 per group after it
    tail_zeros = zeros4.take(groups[3])
    nonzero = groups[3] != 0
    for j in (2, 1, 0):
        tail_zeros = np.where(nonzero, tail_zeros, zeros4.take(groups[j]) + 4 * (3 - j))
        nonzero |= groups[j] != 0
    ndig = 17 - tail_zeros
    ndig[zero] = 1
    point[zero] = 1

    # each value's layout, its 0xFF slots masking in the digits
    out[:] = _layouts().take(_key(point, ndig, (bits >> _U(63)).astype(np.intp)), axis=0)
    out[:, _DIGITS:_TAIL:2] &= digits
    sci = np.flatnonzero((point < -3) | (point > 16))
    out[sci, _EXP + 2 :] &= quads.take(np.abs(point[sci] - 1)).view(np.uint8).reshape(-1, 4)[:, 1:]

    for i in np.flatnonzero(rare):
        text = repr(float(values[i])).encode("ascii")
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)


def texts(values) -> list:
    """The ``repr`` bytes of each double of 1-D ``values``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    out = []
    for start in range(0, len(values), CHUNK):
        chunk = values[start : start + CHUNK]
        slots = np.empty((len(chunk), WIDTH), dtype=np.uint8)
        format_into(chunk, slots)
        out.extend(row.tobytes().translate(None, b"\0") for row in slots)
    return out
