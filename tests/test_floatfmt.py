"""The vectorized float formatter gives exactly the bytes of repr(float(v))."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale._floatfmt import (
    CHUNK,
    WORDS,
    _K_MAX,
    _K_MIN,
    flog2pow10,
    flog10_three_quarters_pow2,
    flog10pow2,
    format_lines,
    g_entry,
    texts,
)


def assert_repr_bytes(values):
    values = np.asarray(values, dtype=np.float64)
    lines = np.empty((len(values), WORDS), dtype=np.uint64)
    for start in range(0, len(values), CHUNK):
        format_lines(values[start : start + CHUNK], lines[start : start + CHUNK])
    got = lines.tobytes().translate(None, b"\0").decode()
    want = "".join(repr(v) + "\n" for v in values.tolist())
    if got != want:
        bad = [(w, g) for w, g in zip(want.splitlines(), got.splitlines()) if w != g]
        raise AssertionError(bad[:5])


def test_random_bit_patterns():
    rng = np.random.default_rng(20201)
    for _ in range(10):
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        assert_repr_bytes(bits.view(np.float64))


def test_scaled_normal_samples():
    rng = np.random.default_rng(7)
    assert_repr_bytes(rng.standard_normal(200_000) * 10.0 ** rng.integers(-320, 300, 200_000))


def test_small_integers():
    assert_repr_bytes(np.arange(-100_000, 100_000, dtype=float))


def test_powers_of_two_and_ten_and_their_neighbours():
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    for v in (powers, -powers):
        assert_repr_bytes(np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]))


def test_integers_whose_interval_ends_tie():
    # from 2^50 up, the ends of a rounding interval fall on or just off whole
    # numbers, where their top fraction bits tie with the gap's, and the digit
    # kernel forms the exact end products
    rng = np.random.default_rng(32)
    scale = 2.0 ** rng.integers(0, 3, 200_000)
    assert_repr_bytes(rng.integers(2**50, 2**62, 200_000).astype(float) * scale)


def test_short_decimals():
    rng = np.random.default_rng(11)
    mantissa = rng.integers(1, 10**6, 60_000)
    exponent = rng.integers(-310, 300, 60_000)
    assert_repr_bytes([float(f"{m}e{e}") for m, e in zip(mantissa, exponent)])


def test_layout_boundaries():
    assert_repr_bytes([
        1e-05, 0.0001, 9.999999999999999e-05, 1e16, 9999999999999998.0, 1e15, 123456789012345.6,
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0, 1.0, -1.0, 0.1, 0.5,
        1e100, 1e-100, 1.5e-250, 2.5e250, 1e22, 1e23, 9007199254740993.0,
        math.nan, -math.nan, math.inf, -math.inf,
    ])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_any_floats(values):
    assert_repr_bytes(values)


def test_format_lines_fills_a_column_slice_and_pads_with_nul():
    # six words per value beside other words of the same rows: the text and
    # its newline, NUL in every unused slot, the neighbouring words untouched
    values = np.array([-1.5e-7, 2.0, 0.001, -0.0, 1e22, math.inf])
    lines = np.full((len(values), 3 + WORDS), 0x5555555555555555, dtype=np.uint64)
    format_lines(values, lines[:, 2:-1])
    assert (lines[:, :2] == 0x5555555555555555).all() and (lines[:, -1] == 0x5555555555555555).all()
    assert [row.tobytes().translate(None, b"\0") for row in lines[:, 2:-1]] == [
        b"-1.5e-07\n", b"2.0\n", b"0.001\n", b"-0.0\n", b"1e+22\n", b"inf\n",
    ]


def test_texts_crosses_chunk_seams():
    values = np.linspace(-3.0, 7.0, 2 * CHUNK + 5) ** 3
    assert texts(values) == [repr(v).encode() for v in values.tolist()]


def test_floor_log_constants_exact():
    for q in range(-1074, 972):
        two_q = Fraction(2) ** q
        k = flog10pow2(q)
        assert Fraction(10) ** k <= two_q < Fraction(10) ** (k + 1), q
        k = flog10_three_quarters_pow2(q)
        assert Fraction(10) ** k <= Fraction(3, 4) * two_q < Fraction(10) ** (k + 1), q
    for e in range(-400, 401):
        j = flog2pow10(e)
        assert Fraction(2) ** j <= Fraction(10) ** e < Fraction(2) ** (j + 1), e


def test_g_table_entries_in_range():
    for k in range(_K_MIN, _K_MAX + 1):
        assert 2**125 <= g_entry(k) < 2**126, k
