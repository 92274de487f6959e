"""format_rows against CPython's correctly rounded '%.17g', byte for byte."""
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from superpulse import runner
from superpulse._g17 import format_rows

SHAPES = st.tuples(st.integers(1, 8), st.integers(1, 5))
B = runner._CSV_BLOCK_ROWS     # rows per formatted block


def expected(block) -> bytes:
    return ("\n".join(",".join("%.17g" % v for v in row) for row in block) + "\n").encode()


def assert_same(block):
    block = np.asarray(block, dtype=np.float64)
    got, want = format_rows(block), expected(block)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first {bad[0]}")


def is_tie(v: float) -> bool:
    """Whether v has 18 significant digits, the last a 5: a tie at 17."""
    digits = Decimal(v).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        hnp.arrays(np.float64, SHAPES, elements=st.floats()),
        hnp.arrays(np.uint64, SHAPES, elements=st.integers(0, 2**64 - 1)).map(
            lambda a: a.view(np.float64)
        ),
        hnp.arrays(
            np.float64, SHAPES,
            elements=st.builds(
                lambda k, j, sign: sign * (k + (2 * j + 1) / 4096),
                st.integers(100_000, 999_999), st.integers(0, 2047), st.sampled_from([1, -1]),
            ),
        ),
    )
)
def test_blocks_match_percent_format(block):
    assert_same(block)


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    assert_same(rng.integers(0, 2**64, (40_000, 5), dtype=np.uint64).view(np.float64))


def test_dyadic_exact_ties_round_to_even():
    # k + j/4096 with six-digit k and odd j: 10**P is a double, the product exact
    rng = np.random.default_rng(7)
    k, j = rng.integers(100_000, 1_000_000, 20_000), rng.integers(0, 2048, 20_000)
    ties = k + (2 * j + 1) / 4096
    assert all(is_tie(v) for v in ties[:500])
    assert_same(np.concatenate([ties, -ties]).reshape(-1, 4))


def test_ties_where_the_power_of_ten_is_inexact():
    # y = k * 5**P / 2 for P = 23 and 24, where 10**P is not a double
    ties = [k * 2.0**-24 for k in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25]
    assert all(is_tie(v) for v in ties)
    assert_same(np.array([ties, [-v for v in ties]]))


def near_ties():
    """x = m * 2**-(k+P) with y = m * 5**P / 2**k = D + 1/2 + delta / 2**k."""
    values = []
    for p in (23, 24, 25, 30):
        c = 5**p
        for k in range(47, 54):
            inverse = pow(c, -1, 2**k)
            for delta in (*range(-15, 0), *range(1, 16)):
                first = (2 ** (k - 1) + delta) * inverse % 2**k
                for m in range(first, 2**53, 2**k):
                    if 10**16 * 2**k <= m * c < 10**17 * 2**k:
                        values.append(m * 2.0 ** (-k - p))
    return values


def test_near_ties_where_the_power_of_ten_is_inexact():
    # within 15 * 2**-47 of a half-integer: closer than the margin, so
    # these must not be decided on the double-double
    values = near_ties()
    assert len(values) > 1000
    assert_same(np.array(values).reshape(-1, 1))


def test_powers_of_ten_and_their_neighbours():
    values = []
    for e in range(-30, 31):
        v = 10.0**e
        values += [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]
    assert_same(np.array(values).reshape(-1, 3))


def test_special_values():
    assert_same([[0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  np.inf, -np.inf, np.nan]])
    # a scalar-path cell in the first or the last column, then ',' or '\n'
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
    assert_same([[v, 1.5, -2.25e-7, 123456.789, v] for v in specials])
    assert_same([[v, -3.0] for v in specials] + [[-3.0, v] for v in specials])
    assert_same(np.array(specials).reshape(-1, 1))


def test_negative_values_in_every_notation_class():
    # fixed notation for E = -4 .. 16, scientific with two- and three-digit
    # exponents, each with 1 to 17 significant digits
    digits = "98765432123456789"
    exponents = [*range(-4, 17), -100, -99, -10, -5, 17, 20, 99, 100, 250]
    values = [-float(f"{digits[0]}.{digits[1:n]}e{e}") for e in exponents for n in range(1, 18)]
    text = ["%.17g" % v for v in values]
    assert all("e" not in t for t, v in zip(text, values) if 1e-4 <= -v < 1e17)
    assert {len(t.split("e")[1]) for t in text if "e" in t} == {3, 4}   # sign and 2 or 3 digits
    assert_same(np.array(values).reshape(len(exponents), 17))
    assert_same(-np.array(values).reshape(len(exponents), 17))


def test_integers_around_the_digit_count_edges():
    values = [float(base + k) for base in (10**16, 10**17) for k in range(-300, 300)]
    assert_same(np.array(values).reshape(-1, 5))
    assert_same(-np.array(values).reshape(-1, 5))


def test_trajectory_csv_is_header_then_rows(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * runner._CSV_BLOCK_ROWS + 7
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n) for _ in range(3)]
    path = tmp_path / "t.csv"
    runner.write_trajectory_csv(path, [columns], header="a,b,c")
    assert path.read_bytes() == b"a,b,c\n" + expected(np.column_stack(columns))
    runner.write_trajectory_csv(path, [(np.zeros(0),)], header="a")
    assert path.read_bytes() == b"a\n"
    # a first column ending on a block boundary must not cut the others short
    with pytest.raises(ValueError, match="differ in length"):
        runner.write_trajectory_csv(path, [(columns[0][:n - 7], columns[1][:n - 6])], header="a,b")
    assert path.read_bytes() == b"a\n"


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
def test_trajectory_csv_at_block_edges(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n) for _ in range(5)]
    columns[2][::97] = 0.0
    path = tmp_path / "t.csv"
    runner.write_trajectory_csv(path, [columns], header="a,b,c,d,e")
    assert path.read_bytes() == b"a,b,c,d,e\n" + expected(np.column_stack(columns))


# the writer's traced peak is one block's temporaries, about 190 bytes per
# value (0.73 MiB at five columns), plus the chunk being written; it must
# not grow with the number of rows
CSV_PEAK_BOUND = 0.9 * 2**20


@pytest.mark.parametrize("blocks", [4, 8])
def test_trajectory_csv_peak_memory_is_one_block(tmp_path, blocks):
    n = blocks * B + 3
    rng = np.random.default_rng(blocks)
    columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n) for _ in range(5)]
    path = tmp_path / "t.csv"
    runner.write_trajectory_csv(path, [columns])    # builds the cached tables
    tracemalloc.start()
    try:
        runner.write_trajectory_csv(path, [columns])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CSV_PEAK_BOUND, f"{peak / 2**20:.3f} MiB"
