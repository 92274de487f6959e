"""Exact ``'%.17g' % v`` for whole float64 blocks, vectorized with numpy.

A finite x is written as D * 10**(E-16), D the 17-digit integer nearest to
y = |x| * 10**(16-E), ties to even, as CPython's correctly rounded dtoa
does.  y is formed as a double-double: Dekker's error-free product of |x|
with H, the double nearest 10**P (P = 16 - E), plus |x| * L, L the rounding
error of H.  Its error is below 2**-46, so rounding y is exact unless y lies
within 2**-40 of a half-integer.  For 0 <= P <= 22, 10**P is a double
(L == 0) and the product is exact, so even a tie is decided there.  The
scalar '%.17g' formats the rest: such near-ties where L != 0, y within 64 of
10**16 or 10**17, zeros, infinities, nans and |E| > 270.

Each value is laid out in one fixed cell of words taken from tables and
AND-ed with 0x00/0xFF keep words chosen by the notation and the number of
significant digits; then the NUL bytes are deleted, since '%.17g' text holds
none.  The temporaries take about 190 bytes per value: writing fig5's five
columns in 800-row blocks peaks at 0.73 MiB under tracemalloc.
"""
from __future__ import annotations

import functools

import numpy as np

_MAX_E = 270              # beyond, the scalar path
_E_ROWS = _MAX_E + 2      # the tables cover E in [-_E_ROWS, _E_ROWS]
_MARGIN = 2.0 ** -40      # rounding decisions closer than this are not trusted
_EDGE = 64.0              # y this close to 10**16 or 10**17 is not trusted
_SPLIT = 134217729.0      # 2**27 + 1, Veltkamp's splitting constant

# A cell is 48 bytes, moved as six uint64 words: the sign (NUL for +),
# "0.000", d0 and a dot slot; "d." for d1 .. d16; then "e+ddd", the
# separator and two NULs.  The dot slot after d_k is the point of fixed
# notation with E = k, the one after d0 also that of scientific notation.
_PREFIX, _D0, _DIGITS, _EXP, _SEP = 1, 6, 8, 40, 45
_CELL = 48


@functools.cache
def _tables():
    """10**P as H, H's halves and L (P = 16 - E); first words by (sign, d0), "d.d.d.d."
    for 0..9999, last words by E; keep words, keep rows by E, trailing zeros of 0..9999."""
    hi, lo = [], []
    for p in range(16 + _E_ROWS, 15 - _E_ROWS, -1):     # E = -_E_ROWS .. _E_ROWS
        if p >= 0:
            h = float(10**p)                        # int to float rounds correctly
            hi.append(h)
            lo.append(float(10**p - int(h)))
        else:
            d = 10**-p
            h = 1 / d                               # int / int rounds correctly
            m, k = h.as_integer_ratio()
            hi.append(h)
            lo.append((k - m * d) / (k * d))
    h = np.array(hi)
    t = _SPLIT * h
    hh = t - (t - h)
    powers = np.array([h, hh, h - hh, lo])

    first = b"".join(b"%c0.000%d." % (sign, d0) for sign in b"\0-" for d0 in range(10))
    digits = np.frombuffer(b"0123456789", np.uint8)
    quads = np.full((10_000, 8), ord("."), np.uint8)
    for k in range(4):
        quads[:, 2 * k] = np.tile(np.repeat(digits, 10**(3 - k)), 10**k)
    last = "".join(f"e{e:+04d},\0\0" for e in range(-_E_ROWS, _E_ROWS + 1)).encode()

    # keep[18 * cls + nsig]: cls 0..20 is fixed notation with E = cls - 4,
    # 21 and 22 scientific with a two- and three-digit exponent
    keep = np.zeros((23, 18, _CELL), bool)
    keep[..., 0] = keep[..., _SEP] = True                # the sign and the separator
    digit_pos = [_D0] + [_DIGITS + 2 * k for k in range(16)]
    for cls in range(23):
        for nsig in range(1, 18):
            row = keep[cls, nsig]
            if cls <= 20:
                e = cls - 4
                ndig = max(nsig, e + 1) if e >= 0 else nsig
                if e < 0:
                    row[_PREFIX:_PREFIX + 1 - e] = True   # "0." and -E-1 zeros
                elif nsig > e + 1:
                    row[digit_pos[e] + 1] = True          # the point after d_E
            else:
                ndig = nsig
                row[_EXP:_EXP + 2] = True
                row[_EXP + (2 if cls == 22 else 3):_SEP] = True
                if nsig > 1:
                    row[_D0 + 1] = True
            row[digit_pos[:ndig]] = True
    keep_rows = np.array([18 * (e + 4 if -4 <= e <= 16 else 21 if abs(e) < 100 else 22) + 17
                          for e in range(-_E_ROWS, _E_ROWS + 1)])

    # trailing zero digits of 0..9999, 4 for 0
    tz = np.zeros(10_000, np.int8)
    for k in range(1, 5):
        tz[::10**k] += 1
    return (powers, *(np.frombuffer(words, np.uint64) for words in (first, quads, last)),
            (keep.view(np.uint8) * np.uint8(255)).reshape(-1, _CELL).view(np.uint64),
            keep_rows, tz)


def _scaled(a: np.ndarray, ei: np.ndarray, powers):
    """y = a * 10**(16-E) as p + lo, p the rounded product (Dekker), and L."""
    h, hh, hl, low = powers.take(ei, axis=1)
    p = a * h
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    # ((ah*hh - p) + ah*hl + al*hh) + al*hl + a*L, summed in that order
    lo = ah * hh
    lo -= p
    ah *= hl
    lo += ah
    hh *= al
    lo += hh
    al *= hl
    lo += al
    lo += np.multiply(a, low, out=h)
    return p, lo, low


def _digits(x: np.ndarray, powers):
    """E + _E_ROWS, the 17-digit D of each x, and the cells the two do not fit."""
    a = np.abs(x)
    vec = (a >= 10.0**-_MAX_E) & (a < 10.0 ** (_MAX_E + 1))   # False for 0, inf, nan
    a[~vec] = 1.0
    ei = (np.floor(np.log10(a)) + _E_ROWS).astype(np.intp)

    p, lo, low = _scaled(a, ei, powers)
    # log10 may be one off near a power of ten: move E and scale again
    off = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if off.size:
        ei[off] += np.where(p[off] < 1e16, -1, 1)
        p[off], lo[off], low[off] = _scaled(a[off], ei[off], powers)
    # p is an even integer, so rint's ties-to-even on lo rounds y to even
    r = np.rint(lo)
    vec &= (p >= 1e16 + _EDGE) & (p < 1e17 - _EDGE)
    vec &= (low == 0.0) | (np.abs(lo - r) <= 0.5 - _MARGIN)
    d = p.astype(np.int64) + r.astype(np.int64)
    # the scalar path overwrites these cells; keep their table lookups in range
    bad = np.flatnonzero(~vec)
    ei[bad] = _E_ROWS
    d[bad] = 10**16
    return ei, d, bad


def _words(x, ei, d, first, quads, last, keep_words, keep_rows, tz4) -> np.ndarray:
    """The six words of each cell, AND-ed with the cell's keep words."""
    # the first word by (sign, d0), then the digit groups d1-d4 .. d13-d16
    hi9 = d // 10**8
    d -= hi9 * 10**8
    d0 = hi9 // 10**8
    hi9 -= d0 * 10**8
    d0 += np.signbit(x) * 10
    q0 = hi9 // 10**4
    q2 = d // 10**4
    groups = (q0, hi9 - q0 * 10**4, q2, d - q2 * 10**4)

    # trailing zeros of d1..d16 set the number of significant digits; the
    # earlier groups count only where the later ones are all zero
    tz = tz4.take(groups[3])
    z = np.flatnonzero(tz == 4)
    for group in groups[2::-1]:
        if not z.size:
            break
        more = tz4.take(group[z])
        tz[z] += more
        z = z[more == 4]
    keep = keep_rows.take(ei)
    keep -= tz

    buf = keep_words.take(keep, axis=0)
    for k, (table, idx) in enumerate(zip((first, *[quads] * 4, last), (d0, *groups, ei))):
        np.bitwise_and(buf[:, k], table.take(idx), out=buf[:, k])
    return buf


def format_rows(block: np.ndarray) -> bytes:
    """Rows of a 2-D float block as CSV bytes: ``'%.17g'`` values, ',' and '\\n'."""
    block = np.asarray(block, dtype=np.float64)
    rows, cols = block.shape
    powers, *tables = _tables()
    x = block.ravel()
    ei, d, bad = _digits(x, powers)
    cells = _words(x, ei, d, *tables).view(np.uint8)
    cells.reshape(rows, cols, _CELL)[:, -1, _SEP] = ord("\n")
    for i in bad:
        s = b"%.17g" % float(x[i])
        cells[i, :_SEP] = 0
        cells[i, :len(s)] = np.frombuffer(s, np.uint8)
    return cells.tobytes().translate(None, b"\0")
