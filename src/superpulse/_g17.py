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

Each value is laid out in one fixed cell of bytes taken from tables, and the
characters '%g' prints are picked with a keep mask chosen by the notation
and the number of significant digits.
"""
from __future__ import annotations

import functools

import numpy as np

_MAX_E = 270              # beyond, the scalar path
_E_ROWS = _MAX_E + 2      # the tables cover E in [-_E_ROWS, _E_ROWS]
_MARGIN = 2.0 ** -40      # rounding decisions closer than this are not trusted
_EDGE = 64.0              # y this close to 10**16 or 10**17 is not trusted
_SPLIT = 134217729.0      # 2**27 + 1, Veltkamp's splitting constant

# A cell is 48 bytes, moved as six uint64 words: sign, "0.000", d0 and a
# dot slot; "d." for d1 .. d16; then "e+ddd", the separator and two unused
# bytes.  The dot slot after d_k is the point of fixed notation with E = k,
# the one after d0 also that of scientific notation.
_SIGN, _PREFIX, _D0, _DIGITS, _EXP, _SEP = 0, 1, 6, 8, 40, 45
_CELL = 48
_N_E = 2 * _E_ROWS + 1
_QUADS = 10 * _N_E              # word table: first words by (E, d0), then
_TAILS = _QUADS + 10_000        # "d.d.d.d." for 0..9999, then last words by E


@functools.cache
def _tables():
    """10**P as H and L for P = 16 - E, the cell words, and the keep masks."""
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

    cells = np.frombuffer(
        "".join(f"-0.0000.{'':32}e{e:+04d},  " for e in range(-_E_ROWS, _E_ROWS + 1)).encode(),
        np.uint8,
    ).reshape(_N_E, _CELL)
    words = np.empty((_TAILS + _N_E, 8), np.uint8)
    first = words[:_QUADS].reshape(_N_E, 10, 8)
    first[:] = cells[:, None, :8]
    first[:, :, _D0] += np.arange(10, dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = words[_QUADS:_TAILS]
    quads[:, 1::2] = ord(".")
    for k in range(4):
        quads[:, 2 * k] = np.tile(np.repeat(digits, 10**(3 - k)), 10**k)
    words[_TAILS:] = cells[:, _EXP:]

    # keep[18 * cls + nsig]: cls 0..20 is fixed notation with E = cls - 4,
    # 21 and 22 scientific with a two- and three-digit exponent
    keep = np.zeros((23, 18, _CELL), bool)
    digit_pos = [_D0] + [_DIGITS + 2 * k for k in range(16)]
    for cls in range(23):
        for nsig in range(1, 18):
            row = keep[cls, nsig]
            row[_SEP] = True
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
    cls_rows = np.array([
        18 * (e + 4 if -4 <= e <= 16 else 21 if abs(e) < 100 else 22)
        for e in range(-_E_ROWS, _E_ROWS + 1)
    ])

    # trailing zero digits of 0..9999, 4 for 0
    tz = np.zeros(10_000, np.int8)
    for k in range(1, 5):
        tz[::10**k] += 1
    return (np.array(hi), np.array(lo), words.view(np.uint64).ravel(),
            keep.reshape(-1, _CELL).view(np.uint64), cls_rows, tz)


def _scaled(a: np.ndarray, e: np.ndarray, pow_hi, pow_lo):
    """y = a * 10**(16-e) as p + lo, p the rounded product (Dekker), and L."""
    h, low = pow_hi[e + _E_ROWS], pow_lo[e + _E_ROWS]
    p = a * h
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * h
    hh = t - (t - h)
    hl = h - hh
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    return p, err + a * low, low


def _digits(x: np.ndarray, pow_hi, pow_lo):
    """E, the 17-digit D of each x, and where the two are exact."""
    a = np.abs(x)
    vec = (a >= 10.0**-_MAX_E) & (a < 10.0 ** (_MAX_E + 1))   # False for 0, inf, nan
    a = np.where(vec, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)

    p, lo, low = _scaled(a, e, pow_hi, pow_lo)
    # log10 may be one off near a power of ten: move E and scale again
    off = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if off.size:
        e[off] += np.where(p[off] < 1e16, -1, 1)
        p[off], lo[off], low[off] = _scaled(a[off], e[off], pow_hi, pow_lo)
    # p is an even integer, so rint's ties-to-even on lo rounds y to even
    r = np.rint(lo)
    vec &= (p >= 1e16 + _EDGE) & (p < 1e17 - _EDGE)
    vec &= (low == 0.0) | (np.abs(lo - r) <= 0.5 - _MARGIN)
    d = p.astype(np.int64) + r.astype(np.int64)
    # the scalar path overwrites these cells; keep their table lookups in range
    e[~vec] = 0
    d[~vec] = 10**16
    return e, d, vec


def format_rows(block: np.ndarray) -> bytes:
    """Rows of a 2-D float block as CSV bytes: ``'%.17g'`` values, ',' and '\\n'."""
    block = np.asarray(block, dtype=np.float64)
    rows, cols = block.shape
    pow_hi, pow_lo, word_table, keep_table, cls_rows, tz4 = _tables()
    x = block.ravel()
    e, d, vec = _digits(x, pow_hi, pow_lo)

    # word indices of each cell: first word by (E, d0), four digit groups, last word
    idx = np.empty((len(x), 6), np.int64)
    ei = e + _E_ROWS
    d0 = d // 10**16
    idx[:, 0] = 10 * ei + d0
    rest = d - d0 * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    q0 = hi8 // 10**4
    q2 = lo8 // 10**4
    groups = (q0, hi8 - q0 * 10**4, q2, lo8 - q2 * 10**4)
    # trailing zeros of d1..d16 set the number of significant digits
    tz = np.take(tz4, groups[3])
    for k in (2, 1, 0):
        tz += (tz == 4 * (3 - k)) * np.take(tz4, groups[k])
    for k in range(4):
        idx[:, 1 + k] = groups[k] + _QUADS
    idx[:, 5] = ei + _TAILS

    buf = np.take(word_table, idx).view(np.uint8)
    buf.reshape(rows, cols, _CELL)[:, -1, _SEP] = ord("\n")
    keep = np.take(keep_table, np.take(cls_rows, ei) + 17 - tz, axis=0).view(bool)
    keep[:, _SIGN] = x < 0

    for i in np.flatnonzero(~vec):
        s = np.frombuffer(b"%.17g" % float(x[i]), np.uint8)
        buf[i, :len(s)] = s
        keep[i, :_SEP] = False
        keep[i, :len(s)] = True
    return np.compress(keep.ravel(), buf.ravel()).tobytes()
