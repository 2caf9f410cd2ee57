"""The one CSV writer behind every artifact.

Floats are written as '%.17g' % x, 17 significant digits, so they round-trip
exactly; rows end in \\r\\n, as csv.writer ends them; only text cells get csv
quoting.

A table without text columns is formatted by numpy, a block of rows at a
time, and every float cell gets exactly the bytes of '%.17g' % x.  Cells with
1e-4 <= |x| < 1e16 are certified: '%.17g' writes them in fixed notation, and
their 17 digits come from exact integer arithmetic (the rounded x 10^k as a
128-bit product M 5^k of the float's mantissa, shifted right).  Every other
cell goes through Python's own '%.17g' % x: 0, -0, nan, +-inf, the cells
outside that range, and the exact ties at the 17th digit, whose rounding
(half to even) the integer path does not decide.  That per-cell form is the
reference the vectorized one is tested against.
"""

from __future__ import annotations

import csv
import functools
import re

import numpy as np

_CELL_FORMATS = {"d": "%d", "g": "%.17g", "s": None}

# A block holds this many cells.  Each of the formatter's two dozen uint64
# temporaries is then 128 KB, small enough for malloc to reuse its heap: at
# twice that, writing one 64 x 4002 table took about 8000 page faults.
_BLOCK_CELLS = 1 << 14

# A formatted float cell is _WIDTH bytes, three little-endian uint64 words:
# the sign, the "0.000" prefix of 1e-4 <= |x| < 1, the first digit and an
# empty slot; then the other 16 digits.  Zero bytes stand for nothing and are
# deleted when the block is joined.
_WIDTH = 24
_WORDS = np.dtype("<u8")
_U = np.uint64
_POW5 = np.array([5 ** k for k in range(21)], dtype=_U)
_POW5_HI, _POW5_LO = _POW5 >> _U(32), _POW5 & _U(0xFFFFFFFF)
_POW10 = np.array([float("1e%d" % j) for j in range(-4, 17)])  # _POW10[j + 4] is 10^j
_MANTISSA, _IMPLICIT_BIT = _U(2 ** 52 - 1), _U(2 ** 52)


def _words(texts, width):
    """Byte strings, zero-padded to width bytes, as rows of uint64 words."""
    return np.array(texts, dtype="S%d" % width).view(_WORDS).reshape(len(texts), width // 8)


def _cell(first, text):
    """A cell's three words holding text from byte first on, zero elsewhere."""
    return _words([b"\0" * first + text], _WIDTH)[0]


@functools.cache
def _digit_tables():
    """(groups, head), built on first use, so that importing the module stays cheap.

    groups: four digits in the low half of a word; row g spells g, row
    10000 + g spells g without its trailing zeros (those with no other digit
    after them).  head: the first word by index 20 (X + 4) + 10 sign + d0,
    X the decimal exponent: the sign, the "0." and leading zeros of X < 0,
    and the first digit d0.
    """
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    kept = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] > 0
    text = np.zeros((20000, 8), dtype=np.uint8)
    text[:10000, :4], text[10000:, :4] = digits + 48, (digits + 48) * kept
    head = _words([(b"-" if sign else b"\0") + (b"0." + b"0" * (-1 - X) if X < 0 else b"")
                   .ljust(5, b"\0") + b"%d" % d0
                   for X in range(-4, 16) for sign in (0, 1) for d0 in range(10)], 8)
    return text.view(_WORDS)[:, 0], head[:, 0]


@functools.cache
def _point_tables():
    """Cells by X >= 0, digit j >= 1 being byte 7 + j: integer_zeros, the
    integer digits 1..X as "0", which stripping may have removed; moved,
    the bytes of digits 1..X; through_point, those and the byte after; and
    point, a "." there.  The point after digit X is made by moving digits
    1..X one byte down into the empty slot after digit 0."""
    integer_zeros = np.array([_cell(8, b"0" * X) for X in range(16)])
    moved = np.array([_cell(7, b"\xff" * X) for X in range(16)])
    through_point = np.array([_cell(7, b"\xff" * (X + 1)) for X in range(16)])
    point = np.array([_cell(7 + X, b".") for X in range(16)])
    return integer_zeros, moved, through_point, point


def _scaled(M, exponent, X):
    """round(|x| 10^(16 - X)) for |x| = M 2^(exponent - 1078), and whether
    that rounding was a tie.

    M < 2^56 times 5^k, k = 16 - X <= 20, is below 2^103, so the product is
    formed exactly as two uint64 limbs from 32-bit halves and shifted right
    by s = -(exponent - 1078 + k), which lies in [1, 49] for the certified
    range.  The bits shifted out decide the rounding.
    """
    k = 16 - X
    fh, fl = _POW5_HI[k], _POW5_LO[k]
    mh, ml = M >> _U(32), M & _U(0xFFFFFFFF)
    low = ml * fl
    mid = mh * fl + ml * fh
    lo = low + (mid << _U(32))
    hi = mh * fh + (mid >> _U(32)) + (lo < low)
    s = (1062 - exponent + X).view(_U)
    q = (hi << (_U(64) - s)) | (lo >> s)
    rest, half = lo & ((_U(1) << s) - _U(1)), _U(1) << (s - _U(1))
    return q + (rest > half), rest == half


def _float_cells(x):
    """The '%.17g' bytes of each float in 1-D x: shape (x.size, _WIDTH), zero-padded."""
    a = np.abs(x)
    certified = (a >= 1e-4) & (a < 1e16)
    bits = np.where(certified, a, 1.0).view(_U)
    exponent = (bits >> _U(52)).view(np.int64)  # biased: |x| = 1.f 2^(exponent - 1023)
    M = ((bits & _MANTISSA) | _IMPLICIT_BIT) << _U(3)
    # X = floor(log10 |x|): floor((exponent - 1023) log10 2) or one more, as
    # |x| reaches the next power of ten.  The comparison is exact here, since
    # 10^j is a float for j >= 0 and rounds up for -4 <= j < 0.
    # Then q = round(|x| 10^(16 - X)) has 17 digits: rounding cannot carry it
    # to 10^17, since the float below 10^(X+1) lies 11 or more units of q below.
    X = ((exponent - 1023) * 78913) >> 18
    X += bits.view(float) >= _POW10[X + 5]
    q, tie = _scaled(M, exponent, X)
    fallback = ~certified | tie

    # 17 digits as 1 + four groups of 4; trailing zero groups and the zeros
    # that end the last nonzero group are stripped by the table.
    top = q // _U(10 ** 8)
    g34 = (q - top * _U(10 ** 8)).view(np.int64)
    top = top.view(np.int64)
    d0 = top // 10 ** 8
    g12 = top - d0 * 10 ** 8
    g1, g3 = g12 // 10 ** 4, g34 // 10 ** 4
    g2, g4 = g12 - g1 * 10 ** 4, g34 - g3 * 10 ** 4
    zero4 = g4 == 0
    zero34 = zero4 & (g3 == 0)
    zero234 = zero34 & (g2 == 0)
    groups, head = _digit_tables()
    cells = np.empty((x.size, _WIDTH // 8), dtype=_WORDS)
    cells[:, 0] = head[20 * X + 10 * np.signbit(x) + d0 + 80]
    cells[:, 1] = groups[g1 + 10000 * zero234] | groups[g2 + 10000 * zero34] << _U(32)
    cells[:, 2] = groups[g3 + 10000 * zero4] | groups[g4 + 10000] << _U(32)
    whole = np.flatnonzero(X >= 0)
    if whole.size:
        _point(cells, whole, X[whole])
    rest = np.flatnonzero(fallback)
    if rest.size:
        cells[rest] = _words([b"%.17g" % v for v in x[rest].tolist()], _WIDTH)
    return cells.view(np.uint8)


def _point(cells, rows, X):
    """Lay out the cells of |x| >= 1: keep the integer digits 1..X that
    stripping removed, and put the point after digit X unless no digit follows."""
    integer_zeros, moved, through_point, point = _point_tables()
    cells[rows] |= integer_zeros[X]
    words = cells[rows]
    after = np.flatnonzero(words.view(np.uint8)[np.arange(rows.size), 8 + X])
    words, X = words[after], X[after]
    down = np.empty_like(words)
    down[:, :2] = words[:, :2] >> _U(8) | words[:, 1:] << _U(56)
    down[:, 2] = words[:, 2] >> _U(8)
    cells[rows[after]] = words & ~through_point[X] | down & moved[X] | point[X]


def _format_rows(block, kinds):
    """The CSV text of a 2-D block of numbers: floats where kinds has "g",
    integers ("%d") where it has "d"."""
    r, c = block.shape
    runs = [(run.group()[0], slice(*run.span())) for run in re.finditer("d+|g+", kinds)]
    integers = {cols.start: [b"%d" % v for v in block[:, cols].reshape(-1).tolist()]
                for kind, cols in runs if kind == "d"}
    width = max([_WIDTH] + [len(t) for texts in integers.values() for t in texts])
    out = np.zeros((r, c, width + 2), dtype=np.uint8)
    for kind, cols in runs:
        if kind == "d":
            cells = np.array(integers[cols.start], dtype="S%d" % width).view(np.uint8) \
                .reshape(-1, width)
        else:
            cells = _float_cells(np.asarray(block[:, cols], dtype=float).reshape(-1))
        out[:, cols, :cells.shape[-1]] = cells.reshape(r, cols.stop - cols.start, -1)
    out[:, :-1, width] = ord(",")
    out[:, -1, width:] = (13, 10)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def write_csv(path, header, rows, kinds: str, preamble: str = ""):
    """Write preamble (verbatim), the header row, then rows to path.

    kinds has one code per column: "d" an integer, "g" a float, "s" text.
    rows is an iterable of rows, or a tuple of arrays holding the columns
    side by side (a 1-D array is one column, a 2-D array one per column of
    it).  A table without text columns is stacked and formatted by numpy a
    block of rows at a time, never as a whole (see the module docstring);
    text cells need csv quoting, so a table with a text column uses
    csv.writer.
    """
    with open(path, "w", newline="") as fh:
        fh.write(preamble)
        writer = csv.writer(fh)
        writer.writerow(header)
        if "s" in kinds:
            formats = [_CELL_FORMATS[k] for k in kinds]
            writer.writerows([v if f is None else f % v
                              for f, v in zip(formats, row, strict=True)]
                             for row in (np.column_stack(rows) if isinstance(rows, tuple) else rows))
            return
        columns = rows if isinstance(rows, tuple) else \
            (np.array(list(rows), dtype=object).reshape(-1, len(kinds)),)
        step = max(1, _BLOCK_CELLS // len(kinds))
        for start in range(0, len(columns[0]), step):
            block = np.column_stack([c[start:start + step] for c in columns])
            fh.write(_format_rows(block, kinds))
