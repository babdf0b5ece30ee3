"""CSV rows of ``%.17g`` cells, formatted a block of columns at a time.

:func:`csv_rows` returns the text that ``"%.17g" %`` gives cell by cell,
byte for byte, without a Python call per cell.  A finite cell x = f 2^e is
written from its 17 significant digits D = round_half_even(x 10^(16-k)),
with k its decimal exponent.  The product is formed in double-double
arithmetic: Dekker's two-product of f and a table of 10^n / 2^b, which is
built from integers at import.  It leaves x 10^(16-k) within about 1e-14
of exact, far inside the window around a rounding tie that is left to
``%``.  Each cell's characters are laid out in ``%g``'s fixed columns of a
48-byte slot with blanks in between, and one ``bytes.translate`` deletes
the blanks.
"""

from __future__ import annotations

import numpy as np

NUMBER = "%.17g"   # 17 significant digits round-trip every double

# Blocks of fewer cells are formatted by "%" alone: below it the array
# set-up costs more than it saves.  On a 2-vCPU Xeon VM both paths take
# about 0.12 ms for 280 cells of four or six columns.
MIN_CELLS = 280

# A scaled value this close to a half-integer is left to "%".
_TIE_WINDOW = 1e-6
_SPLIT = 134217729.0   # 2^27 + 1, Dekker's splitting constant

# n = 16 - k covers the decimal exponent k of every double, subnormals included
_N_LO, _N_HI = -300, 345
_K_LO, _K_HI = -324, 308


def _pow10_table():
    """(head's high 26 bits, its low 27 bits, tail, b) with 10^n = (head + tail) 2^b, head in [1, 2).

    Each row is cut from M = floor(10^n 2^(116-b)), a 117-bit integer:
    head is its top 53 bits and tail the rest rounded to a double, so head
    + tail is within 2^-105 of 10^n / 2^b.
    """
    rows = []
    up, down = 1, 10 ** -_N_LO
    for n in range(_N_LO, _N_HI + 1):
        if n >= 0:
            b = up.bit_length() - 1
            m = (up << 116) >> b
            up *= 10
        else:
            b = -down.bit_length()
            m = (1 << (116 - b)) // down
            down //= 10
        rows.append((m >> 64, m & (2**64 - 1), b))
    whole, rest, b = zip(*rows)
    head = np.ldexp(np.array(whole, dtype=float), -52)
    c = _SPLIT * head
    high = c - (c - head)
    return high, head - high, np.ldexp(np.array(rest, dtype=float), -116), np.array(b, dtype=np.int32)


_HEAD_HIGH, _HEAD_LOW, _TAIL, _POW2 = _pow10_table()

# A cell's 48-byte slot, blank (0) where it prints nothing:
#   0 sign, 1-5 the "0.000" of 1e-4 <= |x| < 1, then digit j at 6 + 2j with the
#   point after it at 7 + 2j (j = 0..16), 39 "e", 40-43 the exponent, 44 the separator.
# Bytes 8-39 are four words, each the four digits of one group of D with
# its four point places; the words cover digits 1-16, so digit 0 is set apart.
_SLOT = 48
_SEP = 44
_WORDS = np.dtype("<u8")


def _group_tables():
    """Per four-digit group g: the word of its digits at the even bytes with 0xff at the odd ones, and,
    per group i = 0..3 of D, the index in D (1..16) of g's last nonzero digit, 0 for g = 0."""
    g = np.arange(10000, dtype=np.int32)
    chars = np.full((10000, 8), 0xFF, dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        chars[:, 2 * j] = g // place % 10 + ord("0")
    # the place (1..4) of g's last nonzero digit is 4 less its trailing zeros
    last = ((g > 0) * (4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0))).astype(np.int8)
    return chars.view(_WORDS).ravel(), (last + np.arange(0, 16, 4, dtype=np.int8)[:, None]) * (last > 0)


def _layouts():
    """The slot of each layout (class c, last nonzero digit L): lead, digit masks, point and "e".

    Class k + 4 is %g's fixed notation at exponent k in [-4, 16]; class 21
    is d.ddde+XX.  Digits after L are stripped, except those before a
    fixed point; the point stays only if a digit follows it.
    """
    slots = np.zeros((22, 17, _SLOT), dtype=np.uint8)
    last = np.arange(17)
    for c in range(22):
        k = c - 4 if c < 21 else None
        point = 0 if k is None else (k if k >= 0 else None)
        if k is not None and k < 0:
            slots[c, :, 1:2 - k] = np.frombuffer(b"0." + b"0" * (-k - 1), dtype=np.uint8)
        keep = np.maximum(last, point or 0)
        slots[c, :, 8:40:2] = 0xFF * (np.arange(1, 17) <= keep[:, None])   # digits 1..keep; digit 0 is written apart
        if point is not None:
            slots[c, last > point, 7 + 2 * point] = ord(".")
        if k is None:
            slots[c, :, 39] = ord("e")
    return slots.reshape(22 * 17, _SLOT).view(_WORDS)


def _exponents():
    """Byte 0 of the slot's last word is the sign of k and bytes 1-3 its two or three digits, in d.ddde+XX only."""
    k = np.arange(_K_LO, _K_HI + 1)
    a = np.abs(k)
    three = a >= 100
    chars = np.zeros((k.size, 8), dtype=np.uint8)
    chars[:, 0] = np.where(k < 0, ord("-"), ord("+"))
    chars[:, 1] = ord("0") + np.where(three, a // 100, a // 10)
    chars[:, 2] = ord("0") + np.where(three, a // 10 % 10, a % 10)
    chars[:, 3] = np.where(three, ord("0") + a % 10, 0)
    chars[_fixed(k)] = 0
    return chars.view(_WORDS).ravel()


def _fixed(k):
    """Whether %.17g writes exponent k in fixed notation."""
    return (k >= -4) & (k < 17)


_DIGIT_WORDS, _LAST = _group_tables()
_LAYOUTS = np.ascontiguousarray(_layouts().T)   # one row per word
_K = np.arange(_K_LO, _K_HI + 1)
_CLASS = (np.where(_fixed(_K), _K + 4, 21) * 17).astype(np.int16)
_EXPONENTS = _exponents()


def _scaled(f, e, k):
    """f 2^e 10^(16-k) as a double-double (high, low), for f in [0.5, 1); |low| < 48 where high < 1e17."""
    row = (16 - _N_LO) - k
    hh, hl = _HEAD_HIGH.take(row), _HEAD_LOW.take(row)
    fh = _SPLIT * f
    fh -= fh - f
    fl = f - fh
    high = f * (hh + hl)
    # Dekker's exact error of f (hh + hl), summed in this order
    low = fh * hh
    low -= high
    low += fh * hl
    low += fl * hh
    low += fl * hl
    low += f * _TAIL.take(row)
    e = e + _POW2.take(row)
    return np.ldexp(high, e, out=high), np.ldexp(low, e, out=low)


def _digits(x):
    """(D, k, use) of the cells x: the 17 digits D and exponent k of x = D 10^(k-16) rounded to 17 digits.

    ``use`` is False where "%" must format the cell: not finite, within
    _TIE_WINDOW of a rounding tie, or outside [1e16, 1e17) after a step of
    k.  Zeros and non-finite cells read D = 10^16, k = 0.
    """
    finite = np.isfinite(x)
    mag = np.where(finite & (x != 0), np.abs(x), 1.0)
    f, e = np.frexp(mag)
    k = np.floor(np.log10(mag)).astype(np.int16)
    high, low = _scaled(f, e, k)
    # log10 may round across a power of ten, so a cell near either end of [1e16, 1e17) takes a
    # step of k.  The floor of the scaled value, not its rounding, fixes k: the double nearest
    # 1e-304 scales to 1e16 - 0.29 at k = -304, and %.17g prints it as 9.9999999999999997e-305.
    # high + low is not normalized, so each test subtracts the bound from high first.
    edge = np.flatnonzero((high < 1e16 + 64) | (high > 1e17 - 256))
    if edge.size:
        h, lo = high[edge], low[edge]
        k[edge] += ((h - 1e17) + lo >= 0).astype(np.int16) - ((h - 1e16) + lo < 0)
        high[edge], low[edge] = h, lo = _scaled(f[edge], e[edge], k[edge])
        finite[edge] &= ((h - 1e16) + lo >= 0) & ((h - 1e17) + lo < 0)
    whole = np.floor(low)
    low -= whole
    digits = high.astype(np.int64)
    digits += whole.astype(np.int64)
    digits += low > 0.5
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    k += carry
    low -= 0.5
    return digits, k, finite & (np.abs(low) >= _TIE_WINDOW)


def _groups(digits):
    """The first digit of D and its four groups of four digits, split on int32 halves of D."""
    top = (digits // 10 ** 8).astype(np.int32)   # the first nine digits
    bottom = (digits - top * np.int64(10 ** 8)).astype(np.int32)
    lead, top = np.divmod(top, 10 ** 8)
    return lead.astype(np.uint8), (top // 10 ** 4, top % 10 ** 4, bottom // 10 ** 4, bottom % 10 ** 4)


def _slots(x):
    """The 48-byte slot of each cell of x, with its separator byte left blank."""
    digits, k, use = _digits(x)
    lead, groups = _groups(digits)
    last = _LAST[0].take(groups[0])
    for i in range(1, 4):
        np.maximum(last, _LAST[i].take(groups[i]), out=last)
    layout = _CLASS.take(k - _K_LO) + last

    slots = np.zeros((x.size, _SLOT), dtype=np.uint8)
    words = slots.view(_WORDS)
    words[:, 0] = _LAYOUTS[0].take(layout)
    for i, group in enumerate(groups, 1):
        words[:, i] = _DIGIT_WORDS.take(group) & _LAYOUTS[i].take(layout)
    words[:, 5] = _EXPONENTS.take(k - _K_LO)
    slots[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    slots[:, 6] = (x != 0) * lead + np.uint8(ord("0"))
    for i in np.flatnonzero(~use):
        cell = (NUMBER % float(x[i])).encode()
        slots[i, :_SEP] = 0
        slots[i, :len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return slots


def _percent(columns) -> str:
    rows = zip(*(column.tolist() for column in columns))
    row_format = ",".join([NUMBER] * len(columns))
    return "\n".join(row_format % row for row in rows) + "\n"


def csv_rows(columns) -> str:
    """The rows of equal-length float columns as CSV lines of ``%.17g`` cells, each line ending in a newline.

    Equal, byte for byte, to ``"\\n".join(",".join(["%.17g"] * m) % row
    for row in rows) + "\\n"`` over the m columns.
    """
    m = len(columns)
    if m * len(columns[0]) < MIN_CELLS:
        return _percent(columns)
    slots = _slots(np.stack(columns, axis=-1, dtype=np.float64).ravel())
    slots.reshape(-1, m, _SLOT)[:, :, _SEP] = np.frombuffer(b"," * (m - 1) + b"\n", dtype=np.uint8)
    return slots.tobytes().translate(None, b"\0").decode("ascii")
