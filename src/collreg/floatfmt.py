"""Floats as '%.17g' % v, byte for byte, in numpy: the text of every CSV.

format_rows takes about 0.2-0.3 us a float, against 0.6-1.0 us for one %
operation over a block of the same rows (2-vCPU Xeon VM, Python 3.11,
numpy 2.4).  integrators imports this module when it first formats a
block, or forks a helper to format them, so a process that writes no CSV
neither compiles it nor builds its tables.

For each float v, with k = floor(log10 |v|), the significand is
y = |v| 10^(16 - k), taken exactly: Dekker's product (Numer. Math. 18, 1971)
p + e of |v| and the double nearest 10^(16 - k), plus |v| times that
double's remainder, so y is known to about 1e-14.  Where y's integer part
falls outside [1e16, 1e17), log10 was off by one and k moves by one.  y
rounds to the 17-digit integer N; a carry to 1e17 is 1e16 and k + 1.  A
value within 1e-9 of a tie, outside _RANGE or not finite is formatted by %
instead, with CPython's correctly rounded dtoa (Gay, 1990).

Each value fills a slot of _SLOT bytes: the bytes "-0.000", then N's 17
digits, each followed by a '.' (the last 16 from a table of 4-digit
groups), then "e+kkk" and the field separator.  The %g rules only choose
which of those bytes to keep: fixed notation for -4 <= k < 17, else
d.ddde+kk; trailing zeros and a bare point dropped.  That choice depends on
k's notation, N's count of significant digits and v's sign alone, so it is
one row of a table of byte masks, and one compaction of the masked-out
(zeroed) bytes makes the text.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit doubles
_RANGE = (1e-270, 1e270)  # where every step above stays exact
_POWERS = range(-260, 291)  # the 10^(16 - k) that values in _RANGE take
_EXPONENTS = range(-300, 301)  # holds every k of _RANGE
_ROWS = 256  # rows a numpy pass: ~0.4 MB of arrays, ~9 MB for a 4096-row block
_SLOT = 48  # bytes a value: "-0.000", the first digit and '.'; 32 of digits; 8 of exponent
_KEYS = 23 * 17 * 2  # masks: 23 notations, 1-17 significant digits, 2 signs


def _powers():
    """10^p for p in _POWERS as the nearest double hi, Dekker's halves of
    hi, and the remainder 10^p - hi rounded, all from Python ints."""
    hi, rem = [], []
    for p in _POWERS:
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den  # correctly rounded
        n, d = h.as_integer_ratio()
        hi.append(h)
        rem.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(rem)


def _groups():
    """The slot's words of the groups 0000-9999, each digit followed by a
    '.', and their trailing zeros, built on a grid of their 4 digits."""
    d = np.arange(10, dtype=np.uint8)
    digit = [d[:, None, None, None], d[:, None, None], d[:, None], d]
    group = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    tail = True
    for j in range(4):
        group[..., 2 * j] = digit[j] + ord("0")
        tail = tail & (digit[3 - j] == 0)
        zeros += tail
    return group.reshape(-1, 8).view(np.uint64).ravel(), zeros.ravel()


def _masks():
    """The slot's byte masks, one row a key (notation, s - 1, sign) for s
    significant digits: notation is k + 4 if fixed, else 21 and 22 for a 2-
    and a 3-digit exponent.  The last row keeps the separator alone."""
    notation, s, neg = (a.ravel() for a in np.indices((23, 17, 2)))
    s += 1
    k = notation - 4
    fixed, big = notation < 21, (notation < 21) & (k >= 0)
    keep = np.zeros((_KEYS + 1, _SLOT), bool)
    keep[:, 45] = True
    keep[:-1, 0] = neg
    keep[:-1, 1:3] = (fixed & (k < 0))[:, None]
    keep[:-1, 3:6] = fixed[:, None] & (np.arange(3) < -k[:, None] - 1)
    digits = np.where(big, np.maximum(s, k + 1), s)
    point = np.where(big, np.where(s > k + 1, k, -1), np.where(~fixed & (s > 1), 0, -1))
    for j, at in enumerate([6, *range(8, 40, 2)]):  # digit j, and a '.' after it
        keep[:-1, at] = j < digits
        keep[:-1, at + 1] = j == point
    keep[:-1, 40:45] = ~fixed[:, None]
    keep[:-1, 42] &= notation == 22
    return keep.astype(np.uint8)


def _words(text):
    return np.frombuffer(text.encode(), np.uint64)


_POW_HI, _POW_HH, _POW_HL, _POW_REM = _powers()
_LEADS = _words("".join(f"-0.000{i}." for i in range(10)))
_GROUPS, _GROUP_ZEROS = _groups()
_EXPONENT_WORDS = _words("".join("e%+04d,\0\0" % k for k in _EXPONENTS))
_MASKS = _masks()


def format_rows(values):
    """Yield the rows of values, an (n, m) float array, as CSV text, _ROWS
    rows at a time: each float as '%.17g' % v, fields joined by ',' and each
    row ended by '\\n'."""
    values = np.asarray(values, dtype=float)
    for a in range(0, len(values), _ROWS):
        yield _format_pass(values[a:a + _ROWS])


def _significand(a, ah, al, k):
    """y = a 10^(16 - k) as its integer part, an int64, and its fraction, to
    about 1e-14; ah + al is a split of a by Dekker's rule.  The rounded
    product p is an integer where y is near 1e16 or more."""
    b, bh, bl, rem = (np.take(t, 16 - k - _POWERS.start)
                      for t in (_POW_HI, _POW_HH, _POW_HL, _POW_REM))
    p = a * b
    r = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * rem
    whole = np.floor(r)
    return p.astype(np.int64) + whole.astype(np.int64), r - whole


def _format_pass(values) -> bytes:
    rows, cols = values.shape
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= _RANGE[0]) & (a <= _RANGE[1])
    zero = a == 0.0
    a = np.where(fast, a, 1.0)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _significand(a, ah, al, k)
    off = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    if off.size:
        k[off] += np.where(n[off] < 10 ** 16, -1, 1)
        n[off], frac[off] = _significand(a[off], ah[off], al[off], k[off])
    n += frac >= 0.5
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    n[zero] = k[zero] = 0
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < 1e-9)

    # N's digits: the first, then four groups of four
    hi = n // 10 ** 8
    lo = n - hi * 10 ** 8
    hq = hi // 10 ** 4
    first = hq // 10 ** 4
    g2 = lo // 10 ** 4
    groups = (hq - first * 10 ** 4, hi - hq * 10 ** 4, g2, lo - g2 * 10 ** 4)
    z = [np.take(_GROUP_ZEROS, g) for g in groups]
    trailing = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    slot = np.empty((len(x), _SLOT // 8), np.uint64)
    slot[:, 0] = np.take(_LEADS, first)
    for j, g in enumerate(groups):
        slot[:, 1 + j] = np.take(_GROUPS, g)
    slot[:, 5] = np.take(_EXPONENT_WORDS, k - _EXPONENTS.start)
    notation = np.where(k < -4, 21, np.minimum(k + 4, 21)) + (np.abs(k) >= 100)
    key = (notation * 17 + 16 - trailing) * 2 + np.signbit(x)
    key[slow] = _KEYS
    keep = np.take(_MASKS, key, axis=0)
    text = slot.view(np.uint8)
    text.reshape(rows, cols * _SLOT)[:, -3] = ord("\n")  # the last field's separator
    text *= keep
    out = text.tobytes().translate(None, b"\0")
    if slow.any():  # each goes in before its separator
        ends = np.cumsum(keep.sum(1)) - 1
        pieces, at = [], 0
        for i in np.flatnonzero(slow):
            pieces += [out[at:ends[i]], b"%.17g" % x[i]]
            at = ends[i]
        pieces.append(out[at:])
        out = b"".join(pieces)
    return out
