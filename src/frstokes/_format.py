"""The text of float64 values, a whole block per numpy call, in two layouts:
"%.17g" (g17, for the CSV exports) and float.__repr__, the shortest text
that reads back as the same float (shortest, for the JSON exports).

Both start from one decimal scaling.  A finite normal x is d.dddd * 10^X:
|x| 10^(16 - X), in [1e16, 1e17), is formed exactly enough as a
double-double, Dekker's exact product of |x| and the (hi, lo) pair of
10^(16 - X); for X in [-6, 16] the power is a double and the product is
exact, ties included.

g17 rounds it to 17 digits, ties to even.  shortest keeps the fewest
digits p whose nearest p-digit decimal lies strictly within half an ulp
of |x| (Steele and White's shortest round trip; Ryu's bounds), the half
ulp being 2^(e - 54) on the scale of the 17 digits, e the binary exponent
of x.  It searches downward from 17 digits on the shrinking subset of
values that still round-trip.  The nearest decimal in the symmetric gap
is the one repr writes; an exact power of two, whose lower gap is half as
wide, goes through repr, as does a value whose gap ends within 2^-30 of
an integer or whose chosen decimal is within 2^-30 of a tie (repr breaks
ties to even: 612857683458612.75 is 612857683458612.8).  Zeros,
subnormal, non-finite and out-of-table values go value by value through
"%.17g" or repr (null for a non-finite value, which JSON cannot spell), as
does, for g17, a product within 2^-30 of a tie where the scaling is
inexact.

The digits are laid out in fixed NUL-padded slots, one column per value:
    sign | "0." and up to 3 zeros | 17 digits, the point among them | e+XXX
trailing zeros and a bare point left out: by C's %g rules, fixed notation
for -4 <= X < 17; by repr's, fixed for -4 <= X < 16, with ".0" in the
exponent's slots after an integer.  Dropping the NULs leaves the text:
lines lays such columns side by side as text lines and drops them once per
block.
"""

from __future__ import annotations

import functools
import json

import numpy as np

SLOTS = 29
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into 26-bit halves
_X_LO, _X_HI = -284, 300  # the exponents whose 10^(16 - X) a split takes
_SCALED = (1e-280, 1e290)  # |x| taken through the tables, with a margin
_NEAR = 2.0 ** -30  # closer than this to a tie or a gap's end: per value
_FIXED_BELOW = {"g": 17, "r": 16}  # fixed notation for -4 <= X < this
_SLOT = np.arange(18, dtype=np.int8)[:, None]


@functools.cache
def _tables(code: str):
    """Per decimal exponent X in [_X_LO, _X_HI]: 10^(16 - X) as hi, lo
    and Veltkamp's halves of hi; the point's slot among the digits; the
    fewest digits kept (the integer digits of fixed notation); the bytes
    of the prefix and exponent slots, as a (10, n_X) array; and whether an
    integer gets ".0".  code is "g" for %g's layout, "r" for repr's.

    The powers come from Python ints, whose true division is correctly
    rounded.
    """
    hi, lo, point, least, affix, whole = [], [], [], [], [], []
    for X in range(_X_LO, _X_HI + 1):
        e = 16 - X
        num, den = (10 ** e, 1) if e >= 0 else (1, 10 ** -e)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
        fixed = -4 <= X < _FIXED_BELOW[code]
        point.append((X + 1 if X >= 0 else 17) if fixed else 1)
        least.append(X + 1 if fixed and X >= 0 else 0)
        prefix = b"0." + b"0" * (-1 - X) if fixed and X < 0 else b""
        suffix = b"" if fixed else b"e%+03d" % X
        affix.append(prefix.ljust(5, b"\0") + suffix.ljust(5, b"\0"))
        whole.append(code == "r" and fixed and X >= 0)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    tables = (hi, np.array(lo), hi_hi, hi - hi_hi, np.array(point, np.int8),
              np.array(least, np.int8),
              np.frombuffer(b"".join(affix), np.uint8).reshape(-1, 10).T.copy(),
              np.array(whole))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, t: np.ndarray, tables):
    """Integer part and fraction of a 10^(16 - X), X the exponent of row t
    of the tables: Dekker's exact product a hi plus a lo."""
    hi, lo, b_hi, b_lo = (column[t] for column in tables[:4])
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo + a * lo
    whole = np.floor(err)
    return p.astype(np.int64) + whole.astype(np.int64), err - whole


def _decimal(x, tables):
    """x as a flat float64 array; its magnitudes a; ok, where a is normal
    and in the tables (a is 1.0 elsewhere); and the row t of X, the
    integer part n, in [1e16, 1e17), and the fraction of a 10^(16 - X)."""
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    ok = (a >= _SCALED[0]) & (a < _SCALED[1])
    a[~ok] = 1.0
    t = np.floor(np.log10(a)).astype(np.intp) - _X_LO
    n, frac = _scaled(a, t, tables)
    off = (n >= 10 ** 17).astype(np.intp) - (n < 10 ** 16)
    redo = np.flatnonzero(off)
    if redo.size:  # log10 was one off, next to a power of ten
        t[redo] += off[redo]
        n[redo], frac[redo] = _scaled(a[redo], t[redo], tables)
        ok[redo] &= (n[redo] >= 10 ** 16) & (n[redo] < 10 ** 17)
    return x, a, ok, t, n, frac


def g17(x) -> np.ndarray:
    """'%.17g' % v of every float64 v in x, as a (SLOTS, x.size) uint8
    array: column i, without its NULs, is the text of x.flat[i]."""
    tables = _tables("g")
    x, _, ok, t, n, frac = _decimal(x, tables)
    inexact = (t < -6 - _X_LO) | (t > 16 - _X_LO)
    flagged = np.flatnonzero(~ok | (inexact & (np.abs(frac - 0.5) < _NEAR)))
    n += (frac > 0.5) | ((frac == 0.5) & (n & 1 == 1))
    return _layout(x, n, t, tables, flagged, printf)


def shortest(x) -> np.ndarray:
    """repr(v) of every float64 v in x, null for the non-finite ones, in
    g17's slots: column i, without its NULs, is the JSON text of
    x.flat[i]."""
    tables = _tables("r")
    x, a, ok, t, n, frac = _decimal(x, tables)
    flagged = _fewest(a, ok, t, n, frac, tables)
    return _layout(x, n, t, tables, flagged, jsonrepr)


def _fewest(a, ok, t, n, frac, tables) -> np.ndarray:
    """Round n + frac, in place, to its nearest multiple of 10^k, k the
    largest for which a multiple lies strictly within half an ulp of a;
    return the indices of the values that must go value by value."""
    fraction, e = np.frexp(a)
    ok &= fraction != 0.5  # a power of two: its lower gap is half as wide
    up = np.ldexp(tables[0][t], e - 54)  # half an ulp of a on n's scale
    # the integers strictly within it of n + frac: n + [ceil(down), floor(up)]
    down = frac - up
    up += frac
    flag = ~ok | (np.abs(down - np.rint(down)) < _NEAR) | (
        np.abs(up - np.rint(up)) < _NEAR)
    top = n + np.floor(up).astype(np.int64)
    width = top - n - np.ceil(down).astype(np.int64)
    # 17 digits: n + frac to the nearest integer; 16: to the nearest ten
    units = n % 10
    tens = units + frac
    sixteen = top % 10 <= width  # a multiple of ten in the gap
    tie = np.where(sixteen, np.abs(tens - 5.0), np.abs(frac - 0.5)) < _NEAR
    n += np.where(sixteen, 10 * (tens > 5.0) - units, frac > 0.5)
    # fewer: the one multiple of 10^k in the gap, while there is one
    kept = np.flatnonzero(sixteen & ok)
    top, width = top[kept], width[kept]
    for k in range(2, 18):
        rest = top % 10 ** k
        go = rest <= width
        kept, top, width, rest = kept[go], top[go], width[go], rest[go]
        if not kept.size:
            break
        n[kept] = top - rest
        if k == 2:  # a tie at 16 digits is no tie at fewer
            tie[kept] = False
    return np.flatnonzero(flag | tie)


def _layout(x, n, t, tables, flagged, each) -> np.ndarray:
    """The (SLOTS, x.size) text of the values sign(x) n 10^(X - 16), n in
    [1e16, 1e17] and X the exponent of row t, by the tables' rules; the
    columns flagged are each(x[flagged])."""
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    t += carry
    digits = np.empty((17, x.size), np.uint8)
    for part, places in ((n % 10 ** 8, range(16, 8, -1)),
                         (n // 10 ** 8, range(8, -1, -1))):
        part = part.astype(np.uint32)  # fast divisions; 10^9 fits
        for j in places:
            tens = part // 10
            digits[j] = part - tens * 10
            part = tens
    # significant digits: the last nonzero one's place
    count = ((digits != 0).view(np.uint8) * _SLOT[1:].view(np.uint8)).max(axis=0)
    point = tables[4][t]
    keep = np.maximum(count.view(np.int8), tables[5][t])
    digits += np.uint8(48)
    digits *= (_SLOT[:17] < keep).view(np.uint8)
    out = np.zeros((SLOTS, x.size), np.uint8)
    out[0] = np.signbit(x).view(np.uint8) * np.uint8(45)
    affix = np.take(tables[6], t, axis=1)
    out[1:6], out[24:] = affix[:5], affix[5:]
    # digits before the point stay, the rest move one slot on
    np.multiply(digits, (_SLOT[:17] < point).view(np.uint8), out=out[6:23])
    digits -= out[6:23]
    out[7:24] |= digits
    dotted = np.flatnonzero(count > point)
    out[6 + point[dotted], dotted] = 46
    if tables[7].any():  # repr's layout: ".0" after an integer
        whole = np.flatnonzero(tables[7][t] & (count <= point))
        out[24:26, whole] = np.array([[46], [48]], np.uint8)
    if flagged.size:
        out[:, flagged] = each(x[flagged])
    return out


def printf(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v, value by value, in g17's layout: the values it flags."""
    text = np.array([b"%.17g" % v for v in values.tolist()], f"S{SLOTS}")
    return text.view(np.uint8).reshape(-1, SLOTS).T


def jsonrepr(values: np.ndarray) -> np.ndarray:
    """JSON's text of each value, repr or null for a non-finite one, in
    shortest's layout: the values it flags, in one call to json's encoder."""
    text = json.dumps(values.tolist())[1:-1].split(", ")
    text = np.where(np.isfinite(values), text, "null").astype(f"S{SLOTS}")
    return text.view(np.uint8).reshape(-1, SLOTS).T


def lines(*fields) -> str:
    """One line per column of the fields laid side by side, NULs dropped.

    A field is a (width, n) uint8 array or a str that every line holds.
    The lines are laid out in a bytearray, which the strip reads in place.
    """
    n = max(f.shape[1] for f in fields if not isinstance(f, str))
    fields = [np.frombuffer(f.encode("ascii"), np.uint8)[:, None]
              if isinstance(f, str) else f for f in fields]
    width = sum(len(f) for f in fields)
    text = bytearray(n * width)
    rows = np.frombuffer(text, np.uint8).reshape(n, width)
    i = 0
    for f in fields:
        rows[:, i:i + len(f)] = f.T
        i += len(f)
    del rows  # its view pins the padded text, which the strip replaces
    text = text.translate(None, b"\0")
    return text.decode("ascii")
