"""``"%.15g" % v`` for a whole array of float64 cells at once, byte for byte.

:func:`format_cells` writes the CSV table of :mod:`gmlife.cli`.  A cell v
with 1e-199 <= |v| < 1e199 is ``n * 10**(e-14)``: n is the integer nearest
``|v| * 10**(14-e)`` and ``e = floor(log10|v|)``.  The product is formed as a
double-double: ``10**(14-e)`` as a correctly rounded pair ``hi + lo``, and
``|v| * hi`` exactly by Dekker's TwoProduct on Veltkamp halves, with no FMA
(Dekker, Numer. Math. 18:224, 1971).  Its fraction is then known to better
than 1e-15.  A cell is decided in numpy unless either of these holds:

- the fraction is within ``_TIE_BAND`` of 1/2, as at an exact tie, which
  Python's dtoa rounds half to even;
- n is not 15 digits, because ``log10`` was one off or the rounding carried
  into a new decade.

Every other cell, and 0, -0, nan and inf, is ``"%.15g" % v`` itself.

The digits of n, 4 at a time, the exponent and the constant bytes make a
source row per cell.  A layout row per (sign, %g form, significant digits)
picks the cell's bytes from it, and the pad bytes are dropped.  The tables
are built on first use, a row of powers per exponent and a layout per key as
they appear, so importing this module builds none of them.  Threads may call
:func:`format_cells` at once: one at a time fills rows, under a lock, and a
row's column 0, which every caller reads to tell whether the row is filled,
is written last.
"""

from __future__ import annotations

import functools
import math
import sys
import threading

import numpy as np

__all__ = ["format_cells"]

_SIG = 15
_E_MIN, _E_MAX = -199, 198
_TIE_BAND = 1e-9  # far above the fraction's error, and met by ~2e-9 of random cells
_SPLIT = 134217729.0  # 2**27 + 1
# A cell's source row: "0" and its 15 digits, the exponent's sign and 3
# digits, then the bytes below; _PAD bytes are dropped.
_EXP_SIGN, _DOT, _MINUS, _E, _SEP, _PAD = 16, 20, 21, 22, 23, 24
_ROW_BYTES = 28  # 7 uint32 words
_FORMS = 21  # fixed at e = -4..14, then exponent with 2 or 3 digits
_TEXT_BYTES = 22  # the longest text, e.g. -1.23456789012345e-100
_FALLBACK_KEY = 2 * _FORMS * _SIG  # plus the text's length less one
_FILLING = threading.Lock()  # held while rows of the tables are filled


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    # row e - _E_MIN of the first three: 10**(14-e) ~ hi + lo and hi's Veltkamp
    # halves (NaN until _fill_powers fills it); e's 4 exponent bytes; the layout
    # key of e's %g form at 15 significant digits.  Then the layouts by key
    # (-1 until _fill_layouts fills one), and 0..9999 as one word of 4 ASCII
    # digits and as its count of trailing zeros
    exps = np.frombuffer(b"".join(b"%+04d" % e for e in range(_E_MIN, _E_MAX + 1)), np.uint32)
    e = np.arange(_E_MIN, _E_MAX + 1)
    forms = np.where((e >= -4) & (e < _SIG), e + 4, _FORMS - 2 + (np.abs(e) >= 100))
    pair = np.arange(100)
    pair_bytes = np.frombuffer(b"".join(b"%02d" % i for i in pair.tolist()), np.uint16)
    quads = np.empty((100, 100, 2), np.uint16)
    quads[..., 0] = pair_bytes[:, None]
    quads[..., 1] = pair_bytes
    zeros = (pair % 10 == 0) + (pair == 0).astype(np.intp)
    return (np.full((4, e.size), np.nan), exps, forms * _SIG + _SIG - 1,
            np.full((_FALLBACK_KEY + _TEXT_BYTES, _TEXT_BYTES + 1), -1, np.intp),
            quads.view(np.uint32).ravel(), (zeros + (pair == 0) * zeros[:, None]).ravel())


def _fill_powers(powers: np.ndarray, rows) -> None:
    for row in rows:
        if not math.isnan(powers[0, row]):  # another thread filled it meanwhile
            continue
        k = _SIG - 1 - (row + _E_MIN)
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:  # int / int is correctly rounded
            hi = 1 / 10**-k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-k) / (den * 10**-k)
        big = _SPLIT * hi
        powers[1:, row] = lo, big - (big - hi), hi - (big - (big - hi))
        powers[0, row] = hi  # last: a reader that finds hi finds the whole row


def _fill_layouts(layouts: np.ndarray, keys) -> None:
    # a key's layout: the source-row columns of its text, separator and pads
    for key in keys:
        if layouts[key, 0] >= 0:  # another thread filled it meanwhile
            continue
        if key >= _FALLBACK_KEY:  # "%.15g" % v, written from column 0
            text = list(range(key - _FALLBACK_KEY + 1))
        else:
            minus, form = divmod(key, _FORMS * _SIG)
            form, s = divmod(form, _SIG)
            digits = list(range(1, s + 2))  # the significant digits are at columns 1..s+1
            e = form - 4
            if e < 0:
                text = [0, _DOT] + [0] * (-e - 1) + digits
            elif e < _SIG:
                text = list(range(1, e + 2)) + ([_DOT, *digits[e + 1:]] if s > e else [])
            else:
                text = [1] + ([_DOT, *digits[1:]] if s else []) + [
                    _E, _EXP_SIGN, *range(_EXP_SIGN + 1 + (form == _FORMS - 2), _DOT)]
            text = [_MINUS] * minus + text
        layouts[key, 1:] = text[1:] + [_SEP] + [_PAD] * (_TEXT_BYTES - len(text))
        layouts[key, 0] = text[0]  # last, as in _fill_powers


def _nearest(v: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, ...]:
    # each cell's power row e - _E_MIN, the integer n nearest |v| * 10**(14-e), and
    # whether n gives the cell's 15 digits (n is 1e14 where it does not).  Its float
    # temporaries are freed on return, before format_cells makes the bytes.  Kept
    # to the end, they raised the peak of a 13,312-cell block (1,024 rows of 13
    # columns) from ~3.9 to ~5.2 MB, and glibc then trimmed its heap and faulted it
    # back in on every block, which doubled a block's time
    a = np.abs(v)
    ok = (a >= 1e-199) & (a < 1e199)
    a[~ok] = 1.0
    row = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.intp) - _E_MIN
    fresh = np.isnan(powers[0].take(row))
    if fresh.any():
        with _FILLING:
            _fill_powers(powers, set(row[fresh].tolist()))
    hi, lo, hh, hl = powers.take(row, axis=1)
    p = a * hi
    big = _SPLIT * a
    ah = big - (big - a)
    al = a - ah
    p_lo = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    whole = np.floor(p)
    frac = (p - whole) + p_lo
    n = whole + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) > _TIE_BAND) & (whole >= 1e14) & (n < 1e15)
    return row, np.where(ok, n, 1e14).astype(np.int64), ok


def format_cells(v: np.ndarray, seps: np.ndarray) -> bytes:
    """The bytes of ``"%.15g" % v[i]`` and then the byte ``seps[i]``, for each
    cell of a 1-D float64 array ``v``; ``seps`` is a uint8 array of its size."""
    powers, exps, forms, layouts, quads, zeros = _tables()
    row, n, ok = _nearest(v, powers)
    src = np.empty((v.size, _ROW_BYTES), np.uint8)
    words = src.view(np.uint32)  # "0" and the 15 digits in 4 words, then the exponent
    words[:, _EXP_SIGN // 4] = exps.take(row)
    words[:, _DOT // 4] = int.from_bytes(b".-e\0", sys.byteorder)
    words[:, _PAD // 4] = 0
    src[:, _SEP] = seps
    # the key's significant digits count down from 15, a trailing zero at a time
    key = forms.take(row) + np.signbit(v) * (_FORMS * _SIG)
    trailing = np.ones(v.size, bool)
    for col in (3, 2, 1):
        high = n // 10_000
        n -= high * 10_000
        words[:, col] = quads.take(n)
        key -= zeros.take(n) * trailing
        trailing &= n == 0
        n = high
    words[:, 0] = quads.take(n)
    key -= zeros.take(n) * trailing

    bad = np.flatnonzero(~ok)
    if bad.size:
        text = ["%.15g" % x for x in v[bad].tolist()]
        key[bad] = _FALLBACK_KEY - 1 + np.array([len(t) for t in text])
        src[bad, :_TEXT_BYTES] = np.frombuffer(
            "".join([t.ljust(_TEXT_BYTES, "\0") for t in text]).encode(),
            np.uint8).reshape(-1, _TEXT_BYTES)
    fresh = layouts[:, 0].take(key) < 0
    if fresh.any():
        with _FILLING:
            _fill_layouts(layouts, set(key[fresh].tolist()))
    index = layouts.take(key, axis=0)
    index += (np.arange(v.size) * _ROW_BYTES)[:, None]
    cells = src.ravel().take(index)
    return cells[cells != 0].tobytes()
