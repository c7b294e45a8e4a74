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
picks the cell's bytes from it, and the pad bytes are dropped.  Importing
this module builds every table whole, a row of powers per exponent and a
layout per key, and makes each read-only: threads may call
:func:`format_cells` at once, since nothing writes a table after import.
:mod:`gmlife.cli` imports this module for CSV output only, so JSON runs and
library calls build none of them.
"""

from __future__ import annotations

import sys

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


def _powers() -> np.ndarray:
    # e's power row, column e - _E_MIN: 10**(14-e) ~ hi + lo and hi's Veltkamp halves
    pairs = []
    for e in range(_E_MIN, _E_MAX + 1):
        k = _SIG - 1 - e
        power = 10**abs(k)
        if k >= 0:
            hi = float(power)
            pairs.append((hi, float(power - int(hi))))
        else:  # int / int is correctly rounded
            hi = 1 / power
            num, den = hi.as_integer_ratio()
            pairs.append((hi, (den - num * power) / (den * power)))
    hi, lo = np.array(pairs).T
    big = _SPLIT * hi
    return np.stack([hi, lo, big - (big - hi), hi - (big - (big - hi))])


def _layouts() -> np.ndarray:
    # row key: the source-row columns of the key's text, its separator and pads.
    # Key form * _SIG + s is s + 1 significant digits in %g form `form`, the same
    # plus _FORMS * _SIG is its negative, and _FALLBACK_KEY - 1 + length is
    # "%.15g" % v, written from column 0
    texts = []
    for form in range(_FORMS):
        e = form - 4
        for s in range(_SIG):
            digits = list(range(1, s + 2))  # the significant digits are at columns 1..s+1
            if e < 0:
                texts.append([0, _DOT] + [0] * (-e - 1) + digits)
            elif e < _SIG:
                texts.append(list(range(1, e + 2)) + ([_DOT, *digits[e + 1:]] if s > e else []))
            else:
                texts.append([1] + ([_DOT, *digits[1:]] if s else []) + [
                    _E, _EXP_SIGN, *range(_EXP_SIGN + 1 + (form == _FORMS - 2), _DOT)])
    texts += [[_MINUS, *text] for text in texts]
    texts += [list(range(length)) for length in range(1, _TEXT_BYTES + 1)]
    rows = b"".join(bytes(text + [_SEP] + [_PAD] * (_TEXT_BYTES - len(text))) for text in texts)
    return np.frombuffer(rows, np.uint8).reshape(-1, _TEXT_BYTES + 1).astype(np.intp)


def _build_tables() -> tuple[np.ndarray, ...]:
    # at e - _E_MIN of the first three: e's power row, its 4 exponent bytes and
    # the layout key of its %g form at 15 significant digits.  Then the layouts by
    # key, and 0..9999 as one word of 4 ASCII digits and as its count of trailing
    # zeros.  All read-only
    exps = np.frombuffer(b"".join(b"%+04d" % e for e in range(_E_MIN, _E_MAX + 1)), np.uint32)
    e = np.arange(_E_MIN, _E_MAX + 1)
    forms = np.where((e >= -4) & (e < _SIG), e + 4, _FORMS - 2 + (np.abs(e) >= 100))
    pair = np.arange(100)
    pair_bytes = np.frombuffer(b"".join(b"%02d" % i for i in pair.tolist()), np.uint16)
    quads = np.empty((100, 100, 2), np.uint16)
    quads[..., 0] = pair_bytes[:, None]
    quads[..., 1] = pair_bytes
    zeros = (pair % 10 == 0) + (pair == 0).astype(np.intp)
    tables = (_powers(), exps, forms * _SIG + _SIG - 1, _layouts(),
              quads.view(np.uint32).ravel(), (zeros + (pair == 0) * zeros[:, None]).ravel())
    for table in tables:
        table.flags.writeable = False
    return tables


_POWERS, _EXPS, _FORM_KEYS, _LAYOUTS, _QUADS, _ZEROS = _build_tables()


def _nearest(v: np.ndarray) -> tuple[np.ndarray, ...]:
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
    hi, lo, hh, hl = _POWERS.take(row, axis=1)
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
    row, n, ok = _nearest(v)
    src = np.empty((v.size, _ROW_BYTES), np.uint8)
    words = src.view(np.uint32)  # "0" and the 15 digits in 4 words, then the exponent
    words[:, _EXP_SIGN // 4] = _EXPS.take(row)
    words[:, _DOT // 4] = int.from_bytes(b".-e\0", sys.byteorder)
    words[:, _PAD // 4] = 0
    src[:, _SEP] = seps
    # the key's significant digits count down from 15, a trailing zero at a time
    key = _FORM_KEYS.take(row) + np.signbit(v) * (_FORMS * _SIG)
    trailing = np.ones(v.size, bool)
    for col in (3, 2, 1):
        high = n // 10_000
        n -= high * 10_000
        words[:, col] = _QUADS.take(n)
        key -= _ZEROS.take(n) * trailing
        trailing &= n == 0
        n = high
    words[:, 0] = _QUADS.take(n)
    key -= _ZEROS.take(n) * trailing

    bad = np.flatnonzero(~ok)
    if bad.size:
        text = ["%.15g" % x for x in v[bad].tolist()]
        key[bad] = _FALLBACK_KEY - 1 + np.array([len(t) for t in text])
        src[bad, :_TEXT_BYTES] = np.frombuffer(
            "".join([t.ljust(_TEXT_BYTES, "\0") for t in text]).encode(),
            np.uint8).reshape(-1, _TEXT_BYTES)
    index = _LAYOUTS.take(key, axis=0)
    index += (np.arange(v.size) * _ROW_BYTES)[:, None]
    cells = src.ravel().take(index)
    return cells[cells != 0].tobytes()
