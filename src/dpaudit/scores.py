"""The shared score-file format: UTF-8 text, one finite float per line.

Lines starting with '#' and blank lines are ignored on read. Each line of a
written file is the value's ``repr`` byte for byte, ending in a line feed on
every OS, so files round-trip exactly and identical inputs produce byte-identical
files.

Reading tries numpy's C parser first (``np.loadtxt``). Its result is kept
only when it is one column of finite floats, which is the common case of a
file this module wrote. Anything else (comment lines, a value numpy cannot
parse, a non-finite value, two numbers on a line, bytes that are not UTF-8,
an empty file) goes through the Python line loop, which accepts exactly what
``float()`` accepts and is the one source of ``path: line N`` errors. Both
parsers round with the same correctly rounded ``strtod``, so a file either
path accepts gives the same array.

Writing spells ``WRITE_BLOCK`` values at a time with array arithmetic, so
memory stays O(block) at any file size. In the exact domain, 1e-4 <= |x| <
1e15, ``repr`` prints fixed notation, and a block is spelled in four steps,
each exact:

- scale: X = |x| 10^s with s = 17 - floor(log10 |x|), so X lies near
  10^17 and is the integer ``hi`` plus ``lo`` (Dekker's product);
- interval: the integers L..U within half a spacing of x, scaled, are the
  candidates that read back as x (no end is an integer in the domain);
- digits: the largest j with a multiple of 10^j in [L, U] gives the
  shortest digits (Steele & White, Gay), and the multiple nearest X is the
  one ``repr`` prints; the value is that multiple times 10^-s;
- bytes: the integer and fraction parts go, four ASCII digits per table
  look-up, into a fixed-width row, sign, 16 digits, point, 20 digits and line
  feed, per value, and a per-row mask drops the unused bytes.

A value outside the exact domain (zero, a subnormal, anything ``repr``
prints in exponent notation or past 1e15), or one that lies exactly
halfway between the two nearest shortest candidates, is spelled by
``repr`` into its row of the same block.

A run's two score files (one per side) are read or written at once by
:func:`both`: a forked child takes the second file while this process takes
the first, because text parsing and formatting hold one core each. The
one-shot canary sampler splits its row blocks between two processes the
same way, and ``compose`` composes its two PLD directions so. Those two ask
``both`` for a fork only from the input size on where it pays; below it
the calls run in turn.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import warnings

import numpy as np

from .errors import ScoreFileError

# values spelled per block; bounds the arrays held in memory at once
WRITE_BLOCK = 2 ** 14


def read_scores(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file warns, then falls back
                values = np.loadtxt(fh, dtype=float, ndmin=2, comments=None)
        except ValueError:  # a field numpy cannot parse, or bytes that are not UTF-8
            pass
        else:
            if values.shape[1] == 1 and values.size and np.isfinite(values).all():
                return values.ravel()
    return _read_lines(path)


def numbered_lines(path):
    """Yield ``(line number, stripped text)`` per line: the one reader of every
    input text format, so a line that is not UTF-8 is named the same way in each."""
    # undecodable bytes become lone surrogates, so the bad line can be named
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ScoreFileError(
                        f"{path}: line {lineno}: not UTF-8 text", lineno) from None
            yield lineno, raw.strip()


def _read_lines(path) -> np.ndarray:
    values = []
    for lineno, line in numbered_lines(path):
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise ScoreFileError(
                f"{path}: line {lineno}: not a number: {line!r}", lineno) from None
        if not math.isfinite(value):
            raise ScoreFileError(
                f"{path}: line {lineno}: non-finite value {line!r}", lineno)
        values.append(value)
    if not values:
        raise ScoreFileError(f"{path}: no scores found", None)
    return np.asarray(values, dtype=float)


_POW10 = np.array([10 ** t for t in range(19)], dtype=np.int64)
_POW10_FLOAT = np.array([float(f"1e{t}") for t in range(23)])  # each exact in float64
# a row: [---'-'][16 integer digits][---'.'][20 fraction digits]['\n'---], in 4-byte words
_ROW = 48
_INT, _FRAC = slice(1, 5), slice(6, 11)
_BLANK_ROW = np.frombuffer(bytes(3) + b"-" + bytes(19) + b"." + bytes(20) + b"\n" + bytes(3),
                           dtype=np.uint8)


# the tables below are built at the first write, so commands that only read
# carry neither them nor the numpy state their construction leaves behind

@functools.cache
def _chunks():
    """"0000".."9999": four ASCII digits per uint32."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    return np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()


@functools.cache
def _row_masks():
    """The bytes a row keeps, as uint32 words: for a value with ``n_int`` integer
    and ``n_frac`` fraction digits, at (negative * 17 + n_int) * 21 + n_frac."""
    col = np.arange(_ROW)
    neg, n_int, n_frac = (a[..., None] for a in np.ix_(range(2), range(17), range(21)))
    keep = (((col == 3) & (neg == 1)) | ((20 - n_int <= col) & (col < 20)) | (col == 23)
            | ((44 - n_frac <= col) & (col < 44)) | (col == 44))
    return keep.view(np.uint32).reshape(-1, _ROW // 4)


def _split(a):
    """Veltkamp's split: a = high + low, each half of the significand."""
    c = a * 134217729.0  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _two_product(a, b):
    """hi + lo == a * b exactly (Dekker's TwoProduct)."""
    hi = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _floor_sum(a, b):
    """floor(a + b) as int64, exact: s + e == a + b (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    fs = np.floor(s)
    return fs.astype(np.int64) - ((fs == s) & (e < 0))


def _scaled_interval(ax):
    """s, and X = ax 10^s = h + lo with the integers [low, high] that read back as ax.

    X lies in about [1e16, 1e18], so ``hi`` is an integer. The decimals that
    read back as ax lie within half a spacing w of it. Scaled, X +- w is an
    odd multiple of 2^(E - 53 + s) 5^s for ax in [2^E, 2^(E + 1)), and
    E - 53 + s <= -1 in the exact domain, so no end is an integer and the
    round-half-even rule that decides whether an end reads back never
    applies. At a power of two the gap below is half the gap above; the
    wider interval gives the same digits, because in the domain such an x
    is an integer, or a decimal ending in 5 within 13 places, and no
    shorter decimal lies within a spacing of it.
    """
    s = 17 - np.floor(np.log10(ax)).astype(np.int64)
    p = _POW10_FLOAT[s]
    hi, lo = _two_product(ax, p)
    h = hi.astype(np.int64)
    w = np.spacing(ax) * 0.5 * p
    return s, h, lo, h + _floor_sum(lo, -w) + 1, h + _floor_sum(lo, w)


def _trailing_zeros(low, high):
    """The largest j such that a multiple of 10^j lies in [low, high], per row.

    Holding a multiple is monotone in j. Nearly every row reaches j = 2, so
    only the rows that do go on from there.
    """
    j = np.zeros(low.size, dtype=np.int64)
    for t in (1, 2):
        j += high // _POW10[t] * _POW10[t] >= low
    live = np.flatnonzero(j == 2)
    low, high = low[live], high[live]
    for t in range(3, _POW10.size):
        hit = high // _POW10[t] * _POW10[t] >= low
        live, low, high = live[hit], low[hit], high[hit]
        if not live.size:
            break
        j[live] = t
    return j


def _shortest_digits(x):
    """``repr``'s digits of x: |x| = digits * 10^e, on the rows marked ``spelled``.

    The other rows are outside the exact domain or fall exactly halfway
    between the two nearest shortest candidates; ``repr`` spells them.
    """
    ax = np.abs(x)
    spelled = (ax >= 1e-4) & (ax < 1e15)
    s, h, lo, low, high = _scaled_interval(np.where(spelled, ax, 1.5))
    j = _trailing_zeros(low, high)
    # the multiple of 10^j nearest X: X / 10^j = q + (r + frac) / 10^j
    floor_lo = np.floor(lo)
    pj = _POW10[j]
    q, r = np.divmod(h + floor_lo.astype(np.int64), pj)
    beyond_half = (2 * r - pj).astype(float) + 2.0 * (lo - floor_lo)
    return spelled & (beyond_half != 0), q + (beyond_half > 0), j - s


def _spell(words, v):
    """Write v as zero-padded ASCII digits, four per uint32 word of ``words``."""
    for c in range(words.shape[1] - 1, -1, -1):
        q = v // 10000
        words[:, c] = _chunks()[v - q * 10000]
        v = q


def _spell_block(x, rows, keep):
    """The file bytes of the values x: one ``repr`` line each."""
    n = x.size
    spelled, digits, e = _shortest_digits(x)
    # fixed notation: -e fraction digits when e < 0, else the integer digits * 10^e and ".0"
    whole, frac = np.divmod(digits, _POW10[np.minimum(np.maximum(-e, 0), 17)])
    whole *= _POW10[np.maximum(e, 0)]
    n_int = np.maximum(np.searchsorted(_POW10, whole, side="right"), 1)
    rows, keep = rows[:n], keep[:n]
    rows[:] = _BLANK_ROW
    words = rows.view(np.uint32)
    _spell(words[:, _INT], whole)
    _spell(words[:, _FRAC], frac)
    keep.view(np.uint32)[:] = _row_masks()[((x < 0) * 17 + n_int) * 21 + np.maximum(-e, 1)]
    for i in np.flatnonzero(~spelled):
        line = np.frombuffer(f"{float(x[i])!r}\n".encode("ascii"), dtype=np.uint8)
        rows[i, :line.size] = line
        keep[i] = np.arange(_ROW) < line.size
    return rows[keep]


def write_scores(path, values) -> None:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    starts = range(0, arr.size, WRITE_BLOCK)
    if not all(np.isfinite(arr[i:i + WRITE_BLOCK]).all() for i in starts):
        raise ValueError("scores must be finite")
    size = min(arr.size, WRITE_BLOCK)
    rows = np.empty((size, _ROW), dtype=np.uint8)
    keep = np.empty((size, _ROW), dtype=bool)
    with open(path, "wb") as fh:
        for i in starts:
            fh.write(_spell_block(arr[i:i + WRITE_BLOCK], rows, keep))


def both(fn, first, second, child=None, fork=True) -> tuple:
    """Return ``(fn(*first), fn(*second))``, making the second call in a forked child.

    The child sends its result or its exception back pickled over a pipe and
    always ends in ``os._exit``, so it never returns into the caller and never
    flushes the caller's stdio buffers; this process reaps it before returning
    or raising. Errors come as in the sequential order: the first call's error
    wins, and otherwise the child's is raised here with its type and message.
    A child that ends without a result raises ``OSError`` that starts with
    ``child``, by default ``"<second[0]>: the process handling this file"``
    for a call on the file ``second[0]``. With ``fork`` false, as callers pass
    when a fork would cost more than it saves, or without ``os.fork``, the
    calls run in turn. ``fn`` should not call BLAS: only the forking thread
    lives on in the child, and not every BLAS build restarts its thread pool
    there.
    """
    if not (fork and hasattr(os, "fork")):
        return fn(*first), fn(*second)
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                outcome = (True, fn(*second))
            except BaseException as exc:
                outcome = (False, exc)
            with open(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    outcome = None
    try:
        with open(read_end, "rb") as pipe:
            result = fn(*first)
            try:
                outcome = pickle.load(pipe)
            except Exception:  # the child died, or sent what cannot be rebuilt here
                pass
    finally:
        _, status = os.waitpid(pid, 0)
    if outcome is None:
        if child is None:
            child = f"{second[0]}: the process handling this file"
        raise OSError(f"{child} ended without a result "
                      f"(exit status {os.waitstatus_to_exitcode(status)})")
    ok, value = outcome
    if not ok:
        raise value
    return result, value
