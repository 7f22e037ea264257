"""The shared score-file format: UTF-8 text, one finite float per line.

Lines starting with '#' and blank lines are ignored on read. Each line of a
written file is the value's ``repr`` byte for byte, ending in a line feed on
every OS, so files round-trip exactly and identical inputs produce byte-identical
files.

Reading parses ``READ_BLOCK`` bytes at a time with array arithmetic, so it
holds the result and O(block) working arrays, never the whole file; a
partial last line carries over to the next block. A first pass counts the
line feeds, so the result is allocated once and never grown, which would
copy it. A line
``-?[0-9]+[.][0-9]+`` of at most 23 bytes, as ``repr`` writes every value in
1e-4 <= |x| < 1e16, ending in a line feed or a CR LF, is read in three steps,
each exact:

- bytes: the 24 bytes before its end, one strided view, as three
  uint64 words; one table look-up on (digits, fraction digits) keeps only
  the digits, SWAR masks check that each is 0-9, and three multiply, shift
  and mask steps read eight per word (Lemire), giving the digits D and the
  fraction digits f;
- D <= 2^53: D / 10^f is correctly rounded, both being exact (Clinger,
  *How to read floating point numbers accurately*, PLDI 1990);
- D > 2^53: a corrected quotient is kept when D lies strictly inside its
  rounding interval scaled by 10^f, the writer's interval test, or else one
  ``nextafter`` step toward D is.

Every other line (exponent notation, spaces, ``.5``, ``1_0``, a line past
23 bytes), a value still outside, and a possible tie get ``float()``
of the line's bytes in their slot. A line ``float()`` rejects is dropped
when the line loop would skip it too (blank or '#' once stripped, UTF-8,
no carriage return inside). Any other such line, and a non-finite value,
send the whole file to the Python line loop, which accepts exactly what
``float()`` accepts and is the one source of ``path: line N`` errors.

A file that is only binned is held at 4 bytes a score instead of 8, by
:class:`HeldScores`. It runs the same parse once and hands each block's
exact values on as it goes, so binning takes its quantile values and Scott
moments from them, but keeps only their float32 copy, in a store sized by
the line count, and each parse block's file offset, byte count and the
values before it. Rounding to float32 is monotone, so a float32 value can
sit in another bin than its exact value only when a breakpoint rounds to it
too; those few values are parsed again, block by block, from the file (a
pipe's bytes are kept for this). A block that no longer gives the float32
values held raises ``ScoreFileError``, which the CLI exits 3 on: the file
changed while it was read.

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

Scores that are cheaper to draw again than to hold come as a
:class:`ScoreSource`: a size and a function that yields the values afresh,
block by block, on every call. ``write_scores`` takes one in place of an
array, and so does binning, so a pass over a source holds one block.

A run's two score files (one per side) are handled at once by
:func:`both`: a forked child takes the second file while this process takes
the first, because text parsing and formatting hold one core each. To bin
two score files, each process parses its own once, holding it at 4 bytes a
score, and bins it, and the two exchange only what binning needs, in
lock-step over a pair of pipes: in one message each side's size, its few
smallest and largest values and, for the Scott rule, its count, mean and
squared deviation, and last the child's bin counts. So no process holds
both samples. The white-box canary
flow runs each side the same way, from a source: each process draws its own
side once to bin it in this exchange, and once more to count its bins and
write its own file. The one-shot canary sampler splits its row blocks
between two processes the same way, and ``compose`` composes its two PLD
directions so. Those two ask ``both`` for a fork only from the input size
on where it pays; below it the calls run in turn.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import pickle
import types
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ScoreFileError

# values spelled per block; bounds the arrays held in memory at once
WRITE_BLOCK = 2 ** 12
# bytes read per block; bounds the working arrays of a read
READ_BLOCK = 2 ** 16


def read_scores(path) -> np.ndarray:
    values = _read_blocks(path)
    return _read_lines(path) if values is None else values


class HeldScores:
    """A score file parsed once and held at 4 bytes a score.

    ``blocks()`` is the one parse: it yields the file's exact values block by
    block, as ``read_scores`` would read them, and keeps only their float32
    copy, ``values``, and where each parse block lies in the file. ``len()``
    is an upper bound on the file's score count until the parse ends, and
    that count after. ``exact(indices)`` gets the exact values at a few indices by
    parsing their blocks again; a block that no longer gives the float32
    values held raises ``ScoreFileError``: the file changed while it was
    read. A file that needs the line loop is held exact, at 8 bytes a score.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            # a pipe cannot be read again, so its bytes are kept
            self._pipe = None if fh.seekable() else io.BytesIO(fh.read())
            self._lines, self._size = _line_count(self._pipe or fh)

    def __len__(self) -> int:
        return self._size

    def _open(self):
        if self._pipe is None:
            return open(self.path, "rb")
        self._pipe.seek(0)
        return contextlib.nullcontext(self._pipe)

    def blocks(self):
        """The one parse: the file's exact values, block by block."""
        # the store, sized by the line count; the slots left over at its end by
        # lines without a value are never touched, so they take no resident memory
        self.values = np.empty(self._lines, dtype=np.float32)
        # per parse block: its file offset, its byte count and the values before it
        self._blocks = []
        self._last = None, None  # the block exact() parsed last, and its values
        n = 0
        try:
            with self._open() as fh:
                for offset, size, values in _parsed_blocks(fh, self._lines):
                    # a value past the float32 range is held as an infinity
                    with np.errstate(over="ignore"):
                        self.values[n:n + values.size] = values
                    self._blocks.append((offset, size, n))
                    n += values.size
                    yield values
            if not n:
                raise _LineLoop
        except _LineLoop:
            # the values yielded so far are the line loop's too, unless the file changed
            exact = _read_lines(self.path)
            with np.errstate(over="ignore"):
                if not np.array_equal(exact[:n].astype(np.float32), self.values[:n]):
                    raise self._changed() from None
            self.values = exact
            yield from (exact[i:i + READ_BLOCK] for i in range(n, exact.size, READ_BLOCK))
            n = exact.size
        self._size = n
        self.values = self.values[:n]

    def exact(self, indices: np.ndarray) -> np.ndarray:
        """The exact values at the ascending ``indices``, from their parse
        blocks; the last block parsed is kept for the next call."""
        if self.values.dtype == float:
            return self.values[indices]
        firsts = [first for _, _, first in self._blocks]
        block = np.searchsorted(firsts, indices, side="right") - 1
        out = np.empty(indices.size)
        for b in np.unique(block).tolist():
            if self._last[0] != b:
                offset, size, first = self._blocks[b]
                stop = firsts[b + 1] if b + 1 < len(firsts) else self._size
                with self._open() as fh:
                    values = _reparsed(fh, offset, size)
                with np.errstate(over="ignore"):
                    if values is None or not np.array_equal(values.astype(np.float32),
                                                            self.values[first:stop]):
                        raise self._changed()
                self._last = b, values
            at = block == b
            out[at] = self._last[1][indices[at] - firsts[b]]
        return out

    def _changed(self) -> ScoreFileError:
        return ScoreFileError(f"{self.path}: changed while it was read", None)


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
# the bytes before a line's end that the reader takes of each line, as three uint64 words
_LINE = 24
# from 2^(53 - f) up, half a spacing times 10^f is an integer
_TIE_FROM = np.array([2.0 ** (53 - f) for f in range(23)])


# the tables below are built at first use, so a command that only reads or only
# writes carries neither the other's tables nor the numpy state they leave behind

@functools.cache
def _digit_masks():
    """For a line of ``digits`` digits, ``f`` after the '.', at digits * 24 + f: the
    bytes of its digits among the 24 before its end, as three uint64 words."""
    rows = [bytes(_LINE - 1 - digits) + b"\xff" * (digits - f) + bytes(1) + b"\xff" * f
            if f < digits else bytes(_LINE) for digits in range(_LINE) for f in range(_LINE)]
    return np.frombuffer(b"".join(rows), dtype=np.uint64).reshape(-1, 3)


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


# the helpers below reuse their temporaries in place: the writer calls them on
# every block, and each fresh array costs an allocation

def _split(a):
    """Veltkamp's split: a = high + low, each half of the significand."""
    high = a * 134217729.0  # 2^27 + 1
    low = high - a
    high -= low
    np.subtract(a, high, out=low)
    return high, low


def _two_product(a, b):
    """hi + lo == a * b exactly (Dekker's TwoProduct):
    lo = ((ah bh - hi) + ah bl + al bh) + al bl, summed in that order."""
    hi = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    lo = ah * bh
    lo -= hi
    ah *= bl
    lo += ah
    bh *= al
    lo += bh
    al *= bl
    lo += al
    return hi, lo


def _floor_sum(a, b):
    """floor(a + b) as int64, exact: s + e == a + b (Knuth's TwoSum),
    e = (a - (s - t)) + (b - t) with t = s - a."""
    s = a + b
    t = s - a
    e = s - t
    np.subtract(a, e, out=e)
    np.subtract(b, t, out=t)
    e += t
    fs = np.floor(s)
    fs -= (fs == s) & (e < 0)
    return fs.astype(np.int64)


def _scaled_interval(ax, s):
    """X = ax 10^s = h + lo, and the integers [low, high] within half a spacing of it.

    X lies in [2^52, 2^63), so ``hi`` is an integer and fits in int64.
    The decimals that round to ax lie within half a spacing w of it. Scaled,
    X +- w is an odd multiple of 2^(E - 53 + s) 5^s for ax in [2^E, 2^(E + 1)),
    so no end is an integer while E - 53 + s <= -1, and the round-half-even
    rule that decides whether an end reads back never applies. At a power of
    two the gap below is half the gap above; the interval is the wider one.
    """
    p = _POW10_FLOAT[s]
    hi, lo = _two_product(ax, p)
    h = hi.astype(np.int64)
    w = np.spacing(ax)
    w *= 0.5
    w *= p
    high = _floor_sum(lo, w)
    high += h
    low = _floor_sum(lo, np.negative(w, out=w))
    low += h
    low += 1
    return h, lo, low, high


def _parse_block(buf, lf, dest):
    """Write the values of the lines ending at the line feeds ``lf`` of ``buf``
    to the head of ``dest`` and return how many there are, or None when the
    file needs the line loop."""
    start = np.empty_like(lf)
    start[0] = _LINE
    np.add(lf[:-1], 1, out=start[1:])
    neg = (buf[_LINE:lf[-1] + 1] == 45)[start - _LINE]  # '-'
    # a line ends at its line feed, or at a carriage return just before it
    end = lf.copy()
    end[(buf[_LINE - 1:lf[-1]] == 13)[lf - _LINE]] -= 1
    # f, the digits after the one '.' of each line
    f = np.flatnonzero(buf[_LINE:lf[-1]] == 46)
    f += _LINE
    if f.size == lf.size and (f < lf).all() and (f[1:] >= start[1:]).all():
        np.subtract(end, f, out=f)
    else:  # a line without a '.', or with two, fails the grammar
        dot, line = f, np.searchsorted(lf, f)
        f = np.zeros_like(lf)
        f[line] = end[line] - dot
        f[np.bincount(line, minlength=lf.size) != 1] = 0
    f -= 1
    digits = end - start
    special = digits >= _LINE
    digits -= 1
    digits[neg] -= 1
    special |= f < 1
    special |= f >= digits
    f[special] = 1
    digits[special] = 2
    # the 24 bytes before each line's end, through one strided view of 24-byte
    # items, with all but the digits set to 0
    windows = np.ndarray((buf.size - _LINE + 1,), dtype=np.dtype((np.void, _LINE)),
                         buffer=buf, strides=(1,))
    words = windows[end - _LINE].view(np.uint64).reshape(-1, 3)
    masks = _digit_masks().take(digits * _LINE + f, axis=0)
    words &= masks
    # each digit byte less '0', and a test that all are 0..9: a byte below '0'
    # borrows, and one above '9' overflows 0x76, both setting its top bit
    masks &= 0x3030303030303030
    words -= masks
    np.add(words, 0x7676767676767676, out=masks)
    masks |= words
    masks &= 0x8080808080808080
    special |= (masks[:, 0] | masks[:, 1] | masks[:, 2]).view(np.int64) != 0
    del masks
    # eight digits per word to their value (Lemire's SWAR parse): pairs, fours, eights
    words *= 2561
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 6553601
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 42949672960001
    words >>= 32
    # N, the 24 digits as one integer, with the '.' read as a 0
    special |= words[:, 0].view(np.int64) >= 100  # N < 10^18 fits in int64
    n = words[:, 0] * 10 ** 16
    n += words[:, 1] * 10 ** 8
    n += words[:, 2]
    del words
    n = n.view(np.int64)
    # N = I 10^(f + 1) + F, and the decimal's digits D = I 10^f + F
    frac = n % _POW10.take(f, mode="clip")
    n -= frac
    n //= 10
    n += frac
    np.divide(n, _POW10_FLOAT[f], out=dest)
    hard = np.flatnonzero(n > 2 ** 53)
    hard = hard[~special[hard]]
    if hard.size:
        dest[hard], ok = _nearest_double(n[hard], f[hard])
        special[hard[~ok]] = True
    np.negative(dest, out=dest, where=neg)
    skipped = []
    for i in np.flatnonzero(special):
        line = buf[start[i]:lf[i]].tobytes()
        try:
            value = float(line)
        except ValueError:
            if not _skipped_line(line):
                return None
            skipped.append(i)
            continue
        if not math.isfinite(value):
            return None
        dest[i] = value
    if skipped:
        kept = np.delete(dest, skipped)
        dest[:kept.size] = kept
    return lf.size - len(skipped)


def _skipped_line(line: bytes) -> bool:
    """Whether the line loop passes over ``line`` (its bytes before the line
    feed): blank or '#' once stripped, UTF-8, and no carriage return inside,
    which the line loop would read as a line break."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    text = text.removesuffix("\r")
    if "\r" in text:
        return False
    text = text.strip()
    return not text or text.startswith("#")


def _nearest_double(d, f):
    """Per row, the double nearest d 10^-f, and whether that is certain.

    D > 2^53 is dh + dl, dh = fl(D), so dh / 10^f and one correction step
    from Dekker's product leave c within an ulp of the value, nearly always
    the nearest double. Scaled by 10^f, the decimals that round to c are the
    integers strictly inside its interval; a miss moves c one step toward the
    value. When the half-spacing scaled is an integer (c >= 2^(53 - f)) an
    end may be one, a tie for round-half-even, and at a power of two the
    interval below is half as wide: those rows stay uncertain.
    """
    p = _POW10_FLOAT[f]
    dh = d.astype(float)
    c = dh / p
    hi, lo = _two_product(c, p)
    c += ((dh - hi) - lo + (d - dh.astype(np.int64))) / p
    _, _, low, high = _scaled_interval(c, f)
    below = d < low
    ok = ~below & (d <= high)
    miss = np.flatnonzero(~ok)
    if miss.size:
        c[miss] = np.nextafter(c[miss], np.where(below[miss], 0.0, np.inf))
        _, _, low, high = _scaled_interval(c[miss], f[miss])
        ok[miss] = (low <= d[miss]) & (d[miss] <= high)
    ok &= (c < _TIE_FROM[f]) & (np.frexp(c)[0] != 0.5)
    return c, ok


class _LineLoop(Exception):
    """The file needs the Python line loop."""


def _line_count(fh) -> tuple[int, int]:
    """Upper bounds on the values of the open file ``fh``: one more than its
    line feeds, where the block parse ends its lines, and one more than its
    line feeds and carriage returns, where the line loop may end them too.
    Leaves ``fh`` at its start."""
    block = np.empty(READ_BLOCK, dtype=np.uint8)
    lines = returns = 0
    while got := fh.readinto(block):
        lines += np.count_nonzero(block[:got] == 10)
        returns += np.count_nonzero(block[:got] == 13)
    fh.seek(0)
    return int(lines) + 1, int(lines + returns) + 1


def _read_blocks(path):
    """The file's values, read ``READ_BLOCK`` bytes at a time; None when the
    file needs the line loop."""
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: its bytes are kept to be read twice
            fh = io.BytesIO(fh.read())
        out = np.empty(_line_count(fh)[0])
        n = 0
        try:
            for _, _, values in _parsed_blocks(fh, out.size, out):
                n += values.size
        except _LineLoop:
            return None
    if not n:
        return None
    if n < out.size:  # skipped lines, or a last line feed
        out.resize(n, refcheck=False)
    return out


def _parsed_blocks(fh, lines: int, out: np.ndarray | None = None):
    """The one parse loop: per parse block of the open file ``fh``, its file
    offset, its byte count and its values, ``READ_BLOCK`` bytes at a time.
    The values go to ``out`` in file order or, without it, to a fresh array
    per block. Raises ``_LineLoop`` when the file needs the line loop, or
    holds more than ``lines`` lines, as when it grew after they were counted."""
    # the bytes before each line start at _LINE, a prefix the parse keeps clear
    # of file bytes; one spare byte at the end takes the line feed a last line lacks
    buf = np.zeros(_LINE + READ_BLOCK + 1, dtype=np.uint8)
    n = carry = offset = 0
    while True:
        begin = _LINE + carry
        if begin == buf.size - 1:  # a line longer than the buffer
            buf = np.concatenate([buf, np.zeros_like(buf)])
        end = begin + fh.readinto(memoryview(buf)[begin:-1])
        if end == begin:
            if not carry:
                return
            buf[end] = 10
            end += 1
        lf = np.flatnonzero(buf[_LINE:end] == 10)
        if lf.size:
            if n + lf.size > lines:
                raise _LineLoop
            lf += _LINE
            dest = np.empty(lf.size) if out is None else out[n:n + lf.size]
            values = _parse_block(buf, lf, dest)
            if values is None:
                raise _LineLoop
            size = lf[-1] + 1 - _LINE
            yield offset, size, dest[:values]
            offset += size
            n += values
            begin = lf[-1] + 1
        else:
            begin = _LINE
        carry = end - begin
        buf[_LINE:_LINE + carry] = buf[begin:end]


def _reparsed(fh, offset: int, size: int):
    """The values of the ``size`` bytes at ``offset`` in the open file ``fh``,
    a parse block when it was read, or None when they need the line loop."""
    fh.seek(offset)
    try:
        return np.concatenate([values for _, _, values in
                               _parsed_blocks(io.BytesIO(fh.read(size)), size)] or [[]])
    except _LineLoop:
        return None


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
    ax = np.where(spelled, ax, 1.5)
    # X = ax 10^s lies near 10^17; in the exact domain E - 53 + s <= -1, and at a
    # power of two the wider interval gives the same digits, because such an x
    # is an integer, or a decimal ending in 5 within 13 places, and no shorter
    # decimal lies within a spacing of it
    s = np.log10(ax)
    s = np.floor(s, out=s).astype(np.int64)
    np.subtract(17, s, out=s)
    h, lo, low, high = _scaled_interval(ax, s)
    j = _trailing_zeros(low, high)
    # the multiple of 10^j nearest X: X / 10^j = q + (r + frac) / 10^j, and
    # beyond_half = 2 r - 10^j + 2 frac
    floor_lo = np.floor(lo)
    pj = _POW10[j]
    h += floor_lo.astype(np.int64)
    q, r = np.divmod(h, pj)
    r *= 2
    r -= pj
    lo -= floor_lo
    lo *= 2.0
    beyond_half = r.astype(float)
    beyond_half += lo
    spelled &= beyond_half != 0
    q += beyond_half > 0
    j -= s
    return spelled, q, j


def _spell(words, v):
    """Write v as zero-padded ASCII digits, four per uint32 word of ``words``."""
    for c in range(words.shape[1] - 1, -1, -1):
        q = v // 10000
        r = q * 10000
        np.subtract(v, r, out=r)
        words[:, c] = _chunks().take(r, mode="wrap")  # r is 0..9999: no bounds check
        v = q


def _spell_block(x, rows, keep):
    """The file bytes of the values x: one ``repr`` line each."""
    n = x.size
    spelled, digits, e = _shortest_digits(x)
    # fixed notation: -e fraction digits when e < 0, else the integer digits * 10^e and ".0"
    whole, frac = np.divmod(digits, _POW10[np.clip(-e, 0, 17)])
    whole *= _POW10[np.maximum(e, 0)]
    n_int = np.maximum(np.searchsorted(_POW10, whole, side="right"), 1)
    rows, keep = rows[:n], keep[:n]
    rows[:] = _BLANK_ROW
    words = rows.view(np.uint32)
    _spell(words[:, _INT], whole)
    _spell(words[:, _FRAC], frac)
    _row_masks().take(((x < 0) * 17 + n_int) * 21 + np.maximum(-e, 1), axis=0,
                      out=keep.view(np.uint32))
    for i in np.flatnonzero(~spelled):
        line = np.frombuffer(f"{float(x[i])!r}\n".encode("ascii"), dtype=np.uint8)
        rows[i, :line.size] = line
        keep[i] = np.arange(_ROW) < line.size
    return rows[keep]


@dataclass(frozen=True)
class ScoreSource:
    """``size`` scores that are drawn again on every pass instead of held.

    Each ``blocks()`` call yields the same values afresh, block by block, as
    1-D float arrays; a block may be a view of a buffer that the next block
    overwrites, so a pass keeps no block past its step. ``finite`` marks a
    source whose blocks are known to be finite, so :func:`write_scores` need
    not draw it once more to check them.
    """

    size: int
    blocks: Callable[[], Iterator[np.ndarray]]
    finite: bool = False

    def __len__(self) -> int:
        return self.size


def write_scores(path, values) -> None:
    """Write ``values``, a non-empty 1-D array-like or a :class:`ScoreSource`,
    one ``repr`` line each. Every value is checked finite before the file is
    opened, so a source not known finite is drawn twice: to check, and to write."""
    if isinstance(values, ScoreSource):
        if not values.size:
            raise ValueError("scores must be a non-empty 1-D sequence")
        if not values.finite:
            _check_finite(values.blocks())
        size, blocks = values.size, values.blocks()
    else:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scores must be a non-empty 1-D sequence")
        _check_finite(arr[i:i + WRITE_BLOCK] for i in range(0, arr.size, WRITE_BLOCK))
        size, blocks = arr.size, [arr]
    size = min(size, WRITE_BLOCK)
    rows = np.empty((size, _ROW), dtype=np.uint8)
    keep = np.empty((size, _ROW), dtype=bool)
    with open(path, "wb") as fh:
        for block in blocks:
            for i in range(0, block.size, WRITE_BLOCK):
                fh.write(_spell_block(block[i:i + WRITE_BLOCK], rows, keep))


def _check_finite(blocks) -> None:
    if not all(np.isfinite(block).all() for block in blocks):
        raise ValueError("scores must be finite")


def both(fn, first, second, child=None, fork=True) -> tuple:
    """Return ``(fn(*first), fn(*second))``, making the second call in a forked child.

    When ``fn`` is a generator function, the two calls run in lock-step: at
    each ``yield`` a call hands over its message and gets back the pair of
    both calls' messages, the first call's first, and the value it returns
    is its result. Both calls must yield equally often. So each process can
    reduce its own input and send only what the other needs. The child
    sends each message, its result or its exception pickled over a pipe and
    always ends in ``os._exit``, so it never returns into the caller and
    never flushes the caller's stdio buffers; this process reaps it before
    returning or raising. Errors come as in the sequential order, step by
    step: the first call's error wins, and otherwise the child's is raised
    here with its type and message. A child that ends without a result
    raises ``ChildProcessError`` (an ``OSError``) that starts with
    ``child``, by default ``"<second[0]>: the process handling this file"``
    for a call on the file ``second[0]``. With ``fork`` false, as callers
    pass when a fork would cost more than it saves, or without ``os.fork``,
    the calls run in turn. ``fn`` should not call BLAS: only the forking thread lives on in
    the child, and not every BLAS build restarts its thread pool there.
    """
    if not (fork and hasattr(os, "fork")):
        calls = _steps(fn, first), _steps(fn, second)
        pair = None
        while True:
            (going, mine), (_, theirs) = _step(calls[0], pair), _step(calls[1], pair)
            if not going:
                return mine, theirs
            pair = mine, theirs
    # one pipe each way: the child's messages come up, this process's go down
    up_read, up_write = os.pipe()
    down_read, down_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (up_read, up_write, down_read, down_write):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(up_read)
            os.close(down_write)
            with open(up_write, "wb") as up, open(down_read, "rb") as down:
                calls, pair = _steps(fn, second), None
                while True:
                    try:
                        going, value = _step(calls, pair)
                        message = ("yield" if going else "return", value)
                    except BaseException as exc:
                        going, message = False, ("raise", exc)
                    pickle.dump(message, up, protocol=pickle.HIGHEST_PROTOCOL)
                    up.flush()
                    if not going:
                        break
                    pair = pickle.load(down), value
            status = 0
        finally:
            os._exit(status)
    os.close(up_write)
    os.close(down_read)
    message = None
    try:
        with open(up_read, "rb") as up:
            try:
                calls, pair = _steps(fn, first), None
                while True:
                    going, mine = _step(calls, pair)
                    try:
                        message = pickle.load(up)
                    except Exception:  # the child died, or sent what cannot be rebuilt here
                        message = None
                    if not (going and message and message[0] == "yield"):
                        break
                    # the child reads this message only after sending its own, so
                    # neither process blocks on a full pipe while the other writes
                    if not _send(down_write, mine):
                        message = None
                        break
                    pair = mine, message[1]
            finally:
                os.close(down_write)  # a child still waiting for a message reads EOF and ends
    finally:
        _, status = os.waitpid(pid, 0)
    if message is None:
        if child is None:
            child = f"{second[0]}: the process handling this file"
        raise ChildProcessError(f"{child} ended without a result "
                      f"(exit status {os.waitstatus_to_exitcode(status)})")
    kind, theirs = message
    if kind == "raise":
        raise theirs
    return mine, theirs


def _steps(fn, args):
    """``fn(*args)`` as a generator; a plain call returns at its first step."""
    result = fn(*args)
    if isinstance(result, types.GeneratorType):
        result = yield from result
    return result


def _step(calls, pair):
    """``(True, message)`` at the call's next ``yield``, ``(False, result)`` when it returns."""
    try:
        return True, calls.send(pair)
    except StopIteration as stop:
        return False, stop.value


def _send(fd, value) -> bool:
    """Write ``value`` pickled to the pipe ``fd``; False when its reader is gone."""
    view = memoryview(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        return False
    return True
