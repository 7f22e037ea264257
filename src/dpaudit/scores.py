"""The shared score-file format: UTF-8 text, one finite float per line.

Lines starting with '#' and blank lines are ignored on read. Each line of a
written file is the value's ``repr`` byte for byte, ending in a line feed on
every OS, so files round-trip exactly and identical inputs produce byte-identical
files.

Reading parses ``READ_BLOCK`` bytes at a time with array arithmetic, so it
holds the result and O(block) working arrays, never the whole file; a
partial last line carries over to the next block. A line
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

A run's two score files (one per side) are handled at once by
:func:`both`: a forked child takes the second file while this process takes
the first, because text parsing and formatting hold one core each. To bin
two score files, each process reads its own and bins it, and the two
exchange only what binning needs, in lock-step over a pair of pipes: the
sizes, each side's few smallest and largest values and block sums, for the
Scott rule its squared-deviation sums, and last the child's bin counts. So
no process holds both samples. The white-box canary flow runs each side the
same way: each process draws its own side, bins it in this exchange and
writes its own file. The one-shot canary sampler splits its row blocks
between two processes the same way, and ``compose`` composes its two PLD
directions so. Those two ask ``both`` for a fork only from the input size
on where it pays; below it the calls run in turn.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import types

import numpy as np

from .errors import ScoreFileError

# values spelled per block; bounds the arrays held in memory at once
WRITE_BLOCK = 2 ** 14
# bytes read per block; bounds the working arrays of a read
READ_BLOCK = 2 ** 16


def read_scores(path) -> np.ndarray:
    values = _read_blocks(path)
    return _read_lines(path) if values is None else values


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
    fs[(fs == s) & (e < 0)] -= 1
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
    w = np.spacing(ax) * 0.5 * p
    return h, lo, h + _floor_sum(lo, -w) + 1, h + _floor_sum(lo, w)


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


def _read_blocks(path):
    """The file's values, read ``READ_BLOCK`` bytes at a time; None when the
    file needs the line loop."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # the bytes before each line start at _LINE; one spare byte at the end
        # takes the line feed a last line lacks
        buf = np.zeros(_LINE + READ_BLOCK + 1, dtype=np.uint8)
        out = np.empty(0)
        n = carry = done = 0
        while True:
            begin = _LINE + carry
            if begin == buf.size - 1:  # a line longer than the buffer
                buf = np.concatenate([buf, np.zeros_like(buf)])
            end = begin + fh.readinto(memoryview(buf)[begin:-1])
            if end == begin:
                if not carry:
                    break
                buf[end] = 10
                end += 1
            lf = np.flatnonzero(buf[_LINE:end] == 10)
            if lf.size:
                lf += _LINE
                done += lf[-1] + 1 - _LINE
                if n + lf.size > out.size:  # room for the lines left at this rate
                    room = n + lf.size + (n + lf.size) * max(size - done, 0) // done + 64
                    if n:
                        out.resize(room, refcheck=False)
                    else:  # numpy backs a large new array with huge pages, not a resized one
                        out = np.empty(room)
                values = _parse_block(buf, lf, out[n:n + lf.size])
                if values is None:
                    return None
                n += values
                begin = lf[-1] + 1
            else:
                begin = _LINE
            carry = end - begin
            buf[_LINE:_LINE + carry] = buf[begin:end]
    if not n:
        return None
    out.resize(n, refcheck=False)
    return out


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
    s = 17 - np.floor(np.log10(ax)).astype(np.int64)
    h, lo, low, high = _scaled_interval(ax, s)
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
    raises ``OSError`` that starts with ``child``, by default
    ``"<second[0]>: the process handling this file"`` for a call on the
    file ``second[0]``. With ``fork`` false, as callers pass when a fork
    would cost more than it saves, or without ``os.fork``, the calls run in
    turn. ``fn`` should not call BLAS: only the forking thread lives on in
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
        raise OSError(f"{child} ended without a result "
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
