"""The shared score-file format: UTF-8 text, one finite float per line.

Lines starting with '#' and blank lines are ignored on read. Writing uses
repr formatting, so files round-trip exactly and identical inputs produce
byte-identical files.

Reading tries numpy's C parser first (``np.loadtxt``). Its result is kept
only when it is one column of finite floats, which is the common case of a
file this module wrote. Anything else (comment lines, a value numpy cannot
parse, a non-finite value, two numbers on a line, bytes that are not UTF-8,
an empty file) goes through the Python line loop, which accepts exactly what
``float()`` accepts and is the one source of ``path: line N`` errors. Both
parsers round with the same correctly rounded ``strtod``, so a file either
path accepts gives the same array. Writing formats blocks of values at a
time, so memory stays O(block) at any file size.

A run's two score files (one per side) are read or written at once by
:func:`both`: a forked child takes the second file while this process takes
the first, because text parsing and formatting hold one core each. The
one-shot canary sampler splits its row blocks between two processes the
same way, and ``compose`` composes its two PLD directions so. Those two ask
``both`` for a fork only from the input size on where it pays; below it
the calls run in turn.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings

import numpy as np

from .errors import ScoreFileError

# values formatted per write call; bounds the text held in memory at once
WRITE_BLOCK = 2 ** 16


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


def write_scores(path, values) -> None:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("scores must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, arr.size, WRITE_BLOCK):
            fh.write("\n".join(map(repr, arr[start:start + WRITE_BLOCK].tolist())))
            fh.write("\n")


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
