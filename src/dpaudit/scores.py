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
"""

from __future__ import annotations

import math
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


def _read_lines(path) -> np.ndarray:
    values = []
    # undecodable bytes become lone surrogates, so the bad line can be named
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ScoreFileError(
                        f"{path}: line {lineno}: not UTF-8 text", lineno) from None
            line = raw.strip()
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
