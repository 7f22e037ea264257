"""Privacy profiles: the curve eps -> delta(eps) for a mechanism or estimate.

A profile is its table: non-increasing delta values on an ascending eps
grid, read between the nodes by linear interpolation. Closed-form
mechanisms tabulate their exact delta on the grid they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import _as_readonly
from .errors import ProfileOrderError, ScoreFileError
from .scores import numbered_lines

_MONOTONE_SLACK = 1e-9


def _format_sig(x: float) -> str:
    # canonical 12-significant-digit formatting; survives a parse/format
    # round trip byte for byte (12 < 15 decimal digits of float64)
    return format(float(x), ".12g")


def csv_text(header: str, xs, ys) -> str:
    """Two-column CSV text: the header line, then one ``x,y`` row per point."""
    rows = [header] + [f"{_format_sig(x)},{_format_sig(y)}" for x, y in zip(xs, ys)]
    return "\n".join(rows) + "\n"


def read_csv(path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a two-column CSV written by ``csv_text``; blank lines are skipped.

    A line that is not UTF-8, a wrong header or a row that is not two finite
    numbers raises :class:`ScoreFileError` with the file and line.
    """
    xs, ys = [], []
    for lineno, line in numbered_lines(path):
        if lineno == 1:
            if line != header:
                raise ScoreFileError(
                    f"{path}: line 1: expected header {header!r}, got {line!r}", 1)
        elif line:
            try:
                x, y = map(float, line.split(","))
            except ValueError:  # a wrong field count or a non-number
                x = y = math.nan
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ScoreFileError(
                    f"{path}: line {lineno}: expected two finite numbers, got {line!r}",
                    lineno)
            xs.append(x)
            ys.append(y)
    return np.asarray(xs), np.asarray(ys)


def check_columns(obj, x_name: str, y_name: str, noun: str) -> None:
    """Store read-only float copies of a curve's x and y columns on the frozen
    ``obj`` and check them: matching 1-D arrays of at least 2 points, x finite
    and strictly increasing, y finite and in [0, 1] up to ``_MONOTONE_SLACK``."""
    x, y = _as_readonly(getattr(obj, x_name)), _as_readonly(getattr(obj, y_name))
    object.__setattr__(obj, x_name, x)
    object.__setattr__(obj, y_name, y)
    if x.ndim != 1 or x.size < 2 or x.shape != y.shape:
        raise ValueError(f"{noun} needs matching 1-D grids with at least 2 points")
    if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
        raise ValueError(f"{x_name} must be finite and strictly increasing")
    if not np.all((y >= -_MONOTONE_SLACK) & (y <= 1 + _MONOTONE_SLACK)):
        raise ValueError(f"{y_name} must be finite and lie in [0, 1]")


@dataclass(frozen=True)
class PrivacyProfile:
    """Tabulated eps -> delta curve."""

    epsilons: np.ndarray
    deltas: np.ndarray
    heuristic: bool = False

    def __post_init__(self):
        check_columns(self, "epsilons", "deltas", "profile")
        if np.any(np.diff(self.deltas) > _MONOTONE_SLACK):
            raise ProfileOrderError("deltas must be non-increasing in eps")

    @classmethod
    def envelope(cls, eps_grid, deltas) -> "PrivacyProfile":
        """Profile through raw delta estimates on an ascending eps grid.

        Takes the running maximum from the right (the least non-increasing
        curve above the estimates) and clips it to [0, 1].
        """
        deltas = np.maximum.accumulate(np.asarray(deltas, dtype=float)[::-1])[::-1]
        return cls(eps_grid, np.clip(deltas, 0.0, 1.0))

    def delta_at(self, eps):
        """delta(eps), interpolated linearly and clamped to the end nodes."""
        return np.interp(eps, self.epsilons, self.deltas)

    def epsilon_at(self, delta_target: float) -> float | None:
        """Smallest tabulated eps with delta(eps) <= delta_target.

        A target at or above the left-end delta clamps to the smallest
        tabulated eps (the profile certifies that point, so the claim is
        valid if loose); a target the curve never descends to returns None.
        Flat stretches resolve to the smallest eps achieving the target.
        """
        d = self.deltas
        if delta_target >= d[0]:
            return float(self.epsilons[0])
        if delta_target < d[-1]:
            return None
        j = int(np.argmax(d <= delta_target))
        if j == 0:
            return float(self.epsilons[0])
        d0, d1 = d[j - 1], d[j]
        if d0 == d1:
            return float(self.epsilons[j])
        t = (d0 - delta_target) / (d0 - d1)
        return float(self.epsilons[j - 1] + t * (self.epsilons[j] - self.epsilons[j - 1]))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text("epsilon,delta", self.epsilons, self.deltas))

    @classmethod
    def from_csv(cls, path) -> "PrivacyProfile":
        eps, deltas = read_csv(path, "epsilon,delta")
        return cls(eps, deltas)
