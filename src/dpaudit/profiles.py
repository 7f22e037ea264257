"""Privacy profiles: the curve eps -> delta(eps) for a mechanism or estimate.

A profile is tabulated on an ascending eps grid with non-increasing delta
values. Profiles built from closed-form mechanisms may also carry the exact
callable, which is used in preference to interpolation where available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ProfileOrderError, ScoreFileError

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

    A wrong header or a row that is not two finite numbers raises
    :class:`ScoreFileError` with the file and line.
    """
    xs, ys = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
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


@dataclass(frozen=True)
class PrivacyProfile:
    """Tabulated eps -> delta curve, optionally backed by an exact function."""

    epsilons: np.ndarray
    deltas: np.ndarray
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    heuristic: bool = False

    def __post_init__(self):
        eps = np.array(self.epsilons, dtype=float)
        del_ = np.array(self.deltas, dtype=float)
        eps.setflags(write=False)
        del_.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "deltas", del_)
        if eps.ndim != 1 or eps.size < 2 or eps.shape != del_.shape:
            raise ValueError("profile needs matching 1-D grids with at least 2 points")
        if not (np.all(np.isfinite(eps)) and np.all(np.diff(eps) > 0)):
            raise ValueError("epsilons must be finite and strictly increasing")
        if not np.all((del_ >= -_MONOTONE_SLACK) & (del_ <= 1 + _MONOTONE_SLACK)):
            raise ValueError("deltas must be finite and lie in [0, 1]")
        if np.any(np.diff(del_) > _MONOTONE_SLACK):
            raise ProfileOrderError("deltas must be non-increasing in eps")

    @classmethod
    def from_function(cls, fn: Callable, eps_grid) -> "PrivacyProfile":
        eps = np.asarray(eps_grid, dtype=float)
        return cls(eps, np.asarray(fn(eps), dtype=float), fn=fn)

    @classmethod
    def envelope(cls, eps_grid, deltas) -> "PrivacyProfile":
        """Profile through raw delta estimates on an ascending eps grid.

        Takes the running maximum from the right (the least non-increasing
        curve above the estimates) and clips it to [0, 1].
        """
        deltas = np.maximum.accumulate(np.asarray(deltas, dtype=float)[::-1])[::-1]
        return cls(eps_grid, np.clip(deltas, 0.0, 1.0))

    def delta_at(self, eps):
        """delta(eps); exact when a callable backs the profile, else interpolated."""
        if self.fn is not None:
            return self.fn(np.asarray(eps, dtype=float))
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
