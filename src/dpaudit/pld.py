"""Privacy-loss distributions on a uniform grid and their self-composition.

The finite part of a PLD lives on nodes ``i * step`` for integer ``i``; only
the occupied index range is stored. Log-likelihood ratios are rounded UP to
the nearest node, which biases every downstream delta estimate high
(pessimistic), and bins where the denominator vanishes contribute an atom at
+infinity. Composition is c-fold convolution of the finite part, computed as
one rfft power (Koskela, Jalko & Honkela, AISTATS 2020); the infinity atom
composes as 1 - (1 - w)**c. delta is read for a whole eps grid from one
suffix-sum pass over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .discrete import DiscreteDistribution, _prefix_sums
from .errors import GridOverflowError
from .profiles import PrivacyProfile

DEFAULT_GRID = (40.0, 2 ** 20)
PLD_MASS_TOLERANCE = 1e-6
# largest node array a PLD may occupy, before or after composition
MAX_NODES = 2 ** 26


@dataclass(frozen=True)
class PLDGrid:
    """Discretized privacy-loss distribution.

    ``masses[i]`` sits at log-likelihood-ratio value ``grid_start + i*step``;
    ``mass_inf`` is the atom at +infinity. Total mass must be 1 within
    ``PLD_MASS_TOLERANCE``.
    """

    grid_start: float
    step: float
    masses: np.ndarray = field()
    mass_inf: float = 0.0

    def __post_init__(self):
        arr = np.array(self.masses, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "masses", arr)
        if self.step <= 0:
            raise ValueError("step must be positive")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("masses must be a non-empty 1-D array")
        if np.any(arr < 0) or self.mass_inf < 0:
            raise ValueError("masses must be non-negative")
        total = float(arr.sum()) + self.mass_inf
        if abs(total - 1.0) > PLD_MASS_TOLERANCE:
            raise ValueError(f"total PLD mass {total!r} outside 1 +/- {PLD_MASS_TOLERANCE}")

    def node_values(self) -> np.ndarray:
        return self.grid_start + self.step * np.arange(self.masses.size)


def pld_from_discrete(p: DiscreteDistribution, q: DiscreteDistribution,
                      grid: tuple[float, int] = DEFAULT_GRID) -> PLDGrid:
    """PLD of log(p_j/q_j) under p, rounded up to the grid.

    ``grid`` is ``(L, m)``: nodes spaced ``2L/m`` apart covering [-L, L].
    Bins with p_j > 0 and q_j = 0 feed the +infinity atom; bins with
    p_j = 0 carry no mass. A finite log-ratio beyond L raises
    :class:`GridOverflowError`, as does an occupied span of more than
    ``MAX_NODES`` nodes.
    """
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    half_width, m = float(grid[0]), int(grid[1])
    if half_width <= 0 or m < 2:
        raise ValueError("grid must be (L > 0, m >= 2)")
    step = 2.0 * half_width / m

    pv, qv = p.probs, q.probs
    pos = pv > 0
    finite = pos & (qv > 0)
    mass_inf = float(pv[pos & (qv == 0)].sum())

    ratios = np.log(pv[finite]) - np.log(qv[finite])
    if ratios.size == 0:
        return PLDGrid(0.0, step, np.array([0.0]), mass_inf) if mass_inf else PLDGrid(0.0, step, np.array([1.0]), 0.0)
    worst = float(np.max(np.abs(ratios)))
    if worst > half_width:
        raise GridOverflowError(
            f"log-likelihood ratio {worst:.3f} exceeds grid half-width L={half_width}; "
            "rerun with a larger L"
        )
    # ceiling with a relative guard so exact node hits are not pushed up a node
    idx = np.ceil(ratios / step - 1e-9).astype(np.int64)
    lo, hi = int(idx.min()), int(idx.max())
    if hi - lo + 1 > MAX_NODES:
        raise GridOverflowError(
            f"log-likelihood ratios span {hi - lo + 1} grid nodes, more than "
            f"{MAX_NODES}; rerun with a coarser grid (smaller m)")
    masses = np.zeros(hi - lo + 1)
    np.add.at(masses, idx - lo, pv[finite])
    return PLDGrid(lo * step, step, masses, mass_inf)


def _next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the real-transform length that
    ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # f35 times the smallest power of two that reaches n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def self_convolve(pld: PLDGrid, c: int) -> PLDGrid:
    """Distribution of the sum of ``c`` independent copies of ``pld``."""
    if c < 1:
        raise ValueError("composition count must be >= 1")
    if c == 1:
        return pld
    n = (pld.masses.size - 1) * c + 1
    if n > MAX_NODES:
        raise GridOverflowError(
            f"{c}-fold convolution would need more than {MAX_NODES} grid nodes"
        )
    # a transform length >= n keeps the circular convolution from wrapping
    size = _next_fast_len(n)
    masses = np.fft.irfft(np.fft.rfft(pld.masses, size) ** c, size)[:n]
    mass_inf = 1.0 - (1.0 - pld.mass_inf) ** c
    # FFT round-off leaves tiny negative masses, which PLDGrid rejects
    return PLDGrid(c * pld.grid_start, pld.step, np.maximum(masses, 0.0), mass_inf)


def delta_from_pld(pld: PLDGrid, eps):
    """mass_inf + E[1 - exp(eps - s)]_+ over the finite part, for each eps.

    With j the first node above eps, delta = mass_inf + S0[j] - e^eps S1[j],
    where S0 and S1 are suffix sums of m and m e^-s. S1 is kept as a log
    (``logaddexp``), so no e^-s overflows however far the support reaches.
    A scalar eps gives a float.
    """
    masses, s = pld.masses, pld.node_values()
    # suffix sums run from the right; index n (past the last node) is empty
    tail_mass = _prefix_sums(masses, np.arange(masses.size - 1, -1, -1))[::-1]
    with np.errstate(divide="ignore"):
        log_terms = np.log(masses) - s
    log_tail = np.append(np.logaddexp.accumulate(log_terms[::-1])[::-1], -np.inf)
    first = np.searchsorted(s, eps, side="right")
    delta = pld.mass_inf + tail_mass[first] - np.exp(eps + log_tail[first])
    return float(delta) if np.ndim(delta) == 0 else delta


def compose_profile(p: DiscreteDistribution, q: DiscreteDistribution, c: int,
                    eps_grid, grid: tuple[float, int] = DEFAULT_GRID) -> PrivacyProfile:
    """Profile of the c-fold composition, symmetrized over both directions.

    Composed estimates carry no confidence statement and are flagged as
    heuristic.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size < 2:
        raise ValueError("eps_grid needs at least 2 points")
    forward = self_convolve(pld_from_discrete(p, q, grid), c)
    backward = self_convolve(pld_from_discrete(q, p, grid), c)
    deltas = np.maximum(delta_from_pld(forward, eps_grid), delta_from_pld(backward, eps_grid))
    # up-rounding keeps each direction non-increasing; the envelope guards fp wiggle
    return replace(PrivacyProfile.envelope(eps_grid, deltas), heuristic=True)
