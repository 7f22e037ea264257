"""Privacy-loss distributions on a uniform grid and their self-composition.

The finite part of a PLD lives on nodes ``i * step`` for integer ``i``; only
the occupied index range is stored. Log-likelihood ratios are rounded UP to
the nearest node, which biases every downstream delta estimate high
(pessimistic), and bins where the denominator vanishes contribute an atom at
+infinity. Composition is c-fold convolution of the finite part, computed as
one rfft power (Koskela, Jalko & Honkela, AISTATS 2020); the infinity atom
composes as 1 - (1 - w)**c. delta is read for a whole eps grid from one
blocked pass that sums the nodes between consecutive eps, in
O(block + len(eps)) memory beside the PLD itself. A composed profile takes
both directions, p against q and q against p; from ``_FORK_MIN_NODES``
composed nodes on, a forked child takes the second (:func:`scores.both`),
so each process holds one composed PLD.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .discrete import DiscreteDistribution, _as_readonly, _check_pair, _count_at_or_below
from .errors import GridOverflowError
from .mechanisms import _require_positive_finite
from .profiles import PrivacyProfile
from .scores import both

DEFAULT_GRID = (40.0, 2 ** 20)
PLD_MASS_TOLERANCE = 1e-6
# largest node array a PLD may occupy, before or after composition
MAX_NODES = 2 ** 26
# nodes per block when delta is read off a PLD; temporaries stay O(block)
DELTA_BLOCK = 2 ** 16
# composed nodes per direction below which a forked child costs more than it
# saves: forked and in-turn compose_profile tie between 1.0e5 and 1.5e5
# composed nodes (Gaussian score histograms, c = 3-5) on a 2-vCPU host; at
# 5e4 nodes the fork alone takes about as long as both directions in turn
_FORK_MIN_NODES = 150_000


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
        arr = _as_readonly(self.masses)
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
        return _node_values(self, np.arange(self.masses.size))


def pld_from_discrete(p: DiscreteDistribution, q: DiscreteDistribution,
                      grid: tuple[float, int] = DEFAULT_GRID) -> PLDGrid:
    """PLD of log(p_j/q_j) under p, rounded up to the grid.

    ``grid`` is ``(L, m)``: nodes spaced ``2L/m`` apart covering [-L, L].
    Bins with p_j > 0 and q_j = 0 feed the +infinity atom; bins with
    p_j = 0 carry no mass. A finite log-ratio beyond L raises
    :class:`GridOverflowError`, as does an occupied span of more than
    ``MAX_NODES`` nodes.
    """
    pv, qv = _check_pair(p, q)
    half_width, m = float(grid[0]), int(grid[1])
    _require_positive_finite(L=half_width)
    if m < 2:
        raise ValueError("grid must be (L > 0, m >= 2)")
    step = 2.0 * half_width / m

    pos = pv > 0
    finite = pos & (qv > 0)
    mass_inf = float(pv[pos & (qv == 0)].sum())

    ratios = np.log(pv[finite]) - np.log(qv[finite])
    if ratios.size == 0:  # all of p's mass sits where q vanishes: mass_inf is 1
        return PLDGrid(0.0, step, np.array([0.0]), mass_inf)
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
    spectrum = np.fft.rfft(pld.masses, size)
    spectrum **= c
    masses = np.fft.irfft(spectrum, size)[:n]
    del spectrum  # before PLDGrid copies the masses: the peak stays at the transform's
    # FFT round-off leaves tiny negative masses, which PLDGrid rejects
    np.maximum(masses, 0.0, out=masses)
    return PLDGrid(c * pld.grid_start, pld.step, masses, 1.0 - (1.0 - pld.mass_inf) ** c)


def _node_values(pld: PLDGrid, index) -> np.ndarray:
    """The nodes at ``index``: one float expression for every node value,
    which :func:`discrete._count_at_or_below` computes too."""
    return pld.grid_start + pld.step * index


def _first_above(pld: PLDGrid, eps: np.ndarray) -> np.ndarray:
    """Index of the first node above each eps: ``searchsorted(node_values(),
    eps, "right")``, found without the node array (NaN sorts past the end)."""
    return _count_at_or_below(eps, pld.grid_start, pld.step, 0, pld.masses.size)


def delta_from_pld(pld: PLDGrid, eps):
    """mass_inf + E[1 - exp(eps - s)]_+ over the finite part, for each eps.

    The distinct first nodes f_0 < f_1 < ... above the eps cut the support
    from f_0 on into segments [f_k, f_k+1). One pass over those nodes, in
    blocks of ``DELTA_BLOCK``, sums m and m e^-(s - s_f_k) per segment. Chained
    from the right with factors e^-(s_f_k+1 - s_f_k), they give the suffix
    sums S0 of m and S1 of m e^-(s - s_f_k) from each f_k, and
    delta = mass_inf + S0 - e^(eps - s_f_k) S1. Every exponent is <= 0, so
    nothing overflows however far the support reaches, and the extra memory
    is O(DELTA_BLOCK + len(eps)). The eps may come in any order; a scalar
    eps gives a float.
    """
    eps = np.asarray(eps, dtype=float)
    flat = eps.ravel()
    n = pld.masses.size
    starts, which = np.unique(_first_above(pld, flat), return_inverse=True)
    cuts = starts[starts < n]  # a first node at n starts an empty segment
    anchors = _node_values(pld, starts)
    # one entry more than segments, for the empty one a first node at n starts
    mass = np.zeros(cuts.size + 1, dtype=np.longdouble)
    weighted = np.zeros(cuts.size + 1, dtype=np.longdouble)
    for lo in range(int(cuts[0]) if cuts.size else n, n, DELTA_BLOCK):
        hi = min(lo + DELTA_BLOCK, n)
        # the segments that meet [lo, hi): the one holding lo, then those starting before hi
        k0, k1 = np.searchsorted(cuts, lo, "right") - 1, np.searchsorted(cuts, hi)
        offsets = np.maximum(cuts[k0:k1], lo) - lo
        decay = _node_values(pld, np.arange(lo, hi))
        np.subtract(np.repeat(anchors[k0:k1], np.diff(offsets, append=hi - lo)), decay,
                    out=decay)
        np.exp(decay, out=decay)
        decay *= pld.masses[lo:hi]
        mass[k0:k1] += np.add.reduceat(pld.masses[lo:hi], offsets, dtype=np.longdouble)
        weighted[k0:k1] += np.add.reduceat(decay, offsets, dtype=np.longdouble)
    tail_mass = np.cumsum(mass[::-1])[::-1].astype(float)
    tail = weighted.astype(float).tolist()
    factors = np.exp(anchors[:-1] - anchors[1:]).tolist()
    for k in range(len(factors) - 1, -1, -1):
        tail[k] += factors[k] * tail[k + 1]
    # past the last node S0 = S1 = 0, and eps may lie above s_n there
    scale = np.exp(np.minimum(flat - anchors[which], 0.0))
    delta = pld.mass_inf + tail_mass[which] - scale * np.asarray(tail)[which]
    return float(delta[0]) if eps.ndim == 0 else delta.reshape(eps.shape)


def _composed_delta(p: DiscreteDistribution, q: DiscreteDistribution, c: int, eps_grid,
                    grid: tuple[float, int]) -> np.ndarray:
    """delta(eps) of the c-fold composition of the PLD of p against q. It calls
    pocketfft and elementwise numpy only, never BLAS, so it may run in a forked
    child (see :func:`scores.both`)."""
    return delta_from_pld(self_convolve(pld_from_discrete(p, q, grid), c), eps_grid)


def compose_profile(p: DiscreteDistribution, q: DiscreteDistribution, c: int,
                    eps_grid, grid: tuple[float, int] = DEFAULT_GRID) -> PrivacyProfile:
    """Profile of the c-fold composition, symmetrized over both directions.

    From ``_FORK_MIN_NODES`` composed nodes on, a forked child composes and
    reads the backward direction (q against p) while this process does the
    forward one; below that the two run in turn. Either way each direction
    does the same computation, so the profile is the same bit for bit, and
    the forward direction's error wins. Each process holds one composed PLD.

    Composed estimates carry no confidence statement and are flagged as
    heuristic.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size < 2:
        raise ValueError("eps_grid needs at least 2 points")
    # the forward PLD's composed length decides the fork; the PLD is dropped and
    # built again in its direction, so in turn one direction's PLDs live at a time
    nodes = (pld_from_discrete(p, q, grid).masses.size - 1) * c + 1
    forward, backward = both(_composed_delta, (p, q, c, eps_grid, grid),
                             (q, p, c, eps_grid, grid), child="compose: the forked process",
                             fork=nodes >= _FORK_MIN_NODES)
    deltas = np.maximum(forward, backward)
    # up-rounding keeps each direction non-increasing; the envelope guards fp wiggle
    return replace(PrivacyProfile.envelope(eps_grid, deltas), heuristic=True)
