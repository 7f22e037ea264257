"""Privacy-loss distributions on a uniform grid and their self-composition.

The finite part of a PLD lives on nodes ``i * step`` for integer ``i``; only
the occupied index range is stored. Log-likelihood ratios are rounded UP to
the nearest node, which biases every downstream delta estimate high
(pessimistic), and bins where the denominator vanishes contribute an atom at
+infinity. Composition is c-fold convolution of the finite part, computed as
an rfft power (Koskela, Jalko & Honkela, AISTATS 2020) whose transform is
split into ``PHASES`` short real FFTs and a blocked pass of PHASES-point
FFTs across them (Bailey's four steps). It leaves the composed masses as
PHASES rows in the spectrum's own memory; the infinity atom composes as
1 - (1 - w)**c. delta is read for a whole eps grid from one
blocked pass that sums the nodes between consecutive eps, in
O(block + len(eps)) memory beside the masses, which come either from a
PLD or straight off the phase rows, so composing and reading a profile
holds the spectrum as its only node-length array. A composed profile takes
both directions, p against q and q against p; from ``_FORK_MIN_NODES``
composed nodes on, a forked child takes the second (:func:`scores.both`),
so each process holds one spectrum.
"""

from __future__ import annotations

import math
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
# nodes per block when delta is read off a PLD or the composed phase rows: each
# block is summed in one longdouble pass, so it fixes how every delta rounds;
# temporaries stay O(block)
DELTA_BLOCK = 2 ** 16
# nodes per chunk of the read-out's elementwise work, which leaves the sums alone
_DECAY_CHUNK = 2 ** 13
# composed nodes per direction below which a forked child costs more than it
# saves: forked and in-turn compose_profile tie between 6.0e4 and 7.0e4
# composed nodes (Gaussian score histograms, c = 3-5, 401 eps, medians of 15
# alternating runs) on a 2-vCPU host; at 5e4 nodes forked runs take 7.2-7.5 ms
# against 5.1-5.6 ms in turn, and at 1.5e5 12.2-12.8 ms against 16.0-17.6 ms
_FORK_MIN_NODES = 70_000
# phases of the composing FFT: each is transformed at 1/PHASES of its length
PHASES = 16
# spectrum columns per block of the phase-axis FFTs; temporaries stay O(PHASES * block)
CONVOLVE_BLOCK = 2 ** 9


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
        _require_positive_finite(step=self.step)
        if not math.isfinite(self.grid_start):
            raise ValueError(f"grid_start must be finite, got {self.grid_start!r}")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("masses must be a non-empty 1-D array")
        # written so that NaN fails, with no node-length temporary; an infinite
        # mass fails the total
        if not (arr.min() >= 0 and self.mass_inf >= 0):
            raise ValueError("masses must be non-negative numbers")
        _check_total(float(arr.sum()) + self.mass_inf)

    def node_values(self) -> np.ndarray:
        return _node_values(self.grid_start, self.step, np.arange(self.masses.size))


def _check_total(total: float) -> None:
    """The total-mass rule of PLDGrid, which composed phase rows keep too (NaN fails)."""
    if not abs(total - 1.0) <= PLD_MASS_TOLERANCE:
        raise ValueError(f"total PLD mass {total!r} outside 1 +/- {PLD_MASS_TOLERANCE}")


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
    # a spacing that underflows to 0 or overflows to inf would reach the division below
    if not 0 < step < math.inf:
        raise ValueError(f"2L/m must be positive and finite, got {step!r} from "
                         f"L={half_width!r}, m={m}")

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


def _composed_rows(pld: PLDGrid, c: int) -> tuple[np.ndarray, int]:
    """The masses of the c-fold self-convolution of ``pld`` as ``PHASES`` rows
    in the spectrum's own memory, row p holding nodes p, p + PHASES, ...,
    and the composed node count n. Rows run past n; only nodes below n count.

    The c-th power of the masses' real FFT at a length N = PHASES * M >= n,
    in four steps (Bailey, *FFTs in external or hierarchical memory*, 1990):
    rfft each phase ``masses[p::PHASES]`` at length M; per block of spectrum
    columns k, multiply by the twiddles e^(-2 pi i p k / N), take a
    PHASES-point FFT along the phases, raise to the c-th power, take the
    inverse PHASES-point FFT and multiply by the conjugate twiddles; irfft
    each phase at length M back into its own row. The spectrum is the only
    node-length array; pocketfft's plans and scratch are length M.
    """
    if c < 1:
        raise ValueError("composition count must be >= 1")
    n = (pld.masses.size - 1) * c + 1
    if n > MAX_NODES:
        raise GridOverflowError(
            f"{c}-fold convolution would need more than {MAX_NODES} grid nodes"
        )
    # N >= n keeps the circular convolution from wrapping; an even M puts
    # every phase's Nyquist column in its rfft
    size = 2 * _next_fast_len(-(-n // (2 * PHASES)))
    # row p holds masses[p::PHASES], zero-padded to one length
    phases = np.zeros((PHASES, -(-pld.masses.size // PHASES)))
    phases.T.flat[:pld.masses.size] = pld.masses
    spectrum = np.fft.rfft(phases, size)
    del phases
    for lo in range(0, spectrum.shape[1], CONVOLVE_BLOCK):
        block = spectrum[:, lo:lo + CONVOLVE_BLOCK]
        angle = np.outer(np.arange(PHASES) * (-2.0 * np.pi / (PHASES * size)),
                         np.arange(lo, lo + block.shape[1]))
        twiddle = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=twiddle.real)
        np.sin(angle, out=twiddle.imag)
        full = np.fft.fft(block * twiddle, axis=0)
        full **= c
        block[...] = np.fft.ifft(full, axis=0)
        block *= np.conjugate(twiddle, out=twiddle)
    # each phase's irfft goes through one length-M buffer back into its own row
    buffer = np.empty(size)
    rows = spectrum.view(float)[:, :size]
    for p in range(PHASES):
        rows[p] = np.fft.irfft(spectrum[p], size, out=buffer)
    # FFT round-off leaves tiny negative masses, which PLDGrid rejects
    np.maximum(rows, 0.0, out=rows)
    return rows, n


def _composed_inf(pld: PLDGrid, c: int) -> float:
    """The +infinity atom of the c-fold composition: some copy lands there."""
    return 1.0 - (1.0 - pld.mass_inf) ** c


def self_convolve(pld: PLDGrid, c: int) -> PLDGrid:
    """Distribution of the sum of ``c`` independent copies of ``pld``.

    The phase rows of :func:`_composed_rows`, interleaved into the composed
    masses in one pass. The spectrum and the composed masses are its only
    node-length arrays; :func:`compose_profile` reads delta off the rows
    and never builds the masses.
    """
    if c == 1:
        return pld
    rows, n = _composed_rows(pld, c)
    masses = np.empty((-(-n // PHASES), PHASES))
    masses[...] = rows[:, :masses.shape[0]].T
    # the view keeps the spectrum alive; PLDGrid copies the masses after it
    # goes, so the peak stays at the transform's
    del rows
    return PLDGrid(c * pld.grid_start, pld.step, masses.ravel()[:n], _composed_inf(pld, c))


def _node_values(grid_start: float, step: float, index) -> np.ndarray:
    """The nodes at ``index``: one float expression for every node value,
    which :func:`discrete._count_at_or_below` computes too."""
    return grid_start + step * index


def _segments(cuts: np.ndarray, lo: int, hi: int) -> tuple[int, int, np.ndarray]:
    """The segments k0 to k1 - 1 that meet nodes [lo, hi): the one holding
    lo, then those starting before hi; and where each starts, from lo."""
    k0, k1 = np.searchsorted(cuts, lo, "right") - 1, np.searchsorted(cuts, hi)
    return k0, k1, np.maximum(cuts[k0:k1], lo) - lo


def _read_delta(grid_start: float, step: float, n: int, mass_inf: float, rows: np.ndarray,
                eps):
    """The read-out of :func:`delta_from_pld` for ``n`` nodes from
    ``grid_start`` on, node i's mass at ``rows[i % r, i // r]`` for r rows.

    Each block of ``DELTA_BLOCK`` nodes is gathered in node order into one
    reused longdouble buffer and summed per segment there. Its terms
    m e^-(s - s_f_k) are made in chunks of ``_DECAY_CHUNK`` nodes and written
    over the masses they weigh, so beside the buffer the temporaries are a
    chunk long, and only the block decides how the sums round.
    """
    eps = np.asarray(eps, dtype=float)
    flat = eps.ravel()
    starts, which = np.unique(_count_at_or_below(flat, grid_start, step, 0, n),
                              return_inverse=True)
    cuts = starts[starts < n]  # a first node at n starts an empty segment
    anchors = _node_values(grid_start, step, starts)
    # one entry more than segments, for the empty one a first node at n starts
    mass = np.zeros(cuts.size + 1, dtype=np.longdouble)
    weighted = np.zeros(cuts.size + 1, dtype=np.longdouble)
    r = len(rows)
    buffer = np.empty(DELTA_BLOCK + 2 * r, dtype=np.longdouble)
    for lo in range(int(cuts[0]) if cuts.size else n, n, DELTA_BLOCK):
        hi = min(lo + DELTA_BLOCK, n)
        # whole columns a to b - 1 hold nodes lo to hi - 1
        a, b = lo // r, -(-hi // r)
        buffer[:(b - a) * r].reshape(b - a, r)[...] = rows[:, a:b].T
        block = buffer[lo - a * r:hi - a * r]
        k0, k1, offsets = _segments(cuts, lo, hi)
        mass[k0:k1] += np.add.reduceat(block, offsets)
        for first in range(lo, hi, _DECAY_CHUNK):
            last = min(first + _DECAY_CHUNK, hi)
            j0, j1, pieces = _segments(cuts, first, last)
            # a float arange gives the integer index's node values, bit for bit
            decay = _node_values(grid_start, step, np.arange(float(first), last))
            np.subtract(np.repeat(anchors[j0:j1], np.diff(pieces, append=last - first)), decay,
                        out=decay)
            np.exp(decay, out=decay)
            chunk = block[first - lo:last - lo]
            np.multiply(decay, chunk, out=decay, dtype=float)
            chunk[...] = decay
        weighted[k0:k1] += np.add.reduceat(block, offsets)
    tail_mass = np.cumsum(mass[::-1])[::-1].astype(float)
    tail = weighted.astype(float).tolist()
    factors = np.exp(anchors[:-1] - anchors[1:]).tolist()
    for k in range(len(factors) - 1, -1, -1):
        tail[k] += factors[k] * tail[k + 1]
    # past the last node S0 = S1 = 0, and eps may lie above s_n there
    scale = np.exp(np.minimum(flat - anchors[which], 0.0))
    delta = mass_inf + tail_mass[which] - scale * np.asarray(tail)[which]
    return float(delta[0]) if eps.ndim == 0 else delta.reshape(eps.shape)


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
    eps gives a float. :func:`compose_profile` reads composed PLDs the same
    way, block by block off the transform's phase rows.
    """
    return _read_delta(pld.grid_start, pld.step, pld.masses.size, pld.mass_inf,
                       pld.masses[np.newaxis], eps)


def _composed_delta(pld: PLDGrid, c: int, eps_grid) -> np.ndarray:
    """``delta_from_pld(self_convolve(pld, c), eps_grid)``, bit for bit, read
    block by block off the phase rows of :func:`_composed_rows` through one
    reused buffer, so the spectrum is the only node-length array. It calls
    pocketfft and elementwise numpy only, never BLAS, so it may run in a
    forked child (see :func:`scores.both`)."""
    if c == 1:
        return delta_from_pld(pld, eps_grid)
    rows, n = _composed_rows(pld, c)
    mass_inf = _composed_inf(pld, c)
    full, part = divmod(n, PHASES)
    _check_total(float(rows[:, :full].sum() + rows[:part, full:full + 1].sum()) + mass_inf)
    return _read_delta(c * pld.grid_start, pld.step, n, mass_inf, rows, eps_grid)


def compose_profile(p: DiscreteDistribution, q: DiscreteDistribution, c: int,
                    eps_grid, grid: tuple[float, int] = DEFAULT_GRID) -> PrivacyProfile:
    """Profile of the c-fold composition, symmetrized over both directions.

    From ``_FORK_MIN_NODES`` composed nodes on, a forked child composes and
    reads the backward direction (q against p) while this process does the
    forward one; below that the two run in turn. Either way each direction
    does the same computation, so the profile is the same bit for bit, and
    the forward direction's error wins. Each process holds one spectrum, and
    delta is read off its rows.

    Composed estimates carry no confidence statement and are flagged as
    heuristic.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size < 2:
        raise ValueError("eps_grid needs at least 2 points")
    # the forward PLD's composed length decides the fork; the PLD is dropped and
    # built again in its direction, so in turn one direction's PLDs live at a time
    nodes = (pld_from_discrete(p, q, grid).masses.size - 1) * c + 1
    forward, backward = both(
        lambda a, b: _composed_delta(pld_from_discrete(a, b, grid), c, eps_grid), (p, q), (q, p),
        child="compose: the forked process", fork=nodes >= _FORK_MIN_NODES)
    deltas = np.maximum(forward, backward)
    # up-rounding keeps each direction non-increasing; the envelope guards fp wiggle
    return replace(PrivacyProfile.envelope(eps_grid, deltas), heuristic=True)
