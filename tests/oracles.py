"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the library's own code paths: divergences are
integrated by trapezoid quadrature over dense grids, binomial tails are
summed with exact integer coefficients, closed forms and Clopper-Pearson
ends come straight from scipy's special functions, inverses come from plain
bisection, and score files are parsed one line at a time with Python's
``float`` and spelled one ``repr`` at a time. Memory is read
with tracemalloc, or as the resident size the kernel reports for a fresh
interpreter; a forked child left behind is found with ``waitpid``.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import special

from dpaudit.errors import ScoreFileError


def traced_peak(fn):
    """Peak bytes that ``fn()`` holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# runs argv[1], then prints how far the peak resident size rises above the
# resident size while argv[2] runs
RSS_SCRIPT = """
import sys

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

exec(sys.argv[1])
before = status("VmRSS")
exec(sys.argv[2])
print(status("VmHWM") - before)
"""


def rss_growth(snippet: str, setup: str = "") -> int:
    """Bytes by which the peak resident size (VmHWM) of a fresh interpreter
    rises above its resident size while ``snippet`` runs, after ``setup``.

    Unlike ``traced_peak`` this sees what tracemalloc does not: the copy a
    ``realloc`` makes while it moves a block, and the modules a call imports.
    Linux only: it reads ``/proc/self/status``.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", RSS_SCRIPT, setup, snippet], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return int(done.stdout.splitlines()[-1])


def no_child_left() -> bool:
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def normal_pdf(x, mu=0.0, sigma=1.0):
    x = np.asarray(x, dtype=float)
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def hs_quadrature_normal(alpha, mu_p, mu_q, sigma, nodes=2 ** 16):
    """Trapezoid quadrature of int [N(mu_p, s^2) - alpha N(mu_q, s^2)]_+ dx."""
    lo = min(mu_p, mu_q) - 20.0 * sigma
    hi = max(mu_p, mu_q) + 20.0 * sigma
    x = np.linspace(lo, hi, nodes)
    integrand = np.maximum(normal_pdf(x, mu_p, sigma) - alpha * normal_pdf(x, mu_q, sigma), 0.0)
    return float(np.trapezoid(integrand, x))


def hs_quadrature_mixture(alpha, q, sigma, nodes=2 ** 17):
    """Same quadrature for the pair (q N(1,s^2) + (1-q) N(0,s^2), N(0,s^2))."""
    x = np.linspace(-20.0 * sigma, 1.0 + 20.0 * sigma, nodes)
    p = q * normal_pdf(x, 1.0, sigma) + (1.0 - q) * normal_pdf(x, 0.0, sigma)
    base = normal_pdf(x, 0.0, sigma)
    return float(np.trapezoid(np.maximum(p - alpha * base, 0.0), x))


def mixture_tv_closed_form(q, sigma):
    """TV of the mixture pair collapses to q * (2 Phi(1/(2 sigma)) - 1)."""
    return q * (2.0 * special.ndtr(1.0 / (2.0 * sigma)) - 1.0)


def gaussian_tv_closed_form(sigma):
    return 2.0 * special.ndtr(1.0 / (2.0 * sigma)) - 1.0


def bisect_decreasing(f, target, lo, hi, halvings=200):
    """Plain bisection for f(x) = target with f decreasing on [lo, hi]."""
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def binom_tail_geq(k, n, p):
    """P[Bin(n, p) >= k] by exact coefficient summation."""
    return float(sum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
                     for j in range(k, n + 1)))


def binom_tail_leq(k, n, p):
    """P[Bin(n, p) <= k] by exact coefficient summation."""
    return float(sum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
                     for j in range(0, k + 1)))


def clopper_pearson(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Exact binomial confidence interval via Beta quantiles."""
    if trials < 1 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    half = (1.0 - confidence) / 2.0
    lo = 0.0 if successes == 0 else float(
        special.betaincinv(successes, trials - successes + 1, half))
    hi = 1.0 if successes == trials else float(
        special.betaincinv(successes + 1, trials - successes, 1.0 - half))
    return (lo, hi)


def sample_sphere(d, n, rng):
    """n i.i.d. uniform unit vectors on the (d-1)-sphere, one per row."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    vecs = rng.standard_normal((n, d))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def one_shot_direct(cfg):
    """The one-shot release materialized in d dimensions, O(n d).

    theta = X + the sum of n held-in unit canaries + N(0, sigma^2 I_d), where
    X has norm x_norm on a uniform direction; n held-out canaries are drawn
    alongside. Returns the held-in and held-out inner products with theta.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    held_in = sample_sphere(cfg.d, cfg.n, rng)
    held_out = sample_sphere(cfg.d, cfg.n, rng)
    theta = held_in.sum(axis=0) + rng.normal(0.0, cfg.sigma, cfg.d)
    if cfg.x_norm > 0:
        theta += cfg.x_norm * sample_sphere(cfg.d, 1, rng)[0]
    return held_in @ theta, held_out @ theta


def whitebox_stream_direct(cfg, block=64):
    """The white-box protocol simulated step by step in d dimensions, O(T d).

    Each step draws a unit canary scaled to the clip norm and two noisy
    gradient sums N(0, clip^2 sigma^2 I_d), each plus its own nuisance vector
    of norm nuisance_norm on a uniform direction; the canary joins the primed
    sum with probability canary_prob. Returns (O, O') as inner products with
    the canary.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    noise_scale = cfg.clip * cfg.sigma
    out = np.empty(cfg.iterations)
    out_primed = np.empty(cfg.iterations)
    for start in range(0, cfg.iterations, block):
        rows = min(block, cfg.iterations - start)
        canaries = cfg.clip * sample_sphere(cfg.d, rows, rng)
        grad = rng.normal(0.0, noise_scale, (rows, cfg.d))
        grad_primed = rng.normal(0.0, noise_scale, (rows, cfg.d))
        if cfg.nuisance_norm > 0:
            grad += cfg.nuisance_norm * sample_sphere(cfg.d, rows, rng)
            grad_primed += cfg.nuisance_norm * sample_sphere(cfg.d, rows, rng)
        include = rng.random(rows) < cfg.canary_prob
        sl = slice(start, start + rows)
        out[sl] = np.einsum("ij,ij->i", grad, canaries)
        out_primed[sl] = np.einsum("ij,ij->i", grad_primed, canaries) + include * cfg.clip ** 2
    return out, out_primed


def read_scores_by_line(path):
    """The score-file format read one line at a time with ``float``.

    Blank and '#' lines are skipped; any other line must hold one finite
    float. Raises ScoreFileError carrying the number of the first bad line,
    or None when the file holds no scores.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ScoreFileError(f"line {lineno}: not a number", lineno) from None
            if not math.isfinite(value):
                raise ScoreFileError(f"line {lineno}: non-finite", lineno)
            values.append(value)
    if not values:
        raise ScoreFileError("no scores", None)
    return np.asarray(values, dtype=float)


def score_file_bytes(values):
    """The bytes of a score file holding ``values``: each one's ``repr`` and a newline."""
    return "".join(f"{float(v)!r}\n" for v in values).encode("ascii")
