"""The benchmark's workloads: seeded inputs, one CLI operation, and its oracle.

Inputs are generated with numpy from the benchmark seed and written in the
score-file format (one ``repr`` float per line), so set-up cost does not move
when dpaudit changes. Score samples are stratified: draw i is the normal
quantile of a uniform point inside its own 1/n stratum, strata shuffled.
Each sample is still N(0, 1) marginally, but bin counts barely move with the
seed, so the PLD node count, and with it the cost of ``compose``, stays put
from seed to seed.

Every check returns a list of problems; an empty list means the output is
correct. A check may raise on output it cannot read; the runner counts that
as a problem too.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

import oracle

AUDIT_N = 10 ** 6
AUDIT_Q, AUDIT_SIGMA = 0.25, 0.3
AUDIT_DELTAS = (0.01, 0.05)

COMPOSE_N = 10 ** 5
COMPOSE_C = 10
COMPOSE_EPS = (0.0, 10.0, 401)
# sup |delta_hat - delta_true| over the eps grid; about 4e-4 at this commit
# on the stratified inputs (about 0.009 on plain i.i.d. draws)
COMPOSE_TOL = 0.005

WHITEBOX_T, WHITEBOX_D = 10 ** 6, 64
WHITEBOX_Q, WHITEBOX_SIGMA = 0.5, 2.0
# sup |delta_hat - delta_true| of the report's profile; about 1.3e-3 at this commit
WHITEBOX_PROFILE_TOL = 0.005

ONESHOT_D, ONESHOT_N = 2 ** 21, 6000
# over eight seeds at this commit the point estimate at delta = 0.1 stayed
# within 0.07 of the true eps, and the report's profile within 0.02 of the
# true delta(eps); n = 6000 canaries per side leave that much sampling error
ONESHOT_POINT_DELTA, ONESHOT_POINT_TOL = 0.1, 0.25
ONESHOT_PROFILE_TOL = 0.06

# law checks on simulator output, each with a false-alarm rate near 1e-9
KS_ALPHA, KS_STRIDE = 1e-9, 100
ONESHOT_REPLICATES, LAW_SDS = 200, 6.0

CLI_DELTAS = (0.01, 0.05, 0.1)  # the CLI's default --delta targets
CLI_EPS = np.linspace(-10.0, 10.0, 2001)  # the CLI's default --eps-grid

_REPORT_LINE = re.compile(r"^delta=(\S+) eps=(\S+) eps_lower=(\S+)$")


def stratified_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    """n N(0, 1) draws, one per equal-probability stratum, in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return special.ndtri(np.clip(u, 0.1 / n, 1.0 - 0.1 / n))


def write_score_file(path: Path, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(repr, values.tolist())))
        fh.write("\n")


def program_seed(seed: int) -> int:
    """The --seed handed to the simulators, derived from the benchmark seed."""
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def parse_report_lines(stdout: str, deltas) -> tuple[list[tuple[float, float, float]], list[str]]:
    rows, problems = [], []
    lines = [ln for ln in stdout.splitlines() if ln.startswith("delta=")]
    if len(lines) != len(deltas):
        return rows, [f"expected {len(deltas)} delta= lines, got {len(lines)}"]
    for line, delta in zip(lines, deltas):
        m = _REPORT_LINE.match(line)
        if not m:
            problems.append(f"unparsable line {line!r}")
            continue
        row = tuple(float(g) for g in m.groups())
        if not math.isclose(row[0], delta, rel_tol=1e-5):
            problems.append(f"line {line!r} is not for delta={delta}")
        rows.append(row)
    return rows, problems


def check_lower_bounds(rows, truths: dict) -> list[str]:
    problems = []
    for delta, _, lower in rows:
        truth = truths[delta]
        if not math.isfinite(lower) or lower > truth + 1e-9:
            problems.append(f"eps_lower={lower} at delta={delta} is not a valid "
                            f"lower bound of the true eps {truth:.6g}")
    return problems


def check_score_file(path: Path, reference: np.ndarray) -> list[str]:
    """As many finite lines as the reference, drawn from the same law.

    The law check is a two-sample Kolmogorov-Smirnov test at level KS_ALPHA,
    with both empirical CDFs compared at every KS_STRIDE-th reference point;
    the statistic on that subgrid can only be smaller, so the level holds.
    """
    if not path.is_file():
        return [f"{path.name} was not written"]
    values = np.array(path.read_text(encoding="utf-8").split(), dtype=float)
    n, m = values.size, reference.size
    if n != m:
        return [f"{path.name} has {n} lines, expected {m}"]
    if not np.all(np.isfinite(values)):
        return [f"{path.name} holds non-finite values"]
    points = np.arange(KS_STRIDE - 1, m, KS_STRIDE)
    cdf_values = np.searchsorted(np.sort(values), reference[points], side="right") / n
    stat = float(np.max(np.abs(cdf_values - (points + 1) / m)))
    crit = math.sqrt(-0.5 * math.log(KS_ALPHA / 2.0)) * math.sqrt((n + m) / (n * m))
    if stat > crit:
        return [f"{path.name} fails the two-sample KS test against its law: "
                f"D={stat:.4g} > {crit:.4g}"]
    return []


def check_profile(report_path: Path, truth: np.ndarray, tol: float) -> list[str]:
    """The report's point profile stays within tol of the true delta(eps)."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    deltas = np.array([row["delta"] for row in report["profile"]], dtype=float)
    if deltas.shape != truth.shape:
        return [f"{report_path.name} profile has {deltas.size} points, expected {truth.size}"]
    err = float(np.max(np.abs(deltas - truth)))
    if not err <= tol:
        return [f"profile sup |delta_hat - delta_true| = {err:.4g} exceeds {tol}"]
    return []


def _truths(delta_fn, deltas) -> dict:
    return {d: oracle.epsilon_at(delta_fn, d) for d in deltas}


def _fmt(x: float) -> str:
    return repr(float(x))


# ---- audit-1m -------------------------------------------------------------

def audit_prepare(seed: int, indir: Path) -> dict:
    rng = np.random.default_rng(seed)
    in_component = rng.permutation(AUDIT_N) < round(AUDIT_Q * AUDIT_N)
    p = in_component + AUDIT_SIGMA * stratified_normal(rng, AUDIT_N)
    q = AUDIT_SIGMA * stratified_normal(rng, AUDIT_N)
    write_score_file(indir / "p.txt", p)
    write_score_file(indir / "q.txt", q)
    return {"files": [indir / "p.txt", indir / "q.txt"],
            "truth_eps": _truths(lambda e: oracle.subsampled_gaussian_delta(
                e, AUDIT_Q, AUDIT_SIGMA), AUDIT_DELTAS)}


def audit_argv(inputs: dict, out: Path) -> list[str]:
    p, q = inputs["files"]
    return ["audit", str(p), str(q), "--bins", "20", "--confidence", "0.9999",
            "--delta", *map(_fmt, AUDIT_DELTAS), "--json", str(out / "report.json"),
            "--curve", str(out / "curve.csv"), "--fit-sigma", f"mixture:q={AUDIT_Q}"]


def audit_check(inputs: dict, out: Path, stdout: str) -> list[str]:
    rows, problems = parse_report_lines(stdout, AUDIT_DELTAS)
    problems += check_lower_bounds(rows, inputs["truth_eps"])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    lo, hi = report["sigma_estimation"]["sigma_interval"]
    if not lo <= AUDIT_SIGMA <= hi:
        problems.append(f"sigma_interval [{lo}, {hi}] misses sigma={AUDIT_SIGMA}")
    if report["n"] != AUDIT_N:
        problems.append(f"report n={report['n']}, expected {AUDIT_N}")
    if not (out / "curve.csv").is_file():
        problems.append("curve.csv was not written")
    return problems


# ---- compose-c10 ----------------------------------------------------------

def compose_prepare(seed: int, indir: Path) -> dict:
    rng = np.random.default_rng(seed)
    write_score_file(indir / "p.txt", stratified_normal(rng, COMPOSE_N))
    write_score_file(indir / "q.txt", 1.0 + stratified_normal(rng, COMPOSE_N))
    lo, hi, m = COMPOSE_EPS
    eps = np.linspace(lo, hi, m)
    return {"files": [indir / "p.txt", indir / "q.txt"], "eps": eps,
            # c-fold N(0, 1) vs N(1, 1) is N(0, 1) vs N(sqrt(c), 1): q = 1, sigma = c^-1/2
            "truth_delta": oracle.subsampled_gaussian_profile(eps, 1.0, COMPOSE_C ** -0.5)}


def compose_argv(inputs: dict, out: Path) -> list[str]:
    p, q = inputs["files"]
    lo, hi, m = COMPOSE_EPS
    return ["compose", str(p), str(q), "--compositions", str(COMPOSE_C),
            "--eps-grid", f"{lo:g}:{hi:g}:{m}", "--csv", str(out / "composed.csv"),
            "--json", str(out / "composed.json")]


def compose_check(inputs: dict, out: Path, stdout: str) -> list[str]:
    table = np.loadtxt(out / "composed.csv", delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (COMPOSE_EPS[2], 2) or not np.allclose(table[:, 0], inputs["eps"]):
        return [f"composed.csv does not hold the eps grid {COMPOSE_EPS}"]
    err = float(np.max(np.abs(table[:, 1] - inputs["truth_delta"])))
    if not err <= COMPOSE_TOL:
        return [f"sup |delta_hat - delta_true| = {err:.4g} exceeds {COMPOSE_TOL}"]
    return []


# ---- whitebox-1m ----------------------------------------------------------

def whitebox_prepare(seed: int, indir: Path) -> dict:
    # sorted reference draws of the scores' exact law: with clip 1 the
    # held-out side is N(0, sigma^2), the held-in side adds 1 with probability q
    rng = np.random.default_rng(seed)
    ref_q = WHITEBOX_SIGMA * rng.standard_normal(WHITEBOX_T)
    ref_p = WHITEBOX_SIGMA * rng.standard_normal(WHITEBOX_T) + (rng.random(WHITEBOX_T) < WHITEBOX_Q)
    return {"files": [], "seed": program_seed(seed),
            "reference_p": np.sort(ref_p), "reference_q": np.sort(ref_q),
            "truth_eps": _truths(lambda e: oracle.subsampled_gaussian_delta(
                e, WHITEBOX_Q, WHITEBOX_SIGMA), CLI_DELTAS),
            "truth_profile": oracle.subsampled_gaussian_profile(
                CLI_EPS, WHITEBOX_Q, WHITEBOX_SIGMA)}


def whitebox_argv(inputs: dict, out: Path) -> list[str]:
    return ["canary", "--mode", "white-box", "-d", str(WHITEBOX_D),
            "--iterations", str(WHITEBOX_T), "--canary-prob", _fmt(WHITEBOX_Q),
            "--sigma", _fmt(WHITEBOX_SIGMA), "--clip", "1", "--seed", str(inputs["seed"]),
            "--out-p", str(out / "p.txt"), "--out-q", str(out / "q.txt"),
            "--audit", "--json", str(out / "report.json")]


def whitebox_check(inputs: dict, out: Path, stdout: str) -> list[str]:
    rows, problems = parse_report_lines(stdout, CLI_DELTAS)
    problems += check_lower_bounds(rows, inputs["truth_eps"])
    problems += check_profile(out / "report.json", inputs["truth_profile"],
                              WHITEBOX_PROFILE_TOL)
    problems += check_score_file(out / "p.txt", inputs["reference_p"])
    problems += check_score_file(out / "q.txt", inputs["reference_q"])
    return problems


# ---- oneshot-gram ---------------------------------------------------------

def oneshot_prepare(seed: int, indir: Path) -> dict:
    # The scores are not written, but the report's binning [a, b] is the
    # pooled 0.1% / 99.9% quantile pair of the score samples. Its sampling law
    # comes from replicate samples of the scores' marginal law: <c_i, theta>
    # is N(1, sigma^2 + (n-1)/d) for a held-in canary, N(0, sigma^2 + n/d)
    # for a held-out one.
    rng = np.random.default_rng(seed)
    n, d, r = ONESHOT_N, ONESHOT_D, ONESHOT_REPLICATES
    pooled = np.concatenate([1.0 + math.sqrt(1.0 + (n - 1) / d) * rng.standard_normal((r, n)),
                             math.sqrt(1.0 + n / d) * rng.standard_normal((r, n))], axis=1)
    ends = np.quantile(pooled, [0.001, 0.999], axis=1)
    # one-shot scores are the Gaussian mechanism with sensitivity 1: q = 1
    return {"files": [], "seed": program_seed(seed),
            "binning_mean": ends.mean(axis=1), "binning_sd": ends.std(axis=1, ddof=1),
            "truth_eps": _truths(lambda e: oracle.subsampled_gaussian_delta(e, 1.0, 1.0),
                                 CLI_DELTAS),
            "truth_profile": oracle.subsampled_gaussian_profile(CLI_EPS, 1.0, 1.0)}


def oneshot_argv(inputs: dict, out: Path) -> list[str]:
    return ["canary", "--mode", "one-shot", "-d", str(ONESHOT_D), "-n", str(ONESHOT_N),
            "--sigma", "1", "--seed", str(inputs["seed"]), "--audit",
            "--json", str(out / "report.json")]


def oneshot_check(inputs: dict, out: Path, stdout: str) -> list[str]:
    rows, problems = parse_report_lines(stdout, CLI_DELTAS)
    problems += check_lower_bounds(rows, inputs["truth_eps"])
    for delta, point, _ in rows:
        truth = inputs["truth_eps"][delta]
        if delta == ONESHOT_POINT_DELTA and not abs(point - truth) <= ONESHOT_POINT_TOL:
            problems.append(f"eps={point} at delta={delta} is more than "
                            f"{ONESHOT_POINT_TOL} from the true eps {truth:.6g}")
    problems += check_profile(out / "report.json", inputs["truth_profile"],
                              ONESHOT_PROFILE_TOL)
    binning = json.loads((out / "report.json").read_text(encoding="utf-8"))["binning"]
    ends = np.array([binning["a"], binning["b"]], dtype=float)
    off = np.abs(ends - inputs["binning_mean"]) / inputs["binning_sd"]
    if np.any(off > LAW_SDS):
        problems.append(f"binning [a, b] = {ends.tolist()} lies {off.max():.1f} sd from the "
                        f"score law's {inputs['binning_mean'].tolist()}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], dict]
    argv: Callable[[dict, Path], list[str]]
    check: Callable[[dict, Path, str], list[str]]


WORKLOADS = {w.name: w for w in (
    Workload("audit-1m", audit_prepare, audit_argv, audit_check),
    Workload("compose-c10", compose_prepare, compose_argv, compose_check),
    Workload("whitebox-1m", whitebox_prepare, whitebox_argv, whitebox_check),
    Workload("oneshot-gram", oneshot_prepare, oneshot_argv, oneshot_check),
)}
