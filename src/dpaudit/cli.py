"""Command-line front end.

Subcommands: simulate, audit, tradeoff, compose, fit-gdp, canary. Every
command is deterministic given its full flag set including --seed.

Exit codes: 0 success, 2 usage/config errors, 3 input-data errors,
4 numeric-grid overflow, 5 fit failure, 6 a forked worker process that
ended without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import canary, pld
from .canary import (OneShotConfig, WhiteBoxConfig, one_shot_audit, one_shot_scores_gram,
                     whitebox_source)
from .errors import (DegenerateSamplesError, FitError, GridOverflowError, ProfileOrderError,
                     ScoreFileError)
from .estimators import AuditConfig, binning_json, fit_mu_gdp, profile_json, spec_from_config
# the audit of a binned pair; the traced benchmark run wraps the audit under this name
from .estimators import audit_estimate as histogram_audit
from .histogram import (HistogramEstimate, bin_counts, binning_side, build_histograms,
                        counted, estimate_profile)
from .mechanisms import GaussianMechanism, LaplaceMechanism, SubsampledGaussianMechanism
from .profiles import PrivacyProfile
from .scores import both, read_scores, write_scores
from .tradeoff import profile_to_tradeoff

# A white-box side as an array. The CLI streams each side instead
# (whitebox_source); the traced benchmark run wraps the array form under this name.
whitebox_stream = canary.whitebox_stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_GRID = 4
EXIT_FIT = 5
EXIT_CHILD = 6


# argparse dests of the flags that set the binning, and of every audit flag
_BINNING_DESTS = ("bins", "bin_width", "eps_grid")
_AUDIT_DESTS = _BINNING_DESTS + ("json", "delta", "confidence", "curve", "curve_bound")
# argparse dests of each canary mode's own flags; their defaults live in the configs
_CANARY_DESTS = {"one-shot": ("n", "x_norm"),
                 "white-box": ("iterations", "canary_prob", "clip", "nuisance_norm")}


class UsageError(Exception):
    pass


def _parse_fields(text: str, flag: str, types: dict) -> tuple:
    """Split a colon flag value into one field per entry of ``types``
    (field name -> converter), e.g. ``{"lo": float, "hi": float}`` for lo:hi."""
    fields = text.split(":")
    try:
        if len(fields) == len(types):
            return tuple(convert(field) for convert, field in zip(types.values(), fields))
    except ValueError:
        pass
    raise UsageError(f"--{flag} expects {':'.join(types)}, got {text!r}")


def _mechanism_from_args(args) -> object:
    name = args.mechanism  # one of the --mechanism choices
    if name == "gaussian":
        return GaussianMechanism(args.sigma, args.sensitivity)
    if name == "subsampled-gaussian":
        if args.q is None:
            raise UsageError("subsampled-gaussian requires --q")
        return SubsampledGaussianMechanism(args.q, args.sigma)
    return LaplaceMechanism(args.scale, args.sensitivity)


def _fit_sigma_q(spec_text: str) -> float:
    """Parse --fit-sigma (gaussian | mixture:q=<val>) into the mixture's sampling rate q."""
    if spec_text == "gaussian":
        return 1.0  # the Gaussian pair is the mixture at q = 1
    if not spec_text.startswith("mixture:q="):
        raise UsageError(
            f"--fit-sigma expects 'gaussian' or 'mixture:q=<val>', got {spec_text!r}")
    try:
        q = float(spec_text.split("=", 1)[1])
    except ValueError:
        raise UsageError(f"bad --fit-sigma value {spec_text!r}") from None
    if not 0 < q <= 1:  # written so that NaN fails the check
        raise UsageError(f"--fit-sigma needs q in (0, 1], got {spec_text!r}")
    return q


def _refuse_unread(args, dests, reason: str) -> None:
    """Refuse the flags among ``dests`` that were given but would not be read."""
    # a one-letter dest is a short flag (-n)
    given = [("-" if len(dest) == 1 else "--") + dest.replace("_", "-")
             for dest in dests if getattr(args, dest) is not None]
    if given:
        raise UsageError(f"{', '.join(given)} would not be read {reason}")


def _audit_config(args) -> AuditConfig:
    """The AuditConfig of the flags given; a flag left unset keeps the library default."""
    flags = vars(args)  # compose and fit-gdp take no --delta or --confidence
    given = {"bins": args.bins, "bin_width": args.bin_width,
             "confidence": flags.get("confidence"),
             "delta_targets": flags.get("delta") and tuple(args.delta)}
    if args.eps_grid is not None:
        given["eps_grid"] = _parse_fields(args.eps_grid, "eps-grid",
                                          {"lo": float, "hi": float, "m": int})
    return AuditConfig(**{field: value for field, value in given.items() if value is not None})


def _binned(scores, config: AuditConfig, files=None):
    """One sample's side of choosing the bins of a pair as ``config`` says, in
    lock-step with the other sample's side (``scores.both``): send the other
    side this sample's size, then what the binning needs from it, and return
    the shared spec. With ``files``, the paths the pair was read from,
    unequal sizes and no spread to bin are input-data errors naming both."""
    sizes = yield len(scores)
    if files and sizes[0] != sizes[1]:
        raise ScoreFileError(
            f"unequal sample counts: {files[0]} has {sizes[0]}, {files[1]} has {sizes[1]}", None)
    try:
        return (yield from binning_side(scores, sizes, config.bins, config.bin_width))
    except DegenerateSamplesError as exc:
        if not files:
            raise
        raise ScoreFileError(f"{files[0]} and {files[1]}: {exc}") from exc


def _binned_file(path, args, config: AuditConfig):
    """One score file's side of ``_load_histogram``: read the file, bin it and
    count its bins."""
    scores = read_scores(path)
    spec = yield from _binned(scores, config, (args.in_p, args.in_q))
    return spec, bin_counts(scores, spec)


def _load_histogram(args, config: AuditConfig) -> HistogramEstimate:
    """Bin the --in-p/--in-q score files as the config says; a forked child reads
    and bins the second file, so no process holds both samples."""
    (spec, counts_p), (_, counts_q) = both(_binned_file, (args.in_p, args, config),
                                           (args.in_q, args, config))
    return HistogramEstimate.from_counts(spec, counts_p, counts_q)


def _whitebox_side(cfg: WhiteBoxConfig, side: int, path, config: AuditConfig | None):
    """One side of the white-box flow (``whitebox_source``'s side ``side``),
    drawn twice and never held. With ``config``, the first draw bins it in
    lock-step with the other side, and the second counts its bins and
    writes it to ``path``, when given, in one pass; returns the shared spec
    and this side's counts. Without, ``write_scores`` draws it to check it
    and again to write it, and this returns None."""
    scores = whitebox_source(cfg, side)
    if config is None:
        write_scores(path, scores)
        return None
    spec = yield from _binned(scores, config)
    if not path:
        return spec, bin_counts(scores, spec)
    scores, counts = counted(scores, spec)
    write_scores(path, scores)
    return spec, counts


def _refuse_same_file(path_p, path_q) -> None:
    # two processes writing one file would interleave their lines
    if path_p and path_q and os.path.realpath(path_p) == os.path.realpath(path_q):
        raise UsageError(f"{path_p} and {path_q} name the same file")


def _write_pair(path_p, scores_p, path_q, scores_q) -> None:
    """Write each side whose path is given; two files are written at once."""
    if path_p and path_q:
        both(write_scores, (path_p, scores_p), (path_q, scores_q))
    elif path_p or path_q:
        write_scores(*((path_p, scores_p) if path_p else (path_q, scores_q)))


def _write_json(path, text: str) -> None:
    Path(path).write_text(text + "\n", encoding="utf-8")


def _print_report_lines(report) -> None:
    for est in report.epsilons:
        if est.point is None:
            print(f"warning: delta target {est.delta:.6g} unreachable on the "
                  "configured eps grid", file=sys.stderr)
        point = "nan" if est.point is None else f"{est.point:.6g}"
        lower = "nan" if est.lower is None else f"{est.lower:.6g}"
        print(f"delta={est.delta:.6g} eps={point} eps_lower={lower}")


def _write_report(report, args) -> None:
    if args.json:
        _write_json(args.json, report.to_json())
    for path, curve in ((args.curve, report.tradeoff_estimate),
                        (args.curve_bound, report.tradeoff_bound)):
        if path and curve is None:
            print(f"warning: trade-off curve skipped: the estimated delta stays near 1 on "
                  f"the whole eps grid, as when the samples do not overlap; {path} not written",
                  file=sys.stderr)
        elif path:
            curve.to_csv(path)


def cmd_simulate(args) -> int:
    mech = _mechanism_from_args(args)
    _refuse_same_file(args.out_p, args.out_q)
    scores_p, scores_q = mech.sample_pair(args.n, args.seed)
    _write_pair(args.out_p, scores_p, args.out_q, scores_q)
    return EXIT_OK


def cmd_audit(args) -> int:
    config = _audit_config(args)
    fit_sigma_q = _fit_sigma_q(args.fit_sigma) if args.fit_sigma else None
    report = histogram_audit(_load_histogram(args, config), config, fit_sigma_q=fit_sigma_q)
    _print_report_lines(report)
    _write_report(report, args)
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    try:
        profile = PrivacyProfile.from_csv(args.profile)
    except ValueError as exc:
        raise ScoreFileError(f"{args.profile}: {exc}") from exc
    curve = profile_to_tradeoff(profile)
    curve.to_csv(args.out)
    return EXIT_OK


def cmd_compose(args) -> int:
    if args.compositions < 1:
        raise UsageError("--compositions must be >= 1")
    grid = (pld.DEFAULT_GRID if args.grid is None
            else _parse_fields(args.grid, "grid", {"L": float, "m": int}))
    config = _audit_config(args)
    hist = _load_histogram(args, config)
    profile = pld.compose_profile(hist.p_hat, hist.q_hat, args.compositions,
                                  config.eps_values(), grid=grid)
    if args.csv:
        profile.to_csv(args.csv)
    if args.json:
        _write_json(args.json, json.dumps(
            {"method": "composed-heuristic", "compositions": args.compositions, "n": hist.n,
             "heuristic": True, "binning": binning_json(hist.spec),
             "profile": profile_json(profile)}, indent=2))
    stride = max(1, (len(profile.epsilons) - 1) // 8)
    for e, d in zip(profile.epsilons[::stride], profile.deltas[::stride]):
        print(f"epsilon={e:.6g} delta={d:.6g}")
    return EXIT_OK


def cmd_fit_gdp(args) -> int:
    eps_range = _parse_fields(args.eps_range, "eps-range", {"lo": float, "hi": float})
    if args.profile:
        _refuse_unread(args, ("in_p", "in_q") + _BINNING_DESTS, "with --profile")
        try:
            profile = PrivacyProfile.from_csv(args.profile)
        except ProfileOrderError as exc:  # well-formed, but no GDP profile can fit it
            raise FitError(f"cannot fit this profile: {exc}") from exc
        except ValueError as exc:
            raise ScoreFileError(f"{args.profile}: {exc}") from exc
    else:
        if not (args.in_p and args.in_q):
            raise UsageError("fit-gdp needs --profile or both score files")
        config = _audit_config(args)
        profile = estimate_profile(_load_histogram(args, config), config.eps_values())
    mu = fit_mu_gdp(profile, eps_range)
    print(f"mu={mu:.6g}")
    if args.json:
        _write_json(args.json, json.dumps({"mu": mu, "eps_range": list(eps_range)}, indent=2))
    return EXIT_OK


def cmd_canary(args) -> int:
    if not args.audit:
        _refuse_unread(args, _AUDIT_DESTS, "without --audit")
    for mode, dests in _CANARY_DESTS.items():
        if mode != args.mode:
            _refuse_unread(args, dests, f"in {args.mode} mode")
    # a mode flag left unset keeps its config default
    fields = {dest: getattr(args, dest) for dest in _CANARY_DESTS[args.mode]
              if getattr(args, dest) is not None}
    fields.update(d=args.d, sigma=args.sigma, seed=args.seed)
    cfg = (OneShotConfig if args.mode == "one-shot" else WhiteBoxConfig)(**fields)
    config = _audit_config(args) if args.audit else None
    _refuse_same_file(args.out_p, args.out_q)
    report = None
    if args.mode == "one-shot":
        if args.out_p or args.out_q:
            scores_p, scores_q = one_shot_scores_gram(cfg)
            if args.audit:
                spec = spec_from_config(scores_p, scores_q, config)
                report = histogram_audit(build_histograms(scores_p, scores_q, spec), config,
                                         method="one-shot")
            _write_pair(args.out_p, scores_p, args.out_q, scores_q)
        elif args.audit:
            report = one_shot_audit(cfg, config)
    elif args.audit or (args.out_p and args.out_q):
        # the held-in side O' is p, the held-out side O is q; a forked child draws,
        # bins and writes q from its own stream, so no process draws both sides
        binned_p, binned_q = both(_whitebox_side, (cfg, 1, args.out_p, config),
                                  (cfg, 0, args.out_q, config),
                                  child="white-box sampler: the forked process")
        if args.audit:
            report = histogram_audit(HistogramEstimate.from_counts(*binned_p, binned_q[1]),
                                     config)
    elif args.out_p or args.out_q:
        side, path = (1, args.out_p) if args.out_p else (0, args.out_q)
        write_scores(path, whitebox_source(cfg, side))
    if report is not None:
        _print_report_lines(report)
        _write_report(report, args)
    return EXIT_OK


def _add_binning_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of every command that bins two score samples."""
    bins = parser.add_mutually_exclusive_group()
    bins.add_argument("--bins", type=int, help="fixed bin count (default: Scott auto-binning)")
    bins.add_argument("--bin-width", type=float, help="fixed bin width")
    parser.add_argument("--eps-grid", help="profile tabulation grid lo:hi:m")
    parser.add_argument("--json", help="write the result as JSON")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the audit report: its delta targets, confidence and curves."""
    parser.add_argument("--delta", type=float, nargs="+",
                        help="delta targets for the epsilon estimates")
    parser.add_argument("--confidence", type=float)
    parser.add_argument("--curve", help="write the trade-off curve CSV")
    parser.add_argument("--curve-bound",
                        help="write the confidence-bound trade-off curve CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpaudit",
        description="Empirical differential-privacy auditing from score samples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw scores from an analytic mechanism pair")
    p.add_argument("--mechanism", required=True,
                   choices=["gaussian", "subsampled-gaussian", "laplace"])
    p.add_argument("--sigma", type=float, default=1.0, help="noise scale (gaussian family)")
    p.add_argument("--q", type=float, default=None, help="subsampling ratio")
    p.add_argument("--scale", type=float, default=1.0, help="laplace noise scale")
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("-n", type=int, required=True, help="samples per side")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("out_p")
    p.add_argument("out_q")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="histogram audit of two score files")
    p.add_argument("in_p")
    p.add_argument("in_q")
    _add_binning_flags(p)
    _add_report_flags(p)
    p.add_argument("--fit-sigma", default=None,
                   help="attach a sigma estimate: 'gaussian' or 'mixture:q=<val>'")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("tradeoff", help="convert a profile CSV to a trade-off curve CSV")
    p.add_argument("profile")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("compose", help="heuristic composed profile from score files")
    p.add_argument("in_p")
    p.add_argument("in_q")
    p.add_argument("--compositions", type=int, required=True)
    p.add_argument("--grid", help="PLD grid L:m")
    _add_binning_flags(p)
    p.add_argument("--csv", default=None, help="write the composed profile CSV")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("fit-gdp", help="fit the GDP parameter of a profile")
    p.add_argument("--profile", default=None, help="profile CSV (epsilon,delta)")
    p.add_argument("--in-p", dest="in_p", default=None)
    p.add_argument("--in-q", dest="in_q", default=None)
    p.add_argument("--eps-range", default="0:6.5")
    _add_binning_flags(p)
    p.set_defaults(func=cmd_fit_gdp)

    p = sub.add_parser("canary", help="synthetic canary simulators")
    p.add_argument("--mode", required=True, choices=["one-shot", "white-box"])
    p.add_argument("-d", type=int, required=True, help="dimension")
    p.add_argument("-n", type=int, help="canaries per side (one-shot)")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--x-norm", type=float, help="data vector norm (one-shot)")
    p.add_argument("--iterations", type=int, help="steps (white-box)")
    p.add_argument("--canary-prob", type=float, help="canary inclusion probability (white-box)")
    p.add_argument("--clip", type=float, help="clip norm (white-box)")
    p.add_argument("--nuisance-norm", type=float, help="nuisance vector norm (white-box)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-p", default=None, help="score file for the held-in side")
    p.add_argument("--out-q", default=None, help="score file for the held-out side")
    p.add_argument("--audit", action="store_true", help="chain the histogram audit")
    _add_binning_flags(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_canary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        error, code = exc, EXIT_USAGE
    except ChildProcessError as exc:  # an OSError, but no fault of the input
        error, code = exc, EXIT_CHILD
    except (ScoreFileError, OSError) as exc:
        error, code = exc, EXIT_INPUT
    except GridOverflowError as exc:
        error, code = exc, EXIT_GRID
    except FitError as exc:
        error, code = exc, EXIT_FIT
    except MemoryError as exc:  # a sample count (a run gives at most one) too large to allocate
        counts = [f"{flag} {getattr(args, flag.lstrip('-'))}" for flag in ("-n", "--iterations")
                  if getattr(args, flag.lstrip("-"), None) is not None]
        if not counts:
            raise
        error, code = f"{counts[0]}: {str(exc) or 'cannot allocate its arrays'}", EXIT_USAGE
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
