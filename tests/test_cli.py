import argparse
import functools
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dpaudit import canary, cli, pld
from dpaudit.canary import WhiteBoxConfig
from dpaudit.cli import _audit_config, _load_histogram, build_parser, main
from dpaudit.errors import GridOverflowError
from dpaudit.estimators import AuditConfig, fit_mu_gdp, histogram_audit
from dpaudit.histogram import BIN_BLOCK, auto_spec, bin_counts
from dpaudit.mechanisms import SIGMA_RANGE, GaussianMechanism
from dpaudit.profiles import PrivacyProfile
from dpaudit.scores import WRITE_BLOCK, both, read_scores, write_scores
from dpaudit.tradeoff import TradeoffCurve, validate

from oracles import no_child_left, score_file_bytes, traced_peak


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """The exit code of a run, also when argparse itself refuses the arguments."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


# one-shot canaries at sigma = 0.1 on d = 4096: the held-in and held-out
# scores do not overlap, so the estimated delta stays at 1
NON_OVERLAPPING = ["--mode", "one-shot", "-d", 4096, "-n", 50, "--sigma", 0.1, "--seed", 3]


@pytest.fixture
def constant_files(tmp_path):
    p, q = tmp_path / "c_p.txt", tmp_path / "c_q.txt"
    for path in (p, q):
        path.write_text("1.0\n1.0\n1.0\n", encoding="utf-8")
    return p, q


@pytest.fixture
def gaussian_files(tmp_path):
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    assert run("simulate", "--mechanism", "gaussian", "--sigma", 1.0,
               "-n", 20000, "--seed", 7, p, q) == 0
    return p, q


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        a1, b1 = tmp_path / "a1.txt", tmp_path / "b1.txt"
        a2, b2 = tmp_path / "a2.txt", tmp_path / "b2.txt"
        for out in ((a1, b1), (a2, b2)):
            assert run("simulate", "--mechanism", "subsampled-gaussian",
                       "--q", 0.25, "--sigma", 0.3, "-n", 1000, "--seed", 3,
                       out[0], out[1]) == 0
        assert a1.read_bytes() == a2.read_bytes()
        assert b1.read_bytes() == b2.read_bytes()

    def test_one_file_for_both_sides_exit_2(self, tmp_path, capsys):
        # the two sides are written at once, so one file would get both interleaved
        a, same = tmp_path / "a.txt", f"{tmp_path}/./a.txt"
        assert run("simulate", "--mechanism", "gaussian", "-n", 5, a, same) == 2
        assert capsys.readouterr().err == f"error: {a} and {same} name the same file\n"
        assert not a.exists()

    def test_zero_samples_usage_error(self, tmp_path):
        assert run("simulate", "--mechanism", "gaussian", "-n", 0, "--seed", 1,
                   tmp_path / "p.txt", tmp_path / "q.txt") == 2

    def test_bad_mechanism_params(self, tmp_path):
        assert run("simulate", "--mechanism", "gaussian", "--sigma", -1.0,
                   "-n", 10, tmp_path / "p.txt", tmp_path / "q.txt") == 2

    def test_missing_q_for_mixture(self, tmp_path):
        assert run("simulate", "--mechanism", "subsampled-gaussian", "--sigma", 0.3,
                   "-n", 10, tmp_path / "p.txt", tmp_path / "q.txt") == 2


class TestAudit:
    def test_identical_files_give_zero(self, tmp_path, capsys):
        p = tmp_path / "p.txt"
        assert run("simulate", "--mechanism", "gaussian", "-n", 500, "--seed", 5,
                   p, tmp_path / "unused.txt") == 0
        assert run("audit", p, p, "--delta", 0.01, 0.05) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("delta=")]
        assert lines == ["delta=0.01 eps=0 eps_lower=0", "delta=0.05 eps=0 eps_lower=0"]

    def test_output_format_and_json(self, gaussian_files, tmp_path, capsys):
        p, q = gaussian_files
        report_path = tmp_path / "report.json"
        curve_path = tmp_path / "curve.csv"
        assert run("audit", p, q, "--delta", 0.05, "--json", report_path,
                   "--curve", curve_path) == 0
        out = capsys.readouterr().out
        assert out.startswith("delta=0.05 eps=")
        doc = json.loads(report_path.read_text())
        assert doc["n"] == 20000
        assert doc["eps"][0]["delta"] == 0.05
        assert curve_path.read_text().startswith("alpha,beta\n")

    def test_unequal_counts_exit_3(self, tmp_path, capsys):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("1.0\n2.0\n", encoding="utf-8")
        q.write_text("1.0\n", encoding="utf-8")
        assert run("audit", p, q) == 3
        assert capsys.readouterr().err == f"error: unequal sample counts: {p} has 2, {q} has 1\n"

    def test_malformed_line_exit_3(self, tmp_path, capsys):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("1.0\nabc\n", encoding="utf-8")
        q.write_text("1.0\n2.0\n", encoding="utf-8")
        assert run("audit", p, q) == 3
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_file_exit_3(self, tmp_path, capsys):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_bytes(b"1.0\n\xff\n")
        q.write_text("1.0\n2.0\n", encoding="utf-8")
        assert run("audit", p, q) == 3
        assert capsys.readouterr().err == f"error: {p}: line 2: not UTF-8 text\n"

    def test_fit_sigma_interval_past_the_map_is_one_sided(self, tmp_path, capsys):
        # at 5000 scores per side the TV interval reaches above q = 0.25, the
        # largest TV the mixture map gives: sigma's interval starts at SIGMA_RANGE's end
        p, q, report = tmp_path / "p.txt", tmp_path / "q.txt", tmp_path / "r.json"
        assert run("simulate", "--mechanism", "subsampled-gaussian", "--q", 0.25,
                   "--sigma", 0.5, "-n", 5000, "--seed", 1, p, q) == 0
        assert run("audit", p, q, "--fit-sigma", "mixture:q=0.25", "--json", report) == 0
        assert capsys.readouterr().err == ""
        block = json.loads(report.read_text())["sigma_estimation"]
        assert block["tv_interval"][1] > 0.25
        assert block["sigma_interval"][0] == SIGMA_RANGE[0]
        assert block["sigma"] < block["sigma_interval"][1] < SIGMA_RANGE[1]

    def test_fit_sigma_outside_the_map_exit_5(self, tmp_path, capsys):
        # N(0, 1) against N(3, 1): TV-hat itself lies far above q = 0.01
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        assert run("simulate", "--mechanism", "gaussian", "--sigma", 1, "--sensitivity", 3,
                   "-n", 5000, "--seed", 1, p, q) == 0
        assert run("audit", p, q, "--fit-sigma", "mixture:q=0.01") == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot map the TV estimate ")
        assert "outside the range" in err

    @pytest.mark.parametrize("value", ["0", "1.5", "-1", "nan", "inf"])
    def test_fit_sigma_q_outside_the_unit_interval_exit_2(self, tmp_path, capsys, value):
        # checked when the flag is parsed: the missing score file is never opened
        missing = tmp_path / "missing.txt"
        assert run("audit", missing, missing, "--fit-sigma", f"mixture:q={value}") == 2
        assert capsys.readouterr().err == (
            f"error: --fit-sigma needs q in (0, 1], got 'mixture:q={value}'\n")

    def test_fit_sigma_gaussian_is_the_mixture_at_q_1(self, gaussian_files, tmp_path, capsys):
        p, q = gaussian_files
        outs, reports = [], []
        for spec in ("gaussian", "mixture:q=1"):
            reports.append(tmp_path / f"{spec}.json")
            assert run("audit", p, q, "--fit-sigma", spec, "--json", reports[-1]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
        assert reports[0].read_bytes() == reports[1].read_bytes()
        block = json.loads(reports[0].read_text())["sigma_estimation"]
        assert block["sigma_interval"][0] < 1.0 < block["sigma_interval"][1]

    @pytest.mark.parametrize("spec,error", [
        ("laplace", "--fit-sigma expects 'gaussian' or 'mixture:q=<val>', got 'laplace'"),
        ("mixture:q=abc", "bad --fit-sigma value 'mixture:q=abc'"),
    ])
    def test_malformed_fit_sigma_exit_2(self, tmp_path, capsys, spec, error):
        missing = tmp_path / "missing.txt"
        assert run("audit", missing, missing, "--fit-sigma", spec) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_fixed_bins_and_sigma_block(self, tmp_path, capsys):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        assert run("simulate", "--mechanism", "subsampled-gaussian", "--q", 0.25,
                   "--sigma", 0.3, "-n", 1000000, "--seed", 1, p, q) == 0
        report_path = tmp_path / "report.json"
        assert run("audit", p, q, "--bins", 20, "--confidence", 0.9999,
                   "--fit-sigma", "mixture:q=0.25", "--json", report_path) == 0
        doc = json.loads(report_path.read_text())
        block = doc["sigma_estimation"]
        assert block["tv"] == pytest.approx(0.2256, abs=0.01)
        assert block["sigma"] == pytest.approx(0.302, abs=0.01)
        lo, hi = block["sigma_interval"]
        assert lo == pytest.approx(0.285, abs=0.01)
        assert hi == pytest.approx(0.32, abs=0.01)


# (file text, 1-based line at fault): a bad header, a wrong field count, a non-number
MALFORMED_PROFILES = [
    ("eps,delta\n0,0.5\n1,0.1\n", 1),
    ("epsilon,delta\n0,0.5\n1,0.1,7\n", 3),
    ("epsilon,delta\n0,0.5\n1,abc\n", 3),
]

# a profile CSV with a Latin-1 byte on line 3
LATIN1_PROFILE = "epsilon,delta\n0,0.5\n1,0.1 caf\xe9\n2,0.01\n".encode("latin-1")


class TestLoadHistogramMemory:
    """The score files are binned each in the process that reads it."""

    N = 2 * 10 ** 5

    @pytest.mark.parametrize("binning", [[], ["--bins", "20"], ["--bin-width", "0.1"]])
    def test_this_process_holds_one_side(self, tmp_path, binning):
        rng = np.random.default_rng(21)
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        write_scores(p, rng.normal(0, 1, self.N))
        write_scores(q, rng.normal(1, 1, self.N))
        args = build_parser().parse_args(["audit", str(p), str(q), *binning])
        config = _audit_config(args)
        hist = None

        def load():
            nonlocal hist
            hist = _load_histogram(args, config)

        # one side's values plus a few blocks of binning temporaries; holding the
        # other side too would add another 8 * N bytes
        assert traced_peak(load) < 8 * self.N + 3 * 8 * BIN_BLOCK
        assert hist.n == self.N
        assert no_child_left()

    @pytest.fixture(scope="class")
    def sizes(self, tmp_path_factory):
        """Score files of 2 * 10**5 and of 10**6 scores per side."""
        rng = np.random.default_rng(22)
        files = {}
        for n in (2 * 10 ** 5, 10 ** 6):
            files[n] = [tmp_path_factory.mktemp("memory") / name for name in ("p.txt", "q.txt")]
            for path, mean in zip(files[n], (0.0, 1.0)):
                write_scores(path, rng.normal(mean, 1.0, n))
        return files

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="without os.fork one process bins both")
    @pytest.mark.parametrize("binning", [[], ["--bins", "20"], ["--bin-width", "0.001"]])
    def test_a_side_grows_by_4_bytes_a_score(self, sizes, binning):
        peaks = []
        for n, (p, q) in sorted(sizes.items()):
            args = build_parser().parse_args(["audit", str(p), str(q), *binning])
            config = _audit_config(args)
            peaks.append(traced_peak(lambda: _load_histogram(args, config)))
        # the float32 copy of this side's scores; holding them exact took 8 bytes a score
        assert (peaks[1] - peaks[0]) / (10 ** 6 - 2 * 10 ** 5) <= 4.5
        assert no_child_left()


class TestHeldScoreFiles:
    """Each score file is parsed once and held as float32; the few values whose
    bin float32 cannot tell are parsed again from the file."""

    N = 4000

    @pytest.fixture(scope="class")
    def pair(self):
        """Two samples whose middles hold every breakpoint of their --bins 20
        binning and both its float64 neighbours, so counting them takes exact
        values, and the report the audit of the two gives."""
        rng = np.random.default_rng(31)
        pair = [rng.normal(0.0, 1.0, self.N), rng.normal(0.5, 1.0, self.N)]
        spec = auto_spec(*pair, k=20)
        t = spec.breakpoints()
        for x in pair:
            # values near the median, replaced by values as near: no quantile moves
            middle = np.flatnonzero(np.abs(x - np.median(x)) < 0.5)[:3 * t.size]
            x[middle] = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)])
        assert auto_spec(*pair, k=20) == spec
        report = histogram_audit(*pair, AuditConfig(bins=20)).to_json() + "\n"
        return pair, report

    @staticmethod
    def audit(p, q, out, capsys):
        """The exit code, captured output and JSON of ``audit p q --bins 20``."""
        code = run("audit", p, q, "--bins", 20, "--json", out)
        return code, capsys.readouterr(), out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("form", ["plain", "comments", "crlf", "no last line feed",
                                      "exponent", "carriage returns"])
    def test_text_forms_give_the_exact_report(self, tmp_path, capsys, monkeypatch, pair, form):
        samples, report = pair
        reads = []
        exact = cli.HeldScores.exact

        def counted_exact(held, indices):
            reads.append(indices.size)
            return exact(held, indices)

        monkeypatch.setattr(cli.HeldScores, "exact", counted_exact)
        paths = [tmp_path / "p.txt", tmp_path / "q.txt"]
        for path, x in zip(paths, samples):
            lines = [f"{v:.17e}" if form == "exponent" else repr(v) for v in x.tolist()]
            if form == "comments":
                lines[:0] = ["# scores", ""]
                lines[self.N // 2:self.N // 2] = ["", "  # a note", "\t"]
            newline = {"crlf": "\r\n", "carriage returns": "\r"}.get(form, "\n")
            end = "" if form == "no last line feed" else newline
            path.write_bytes((newline.join(lines) + end).encode("ascii"))
        code, (out, err), json_text = self.audit(*paths, tmp_path / "r.json", capsys)
        assert (code, err, json_text) == (0, "", report)
        assert out.startswith("delta=0.01 eps=")
        # this process's side was parsed again in part, unless the line loop
        # read it, as it reads lines ended by carriage returns alone, and it is held exact
        assert (sum(reads) > 0) == (form != "carriage returns")
        assert no_child_left()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipes_give_the_exact_report(self, tmp_path, capsys, pair):
        samples, report = pair
        writers = []
        for name, x in zip("pq", samples):
            (tmp_path / f"{name}.txt").write_bytes(score_file_bytes(x))
            os.mkfifo(tmp_path / f"{name}.fifo")
            # a writer process, since the audit forks and a fork takes no other thread
            writers.append(subprocess.Popen([sys.executable, "-c",
                                             "import sys; open(sys.argv[2], 'wb').write("
                                             "open(sys.argv[1], 'rb').read())",
                                             tmp_path / f"{name}.txt", tmp_path / f"{name}.fifo"]))
        try:
            code, (_, err), json_text = self.audit(tmp_path / "p.fifo", tmp_path / "q.fifo",
                                                   tmp_path / "r.json", capsys)
        finally:
            for writer in writers:
                writer.wait(timeout=60)
        assert (code, err, json_text) == (0, "", report)
        assert no_child_left()

    # other digits with each line as long as before, or other lines
    @pytest.mark.parametrize("rewrite", [lambda text: text.replace(b"3", b"4"),
                                         lambda text: text.replace(b"\n", b"0\n")],
                             ids=["digits", "lines"])
    def test_file_rewritten_before_the_second_read_exit_3(self, tmp_path, capsys, monkeypatch,
                                                          pair, rewrite):
        (x_p, x_q), _ = pair
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        write_scores(p, x_p)
        write_scores(q, x_q)
        exact = cli.HeldScores.exact

        def rewritten(held, indices):
            if held.path == str(p):
                p.write_bytes(rewrite(p.read_bytes()))
            return exact(held, indices)

        monkeypatch.setattr(cli.HeldScores, "exact", rewritten)
        assert run("audit", p, q, "--bins", 20) == 3
        assert capsys.readouterr() == ("", f"error: {p}: changed while it was read\n")
        assert no_child_left()


class TestTradeoffCommand:
    def test_profile_to_curve(self, tmp_path):
        prof_path = tmp_path / "profile.csv"
        GaussianMechanism(1.0).profile(np.linspace(-10, 10, 1001)).to_csv(prof_path)
        out_path = tmp_path / "curve.csv"
        assert run("tradeoff", prof_path, "--out", out_path) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,beta"
        assert len(lines) >= 513

    def test_eps_beyond_exp_overflow(self, tmp_path):
        prof_path = tmp_path / "profile.csv"
        prof_path.write_text("epsilon,delta\n0,0.9\n750,0.8\n800,0\n", encoding="utf-8")
        out_path = tmp_path / "curve.csv"
        assert run("tradeoff", prof_path, "--out", out_path) == 0
        assert validate(TradeoffCurve.from_csv(out_path)) == []

    @pytest.mark.parametrize("text,lineno", MALFORMED_PROFILES)
    def test_malformed_profile_exit_3(self, tmp_path, capsys, text, lineno):
        prof_path = tmp_path / "bad.csv"
        prof_path.write_text(text, encoding="utf-8")
        assert run("tradeoff", prof_path, "--out", tmp_path / "curve.csv") == 3
        assert f"{prof_path}: line {lineno}:" in capsys.readouterr().err

    def test_non_utf8_profile_exit_3(self, tmp_path, capsys):
        prof_path = tmp_path / "latin1.csv"
        prof_path.write_bytes(LATIN1_PROFILE)
        assert run("tradeoff", prof_path, "--out", tmp_path / "curve.csv") == 3
        assert capsys.readouterr().err.endswith("line 3: not UTF-8 text\n")

    def test_empty_profile_exit_3(self, tmp_path, capsys):
        prof_path = tmp_path / "empty.csv"
        prof_path.write_text("", encoding="utf-8")
        assert run("tradeoff", prof_path, "--out", tmp_path / "curve.csv") == 3
        assert f"{prof_path}: profile needs" in capsys.readouterr().err

    def test_profile_csv_reexport_idempotent(self, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        GaussianMechanism(0.7).profile(np.linspace(-4, 4, 101)).to_csv(first)
        PrivacyProfile.from_csv(first).to_csv(second)
        assert first.read_bytes() == second.read_bytes()


class TestCompose:
    def test_single_composition_consistent_with_audit(self, gaussian_files, tmp_path):
        p, q = gaussian_files
        csv_path = tmp_path / "composed.csv"
        # a leading dash needs the --flag=value spelling
        assert run("compose", p, q, "--compositions", 1, "--bins", 40,
                   "--eps-grid=-6:6:121", "--csv", csv_path) == 0
        composed = PrivacyProfile.from_csv(csv_path)
        report = histogram_audit(np.loadtxt(p), np.loadtxt(q),
                                 AuditConfig(bins=40, eps_grid=(-6.0, 6.0, 121)))
        step = 2 * 40.0 / 1048576
        assert np.all(composed.deltas >= report.profile.deltas - 1e-9)
        assert np.all(composed.deltas <= report.profile.deltas + 2 * step)

    def test_heuristic_marker_in_json(self, gaussian_files, tmp_path):
        p, q = gaussian_files
        json_path = tmp_path / "composed.json"
        assert run("compose", p, q, "--compositions", 5, "--bins", 30,
                   "--json", json_path) == 0
        doc = json.loads(json_path.read_text())
        assert doc["heuristic"] is True
        assert doc["method"] == "composed-heuristic"
        assert doc["compositions"] == 5

    def test_non_overlapping_samples_compose_to_delta_1(self, tmp_path, capsys):
        # no bin holds both samples, so each direction's PLD is all at +infinity
        op, oq = tmp_path / "p.txt", tmp_path / "q.txt"
        assert run("canary", *NON_OVERLAPPING, "--out-p", op, "--out-q", oq) == 0
        assert run("compose", op, oq, "--compositions", 2) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert all(line.startswith("epsilon=") and line.endswith(" delta=1") for line in lines)

    def test_zero_compositions_usage_error(self, gaussian_files):
        p, q = gaussian_files
        assert run("compose", p, q, "--compositions", 0) == 2

    def test_grid_overflow_exit_4(self, gaussian_files):
        # a tiny half-width cannot hold the tail bins' log-ratios
        p, q = gaussian_files
        assert run("compose", p, q, "--compositions", 2, "--bins", 40,
                   "--grid", "0.5:1024") == 4

    def test_single_composition_node_cap_exit_4(self, gaussian_files):
        # c = 1 skips the convolution guard; the PLD build must refuse the
        # ~10**11-node array that m = 2**40 asks for
        p, q = gaussian_files
        tracemalloc.start()
        try:
            code = run("compose", p, q, "--compositions", 1, "--bins", 40,
                       "--grid", f"40:{2 ** 40}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 64 * 2 ** 20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the directions run in turn without os.fork")
class TestComposeTwoProcesses:
    """A forked child composes the backward direction; its failures keep today's exit codes."""

    @pytest.fixture(autouse=True)
    def always_fork(self, monkeypatch):
        monkeypatch.setattr(pld, "_FORK_MIN_NODES", 0)

    @staticmethod
    def in_child(monkeypatch, action):
        """Patch ``pld._composed_rows`` to run ``action`` in the forked child only."""
        parent, compose = os.getpid(), pld._composed_rows

        def patched(grid, c):
            if os.getpid() != parent:
                action()
            return compose(grid, c)

        monkeypatch.setattr(pld, "_composed_rows", patched)

    def test_backward_grid_overflow_exit_4(self, gaussian_files, capsys, monkeypatch):
        def overflow():
            raise GridOverflowError("2-fold convolution would need more than 67108864 "
                                    "grid nodes")

        self.in_child(monkeypatch, overflow)
        assert run("compose", *gaussian_files, "--compositions", 2) == 4
        assert capsys.readouterr() == (
            "", "error: 2-fold convolution would need more than 67108864 grid nodes\n")
        assert no_child_left()

    def test_child_without_a_result_exits_6(self, gaussian_files, capsys, monkeypatch):
        self.in_child(monkeypatch, lambda: os._exit(7))
        assert run("compose", *gaussian_files, "--compositions", 2) == 6
        assert capsys.readouterr() == (
            "", "error: compose: the forked process ended without a result (exit status 7)\n")
        assert no_child_left()


class TestFitGdp:
    def test_exact_gaussian_profile(self, tmp_path, capsys):
        prof_path = tmp_path / "profile.csv"
        GaussianMechanism(0.5).profile(np.linspace(-2, 6, 801)).to_csv(prof_path)
        assert run("fit-gdp", "--profile", prof_path, "--eps-range", "0:4") == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("mu=")
        assert float(out.split("=")[1]) == pytest.approx(2.0, abs=1e-3)

    def test_non_monotone_profile_exit_5(self, tmp_path):
        prof_path = tmp_path / "bad.csv"
        prof_path.write_text("epsilon,delta\n0,0.1\n1,0.5\n2,0.01\n", encoding="utf-8")
        assert run("fit-gdp", "--profile", prof_path) == 5

    @pytest.mark.parametrize("text,lineno", MALFORMED_PROFILES)
    def test_malformed_profile_exit_3(self, tmp_path, capsys, text, lineno):
        prof_path = tmp_path / "bad.csv"
        prof_path.write_text(text, encoding="utf-8")
        assert run("fit-gdp", "--profile", prof_path) == 3
        assert f"{prof_path}: line {lineno}:" in capsys.readouterr().err

    def test_non_utf8_profile_exit_3(self, tmp_path, capsys):
        prof_path = tmp_path / "latin1.csv"
        prof_path.write_bytes(LATIN1_PROFILE)
        assert run("fit-gdp", "--profile", prof_path) == 3
        assert capsys.readouterr().err.endswith("line 3: not UTF-8 text\n")

    def test_empty_profile_exit_3(self, tmp_path, capsys):
        prof_path = tmp_path / "empty.csv"
        prof_path.write_text("", encoding="utf-8")
        assert run("fit-gdp", "--profile", prof_path) == 3
        assert f"error: {prof_path}: " in capsys.readouterr().err

    def test_profile_refuses_score_files(self, gaussian_files, tmp_path, capsys):
        prof_path = tmp_path / "profile.csv"
        GaussianMechanism(0.5).profile(np.linspace(-2, 6, 801)).to_csv(prof_path)
        p, q = gaussian_files
        assert run("fit-gdp", "--profile", prof_path, "--in-p", p, "--in-q", q) == 2
        assert capsys.readouterr().err == "error: --in-p, --in-q would not be read with --profile\n"

    def test_missing_inputs_exit_2(self):
        assert run("fit-gdp") == 2

    def test_score_files_fit_the_audited_profile(self, gaussian_files, capsys):
        p, q = gaussian_files
        assert run("fit-gdp", "--in-p", p, "--in-q", q, "--bins", 40,
                   "--eps-range", "0:4") == 0
        report = histogram_audit(np.loadtxt(p), np.loadtxt(q),
                                 AuditConfig(bins=40))
        assert capsys.readouterr().out == f"mu={fit_mu_gdp(report.profile, (0.0, 4.0)):.6g}\n"

    def test_json_holds_the_printed_mu(self, gaussian_files, tmp_path, capsys):
        p, q = gaussian_files
        report_path = tmp_path / "fit.json"
        assert run("fit-gdp", "--in-p", p, "--in-q", q, "--eps-range", "0:4",
                   "--json", report_path) == 0
        doc = json.loads(report_path.read_text())
        assert doc["eps_range"] == [0.0, 4.0]
        assert capsys.readouterr().out == f"mu={doc['mu']:.6g}\n"

    def test_non_overlapping_score_files(self, tmp_path, capsys):
        op, oq = tmp_path / "p.txt", tmp_path / "q.txt"
        assert run("canary", *NON_OVERLAPPING, "--out-p", op, "--out-q", oq) == 0
        capsys.readouterr()
        assert run("fit-gdp", "--in-p", op, "--in-q", oq) == 5
        assert "delta = 1" in capsys.readouterr().err


class TestCanaryCommand:
    def test_one_shot_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            op = tmp_path / f"{tag}_p.txt"
            oq = tmp_path / f"{tag}_q.txt"
            assert run("canary", "--mode", "one-shot", "-d", 4096, "-n", 100,
                       "--sigma", 1.0, "--seed", 9, "--out-p", op, "--out-q", oq) == 0
            outs.append((op.read_bytes(), oq.read_bytes()))
        assert outs[0] == outs[1]

    def test_one_shot_held_in_file_alone(self, tmp_path):
        op, oq, alone = tmp_path / "p.txt", tmp_path / "q.txt", tmp_path / "alone.txt"
        flags = ["--mode", "one-shot", "-d", 4096, "-n", 100, "--seed", 9]
        assert run("canary", *flags, "--out-p", op, "--out-q", oq) == 0
        assert run("canary", *flags, "--out-p", alone) == 0
        assert alone.read_bytes() == op.read_bytes()

    def test_one_shot_audit_report(self, tmp_path, capsys):
        assert run("canary", "--mode", "one-shot", "-d", 16384, "-n", 500,
                   "--sigma", 1.0, "--seed", 4, "--audit", "--delta", 0.05) == 0
        out = capsys.readouterr().out
        assert "delta=0.05 eps=" in out

    def test_one_shot_files_hold_the_audited_scores(self, tmp_path, capsys):
        flags = ["--delta", 0.01, 0.1, "--confidence", 0.9]
        op, oq = tmp_path / "p.txt", tmp_path / "q.txt"
        assert run("canary", "--mode", "one-shot", "-d", 2 ** 21, "-n", 64, "--seed", 3,
                   "--audit", "--out-p", op, "--out-q", oq, *flags) == 0
        from_canary = capsys.readouterr().out
        assert run("audit", op, oq, *flags) == 0
        from_files = capsys.readouterr().out
        assert from_canary.count("delta=") == 2
        assert from_canary == from_files

    @pytest.mark.parametrize("mode_flags", [
        ["--mode", "one-shot", "-d", 4096, "-n", 50],
        ["--mode", "white-box", "-d", 64, "--iterations", 50],
    ])
    def test_unreachable_target_warns(self, tmp_path, capsys, mode_flags):
        # both modes give an N(1, 1) / N(0, 1) pair, whose delta stays near
        # TV = 0.38 on [0, 0.001], above both targets; canary warns as audit does
        flags = ["--delta", 0.01, 0.1, "--eps-grid", "0:0.001:2"]
        op, oq = tmp_path / "p.txt", tmp_path / "q.txt"
        assert run("canary", *mode_flags, "--seed", 3, "--audit",
                   "--out-p", op, "--out-q", oq, *flags) == 0
        from_canary = capsys.readouterr()
        assert run("audit", op, oq, *flags) == 0
        from_files = capsys.readouterr()
        assert from_canary.out.count("eps=nan") == 2
        assert from_canary.err.count("warning: delta target") == 2
        assert (from_canary.out, from_canary.err) == (from_files.out, from_files.err)

    def test_non_overlapping_samples_print_eps(self, tmp_path, capsys):
        op, oq = tmp_path / "p.txt", tmp_path / "q.txt"
        curves = [tmp_path / "c.csv", tmp_path / "b.csv"]
        report_path = tmp_path / "report.json"
        flags = ["--curve", curves[0], "--curve-bound", curves[1], "--json", report_path]
        assert run("canary", *NON_OVERLAPPING, "--audit", "--out-p", op, "--out-q", oq,
                   *flags) == 0
        from_canary = capsys.readouterr()
        lines = from_canary.out.splitlines()
        assert [line.split(" eps=")[0] for line in lines] == [
            "delta=0.01", "delta=0.05", "delta=0.1"]
        assert all(" eps=nan " in line for line in lines)
        assert from_canary.err.count("warning: trade-off curve skipped") == 2
        assert not any(path.exists() for path in curves)
        assert json.loads(report_path.read_text())["curves"] == {"estimate": None, "bound": None}
        assert run("audit", op, oq, *flags) == 0
        assert capsys.readouterr() == from_canary
        assert not any(path.exists() for path in curves)

    @pytest.mark.parametrize("flags,field", [
        (["--mode", "one-shot", "-n", 10, "--sigma", "nan"], "sigma"),
        (["--mode", "one-shot", "-n", 10, "--x-norm", "inf"], "x_norm"),
        (["--mode", "white-box", "--sigma", "nan"], "sigma"),
        (["--mode", "white-box", "--clip", "inf"], "clip"),
        (["--mode", "white-box", "--nuisance-norm", "nan"], "nuisance_norm"),
    ])
    def test_non_finite_config_exit_2(self, capsys, flags, field):
        assert run("canary", "-d", 8, *flags, "--audit") == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")

    def test_invalid_dimension_exit_2(self, tmp_path):
        assert run("canary", "--mode", "one-shot", "-d", 0, "-n", 10) == 2

    def test_whitebox_stream_files(self, tmp_path):
        op, oq = tmp_path / "o.txt", tmp_path / "oq.txt"
        assert run("canary", "--mode", "white-box", "-d", 256, "--iterations", 500,
                   "--canary-prob", 0.5, "--sigma", 2.0, "--clip", 1.0,
                   "--seed", 2, "--out-p", op, "--out-q", oq) == 0
        assert len(op.read_text().splitlines()) == 500
        assert len(oq.read_text().splitlines()) == 500

    def test_one_shot_audit_and_files_draw_once(self, tmp_path, capsys, monkeypatch):
        draws = []

        def counted(draw):
            def wrapper(cfg):
                draws.append(cfg)
                return draw(cfg)
            return wrapper

        for owner in (cli, canary):
            monkeypatch.setattr(owner, "one_shot_scores_gram",
                                counted(owner.one_shot_scores_gram))
        op, oq = tmp_path / "p.txt", tmp_path / "q.txt"
        assert run("canary", "--mode", "one-shot", "-d", 4096, "-n", 300, "--seed", 5,
                   "--audit", "--out-p", op, "--out-q", oq) == 0
        assert len(draws) == 1
        from_canary = capsys.readouterr().out
        assert run("audit", op, oq) == 0
        assert capsys.readouterr().out == from_canary

    @pytest.mark.parametrize("out,side", [("--out-p", 1), ("--out-q", 0)])
    def test_whitebox_one_file_draws_its_side_here(self, tmp_path, monkeypatch, out, side):
        sides, draw = [], canary._whitebox_blocks

        def recorded(cfg, side, out=None):
            sides.append(side)
            return draw(cfg, side, out)

        monkeypatch.setattr(canary, "_whitebox_blocks", recorded)
        path = tmp_path / "scores.txt"
        assert run("canary", "--mode", "white-box", "-d", 8, "--iterations", 300,
                   "--canary-prob", 0.5, "--seed", 6, out, path) == 0
        # this process drew the side itself, once to check it and once to write
        # it: a forked child would have taken q
        assert sides == [side, side]
        cfg = WhiteBoxConfig(iterations=300, canary_prob=0.5, sigma=1.0, d=8, seed=6)
        assert np.array_equal(read_scores(path), canary.whitebox_stream(cfg)[side])


class TestWhiteboxTwoProcesses:
    """Each white-box side is drawn, binned and written in its own process."""

    T = 2 * 10 ** 5

    @pytest.mark.parametrize("binning", [["--bins", "20"], ["--bin-width", "0.1"], []])
    def test_this_process_holds_one_side(self, tmp_path, capsys, binning):
        def canary_run(iterations):
            return main(["canary", "--mode", "white-box", "-d", "64", "--iterations",
                         str(iterations), "--canary-prob", "0.5", "--audit",
                         "--out-p", str(tmp_path / "p.txt"),
                         "--out-q", str(tmp_path / "q.txt"), *binning])

        # a first audit's one-off imports and caches are no part of the samples
        assert canary_run(1000) == 0
        block = np.random.default_rng(24).normal(size=WRITE_BLOCK)
        writer = traced_peak(lambda: write_scores(tmp_path / "block.txt", block))
        codes = []
        peaks = [traced_peak(lambda: codes.append(canary_run(t))) for t in (self.T, 10 ** 6)]
        # no side: the writer's block buffers and a few block-sized temporaries
        # (the draw, its canary mask, its bin indices); holding this side would
        # add 8 * T bytes, and holding it at 10**6 steps 6.4 MB more than at T
        assert peaks[0] < writer + 4 * 8 * canary._WHITEBOX_BLOCK
        assert abs(peaks[1] - peaks[0]) < 2 ** 20
        assert codes == [0, 0]
        assert no_child_left()
        assert len(read_scores(tmp_path / "q.txt")) == 10 ** 6

    @pytest.mark.parametrize("iterations", [1, canary._WHITEBOX_BLOCK - 1,
                                            canary._WHITEBOX_BLOCK + 3,
                                            3 * canary._WHITEBOX_BLOCK])
    @pytest.mark.parametrize("nuisance_norm", [0.0, 0.5])
    @pytest.mark.parametrize("binning", [{}, {"bins": 20}, {"bin_width": 0.1}],
                             ids=["scott", "bins", "bin-width"])
    def test_streamed_side_is_the_held_side(self, tmp_path, iterations, nuisance_norm,
                                            binning):
        cfg = WhiteBoxConfig(iterations=iterations, canary_prob=0.5, sigma=2.0, d=64,
                             seed=7, nuisance_norm=nuisance_norm)
        config = AuditConfig(**binning)
        paths = [tmp_path / "p.txt", tmp_path / "q.txt"]
        streamed = functools.partial(both, cli._whitebox_side, (cfg, 1, str(paths[0]), config),
                                     (cfg, 0, str(paths[1]), config), fork=False)
        held = [canary.whitebox_stream(cfg, side) for side in (1, 0)]
        try:
            spec = auto_spec(*held, k=config.bins, width=config.bin_width)
        except ValueError as exc:  # one step per side leaves too few values for 20 bins
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                streamed()
            return
        for (got, counts), scores, path in zip(streamed(), held, paths):
            assert got == spec
            assert np.array_equal(counts, bin_counts(scores, spec))
            write_scores(tmp_path / "held.txt", scores)
            assert path.read_bytes() == (tmp_path / "held.txt").read_bytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the sides run in turn without os.fork")
    def test_child_without_a_result_exits_6(self, tmp_path, capsys, monkeypatch):
        op, oq = tmp_path / "p.txt", tmp_path / "q.txt"
        write = cli.write_scores

        def dies_on_q(path, scores):
            if path == str(oq):
                os._exit(7)
            write(path, scores)

        monkeypatch.setattr(cli, "write_scores", dies_on_q)
        assert run("canary", "--mode", "white-box", "-d", 8, "--iterations", 1000,
                   "--audit", "--out-p", op, "--out-q", oq) == 6
        assert capsys.readouterr() == (
            "", "error: white-box sampler: the forked process ended without a result "
                "(exit status 7)\n")
        assert no_child_left()
        assert not oq.exists()

    @pytest.mark.parametrize("audit", [[], ["--audit"]])
    def test_one_file_for_both_sides_exit_2_before_the_draw(self, tmp_path, capsys,
                                                             monkeypatch, audit):
        def refused(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(canary, "_whitebox_blocks", refused)
        a, same = tmp_path / "a.txt", f"{tmp_path}/./a.txt"
        assert run("canary", "--mode", "white-box", "-d", 8, *audit,
                   "--out-p", a, "--out-q", same) == 2
        assert capsys.readouterr() == ("", f"error: {a} and {same} name the same file\n")
        assert list(tmp_path.iterdir()) == []

    def test_binning_error_writes_no_file(self, tmp_path, capsys):
        assert run("canary", "--mode", "white-box", "-d", 8, "--iterations", 1000, "--audit",
                   "--bin-width", "1e-300", "--json", tmp_path / "r.json",
                   "--out-p", tmp_path / "p.txt", "--out-q", tmp_path / "q.txt") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bin width 1e-300 is too small for the span [")
        assert list(tmp_path.iterdir()) == []
        assert no_child_left()


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            run("frobnicate")
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["audit", "p", "q", "--eps-grid", "1:2"], "--eps-grid expects lo:hi:m, got '1:2'"),
        (["audit", "p", "q", "--eps-grid", "0:1:x"], "--eps-grid expects lo:hi:m"),
        (["compose", "p", "q", "--compositions", 2, "--grid", "40"],
         "--grid expects L:m, got '40'"),
        (["compose", "p", "q", "--compositions", 2, "--grid", "40:1:2"], "--grid expects L:m"),
        (["fit-gdp", "--in-p", "p", "--in-q", "q", "--eps-range", "abc"],
         "--eps-range expects lo:hi, got 'abc'"),
        (["fit-gdp", "--profile", "g.csv", "--eps-range", "1:x"],
         "--eps-range expects lo:hi, got '1:x'"),
    ])
    def test_bad_colon_flag_exit_2(self, tmp_path, capsys, argv, message):
        # the flags are parsed before any file is read: none of these exist
        paths = {"p", "q", "g.csv"}
        assert run(*(tmp_path / a if a in paths else a for a in argv)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


BINNING_FLAGS = {"--bins", "--bin-width", "--eps-grid", "--json"}
REPORT_FLAGS = {"--delta", "--confidence", "--curve", "--curve-bound"}
# every flag and positional each subcommand registers (-h aside)
REGISTERED = {
    "simulate": {"--mechanism", "--sigma", "--q", "--scale", "--sensitivity", "-n", "--seed",
                 "out_p", "out_q"},
    "audit": {"in_p", "in_q", "--fit-sigma"} | BINNING_FLAGS | REPORT_FLAGS,
    "tradeoff": {"profile", "--out"},
    "compose": {"in_p", "in_q", "--compositions", "--grid", "--csv"} | BINNING_FLAGS,
    "fit-gdp": {"--profile", "--in-p", "--in-q", "--eps-range"} | BINNING_FLAGS,
    "canary": {"--mode", "-d", "-n", "--sigma", "--x-norm", "--iterations", "--canary-prob",
               "--clip", "--nuisance-norm", "--seed", "--out-p", "--out-q", "--audit"}
              | BINNING_FLAGS | REPORT_FLAGS,
}


def registered_flags() -> dict:
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {command: {action.option_strings[0] if action.option_strings else action.dest
                      for action in sub._actions if not isinstance(action, argparse._HelpAction)}
            for command, sub in subparsers.choices.items()}


class TestFlags:
    def test_each_subcommand_registers_only_the_flags_it_reads(self):
        flags = registered_flags()
        assert flags == REGISTERED
        assert {command: len(names) for command, names in flags.items()} == {
            "simulate": 9, "audit": 11, "tradeoff": 2, "compose": 9, "fit-gdp": 8, "canary": 21}

    @pytest.mark.parametrize("argv", [
        ["audit", "p", "q"],
        ["compose", "p", "q", "--compositions", "2"],
        ["fit-gdp"],
        ["canary", "--mode", "one-shot", "-d", "8", "--audit"],
    ])
    def test_unset_flags_build_the_library_defaults(self, argv):
        assert _audit_config(build_parser().parse_args(argv)) == AuditConfig()

    def test_unset_grid_is_the_library_default(self, gaussian_files, monkeypatch):
        grids = []

        def compose_profile(p_hat, q_hat, c, eps_grid, grid):
            grids.append(grid)
            return PrivacyProfile([0.0, 1.0], [0.5, 0.1])

        monkeypatch.setattr(pld, "compose_profile", compose_profile)
        assert run("compose", *gaussian_files, "--compositions", 2) == 0
        assert grids == [pld.DEFAULT_GRID]

    @pytest.mark.parametrize("command", [["audit"], ["compose", "--compositions", 2]])
    def test_bins_and_bin_width_exclude_each_other(self, gaussian_files, capsys, command):
        argv = [command[0], *gaussian_files, *command[1:]]
        assert exit_code(*argv, "--bins", 20, "--bin-width", 0.01) == 2
        assert "not allowed with argument --bins" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["1e-320", "1e-300"])
    def test_bin_width_too_small_for_the_span_exit_2(self, tmp_path, capsys, width):
        rng = np.random.default_rng(18)
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        for path, mean in ((p, 0.0), (q, 1.0)):
            path.write_text("".join(f"{v!r}\n" for v in rng.normal(mean, 1, 4002).tolist()))
        assert run("audit", p, q, "--bin-width", width) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: bin width {float(width)!r} is too small for the span [")
        assert err.endswith("more bins than the 8004 pooled samples\n")
        assert err.count("\n") == 1

    # sizes whose allocation fails at once, so a missing check shows as exit 1
    @pytest.mark.parametrize("flag,value,error", [
        ("--bins", 10 ** 15, "bin count k = 1000000000000000 is more than the 6 pooled samples"),
        ("--eps-grid", "0:1:1000000000000000",
         "eps_grid has 1000000000000000 points, more than the 1048576 allowed"),
    ], ids=["bins", "eps-grid"])
    @pytest.mark.parametrize("command", [["audit"], ["compose", "--compositions", 2]])
    def test_oversized_binning_flag_exit_2(self, tmp_path, capsys, command, flag, value, error):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        for path in (p, q):
            path.write_text("0.0\n1.0\n2.0\n", encoding="utf-8")
        assert run(command[0], p, q, *command[1:], flag, value) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    # counts whose arrays cannot be allocated at all, in this process and, with
    # both white-box sides, in the forked child too
    @pytest.mark.parametrize("argv,flag", [
        (["simulate", "--mechanism", "gaussian", "-n", 10 ** 15, "p.txt", "q.txt"], "-n"),
        (["canary", "--mode", "white-box", "-d", 8, "--iterations", 10 ** 15,
          "--out-p", "p.txt"], "--iterations"),
        (["canary", "--mode", "white-box", "-d", 8, "--iterations", 10 ** 15, "--audit",
          "--out-p", "p.txt", "--out-q", "q.txt"], "--iterations"),
        (["canary", "--mode", "one-shot", "-d", 8, "-n", 10 ** 15, "--out-p", "p.txt"], "-n"),
    ], ids=["simulate", "white-box", "white-box-audit", "one-shot"])
    def test_oversized_sample_count_exit_2(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {flag} {10 ** 15}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", sorted(REPORT_FLAGS))
    def test_compose_and_fit_gdp_refuse_report_flags(self, gaussian_files, tmp_path, flag):
        value = 0.3 if flag in ("--delta", "--confidence") else tmp_path / "c.csv"
        assert exit_code("compose", *gaussian_files, "--compositions", 2, flag, value) == 2
        p, q = gaussian_files
        assert exit_code("fit-gdp", "--in-p", p, "--in-q", q, flag, value) == 2
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("flags,given", [
        (["--bins", 5], "--bins"),
        (["--bin-width", 0.1], "--bin-width"),
        (["--eps-grid", "0:1:3", "--bins", 5], "--bins, --eps-grid"),
    ])
    def test_fit_gdp_profile_refuses_binning_flags(self, tmp_path, capsys, flags, given):
        # refused before the profile is read: the file does not exist
        assert run("fit-gdp", "--profile", tmp_path / "g.csv", *flags) == 2
        assert capsys.readouterr().err == f"error: {given} would not be read with --profile\n"

    @pytest.mark.parametrize("flag,value", [
        ("--json", "r.json"), ("--curve", "c.csv"), ("--delta", 0.1), ("--bins", 10),
    ])
    def test_canary_refuses_audit_flags_without_audit(self, tmp_path, capsys, flag, value):
        if isinstance(value, str):
            value = tmp_path / value
        assert run("canary", "--mode", "white-box", "-d", 8, "--iterations", 10,
                   "--out-p", tmp_path / "p.txt", flag, value) == 2
        assert capsys.readouterr().err.endswith("would not be read without --audit\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode,flags,given", [
        ("one-shot", ["--clip", 9, "--iterations", 3], "--iterations, --clip"),
        ("one-shot", ["--canary-prob", 0.5], "--canary-prob"),
        ("one-shot", ["--nuisance-norm", 0], "--nuisance-norm"),
        ("white-box", ["-n", 5], "-n"),
        ("white-box", ["--x-norm", 0, "-n", 1], "-n, --x-norm"),
    ])
    def test_canary_refuses_the_other_modes_flags(self, tmp_path, capsys, mode, flags, given):
        assert run("canary", "--mode", mode, "-d", 8, *flags,
                   "--out-p", tmp_path / "p.txt") == 2
        assert capsys.readouterr().err == f"error: {given} would not be read in {mode} mode\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode,defaults", [
        ("one-shot", ["-n", 1, "--x-norm", 0]),
        ("white-box", ["--iterations", 1000, "--canary-prob", 1, "--clip", 1,
                       "--nuisance-norm", 0]),
    ])
    def test_unset_canary_flags_keep_their_defaults(self, tmp_path, mode, defaults):
        files = []
        for tag, flags in (("unset", []), ("given", defaults)):
            out = [tmp_path / f"{tag}_p.txt", tmp_path / f"{tag}_q.txt"]
            assert run("canary", "--mode", mode, "-d", 8, *flags,
                       "--out-p", out[0], "--out-q", out[1]) == 0
            files.append([path.read_bytes() for path in out])
        assert files[0] == files[1]

    @pytest.mark.parametrize("argv,field", [
        (["simulate", "--mechanism", "gaussian", "--sigma", "nan"], "sigma"),
        (["simulate", "--mechanism", "gaussian", "--sensitivity", "inf"], "sensitivity"),
        (["simulate", "--mechanism", "subsampled-gaussian", "--q", 0.5, "--sigma=-inf"],
         "sigma"),
        (["simulate", "--mechanism", "laplace", "--scale", "nan"], "scale"),
        (["simulate", "--mechanism", "laplace", "--sensitivity", "inf"], "l1_sensitivity"),
        (["audit", "--bin-width", "nan"], "width"),
        (["audit", "--bin-width", "inf"], "width"),
        (["compose", "--compositions", 2, "--grid", "nan:1024"], "L"),
        (["compose", "--compositions", 2, "--grid", "inf:1024"], "L"),
        # identical samples put every log-ratio at 0, so only the spacing fails
        (["compose", "--compositions", 2, "--grid", "5e-324:4"], "2L/m"),
        (["compose", "--compositions", 2, "--grid", "1e308:4"], "2L/m"),
    ])
    # a numpy RuntimeWarning on the way to the error fails the test
    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_exit_2(self, tmp_path, capsys, argv, field):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        if argv[0] in ("audit", "compose"):
            for path in (a, b):
                path.write_text("0.0\n1.0\n2.0\n", encoding="utf-8")
            argv = [argv[0], a, b, *argv[1:]]
        else:
            argv = [*argv, "-n", 5, a, b]
        assert run(*argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be positive and finite")

    @pytest.mark.parametrize("audit", [[], ["--audit"]])
    @pytest.mark.filterwarnings("error")
    def test_clip_with_no_finite_square_exit_2(self, tmp_path, capsys, audit):
        # the white-box draws scale by clip ** 2, which overflows float64 above about 1.34e154
        argv = ["canary", "--mode", "white-box", "-d", 8, "--iterations", 1000, *audit]
        assert run(*argv, "--clip", "1e160", "--out-p", tmp_path / "c.txt") == 2
        assert capsys.readouterr() == ("", "error: clip must have a finite square, got 1e+160\n")
        assert list(tmp_path.iterdir()) == []

    def test_clip_with_a_finite_square_draws_as_before(self, tmp_path):
        # the largest clips still draw, O' = clip^2 sigma Z' + clip^2 Bernoulli(1/2)
        assert run("canary", "--mode", "white-box", "-d", 8, "--iterations", 1000,
                   "--clip", "1e154", "--sigma", "1e-10", "--canary-prob", 0.5,
                   "--out-p", tmp_path / "c.txt") == 0
        cfg = WhiteBoxConfig(iterations=1000, canary_prob=0.5, clip=1e154, sigma=1e-10, d=8)
        held_in = read_scores(tmp_path / "c.txt")
        assert np.array_equal(held_in, canary.whitebox_stream(cfg, 1))
        assert 0 < np.count_nonzero(held_in > 1e307) < 1000

    @pytest.mark.parametrize("grid,ends", [
        ("0:inf:3", "lo=0.0, hi=inf"),
        ("nan:1:3", "lo=nan, hi=1.0"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_eps_grid_exit_2(self, tmp_path, capsys, grid, ends):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            path.write_text("0.0\n1.0\n2.0\n", encoding="utf-8")
        assert run("audit", a, b, "--eps-grid", grid) == 2
        assert capsys.readouterr().err.startswith(f"error: eps_grid ends must be finite, got {ends}")


class TestDegenerateSamples:
    @pytest.mark.parametrize("command", [
        lambda p, q: ["audit", p, q],
        lambda p, q: ["compose", p, q, "--compositions", 2],
        lambda p, q: ["fit-gdp", "--in-p", p, "--in-q", q],
    ])
    def test_zero_spread_exit_3_naming_both_files(self, constant_files, capsys, command):
        p, q = constant_files
        assert run(*command(p, q)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p} and {q}: degenerate samples")

    @pytest.mark.parametrize("binning", [[], ["--bins", 20], ["--bin-width", 0.5]])
    @pytest.mark.filterwarnings("error")
    def test_span_past_float64_exit_3_naming_both_files(self, tmp_path, capsys, binning):
        # 50 of 1000 lines at each of -1e308 and 1e308: the quantiles lie 2e308 apart
        rng = np.random.default_rng(9)
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        for path, mean in ((p, 0.0), (q, 1.0)):
            x = np.concatenate([np.full(50, -1e308), np.full(50, 1e308),
                                rng.normal(mean, 1.0, 900)])
            path.write_text("".join(f"{v!r}\n" for v in x.tolist()), encoding="utf-8")
        assert run("audit", p, q, *binning) == 3
        assert capsys.readouterr() == (
            "", f"error: {p} and {q}: the chosen quantiles -1e+308 and 1e+308 "
                "lie too far apart to bin\n")
