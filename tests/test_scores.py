import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpaudit import cli
from dpaudit.cli import main
from dpaudit.errors import ScoreFileError
from dpaudit.profiles import read_csv
from dpaudit.scores import WRITE_BLOCK, both, read_scores, write_scores
from oracles import no_child_left, read_scores_by_line, score_file_bytes

MB = 2 ** 20

# lines the fast path and the line-loop oracle must treat alike: repr floats,
# which numpy's parser takes; blank, comment, underscore, non-finite, hex,
# two-number and non-ASCII lines, which must reach the line loop; and short
# strings of number characters
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
special_lines = st.sampled_from([
    "", "   ", "\t", "\x0c", "# comment", "#", "1.0 # inline", "1_0", "1__0", "nan", "-inf",
    "inf", "Infinity", "1e999", "-1e999", "1e-400", "0x1p3", "1.0 2.0", "1.0\t2.0", "abc",
    "1,5", "+.5", "5.", "1e5", "  7  ", "\xa03.25", "\uff11", "-0.0", "0", "1.0\x00",
])
token_chars = st.sampled_from(list("0123456789.eE+-_ \t#nafixp") + ["\x0c", "\xa0", "\uff11"])
score_lines = st.one_of(finite_floats.map(repr), special_lines,
                        st.text(token_chars, max_size=8))


@st.composite
def score_files(draw):
    lines = draw(st.lists(score_lines, max_size=12))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = draw(st.sampled_from(["", newline]))
    return newline.join(lines) + tail


def outcome(read, path):
    """The array a reader returns, as bytes, or the line its error names."""
    try:
        return read(path).tobytes()
    except ScoreFileError as exc:
        return ("error", exc.line_number)


class TestScoreFiles:
    def test_roundtrip_exact(self, tmp_path):
        values = np.array([0.1, -2.5e-17, 1e300, 3.0, -0.0])
        path = tmp_path / "scores.txt"
        write_scores(path, values)
        assert np.array_equal(read_scores(path), values)

    def test_identical_writes_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, 500)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_scores(a, values)
        write_scores(b, values)
        assert a.read_bytes() == b.read_bytes()

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("# header comment\n1.5\n\n# another\n-2.5\n", encoding="utf-8")
        assert read_scores(path).tolist() == [1.5, -2.5]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("1.0\n2.0\nabc\n4.0\n", encoding="utf-8")
        with pytest.raises(ScoreFileError, match="line 3") as exc_info:
            read_scores(path)
        assert exc_info.value.line_number == 3

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("1.0\nnan\n", encoding="utf-8")
        with pytest.raises(ScoreFileError, match="non-finite"):
            read_scores(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(ScoreFileError, match="no scores"):
            read_scores(path)

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            write_scores(tmp_path / "x.txt", [1.0, float("inf")])

    def test_write_matches_one_repr_per_line_across_blocks(self, tmp_path):
        # values in the exact domain, powers of two among them, mixed with ones
        # repr spells: zeros, subnormals, exponent notation and 1e15
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, 2 * WRITE_BLOCK + 3)
        outside = [0.0, -0.0, 0.5, -1024.0, 5e-324, 1e-300, 9.9e-5, 1e15, -3e22, 1.5e308]
        values[rng.choice(values.size, 200, replace=False)] = rng.choice(outside, 200)
        path = tmp_path / "scores.txt"
        write_scores(path, values)
        assert path.read_bytes() == score_file_bytes(values)

    def test_two_numbers_on_one_line_rejected(self, tmp_path):
        # numpy reads this file as a 1 x 2 table; it must not pass as two scores
        path = tmp_path / "scores.txt"
        path.write_text("1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ScoreFileError, match="line 1"):
            read_scores(path)

    @pytest.mark.parametrize("text,lineno", [
        ("1.0\nnan\n3.0\n", 2), ("1.0\n2.0\n1e999\n", 3), ("0x1p3\n", 1),
        ("1.0\r\n2.0\r\n3.0 4.0\r\n", 3),
    ])
    def test_bad_line_named_after_the_fast_parser_fails(self, tmp_path, text, lineno):
        path = tmp_path / "scores.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ScoreFileError) as exc_info:
            read_scores(path)
        assert exc_info.value.line_number == lineno
        assert str(exc_info.value).startswith(f"{path}: line {lineno}: ")

    @pytest.mark.parametrize("body,lineno", [
        (b"1.0\n\xff\n3.0\n", 2), (b"1.0\n2.0\n# caf\xe9\n", 3), (b"\xc3\n", 1),
    ])
    def test_non_utf8_line_is_a_score_file_error(self, tmp_path, body, lineno):
        path = tmp_path / "scores.txt"
        path.write_bytes(body)
        with pytest.raises(ScoreFileError, match=f"line {lineno}: not UTF-8") as exc_info:
            read_scores(path)
        assert exc_info.value.line_number == lineno

    def test_underscore_digits_read_like_float(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("1_0\n2.5\n", encoding="utf-8")
        assert read_scores(path).tolist() == [10.0, 2.5]


@settings(max_examples=300, deadline=None)
@given(text=score_files())
def test_read_matches_the_line_loop_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("scores") / "scores.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_scores, path) == outcome(read_scores_by_line, path)


class TestScoreFileMemory:
    """Text I/O at 10^6 values stays within a few copies of the array."""

    N = 10 ** 6

    @pytest.fixture(scope="class")
    def values(self):
        return np.random.default_rng(2).normal(0, 1, self.N)

    def _peak(self, fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_write_and_read_peaks(self, tmp_path, values):
        path = tmp_path / "scores.txt"
        _, write_peak = self._peak(write_scores, path, values)
        read, read_peak = self._peak(read_scores, path)
        assert np.array_equal(read, values)
        assert write_peak < 5 * MB
        assert read_peak < 32 * MB


def _undecodable(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError:
        return b"\n" not in raw and b"\r" not in raw
    return False


# byte runs no UTF-8 decoder takes; appended to an ASCII line, nothing completes them
undecodable_runs = st.binary(min_size=1, max_size=4).filter(_undecodable)
csv_rows = st.one_of(st.just(""), st.tuples(finite_floats, finite_floats).map(
    lambda xy: f"{xy[0]!r},{xy[1]!r}"))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_both_readers_name_the_non_utf8_line(tmp_path_factory, data):
    score_text = st.one_of(finite_floats.map(repr), st.sampled_from(["", "# note"]))
    formats = [
        ("scores.txt", data.draw(st.lists(score_text, min_size=1, max_size=8)), read_scores),
        ("profile.csv", ["epsilon,delta"] + data.draw(st.lists(csv_rows, max_size=8)),
         lambda path: read_csv(path, "epsilon,delta")),
    ]
    directory = tmp_path_factory.mktemp("utf8")
    for name, lines, read in formats:
        k = data.draw(st.integers(1, len(lines)))
        body = [line.encode("utf-8") for line in lines]
        body[k - 1] += data.draw(undecodable_runs)
        path = directory / name
        path.write_bytes(b"\n".join(body) + b"\n")
        with pytest.raises(ScoreFileError) as exc_info:
            read(path)
        assert exc_info.value.line_number == k
        assert str(exc_info.value) == f"{path}: line {k}: not UTF-8 text"


class TestBoth:
    """``both`` makes the second of two calls in a forked child."""

    def test_score_file_error_pickles_with_its_line(self):
        exc = pickle.loads(pickle.dumps(ScoreFileError("s.txt: line 4: not a number: 'x'", 4)))
        assert (type(exc), str(exc), exc.line_number) == (
            ScoreFileError, "s.txt: line 4: not a number: 'x'", 4)

    def test_reads_equal_the_serial_pair(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = [tmp_path / "p.txt", tmp_path / "q.txt"]
        for path, n in zip(paths, (1000, 70001)):
            write_scores(path, rng.normal(0, 1, n))
        pair = both(read_scores, (paths[0],), (paths[1],))
        for got, path in zip(pair, paths):
            assert got.tobytes() == read_scores(path).tobytes()
        assert no_child_left()

    def test_writes_equal_the_serial_pair(self, tmp_path):
        rng = np.random.default_rng(6)
        values = [rng.normal(0, 1, 3 * WRITE_BLOCK + 1), rng.normal(0, 1, 17)]
        assert both(write_scores, (tmp_path / "a.txt", values[0]),
                    (tmp_path / "b.txt", values[1])) == (None, None)
        for name, side in zip(("a", "b"), values):
            write_scores(tmp_path / f"{name}_serial.txt", side)
            assert ((tmp_path / f"{name}.txt").read_bytes()
                    == (tmp_path / f"{name}_serial.txt").read_bytes())
        assert no_child_left()

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_child_error_keeps_its_type_message_and_line(self, tmp_path, k):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("1.0\n2.0\n", encoding="utf-8")
        lines = ["0.5"] * 8
        lines[k - 1] = "oops"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ScoreFileError) as exc_info:
            both(read_scores, (good,), (bad,))
        assert exc_info.value.line_number == k
        assert str(exc_info.value) == f"{bad}: line {k}: not a number: 'oops'"
        assert no_child_left()

    def test_first_error_wins_when_both_fail(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("abc\n", encoding="utf-8")
        with pytest.raises(FileNotFoundError, match="missing.txt"):
            both(read_scores, (tmp_path / "missing.txt",), (bad,))
        assert no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="os._exit would end the test run")
    def test_child_without_a_result_exits_3_naming_its_file(self, tmp_path, capsys,
                                                            monkeypatch):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        for path in (p, q):
            path.write_text("0.0\n1.0\n2.0\n", encoding="utf-8")

        def read_or_die(path):
            if path == str(q):
                os._exit(7)  # only ever reached in the child, which reads q
            return read_scores(path)

        monkeypatch.setattr(cli, "read_scores", read_or_die)
        assert main(["audit", str(p), str(q)]) == 3
        assert capsys.readouterr().err == (
            f"error: {q}: the process handling this file ended without a result "
            f"(exit status 7)\n")
        assert no_child_left()

    @pytest.mark.parametrize("argv,code", [
        (["audit", "{p}", "{q}"], 0),
        (["audit", "{p}", "{bad}"], 3),
        (["audit", "{missing}", "{bad}"], 3),
        (["simulate", "--mechanism", "gaussian", "-n", "50", "{out}/a.txt", "{out}/b.txt"], 0),
        (["simulate", "--mechanism", "gaussian", "-n", "50", "{out}/a.txt", "{missing}/b.txt"],
         3),
        (["canary", "--mode", "white-box", "-d", "8", "--iterations", "50",
          "--out-p", "{out}/a.txt", "--out-q", "{out}/b.txt"], 0),
        (["canary", "--mode", "one-shot", "-d", "8", "-n", "20", "--audit",
          "--out-p", "{out}/a.txt", "--out-q", "{out}/b.txt"], 0),
    ])
    def test_no_child_left_after_main(self, tmp_path, capsys, argv, code):
        names = {"p": tmp_path / "p.txt", "q": tmp_path / "q.txt", "bad": tmp_path / "bad.txt",
                 "missing": tmp_path / "missing", "out": tmp_path}
        for path in (names["p"], names["q"]):
            path.write_text("0.0\n1.0\n2.0\n", encoding="utf-8")
        names["bad"].write_text("0.0\nx\n", encoding="utf-8")
        assert main([arg.format(**names) for arg in argv]) == code
        assert no_child_left()
