import decimal
import math
import os
import pickle
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpaudit import cli, scores
from dpaudit.cli import main
from dpaudit.errors import ScoreFileError
from dpaudit.profiles import read_csv
from dpaudit.scores import READ_BLOCK, WRITE_BLOCK, both, read_scores, write_scores
from oracles import no_child_left, read_scores_by_line, rss_growth, score_file_bytes, traced_peak

MB = 2 ** 20
# read block sizes: the real one, and one so small that lines straddle blocks
# and a long line outgrows one
BLOCKS = (READ_BLOCK, 32)

# lines the block parser and the line-loop oracle must treat alike: repr
# floats, which it parses or hands to float(); blank, comment, underscore,
# non-finite, hex, two-number and non-ASCII lines, which must reach the line
# loop; and short strings of number characters
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


def fixed(value: decimal.Decimal) -> str:
    """``value`` in fixed notation with at least one digit after the point."""
    text = format(value, "f")
    return text if "." in text else text + ".0"


@st.composite
def hard_decimals(draw):
    """Decimal lines where a reader that rounds twice or drops a digit goes wrong."""
    kind = draw(st.sampled_from(["midpoint", "two_to_53", "digits", "edge"]))
    if kind == "midpoint":
        # near the midpoint of two adjacent doubles, powers of two (whose gap
        # below is half the gap above) among them: 17-25 digits of it, +-1 in the last
        x = draw(st.one_of(st.floats(min_value=1e-5, max_value=1e16, allow_subnormal=False),
                           st.integers(-16, 53).map(lambda k: 2.0 ** k)))
        toward = draw(st.sampled_from([0.0, math.inf]))
        mid = (Fraction(x) + Fraction(math.nextafter(x, toward))) / 2
        context = decimal.Context(prec=draw(st.integers(17, 25)))
        value = context.divide(decimal.Decimal(mid.numerator), mid.denominator)
        value = draw(st.sampled_from([value, context.next_plus(value),
                                      context.next_minus(value)]))
        text = fixed(value)
    elif kind == "two_to_53":
        # the digits D on both sides of 2^53, with the point f places from the right
        digits = str(2 ** 53 + draw(st.integers(-3, 3)))
        f = draw(st.integers(1, 25))
        digits = digits.rjust(f + 1, "0")
        text = f"{digits[:-f]}.{digits[-f:]}"
    elif kind == "digits":
        # leading zeros and 1-25 fraction digits
        lead = draw(st.text("0123456789", min_size=1, max_size=3))
        frac = draw(st.text("0123456789", min_size=1, max_size=25))
        text = f"{lead}.{frac}"
    else:
        # 22-25 bytes before the sign, about the 23 the 24-byte row parses
        digits = draw(st.text("0123456789", min_size=21, max_size=24))
        lead = draw(st.integers(1, 3))
        text = f"{digits[:lead]}.{digits[lead:]}"
    return draw(st.sampled_from(["", "-"])) + text


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
    expected = outcome(read_scores_by_line, path)
    for block in BLOCKS:
        with mock.patch.object(scores, "READ_BLOCK", block):
            assert outcome(read_scores, path) == expected


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(hard_decimals(), st.sampled_from(["-0.0", "0." + "3" * 40])),
                     min_size=1, max_size=40),
       newline=st.sampled_from(["\n", "\r\n"]), tail=st.booleans())
def test_read_is_float_of_each_line_bit_for_bit(tmp_path_factory, lines, newline, tail):
    path = tmp_path_factory.mktemp("scores") / "scores.txt"
    path.write_bytes((newline.join(lines) + newline * tail).encode("ascii"))
    expected = np.array([float(line) for line in lines]).tobytes()
    for block in BLOCKS:
        with mock.patch.object(scores, "READ_BLOCK", block):
            assert read_scores(path).tobytes() == expected


@pytest.mark.parametrize("block", BLOCKS)
def test_comment_and_blank_lines_keep_the_block_reader(tmp_path, monkeypatch, block):
    values = np.random.default_rng(8).normal(0, 1, 3000)
    lines = [repr(v) for v in values.tolist()]
    lines[:0] = ["# scores", ""]
    lines[1500:1500] = ["  ", "# a note, caf\u00e9\r", "\t# indented", "\r"]
    path = tmp_path / "scores.txt"
    path.write_bytes(("\n".join(lines) + "\n# last").encode("utf-8"))
    expected = scores._read_lines(path)

    def line_loop(path):
        raise AssertionError("the block reader left the file to the line loop")

    monkeypatch.setattr(scores, "_read_lines", line_loop)
    monkeypatch.setattr(scores, "READ_BLOCK", block)
    assert read_scores(path).tobytes() == expected.tobytes() == values.tobytes()


@pytest.mark.parametrize("block", BLOCKS)
def test_crlf_first_line_after_the_line_count(tmp_path, monkeypatch, block):
    # the first pass counts line feeds in the block buffer, and the parse then
    # reads the byte before each line feed; a first line of 23 bytes, the
    # longest read as digits, puts its carriage return at the file's byte
    # _LINE - 1, the buffer byte just before the parse's first line
    lines = ["0." + "1" * 21, "", "-2.5", "# note", "3.0"]
    path = tmp_path / "scores.txt"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
    monkeypatch.setattr(scores, "READ_BLOCK", block)
    values = scores._read_blocks(path)
    assert values is not None
    assert values.tobytes() == np.array([float(lines[0]), -2.5, 3.0]).tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_reads_as_a_file(tmp_path):
    # a pipe cannot be read twice, so the reader counts and parses a copy of its bytes
    values = np.random.default_rng(25).normal(0, 1, 5000)
    path = tmp_path / "scores.fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(score_file_bytes(values),))
    writer.start()
    try:
        read = read_scores(path)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert read.tobytes() == values.tobytes()


@pytest.mark.parametrize("text", ["# a\rb\n1.0\n", "1.0\n# caf\xe9\n"])
def test_lines_the_line_loop_reads_otherwise_leave_the_block_reader(tmp_path, text):
    # a carriage return inside a line breaks it in two for the line loop, and
    # a '#' line that is not UTF-8 is an error it names
    path = tmp_path / "scores.txt"
    path.write_bytes(text.encode("latin-1"))
    assert scores._read_blocks(path) is None


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
        assert read_peak < 10 * MB

    def test_write_holds_one_small_block(self, tmp_path, values):
        head = values[:10 ** 5]
        assert traced_peak(lambda: write_scores(tmp_path / "scores.txt", head)) <= MB

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the resident size from /proc")
    def test_read_allocates_its_values_once(self, tmp_path):
        # the first block's lines are a byte longer than the rest, so a size
        # guessed from it falls short; an array grown to fit is copied, which
        # tracemalloc does not see but the resident size does
        path = tmp_path / "scores.txt"
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"0.{i:017d}\n" for i in range(4000))
            fh.writelines(f"0.{i:016d}\n" for i in range(4000, self.N))
        growth = rss_growth("values = read_scores(path)",
                            f"from dpaudit.scores import read_scores; path = {str(path)!r}")
        assert growth < 10 * MB  # the values take 8 MB
        assert read_scores(path).tobytes() == read_scores_by_line(path).tobytes()


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
    def test_child_without_a_result_exits_6_naming_its_file(self, tmp_path, capsys,
                                                            monkeypatch):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        for path in (p, q):
            path.write_text("0.0\n1.0\n2.0\n", encoding="utf-8")

        def read_or_die(path):
            if path == str(q):
                os._exit(7)  # only ever reached in the child, which reads q
            return read_scores(path)

        monkeypatch.setattr(cli, "read_scores", read_or_die)
        assert main(["audit", str(p), str(q)]) == 6
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
