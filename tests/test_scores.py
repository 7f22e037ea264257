import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpaudit.errors import ScoreFileError
from dpaudit.scores import WRITE_BLOCK, read_scores, write_scores
from oracles import read_scores_by_line

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
        values = np.random.default_rng(1).normal(0, 1, 2 * WRITE_BLOCK + 3)
        path = tmp_path / "scores.txt"
        write_scores(path, values)
        expected = "".join(repr(float(v)) + "\n" for v in values)
        assert path.read_bytes() == expected.encode("utf-8")

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
        assert write_peak < 16 * MB
        assert read_peak < 32 * MB
