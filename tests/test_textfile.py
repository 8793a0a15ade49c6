"""The commented table: what `write_table` writes, `read_table` gives back."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlab.errors import ParameterError, ParseError
from robustlab.textfile import fmt, read_table, write_table


def holds_line_break(text: str) -> bool:
    return "".join(text.splitlines()) != text


# Text the format carries unchanged: no '=', comma or line break, no outer
# whitespace. A cell is also non-empty and does not start with '#', so that no
# row reads back as a blank line or a comment.
plain = st.text(max_size=8).filter(
    lambda s: "=" not in s and "," not in s and not holds_line_break(s) and s == s.strip())
cell = plain.filter(lambda s: s and not s.startswith("#"))
cells = st.lists(cell, min_size=1, max_size=4)


@given(comments=st.dictionaries(plain, plain, max_size=4), header=cells,
       rows=st.lists(cells, max_size=4))
@settings(max_examples=200, deadline=None)
def test_read_gives_back_what_was_written(tmp_path_factory, comments, header, rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, comments.items(), header, rows)
    read_comments, read_header, read_rows = read_table(path)
    assert read_comments == comments
    assert read_header == (len(comments) + 1, ",".join(header))
    assert [line.split(",") for _, line in read_rows] == rows
    assert [lineno for lineno, _ in read_rows] == list(range(len(comments) + 2, len(comments) + 2 + len(rows)))


@given(comments=st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6)), max_size=3),
       header=st.lists(st.text(max_size=6), max_size=3),
       rows=st.lists(st.lists(st.text(max_size=6), max_size=3), max_size=3))
@settings(max_examples=300, deadline=None)
def test_refused_exactly_when_some_text_holds_a_line_break(tmp_path_factory, comments, header, rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    texts = [t for pair in comments for t in pair] + header + [c for row in rows for c in row]
    try:
        write_table(path, comments, header, rows)
    except ParameterError:
        assert any(holds_line_break(t) for t in texts)
        assert not path.exists()
    else:
        assert not any(holds_line_break(t) for t in texts)


@pytest.mark.parametrize("comments, header, rows, what", [
    ([("a", "1"), ("b", "x\ry")], ["h"], [], "comment 'b'"),
    ([("k\u2028", "1")], ["h"], [], "comment 'k\\u2028'"),
    ([], ["h", "i\n"], [], "header"),
    ([], ["h"], [["1"], ["2\x1c"]], "row 2"),
])
def test_refusal_names_what_holds_the_line_break(tmp_path, comments, header, rows, what):
    with pytest.raises(ParameterError) as exc:
        write_table(tmp_path / "t.csv", comments, header, rows)
    assert str(exc.value) == f"{what} must not hold a line break"
    assert not list(tmp_path.iterdir())


def test_reader_skips_blank_lines_and_strips_each_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("\n  # k =  v w \n\n a,b \n# later = 1\n1,2\n\n")
    assert read_table(path) == ({"k": "v w", "later": "1"}, (4, "a,b"), [(6, "1,2")])


def test_reader_errors_name_their_place(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# k = v\n# no equals sign\nh\n")
    with pytest.raises(ParseError, match="comment is not 'key = value'") as exc:
        read_table(path)
    assert exc.value.line == 2
    path.write_bytes(b"# k = v\nh\n\xff\n")
    with pytest.raises(ParseError, match="not valid UTF-8") as exc:
        read_table(path)
    assert exc.value.offset == 10


def test_fmt_round_trips_float64():
    for v in (0.1, 1 / 3, 2.0**-1074, 1.7976931348623157e308, -0.0):
        assert float(fmt(v)) == v and fmt(v) == format(v, ".17g")
