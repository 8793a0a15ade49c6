"""The commented table: what `write_table` writes, `read_table` gives back."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlab.errors import ParameterError, ParseError
from robustlab.textfile import fmt, read_table, write_table


def holds_line_break(text: str) -> bool:
    return "".join(text.splitlines()) != text


def refused_key(key: str) -> bool:
    """A comment key `read_table` would give back as another key."""
    return not key or "=" in key or key != key.strip()


def refused_value(value: str) -> bool:
    """A comment value `read_table` would give back stripped."""
    return value != value.strip()


# Text the format carries unchanged: no '=', comma or line break, no outer
# whitespace. A cell is also non-empty and does not start with '#', so that no
# row reads back as a blank line or a comment.
plain = st.text(max_size=8).filter(
    lambda s: "=" not in s and "," not in s and not holds_line_break(s) and s == s.strip())
cell = plain.filter(lambda s: s and not s.startswith("#"))
cells = st.lists(cell, min_size=1, max_size=4)


no_break = st.text(max_size=8).filter(lambda s: not holds_line_break(s))
padded = no_break | no_break.map(lambda s: s + " ")  # draws more of the values refused for a space


@given(comments=st.dictionaries(no_break, padded, max_size=4),
       header=cells, rows=st.lists(cells, max_size=4))
@settings(max_examples=300, deadline=None)
def test_read_gives_back_what_was_written(tmp_path_factory, comments, header, rows):
    # Any key and value without a line break: the writer refuses them, or they read back.
    path = tmp_path_factory.mktemp("table") / "t.csv"
    if any(refused_key(k) or refused_value(v) for k, v in comments.items()):
        with pytest.raises(ParameterError, match="must be non-empty, without '=' or outer whitespace"
                                                 "|must not have outer whitespace"):
            write_table(path, comments.items(), header, rows)
        assert not path.exists()
        return
    write_table(path, comments.items(), header, rows)
    read_comments, read_header, read_rows = read_table(path)
    assert read_comments == comments
    assert read_header == (len(comments) + 1, ",".join(header))
    assert [line.split(",") for _, line in read_rows] == rows
    assert [lineno for lineno, _ in read_rows] == list(range(len(comments) + 2, len(comments) + 2 + len(rows)))


# Keys and values either hold a line break or are ones the format carries:
# the other refused keys and values are the property above's.
@given(comments=st.lists(st.tuples(st.text(max_size=6).filter(lambda k: holds_line_break(k) or not refused_key(k)),
                                   st.text(max_size=6).filter(lambda v: holds_line_break(v) or not refused_value(v))),
                         max_size=3),
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


@pytest.mark.parametrize("key", ["", "a=b", " pad ", "pad ", "\tpad"])
def test_refusal_names_the_key_read_back_as_another(tmp_path, key):
    with pytest.raises(ParameterError) as exc:
        write_table(tmp_path / "t.csv", [("ok", "1"), (key, "x")], ["h"], [])
    assert str(exc.value) == f"comment key {key!r} must be non-empty, without '=' or outer whitespace"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", [" v", "v ", "\tv", " "])
def test_refusal_names_the_key_whose_value_would_read_back_stripped(tmp_path, value):
    with pytest.raises(ParameterError) as exc:
        write_table(tmp_path / "t.csv", [("ok", "1"), ("k", value)], ["h"], [])
    assert str(exc.value) == "value of comment 'k' must not have outer whitespace"
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


@pytest.mark.parametrize("comment", ["# = v", "#  =", "#="])
def test_reader_refuses_a_comment_without_a_key(tmp_path, comment):
    # The writer refuses an empty key, so a file holding one was not written by it.
    path = tmp_path / "t.csv"
    path.write_text(f"# k = v\n{comment}\nh\n")
    with pytest.raises(ParseError, match="comment is not 'key = value'") as exc:
        read_table(path)
    assert exc.value.line == 2


def test_fmt_round_trips_float64():
    for v in (0.1, 1 / 3, 2.0**-1074, 1.7976931348623157e308, -0.0):
        assert float(fmt(v)) == v and fmt(v) == format(v, ".17g")
