"""The lab's text files: the float text, the atomic writer and the commented table.

A commented table (the dataset, report and history CSVs) is UTF-8 text:
`# key = value` comments, one header row, then comma-separated rows.
"""
from __future__ import annotations

import os
import stat
import uuid
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParameterError, ParseError

FLOAT_FMT = ".17g"  # 17 significant digits round-trip float64 exactly


def fmt(v: float) -> str:
    """The text every file of the package gives a float."""
    return format(float(v), FLOAT_FMT)


def fmt_vec(values) -> str:
    return " ".join(fmt(v) for v in values)


def comment_line(key, value) -> str:
    return f"# {key} = {value}"


def write_text_atomic(path, text: str) -> None:
    """Write UTF-8 `text` to `path` so that `path` never holds a partial file.

    The text goes to a fresh file in the same directory and is flushed to
    disk (fsync), and that file then replaces `path` in one `os.replace`.
    After a crash, even of the operating system, `path` holds either the old
    or the new content in full. If anything fails first, `path` keeps its
    previous content (or stays absent) and the temporary file is removed.
    As with a plain write, a symlink at `path` is written through (its
    target is replaced) and an existing file keeps its permission bits; a
    new file gets mode 0o666 less the umask. Every file writer of the
    package goes through here.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_table(path, comments: Iterable[tuple[object, object]], header: Sequence[str],
                rows: Iterable[Sequence[str]]) -> None:
    """Write a commented table: one comment per (key, value) pair, the header, the rows.

    A comment key or value, a header or a cell that holds a line break (any
    that `str.splitlines` splits on) raises ParameterError naming the
    comment's key, the header or the row (counted from 1), and nothing is
    written: `read_table` would read that text back as other lines. So does
    a comment key that is empty, holds '=' or has outer whitespace, which
    `read_table` would read back as another key, and a comment value with
    outer whitespace, which it would read back stripped.
    """
    comments = list(comments)
    lines = [comment_line(k, v) for k, v in comments]
    lines += [",".join(header), *(",".join(row) for row in rows)]
    text = "\n".join(lines) + "\n"
    if text.splitlines() != lines:
        i = next(i for i, line in enumerate(lines) if "".join(line.splitlines()) != line)
        k = len(comments)
        what = f"comment {comments[i][0]!r}" if i < k else "header" if i == k else f"row {i - k}"
        raise ParameterError(f"{what} must not hold a line break")
    for key, value in ((str(k), str(v)) for k, v in comments):
        if not key or "=" in key or key != key.strip():
            raise ParameterError(f"comment key {key!r} must be non-empty, without '=' or outer whitespace")
        if value != value.strip():
            raise ParameterError(f"value of comment {key!r} must not have outer whitespace")
    write_text_atomic(path, text)


def read_table(path) -> tuple[dict[str, str], tuple[int, str] | None, list[tuple[int, str]]]:
    """Read a commented table: its comments (a later key wins), then the line
    number and text of the header (None if there is none) and of each row.

    Blank lines are skipped and each line is stripped. Raises ParseError for
    text that is not UTF-8 (with its byte offset) and for a comment that is
    not `key = value` with a non-empty key (with its line number).
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError("file is not valid UTF-8", offset=e.start) from None
    comments, header, rows = {}, None, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            key, eq, value = body.partition("=")
            if not eq or not key.strip():
                raise ParseError(f"comment is not 'key = value': {body!r}", line=lineno)
            comments[key.strip()] = value.strip()
        elif header is None:
            header = (lineno, stripped)
        else:
            rows.append((lineno, stripped))
    return comments, header, rows
