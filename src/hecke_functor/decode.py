"""
Shape checks and decoders for outside input: JSON documents and the CLI's
argument strings.  The predicates say whether a JSON value has a shape, and
each `from_json` raises its own error class when one does not; the decoders
raise ValueError.  Nothing here imports the package.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


def is_list(v, n: int | None = None) -> bool:
    """Is v a JSON list (of n entries, if n is given)?"""
    return isinstance(v, list) and (n is None or len(v) == n)


def pair(v) -> bool:
    return is_list(v, 2)


def int_list(v, n: int | None = None) -> bool:
    """Is v a JSON list of integers (n of them, if n is given)?"""
    return is_list(v, n) and all(type(x) is int for x in v)


def int_rows(v, width: int | None = None) -> bool:
    """Is v a JSON list of integer lists (of `width` entries each, if given)?"""
    return isinstance(v, list) and all(int_list(r, width) for r in v)


def obj(v, *lists: str) -> bool:
    """Is v a JSON object whose fields `lists` are lists?"""
    return isinstance(v, dict) and all(isinstance(v.get(k), list) for k in lists)


def weyl_word(v, n: int) -> list[int]:
    """v, if it is a list of simple-reflection positions below n;
    ValueError otherwise."""
    if not is_list(v):
        raise ValueError("a Weyl word is a list of simple-reflection positions")
    for s in v:
        if type(s) is not int or not 0 <= s < n:
            raise ValueError(f"Weyl word letter {s!r} is not a simple-reflection "
                             f"position below {n}")
    return v


def list_of(data, item, n: int | None, what: str) -> list:
    """[item(v) for v in data] if data is a list (of n entries, if n is
    given); ValueError(what) otherwise."""
    if not is_list(data, n):
        raise ValueError(what)
    return [item(v) for v in data]


def json_document(text: str | None, path: str | None = None):
    """Parse inline JSON `text`, or the file at `path`."""
    try:
        if path is not None:
            with open(path) as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        where = "inline JSON" if path is None else f"JSON in {path}"
        raise ValueError(f"bad {where}: {exc}") from None


# built-in fixture names: pattern -> kind, the pattern's groups being the
# fields; GL takes no isogeny
_FIXTURE_NAMES = (
    (re.compile(r"datum:(gl)(-?[0-9]+)()"), "datum"),
    (re.compile(r"datum:([A-Za-z])(-?[0-9]+)([a-z]{2})"), "datum"),
    (re.compile(r"group:([sdz])(-?[0-9]+)"), "group"),
    (re.compile(r"param:sln(-?[0-9]+)"), "param"),
)
_INT = re.compile(r"\s*[+-]?[0-9]+\s*")
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def size(n: int) -> int:
    """n, if it is a size of at least 1; ValueError otherwise."""
    if n < 1:
        raise ValueError(f"size {n} is below 1")
    return n


def fixture(name: str) -> tuple[str, tuple]:
    """(kind, fields) of a fixture name, the sizes read as ints of at least 1."""
    for pattern, kind in _FIXTURE_NAMES:
        if m := pattern.fullmatch(name):
            return kind, tuple(size(int(g)) if g[-1:].isdigit() else g for g in m.groups())
    raise ValueError(f"unknown fixture {name!r}")


def _numbers(text: str | None, pattern: re.Pattern, parse, what: str) -> list:
    """The comma-separated numbers of `text`; ValueError(what) if one is
    malformed, too long for an int, or has a zero denominator."""
    if text is None or not all(pattern.fullmatch(v) for v in text.split(",")):
        raise ValueError(what)
    try:
        return [parse(v) for v in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValueError(what) from None


def index_set(text: str | None, order: int) -> frozenset[int]:
    """`--normal`: comma-separated element indices below `order`."""
    what = f"--normal is a comma-separated list of element indices below {order}"
    elems = frozenset(_numbers(text, _INT, int, what))
    if not all(0 <= g < order for g in elems):
        raise ValueError(what)
    return elems


def int_blocks(text: str) -> list[list[int]]:
    """`--g`: comma-separated integer vectors, one per factor, separated by
    `;`; an empty block is the empty vector."""
    what = "--g is one comma-separated integer vector per factor, separated by ';'"
    return [_numbers(block, _INT, int, what) if block else [] for block in text.split(";")]


def rationals(text: str | None) -> tuple[Fraction, ...]:
    """`--xg`: comma-separated rationals p or p/q."""
    what = "--xg is a comma-separated list of rationals p or p/q"
    return tuple(_numbers(text, _RATIONAL, Fraction, what))
