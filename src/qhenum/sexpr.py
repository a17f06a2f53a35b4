"""S-expression reading and writing, and the section reader of input files.

Atoms are symbols (``str``) or integers (``int``); lists are Python lists.
The text is read in one regular-expression scan, each match a token with
the whitespace before it, by these token rules:

* whitespace is space, tab, CR and LF, and nothing else;
* ``;`` starts a comment, up to the next LF, wherever a token could start
  (so also right after an atom);
* ``(`` and ``)`` are tokens of their own;
* ``|...|`` is one token up to the next ``|``, whatever it holds in
  between (a ``;``, ``(`` or line break is kept);
* any other run of characters up to whitespace, a paren or ``;`` is an
  atom, which may contain ``|`` after its first character (``a|b|`` is one
  atom);
* an atom is an integer exactly when ``atom.lstrip("-").isdigit()`` holds.

A ``|`` with no closing ``|``, an unmatched ``)`` and an unclosed ``(`` raise
``SexprError``.

Every input file is one ``(head section ...)`` form whose sections are
``(name arg ...)`` lists. ``read_form``, ``sections``, ``single``, ``pairs``
and ``atom`` check that shape and raise ``SexprError`` on anything else.
"""

from __future__ import annotations

import re
from typing import Any, Sequence, Union

Sexpr = Union[str, int, list]


class SexprError(ValueError):
    pass


# One match per token, with the whitespace before it: an atom, a paren or a
# |quoted| symbol (group 1), or a comment (group 1 empty). Taking the
# whitespace inside the match lets ``findall`` skip a run of it in one step,
# where a pattern that matches nothing on whitespace tries every branch at
# each of its characters. A quote with no closing ``|`` runs to the end of
# the scan.
_TOKEN = re.compile(r"[ \t\r\n]*(?:;[^\n]*|([^ \t\r\n();|][^ \t\r\n();]*|[()]|\|[^|]*\|?))")


def parse_all(text: str) -> list[Sexpr]:
    # Trailing whitespace is cut off first: the pattern fails on it, and
    # ``findall`` would scan the rest of the run again from each character.
    tokens = _TOKEN.findall(text, 0, len(text.rstrip(" \t\r\n")))
    # only the last token can be a quote that ran to the end unclosed
    if tokens and tokens[-1][:1] == "|" and not tokens[-1].endswith("|", 1):
        raise SexprError("unterminated |symbol|")
    out: list[Sexpr] = []
    items = out
    open_lists: list[list] = []
    for tok in tokens:
        if tok == "(":
            open_lists.append(items)
            inner: list = []
            items.append(inner)
            items = inner
        elif tok == ")":
            if not open_lists:
                raise SexprError("unexpected ')'")
            items = open_lists.pop()
        elif tok:
            items.append(int(tok) if tok.lstrip("-").isdigit() else tok)
    if open_lists:
        raise SexprError("unbalanced parentheses")
    return out


def parse_one(text: str) -> Sexpr:
    forms = parse_all(text)
    if len(forms) != 1:
        raise SexprError(f"expected exactly one form, got {len(forms)}")
    return forms[0]


def to_text(expr: Sexpr) -> str:
    if isinstance(expr, bool):
        return "true" if expr else "false"
    if isinstance(expr, int):
        return str(expr)
    if isinstance(expr, str):
        return expr
    return "(" + " ".join(to_text(e) for e in expr) + ")"


# ---------------------------------------------------------------------------
# Section reader


def read_form(text: str, head: str) -> list:
    """The arguments of the one ``(head ...)`` form in ``text``."""
    form = parse_one(text)
    if not (isinstance(form, list) and form and form[0] == head):
        raise SexprError(f"expected ({head} ...)")
    return form[1:]


def atom(expr: Sexpr, kind: type, what: str) -> Sexpr:
    """``expr``, which must be an atom of ``kind`` (``int`` or ``str``)."""
    if not isinstance(expr, kind):
        raise SexprError(f"expected {what}, got {to_text(expr)}")
    return expr


def sections(
    where: str,
    items: Sequence[Sexpr],
    required: tuple = (),
    optional: tuple = (),
    repeat: tuple = (),
) -> dict[str, list]:
    """The arguments of each ``(name ...)`` section, by name.

    Every section is ``required`` or ``optional`` and occurs at most once,
    except that the arguments of each occurrence of a ``repeat`` section are
    concatenated.
    """
    found: dict[str, list] = {}
    for item in items:
        name = item[0] if isinstance(item, list) and item else None
        if name in repeat:
            found.setdefault(name, []).extend(item[1:])
        elif name not in (*required, *optional):
            shown = f"({name} ...)" if isinstance(name, str) else to_text(item)
            raise SexprError(f"{where}: unexpected {shown}")
        elif name in found:
            raise SexprError(f"{where}: ({name} ...) given twice")
        else:
            found[name] = item[1:]
    for name in required:
        if name not in found:
            raise SexprError(f"{where} needs a ({name} ...) section")
    return found


_KIND_NAMES = {int: "an integer", str: "a symbol"}


def single(found: dict[str, list], name: str, kind: type = object, default: Any = None) -> Any:
    """The one argument, of ``kind``, of section ``name``; ``default`` if it is absent."""
    if name not in found:
        return default
    args = found[name]
    if len(args) != 1 or not isinstance(args[0], kind):
        what = _KIND_NAMES.get(kind, "one argument")
        raise SexprError(f"({name} ...) takes {what}, got {to_text([name, *args])}")
    return args[0]


def pairs(where: str, entries: Sequence[Sexpr]) -> dict[str, Sexpr]:
    """The ``(name value)`` entries of a section, in order; no name twice."""
    out: dict[str, Sexpr] = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise SexprError(f"bad {where} entry {to_text(entry)}, expected (name value)")
        if entry[0] in out:
            raise SexprError(f"{where}: {entry[0]} given twice")
        out[entry[0]] = entry[1]
    return out
