"""S-expression reading and writing, and the section reader of input files.

Atoms are symbols (``str``) or integers (``int``); lists are Python lists.
Comments run from ``;`` to end of line.

Every input file is one ``(head section ...)`` form whose sections are
``(name arg ...)`` lists. ``read_form``, ``sections``, ``single``, ``pairs``
and ``atom`` check that shape and raise ``SexprError`` on anything else.
"""

from __future__ import annotations

from typing import Any, Sequence, Union

Sexpr = Union[str, int, list]


class SexprError(ValueError):
    pass


_DELIMS = "()"
_WS = " \t\r\n"


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in _WS:
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in _DELIMS:
            tokens.append(c)
            i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SexprError("unterminated |symbol|")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and text[j] not in _WS and text[j] not in _DELIMS and text[j] != ";":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _from_token(token: str) -> Sexpr:
    if token.lstrip("-").isdigit() and token not in ("-", ""):
        return int(token)
    return token


def parse_all(text: str) -> list[Sexpr]:
    tokens = tokenize(text)
    pos = 0

    def read() -> Sexpr:
        nonlocal pos
        if pos >= len(tokens):
            raise SexprError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while True:
                if pos >= len(tokens):
                    raise SexprError("unbalanced parentheses")
                if tokens[pos] == ")":
                    pos += 1
                    return items
                items.append(read())
        if tok == ")":
            raise SexprError("unexpected ')'")
        return _from_token(tok)

    out = []
    while pos < len(tokens):
        out.append(read())
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
