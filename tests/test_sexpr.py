import re

import pytest
from hypothesis import given, settings, strategies as st

from qhenum.sexpr import _TOKEN, SexprError, parse_all, parse_one, to_text


def test_atoms():
    assert parse_one("42") == 42
    assert parse_one("-7") == -7
    assert parse_one("foo") == "foo"
    assert parse_one("-") == "-"


def test_nested_lists():
    assert parse_one("(a (b 1) ())") == ["a", ["b", 1], []]


def test_comments_and_whitespace():
    text = """
    ; leading comment
    (and x ; inline comment
         y)
    """
    assert parse_one(text) == ["and", "x", "y"]


def test_parse_all_multiple_forms():
    assert parse_all("(a) (b 2)") == [["a"], ["b", 2]]


def test_quoted_symbols():
    assert parse_one("(|odd name| 1)") == ["|odd name|", 1]


@pytest.mark.parametrize("bad", ["(a", ")", "(a))", ""])
def test_malformed_input(bad):
    with pytest.raises(SexprError):
        parse_one(bad)


def test_to_text_round_trip():
    expr = ["store", ["as", "const"], -3, "x$1!"]
    assert parse_one(to_text(expr)) == expr


atoms = st.one_of(
    st.integers(min_value=-999, max_value=999),
    st.from_regex(r"[a-z][a-z0-9\.\$!]{0,6}", fullmatch=True),
)
sexprs = st.recursive(atoms, lambda inner: st.lists(inner, max_size=4), max_leaves=20)


@given(sexprs)
def test_round_trip_any(expr):
    assert parse_one(to_text(expr)) == expr


# -- the reader against a character-at-a-time reference ----------------------


def reference_tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
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
            while j < n and text[j] not in " \t\r\n" and text[j] not in "()" and text[j] != ";":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def reference_atom(token):
    return int(token) if re.fullmatch(r"-?[0-9]+", token) else token


def reference_parse_all(text):
    tokens = reference_tokenize(text)
    pos = 0

    def read():
        nonlocal pos
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
        return reference_atom(tok)

    out = []
    while pos < len(tokens):
        out.append(read())
    return out


def read_outcome(read, text):
    """The forms ``read`` gives for ``text``, or its error's type and message."""
    try:
        return read(text)
    except (SexprError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a|b|", ["a|b|"]),
        ("(|x;y| 1)", [["|x;y|", 1]]),
        ("(a) ; trailing comment, no newline", [["a"]]),
        ("(a |b", (SexprError, "unterminated |symbol|")),
        ("a;b\nc", ["a", "c"]),
        ("(|a\n(b| -)", [["|a\n(b|", "-"]]),
        ("\f1 1\f", ["\f1", "1\f"]),
        (") |x", (SexprError, "unterminated |symbol|")),
        ("(a))", (SexprError, "unexpected ')'")),
        ("((a)", (SexprError, "unbalanced parentheses")),
        ("--5", ["--5"]),
        ("(depth --4 -0 -)", [["depth", "--4", 0, "-"]]),
        ("²", ["²"]),
        ("-²", ["-²"]),
        ("١٢", ["١٢"]),
    ],
)
def test_reader_rows(text, expected):
    assert read_outcome(parse_all, text) == expected
    assert read_outcome(reference_parse_all, text) == expected


@settings(max_examples=2000)
@given(st.text(alphabet="()|;-0123456789²ax \t\n\f", max_size=40))
def test_reader_matches_reference(text):
    assert read_outcome(parse_all, text) == read_outcome(reference_parse_all, text)


# The token pattern before it took the whitespace before each token into its
# match: whitespace matched nothing, and ``findall`` skipped it one
# character at a time.
OLD_TOKEN = re.compile(r";[^\n]*|([^ \t\r\n();|][^ \t\r\n();]*|[()]|\|[^|]*\|?)")


@settings(max_examples=2000)
@given(st.text(alphabet="();|a-1 \t\r\n\f", max_size=40))
def test_token_pattern_finds_the_old_tokens(text):
    assert _TOKEN.findall(text) == OLD_TOKEN.findall(text)
    assert read_outcome(parse_all, text) == read_outcome(reference_parse_all, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a |b", "unterminated |symbol|"),
        ("(a |b  \n", "unterminated |symbol|"),
        ("a | \t\r\n", "unterminated |symbol|"),
        ("((a)", "unbalanced parentheses"),
        ("((a) ; b\n \t", "unbalanced parentheses"),
        ("(a)) \r\n", "unexpected ')'"),
    ],
)
def test_errors_do_not_depend_on_trailing_whitespace(text, message):
    # parse_all stops its scan before trailing whitespace
    for read in (parse_all, reference_parse_all):
        with pytest.raises(SexprError) as err:
            read(text)
        assert str(err.value) == message
