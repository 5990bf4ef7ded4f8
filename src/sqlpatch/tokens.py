"""SQL tokenizer and canonical detokenizer.

Non-value tokens come out lowercased; string literals keep their original
quoting and character case so values survive normalization untouched.
A Token is an immutable named tuple, so shared instances are safe.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .errors import TokenizeError

CLAUSE_KEYWORDS = (
    "select", "from", "where", "group", "having", "order", "limit",
    "intersect", "union", "except",
)
AGGREGATORS = ("max", "min", "count", "sum", "avg")
KEYWORDS = frozenset(
    CLAUSE_KEYWORDS
    + AGGREGATORS
    + ("by", "distinct", "as", "join", "on", "and", "or", "not", "in",
       "like", "between", "asc", "desc")
)

COMPARE_OPS = ("=", "!=", "<=", ">=", "<", ">")
ARITH_OPS = ("+", "-", "*", "/")

# A quoted literal: its quote character written twice stands for itself.
QUOTED = r"'[^']*(?:''[^']*)*'" r'|"[^"]*(?:""[^"]*)*"'

# Every token is one match; whitespace matches nothing, and "\S" catches any
# other character, so the matches cover the input. A word that starts like a
# number (a digit, or "." and a digit) but is not a plain number is malformed.
_TOKEN_RE = re.compile(QUOTED + r"|[A-Za-z0-9_.]+(?:(?<=\.)\*)?"
                       r"|<=|>=|!=|<>|[=<>+\-/*(),;]|\S")
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?").fullmatch
_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")


class Token(NamedTuple):
    text: str
    kind: str  # keyword | identifier | number-literal | string-literal | operator | punctuation | star


# The tokens whose text fixes their kind, built once and shared by every
# tokenize call; "<>" maps to the "!=" token.
_SHARED = {
    **{text: Token(text, "keyword") for text in KEYWORDS},
    **{text: Token(text, "operator") for text in COMPARE_OPS + ("+", "-", "/")},
    "<>": Token("!=", "operator"),
    "*": Token("*", "star"),
    **{text: Token(text, "punctuation") for text in "(),;"},
}


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens, lowercasing everything but string literals.

    Keywords, operators, punctuation and "*" come out as shared Token
    instances (equal to freshly built ones); only identifiers, numbers,
    qualified stars and string literals are built per call.
    """
    if sql is None or not sql.strip():
        raise TokenizeError("empty input")
    shared = _SHARED.get
    tokens: list[Token] = []
    for text in _TOKEN_RE.findall(sql):
        token = shared(text)
        if token is None:
            first = text[0]
            if first in _WORD_CHARS:
                if first.isdigit() or first == "." and text[1:2].isdigit():
                    if not _NUMBER(text):
                        raise _error(sql, len(tokens), f"malformed number literal {text!r}")
                    token = Token(text, "number-literal")
                else:
                    word = text.lower()
                    token = shared(word) or Token(word, "star" if word.endswith(".*")
                                                  else "identifier")
            elif first in "'\"":
                if len(text) == 1:
                    raise _error(sql, len(tokens), "unterminated string literal starting")
                token = Token(text, "string-literal")
            else:
                raise _error(sql, len(tokens), f"illegal character {text!r}")
        tokens.append(token)
    return tokens


def _error(sql: str, i: int, what: str) -> TokenizeError:
    """The error at the i-th token match of sql, which names its offset. The
    match is found again only here: each match before it made one token."""
    match = next(itertools.islice(_TOKEN_RE.finditer(sql), i, None))
    return TokenizeError(f"{what} at offset {match.start()}")


def detokenize(texts) -> str:
    """Join token texts with canonical spacing.

    Single spaces everywhere except: nothing after "(", nothing before ")"
    or ",", a space after ",", and no space between an aggregator name and
    its opening parenthesis.
    """
    out: list[str] = []
    prev = None
    for text in texts:
        if (prev is None or prev == "(" or text in (")", ",")
                or text == "(" and prev in AGGREGATORS):
            out.append(text)
        else:
            out.append(" " + text)
        prev = text
    return "".join(out)
