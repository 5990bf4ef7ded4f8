"""SQL tokenizer and canonical detokenizer.

Non-value tokens come out lowercased; string literals keep their original
quoting and character case so values survive normalization untouched.
A Token is an immutable named tuple, so shared instances are safe.
"""

from __future__ import annotations

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

# One alternative per token class; "bad" catches any other character, so
# consecutive matches cover the whole input. A word that starts like a number
# (a digit, or "." and a digit) but is not a plain number is a "malformed" one.
_TOKEN_RE = re.compile(r"""
    (?P<space>\s+)
  | (?P<literal>'[^']*'|"[^"]*")
  | (?P<number>[0-9]+(?:\.[0-9]+)?(?![A-Za-z0-9_.]))
  | (?P<malformed>\.?[0-9][A-Za-z0-9_.]*(?:(?<=\.)\*)?)
  | (?P<word>[A-Za-z0-9_.]+(?:(?<=\.)\*)?)
  | (?P<operator><=|>=|!=|<>|[=<>+\-/])
  | (?P<star>\*)
  | (?P<punctuation>[(),;])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


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
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(sql):
        group = match.lastgroup
        if group == "space":
            continue
        text = match.group()
        if group == "word":
            word = text.lower()
            tokens.append(_SHARED.get(word)
                          or Token(word, "star" if word.endswith(".*") else "identifier"))
        elif group == "literal":
            tokens.append(Token(text, "string-literal"))
        elif group == "number":
            tokens.append(Token(text, "number-literal"))
        elif group == "malformed":
            raise TokenizeError(f"malformed number literal {text!r} at offset {match.start()}")
        elif group == "bad":
            i = match.start()
            if text in "'\"":
                raise TokenizeError(f"unterminated string literal starting at offset {i}")
            raise TokenizeError(f"illegal character {text!r} at offset {i}")
        else:
            tokens.append(_SHARED[text])
    return tokens


def detokenize(texts) -> str:
    """Join token texts with canonical spacing.

    Single spaces everywhere except: nothing after "(", nothing before ")"
    or ",", a space after ",", and no space between an aggregator name and
    its opening parenthesis.
    """
    out: list[str] = []
    prev = None
    for text in texts:
        if prev is None:
            out.append(text)
        elif prev == "(":
            out.append(text)
        elif text in (")", ","):
            out.append(text)
        elif text == "(" and prev in AGGREGATORS:
            out.append(text)
        else:
            out.append(" " + text)
        prev = text
    return "".join(out)
