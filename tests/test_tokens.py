import hashlib
import random

import pytest

from sqlpatch.errors import TokenizeError
from sqlpatch.tokens import Token, detokenize, tokenize


def texts(sql):
    return [t.text for t in tokenize(sql)]


def test_basic_split():
    assert texts("select count(*) from cars_data") == \
        ["select", "count", "(", "*", ")", "from", "cars_data"]


def test_empty_input_rejected():
    with pytest.raises(TokenizeError):
        tokenize("")
    with pytest.raises(TokenizeError):
        tokenize("   ")


def test_string_literal_preserved_verbatim():
    tokens = tokenize("where name = 'Alice'")
    lit = tokens[-1]
    assert lit.kind == "string-literal"
    assert lit.text == "'Alice'"


def test_double_quoted_literal_preserved():
    tokens = tokenize('where name = "MiXeD Case"')
    assert tokens[-1].text == '"MiXeD Case"'


def test_unterminated_string():
    with pytest.raises(TokenizeError):
        tokenize("where name = 'oops")


def test_illegal_character():
    with pytest.raises(TokenizeError):
        tokenize("select @foo from t")


def test_lowercasing_spares_values():
    tokens = tokenize("SELECT T1.Text FROM Tweets WHERE x = 'KeepMe'")
    assert [t.text for t in tokens] == \
        ["select", "t1.text", "from", "tweets", "where", "x", "=", "'KeepMe'"]


def test_operator_normalization():
    assert texts("a <> b") == ["a", "!=", "b"]
    assert texts("a<=b") == ["a", "<=", "b"]
    assert texts("a>=1") == ["a", ">=", "1"]


def test_qualified_star():
    tokens = tokenize("select tweets.* from tweets")
    assert tokens[1] == Token("tweets.*", "star")


def test_number_kinds():
    assert tokenize("limit 10")[1].kind == "number-literal"
    assert tokenize("where x = 3.5")[-1].kind == "number-literal"


@pytest.mark.parametrize("literal", ["1e3", "1E3", "1.5e3", ".5", "5.", "1.2.3", "2nd", "5.*"])
def test_malformed_numbers_rejected(literal):
    with pytest.raises(TokenizeError) as err:
        tokenize(f"select a from t where b = {literal}")
    assert str(err.value) == f"malformed number literal {literal!r} at offset 26"


@pytest.mark.parametrize("sql,message", [
    ("select 'a!b' from t where x ! 1", "illegal character '!' at offset 28"),
    ("select \"it's\" from t where x = 'oops", "unterminated string literal starting at offset 31"),
    ("select '1e3' from t where x = 1e3", "malformed number literal '1e3' at offset 30"),
])
def test_error_offset_is_the_token_not_an_earlier_literal(sql, message):
    # The offending text also occurs inside an earlier string literal.
    with pytest.raises(TokenizeError) as err:
        tokenize(sql)
    assert str(err.value) == message


def test_words_with_a_dot_are_identifiers_unless_numeric():
    assert [t.kind for t in tokenize("t1.c .c t.5")] == ["identifier"] * 3


def test_detokenize_spacing():
    assert detokenize(["count", "(", "*", ")"]) == "count(*)"
    assert detokenize(["max", "(", "cars_data.horsepower", ")"]) == \
        "max(cars_data.horsepower)"
    assert detokenize(["a", ">", "(", "select", "b", ")"]) == "a > (select b)"
    assert detokenize(["in", "(", "1", ",", "2", ")"]) == "in (1, 2)"
    assert detokenize(["sum", "("]) == "sum("


def test_tokenize_detokenize_fixpoint():
    sql = "select count(*) from cars_data where cars_data.accelerate > " \
          "(select max(cars_data.horsepower) from cars_data)"
    assert detokenize(texts(sql)) == sql


def test_shared_tokens_equal_fresh_ones():
    tokens = tokenize("SELECT * FROM t WHERE a <> 1 AND (b + c) <= 2;")
    assert tokens == [
        Token("select", "keyword"), Token("*", "star"), Token("from", "keyword"),
        Token("t", "identifier"), Token("where", "keyword"), Token("a", "identifier"),
        Token("!=", "operator"), Token("1", "number-literal"), Token("and", "keyword"),
        Token("(", "punctuation"), Token("b", "identifier"), Token("+", "operator"),
        Token("c", "identifier"), Token(")", "punctuation"), Token("<=", "operator"),
        Token("2", "number-literal"), Token(";", "punctuation")]
    assert tokenize("select")[0] is tokenize("SeLeCt")[0]


_SPACES = [c for c in map(chr, range(0x3001)) if c.isspace()]
_PIECES = (list("'\".*<>!=(),;+-/_")
           + list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")
           + _SPACES + list("@é٣#") + ["select", "FROM", "Count", "t1.", "3.5", "<>"])


def test_tokenize_matches_pinned_digest():
    # The token lists, or error messages, of 20,000 seeded random strings,
    # pinned as a sha256 prefix when tokenize scanned one character at a
    # time, and pinned again when words that start like a number but are not
    # plain numbers became errors. 3,487 strings changed, each to that error:
    # those that tokenized before held such a word, and those that failed
    # before now fail at an earlier offset. The pieces hold every whitespace
    # character below U+3001.
    assert len(_SPACES) == 29
    rng = random.Random(8)
    digest = hashlib.sha256()
    for _ in range(20_000):
        text = "".join(rng.choices(_PIECES, k=rng.randrange(30)))
        try:
            out = [(t.text, t.kind) for t in tokenize(text)]
        except TokenizeError as exc:
            out = str(exc)
        digest.update(repr((text, out)).encode() + b"\n")
    assert digest.hexdigest()[:16] == "217a830067ab990f"
