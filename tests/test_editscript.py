import pytest

from sqlpatch.cli import main
from sqlpatch.editscript import (
    EditAction, EditScript, parse_edits, render_edits,
)
from sqlpatch.errors import EditParseError


def test_render_single_replace():
    script = EditScript("token", (EditAction("replace", old="tweets.text",
                                             new="tweets.createdate"),))
    assert render_edits(script) == \
        "<ReplaceOld> tweets.text <ReplaceNew> tweets.createdate <ReplaceEnd>"


def test_empty_script_renders_empty():
    assert render_edits(EditScript("token")) == ""
    assert parse_edits("", "token") == EditScript("token")
    assert parse_edits("   ", "clause-sql") == EditScript("clause-sql")


def test_round_trip_all_kinds():
    script = EditScript("clause-sql", (
        EditAction("delete", old="group by a.b"),
        EditAction("replace", old="order by a.b", new="order by a.c desc"),
        EditAction("insert", new="limit 1"),
    ))
    assert parse_edits(render_edits(script), "clause-sql") == script


def test_mismatched_markers():
    with pytest.raises(EditParseError):
        parse_edits("<Insert> x <ReplaceEnd>", "token")


def test_unknown_marker():
    with pytest.raises(EditParseError, match="unknown marker"):
        parse_edits("<Wibble> x <InsertEnd>", "token")


def test_nested_markers_rejected():
    with pytest.raises(EditParseError):
        parse_edits("<Insert> a <Insert> b <InsertEnd> <InsertEnd>", "token")


def test_unbalanced_markers_rejected():
    with pytest.raises(EditParseError):
        parse_edits("<Insert> a", "token")
    with pytest.raises(EditParseError):
        parse_edits("<ReplaceOld> a <ReplaceNew> b", "token")


def test_empty_span_rejected():
    with pytest.raises(EditParseError):
        parse_edits("<Insert> <InsertEnd>", "token")
    with pytest.raises(EditParseError):
        EditAction("replace", old="", new="x")
    with pytest.raises(EditParseError):
        EditAction("insert", old="x", new="y")
    with pytest.raises(EditParseError):
        EditAction("delete", old="x", new="y")


def test_stray_text_rejected():
    with pytest.raises(EditParseError):
        parse_edits("junk <Insert> a <InsertEnd>", "token")


# (text, the exact EditParseError message): one row or more per message
MALFORMED = [
    ("<Wibble> x <InsertEnd>", "unknown marker '<Wibble>'"),
    ("<Insert> a <b> <InsertEnd>", "unknown marker '<b>'"),
    ("junk <Insert> a <InsertEnd>", "unexpected text outside markers: 'junk'"),
    ("<Insert> a <InsertEnd> tail", "unexpected text outside markers: 'tail'"),
    ("<Delete> a <DeleteEnd> b <Insert> c <InsertEnd>",
     "unexpected text outside markers: 'b'"),
    ("<Insert> <InsertEnd>", "empty span before '<InsertEnd>'"),
    ("<ReplaceOld> <ReplaceNew> b <ReplaceEnd>", "empty span before '<ReplaceNew>'"),
    ("<ReplaceOld> a <ReplaceNew> <ReplaceEnd>", "empty span before '<ReplaceEnd>'"),
    ("<Delete>", "empty span before 'end of text'"),
    ("<Insert> x <ReplaceEnd>", "expected '<InsertEnd>', got '<ReplaceEnd>'"),
    ("<Insert> a <Insert> b <InsertEnd> <InsertEnd>",
     "expected '<InsertEnd>', got '<Insert>'"),
    ("<ReplaceOld> a <ReplaceEnd>", "expected '<ReplaceNew>', got '<ReplaceEnd>'"),
    ("<Insert> a", "expected '<InsertEnd>', got 'end of text'"),
    ("<ReplaceOld> a <ReplaceNew> b", "expected '<ReplaceEnd>', got 'end of text'"),
    ("<InsertEnd>", "unbalanced marker '<InsertEnd>'"),
    ("<Insert> a <InsertEnd> <ReplaceNew> b <ReplaceEnd>", "unbalanced marker '<ReplaceNew>'"),
    # an unknown marker is reported even after a structural error
    ("junk <InsertEnd> <Insert> <Wibble>", "unknown marker '<Wibble>'"),
]


@pytest.mark.parametrize("text,message", MALFORMED)
def test_malformed_text_gives_its_message(text, message):
    with pytest.raises(EditParseError) as info:
        parse_edits(text, "token")
    assert str(info.value) == message


@pytest.mark.parametrize("granularity", ["token", "clause-sql", "clause-pydict", "program"])
def test_a_literal_holding_marker_like_text_composes_only_as_a_program(
        tables_json_path, tmp_path, capsys, granularity):
    """A known limit of the marker format: its reader splits at every
    ``<word>``, quoted or not, so `diff | apply` breaks on a gold whose string
    literal holds one. Edit programs quote their values and carry it."""
    gold = "select tweets.id from tweets where tweets.text = '<b>'"
    wrong, golden, edits = tmp_path / "w.sql", tmp_path / "g.sql", tmp_path / "e.txt"
    wrong.write_text("select tweets.id from tweets", encoding="utf-8")
    golden.write_text(gold, encoding="utf-8")
    assert main(["diff", "--schema", str(tables_json_path), "--db-id", "social",
                 "--granularity", granularity, "--wrong", str(wrong),
                 "--gold", str(golden)]) == 0
    edits.write_text(capsys.readouterr().out, encoding="utf-8")
    status = main(["apply", "--granularity", granularity, "--wrong", str(wrong),
                   "--edits", str(edits)])
    if granularity == "program":
        assert (status, capsys.readouterr()) == (0, (gold + "\n", ""))
    else:
        assert (status, capsys.readouterr()) == (1, ("", "error: unknown marker '<b>'\n"))
