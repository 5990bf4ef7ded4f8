"""The contract of every AST node and value record: plain slotted classes
whose equality, repr and hash come from their fields, and which survive
pickle (the worker pool's transport) and deep copies."""

import copy
import pickle

import pytest

from sqlpatch import nodes
from sqlpatch.dataset import DatasetSplit, DatasetStats, ExampleRecord, ParserOutput
from sqlpatch.diffs import DiffItem
from sqlpatch.editscript import EditAction, EditScript
from sqlpatch.interact import Candidate, SessionLog, SessionStep
from sqlpatch.metrics import EvalOutcome, McNemarResult
from sqlpatch.nodes import (
    BoolOp, ColumnRef, ColUnit, Condition, FromClause, JoinedTable, Literal, OrderItem,
    Query, Record, Select, SelectItem, SetOp, ValUnit, ValueList,
)
from sqlpatch.program import Assign, EditProgram, Pop
from sqlpatch.schema import SchemaInfo
from sqlpatch.vm import ApplyReport, _Op

COL = ColumnRef("cars_data", "mpg")
VAL = ValUnit(None, ColUnit("max", False, COL))
COND = Condition(VAL, ">", Literal("number", "20"))
SELECT = Select(False, (SelectItem(None, False, VAL),))
INNER = Query(SELECT, FromClause((JoinedTable("cars_data"),)))
RECORD = ExampleRecord("cars", "q?", "cars | cars_data : mpg", "select 1", "select 2",
                       "sql", "token", "x", "y", 1, 0, -0.5)
STEP = SessionStep([["a"]], None, 2)

# One value of each class. None in the second column marks a hashable
# value; otherwise it is the type that hash() names as unhashable. The two
# records with a dict or list field are declared hashable, so their hash
# fails on that field.
VALUES = [
    (COL, "ColumnRef"),
    (VAL.left, "ColUnit"),
    (ValUnit("+", VAL.left, ColUnit(None, True, COL)), "ValUnit"),
    (SELECT.items[0], "SelectItem"),
    (SELECT, "Select"),
    (Literal("string", "'it'"), "Literal"),
    (ValueList((Literal("number", "1"),)), "ValueList"),
    (Condition(VAL, "between", Literal("number", "1"), Literal("number", "2")), "Condition"),
    (BoolOp("and", (COND, Condition(VAL, "in", ValueList(())))), "BoolOp"),
    (JoinedTable("cars_data", "t1", (COND,)), "JoinedTable"),
    (FromClause(subquery=INNER, subquery_alias="t"), "FromClause"),
    (OrderItem(VAL), "OrderItem"),
    (SetOp("union", INNER), "SetOp"),
    (Query(SELECT, FromClause((JoinedTable("cars_data"),)), where=COND, group_by=(COL,),
           order_by=(OrderItem(VAL, "desc"),), limit=3, set_op=SetOp("union", INNER)),
     "Query"),
    (SchemaInfo("cars", ("cars_data",), {"cars_data": ("mpg",)}, (("a.b", "c.d"),)), "dict"),
    (EvalOutcome(False, True), None),
    (McNemarResult(0, 0, 1.0, degenerate=True), None),
    (ParserOutput("cars", "q?", "select 1", (("select 1", 1.0), ("select 2", 0.5))), None),
    (RECORD, None),
    (DatasetSplit([RECORD], []), "list"),
    (DatasetStats(1, 1.0), None),
    (DiffItem("replace", ("where",), (("where", "x"),), (("where", "y"),)), None),
    (EditAction("insert", new="c"), None),
    (EditScript("token", (EditAction("delete", "d"),)), None),
    (Assign(("where",), "x"), None),
    (Pop((), "limit"), None),
    (EditProgram((Pop((), "limit"),)), None),
    (ApplyReport("select 1", 1, 2), None),
    (_Op("replace", "where", "x", (("where", "y"),)), "_Op"),
    (Candidate(("a", "b"), "select 1"), None),
    (STEP, "SessionStep"),
    (SessionLog([STEP], ["a"], "select 1", True), "SessionLog"),
]

IDS = [type(value).__name__ for value, _ in VALUES]


def test_every_node_and_record_class_is_covered():
    node_classes = {c for c in vars(nodes).values()
                    if isinstance(c, type) and issubclass(c, Record) and c is not Record}
    assert node_classes <= {type(value) for value, _ in VALUES}
    assert len(set(IDS)) == len(IDS) == 32


@pytest.mark.parametrize("value, unhashable", VALUES, ids=IDS)
def test_equality_hash_and_copies_come_from_the_fields(value, unhashable):
    assert not hasattr(value, "__dict__")
    twin = type(value)(*(getattr(value, name) for name in type(value).__slots__))
    assert twin == value and not twin != value
    assert value != (*value._values(),) and value != object()
    for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert other == value and other is not value and type(other) is type(value)
    if unhashable is None:
        assert hash(twin) == hash(value) and {value, twin} == {value}
    else:
        with pytest.raises(TypeError, match=f"unhashable type: '{unhashable}'"):
            hash(value)


@pytest.mark.parametrize("value, unhashable", VALUES, ids=IDS)
def test_a_changed_field_breaks_equality(value, unhashable):
    first = type(value).__slots__[0]
    other = copy.copy(value)
    object.__setattr__(other, first, "changed")
    assert other != value


@pytest.mark.parametrize("value, unhashable", VALUES, ids=IDS)
def test_repr_names_every_field_and_reads_back(value, unhashable):
    namespace = {type(v).__name__: type(v) for v, _ in VALUES}
    assert eval(repr(value), namespace) == value


def test_repr_text():
    assert repr(COL) == "ColumnRef(table='cars_data', column='mpg')"
    assert repr(EditAction("insert", new="c")) == "EditAction(kind='insert', old='', new='c')"
    assert repr(SessionLog()) == ("SessionLog(steps=[], selected=[], result_sql='', "
                                  "fully_corrected=False)")
    assert repr(FromClause()) == "FromClause(tables=(), subquery=None, subquery_alias=None)"


def test_mutable_defaults_are_fresh_per_value():
    a, b = SessionLog(), SessionLog()
    assert a.steps is not b.steps and a.selected is not b.selected
    assert SchemaInfo("x", ()).columns is not SchemaInfo("x", ()).columns
