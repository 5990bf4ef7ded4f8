"""The package front door, each check in a fresh interpreter: `import
sqlpatch` loads the front end only, and every other public name loads its
module on first access."""

import json
import subprocess
import sys

FRONT_END = {"errors", "tokens", "nodes", "parse", "normalize", "schema", "render"}


def _fresh(code: str):
    """The JSON value that code prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_only_the_front_end():
    loaded = _fresh("import json, sys, sqlpatch\n"
                    "print(json.dumps([m for m in sys.modules if m.startswith('sqlpatch.')]))")
    assert set(loaded) == {f"sqlpatch.{name}" for name in FRONT_END}


def test_every_public_name_is_the_object_of_its_module():
    wrong = _fresh("import importlib, json, sqlpatch\n"
                   "print(json.dumps([\n"
                   "    name for name in sqlpatch.__all__\n"
                   "    if getattr(sqlpatch, name) is not getattr(importlib.import_module(\n"
                   "        'sqlpatch.' + sqlpatch._EXPORTS[name]), name)]))")
    assert wrong == []


def test_star_import_binds_every_public_name():
    missing = _fresh("import json\n"
                     "from sqlpatch import *\n"
                     "import sqlpatch\n"
                     "print(json.dumps([n for n in sqlpatch.__all__ if n not in globals()]))")
    assert missing == []


def test_front_end_functions_survive_an_import_of_their_modules():
    kinds = _fresh("import json, sqlpatch.parse, sqlpatch.normalize, sqlpatch.render\n"
                   "import sqlpatch\n"
                   "print(json.dumps([type(f).__name__ for f in (\n"
                   "    sqlpatch.parse, sqlpatch.normalize, sqlpatch.render)]))")
    assert kinds == ["function"] * 3


def test_an_unknown_name_is_an_attribute_error():
    import sqlpatch

    assert not hasattr(sqlpatch, "no_such_name")
