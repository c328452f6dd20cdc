"""No dead definitions or imports under ``src/``.

A ``def`` or ``class`` whose name occurs nowhere but at its own
definition, in any Python file of the directories below, is code that
nothing calls: delete it.  Dunder names are exempt, since Python calls
them.  Likewise a name that a module imports but never loads: delete
the import.
"""

import ast
import collections
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ("src", "tests", "scripts", "perfbench", "benchmarks", "examples")
DEFINITION = re.compile(
    r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+(\w+)", re.MULTILINE)


def test_every_definition_under_src_is_used():
    words = collections.Counter()
    definitions = collections.defaultdict(list)
    for top in SEARCHED:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for filename in files:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                words.update(re.findall(r"\w+", text))
                if top != "src":
                    continue
                for match in DEFINITION.finditer(text):
                    line = text.count("\n", 0, match.start()) + 1
                    definitions[match.group(1)].append(
                        f"{os.path.relpath(path, ROOT)}:{line}")
    assert definitions, "no definitions found under src/"
    dead = sorted(
        f"{name} ({', '.join(places)})"
        for name, places in definitions.items()
        if not (name.startswith("__") and name.endswith("__"))
        and words[name] <= len(places)
    )
    assert not dead, "defined but never used: " + "; ".join(dead)


def test_every_import_under_src_is_used():
    """A package's ``__init__.py`` imports to re-export, so it is
    exempt; so is an import line marked ``# noqa: F401`` (a binding
    kept for code that patches it, or an import made for its side
    effect)."""
    unused = []
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for filename in files:
            if not filename.endswith(".py") or filename == "__init__.py":
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            lines = text.splitlines()
            tree = ast.parse(text)
            loaded = {
                node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
            }
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if "# noqa: F401" in lines[node.lineno - 1]:
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.append(
                            f"{name} ({os.path.relpath(path, ROOT)}:"
                            f"{node.lineno})")
    assert not unused, "imported but never used: " + "; ".join(
        sorted(unused))
