"""No dead definitions under ``src/``.

A ``def`` or ``class`` whose name occurs nowhere but at its own
definition, in any Python file of the directories below, is code that
nothing calls: delete it.  Dunder names are exempt, since Python calls
them.
"""

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
