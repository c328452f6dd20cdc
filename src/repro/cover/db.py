"""The coverage database: mergeable, on-disk, content-addressed.

One :class:`CoverageDB` holds *groups* of serialized coverage:

- ``functional`` groups — one per benchmark module, the
  :meth:`repro.cover.model.CoverModel.to_dict` counters of the
  stimulus-space model (identical bin definitions for every error
  instance of a module, so campaign-wide merging accumulates one
  per-module picture);
- ``code`` groups — one per error instance (mutants have different
  ASTs, so their statement maps must not be conflated), the
  :meth:`repro.cover.code.CodeCoverage.to_dict` counters.

The **union-merge** operator sums hit counters and unions key sets;
it is commutative and associative, so ``--jobs N`` workers and
``--shard i/n`` hosts can accumulate in any order and land on the
same database.  :meth:`dumps` is deterministic bytes (sorted keys,
fixed separators), which makes "bit-identical across execution
plans" a checkable property — and is what the content address
(:meth:`save`) hashes, exactly like the campaign result cache.
"""

import hashlib
import json
import os
import tempfile

from repro.cover.model import model_from_counters

DB_SCHEMA_VERSION = 1


class CoverageMergeError(ValueError):
    """Two databases disagree on bin *definitions* (not counts)."""


class CoverageDB:
    """Groups of serialized functional + code coverage counters."""

    def __init__(self, functional=None, code=None):
        self.functional = dict(functional or {})
        self.code = dict(code or {})

    # -- accumulation --------------------------------------------------------

    def add_functional(self, group, model_dict):
        """Merge one covergroup dict (``CoverModel.to_dict``) into
        ``group``."""
        if group in self.functional:
            _merge_functional(self.functional[group], model_dict)
        else:
            self.functional[group] = _copy_json(model_dict)
        return self

    def add_code(self, group, code_dict):
        """Merge one code-coverage dict into ``group``."""
        if group in self.code:
            _merge_code(self.code[group], code_dict)
        else:
            self.code[group] = _copy_json(code_dict)
        return self

    def add_fragment(self, fragment):
        """Merge one record fragment: ``{"functional": {group: ...},
        "code": {group: ...}}`` (the shape carried by campaign
        records)."""
        for group, model_dict in (fragment.get("functional") or {}).items():
            self.add_functional(group, model_dict)
        for group, code_dict in (fragment.get("code") or {}).items():
            self.add_code(group, code_dict)
        return self

    def merge(self, other):
        """Union-merge another database into this one."""
        return self.add_fragment(
            {"functional": other.functional, "code": other.code}
        )

    @classmethod
    def from_records(cls, records):
        """Accumulate the ``coverage`` fragments of campaign records."""
        db = cls()
        for record in records:
            fragment = getattr(record, "coverage", None) or {}
            db.add_fragment(fragment)
        return db

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "schema": DB_SCHEMA_VERSION,
            "functional": self.functional,
            "code": self.code,
        }

    @classmethod
    def from_dict(cls, data):
        if data.get("schema") != DB_SCHEMA_VERSION:
            raise ValueError(
                f"coverage DB schema {data.get('schema')!r} != "
                f"{DB_SCHEMA_VERSION}"
            )
        return cls(functional=data.get("functional"),
                   code=data.get("code"))

    def dumps(self):
        """Deterministic JSON bytes: equal databases serialize to
        equal bytes regardless of merge/insertion order."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def content_key(self):
        return hashlib.sha256(self.dumps()).hexdigest()

    def write(self, path):
        """Write the database to ``path`` atomically."""
        payload = self.dumps()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path

    def save(self, directory):
        """Content-addressed store (like the campaign cache): writes
        ``<directory>/coverage/<sha256>.json``; returns the path.
        Shards sharing a directory never collide — identical content
        hashes to the identical path."""
        target_dir = os.path.join(os.fspath(directory), "coverage")
        os.makedirs(target_dir, exist_ok=True)
        path = os.path.join(target_dir, f"{self.content_key()}.json")
        return self.write(path)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as handle:
            return cls.from_dict(json.loads(handle.read().decode("utf-8")))

    @classmethod
    def merge_paths(cls, paths):
        """Load and union-merge several database files."""
        db = cls()
        for path in paths:
            db.merge(cls.load(path))
        return db

    # -- reporting -----------------------------------------------------------

    def functional_models(self):
        """``{group: CoverModel}`` rebuilt from serialized counters."""
        return {
            group: model_from_counters(group, counters)
            for group, counters in sorted(self.functional.items())
        }

    def functional_summary(self):
        """``{group: coverage_fraction}`` from serialized counters."""
        return {
            group: model.coverage
            for group, model in self.functional_models().items()
        }

    def functional_coverage(self):
        """Mean functional coverage over all groups (1.0 if empty)."""
        summary = self.functional_summary()
        if not summary:
            return 1.0
        return sum(summary.values()) / len(summary)

    def code_summary(self):
        """``{group: (stmt_cov, branch_cov)}`` fractions."""
        out = {}
        for group, code in sorted(self.code.items()):
            totals = code.get("totals", {})
            stmt_total = totals.get("stmt", 0)
            branch_total = totals.get("branch", 0)
            out[group] = (
                len(code.get("stmts", {})) / stmt_total
                if stmt_total else 1.0,
                len(code.get("branches", {})) / branch_total
                if branch_total else 1.0,
            )
        return out

    def report(self):
        lines = ["coverage database"]
        lines.append(f"  functional groups: {len(self.functional)}, "
                     f"code groups: {len(self.code)}")
        for group, model in self.functional_models().items():
            covered, total = model.bin_counts()
            lines.append(
                f"  functional {group}: {covered}/{total} bins "
                f"({100.0 * model.coverage:.1f}%)"
            )
        code = self.code_summary()
        if code:
            stmt = sum(s for s, _ in code.values()) / len(code)
            branch = sum(b for _, b in code.values()) / len(code)
            lines.append(
                f"  code (mean over {len(code)} groups): "
                f"stmt {100.0 * stmt:.1f}%, branch {100.0 * branch:.1f}%"
            )
        lines.append(
            f"  TOTAL functional: "
            f"{100.0 * self.functional_coverage():.1f}%"
        )
        return "\n".join(lines)


# -- merge internals ---------------------------------------------------------


def _copy_json(data):
    return json.loads(json.dumps(data))


def _sum_counters(into, extra):
    for key, count in extra.items():
        into[key] = into.get(key, 0) + count


def _merge_functional(into, extra):
    for name, point in (extra.get("points") or {}).items():
        mine = into.setdefault("points", {}).get(name)
        if mine is None:
            into["points"][name] = _copy_json(point)
            continue
        if mine.get("bins") != point.get("bins"):
            raise CoverageMergeError(
                f"point '{name}' bin definitions differ"
            )
        _sum_counters(mine["hits"], point.get("hits", {}))
    for name, cross in (extra.get("crosses") or {}).items():
        mine = into.setdefault("crosses", {}).get(name)
        if mine is None:
            into["crosses"][name] = _copy_json(cross)
            continue
        if (mine.get("points") != cross.get("points")
                or mine.get("sizes") != cross.get("sizes")):
            raise CoverageMergeError(
                f"cross '{name}' definitions differ"
            )
        _sum_counters(mine["hits"], cross.get("hits", {}))
    for name, trans in (extra.get("transitions") or {}).items():
        mine = into.setdefault("transitions", {}).get(name)
        if mine is None:
            into["transitions"][name] = _copy_json(trans)
            continue
        if (mine.get("signal") != trans.get("signal")
                or mine.get("seqs") != trans.get("seqs")):
            raise CoverageMergeError(
                f"transition '{name}' definitions differ"
            )
        _sum_counters(mine["hits"], trans.get("hits", {}))


def _merge_code(into, extra):
    _sum_counters(into.setdefault("stmts", {}),
                  extra.get("stmts", {}))
    _sum_counters(into.setdefault("branches", {}),
                  extra.get("branches", {}))
    totals = into.setdefault("totals", {"stmt": 0, "branch": 0})
    for key, value in (extra.get("totals") or {}).items():
        totals[key] = max(totals.get(key, 0), value)
    toggle = into.setdefault("toggle", {})
    for name, entry in (extra.get("toggle") or {}).items():
        mine = toggle.get(name)
        if mine is None:
            toggle[name] = dict(entry)
            continue
        mine["rise"] = mine.get("rise", 0) | entry.get("rise", 0)
        mine["fall"] = mine.get("fall", 0) | entry.get("fall", 0)
        mine["width"] = max(mine.get("width", 0), entry.get("width", 0))

