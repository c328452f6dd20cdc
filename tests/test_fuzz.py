"""Tests for the differential fuzzing subsystem.

Fast structural checks (generator determinism, feature coverage,
shrinker convergence, cache keys, CLI plumbing) run everywhere; the
oracle sweep over a block of live seeds carries the ``fuzz`` marker
(deselected in the CI test matrix — the dedicated CI fuzz job runs a
far larger budgeted campaign through ``repro.cli fuzz``).
"""

import json
import os

import pytest

from repro.fuzz.campaign import (
    FuzzUnit,
    execute_fuzz_unit,
    expand_fuzz,
    make_fuzz_cache,
    run_fuzz,
)
from repro.fuzz.generate import generate_design
from repro.fuzz.oracle import (
    FuzzFailure,
    check_design,
    design_signature,
    gen_stimulus,
    run_oracle,
)
from repro.fuzz.shrink import shrink
from repro.sim.elaborate import elaborate


class TestGenerator:
    def test_deterministic(self):
        for seed in (0, 7, 1234):
            a = generate_design(seed)
            b = generate_design(seed)
            assert a.source == b.source
            assert a.inputs == b.inputs
            assert a.features == b.features

    def test_distinct_seeds_distinct_designs(self):
        assert generate_design(1).source != generate_design(2).source

    def test_designs_elaborate(self):
        for seed in range(20):
            design = generate_design(seed)
            elaborated = elaborate(design.source)
            assert elaborated.signals

    def test_feature_space_is_covered(self):
        """A modest seed block must exercise every special construct
        the generator claims to emit."""
        seen = set()
        for seed in range(60):
            seen.update(generate_design(seed).features)
        for feature in (
            "seq", "comb-always", "fsm", "memory", "comb-cycle",
            "demoted-process", "instance", "case", "for",
            "x-literal", "ba-nba-mix", "indexed-part-select",
        ):
            assert feature in seen, f"feature {feature} never generated"

    def test_comb_cycle_defeats_levelizer(self):
        """A design fails to levelize exactly when it carries the
        gated-latch cycle.  The converse matters: a design that does
        not levelize runs on the interpreter on every backend, so a
        levelizer that refused more designs would quietly turn the
        cross-backend checks into the interpreter against itself."""
        from repro.sim.compile.levelize import levelize

        found = 0
        for seed in range(60):
            design = generate_design(seed)
            cyclic = "comb-cycle" in design.features
            refused = levelize(elaborate(design.source)) is None
            assert refused == cyclic, seed
            found += cyclic
        assert found > 0

    def test_demoted_process_stays_on_interpreter(self):
        from repro.sim.backend import make_simulator

        found = 0
        for seed in range(80):
            design = generate_design(seed)
            if "demoted-process" not in design.features:
                continue
            sim = make_simulator(design.source, backend="compiled")
            assert sim.fallback_reasons, design.seed
            found += 1
            if found >= 3:
                break
        assert found > 0


class TestStimulus:
    def test_deterministic_and_serializable(self):
        design = generate_design(3)
        a = gen_stimulus(design.inputs, 3, 10, design.has_clock,
                         design.has_reset)
        b = gen_stimulus(design.inputs, 3, 10, design.has_clock,
                         design.has_reset)
        assert a == b
        assert json.loads(json.dumps(a)) == [list(op) for op in a]

    def test_reset_pulse_leads_when_present(self):
        for seed in range(40):
            design = generate_design(seed)
            if not design.has_reset:
                continue
            ops = gen_stimulus(design.inputs, seed, 4, True, True)
            assert ops[0] == ("poke", "rst_n", 0, 0)
            return
        pytest.skip("no reset design in range")


class TestOracle:
    def test_signature_differs_on_width_change(self):
        a = elaborate("module m(a, y);\n  input a;\n  output y;\n"
                      "  wire [3:0] t;\n  assign y = a;\nendmodule")
        b = elaborate("module m(a, y);\n  input a;\n  output y;\n"
                      "  wire [4:0] t;\n  assign y = a;\nendmodule")
        assert design_signature(a) != design_signature(b)

    def test_detects_planted_printer_break(self, monkeypatch):
        """Plant a printer bug (drop else branches) and assert the
        oracle's round-trip checks flag it."""
        from repro.hdl import printer as printer_mod

        source = (
            "module m(clk, a, y);\n    input clk;\n    input a;\n"
            "    output reg y;\n    always @(posedge clk)\n"
            "        begin\n            if (a)\n"
            "                y <= 1'b1;\n            else\n"
            "                y <= 1'b0;\n        end\nendmodule\n"
        )
        ops = [("poke", "a", 0, 0), ("tick",), ("poke", "a", 1, 0),
               ("tick",)]
        assert run_oracle(source, ops) is None

        original = printer_mod.print_stmt

        def lossy(stmt, indent=1):
            from repro.hdl import ast
            if isinstance(stmt, ast.If) and stmt.else_stmt is not None:
                stmt = ast.If(cond=stmt.cond, then_stmt=stmt.then_stmt,
                              else_stmt=None)
            return original(stmt, indent)

        monkeypatch.setattr(printer_mod, "print_stmt", lossy)
        failure = run_oracle(source, ops)
        assert failure is not None

    def test_live_block_passes(self):
        for seed in range(6):
            design = generate_design(seed)
            ops, failure = check_design(design, cycles=10)
            assert failure is None, (seed, failure)
            assert ops


@pytest.mark.fuzz
class TestOracleSweep:
    """A live mini-campaign; the CI fuzz job runs the big one."""

    def test_seed_block_is_clean(self):
        for seed in range(40):
            design = generate_design(seed)
            ops, failure = check_design(design, cycles=16)
            assert failure is None, (
                f"seed {seed}: {failure.kind}: {failure.detail}"
            )


class TestShrink:
    def test_shrinks_synthetic_failure(self):
        """A synthetic checker (failure iff the design still contains
        the marker reg and one poke survives) must shrink to nearly
        the trigger alone."""
        design = generate_design(11)
        ops = gen_stimulus(design.inputs, 11, 12, design.has_clock,
                           design.has_reset)
        marker = "r3"

        def check(source, ops_list):
            if marker in source and len(ops_list) >= 1:
                return FuzzFailure("synthetic", "marker present")
            return None

        assert check(design.source, ops) is not None
        result = shrink(design.source, ops, "synthetic", check=check)
        assert check(result.source, result.ops) is not None
        assert len(result.source) < len(design.source) * 0.5
        assert len(result.ops) <= 1

    def test_shrink_is_deterministic(self):
        design = generate_design(11)
        ops = gen_stimulus(design.inputs, 11, 8, design.has_clock,
                           design.has_reset)

        def check(source, ops_list):
            if "r3" in source:
                return FuzzFailure("synthetic", "marker")
            return None

        a = shrink(design.source, ops, "synthetic", check=check)
        b = shrink(design.source, ops, "synthetic", check=check)
        assert a.source == b.source
        assert a.ops == b.ops

    def test_preserves_failure_kind(self):
        """The reducer must not hop to a different failure kind."""
        design = generate_design(11)
        ops = gen_stimulus(design.inputs, 11, 8, design.has_clock,
                           design.has_reset)
        calls = []

        def check(source, ops_list):
            calls.append(1)
            if "always" not in source:
                return FuzzFailure("other-kind", "changed")
            if "r3" in source:
                return FuzzFailure("synthetic", "marker")
            return None

        result = shrink(design.source, ops, "synthetic", check=check)
        assert "r3" in result.source


class TestCampaign:
    def test_cache_key_content_hashed(self):
        a = FuzzUnit(index=0, design_seed=5, stim_seed=5, cycles=24)
        b = FuzzUnit(index=9, design_seed=5, stim_seed=5, cycles=24)
        c = FuzzUnit(index=0, design_seed=6, stim_seed=5, cycles=24)
        d = FuzzUnit(index=0, design_seed=5, stim_seed=5, cycles=25)
        assert a.cache_key() == b.cache_key()  # index is not content
        assert a.cache_key() != c.cache_key()
        assert a.cache_key() != d.cache_key()

    def test_execute_unit_verdict_shape(self):
        verdict = execute_fuzz_unit(
            FuzzUnit(index=0, design_seed=2, stim_seed=2, cycles=6)
        )
        assert verdict["ok"] is True
        assert verdict["design_seed"] == 2
        assert "failure" not in verdict
        assert json.loads(json.dumps(verdict)) == verdict

    def test_expand_and_shard(self):
        units = expand_fuzz(10, seed=100)
        assert [u.design_seed for u in units] == list(range(100, 110))

    @pytest.mark.campaign
    def test_run_fuzz_cached_resume(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_fuzz(6, seed=0, cycles=6, jobs=1,
                        cache_dir=cache_dir)
        assert cold["run"] == 6
        assert cold["cached"] == 0
        assert not cold["failures"]
        warm = run_fuzz(6, seed=0, cycles=6, jobs=1,
                        cache_dir=cache_dir)
        assert warm["cached"] == 6
        assert warm["features"] == cold["features"]
        cache = make_fuzz_cache(cache_dir)
        unit = expand_fuzz(1, seed=0, cycles=6)[0]
        assert cache.get(unit.cache_key())["ok"] is True

    @pytest.mark.campaign
    def test_run_fuzz_parallel_matches_serial(self, tmp_path):
        serial = run_fuzz(8, seed=0, cycles=6, jobs=1)
        parallel = run_fuzz(8, seed=0, cycles=6, jobs=2)
        assert serial["features"] == parallel["features"]
        assert serial["failures"] == parallel["failures"]

    def test_shards_partition_exactly(self):
        whole = {u.design_seed for u in expand_fuzz(10, seed=0)}
        pieces = []
        for index in range(3):
            summary_units = [
                u for u in expand_fuzz(10, seed=0)
                if u.index % 3 == index
            ]
            pieces.extend(u.design_seed for u in summary_units)
        assert sorted(pieces) == sorted(whole)


class TestCli:
    @pytest.mark.campaign
    def test_cli_fuzz_smoke(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        code = main(["fuzz", "--count", "5", "--seed", "0",
                     "--cycles", "6", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "5/5 designs" in out
        assert "no divergences found" in out
        # Warm rerun resolves entirely from cache.
        code = main(["fuzz", "--count", "5", "--seed", "0",
                     "--cycles", "6", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "(5 cached" in out

    def test_cli_fuzz_writes_artifacts_on_failure(self, tmp_path,
                                                  monkeypatch,
                                                  capsys):
        """Plant an engine bug and assert the CLI shrinks the failure
        and writes a reproducer artifact."""
        from repro import cli as cli_mod
        from repro.fuzz import campaign as campaign_mod

        def broken_unit(unit):
            verdict = execute_fuzz_unit(unit)
            if unit.design_seed == 1:
                verdict = dict(verdict)
                verdict["ok"] = False
                verdict["failure"] = {"kind": "synthetic",
                                      "detail": "planted"}
                design = generate_design(unit.design_seed)
                verdict["source"] = design.source
                verdict["ops"] = [["tick"]]
            return verdict

        monkeypatch.setattr(campaign_mod, "execute_fuzz_unit",
                            broken_unit)
        artifact_dir = str(tmp_path / "artifacts")
        code = cli_mod.main([
            "fuzz", "--count", "2", "--seed", "0", "--cycles", "4",
            "--no-shrink", "--artifact-dir", artifact_dir,
        ])
        capsys.readouterr()
        assert code == 1
        files = os.listdir(artifact_dir)
        assert len(files) == 1 and files[0].startswith("synthetic-")
        with open(os.path.join(artifact_dir, files[0])) as handle:
            entry = json.load(handle)
        assert entry["kind"] == "synthetic"
        assert entry["origin"]["design_seed"] == 1
