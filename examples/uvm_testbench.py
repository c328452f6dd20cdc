#!/usr/bin/env python3
"""Build a UVM environment by hand (Fig. 3 walkthrough) and dump a VCD.

Instead of the one-call ``run_uvm_test`` wrapper, this example wires
sequencer, driver, monitor, scoreboard and coverage explicitly — the
view a verification engineer has of the framework — runs a FIFO through
a custom sequence, prints the UVM log tail, and exports the waveform.
"""

from repro.bench import get_module
from repro.cover import CoverModel, CoverPoint
from repro.sim import Simulator
from repro.sim.elaborate import elaborate
from repro.sim.vcd import dump_simulator
from repro.uvm import (
    Agent,
    ConcatSequence,
    DirectedSequence,
    RandomSequence,
    ResetSequence,
    Scoreboard,
    Transaction,
)


def main():
    bench = get_module("sync_fifo")

    # 1. Elaborate the DUT and construct the simulator (the "VCS" role).
    design = elaborate(bench.source, top=bench.top)
    simulator = Simulator(design)

    # 2. Stimulus: reset, a directed fill/drain burst, then random traffic.
    fill = [Transaction({"wr_en": 1, "rd_en": 0, "din": 0x10 + i})
            for i in range(8)]
    drain = [Transaction({"wr_en": 0, "rd_en": 1, "din": 0})
             for i in range(8)]
    sequence = ConcatSequence(
        ResetSequence(cycles=2, fields={"wr_en": 0, "rd_en": 0, "din": 0}),
        DirectedSequence(fill + drain),
        RandomSequence(bench.field_ranges, count=24, seed=7),
    )

    # 3. Components: agent (sequencer+driver+monitor), scoreboard, coverage.
    agent = Agent(simulator, sequence, bench.protocol,
                  bench.compare_signals)
    scoreboard = Scoreboard(bench.model(), bench.compare_signals)
    coverage = CoverModel(name="fifo", points=[
        CoverPoint.auto("din", 8),
        CoverPoint("count", [(0, 0), (8, 8), (1, 7)]),  # empty/full/other
    ])

    # 4. Run: the monitor hook feeds scoreboard + coverage per cycle.
    def per_sample(txn, cycle, time, observed):
        scoreboard.check(txn, cycle, time, observed)
        coverage.sample({**txn.fields,
                         "count": observed.get("count")})

    scoreboard.reset()
    agent.run(per_sample)

    # 5. Report.
    print(f"pass rate : {scoreboard.pass_rate:.2%} "
          f"({scoreboard.passed}/{scoreboard.checked})")
    print(f"mismatches: {len(scoreboard.mismatches)}")
    print("coverage  :")
    print("  " + coverage.report().replace("\n", "\n  "))
    print("\nUVM log tail:")
    for entry in scoreboard.log.entries[-5:]:
        print(f"  {entry.format()}")

    vcd_text = dump_simulator(simulator)
    path = "sync_fifo.vcd"
    with open(path, "w") as handle:
        handle.write(vcd_text)
    print(f"\nwaveform with {len(simulator.trace)} signals written to "
          f"{path} ({len(vcd_text)} bytes)")


if __name__ == "__main__":
    main()
