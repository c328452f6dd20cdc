"""A Python UVM: the testbench architecture of paper Fig. 3.

Components map 1:1 onto SystemVerilog UVM roles:

- :class:`Transaction` — one stimulus item (input-field assignment);
- :class:`Sequence` and subclasses — transaction generators;
- :class:`Sequencer` — hands sequence items to the driver;
- :class:`Driver` — converts transactions into pin wiggles on the DUT
  through the :class:`repro.sim.Simulator` pin interface;
- :class:`Monitor` — samples DUT outputs at the sample point;
- :class:`Agent` — sequencer + driver + monitor bundle;
- :class:`Scoreboard` — compares DUT outputs against the reference
  model, maintains the pass rate (the rollback "Score Reg."), and emits
  the UVM log that the localization engine mines;
- :class:`Environment` / :class:`UVMTest` — top-level orchestration;
  the environment samples a :class:`repro.cover.model.CoverModel`,
  the framework's one functional-coverage model.
"""

from repro.uvm.transaction import Transaction
from repro.uvm.sequence import (
    Sequence,
    DirectedSequence,
    RandomSequence,
    ResetSequence,
    ConcatSequence,
)
from repro.uvm.sequencer import Sequencer
from repro.uvm.driver import Driver, DriveProtocol
from repro.uvm.monitor import Monitor
from repro.uvm.agent import Agent
from repro.uvm.scoreboard import Scoreboard, MismatchRecord
from repro.uvm.log import UVMLog, LogEntry
from repro.uvm.env import Environment
from repro.uvm.test import UVMTest, TestResult, run_uvm_test

__all__ = [
    "Transaction",
    "Sequence",
    "DirectedSequence",
    "RandomSequence",
    "ResetSequence",
    "ConcatSequence",
    "Sequencer",
    "Driver",
    "DriveProtocol",
    "Monitor",
    "Agent",
    "Scoreboard",
    "MismatchRecord",
    "UVMLog",
    "LogEntry",
    "Environment",
    "UVMTest",
    "TestResult",
    "run_uvm_test",
]
