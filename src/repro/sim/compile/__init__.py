"""Compiled simulation: whole-design kernel fusion + codegen.

See :mod:`repro.sim.compile.engine` for the backend entry point,
:mod:`repro.sim.compile.kernel` for the fused settle generator,
:mod:`repro.sim.compile.runtime` for the pokes, ticks and committers
its ``bind()`` builds,
:mod:`repro.sim.compile.cache` for the per-process kernel memo,
and :mod:`repro.sim.backend` for selection (``interp``/``compiled``/
``xcheck``).
"""

from repro.sim.compile.cache import get_kernel, kernel_cache_key
from repro.sim.compile.codegen import NotCompilable
from repro.sim.compile.engine import CompiledSimulator
from repro.sim.compile.kernel import build_kernel_source
from repro.sim.compile.levelize import levelize
from repro.sim.compile.xcheck import XCheckDivergence, XCheckSimulator

__all__ = [
    "CompiledSimulator",
    "NotCompilable",
    "XCheckDivergence",
    "XCheckSimulator",
    "build_kernel_source",
    "get_kernel",
    "kernel_cache_key",
    "levelize",
]
