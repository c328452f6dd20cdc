"""Compatibility stub: no part of the program imports this module.

The per-layer tracer in ``perfbench/layers.py`` still patches
``elaborate`` and ``get_kernel`` on this module by name, so the two
bindings stay importable here until the benchmark drops them; then
this file goes too.
"""

from repro.sim.compile.cache import get_kernel  # noqa: F401
from repro.sim.elaborate import elaborate  # noqa: F401
