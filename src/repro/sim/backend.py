"""Simulation backend registry.

Three backends share the :class:`~repro.sim.engine.Simulator` API:

- ``interp`` — the event-driven tree-walking interpreter (reference);
- ``compiled`` — each levelized design fused into one generated
  kernel (:mod:`repro.sim.compile`); a design that does not levelize
  runs on the interpreter.  Values and traces are bit-identical;
- ``xcheck`` — both in lockstep, raising
  :class:`~repro.sim.compile.xcheck.XCheckDivergence` on the first
  architectural-state mismatch.

``backend(name)`` returns the simulator class;
:func:`make_simulator` constructs one.  The process-wide default — what
:func:`make_simulator` uses when no explicit backend is given — is
``interp`` unless overridden by :func:`set_default_backend`, the
:func:`use_backend` context manager (how campaign work units select
their backend, including inside pool workers), or the
``REPRO_SIM_BACKEND`` environment variable (how CI runs the whole test
suite against the compiled backend).
"""

import os
from contextlib import contextmanager

from repro.sim.compile.engine import CompiledSimulator
from repro.sim.compile.xcheck import XCheckSimulator
from repro.sim.elaborate import elaborate
from repro.sim.engine import Simulator

BACKENDS = {
    "interp": Simulator,
    "compiled": CompiledSimulator,
    "xcheck": XCheckSimulator,
}

#: Accepted spellings -> canonical backend name.
_ALIASES = {
    "interp": "interp",
    "interpreter": "interp",
    "interpreted": "interp",
    "compiled": "compiled",
    "compile": "compiled",
    "xcheck": "xcheck",
    "cross-check": "xcheck",
}

# Empty/whitespace-only REPRO_SIM_BACKEND counts as unset.  An unknown
# name is held until the default is first *used* (get_default_backend)
# rather than raised at import: a mistyped export must not break
# `--help` or commands that pick their backend explicitly, but a CI
# misconfig still fails loudly before any simulation runs on the wrong
# engine.
_env_backend = (os.environ.get("REPRO_SIM_BACKEND") or "").strip().lower()
_default_backend = _ALIASES.get(_env_backend or "interp")


def canonical_backend(name):
    """Normalize a backend name; raises ``ValueError`` on unknowns."""
    canonical = _ALIASES.get(str(name).strip().lower())
    if canonical is None:
        raise ValueError(
            f"unknown simulation backend {name!r} "
            f"(known: {sorted(BACKENDS)})"
        )
    return canonical


def backend(name):
    """The simulator class registered under ``name``."""
    return BACKENDS[canonical_backend(name)]


def get_default_backend():
    if _default_backend is None:
        raise RuntimeError(
            f"REPRO_SIM_BACKEND="
            f"{os.environ.get('REPRO_SIM_BACKEND')!r} is not a known "
            f"simulation backend (known: {sorted(BACKENDS)})"
        )
    return _default_backend


def set_default_backend(name):
    """Set the process-wide default; returns the previous default."""
    global _default_backend
    previous = _default_backend
    _default_backend = canonical_backend(name)
    return previous


@contextmanager
def use_backend(name):
    """Scope the default backend to a ``with`` block."""
    global _default_backend
    previous = _default_backend
    _default_backend = canonical_backend(name)
    try:
        yield
    finally:
        # Restore without re-validating: `previous` may be the held
        # unknown-REPRO_SIM_BACKEND sentinel (None).
        _default_backend = previous


def make_simulator(source, backend=None, trace=True, top=None,
                   code_coverage=False):
    """Construct a simulator for ``source`` on the selected backend.

    ``source`` is Verilog text (or, for the non-xcheck backends, an
    already elaborated ``Design``); ``backend`` of ``None`` uses the
    process default.  ``code_coverage=True`` attaches a
    :class:`repro.cover.code.CodeCoverage` collector (readable as
    ``simulator.code_coverage`` after the run)."""
    name = canonical_backend(backend) if backend else _default_backend
    cls = BACKENDS[name]
    if name == "xcheck":
        return cls(source, trace=trace, top=top,
                   code_coverage=code_coverage)
    if isinstance(source, str):
        source = elaborate(source, top=top)
    return cls(source, trace=trace, code_coverage=code_coverage)
