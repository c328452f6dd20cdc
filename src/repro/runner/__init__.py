"""Parallel campaign runner with on-disk memoization.

The experiment grid — (error instance x method x attempt budget) — is
embarrassingly parallel: every cell is independently seeded and shares
no mutable state.  This package turns that grid into a schedulable
pool of work units:

- :mod:`repro.runner.grid` — expand a dataset/method spec into
  :class:`WorkUnit`\\ s; shard them round-robin for multi-host runs;
- :mod:`repro.runner.scheduler` — one dispatch loop at every ``jobs``
  (in process at 1, a ``ProcessPoolExecutor`` above), bit-identical
  either way; each unit is pending, waiting, running or landed, and
  a failure is a strike only when the unit ran alone or its own
  alarm or deadline fired.  A campaign that ends without a failure
  under ``fail_fast``, a broken or reclaimed pool, or an interrupt
  parks its pool; the next campaign of the process reuses it when
  ``jobs`` and the environment are unchanged, and otherwise retires
  it before forking a new one (and at interpreter exit);
- :mod:`repro.runner.cache` — content-hash-keyed JSON store so
  interrupted or repeated campaigns resume instantly;
- :mod:`repro.runner.report` — throttled progress/ETA lines on stderr.

Entry points: ``expand_grid`` + ``run_units`` for programmatic use,
``python -m repro.cli campaign`` for the command line.
"""

from repro.runner.cache import (
    DatasetCache,
    ResultCache,
    record_from_dict,
    record_to_dict,
)
from repro.runner.faults import (
    CampaignInterrupted,
    FaultPolicy,
    UnitTimeout,
)
from repro.runner.grid import (
    CACHE_SCHEMA_VERSION,
    WorkUnit,
    expand_grid,
    parse_shard,
    shard_units,
)
from repro.runner.report import ProgressReporter, format_progress
from repro.runner.scheduler import (
    CampaignRunner,
    default_jobs,
    execute_unit,
    run_units,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CampaignInterrupted",
    "CampaignRunner",
    "DatasetCache",
    "FaultPolicy",
    "ProgressReporter",
    "ResultCache",
    "UnitTimeout",
    "WorkUnit",
    "default_jobs",
    "execute_unit",
    "expand_grid",
    "format_progress",
    "parse_shard",
    "record_from_dict",
    "record_to_dict",
    "run_units",
    "shard_units",
]
