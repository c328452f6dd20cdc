"""Coverage subsystem: functional crosses/transitions, structural
code coverage, a mergeable coverage database, and closed-loop
coverage-driven stimulus.

- :mod:`repro.cover.model` — :class:`CoverModel` (points, crosses,
  transition bins, probes), the one functional-coverage model: the
  UVM environment's default covergroup and the campaign fragments
  alike;
- :mod:`repro.cover.code` — :class:`CodeCoverage`: backend-invariant
  statement/branch/toggle collection over both simulation backends;
- :mod:`repro.cover.db` — :class:`CoverageDB`: union-mergeable,
  content-addressed on-disk coverage (campaign workers and shards
  accumulate one global picture);
- :mod:`repro.cover.holes` — uncovered-bin reports;
- :mod:`repro.cover.closure` — :class:`CoverageDrivenSequence`, the
  hole-targeting stimulus closure loop.
"""

from repro.cover.closure import CoverageDrivenSequence, close_coverage
from repro.cover.code import CodeCoverage
from repro.cover.db import CoverageDB, CoverageMergeError
from repro.cover.holes import Hole, format_holes, holes_of
from repro.cover.model import (
    CoverModel,
    CoverPoint,
    Cross,
    TransitionPoint,
    choice_bins,
    input_space_model,
    point_for_field,
)

__all__ = [
    "CodeCoverage",
    "CoverModel",
    "CoverPoint",
    "CoverageDB",
    "CoverageDrivenSequence",
    "CoverageMergeError",
    "Cross",
    "Hole",
    "TransitionPoint",
    "choice_bins",
    "close_coverage",
    "format_holes",
    "holes_of",
    "input_space_model",
    "point_for_field",
]
