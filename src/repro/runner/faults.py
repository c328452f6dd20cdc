"""Failure taxonomy and fault policy for fault-tolerant campaigns.

The scheduler distinguishes two failure families with opposite
handling:

- **Infrastructure failures** — worker death (``BrokenProcessPool``),
  unit wall-clock timeouts, cache I/O errors.  These say nothing about
  the unit's verdict, so they are retried with bounded, deterministic
  backoff; a unit that keeps taking its worker down is *quarantined*
  as a structured ``"poisoned"`` record and the campaign continues.
- **Deterministic failures** — an exception raised by the unit itself.
  Re-running a pure function of the unit's fields would produce the
  same exception, so these are never retried (retrying would only turn
  determinism into flakiness); they quarantine immediately unless
  ``fail_fast`` restores the historical abort-on-first-error
  semantics.

Retries never apply to unit *verdicts*: a record that landed is final,
whatever it says.  Only units that produced no record at all are ever
re-dispatched, which is why a faulty run's surviving records stay
bit-identical to a fault-free ``--jobs 1`` run.
"""

import contextlib
import signal
import threading
from dataclasses import dataclass
from typing import Optional

#: Failure kinds a poisoned record can carry (``failure_kind``).
FAILURE_KINDS = ("worker-death", "timeout", "exception")

#: Strikes after which a unit is quarantined.  A strike is a failure
#: blamed on the unit alone (its own timeout, or a worker death while
#: it ran solo), so 2 means "a unit that kills its worker twice is
#: poisoned".
MAX_STRIKES = 2

#: Attempts to persist one finished record before the scheduler gives
#: up on caching it (the record is still returned).
CACHE_WRITE_RETRIES = 3


class UnitTimeout(Exception):
    """A unit exceeded its wall-clock budget (picklable: raised inside
    pool workers by the SIGALRM handler and shipped back whole)."""

    def __init__(self, label="?", seconds=0.0):
        super().__init__(label, seconds)
        self.label = label
        self.seconds = seconds

    def __str__(self):
        return (f"unit '{self.label}' exceeded its "
                f"{self.seconds:g}s wall-clock budget")


class CampaignInterrupted(Exception):
    """The campaign was stopped by SIGINT/SIGTERM.

    Partial results are already cache-safe (every finished unit landed
    before the interrupt); ``done``/``total`` report how far the run
    got so callers can print a resumable-progress note and exit with a
    distinct code.
    """

    def __init__(self, reason="interrupted", done=0, total=0):
        super().__init__(reason, done, total)
        self.reason = reason
        self.done = done
        self.total = total

    def __str__(self):
        return (f"campaign {self.reason} at {self.done}/{self.total} "
                f"units (finished units are cached)")


@dataclass
class FaultPolicy:
    """Knobs of the fault-tolerance layer.

    ``unit_timeout`` of ``None`` disables both the worker-side alarm
    and the scheduler-side deadline (the historical behaviour: a hung
    unit hangs the campaign).  ``backoff`` seeds the deterministic
    exponential re-dispatch delay ``backoff * 2**(strikes-1)``.
    ``fail_fast`` restores abort-on-first-failure for every failure
    family.
    """

    unit_timeout: Optional[float] = None
    backoff: float = 0.1
    fail_fast: bool = False


_DEFAULT_POLICY = FaultPolicy()


def get_default_policy():
    """The process-wide policy ``run_units`` starts from."""
    return _DEFAULT_POLICY


@contextlib.contextmanager
def policy_scope(policy):
    """Temporarily swap the process-default policy (drivers that fan
    out through many call layers set one scope instead of threading a
    policy argument through every signature)."""
    global _DEFAULT_POLICY
    previous = _DEFAULT_POLICY
    _DEFAULT_POLICY = policy if policy is not None else previous
    try:
        yield _DEFAULT_POLICY
    finally:
        _DEFAULT_POLICY = previous


def backoff_seconds(policy, strikes):
    """Deterministic exponential backoff before re-dispatching a unit
    that has ``strikes`` infrastructure failures."""
    if strikes <= 0:
        return 0.0
    return policy.backoff * (2 ** (strikes - 1))


def _alarm_available():
    """Worker-side alarms need SIGALRM and the main thread (signal
    handlers can only be installed there); everywhere else the
    scheduler-side deadline is the only enforcement."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextlib.contextmanager
def unit_alarm(seconds, label="?"):
    """Raise :class:`UnitTimeout` if the block runs past ``seconds``.

    Implemented with ``setitimer(ITIMER_REAL)`` so a wedged *Python*
    loop is interrupted at the next bytecode boundary.  A wedged C
    extension (or a block with SIGALRM masked) is not — that is what
    the scheduler-side deadline kill is for.  ``seconds`` of ``None``
    (or an environment without SIGALRM) is a transparent no-op.
    """
    if not seconds or not _alarm_available():
        yield
        return

    def _on_alarm(_signum, _frame):
        raise UnitTimeout(label, seconds)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def failure_detail(kind, exc=None, label=None, strikes=0):
    """JSON-pure description of a failure for poisoned records and
    forensics bundles."""
    import traceback

    detail = {
        "kind": kind,
        "unit": label,
        "strikes": int(strikes),
        "error": repr(exc) if exc is not None else None,
    }
    if exc is not None and getattr(exc, "__traceback__", None) is not None:
        detail["traceback"] = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    return detail
