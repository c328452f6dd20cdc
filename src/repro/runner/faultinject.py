"""Deterministic fault injection for scheduler recovery tests.

A *fault plan* is a JSON document exported to pool workers through
``REPRO_FAULT_PLAN`` (adopted exactly like ``REPRO_TELEMETRY``):

.. code-block:: python

    {
      "state_dir": "/tmp/...",        # cross-process trigger budgets
      "faults": [
        {"site": "unit", "match": "<substring of unit id or key>",
         "kind": "crash",             # os._exit: kills the worker
         "times": 1},                 # trigger budget (None = always)
        {"site": "unit", "match": "...", "kind": "hang",
         "seconds": 30.0,             # how long to wedge
         "block_alarm": true},        # mask SIGALRM: defeat the
                                      # worker-side alarm so only the
                                      # scheduler deadline can reclaim
        {"site": "unit", "match": "...", "kind": "raise",
         "message": "injected"},      # deterministic unit exception
        {"site": "cache-write", "match": "<cache key substring>",
         "kind": "tear", "times": 1}, # truncate the written JSON
      ],
    }

Faults fire at two *sites*: ``unit`` (entry of unit execution, inside
the worker's alarm scope) and ``cache-write`` (the result-cache
serializer, producing a torn file the next read must quarantine).
Matching is substring over the unit's id / cache key, so a plan pins
faults to specific grid cells regardless of worker assignment.

``times`` budgets are claimed through ``O_CREAT|O_EXCL`` sequence
files under ``state_dir`` — atomic across processes and persistent
across pool respawns, so "crash exactly once" means once per
*campaign*, not once per worker generation.  Everything here is a
no-op (one environment lookup) when no plan is active, and nothing in
this module is imported by production paths beyond the two hook
calls.
"""

import contextlib
import hashlib
import json
import os
import signal
import tempfile
import time

#: Environment variable carrying the active plan to pool workers.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class InjectedFault(Exception):
    """The deterministic exception the ``raise`` fault kind throws
    (picklable; module-level so pool workers can ship it back)."""


_parsed = (None, None)  # (raw env string, parsed plan)


def active_plan():
    """The parsed plan from ``REPRO_FAULT_PLAN``, or ``None``."""
    global _parsed
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    if _parsed[0] == raw:
        return _parsed[1]
    try:
        plan = json.loads(raw)
    except ValueError:
        plan = None
    _parsed = (raw, plan)
    return plan


def make_plan(faults, state_dir=None):
    """Assemble a plan dict (``state_dir`` defaults at scope entry)."""
    return {"state_dir": state_dir, "faults": list(faults)}


@contextlib.contextmanager
def plan_scope(plan):
    """Export ``plan`` for the duration of a block (parent process;
    pool workers spawned inside inherit it through the environment).

    Fills in a fresh ``state_dir`` when the plan has none, so
    ``times`` budgets are scoped to this activation.  ``None`` is a
    no-op pass-through.
    """
    if plan is None:
        yield None
        return
    plan = dict(plan)
    cleanup = None
    if not plan.get("state_dir"):
        cleanup = tempfile.TemporaryDirectory(prefix="repro-faults-")
        plan["state_dir"] = cleanup.name
    prev = os.environ.get(FAULT_PLAN_ENV)
    os.environ[FAULT_PLAN_ENV] = json.dumps(plan, sort_keys=True)
    try:
        yield plan
    finally:
        if prev is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = prev
        if cleanup is not None:
            cleanup.cleanup()


def _fault_id(index, fault):
    blob = json.dumps(fault, sort_keys=True) + "#%d" % index
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _claim(plan, index, fault):
    """Try to consume one trigger from the fault's ``times`` budget.

    Claim ``n`` is the file ``<state_dir>/<fault-id>.<n>`` created
    with ``O_CREAT|O_EXCL`` — first creator wins, so concurrent
    workers and respawned pools share one deterministic budget.
    """
    times = fault.get("times")
    if times is None:
        return True
    state_dir = plan.get("state_dir")
    if not state_dir:
        return False  # a finite budget needs shared state to count
    fid = _fault_id(index, fault)
    for n in range(int(times)):
        path = os.path.join(state_dir, "%s.%d" % (fid, n))
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            continue
        except OSError:
            return False
    return False


def _trigger(fault):
    kind = fault.get("kind")
    if kind == "crash":
        # Hard worker death: no exception, no cleanup — the parent
        # only learns through BrokenProcessPool.
        os._exit(int(fault.get("exit_code", 137)))
    if kind == "hang":
        seconds = float(fault.get("seconds", 3600.0))
        if fault.get("block_alarm") and hasattr(signal, "pthread_sigmask"):
            # Simulate a wedge the worker-side alarm cannot interrupt
            # (a stuck C extension): only the scheduler-side deadline
            # kill can reclaim this worker.
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        deadline = time.monotonic() + seconds
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            # Sleep in slices; an unmasked SIGALRM raises UnitTimeout
            # out of here, which is exactly the reclaim under test.
            time.sleep(min(0.2, remaining))
    if kind == "raise":
        raise InjectedFault(fault.get("message", "injected fault"))
    # Unknown kinds (and "tear", which only maybe_tear consumes) are
    # inert here so a newer plan degrades gracefully on older code.


def _fire(site, identity):
    plan = active_plan()
    if not plan:
        return None
    for index, fault in enumerate(plan.get("faults") or ()):
        if fault.get("site") != site:
            continue
        match = fault.get("match", "")
        if match and match not in identity:
            continue
        if not _claim(plan, index, fault):
            continue
        return fault
    return None


def check_unit(label, key=None):
    """``unit`` site hook: called at unit-execution entry (worker
    side, inside the alarm scope).  Cheap no-op without a plan."""
    if FAULT_PLAN_ENV not in os.environ:
        return
    identity = "%s %s" % (label or "", key or "")
    fault = _fire("unit", identity)
    if fault is not None:
        _trigger(fault)


def maybe_tear(key):
    """``cache-write`` site hook: returns True when this write should
    be torn (the cache then persists a truncated payload)."""
    if FAULT_PLAN_ENV not in os.environ:
        return False
    fault = _fire("cache-write", key or "")
    return fault is not None and fault.get("kind") == "tear"
