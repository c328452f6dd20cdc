"""Progress and ETA streaming for long campaigns.

Campaigns print one status line to stderr at a throttled interval (so
CI logs stay readable) plus a final summary.  ETA is extrapolated from
*executed* units only — cache hits resolve in microseconds and would
otherwise make the estimate wildly optimistic at the start of a
partially warm campaign.
"""

import sys
import time


def format_kernel_stats(kernels):
    """Compiled-kernel cache summary fragment, or "" when inactive."""
    if not kernels or not any(kernels.values()):
        return ""
    hits = kernels.get("memo_hits", 0) + kernels.get("disk_hits", 0)
    text = f" kernels {kernels.get('compiled', 0)}c/{hits}h"
    if kernels.get("disk_hits"):
        text += f" ({kernels['disk_hits']} disk)"
    return text


def format_progress(done, total, elapsed, cached=0, kernels=None,
                    eta_seconds=None):
    """Render one status line; pure function for testability.

    ``eta_seconds`` is a precomputed remaining-time estimate (the
    scheduler derives one from its rolling per-unit histogram, so a
    long-tail unit early in the run stops inflating the estimate);
    when absent the line falls back to extrapolating the global
    average over executed units.
    """
    percent = 100.0 * done / total if total else 100.0
    executed = done - cached
    remaining = total - done
    if eta_seconds is not None and remaining > 0:
        eta_text = f" eta {_duration(eta_seconds)}"
    elif executed > 0 and elapsed > 0 and remaining > 0:
        eta = remaining * (elapsed / executed)
        eta_text = f" eta {_duration(eta)}"
    else:
        eta_text = ""
    cached_text = f" ({cached} cached)" if cached else ""
    return (f"[campaign] {done}/{total} units ({percent:.0f}%)"
            f"{cached_text} elapsed {_duration(elapsed)}{eta_text}"
            f"{format_kernel_stats(kernels)}")


def _duration(seconds):
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


class ProgressReporter:
    """Throttled stderr progress stream for a campaign run."""

    def __init__(self, total, stream=None, min_interval=1.0, clock=None):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.clock = clock or time.monotonic
        self.started = self.clock()
        self._last_emit = float("-inf")
        self.done = 0
        self.cached = 0

    def update(self, done, cached=0, kernels=None, eta_seconds=None):
        """Advance to ``done`` completed units (``cached`` of them
        hits); ``kernels`` is the compiled-kernel cache aggregate so
        far (compile/hit counters stream live), ``eta_seconds`` the
        scheduler's rolling remaining-time estimate (optional)."""
        self.done, self.cached = done, cached
        now = self.clock()
        if now - self._last_emit < self.min_interval and done < self.total:
            return
        self._last_emit = now
        line = format_progress(done, self.total, now - self.started,
                               cached=cached, kernels=kernels,
                               eta_seconds=eta_seconds)
        print(line, file=self.stream, flush=True)

    def finish(self, kernels=None, faults=None):
        elapsed = self.clock() - self.started
        executed = self.done - self.cached
        kernel_text = ""
        if kernels and any(kernels.values()):
            hits = kernels.get("memo_hits", 0) + \
                kernels.get("disk_hits", 0)
            kernel_text = (
                f"; kernel cache: {kernels.get('compiled', 0)} "
                f"compiled, {hits} hits "
                f"({kernels.get('disk_hits', 0)} from disk)"
            )
        print(
            f"[campaign] finished {self.done}/{self.total} units in "
            f"{_duration(elapsed)} ({executed} executed, "
            f"{self.cached} from cache{kernel_text})",
            file=self.stream, flush=True,
        )
        if faults and any(faults.values()):
            print("[campaign] fault tolerance: " + format_fault_stats(faults),
                  file=self.stream, flush=True)

    def interrupted(self, done, total, cached=0):
        """Final summary for a SIGINT/SIGTERM abort: how far the run
        got (finished units are cached, so a re-run resumes here)."""
        elapsed = self.clock() - self.started
        print(
            f"[campaign] INTERRUPTED at {done}/{total} units after "
            f"{_duration(elapsed)} ({cached} from cache); finished "
            f"units are cached — re-run to resume",
            file=self.stream, flush=True,
        )


def format_fault_stats(faults):
    """Fault-tolerance summary fragment: retries, quarantines, pool
    respawns, failed cache writes and their causes (pure function for
    testability)."""
    parts = [
        f"{faults.get('retries', 0)} retried",
        f"{faults.get('quarantined', 0)} quarantined",
        f"{faults.get('pool_respawns', 0)} pool respawn(s)",
    ]
    if faults.get("cache_write_errors"):
        parts.append(f"{faults['cache_write_errors']} cache write error(s)")
    causes = []
    if faults.get("timeouts"):
        causes.append(f"{faults['timeouts']} timeout(s)")
    if faults.get("worker_deaths"):
        causes.append(f"{faults['worker_deaths']} worker death(s)")
    text = ", ".join(parts)
    if causes:
        text += " [" + ", ".join(causes) + "]"
    return text
