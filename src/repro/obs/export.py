"""Telemetry exporters: Chrome trace-event JSON and run summaries.

Two consumers of merged telemetry shards:

- :func:`chrome_trace` emits the Chrome trace-event format ("X"
  complete events), directly loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev — one track per process, spans nested by
  wall-clock containment.
- :func:`summarize` computes the run report that ``repro.cli report``
  prints: per-phase wall-time breakdown (total and self time), cache
  hit rates, per-module simulated cycles/sec, the top-N slowest units,
  and the fault-tolerance counters.
"""

import json


def chrome_trace(spans):
    """Spans → Chrome trace-event JSON object (``json.dump`` ready)."""
    events = []
    for item in spans:
        events.append({
            "name": item.get("name", "?"),
            "cat": item.get("cat", "phase"),
            "ph": "X",
            "ts": item.get("ts", 0.0) * 1e6,
            "dur": item.get("dur", 0.0) * 1e6,
            "pid": item.get("pid", 0),
            "tid": item.get("pid", 0),
            "args": item.get("attrs", {}) or {},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _self_times(spans):
    """Per-span self time: duration minus direct children's durations.

    Parent links are (pid, sid) pairs — sids are only unique within a
    process.
    """
    child_totals = {}
    for item in spans:
        parent = item.get("parent", 0)
        if parent:
            key = (item.get("pid", 0), parent)
            child_totals[key] = child_totals.get(key, 0.0) + item.get("dur", 0.0)
    out = []
    for item in spans:
        key = (item.get("pid", 0), item.get("sid", 0))
        self_time = item.get("dur", 0.0) - child_totals.get(key, 0.0)
        out.append(max(0.0, self_time))
    return out


def _rate(hits, misses):
    total = hits + misses
    return (hits / total) if total else None


def _incomplete_units(spans, opens):
    """Open markers with no matching finished ``unit`` span.

    Spans buffer only on close, so a worker that died mid-unit leaves
    an open marker and nothing else.  Matching is by (pid, label)
    *count* — the same label may legitimately run several times across
    a session, each run writing one marker and (normally) one span.
    Elapsed time is bounded below by the youngest observed shard
    timestamp; the unit may have run longer before the crash.
    """
    if not opens:
        return []
    finished = {}
    latest_ts = 0.0
    for item in spans:
        latest_ts = max(latest_ts, item.get("ts", 0.0)
                        + item.get("dur", 0.0))
        if item.get("name") not in ("unit", "fuzz-unit"):
            continue
        key = (item.get("pid", 0), (item.get("attrs") or {}).get("label"))
        finished[key] = finished.get(key, 0) + 1
    rows = []
    for marker in opens:
        latest_ts = max(latest_ts, marker.get("ts", 0.0))
        key = (marker.get("pid", 0), marker.get("label"))
        if finished.get(key, 0) > 0:
            finished[key] -= 1
            continue
        rows.append({
            "label": marker.get("label", "?"),
            "seconds": max(0.0, latest_ts - marker.get("ts", 0.0)),
            "incomplete": True,
        })
    rows.sort(key=lambda row: (-row["seconds"], row["label"]))
    return rows


def summarize(spans, metrics, top=10, opens=None):
    """Aggregate merged telemetry into a JSON-pure report dict.

    ``opens`` (from :func:`repro.obs.sink.read_opens`) enables
    incomplete-unit detection: units whose span never closed are
    surfaced as explicit rows instead of silently vanishing.
    """
    phases = {}
    selfs = _self_times(spans)
    for item, self_time in zip(spans, selfs):
        name = item.get("name", "?")
        row = phases.get(name)
        if row is None:
            row = phases[name] = {"count": 0, "total": 0.0, "self": 0.0, "max": 0.0}
        row["count"] += 1
        row["total"] += item.get("dur", 0.0)
        row["self"] += self_time
        row["max"] = max(row["max"], item.get("dur", 0.0))

    # Top-N slowest unit spans (campaign work units and fuzz units).
    units = [item for item in spans if item.get("name") in ("unit", "fuzz-unit")]
    units.sort(key=lambda item: (-item.get("dur", 0.0),
                                 item.get("pid", 0), item.get("sid", 0)))
    slowest = [{
        "label": (item.get("attrs") or {}).get("label", "?"),
        "seconds": item.get("dur", 0.0),
        "cached": bool((item.get("attrs") or {}).get("cached")),
    } for item in units[:top]]

    # Per-module simulated throughput, from simulate-span attributes.
    # A UVM-memo hit carries the stored run's cycles but simulated
    # nothing, so only executed runs enter time, cycles and events.
    modules = {}
    for item in spans:
        if item.get("name") != "simulate":
            continue
        attrs = item.get("attrs") or {}
        module = attrs.get("module", "?")
        row = modules.get(module)
        if row is None:
            row = modules[module] = {"runs": 0, "memo_hits": 0, "seconds": 0.0,
                                     "cycles": 0, "events": 0}
        row["runs"] += 1
        if attrs.get("memo") == "hit":
            row["memo_hits"] += 1
            continue
        row["seconds"] += item.get("dur", 0.0)
        row["cycles"] += int(attrs.get("cycles", 0))
        row["events"] += int(attrs.get("events", 0))
    for row in modules.values():
        row["cycles_per_sec"] = row["cycles"] / row["seconds"] if row["seconds"] else 0.0

    counters = metrics.counters if metrics is not None else {}
    # Every kernel memo miss runs codegen (``kernel.compiled``).
    caches = {
        "unit_cache": _rate(counters.get("unit_cache.hits", 0),
                            counters.get("unit_cache.misses", 0)),
        "kernel_memo": _rate(counters.get("kernel.memo_hits", 0),
                             counters.get("kernel.compiled", 0)),
        "parse_memo": _rate(counters.get("parse.memo_hits", 0),
                            counters.get("parse.memo_misses", 0)),
        "lint_memo": _rate(counters.get("lint.memo_hits", 0),
                           counters.get("lint.memo_misses", 0)),
        "uvm_memo": _rate(counters.get("uvm.memo_hits", 0),
                          counters.get("uvm.memo_misses", 0)),
        "llm_memo": _rate(counters.get("llm.memo_hits", 0),
                          counters.get("llm.memo_misses", 0)),
        "fr_memo": _rate(counters.get("fr.memo_hits", 0),
                         counters.get("fr.memo_misses", 0)),
    }

    faults = {
        key: counters.get("faults." + key, 0)
        for key in ("retries", "quarantined", "pool_respawns",
                    "timeouts", "worker_deaths", "cache_write_errors")
        if counters.get("faults." + key, 0)
    }
    if counters.get("unit_cache.corrupt", 0):
        faults["cache_corrupt"] = counters["unit_cache.corrupt"]

    return {
        "phases": {name: phases[name] for name in sorted(phases)},
        "slowest_units": slowest,
        "incomplete_units": _incomplete_units(spans, opens or []),
        "modules": {name: modules[name] for name in sorted(modules)},
        "caches": caches,
        "faults": faults,
        "counters": dict(sorted(counters.items())),
        "span_count": len(spans),
    }


def _fmt_seconds(value):
    if value >= 60:
        return "%.1fm" % (value / 60)
    if value >= 1:
        return "%.2fs" % value
    return "%.1fms" % (value * 1e3)


def render_summary(report, markdown=False):
    """Summary dict → human-readable text (or GitHub-flavoured md)."""
    lines = []
    bold = (lambda text: "**%s**" % text) if markdown else (lambda text: text)

    phases = report.get("phases", {})
    if phases:
        lines.append(bold("Per-phase wall time"))
        if markdown:
            lines.append("| phase | count | total | self | max |")
            lines.append("|---|---:|---:|---:|---:|")
        order = sorted(phases.items(), key=lambda kv: -kv[1]["total"])
        for name, row in order:
            cells = (name, str(row["count"]), _fmt_seconds(row["total"]),
                     _fmt_seconds(row["self"]), _fmt_seconds(row["max"]))
            if markdown:
                lines.append("| %s | %s | %s | %s | %s |" % cells)
            else:
                lines.append("  %-14s %6s runs  total %8s  self %8s  max %8s" % cells)
        lines.append("")

    caches = report.get("caches", {})
    cache_bits = []
    for name, rate in sorted(caches.items()):
        if rate is not None:
            cache_bits.append("%s %.0f%%" % (name, rate * 100))
    if cache_bits:
        lines.append(bold("Cache hit rates") + ": " + ", ".join(cache_bits))
        lines.append("")

    modules = report.get("modules", {})
    if modules:
        lines.append(bold("Per-module simulation throughput"))
        if markdown:
            lines.append("| module | runs | memo hits | sim time "
                         "| cycles/sec |")
            lines.append("|---|---:|---:|---:|---:|")
        order = sorted(modules.items(), key=lambda kv: -kv[1]["seconds"])
        for name, row in order:
            cells = (name, str(row["runs"]), str(row["memo_hits"]),
                     _fmt_seconds(row["seconds"]),
                     "%.0f" % row["cycles_per_sec"])
            if markdown:
                lines.append("| %s | %s | %s | %s | %s |" % cells)
            else:
                lines.append("  %-24s %5s runs %5s memo hits  %8s  %10s cyc/s"
                             % cells)
        lines.append("")

    slowest = report.get("slowest_units", [])
    if slowest:
        lines.append(bold("Slowest units"))
        for row in slowest:
            suffix = " (cached)" if row.get("cached") else ""
            lines.append("  %8s  %s%s" % (_fmt_seconds(row["seconds"]),
                                          row["label"], suffix))
        lines.append("")

    incomplete = report.get("incomplete_units", [])
    if incomplete:
        lines.append(bold("Incomplete units") + " (span never closed — "
                     "worker crashed or was killed mid-unit)")
        for row in incomplete:
            lines.append("  %8s+ %s INCOMPLETE"
                         % (_fmt_seconds(row["seconds"]), row["label"]))
        lines.append("")

    faults = report.get("faults", {})
    if faults:
        lines.append(bold("Fault tolerance") + " (infra retries and "
                     "quarantines; verdicts are never retried)")
        for name, n in sorted(faults.items(), key=lambda kv: -kv[1]):
            lines.append("  %-22s %d" % (name, n))
        lines.append("")

    if not lines:
        lines.append("no telemetry recorded")
    return "\n".join(lines).rstrip() + "\n"


def write_chrome_trace(spans, out_path):
    """Write the Chrome trace JSON for a span list."""
    with open(out_path, "w") as handle:
        json.dump(chrome_trace(spans), handle)
    return out_path
