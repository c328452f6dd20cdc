"""Waveform divergence diffing for debug bundles.

Given the golden and candidate canonical traces (the
``{name: [(time, Value)]}`` shape both backends produce
bit-identically), find the first simulation time at which any shared
signal's value splits, then walk the static fan-in cone of that signal
through :mod:`repro.locate.dfg` — the report an engineer starts from
instead of re-running by hand.
"""


def _value_dict(value):
    if value is None:
        return None
    return {
        "bits": int(value.bits),
        "xmask": int(value.xmask),
        "width": int(value.width),
        "verilog": value.to_verilog_bits(),
    }


def _first_diff_time(golden, candidate):
    """First time two canonical value-change histories disagree.

    Returns ``(time, golden_value, candidate_value)`` or ``None``.
    Histories are step functions: at every change point of either
    side, the current values must match.
    """
    i = j = 0
    gv = cv = None
    while i < len(golden) or j < len(candidate):
        gt = golden[i][0] if i < len(golden) else None
        ct = candidate[j][0] if j < len(candidate) else None
        if ct is None or (gt is not None and gt <= ct):
            when = gt
            gv = golden[i][1]
            i += 1
            if ct is not None and ct == when:
                cv = candidate[j][1]
                j += 1
        else:
            when = ct
            cv = candidate[j][1]
            j += 1
        if gv != cv or getattr(gv, "xmask", 0) != getattr(cv, "xmask", 0):
            return when, gv, cv
    return None


def first_divergence(golden_trace, candidate_trace, clock_period=10):
    """The first (time, signal) where two traces split.

    Returns a JSON-pure report dict (``{"diverged": False, ...}`` when
    the shared signals agree everywhere).  Ties at the same time are
    broken by signal name, so the report is deterministic.
    """
    shared = sorted(set(golden_trace) & set(candidate_trace))
    best = None
    for name in shared:
        hit = _first_diff_time(golden_trace[name], candidate_trace[name])
        if hit is None:
            continue
        when, gv, cv = hit
        if best is None or (when, name) < (best[0], best[1]):
            best = (when, name, gv, cv)
    report = {
        "diverged": best is not None,
        "signals_compared": len(shared),
        "only_golden": sorted(set(golden_trace) - set(candidate_trace)),
        "only_candidate": sorted(set(candidate_trace) - set(golden_trace)),
    }
    if best is None:
        return report
    when, name, gv, cv = best
    also = []
    for other in shared:
        if other == name:
            continue
        hit = _first_diff_time(golden_trace[other], candidate_trace[other])
        if hit is not None and hit[0] == when:
            also.append(other)
    report.update({
        "time": int(when),
        "cycle": int(when) // clock_period,
        "signal": name,
        "golden": _value_dict(gv),
        "candidate": _value_dict(cv),
        "also_diverged_at_time": also,
    })
    return report


def fanin_cone(source, signal, top=None, max_sites=40):
    """Static fan-in cone of ``signal`` in ``source``.

    Parses the candidate source, builds the data-flow graph, and
    returns the transitive read set plus the definition sites (with
    lines and guards) driving the diverging signal — JSON-pure, and
    best-effort: any analysis failure degrades to an ``error`` note
    rather than losing the bundle.
    """
    try:
        from repro.hdl.parser import parse_source
        from repro.locate.dfg import build_dfg

        parsed = parse_source(source)
        module = None
        for candidate in parsed.modules:
            if top is None or candidate.name == top:
                module = candidate
                break
        if module is None and parsed.modules:
            module = parsed.modules[0]
        if module is None:
            return {"signal": signal, "error": "no module in source"}
        dfg = build_dfg(module)
        # Hierarchical divergences anchor the cone at the leaf name.
        base = signal.split(".")[-1]
        deps = sorted(dfg.dependencies(base))
        sites = []
        seen = set()
        frontier = [base] + [dep for dep in deps if dep != base]
        for target in frontier:
            for site in dfg.defs_of(target):
                key = (site.target, site.line, site.kind)
                if key in seen:
                    continue
                seen.add(key)
                sites.append({
                    "target": site.target,
                    "line": site.line,
                    "kind": site.kind,
                    "reads": list(site.reads),
                    "guard_lines": list(site.guard_lines),
                })
                if len(sites) >= max_sites:
                    break
            if len(sites) >= max_sites:
                break
        return {
            "signal": signal,
            "anchor": base,
            "dependencies": deps,
            "sites": sites,
            "truncated": len(sites) >= max_sites,
        }
    except Exception as exc:  # forensics must never break the run
        return {"signal": signal,
                "error": f"{type(exc).__name__}: {exc}"}


def render_divergence(report, cone=None):
    """Human-readable rendering of a divergence report (+ cone)."""
    lines = []
    if not report:
        return "no divergence report recorded\n"
    if not report.get("diverged"):
        lines.append(
            "traces agree on all %d shared signals"
            % report.get("signals_compared", 0)
        )
    else:
        lines.append(
            "first divergence at t=%d (cycle %d) on signal '%s'"
            % (report["time"], report["cycle"], report["signal"])
        )
        golden = report.get("golden") or {}
        candidate = report.get("candidate") or {}
        lines.append("  golden    : %s'b%s" % (
            golden.get("width", "?"), golden.get("verilog", "?")))
        lines.append("  candidate : %s'b%s" % (
            candidate.get("width", "?"), candidate.get("verilog", "?")))
        also = report.get("also_diverged_at_time") or []
        if also:
            lines.append("  also diverged at that time: "
                         + ", ".join(also[:8]))
    for side, key in (("only in golden", "only_golden"),
                      ("only in candidate", "only_candidate")):
        extra = report.get(key) or []
        if extra:
            lines.append("  signals %s: %s" % (side, ", ".join(extra[:8])))
    if cone and not cone.get("error"):
        lines.append("fan-in cone of '%s' (%d deps):"
                     % (cone.get("anchor", "?"),
                        len(cone.get("dependencies", []))))
        for site in cone.get("sites", [])[:12]:
            guard = (" guarded@%s" % ",".join(map(str, site["guard_lines"]))
                     if site.get("guard_lines") else "")
            lines.append("  line %4s  %-5s %s <- %s%s" % (
                site["line"], site["kind"], site["target"],
                ", ".join(site["reads"]) or "(const)", guard))
        if cone.get("truncated"):
            lines.append("  ... cone truncated")
    elif cone and cone.get("error"):
        lines.append("fan-in cone unavailable: %s" % cone["error"])
    return "\n".join(lines) + "\n"
