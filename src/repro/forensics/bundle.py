"""Capture-on-failure debug bundles.

A *bundle* is a self-contained, content-addressed directory under
``<cache-dir>/forensics/`` archiving everything needed to understand —
and replay — one failing work unit:

- ``stimulus.json`` — the pin-level driving script as a replayable op
  list (fuzz corpus format / recorded UVM dialect);
- ``candidate.v`` / ``golden.v`` — the DUT sources;
- ``golden.vcd`` / ``candidate.vcd`` — both waveforms;
- ``divergence.json`` — first (cycle, signal) split plus the static
  fan-in cone of the diverging signal;
- ``spans.json`` — the unit's span-timeline slice from the telemetry
  shards;
- ``holes.txt`` — the coverage-hole report at failure time;
- ``manifest.json`` — section index, per-file SHA-256, failure record
  and the replay contract ``repro.cli triage --replay`` checks.

Like telemetry, forensics is a **pure observer**: the capture pipeline
runs after a unit's record exists, writes only under the forensics
directory, and never feeds ``cache_key()`` or record bytes — campaign
records are byte-identical with ``--forensics`` on or off.  Capture
errors degrade to a breadcrumb file, never to a failed campaign.
"""

import contextlib
import hashlib
import json
import os
import time

#: Environment variable carrying the forensics directory to pool
#: workers, exactly like ``REPRO_TELEMETRY``/``REPRO_COMPILE_CACHE``.
FORENSICS_ENV = "REPRO_FORENSICS"

#: Bump when the bundle layout or manifest semantics change.
BUNDLE_SCHEMA_VERSION = 1

#: Sections a complete simulation-failure bundle must list (the
#: ci_smoke regression gate).
COMPLETE_SECTIONS = (
    "stimulus", "candidate_source", "golden_vcd", "candidate_vcd",
    "divergence", "spans", "holes",
)

_dir = None
_suppressed = 0


def forensics_dir():
    """The active forensics directory, or None when capture is off."""
    return _dir


def enabled():
    """Whether failure capture is active (scope open, not suppressed)."""
    return _dir is not None and _suppressed == 0


@contextlib.contextmanager
def scope(path):
    """Enable failure capture for the duration of a block.

    Creates ``path``, exports it to child processes, and restores the
    prior state on exit (scopes may nest, e.g. ci_smoke wrapping a
    campaign).  ``None`` is a no-op pass-through.
    """
    global _dir
    if path is None:
        yield None
        return
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    prev_dir = _dir
    prev_env = os.environ.get(FORENSICS_ENV)
    _dir = path
    os.environ[FORENSICS_ENV] = path
    try:
        yield path
    finally:
        _dir = prev_dir
        if prev_env is None:
            os.environ.pop(FORENSICS_ENV, None)
        else:
            os.environ[FORENSICS_ENV] = prev_env


@contextlib.contextmanager
def suppress():
    """Temporarily disable capture (shrinker loops, replay runs, and
    the capture pipeline's own simulations must not spawn bundles)."""
    global _suppressed
    _suppressed += 1
    try:
        yield
    finally:
        _suppressed -= 1


def maybe_init_worker():
    """Adopt the forensics directory exported by the campaign parent
    (pool-worker hook; cheap no-op when capture is off)."""
    global _dir
    path = os.environ.get(FORENSICS_ENV)
    if not path:
        return False
    _dir = path
    return True


def _sha(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _breadcrumb(message):
    """Record a capture failure without disturbing the run."""
    if _dir is None:
        return
    with contextlib.suppress(Exception):
        path = os.path.join(_dir, "capture-errors-%d.log" % os.getpid())
        with open(path, "a") as handle:
            handle.write(message.rstrip() + "\n")


def _json_bytes(payload):
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def write_bundle(kind, label, sections, failure, replay, out_dir=None,
                 extra=None):
    """Write one bundle directory; returns its path.

    ``sections`` maps logical section names to ``(filename, bytes)``
    pairs.  The bundle id is the content hash of the section bytes
    (plus kind), so identical failures land in identical directories —
    an existing bundle is left untouched (first writer wins, and
    re-captures of the same failure dedupe for free).  The manifest is
    deterministic except for the ``created`` timestamp.
    """
    directory = out_dir or _dir
    if directory is None:
        return None
    files = {}
    for section, (filename, data) in sorted(sections.items()):
        if data is None:
            continue
        if isinstance(data, str):
            data = data.encode("utf-8")
        files[section] = (filename, data)
    digest_input = {"schema": BUNDLE_SCHEMA_VERSION, "kind": kind}
    digest_input["sections"] = {
        section: _sha(data) for section, (_, data) in files.items()
    }
    bundle_id = _sha(json.dumps(digest_input, sort_keys=True))[:16]
    bundle_dir = os.path.join(directory, "%s-%s" % (kind, bundle_id))
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    if os.path.exists(manifest_path):
        return bundle_dir
    manifest = {
        "schema": BUNDLE_SCHEMA_VERSION,
        "kind": kind,
        "bundle": bundle_id,
        "label": label,
        "failure": failure,
        "replay": replay,
        "sections": {
            section: filename for section, (filename, _) in files.items()
        },
        "sha256": {
            filename: _sha(data) for _, (filename, data) in files.items()
        },
        "created": time.time(),
    }
    if extra:
        manifest.update(extra)
    tmp_dir = bundle_dir + ".tmp-%d" % os.getpid()
    os.makedirs(tmp_dir, exist_ok=True)
    for _, (filename, data) in files.items():
        with open(os.path.join(tmp_dir, filename), "wb") as handle:
            handle.write(data)
    with open(os.path.join(tmp_dir, "manifest.json"), "wb") as handle:
        handle.write(_json_bytes(manifest))
    try:
        os.replace(tmp_dir, bundle_dir)
    except OSError:
        # A concurrent writer landed the same content-addressed
        # bundle; ours is redundant.
        with contextlib.suppress(Exception):
            import shutil

            shutil.rmtree(tmp_dir)
    return bundle_dir


def _telemetry_sibling():
    if _dir is None:
        return None
    parent = os.path.dirname(os.path.abspath(_dir))
    path = os.path.join(parent, "telemetry")
    return path if os.path.isdir(path) else None


def _slice_spans(label):
    """This unit's span subtree from the telemetry shards (JSON-pure),
    or None when telemetry is off / the unit span is not found."""
    telemetry_dir = _telemetry_sibling()
    if telemetry_dir is None:
        return None
    from repro.obs import sink

    sink.flush_spans()
    spans, _ = sink.read_shards(telemetry_dir)
    roots = [
        item for item in spans
        if item.get("name") in ("unit", "unit-group")
        and (item.get("attrs") or {}).get("label") == label
    ]
    if not roots:
        return None
    root = max(roots, key=lambda item: item.get("ts", 0.0))
    children = {}
    for item in spans:
        key = (item.get("pid", 0), item.get("parent", 0))
        children.setdefault(key, []).append(item)
    out, stack = [], [root]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(children.get(
            (current.get("pid", 0), current.get("sid", 0)), ()))
    out.sort(key=lambda item: (item.get("ts", 0.0), item.get("sid", 0)))
    return out


def _holes_text(coverage_fragment):
    """Coverage-hole report text from a record's coverage fragment."""
    functional = (coverage_fragment or {}).get("functional") or {}
    if not functional:
        return None
    from repro.cover.holes import format_holes, holes_of
    from repro.cover.model import model_from_counters

    pieces = []
    for group in sorted(functional):
        try:
            model = model_from_counters(group, functional[group])
            holes = holes_of(model)
        except Exception as exc:
            pieces.append("== %s: hole report failed (%s)" % (group, exc))
            continue
        pieces.append("== %s: %d hole(s)" % (group, len(holes)))
        if holes:
            pieces.append(format_holes(holes, limit=50))
    return "\n".join(pieces) + "\n" if pieces else None


def _divergence_payload(golden_trace, candidate_trace, source, top=None):
    """divergence.json body: first split + fan-in cone."""
    from repro.forensics.diverge import fanin_cone, first_divergence

    report = first_divergence(golden_trace or {}, candidate_trace or {})
    cone = None
    if report.get("diverged"):
        cone = fanin_cone(source, report["signal"], top=top)
    return {"first_divergence": report, "cone": cone}


def _vcd_text(simulator, abort_note=None):
    if simulator is None:
        return None
    from repro.sim.vcd import dump_simulator

    try:
        return dump_simulator(simulator, abort_note=abort_note)
    except Exception as exc:
        _breadcrumb("vcd dump failed: %s" % exc)
        return None


# -- capture points -----------------------------------------------------------

def capture_unit_failure(unit, record):
    """Scoreboard-mismatch capture for a failing campaign work unit.

    Called by the scheduler after a unit's record lands (the record is
    already final — capture only reads it).  A unit "fails" when its
    repair never hit; the bundle archives the *initial verification*
    failure on the buggy source: the mismatching UVM run re-executed
    on the reference interpreter with a recording simulator.
    """
    if not enabled():
        return None
    if isinstance(record, dict):
        return None  # fuzz verdicts are captured by the fuzz campaign
    if getattr(record, "failure_kind", None):
        # A quarantined ("poisoned") record has no verdict to archive,
        # and re-running the unit here could crash or hang the parent;
        # its light bundle was written at quarantine time.
        return capture_poisoned(unit, getattr(record, "failure_detail",
                                              None) or
                                {"kind": record.failure_kind})
    if getattr(record, "hit", True):
        return None
    instance = getattr(unit, "instance", None)
    if instance is None:
        return None
    try:
        return _capture_scoreboard(unit, record, instance)
    except Exception as exc:
        _breadcrumb("capture_unit_failure(%s) failed: %r"
                    % (getattr(unit, "unit_id", "?"), exc))
        return None


def _capture_scoreboard(unit, record, instance):
    from repro.bench.registry import get_module, make_hr_sequence
    from repro.core.config import UVLLMConfig
    from repro.uvm.test import run_uvm_test

    bench = get_module(instance.module_name)
    overrides = dict(getattr(unit, "config_overrides", ()) or ())
    hr_seed = overrides.get("hr_seed", 0)
    stimulus = overrides.get("stimulus", UVLLMConfig.stimulus)
    sequence = make_hr_sequence(bench, seed=hr_seed, stimulus=stimulus)
    with suppress():
        result = run_uvm_test(
            instance.buggy_source, sequence, bench.protocol, bench.model(),
            bench.compare_signals, top=bench.top, backend="interp",
            record_ops=True,
        )
        golden_sim = None
        if result.ops:
            from repro.forensics.replay import traced_run

            try:
                golden_sim = traced_run(instance.golden_source, result.ops,
                                        dialect="uvm", top=bench.top)
            except Exception as exc:
                _breadcrumb("golden replay failed: %r" % exc)
    candidate_trace = getattr(result.simulator, "trace", None) or {}
    golden_trace = getattr(golden_sim, "trace", None) or {}
    divergence = _divergence_payload(
        golden_trace, candidate_trace, instance.buggy_source, top=bench.top)
    first = None
    if result.mismatches:
        mismatch = result.mismatches[0]
        first = {
            "time": getattr(mismatch, "time", None),
            "signal": getattr(mismatch, "signal", None),
            "expected": str(getattr(mismatch, "expected", "")),
            "actual": str(getattr(mismatch, "actual", "")),
        }
    stimulus_doc = {
        "format": "repro-stimulus-v1",
        "dialect": "uvm",
        "top": bench.top,
        "ops": [list(op) for op in result.ops],
    }
    failure = {
        "type": "scoreboard",
        "unit": getattr(unit, "unit_id", None),
        "method": getattr(unit, "method", None),
        "module": instance.module_name,
        "instance": instance.instance_id,
        "pass_rate": result.pass_rate,
        "checked": result.checked,
        "mismatch_count": len(result.mismatches),
        "first_mismatch": first,
        "error": result.error or None,
    }
    replay = {
        "mode": "uvm-compare",
        "dialect": "uvm",
        "top": bench.top,
        "expect": {
            "diverged": divergence["first_divergence"].get("diverged"),
            "signal": divergence["first_divergence"].get("signal"),
            "time": divergence["first_divergence"].get("time"),
            # Mutants that never elaborate have no ops/waveforms; the
            # replay contract is then "candidate still fails to run".
            "run_error": bool(result.error) and not result.ops,
        },
    }
    sections = {
        "stimulus": ("stimulus.json", _json_bytes(stimulus_doc)),
        "candidate_source": ("candidate.v", instance.buggy_source),
        "golden_source": ("golden.v", instance.golden_source),
        "golden_vcd": ("golden.vcd", _vcd_text(golden_sim)),
        "candidate_vcd": ("candidate.vcd", _vcd_text(result.simulator)),
        "divergence": ("divergence.json", _json_bytes(divergence)),
        "holes": ("holes.txt", _holes_text(getattr(record, "coverage",
                                                   None))),
    }
    spans = _slice_spans(getattr(unit, "unit_id", None))
    if spans is not None:
        sections["spans"] = ("spans.json", _json_bytes(spans))
    return write_bundle("scoreboard", getattr(unit, "unit_id", None),
                        sections, failure, replay)


def capture_poisoned(unit, failure):
    """Light bundle for a quarantined unit.

    Unlike scoreboard capture this must NOT re-run the unit — a
    poisoned unit kills or wedges whatever executes it, and the
    capture runs in the campaign parent.  The bundle archives the
    structured failure (kind, error, traceback, strikes), the unit's
    identity, and the candidate source when available; ``replay`` mode
    ``"none"`` tells triage there is nothing mechanical to re-check.
    """
    if not enabled():
        return None
    try:
        return _capture_poisoned(unit, failure)
    except Exception as exc:
        _breadcrumb("capture_poisoned(%s) failed: %r"
                    % (getattr(unit, "unit_id", "?"), exc))
        return None


def _capture_poisoned(unit, failure):
    label = getattr(unit, "unit_id", None) or type(unit).__name__
    instance = getattr(unit, "instance", None)
    identity = {
        "unit": label,
        "method": getattr(unit, "method", None),
        "backend": getattr(unit, "backend", None),
        "module": getattr(instance, "module_name", None),
        "instance": getattr(instance, "instance_id", None),
    }
    failure_doc = dict(failure or {})
    failure_doc.setdefault("type", "poisoned")
    sections = {
        "failure": ("failure.json", _json_bytes(failure_doc)),
        "unit": ("unit.json", _json_bytes(identity)),
    }
    source = getattr(instance, "buggy_source", None)
    if source:
        sections["candidate_source"] = ("candidate.v", source)
    replay = {"mode": "none",
              "reason": "poisoned unit: executing it is what failed"}
    return write_bundle("poisoned", label, sections, failure_doc, replay)


def capture_xcheck(xsim, context, signal, ref_value, dut_value, message):
    """Bundle an :class:`XCheckDivergence` at the raise site.

    ``xsim`` is the diverged :class:`XCheckSimulator` — both sides'
    traces are still live, and the op recorder (active only when
    forensics is on) holds the exact driving script.
    """
    if not enabled():
        return None
    try:
        return _capture_xcheck(xsim, context, signal, ref_value,
                               dut_value, message)
    except Exception as exc:
        _breadcrumb("capture_xcheck failed: %r" % exc)
        return None


def _capture_xcheck(xsim, context, signal, ref_value, dut_value, message):
    source = getattr(xsim, "_source", None)
    ops = list(getattr(xsim, "_forensic_ops", None) or ())
    with suppress():
        golden_vcd = _vcd_text(xsim.ref)
        candidate_vcd = _vcd_text(xsim.dut)
        divergence = _divergence_payload(
            getattr(xsim.ref, "trace", None),
            getattr(xsim.dut, "trace", None),
            source or "",
        )
    # The lockstep comparison sees non-traced state too (memory
    # words); when the traces agree, the exception's own signal/time
    # is the authoritative divergence point.
    report = divergence["first_divergence"]
    if not report.get("diverged") and signal:
        report.update({
            "diverged": True,
            "time": int(xsim.ref.time),
            "cycle": int(xsim.ref.time) // 10,
            "signal": signal,
            "untraced_state": True,
        })
    label = "xcheck::%s@t%d" % (
        getattr(xsim.design, "top_name", "?"), int(xsim.ref.time))
    failure = {
        "type": "xcheck",
        "context": context,
        "signal": signal,
        "time": int(xsim.ref.time),
        "interp": repr(ref_value),
        "compiled": repr(dut_value),
        "message": message,
    }
    stimulus_doc = {
        "format": "repro-stimulus-v1",
        "dialect": "uvm",
        "top": getattr(xsim.design, "top_name", None),
        "ops": [list(op) for op in ops],
    }
    replay = {
        "mode": "xcheck",
        "dialect": "uvm",
        "expect": {"signal": signal, "time": int(xsim.ref.time)},
    }
    sections = {
        "stimulus": ("stimulus.json", _json_bytes(stimulus_doc)),
        "candidate_source": ("candidate.v", source),
        "golden_vcd": ("golden.vcd", golden_vcd),
        "candidate_vcd": ("candidate.vcd", candidate_vcd),
        "divergence": ("divergence.json", _json_bytes(divergence)),
    }
    spans = _slice_spans(label) or _recent_spans()
    if spans is not None:
        sections["spans"] = ("spans.json", _json_bytes(spans))
    return write_bundle("xcheck", label, sections, failure, replay)


def _recent_spans():
    """Fallback span slice for mid-run captures (no closed unit span
    yet): this process's buffered + sharded spans."""
    telemetry_dir = _telemetry_sibling()
    if telemetry_dir is None:
        return None
    from repro.obs import sink, trace

    spans = trace.finished()
    pid = os.getpid()
    sharded, _ = sink.read_shards(telemetry_dir)
    spans = [s for s in sharded if s.get("pid") == pid] + spans
    return spans or None


def capture_fuzz_failure(verdict):
    """Bundle one failing fuzz verdict (the dict
    :func:`repro.fuzz.campaign.execute_fuzz_unit` produces; failing
    verdicts embed the generated source and stimulus, so capture works
    for cached verdicts too)."""
    if not enabled():
        return None
    try:
        return _capture_fuzz(verdict)
    except Exception as exc:
        _breadcrumb("capture_fuzz_failure failed: %r" % exc)
        return None


def _capture_fuzz(verdict):
    source = verdict.get("source")
    ops = [tuple(op) for op in verdict.get("ops") or ()]
    if source is None:
        return None
    kind = (verdict.get("failure") or {}).get("kind", "unknown")
    label = "fuzz::d%s::s%s::c%s" % (
        verdict.get("design_seed"), verdict.get("stim_seed"),
        verdict.get("cycles"))
    golden_sim = candidate_sim = None
    with suppress():
        from repro.forensics.replay import apply_recorded_ops

        try:
            from repro.sim.elaborate import elaborate
            from repro.sim.engine import Simulator

            golden_sim = Simulator(elaborate(source), trace=True)
            apply_recorded_ops(golden_sim, ops, dialect="fuzz")
        except Exception as exc:
            golden_sim = None
            _breadcrumb("fuzz interp replay failed: %r" % exc)
        try:
            from repro.sim.compile.engine import CompiledSimulator
            from repro.sim.elaborate import elaborate

            candidate_sim = CompiledSimulator(elaborate(source), trace=True)
            apply_recorded_ops(candidate_sim, ops, dialect="fuzz")
        except Exception as exc:
            candidate_sim = None
            _breadcrumb("fuzz compiled replay failed: %r" % exc)
        divergence = _divergence_payload(
            getattr(golden_sim, "trace", None),
            getattr(candidate_sim, "trace", None), source)
        golden_vcd = _vcd_text(golden_sim)
        candidate_vcd = _vcd_text(candidate_sim)
    stimulus_doc = {
        "format": "repro-stimulus-v1",
        "dialect": "fuzz",
        "top": None,
        "ops": [list(op) for op in ops],
    }
    failure = dict(verdict.get("failure") or {})
    failure.update({
        "type": "fuzz",
        "design_seed": verdict.get("design_seed"),
        "stim_seed": verdict.get("stim_seed"),
        "cycles": verdict.get("cycles"),
    })
    replay = {
        "mode": "fuzz",
        "dialect": "fuzz",
        "expect": {"kind": kind},
    }
    sections = {
        "stimulus": ("stimulus.json", _json_bytes(stimulus_doc)),
        "candidate_source": ("candidate.v", source),
        "golden_vcd": ("golden.vcd", golden_vcd),
        "candidate_vcd": ("candidate.vcd", candidate_vcd),
        "divergence": ("divergence.json", _json_bytes(divergence)),
    }
    spans = _slice_spans(label)
    if spans is not None:
        sections["spans"] = ("spans.json", _json_bytes(spans))
    return write_bundle("fuzz", label, sections, failure, replay)


def attach_shrunk(bundle_dir, source, ops):
    """Add the delta-debugged reproducer to an existing fuzz bundle
    (sections ``shrunk_source``/``shrunk_stimulus``; the bundle id is
    content-addressed over the *original* failure and stays put)."""
    if not bundle_dir:
        return None
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        stimulus_doc = {
            "format": "repro-stimulus-v1",
            "dialect": "fuzz",
            "top": None,
            "ops": [list(op) for op in ops],
        }
        additions = {
            "shrunk_source": ("shrunk.v", source.encode("utf-8")),
            "shrunk_stimulus": ("shrunk-stimulus.json",
                                _json_bytes(stimulus_doc)),
        }
        for section, (filename, data) in additions.items():
            with open(os.path.join(bundle_dir, filename), "wb") as handle:
                handle.write(data)
            manifest["sections"][section] = filename
            manifest["sha256"][filename] = _sha(data)
        with open(manifest_path, "wb") as handle:
            handle.write(_json_bytes(manifest))
        return bundle_dir
    except Exception as exc:
        _breadcrumb("attach_shrunk(%s) failed: %r" % (bundle_dir, exc))
        return None
