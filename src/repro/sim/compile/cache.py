"""Per-process compilation cache for fused simulation kernels.

Codegen used to run once per *simulator instance* — so a campaign
executing (error instance x method x attempt) work units re-compiled
the same golden DUT hundreds of times.  This module amortizes it with
a per-worker memo: the generated module, keyed by the design's
elaboration fingerprint (:func:`repro.sim.elaborate.design_fingerprint`)
plus the codegen version and the trace/coverage variant flags, is
generated, compiled and ``exec``'d once per process and shared by
every simulator instance of that design (``bind(design)`` rebinds the
fresh elaboration's signal slots in microseconds).  The source holds
only the design's constants, ``_settle`` and process bodies: pokes,
ticks and committers are built from :mod:`repro.sim.compile.runtime`
by each ``bind()``.

There is no cross-run store: generating a kernel costs less than
writing it to disk would, a warm campaign re-run needs no kernels at
all (the unit cache answers every unit), and each pool worker
generates the kernels it uses.

Keying is *content-based and sound*: the fingerprint hashes every
process body (full AST), resolved parameter values, signal/memory
shapes and sensitivity — anything that changes generated code changes
the key.  :data:`CODEGEN_VERSION` is folded in and names the
generator's output, which a tier-1 test pins per version.
"""

from repro.memo import LRUMemo
from repro.obs import trace as _tracer
from repro.obs.metrics import GLOBAL as _metrics
from repro.sim.compile.kernel import build_kernel_source
from repro.sim.elaborate import design_fingerprint

#: Bump whenever the generated kernel source changes shape or
#: semantics; the key folds it in.
CODEGEN_VERSION = 4

#: Per-worker memo bound (kernel modules retained at once): the
#: smallest round bound above the 326 distinct kernels one
#: ``paper-quick`` campaign asks for, so none is built twice.  An entry
#: retains 7-34 KiB (median 13 KiB) over the 27 golden benches.  Peak
#: RSS against a bound of 256: ``paper-quick`` +0.1 MiB; a 300-design
#: fuzz run builds 220 kernels and fills neither; a 600-design run
#: holds 128 more never-hit fuzz kernels, +4.1 MiB.
MEMO_LIMIT = 384

#: key -> (bind callable, source text); per worker process.  Campaigns
#: cycle through a few hundred distinct designs at most, while an
#: all-unique fuzz stream gets zero memo hits by construction — so an
#: evicted kernel is mostly dead weight.
_memo = LRUMemo(MEMO_LIMIT)

#: Cache-activity counter names.  The counters themselves live in the
#: process-global metrics registry (``repro.obs``) as ``kernel.<name>``
#: so telemetry shards and the campaign progress stream read the same
#: numbers; this module keeps its historical short-key dict API.
_STAT_KEYS = ("compiled", "memo_hits")


def _bump(key):
    _metrics.inc("kernel." + key)


def stats():
    """A copy of the current counters: ``compiled`` (codegen runs)
    and ``memo_hits`` (kernel reused in-process)."""
    return {key: _metrics.counter("kernel." + key) for key in _STAT_KEYS}


def reset_stats():
    for key in _STAT_KEYS:
        _metrics.counters.pop("kernel." + key, None)


def clear_memo():
    """Drop the in-process kernel memo (tests use this)."""
    _memo.clear()


def kernel_cache_key(design, trace, coverage):
    """Cache identity of one design's kernel variant."""
    return (f"{design_fingerprint(design)}-v{CODEGEN_VERSION}"
            f"-t{1 if trace else 0}-c{1 if coverage else 0}")


def get_kernel(design, order, trace=True, coverage=None):
    """The compiled kernel for ``design``; ``(bind, source)``.

    ``order`` is the levelized comb-process order (the caller already
    computed it to decide fusion applies); ``coverage`` is the
    requesting simulator's collector when the coverage variant is
    wanted (its statement ids are stable strings, so the baked-in
    recording calls are valid for every later collector instance).
    """
    key = kernel_cache_key(design, trace, coverage is not None)
    entry = _memo.lookup(key)
    if entry is not None:
        _bump("memo_hits")
        return entry

    with _tracer.span("compile", cat="kernel", key=key[:16]):
        source = build_kernel_source(
            design, order, trace=trace, coverage=coverage,
            key=key, codegen_version=CODEGEN_VERSION,
        )
        _bump("compiled")
        namespace = {}
        code = compile(source, f"<repro-kernel {key[:16]}>", "exec")
        exec(code, namespace)  # noqa: S102 - the whole module is codegen
        entry = _memo.store(key, (namespace["bind"], source))
    return entry
