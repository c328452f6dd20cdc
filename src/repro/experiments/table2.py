"""Table II — segmented stage contributions per module group, vs MEIC.

For every (module group x error kind) the table reports each UVLLM
stage's contribution to FR and execution time (Pre-processing, Repair
in MS mode, Repair in SL mode), the UVLLM totals, MEIC's totals, and
the speedup.  Expected shape: pre-processing resolves ~75% of syntax
errors cheaply; MS mode dominates functional fixes; overall ~10x faster
than MEIC.
"""

from repro.errgen.generator import generate_dataset
from repro.experiments.runner import run_methods

GROUPS = ("arithmetic", "control", "memory", "misc")
KINDS = ("syntax", "functional")
STAGES = ("preprocess", "ms", "sl")


def run(modules=None, per_operator=1, attempts=3, seed=0, jobs=1,
        cache_dir=None, backend=None):
    instances = generate_dataset(
        seed=seed, per_operator=per_operator, target=None, modules=modules,
        cache_dir=cache_dir,
    )
    records = run_methods(instances, ("uvllm", "meic"), attempts=attempts,
                          jobs=jobs, cache_dir=cache_dir,
                          backend=backend)
    uvllm = [r for r in records if r.method == "uvllm"]
    meic = [r for r in records if r.method == "meic"]

    results = {"rows": [], "overall": None}
    for kind in KINDS:
        for group in GROUPS + (None,):  # None = kind-level summary row
            u_sub = [
                r for r in uvllm if r.kind == kind
                and (group is None or r.category == group)
            ]
            m_sub = [
                r for r in meic if r.kind == kind
                and (group is None or r.category == group)
            ]
            if not u_sub:
                continue
            results["rows"].append(
                _row(group or kind.upper(), kind, u_sub, m_sub)
            )
    results["overall"] = _row("Overall", None, uvllm, meic)
    return results


def _row(label, kind, uvllm_records, meic_records):
    n = len(uvllm_records)
    row = {"label": label, "kind": kind, "n": n}
    for stage in STAGES:
        stage_fixed = [
            r for r in uvllm_records if r.fixed and r.stage == stage
        ]
        row[f"fr_{stage}"] = 100.0 * len(stage_fixed) / n if n else 0.0
        row[f"t_{stage}"] = (
            sum(r.stage_seconds.get(stage, 0.0) for r in uvllm_records) / n
            if n else 0.0
        )
    row["fr_uvllm"] = 100.0 * sum(1 for r in uvllm_records if r.fixed) / n \
        if n else 0.0
    row["t_uvllm"] = sum(r.seconds for r in uvllm_records) / n if n else 0.0
    m = len(meic_records)
    row["fr_meic"] = 100.0 * sum(1 for r in meic_records if r.fixed) / m \
        if m else 0.0
    row["t_meic"] = sum(r.seconds for r in meic_records) / m if m else 0.0
    row["speedup"] = row["t_meic"] / row["t_uvllm"] if row["t_uvllm"] else 0.0
    return row


def render(results):
    header = (
        f"{'Group':<14}{'Pre FR':>8}{'Pre T':>8}{'MS FR':>8}{'MS T':>8}"
        f"{'SL FR':>8}{'SL T':>8}{'UVLLM FR':>10}{'UVLLM T':>9}"
        f"{'MEIC FR':>9}{'MEIC T':>9}{'Speedup':>9}"
    )
    lines = ["Table II — segmented stage contributions", header]
    for row in results["rows"] + [results["overall"]]:
        lines.append(
            f"{row['label']:<14}"
            f"{row['fr_preprocess']:>8.2f}{row['t_preprocess']:>8.2f}"
            f"{row['fr_ms']:>8.2f}{row['t_ms']:>8.2f}"
            f"{row['fr_sl']:>8.2f}{row['t_sl']:>8.2f}"
            f"{row['fr_uvllm']:>10.2f}{row['t_uvllm']:>9.2f}"
            f"{row['fr_meic']:>9.2f}{row['t_meic']:>9.2f}"
            f"{row['speedup']:>8.2f}x"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run()))
