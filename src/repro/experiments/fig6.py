"""Fig. 6 — HR vs FR on functional errors, per class, per method.

Methods: UVLLM, bare GPT-4-turbo, Strider, MEIC, RTL-Repair.  The paper
reports UVLLM's HR-FR deviation at 1.4% average (max 5.6% on logic
errors) while every baseline deviates by >30%.
"""

from repro.errgen.generator import generate_dataset
from repro.errgen.mutations import FUNCTIONAL_OPERATORS
from repro.experiments.runner import group_records, rates, run_methods

#: Fig. 6's x-axis, in paper order.
FUNCTIONAL_CLASSES = (
    "declaration_errors",
    "flawed_conditions",
    "incorrect_bitwidth",
    "logic_errors",
)

METHODS = ("uvllm", "gpt-4-turbo", "strider", "meic", "rtlrepair")


def run(modules=None, per_operator=1, attempts=3, seed=0, jobs=1,
        cache_dir=None, backend=None):
    instances = [
        inst for inst in generate_dataset(
            seed=seed, per_operator=per_operator, target=None,
            modules=modules, operators=list(FUNCTIONAL_OPERATORS),
            cache_dir=cache_dir,
        )
        if inst.kind == "functional"
    ]
    # Split incorrect_bitwidth: half represent Fig. 6's "declaration
    # errors" bucket (type/width misuse at declarations).
    for index, inst in enumerate(instances):
        if inst.paper_class == "incorrect_bitwidth" and index % 2 == 0:
            inst.paper_class = "declaration_errors"
    records = run_methods(instances, METHODS, attempts=attempts,
                          jobs=jobs, cache_dir=cache_dir,
                          backend=backend)
    by_method = group_records(records, lambda r: r.method)
    results = {"classes": {}, "average": {}, "instance_count": len(instances)}
    for cls in FUNCTIONAL_CLASSES:
        results["classes"][cls] = {}
        for method in METHODS:
            subset = [
                r for r in by_method.get(method, [])
                if r.paper_class == cls
            ]
            hr, fr, seconds = rates(subset)
            results["classes"][cls][method] = {
                "hr": hr, "fr": fr, "seconds": seconds, "n": len(subset),
            }
    for method in METHODS:
        hr, fr, seconds = rates(by_method.get(method, []))
        results["average"][method] = {
            "hr": hr, "fr": fr, "seconds": seconds,
            "n": len(by_method.get(method, [])),
        }
    return results


def render(results):
    lines = [
        "Fig. 6 — Functional-error verification: HR vs FR (%)",
        f"  ({results['instance_count']} instances)",
        f"{'class':<22}" + "".join(f"{m:>14}" for m in METHODS) + "   (FR; HR in parens)",
    ]
    for cls, per_method in results["classes"].items():
        row = f"{cls:<22}"
        for method in METHODS:
            cell = per_method[method]
            row += f"{cell['fr']:>7.1f}({cell['hr']:>4.0f})"
        lines.append(row)
    row = f"{'AVERAGE':<22}"
    for method in METHODS:
        cell = results["average"][method]
        row += f"{cell['fr']:>7.1f}({cell['hr']:>4.0f})"
    lines.append(row)
    uvllm = results["average"]["uvllm"]
    lines.append(
        f"UVLLM HR-FR deviation: {uvllm['hr'] - uvllm['fr']:.1f} points "
        f"(paper: 1.4); baselines' deviations should exceed UVLLM's."
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run()))
