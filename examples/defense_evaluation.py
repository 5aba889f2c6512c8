#!/usr/bin/env python3
"""Defense evaluation: security and cost of the paper's two defenses.

* §5.2 basic defense — automatic fences after squashable instructions
  (Spectre / Futuristic models): achieves ideal invisible speculation
  at a large performance cost (Figure 12).
* §5.4 advanced defense — resource holding + age-priority scheduling
  with preemptable non-pipelined units: blocks the interference channel
  at far lower cost.

Run:  python examples/defense_evaluation.py
"""

from repro.analysis.reporting import format_table
from repro.core.experiments import fig12_defense_overhead
from repro.core.harness import run_victim_trial
from repro.core.matrix import order_flips
from repro.core.noninterference import check_ideal_invisible_speculation
from repro.core.victims import gdnpeu_victim
from repro.schemes import DelayOnMiss, PriorityDefense


def security_table():
    print("=" * 72)
    print("Security: does the GDNPEU attack still reorder loads A/B?")
    print("=" * 72)
    spec = gdnpeu_victim()
    rows = []
    for label, scheme in [
        ("dom-nontso (no defense)", lambda: DelayOnMiss("nontso")),
        ("fence-spectre", lambda: "fence-spectre"),
        ("fence-futuristic", lambda: "fence-futuristic"),
        ("priority (§5.4)", lambda: PriorityDefense()),
    ]:
        orders = [
            run_victim_trial(spec, scheme(), s).order(spec.line_a, spec.line_b)
            for s in (0, 1)
        ]
        leaks = order_flips(*orders)
        rows.append([label, orders[0], orders[1], "LEAKS" if leaks else "safe"])
    print(format_table(["scheme", "order(s=0)", "order(s=1)", "verdict"], rows))
    print()


def property_table():
    print("=" * 72)
    print("Ideal invisible speculation: C(E) = C(NoSpec(E))  (§5.1)")
    print("=" * 72)
    rows = []
    for scheme in ("dom-nontso", "fence-spectre", "fence-futuristic"):
        report = check_ideal_invisible_speculation(gdnpeu_victim(), scheme, 1)
        rows.append([scheme, "holds" if report.holds else "VIOLATED"])
    print(format_table(["scheme", "property"], rows))
    print()


def overhead_table():
    print("=" * 72)
    print("Cost (Figure 12): slowdown over the unsafe baseline")
    print("=" * 72)
    report = fig12_defense_overhead(
        schemes=("fence-spectre", "fence-futuristic", "priority")
    )
    rows = []
    for row in report.rows:
        rows.append(
            [row.workload]
            + [f"{row.slowdown(s):.2f}x" for s in report.schemes]
        )
    rows.append(
        ["GEOMEAN"] + [f"{report.geomean(s):.2f}x" for s in report.schemes]
    )
    print(
        format_table(
            ["workload"] + list(report.schemes), rows, align_right=[1, 2, 3]
        )
    )
    print("\npaper's geomeans for the fence defense: 1.58x (Spectre), "
          "5.38x (Futuristic)")


if __name__ == "__main__":
    security_table()
    property_table()
    overhead_table()
