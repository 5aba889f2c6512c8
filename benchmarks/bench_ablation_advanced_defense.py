"""Ablation (§5.4): the advanced priority-scheduling defense.

DESIGN.md calls out two design choices in the advanced defense —
resource holding (rule 1) and age-priority/preemptable EUs (rule 2).
This bench measures (a) whether the combined defense blocks the GDNPEU
reorder and (b) its performance cost relative to its DoM base scheme,
and contrasts it with the much blunter fence defense.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core.experiments import ablation_advanced_defense, fig12_defense_overhead
from repro.core.harness import run_victim_trial
from repro.core.matrix import order_flips
from repro.core.victims import gdnpeu_victim
from repro.schemes import DelayOnMiss, PriorityDefense


from _common import emit_report


def run_ablation():
    result = ablation_advanced_defense()
    fence = fig12_defense_overhead(
        schemes=("fence-spectre",), baseline="dom-nontso"
    )
    # security check for the base scheme (vulnerable) vs defense (not)
    spec = gdnpeu_victim()
    base_orders = [
        run_victim_trial(spec, DelayOnMiss("nontso"), s).order(
            spec.line_a, spec.line_b
        )
        for s in (0, 1)
    ]
    defense_orders = [
        run_victim_trial(spec, PriorityDefense(), s).order(spec.line_a, spec.line_b)
        for s in (0, 1)
    ]
    return result, fence, base_orders, defense_orders


@pytest.mark.benchmark(group="ablation")
def test_bench_ablation_advanced_defense(benchmark):
    result, fence, base_orders, defense_orders = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    rows = []
    for row in result.overhead.rows:
        fence_row = next(r for r in fence.rows if r.workload == row.workload)
        rows.append(
            [
                row.workload,
                f"{row.slowdown('priority'):.2f}x",
                f"{fence_row.slowdown('fence-spectre'):.2f}x",
            ]
        )
    rows.append(
        [
            "GEOMEAN",
            f"{result.overhead.geomean('priority'):.2f}x",
            f"{fence.geomean('fence-spectre'):.2f}x",
        ]
    )
    text = format_table(
        ["workload", "priority defense (§5.4)", "fence defense (§5.2)"],
        rows,
        title="Ablation: advanced defense cost over a DoM baseline",
        align_right=[1, 2],
    )
    text += (
        f"\n\nGDNPEU order(A,B) under DoM:      s0={base_orders[0]} "
        f"s1={base_orders[1]}  (leaks: {order_flips(*base_orders)})"
        f"\nGDNPEU order(A,B) under priority:  s0={defense_orders[0]} "
        f"s1={defense_orders[1]}  (leaks: {order_flips(*defense_orders)})"
    )
    emit_report("ablation_advanced_defense", text)
    assert result.blocks_gdnpeu
    assert order_flips(*base_orders)
    assert defense_orders[0] == defense_orders[1]
