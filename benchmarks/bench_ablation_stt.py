"""Ablation (§6): STT vs speculative interference.

The paper positions STT as the comprehensive-threat-model alternative:
"STT soundly blocks speculative interference attacks that leak
transiently accessed data, [but] offers no protection against
speculative interference attacks that leak non-transiently accessed
(bound-to-retire) data."  This bench verifies both halves and measures
STT's performance cost next to the other defenses.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core.experiments import fig12_defense_overhead
from repro.core.spectre import spectre_leak_trial
from repro.core.victims import (
    gdmshr_victim,
    gdnpeu_architectural_victim,
    gdnpeu_arith_victim,
    gdnpeu_victim,
    girs_victim,
)

from _common import emit_report, pair_leaks


def run_ablation():
    gdmshr, girs = gdmshr_victim(), girs_victim()
    security = [
        ("Spectre v1", spectre_leak_trial("stt", 7).leaked),
        ("GDNPEU, transient load tx", pair_leaks(gdnpeu_victim(), "stt")),
        ("GDNPEU, transient arith tx", pair_leaks(gdnpeu_arith_victim(), "stt")),
        ("GDMSHR, transient", pair_leaks(gdmshr, "stt", gdmshr.line_a)),
        ("GIRS, transient", pair_leaks(girs, "stt", girs.target_iline)),
        (
            "GDNPEU, bound-to-retire secret",
            pair_leaks(gdnpeu_architectural_victim(), "stt"),
        ),
    ]
    overhead = fig12_defense_overhead(schemes=("stt", "fence-spectre"))
    return security, overhead


@pytest.mark.benchmark(group="ablation")
def test_bench_ablation_stt(benchmark):
    security, overhead = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [[name, "LEAKS" if leaks else "blocked"] for name, leaks in security]
    text = format_table(
        ["attack vs STT", "verdict"],
        rows,
        title="STT ablation (§6): taint tracking vs speculative interference",
    )
    perf_rows = [
        [row.workload, f"{row.slowdown('stt'):.2f}x", f"{row.slowdown('fence-spectre'):.2f}x"]
        for row in overhead.rows
    ]
    perf_rows.append(
        [
            "GEOMEAN",
            f"{overhead.geomean('stt'):.2f}x",
            f"{overhead.geomean('fence-spectre'):.2f}x",
        ]
    )
    text += "\n\n" + format_table(
        ["workload", "stt", "fence-spectre"],
        perf_rows,
        title="Overhead over the unsafe baseline",
        align_right=[1, 2],
    )
    emit_report("ablation_stt", text)
    verdicts = dict(security)
    assert not verdicts["Spectre v1"]
    assert not verdicts["GDNPEU, transient load tx"]
    assert not verdicts["GDNPEU, transient arith tx"]
    assert not verdicts["GDMSHR, transient"]
    assert not verdicts["GIRS, transient"]
    # ... and the paper's counter-example:
    assert verdicts["GDNPEU, bound-to-retire secret"]
    # STT is cheaper than blanket fencing on branch-dense code
    assert overhead.geomean("stt") <= overhead.geomean("fence-spectre") + 0.05
