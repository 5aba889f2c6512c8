"""Ablation: Delay-on-Miss with value prediction vs the gadget zoo.

DoM's full design (Sakalis et al.) pairs selective delay with *value
prediction* for speculative misses.  This bench maps which interference
transmitters survive:

* the hit/miss **load** transmitter dies — predicted misses return as
  fast as hits, erasing the timing differential;
* GDMSHR stays dead (predictions make no memory request at all);
* GIRS dies — the dependent adds get a (predicted) value either way, so
  the RS drains identically for both secrets;
* the **data-dependent arithmetic** transmitter still leaks — value
  prediction says nothing about operand-dependent execution time.

Plus the performance upside of VP over plain delay on the workload suite.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core.experiments import fig12_defense_overhead
from repro.core.victims import (
    gdmshr_victim,
    gdnpeu_arith_victim,
    gdnpeu_victim,
    girs_victim,
)

from _common import emit_report, pair_leaks


def run_ablation():
    rows = []
    gdmshr, girs = gdmshr_victim(), girs_victim()
    for label, spec, line in [
        ("GDNPEU, load transmitter", gdnpeu_victim(), None),
        ("GDNPEU, arith transmitter", gdnpeu_arith_victim(), None),
        ("GDMSHR", gdmshr, gdmshr.line_a),
        ("GIRS", girs, girs.target_iline),
    ]:
        rows.append(
            (
                label,
                pair_leaks(spec, "dom-nontso", line),
                pair_leaks(spec, "dom-nontso-vp", line),
            )
        )
    perf = fig12_defense_overhead(
        schemes=("dom-nontso", "dom-nontso-vp"), baseline="unsafe"
    )
    return rows, perf


@pytest.mark.benchmark(group="ablation")
def test_bench_ablation_dom_vp(benchmark):
    rows, perf = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    table_rows = [
        [label, "LEAKS" if plain else "blocked", "LEAKS" if vp else "blocked"]
        for label, plain, vp in rows
    ]
    text = format_table(
        ["attack", "dom (delay)", "dom (delay+VP)"],
        table_rows,
        title="DoM value-prediction ablation: which transmitters survive",
    )
    perf_rows = [
        [
            row.workload,
            f"{row.slowdown('dom-nontso'):.2f}x",
            f"{row.slowdown('dom-nontso-vp'):.2f}x",
        ]
        for row in perf.rows
    ]
    perf_rows.append(
        [
            "GEOMEAN",
            f"{perf.geomean('dom-nontso'):.2f}x",
            f"{perf.geomean('dom-nontso-vp'):.2f}x",
        ]
    )
    text += "\n\n" + format_table(
        ["workload", "dom (delay)", "dom (delay+VP)"],
        perf_rows,
        title="Overhead over the unsafe baseline",
        align_right=[1, 2],
    )
    emit_report("ablation_dom_vp", text)
    verdicts = {label: (plain, vp) for label, plain, vp in rows}
    assert verdicts["GDNPEU, load transmitter"] == (True, False)
    assert verdicts["GDNPEU, arith transmitter"] == (True, True)
    assert verdicts["GDMSHR"] == (False, False)
    assert verdicts["GIRS"][0] is True
    assert verdicts["GIRS"][1] is False
    # VP never slower than plain delay overall
    assert perf.geomean("dom-nontso-vp") <= perf.geomean("dom-nontso") + 0.02
