"""Figures 3, 4, 5: attack timelines.

Renders the pipeline event timelines of the three gadgets, secret=0 vs
secret=1, reproducing the timeline panels of Figures 3(b), 4(b), 5(b):
the GDNPEU cascade on the non-pipelined unit, the MSHR-blocked victim
load, and the frozen frontend of GIRS.
"""

import pytest

from repro.analysis.timeline import render_timeline, timeline_rows
from repro.core.harness import run_victim_trial
from repro.core.victims import gdmshr_victim, gdnpeu_victim, girs_victim
from repro.trace import Tracer

from _common import emit_report

CASES = [
    (
        "fig3_gdnpeu",
        gdnpeu_victim,
        {},
        "dom-nontso",
        ["z", "f", "load A", "g10", "load B", "access", "transmitter", "gadget"],
    ),
    (
        "fig4_gdmshr",
        gdmshr_victim,
        {},
        "invisispec-spectre",
        ["z", "load A", "load B", "access", "mshr"],
    ),
    (
        "fig5_girs",
        girs_victim,
        {},
        "dom-nontso",
        ["chase0", "access", "transmitter", "rs add", "target instr"],
    ),
]


def run_timelines():
    reports = {}
    for name, builder, kwargs, scheme, names in CASES:
        spec = builder(**kwargs)
        sections = []
        for secret in (0, 1):
            result = run_victim_trial(spec, scheme, secret, tracer=Tracer())
            rows = timeline_rows(result.core, names=names)
            # keep the view readable: cap the RS-add swarm
            trimmed, adds = [], 0
            for row in rows:
                if row.name == "rs add":
                    adds += 1
                    if adds > 6:
                        continue
                trimmed.append(row)
            sections.append(
                render_timeline(
                    trimmed,
                    title=f"--- {spec.name} under {scheme}, secret={secret} ---",
                )
            )
        reports[name] = "\n\n".join(sections)
    return reports


@pytest.mark.benchmark(group="timelines")
def test_bench_fig345_timelines(benchmark):
    reports = benchmark.pedantic(run_timelines, rounds=1, iterations=1)
    for name, text in reports.items():
        emit_report(name, text)
    assert set(reports) == {"fig3_gdnpeu", "fig4_gdmshr", "fig5_girs"}
    for text in reports.values():
        assert "secret=0" in text and "secret=1" in text
