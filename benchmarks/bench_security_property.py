"""§5.1 security property sweep: C(E) = C(NoSpec(E)) per scheme.

For every scheme and every gadget victim, checks whether the visible
shared-LLC access pattern — including a calibrated fixed-time attacker
reference access, since C(E) interleaves all cores — is invariant of
mis-speculation.  The paper's thesis in one table: the property fails
for every invisible-speculation scheme on at least one interference
victim, and holds for the fence defenses on all of them.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.core.harness import run_victim_trial
from repro.core.matrix import reference_cycle
from repro.core.noninterference import check_ideal_invisible_speculation
from repro.core.victims import (
    ADDR_REF,
    gdmshr_victim,
    gdnpeu_architectural_victim,
    gdnpeu_victim,
    girs_victim,
)

from _common import emit_report

SCHEMES = [
    "unsafe",
    "invisispec-spectre",
    "invisispec-futuristic",
    "dom-nontso",
    "dom-tso",
    "safespec-wfb",
    "safespec-wfc",
    "muontrap",
    "condspec",
    "cleanupspec",
    "stt",
    "fence-spectre",
    "fence-futuristic",
]

#: victims paired with the line whose access time calibrates the
#: attacker's reference access (None for GIRS: presence channel).
VICTIMS = [
    ("gdnpeu", lambda: gdnpeu_victim(variant="vd-vd")),
    ("gdmshr", lambda: gdmshr_victim(variant="vd-vd")),
    ("girs", girs_victim),
    # bound-to-retire secret: the STT counter-example (§6)
    ("gdnpeu-arch", gdnpeu_architectural_victim),
]


def calibrated_reference(spec, scheme):
    """The attacker's offline calibration: find the monitored access's
    time under both secrets and place the reference between them."""
    line = spec.line_a if spec.line_a is not None else spec.target_iline
    ref = reference_cycle(
        run_victim_trial(spec, scheme, 0).first_access(line),
        run_victim_trial(spec, scheme, 1).first_access(line),
    )
    return () if ref is None else ((ADDR_REF, ref),)


def run_sweep():
    table = {}
    for scheme in SCHEMES:
        row = {}
        for name, builder in VICTIMS:
            spec = builder()
            refs = calibrated_reference(spec, scheme)
            holds = all(
                check_ideal_invisible_speculation(
                    builder(), scheme, s, reference_accesses=refs
                ).holds
                for s in (0, 1)
            )
            row[name] = holds
        table[scheme] = row
    return table


@pytest.mark.benchmark(group="security")
def test_bench_security_property(benchmark):
    table = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        [scheme] + ["holds" if table[scheme][v] else "VIOLATED" for v, _ in VICTIMS]
        for scheme in SCHEMES
    ]
    text = format_table(
        ["scheme"] + [v for v, _ in VICTIMS],
        rows,
        title=(
            "Ideal invisible speculation: C(E) = C(NoSpec(E)) per victim\n"
            "(C(E) includes a calibrated fixed-time attacker reference access)"
        ),
    )
    emit_report("security_property", text)
    # fences satisfy the property on every victim ...
    for scheme in ("fence-spectre", "fence-futuristic"):
        assert all(table[scheme].values())
    # ... STT holds exactly on the transient-secret victims (§6) ...
    assert table["stt"]["gdnpeu"] and table["stt"]["gdmshr"] and table["stt"]["girs"]
    assert not table["stt"]["gdnpeu-arch"]
    # ... and every invisible-speculation scheme fails somewhere.
    for scheme in SCHEMES:
        if scheme.startswith("fence") or scheme == "stt":
            continue
        assert not all(table[scheme].values()), scheme
