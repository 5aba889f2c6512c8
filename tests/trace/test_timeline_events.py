"""Timeline rows come from the structured trace alone, for every
Figure 3/4/5 scenario and every accepted source."""

from __future__ import annotations

import pytest

from repro.analysis.timeline import (
    render_timeline,
    rows_from_events,
    timeline_rows,
)
from repro.core.harness import run_victim_trial
from repro.core.victims import victim_by_name
from repro.trace import EventKind, Tracer

SCENARIOS = [
    ("gdnpeu", "dom-nontso"),
    ("gdmshr", "invisispec-spectre"),
    ("girs", "dom-nontso"),
]


def _traced(victim, scheme, secret):
    return run_victim_trial(
        victim_by_name(victim), scheme, secret, tracer=Tracer()
    )


@pytest.mark.parametrize("victim,scheme", SCENARIOS)
@pytest.mark.parametrize("secret", (0, 1))
def test_rows_cover_the_rob_population(victim, scheme, secret):
    """One row per instruction that reached the ROB: every commit, plus
    every squash of a dispatched instruction."""
    events = _traced(victim, scheme, secret).events
    seqs = {kind: {e.seq for e in events if e.kind is kind} for kind in EventKind}
    committed = seqs[EventKind.COMMIT]
    squashed = (seqs[EventKind.SQUASH] & seqs[EventKind.DISPATCH]) - committed
    rows = rows_from_events(events)
    assert [r.seq for r in rows] == sorted(committed | squashed)
    assert {r.seq for r in rows if r.squashed} == squashed


def test_timeline_rows_prefers_tracer_on_core():
    result = _traced("gdnpeu", "dom-nontso", 1)
    assert result.core.tracer is not None
    rows = timeline_rows(result.core)
    assert rows == rows_from_events(result.events)


def test_timeline_rows_accepts_tracer_and_event_iterable():
    tracer = Tracer()
    result = run_victim_trial(
        victim_by_name("gdnpeu"), "dom-nontso", 1, tracer=tracer
    )
    from_tracer = timeline_rows(tracer)
    from_list = timeline_rows(list(tracer.events))
    assert from_tracer == from_list == rows_from_events(result.events)


def test_name_filter_applies_to_event_rows():
    result = _traced("gdnpeu", "dom-nontso", 1)
    rows = timeline_rows(result.core, names=["gadget"])
    assert rows
    assert all(r.name.startswith("gadget") for r in rows)


def test_render_from_event_rows():
    result = _traced("gdnpeu", "dom-nontso", 1)
    text = render_timeline(timeline_rows(result.core), title="fig3")
    assert "fig3" in text
    assert "gadget0" in text
    assert "x" in text  # the squashed transient gadget


def test_squashed_rows_require_dispatch():
    # Fetch-queue squashes never reached the ROB and must not appear.
    result = _traced("gdnpeu", "dom-nontso", 1)
    rows = rows_from_events(result.events)
    for row in rows:
        if row.squashed:
            assert row.dispatch is not None


def test_timeline_rows_without_tracer_raises():
    result = run_victim_trial(victim_by_name("gdnpeu"), "dom-nontso", 1)
    with pytest.raises(ValueError, match=r"tracer=Tracer\(\)"):
        timeline_rows(result.core)
