"""One leak oracle: the static analyzer's cross-validation (live
``TrialResult`` runs) and the symbolic replay (runner ``TrialSummary``
records) must report the same signals, detail text included."""

import pytest

from repro.core.victims import VICTIM_FACTORIES, victim_by_name
from repro.staticcheck.crossval import dynamic_signals
from repro.symni.replay import replay_counterexample


@pytest.mark.parametrize("scheme", ["unsafe", "dom-nontso", "fence-spectre"])
@pytest.mark.parametrize("name", sorted(VICTIM_FACTORIES))
def test_crossval_and_replay_report_identical_signals(name, scheme):
    spec = victim_by_name(name)
    replay = replay_counterexample(spec, name, scheme, (0, 1))
    assert replay.ran
    assert dynamic_signals(spec, scheme) == list(replay.signals)
