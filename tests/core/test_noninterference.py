"""Ideal-invisible-speculation (§5.1) tests: C(E) = C(NoSpec(E))."""

import pytest

from repro.core.noninterference import (
    check_ideal_invisible_speculation,
    llc_trace,
    nospec_outcomes,
)
from repro.core.victims import gdnpeu_victim, girs_victim


class TestIdealInvisibleSpeculation:
    @pytest.mark.parametrize("scheme", ["fence-spectre", "fence-futuristic"])
    @pytest.mark.parametrize("secret", [0, 1])
    def test_fence_defense_satisfies_property(self, scheme, secret):
        report = check_ideal_invisible_speculation(
            gdnpeu_victim(), scheme, secret
        )
        assert report.holds, report.divergence()

    def test_unsafe_violates_property(self):
        report = check_ideal_invisible_speculation(gdnpeu_victim(), "unsafe", 1)
        assert not report.holds

    @pytest.mark.parametrize(
        "scheme", ["dom-nontso", "invisispec-spectre", "safespec-wfb"]
    )
    def test_invisible_schemes_violate_on_interference_victim(self, scheme):
        """The paper's thesis as a property: the interference victim
        makes every invisible-speculation scheme's visible LLC pattern
        depend on mis-speculation."""
        report = check_ideal_invisible_speculation(
            gdnpeu_victim(), scheme, secret=1
        )
        assert not report.holds
        assert report.divergence() is not None

    def test_girs_violation_for_unprotected_icache(self):
        report = check_ideal_invisible_speculation(girs_victim(), "dom-nontso", 0)
        assert not report.holds

    def test_girs_holds_for_protected_icache(self):
        """SafeSpec's shadowed I-side keeps GIRS's trace speculation-
        invariant (it is invulnerable in Table 1)."""
        report = check_ideal_invisible_speculation(girs_victim(), "safespec-wfb", 0)
        assert report.holds


class TestTraceMachinery:
    def test_llc_trace_returns_branch_outcomes(self):
        # llc_trace returns C(E) alone; the branch outcomes the oracle
        # replays come from the victim's architectural run.
        trace = llc_trace(gdnpeu_victim(), "unsafe", 0)
        assert isinstance(trace, list)
        outcomes = nospec_outcomes(gdnpeu_victim(), 0)
        assert outcomes.count(False) >= 1  # the victim branch: not taken

    def test_secret_changes_spec_trace_under_dom(self):
        t0 = llc_trace(gdnpeu_victim(), "dom-nontso", 0)
        t1 = llc_trace(gdnpeu_victim(), "dom-nontso", 1)
        assert t0 != t1  # the covert channel, stated as trace inequality

    def test_secret_does_not_change_trace_under_fence(self):
        t0 = llc_trace(gdnpeu_victim(), "fence-spectre", 0)
        t1 = llc_trace(gdnpeu_victim(), "fence-spectre", 1)
        assert t0 == t1
