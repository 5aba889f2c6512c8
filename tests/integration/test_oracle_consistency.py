"""Consistency of the execution views used by §5.1's checker:

the pipeline's retired-branch outcome stream must equal the
architectural (in-order) outcome stream, and replaying it through the
oracle predictor must produce a mis-speculation-free execution with
identical architectural results.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.harness import prepare_machine
from repro.core.noninterference import nospec_outcomes
from repro.core.victims import VICTIM_FACTORIES
from repro.isa import Interpreter
from repro.pipeline.branch import OraclePredictor
from repro.pipeline.scheme_api import SpeculationScheme
from repro.schemes.registry import make_scheme
from repro.workloads import random_program

from tests.conftest import run_on_scheme


def record_retired_branches(scheme):
    """Wrap ``scheme.on_retire`` so every retired conditional branch's
    outcome is appended, in retirement order, to the returned list."""
    outcomes = []
    inner = scheme.on_retire

    def on_retire(core, instr):
        if instr.is_branch and not instr.static.unconditional:
            outcomes.append(bool(instr.actual_taken))
        inner(core, instr)

    scheme.on_retire = on_retire
    return outcomes


def run_recorded(program, **kwargs):
    scheme = SpeculationScheme()
    outcomes = record_retired_branches(scheme)
    machine, core = run_on_scheme(program, scheme, max_cycles=400_000, **kwargs)
    return core, outcomes


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=4000))
def test_branch_traces_agree(seed):
    program = random_program(seed)
    _, outcomes = run_recorded(program)
    assert outcomes == Interpreter(program).run().branch_outcomes


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=4000))
def test_oracle_replay_has_no_squashes(seed):
    """The NoSpec(E) construction: replaying recorded outcomes through
    the oracle predictor is mis-speculation-free and result-identical."""
    program = random_program(seed)
    core, outcomes = run_recorded(program)
    core2, _ = run_recorded(program, predictor=OraclePredictor(outcomes))
    assert core2.stats.mispredicts == 0
    assert core2.stats.squashes == 0
    for reg, value in core.regfile.items():
        assert core2.regfile.get(reg) == value


#: One scheme per recovery mechanism: plain squash, value-prediction
#: replay, EU preemption, and cache-state rollback.
RECOVERY_SCHEMES = ("unsafe", "dom-nontso-vp", "priority", "cleanupspec")


@pytest.mark.parametrize("secret", (0, 1))
@pytest.mark.parametrize("victim", sorted(VICTIM_FACTORIES))
def test_victim_branch_stream_is_architectural(victim, secret):
    """The premise of the §5.1 check: whatever the scheme's recovery
    path, the victim's retired conditional-branch stream is its
    architectural one, so the interpreter can supply NoSpec(E)'s oracle
    outcomes."""
    spec = VICTIM_FACTORIES[victim]()
    expected = nospec_outcomes(spec, secret)
    for name in RECOVERY_SCHEMES:
        scheme = make_scheme(name)
        outcomes = record_retired_branches(scheme)
        machine, core, _ = prepare_machine(spec, scheme, secret)
        machine.run(until=lambda: core.halted, max_cycles=30_000)
        assert outcomes == expected, name
