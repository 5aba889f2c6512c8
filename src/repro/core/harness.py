"""Single-trial harness: prepare, mistrain, run, observe.

One trial = one victim execution under one speculation scheme with one
secret value.  The harness performs the attacker's setup steps from
Figure 9 (prime/flush/mistrain), runs the victim, and reports when each
monitored line made its first visible shared-LLC access — the raw
material for both the Table 1 matrix and the end-to-end PoCs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.victims import ATTACK_HIERARCHY, VictimSpec
from repro.memory.hierarchy import (
    AccessKind,
    CacheHierarchy,
    HierarchyConfig,
    VisibleAccess,
)
from repro.pipeline.branch import TwoBitPredictor
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.scheme_api import SpeculationScheme
from repro.schemes.registry import make_scheme
from repro.system.agent import AttackerAgent
from repro.system.machine import Machine
from repro.system.noise import NoiseInjector
from repro.trace import Tracer, install_tracer

VICTIM_CORE = 0
NOISE_CORE = 1
ATTACKER_CORE = 2

LINE = 64


@dataclass
class TrialResult:
    """Observable outcome of one victim run."""

    secret: int
    scheme: str
    cycles: int
    #: line address -> cycle of its first visible LLC access (None if none).
    access_cycle: Dict[int, Optional[int]]
    #: the victim-window slice of the visible LLC log.
    visible: List[VisibleAccess]
    #: Live simulation handles for in-process inspection.  Optional: the
    #: parallel sweep runner ships results across process boundaries as
    #: :class:`repro.runner.TrialSummary`, which carries everything above
    #: but excludes these (a Machine holds lambdas and megabytes of
    #: cache state — neither picklable nor worth shipping).
    machine: Optional[Machine] = field(repr=False, default=None)
    core: Optional[Core] = field(repr=False, default=None)
    #: The invariant sanitizer attached for this run (``sanitize=True``),
    #: exposing its check counters; None otherwise.
    sanitizer: Optional[object] = field(repr=False, default=None)

    @property
    def events(self):
        """Structured trace events collected for this run (empty list
        when no tracer was installed)."""
        if self.core is not None and self.core.tracer is not None:
            return self.core.tracer.events
        return []

    def first_access(self, line: int) -> Optional[int]:
        return self.access_cycle.get(line)

    def order(self, line_x: int, line_y: int) -> Optional[str]:
        """'xy', 'yx', or None when either access is missing."""
        tx, ty = self.first_access(line_x), self.first_access(line_y)
        if tx is None or ty is None or tx == ty:
            return None
        return "xy" if tx < ty else "yx"


def resolve_scheme(scheme: Union[str, SpeculationScheme]) -> SpeculationScheme:
    if isinstance(scheme, str):
        return make_scheme(scheme)
    return scheme


def prepare_machine(
    spec: VictimSpec,
    scheme: Union[str, SpeculationScheme],
    secret: int,
    *,
    hierarchy_config: Optional[HierarchyConfig] = None,
    core_config: Optional[CoreConfig] = None,
    mistrain_rounds: int = 4,
    tracer: Optional[Tracer] = None,
) -> Tuple[Machine, Core, SpeculationScheme]:
    """Build a machine with the victim attached and the caches prepared
    per the spec (prime/flush/mistrain).  Does not run it.

    ``tracer`` (a :class:`repro.trace.Tracer`) is the run's instruction
    record: pass ``tracer=Tracer()`` for per-instruction timelines.  It
    is wired in after cache warming/priming so preparation noise never
    reaches the trace.
    """
    scheme_obj = resolve_scheme(scheme)
    machine = Machine(
        num_cores=3, hierarchy_config=hierarchy_config or ATTACK_HIERARCHY
    )
    hierarchy = machine.hierarchy
    for addr, value in spec.memory_image.items():
        hierarchy.memory.write(addr, value)
    hierarchy.memory.write(spec.secret_addr, secret)

    # Warm the victim's I-side except deliberately cold lines.
    cold = set(spec.cold_ilines)
    ilines = set()
    for slot in range(len(spec.program)):
        addr = spec.program.address_of_slot(slot)
        ilines.add(addr & ~(LINE - 1))
    for line in sorted(ilines - cold):
        hierarchy.llc.fill(line, update=False)
        hierarchy.l2[VICTIM_CORE].fill(line, update=False)
        hierarchy.l1i[VICTIM_CORE].fill(line, update=False)

    # Prime the victim-side data lines (stand-in for a warm-up victim
    # invocation), then flush the attacker-flushed lines.
    machine.warm_data(VICTIM_CORE, spec.prime_l1, level="L1")
    for line in spec.flush_lines:
        hierarchy.flush(line)

    predictor = TwoBitPredictor()
    predictor.train(spec.branch_slot, True, times=mistrain_rounds)
    core = machine.attach(
        VICTIM_CORE,
        spec.program,
        scheme_obj,
        config=core_config or spec.core_config,
        predictor=predictor,
        registers=dict(spec.registers),
    )
    if tracer is not None:
        install_tracer(tracer, machine=machine)
    return machine, core, scheme_obj


@dataclass
class TrialSetup:
    """A fully prepared but not-yet-run victim trial.

    Produced by :func:`begin_victim_trial`; consumed by
    :func:`finish_victim_trial`.  The split exists for the snapshot/fork
    engine (:mod:`repro.snapshot.fork`), which prepares one trial,
    simulates the shared prefix, captures the machine, and then finishes
    N restored variants — each through the same observation code the
    cold path uses.
    """

    spec: VictimSpec
    scheme_obj: SpeculationScheme
    #: Mutable: the fork engine overwrites this per variant after poking
    #: the restored machine's memory, so the result is labeled correctly.
    secret: int
    seed: int
    machine: Machine
    core: Core
    agent: AttackerAgent
    sanitizer: Optional[object]
    log_start: int
    reference_accesses: Sequence[Tuple[int, int]]
    extra_lines: Sequence[int]
    max_cycles: int


def begin_victim_trial(
    spec: VictimSpec,
    scheme: Union[str, SpeculationScheme],
    secret: int,
    *,
    hierarchy_config: Optional[HierarchyConfig] = None,
    core_config: Optional[CoreConfig] = None,
    reference_accesses: Sequence[Tuple[int, int]] = (),
    noise_rate: float = 0.0,
    noise_pool: Sequence[int] = (),
    seed: int = 0,
    max_cycles: int = 20_000,
    tracer: Optional[Tracer] = None,
    extra_lines: Sequence[int] = (),
    fault_injector=None,
    sanitize: bool = False,
) -> TrialSetup:
    """Prepare a victim trial without running it.

    Performs everything :func:`run_victim_trial` does before the first
    simulated cycle: machine construction, cache priming/flushing,
    predictor mistraining, attacker scheduling, noise wiring, and the
    visible-log bookmark.
    """
    if secret not in (0, 1):
        raise ValueError("secret must be a bit")
    machine, core, scheme_obj = prepare_machine(
        spec,
        scheme,
        secret,
        hierarchy_config=hierarchy_config,
        core_config=core_config,
        tracer=tracer,
    )
    sanitizer = None
    if sanitize:
        # Imported lazily: repro.staticcheck's package init pulls in the
        # cross-validation harness, which imports this module.
        from repro.staticcheck.sanitizer import (
            InvariantSanitizer,
            compose_hooks,
        )

        sanitizer = InvariantSanitizer().attach(core)
        fault_injector = compose_hooks(fault_injector, sanitizer)
    # Identity baked into any DeadlockError raised below, so a failed
    # trial deep inside a sweep is attributable from the record alone.
    context = (
        f"victim={spec.name} scheme={scheme_obj.name} "
        f"secret={secret} seed={seed}"
    )
    machine.trial_context = context
    core.trial_context = context
    if fault_injector is not None:
        machine.fault_injector = fault_injector
    agent = AttackerAgent(machine, ATTACKER_CORE, seed=seed)
    for addr, cycle in reference_accesses:
        agent.schedule_read(addr, cycle)
    if noise_rate > 0.0:
        injector = NoiseInjector(
            machine, NOISE_CORE, list(noise_pool), rate=noise_rate, seed=seed
        )
        injector.attach()
    machine.hierarchy.memory.reseed(seed + 1)

    log_start = len(machine.hierarchy.visible_log)
    return TrialSetup(
        spec=spec,
        scheme_obj=scheme_obj,
        secret=secret,
        seed=seed,
        machine=machine,
        core=core,
        agent=agent,
        sanitizer=sanitizer,
        log_start=log_start,
        reference_accesses=reference_accesses,
        extra_lines=extra_lines,
        max_cycles=max_cycles,
    )


def finish_victim_trial(
    setup: TrialSetup, *, max_cycles: Optional[int] = None
) -> TrialResult:
    """Run a prepared (or restored) trial to completion and observe it.

    ``max_cycles`` overrides the setup's budget — the fork engine passes
    the *remaining* budget after the shared prefix, so a forked variant
    obeys exactly the cold trial's horizon.
    """
    machine, core = setup.machine, setup.core
    # The halt predicate only changes inside step(), so idle-cycle
    # fast-forwarding is exact here (and disables itself automatically
    # while a noise injector's cycle hook is attached).
    machine.run(
        until=lambda: core.halted,
        max_cycles=setup.max_cycles if max_cycles is None else max_cycles,
        fast_forward=True,
    )
    window = machine.hierarchy.log_since(setup.log_start)

    monitored = list(setup.spec.monitored_lines()) + [
        addr & ~(LINE - 1) for addr, _ in setup.reference_accesses
    ] + [line & ~(LINE - 1) for line in setup.extra_lines]
    access_cycle: Dict[int, Optional[int]] = {}
    for line in monitored:
        access_cycle[line] = next(
            (e.cycle for e in window if e.line == line), None
        )
    return TrialResult(
        secret=setup.secret,
        scheme=setup.scheme_obj.name,
        cycles=machine.cycle,
        access_cycle=access_cycle,
        visible=window,
        machine=machine,
        core=core,
        sanitizer=setup.sanitizer,
    )


def run_probe_phase(
    machine: Machine,
    probe_accesses: Sequence[int],
    *,
    core: int = ATTACKER_CORE,
) -> Tuple[int, ...]:
    """Attacker probe phase, run after the victim window has closed.

    For each probe address in order: evict the attacker's *own* private
    copies (L1D/L1I/L2, exactly :meth:`AttackerAgent.evict_own_copy`),
    then issue one timed visible read from the attacker core at the
    machine's final cycle.  The returned latencies decode LLC residency
    against ``hierarchy.miss_threshold()`` — the Flush+Reload style
    receiver measurement of §4.1, made a first-class trial phase so the
    batched engine can vectorize it per lane.

    Mutates machine state (probe fills are real fills); callers collect
    metrics/snapshots *after* the probe so every execution path agrees
    on what the final state includes.
    """
    hierarchy = machine.hierarchy
    cycle = machine.cycle
    tracer = hierarchy.tracer
    latencies = []
    for addr in probe_accesses:
        line = hierarchy.llc.layout.line_addr(addr)
        if tracer is not None:
            # The direct invalidations below bypass the access path that
            # normally stamps the tracer context; stamp it here so probe
            # events attribute to the probing core at the probe cycle.
            tracer.cycle = cycle
            tracer.core = core
        hierarchy.l1d[core].invalidate(line)
        hierarchy.l1i[core].invalidate(line)
        hierarchy.l2[core].invalidate(line)
        result = hierarchy.access(
            core, addr, AccessKind.DATA, visible=True, cycle=cycle
        )
        latencies.append(result.latency)
    return tuple(latencies)


def run_victim_trial(
    spec: VictimSpec,
    scheme: Union[str, SpeculationScheme],
    secret: int,
    *,
    hierarchy_config: Optional[HierarchyConfig] = None,
    core_config: Optional[CoreConfig] = None,
    reference_accesses: Sequence[Tuple[int, int]] = (),
    noise_rate: float = 0.0,
    noise_pool: Sequence[int] = (),
    seed: int = 0,
    max_cycles: int = 20_000,
    tracer: Optional[Tracer] = None,
    extra_lines: Sequence[int] = (),
    fault_injector=None,
    sanitize: bool = False,
) -> TrialResult:
    """Run one prepared victim to completion and observe the LLC log.

    ``reference_accesses`` are the attacker's fixed-time "clock" accesses
    of §3.3 (``(address, cycle)`` pairs, issued from the attacker core).

    ``tracer`` records the run as structured events (pass
    ``tracer=Tracer()``; read them back from ``result.events`` or with
    :func:`repro.analysis.timeline_rows`).  Traced and untraced runs are
    bit-identical.

    ``fault_injector`` (a :class:`repro.runner.faults.FaultInjector`) is
    installed on the machine for deterministic fault-injection tests; it
    disables idle fast-forwarding so injected faults land cycle-exactly.

    ``sanitize`` attaches a
    :class:`~repro.staticcheck.sanitizer.InvariantSanitizer` to the
    victim core: every cycle is checked against the pipeline/scheme
    invariants and the first violation raises
    :class:`~repro.staticcheck.sanitizer.InvariantViolation`.  Like a
    fault injector, the hook disables idle fast-forwarding, so sanitized
    runs are slower but cycle-exact.
    """
    return finish_victim_trial(
        begin_victim_trial(
            spec,
            scheme,
            secret,
            hierarchy_config=hierarchy_config,
            core_config=core_config,
            reference_accesses=reference_accesses,
            noise_rate=noise_rate,
            noise_pool=noise_pool,
            seed=seed,
            max_cycles=max_cycles,
            tracer=tracer,
            extra_lines=extra_lines,
            fault_injector=fault_injector,
            sanitize=sanitize,
        )
    )
