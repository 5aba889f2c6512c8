"""The four sweep workloads: input generation, one timed pass, checks.

Every workload drives the public API only.  The three sweep workloads
go through ``repro.runner.make_runner(workers=1, fork=True, batch=True,
cache_dir=<fresh dir>)`` (the "fastest sweeps" configuration) and
``SweepRunner.run``; ``defense-overhead`` goes through
``repro.core.experiments.run_workload``.  The load is one process with
the serial runner: on a two-CPU host a ``ParallelSweepRunner`` pool
would measure the OS scheduler rather than the simulator.

Inputs come only from the workload seed.  The program under test sees
nothing but the generated ``TrialSpec`` lists (or the synthetic suite).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

#: Wraps a pass's timed region (the traced run opens its root span here).
Around = Callable[[], ContextManager]

#: The 16 scheme models in registry order, listed here so that a scheme
#: added later does not change the workloads.
ALL_SCHEMES = (
    "unsafe", "dom-nontso", "dom-tso", "dom-nontso-vp",
    "invisispec-spectre", "invisispec-futuristic", "safespec-wfb",
    "safespec-wfc", "muontrap", "condspec", "cleanupspec",
    "fence-spectre", "fence-futuristic", "priority", "stt",
    "stt-futuristic",
)
MATRIX_VICTIMS = ("gdnpeu", "gdmshr", "girs", "fwd-eu", "fwd-mshr", "fwd-rs")
SCHEDULE_VICTIMS = ("gdnpeu", "gdmshr")
SCHEDULE_SCHEMES = ("dom-nontso", "invisispec-spectre")
#: Attacker reference-read placements are drawn from [40, 360): the
#: speculation window of the schedule victims under both schemes.
SCHEDULE_CYCLES = range(40, 360)
SCHEDULE_POINTS = 32
SCHEDULE_JITTER = 5
CAMPAIGN_VICTIMS = ("gdnpeu", "gdmshr", "girs")
CAMPAIGN_SEEDS = 8
DEFENSE_SCHEMES = ("unsafe", "fence-spectre", "fence-futuristic")
#: The archived Figure 12 table the defense-overhead cycles must match.
FIG12_TABLE = os.path.join("benchmarks", "results", "fig12_defense_overhead.txt")


@dataclass
class PassResult:
    """One timed pass over a workload's full input set."""

    wall_s: float
    attempted: int
    ok: int
    cycles: int
    retired: int
    #: One fingerprint per unit of work, in input order.
    fingerprints: List[str]
    #: Sweep-layer bookkeeping reported by the runner.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    batch_stats: Dict[str, int] = field(default_factory=dict)
    #: defense-overhead only: (kernel, scheme, cycles, retired, checksum).
    rows: List[Tuple] = field(default_factory=list)
    #: ``wall_s`` scaled to the reference host speed (see calibrate.py).
    norm_wall_s: float = 0.0


def _digest(value: object) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=12).hexdigest()


def outcome_fingerprint(outcome) -> str:
    """Everything a researcher reads off one trial, hashed: identity,
    status, cycles, first-access cycles, the visible log, retired
    instructions and the probe-phase latencies."""
    summary = outcome.summary
    body = None
    if summary is not None:
        body = (
            summary.secret,
            summary.seed,
            summary.cycles,
            tuple(sorted(summary.access_cycle.items())),
            summary.visible,
            summary.retired,
            summary.probe_latencies,
        )
    return _digest((outcome.digest, outcome.status.value, body))


def cold_fingerprints(specs: list) -> List[str]:
    from repro.runner import SerialSweepRunner

    return [outcome_fingerprint(o) for o in SerialSweepRunner().run_outcomes(specs)]


class SweepWorkload:
    """A spec list run through the fastest-sweeps runner configuration.

    ``prefill`` specs are put into a template trial cache before any
    timing; every pass starts from a fresh copy of that template (or
    from an empty cache when there is no prefill).
    """

    def __init__(self, specs: list, work_dir: str, prefill: Sequence = ()) -> None:
        self.specs = specs
        self.prefill = list(prefill)
        self.work_dir = work_dir
        self._template: Optional[str] = None
        self._passes = 0

    def _runner(self, cache_dir: str):
        from repro.runner import make_runner

        return make_runner(workers=1, fork=True, batch=True, cache_dir=cache_dir)

    def warm_up(self) -> None:
        """One untimed trial through the same runner configuration, plus
        the layer modules the runner imports lazily on first use."""
        import repro.batch.engine  # noqa: F401
        import repro.snapshot.fork  # noqa: F401

        cache_dir = os.path.join(self.work_dir, "warm-up")
        runner = self._runner(cache_dir)
        try:
            outcome = runner.run_outcomes(self.specs[:1])[0]
        finally:
            runner.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        if not outcome.ok:
            raise RuntimeError(f"warm-up trial failed: {outcome.describe()}")

    def prepare(self) -> None:
        """Untimed workload preparation after set-up: fill the template
        cache with the ``prefill`` specs."""
        if not self.prefill:
            return
        self._template = os.path.join(self.work_dir, "cache-template")
        runner = self._runner(self._template)
        try:
            outcomes = runner.run_outcomes(self.prefill)
        finally:
            runner.close()
        bad = [o.describe() for o in outcomes if not o.ok]
        if bad:
            raise RuntimeError(f"cache prefill failed: {bad[:3]}")

    def run_pass(self, around: Around = contextlib.nullcontext) -> PassResult:
        self._passes += 1
        cache_dir = os.path.join(self.work_dir, f"cache-{self._passes}")
        if self._template is not None:
            shutil.copytree(self._template, cache_dir)
        runner = self._runner(cache_dir)
        gc.collect()
        try:
            with around():
                start = time.perf_counter()
                result = runner.run(self.specs)
                wall = time.perf_counter() - start
        finally:
            runner.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        outcomes = result.outcomes
        ok = [o for o in outcomes if o.ok]
        return PassResult(
            wall_s=wall,
            attempted=len(outcomes),
            ok=len(ok),
            cycles=sum(o.summary.cycles for o in ok),
            retired=sum(o.summary.retired for o in ok),
            fingerprints=[outcome_fingerprint(o) for o in outcomes],
            cache_stats=dict(result.cache_stats or {}),
            batch_stats=dict(result.batch_stats or {}),
        )

    def reference(self) -> Optional[List[str]]:
        """Fingerprints of cold ``SerialSweepRunner()`` runs of the same
        specs: no fork, no batch, no cache.  Untimed, and run in this
        process, so the benchmark leaves no helper process behind."""
        return cold_fingerprints(self.specs)

    def labels(self) -> List[str]:
        return [spec.label() for spec in self.specs]

    def check(self, result: PassResult) -> List[str]:
        if result.ok != result.attempted:
            return [f"{result.attempted - result.ok} trial(s) not ok"]
        return []


class DefenseOverheadWorkload:
    """The Figure 12 grid: every synthetic kernel under the unsafe
    baseline and both fence threat models, one long single-core run each."""

    def __init__(self) -> None:
        from repro.workloads.synthetic import synthetic_suite

        self.kernels = synthetic_suite()
        self.archived = _read_fig12_table()

    def warm_up(self) -> None:
        from repro.core.experiments import run_workload

        smallest = min(self.kernels, key=lambda k: len(k.program))
        run_workload(smallest, DEFENSE_SCHEMES[0])

    def prepare(self) -> None:
        pass

    def run_pass(self, around: Around = contextlib.nullcontext) -> PassResult:
        from repro.core.experiments import run_workload

        gc.collect()
        with around():
            start = time.perf_counter()
            cores = [run_workload(k, s) for k, s in self._grid()]
            wall = time.perf_counter() - start
        rows = [
            (kernel.name, scheme, core.stats.cycles, core.stats.retired,
             core.regfile.get(kernel.checksum_reg))
            for (kernel, scheme), core in zip(self._grid(), cores)
        ]
        return PassResult(
            wall_s=wall,
            attempted=len(cores),
            ok=len(cores),
            cycles=sum(core.stats.cycles for core in cores),
            retired=sum(core.stats.retired for core in cores),
            fingerprints=[_digest(row) for row in rows],
            rows=rows,
        )

    def reference(self) -> Optional[List[str]]:
        """None: a pass already is the plain single-core run, so there is
        no slower path to compare with.  Passes are checked against the
        archived Figure 12 table and against each other instead."""
        return None

    def _grid(self) -> List[Tuple]:
        return [(k, s) for k in self.kernels for s in DEFENSE_SCHEMES]

    def labels(self) -> List[str]:
        return [f"{kernel.name}/{scheme}" for kernel, scheme in self._grid()]

    def check(self, result: PassResult) -> List[str]:
        """Equal architectural checksums across the three schemes, and
        cycle counts that reproduce the archived Figure 12 table."""
        errors = []
        by_kernel: Dict[str, Dict[str, Tuple[int, int]]] = {}
        for name, scheme, cycles, _retired, checksum in result.rows:
            by_kernel.setdefault(name, {})[scheme] = (cycles, checksum)
        for name, runs in by_kernel.items():
            if len({checksum for _, checksum in runs.values()}) != 1:
                errors.append(f"{name}: checksums differ across schemes {runs}")
            archived = self.archived.get(name)
            if archived is None:
                errors.append(f"{name}: missing from {FIG12_TABLE}")
                continue
            base = runs[DEFENSE_SCHEMES[0]][0]
            got = (
                base,
                *(f"{runs[s][0] / base:.2f}x" for s in DEFENSE_SCHEMES[1:]),
            )
            if got != archived:
                errors.append(f"{name}: cycles {got} != archived {archived}")
        return errors


def _read_fig12_table() -> Dict[str, Tuple]:
    """``kernel -> (baseline cycles, 'N.NNx', 'N.NNx')`` from the archived
    Figure 12 report."""
    rows: Dict[str, Tuple] = {}
    with open(FIG12_TABLE, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 4 and parts[1].isdigit():
                rows[parts[0]] = (int(parts[1]), parts[2], parts[3])
    if not rows:
        raise RuntimeError(f"no rows parsed from {FIG12_TABLE}")
    return rows


# ----------------------------------------------------------------------
# input generation
# ----------------------------------------------------------------------
WORKLOADS = ("attack-matrix", "schedule-sweep", "seed-campaign", "defense-overhead")


def attack_matrix_specs(seed: int) -> list:
    """6 victims x 16 schemes x 2 secrets, per-trial seeds from ``seed``."""
    from repro.runner import expand_grid

    return expand_grid(MATRIX_VICTIMS, ALL_SCHEMES, (0, 1), base_seed=seed)


def schedule_sweep_specs(seed: int) -> list:
    """2 victims x 2 schemes x 2 secrets x 32 reference-read cycles,
    once on the attack hierarchy and once DRAM-jittered.

    The seed picks the 32 cycles and the jitter seed.  Every schedule of
    one (victim, scheme, secret) shares its per-trial seed, as the
    reference-read experiments do, so the jittered half forms lockstep
    cohorts instead of singleton groups."""
    from repro.core.victims import ADDR_REF
    from repro.memory.hierarchy import HierarchyConfig
    from repro.runner import expand_grid

    rng = random.Random(seed)
    cycles = sorted(rng.sample(SCHEDULE_CYCLES, SCHEDULE_POINTS))
    jitter_seed = rng.randrange(2**31)
    specs = []
    for hierarchy in (None, HierarchyConfig(dram_jitter=SCHEDULE_JITTER)):
        for cycle in cycles:
            specs += expand_grid(
                SCHEDULE_VICTIMS,
                SCHEDULE_SCHEMES,
                (0, 1),
                base_seed=jitter_seed,
                reference_accesses=((ADDR_REF, cycle),),
                hierarchy_config=hierarchy,
            )
    return specs


def seed_campaign_specs(seed: int) -> Tuple[list, list]:
    """3 victims x 16 schemes x 2 secrets x 8 base seeds drawn from
    ``seed``; returns ``(specs, prefill)`` where ``prefill`` is the first
    half of the base seeds, cached before timing."""
    from repro.runner import expand_grid

    rng = random.Random(seed)
    base_seeds = [rng.randrange(2**31) for _ in range(CAMPAIGN_SEEDS)]
    per_seed = [
        expand_grid(CAMPAIGN_VICTIMS, ALL_SCHEMES, (0, 1), base_seed=b)
        for b in base_seeds
    ]
    specs = [spec for group in per_seed for spec in group]
    prefill = [spec for group in per_seed[: CAMPAIGN_SEEDS // 2] for spec in group]
    return specs, prefill


def make_workload(name: str, seed: int, work_dir: str):
    if name == "attack-matrix":
        return SweepWorkload(attack_matrix_specs(seed), work_dir)
    if name == "schedule-sweep":
        return SweepWorkload(schedule_sweep_specs(seed), work_dir)
    if name == "seed-campaign":
        specs, prefill = seed_campaign_specs(seed)
        return SweepWorkload(specs, work_dir, prefill=prefill)
    if name == "defense-overhead":
        return DefenseOverheadWorkload()
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
