"""Load/store unit: memory-request lifetimes, MSHRs, scheme policy.

The LSU owns every load between issue and data return:

* it asks the active :class:`~repro.pipeline.scheme_api.SpeculationScheme`
  whether the load may execute now and with what visibility;
* it allocates an L1-D MSHR for every miss it sends down the hierarchy —
  visible or invisible alike (this shared, issue-ordered allocation is
  the GDMSHR attack surface, §3.2.2);
* delayed loads (DoM-style) and MSHR-blocked loads park here and are
  re-evaluated oldest-first every cycle;
* store-to-load forwarding bypasses the cache entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.memory.hierarchy import AccessKind, CacheHierarchy
from repro.memory.mshr import MSHRFile
from repro.pipeline.config import CoreConfig
from repro.pipeline.dyninstr import DynInstr, Phase
from repro.pipeline.scheme_api import LoadDecision, SpeculationScheme
from repro.trace.events import EventKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


#: load_state values (stored on the DynInstr for visibility in traces).
LS_PARKED_SCHEME = "parked-scheme"   # scheme said DELAY
LS_PARKED_MSHR = "parked-mshr"       # no MSHR available
LS_PARKED_FWD = "parked-forward"     # waiting on an older store's value
LS_INFLIGHT = "inflight"
LS_DONE = "done"


@dataclass(slots=True)
class _InFlightLoad:
    instr: DynInstr
    finish_cycle: int
    mshr_line: Optional[int]
    visible: bool
    forwarded: bool = False


class LoadStoreUnit:
    """Per-core memory pipeline stage."""

    def __init__(
        self,
        core_id: int,
        hierarchy: CacheHierarchy,
        scheme: SpeculationScheme,
        config: CoreConfig,
    ) -> None:
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.scheme = scheme
        self.config = config
        self._occupancy = 0
        self._parked: List[DynInstr] = []  # age-ordered
        self._inflight: List[_InFlightLoad] = []
        self.stats_delayed = 0
        self.stats_mshr_blocked_cycles = 0
        self.stats_invisible = 0
        self.stats_forwards = 0
        self.stats_predicted = 0
        #: Optional :class:`repro.trace.Tracer`.  None = tracing off.
        self.tracer = None

    # ------------------------------------------------------------------
    @property
    def mshrs(self) -> MSHRFile:
        return self.hierarchy.l1d_mshrs[self.core_id]

    def can_accept(self) -> bool:
        return self._occupancy < self.config.lsu_size

    def allocate_slot(self) -> None:
        if not self.can_accept():
            raise RuntimeError("LSU overflow")
        self._occupancy += 1

    def release_slot(self) -> None:
        self._occupancy = max(0, self._occupancy - 1)

    # ------------------------------------------------------------------
    # submission & evaluation
    # ------------------------------------------------------------------
    def submit(self, core: "Core", load: DynInstr, cycle: int) -> None:
        """A load issued: its address is computed; try to execute it."""
        if load.addr is None:
            # Explicit, not an assert: survives ``python -O``.
            raise RuntimeError(
                f"load #{load.seq} submitted to the LSU without an address"
            )
        self._try_start(core, load, cycle)

    def _park(
        self, load: DynInstr, state: str, prev: Optional[str], cycle: int
    ) -> None:
        """Park ``load`` in ``state``; emits a ``lsu.park`` event only on
        a state *transition* (``prev`` is the state the load held before
        this evaluation pass), so a load that stays parked is silent —
        which keeps traces identical with idle fast-forward on or off."""
        load.load_state = state
        self._parked.append(load)
        if self.tracer is not None and prev != state:
            self.tracer.emit(
                EventKind.LSU_PARK,
                cycle=cycle,
                seq=load.seq,
                instr=load.name,
                state=state,
            )

    def _try_start(
        self,
        core: "Core",
        load: DynInstr,
        cycle: int,
        prev: Optional[str] = None,
    ) -> None:
        """Memory disambiguation + forwarding, then the cache path.

        Conservative ordering: a load waits while *any* older store has
        an unresolved address (it might alias).  With all older store
        addresses known, the youngest matching store forwards its value;
        otherwise the load goes to the cache hierarchy.
        """
        match: Optional[DynInstr] = None
        for store in core.rob.older_stores(load.seq):
            if store.addr is None:
                self._park(load, LS_PARKED_FWD, prev, cycle)
                return
            if store.addr == load.addr:
                match = store
        if match is not None:
            if match.value is None:
                self._park(load, LS_PARKED_FWD, prev, cycle)
                return
            self._start_forward(load, match.value, cycle, store_seq=match.seq)
            return
        self._evaluate(core, load, cycle, prev=prev)

    def _start_forward(
        self,
        load: DynInstr,
        value: int,
        cycle: int,
        *,
        store_seq: Optional[int] = None,
    ) -> None:
        load.value = value
        load.load_state = LS_INFLIGHT
        self.stats_forwards += 1
        if self.tracer is not None:
            self.tracer.emit(
                EventKind.LSU_FORWARD,
                cycle=cycle,
                seq=load.seq,
                instr=load.name,
                store=store_seq,
            )
        self._inflight.append(
            _InFlightLoad(
                load,
                cycle + self.config.store_forward_latency,
                mshr_line=None,
                visible=False,
                forwarded=True,
            )
        )

    def _evaluate(
        self,
        core: "Core",
        load: DynInstr,
        cycle: int,
        prev: Optional[str] = None,
    ) -> None:
        """Ask the scheme, check MSHRs, and start the access if allowed."""
        decision = self.scheme.load_decision(core, load, load.became_safe)
        if self.tracer is not None and decision.name != load.last_decision:
            self.tracer.emit(
                EventKind.SCHEME_DECISION,
                cycle=cycle,
                seq=load.seq,
                instr=load.name,
                decision=decision.name,
            )
        load.last_decision = decision.name
        if decision is LoadDecision.DELAY:
            self.stats_delayed += 1
            self._park(load, LS_PARKED_SCHEME, prev, cycle)
            return
        if decision is LoadDecision.PREDICT:
            # Value prediction: no memory request at all; the scheme
            # validates when the load becomes non-speculative.
            load.value = self.scheme.predict_value(core, load)
            load.value_predicted = True
            load.executed_invisibly = True
            load.load_state = LS_INFLIGHT
            self.stats_predicted += 1
            self._inflight.append(
                _InFlightLoad(
                    load,
                    cycle + self.config.store_forward_latency,
                    mshr_line=None,
                    visible=False,
                )
            )
            return
        visible = decision is LoadDecision.VISIBLE
        line = self.hierarchy.llc.layout.line_addr(load.addr)
        needs_mshr = not self.hierarchy.l1_hit(self.core_id, load.addr)
        if needs_mshr and not self.mshrs.can_allocate(line):
            self.stats_mshr_blocked_cycles += 1
            self._park(load, LS_PARKED_MSHR, prev, cycle)
            return
        mshr_line = None
        if needs_mshr:
            self.mshrs.allocate(line, consumer=load.seq, cycle=cycle)
            mshr_line = line
        result = self.hierarchy.access(
            self.core_id,
            load.addr,
            AccessKind.DATA,
            visible=visible,
            cycle=cycle,
        )
        if not visible:
            self.stats_invisible += 1
            load.executed_invisibly = True
        load.value = result.value
        load.load_state = LS_INFLIGHT
        self._inflight.append(
            _InFlightLoad(load, cycle + result.latency, mshr_line, visible)
        )

    # ------------------------------------------------------------------
    # per-cycle work
    # ------------------------------------------------------------------
    def retry_parked(self, core: "Core", cycle: int) -> None:
        """Re-evaluate parked loads, oldest first."""
        if not self._parked:
            return
        queue = sorted(self._parked, key=lambda l: l.seq)
        self._parked = []
        for load in queue:
            if load.load_state == LS_PARKED_FWD:
                if not self._retry_forward(core, load, cycle):
                    self._parked.append(load)
                continue
            was_state = load.load_state
            was_mshr = was_state == LS_PARKED_MSHR
            load.load_state = None
            # _evaluate re-parks into self._parked when still blocked.
            self._evaluate(core, load, cycle, prev=was_state)
            if was_mshr and load.load_state == LS_PARKED_MSHR:
                self.stats_mshr_blocked_cycles += 1

    def _retry_forward(self, core: "Core", load: DynInstr, cycle: int) -> bool:
        """Re-run disambiguation; True when the load left the FWD state."""
        for store in core.rob.older_stores(load.seq):
            if store.addr is None:
                return False  # still ambiguous
            if store.addr == load.addr and store.value is None:
                return False  # forwarding store's data not ready
        load.load_state = None
        self._try_start(core, load, cycle, prev=LS_PARKED_FWD)
        return load.load_state != LS_PARKED_FWD

    # ------------------------------------------------------------------
    # idle-cycle fast-forward support (see Core.next_event_cycle)
    # ------------------------------------------------------------------
    def earliest_completion(self) -> Optional[int]:
        """Earliest in-flight data return, or None when nothing is out."""
        if not self._inflight:
            return None
        return min(f.finish_cycle for f in self._inflight)

    def parked_loads(self) -> List[DynInstr]:
        return self._parked

    def parked_load_keeps_waiting(self, core: "Core", load: DynInstr) -> bool:
        """Side-effect-free: would this parked load still be parked in
        the *same state* after the next :meth:`retry_parked` pass?

        Mirrors :meth:`_retry_forward` / :meth:`_evaluate` without any
        state change.  Returns False whenever the outcome is uncertain
        (e.g. the scheme cannot preview its decision), which merely
        disables fast-forwarding for that window.
        """
        if load.load_state == LS_PARKED_FWD:
            for store in core.rob.older_stores(load.seq):
                if store.addr is None:
                    return True  # still ambiguous: stays parked
                if store.addr == load.addr and store.value is None:
                    return True  # forwarding store's data not ready
            return False  # disambiguation would complete: simulate it
        decision = self.scheme.peek_load_decision(core, load, load.became_safe)
        if decision is None:
            return False
        if load.load_state == LS_PARKED_SCHEME:
            return decision is LoadDecision.DELAY
        # LS_PARKED_MSHR: stays only if it would again need an MSHR and
        # none is available.
        if decision not in (LoadDecision.VISIBLE, LoadDecision.INVISIBLE):
            return False
        if load.addr is None:
            raise RuntimeError(
                f"parked load #{load.seq} has no address"
            )
        if self.hierarchy.l1_hit(self.core_id, load.addr):
            return False
        line = self.hierarchy.llc.layout.line_addr(load.addr)
        return not self.mshrs.can_allocate(line)

    def note_skipped_cycles(self, count: int) -> None:
        """Account ``count`` fast-forwarded cycles of parked-load
        retries: a scheme-delayed load is re-evaluated (and re-counted)
        once per cycle; a persistently MSHR-blocked load is counted
        twice per cycle (once in :meth:`_evaluate`, once in the
        ``was_mshr`` re-check in :meth:`retry_parked`)."""
        for load in self._parked:
            if load.load_state == LS_PARKED_SCHEME:
                self.stats_delayed += count
            elif load.load_state == LS_PARKED_MSHR:
                self.stats_mshr_blocked_cycles += 2 * count

    def collect_completions(self, cycle: int) -> List[DynInstr]:
        """Loads whose data returns this cycle (MSHRs released here)."""
        done = [f for f in self._inflight if f.finish_cycle <= cycle]
        if not done:
            return []
        self._inflight = [f for f in self._inflight if f.finish_cycle > cycle]
        completed = []
        for f in sorted(done, key=lambda f: f.instr.seq):
            if f.mshr_line is not None:
                self.mshrs.release(f.mshr_line)
            f.instr.load_state = LS_DONE
            completed.append(f.instr)
        return completed

    # ------------------------------------------------------------------
    def squash_younger_than(self, seq: int) -> None:
        self._parked = [l for l in self._parked if l.seq <= seq]
        survivors = []
        for f in self._inflight:
            if f.instr.seq <= seq:
                survivors.append(f)
                continue
            if f.mshr_line is not None:
                self.mshrs.drop_consumer(f.instr.seq)
        self._inflight = survivors

    def outstanding(self) -> int:
        return len(self._parked) + len(self._inflight)

    # -- snapshot -------------------------------------------------------
    SNAP_VERSION = 1
    SNAP_SCHEMA = (
        "occupancy",
        "parked_seqs",
        "inflight(seq,finish_cycle,mshr_line,visible,forwarded)",
        "stats(5)",
    )

    def capture(self) -> Tuple:
        return (
            self._occupancy,
            tuple(l.seq for l in self._parked),
            tuple(
                (f.instr.seq, f.finish_cycle, f.mshr_line, f.visible, f.forwarded)
                for f in self._inflight
            ),
            (
                self.stats_delayed,
                self.stats_mshr_blocked_cycles,
                self.stats_invisible,
                self.stats_forwards,
                self.stats_predicted,
            ),
        )

    def restore(self, state: Tuple, resolve) -> None:
        occupancy, parked, inflight, stats = state
        self._occupancy = occupancy
        self._parked = [resolve(seq) for seq in parked]
        self._inflight = [
            _InFlightLoad(resolve(seq), finish, mshr_line, visible, forwarded)
            for seq, finish, mshr_line, visible, forwarded in inflight
        ]
        (
            self.stats_delayed,
            self.stats_mshr_blocked_cycles,
            self.stats_invisible,
            self.stats_forwards,
            self.stats_predicted,
        ) = stats
