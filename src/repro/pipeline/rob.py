"""Reorder buffer: in-order window over in-flight instructions.

Also computes the *safety prefix flags* every speculation scheme's
safety model consumes: for each in-flight instruction, whether all
older branches have resolved, whether all older memory operations have
resolved their addresses, whether all older loads have completed, and
whether all older instructions have completed (§2.2, §3.3.1).  The
owning core walks the prefix at most once per simulated cycle; the walk
stops at the first entry past which every predicate is false, because a
predicate over *older* entries can only turn false as the walk moves to
younger ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.pipeline.dyninstr import DynInstr, Phase


@dataclass(frozen=True, slots=True)
class SafetyFlags:
    """Prefix predicates over all *older* ROB entries."""

    older_branches_resolved: bool
    #: All older *stores* have resolved addresses (aliasing is known) —
    #: the memory-ordering requirement on a weak (non-TSO) model, where
    #: load-load reordering is architecturally allowed.
    older_stores_addr_resolved: bool
    #: All older loads and stores have resolved addresses.
    older_mem_addr_resolved: bool
    older_loads_completed: bool
    older_all_completed: bool
    is_oldest: bool


#: Bit masks over the six :class:`SafetyFlags` fields, in declaration
#: order.  The five prefix predicates are ``_PREFIX``; ``is_oldest`` is
#: ``_OLDEST``.
_BRANCHES = 1
_STORES_ADDR = 2
_MEM_ADDR = 4
_LOADS_COMPLETED = 8
_ALL_COMPLETED = 16
_OLDEST = 32
_PREFIX = _BRANCHES | _STORES_ADDR | _MEM_ADDR | _LOADS_COMPLETED | _ALL_COMPLETED

#: The flag space is tiny (2^6 combinations) and ``safety_flags`` hands
#: one instance to every ROB entry, so all 64 are built once and looked
#: up by mask: entry ``m`` has field ``i`` set iff bit ``i`` of ``m`` is.
_FLAGS_BY_MASK: Tuple[SafetyFlags, ...] = tuple(
    SafetyFlags(*(bool(mask >> bit & 1) for bit in range(6)))
    for mask in range(64)
)


class ROB:
    """Bounded FIFO of dynamic instructions in program order."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("ROB size must be >= 1")
        self.size = size
        self._entries: Deque[DynInstr] = deque()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.size

    @property
    def empty(self) -> bool:
        return not self._entries

    def head(self) -> Optional[DynInstr]:
        return self._entries[0] if self._entries else None

    def push(self, instr: DynInstr) -> None:
        if self.full:
            raise RuntimeError("ROB overflow")
        if self._entries and instr.seq <= self._entries[-1].seq:
            raise RuntimeError("ROB entries must arrive in program order")
        self._entries.append(instr)

    def pop_head(self) -> DynInstr:
        return self._entries.popleft()

    def squash_younger_than(self, seq: int) -> List[DynInstr]:
        """Remove and return every entry with ``entry.seq > seq``."""
        squashed: List[DynInstr] = []
        while self._entries and self._entries[-1].seq > seq:
            victim = self._entries.pop()
            victim.phase = Phase.SQUASHED
            squashed.append(victim)
        squashed.reverse()
        return squashed

    def oldest_unresolved_branch(self) -> Optional[DynInstr]:
        for entry in self._entries:
            if entry.is_unresolved_branch:
                return entry
        return None

    # ------------------------------------------------------------------
    def safety_flags(self) -> Dict[int, SafetyFlags]:
        """Prefix safety predicates for every current entry, by seq.

        Stops examining entries once all five prefix predicates are
        false: every younger entry then maps to the all-false flags.
        """
        flags: Dict[int, SafetyFlags] = {}
        table = _FLAGS_BY_MASK
        mask = _PREFIX | _OLDEST
        entries = iter(self._entries)
        for entry in entries:
            flags[entry.seq] = table[mask]
            mask &= _PREFIX
            if entry.phase is not Phase.COMPLETED:
                mask &= ~_ALL_COMPLETED
                if entry.is_load:
                    mask &= ~_LOADS_COMPLETED
            if entry.addr is None:
                if entry.is_load:
                    mask &= ~_MEM_ADDR
                elif entry.is_store:
                    mask &= ~(_MEM_ADDR | _STORES_ADDR)
            if entry.is_branch and not entry.resolved:
                if not entry.static.unconditional:  # is_unresolved_branch
                    mask &= ~_BRANCHES
            if not mask:
                break
        all_false = table[0]
        for entry in entries:
            flags[entry.seq] = all_false
        return flags

    def older_stores(self, seq: int) -> List[DynInstr]:
        """Stores older than ``seq``, oldest first (for forwarding)."""
        return [e for e in self._entries if e.is_store and e.seq < seq]

    # -- snapshot -------------------------------------------------------
    SNAP_VERSION = 1
    SNAP_SCHEMA = ("entry_seqs",)

    def capture(self) -> Tuple:
        """Entry identities only; the instruction objects themselves are
        captured once, per seq, by the owning core."""
        return (tuple(e.seq for e in self._entries),)

    def restore(self, state: Tuple, resolve: Callable[[int], DynInstr]) -> None:
        (seqs,) = state
        self._entries = deque(resolve(seq) for seq in seqs)
