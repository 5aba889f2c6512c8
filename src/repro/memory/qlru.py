"""QLRU_H11_M1_R0_U0 — the Kaby Lake LLC replacement policy (§4.2.2).

Quad-age LRU is an SRRIP variant with a 2-bit age per line.  The paper's
receiver depends on the exact sub-policies (naming follows Abel &
Reineke's nanoBench taxonomy, as cited by the paper):

* **M1** — insertion: new lines enter with age 1.
* **H11** — hit promotion: age 3 -> 1, age 2 -> 1, age 1 -> 0, age 0 -> 0.
* **R0** — eviction: fill the leftmost invalid way if any; otherwise
  evict the leftmost way whose age is 3.
* **U0** — age update: when an eviction is needed and no line has age 3,
  increment every line's age (saturating at 3) until a candidate exists.

The unit tests replay the paper's Figure 8 state walk against this
implementation.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.memory.replacement import SetPolicy

#: 2-bit age field bounds.
MAX_AGE = 3
INSERT_AGE = 1

#: H11 promotion table: age -> promoted age.
_HIT_PROMOTION = {3: 1, 2: 1, 1: 0, 0: 0}


class QLRUPolicy(SetPolicy):
    """Exact QLRU_H11_M1_R0_U0 per-set state machine."""

    _SNAP_FIELDS = ("_age",)

    def __init__(self, num_ways: int) -> None:
        super().__init__(num_ways)
        self._age: List[int] = [MAX_AGE] * num_ways

    # -- policy hooks ---------------------------------------------------
    def on_hit(self, way: int) -> None:
        self._age[way] = _HIT_PROMOTION[self._age[way]]

    def on_fill(self, way: int) -> None:
        self._age[way] = INSERT_AGE

    def on_invalidate(self, way: int) -> None:
        self._age[way] = MAX_AGE

    def select_victim(self, valid: Sequence[bool]) -> int:
        # R0: leftmost invalid way first.
        empty = self._first_invalid(valid)
        if empty is not None:
            return empty
        # U0: age everything until some line reaches age 3 ...
        while not any(age == MAX_AGE for age in self._age):
            self._age = [min(age + 1, MAX_AGE) for age in self._age]
        # ... R0: then evict the leftmost age-3 line.
        for way, age in enumerate(self._age):
            if age == MAX_AGE:
                return way
        raise AssertionError("unreachable: U0 guarantees an age-3 line")

    # -- introspection ---------------------------------------------------
    def state_summary(self) -> List[int]:
        """Per-way ages, leftmost way first (matches Figure 8's layout)."""
        return list(self._age)

    def ages(self) -> List[int]:
        """Alias for :meth:`state_summary` with a domain-specific name."""
        return list(self._age)
