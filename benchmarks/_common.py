"""Shared helpers for the benchmark harnesses.

Every bench regenerates one paper artifact, prints it, and archives it
under ``benchmarks/results/`` so EXPERIMENTS.md can reference the exact
reproduced rows/series.  The sweep-construction helpers keep the bench
files declarative: one canonical victim/scheme grid, one way to build
seed-replicated spec lists, one way to time a runner over them.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Canonical sweep grid shared by the throughput / fault-tolerance /
#: speedup benches: all three paper gadgets against a scheme sample
#: spanning the defense families (delay, invisible, partition, fence).
SWEEP_VICTIMS = ("gdnpeu", "gdmshr", "girs")
SWEEP_SCHEMES = (
    "dom-nontso",
    "invisispec-spectre",
    "muontrap",
    "fence-spectre",
)


def emit_report(
    name: str, text: str, data: Optional[Dict[str, Any]] = None
) -> str:
    """Print and persist a report; returns the ``.txt`` file path.

    Every report also gets a machine-readable ``BENCH_<name>.json``
    companion so CI gates (and EXPERIMENTS.md tooling) can assert on
    numbers instead of grepping prose.  ``data`` carries the bench's
    structured payload — speedup ratios, trial counts, budget floors;
    without it the JSON still records the name/report linkage.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    json_path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    payload = {"name": name, "report": f"{name}.txt"}
    if data is not None:
        payload.update(data)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print()
    print(text)
    return path


def sweep_grid(
    victims: Sequence[str] = SWEEP_VICTIMS,
    schemes: Sequence[str] = SWEEP_SCHEMES,
    *,
    seeds: Sequence[int] = (0,),
    **common,
) -> list:
    """Victim x scheme x secret specs, replicated across base seeds.

    The one-liner every bench used to hand-roll: ``expand_grid`` over
    the grid, repeated per ``seeds`` entry (each gets its own stable
    CRC32-derived per-trial seed).  ``common`` forwards to every
    :class:`~repro.runner.TrialSpec`.
    """
    from repro.runner import expand_grid

    return [
        spec
        for base_seed in seeds
        for spec in expand_grid(
            list(victims), list(schemes), base_seed=base_seed, **common
        )
    ]


def pair_leaks(spec, scheme, line: Optional[int] = None) -> bool:
    """Does ``spec`` leak under ``scheme`` by the Table-1 oracle
    (:func:`repro.core.matrix.pair_signals` over one run per secret)?
    ``line=None`` asks for an order(A, B) flip; otherwise for a
    presence or shift signal on ``line``."""
    from repro.staticcheck.crossval import dynamic_signals

    return any(
        s.kind == "order-flip"
        if line is None
        else s.line == line and s.kind != "order-flip"
        for s in dynamic_signals(spec, scheme)
    )


def with_runner(fn: Callable, **runner_kwargs):
    """Run ``fn(runner)`` inside a default ``make_runner`` context.

    ``make_runner`` resolves to the serial runner on single-CPU hosts
    and to a process pool elsewhere; results are identical either way.
    """
    from repro.runner import make_runner

    with make_runner(**runner_kwargs) as runner:
        return fn(runner)


def timed_outcomes(runner, specs) -> Tuple[List, float]:
    """``runner.run_outcomes(specs)`` plus its wall-clock seconds."""
    start = time.perf_counter()
    outcomes = runner.run_outcomes(specs)
    return outcomes, time.perf_counter() - start
