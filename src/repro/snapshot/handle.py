"""Portable snapshot handles: save machine state, rehydrate later.

A handle is a pickled, schema-versioned machine capture with the one
non-portable element — the scheduled-action heap, which holds closures
— stripped (the number of still-pending actions is recorded instead).
Handles are for *post-hoc inspection* of a finished trial's
microarchitectural state: sweeps ship the handle's **path** in the
summary (lean transport), and an analysis process rebuilds the machine
from the trial's picklable spec and restores the capture into it.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Tuple

HANDLE_VERSION = 1


class SnapshotSchemaError(RuntimeError):
    """The handle was written by a build with a different state layout."""


def save_snapshot(machine, path: str) -> int:
    """Pickle ``machine``'s capture to ``path`` (atomically).

    Returns the number of pending scheduled actions that were dropped
    (closures cannot travel; a finished trial normally has none left).
    """
    from repro.snapshot.schema import state_schema_hash

    cycle, counter, scheduled, cores, hierarchy, tracer = machine.capture()
    payload = {
        "version": HANDLE_VERSION,
        "schema": state_schema_hash(),
        "dropped_actions": len(scheduled),
        "state": (cycle, counter, [], cores, hierarchy, tracer),
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".snap")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return payload["dropped_actions"]


def load_snapshot(path: str) -> Tuple[tuple, dict]:
    """Read a handle; returns ``(state, meta)``.

    Raises :class:`SnapshotSchemaError` when the handle's state layout
    does not match this build — restoring it would mis-wire fields.
    """
    from repro.snapshot.schema import state_schema_hash

    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if payload.get("schema") != state_schema_hash():
        raise SnapshotSchemaError(
            f"snapshot {path} was written with state schema "
            f"{payload.get('schema')!r}; this build is "
            f"{state_schema_hash()!r}"
        )
    meta = {
        "version": payload["version"],
        "schema": payload["schema"],
        "dropped_actions": payload["dropped_actions"],
    }
    return payload["state"], meta


def save_trial_snapshot(machine, spec, snapshot_dir: str) -> str:
    """Save a finished trial's machine under its spec digest; returns
    the handle path (what :attr:`TrialSummary.snapshot_path` carries)."""
    path = os.path.join(os.fspath(snapshot_dir), spec.digest() + ".snap")
    save_snapshot(machine, path)
    return path


def rehydrate_trial(spec, path: str):
    """Rebuild a machine from ``spec`` and restore the handle into it.

    Returns the restored :class:`~repro.core.harness.TrialSetup`.  The
    machine is reconstructed exactly as the worker built it (same
    victim, scheme, priming), then overwritten with the captured state;
    scheduled actions are not preserved, so the result is for state
    inspection, not bit-exact resumption of pending attacker actions.
    """
    from repro.core.victims import victim_by_name
    from repro.runner.runner import begin_spec_trial

    state, _meta = load_snapshot(path)
    victim = victim_by_name(spec.victim, **dict(spec.victim_kwargs))
    setup = begin_spec_trial(spec, victim)
    setup.machine.restore(state)
    return setup
