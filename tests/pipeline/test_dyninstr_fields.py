"""``DynInstr.is_load`` / ``is_store`` / ``is_branch`` are slot fields set
once at construction; they must agree with ``static.opclass`` however the
instruction was built, and must stay out of the snapshot codec so trial
caches and journals written before they existed remain valid."""

from repro.isa import instructions as ins
from repro.isa.instructions import OpClass
from repro.isa.program import Program
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline import Core
from repro.pipeline.dyninstr import (
    DYNINSTR_SNAP_SCHEMA,
    DYNINSTR_SNAP_VERSION,
    DynInstr,
    Phase,
    SourceOperand,
    capture_dyninstr,
    restore_dyninstr,
)
from repro.snapshot import state_schema_hash

#: One static instruction per opclass, in program order.
STATICS = {
    OpClass.ALU: ins.imm("a", 0x1000),
    OpClass.LOAD: ins.load("d", ("a",), lambda a: a),
    OpClass.STORE: ins.store(("a",), lambda a: a + 64, "d"),
    OpClass.FENCE: ins.fence(),
    OpClass.BRANCH: ins.branch(("d",), lambda d: d, "end"),
    OpClass.NOP: ins.nop(),
    OpClass.HALT: ins.halt(),
}


def assert_fields_match(instr: DynInstr) -> None:
    opclass = instr.static.opclass
    assert instr.is_load == (opclass is OpClass.LOAD), instr
    assert instr.is_store == (opclass is OpClass.STORE), instr
    assert instr.is_branch == (opclass is OpClass.BRANCH), instr


def test_statics_cover_every_opclass():
    assert set(STATICS) == set(OpClass)
    assert all(static.opclass is oc for oc, static in STATICS.items())


def test_fields_on_fresh_and_restored_dyninstr():
    for slot, static in enumerate(STATICS.values()):
        fresh = DynInstr(seq=slot + 1, slot=slot, static=static, pc_addr=0)
        assert_fields_match(fresh)
        restored = restore_dyninstr(capture_dyninstr(fresh), static)
        assert_fields_match(restored)


def test_fields_after_core_restore():
    program = Program(list(STATICS.values()), labels={"end": len(STATICS) - 1})
    core = Core(0, program, CacheHierarchy(1))
    cycle = 0
    while len(core.rob) + len(core.fetch_queue) < len(STATICS):
        cycle += 1
        assert cycle < 2_000, "program never filled the window"
        core.step(cycle)
    state = core.capture()
    twin = Core(0, program, CacheHierarchy(1))
    twin.restore(state)
    live = list(twin.rob) + list(twin.fetch_queue)
    assert {i.static.opclass for i in live} == set(OpClass)
    for instr in live:
        assert_fields_match(instr)
    assert twin.capture() == state


def test_snapshot_codec_unchanged():
    """The opclass fields are derived from ``static``, never captured."""
    instr = DynInstr(seq=7, slot=1, static=STATICS[OpClass.LOAD], pc_addr=0x40)
    instr.phase = Phase.ISSUED
    instr.sources = [SourceOperand("a", 3)]
    instr.addr = 0x1000
    instr.load_state = "parked_scheme"
    assert capture_dyninstr(instr) == (
        7, 1, 0x40, Phase.ISSUED, (("a", 3, None),), None, 0x1000,
        None, None, False, "parked_scheme", False, False, False, False, None,
    )
    assert DYNINSTR_SNAP_VERSION == 2
    assert DYNINSTR_SNAP_SCHEMA == (
        "seq", "slot", "pc_addr", "phase",
        "sources(reg,producer_seq,value)", "value", "addr",
        "predicted_taken", "actual_taken", "resolved", "load_state",
        "became_safe", "executed_invisibly", "exposure_done",
        "value_predicted", "last_decision",
    )
    # Pinned: a change here invalidates every stored trial cache and
    # journal, so it must come with a schema version bump.
    assert state_schema_hash() == "56eeb4345de96790"
