"""Table 1 reproduction tests: the vulnerability matrix must match the
paper's published pattern cell for cell."""

import pytest

from repro.core.matrix import (
    MARGIN,
    evaluate_cell,
    format_matrix,
    line_signal,
    order_flips,
    reference_cycle,
    run_matrix,
)

# The paper's Table 1, translated to our scheme names.  The VD-VD/VI
# column is tested via VD-VD; the VI orderings via VI-AD.
EXPECTED_VULNERABLE = {
    ("gdnpeu", "vd-vd"): {"invisispec-spectre", "dom-nontso", "safespec-wfb"},
    ("gdnpeu", "vd-ad"): {
        "invisispec-spectre",
        "invisispec-futuristic",
        "dom-nontso",
        "dom-tso",
        "safespec-wfb",
        "safespec-wfc",
        "muontrap",
        "condspec",
    },
    ("gdnpeu", "vi-ad"): {
        "invisispec-spectre",
        "invisispec-futuristic",
        "dom-nontso",
        "dom-tso",
        "safespec-wfb",
        "safespec-wfc",
        "muontrap",
        "condspec",
    },
    ("gdmshr", "vd-vd"): {"invisispec-spectre", "safespec-wfb"},
    ("gdmshr", "vd-ad"): {
        "invisispec-spectre",
        "invisispec-futuristic",
        "safespec-wfb",
        "safespec-wfc",
        "muontrap",
    },
    ("gdmshr", "vi-ad"): {
        "invisispec-spectre",
        "invisispec-futuristic",
        "safespec-wfb",
        "safespec-wfc",
        "muontrap",
    },
    ("girs", "vd-vd"): set(),
    ("girs", "vd-ad"): set(),
    ("girs", "vi-ad"): {"invisispec-spectre", "invisispec-futuristic",
                        "dom-nontso", "dom-tso"},
}

ATTACK_SCHEMES = sorted(
    {s for schemes in EXPECTED_VULNERABLE.values() for s in schemes}
)


def cell_ids():
    for (gadget, ordering), expected in sorted(EXPECTED_VULNERABLE.items()):
        for scheme in ATTACK_SCHEMES:
            yield gadget, ordering, scheme, scheme in expected


@pytest.mark.parametrize(
    "gadget,ordering,scheme,expected",
    list(cell_ids()),
    ids=lambda v: str(v),
)
def test_matrix_cell_matches_table1(gadget, ordering, scheme, expected):
    cell = evaluate_cell(gadget, ordering, scheme)
    assert cell.vulnerable == expected, cell.detail


@pytest.mark.parametrize("scheme", ["fence-spectre", "fence-futuristic"])
@pytest.mark.parametrize("gadget", ["gdnpeu", "gdmshr", "girs"])
@pytest.mark.parametrize("ordering", ["vd-vd", "vd-ad", "vi-ad"])
def test_fence_defense_invulnerable_everywhere(scheme, gadget, ordering):
    cell = evaluate_cell(gadget, ordering, scheme)
    assert not cell.vulnerable, cell.detail


def test_priority_defense_blocks_gdnpeu_orderings():
    """The §5.4 advanced defense removes the EU-contention channel."""
    for ordering in ("vd-vd", "vd-ad"):
        cell = evaluate_cell("gdnpeu", ordering, "priority")
        assert not cell.vulnerable, cell.detail


def test_format_matrix_renders():
    cells = [
        evaluate_cell("gdnpeu", "vd-vd", "dom-nontso"),
        evaluate_cell("gdnpeu", "vd-vd", "dom-tso"),
    ]
    text = format_matrix(cells)
    assert "gdnpeu" in text
    assert "dom-nontso" in text
    assert "dom-tso" not in text.split("|")[1]  # invulnerable not listed


# ----------------------------------------------------------------------
# the signal menu every leak judgement in the tree calls
# ----------------------------------------------------------------------
def test_shift_of_exactly_margin_counts():
    assert MARGIN == 8
    assert line_signal(100, 108) == "shift"
    assert line_signal(108, 100) == "shift"


def test_shift_below_margin_is_quiet():
    assert line_signal(100, 107) is None
    assert line_signal(100, 100) is None


def test_presence_and_absence():
    assert line_signal(42, None) == "presence"
    assert line_signal(None, 42) == "presence"
    assert line_signal(None, None) is None


def test_missing_order_never_flips():
    assert order_flips("xy", None) is False
    assert order_flips(None, None) is False
    assert order_flips("xy", "xy") is False
    assert order_flips("xy", "yx") is True


def test_reference_cycle_is_the_archived_midpoint():
    assert reference_cycle(99, 141) == 120  # Table 1: gdnpeu vd-ad ref@120
    assert reference_cycle(100, 107) is None
    assert reference_cycle(42, None) is None
    assert reference_cycle(100, 107, margin=4) == 103
