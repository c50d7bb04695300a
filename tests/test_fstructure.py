"""F-structure parsing, printing and path resolution."""

import pytest
from hypothesis import given, strategies as st

from gluesem.errors import (
    AtomicValueOnPath,
    CyclicStructure,
    DuplicateAttribute,
    DuplicateLabel,
    FStructureSyntaxError,
    MissingAttribute,
    UnknownLabel,
)
from gluesem.fstructure import (
    FStructure,
    SemProjectionRef,
    format_fstructure,
    parse_fstructure,
    resolve_path,
)

SIMPLE = "f:[PRED 'leave', SUBJ g:[PRED 'Bill']]"
NESTED = ("f:[PRED 'seek', SUBJ g:[PRED 'Bill'], "
          "OBJ h:[SPEC 'a', PRED 'conversation', "
          "OBL-WITH i:[SPEC 'every', PRED 'unicorn']]]")


def test_parse_two_node_structure():
    fs = parse_fstructure(SIMPLE)
    assert set(fs.nodes()) == {"f", "g"}
    assert fs.attrs["SUBJ"] is fs.node("g")
    assert fs.node("g").attrs["PRED"] == "Bill"


def test_parse_nested_structure_with_hyphenated_attribute():
    fs = parse_fstructure(NESTED)
    assert set(fs.nodes()) == {"f", "g", "h", "i"}
    assert fs.node("h").attrs["OBL-WITH"] is fs.node("i")


def test_commas_between_attributes_are_optional():
    fs = parse_fstructure("f:[PRED 'leave' SUBJ g:[PRED 'Bill']]")
    assert set(fs.nodes()) == {"f", "g"}


def test_duplicate_attribute_rejected():
    with pytest.raises(DuplicateAttribute):
        parse_fstructure("f:[SUBJ g:[PRED 'a'], SUBJ h:[PRED 'b']]")


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        parse_fstructure("f:[SUBJ g:[PRED 'a'], OBJ g:[PRED 'b']]")


def test_syntax_error_reports_position():
    with pytest.raises(FStructureSyntaxError) as info:
        parse_fstructure("f:[PRED ]")
    assert "offset" in str(info.value)


def test_reentrancy_shares_one_node():
    fs = parse_fstructure("f:[SUBJ g:[PRED 'Bill'], TOPIC g]")
    assert fs.attrs["SUBJ"] is fs.attrs["TOPIC"]
    assert set(fs.nodes()) == {"f", "g"}


def test_cycle_rejected():
    with pytest.raises(CyclicStructure):
        parse_fstructure("f:[SUBJ g:[OBJ f]]")


def chain(n, last="[]"):
    """Node a_i under attribute X_i of f refers to a_{i+1}: each node is
    nested 2 deep, but the references chain n + 1 of them."""
    links = "".join(f"X{i} a{i}:[N a{i + 1}], " for i in range(n))
    return f"f:[{links}X{n} a{n}:{last}]"


def test_a_3000_link_chain_of_references_needs_no_recursion():
    fs = parse_fstructure(chain(3000))
    assert len(fs.nodes()) == 3002
    assert fs.node("a0").attrs["N"] is fs.node("a1")
    assert fs.node("a2999").attrs["N"] is fs.attrs["X3000"]
    fs.validate()


def test_a_3000_link_cycle_is_rejected():
    with pytest.raises(CyclicStructure, match="cycle through node a0"):
        parse_fstructure(chain(3000, last="[N a0]"))


def test_a_3000_link_chain_of_references_prints_and_compares():
    fs, again = parse_fstructure(chain(3000)), parse_fstructure(chain(3000))
    assert fs == again
    # each node is printed once, nested at its first reference
    text = repr(fs)
    assert text.startswith("f:[X0 a0:[N a1:[N a2:[")
    assert text.count(":[") == 3002
    assert fs != parse_fstructure(chain(3000, last="[P 'x']"))


def test_two_nodes_under_one_label_are_rejected():
    fs = FStructure("f", {"SUBJ": FStructure("g"), "OBJ": FStructure("g")})
    with pytest.raises(DuplicateLabel,
                       match="label g used for two distinct nodes"):
        fs.validate()


def test_reference_to_missing_label_rejected():
    with pytest.raises(UnknownLabel):
        parse_fstructure("f:[SUBJ g]")


# ---------------------------------------------------------------------------
# path resolution


def test_resolve_subject_path():
    fs = parse_fstructure(SIMPLE)
    assert resolve_path(fs, ["SUBJ"]) == "g"


def test_resolve_empty_path_is_identity():
    fs = parse_fstructure(SIMPLE)
    assert resolve_path(fs, []) == "f"


def test_resolve_two_step_path():
    fs = parse_fstructure(NESTED)
    assert resolve_path(fs, ["OBJ", "OBL-WITH"]) == "i"


def test_resolve_from_inner_start():
    fs = parse_fstructure(NESTED)
    assert resolve_path(fs, ["OBL-WITH"], start="h") == "i"


def test_resolve_missing_attribute():
    fs = parse_fstructure(SIMPLE)
    with pytest.raises(MissingAttribute):
        resolve_path(fs, ["OBJ"])


def test_resolve_through_atomic_value():
    fs = parse_fstructure(SIMPLE)
    with pytest.raises(AtomicValueOnPath):
        resolve_path(fs, ["PRED", "SUBJ"])


def test_path_composition():
    fs = parse_fstructure(NESTED)
    mid = resolve_path(fs, ["OBJ"])
    assert resolve_path(fs, ["OBJ", "OBL-WITH"]) == \
        resolve_path(fs, ["OBL-WITH"], start=mid)


# ---------------------------------------------------------------------------
# printing


@pytest.mark.parametrize("text", [SIMPLE, NESTED])
def test_print_parse_identity(text):
    fs = parse_fstructure(text)
    assert parse_fstructure(format_fstructure(fs)) == fs


# ---------------------------------------------------------------------------
# projection references


def test_projection_ref_facets():
    main = SemProjectionRef("h")
    assert main.facet == "MAIN"
    assert SemProjectionRef("h", "VAR") != main
    assert repr(SemProjectionRef("h", "RESTR")) == "h.sig.RESTR"


def test_projection_ref_rejects_unknown_facet():
    with pytest.raises(ValueError):
        SemProjectionRef("h", "SCOPE")


_LABELS = st.sampled_from(["f", "g", "h", "i", "j"])


@st.composite
def fstructures(draw):
    used = set()

    def fresh():
        label = draw(_LABELS.filter(lambda name: name not in used))
        used.add(label)
        return label

    def node(depth):
        parts = [f"PRED '{draw(st.sampled_from(['leave', 'seek', 'man']))}'"]
        if depth > 0:
            for attr in draw(st.sets(
                    st.sampled_from(["SUBJ", "OBJ", "SPEC"]), max_size=2)):
                parts.append(f"{attr} {node(depth - 1)}")
        return f"{fresh()}:[{', '.join(parts)}]"

    return node(draw(st.integers(0, 2)))


@given(fstructures())
def test_random_structures_round_trip(text):
    fs = parse_fstructure(text)
    assert parse_fstructure(format_fstructure(fs)) == fs
