"""Tableau walks: encoders, decoder, derived fillings, RSK row moves,
orientation."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as reference
from crossnest import involution
from crossnest.errors import ConsistencyError
from crossnest.published import TABLEAU_EXAMPLES
from crossnest.tableaux import (
    TableauKind,
    TableauSequence,
    _delete_min_rows,
    _insert_rows,
    _undelete_rows,
    _uninsert_rows,
    conjugate,
    decode,
    encode_hesitating,
    encode_semioscillating,
    encode_vacillating,
    is_partition_shape,
    transpose_sequence,
    validate_sequence,
)

ENCODERS = {
    "semioscillating": encode_semioscillating,
    "vacillating": encode_vacillating,
    "hesitating": encode_hesitating,
}


# --- shapes and the RSK row moves on partial tableaux -----------------------


def _check_tableau(rows):
    """Raise ValueError unless `rows` is a partial standard Young tableau:
    distinct positive labels, rows and columns strictly increasing, row
    lengths weakly decreasing and nonzero."""
    for row in rows:
        if any(x >= y for x, y in zip(row, row[1:])):
            raise ValueError("rows must increase strictly")
        if any(x < 1 for x in row):
            raise ValueError("labels must be positive")
    if any(len(a) < len(b) for a, b in zip(rows, rows[1:])) or (rows and not rows[-1]):
        raise ValueError("row lengths must decrease weakly and stay nonempty")
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[i] >= lower[i] for i in range(len(lower))):
            raise ValueError("columns must increase strictly")
    flat = [x for row in rows for x in row]
    if len(set(flat)) != len(flat):
        raise ValueError("labels must be distinct")


def test_shape_helpers():
    assert is_partition_shape((3, 1))
    assert not is_partition_shape((1, 3))
    assert not is_partition_shape((2, 0))
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate(conjugate((4, 4, 2, 1))) == (4, 4, 2, 1)


def test_partial_tableau_validation():
    _check_tableau([[1, 3], [2]])
    with pytest.raises(ValueError):
        _check_tableau([[3, 1]])  # row not increasing
    with pytest.raises(ValueError):
        _check_tableau([[1], [1]])  # duplicate entry
    with pytest.raises(ValueError):
        _check_tableau([[2], [1]])  # column not increasing
    with pytest.raises(ValueError):
        _check_tableau([[1], [2, 3]])  # row lengths increase
    with pytest.raises(ValueError):
        _check_tableau([[1], []])  # empty row


def test_rsk_insert_bumps():
    rows = []
    cells = [_insert_rows(rows, label) for label in (4, 5, 3)]
    assert rows == [[3, 5], [4]]
    assert cells == [(0, 0), (0, 1), (1, 0)]


def test_rsk_delete_removes_minimum():
    rows = [[3, 5], [4]]
    assert _delete_min_rows(rows) == (1, 0)
    assert rows == [[4, 5]]


@given(st.lists(st.integers(1, 50), unique=True, max_size=12))
def test_deleting_minima_empties_any_tableau(labels):
    rows = []
    for label in labels:
        _insert_rows(rows, label)
        _check_tableau(rows)
    for label in sorted(labels):
        assert rows[0][0] == label
        _delete_min_rows(rows)
        _check_tableau(rows)
    assert rows == []


# --- the row helpers refuse rows they could not have produced ---------------


def test_uninsert_needs_a_row_end():
    with pytest.raises(ConsistencyError, match="row end"):
        _uninsert_rows([[1, 2]], (0, 0))


def test_uninsert_needs_a_smaller_entry_above():
    with pytest.raises(ConsistencyError, match="no smaller entry"):
        _uninsert_rows([[5], [3]], (1, 0))  # column not increasing


def test_undelete_needs_an_addable_cell():
    with pytest.raises(ConsistencyError, match="not addable"):
        _undelete_rows([[2]], (0, 2), 1)


def test_undelete_needs_the_minimal_label():
    with pytest.raises(ConsistencyError, match="minimum"):
        _undelete_rows([[2]], (0, 1), 3)


@st.composite
def undeletions(draw):
    """A standard tableau from row insertions, one of its addable cells and
    a label to re-add there."""
    rows = []
    for label in draw(st.lists(st.integers(2, 40), unique=True, max_size=12)):
        _insert_rows(rows, label)
    addable = [(r, len(row)) for r, row in enumerate(rows) if r == 0 or len(rows[r - 1]) > len(row)]
    cell = draw(st.sampled_from(addable + [(len(rows), 0)]))
    return rows, cell, draw(st.integers(1, 41))


@given(undeletions())
@settings(max_examples=300)
def test_undelete_checks_the_minimum_beside_the_hole(case):
    """The two entries beside the hole decide it as a scan of every entry
    would, and an accepted label leaves a standard tableau that deleting
    the minimum takes back."""
    rows, cell, label = case
    before = [row[:] for row in rows]
    smallest = not any(x <= label for row in rows for x in row)
    try:
        _undelete_rows(rows, cell, label)
    except ConsistencyError as exc:
        assert not smallest and "minimum" in str(exc)
        return
    assert smallest
    _check_tableau(rows)
    assert rows[0][0] == label
    assert _delete_min_rows(rows) == cell
    assert rows == before


# --- golden walks -----------------------------------------------------------


@pytest.mark.parametrize("example", TABLEAU_EXAMPLES, ids=lambda e: e["kind"])
def test_golden_walk_shapes_and_fillings(example):
    seq = ENCODERS[example["kind"]](example["arcs"], example["n"])
    assert seq.shapes == example["shapes"]
    assert seq.fillings == example["fillings"]


@pytest.mark.parametrize("example", TABLEAU_EXAMPLES, ids=lambda e: e["kind"])
def test_golden_walk_decodes_back(example):
    seq = ENCODERS[example["kind"]](example["arcs"], example["n"])
    assert sorted(decode(seq)) == sorted(example["arcs"])


def test_sequence_lengths():
    assert len(encode_semioscillating([(1, 2)], 2).shapes) == 3
    assert len(encode_vacillating([(1, 2)], 2).shapes) == 5
    assert len(encode_hesitating([(1, 2)], 2).shapes) == 5


# --- step parity validation -------------------------------------------------


def _bare(kind, n, shapes):
    return TableauSequence(TableauKind(kind), n, tuple(shapes))


def test_vacillating_must_not_grow_at_odd_steps():
    with pytest.raises(ValueError):
        validate_sequence(_bare("vacillating", 1, [(), (1,), (1,)]))
    validate_sequence(_bare("vacillating", 1, [(), (), ()]))


def test_hesitating_must_not_grow_at_even_steps():
    with pytest.raises(ValueError):
        validate_sequence(_bare("hesitating", 1, [(), (), (1,)]))
    validate_sequence(_bare("hesitating", 1, [(), (1,), ()]))


def test_sequences_start_and_end_empty():
    with pytest.raises(ValueError):
        validate_sequence(_bare("semioscillating", 1, [(), (1,)]))


def test_sequences_take_no_fillings():
    """A sequence stores its kind, its size and its moves or its shapes,
    never its fillings, and the constructor takes no fillings either."""
    assert TableauSequence.__slots__ == ("_kind", "_n", "_moves", "_shapes")
    seq = encode_vacillating([(1, 2)], 2)
    assert not hasattr(seq, "__dict__")
    for name in ("kind", "n", "shapes", "fillings"):
        with pytest.raises(AttributeError):
            setattr(seq, name, None)
    with pytest.raises(TypeError):
        TableauSequence(TableauKind("semioscillating"), 1, ((), ()), ((), ()))


@pytest.mark.parametrize(
    "shapes, bad",
    [
        ([(), (1,), (1, 1), (1, 2), (1, 1), (1,), ()], (1, 2)),  # a box added
        ([(), (1,), (1, 1), (0, 1), (1,), ()], (0, 1)),  # a box removed
    ],
    ids=["grows", "shrinks"],
)
def test_decode_rejects_a_walk_that_leaves_the_partitions(shapes, bad):
    """Every step is one box, but one of them lands on a non-partition."""
    seq = _bare("semioscillating", len(shapes) - 1, shapes)
    with pytest.raises(ValueError, match=r"^not a partition shape: %s$" % re.escape(repr(bad))):
        decode(seq)


def test_transpose_twice_on_sequences_built_with_lists():
    seq = TableauSequence(
        TableauKind.VACILLATING, 4, [[], [], [1], [1], [1, 1], [1], [1], [], []]
    )
    assert seq == encode_vacillating([(1, 4), (2, 3)], 4)
    assert seq.fillings == ((), (), ((4,),), ((4,),), ((3,), (4,)), ((4,),), ((4,),), (), ())
    image = transpose_sequence(seq)
    assert image.shapes == ((), (), (1,), (1,), (2,), (1,), (1,), (), ())
    assert transpose_sequence(image).shapes == seq.shapes
    assert decode(image) == ((1, 3), (2, 4))


PLAIN = ("semioscillating", "vacillating")

# each fault of the arc check: the arcs, n, the encoders that see it (all
# three when None) and the message each one raises
ARC_FAULTS = {
    "below range": ([(0, 2)], 3, None, "arc (0, 2) out of range"),
    "past n": ([(2, 4)], 3, None, "arc (2, 4) out of range"),
    "reversed": ([(3, 1)], 3, None, "arc (3, 1) out of range"),
    "plain loop": ([(2, 2)], 3, PLAIN, "loops are not allowed here"),
    "two starts": ([(1, 2), (1, 3)], 3, None, "vertex 1 starts two arcs"),
    "two ends": ([(1, 3), (2, 3)], 3, None, "vertex 3 ends two arcs"),
    "not a matching": (
        [(1, 2), (2, 3)], 3, ("semioscillating",), "matching arcs must be vertex-disjoint"
    ),
    # a non-integer endpoint closes at a vertex that does not hold its label
    "out of order": ([(1, 2.5)], 3, PLAIN, "arc endpoints out of order at vertex 2"),
    "out of order, hesitating": (
        [(1, 2.5)], 3, ("hesitating",), "arc endpoints out of order at vertex 3"
    ),
    # two faults: the first arc that breaks a rule is reported, before any
    # fault of the walk or of a matching
    "starts before ends": ([(1, 3), (1, 2), (2, 3)], 3, None, "vertex 1 starts two arcs"),
    "range before order": ([(1, 2.5), (0, 1)], 3, None, "arc (0, 1) out of range"),
    "loop before order": ([(1, 2.5), (3, 3)], 3, PLAIN, "loops are not allowed here"),
    "loop before matching": ([(1, 2), (2, 3), (4, 4)], 4, PLAIN, "loops are not allowed here"),
}


def test_encoder_rejects_bad_arcs():
    """Every encoder that sees a fault reports it by its exact message."""
    for pairs, n, kinds, message in ARC_FAULTS.values():
        for kind in kinds or sorted(ENCODERS):
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                ENCODERS[kind](pairs, n)


@pytest.mark.parametrize("kind", sorted(ENCODERS))
@pytest.mark.parametrize("pairs", [[], [(1, 1)]])
def test_encoders_refuse_a_negative_n(kind, pairs):
    """The validator's message: a walk on -1 vertices does not exist."""
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        ENCODERS[kind](pairs, -1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        validate_sequence(TableauSequence(TableauKind(kind), -1, [()]))


# --- random diagrams --------------------------------------------------------


@st.composite
def partial_matchings(draw):
    n = draw(st.integers(0, 8))
    unused = list(range(1, n + 1))
    pairs = []
    while len(unused) >= 2:
        a = unused.pop(0)
        if draw(st.booleans()):
            b = draw(st.sampled_from(unused))
            unused.remove(b)
            pairs.append((a, b))
    return n, pairs


@st.composite
def partition_arcs(draw, loops=False, max_n=8):
    n = draw(st.integers(0, max_n))
    rgs = []
    for _ in range(n):
        rgs.append(draw(st.integers(0, (max(rgs) + 1) if rgs else 0)))
    blocks: dict[int, list[int]] = {}
    for v, b in enumerate(rgs, start=1):
        blocks.setdefault(b, []).append(v)
    pairs = []
    for block in blocks.values():
        pairs.extend(zip(block, block[1:]))
        if loops and len(block) == 1:
            pairs.append((block[0], block[0]))
    return n, sorted(pairs)


@given(partial_matchings())
@settings(max_examples=150)
def test_semioscillating_round_trip(case):
    n, pairs = case
    assert sorted(decode(encode_semioscillating(pairs, n))) == sorted(pairs)


@given(partition_arcs())
@settings(max_examples=150)
def test_vacillating_round_trip(case):
    n, pairs = case
    assert sorted(decode(encode_vacillating(pairs, n))) == sorted(pairs)


@given(partition_arcs(loops=True))
@settings(max_examples=150)
def test_hesitating_round_trip(case):
    n, pairs = case
    assert sorted(decode(encode_hesitating(pairs, n))) == sorted(pairs)


@given(partition_arcs())
@settings(max_examples=150)
def test_vacillating_orientation(case):
    """Crossings live in the columns, nestings in the rows."""
    from crossnest.diagrams import max_crossing, max_nesting

    n, pairs = case
    seq = encode_vacillating(pairs, n)
    widest = max(s[0] if s else 0 for s in seq.shapes)
    tallest = max(len(s) for s in seq.shapes)
    assert max_crossing(pairs) == widest
    assert max_nesting(pairs) == tallest


@given(partition_arcs(loops=True))
@settings(max_examples=150)
def test_hesitating_orientation(case):
    from crossnest.diagrams import max_crossing, max_nesting

    n, pairs = case
    seq = encode_hesitating(pairs, n)
    widest = max(s[0] if s else 0 for s in seq.shapes)
    tallest = max(len(s) for s in seq.shapes)
    assert max_crossing(pairs, enhanced=True) == widest
    assert max_nesting(pairs, enhanced=True) == tallest


@given(partition_arcs(loops=True))
@settings(max_examples=150)
def test_transpose_swaps_statistics(case):
    from crossnest.diagrams import max_crossing, max_nesting

    n, pairs = case
    seq = transpose_sequence(encode_hesitating(pairs, n))
    validate_sequence(seq)
    image = decode(seq)
    assert max_crossing(image, enhanced=True) == max_nesting(pairs, enhanced=True)
    assert max_nesting(image, enhanced=True) == max_crossing(pairs, enhanced=True)


@given(partition_arcs())
@settings(max_examples=100)
def test_transpose_is_an_involution(case):
    n, pairs = case
    seq = encode_vacillating(pairs, n)
    back = transpose_sequence(transpose_sequence(seq))
    assert back.shapes == seq.shapes
    assert back.kind == seq.kind


def _image_or_error(slice_map, pairs, enhanced, n):
    try:
        return slice_map(pairs, enhanced, n)
    except ValueError as exc:
        return str(exc)


@given(st.booleans(), partition_arcs(max_n=10) | partition_arcs(loops=True, max_n=10))
@settings(max_examples=400)
def test_slice_map_matches_the_reference_chain(enhanced, case):
    """`involute_slice`, whose one-arc slices skip the walk, gives the
    image or the error of the reference chain, which walks every slice:
    loops are drawn for both kinds, and refused in a plain one."""
    n, pairs = case
    assert _image_or_error(involution.involute_slice, pairs, enhanced, n) == _image_or_error(
        reference.involute_slice, pairs, enhanced, n
    )


@st.composite
def any_walks(draw):
    """A walk of each flavour from random arcs, or its transpose."""
    kind = draw(st.sampled_from(sorted(ENCODERS)))
    n, pairs = draw(
        partial_matchings() if kind == "semioscillating"
        else partition_arcs(loops=kind == "hesitating")
    )
    seq = ENCODERS[kind](pairs, n)
    return transpose_sequence(seq) if draw(st.booleans()) else seq


@given(any_walks())
@settings(max_examples=300)
def test_built_sequences_agree_with_rebuilt_ones(seq):
    """A sequence that carries its moves equals the one built from its
    shapes, hashes the same and validates and decodes the same, though
    only the rebuilt one is checked step by step."""
    rebuilt = TableauSequence(seq.kind, seq.n, seq.shapes)
    assert seq == rebuilt and rebuilt == seq
    assert hash(seq) == hash(rebuilt)
    assert validate_sequence(seq) == validate_sequence(rebuilt)
    assert decode(seq) == decode(rebuilt)
    assert transpose_sequence(seq) == transpose_sequence(rebuilt)
    assert seq.fillings == rebuilt.fillings
    assert repr(seq) == repr(rebuilt)
