"""Diagram parsing, vertex classification and the two statistics."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import is_ncn, max_crossing_exhaustive, max_nesting_exhaustive
from crossnest.diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    JointHistogram,
    VertexKind,
    arc_end_vertices,
    _longest_rising,
    arc_start_vertices,
    closers,
    colour_slices,
    cr_ne,
    max_crossing,
    max_nesting,
    opener_closer_sets,
    openers,
    parse_diagram,
    vertex_kind,
)
from crossnest.oracle import EnumSpec, enumerate_objects


VALUES = [
    ColouredPermutation([2, 1], [1, 1], 3),
    ColouredPermutation([3, 1, 2], [2, 1, 2], 4),
    ColouredPermutation([]),
    ColouredSetPartition([[1, 3], [2]], [1], 2),
    ColouredSetPartition([[1, 4], [2, 3], [5]], [2, 1], 3),
    ColouredSetPartition([]),
]


@pytest.mark.parametrize("obj", VALUES)
def test_repr_names_the_colour_count(obj):
    assert repr(obj).endswith(", %d)" % obj.num_colours)
    assert eval(repr(obj)) == obj


@pytest.mark.parametrize("obj", VALUES)
def test_diagrams_are_immutable_values(obj):
    """Both diagram types share one value core: equal fields make equal
    objects with equal hashes, the two types never meet (the empty
    permutation and the empty set partition have the same fields), and
    no attribute can be set or deleted."""
    twin = eval(repr(obj))
    assert twin is not obj and twin == obj and hash(twin) == hash(obj)
    assert [other for other in VALUES if other == obj] == [obj]
    immutable = "^%s is immutable$" % type(obj).__name__
    for name in obj.__slots__ + ("extra",):
        with pytest.raises(AttributeError, match=immutable):
            setattr(obj, name, None)
    for name in obj.__slots__:
        with pytest.raises(AttributeError, match=immutable):
            delattr(obj, name)
    assert obj == twin


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (ColouredPermutation, ([2, 1], [1]), "need one colour per position"),
        (ColouredPermutation, ([2, 1], [1, 0]), "colours are 1-based"),
        (ColouredPermutation, ([2, 1], [1, 3], 2), "num_colours smaller than a used colour"),
        (ColouredPermutation, ([], None, 0), "num_colours smaller than a used colour"),
        (ColouredSetPartition, ([[1, 3], [2]], [1, 1]), r"need one colour per arc \(1 arcs\)"),
        (ColouredSetPartition, ([[1, 3], [2]], [0]), "colours are 1-based"),
        (ColouredSetPartition, ([[1, 3], [2]], [2], 1), "num_colours smaller than a used colour"),
        (ColouredSetPartition, ([[1]], None, 0), "num_colours smaller than a used colour"),
    ],
)
def test_colour_rule_messages(cls, args, message):
    """Both constructors check colours by one rule and keep their messages."""
    with pytest.raises(ValueError, match="^%s$" % message):
        cls(*args)


def test_permutation_rejects_non_bijections():
    for word in ([1, 1, 3], [0, 1], [2, 3]):
        with pytest.raises(ValueError, match="not a permutation of 1..n"):
            ColouredPermutation(word)


def test_permutation_round_trip():
    p = ColouredPermutation.from_text("4 5 3 6 2 1")
    assert p == ColouredPermutation((4, 5, 3, 6, 2, 1))
    assert p.word == (4, 5, 3, 6, 2, 1)
    assert ColouredPermutation.from_text(p.to_text()) == p


def test_coloured_permutation_defaults_to_one_colour():
    cp = ColouredPermutation([2, 1])
    assert cp.colours == (1, 1)
    assert cp.num_colours == 1


def test_coloured_permutation_text_round_trip():
    text = "4 5 3 6 2 1 / 1 2 1 2 2 2"
    cp = ColouredPermutation.from_text(text)
    assert cp.to_text() == text
    assert cp.num_colours == 2


def test_colour_word_length_must_match():
    with pytest.raises(ValueError):
        ColouredPermutation([2, 1], [1])


def test_set_partition_blocks_canonicalised():
    sp = ColouredSetPartition([[4, 5], [2], [6, 3, 1]])
    assert sp.to_text() == "{1,3,6},{2},{4,5} / 1 1 1"
    assert len(sp) == 6


def test_set_partition_must_cover_ground_set():
    with pytest.raises(ValueError):
        ColouredSetPartition([[1, 2], [4]])
    with pytest.raises(ValueError):
        ColouredSetPartition([[1, 2], [2, 3]])


@pytest.mark.parametrize(
    "blocks, vertex", [([[1, 2, 2]], 2), ([[1, 2, 2], [3]], 2), ([[1, 1]], 1), ([[2], [1, 3, 1]], 1)]
)
def test_set_partition_block_must_not_repeat_a_vertex(blocks, vertex):
    """A repeated vertex would make a loop arc (v, v) in a plain diagram."""
    with pytest.raises(ValueError, match="^vertex %d appears twice in a block$" % vertex):
        ColouredSetPartition(blocks)


def test_empty_set_partition_round_trip():
    empty = ColouredSetPartition([])
    assert empty.to_text() == "{}"
    assert parse_diagram("{}") == empty
    assert parse_diagram(empty.to_text()) == empty
    with pytest.raises(ValueError, match="empty block"):
        parse_diagram("{},{1}")


@pytest.mark.parametrize("blocks", [[[1], []], [[]], [[2], [], [1]]])
def test_set_partition_refuses_an_empty_block(blocks):
    """The constructor names the empty block, however the blocks sort."""
    with pytest.raises(ValueError, match="^empty block$"):
        ColouredSetPartition(blocks)


def test_parse_diagram_dispatches_on_brace():
    assert isinstance(parse_diagram("{1,2},{3}"), ColouredSetPartition)
    assert isinstance(parse_diagram("2 1 3"), ColouredPermutation)


# --- vertex kinds -----------------------------------------------------------

KINDS_453621 = [
    VertexKind.OPENER,
    VertexKind.OPENER,
    VertexKind.FIXED_POINT,
    VertexKind.UPPER_TRANSITORY,
    VertexKind.CLOSER,
    VertexKind.CLOSER,
]


def test_vertex_kinds_of_worked_permutation():
    p = ColouredPermutation([4, 5, 3, 6, 2, 1])
    assert [vertex_kind(p, i) for i in range(1, 7)] == KINDS_453621
    assert openers(p) == frozenset({1, 2})
    assert closers(p) == frozenset({5, 6})


@given(st.integers(0, 60).flatmap(lambda n: st.permutations(range(1, n + 1))))
@settings(max_examples=200)
def test_opener_and_closer_sets_match_vertex_kind(word):
    p = ColouredPermutation(word)
    kinds = {i: vertex_kind(p, i) for i in range(1, len(word) + 1)}
    assert openers(p) == {i for i, kind in kinds.items() if kind is VertexKind.OPENER}
    assert closers(p) == {i for i, kind in kinds.items() if kind is VertexKind.CLOSER}


def test_lower_transitory_kind():
    # 3 1 2: vertex 2 is entered from above (1 <- sigma) and leaves below
    p = ColouredPermutation([3, 1, 2])
    assert vertex_kind(p, 2) == VertexKind.LOWER_TRANSITORY


def test_arc_validation():
    for statistic in (max_crossing, max_nesting):
        for enhanced in (False, True):
            with pytest.raises(ValueError, match=r"bad arc endpoints \(3, 2\)"):
                statistic([(3, 2)], enhanced)
            with pytest.raises(ValueError, match=r"bad arc endpoints \(0, 2\)"):
                statistic([(0, 2)], enhanced)
        with pytest.raises(ValueError, match=r"loop \(2, 2\) in a plain diagram"):
            statistic([(1, 3), (2, 2)])
        assert statistic([(2, 2)], enhanced=True) == 1


# --- crossing / nesting numbers --------------------------------------------


def test_chain_not_pairwise():
    # pairwise-crossing arcs, but no 3 arcs mutually cross
    pairs = [(1, 3), (2, 5), (4, 7)]
    assert max_crossing(pairs) == 2
    assert max_nesting([(1, 6), (2, 5), (3, 4)]) == 3


def test_enhanced_crossing_shares_endpoint():
    # plain: not a 2-crossing; enhanced: a_2 = b_1 is allowed
    assert max_crossing([(1, 2), (2, 3)]) == 1
    assert max_crossing([(1, 2), (2, 3)], enhanced=True) == 2


def test_enhanced_nesting_with_loop():
    assert max_nesting([(1, 3), (2, 2)], enhanced=True) == 2
    with pytest.raises(ValueError):
        max_nesting([(1, 3), (2, 2)])  # loops need the enhanced reading


def test_empty_diagram_statistics():
    assert cr_ne(ColouredPermutation([])) == (0, 0)
    assert cr_ne(ColouredSetPartition([])) == (0, 0)


def test_identity_has_unit_statistics():
    assert cr_ne(ColouredPermutation([1, 2, 3])) == (1, 1)


def test_worked_permutation_statistics():
    cp = ColouredPermutation.from_text("4 5 3 6 2 1 / 1 2 1 2 2 2")
    assert cr_ne(cp) == (2, 2)


def test_statistics_split_by_colour():
    # all arcs one colour: (1,4),(2,5),(4,6) is an enhanced 3-crossing,
    # which the 2-colouring above breaks apart
    cp = ColouredPermutation([4, 5, 3, 6, 2, 1])
    assert cr_ne(cp) == (3, 2)


def test_is_ncn():
    assert not is_ncn(ColouredPermutation([2, 3, 1]), 2, 2)
    assert is_ncn(ColouredPermutation([3, 1, 2]), 2, 2)
    with pytest.raises(ValueError):
        is_ncn(ColouredPermutation([1]), 1, 2)


pair_lists = st.lists(
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(
        lambda ab: (min(ab), max(ab))
    ),
    max_size=10,
    unique_by=lambda p: p,
)


@given(st.lists(st.integers(0, 4), max_size=10))
@settings(max_examples=300)
def test_longest_rising_matches_brute_force(values):
    """Few distinct values force ties, which a strict rise takes only once."""
    want = max(
        len(sub)
        for size in range(len(values) + 1)
        for sub in combinations(values, size)
        if all(x < y for x, y in zip(sub, sub[1:]))
    )
    assert _longest_rising(values) == want


@given(pair_lists, st.booleans())
@settings(max_examples=200)
def test_crossing_matches_exhaustive(pairs, enhanced):
    loops_ok = enhanced or all(a != b for a, b in pairs)
    if not loops_ok:
        pairs = [p for p in pairs if p[0] != p[1]]
    assert max_crossing(pairs, enhanced) == max_crossing_exhaustive(pairs, enhanced)


@given(pair_lists, st.booleans())
@settings(max_examples=200)
def test_nesting_matches_exhaustive(pairs, enhanced):
    if not enhanced:
        pairs = [p for p in pairs if p[0] != p[1]]
    assert max_nesting(pairs, enhanced) == max_nesting_exhaustive(pairs, enhanced)


@given(
    st.permutations(list(range(1, 6))),
    st.lists(st.integers(1, 3), min_size=5, max_size=5),
    st.permutations([1, 2, 3]),
)
@settings(max_examples=100)
def test_colour_relabelling_preserves_statistics(word, cols, relabel):
    """cr and ne are maxima over colour classes, so renaming colours is
    invisible to them."""
    cp = ColouredPermutation(word, cols, num_colours=3)
    renamed = ColouredPermutation(
        word, [relabel[c - 1] for c in cols], num_colours=3
    )
    assert cr_ne(renamed) == cr_ne(cp)


@st.composite
def coloured_objects(draw, max_size=12):
    """A coloured permutation or set partition of size at most `max_size`
    offering one to three colours."""
    n = draw(st.integers(0, max_size))
    r = draw(st.integers(1, 3))
    if draw(st.booleans()):
        word = draw(st.permutations(range(1, n + 1)))
        cols = draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
        return ColouredPermutation(word, cols, r)
    rgs: list[int] = []
    for _ in range(n):
        rgs.append(draw(st.integers(0, max(rgs, default=-1) + 1)))
    blocks: dict[int, list[int]] = {}
    for v, b in enumerate(rgs, start=1):
        blocks.setdefault(b, []).append(v)
    narcs = n - len(blocks)
    cols = draw(st.lists(st.integers(1, r), min_size=narcs, max_size=narcs))
    return ColouredSetPartition(list(blocks.values()), cols, r)


@given(coloured_objects())
@settings(max_examples=200)
def test_statistics_match_the_checked_path(obj):
    """`cr_ne` skips the arc checks on the slices it builds; it must agree
    with the public, checked statistics slice by slice, score an object and
    its slice list alike, and bound objects as the reference filter does."""
    slices = colour_slices(obj)
    want = (
        max((max_crossing(p, e) for p, e in slices), default=0),
        max((max_nesting(p, e) for p, e in slices), default=0),
    )
    assert cr_ne(obj) == want
    assert cr_ne(slices) == want
    for j, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert is_ncn(obj, j, k) == (want[0] < j and want[1] < k)


def _mirror_partition(sp: ColouredSetPartition) -> ColouredSetPartition:
    n = len(sp)
    blocks = [[n + 1 - v for v in block] for block in sp.blocks]
    coloured = sorted(
        ((n + 1 - b, n + 1 - a), c) for (a, b), c in zip(sp.arcs(), sp.arc_colours)
    )
    return ColouredSetPartition(
        blocks, [c for _, c in coloured], sp.num_colours
    )


@given(st.integers(0, 7), st.data())
@settings(max_examples=100)
def test_mirror_preserves_partition_statistics(n, data):
    """Reflecting a partition diagram left-to-right maps k-crossings to
    k-crossings and k-nestings to k-nestings."""
    rgs = [0]
    for i in range(1, n):
        rgs.append(data.draw(st.integers(0, max(rgs) + 1)))
    blocks: dict[int, list[int]] = {}
    for v, b in enumerate(rgs[:n], start=1):
        blocks.setdefault(b, []).append(v)
    narcs = sum(len(b) - 1 for b in blocks.values())
    cols = [data.draw(st.integers(1, 2)) for _ in range(narcs)]
    sp = ColouredSetPartition(list(blocks.values()), cols, num_colours=2)
    assert cr_ne(_mirror_partition(sp)) == cr_ne(sp)


def test_arc_start_end_sets():
    sp = ColouredSetPartition([[1, 3, 6], [2], [4, 5]])
    assert arc_start_vertices(sp.arcs()) == frozenset({1, 3, 4})
    assert arc_end_vertices(sp.arcs()) == frozenset({3, 5, 6})


@pytest.mark.parametrize("family", ["permutation", "setpartition"])
def test_opener_closer_sets_follow_the_family(family):
    for n in range(6):
        for r in (1, 2):
            for obj in enumerate_objects(EnumSpec(family, n, colours=r)):
                if family == "permutation":
                    want = (openers(obj), closers(obj))
                else:
                    arcs = obj.arcs()
                    want = (arc_start_vertices(arcs), arc_end_vertices(arcs))
                assert opener_closer_sets(obj) == want, obj


def test_joint_histogram_symmetry_helpers():
    h = JointHistogram()
    h.add((1, 2))
    h.add((2, 1))
    h.add((1, 1), 3)
    assert h.total() == 5
    assert h.is_symmetric()
    assert h.rows() == [(1, 1, 3), (1, 2, 1), (2, 1, 1)]
    h.add((3, 1))
    assert not h.is_symmetric()
