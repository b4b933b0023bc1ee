"""The crossing/nesting involution on coloured diagrams."""
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnest.diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    arc_end_vertices,
    arc_start_vertices,
    closers,
    cr_ne,
    openers,
    parse_diagram,
)
from crossnest.involution import involute, involute_slice, slice_by_colour
from crossnest.oracle import EnumSpec, enumerate_objects
from crossnest.published import (
    INVOLUTION_EXAMPLE_IMAGE,
    INVOLUTION_EXAMPLE_INPUT,
    INVOLUTION_EXAMPLE_SEQUENCES,
)


def test_worked_example():
    cp = parse_diagram(INVOLUTION_EXAMPLE_INPUT)
    assert involute(cp).to_text() == INVOLUTION_EXAMPLE_IMAGE


def test_worked_example_statistics():
    cp = parse_diagram(INVOLUTION_EXAMPLE_INPUT)
    image = involute(cp)
    # per-colour statistics swap; this input is (2, 2) in both colours' max
    assert cr_ne(cp) == (2, 2)
    assert cr_ne(image) == (2, 2)


def test_worked_example_slices():
    cp = parse_diagram(INVOLUTION_EXAMPLE_INPUT)
    for s in slice_by_colour(cp):
        assert s.upper == INVOLUTION_EXAMPLE_SEQUENCES[(s.colour, "upper")]["arcs"]
        assert s.lower == INVOLUTION_EXAMPLE_SEQUENCES[(s.colour, "lower")]["arcs"]


def test_slice_involution_swaps_per_colour():
    cp = parse_diagram(INVOLUTION_EXAMPLE_INPUT)
    for s in slice_by_colour(cp):
        image = involute_slice(involute_slice(s))
        assert image == s


def _opener_closer_sets(obj):
    if isinstance(obj, ColouredSetPartition):
        arcs = obj.arcs()
        return arc_start_vertices(arcs), arc_end_vertices(arcs)
    return openers(obj), closers(obj)


def _check_laws(obj):
    image = involute(obj)
    c, e = cr_ne(obj)
    assert cr_ne(image) == (e, c), obj
    assert involute(image) == obj, obj
    assert _opener_closer_sets(image) == _opener_closer_sets(obj), obj


def _check_all(spec: EnumSpec):
    for obj in enumerate_objects(spec):
        _check_laws(obj)


@pytest.mark.parametrize("n", range(0, 7))
def test_uncoloured_permutations(n):
    _check_all(EnumSpec("permutation", n))


@pytest.mark.parametrize("n", range(0, 6))
def test_two_coloured_permutations(n):
    _check_all(EnumSpec("permutation", n, colours=2))


@pytest.mark.parametrize("n", range(0, 7))
def test_uncoloured_partitions(n):
    _check_all(EnumSpec("setpartition", n))


@pytest.mark.parametrize("n", range(0, 6))
def test_two_coloured_partitions(n):
    _check_all(EnumSpec("setpartition", n, colours=2))


def test_fixed_points_exist():
    # the identity's loops transpose to vertical dominoes and back
    assert involute(ColouredPermutation([1, 2])) == ColouredPermutation([1, 2])


def test_partition_blocks_rechain():
    sp = ColouredSetPartition([[1, 3, 6], [2], [4, 5]])
    image = involute(sp)
    assert isinstance(image, ColouredSetPartition)
    assert len(image) == 6
    assert cr_ne(image) == (cr_ne(sp)[1], cr_ne(sp)[0])


def test_number_of_colours_is_preserved():
    cp = ColouredPermutation([2, 1], [1, 1], num_colours=3)
    assert involute(cp).num_colours == 3


def test_refined_distribution_is_symmetric():
    """Within every (openers, closers) class the involution pairs off
    diagrams, so the joint (cr, ne) distribution is exchange-symmetric."""
    from crossnest.diagrams import JointHistogram

    for family, n, r in (("permutation", 5, 1), ("setpartition", 6, 1)):
        by_class: dict = {}
        for obj in enumerate_objects(EnumSpec(family, n, colours=r)):
            key = _opener_closer_sets(obj)
            by_class.setdefault(key, JointHistogram()).add(cr_ne(obj))
        assert by_class
        for hist in by_class.values():
            assert hist.is_symmetric()


# --- random diagrams of size 20-40 with 1-3 colours, past exhaustive reach ---

SIZES = st.integers(20, 40)
COLOURS = st.integers(1, 3)
LAWS = settings(max_examples=150, deadline=None)


@st.composite
def coloured_permutations(draw):
    n, r = draw(SIZES), draw(COLOURS)
    word = draw(st.permutations(range(1, n + 1)))
    colours = draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
    return ColouredPermutation(word, colours, r)


@st.composite
def coloured_set_partitions(draw):
    n, r = draw(SIZES), draw(COLOURS)
    blocks: list[list[int]] = []
    for v in range(1, n + 1):  # a restricted growth string, one vertex at a time
        b = draw(st.integers(0, len(blocks)))
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(v)
    narcs = n - len(blocks)
    colours = draw(st.lists(st.integers(1, r), min_size=narcs, max_size=narcs))
    return ColouredSetPartition(blocks, colours, r)


@given(coloured_permutations())
@LAWS
def test_random_permutation_laws(obj):
    _check_laws(obj)


@given(coloured_set_partitions())
@LAWS
def test_random_set_partition_laws(obj):
    _check_laws(obj)


@given(st.one_of(coloured_permutations(), coloured_set_partitions()))
@settings(max_examples=300, deadline=None)
def test_random_text_round_trip(obj):
    assert parse_diagram(obj.to_text()) == obj
