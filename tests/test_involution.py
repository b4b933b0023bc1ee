"""The crossing/nesting involution on coloured diagrams."""
import random
import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as reference
from crossnest import cli, involution, tableaux
from crossnest.diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    colour_slices,
    cr_ne,
    max_crossing,
    max_nesting,
    opener_closer_sets,
    parse_diagram,
)
from crossnest.errors import ConsistencyError
from crossnest.involution import involute, involute_slice
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


def _sides(obj):
    """The colour_slices entries of a permutation, keyed by (colour, side)."""
    for i, (pairs, enhanced) in enumerate(colour_slices(obj)):
        yield (i // 2 + 1, "upper" if enhanced else "lower"), pairs, enhanced


def test_worked_example_slices():
    cp = parse_diagram(INVOLUTION_EXAMPLE_INPUT)
    keys = set()
    for key, pairs, _ in _sides(cp):
        assert tuple(sorted(pairs)) == INVOLUTION_EXAMPLE_SEQUENCES[key]["arcs"], key
        keys.add(key)
    assert keys == set(INVOLUTION_EXAMPLE_SEQUENCES)


def test_slice_involution_swaps_per_colour():
    cp = parse_diagram(INVOLUTION_EXAMPLE_INPUT)
    for key, pairs, enhanced in _sides(cp):
        image = involute_slice(pairs, enhanced, len(cp))
        assert max_crossing(image, enhanced) == max_nesting(pairs, enhanced), key
        assert max_nesting(image, enhanced) == max_crossing(pairs, enhanced), key
        back = involute_slice(image, enhanced, len(cp))
        assert sorted(back) == sorted(pairs), key


# one-arc slices the walk refuses, so the slice map may not pass them
# through: the arc, enhanced, n and the encoder's message
BAD_ONE_ARC_SLICES = [
    ([(2, 2)], False, 3, "loops are not allowed here"),
    ([(0, 2)], True, 3, "arc (0, 2) out of range"),
    ([(2, 4)], False, 3, "arc (2, 4) out of range"),
    ([(3, 1)], True, 3, "arc (3, 1) out of range"),
    ([(1, 2.5)], False, 3, "arc endpoints out of order at vertex 2"),
    ([(1, 2.5)], True, 3, "arc endpoints out of order at vertex 3"),
    ([(1, 2)], True, -1, "n must be nonnegative"),
]


@pytest.mark.parametrize("pairs, enhanced, n, message", BAD_ONE_ARC_SLICES)
def test_slice_map_refuses_a_bad_arc(pairs, enhanced, n, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        involute_slice(pairs, enhanced, n)


@pytest.mark.parametrize("enhanced", [False, True])
def test_one_arc_slices_are_fixed(enhanced):
    """A valid one-arc slice is its own image, a loop only when enhanced."""
    arcs = [(a, b) for a in range(1, 6) for b in range(a + (not enhanced), 6)]
    for arc in arcs:
        assert involute_slice([list(arc)], enhanced, 5) == (arc,)


# each corruption of the slice images, and the reassembly error it must raise
CORRUPTIONS = {
    "duplicated source": ("1 2", lambda arcs: arcs + arcs[:1], "vertex 1 starts two arcs"),
    "duplicated target": (
        "{1,3},{2}",
        lambda arcs: arcs + tuple((a + 1, b) for a, b in arcs),
        "vertex 3 ends two arcs",
    ),
    "missing vertex": ("1 2", lambda arcs: arcs[1:], "image arcs leave a vertex untouched"),
}


def _corrupt(monkeypatch, corruption):
    real = involution.involute_slice
    monkeypatch.setattr(
        involution,
        "involute_slice",
        lambda pairs, enhanced, n: corruption(real(pairs, enhanced, n)),
    )


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_reassembly_rejects_corrupted_images(monkeypatch, case):
    text, corruption, message = CORRUPTIONS[case]
    obj = parse_diagram(text)
    assert involute(obj) == obj  # these inputs are fixed points
    _corrupt(monkeypatch, corruption)
    with pytest.raises(ConsistencyError, match="^%s$" % message):
        involute(obj)


def test_corrupted_image_is_exit_three(monkeypatch, capsys):
    text, corruption, message = CORRUPTIONS["duplicated source"]
    _corrupt(monkeypatch, corruption)
    assert cli.main(["bijection", "--input", text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "consistency failure: %s\n" % message


@pytest.mark.parametrize(
    "corruption, message",
    [
        (lambda arcs: tuple((a, b + 2) for a, b in arcs), "image arc (1, 3) leaves 1..2"),
        (lambda arcs: tuple((a - 2, b) for a, b in arcs), "image arc (-1, 1) leaves 1..2"),
    ],
    ids=["past n", "below 1"],
)
def test_reassembly_rejects_image_arcs_off_the_vertices(monkeypatch, corruption, message):
    _corrupt(monkeypatch, corruption)
    with pytest.raises(ConsistencyError, match="^%s$" % re.escape(message)):
        involute(parse_diagram("1 2"))


def _random_object(rng, family, n, colours):
    if family == "permutation":
        word = rng.sample(range(1, n + 1), n)
        return ColouredPermutation(word, [rng.randint(1, colours) for _ in word], colours)
    blocks: list[list[int]] = []
    for v in range(1, n + 1):
        b = rng.randrange(len(blocks) + 1)
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(v)
    arcs = n - len(blocks)
    return ColouredSetPartition(blocks, [rng.randint(1, colours) for _ in range(arcs)], colours)


@pytest.mark.parametrize(
    "family, n, colours",
    [("permutation", 6, 2), ("setpartition", 8, 2), ("permutation", 30, 3), ("setpartition", 30, 3)],
    ids=["perm6-c2", "setpart8-c2", "perm30-c3", "setpart30-c3"],
)
def test_involution_classifies_no_step(monkeypatch, family, n, colours):
    """The walks the involution builds carry their moves, so it never
    classifies a step of shapes, yet gives the reference chain's image."""
    rng = random.Random("%s-%d-%d" % (family, n, colours))
    objects = [_random_object(rng, family, n, colours) for _ in range(25)]
    with monkeypatch.context() as patched:
        patched.setattr(involution, "involute_slice", reference.involute_slice)
        expected = [involute(obj) for obj in objects]

    def refuse(prev, cur):
        raise AssertionError("a step was classified")

    monkeypatch.setattr(tableaux, "_step", refuse)
    assert [involute(obj) for obj in objects] == expected


def _check_laws(obj):
    image = involute(obj)
    c, e = cr_ne(obj)
    assert cr_ne(image) == (e, c), obj
    assert involute(image) == obj, obj
    assert opener_closer_sets(image) == opener_closer_sets(obj), obj


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


@pytest.mark.parametrize(
    "make",
    [
        lambda r: ColouredPermutation([2, 1], [1, 1], r),
        lambda r: ColouredSetPartition([[1, 2], [3]], [1], r),
    ],
    ids=["permutation", "setpartition"],
)
def test_number_of_colours_is_part_of_equality(make):
    """An image that lost its colour count is not equal to the input."""
    assert make(3) != make(1)
    assert hash(make(3)) != hash(make(1))
    assert make(3) == make(3) and hash(make(3)) == hash(make(3))


def test_refined_distribution_is_symmetric():
    """Within every (openers, closers) class the involution pairs off
    diagrams, so the joint (cr, ne) distribution is exchange-symmetric."""
    from crossnest.diagrams import JointHistogram

    for family, n, r in (("permutation", 5, 1), ("setpartition", 6, 1)):
        by_class: dict = {}
        for obj in enumerate_objects(EnumSpec(family, n, colours=r)):
            key = opener_closer_sets(obj)
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
    back = parse_diagram(obj.to_text())
    assert type(back) is type(obj)
    if isinstance(obj, ColouredPermutation):
        assert (back.word, back.colours) == (obj.word, obj.colours)
    else:
        assert (back.blocks, back.arc_colours) == (obj.blocks, obj.arc_colours)
    # the text lists the colours used, not how many were on offer
    used = obj.colours if isinstance(obj, ColouredPermutation) else obj.arc_colours
    assert back.num_colours == max(used, default=1)
