"""Exhaustive enumeration: ordering, workload guard, filters."""
import gc
from collections import Counter
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import is_ncn
from crossnest import oracle
from crossnest.diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    JointHistogram,
    colour_slices,
    cr_ne,
    opener_closer_sets,
)
from crossnest.errors import CapExceeded
from crossnest.oracle import (
    EnumSpec,
    count,
    enumerate_objects,
    joint_histogram,
    workload,
)


def test_spec_validation():
    with pytest.raises(ValueError, match="^family must be 'setpartition' or 'permutation'$"):
        EnumSpec("matching", 3)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        EnumSpec("permutation", -1)
    with pytest.raises(ValueError, match="^need at least one colour$"):
        EnumSpec("permutation", 3, colours=0)
    with pytest.raises(ValueError, match="^bounds j, k must be at least 2$"):
        EnumSpec("permutation", 3, j=1)
    with pytest.raises(ValueError, match="^bounds j, k must be at least 2$"):
        EnumSpec("setpartition", 3, k=1)
    with pytest.raises(ValueError, match="max_objects must be nonnegative"):
        EnumSpec("permutation", 3, max_objects=-1)


def test_documented_permutation_order():
    stream = enumerate_objects(EnumSpec("permutation", 3, colours=2))
    assert [obj.to_text() for obj in islice(stream, 5)] == [
        "1 2 3 / 1 1 1",
        "1 2 3 / 1 1 2",
        "1 2 3 / 1 2 1",
        "1 2 3 / 1 2 2",
        "1 2 3 / 2 1 1",
    ]


def test_documented_partition_order():
    stream = enumerate_objects(EnumSpec("setpartition", 3))
    assert [obj.to_text() for obj in stream] == [
        "{1,2,3} / 1 1",
        "{1,2},{3} / 1",
        "{1,3},{2} / 1",
        "{1},{2,3} / 1",
        "{1},{2},{3}",
    ]


def test_enumerated_objects_offer_every_colour():
    perms = set(enumerate_objects(EnumSpec("permutation", 2, colours=2)))
    assert ColouredPermutation([1, 2], [1, 1], 2) in perms
    assert ColouredPermutation([1, 2], [1, 1]) not in perms
    parts = set(enumerate_objects(EnumSpec("setpartition", 3, colours=2)))
    assert ColouredSetPartition([[1, 2], [3]], [1], 2) in parts
    assert ColouredSetPartition([[1], [2], [3]], [], 2) in parts
    assert all(obj.num_colours == 2 for obj in perms | parts)


@given(
    st.sampled_from(["permutation", "setpartition"]),
    st.integers(0, 5),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_workload_formula_counts_the_stream(family, n, r):
    spec = EnumSpec(family, n, colours=r)
    assert workload(spec) == sum(1 for _ in enumerate_objects(spec))


@pytest.mark.parametrize("family", ["permutation", "setpartition"])
def test_unbounded_count_is_the_workload(monkeypatch, family):
    """Without bounds or refinement every colouring is admissible, so
    `count` is the sum of r^arcs over the uncoloured objects, which is
    `workload`; it returns that without walking any object."""
    cases = []
    for n in range(7):
        for r in (1, 2, 3):
            spec = EnumSpec(family, n, colours=r)
            colourings = sum(
                r ** sum(len(pairs) for pairs, _ in slices)
                for slices in oracle._uncoloured(spec)
            )
            cases.append((spec, colourings))

    def refuse(spec):
        raise AssertionError("count walked the objects")

    monkeypatch.setattr(oracle, "_uncoloured", refuse)
    for spec, colourings in cases:
        assert count(spec) == workload(spec) == colourings
        if spec.n <= 4:
            assert count(spec) == sum(1 for _ in enumerate_objects(spec))


def test_empty_ground_set():
    assert count(EnumSpec("permutation", 0, colours=3)) == 1
    assert count(EnumSpec("setpartition", 0)) == 1


def test_cap_aborts_instead_of_sampling():
    spec = EnumSpec("permutation", 4, max_objects=23)
    with pytest.raises(CapExceeded, match="refusing to sample"):
        count(spec)
    with pytest.raises(CapExceeded):
        list(enumerate_objects(spec))
    assert count(EnumSpec("permutation", 4, max_objects=24)) == 24


def test_bound_filters_match_is_ncn():
    spec = EnumSpec("permutation", 4, colours=2)
    manual = sum(1 for obj in enumerate_objects(spec) if is_ncn(obj, 2, 3))
    assert count(EnumSpec("permutation", 4, colours=2, j=2, k=3)) == manual


def test_one_sided_bound():
    full = EnumSpec("setpartition", 5)
    only_j = sum(
        1 for obj in enumerate_objects(full) if cr_ne(obj)[0] < 2
    )
    assert count(EnumSpec("setpartition", 5, j=2)) == only_j


def test_refinement_partitions_the_space():
    by_sets: dict = {}
    for obj in enumerate_objects(EnumSpec("permutation", 4)):
        key = opener_closer_sets(obj)
        by_sets[key] = by_sets.get(key, 0) + 1
    total = 0
    for (ovs, cvs), expected in by_sets.items():
        spec = EnumSpec("permutation", 4, openers=ovs, closers=cvs)
        assert count(spec) == expected
        total += expected
    assert total == 24


BOUNDS = [(None, None), (2, 2), (2, 3), (3, 2), (3, 3), (2, None), (None, 2)]


@pytest.mark.parametrize(
    "family,n,r,j,k",
    [
        (family, n, r, j, k)
        for family in ("permutation", "setpartition")
        for n in range(6)
        for r in (1, 2, 3)
        for j, k in BOUNDS
        if (family, n, r) != ("permutation", 5, 3) or (j, k) == (2, 2)
    ],
)
def test_count_matches_the_enumerator(family, n, r, j, k):
    spec = EnumSpec(family, n, colours=r, j=j, k=k)
    assert count(spec) == sum(1 for _ in enumerate_objects(spec))


def _refinements(family, n):
    """Every (openers, closers) pair that some object of size n has."""
    found = {opener_closer_sets(obj) for obj in enumerate_objects(EnumSpec(family, n))}
    return sorted(found, key=lambda pair: (sorted(pair[0]), sorted(pair[1])))


@pytest.mark.parametrize(
    "family,n,r",
    [("permutation", 4, 1), ("permutation", 4, 2), ("setpartition", 5, 1), ("setpartition", 5, 2)],
)
@pytest.mark.parametrize("j,k", [(None, None), (2, 2), (2, 3), (None, 2)])
def test_refined_count_matches_the_enumerator(family, n, r, j, k):
    for ovs, cvs in _refinements(family, n):
        spec = EnumSpec(family, n, colours=r, j=j, k=k, openers=ovs, closers=cvs)
        assert count(spec) == sum(1 for _ in enumerate_objects(spec)), (ovs, cvs)


def test_joint_histogram_is_symmetric_on_the_full_space():
    hist = joint_histogram(EnumSpec("setpartition", 6))
    assert hist.total() == 203  # Bell number
    assert hist.is_symmetric()


def _reference_histogram(spec):
    hist = JointHistogram()
    for obj in enumerate_objects(spec):
        hist.add(cr_ne(obj))
    return hist


@pytest.mark.parametrize(
    "family,n,r",
    [
        (family, n, r)
        for family in ("permutation", "setpartition")
        for n in range(6)
        for r in (1, 2, 3, 4)
        if r < 4 or n <= 4
    ],
)
def test_joint_histogram_matches_the_enumerator(family, n, r):
    """The class-split histogram against one coloured object at a time.
    The bounded references keep the pairs of the full one that pass."""
    full = _reference_histogram(EnumSpec(family, n, colours=r))
    for j, k in BOUNDS:
        spec = EnumSpec(family, n, colours=r, j=j, k=k)
        want = JointHistogram(
            {
                (c, e): m
                for (c, e), m in full.counts.items()
                if (j is None or c < j) and (k is None or e < k)
            }
        )
        hist = joint_histogram(spec)
        assert hist == want, (j, k)
        assert hist.total() == count(spec), (j, k)


@pytest.mark.parametrize(
    "family,n,openers,closers",
    [("permutation", 5, {1, 2}, {4, 5}), ("setpartition", 5, {1, 2}, {4, 5})],
)
@pytest.mark.parametrize("j,k", [(None, None), (2, 3)])
def test_refined_joint_histogram_matches_the_enumerator(family, n, openers, closers, j, k):
    spec = EnumSpec(
        family, n, colours=2, j=j, k=k,
        openers=frozenset(openers), closers=frozenset(closers),
    )
    want = _reference_histogram(spec)
    assert want.total() > 0
    hist = joint_histogram(spec)
    assert hist == want
    assert hist.total() == count(spec)


@pytest.mark.parametrize("family,n", [("permutation", 5), ("setpartition", 6)])
@pytest.mark.parametrize("j,k", [(None, None), (2, 2), (3, 2), (3, 3)])
def test_walk_builds_and_scores_each_object_once(monkeypatch, family, n, j, k):
    """Without a refinement `count` and `joint_histogram` build no coloured
    object and call `colour_slices` on none: each side is read straight
    from the word or restricted-growth string.  With one, they build one
    checked object per uncoloured object and slice each that passes.
    Either way they score each distinct set of one class's upper or lower
    arcs at most once per call through `cr_ne`, whichever objects it
    occurs in.  A second identical call scores them all again: no table
    outlives a call."""
    objects = workload(EnumSpec(family, n))
    refinement = frozenset({1, 2})
    passing = sum(1 for _ in enumerate_objects(EnumSpec(family, n, openers=refinement)))
    assert 0 < passing < objects
    built = []
    for name in ("ColouredPermutation", "ColouredSetPartition"):
        real = getattr(oracle, name)

        def make(*args, _real=real):
            built.append(args)
            return _real(*args)

        monkeypatch.setattr(oracle, name, make)
    sliced = []
    scored = []  # the arguments given to cr_ne

    def slices_of(obj):
        sliced.append(obj)
        return colour_slices(obj)

    def score(slices):
        scored.append(tuple((tuple(pairs), enhanced) for pairs, enhanced in slices))
        return cr_ne(slices)

    monkeypatch.setattr(oracle, "colour_slices", slices_of)
    monkeypatch.setattr(oracle, "cr_ne", score)
    for openers in (None, refinement):
        spec = EnumSpec(family, n, colours=3, j=j, k=k, openers=openers)
        for run in (count, joint_histogram):
            calls = []
            for _ in range(2):
                built.clear()
                sliced.clear()
                scored.clear()
                run(spec)
                if openers is None:
                    assert len(built) == len(sliced) == 0, run.__name__
                else:
                    assert len(built) == objects, run.__name__
                    assert len(sliced) == passing, run.__name__
                assert len(scored) == len(set(scored)), run.__name__
                calls.append(list(scored))
            assert calls[0] == calls[1], run.__name__
    assert len(scored) > 0  # the histogram scores through cr_ne


@pytest.mark.parametrize("family,top", [("permutation", 6), ("setpartition", 7)])
def test_direct_sides_are_the_colour_slices(family, top):
    """The sides `_uncoloured` reads straight from each word or
    restricted-growth string are the `colour_slices` of the checked
    one-coloured object, object by object in the documented order of
    `enumerate_objects`: the same pairs on each side, with the same
    `enhanced` flags."""
    for n in range(top + 1):
        spec = EnumSpec(family, n)
        for sides, obj in zip(oracle._uncoloured(spec), enumerate_objects(spec), strict=True):
            got = [(sorted(pairs), enhanced) for pairs, enhanced in sides]
            want = [(sorted(pairs), enhanced) for pairs, enhanced in colour_slices(obj)]
            assert got == want, obj.to_text()


@pytest.mark.parametrize(
    "run,family,n,bound",
    [(count, "permutation", 6, 2), (joint_histogram, "permutation", 6, None),
     (count, "setpartition", 7, 2)],
)
def test_walk_leaves_no_reference_cycle(run, family, n, bound):
    """Everything the walk builds, its score table included, is freed by
    reference counting when the call returns."""
    spec = EnumSpec(family, n, colours=2, j=bound, k=bound)
    gc.collect()
    gc.disable()
    try:
        run(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _word_splits(word, r, j, k):
    """`_splits` walked over the one uncoloured permutation `word`."""
    spec = EnumSpec("permutation", len(word), colours=r, j=j, k=k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            oracle, "_uncoloured", lambda _: [colour_slices(ColouredPermutation(word))]
        )
        return oracle._splits(spec)


def _word_histogram(word, r, j, k):
    """(cr, ne) counts over the r^n colourings of `word` that pass the
    bounds, one coloured object at a time."""
    hist = Counter()
    for cols in product(range(1, r + 1), repeat=len(word)):
        c, e = cr_ne(ColouredPermutation(word, cols, r))
        if (j is None or c < j) and (k is None or e < k):
            hist[c, e] += 1
    return dict(hist)


@given(
    st.integers(0, 6).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.integers(1, 3),
    st.sampled_from([None, 2, 3]),
    st.sampled_from([None, 2, 3]),
)
@settings(max_examples=150, deadline=None)
def test_walk_is_exact_per_word(word, r, j, k):
    """The walk over one word's upper and lower sides against each of its
    colourings: sums over many objects can hide errors that cancel, one
    object's histogram cannot."""
    word = tuple(word)
    assert _word_splits(word, r, j, k) == _word_histogram(word, r, j, k)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("j,k", BOUNDS)
def test_empty_sides_match_the_enumerator(r, j, k):
    """Objects with an empty side: n = 0 has no arcs at all, and the
    identity, the one permutation without an opener, has no lower arc."""
    specs = [EnumSpec(family, 0, colours=r, j=j, k=k) for family in ("permutation", "setpartition")]
    specs += [
        EnumSpec("permutation", n, colours=r, j=j, k=k, openers=frozenset())
        for n in range(1, 5)
    ]
    for spec in specs:
        objs = list(enumerate_objects(spec))
        if spec.n:
            assert {obj.word for obj in objs} == {tuple(range(1, spec.n + 1))}
        want = JointHistogram(Counter(map(cr_ne, objs)))
        assert joint_histogram(spec) == want
        assert count(spec) == len(objs)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("j,k", BOUNDS)
def test_one_lower_arc_matches_the_enumerator(r, j, k):
    """Every word of size at most 4 with exactly one lower arc, walked on
    its own, against its colourings in `enumerate_objects`."""
    words = 0
    for n in range(2, 5):
        by_word: dict = {}
        for obj in enumerate_objects(EnumSpec("permutation", n, colours=r, j=j, k=k)):
            by_word.setdefault(obj.word, Counter())[cr_ne(obj)] += 1
        for word in permutations(range(1, n + 1)):
            if len(colour_slices(ColouredPermutation(word))[1][0]) == 1:
                words += 1
                assert _word_splits(word, r, j, k) == dict(by_word.get(word, {})), word
    assert words == 1 + 4 + 11  # 2^n - n - 1 words of size n have one lower arc


def test_many_colours_at_tiny_n_answer_at_once():
    """A split has at most one class per arc, so the colourings of its
    classes are tabulated only that far, never up to r."""
    spec = EnumSpec("permutation", 1, colours=100_000, j=2, k=2)
    assert count(spec) == 100_000
    assert joint_histogram(spec) == JointHistogram({(1, 1): 100_000})
    assert count(EnumSpec("setpartition", 2, colours=5_000_000, j=2, k=2)) == 5_000_001


def test_colouring_counts_by_word():
    """Per permutation word, how many of its colourings pass the bounds,
    from the per-colouring enumerator; they sum to `count`."""
    spec = EnumSpec("permutation", 3, colours=2, j=2, k=2)
    got = Counter(obj.word for obj in enumerate_objects(spec))
    assert got == {
        (1, 2, 3): 8,
        (1, 3, 2): 8,
        (2, 1, 3): 8,
        (2, 3, 1): 4,
        (3, 1, 2): 8,
        (3, 2, 1): 4,
    }
    assert sum(got.values()) == 40 == count(spec)
