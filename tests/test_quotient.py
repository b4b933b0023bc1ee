"""The symmetry quotient against the full transfer graphs.

Every check pairs the fast path (walks on the quotient) with an
independent slow one: the full graph, the quotient by colour permutations
alone, a lumping refinement, or the brute-force oracle where the full
graph is out of reach.
"""
import re
from itertools import groupby
from math import comb
from pathlib import Path

import pytest

from _reference import _canonical, colour_quotient, gf_by_minor, keyed_quotient, search
from crossnest import automata, oracle
from crossnest.automata import (
    build_general,
    build_permutation_22,
    build_quotient,
    build_setpartition_22,
)
from crossnest.errors import CapExceeded, ConsistencyError
from crossnest.oracle import EnumSpec
from crossnest.ratfunc import gf_from_graph, lump, series, series_by_power, split_linear_factors


@pytest.mark.parametrize("r", range(1, 8))
def test_setpartition_gf_matches_full_graph(r):
    q = build_quotient("setpartition", 2, 2, r)
    assert q.size == r + 1
    assert gf_from_graph(q) == gf_from_graph(build_setpartition_22(r))


@pytest.mark.parametrize("r", range(1, 5))
def test_permutation_gf_matches_full_graph(r):
    q = build_quotient("permutation", 2, 2, r)
    assert gf_from_graph(q) == gf_from_graph(build_permutation_22(r))


GENERAL_GRID = [
    ("setpartition", 3, 3, 1),
    ("setpartition", 3, 3, 2),
    ("permutation", 3, 2, 1),
    ("permutation", 3, 2, 2),
    ("permutation", 3, 2, 3),
    ("permutation", 3, 3, 2),
]


@pytest.mark.parametrize("family,j,k,r", GENERAL_GRID)
def test_general_gf_matches_full_graph(family, j, k, r):
    full = build_general(family, j, k, r)
    q = build_quotient(family, j, k, r)
    assert q.size < full.size or r == 1
    assert gf_from_graph(q) == gf_from_graph(full)


@pytest.mark.parametrize(
    "family,j,k,r",
    [(family, 2, 2, r) for family in ("setpartition", "permutation") for r in range(1, 5)]
    + [(family, 3, 3, r) for family in ("setpartition", "permutation") for r in (1, 2)],
)
def test_full_graph_gf_matches_its_walks(family, j, k, r):
    # gf_from_graph lumps both the full graph and its quotient, so the
    # full graph's GF is checked against the walks on the graph as given.
    # Their sequences obey recurrences of orders up to the lumped size and
    # the size, so agreeing on that many terms they agree on all.
    full = build_general(family, j, k, r)
    terms = full.size + len(set(lump(full))) + 1
    assert series(gf_from_graph(full), terms) == series_by_power(full, terms)


@pytest.mark.parametrize(
    "family,j,k,r",
    [case for case in GENERAL_GRID if build_quotient(*case).size <= 56],
)
def test_quotient_gf_matches_the_minor_determinant(family, j, k, r):
    q = build_quotient(family, j, k, r)
    assert gf_from_graph(q) == gf_by_minor(q)


@pytest.mark.parametrize(
    "family,j,k,r", [("setpartition", 3, 3, 4), ("permutation", 2, 2, 6)]
)
def test_power_series_matches_full_graph(family, j, k, r):
    full = build_general(family, j, k, r)
    q = build_quotient(family, j, k, r)
    assert series_by_power(q, 10) == series_by_power(full, 10)


def test_setpartition_eight_colours():
    rf = gf_from_graph(build_quotient("setpartition", 2, 2, 8))
    assert (1,) + series(rf, 4).coeffs == (1, 1, 9, 89, 993)


def test_permutation_five_colours():
    rf = gf_from_graph(build_quotient("permutation", 2, 2, 5))
    assert split_linear_factors(rf.den) == (1, (2, 6, 12, 20, 30))
    counts = series(rf, 5).coeffs
    for n in range(5):
        assert counts[n] == oracle.count(EnumSpec("permutation", n, 5, j=2, k=2))


# a count vector packs each class's count into r.bit_length() bits, so a
# carry or borrow between fields would show at r = 7, whose one class can
# hold all seven colours in a full 3-bit field, and around it
@pytest.mark.parametrize(
    "family,j,k,r",
    [(family, 2, 2, r) for family in ("setpartition", "permutation") for r in (1, 3, 7, 8)]
    + [
        ("setpartition", 2, 2, 12),
        ("setpartition", 3, 3, 1),
        ("setpartition", 3, 3, 3),
        ("setpartition", 3, 3, 5),
        ("setpartition", 3, 3, 7),
        ("permutation", 3, 3, 1),
        ("permutation", 3, 3, 3),
    ],
)
def test_count_vectors_match_the_sorted_tuple_search(family, j, k, r):
    q = build_quotient(family, j, k, r)
    ref = keyed_quotient(family, j, k, r)
    assert q.size == ref.size
    assert sum(map(len, q.rows)) == sum(map(len, ref.rows))
    terms = 2 * q.size + 5
    assert series_by_power(q, terms) == series_by_power(ref, terms)


@pytest.mark.parametrize("family,j", [("setpartition", 8), ("permutation", 6)])
def test_one_colour_in_a_large_box_matches_the_sorted_tuple_search(family, j):
    """A box with many key classes, so a count vector spans several
    machine words."""
    q = build_quotient(family, j, j, 1)
    ref = keyed_quotient(family, j, j, 1)
    assert q.size == ref.size > 1000
    assert sum(map(len, q.rows)) == sum(map(len, ref.rows))
    assert series_by_power(q, 40) == series_by_power(ref, 40)


def test_keyed_state_names_do_not_grow_with_the_colours():
    q = build_quotient("setpartition", 2, 2, 19999)
    assert q.size == 20000
    assert max(map(len, q.states)) < 40


def test_quotient_matrix_is_not_symmetric():
    q = build_quotient("setpartition", 2, 2, 3)
    assert q.builder == "quotient"
    assert q.states[0] == "()^3"
    assert not q.is_symmetric()


def test_orbit_cap_stops_the_search(monkeypatch):
    expanded = []
    moves = automata._MOVES["setpartition"]

    def counting(st, tables):
        expanded.append(st)
        return moves(st, tables)

    monkeypatch.setitem(automata._MOVES, "setpartition", counting)
    with pytest.raises(CapExceeded, match="more than 20 orbits"):
        build_quotient("setpartition", 3, 3, 6, max_states=20)
    assert len(expanded) <= 20


@pytest.mark.parametrize("family", ["setpartition", "permutation"])
@pytest.mark.parametrize(
    "builder, message",
    [
        # the 19 x 19 box holds C(38, 19) shapes, each a state of the full graph
        (build_general, r"graph would need at least 35345263800 states \(cap 20000\)"),
        # at j = k a shape and its conjugate share a key: half as many
        (build_quotient, "symmetry quotient has more than 20000 orbits"),
    ],
)
def test_large_box_is_refused_before_its_shapes_are_listed(
    monkeypatch, family, builder, message
):
    for lister in ("_corners", "_bounded_shapes"):
        monkeypatch.setattr(automata, lister, lambda j, k: pytest.fail("listed"))
    with pytest.raises(CapExceeded, match=message):
        builder(family, 20, 20, 1)


@pytest.mark.parametrize(
    "family, j, k",
    [("setpartition", 5, 5), ("setpartition", 5, 3), ("permutation", 4, 4), ("permutation", 4, 3)],
)
def test_quotient_refuses_a_one_colour_graph_over_the_cap_before_searching(
    monkeypatch, family, j, k
):
    """One colour holding a key shape (one per half, of one size, for
    permutations) is a state of every quotient, so a cap below the
    one-colour quotient's size refuses before a move is made, and a cap
    at that size lets the one-colour quotient be built."""
    size = build_quotient(family, j, k, 1).size
    assert build_quotient(family, j, k, 1, max_states=size).size == size
    monkeypatch.setitem(automata._MOVES, family, lambda st, tables: pytest.fail("searched"))
    with pytest.raises(CapExceeded, match="more than %d orbits" % (size - 1)):
        build_quotient(family, j, k, 3, max_states=size - 1)


def test_start_orbit_must_be_a_singleton(monkeypatch):
    starts = {
        ("setpartition", 2, 2): ((1,), ()),  # swapping the colours moves it
        ("setpartition", 3, 3): ((2,), (2,)),  # conjugating one shape moves it
        ("permutation", 3, 3): (((2,), (2,)), ((2,), (2,))),
    }
    for (family, j, k), start in starts.items():
        monkeypatch.setattr(automata, "_start_state", lambda family, r: start)
        with pytest.raises(ConsistencyError, match="not fixed"):
            build_quotient(family, j, k, 2)


def test_quotient_validates_bounds():
    with pytest.raises(ValueError, match="^family must be 'setpartition' or 'permutation'$"):
        build_quotient("matching", 2, 2, 1)
    with pytest.raises(ValueError, match="^bounds j, k must be at least 2$"):
        build_quotient("setpartition", 1, 2, 1)
    with pytest.raises(ValueError, match="^need at least one colour$"):
        build_quotient("permutation", 2, 2, 0)


SYMMETRY_GRID = [
    ("setpartition", 3, 3, 2),
    ("setpartition", 4, 4, 1),
    ("setpartition", 4, 3, 2),
    ("permutation", 2, 2, 4),
    ("permutation", 3, 2, 3),
    ("permutation", 2, 3, 2),
    ("permutation", 3, 3, 2),
    ("permutation", 4, 4, 1),
]


@pytest.mark.parametrize("family,j,k,r", SYMMETRY_GRID)
def test_keyed_walks_match_colour_quotient_and_full_graph(family, j, k, r):
    keyed = build_quotient(family, j, k, r)
    for other in (colour_quotient(family, j, k, r), build_general(family, j, k, r)):
        # an n-state graph's walk counts satisfy a recurrence of order n, and
        # two such sequences of orders a and b that agree on a + b terms agree
        terms = 2 * max(keyed.size, other.size) + 1
        assert series_by_power(keyed, terms) == series_by_power(other, terms)


@pytest.mark.parametrize("family,j,k,r", SYMMETRY_GRID)
def test_keyed_partition_is_equitable(family, j, k, r):
    keyed = build_quotient(family, j, k, r)
    table = automata._corners(j, k)[2]
    index = {name: a for a, name in enumerate(keyed.states)}

    def key(st):
        # a keyed state is named by its sorted key shapes, each with its
        # number of colours
        halves = automata._halves(family, _canonical(family, st, table))
        name = ";".join(
            "|".join("%s^%d" % (automata._shape_name(s), len(list(g))) for s, g in groupby(h))
            for h in halves
        )
        return index[name]

    states, rows = search(family, j, k, r, lambda st: st)
    assert len(states) == build_general(family, j, k, r).size
    for st, row in zip(states, rows):
        summed = {}
        for b, count in row.items():
            summed[key(states[b])] = summed.get(key(states[b]), 0) + count
        assert summed == keyed.rows[key(st)]


# At (3, 2) and (2, 3) lumping also merges states that swap the upper and
# lower halves, which is no symmetry in general: it is not equitable at
# (4, 3) with one colour.
LUMPED_FURTHER = {
    ("permutation", 3, 2, 2): 7,
    ("permutation", 2, 3, 2): 7,
    ("permutation", 3, 2, 3): 13,
    ("permutation", 2, 3, 3): 13,
}


@pytest.mark.parametrize(
    "family,j,k,r",
    SYMMETRY_GRID
    + sorted(LUMPED_FURTHER)
    + [("permutation", 4, 3, 1), ("setpartition", 4, 4, 2), ("permutation", 3, 3, 3)],
)
def test_lumping_the_keyed_graph(family, j, k, r):
    keyed = build_quotient(family, j, k, r)
    assert len(set(lump(keyed))) == LUMPED_FURTHER.get((family, j, k, r), keyed.size)


@pytest.mark.parametrize(
    "family,j,k,r,states",
    [("setpartition", 3, 3, r, comb(r + 4, 4)) for r in range(1, 7)]
    + [("setpartition", 4, 4, r, comb(r + 13, r)) for r in range(1, 4)]
    + [("permutation", 2, 2, r, r + 1) for r in (1, 2, 3, 7, 12)],
)
def test_keyed_state_counts(family, j, k, r, states):
    # one keyed state per multiset of conjugation classes of shapes (5 in
    # the 2 x 2 box, 14 in the 3 x 3 box); for permutations at j = k = 2,
    # one per number of open arcs
    assert build_quotient(family, j, k, r).size == states


def test_readme_limits_table_matches_the_keyed_graphs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Practical limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if re.match(r"\| (setpartition|permutation) \|", line)
    ]
    assert len(rows) >= 9
    for family, j, k, r, _full, _orbits, keyed, _time in rows:
        size = build_quotient(family, int(j), int(k), int(r)).size
        assert size == int(keyed.replace(",", "")), (family, j, k, r)
