"""The colour-orbit quotient against the full transfer graphs.

Every check pairs the fast path (walks on the quotient) with an
independent slow one: the full graph, or the brute-force oracle where the
full graph is out of reach.
"""
import pytest

from _reference import gf_by_minor
from crossnest import automata, oracle
from crossnest.automata import (
    build_general,
    build_permutation_22,
    build_quotient,
    build_setpartition_22,
)
from crossnest.errors import CapExceeded, ConsistencyError
from crossnest.oracle import EnumSpec
from crossnest.ratfunc import gf_from_graph, series, series_by_power, split_linear_factors


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


def test_quotient_matrix_is_not_symmetric():
    q = build_quotient("setpartition", 2, 2, 3)
    assert q.builder == "quotient"
    assert q.states[0] == "()|()|()"
    assert not q.is_symmetric()


def test_orbit_cap_stops_the_search(monkeypatch):
    expanded = []
    moves = automata._MOVES["setpartition"]

    def counting(st, j, k):
        expanded.append(st)
        return moves(st, j, k)

    monkeypatch.setitem(automata._MOVES, "setpartition", counting)
    with pytest.raises(CapExceeded, match="more than 20 orbits"):
        build_quotient("setpartition", 3, 3, 6, max_states=20)
    assert len(expanded) <= 20


def test_start_orbit_must_be_a_singleton(monkeypatch):
    monkeypatch.setattr(
        automata, "_start_state", lambda family, r: ((1,),) + ((),) * (r - 1)
    )
    with pytest.raises(ConsistencyError, match="not fixed"):
        build_quotient("setpartition", 2, 2, 2)


def test_quotient_validates_bounds():
    with pytest.raises(ValueError):
        build_quotient("matching", 2, 2, 1)
    with pytest.raises(ValueError):
        build_quotient("setpartition", 1, 2, 1)
    with pytest.raises(ValueError):
        build_quotient("permutation", 2, 2, 0)
