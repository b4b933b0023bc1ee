"""Transfer multigraph builders and DOT export."""
from math import comb

import pytest

from _reference import full_graph
from crossnest import automata
from crossnest.automata import (
    Multigraph,
    build_general,
    build_permutation_22,
    build_quotient,
    build_setpartition_22,
    export_dot,
)
from crossnest.errors import CapExceeded
from crossnest.ratfunc import gf_from_graph, series_by_power
from test_graph_pins import DIGESTS

# adjacency matrices worked out by hand from the gap/vertex moves
SP_R1 = [[2, 1], [1, 1]]
SP_R2 = [[3, 1, 1, 0], [1, 2, 1, 1], [1, 1, 2, 1], [0, 1, 1, 1]]
PERM_R1 = [[1, 1], [1, 1]]
PERM_R2 = [
    [2, 1, 1, 1, 1, 0],
    [1, 2, 1, 1, 0, 1],
    [1, 1, 2, 0, 1, 1],
    [1, 1, 0, 2, 1, 1],
    [1, 0, 1, 1, 2, 1],
    [0, 1, 1, 1, 1, 2],
]


def _rows(g: Multigraph):
    return [list(row) for row in g.matrix]


def test_setpartition_graph_one_colour():
    g = build_setpartition_22(1)
    assert g.states == ("{}", "{1}")
    assert _rows(g) == SP_R1
    assert g.builder == "dedicated"


def test_setpartition_graph_two_colours():
    g = build_setpartition_22(2)
    assert g.states == ("{}", "{1}", "{2}", "{1,2}")
    assert _rows(g) == SP_R2


def test_permutation_graph_one_colour():
    assert _rows(build_permutation_22(1)) == PERM_R1


def test_permutation_graph_two_colours():
    g = build_permutation_22(2)
    assert g.states[0] == "{}|{}"
    assert _rows(g) == PERM_R2


@pytest.mark.parametrize("r", range(1, 6))
def test_permutation_state_count(r):
    assert build_permutation_22(r).size == comb(2 * r, r)


@pytest.mark.parametrize("r", range(1, 8))
def test_setpartition_state_count(r):
    assert build_setpartition_22(r).size == 2**r


@pytest.mark.parametrize("r", range(1, 5))
def test_dedicated_graphs_symmetric(r):
    assert build_setpartition_22(r).is_symmetric()
    assert build_permutation_22(r).is_symmetric()


def test_setpartition_diagonal_counts_gap_moves():
    # empty moves plus one same-colour arc insertion per inactive colour
    for r in (1, 2, 3):
        g = build_setpartition_22(r)
        for i, name in enumerate(g.states):
            active = 0 if name == "{}" else name.count(",") + 1
            assert g.matrix[i][i] == 1 + r - active


def test_permutation_diagonal_is_r():
    for r in (1, 2, 3):
        g = build_permutation_22(r)
        assert all(g.matrix[i][i] == r for i in range(g.size))


# --- general builder --------------------------------------------------------


def test_general_shape_states():
    g = build_general("setpartition", 3, 3, 1)
    assert g.states == ("()", "(1)", "(1.1)", "(2)", "(2.1)", "(2.2)")
    assert g.is_symmetric()


@pytest.mark.parametrize(
    "family,j,k,r",
    [
        ("setpartition", 3, 3, 1),
        ("setpartition", 2, 3, 2),
        ("setpartition", 4, 2, 1),
        ("permutation", 3, 3, 1),
        ("permutation", 3, 2, 2),
    ],
)
def test_general_graphs_symmetric(family, j, k, r):
    assert build_general(family, j, k, r).is_symmetric()


def test_bounded_box_partition_walks():
    # partitions of [n] with cr < 3 and ne < 3: Bell numbers up to n = 5,
    # then 203 - 2 at n = 6 (one triple crossing, one triple nesting)
    g = build_general("setpartition", 3, 3, 1)
    walks = series_by_power(g, 6).coeffs
    assert walks == (1, 2, 5, 15, 52, 201)


def test_transposed_box_swaps_nothing_at_symmetric_bounds():
    a = gf_from_graph(build_general("setpartition", 2, 3, 1))
    b = gf_from_graph(build_general("setpartition", 3, 2, 1))
    assert a == b  # the involution exchanges the two bounds


def test_general_builder_validation():
    with pytest.raises(ValueError, match="^bounds j, k must be at least 2$"):
        build_general("setpartition", 1, 2, 1)
    with pytest.raises(ValueError, match="^need at least one colour$"):
        build_general("permutation", 2, 2, 0)
    with pytest.raises(ValueError, match="^family must be 'setpartition' or 'permutation'$"):
        build_general("matching", 2, 2, 1)


def test_state_cap_refuses_before_enumerating():
    with pytest.raises(CapExceeded, match=r"^graph would need 32768 states \(cap 20000\)"):
        build_general("setpartition", 2, 2, 15)  # 2^15 states > 20000
    with pytest.raises(CapExceeded):
        build_general("setpartition", 2, 2, 3, max_states=4)
    build_general("setpartition", 2, 2, 3, max_states=8)
    # the state count is convolved colour by colour and refused once its
    # running total passes the cap: a colour more only adds states
    with pytest.raises(CapExceeded, match=r"^graph would need at least 48620 states \(cap 20000\)"):
        build_general("permutation", 2, 2, 3000)
    with pytest.raises(CapExceeded, match=r"^graph would need at least 32768 states \(cap 20000\)"):
        build_general("setpartition", 2, 2, 15000)
    with pytest.raises(CapExceeded, match=r"^graph would need 48620 states \(cap 20000\)"):
        build_general("permutation", 2, 2, 9)


@pytest.mark.parametrize("builder", [build_general, build_quotient])
@pytest.mark.parametrize(
    "family,j,k,r",
    [
        ("setpartition", 2, 2, 3),
        ("setpartition", 3, 3, 2),
        ("permutation", 2, 2, 2),
        ("permutation", 3, 2, 2),
    ],
)
def test_rows_are_sparse_and_match_the_dense_view(builder, family, j, k, r):
    g = builder(family, j, k, r)
    n = g.size
    assert len(g.rows) == n
    assert all(count > 0 for row in g.rows for count in row.values())
    assert all(0 <= b < n for row in g.rows for b in row)
    dense = tuple(tuple(row.get(b, 0) for b in range(n)) for row in g.rows)
    assert g.matrix == dense
    assert all(type(line) is tuple for line in g.matrix)
    mirrored = all(dense[a][b] == dense[b][a] for a in range(n) for b in range(a))
    assert g.is_symmetric() == mirrored


@pytest.mark.parametrize(
    "family,j,k,r",
    sorted({case[:4] for case in DIGESTS}) + [("permutation", 3, 2, 3), ("permutation", 4, 4, 1)],
)
def test_general_graph_matches_the_per_colour_generators(family, j, k, r):
    g = build_general(family, j, k, r)
    rows, labels = full_graph(family, j, k, r)
    if j == k == 2:
        names = {st: "|".join(map(automata._set_name, automata._open_sets(family, st))) for st in rows}
    else:
        names = {st: automata._state_name(family, st) for st in rows}
    index = {name: a for a, name in enumerate(g.states)}
    assert sorted(index[name] for name in names.values()) == list(range(g.size))
    for st, row in rows.items():
        assert g.rows[index[names[st]]] == {index[names[t]]: m for t, m in row.items()}
    if j == k == 2:
        expected = {(index[names[st]], index[names[t]]): tuple(labs) for (st, t), labs in labels.items()}
        assert g.edge_labels == {(a, b): labs for (a, b), labs in expected.items() if b >= a}
    else:
        assert g.edge_labels is None


# --- DOT export -------------------------------------------------------------


def test_dot_output_is_deterministic():
    g = build_setpartition_22(2)
    assert export_dot(g) == export_dot(build_setpartition_22(2))


def test_dot_structure():
    text = export_dot(build_setpartition_22(1))
    assert text.splitlines()[0] == "graph G {"
    assert text.rstrip().endswith("}")
    assert 'n0 [label="{}"];' in text
    assert 'n0 -- n1 [label="1"];' in text
    # one edge line per unit of multiplicity on or above the diagonal
    g = build_setpartition_22(1)
    units = sum(
        g.matrix[i][jdx] for i in range(g.size) for jdx in range(i, g.size)
    )
    edge_lines = [l for l in text.splitlines() if " -- " in l]
    assert len(edge_lines) == units


def test_dot_labels_escape_quotes():
    g = Multigraph(
        family="setpartition",
        j=2,
        k=2,
        colours=1,
        states=('say "hi"',),
        rows=({},),
    )
    assert '\\"hi\\"' in export_dot(g)
