"""Exact polynomial arithmetic, determinants and series extraction."""
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import det_cofactor, gf_by_minor
from _reference import split_linear_factors as unbounded_split
from crossnest.automata import Multigraph, build_permutation_22, build_setpartition_22
from crossnest import ratfunc
from crossnest.errors import CapExceeded, ConsistencyError
from crossnest.ratfunc import (
    ONE,
    IntPoly,
    RationalFunction,
    X,
    charpoly,
    det,
    det_identity_minus_x,
    gf_from_graph,
    lump,
    poly_gcd,
    series,
    series_by_power,
    split_linear_factors,
)

coeffs = st.lists(st.integers(-9, 9), max_size=5)
polys = coeffs.map(IntPoly)


# --- ring structure ---------------------------------------------------------


def test_trailing_zeros_stripped():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()
    assert IntPoly().is_zero()
    assert IntPoly([0]).degree() == -1


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + IntPoly() == a
    assert a * ONE == a
    assert a - a == IntPoly()


def _evaluate(p: IntPoly, x: int) -> int:
    """p(x) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@given(polys, st.integers(-10, 10))
def test_evaluation_is_a_homomorphism(p, x):
    assert _evaluate(p * p, x) == _evaluate(p, x) ** 2
    assert _evaluate(p + ONE, x) == _evaluate(p, x) + 1


def test_to_text():
    assert IntPoly([1, -4, 1]).to_text() == "1 - 4*x + x^2"
    assert IntPoly([0, 0, -3]).to_text() == "-3*x^2"
    assert IntPoly().to_text() == "0"
    assert (X * X).to_text() == "x^2"


@given(polys, polys)
def test_exact_division_round_trip(a, b):
    if b.is_zero():
        return
    assert (a * b).exact_div(b) == a


def test_exact_division_failure():
    with pytest.raises(ValueError):
        IntPoly([1, 1]).exact_div(IntPoly([2]))
    with pytest.raises(ZeroDivisionError):
        IntPoly([1]).exact_div(IntPoly())


@given(polys, polys)
@settings(max_examples=200)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    for p in (a, b):
        if not p.is_zero():
            p.exact_div(g)  # raises if g is not a divisor


def test_gcd_of_known_factorisation():
    a = IntPoly([1, -2]) * IntPoly([1, -6])
    b = IntPoly([1, -2]) * IntPoly([1, 3])
    # normal form has a positive leading coefficient: -(1 - 2x)
    assert poly_gcd(a, b) == IntPoly([-1, 2])


# --- determinants -----------------------------------------------------------


def _poly_matrix(draw, n):
    return [
        [draw(st.lists(st.integers(-5, 5), max_size=3).map(IntPoly)) for _ in range(n)]
        for _ in range(n)
    ]


@given(st.data(), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_bareiss_matches_cofactor(data, n):
    mat = _poly_matrix(data.draw, n)
    assert det(mat) == det_cofactor(mat)


def test_singular_matrix():
    z = IntPoly()
    assert det([[z, z], [z, z]]) == z
    assert det([]) == ONE  # empty minor of a one-state graph


@given(st.integers(1, 20), st.data())
@settings(max_examples=40, deadline=None)
def test_charpoly_path_matches_bareiss(n, data):
    """det(I - xA) via the modular characteristic polynomial equals the
    fraction-free computation, on both sides of the size cutover."""
    mat = [
        [data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)
    ]
    assert det_identity_minus_x(mat) == _bareiss_identity_minus_x(mat)


def _bareiss_identity_minus_x(mat):
    n = len(mat)
    return det(
        [
            [IntPoly([1 if r == c else 0, -mat[r][c]]) for c in range(n)]
            for r in range(n)
        ]
    )


@given(st.integers(5, 12), st.data())
@settings(max_examples=40, deadline=None)
def test_charpoly_with_many_primes_matches_bareiss(n, data):
    """Entries up to 2^70 make the modulus a product of 6 to 15 primes."""
    big = st.integers(-(2**70), 2**70)
    mat = [[data.draw(big) for _ in range(n)] for _ in range(n)]
    assert det_identity_minus_x(mat) == _bareiss_identity_minus_x(mat)


def _spy_on_charpoly_mod(monkeypatch):
    """Record the modulus of every `_charpoly_mod` call, and whether the
    call returned."""
    calls = []
    reduce = ratfunc._charpoly_mod

    def spy(mat, m):
        calls.append([m, False])
        out = reduce(mat, m)
        calls[-1][1] = True
        return out

    monkeypatch.setattr(ratfunc, "_charpoly_mod", spy)
    return calls


def test_charpoly_takes_one_pass(monkeypatch):
    calls = _spy_on_charpoly_mod(monkeypatch)
    mat = build_permutation_22(4).matrix
    n = len(mat)
    charpoly(mat)
    norm_sq = max(sum(row[c] ** 2 for row in mat) for c in range(n))
    assert len(calls) == 1 and calls[0][1]
    assert calls[0][0] > 2 * (2 + isqrt(norm_sq)) ** n


def test_a_pivot_that_is_not_a_unit_retries_on_fresh_primes(monkeypatch):
    """The first pivot is the first prime itself: nonzero modulo the
    product of the primes, but not a unit there."""
    calls = _spy_on_charpoly_mod(monkeypatch)
    mat = [
        [1, 2, 0, 1, 3],
        [next(ratfunc._primes()), 1, 1, 0, 2],
        [0, 3, 1, 1, 0],
        [1, 0, 2, 1, 1],
        [2, 1, 0, 3, 1],
    ]
    got = det_identity_minus_x(mat)
    assert [done for _, done in calls] == [False, True]
    (first, _), (second, _) = calls
    assert first % mat[1][0] == 0 and gcd(first, second) == 1
    assert got == _bareiss_identity_minus_x(mat)


def test_charpoly_known_values():
    assert charpoly([[2]]) == IntPoly([-2, 1])
    # companion matrix of y^2 - y - 1
    assert charpoly([[0, 1], [1, 1]]) == IntPoly([-1, -1, 1])
    assert charpoly([]) == ONE


@pytest.mark.parametrize(
    "mat",
    [
        [[1, 2]],
        [[0] * 6 for _ in range(5)],  # five rows of six
        [[0] * 5 for _ in range(4)] + [[0] * 4],  # ragged, 5 rows
        [[0, 0], [0]],  # ragged, 2 rows
        [[0] * 3 for _ in range(4)],  # four rows of three
    ],
)
def test_non_square_matrix_is_refused(mat):
    with pytest.raises(ValueError, match="matrix must be square"):
        charpoly(mat)
    with pytest.raises(ValueError, match="matrix must be square"):
        det_identity_minus_x(mat)


# --- rational functions and series ------------------------------------------


def test_rational_function_reduces():
    rf = RationalFunction(IntPoly([2, 2]), IntPoly([2, 0, -2]))
    assert rf.num == ONE
    assert rf.den == IntPoly([1, -1])


def test_rational_function_sign_convention():
    rf = RationalFunction(IntPoly([1]), IntPoly([-1, 2]))
    assert rf.den.coeffs[0] > 0


def test_series_of_known_gf():
    rf = RationalFunction(IntPoly([1, -1]), IntPoly([1, -3, 1]))
    assert series(rf, 6).coeffs == (1, 2, 5, 13, 34, 89)


@given(st.lists(st.integers(-6, 6), max_size=4), st.lists(st.integers(-6, 6), max_size=4))
@settings(max_examples=200)
def test_series_satisfies_recurrence(num, den):
    den = [1] + den
    rf = RationalFunction(IntPoly(num), IntPoly(den))
    out = series(rf, 10).coeffs
    # n-th coefficient of num = sum_i den_i * out_(n-i)
    for t in range(10):
        lhs = rf.num.coeffs[t] if t < len(rf.num.coeffs) else 0
        rhs = sum(
            rf.den.coeffs[i] * out[t - i]
            for i in range(min(t, len(rf.den.coeffs) - 1) + 1)
        )
        assert lhs == rhs


@pytest.mark.parametrize(
    "build,r", [(build_setpartition_22, 3), (build_permutation_22, 3)]
)
def test_series_matches_matrix_powers(build, r):
    g = build(r)
    assert series(gf_from_graph(g), 12).coeffs == series_by_power(g, 12).coeffs


def _graph(dense) -> Multigraph:
    """A one-colour graph with the given dense adjacency."""
    return Multigraph(
        family="setpartition",
        j=2,
        k=2,
        colours=1,
        states=tuple("s%d" % i for i in range(len(dense))),
        rows=tuple({c: m for c, m in enumerate(row) if m} for row in dense),
    )


@st.composite
def _symmetric_graphs(draw):
    n = draw(st.integers(1, 6))
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            rows[a][b] = rows[b][a] = draw(st.integers(0, 3))
    return _graph(rows)


@st.composite
def _square_graphs(draw):
    """Any square graph of 1-8 states with edge counts 0-3, most of them
    not symmetric."""
    n = draw(st.integers(1, 8))
    return _graph([[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(n)])


@given(_symmetric_graphs())
@settings(max_examples=150, deadline=None)
def test_series_matches_matrix_powers_on_random_graphs(g):
    assert series(gf_from_graph(g), 12) == series_by_power(g, 12)


@st.composite
def _planted_equitable_graphs(draw):
    """A random small quotient Q blown up into cells: state 0 alone in cell
    0, then cells of 1-3 states each, interleaved; every member of cell X
    spreads Q[X][Y] edges over the members of cell Y in any way.  So the
    cells form an equitable partition that keeps state 0 alone."""
    q = draw(st.integers(1, 4))
    quotient = [[draw(st.integers(0, 3)) for _ in range(q)] for _ in range(q)]
    sizes = [1] + [draw(st.integers(1, 3)) for _ in range(q - 1)]
    rest = draw(st.permutations(range(1, sum(sizes))))
    members = [[0]]
    for size in sizes[1:]:
        members.append(sorted(rest[:size]))
        rest = rest[size:]
    dense = [[0] * sum(sizes) for _ in range(sum(sizes))]
    for x, cell in enumerate(members):
        for a in cell:
            for y, target in enumerate(members):
                for _ in range(quotient[x][y]):
                    dense[a][draw(st.sampled_from(target))] += 1
    return _graph(dense), q


@given(_square_graphs())
@settings(max_examples=150, deadline=None)
def test_gf_matches_the_minor_determinant(g):
    assert gf_from_graph(g) == gf_by_minor(g)


@given(_planted_equitable_graphs())
@settings(max_examples=150, deadline=None)
def test_gf_of_a_lumpable_graph_matches_the_minor_determinant(planted):
    g, q = planted
    cells = lump(g)
    assert cells[0] == 0 and 0 not in cells[1:]
    assert len(set(cells)) <= q  # no coarser than the planted cells
    assert gf_from_graph(g) == gf_by_minor(g)


def test_gf_takes_one_determinant(monkeypatch):
    sizes = []
    full = ratfunc.det_identity_minus_x

    def counting(mat):
        sizes.append(len(mat))
        return full(mat)

    monkeypatch.setattr(ratfunc, "det_identity_minus_x", counting)
    # one determinant, of the lumped graph: 8 states lump to 4 cells, 6 to 3
    for g, cells in ((build_setpartition_22(3), 4), (build_permutation_22(2), 3), (_graph([[1]]), 1)):
        del sizes[:]
        gf_from_graph(g)
        assert sizes == [cells] == [len(set(lump(g)))]


def test_gf_of_a_graph_with_no_states_is_refused():
    with pytest.raises(ValueError, match="no states"):
        gf_from_graph(_graph([]))


def test_gf_state_cap():
    n = 201
    g = _graph([(0,) * n for _ in range(n)])
    with pytest.raises(CapExceeded):
        gf_from_graph(g)
    assert gf_from_graph(g, max_states=n).num == ONE


# --- factor splitting -------------------------------------------------------


def test_non_monic_charpoly_is_a_consistency_error(monkeypatch):
    n = 5  # past the direct-elimination size (4), so the charpoly path runs
    monkeypatch.setattr(ratfunc, "charpoly", lambda mat: IntPoly([1] * n + [2]))
    with pytest.raises(ConsistencyError, match="not monic"):
        det_identity_minus_x([[0] * n for _ in range(n)])


def test_split_linear_factors():
    p = IntPoly([1, -2]) * IntPoly([1, -6])
    assert split_linear_factors(p) == (1, (2, 6))
    assert split_linear_factors(IntPoly([1, -3, 1])) is None
    assert split_linear_factors(IntPoly([5])) == (5, ())
    assert split_linear_factors(IntPoly([1, 2])) == (1, (-2,))
    assert split_linear_factors(IntPoly([0, 1])) is None  # x has no constant
    assert split_linear_factors(IntPoly([1, 0, 1])) is None  # sum of squares -2


def test_split_tries_only_slopes_the_squares_allow(monkeypatch):
    """30! leads the product, about 1.6e16 divisor trials unbounded; the
    sum of squares 9455 allows slopes up to 97 only."""
    candidates = ratfunc._divisor_candidates
    bounds, tried = [], []

    def counted(n, bound):
        bounds.append(bound)
        got = list(candidates(n, bound))
        assert all(n % d == 0 and abs(d) <= bound for d in got)
        tried.extend(got)
        return iter(got)

    monkeypatch.setattr(ratfunc, "_divisor_candidates", counted)
    p = ONE
    for m in range(1, 31):
        p = p * IntPoly([1, -m])
    assert split_linear_factors(p) == (1, tuple(range(1, 31)))
    assert len(bounds) == 30 and max(bounds) == 97
    assert sum(bounds) <= 30 * 97 and len(tried) <= 30 * 2 * 97


@given(
    st.integers(-6, 6).filter(bool),
    st.lists(st.integers(-12, 12).filter(bool), max_size=5),
    st.lists(st.integers(-9, 9), max_size=3),
)
@settings(max_examples=300)
def test_split_matches_the_unbounded_reference(constant, slopes, extra):
    p = IntPoly([constant]) * IntPoly(extra or [1])
    for m in slopes:
        p = p * IntPoly([1, -m])
    assert split_linear_factors(p) == unbounded_split(p)


@given(st.lists(st.integers(-8, 8).filter(bool), min_size=1, max_size=4))
@settings(max_examples=150)
def test_split_recovers_planted_slopes(slopes):
    p = ONE
    for m in slopes:
        p = p * IntPoly([1, -m])
    got = split_linear_factors(p)
    assert got is not None
    constant, found = got
    assert constant == 1
    assert sorted(found) == sorted(slopes)
