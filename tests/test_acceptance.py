"""Acceptance gate: exact end-to-end checks with wall-clock budgets.

Every expected value here is either taken from the published reference
data (see crossnest.published) or recomputed by the exhaustive oracle
inside the test itself.  All comparisons are exact.
"""
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest

from _reference import det_cofactor
from crossnest import (
    EnumSpec,
    IntPoly,
    build_general,
    build_permutation_22,
    build_setpartition_22,
    gf_from_graph,
    involute,
    series,
    series_by_power,
    split_linear_factors,
)
from crossnest import oracle
from crossnest.diagrams import cr_ne, opener_closer_sets
from crossnest.errors import CapExceeded
from crossnest.published import (
    INVOLUTION_EXAMPLE_IMAGE,
    INVOLUTION_EXAMPLE_INPUT,
    INVOLUTION_EXAMPLE_SEQUENCES,
    PERMUTATION_FACTOR_SLOPES,
    PERMUTATION_GF,
    PERMUTATION_SERIES,
    SETPARTITION_GF,
    SETPARTITION_SERIES,
    TABLEAU_EXAMPLES,
)
from crossnest.ratfunc import det
from crossnest.tableaux import (
    decode,
    encode_hesitating,
    encode_semioscillating,
    encode_vacillating,
)


def _finish(started: float, budget: float, message: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, "took %.1fs, budget %.0fs" % (elapsed, budget)
    print("PASS %s (%.2fs, budget %.0fs)" % (message, elapsed, budget))


def test_criterion_1_setpartition_generating_functions():
    started = time.perf_counter()
    for r, (num, den) in sorted(SETPARTITION_GF.items()):
        rf = gf_from_graph(build_setpartition_22(r))
        assert rf.num.coeffs == num, "numerator differs at r=%d" % r
        assert rf.den.coeffs == den, "denominator differs at r=%d" % r
    _finish(started, 5, "set partition generating functions r=1..4")


def test_criterion_2_setpartition_series():
    started = time.perf_counter()
    for r, prefix in sorted(SETPARTITION_SERIES.items()):
        rf = gf_from_graph(build_setpartition_22(r))
        got = series(rf, 8).coeffs
        assert got == prefix[:8], "series differs at r=%d" % r
    _finish(started, 1, "set partition series to size 8, r=1..4")


def test_criterion_3_permutation_generating_functions():
    started = time.perf_counter()
    for r in (2, 3, 4):
        rf = gf_from_graph(build_permutation_22(r))
        num, den = PERMUTATION_GF[r]
        assert rf.num.coeffs == num, "numerator differs at r=%d" % r
        assert rf.den.coeffs == den, "denominator differs at r=%d" % r
        assert split_linear_factors(rf.den) == (1, PERMUTATION_FACTOR_SLOPES[r])
    _finish(started, 10, "permutation generating functions r=2..4")


def test_criterion_4_permutation_series_and_colouring_counts():
    started = time.perf_counter()
    for r in (2, 3, 4):
        rf = gf_from_graph(build_permutation_22(r))
        got = series(rf, 8).coeffs
        assert got == PERMUTATION_SERIES[r][:8], "series differs at r=%d" % r
    # the size-4 value 224 for two colours, recomputed per permutation
    spec = EnumSpec("permutation", 4, colours=2, j=2, k=2)
    per_word = Counter(obj.word for obj in oracle.enumerate_objects(spec))
    assert sorted(per_word.values()) == [4] * 8 + [8] * 8 + [16] * 8
    assert sum(per_word.values()) == 224 == PERMUTATION_SERIES[2][4] == oracle.count(spec)
    _finish(started, 5, "permutation series to size 7 and the 224 breakdown")


def test_criterion_5_oracle_matches_transfer_graphs():
    started = time.perf_counter()
    for r, top in ((1, 8), (2, 8)):
        walks = series_by_power(build_setpartition_22(r), top).coeffs
        for n in range(top + 1):
            got = oracle.count(EnumSpec("setpartition", n, r, j=2, k=2))
            want = 1 if n == 0 else walks[n - 1]
            assert got == want, "setpartition r=%d n=%d: %d != %d" % (
                r, n, got, want,
            )
    for r, top in ((1, 7), (2, 7)):
        walks = series_by_power(build_permutation_22(r), top + 1).coeffs
        for n in range(top + 1):
            got = oracle.count(EnumSpec("permutation", n, r, j=2, k=2))
            assert got == walks[n], "permutation r=%d n=%d: %d != %d" % (
                r, n, got, walks[n],
            )
    walks = series_by_power(build_general("setpartition", 3, 3, 1), 8).coeffs
    for n in range(1, 9):
        got = oracle.count(EnumSpec("setpartition", n, 1, j=3, k=3))
        assert got == walks[n - 1], "bound (3,3) n=%d: %d != %d" % (
            n, got, walks[n - 1],
        )
    _finish(started, 180, "exhaustive counts match transfer graph walks")


def test_criterion_6_involution_suite():
    started = time.perf_counter()
    cases = [("permutation", n, 1) for n in range(7)]
    cases += [("setpartition", n, 1) for n in range(7)]
    cases += [("permutation", n, 2) for n in range(6)]
    cases += [("setpartition", n, 2) for n in range(6)]
    for family, n, r in cases:
        for obj in oracle.enumerate_objects(EnumSpec(family, n, colours=r)):
            image = involute(obj)
            c, e = cr_ne(obj)
            assert cr_ne(image) == (e, c), obj
            assert involute(image) == obj, obj
            assert opener_closer_sets(image) == opener_closer_sets(obj), obj
    # refined noncrossing = nonnesting over every opener/closer pair on [4]
    for family in ("permutation", "setpartition"):
        noncrossing: dict = {}
        nonnesting: dict = {}
        for obj in oracle.enumerate_objects(EnumSpec(family, 4, colours=2)):
            key = opener_closer_sets(obj)
            c, e = cr_ne(obj)
            if c < 2:
                noncrossing[key] = noncrossing.get(key, 0) + 1
            if e < 2:
                nonnesting[key] = nonnesting.get(key, 0) + 1
        subsets = [
            frozenset(s)
            for size in range(5)
            for s in combinations(range(1, 5), size)
        ]
        for ovs, cvs in product(subsets, repeat=2):
            assert noncrossing.get((ovs, cvs), 0) == nonnesting.get(
                (ovs, cvs), 0
            ), (family, sorted(ovs), sorted(cvs))
    # the worked example maps to its published image, exactly
    from crossnest.diagrams import parse_diagram

    got = involute(parse_diagram(INVOLUTION_EXAMPLE_INPUT)).to_text()
    assert got == INVOLUTION_EXAMPLE_IMAGE
    _finish(started, 120, "involution swaps statistics and fixes the refinement")


def _singletons_as_loops(sp) -> list[tuple[int, int]]:
    """The enhanced view of a one-coloured set partition: its arcs, plus a
    loop at each singleton block."""
    return sorted(sp.arcs() + [(b[0], b[0]) for b in sp.blocks if len(b) == 1])


def test_criterion_7_tableau_goldens_and_round_trip():
    started = time.perf_counter()
    encoders = {
        "semioscillating": encode_semioscillating,
        "vacillating": encode_vacillating,
        "hesitating": encode_hesitating,
    }
    for example in TABLEAU_EXAMPLES:
        seq = encoders[example["kind"]](example["arcs"], example["n"])
        assert seq.shapes == example["shapes"], example["kind"]
        assert seq.fillings == example["fillings"], example["kind"]
    for (colour, side), data in sorted(INVOLUTION_EXAMPLE_SEQUENCES.items()):
        encode = encode_hesitating if side == "upper" else encode_vacillating
        seq = encode(data["arcs"], 6)
        assert seq.shapes == data["shapes"], (colour, side)
        assert seq.fillings == data["fillings"], (colour, side)
    # decode(encode(...)) is the identity on every diagram with up to 8 points
    for n in range(9):
        for obj in oracle.enumerate_objects(EnumSpec("setpartition", n)):
            plain = obj.arcs()
            assert sorted(decode(encode_vacillating(plain, n))) == sorted(plain)
            enhanced = _singletons_as_loops(obj)
            assert sorted(decode(encode_hesitating(enhanced, n))) == sorted(
                enhanced
            )
            if all(len(b) <= 2 for b in obj.blocks):
                assert sorted(decode(encode_semioscillating(plain, n))) == sorted(
                    plain
                )
    _finish(started, 30, "golden tableau walks and decode/encode identity")


def test_criterion_8_determinants_and_series_agree():
    started = time.perf_counter()
    rng = random.Random(20260823)
    for _ in range(1000):
        n = rng.randint(0, 5)
        mat = [
            [
                IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 3))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert det(mat) == det_cofactor(mat)
    graphs = [build_setpartition_22(r) for r in (1, 2, 3, 4)]
    graphs += [build_permutation_22(r) for r in (1, 2, 3, 4)]
    graphs += [
        build_general("setpartition", 2, 2, r) for r in (1, 2, 3)
    ]
    graphs += [build_general("permutation", 2, 2, r) for r in (1, 2)]
    graphs += [
        build_general("setpartition", 3, 3, 1),
        build_general("setpartition", 2, 3, 2),
        build_general("setpartition", 3, 2, 2),
        build_general("permutation", 3, 3, 1),
        build_general("permutation", 3, 2, 1),
    ]
    for g in graphs:
        a = series(gf_from_graph(g), 12).coeffs
        b = series_by_power(g, 12).coeffs
        assert a == b, (g.family, g.j, g.k, g.colours, g.builder)
    _finish(started, 60, "determinant methods and series methods agree")


def test_scale_limits_and_guards():
    """The largest cases that run, and the first that the caps refuse."""
    started = time.perf_counter()
    rf = gf_from_graph(build_setpartition_22(7))
    first = series(rf, 4).coeffs
    # size 3 by hand: 49 + 21 + 1; size 4 by the oracle below
    assert first == (1, 8, 71, 715)
    assert oracle.count(EnumSpec("setpartition", 4, 7, j=2, k=2)) == 715
    with pytest.raises(CapExceeded):
        gf_from_graph(build_setpartition_22(8))  # 256 states > 200
    with pytest.raises(CapExceeded):
        gf_from_graph(build_permutation_22(5))  # 252 states > 200
    # matrix powers still work past the determinant cap; the size-4 count
    # of r-coloured diagrams is r^3 + 7r^2 + 4r + 1 (checked at r=7 above)
    big = series_by_power(build_setpartition_22(8), 4).coeffs
    assert big == (1, 9, 89, 993)
    _finish(started, 30, "scale limits: r=7/r=4 compute, r=8/r=5 are refused")
