"""Slow reference paths, kept for the tests only.

`validate_sequence` here is the two-pass validator the library replaced:
it checks every shape with `is_partition_shape`, then classifies every
step with `_shape_step`, from scratch.  `decode` classifies the steps a
second time, `transpose_sequence` conjugates every shape and goes through
the normalising `TableauSequence` constructor, and `involute_slice` chains
them as the library's involution does.  The library's fast paths must
agree with these on every input.

`record_fillings` is the recording walk the encoders used when every
sequence stored its fillings: it runs straight from the arcs and keeps
the tableau after every half-step, which the derived
`TableauSequence.fillings` must reproduce.

`max_crossing_exhaustive` and `max_nesting_exhaustive` try every subset
of the arcs against the definitions of a crossing and a nesting; the
sweep and the longest rise behind `diagrams.max_crossing` and
`diagrams.max_nesting` must give the same sizes.  `is_ncn` is the bound
filter by definition: it looks for a j-crossing or a k-nesting among the
j- and k-subsets of each colour slice, where the oracle bounds `cr_ne`.

`det_cofactor` is the exponential cofactor expansion that the
fraction-free `ratfunc.det` must match, and `gf_by_minor` is the
two-determinant generating function det((I - xA) minor at 0) /
det(I - xA) that `ratfunc.gf_from_graph` replaced with one determinant
and the walk series.  `split_linear_factors` trial-divides by every
divisor of the leading coefficient, with no bound on the slopes.

`_setpartition_moves` and `_permutation_moves` are the per-colour move
generators the builders used before states became count vectors: a state
is a tuple of shapes, one per colour, and every move rebuilds it with
`_put`.  `search` runs them breadth first from the empty state under any
key: with the identity it reaches the full graph's states (`full_graph`
adds the j = k = 2 labels), and with `_canonical` (every shape keyed, then
sorted) it is the sorted-tuple search `keyed_quotient` that
`automata.build_quotient` must agree with.  `colour_quotient` is the
quotient by colour permutations alone (S_r), one relabelling for a
permutation's upper and lower colours together.
"""
from itertools import combinations
from math import isqrt
from typing import Optional

from crossnest.automata import Multigraph, _corners, _start_state
from crossnest.diagrams import _pairs, colour_slices
from crossnest.errors import ConsistencyError
from crossnest.ratfunc import ONE, IntPoly, RationalFunction, det_identity_minus_x
from crossnest.tableaux import (
    TableauSequence,
    _delete_min_rows,
    _insert_rows,
    _undelete_rows,
    _uninsert_rows,
    conjugate,
    encode_hesitating,
    encode_vacillating,
    is_partition_shape,
)


def _shape_step(prev, cur):
    """Classify one step: ('same', None), ('add', cell) or ('remove', cell)."""
    if prev == cur:
        return ("same", None)
    if sum(cur) == sum(prev) + 1:
        longer, shorter, tag = cur, prev, "add"
    elif sum(cur) == sum(prev) - 1:
        longer, shorter, tag = prev, cur, "remove"
    else:
        raise ValueError("consecutive shapes differ by more than one box")
    for r in range(len(longer)):
        s = shorter[r] if r < len(shorter) else 0
        if longer[r] != s:
            if longer[r] != s + 1 or longer[:r] != shorter[:r]:
                raise ValueError("consecutive shapes differ by more than one box")
            if shorter[r + 1 :] != longer[r + 1 :]:
                raise ValueError("consecutive shapes differ by more than one box")
            return (tag, (r, s))
    raise ValueError("shapes unexpectedly equal")


def validate_sequence(seq):
    """Raise ValueError unless the shape sequence fits its declared kind;
    return the steps the second pass classified."""
    shapes = seq.shapes
    if seq.n < 0:
        raise ValueError("n must be nonnegative")
    steps = seq.kind.half_steps
    per_vertex = len(steps)
    if len(shapes) != per_vertex * seq.n + 1:
        raise ValueError(
            "expected %d shapes for %s on %d vertices, got %d"
            % (per_vertex * seq.n + 1, seq.kind.value, seq.n, len(shapes))
        )
    for s in shapes:
        if not is_partition_shape(s):
            raise ValueError("not a partition shape: %r" % (s,))
    if shapes[0] != () or shapes[-1] != ():
        raise ValueError("sequences must start and end empty")
    classified = []
    for i in range(1, len(shapes)):
        tag, cell = _shape_step(shapes[i - 1], shapes[i])
        if (steps[(i - 1) % per_vertex], tag) in (("close", "add"), ("open", "remove")):
            change, parity = "grow" if tag == "add" else "shrink", "odd" if i % 2 else "even"
            raise ValueError(
                "%s shapes may not %s at %s step %d" % (seq.kind.value, change, parity, i)
            )
        classified.append((tag, cell))
    return classified


def decode(seq):
    """Recover the arc list, classifying every step again after validation."""
    validate_sequence(seq)
    steps = seq.kind.half_steps
    per_vertex = len(steps)
    loops = steps[0] == "open"
    shapes = seq.shapes
    rows = []
    arcs = []
    for i in range(len(shapes) - 1, 0, -1):
        v = (i + per_vertex - 1) // per_vertex
        tag, cell = _shape_step(shapes[i - 1], shapes[i])
        if tag == "same":
            continue
        if tag == "add":
            label = _uninsert_rows(rows, cell)
            if label < v or (label == v and not loops):
                raise ConsistencyError(
                    "%s walk opens an arc (%d, %d)" % (seq.kind.value, v, label)
                )
            arcs.append((v, label))
        else:
            _undelete_rows(rows, cell, v)
    if rows:
        raise ConsistencyError("decode must drain the tableau")
    return tuple(sorted(arcs))


def transpose_sequence(seq):
    """Conjugate every shape, repeats included, through the public constructor."""
    return TableauSequence(seq.kind, seq.n, tuple(conjugate(s) for s in seq.shapes))


def record_fillings(kind, arcs, n):
    """The filling after every half-step of the `kind` walk of `arcs` over
    vertices 1..n, the empty start included."""
    opens = {a: b for a, b in arcs}
    closes = {b for _, b in arcs}
    rows = []
    filling = ()
    trail = [filling]
    for v in range(1, n + 1):
        for step in kind.half_steps:
            if step != "open" and v in closes:
                _delete_min_rows(rows)
                filling = tuple(map(tuple, rows))
            elif step != "close" and v in opens:
                _insert_rows(rows, opens[v])
                filling = tuple(map(tuple, rows))
            trail.append(filling)
    return tuple(trail)


def involute_slice(pairs, enhanced, n):
    """The image arcs of one `colour_slices` entry, by the reference chain."""
    encode = encode_hesitating if enhanced else encode_vacillating
    return decode(transpose_sequence(encode(pairs, n)))


def max_crossing_exhaustive(arcs, enhanced: bool = False) -> int:
    """The largest crossing, found by checking every subset of the arcs."""
    pairs = _pairs(arcs, allow_loops=enhanced)
    return max(
        (len(sub) for sub in _subsets(pairs) if _is_crossing(sub, enhanced)), default=0
    )


def max_nesting_exhaustive(arcs, enhanced: bool = False) -> int:
    """The largest nesting, found by checking every subset of the arcs."""
    pairs = _pairs(arcs, allow_loops=enhanced)
    return max((len(sub) for sub in _subsets(pairs) if _is_nesting(sub)), default=0)


def _subsets(pairs):
    for mask in range(1, 1 << len(pairs)):
        yield [p for i, p in enumerate(pairs) if mask >> i & 1]


def _is_crossing(sub, enhanced: bool) -> bool:
    sub = sorted(sub)
    lefts = [a for a, _ in sub]
    rights = [b for _, b in sub]
    if any(x >= y for x, y in zip(lefts, lefts[1:])):
        return False
    if any(x >= y for x, y in zip(rights, rights[1:])):
        return False
    if enhanced:
        return lefts[-1] <= rights[0]
    return lefts[-1] < rights[0]


def _is_nesting(sub) -> bool:
    sub = sorted(sub, key=lambda p: (p[0], -p[1]))
    lefts = [a for a, _ in sub]
    rights = [b for _, b in sub]
    if any(x >= y for x, y in zip(lefts, lefts[1:])):
        return False
    return all(x > y for x, y in zip(rights, rights[1:]))


def is_ncn(obj, j: int, k: int) -> bool:
    """True when no colour slice of `obj` holds a j-crossing or a k-nesting.

    Every subset of a crossing or a nesting is one too, so it is enough to
    try the subsets of exactly j and k arcs."""
    if j < 2 or k < 2:
        raise ValueError("bounds j, k must be at least 2")
    for pairs, enhanced in colour_slices(obj):
        if any(_is_crossing(sub, enhanced) for sub in combinations(pairs, j)):
            return False
        if any(_is_nesting(sub) for sub in combinations(pairs, k)):
            return False
    return True


def det_cofactor(matrix) -> IntPoly:
    """Cofactor expansion along the first row; exponential in the size."""
    m = [[IntPoly._coerce(entry) for entry in row] for row in matrix]
    n = len(m)
    if n == 0:
        return ONE
    if n == 1:
        return m[0][0]
    total = IntPoly()
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in m[1:]]
        term = m[0][c] * det_cofactor(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


def gf_by_minor(g) -> RationalFunction:
    """The closed-walk generating function at state 0 of `g` as the ratio
    of two determinants: the minor of I - xA at state 0 over I - xA."""
    mat = g.matrix
    minor = [row[1:] for row in mat[1:]]
    return RationalFunction(det_identity_minus_x(minor), det_identity_minus_x(mat))


def split_linear_factors(p):
    """Constant and sorted slopes of p = constant * prod(1 - m*x), or None,
    trying every divisor of the leading coefficient as a slope."""
    if p.is_zero():
        return None
    work = p
    slopes = []
    while work.degree() >= 1:
        lead = abs(work.coeffs[-1])
        divs = set()
        for d in range(1, isqrt(lead) + 1):
            if lead % d == 0:
                divs.update((d, lead // d))
        for m in (s for d in sorted(divs) for s in (d, -d)):
            total = 0
            for c in work.coeffs:
                total = total * m + c
            if total == 0:
                work = work.exact_div(IntPoly([1, -m]))
                slopes.append(m)
                break
        else:
            return None
    return (work.coeffs[0], tuple(sorted(slopes)))


def _put(shapes, c, shape):
    return shapes[:c] + (shape,) + shapes[c + 1 :]


def _setpartition_moves(st, j, k):
    """(target, label) for each gap move from shape tuple `st`, one per
    edge.  The label is the classic one at j = k = 2 and None otherwise."""
    grow, shrink, _ = _corners(j, k)
    labelled = j == k == 2
    yield st, "x" if labelled else None  # gap with no arc
    for c, lam in enumerate(st):
        label = str(c + 1) if labelled else None
        for grown in grow[lam]:
            opened = _put(st, c, grown)
            yield opened, label  # plain opener
            # same-colour open-then-close across the gap
            for back in shrink[grown]:
                yield _put(st, c, back), label
            # open c, close another colour
            for c2, other in enumerate(st):
                if c2 != c:
                    for back in shrink[other]:
                        yield _put(opened, c2, back), _pair_label("", c, c2, labelled)
        for back in shrink[lam]:
            yield _put(st, c, back), label


def _permutation_moves(state, j, k):
    """(target, label) for each vertex move from (upper, lower) shape
    tuples, one per edge; labels as for `_setpartition_moves`.  All upper
    composites come before any lower one, the classic self-loop order."""
    grow, shrink, _ = _corners(j, k)
    labelled = j == k == 2
    u, low = state
    r = len(u)
    u_grow = [grow[s] for s in u]
    u_shrink = [shrink[s] for s in u]
    low_grow = [grow[s] for s in low]
    low_shrink = [shrink[s] for s in low]
    # upper composite: insert, then delete from the grown shape
    for c in range(r):
        for grown in u_grow[c]:
            for back in shrink[grown]:
                yield (_put(u, c, back), low), str(c + 1) if labelled else None
    # lower composite: delete, then re-insert
    for c in range(r):
        for shrunk in low_shrink[c]:
            for back in grow[shrunk]:
                yield (u, _put(low, c, back)), "%dt" % (c + 1) if labelled else None
    # cross-colour transitories
    for c in range(r):
        for a in u_grow[c]:
            grown = _put(u, c, a)
            for c2 in range(r):
                if c2 != c:
                    for b in u_shrink[c2]:
                        yield (_put(grown, c2, b), low), _pair_label("u", c, c2, labelled)
        for a in low_grow[c]:
            grown = _put(low, c, a)
            for c2 in range(r):
                if c2 != c:
                    for b in low_shrink[c2]:
                        yield (u, _put(grown, c2, b)), _pair_label("o", c, c2, labelled)
    # openers and closers: one upper and one lower corner
    for upper, lower in ((u_grow, low_grow), (u_shrink, low_shrink)):
        for cu in range(r):
            for a in upper[cu]:
                new_u = _put(u, cu, a)
                for cl in range(r):
                    for b in lower[cl]:
                        label = "%d%d" % (cu + 1, cl + 1) if labelled else None
                        yield (new_u, _put(low, cl, b)), label


def _pair_label(prefix: str, c: int, c2: int, labelled: bool) -> Optional[str]:
    """A label naming two 0-based colours, 1-based and in increasing order."""
    if not labelled:
        return None
    return "%s%d%d" % (prefix, min(c, c2) + 1, max(c, c2) + 1)


_MOVES = {"setpartition": _setpartition_moves, "permutation": _permutation_moves}


def _canonical(family: str, st, key: Optional[dict]):
    """The orbit representative: every shape keyed, then sorted."""
    if family == "setpartition":
        return tuple(sorted(st if key is None else map(key.__getitem__, st)))
    return tuple(tuple(sorted(h if key is None else map(key.__getitem__, h))) for h in st)


def search(family, j, k, r, key):
    """A breadth-first search from the empty state over `key(state)`s: the
    representatives, and for each a `{index: count}` row of its moves."""
    start = _start_state(family, r)
    reps, index, rows = [start], {start: 0}, []
    for rep in reps:
        row = {}
        for t, _ in _MOVES[family](rep, j, k):
            t = key(t)
            if t not in index:
                index[t] = len(reps)
                reps.append(t)
            row[index[t]] = row.get(index[t], 0) + 1
        rows.append(row)
    return reps, rows


def full_graph(family, j, k, r):
    """The full graph by the per-colour generators, keyed by shape tuples:
    each state's `{target: count}` row, and the labels of the moves from
    each state to each target in the order the generator yields them."""
    rows, labels = {}, {}
    for st in search(family, j, k, r, lambda st: st)[0]:
        row = rows[st] = {}
        for t, label in _MOVES[family](st, j, k):
            row[t] = row.get(t, 0) + 1
            labels.setdefault((st, t), []).append(label)
    return rows, labels


def keyed_quotient(family, j, k, r):
    """The symmetry quotient by the sorted-tuple search: every shape
    keyed, then sorted within its half."""
    key = _corners(j, k)[2]
    reps, rows = search(family, j, k, r, lambda st: _canonical(family, st, key))
    return Multigraph(family, j, k, r, tuple(map(repr, reps)), tuple(rows), "quotient")


def colour_quotient(family, j, k, r):
    """The quotient by colour permutations: per-colour parts sorted, an
    (upper, lower) pair of shapes being one part for permutations."""
    if family == "setpartition":
        reps, rows = search(family, j, k, r, lambda st: tuple(sorted(st)))
    else:
        reps, rows = search(family, j, k, r, lambda st: tuple(zip(*sorted(zip(*st)))))
    return Multigraph(family, j, k, r, tuple(map(repr, reps)), tuple(rows), "quotient")

