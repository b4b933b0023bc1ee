"""Slow reference paths, kept for the tests only.

`validate_sequence` here is the two-pass validator the library replaced:
it checks every shape with `is_partition_shape`, then classifies every
step with `_shape_step`, from scratch.  `decode` classifies the steps a
second time, `transpose_sequence` conjugates every shape and goes through
the normalising `TableauSequence` constructor, and `involute_slice` chains
them as the library's involution does.  The library's fast paths must
agree with these on every input.

`det_cofactor` is the exponential cofactor expansion that the
fraction-free `ratfunc.det` must match, and `gf_by_minor` is the
two-determinant generating function det((I - xA) minor at 0) /
det(I - xA) that `ratfunc.gf_from_graph` replaced with one determinant
and the walk series.
"""
from crossnest.errors import ConsistencyError
from crossnest.ratfunc import ONE, IntPoly, RationalFunction, det_identity_minus_x
from crossnest.tableaux import (
    PartialTableau,
    TableauSequence,
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
    if seq.fillings is not None:
        if len(seq.fillings) != len(shapes):
            raise ValueError("need one filling per shape")
        for rows, shape in zip(seq.fillings, shapes):
            if PartialTableau(rows).shape != shape:
                raise ValueError("filling does not match its shape")
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
    return TableauSequence(seq.kind, seq.n, tuple(conjugate(s) for s in seq.shapes), None)


def involute_slice(pairs, enhanced, n):
    """The image arcs of one `colour_slices` entry, by the reference chain."""
    encode = encode_hesitating if enhanced else encode_vacillating
    return decode(transpose_sequence(encode(pairs, n)))


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
