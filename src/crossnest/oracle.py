"""Brute-force enumeration of coloured diagrams, used as ground truth.

The enumeration order is deterministic and documented: permutations come
from `itertools.permutations` (lexicographic one-line words) with colour
words counting up in base r (last position fastest); set partitions follow
lexicographic restricted-growth strings, with arc colour words counting up
the same way over the arcs sorted by left endpoint.

Every spec carries bound and refinement filters, all optional:

* j, k restrict to objects with cr < j and ne < k;
* openers/closers keep only objects whose opener set (and closer set) is
  exactly the given vertex set — for permutations these are the strict
  opener/closer vertices, for set partitions the arc start/end vertex sets.

`count` and `joint_histogram` walk only the uncoloured objects, through
one shared walk (`_splits`).  A colouring is admissible exactly when each
colour class is, and relabelling colours keeps cr and ne, so the walk
splits each object's arcs into at most r colour classes by backtracking;
a split into b classes stands for the r(r-1)...(r-b+1) colourings that
give its classes distinct colours.  The running (cr, ne) is the maximum
over the classes' upper and lower arcs.  The cr and ne of one side of a
class depend only on its set of arcs, so one table per call, keyed by
that set, scores each distinct set by `cr_ne` once, whichever objects it
occurs in.  Adding an arc never lowers the running pair, so a branch is
dropped as soon as it breaks a bound.  `joint_histogram` is the walk's
count per (cr, ne) pair; `count` is their sum, or r^arcs per object
without bounds.  `enumerate_objects` is the only per-colouring
enumerator, the slow reference both are tested against.

Workloads are estimated before a single object is generated: n! * r^n for
permutations, sum over block counts of S(n, b) * r^(n-b) for set
partitions.  Estimates above the cap abort with CapExceeded rather than
sampling, so a passing comparison always means the whole space was
checked.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import permutations as _lex_permutations
from itertools import product

from .diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    JointHistogram,
    _Value,
    check_family,
    colour_slices,
    cr_ne,
    opener_closer_sets,
)
from .errors import CapExceeded

DEFAULT_MAX_OBJECTS = 10_000_000


class EnumSpec(_Value):
    """What to enumerate and which filters to apply."""

    _fields = __slots__ = (
        "family", "n", "colours", "j", "k", "openers", "closers", "max_objects"
    )

    def __init__(
        self,
        family: str,
        n: int,
        colours: int = 1,
        j: int | None = None,
        k: int | None = None,
        openers: frozenset[int] | None = None,
        closers: frozenset[int] | None = None,
        max_objects: int | None = None,
    ):
        check_family(family, colours, j, k)
        if n < 0:
            raise ValueError("n must be nonnegative")
        if max_objects is not None and max_objects < 0:
            raise ValueError("max_objects must be nonnegative")
        if openers is not None:
            openers = _vertices("openers", openers, n)
        if closers is not None:
            closers = _vertices("closers", closers, n)
        values = (family, n, colours, j, k, openers, closers, max_objects)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def _vertices(name: str, vertices, n: int) -> frozenset[int]:
    """`vertices` as a frozenset, checked to lie in 1..n."""
    vertices = frozenset(vertices)
    for v in sorted(vertices):
        if not 1 <= v <= n:
            raise ValueError("%s vertex %d is outside 1..%d" % (name, v, n))
    return vertices


def workload(spec: EnumSpec) -> int:
    """Exact number of raw objects the enumeration would visit."""
    n, r = spec.n, spec.colours
    if spec.family == "permutation":
        total = 1
        for i in range(2, n + 1):
            total *= i
        return total * r**n
    stirling = [1] + [0] * n  # S(0, b)
    for _ in range(n):
        nxt = [0] * (n + 1)
        for b in range(n):
            if stirling[b]:
                nxt[b + 1] += stirling[b]
                nxt[b] += stirling[b] * b
        stirling = nxt  # S(m+1, b) = S(m, b-1) + b*S(m, b)
    return sum(stirling[b] * r ** (n - b) for b in range(n + 1))


def _check_cap(spec: EnumSpec) -> None:
    cap = DEFAULT_MAX_OBJECTS if spec.max_objects is None else spec.max_objects
    need = workload(spec)
    if need > cap:
        raise CapExceeded(
            "enumeration needs %d objects (cap %d); refusing to sample" % (need, cap)
        )


def _admits(spec: EnumSpec, obj) -> bool:
    if (spec.j is not None or spec.k is not None) and not _bounded(spec, cr_ne(obj)):
        return False
    return _refined(spec, obj)


def _bounded(spec: EnumSpec, stats: tuple[int, int]) -> bool:
    """Whether (cr, ne) passes the spec's bounds, cr < j and ne < k."""
    c, n = stats
    return (spec.j is None or c < spec.j) and (spec.k is None or n < spec.k)


def _refined(spec: EnumSpec, obj) -> bool:
    """Whether the object has the spec's exact opener and closer sets;
    these do not depend on the colours."""
    if spec.openers is not None or spec.closers is not None:
        ovs, cvs = opener_closer_sets(obj)
        if spec.openers is not None and ovs != spec.openers:
            return False
        if spec.closers is not None and cvs != spec.closers:
            return False
    return True


def _rgs(n: int, prefix=(), top=-1) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n in lexicographic order: each
    value is at most one more than the largest value before it (`top`,
    over the `prefix` built so far)."""
    if len(prefix) == n:
        yield prefix
        return
    for v in range(top + 2):
        yield from _rgs(n, prefix + (v,), max(top, v))


def _rgs_blocks(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of [n] via restricted growth strings, lexicographic."""
    for rgs in _rgs(n):
        blocks: list[list[int]] = [[] for _ in range(max(rgs, default=-1) + 1)]
        for v, b in enumerate(rgs, start=1):
            blocks[b].append(v)
        yield tuple(tuple(b) for b in blocks)


def enumerate_objects(spec: EnumSpec) -> Iterator:
    """Stream the admissible objects in the documented order, each offering
    the spec's r colours."""
    _check_cap(spec)
    n, r = spec.n, spec.colours
    if spec.family == "permutation":
        for word in _lex_permutations(range(1, n + 1)):
            for cols in product(range(1, r + 1), repeat=n):
                obj = ColouredPermutation(word, cols, r)
                if _admits(spec, obj):
                    yield obj
        return
    for blocks in _rgs_blocks(n):
        narcs = sum(len(b) - 1 for b in blocks)
        for cols in product(range(1, r + 1), repeat=narcs):
            obj = ColouredSetPartition(blocks, cols, r)
            if _admits(spec, obj):
                yield obj


def _uncoloured(spec: EnumSpec) -> Iterator[list]:
    """The colour slices of each uncoloured object that passes the
    refinement, in the documented order."""
    n = spec.n
    if spec.family == "permutation":
        objs = map(ColouredPermutation, _lex_permutations(range(1, n + 1)))
    else:
        objs = map(ColouredSetPartition, _rgs_blocks(n))
    for obj in objs:
        if _refined(spec, obj):
            yield colour_slices(obj)


def _splits(spec: EnumSpec) -> dict[tuple[int, int], int]:
    """How many r-colourings of the uncoloured objects pass the bounds, by
    (cr, ne).

    Each object's one-coloured `colour_slices` make every arc an
    (enhanced) upper or a plain lower arc.  The arcs are split into at
    most r colour classes by backtracking, and a leaf with b classes adds
    r(r-1)...(r-b+1).  The running (cr, ne) is the maximum over the
    classes' upper and lower arcs.  A side's cr and ne depend only on its
    set of arcs, not on the object around it, so a class is carried as
    that set, an integer over all n^2 upper and n^2 lower arcs, and one
    table for the call scores each distinct set once through `cr_ne`.
    Adding an arc never lowers cr or ne, so a branch is dropped as soon
    as the running pair reaches cr >= j or ne >= k.
    """
    n, r = spec.n, spec.colours
    # cr and ne never exceed the n arcs, so a missing bound is n + 1
    j = n + 1 if spec.j is None else spec.j
    k = n + 1 if spec.k is None else spec.k
    falling = [1]  # falling[b] = r(r-1)...(r-b+1), for b up to the n arcs
    for b in range(min(r, n)):
        falling.append(falling[-1] * (r - b))
    upper = (1 << n * n) - 1  # arc (a, b) is bit (a-1)n + b-1, lower arcs n^2 up
    out: dict[tuple[int, int], int] = {}
    scores: dict[int, tuple[int, int]] = {}  # arc set of one side -> its (cr, ne)
    classes: list[int] = []  # the arc set of each colour class

    def place(i: int, cr: int, ne: int) -> None:
        if i == len(arcs):
            key = (cr, ne)
            out[key] = out.get(key, 0) + falling[len(classes)]
            return
        bit, side, _ = arcs[i]
        for c, mask in enumerate(classes):
            grown = (mask | bit) & side
            stats = scores.get(grown)
            if stats is None:
                pairs = [pair for arc_bit, _, pair in arcs[: i + 1] if grown & arc_bit]
                stats = scores[grown] = cr_ne([(pairs, side == upper)])
            grown_cr = stats[0] if stats[0] > cr else cr
            grown_ne = stats[1] if stats[1] > ne else ne
            if grown_cr < j and grown_ne < k:
                classes[c] = mask | bit
                place(i + 1, grown_cr, grown_ne)
                classes[c] = mask
        if len(classes) < r:  # a single arc is never a 2-crossing or 2-nesting
            classes.append(bit)
            place(i + 1, cr or 1, ne or 1)
            classes.pop()

    for slices in _uncoloured(spec):
        arcs = []  # per arc of the object: its bit, the bits of its side, its pair
        for pairs, enhanced in slices:
            shift = 0 if enhanced else n * n
            arcs += [(1 << shift + (a - 1) * n + b - 1, upper << shift, (a, b))
                     for a, b in pairs]
        place(0, 0, 0)
    del place  # it reaches itself through its closure; freeing it frees the table
    return out


def count(spec: EnumSpec) -> int:
    """Number of admissible objects.

    Without bounds each uncoloured object has r^arcs colourings, in all
    `workload(spec)` unrefined; with them, the colour-class walk of
    `_splits` counts them.  The cap still counts every coloured object.
    """
    _check_cap(spec)
    if spec.j is None and spec.k is None:
        if spec.openers is None and spec.closers is None:
            return workload(spec)
        r = spec.colours
        return sum(
            r ** sum(len(pairs) for pairs, _ in slices) for slices in _uncoloured(spec)
        )
    return sum(_splits(spec).values())


def joint_histogram(spec: EnumSpec) -> JointHistogram:
    """Counts of admissible objects by (cr, ne) pair, from the colour-class
    walk of `_splits`."""
    _check_cap(spec)
    return JointHistogram(_splits(spec))
