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

`count` and `joint_histogram` walk only the uncoloured objects.  A
colouring is admissible exactly when each colour class is, so `count`
counts each object's admissible colourings by splitting its arcs into
colour classes.  Relabelling colours keeps cr and ne, so `joint_histogram`
scores one colouring per split of the arcs into classes and weights it by
the number of colourings with those classes.  `enumerate_objects` is the
only per-colouring enumerator, the slow reference both are tested against.

Workloads are estimated before a single object is generated: n! * r^n for
permutations, sum over block counts of S(n, b) * r^(n-b) for set
partitions.  Estimates above the cap abort with CapExceeded rather than
sampling, so a passing comparison always means the whole space was
checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _lex_permutations
from itertools import product
from typing import Iterator, Optional

from .diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    JointHistogram,
    _max_crossing,
    _max_nesting,
    colour_slices,
    cr_ne,
    opener_closer_sets,
)
from .errors import CapExceeded

DEFAULT_MAX_OBJECTS = 10_000_000


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate and which filters to apply."""

    family: str
    n: int
    colours: int = 1
    j: Optional[int] = None
    k: Optional[int] = None
    openers: Optional[frozenset[int]] = None
    closers: Optional[frozenset[int]] = None
    max_objects: Optional[int] = None

    def __post_init__(self):
        if self.family not in ("setpartition", "permutation"):
            raise ValueError("family must be 'setpartition' or 'permutation'")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.colours < 1:
            raise ValueError("need at least one colour")
        for bound in (self.j, self.k):
            if bound is not None and bound < 2:
                raise ValueError("bounds j, k must be at least 2")
        for name in ("openers", "closers"):
            vertices = getattr(self, name)
            if vertices is None:
                continue
            vertices = frozenset(vertices)
            for v in sorted(vertices):
                if not 1 <= v <= self.n:
                    raise ValueError(
                        "%s vertex %d is outside 1..%d" % (name, v, self.n)
                    )
            object.__setattr__(self, name, vertices)


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


def _rgs(n: int, limit: int, prefix=(), top=-1) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings of length n with values below `limit`, in
    lexicographic order: each value is at most one more than the largest
    value before it (`top`, over the `prefix` built so far)."""
    if len(prefix) == n:
        yield prefix
        return
    for v in range(min(top + 2, limit)):
        yield from _rgs(n, limit, prefix + (v,), max(top, v))


def _rgs_blocks(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions of [n] via restricted growth strings, lexicographic."""
    for rgs in _rgs(n, n):
        blocks: list[list[int]] = [[] for _ in range(max(rgs, default=-1) + 1)]
        for v, b in enumerate(rgs, start=1):
            blocks[b].append(v)
        yield tuple(tuple(b) for b in blocks)


def _falling(r: int) -> list[int]:
    """falling[b] = r(r-1)...(r-b+1) for b = 0..r: the colourings that give
    b colour classes distinct colours."""
    falling = [1]
    for b in range(r):
        falling.append(falling[-1] * (r - b))
    return falling


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


def _uncoloured(spec: EnumSpec) -> Iterator:
    """(word or blocks, colour slices) of each uncoloured object that passes
    the refinement, in the documented order."""
    n = spec.n
    if spec.family == "permutation":
        words = _lex_permutations(range(1, n + 1))
        objs = ((word, ColouredPermutation(word)) for word in words)
    else:
        objs = ((blocks, ColouredSetPartition(blocks)) for blocks in _rgs_blocks(n))
    for key, obj in objs:
        if _refined(spec, obj):
            yield key, colour_slices(obj)


def _colourings(spec: EnumSpec, slices) -> int:
    """How many r-colourings of one uncoloured object pass the bounds.

    `slices` are the object's one-coloured `colour_slices`: each arc is an
    (enhanced) upper or a plain lower arc.  A colouring passes exactly when
    each colour class does, so the arcs are split into classes by
    backtracking, and a split into b classes stands for the
    r(r-1)...(r-b+1) colourings that give its classes distinct colours.
    Adding arcs never lowers cr or ne, so a class is dropped as soon as its
    upper or its lower arcs reach cr >= j or ne >= k.
    """
    arcs = [(pair, enhanced) for pairs, enhanced in slices for pair in pairs]
    r = spec.colours
    if spec.j is None and spec.k is None:
        return r ** len(arcs)
    side = {True: 0, False: 0}  # the upper and the lower arcs, as bitmasks
    for b, (_, enhanced) in enumerate(arcs):
        side[enhanced] |= 1 << b
    admissible: dict[int, bool] = {}

    def fits(mask: int, enhanced: bool) -> bool:
        ok = admissible.get(mask)
        if ok is None:
            pairs = [arcs[b][0] for b in range(len(arcs)) if mask >> b & 1]
            ok = (spec.j is None or _max_crossing(pairs, enhanced) < spec.j) and (
                spec.k is None or _max_nesting(pairs) < spec.k
            )
            admissible[mask] = ok
        return ok

    falling = _falling(r)
    classes: list[int] = []

    def place(i: int) -> int:
        if i == len(arcs):
            return falling[len(classes)]
        bit, enhanced, total = 1 << i, arcs[i][1], 0
        for c, mask in enumerate(classes):
            if fits((mask | bit) & side[enhanced], enhanced):
                classes[c] = mask | bit
                total += place(i + 1)
                classes[c] = mask
        if len(classes) < r:  # a single arc is never a 2-crossing or 2-nesting
            classes.append(bit)
            total += place(i + 1)
            classes.pop()
        return total

    return place(0)


def count(spec: EnumSpec) -> int:
    """Number of admissible objects.

    Walks the uncoloured objects and counts the colourings of each one
    (`_colourings`); the cap still counts every coloured object.
    """
    _check_cap(spec)
    return sum(_colourings(spec, slices) for _, slices in _uncoloured(spec))


def joint_histogram(spec: EnumSpec) -> JointHistogram:
    """Counts of admissible objects by (cr, ne) pair.

    Walks the uncoloured objects.  Each split of an object's arcs into b
    colour classes is scored once, on its colour word in first-use order,
    and stands for the r(r-1)...(r-b+1) colourings that give its classes
    distinct colours: relabelling colours keeps cr and ne.
    """
    _check_cap(spec)
    make = ColouredPermutation if spec.family == "permutation" else ColouredSetPartition
    falling = _falling(spec.colours)
    hist = JointHistogram()
    for key, slices in _uncoloured(spec):
        narcs = sum(len(pairs) for pairs, _ in slices)
        for word in _rgs(narcs, spec.colours):
            stats = cr_ne(make(key, [c + 1 for c in word]))
            if _bounded(spec, stats):
                hist.add(stats, falling[max(word, default=-1) + 1])
    return hist


def permutation_colouring_counts(
    n: int, colours: int, j: int, k: int, max_objects: Optional[int] = None
) -> dict[tuple[int, ...], int]:
    """For each permutation word of [n], how many of its colourings pass
    the (j, k) bounds (words with none are left out)."""
    spec = EnumSpec(
        family="permutation", n=n, colours=colours, j=j, k=k, max_objects=max_objects
    )
    _check_cap(spec)
    out: dict[tuple[int, ...], int] = {}
    for word, slices in _uncoloured(spec):
        admitted = _colourings(spec, slices)
        if admitted:
            out[word] = admitted
    return out
