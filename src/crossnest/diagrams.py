"""Arc diagrams of coloured permutations and set partitions.

A permutation S of [n] is drawn on vertices 1..n with an upper arc (i, S(i))
whenever S(i) >= i (an upper loop when S(i) = i) and a lower arc (S(i), i)
whenever S(i) < i, so every stored arc is left-endpoint first and fixed
points live above the line.  A set partition of [n] is drawn with an upper
arc joining each pair of consecutive elements of a block.  In a coloured
permutation position i gives its arc the colour of i; a coloured set
partition colours each arc individually.  Arcs are plain (left, right)
tuples everywhere.

Text formats (shared with the command line):

    permutation     "4 5 3 6 2 1 / 1 2 1 2 2 2"     word / colours
    set partition   "{1,3,6},{4,5},{2} / 1 2 1"     blocks / arc colours
    empty partition "{}"

The colour part may be omitted, meaning every arc takes colour 1.  Set
partition arc colours are listed in the order of arcs sorted by left
endpoint.

A k-crossing is a set of k arcs (a_1,b_1),...,(a_k,b_k) with
a_1 < ... < a_k < b_1 < ... < b_k; the enhanced statistic relaxes the
middle inequality to a_k <= b_1, which lets two arcs sharing a vertex
cross.  A k-nesting has a_1 < ... < a_k <= b_k < ... < b_1 (strict
containment; only in the enhanced sense may the innermost arc be a loop).
`cr_ne` of a coloured permutation takes, colour by colour, the enhanced
statistics on the upper diagram and the plain statistics on the lower
diagram, and reports the maxima over all colours and both diagrams; a
coloured set partition uses the plain statistics on its upper diagram.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from enum import Enum


class VertexKind(Enum):
    """How a vertex of a permutation diagram meets its two arcs."""

    FIXED_POINT = "fixed_point"
    OPENER = "opener"
    CLOSER = "closer"
    UPPER_TRANSITORY = "upper_transitory"
    LOWER_TRANSITORY = "lower_transitory"


def _integers(text: str, what: str) -> list[int]:
    """The whitespace-separated integers of `text`, naming a bad token."""
    values = []
    for tok in text.split():
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError("%s %r is not an integer" % (what, tok)) from None
    return values


def _split_colours(text: str) -> tuple[str, list[int] | None]:
    """Split diagram text into its body and colours (None without a "/")."""
    body, slash, colour_part = text.partition("/")
    if "/" in colour_part:
        raise ValueError("diagram text may contain only one '/'")
    return body, (_integers(colour_part, "colour") if slash else None)


FAMILIES = ("setpartition", "permutation")


def check_family(family: str, colours: int, j=None, k=None) -> None:
    """The one rule for what a family of coloured diagrams may be asked
    for: a known family, at least one colour and bounds j, k of at least 2
    where given."""
    if family not in FAMILIES:
        raise ValueError("family must be 'setpartition' or 'permutation'")
    if colours < 1:
        raise ValueError("need at least one colour")
    if (j is not None and j < 2) or (k is not None and k < 2):
        raise ValueError("bounds j, k must be at least 2")


def _checked_colours(colours, num_colours, slots: int, mismatch: str):
    """The checked (colours, num_colours) of a diagram with `slots` colour
    slots: a tuple of one 1-based colour per slot, all 1 when `colours` is
    None, and `num_colours`, by default the largest colour used.  A wrong
    colour count raises ValueError(`mismatch`), which may name the slot
    count as %(slots)d."""
    colours = (1,) * slots if colours is None else tuple(colours)
    if len(colours) != slots:
        raise ValueError(mismatch % {"slots": slots})
    if colours and min(colours) < 1:
        raise ValueError("colours are 1-based")
    top = max(colours) if colours else 1
    if num_colours is None:
        return colours, top
    if num_colours < top:
        raise ValueError("num_colours smaller than a used colour")
    return colours, num_colours


class _Value:
    """The value core of the library's record types: immutable, and
    compared, hashed and shown by the constructor fields its class lists
    in `_fields`, shown in keyword form: ``Series(coeffs=(1, 2))``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._values())

    def __repr__(self) -> str:
        shown = ("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__name__, ", ".join(shown))


class _Diagram(_Value):
    """The value core of both diagram types, shown positionally."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._values())))


class ColouredPermutation(_Diagram):
    """A permutation of [n] in one-line notation, with a colour in 1..r for
    every position; without colours it is the uncoloured permutation.

    >>> cp = ColouredPermutation.from_text("4 5 3 6 2 1 / 1 2 1 2 2 2")
    >>> cp.num_colours
    2
    >>> cp.to_text()
    '4 5 3 6 2 1 / 1 2 1 2 2 2'
    >>> ColouredPermutation((2, 1, 3)).colours
    (1, 1, 1)
    """

    _fields = __slots__ = ("word", "colours", "num_colours")

    def __init__(self, word, colours=None, num_colours=None):
        word = tuple(word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..n: %r" % (word,))
        colours, num_colours = _checked_colours(
            colours, num_colours, n, "need one colour per position"
        )
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "colours", colours)
        object.__setattr__(self, "num_colours", num_colours)

    def __len__(self) -> int:
        return len(self.word)

    @classmethod
    def from_text(cls, text: str) -> "ColouredPermutation":
        word_part, colours = _split_colours(text)
        return cls(_integers(word_part, "word entry"), colours)

    def to_text(self) -> str:
        word = " ".join(str(v) for v in self.word)
        cols = " ".join(str(c) for c in self.colours)
        return "%s / %s" % (word, cols)


# the separator between blocks in set partition text: "},{" with optional spaces
_BLOCK_SEP = re.compile(r"\}\s*,\s*\{")


class ColouredSetPartition(_Diagram):
    """A set partition of [n] with a colour for each consecutive-pair arc.

    Blocks are kept sorted internally (each block increasing, blocks by
    least element); arc colours are aligned with ``arcs()``, which lists
    arcs sorted by left endpoint.

    >>> sp = ColouredSetPartition.from_text("{1,3,6},{4,5},{2}")
    >>> sp.arcs()
    [(1, 3), (3, 6), (4, 5)]
    >>> ColouredSetPartition([]).to_text()
    '{}'
    """

    _fields = ("blocks", "arc_colours", "num_colours")
    __slots__ = _fields + ("n",)

    def __init__(self, blocks, arc_colours=None, num_colours=None):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            members = set(b)
            if len(members) < len(b):
                twice = next(x for x, y in zip(b, b[1:]) if x == y)
                raise ValueError("vertex %d appears twice in a block" % twice)
            if seen & members:
                raise ValueError("blocks are not disjoint")
            seen |= members
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise ValueError("blocks must partition 1..n")
        arc_colours, num_colours = _checked_colours(
            arc_colours, num_colours, n - len(blocks),
            "need one colour per arc (%(slots)d arcs)",
        )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arc_colours", arc_colours)
        object.__setattr__(self, "num_colours", num_colours)

    def __len__(self) -> int:
        return self.n

    def arcs(self) -> list[tuple[int, int]]:
        """The (left, right) arcs sorted by left endpoint, aligned with
        ``arc_colours``."""
        pairs = []
        for b in self.blocks:
            for x, y in zip(b, b[1:]):
                pairs.append((x, y))
        pairs.sort()
        return pairs

    @classmethod
    def from_text(cls, text: str) -> "ColouredSetPartition":
        block_part, colours = _split_colours(text)
        block_part = block_part.strip()
        blocks = []
        if block_part and block_part != "{}":  # "{}" is the empty set partition
            if not (block_part.startswith("{") and block_part.endswith("}")):
                raise ValueError("set partition text must be {..},{..} blocks")
            inner = block_part[1:-1]
            for chunk in _BLOCK_SEP.split(inner):
                if not chunk.strip():
                    raise ValueError("empty block {} in set partition text")
                if any(len(tok.split()) != 1 for tok in chunk.split(",")):
                    raise ValueError(
                        "block {%s} must list vertices separated by commas" % chunk.strip()
                    )
                blocks.append(_integers(chunk.replace(",", " "), "vertex"))
        return cls(blocks, colours)

    def to_text(self) -> str:
        blocks = ",".join("{%s}" % ",".join(str(v) for v in b) for b in self.blocks)
        if not blocks:
            return "{}"
        if self.arc_colours:
            return "%s / %s" % (blocks, " ".join(str(c) for c in self.arc_colours))
        return blocks


def parse_diagram(text: str):
    """Parse either text format, deciding by the presence of block braces."""
    if not text or text.isspace():
        raise ValueError("empty diagram text")
    if "{" in text:
        return ColouredSetPartition.from_text(text)
    return ColouredPermutation.from_text(text)


# ---------------------------------------------------------------------------
# vertex classification


def vertex_kind(p: ColouredPermutation, i: int) -> VertexKind:
    """Classify vertex i of a permutation by its outgoing/incoming arcs.

    >>> p = ColouredPermutation((4, 5, 3, 6, 2, 1))
    >>> [vertex_kind(p, i).name for i in (1, 3, 4, 5)]
    ['OPENER', 'FIXED_POINT', 'UPPER_TRANSITORY', 'CLOSER']
    """
    return _classify(i, p.word[i - 1], p.word.index(i) + 1)


def _classify(i: int, out: int, inc: int) -> VertexKind:
    """The kind of vertex i, given its image `out` and preimage `inc`."""
    if out == i:
        return VertexKind.FIXED_POINT
    if out > i and inc > i:
        return VertexKind.OPENER
    if out < i and inc < i:
        return VertexKind.CLOSER
    if out > i:  # and inc < i: passes through above the line
        return VertexKind.UPPER_TRANSITORY
    return VertexKind.LOWER_TRANSITORY


def _vertices_of_kind(p: ColouredPermutation, kind: VertexKind) -> frozenset[int]:
    inverse = [0] * (len(p) + 1)
    for i, out in enumerate(p.word, start=1):
        inverse[out] = i
    return frozenset(
        i
        for i, out in enumerate(p.word, start=1)
        if _classify(i, out, inverse[i]) is kind
    )


def openers(p: ColouredPermutation) -> frozenset[int]:
    """Vertices that only start arcs (both neighbours to the right)."""
    return _vertices_of_kind(p, VertexKind.OPENER)


def closers(p: ColouredPermutation) -> frozenset[int]:
    """Vertices that only end arcs (both neighbours to the left)."""
    return _vertices_of_kind(p, VertexKind.CLOSER)


def arc_start_vertices(arcs) -> frozenset[int]:
    """Left endpoints of an arc list (loops count as starts)."""
    return frozenset(a for a, _ in arcs)


def arc_end_vertices(arcs) -> frozenset[int]:
    return frozenset(b for _, b in arcs)


def opener_closer_sets(obj) -> tuple[frozenset[int], frozenset[int]]:
    """The (openers, closers) of a permutation, or the arc start and end
    vertex sets of a set partition; the involution keeps both.

    >>> opener_closer_sets(ColouredSetPartition.from_text("{1,3,6},{4,5},{2}"))
    (frozenset({1, 3, 4}), frozenset({3, 5, 6}))
    """
    if isinstance(obj, ColouredSetPartition):
        pairs = obj.arcs()
        return arc_start_vertices(pairs), arc_end_vertices(pairs)
    return openers(obj), closers(obj)


# ---------------------------------------------------------------------------
# crossing / nesting statistics


def _pairs(arcs, allow_loops: bool) -> list[tuple[int, int]]:
    pairs = []
    for a, b in arcs:
        if not (1 <= a <= b):
            raise ValueError("bad arc endpoints (%d, %d)" % (a, b))
        if a == b and not allow_loops:
            raise ValueError("loop (%d, %d) in a plain diagram" % (a, b))
        pairs.append((a, b))
    return pairs


def _longest_rising(values) -> int:
    """Length of the longest strictly increasing subsequence, by patience
    sorting: `tails[i]` is the least last value of a rise of length i + 1.

    >>> _longest_rising([3, 1, 4, 1, 5, 9, 2, 6])
    4
    """
    tails: list[int] = []
    for v in values:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def max_crossing(arcs, enhanced: bool = False) -> int:
    """Size of the largest crossing among the arcs (0 for no arcs).

    Arcs with strictly increasing lefts and rights that all span one right
    end s (enhanced: left <= s <= right; plain: left < s <= right) form a
    crossing, and every crossing spans its first arc's right end.  So the
    sweep takes, for each right end s, the longest rise in the rights of
    the arcs spanning s, with the arcs in (left, -right) order so that two
    arcs with one left end never both join a rise.

    >>> max_crossing([(1, 4), (2, 5), (3, 6)])
    3
    >>> max_crossing([(1, 3), (2, 5), (4, 7)])   # pairwise but not mutual
    2
    >>> max_crossing([(1, 3), (3, 5)]), max_crossing([(1, 3), (3, 5)], enhanced=True)
    (1, 2)
    """
    return _max_crossing(_pairs(arcs, allow_loops=enhanced), enhanced)


def _max_crossing(pairs: list[tuple[int, int]], enhanced: bool) -> int:
    """`max_crossing` of pairs that are already valid for the reading."""
    if len(pairs) < 2:
        return len(pairs)
    pairs = sorted(pairs, key=lambda p: (p[0], -p[1]))
    shift = 0 if enhanced else 1
    best = 1
    for _, s in pairs:
        active = [b for a, b in pairs if a + shift <= s <= b]
        if len(active) > best:
            best = max(best, _longest_rising(active))
    return best


def max_nesting(arcs, enhanced: bool = False) -> int:
    """Size of the largest nesting among the arcs (0 for no arcs).

    A nesting is a chain with rising lefts and falling rights, so it is the
    longest rise in the negated rights of the arcs in (left, right) order;
    equal lefts then come with falling negated rights and never both join.

    >>> max_nesting([(1, 6), (2, 5), (3, 4)])
    3
    >>> max_nesting([(1, 3), (2, 2)], enhanced=True)
    2
    """
    return _max_nesting(_pairs(arcs, allow_loops=enhanced))


def _max_nesting(pairs: list[tuple[int, int]]) -> int:
    """`max_nesting` of pairs that are already valid for the reading."""
    return _longest_rising(-b for _, b in sorted(pairs))


def colour_slices(obj) -> list[tuple[list[tuple[int, int]], bool]]:
    """Per-colour diagrams as (pairs, enhanced) entries, in colour order:
    a permutation's enhanced upper and plain lower diagram for each colour,
    or a set partition's plain diagram for each colour.  Lower pairs come
    in order of right endpoint, the others of left endpoint.

    >>> colour_slices(ColouredPermutation.from_text("2 1 3 / 1 1 2"))
    [([(1, 2)], True), ([(1, 2)], False), ([(3, 3)], True), ([], False)]
    """
    if isinstance(obj, ColouredPermutation):
        # entry 2c is colour c + 1's upper diagram, entry 2c + 1 its lower one
        slices = [([], upper) for _ in range(obj.num_colours) for upper in (True, False)]
        for i, (out, colour) in enumerate(zip(obj.word, obj.colours), start=1):
            if out >= i:
                slices[2 * colour - 2][0].append((i, out))
            else:
                slices[2 * colour - 1][0].append((out, i))
        return slices
    if isinstance(obj, ColouredSetPartition):
        per: list[list[tuple[int, int]]] = [[] for _ in range(obj.num_colours)]
        for (a, b), c in zip(obj.arcs(), obj.arc_colours):
            per[c - 1].append((a, b))
        return [(pairs, False) for pairs in per]
    raise TypeError("expected a coloured permutation or set partition")


def cr_ne(obj) -> tuple[int, int]:
    """The largest monochromatic crossing and nesting anywhere in the
    object, (cr, ne), in one slicing pass.  `obj` may also be a list of
    `colour_slices` entries, which are scored as they stand, unchecked.

    >>> cr_ne(ColouredPermutation.from_text("4 5 3 6 2 1 / 1 2 1 2 2 2"))
    (2, 2)
    >>> cr_ne(ColouredPermutation((1, 2, 3)))
    (1, 1)
    >>> cr_ne([([(1, 3), (3, 5)], True), ([(1, 4), (2, 3)], False)])
    (2, 2)
    """
    c = n = 0
    for pairs, enhanced in obj if isinstance(obj, list) else colour_slices(obj):
        c = max(c, _max_crossing(pairs, enhanced))
        n = max(n, _max_nesting(pairs))
    return (c, n)


class JointHistogram:
    """Counts of objects by their (cr, ne) value pair."""

    __slots__ = ("counts",)

    def __init__(self, counts=None):
        self.counts: dict[tuple[int, int], int] = dict(counts or {})

    def add(self, key: tuple[int, int], amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def total(self) -> int:
        return sum(self.counts.values())

    def is_symmetric(self) -> bool:
        """Whether swapping cr and ne leaves every count unchanged."""
        return all(
            count == self.counts.get((n, c), 0)
            for (c, n), count in self.counts.items()
        )

    def rows(self) -> list[tuple[int, int, int]]:
        return [(c, n, self.counts[(c, n)]) for c, n in sorted(self.counts)]

    def __eq__(self, other) -> bool:
        return isinstance(other, JointHistogram) and self.counts == other.counts

    def __repr__(self) -> str:
        return "JointHistogram(%r)" % (self.counts,)
