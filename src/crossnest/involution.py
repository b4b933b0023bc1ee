"""The crossing-nesting involution on coloured diagrams.

Colour by colour, the upper diagram of a permutation is encoded as a
hesitating tableau sequence and the lower diagram as a vacillating one;
conjugating every shape and decoding yields the image diagrams, and the
image arcs of all colours reassemble into a permutation.  Because columns
of the shapes track crossings while rows track nestings, conjugation swaps
the maximal crossing and nesting sizes in every colour of every diagram,
while the deletion/insertion pattern (hence the set of openers and of
closers) is untouched.  Applied twice the map is the identity, since
conjugation is an involution and encode/decode invert each other.

Set partitions work the same way with a single vacillating sequence per
colour.

Reassembly is validating, never repairing: if the image arcs of the colour
classes fail to combine into a bijection (they cannot, unless the encoding
machinery itself is broken), a ConsistencyError is raised.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    Permutation,
    colour_slices,
)
from .errors import ConsistencyError
from .tableaux import (
    decode,
    encode_hesitating,
    encode_vacillating,
    transpose_sequence,
)


@dataclass(frozen=True)
class ColourClassSlice:
    """One colour's share of a permutation diagram."""

    colour: int
    n: int
    upper: tuple[tuple[int, int], ...]  # enhanced: loops allowed
    lower: tuple[tuple[int, int], ...]  # plain


def slice_by_colour(cp: ColouredPermutation) -> tuple[ColourClassSlice, ...]:
    """Split a coloured permutation into per-colour upper/lower arc lists.

    >>> cp = ColouredPermutation.from_text("4 5 3 6 2 1 / 1 2 1 2 2 2")
    >>> slice_by_colour(cp)[0]
    ColourClassSlice(colour=1, n=6, upper=((1, 4), (3, 3)), lower=())
    """
    slices = colour_slices(cp)
    return tuple(
        ColourClassSlice(c, len(cp), tuple(sorted(upper)), tuple(sorted(lower)))
        for c, ((upper, _), (lower, _)) in enumerate(
            zip(slices[0::2], slices[1::2]), start=1
        )
    )


def involute_slice(s: ColourClassSlice) -> ColourClassSlice:
    """Transpose one colour class (upper hesitating, lower vacillating)."""
    upper = decode(transpose_sequence(encode_hesitating(s.upper, s.n)))
    lower = decode(transpose_sequence(encode_vacillating(s.lower, s.n)))
    return ColourClassSlice(s.colour, s.n, upper, lower)


def _recombine(n: int, slices) -> ColouredPermutation:
    word = [0] * n
    colours = [0] * n
    incoming = [0] * n
    for s in slices:
        # an upper arc (a, b) sends a to b, a lower one sends b to a
        for src, dst in s.upper + tuple((b, a) for a, b in s.lower):
            if word[src - 1]:
                raise ConsistencyError("vertex %d starts two arcs" % src)
            word[src - 1] = dst
            colours[src - 1] = s.colour
            if incoming[dst - 1]:
                raise ConsistencyError("vertex %d ends two arcs" % dst)
            incoming[dst - 1] = src
    if 0 in word or 0 in incoming:
        raise ConsistencyError("image arcs leave a vertex untouched")
    try:
        return ColouredPermutation(word, colours)
    except ValueError as exc:
        raise ConsistencyError("image arcs are not a permutation: %s" % exc) from exc


def _involute_permutation(cp: ColouredPermutation) -> ColouredPermutation:
    slices = [involute_slice(s) for s in slice_by_colour(cp)]
    image = _recombine(len(cp), slices)
    return ColouredPermutation(image.word, image.colours, cp.num_colours)


def _involute_set_partition(sp: ColouredSetPartition) -> ColouredSetPartition:
    n = len(sp)
    image: list[tuple[tuple[int, int], int]] = []
    for c, (pairs, _) in enumerate(colour_slices(sp), start=1):
        for arc in decode(transpose_sequence(encode_vacillating(pairs, n))):
            image.append((arc, c))
    image.sort()
    # chain the arcs back into blocks
    succ: dict[int, int] = {}
    has_pred: set[int] = set()
    for (a, b), _ in image:
        if a in succ or b in has_pred:
            raise ConsistencyError("image arcs do not chain into blocks")
        succ[a] = b
        has_pred.add(b)
    blocks = []
    for v in range(1, n + 1):
        if v in has_pred:
            continue
        block = [v]
        while block[-1] in succ:
            block.append(succ[block[-1]])
        blocks.append(block)
    try:
        return ColouredSetPartition(
            blocks, [c for _, c in image], sp.num_colours
        )
    except ValueError as exc:
        raise ConsistencyError("image arcs are not a set partition: %s" % exc) from exc


def involute(obj):
    """Apply the involution to a coloured permutation or set partition.

    >>> cp = ColouredPermutation.from_text("4 5 3 6 2 1 / 1 2 1 2 2 2")
    >>> involute(cp).to_text()
    '3 6 4 5 1 2 / 1 2 1 2 2 2'
    """
    if isinstance(obj, Permutation):
        obj = ColouredPermutation(obj)
    if isinstance(obj, ColouredPermutation):
        return _involute_permutation(obj)
    if isinstance(obj, ColouredSetPartition):
        return _involute_set_partition(obj)
    raise TypeError("expected a coloured permutation or set partition")
