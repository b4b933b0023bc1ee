"""The crossing-nesting involution on coloured diagrams.

Both families run through one loop over `diagrams.colour_slices`.  Each
colour's diagram is encoded as a tableau walk (`encode_slice`: hesitating
for the enhanced upper diagram of a permutation, vacillating for a plain
diagram, which is a permutation's lower diagram or a set partition's
diagram), every shape is conjugated, and the walk is decoded into the
image diagram (`involute_slice`).  Because columns of the shapes track
crossings while rows track nestings, conjugation swaps the maximal
crossing and nesting sizes in every colour of every diagram, while the
deletion/insertion pattern (hence the set of openers and of closers) is
untouched.  Applied twice the map is the identity, since conjugation is
an involution and encode/decode invert each other.

The walk is its moves, two per arc: the encoder visits only the
half-steps where an arc opens or closes, conjugation sends each move's
box (r, c) to (c, r), and the decoder undoes those moves alone.  The
library built every move legal, so `validate_sequence` hands them back
without classifying a step, and no shape is ever built.  Only slices of
two or more arcs take the walk: an empty slice has no image arcs, and a
valid one-arc slice is its own image, since its walk adds and removes
the box (0, 0), which conjugation fixes.

The image arcs of all colours become links from a source vertex to a
target vertex: a permutation's upper arc (a, b) sends a to b and its lower
arc sends b to a, while a set partition's arc links a to b.  The links are
written into per-vertex lists, target and colour by source and a mark on
each target; read by source they are the image word and colours, or chain
into the image blocks with their arc colours.

Reassembly is validating, never repairing: if the links fail to combine
into a permutation or set partition (they cannot, unless the encoding
machinery itself is broken), a ConsistencyError is raised.
"""
from __future__ import annotations

from .diagrams import (
    ColouredPermutation,
    ColouredSetPartition,
    colour_slices,
)
from .errors import ConsistencyError
from .tableaux import (
    TableauSequence,
    decode,
    encode_hesitating,
    encode_vacillating,
    transpose_sequence,
)


def encode_slice(pairs, enhanced: bool, n: int) -> TableauSequence:
    """The tableau walk of one `colour_slices` entry: hesitating for an
    enhanced diagram, vacillating for a plain one.

    >>> encode_slice([(1, 4), (3, 3)], True, 6).kind.name
    'HESITATING'
    """
    return (encode_hesitating if enhanced else encode_vacillating)(pairs, n)


def involute_slice(pairs, enhanced: bool, n: int) -> tuple[tuple[int, int], ...]:
    """The image arcs of one `colour_slices` entry, a sequence of pairs.

    A valid one-arc slice of int endpoints is its own image: its walk adds
    the box (0, 0) and removes it again, and (0, 0) is its own conjugate.
    Every other slice goes through the walk, whose encoder refuses a bad
    arc as it always has.

    >>> involute_slice([(2, 5), (4, 6)], True, 6)
    ((2, 6), (4, 5))
    >>> involute_slice([(2, 5)], False, 6)
    ((2, 5),)
    """
    if len(pairs) == 1:
        a, b = pairs[0]
        valid = 1 <= a < b <= n or enhanced and 1 <= a == b <= n
        if valid and type(a) is int and type(b) is int:
            return ((a, b),)
    return decode(transpose_sequence(encode_slice(pairs, enhanced, n)))


def involute(obj):
    """Apply the involution to a coloured permutation or set partition.

    >>> cp = ColouredPermutation.from_text("4 5 3 6 2 1 / 1 2 1 2 2 2")
    >>> involute(cp).to_text()
    '3 6 4 5 1 2 / 1 2 1 2 2 2'
    """
    if not isinstance(obj, (ColouredPermutation, ColouredSetPartition)):
        raise TypeError("expected a coloured permutation or set partition")
    permutation = isinstance(obj, ColouredPermutation)
    per_colour = 2 if permutation else 1  # colour_slices entries per colour
    n = len(obj)
    # per vertex v of 1..n: the target its image arc links it to (0: none),
    # that arc's colour, and whether an image arc links to v
    target = [0] * (n + 1)
    colour = [0] * (n + 1)
    hit = [False] * (n + 1)
    for i, (pairs, enhanced) in enumerate(colour_slices(obj)):
        if not pairs:
            continue
        c = i // per_colour + 1
        flip = permutation and not enhanced
        for a, b in involute_slice(pairs, enhanced, n):
            src, dst = (b, a) if flip else (a, b)
            if not (0 < src <= n and 0 < dst <= n):
                raise ConsistencyError("image arc (%d, %d) leaves 1..%d" % (a, b, n))
            if target[src]:
                raise ConsistencyError("vertex %d starts two arcs" % src)
            if hit[dst]:
                raise ConsistencyError("vertex %d ends two arcs" % dst)
            target[src], colour[src], hit[dst] = dst, c, True
    try:
        if permutation:
            word = target[1:]
            if 0 in word:
                raise ConsistencyError("image arcs leave a vertex untouched")
            return ColouredPermutation(word, colour[1:], obj.num_colours)
        blocks = []
        for v in range(1, n + 1):
            if not hit[v]:  # v starts a block; follow its links
                block = [v]
                while target[block[-1]]:
                    block.append(target[block[-1]])
                blocks.append(block)
        colours = [colour[v] for v in range(1, n + 1) if target[v]]
        return ColouredSetPartition(blocks, colours, obj.num_colours)
    except ValueError as exc:
        raise ConsistencyError(
            "image arcs are not a %s: %s"
            % ("permutation" if permutation else "set partition", exc)
        ) from exc
