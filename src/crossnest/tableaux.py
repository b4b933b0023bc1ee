"""Tableau walks encoding arc diagrams.

A partial standard Young tableau holds distinct positive labels, strictly
increasing along rows and down columns.  Walking an arc diagram left to
right through one tableau produces a sequence of shapes, all starting and
ending empty; the flavour of the walk depends on the diagram kind:

* semi-oscillating (one step per vertex, for partial matchings): an opener
  inserts the label of its future partner, a closer deletes its own label,
  an isolated vertex does nothing;
* vacillating (two half-steps per vertex, for plain diagrams): the first
  half-step deletes the vertex's own label if an arc ends here, the second
  inserts the partner label if an arc starts here — so shapes may shrink at
  odd steps and grow at even steps;
* hesitating (two half-steps per vertex, for enhanced diagrams): the first
  half-step inserts, the second deletes, which is what lets a loop at v
  insert and immediately remove its own label — shapes may grow at odd
  steps and shrink at even steps.

Insertion is ordinary row bumping.  Deletion removes the minimal label from
the top-left corner and closes the hole by jeu de taquin.  Both are
reversible from the box they add or remove alone, which is what `decode`
uses: a walk is its moves, one (half-step, "add" or "remove", cell) for
each half-step that changes the shape.  The encoders visit only those
half-steps, two per arc: one loop checks the arcs and lists their events,
a sort puts the events in half-step order, and the walk returns its list
of moves.  A `TableauSequence` the encoders build carries those moves;
its `shapes` are replayed from the moves when something reads them, and
its `fillings` by decoding the moves and walking the arcs again, with a
snapshot of the rows after each move.

A sequence built from shapes through the public constructor carries no
moves: `validate_sequence` checks it in one pass from the empty shape and
returns its steps, the box each step adds or removes, and `decode` undoes
those right to left.  A carried sequence skips that check, because the
library built its moves one legal box at a time: the encoders from arcs
they checked, `transpose_sequence` by conjugating each move's cell, which
keeps a valid walk valid.  So the involution classifies no step at all.
"""
from __future__ import annotations

from bisect import bisect_right
from enum import Enum

from .errors import ConsistencyError


Shape = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]


class TableauKind(Enum):
    """The flavour of a walk, valued by its name.  `half_steps` lists the
    half-steps of one vertex, which drive the encoding walk, the validator
    and the decoder alike: "close" deletes the vertex's own label if an arc
    ends there, "open" inserts the partner's label if an arc starts there,
    and "either" does whichever applies (a vertex of a matching never needs
    both).  `opens_at` and `closes_at` number the half-step of a vertex
    where an arc opens and where one closes, from 1.  They are plain
    attributes of each member, so reading them hashes nothing.

    >>> kind = TableauKind("vacillating")
    >>> kind.half_steps, kind.closes_at, kind.opens_at
    (('close', 'open'), 1, 2)
    """

    SEMI_OSCILLATING = ("semioscillating", ("either",))
    VACILLATING = ("vacillating", ("close", "open"))
    HESITATING = ("hesitating", ("open", "close"))

    def __new__(cls, value: str, half_steps: tuple[str, ...]):
        member = object.__new__(cls)
        member._value_ = value
        member.half_steps = half_steps
        member.opens_at = 1 + next(k for k, s in enumerate(half_steps) if s != "close")
        member.closes_at = 1 + next(k for k, s in enumerate(half_steps) if s != "open")
        return member


def is_partition_shape(shape) -> bool:
    """Weakly decreasing positive parts."""
    return all(p > 0 for p in shape) and all(
        a >= b for a, b in zip(shape, shape[1:])
    )


def conjugate(shape: Shape) -> Shape:
    """Transpose of a Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    >>> conjugate(())
    ()
    """
    if not shape:
        return ()
    return tuple(
        sum(1 for p in shape if p > col) for col in range(shape[0])
    )


# ---------------------------------------------------------------------------
# the four primitive moves, on mutable list-of-list rows


def _insert_rows(rows: list[list[int]], label: int) -> tuple[int, int]:
    """Row-insert `label`; return the cell the shape gained."""
    x = label
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            return (r, 0)
        row = rows[r]
        pos = bisect_right(row, x)
        if pos == len(row):
            row.append(x)
            return (r, pos)
        x, row[pos] = row[pos], x
        r += 1


def _delete_min_rows(rows: list[list[int]]) -> tuple[int, int]:
    """Remove the minimal label at (0, 0), slide the hole out, return the
    vacated cell."""
    r, c = 0, 0
    while True:
        right = rows[r][c + 1] if c + 1 < len(rows[r]) else None
        below = rows[r + 1][c] if r + 1 < len(rows) and c < len(rows[r + 1]) else None
        if right is None and below is None:
            break
        if below is None or (right is not None and right < below):
            rows[r][c] = right
            c += 1
        else:
            rows[r][c] = below
            r += 1
    rows[r].pop()
    if not rows[r]:
        rows.pop()
    return (r, c)


def _uninsert_rows(rows: list[list[int]], cell: tuple[int, int]) -> int:
    """Undo an insertion that created `cell`; return the inserted label."""
    r, c = cell
    if c != len(rows[r]) - 1:
        raise ConsistencyError("can only uninsert from a row end")
    x = rows[r].pop()
    if not rows[r]:
        rows.pop()
    while r > 0:
        r -= 1
        row = rows[r]
        pos = bisect_right(row, x) - 1  # largest entry below x
        if pos < 0:
            raise ConsistencyError("reverse bump found no smaller entry")
        x, row[pos] = row[pos], x
    return x


def _undelete_rows(rows: list[list[int]], cell: tuple[int, int], label: int) -> None:
    """Undo a minimal-label deletion that vacated `cell`, re-adding `label`.

    `label` must be smaller than every remaining entry, and comparing it
    with the two entries beside the hole at (0, 0) is enough: every
    primitive move keeps the tableau standard, and the reverse slide only
    moves the hole, so rows and columns still increase and the smallest
    remaining entry is at (0, 1) or (1, 0).
    """
    r, c = cell
    if r == len(rows):
        rows.append([])
    if c != len(rows[r]):
        raise ConsistencyError("cell is not addable")
    rows[r].append(0)  # hole
    while (r, c) != (0, 0):
        above = rows[r - 1][c] if r > 0 else None
        left = rows[r][c - 1] if c > 0 else None
        if above is None or (left is not None and left > above):
            rows[r][c] = left
            c -= 1
        else:
            rows[r][c] = above
            r -= 1
    first = rows[0]
    if (len(first) > 1 and first[1] <= label) or (len(rows) > 1 and rows[1][0] <= label):
        raise ConsistencyError("re-inserted label must be the minimum")
    first[0] = label


# ---------------------------------------------------------------------------
# sequences


Move = tuple[int, str, tuple[int, int]]  # (half-step, "add" or "remove", cell)
_SAME = ("same", None)


class TableauSequence:
    """A tableau walk: its flavour `kind`, its `n` vertices and the shapes
    it visits, which alone determine the diagram.

    The encoders build sequences that carry their moves, and
    `transpose_sequence` keeps them carried; `shapes` replays the moves
    when first read.  This constructor takes the shapes themselves, which
    `validate_sequence` checks in full.  Equal
    shapes make equal sequences, however each was built.  `fillings` is
    derived, not stored: the tableau after every step, replayed from the
    arcs that `decode` reads off the moves.

    >>> encode_semioscillating([(1, 3), (2, 4)], 4).fillings
    ((), ((3,),), ((3, 4),), ((4,),), ())
    """

    __slots__ = ("_kind", "_n", "_moves", "_shapes")

    def __init__(self, kind: TableauKind, n: int, shapes):
        self._kind, self._n, self._moves = kind, n, None
        self._shapes = tuple(tuple(s) for s in shapes)

    @property
    def kind(self) -> TableauKind:
        return self._kind

    @property
    def n(self) -> int:
        return self._n

    @property
    def shapes(self) -> tuple[Shape, ...]:
        if self._shapes is None:
            shape: list[int] = []
            after = {}
            for i, tag, (r, c) in self._moves:
                shape[r : r + 1] = [c + 1] if tag == "add" else [c] if c else []
                after[i] = tuple(shape)
            self._shapes = _held(self, after)
        return self._shapes

    @property
    def fillings(self) -> tuple[Rows, ...]:
        after: dict = {}
        _walk(self.kind, decode(self), self.n, after)
        return _held(self, after)

    def __eq__(self, other):
        if not isinstance(other, TableauSequence):
            return NotImplemented
        return (self.kind, self.n, self.shapes) == (other.kind, other.n, other.shapes)

    def __hash__(self):
        return hash((self.kind, self.n, self.shapes))

    def __repr__(self):
        return "TableauSequence(kind=%r, n=%r, shapes=%r)" % (self.kind, self.n, self.shapes)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.n,
            "shapes": [list(s) for s in self.shapes],
            "fillings": [[list(r) for r in f] for f in self.fillings],
        }


def _built(kind: TableauKind, n: int, moves: list[Move]) -> TableauSequence:
    """A sequence the library built, carrying its moves."""
    seq = object.__new__(TableauSequence)
    seq._kind, seq._n, seq._moves, seq._shapes = kind, n, moves, None
    return seq


def _held(seq: TableauSequence, after: dict) -> tuple:
    """The value at every half-step of `seq`: `after[i]` where a move came
    at half-step i, else the value before it, starting empty."""
    value = ()
    trail = [value]
    for i in range(1, len(seq.kind.half_steps) * seq.n + 1):
        value = after.get(i, value)
        trail.append(value)
    return tuple(trail)


def _step(prev: Shape, cur: Shape):
    """Classify one step from the partition `prev`: ('add', cell) or
    ('remove', cell) when `cur` is a partition one box away, else None.

    Only the changed row can break the partition property, since `prev` has
    it; the caller has already ruled out `cur == prev`.
    """
    lp, lc = len(prev), len(cur)
    r = 0
    while r < lp and r < lc and prev[r] == cur[r]:
        r += 1
    a = prev[r] if r < lp else 0
    b = cur[r] if r < lc else 0
    if prev[r + 1 :] != cur[r + 1 :]:
        return None
    if b == a + 1 and (r == 0 or cur[r - 1] >= b):
        return ("add", (r, a))
    if b == a - 1 and (b > 0 or r == lc) and (r + 1 >= lc or cur[r + 1] <= b):
        return ("remove", (r, b))
    return None


def _fault(shapes, start: int, message: str):
    """Raise the fault `validate_sequence` reports first: a non-partition
    shape (those before `start` are known good), then a nonempty first or
    last shape, then `message`."""
    for s in shapes[start:]:
        if not is_partition_shape(s):
            raise ValueError("not a partition shape: %r" % (s,))
    if shapes[0] != () or shapes[-1] != ():
        raise ValueError("sequences must start and end empty")
    raise ValueError(message)


def validate_sequence(seq: TableauSequence) -> list:
    """Raise ValueError unless the shape sequence fits its declared kind;
    return its steps, ('same', None), ('add', cell) or ('remove', cell),
    one per consecutive pair of shapes.

    A sequence that carries its moves gets them back at their half-steps,
    unchecked: the library built each one legal.  Shapes given to the
    constructor are checked in one pass from the empty shape, which
    classifies every step.  A legal one-box step from a partition keeps a
    partition if its changed row does, so that row is all the partition
    check reads.

    >>> validate_sequence(encode_semioscillating([(1, 2)], 2))
    [('add', (0, 0)), ('remove', (0, 0))]
    """
    moves = seq._moves
    if moves is not None:
        steps = [_SAME] * (len(seq.kind.half_steps) * seq.n)
        for i, tag, cell in moves:
            steps[i - 1] = (tag, cell)
        return steps
    shapes = seq._shapes
    if seq.n < 0:
        raise ValueError("n must be nonnegative")
    half_steps = seq.kind.half_steps
    per_vertex = len(half_steps)
    if len(shapes) != per_vertex * seq.n + 1:
        raise ValueError(
            "expected %d shapes for %s on %d vertices, got %d"
            % (per_vertex * seq.n + 1, seq.kind.value, seq.n, len(shapes))
        )
    if shapes[0] != ():
        _fault(shapes, 0, "sequences must start and end empty")
    steps = []
    prev = ()
    for i in range(1, len(shapes)):
        cur = shapes[i]
        if cur == prev:
            steps.append(_SAME)
            continue
        step = _step(prev, cur)
        if step is None:
            _fault(shapes, i, "consecutive shapes differ by more than one box")
        if (half_steps[(i - 1) % per_vertex], step[0]) in (("close", "add"), ("open", "remove")):
            change, parity = "grow" if step[0] == "add" else "shrink", "odd" if i % 2 else "even"
            message = "%s shapes may not %s at %s step %d" % (seq.kind.value, change, parity, i)
            _fault(shapes, i + 1, message)
        steps.append(step)
        prev = cur
    if prev != ():
        _fault(shapes, len(shapes), "sequences must start and end empty")
    return steps


def _filling(rows) -> Rows:
    return tuple(map(tuple, rows))


def _walk(kind: TableauKind, pairs, n: int, after=None) -> list[Move]:
    """Check arcs over vertices 1..n and walk them through an empty
    tableau, visiting only the half-steps an arc endpoint takes: an arc
    (a, b) inserts b at its opening half-step of vertex a and deletes the
    minimum at its closing half-step of vertex b.  Return each move
    (half-step, tag, cell) in half-step order.  If `after` is a dict, the
    filling after each move is recorded there at its half-step.

    One loop checks the arcs in their given order and lists their events.
    Only a hesitating walk takes loops, and a matching's vertex, which has
    one half-step, may not both close an arc and open one.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    per_vertex = len(kind.half_steps)
    # vertex v's k-th half-step is per_vertex * (v - 1) + k
    opens, closes = kind.opens_at - per_vertex, kind.closes_at - per_vertex
    loops = kind is TableauKind.HESITATING
    starts: set[int] = set()
    ends: set[int] = set()
    events = []
    for a, b in pairs:
        if not (1 <= a <= b <= n):
            raise ValueError("arc (%d, %d) out of range" % (a, b))
        if a == b and not loops:
            raise ValueError("loops are not allowed here")
        if a in starts:
            raise ValueError("vertex %d starts two arcs" % a)
        if b in ends:
            raise ValueError("vertex %d ends two arcs" % b)
        starts.add(a)
        ends.add(b)
        events += ((per_vertex * a + opens, b), (per_vertex * b + closes, 0))  # 0: a close
    if per_vertex == 1 and not starts.isdisjoint(ends):
        raise ValueError("matching arcs must be vertex-disjoint")
    events.sort()  # no two events share a half-step
    rows: list[list[int]] = []
    moves = []
    for i, label in events:
        if label:
            moves.append((i, "add", _insert_rows(rows, label)))
        else:
            v = (i + per_vertex - 1) // per_vertex
            if not rows or rows[0][0] != v:
                raise ValueError("arc endpoints out of order at vertex %d" % v)
            moves.append((i, "remove", _delete_min_rows(rows)))
        if after is not None:
            after[i] = _filling(rows)
    if rows:
        raise ConsistencyError("the %s walk must end empty" % kind.value)
    return moves


def _encoded(kind: TableauKind, pairs, n: int) -> TableauSequence:
    return _built(kind, n, _walk(kind, pairs, n))


def encode_vacillating(pairs, n: int) -> TableauSequence:
    """Encode a loop-free arc list: delete at the first half-step of a
    vertex that closes an arc, insert at the second half-step of one that
    opens an arc.

    >>> seq = encode_vacillating([(1, 3), (3, 6), (4, 5)], 6)
    >>> seq.shapes[2], seq.shapes[8]
    ((1,), (1, 1))
    """
    return _encoded(TableauKind.VACILLATING, pairs, n)


def encode_hesitating(pairs, n: int) -> TableauSequence:
    """Encode an enhanced arc list (loops welcome): insert at the first
    half-step of a vertex that opens an arc, delete at the second half-step
    of one that closes an arc; a loop does both.

    >>> seq = encode_hesitating([(1, 4), (2, 5), (3, 3), (4, 6)], 6)
    >>> seq.shapes[5], seq.shapes[7]
    ((2, 1), (3,))
    """
    return _encoded(TableauKind.HESITATING, pairs, n)


def encode_semioscillating(pairs, n: int) -> TableauSequence:
    """Encode a partial matching, one step per vertex.

    >>> seq = encode_semioscillating([(1, 6), (3, 7), (4, 5)], 7)
    >>> seq.shapes
    ((), (1,), (1,), (2,), (2, 1), (2,), (1,), ())
    """
    return _encoded(TableauKind.SEMI_OSCILLATING, pairs, n)


def decode(seq: TableauSequence) -> tuple[tuple[int, int], ...]:
    """Recover the arc list from a walk, undoing its moves right to left.

    The backward pass maintains the tableau after each remaining prefix: a
    forward deletion is undone by reverse jeu de taquin (the vertex's own
    label re-enters at the top-left corner), a forward insertion is undone
    by reverse bumping, whose ejected label is the arc's right endpoint.
    A carried sequence's moves are undone as they stand; shapes given to
    the constructor are undone through the steps `validate_sequence`
    classified.

    >>> decode(encode_vacillating([(1, 3), (3, 6), (4, 5)], 6))
    ((1, 3), (3, 6), (4, 5))
    >>> decode(encode_hesitating([(2, 2)], 2))
    ((2, 2),)
    """
    steps = validate_sequence(seq)
    moves = seq._moves
    if moves is None:
        moves = [(i, tag, cell) for i, (tag, cell) in enumerate(steps, 1) if cell is not None]
    half_steps = seq.kind.half_steps
    per_vertex = len(half_steps)
    loops = half_steps[0] == "open"  # an arc may close where it opened
    rows: list[list[int]] = []
    arcs: list[tuple[int, int]] = []
    for i, tag, cell in reversed(moves):
        v = (i + per_vertex - 1) // per_vertex
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


def transpose_sequence(seq: TableauSequence) -> TableauSequence:
    """Conjugate every shape of the walk.

    Conjugation turns a one-box add or remove at (r, c) into one at (c, r)
    at the same half-step, so a carried walk transposes move by move, and
    the conjugate of a valid walk is a valid walk of the same kind.
    Shapes given to the constructor are conjugated as they stand, each
    distinct one once.

    >>> transpose_sequence(encode_semioscillating([(1, 3), (2, 4)], 4)).shapes
    ((), (1,), (1, 1), (1,), ())
    """
    moves = seq._moves
    if moves is None:
        conjugates = {s: conjugate(s) for s in set(seq._shapes)}
        return TableauSequence(seq.kind, seq.n, map(conjugates.__getitem__, seq._shapes))
    return _built(seq.kind, seq.n, [(i, tag, (c, r)) for i, tag, (r, c) in moves])
