"""Finite walk graphs whose closed walks count bounded-crossing diagrams.

Scanning a diagram left to right and remembering, per colour, the shape of
the partial tableau of currently open arcs turns "no j-crossing and no
k-nesting in any colour" into a walk on finitely many states: every shape
must fit inside a (k-1)-row by (j-1)-column box at every half-step.  Closed
walks at the all-empty state then count the admissible diagrams — one step
per gap between consecutive vertices for set partitions (a size-n partition
is an (n-1)-step walk), one step per vertex for permutations (size n is an
n-step walk, with upper and lower shape tuples of equal total size).

A state is stored as a count vector: how many colours hold a shape of
each class (one vector per half for permutations, whose upper and lower
colours are apart).  A count vector is one int, class s's count in a
w-bit field at bit s*w, so a move adds one power of two and subtracts
another, and the occupied classes are read off the set bits: a move
handles only the classes it changes, and no object per class is made or
copied (the int's arithmetic passes over its machine words, each holding
the fields of many classes).  Each family has one move generator,
`_setpartition_moves` or `_permutation_moves`, which moves members of
classes along per-box corner tables and yields every target with its
multiplicity; it is the only source of edges for the full graphs
(`build_general`) and the symmetry quotients (`build_quotient`).  At the
fully worked-out bound j = k = 2 a shape is either empty or a single box,
so a state is named by its set of open colours (for permutations,
equal-size upper|lower sets) and every move carries its classic label:
`x` an empty gap, a colour that opens, closes or forms a loop, `c1c2` an
arc closed in one colour and opened in another, `uc1c2` / `oc1c2` upper /
lower transitories, `ct` a lower composite.  `build_setpartition_22` and
`build_permutation_22` return these labelled graphs; other bounds name
states by their shapes and leave edges unlabelled.

Set partition gap moves from shapes (l_1..l_r), all bounds enforced on
intermediates too:

* do nothing;
* open an arc in colour c: add a corner to l_c;
* close an arc in colour c: remove a corner from l_c;
* open in c1 at the gap's left vertex, then close in c2 at its right
  vertex: add a corner, then remove one (for c1 = c2 the removal acts on
  the grown shape, which is what lets a lone arc across the gap appear and
  vanish in one move).

Permutation vertex moves on (U_1..U_r; L_1..L_r):

* opener / closer: add (remove) a corner in one upper and one lower shape;
* upper composite in colour c: add a corner to U_c, then remove one from
  the grown shape (a fixed point or a same-colour upper transitory);
* upper transitory c_old -> c_new, distinct colours: add to U_new, remove
  from U_old;
* lower composite in colour c: remove a corner from L_c, then add one back
  (lower arcs close before they open at a vertex);
* lower transitory, distinct colours: remove from L_old, add to L_new.

Relabelling the colours (a permutation's upper and lower colours apart)
and, at j = k, conjugating any one shape fix the start state and map every
state's move multiset onto its image's:

* every move adds or removes one box of one shape;
* at j = k the box is square, so conjugating one shape maps its corners
  onto the conjugate's corners;
* opener and closer moves pair any upper colour with any lower colour.

So the orbits of this group form an equitable partition (every state of an
orbit has the same number of edges into any given orbit), and closed walks
at the start state equal closed walks at the start orbit of the quotient,
whose row for orbit a counts the edges from one member of a into each
orbit.  An orbit is a count vector over key classes, one per shape up to
conjugation at j = k (the shapes themselves otherwise): the orbit of a
state is all it says once colours may be relabelled and shapes keyed.
Colours whose shapes share a class move alike (conjugation matches their
corners), and the orbit a move reaches depends only on the classes it
moves members between.  So each move of a class's shape stands for one
edge per choice of colours, and the generator yields it once with that
count, m_s colours being in class s:

* one colour of class s grows or shrinks (openers, closers and one-colour
  composites): m_s;
* two distinct colours of one half, the first opening in class s and the
  second closing in class t (a set partition's arc closed in one colour and
  opened in another, a permutation's transitory): m_s * (m_t - [s = t]),
  since the second is any member of t but the first;
* a permutation's opener or closer, one upper colour in class s and one
  lower colour in class t: m_s * m_t, the halves being apart.

The full graph runs the same generators on (colour, shape) classes, one
colour per class: every count is 0 or 1, so each multiplicity is 1 or the
move is absent (m_t - [s = t] drops same-colour pairs), and its j = k = 2
labels come from the colours of the classes moved.  So a quotient state
costs the same for any r: 2^r set partition states fold into r + 1 orbits
and each has a handful of moves.  The `gf` and `series` verbs count on the
quotient; the full graph is built only to be printed.  Graphs are stored
as the sparse rows the moves produce, so walks, symmetry checks and DOT
export cost one pass over the edges; the dense `matrix` view is built on
first use, for the JSON adjacency.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from itertools import product
from math import comb

from .diagrams import _Value, check_family
from .errors import CapExceeded, ConsistencyError
from .tableaux import conjugate

DEFAULT_MAX_STATES = 20_000


class Multigraph(_Value):
    """A multigraph with a distinguished start state (index 0).

    `rows[a]` is a `{b: count}` dict of the edges from state a to state b,
    with no zero counts.  The full transfer graphs are symmetric; their
    symmetry quotients (builder "quotient") are not, since an orbit's row
    counts edges from one of its members.

    Unlike the library's other values a graph is mutable, so unhashable,
    and its `edge_labels` are compared but left out of its repr.
    """

    _fields = ("family", "j", "k", "colours", "states", "rows", "builder")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        family: str,  # "setpartition" | "permutation"
        j: int,
        k: int,
        colours: int,
        states: tuple[str, ...],
        rows: tuple[dict[int, int], ...],
        builder: str = "general",
        edge_labels: dict | None = None,
    ):
        self.family, self.j, self.k, self.colours = family, j, k, colours
        self.states, self.rows = states, rows
        self.builder, self.edge_labels = builder, edge_labels

    def _values(self) -> tuple:
        return super()._values() + (self.edge_labels,)

    @property
    def size(self) -> int:
        return len(self.states)

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The rows as a read-only dense tuple of int tuples."""
        dense = [[0] * len(self.rows) for _ in self.rows]
        for line, row in zip(dense, self.rows):
            for b, count in row.items():
                line[b] = count
        return tuple(map(tuple, dense))

    def is_symmetric(self) -> bool:
        rows = self.rows
        return all(
            rows[b].get(a) == m for a, row in enumerate(rows) for b, m in row.items()
        )

    def to_json_dict(self) -> dict:
        labels = None
        if self.edge_labels is not None:
            labels = {
                "%d-%d" % key: list(val) for key, val in sorted(self.edge_labels.items())
            }
        return {
            "family": self.family,
            "j": self.j,
            "k": self.k,
            "colours": self.colours,
            "builder": self.builder,
            "states": list(self.states),
            "start": 0,
            "adjacency": [list(row) for row in self.matrix],
            "edge_labels": labels,
        }


def _set_name(s: tuple[int, ...]) -> str:
    return "{%s}" % ",".join(str(c) for c in s)


def build_setpartition_22(r: int) -> Multigraph:
    """The 2^r-state graph for set partitions with no 2-crossing or
    2-nesting in any of r colours.  States are the sets of open colours.

    >>> build_setpartition_22(1).matrix
    ((2, 1), (1, 1))
    """
    return _build_full("setpartition", 2, 2, r, None)


def build_permutation_22(r: int) -> Multigraph:
    """The C(2r, r)-state graph for permutations with no 2-crossing or
    2-nesting in any of r colours.  States pair the open upper colours with
    the open lower colours, necessarily of equal size.

    >>> build_permutation_22(1).matrix
    ((1, 1), (1, 1))
    """
    return _build_full("permutation", 2, 2, r, None)


# ---------------------------------------------------------------------------
# general bounds


def _bounded_shapes(j: int, k: int) -> list[tuple[int, ...]]:
    """All partitions with at most k-1 parts, each at most j-1: the list
    grows while it is scanned by each shape's extensions by one part."""
    shapes: list[tuple[int, ...]] = [()]
    for s in shapes:
        if len(s) < k - 1:
            shapes += [s + (part,) for part in range(1, (s[-1] if s else j - 1) + 1)]
    shapes.sort(key=lambda s: (sum(s), s))
    return shapes


def _grown(shape, j: int, k: int) -> tuple:
    """The shapes one box larger that stay inside the box, by row."""
    out = []
    for a in range(min(len(shape) + 1, k - 1)):
        cur = shape[a] if a < len(shape) else 0
        if cur < (shape[a - 1] if a else j - 1):
            out.append(shape[:a] + (cur + 1,) + shape[a + 1 :])
    return tuple(out)


def _shrunk(shape) -> tuple:
    """The shapes one box smaller, by row."""
    out = []
    for b, part in enumerate(shape):
        if part > (shape[b + 1] if b + 1 < len(shape) else 0):
            out.append(shape[:b] + ((part - 1,) if part > 1 else ()) + shape[b + 1 :])
    return tuple(out)


@lru_cache(maxsize=8)
def _corners(j: int, k: int) -> tuple[dict, dict, dict]:
    """Tables for one box: each shape's grown and shrunk shapes, and its
    key, the smaller of itself and its conjugate at j = k and the shape
    itself otherwise."""
    shapes = _bounded_shapes(j, k)
    keys = {s: min(s, conjugate(s)) if j == k else s for s in shapes}
    return {s: _grown(s, j, k) for s in shapes}, {s: _shrunk(s) for s in shapes}, keys


def _classes(j: int, k: int, r: int, keyed: bool):
    """The classes a count vector counts, as sorted (colour, shape) pairs:
    one per key shape, with colour 0, for the quotient, one per colour and
    shape for the full graph.  A count vector is one int per half, class
    s's count in its bits s*w to (s+1)*w - 1; w is r's bit length for the
    quotient, whose counts reach r, and 1 for the full graph, whose counts
    are 0 or 1.  `_move`, `_counts` and `_vector` alone know this layout;
    a move changes two fields and makes no object per class, so it costs
    what it changes, not one entry per class.  Also returns
    `place(c, shape)`, the class of colour c holding `shape`, and the
    tables the move
    generators read: the classes one box larger and smaller than each
    class, each class's 1-based colour where the moves are labelled (the
    full graph at j = k = 2), else None, and w."""
    grow, shrink, key = _corners(j, k)
    tag = (lambda c, s: (0, key[s])) if keyed else (lambda c, s: (c, s))
    classes = sorted({tag(c, s) for c in range(1 if keyed else r) for s in key})
    index = {cl: i for i, cl in enumerate(classes)}

    def place(c, s):
        return index[tag(c, s)]

    tables = (
        tuple(tuple(place(c, g) for g in grow[s]) for c, s in classes),
        tuple(tuple(place(c, g) for g in shrink[s]) for c, s in classes),
        tuple(c + 1 for c, _ in classes) if j == k == 2 and not keyed else None,
        r.bit_length() if keyed else 1,
    )
    return classes, place, tables


def _shape_name(shape) -> str:
    return "(%s)" % ".".join(str(p) for p in shape)


def build_general(family: str, j: int, k: int, r: int, max_states: int | None = None) -> Multigraph:
    """Walk graph for arbitrary bounds j, k >= 2 and r colours.

    States are r-tuples of box-bounded shapes (pairs of tuples for
    permutations); the state count is guarded because it grows like the
    shape count to the r-th power, and a box with more shapes than
    `max_states` is refused before they are listed.  At j = k = 2 this is
    the labelled graph of `build_setpartition_22` or `build_permutation_22`.

    >>> build_general("setpartition", 3, 3, 1).size
    6
    """
    return _build_full(family, j, k, r, max_states)


def _build_full(family: str, j: int, k: int, r: int, max_states: int | None) -> Multigraph:
    """The body of `build_general`, which the j = k = 2 builders also call
    so that no public builder runs inside another."""
    check_family(family, r, j, k)
    cap = DEFAULT_MAX_STATES if max_states is None else max_states
    least = comb(j + k - 2, k - 1)  # the shapes in the box, each a state
    if least > cap:  # refused before a shape is listed
        raise _too_many_states("at least ", least, cap)
    shapes = list(_corners(j, k)[2])
    sizes = [1]  # counts of colour tuples by total box count
    for i in range(1, r + 1):
        nxt = [0] * (len(sizes) + sum(shapes[-1]))
        for t, cnt in enumerate(sizes):
            for s in shapes:
                nxt[t + sum(s)] += cnt
        sizes = nxt
        # a set partition state is a tuple, a permutation state two of one total
        total = sum(sizes) if family == "setpartition" else sum(c * c for c in sizes)
        # a colour more embeds every state, with an empty shape added
        if total > cap and i < r:
            raise _too_many_states("at least ", total, cap)
    if total > cap:
        raise _too_many_states("", total, cap)
    if family == "setpartition":
        states = list(product(shapes, repeat=r))
    else:
        by_total: dict[int, list] = {}
        for t in product(shapes, repeat=r):
            by_total.setdefault(_boxes(t), []).append(t)
        states = [(u, low) for group in by_total.values() for u in group for low in group]
    labelled = j == k == 2

    def order(st):
        size = _boxes(st if family == "setpartition" else st[0])
        return size, (_open_sets(family, st) if labelled else st)

    states.sort(key=order)
    if labelled:  # name states by their sets of open colours
        names = tuple("|".join(map(_set_name, _open_sets(family, st))) for st in states)
    else:
        names = tuple(_state_name(family, st) for st in states)
    classes, place, tables = _classes(j, k, r, keyed=False)
    states = [_vector(family, st, place, 1) for st in states]  # count vectors now
    rows, labels = _rows(family, tables, states, {v: i for i, v in enumerate(states)}, len(states))
    builder = "dedicated" if labelled else "general"
    return Multigraph(family, j, k, r, names, rows, builder, edge_labels=labels)


def build_quotient(family: str, j: int, k: int, r: int, max_states: int | None = None) -> Multigraph:
    """The quotient of `build_general(family, j, k, r)` by its symmetry
    group (see the module docstring).

    A breadth-first search from the empty state over count vectors, one
    class per key shape; `rows[a][b]` counts the moves from one member of
    orbit a into orbit b.  Orbit 0 is the start state.  The search stops as
    soon as the orbit count passes `max_states`, and does not start when
    the one-colour states alone pass it; the key shapes are not listed
    when even half the shapes pass it.

    >>> build_quotient("setpartition", 2, 2, 3).matrix
    ((4, 3, 0, 0), (1, 5, 2, 0), (0, 2, 4, 1), (0, 0, 3, 1))
    >>> build_quotient("setpartition", 2, 2, 3).states
    ('()^3', '()^2|(1)^1', '()^1|(1)^2', '(1)^3')
    """
    check_family(family, r, j, k)
    cap = DEFAULT_MAX_STATES if max_states is None else max_states
    start = _start_state(family, r)
    # generators: swap two colours of one half; at j = k, conjugate one shape
    if any(len(set(h)) > 1 or (j == k and conjugate(h[0]) != h[0]) for h in _halves(family, start)):
        raise ConsistencyError(
            "start state %s is not fixed by the symmetry group" % _state_name(family, start)
        )
    # every quotient holds the states where one colour (one per half for
    # permutations, of one size) holds a key shape; at j = k a shape and
    # its conjugate share a key, so there are at least half as many keys
    least = -(-comb(j + k - 2, k - 1) // (1 + (j == k)))
    if least <= cap:
        sizes = Counter(sum(s) for s in set(_corners(j, k)[2].values()))
        least = sum(d if family == "setpartition" else d * d for d in sizes.values())
    if least > cap:
        raise _too_many_orbits(cap)
    classes, place, tables = _classes(j, k, r, keyed=True)
    states = [_vector(family, start, place, tables[3])]
    rows, _ = _rows(family, tables, states, {states[0]: 0}, cap)
    names = tuple(_count_name(family, st, classes, tables[3]) for st in states)
    return Multigraph(family, j, k, r, names, rows, builder="quotient")


def _rows(family: str, tables, states: list, index: dict, cap: int):
    """The row of every state in `states`, which grows while it is scanned
    by each target not in `index` (the quotient's search; the full graph
    hands in every state), and the j = k = 2 labels of the edges (a, b)
    with b >= a when `tables` carries colours (else None)."""
    moves = _MOVES[family]
    labelled = tables[2] is not None
    rows: list[dict[int, int]] = []
    labels: dict[tuple[int, int], list[str]] = {}
    for i, st in enumerate(states):
        row: dict[int, int] = {}
        for t, mult, label in moves(st, tables):
            dest = index.get(t)
            if dest is None:
                if len(states) >= cap:
                    raise _too_many_orbits(cap)
                dest = index[t] = len(states)
                states.append(t)
            row[dest] = row.get(dest, 0) + mult
            if labelled and dest >= i:  # the graph is symmetric
                labels.setdefault((i, dest), []).append(label)
        rows.append(row)
    return tuple(rows), {key: tuple(val) for key, val in labels.items()} if labelled else None


def _too_many_states(qualifier: str, count: int, cap: int) -> CapExceeded:
    return CapExceeded(
        "graph would need %s%d states (cap %d); raise the cap to proceed" % (qualifier, count, cap)
    )


def _too_many_orbits(cap: int) -> CapExceeded:
    return CapExceeded(
        "symmetry quotient has more than %d orbits; raise the cap to proceed" % cap
    )


def _boxes(shapes) -> int:
    return sum(sum(s) for s in shapes)


def _move(h: int, s: int, t: int, w: int) -> int:
    """Count vector h, with w-bit fields, with one member moved from class s
    to class t."""
    return h - (1 << s * w) + (1 << t * w)


def _counts(h: int, w: int) -> list[tuple[int, int]]:
    """The (class, count) pairs of count vector h's occupied classes, in
    class order, read off its set bits."""
    out = []
    while h:
        s = ((h & -h).bit_length() - 1) // w  # the lowest occupied class
        out.append((s, (h >> s * w) & ((1 << w) - 1)))
        h &= -1 << (s + 1) * w
    return out


def _transitories(h: int, occupied: list, grow, shrink, w: int):
    """(target, multiplicity, s, t) for each move of two distinct members of
    count vector h, whose occupied classes and counts are `occupied`: one of
    class s gains a box, then one of class t loses one.  The second is one
    of the n_t - [s = t] members besides the first."""
    for s, m in occupied:
        for a in grow[s]:
            grown = _move(h, s, a, w)
            for t, n in occupied:
                mult = m * (n - (s == t))
                if mult:
                    for b in shrink[t]:
                        yield _move(grown, t, b, w), mult, s, t


def _setpartition_moves(h: int, tables):
    """(target, multiplicity, label) for the gap moves from count vector h.
    The label is the classic one where the tables carry colours (the full
    j = k = 2 graph), else None: each label is `colour and ...`."""
    grow, shrink, colour, w = tables
    occupied = _counts(h, w)
    yield h, 1, colour and "x"  # gap with no arc
    for s, m in occupied:
        label = colour and str(colour[s])
        for g in grow[s]:
            yield _move(h, s, g, w), m, label  # plain opener
            for back in shrink[g]:  # same-colour open-then-close across the gap
                yield _move(h, s, back, w), m, label
        for back in shrink[s]:
            yield _move(h, s, back, w), m, label
    for target, mult, s, t in _transitories(h, occupied, grow, shrink, w):
        yield target, mult, colour and _pair("", colour[s], colour[t])


def _permutation_moves(state, tables):
    """(target, multiplicity, label) for the vertex moves from (upper,
    lower) count vectors; labels as for `_setpartition_moves`.  All upper
    composites come before any lower one, the classic self-loop order."""
    grow, shrink, colour, w = tables
    u, low = state
    up, lo = _counts(u, w), _counts(low, w)
    for s, m in up:  # upper composite: insert, then delete from the grown shape
        for g in grow[s]:
            for back in shrink[g]:
                yield (_move(u, s, back, w), low), m, colour and str(colour[s])
    for s, m in lo:  # lower composite: delete, then re-insert
        for g in shrink[s]:
            for back in grow[g]:
                yield (u, _move(low, s, back, w)), m, colour and "%dt" % colour[s]
    for target, mult, s, t in _transitories(u, up, grow, shrink, w):
        yield (target, low), mult, colour and _pair("u", colour[s], colour[t])
    for target, mult, s, t in _transitories(low, lo, grow, shrink, w):
        yield (u, target), mult, colour and _pair("o", colour[s], colour[t])
    for step in (grow, shrink):  # openers and closers: one upper, one lower corner
        for s, m in up:
            for a in step[s]:
                new_u = _move(u, s, a, w)
                for t, n in lo:
                    for b in step[t]:
                        label = colour and "%d%d" % (colour[s], colour[t])
                        yield (new_u, _move(low, t, b, w)), m * n, label


def _pair(prefix: str, c: int, c2: int) -> str:
    """A label naming two colours in increasing order."""
    return "%s%d%d" % (prefix, min(c, c2), max(c, c2))


_MOVES = {"setpartition": _setpartition_moves, "permutation": _permutation_moves}


def _start_state(family: str, r: int):
    empty = ((),) * r
    return empty if family == "setpartition" else (empty, empty)


def _halves(family: str, st) -> tuple:
    """The parts of a state whose colours the group relabels apart: one for
    set partitions, upper and lower for permutations."""
    return (st,) if family == "setpartition" else st


def _vector(family: str, st, place, w: int):
    """The count vectors of a state given as shape tuples: one int per half,
    class s's count in its bits s*w to (s+1)*w - 1."""
    out = tuple(sum(1 << place(c, s) * w for c, s in enumerate(h)) for h in _halves(family, st))
    return out[0] if family == "setpartition" else out


def _open_sets(family: str, st) -> tuple:
    """The open colours, 1-based, of each shape tuple of a j = k = 2 state."""
    return tuple(tuple(c for c, s in enumerate(h, 1) if s) for h in _halves(family, st))


def _state_name(family: str, st) -> str:
    return ";".join("|".join(map(_shape_name, h)) for h in _halves(family, st))


def _count_name(family: str, st, classes, w: int) -> str:
    """A keyed state's name: each occupied class's shape and count."""
    return ";".join(
        "|".join("%s^%d" % (_shape_name(classes[s][1]), n) for s, n in _counts(h, w))
        for h in _halves(family, st)
    )


def export_dot(g: Multigraph) -> str:
    """Deterministic DOT text: one edge line per unit of multiplicity.

    >>> print(export_dot(build_setpartition_22(1)))
    graph G {
      n0 [label="{}"];
      n1 [label="{1}"];
      n0 -- n0 [label="x"];
      n0 -- n0 [label="1"];
      n0 -- n1 [label="1"];
      n1 -- n1 [label="x"];
    }
    """
    lines = ["graph G {"]
    for i, name in enumerate(g.states):
        lines.append('  n%d [label="%s"];' % (i, _dot_quote(name)))
    for i, row in enumerate(g.rows):
        for jdx, count in sorted(edge for edge in row.items() if edge[0] >= i):
            labs = ()
            if g.edge_labels is not None:
                labs = g.edge_labels.get((i, jdx), ())
            for unit in range(count):
                if unit < len(labs):
                    lines.append(
                        '  n%d -- n%d [label="%s"];' % (i, jdx, _dot_quote(labs[unit]))
                    )
                else:
                    lines.append("  n%d -- n%d;" % (i, jdx))
    lines.append("}")
    return "\n".join(lines)


def _dot_quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
