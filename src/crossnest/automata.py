"""Finite walk graphs whose closed walks count bounded-crossing diagrams.

Scanning a diagram left to right and remembering, per colour, the shape of
the partial tableau of currently open arcs turns "no j-crossing and no
k-nesting in any colour" into a walk on finitely many states: every shape
must fit inside a (k-1)-row by (j-1)-column box at every half-step.  Closed
walks at the all-empty state then count the admissible diagrams — one step
per gap between consecutive vertices for set partitions (a size-n partition
is an (n-1)-step walk), one step per vertex for permutations (size n is an
n-step walk, with upper and lower shape tuples of equal total size).

Each family has one move generator, `_setpartition_moves` or
`_permutation_moves`, which looks corners up in per-box tables; it is the
only source of edges for the full graphs (`build_general`) and the colour
quotients (`build_quotient`).  At the fully worked-out bound j = k = 2 a
shape is either empty or a single box, so a state is named by its set of
open colours (for permutations, equal-size upper|lower sets) and every move
carries its classic label: `x` an empty gap, a colour that opens, closes or
forms a loop, `c1c2` an arc closed in one colour and opened in another,
`uc1c2` / `oc1c2` upper / lower transitories, `ct` a lower composite.
`build_setpartition_22` and `build_permutation_22` return these labelled
graphs; other bounds name states by their shapes and leave edges unlabelled.

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
orbit.  `build_quotient` builds those rows directly by a breadth-first
search over keyed states (each shape the smaller of itself and its
conjugate at j = k, then sorted within its half), so 2^r set partition
states fold into r + 1 orbits.  The `gf` and `series` verbs count on the
quotient; the full graph is built only to be printed.  Graphs are stored
as the sparse rows the moves produce, so walks, symmetry checks and DOT
export cost one pass over the edges; the dense `matrix` view is built on
first use, for the determinant and the JSON adjacency.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Optional

from .errors import CapExceeded, ConsistencyError
from .tableaux import conjugate

DEFAULT_MAX_STATES = 20_000


@dataclass
class Multigraph:
    """A multigraph with a distinguished start state (index 0).

    `rows[a]` is a `{b: count}` dict of the edges from state a to state b,
    with no zero counts.  The full transfer graphs are symmetric; their
    symmetry quotients (builder "quotient") are not, since an orbit's row
    counts edges from one of its members.
    """

    family: str  # "setpartition" | "permutation"
    j: int
    k: int
    colours: int
    states: tuple[str, ...]
    rows: tuple[dict[int, int], ...]
    builder: str = "general"
    edge_labels: Optional[dict] = field(default=None, repr=False)

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
    """All partitions with at most k-1 parts, each at most j-1."""
    shapes: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], largest: int):
        shapes.append(prefix)
        if len(prefix) == k - 1:
            return
        for part in range(1, largest + 1):
            extend(prefix + (part,), part)

    extend((), j - 1)
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
def _corners(j: int, k: int) -> tuple[dict, dict, Optional[dict]]:
    """Tables for one box: each shape's grown and shrunk shapes, and its
    key, the smaller of itself and its conjugate; no key table at j != k
    or j = k = 2, where every shape is its own key."""
    shapes = _bounded_shapes(j, k)
    keys = {s: min(s, conjugate(s)) for s in shapes} if j == k > 2 else None
    return {s: _grown(s, j, k) for s in shapes}, {s: _shrunk(s) for s in shapes}, keys


def _shape_name(shape) -> str:
    return "(%s)" % ".".join(str(p) for p in shape)


def _check_bounds(family: str, j: int, k: int, r: int) -> None:
    if family not in ("setpartition", "permutation"):
        raise ValueError("family must be 'setpartition' or 'permutation'")
    if j < 2 or k < 2:
        raise ValueError("bounds j, k must be at least 2")
    if r < 1:
        raise ValueError("need at least one colour")


def build_general(family: str, j: int, k: int, r: int, max_states: Optional[int] = None) -> Multigraph:
    """Walk graph for arbitrary bounds j, k >= 2 and r colours.

    States are r-tuples of box-bounded shapes (pairs of tuples for
    permutations); the state count is guarded because it grows like the
    shape count to the r-th power.  At j = k = 2 this is the labelled graph
    of `build_setpartition_22` or `build_permutation_22`.

    >>> build_general("setpartition", 3, 3, 1).size
    6
    """
    return _build_full(family, j, k, r, max_states)


def _build_full(family: str, j: int, k: int, r: int, max_states: Optional[int]) -> Multigraph:
    """The body of `build_general`, which the j = k = 2 builders also call
    so that no public builder runs inside another."""
    _check_bounds(family, j, k, r)
    cap = DEFAULT_MAX_STATES if max_states is None else max_states
    shapes = _bounded_shapes(j, k)
    if family == "setpartition":
        total = len(shapes) ** r
    else:
        sizes = [1]  # counts of colour tuples by total box count
        for _ in range(r):
            nxt = [0] * (len(sizes) + sum(shapes[-1]))
            for t, cnt in enumerate(sizes):
                for s in shapes:
                    nxt[t + sum(s)] += cnt
            sizes = nxt
        total = sum(c * c for c in sizes)
    if total > cap:
        raise CapExceeded(
            "graph would need %d states (cap %d); raise the cap to proceed"
            % (total, cap)
        )
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
    moves = _MOVES[family]
    index = {s: i for i, s in enumerate(states)}
    rows: list[dict[int, int]] = [{} for _ in states]
    labels: dict[tuple[int, int], list[str]] = {}
    for i, (row, st) in enumerate(zip(rows, states)):
        for t, label in moves(st, j, k):
            dest = index[t]
            row[dest] = row.get(dest, 0) + 1
            if labelled and dest >= i:  # the graph is symmetric
                labels.setdefault((i, dest), []).append(label)
    return Multigraph(
        family=family,
        j=j,
        k=k,
        colours=r,
        states=names,
        rows=tuple(rows),
        builder="dedicated" if labelled else "general",
        edge_labels={key: tuple(val) for key, val in labels.items()} if labelled else None,
    )


def build_quotient(family: str, j: int, k: int, r: int, max_states: Optional[int] = None) -> Multigraph:
    """The quotient of `build_general(family, j, k, r)` by its symmetry
    group (see the module docstring).

    A breadth-first search from the empty state over keyed states (shapes
    keyed, then sorted); `rows[a][b]` counts the moves from the
    representative of orbit a into orbit b.  Orbit 0 is the start state.
    The search stops as soon as the orbit count passes `max_states`.

    >>> build_quotient("setpartition", 2, 2, 3).matrix
    ((4, 3, 0, 0), (1, 5, 2, 0), (0, 2, 4, 1), (0, 0, 3, 1))
    """
    _check_bounds(family, j, k, r)
    cap = DEFAULT_MAX_STATES if max_states is None else max_states
    start = _start_state(family, r)
    # generators: swap two colours of one half; at j = k, conjugate one shape
    if any(len(set(h)) > 1 or (j == k and conjugate(h[0]) != h[0]) for h in _halves(family, start)):
        raise ConsistencyError(
            "start state %s is not fixed by the symmetry group" % _state_name(family, start)
        )
    moves = _MOVES[family]
    key = _corners(j, k)[2]
    reps = [start]
    index = {start: 0}
    rows: list[dict[int, int]] = []
    for rep in reps:  # reps grows while it is scanned
        row: dict[int, int] = {}
        for t, _ in moves(rep, j, k):
            t = _canonical(family, t, key)
            dest = index.get(t)
            if dest is None:
                if len(reps) >= cap:
                    raise CapExceeded(
                        "symmetry quotient has more than %d orbits; raise the "
                        "cap to proceed" % cap
                    )
                dest = index[t] = len(reps)
                reps.append(t)
            row[dest] = row.get(dest, 0) + 1
        rows.append(row)
    return Multigraph(
        family=family,
        j=j,
        k=k,
        colours=r,
        states=tuple(_state_name(family, st) for st in reps),
        rows=tuple(rows),
        builder="quotient",
    )


def _boxes(shapes) -> int:
    return sum(sum(s) for s in shapes)


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


def _start_state(family: str, r: int):
    empty = ((),) * r
    return empty if family == "setpartition" else (empty, empty)


def _canonical(family: str, st, key: Optional[dict]):
    """The orbit representative: every shape keyed, then sorted."""
    if family == "setpartition":
        return tuple(sorted(st if key is None else map(key.__getitem__, st)))
    return tuple(tuple(sorted(h if key is None else map(key.__getitem__, h))) for h in st)


def _halves(family: str, st) -> tuple:
    """The shape tuples of a state, whose colours the group relabels apart:
    one for set partitions, upper and lower for permutations."""
    return (st,) if family == "setpartition" else st


def _open_sets(family: str, st) -> tuple:
    """The open colours, 1-based, of each shape tuple of a j = k = 2 state."""
    return tuple(tuple(c for c, s in enumerate(h, 1) if s) for h in _halves(family, st))


def _state_name(family: str, st) -> str:
    return ";".join("|".join(map(_shape_name, h)) for h in _halves(family, st))


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
