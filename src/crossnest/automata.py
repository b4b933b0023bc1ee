"""Finite walk graphs whose closed walks count bounded-crossing diagrams.

Scanning a diagram left to right and remembering, per colour, the shape of
the partial tableau of currently open arcs turns "no j-crossing and no
k-nesting in any colour" into a walk on finitely many states: every shape
must fit inside a (k-1)-row by (j-1)-column box at every half-step.  Closed
walks at the all-empty state then count the admissible diagrams — one step
per gap between consecutive vertices for set partitions (a size-n partition
is an (n-1)-step walk), one step per vertex for permutations (size n is an
n-step walk, with upper and lower shape tuples of equal total size).

For the fully worked-out bound j = k = 2 a shape is either empty or a
single box, so states collapse to subsets of colours: `build_setpartition_22`
uses subsets of open colours, `build_permutation_22` pairs of equal-size
subsets (upper; lower).  These carry the classic edge labels; the general
builder enumerates corner moves instead and is checked against them.

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

Permuting the colours maps each graph onto itself and fixes the start
state, so the colour orbits of states form an equitable partition: every
state of an orbit has the same number of edges into any given orbit.
Closed walks at the start state therefore equal closed walks at the start
orbit of the quotient matrix, whose entry (a, b) counts the edges from one
member of orbit a into orbit b.  `build_quotient` builds that matrix
directly by a breadth-first search over canonical states (the per-colour
shapes, or (upper, lower) shape pairs, in sorted order), so 2^r set
partition states fold into r + 1 orbits.  The `gf` and `series` verbs
count on the quotient; the full graph is built only to be printed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .errors import CapExceeded, ConsistencyError

DEFAULT_MAX_STATES = 20_000


@dataclass
class Multigraph:
    """A multigraph with a distinguished start state (index 0).

    `matrix[a][b]` counts the edges from state a to state b.  The full
    transfer graphs are symmetric; colour quotients (builder "quotient")
    are not, since an orbit's row counts edges from one of its members.
    """

    family: str  # "setpartition" | "permutation"
    j: int
    k: int
    colours: int
    states: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    builder: str = "general"
    edge_labels: Optional[dict] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.states)

    def is_symmetric(self) -> bool:
        m = self.matrix
        return all(
            m[i][j] == m[j][i] for i in range(len(m)) for j in range(i)
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


def _subsets_in_order(r: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(r + 1):
        out.extend(combinations(range(1, r + 1), size))
    return out


def _set_name(s: tuple[int, ...]) -> str:
    return "{%s}" % ",".join(str(c) for c in s)


def build_setpartition_22(r: int) -> Multigraph:
    """The 2^r-state graph for set partitions with no 2-crossing or
    2-nesting in any of r colours.  States are the sets of open colours.

    >>> build_setpartition_22(1).matrix
    ((2, 1), (1, 1))
    """
    if r < 1:
        raise ValueError("need at least one colour")
    states = _subsets_in_order(r)
    index = {s: i for i, s in enumerate(states)}
    m = [[0] * len(states) for _ in states]
    labels: dict[tuple[int, int], list[str]] = {}

    def add(i, jdx, lab):
        m[i][jdx] += 1
        if i > jdx:
            i, jdx = jdx, i
        labels.setdefault((i, jdx), []).append(lab)

    for s in states:
        i = index[s]
        open_set = set(s)
        # do-nothing gap, then a lone arc across the gap per unused colour
        m[i][i] += 1
        labels.setdefault((i, i), []).append("x")
        for c in range(1, r + 1):
            if c not in open_set:
                m[i][i] += 1
                labels.setdefault((i, i), []).append(str(c))
        # open one new colour
        for c in range(1, r + 1):
            if c not in open_set:
                t = tuple(sorted(open_set | {c}))
                add(i, index[t], str(c))
        # close then reopen a different colour across the gap
        for c_close in s:
            for c_open in range(1, r + 1):
                if c_open in open_set:
                    continue
                t = tuple(sorted((open_set - {c_close}) | {c_open}))
                if index[t] > i:
                    add(i, index[t], "%d%d" % tuple(sorted((c_close, c_open))))
    # closing edges are the transposes of the opening ones
    for i in range(len(states)):
        for jdx in range(i):
            m[i][jdx] = m[jdx][i]
    return Multigraph(
        family="setpartition",
        j=2,
        k=2,
        colours=r,
        states=tuple(_set_name(s) for s in states),
        matrix=tuple(tuple(row) for row in m),
        builder="dedicated",
        edge_labels={key: tuple(val) for key, val in labels.items()},
    )


def build_permutation_22(r: int) -> Multigraph:
    """The C(2r, r)-state graph for permutations with no 2-crossing or
    2-nesting in any of r colours.  States pair the open upper colours with
    the open lower colours, necessarily of equal size.

    >>> build_permutation_22(1).matrix
    ((1, 1), (1, 1))
    """
    if r < 1:
        raise ValueError("need at least one colour")
    states: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for size in range(r + 1):
        for u in combinations(range(1, r + 1), size):
            for low in combinations(range(1, r + 1), size):
                states.append((u, low))
    index = {s: i for i, s in enumerate(states)}
    m = [[0] * len(states) for _ in states]
    labels: dict[tuple[int, int], list[str]] = {}

    def add(i, jdx, lab):
        m[i][jdx] += 1
        if i > jdx:
            i, jdx = jdx, i
        labels.setdefault((i, jdx), []).append(lab)

    for u, low in states:
        i = index[(u, low)]
        uset, lset = set(u), set(low)
        # fixed points in colours not open above, and lower-transitory loops
        for c in range(1, r + 1):
            if c not in uset:
                m[i][i] += 1
                labels.setdefault((i, i), []).append(str(c))
        for c in low:
            m[i][i] += 1
            labels.setdefault((i, i), []).append("%dt" % c)
        # upper transitory: swap one open upper colour
        for c_old in u:
            for c_new in range(1, r + 1):
                if c_new in uset:
                    continue
                t = (tuple(sorted((uset - {c_old}) | {c_new})), low)
                if index[t] > i:
                    add(i, index[t], "u%d%d" % tuple(sorted((c_old, c_new))))
        # lower transitory: swap one open lower colour
        for c_old in low:
            for c_new in range(1, r + 1):
                if c_new in lset:
                    continue
                t = (u, tuple(sorted((lset - {c_old}) | {c_new})))
                if index[t] > i:
                    add(i, index[t], "o%d%d" % tuple(sorted((c_old, c_new))))
        # opener: one new upper colour and one new lower colour
        for cu in range(1, r + 1):
            if cu in uset:
                continue
            for cl in range(1, r + 1):
                if cl in lset:
                    continue
                t = (tuple(sorted(uset | {cu})), tuple(sorted(lset | {cl})))
                add(i, index[t], "%d%d" % (cu, cl))
    for i in range(len(states)):
        for jdx in range(i):
            m[i][jdx] = m[jdx][i]
    return Multigraph(
        family="permutation",
        j=2,
        k=2,
        colours=r,
        states=tuple(
            "%s|%s" % (_set_name(u), _set_name(low)) for u, low in states
        ),
        matrix=tuple(tuple(row) for row in m),
        builder="dedicated",
        edge_labels={key: tuple(val) for key, val in labels.items()},
    )


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


def _addable(shape, j: int, k: int):
    """Corners that can be added while staying inside the box."""
    out = []
    for r in range(len(shape) + 1):
        cur = shape[r] if r < len(shape) else 0
        above = shape[r - 1] if r > 0 else j - 1
        if cur < above and r < k - 1:
            out.append(r)
    return out


def _removable(shape):
    out = []
    for r in range(len(shape)):
        below = shape[r + 1] if r + 1 < len(shape) else 0
        if shape[r] > below:
            out.append(r)
    return out


def _grow(shape, r):
    rows = list(shape)
    if r == len(rows):
        rows.append(1)
    else:
        rows[r] += 1
    return tuple(rows)


def _shrink(shape, r):
    rows = list(shape)
    rows[r] -= 1
    if rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)


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
    shape count to the r-th power.

    >>> build_general("setpartition", 3, 3, 1).size
    6
    """
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
            "general builder would need %d states (cap %d); raise the cap to "
            "proceed" % (total, cap)
        )
    if family == "setpartition":
        states = sorted(_tuples(shapes, r), key=lambda st: (_boxes(st), st))
    else:
        by_total: dict[int, list] = {}
        for t in _tuples(shapes, r):
            by_total.setdefault(_boxes(t), []).append(t)
        states = sorted(
            ((u, low) for group in by_total.values() for u in group for low in group),
            key=lambda st: (_boxes(st[0]), st),
        )
    moves = _MOVES[family]
    index = {s: i for i, s in enumerate(states)}
    m = [[0] * len(states) for _ in states]
    for row, st in zip(m, states):
        for t in moves(st, j, k):
            row[index[t]] += 1
    return Multigraph(
        family=family,
        j=j,
        k=k,
        colours=r,
        states=tuple(_state_name(family, st) for st in states),
        matrix=tuple(tuple(row) for row in m),
        builder="general",
    )


def build_quotient(family: str, j: int, k: int, r: int, max_states: Optional[int] = None) -> Multigraph:
    """The colour-orbit quotient of `build_general(family, j, k, r)`.

    A breadth-first search from the empty state over canonical states
    (colour components sorted); `matrix[a][b]` counts the moves from the
    representative of orbit a into orbit b.  Orbit 0 is the start state.
    The search stops as soon as the orbit count passes `max_states`.

    >>> build_quotient("setpartition", 2, 2, 3).matrix
    ((4, 3, 0, 0), (1, 5, 2, 0), (0, 2, 4, 1), (0, 0, 3, 1))
    """
    _check_bounds(family, j, k, r)
    cap = DEFAULT_MAX_STATES if max_states is None else max_states
    start = _start_state(family, r)
    if len(set(_components(family, start))) != 1:
        raise ConsistencyError(
            "start state %s is not fixed by every colour permutation"
            % _state_name(family, start)
        )
    moves = _MOVES[family]
    reps = [start]
    index = {start: 0}
    rows: list[dict[int, int]] = []
    for rep in reps:  # reps grows while it is scanned
        row: dict[int, int] = {}
        for t in moves(rep, j, k):
            t = _canonical(family, t)
            dest = index.get(t)
            if dest is None:
                if len(reps) >= cap:
                    raise CapExceeded(
                        "colour quotient has more than %d orbits; raise the "
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
        matrix=tuple(tuple(row.get(c, 0) for c in range(len(reps))) for row in rows),
        builder="quotient",
    )


def _boxes(shapes) -> int:
    return sum(sum(s) for s in shapes)


def _put(shapes, c, shape):
    return shapes[:c] + (shape,) + shapes[c + 1 :]


def _setpartition_moves(st, j, k):
    """Targets of the gap moves from shape tuple `st`, one per edge."""
    yield st  # gap with no arc
    for c, lam in enumerate(st):
        for a in _addable(lam, j, k):
            grown = _grow(lam, a)
            yield _put(st, c, grown)  # plain opener
            # same-colour open-then-close across the gap
            for b in _removable(grown):
                yield _put(st, c, _shrink(grown, b))
            # open c, close another colour
            for c2, other in enumerate(st):
                if c2 == c:
                    continue
                for b in _removable(other):
                    yield _put(_put(st, c, grown), c2, _shrink(other, b))
        for b in _removable(lam):
            yield _put(st, c, _shrink(lam, b))


def _permutation_moves(state, j, k):
    """Targets of the vertex moves from (upper, lower) shape tuples, one
    per edge."""
    u, low = state
    r = len(u)
    for c in range(r):
        # upper composite: insert, then delete from the grown shape
        for a in _addable(u[c], j, k):
            grown = _grow(u[c], a)
            for b in _removable(grown):
                yield (_put(u, c, _shrink(grown, b)), low)
        # lower composite: delete, then re-insert
        for b in _removable(low[c]):
            shrunk = _shrink(low[c], b)
            for a in _addable(shrunk, j, k):
                yield (u, _put(low, c, _grow(shrunk, a)))
        # cross-colour transitories
        for c2 in range(r):
            if c2 == c:
                continue
            for a in _addable(u[c], j, k):
                for b in _removable(u[c2]):
                    yield (_put(_put(u, c, _grow(u[c], a)), c2, _shrink(u[c2], b)), low)
            for a in _addable(low[c], j, k):
                for b in _removable(low[c2]):
                    yield (u, _put(_put(low, c, _grow(low[c], a)), c2, _shrink(low[c2], b)))
    # openers: one upper and one lower corner
    for cu in range(r):
        for a in _addable(u[cu], j, k):
            for cl in range(r):
                for b in _addable(low[cl], j, k):
                    yield (_put(u, cu, _grow(u[cu], a)), _put(low, cl, _grow(low[cl], b)))
    # closers
    for cu in range(r):
        for a in _removable(u[cu]):
            for cl in range(r):
                for b in _removable(low[cl]):
                    yield (_put(u, cu, _shrink(u[cu], a)), _put(low, cl, _shrink(low[cl], b)))


_MOVES = {"setpartition": _setpartition_moves, "permutation": _permutation_moves}


def _start_state(family: str, r: int):
    empty = ((),) * r
    return empty if family == "setpartition" else (empty, empty)


def _components(family: str, st) -> tuple:
    """The per-colour parts of a state, which colour permutations shuffle."""
    return st if family == "setpartition" else tuple(zip(*st))


def _canonical(family: str, st):
    """The orbit representative: per-colour parts in sorted order."""
    parts = sorted(_components(family, st))
    return tuple(parts) if family == "setpartition" else tuple(zip(*parts))


def _state_name(family: str, st) -> str:
    if family == "setpartition":
        return "|".join(_shape_name(s) for s in st)
    return ";".join("|".join(_shape_name(s) for s in half) for half in st)


def _tuples(shapes, r):
    if r == 0:
        yield ()
        return
    for rest in _tuples(shapes, r - 1):
        for s in shapes:
            yield rest + (s,)


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
    for i in range(g.size):
        for jdx in range(i, g.size):
            count = g.matrix[i][jdx]
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
