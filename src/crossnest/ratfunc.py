"""Exact integer-polynomial linear algebra and rational generating series.

Everything here is exact: polynomials are integer coefficient tuples,
determinants use fraction-free elimination (divisions are checked, never
rounded), and a large characteristic polynomial is one Hessenberg
reduction modulo a product of primes past a rigorous coefficient bound,
which is exact because every pivot it inverts is checked to be a unit
(if one is not, it restarts on fresh primes).

The closed walks at state 0 of an n-state graph with adjacency A have the
generating function U = [(I - xA)^-1]_00 = N / D, with D = det(I - xA) a
reversed characteristic polynomial and, by the adjugate formula, N the
determinant of the minor of I - xA at 0, of degree below n.  So
N = D * U mod x^n, and only D takes a determinant; the first n walk counts
come from repeated application of the sparse rows.  `gf_from_graph` first
lumps the graph to its coarsest equitable partition that keeps state 0
alone (`lump`): if P maps states to cells and the cells' rows Q satisfy
AP = PQ, then (A^t)_00 = (Q^t)_00 for every t, so the determinant and the
walks run on Q, with n the number of cells.  Its state cap counts the
states of the graph as given.  `series_by_power` walks the graph as given,
and the tests and the selftest compare it with the recurrence of N / D,
which checks the lumping and D from term n on.
"""
from __future__ import annotations

from math import gcd, isqrt

from .diagrams import _Value
from .errors import CapExceeded, ConsistencyError

DEFAULT_MAX_GF_STATES = 200


class IntPoly:
    """An integer polynomial as an ascending coefficient tuple.

    >>> x = IntPoly([0, 1])
    >>> ((1 - x) * (1 + x)).coeffs
    (1, 0, -1)
    >>> IntPoly([1, 2, 1]).exact_div(IntPoly([1, 1])).coeffs
    (1, 1)
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly([other])
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        return "IntPoly(%r)" % (list(self.coeffs),)

    @staticmethod
    def _coerce(other) -> "IntPoly":
        return other if isinstance(other, IntPoly) else IntPoly([other])

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Division that must leave no remainder (ValueError otherwise)."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return IntPoly()
        num = list(self.coeffs)
        dl = other.degree()
        dc = other.coeffs[-1]
        if len(num) - 1 < dl:
            raise ValueError("not divisible (degree too small)")
        quot = [0] * (len(num) - dl)
        for e in range(len(num) - 1, dl - 1, -1):
            c = num[e]
            if c == 0:
                continue
            if c % dc:
                raise ValueError("not divisible")
            f = c // dc
            quot[e - dl] = f
            for i, oc in enumerate(other.coeffs):
                num[e - dl + i] -= f * oc
        if any(num):
            raise ValueError("not divisible")
        return IntPoly(quot)

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPoly":
        g = self.content()
        return self if g in (0, 1) else IntPoly([c // g for c in self.coeffs])

    def to_text(self) -> str:
        """Human form, ascending powers: '1 - 4*x + x^2'."""
        if self.is_zero():
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                xs = "x" if e == 1 else "x^%d" % e
                body = xs if mag == 1 else "%d*%s" % (mag, xs)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


ONE = IntPoly([1])
X = IntPoly([0, 1])


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder; all divisions stay in the integers by scaling."""
    da, db = a.degree(), b.degree()
    if da < db:
        return a
    lb = b.coeffs[-1]
    r = list(a.coeffs)
    for e in range(da, db - 1, -1):
        top = r[e]
        r = [lb * c for c in r]
        for i, bc in enumerate(b.coeffs):
            r[e - db + i] -= top * bc
        if r[e]:
            raise ConsistencyError("pseudo-remainder left a leading term")
    return IntPoly(r[:db])


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor with positive leading coefficient.

    >>> poly_gcd(IntPoly([1, 2, 1]), IntPoly([1, 1])).coeffs
    (1, 1)
    """
    if a.is_zero() and b.is_zero():
        return IntPoly()
    if a.is_zero() or b.is_zero():
        g = b if a.is_zero() else a
        return g if g.coeffs[-1] > 0 else -g
    cont = gcd(a.content(), b.content())
    a, b = a.primitive(), b.primitive()
    while not b.is_zero():
        a, b = b, _prem(a, b).primitive()
    g = a.primitive() * cont
    return g if g.coeffs[-1] > 0 else -g


# ---------------------------------------------------------------------------
# determinants


def _order(mat) -> int:
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    return n


def det(matrix) -> IntPoly:
    """Fraction-free determinant of a square matrix of integer polynomials.

    >>> det([[IntPoly([1, 1]), IntPoly([1])], [IntPoly([1]), IntPoly([1])]]).coeffs
    (0, 1)
    """
    n = _order(matrix)
    m = [[IntPoly._coerce(entry) for entry in row] for row in matrix]
    if n == 0:
        return ONE
    sign = 1
    prev = ONE
    for col in range(n - 1):
        if m[col][col].is_zero():
            for r in range(col + 1, n):
                if not m[r][col].is_zero():
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return IntPoly()
        piv = m[col][col]
        for r in range(col + 1, n):
            row = m[r]
            for c in range(col + 1, n):
                row[c] = (row[c] * piv - row[col] * m[col][c]).exact_div(prev)
            row[col] = IntPoly()
        prev = piv
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# characteristic polynomials modulo a product of primes, for big matrices

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24 with the fixed base set
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """Yield the primes above 2^61 in increasing order, without end."""
    candidate = (1 << 61) + 1
    while True:
        if _is_prime(candidate):
            yield candidate
        candidate += 2


class _PivotNotUnit(ArithmeticError):
    """A Hessenberg pivot shares a factor with the modulus."""


def _charpoly_mod(mat, m: int) -> list[int]:
    """det(yI - mat) mod m, via Hessenberg reduction: similarity
    transforms by ring operations and one pivot inverse per column, so
    exact modulo any m whose every pivot is a unit (else _PivotNotUnit)."""
    n = len(mat)
    h = [[x % m for x in row] for row in mat]
    for col in range(n - 2):
        piv_row = next((r for r in range(col + 1, n) if h[r][col]), None)
        if piv_row is None:
            continue
        if piv_row != col + 1:
            h[col + 1], h[piv_row] = h[piv_row], h[col + 1]
            for row in h:
                row[col + 1], row[piv_row] = row[piv_row], row[col + 1]
        piv = h[col + 1][col]
        if gcd(piv, m) != 1:
            raise _PivotNotUnit
        inv = pow(piv, -1, m)
        for r in range(col + 2, n):
            f = h[r][col] * inv % m
            if not f:
                continue
            hr, hc = h[r], h[col + 1]
            for c in range(col, n):
                hr[c] = (hr[c] - f * hc[c]) % m
            for rr in range(n):
                row = h[rr]
                row[col + 1] = (row[col + 1] + f * row[r]) % m
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [0] * (k + 1)
        a = h[k - 1][k - 1]
        for idx, cf in enumerate(prev):
            cur[idx + 1] = (cur[idx + 1] + cf) % m
            cur[idx] = (cur[idx] - a * cf) % m
        mult = 1
        for i in range(1, k):
            mult = mult * h[k - i][k - i - 1] % m
            if not mult:
                break
            coeff = h[k - 1 - i][k - 1] * mult % m
            if coeff:
                for idx, cf in enumerate(polys[k - 1 - i]):
                    cur[idx] = (cur[idx] - coeff * cf) % m
        polys.append(cur)
    return polys[n]


def charpoly(mat) -> IntPoly:
    """det(yI - mat) for a square integer matrix, exactly.

    One Hessenberg reduction runs modulo a product of 61-bit primes past
    twice the Hadamard-style bound |coefficient| <= (1 + max column
    norm)^n, and each residue is lifted to the symmetric range.  A pivot
    that is not a unit there restarts it with fresh primes; this ends, as
    all but finitely many primes reduce exactly as the rationals do.
    """
    n = _order(mat)
    norm_sq = max((sum(row[c] ** 2 for row in mat) for c in range(n)), default=0)
    bound = 2 * (1 + isqrt(norm_sq) + 1) ** n
    primes = _primes()
    while True:
        modulus = 1
        while modulus <= bound:
            modulus *= next(primes)
        try:
            residues = _charpoly_mod(mat, modulus)
        except _PivotNotUnit:
            continue
        return IntPoly([c - modulus if 2 * c > modulus else c for c in residues])


def det_identity_minus_x(mat) -> IntPoly:
    """det(I - x*mat) for a square integer matrix.

    The reversed characteristic polynomial.  Matrices up to 4 x 4 go
    through the polynomial elimination directly, which is no slower there;
    from 5 x 5 on the modular `charpoly` is faster.
    """
    n = _order(mat)
    if n <= 4:
        entries = [
            [IntPoly([1 if r == c else 0, -mat[r][c]]) for c in range(n)]
            for r in range(n)
        ]
        return det(entries)
    ch = charpoly(mat)
    if ch.degree() != n or ch.coeffs[-1] != 1:
        raise ConsistencyError(
            "characteristic polynomial of a %d x %d matrix is not monic of "
            "degree %d" % (n, n, n)
        )
    return IntPoly(list(reversed(ch.coeffs)))


# ---------------------------------------------------------------------------
# rational functions and series


class RationalFunction:
    """A reduced ratio of integer polynomials.

    Normal form: numerator and denominator coprime (including content) and
    the denominator's lowest nonzero coefficient positive.

    >>> rf = RationalFunction(IntPoly([2, 2]), IntPoly([2, 0, -2]))
    >>> rf.to_text()
    '(1) / (1 - x)'
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly):
        num, den = IntPoly._coerce(num), IntPoly._coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = ONE
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0 or g.coeffs != (1,):
                num, den = num.exact_div(g), den.exact_div(g)
        low = next(c for c in den.coeffs if c)
        if low < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def to_text(self) -> str:
        return "(%s) / (%s)" % (self.num.to_text(), self.den.to_text())


class Series(_Value):
    """Initial coefficients of a counting series."""

    _fields = __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(coeffs))


def series(rf: RationalFunction, terms: int) -> Series:
    """First `terms` coefficients of the power series of num/den.

    >>> series(RationalFunction(IntPoly([1, -1]), IntPoly([1, -3, 1])), 5).coeffs
    (1, 2, 5, 13, 34)
    """
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    dcs = rf.den.coeffs
    if not dcs or dcs[0] == 0:
        raise ValueError("series requires a nonzero constant denominator term")
    d0 = dcs[0]
    ncs = rf.num.coeffs
    out: list[int] = []
    for t in range(terms):
        acc = ncs[t] if t < len(ncs) else 0
        for i in range(1, min(t, len(dcs) - 1) + 1):
            acc -= dcs[i] * out[t - i]
        if acc % d0:
            raise ValueError("series has non-integer coefficients")
        out.append(acc // d0)
    return Series(tuple(out))


def gf_from_graph(g, max_states: int | None = None) -> RationalFunction:
    """Closed-walk generating function at the start state of a graph.

    The graph is lumped first (`lump`), and the rest runs on its m cells'
    rows A, which have the same closed walks at the start.  One
    determinant, D = det(I - xA); the numerator, of degree below m, is D
    times the first m walk counts, truncated below x^m.
    Guarded by a state cap (default 200) on the states of `g` as given:
    determinants of the very large cases reported as infeasible are
    refused rather than attempted.
    """
    cap = DEFAULT_MAX_GF_STATES if max_states is None else max_states
    n = len(g.rows)
    if n > cap:
        raise CapExceeded(
            "transfer matrix has %d states (cap %d); raise the cap to attempt it"
            % (n, cap)
        )
    if n == 0:
        raise ValueError("graph has no states")
    cells = lump(g)
    lumped: dict[int, dict[int, int]] = {}
    for a, row in enumerate(g.rows):  # the first state of a cell stands for it
        if cells[a] not in lumped:
            lumped[cells[a]] = _by_cell(row, cells)
    rows = tuple(lumped.values())  # in cell order, as cells number first states
    m = len(rows)
    den = det_identity_minus_x([[row.get(b, 0) for b in range(m)] for row in rows])
    walks = IntPoly(_walks(rows, m))
    return RationalFunction(IntPoly((den * walks).coeffs[:m]), den)


def lump(g) -> list[int]:
    """The cell of each state of `g` in its coarsest equitable partition
    that keeps the start state 0 alone, cells numbered in order of first
    state.

    Every state of a cell has the same number of edges into each cell, so
    one state's row summed by cell is the cell's row, and the cells' rows
    have the closed walks at state 0 of `g` (lumpability, as in Kemeny and
    Snell, *Finite Markov Chains*, 1960).  Plain refinement from {0} and
    the rest: a state's signature is its cell and its edge counts into
    each cell, and cells split by signature until none does (Paige and
    Tarjan, SIAM J. Comput. 16, 1987, without their bookkeeping).
    """
    rows = g.rows
    cells = [min(a, 1) for a in range(len(rows))]
    count = len(set(cells))
    while True:
        number: dict = {}
        split = [
            number.setdefault((cells[a], frozenset(_by_cell(row, cells).items())), len(number))
            for a, row in enumerate(rows)
        ]
        if len(number) == count:
            return split
        cells, count = split, len(number)


def _by_cell(row: dict[int, int], cells: list[int]) -> dict[int, int]:
    """A `{target: count}` row summed by the targets' cells."""
    into: dict[int, int] = {}
    for b, count in row.items():
        into[cells[b]] = into.get(cells[b], 0) + count
    return into


def series_by_power(g, terms: int) -> Series:
    """The same coefficients as `series(gf_from_graph(g), ...)`, by
    repeatedly applying the sparse adjacency rows of `g`, as given, to the
    start vector."""
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    if not g.rows:
        raise ValueError("graph has no states")
    return Series(tuple(_walks(g.rows, terms)))


def _walks(rows, terms: int) -> list[int]:
    """The closed walks at state 0 of lengths 0 to terms - 1 over sparse
    `{target: count}` rows."""
    n = len(rows)
    out: list[int] = []
    vec = [0] * n
    vec[0] = 1
    for _ in range(terms):
        out.append(vec[0])
        nxt = [0] * n
        for v, row in zip(vec, rows):
            if v:
                for c, count in row.items():
                    nxt[c] += v * count
        vec = nxt
    return out


def split_linear_factors(p: IntPoly):
    """Write p as constant * product of (1 - m*x), if it splits over the
    integers; returns (constant, sorted slopes) or None.

    Every slope divides the leading coefficient, and if p = a0 * prod(1 -
    m_i*x) then sum(m_i^2) = (a1^2 - 2*a0*a2) / a0^2, so no slope exceeds
    the square root of that in size: only divisors up to it are tried.

    >>> split_linear_factors(IntPoly([1, -8, 12]))
    (1, (2, 6))
    """
    if p.is_zero():
        return None
    work = p
    slopes: list[int] = []
    while work.degree() >= 1:
        a0, a1, a2 = (work.coeffs + (0,))[:3]
        if a0 == 0:
            return None
        squares, rest = divmod(a1 * a1 - 2 * a0 * a2, a0 * a0)
        if squares < 0 or rest:
            return None
        for m in _divisor_candidates(abs(work.coeffs[-1]), isqrt(squares)):
            total = 0
            for c in work.coeffs:  # ascending: total = m^deg * work(1/m)
                total = total * m + c
            if total == 0:
                work = work.exact_div(IntPoly([1, -m]))
                slopes.append(m)
                break
        else:
            return None
    return (work.coeffs[0], tuple(sorted(slopes)))


def _divisor_candidates(n: int, bound: int):
    """The divisors d <= bound of n, smallest first, each as d and -d."""
    divs = set()
    for d in range(1, min(isqrt(n), bound) + 1):
        if n % d == 0:
            divs.add(d)
            if n // d <= bound:
                divs.add(n // d)
    for d in sorted(divs):
        yield d
        yield -d
