"""Differential operators over Laurent series: opers, connections, Miura.

A DiffOp is kept in the normal form c_n d^n + ... + c_1 d + c_0 with the
coefficients written to the left of powers of d = d/dt; multiplication uses
the commutation rule d a = a d + a'.

An oper is an n-tuple (a_1, ..., a_n) of Laurent series, standing for the
relation D^n v = a_1 D^{n-1} v + ... + a_n v satisfied by a cyclic vector v
of a connection D.  Its irregularity is computed by the pole-order formula

    Irr = max{ i - v(a_{n-i}) : i = 0..n, a_0 := 1 } - n,

which is always nonnegative and agrees with the Newton-polygon slope sum;
terms with a_{n-i} = 0 are skipped.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, prod

from .errors import (
    CyclicVectorNotFoundError,
    DimensionMismatchError,
    NotCyclicError,
    PrecisionExhaustedError,
    ValidationError,
)
from .laurent import LaurentElement, int_from_json


class DiffOp:
    """Polynomial in d with Laurent coefficients on the left."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [c for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls([LaurentElement.zero()])

    @classmethod
    def identity(cls):
        return cls([LaurentElement.one()])

    @classmethod
    def d(cls):
        return cls([LaurentElement.zero(), LaurentElement.one()])

    @classmethod
    def first_order(cls, constant_term):
        """d + f for a Laurent element f."""
        return cls([constant_term, LaurentElement.one()])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return LaurentElement.zero()

    def __add__(self, other):
        size = max(len(self.coeffs), len(other.coeffs))
        return DiffOp(
            [self.coefficient(k) + other.coefficient(k) for k in range(size)]
        )

    def __neg__(self):
        return DiffOp([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product normalized with coefficients on the left: d a = a d + a'."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        out = {}
        for p, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for q, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                # d^p b = sum_k C(p, k) b^(k) d^(p-k)
                deriv = b
                for k in range(p + 1):
                    if deriv.is_zero():
                        break
                    idx = p - k + q
                    term = (a * deriv).scale(comb(p, k))
                    out[idx] = out.get(idx, LaurentElement.zero()) + term
                    deriv = deriv.derivative()
        size = max(out) + 1 if out else 1
        return DiffOp([out.get(k, LaurentElement.zero()) for k in range(size)])

    def apply(self, f):
        """Apply the operator to a Laurent element."""
        total = LaurentElement.zero()
        deriv = f
        for c in self.coeffs:
            total = total + c * deriv
            deriv = deriv.derivative()
        return total

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self):
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c.is_zero():
                continue
            dpow = "" if k == 0 else ("d" if k == 1 else f"d^{k}")
            if not dpow:
                parts.append(f"({c})")
            elif c == LaurentElement.one():
                parts.append(dpow)
            else:
                parts.append(f"({c})*{dpow}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class Oper:
    """An n-tuple (a_1, ..., a_n) of Laurent series."""

    __slots__ = ("a",)

    def __init__(self, a):
        a = tuple(a)
        if not a:
            raise ValidationError("an oper has rank at least 1")
        self.a = a

    @property
    def rank(self):
        return len(self.a)

    def irregularity(self):
        return irregularity(self)

    def __eq__(self, other):
        if not isinstance(other, Oper):
            return NotImplemented
        return self.a == other.a

    def agrees_with(self, other):
        return self.rank == other.rank and all(
            x.agrees_with(y) for x, y in zip(self.a, other.a)
        )

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.a) + ")"

    __repr__ = __str__

    def to_json(self):
        return {"rank": self.rank, "a": [c.to_json() for c in self.a]}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not isinstance(data.get("a"), list):
            raise ValidationError("oper payload needs an 'a' list")
        a = [LaurentElement.from_json(entry) for entry in data["a"]]
        if "rank" in data and int_from_json(data["rank"], "oper rank") != len(a):
            raise ValidationError("oper rank does not match coefficient count")
        return cls(a)


def irregularity(chi):
    """max{i - v(a_{n-i})} - n over i = 0..n with a_0 = 1; zero terms skipped."""
    n = chi.rank
    best = n  # the i = n term: a_0 = 1 has valuation 0
    for i in range(n):
        coeff = chi.a[n - 1 - i]  # a_{n-i}, 1-based
        if coeff.is_zero():
            continue
        val = coeff.valuation()  # raises UndeterminedValuationError if hidden
        term = i - val
        if term > best:
            best = term
    return best - n


def miura(h):
    """Expand the product of the first-order factors attached to a Cartan tuple.

    The components are consumed in the written order (index 1 first); the
    expansion convention is the one dual to collecting tau powers on the left
    of the ascending diagonal product, i.e. the factor of index 1 is applied
    last.  Concretely the operator (d - E_nn) ... (d - E_11) is expanded by
    the standard rule and a_l is (-1)^l times the d^{n-l} coefficient, so for
    n = 2:

        a_1 = E_11 + E_22,      a_2 = E_11 E_22 - E_11'.

    Holomorphic input produces holomorphic output; meromorphic input is
    accepted as well.
    """
    h = list(h)
    if not h:
        raise ValidationError("miura needs at least one component")
    op = DiffOp.identity()
    for component in h:
        op = DiffOp.first_order(-component) * op
    n = len(h)
    a = []
    for ell in range(1, n + 1):
        sign = -1 if ell % 2 else 1
        a.append(op.coefficient(n - ell).scale(sign))
    return Oper(a)


class Connection:
    """D = d/dt + A acting on column vectors of Laurent series."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = tuple(tuple(row) for row in matrix)
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise ValidationError("connection matrix must be square and nonempty")
        self.matrix = matrix

    @property
    def rank(self):
        return len(self.matrix)

    def apply(self, vector):
        """D(v) = v' + A v, componentwise exact."""
        if len(vector) != self.rank:
            raise DimensionMismatchError(
                f"vector of length {len(vector)} against rank {self.rank}"
            )
        out = []
        for r in range(self.rank):
            entry = vector[r].derivative()
            for c in range(self.rank):
                entry = entry + self.matrix[r][c] * vector[c]
            out.append(entry)
        return out

    def to_json(self):
        return {
            "rank": self.rank,
            "matrix": [[e.to_json() for e in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, data):
        matrix = data.get("matrix") if isinstance(data, dict) else None
        if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
            raise ValidationError("connection payload needs a 'matrix' list of row lists")
        return cls(
            [[LaurentElement.from_json(e) for e in row] for row in matrix]
        )


class CyclicVector:
    """A vector whose iterated images under D form a basis."""

    __slots__ = ("components", "certificate")

    def __init__(self, components, certificate):
        self.components = tuple(components)
        self.certificate = certificate

    def to_json(self):
        return {
            "vector": [c.to_json() for c in self.components],
            "certificate": self.certificate.to_json(),
        }


def laurent_matrix_det(matrix):
    """Exact determinant by cofactor expansion along the first column."""
    return _cofactor_minors(matrix, [range(len(matrix))])[0]


def _cofactor_minors(rows, orders):
    """The n x n determinants of `rows` read through each column order.

    Each determinant is expanded along its first column, row by row in the
    stated order with alternating signs, exactly as the textbook recursion
    does, so every product and sum is grouped the same way and the tracked
    precision is the one LaurentElement arithmetic gives.  Minors are shared
    through one table keyed by (remaining columns, remaining rows): orders
    that end in the same column suffix reuse each other's sub-minors, which
    brings n! products down to n 2^(n-1) per order.  After each order, the
    minors of suffixes that no later order ends in are dropped.

    Each row is first scaled by the common denominator of its entries, so
    the table adds and multiplies plain integers; every full minor carries
    the product of all scales, which is divided out once at the end.  A node
    is (coefficients, precision, lower bound) under LaurentElement's rules:
    an exact zero has no coefficients and precision None, a product is known
    below min(lb_a + p_b, lb_b + p_a), a sum below the least of its terms'.
    """
    scales = []
    entries = []
    for row in rows:
        scale = lcm(*(c.denominator for e in row for c in e._coeff.values()))
        scales.append(scale)
        entries.append([
            (
                {k: c.numerator * (scale // c.denominator) for k, c in e._coeff.items()},
                e.precision,
                e._lower_bound(),
            )
            for e in row
        ])
    divisor = prod(scales)
    memo = {}  # column suffix -> {remaining rows: node}

    def minor(live, cols):
        if len(cols) == 1:
            return entries[live[0]][cols[0]]
        known = memo.setdefault(cols, {})
        node = known.get(live)
        if node is not None:
            return node
        rest = cols[1:]
        table = {}
        prec = None
        for pos, r in enumerate(live):
            a, pa, la = entries[r][cols[0]]
            if la is None:  # exact zero entry
                continue
            b, pb, lb = minor(live[:pos] + live[pos + 1 :], rest)
            if lb is None:  # exact zero cofactor
                continue
            p = None if pb is None else la + pb
            if pa is not None and (p is None or lb + pa < p):
                p = lb + pa
            if p is not None and (prec is None or p < prec):
                prec = p
            sign = -1 if pos % 2 else 1
            for k1, c1 in a.items():
                c1 *= sign
                for k2, c2 in b.items():
                    k = k1 + k2
                    if p is None or k < p:
                        table[k] = table.get(k, 0) + c1 * c2
        table = {
            k: c for k, c in table.items() if c and (prec is None or k < prec)
        }
        node = (table, prec, min(table) if table else prec)
        known[live] = node
        return node

    live = tuple(range(len(rows)))
    orders = [tuple(order) for order in orders]
    out = []
    for j, order in enumerate(orders):
        table, prec, _ = minor(live, order)
        out.append(
            LaurentElement(
                {k: Fraction(c, divisor) for k, c in table.items()}, prec
            )
        )
        # keep peak memory down: drop the minors no later order ends in
        later = {o[k:] for o in orders[j + 1 :] for k in range(len(o))}
        for cols in memo.keys() - later:
            del memo[cols]
    return out


def oper_to_connection(chi):
    """Companion-form connection: D e_k = e_{k+1} and D e_n = sum a_l e_{n+1-l}."""
    n = chi.rank
    zero = LaurentElement.zero()
    matrix = [[zero for _ in range(n)] for _ in range(n)]
    for k in range(n - 1):
        matrix[k + 1][k] = LaurentElement.one()
    for r in range(n):
        matrix[r][n - 1] = chi.a[n - 1 - r]
    return Connection(matrix)


def _iterated_images(conn, vector):
    images = [list(vector)]
    for _ in range(conn.rank):
        images.append(conn.apply(images[-1]))
    return images


def certificate_determinant(conn, vector):
    """det(v | Dv | ... | D^{n-1} v), exact."""
    images = _iterated_images(conn, vector)[: conn.rank]
    matrix = [[images[c][r] for c in range(conn.rank)] for r in range(conn.rank)]
    return laurent_matrix_det(matrix)


def cyclic_vector_search(conn, degree_bound=3):
    """Deterministic search for a cyclic vector with polynomial components.

    Tries the standard basis vectors, then sums of distinct basis vectors
    with staggered powers t^{k*i}, then an exhaustive enumeration of
    monomial-supported candidates within the degree bound.  A candidate
    counts only when its certificate determinant has a known nonzero term:
    one that is zero up to its precision certifies nothing.
    """
    if degree_bound < 0:
        raise ValidationError("degree bound must be nonnegative")
    n = conn.rank
    zero = LaurentElement.zero()

    def basis_vector(indices_with_exponents):
        v = [zero] * n
        for idx, exp in indices_with_exponents:
            v[idx] = v[idx] + LaurentElement.monomial(exp)
        return v

    def candidates():
        for i in range(n):
            yield basis_vector([(i, 0)])
        for size in range(2, n + 1):
            for subset in combinations(range(n), size):
                for k in range(degree_bound + 1):
                    if k * (size - 1) > degree_bound:
                        break
                    yield basis_vector(
                        [(idx, k * pos) for pos, idx in enumerate(subset)]
                    )
        # exhaustive monomial supports: exponent -1 marks an absent component
        for choice in product(range(-1, degree_bound + 1), repeat=n):
            if all(e < 0 for e in choice):
                continue
            yield basis_vector([(i, e) for i, e in enumerate(choice) if e >= 0])

    seen = set()
    for vec in candidates():
        key = tuple(tuple(c.items()) for c in vec)
        if key in seen:
            continue
        seen.add(key)
        det = certificate_determinant(conn, vec)
        if not det.is_zero_mod_precision():
            return CyclicVector(vec, det)
    raise CyclicVectorNotFoundError(
        f"no cyclic vector with degree bound {degree_bound}; raise the bound"
    )


def connection_to_oper(conn, vector, working_precision=None):
    """Solve D^n v = a_1 D^{n-1} v + ... + a_n v by Cramer's rule.

    Components of the cyclic vector must be exact (finite) Laurent elements.
    The certificate determinant and the n numerators are read from one minor
    table over the augmented matrix (D^{n-1} v, ..., v | D^n v), so they
    share every minor of the columns they have in common.  The division by
    the certificate determinant uses truncated series inversion; a
    single-monomial determinant inverts exactly, so companion systems
    round-trip with no precision loss.  On precision exhaustion the working
    precision is doubled a few times before giving up.
    """
    components = vector.components if isinstance(vector, CyclicVector) else vector
    n = conn.rank
    if len(components) != n:
        raise DimensionMismatchError("cyclic vector length does not match rank")
    images = _iterated_images(conn, components)
    # columns D^{n-1} v, ..., D v, v and, as column n, the target D^n v
    augmented = [[images[n - 1 - c][r] for c in range(n)] + [images[n][r]]
                 for r in range(n)]
    # numerator idx takes the target in place of column idx
    orders = [range(n)] + [
        [n if c == idx else c for c in range(n)] for idx in range(n)
    ]
    det, *numerators = _cofactor_minors(augmented, orders)
    if det.is_zero():
        raise NotCyclicError("certificate determinant vanishes; vector is not cyclic")

    order = working_precision if working_precision is not None else 4 * n + 8
    attempts = 3
    for attempt in range(attempts):
        try:
            inv = det.invert(order)
            return Oper([numerator * inv for numerator in numerators])
        except PrecisionExhaustedError:
            if attempt == attempts - 1:
                raise
            order *= 2
    raise PrecisionExhaustedError("unreachable")


def newton_polygon_irregularity(chi):
    """Sum of the positive slopes of the Newton polygon, by brute-force hull.

    Independent reference computation for the irregularity: plot the points
    (i, v(a_{n-i}) - i) for the nonzero coefficients (with a_0 = 1 at i = n),
    take the lower convex hull, and add up slope times horizontal length over
    the positive-slope segments.  Exact rational arithmetic throughout.
    """
    n = chi.rank
    points = [(n, Fraction(-n))]
    for i in range(n):
        coeff = chi.a[n - 1 - i]
        if coeff.is_zero():
            continue
        points.append((i, Fraction(coeff.valuation() - i)))
    lowest = {}
    for x, y in points:
        if x not in lowest or y < lowest[x]:
            lowest[x] = y
    points = sorted(lowest.items())
    # lower convex hull, left to right (monotone chain)
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            cross = (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if y2 > y1:
            total += y2 - y1
    if total.denominator != 1:
        raise ValidationError("slope sum is not an integer; malformed polygon")
    return int(total)
