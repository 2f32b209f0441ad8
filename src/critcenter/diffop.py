"""Opers, connections and the Miura expansion over Laurent series.

An oper is an n-tuple (a_1, ..., a_n) of Laurent series, standing for the
relation D^n v = a_1 D^{n-1} v + ... + a_n v satisfied by a cyclic vector v
of a connection D.  Its irregularity is computed by the pole-order formula

    Irr = max{ i - v(a_{n-i}) : i = 0..n, a_0 := 1 } - n,

which is always nonnegative and agrees with the Newton-polygon slope sum;
terms with a_{n-i} = 0 are skipped.

Cyclic vectors are certified, and opers extracted, from the scaled images
W_k = L^k D^k v of ``Connection._images``.  Each row of an image is one
``LaurentElement.dot``, which holds the product-precision rule, and a
connection keeps the images of the last vector it was asked about, so the
extraction extends the images the search left for the vector it found.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import isqrt, lcm

from .errors import (
    CyclicVectorNotFoundError,
    DimensionMismatchError,
    NotCyclicError,
    ValidationError,
)
from .laurent import LaurentElement, int_from_json


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

    def __eq__(self, other):
        if not isinstance(other, Oper):
            return NotImplemented
        return self.a == other.a

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
    last.  Concretely the operator (d - E_nn) ... (d - E_11) is expanded with
    its coefficients on the left of the powers of d = d/dt, and a_l is
    (-1)^l times the d^{n-l} coefficient, so for n = 2:

        a_1 = E_11 + E_22,      a_2 = E_11 E_22 - E_11'.

    Multiplying c_0 + c_1 d + ... + c_k d^k on the left by d + f, by the rule
    d c = c d + c', gives the coefficients c_{j-1} + c_j' + f c_j.

    Holomorphic input produces holomorphic output; meromorphic input is
    accepted as well.
    """
    h = list(h)
    if not h:
        raise ValidationError("miura needs at least one component")
    coeffs = [LaurentElement.one()]
    for component in h:
        f = -component
        shifted = [LaurentElement.zero()] + coeffs
        for j, c in enumerate(coeffs):
            if c.is_zero():
                continue
            shifted[j] = shifted[j] + c.derivative() + f * c
        coeffs = shifted
    n = len(h)
    return Oper(coeffs[n - ell].scale(-1 if ell % 2 else 1) for ell in range(1, n + 1))


class Connection:
    """D = d/dt + A acting on column vectors of Laurent series.

    ``denominator`` is the common denominator L of A's coefficients and
    ``integral`` is L*A, whose coefficients are ints.  ``_last`` is the
    key and images of the last vector ``_images`` was asked about.
    """

    __slots__ = ("matrix", "denominator", "integral", "_last")

    def __init__(self, matrix):
        matrix = tuple(tuple(row) for row in matrix)
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise ValidationError("connection matrix must be square and nonempty")
        self.matrix = matrix
        self.denominator = lcm(
            *(c.denominator for row in matrix for e in row for _, c in e.items())
        )
        self.integral = tuple(
            tuple(e.scale(self.denominator) for e in row) for row in matrix
        )
        self._last = (None, None)

    @property
    def rank(self):
        return len(self.matrix)

    def apply(self, vector):
        """D(v) = v' + A v, componentwise exact: W_1 scaled by 1/L."""
        scale = Fraction(1, self.denominator)
        return [w.scale(scale) for w in self._images(vector, 2)[1]]

    def _images(self, vector, count):
        """The first ``count`` images W_k = L^k D^k v.

        Each step is W_{k+1} = L W_k' + (L A) W_k, one ``LaurentElement.dot``
        per row, and it is D(v) = v' + A v when L = 1.  By induction W_k is
        exactly L^k D^k v, and as multiplying by the nonzero constant L
        moves no lower bound, no precision and no exact zero, the tracked
        precision of W_k is that of D^k v.

        The images of the last vector asked about (keyed on its components)
        are kept and extended when more are asked for, so
        ``connection_to_oper`` on the vector ``cyclic_vector_search`` found
        computes only W_n.  Images and their rows are tuples, and an
        extension builds a new tuple, so nothing handed out ever changes.
        """
        if len(vector) != self.rank:
            raise DimensionMismatchError(
                f"vector of length {len(vector)} against rank {self.rank}"
            )
        key = tuple(vector)
        last_key, images = self._last
        if last_key != key:
            images = (key,)
        while len(images) < count:
            w = images[-1]
            images += (tuple(
                LaurentElement.dot(
                    zip(row, w), entry.derivative().scale(self.denominator)
                )
                for row, entry in zip(self.integral, w)
            ),)
        self._last = (key, images)
        return images[:count]

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
    stated order with alternating signs, skipping exact-zero entries, as the
    textbook recursion does.  Minors are shared through one table keyed by
    (remaining columns, remaining rows), so orders that end in the same
    column suffix reuse each other's sub-minors: n 2^(n-1) products per
    order instead of n!.  The table lives for the call.

    If every entry is exact with int coefficients, as the callers' scaled
    images of an integral vector are, the same recursion runs on ints by
    Kronecker substitution t -> 2^B (Harvey, J. Symb. Comput. 2009): one
    big-int multiply per cofactor product.  Entry a_rc is packed as
    t^(-s_c) a_rc at t = 2^B, s_c the least exponent in column c, so the
    minor over the columns C packs as t^(-sum_{c in C} s_c) times itself;
    evaluation is a ring map, so the int arithmetic is exact.  The width
    comes from Hadamard's bound.  On |t| = 1 each coefficient of a Laurent
    polynomial is at most the largest absolute value it takes there (the
    coefficient is its mean against t^-k), and |a_rc(t)| <= ||a_rc||_1.
    Hadamard bounds |det| by the product of its column 2-norms, so with
    P_c = sum_r ||a_rc||_1^2 a minor over C, on any of the rows, has every
    coefficient at most sqrt(prod_{c in C} P_c) <= M = isqrt(prod_c
    max(1, P_c)) + 1.  A partial sum of a first-column expansion is the
    determinant with some first-column entries set to 0, so the same bound
    covers it.  With B = M.bit_length() + 1 every coefficient lies below
    2^(B-1) in absolute value, its balanced base-2^B digits are unique, and
    a finished minor is decoded once per order (``_unpack``); a packed
    entry is 0 exactly when the entry is.
    An entry with a precision or a Fraction coefficient keeps the whole
    table in LaurentElement arithmetic and its precision rules.
    """
    table, zero = rows, LaurentElement.zero()
    exact = all(e.precision is None and all(type(c) is int for c in e._coeff.values())
                for row in rows for e in row)
    if exact:
        columns = list(zip(*rows))
        shifts = [min((k for e in col for k in e._coeff), default=0) for col in columns]
        bound = 1
        for col in columns:
            bound *= max(1, sum(sum(map(abs, e._coeff.values())) ** 2 for e in col))
        width = (isqrt(bound) + 1).bit_length() + 1
        table = [[sum(c << width * (k - s) for k, c in e._coeff.items())
                  for e, s in zip(row, shifts)] for row in rows]
        zero = 0
    memo = {}
    live = tuple(range(len(rows)))
    out = []
    for order in map(tuple, orders):
        value = _minor(table, memo, zero, live, order)
        if exact:
            value = _unpack(value, width, sum(shifts[c] for c in order))
        out.append(value)
    return out


def _minor(table, memo, zero, live, cols):
    """The minor of ``table`` on the rows ``live`` and the columns ``cols``.

    Expanded along its first column, and memoised in ``memo`` on
    ``(cols, live)``; the caller owns ``memo``.
    """
    if len(cols) == 1:
        return table[live[0]][cols[0]]
    total = memo.get((cols, live))
    if total is not None:
        return total
    rest = cols[1:]
    total = zero
    for pos, r in enumerate(live):
        entry = table[r][cols[0]]
        if entry == zero:
            continue
        cofactor = _minor(table, memo, zero, live[:pos] + live[pos + 1 :], rest)
        total = total + entry * (-cofactor if pos % 2 else cofactor)
    memo[cols, live] = total
    return total


def _unpack(value, width, shift):
    """sum_i d_i t^(shift + i) over the balanced base-2^width digits d_i of value."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    terms, k = {}, shift
    while value:
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        if digit:
            terms[k] = digit
        value = (value - digit) >> width
        k += 1
    return LaurentElement._adopt(terms, None)


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


def certificate_determinant(conn, vector):
    """det(v | Dv | ... | D^{n-1} v), exact.

    Read from the scaled images W_k = L^k D^k v, whose determinant is
    L^(n(n-1)/2) times it: every term of a minor carries the same power of
    L, so the scaling changes no tracked precision.
    """
    n = conn.rank
    images = conn._images(vector, n)
    matrix = [[images[c][r] for c in range(n)] for r in range(n)]
    return laurent_matrix_det(matrix).scale(
        Fraction(1, conn.denominator ** (n * (n - 1) // 2))
    )


def cyclic_vector_search(conn, degree_bound=3):
    """Deterministic search for a cyclic vector with polynomial components.

    Tries sums of distinct basis vectors with staggered powers t^{k*i},
    smallest subsets first (so the standard basis vectors come first, each
    tried once), then an exhaustive enumeration of monomial-supported
    candidates within the degree bound.  A candidate counts only when its
    certificate determinant has a known nonzero term: one that is zero up
    to its precision certifies nothing.
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
        for size in range(1, n + 1):
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

    Components of the cyclic vector may be truncated (``O(t^p)``).  Every
    sum and product then follows the Laurent precision rules (the images
    and minors through ``LaurentElement.dot``, each quotient through
    ``divide``), so each a_l comes back with the precision below which the
    given coefficients determine it: there it agrees with the oper of every
    vector that agrees with v below its components' precisions, the exact
    one included.  A determinant that is zero up to its precision has no
    known valuation and raises ``UndeterminedValuationError``; one whose
    precision leaves no term of its inverse raises
    ``PrecisionExhaustedError``.

    The certificate determinant and the n numerators are read from one minor
    table over the augmented matrix (W_{n-1}, ..., W_0 | W_n) of the scaled
    images W_k = L^k D^k v (``Connection._images``, which for the vector a
    search just certified computes only W_n), so they share every
    minor of the columns they have in common, and for an integral vector
    the table runs on ints.  Column c < n carries the factor L^(n-1-c) and
    column n the factor L^n, so det_W = L^(n(n-1)/2) det and the numerator
    with column idx replaced is num_W = L^(n(n-1)/2 - (n-1-idx) + n) num.
    Hence

        a_idx = num / det = (num_W / L^(idx+1)) / det_W,

    and as scaling moves no lower bound, precision or exact zero, a_idx is
    ``num * det.invert(order)`` in every coefficient and in its precision.
    ``LaurentElement.divide`` computes num_W / det_W, and the factor
    1 / L^(idx+1) goes into the denominator of each quotient coefficient's
    one Fraction, so num_W is never scaled.  A single-monomial determinant
    divides exactly, so companion systems round-trip with no precision loss.
    """
    components = vector.components if isinstance(vector, CyclicVector) else vector
    n = conn.rank
    if len(components) != n:
        raise DimensionMismatchError("cyclic vector length does not match rank")
    images = conn._images(components, n + 1)
    # columns W_{n-1}, ..., W_1, W_0 and, as column n, the target W_n
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
    return Oper(
        numerator._divide(det, order, conn.denominator ** (idx + 1))
        for idx, numerator in enumerate(numerators)
    )


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
