"""Column determinants and the higher Sugawara vectors for affine gl_n.

The vectors S_1, ..., S_n are the tau-power coefficients of the column
determinant of tau*Id + E[-1], where E[-1] has e_ij[-1] at the (i, j) entry:

    cdet(tau + E[-1]) = tau^n + tau^{n-1} S_1 + ... + tau S_{n-1} + S_n,

with all tau powers moved to the left.  Their Cartan images omega_1, ...,
omega_n are computed independently as the coefficients of the ascending
product (tau + e_11[-1]) ... (tau + e_nn[-1]); the canonical Cartan
projection sends S_l to omega_l, which is verified rather than assumed.

Note the factor order in each column-determinant summand is the column order
written in the definition.  Expansions that reorder factors across columns
change the result by straightening corrections; only the column-ordered
product (equivalently, any column relabelling of it; the matrix tau + E[-1]
is column-commutative) produces vectors that commute with the full action of
gl_n[t] on the vacuum module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .algebra import AffineAlgebra, Gen
from .errors import ValidationError
from .lincomb import _accumulate
from .pbw import CommPoly, NCPoly


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def cdet(matrix):
    """Column determinant: sum over permutations of sgn(s) a_{s(1)1}...a_{s(n)n}.

    Entries are NCPoly over one algebra; each summand is multiplied left to
    right in column order.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("column determinant needs a square matrix")
    if n == 0:
        raise ValidationError("empty matrix")
    algebra = matrix[0][0].algebra
    table = {}
    for perm in permutations(range(n)):
        term = matrix[perm[0]][0]
        for col in range(1, n):
            term = term * matrix[perm[col]][col]
        _accumulate(table, term._terms, _perm_sign(perm))
    return NCPoly._adopt(algebra, table)


class SSFamily:
    """The Sugawara vectors S_1..S_n with their Cartan images omega_1..omega_n."""

    def __init__(self, n, S, omega):
        self.n = n
        self.S = tuple(S)
        self.omega = tuple(omega)

    def to_json(self):
        return {
            "n": self.n,
            "S": [s.to_json() for s in self.S],
            "omega": [w.to_json() for w in self.omega],
            "row_property": [check_row_property(s, self.n)[0] for s in self.S],
        }


_family_cache = {}


def ss_vectors(n):
    """Construct the degree-(-l) central vectors S_l and their images omega_l."""
    if n < 1:
        raise ValidationError("rank must be at least 1")
    cached = _family_cache.get(n)
    if cached is not None:
        return cached
    algebra = AffineAlgebra.critical(n)
    tau = NCPoly.tau(algebra)
    matrix = [
        [
            tau + NCPoly.generator(algebra, Gen(i, j, -1))
            if i == j
            else NCPoly.generator(algebra, Gen(i, j, -1))
            for j in range(1, n + 1)
        ]
        for i in range(1, n + 1)
    ]
    full = cdet(matrix)
    S = [full.tau_component(n - ell) for ell in range(1, n + 1)]

    omega_product = NCPoly.one(algebra)
    for i in range(1, n + 1):
        omega_product = omega_product * (
            tau + NCPoly.generator(algebra, Gen(i, i, -1))
        )
    omega = [omega_product.tau_component(n - ell) for ell in range(1, n + 1)]

    family = SSFamily(n, S, omega)
    _family_cache[n] = family
    return family


def check_row_property(S, n):
    """Whether every monomial of S has at most one factor from row n.

    Returns (ok, witness); the witness is an offending monomial when ok is
    False.
    """
    for (k, word), _c in S._terms.items():
        if k:
            raise ValidationError("row property is checked on tau-free vectors")
        bottom = sum(1 for g in word if g.i == n)
        if bottom > 1:
            return False, word
    return True, None


def central_character(chi, ell, N):
    """The coefficient a_{l,N} of the oper, i.e. the t^{-N-1} coefficient of a_l.

    This is the value at chi of the central generator indexed by (l, N); the
    undetermined scalar relating the two normalizations is fixed to 1.
    """
    if not (1 <= ell <= chi.rank):
        raise ValidationError(f"component index {ell} out of range 1..{chi.rank}")
    return chi.a[ell - 1].coefficient(-N - 1)


def cartan_evaluate(p, h):
    """Evaluate a polynomial in the e_ii[u] (u < 0) on a Cartan-valued series.

    The generator e_ii[-k-1] pairs with the t^k coefficient of the i-th
    component of h.  This realizes elements of the commutative Cartan algebra
    as polynomial functions of holomorphic Cartan elements.
    """
    total = Fraction(0)
    for (k, word), c in p._terms.items():
        if k:
            raise ValidationError("cannot evaluate a tau-dependent element")
        value = c
        for g in word:
            if not g.is_diagonal or g.u >= 0:
                raise ValidationError(
                    "evaluation needs diagonal negative-degree factors only"
                )
            value *= h[g.i - 1].coefficient(-g.u - 1)
        total += value
    return total


def commutative_char_poly_coefficients(n):
    """Coefficients of det(lambda Id + X) as commutative polynomials.

    The entry symbols are the graded images x[i,j;-1]; coefficient l (of
    lambda^{n-l}) is the sum of the principal l x l minors.  Used as the
    independent reference for the top symbols of the S_l.
    """
    from itertools import combinations

    return [
        CommPoly(
            ([(rows[r], rows[perm[r]], -1) for r in range(ell)], _perm_sign(perm))
            for rows in combinations(range(1, n + 1), ell)
            for perm in permutations(range(ell))
        )
        for ell in range(1, n + 1)
    ]
