"""Column determinants and the higher Sugawara vectors for affine gl_n.

The vectors S_1, ..., S_n are the tau-power coefficients of the column
determinant of tau*Id + E[-1], where E[-1] has e_ij[-1] at the (i, j) entry:

    cdet(tau + E[-1]) = tau^n + tau^{n-1} S_1 + ... + tau S_{n-1} + S_n,

with all tau powers moved to the left (``cdet`` is the permutation sum; the
S_l are built from the minor table below).  Their Cartan images omega_1,
..., omega_n are computed independently as the coefficients of the
ascending product (tau + e_11[-1]) ... (tau + e_nn[-1]), by a commutative
recurrence (``_cartan_product``); the canonical Cartan projection sends
S_l to omega_l, which is verified rather than assumed.

Note the factor order in each column-determinant summand is the column order
written in the definition.  Expansions that reorder factors across columns
change the result by straightening corrections; only the column-ordered
product (equivalently, any column relabelling of it; the matrix tau + E[-1]
is column-commutative) produces vectors that commute with the full action of
gl_n[t] on the vacuum module.

The memoised table of first-column minors writes the same determinant
unstraightened.  Let F[R] be the column determinant of the rows R and the
last |R| columns c = n - |R| + 1, ..., n, so F[{1..n}] = cdet(tau + E[-1])
and F[empty] = 1, and F[R] = sum_J tau^J F[R, J] with tau on the left.
Expanding along column c gives F[R] = sum (-1)^k a_{ic} F[R - i] over the
k-th row i of R (k from 0), with a_{ic} = [i=c] tau + e_ic[-1].  To move tau
left past e_ic[-1], write delta(x[r]) = r x[r-1], so x tau = tau x + delta(x)
and, by induction on j,

    x tau^j = sum_k binom(j, k) tau^{j-k} delta^k(x),
    delta^q(x[-1]) = (-1)^q q! x[-1-q].

Collecting the coefficient of tau^J:

    F[R, J] = sum_{k-th i in R} (-1)^k ( [i=c] F[R - i, J - 1]
              + sum_{q>=0} binom(J+q, q) (-1)^q q! e_ic[-1-q] F[R - i, J + q] ),

with F[empty, 0] = 1 and S_l = F[{1..n}, n - l].  Each F[R, J] is a
MinorNode: a sum of terms (coef, head, child), the product state
coef * head * child (head None for the tau term).  The scan reads its
Fourier modes as written, since the field of a product state is the normally
ordered product of its factors' fields.  ``ss_vectors`` multiplies it out
by left insertion in the vacuum module (``pbw._insert`` with every depth
0): head * child becomes the normal form of the head inserted into each
normal word of the child, so no whole word is straightened and no product
of NCPolys is formed.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, factorial

from .algebra import AffineAlgebra, Gen, check_rank
from .errors import ValidationError
from .lincomb import _accumulate, gc_paused
from .pbw import NCPoly, _insert


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

    Entries are combinations of one type with a product (NCPoly, or the
    tests' polynomials in tau); each summand is multiplied left to right in
    column order, and the sum has the type of the entries (``_new``).  No
    path of the package calls it: it is the definition, which the tests
    run on tau + E[-1] as the oracle for ``ss_vectors``.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("column determinant needs a square matrix")
    if n == 0:
        raise ValidationError("empty matrix")
    table = {}
    for perm in permutations(range(n)):
        term = matrix[perm[0]][0]
        for col in range(1, n):
            term = term * matrix[perm[col]][col]
        _accumulate(table, term._terms, _perm_sign(perm))
    return matrix[0][0]._new(table)


class MinorNode:
    """One coefficient F[R, J] of the first-column minor table of cdet(tau + E[-1]).

    ``terms`` is a tuple of ``(coef, head, child)``: ``head`` is a generator
    e_ic[-1-q], or None for the tau term, and ``child`` is a MinorNode or the
    empty word ``()`` for F[empty, 0] = 1, the vacuum.  Nodes compare and hash
    by identity, so a node is never equal to a word, and a finished node is
    never mutated.
    """

    __slots__ = ("rows", "power", "terms")

    def __init__(self, rows, power, terms):
        self.rows = rows
        self.power = power
        self.terms = terms


_minor_cache = {}


def ss_nodes(n):
    """S_1..S_n as nodes of the memoised first-column minor table (module docstring)."""
    check_rank(n)
    cached = _minor_cache.get(n)
    if cached is not None:
        return cached
    table = {((), 0): ()}
    for size in range(1, n + 1):
        c = n - size + 1
        for rows in combinations(range(1, n + 1), size):
            for power in range(size + 1):
                terms = []
                for k, i in enumerate(rows):
                    sign = -1 if k % 2 else 1
                    rest = rows[:k] + rows[k + 1 :]
                    if i == c and (rest, power - 1) in table:
                        terms.append((sign, None, table[rest, power - 1]))
                    for q in range(size - power):
                        child = table.get((rest, power + q))
                        if child is not None:
                            coef = sign * (-1) ** q * comb(power + q, q) * factorial(q)
                            terms.append((coef, Gen(i, c, -1 - q), child))
                if terms:
                    table[rows, power] = MinorNode(rows, power, tuple(terms))
    full = tuple(range(1, n + 1))
    nodes = tuple(table[full, n - ell] for ell in range(1, n + 1))
    _minor_cache[n] = nodes
    return nodes


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


@gc_paused
def ss_vectors(n):
    """The central vectors S_l, each its ``ss_nodes`` node multiplied out,
    and their omega_l.

    Every node is expanded once (``_expand``).  The expansions and the
    insertion memo are local to the call and reach no closure, so both are
    freed by reference counting when it returns, with no wait for a
    garbage-collection pass.
    """
    check_rank(n)
    cached = _family_cache.get(n)
    if cached is not None:
        return cached
    algebra = AffineAlgebra(n)
    vacuum = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1)}
    expansions = {(): {(): 1}}
    memo = {}
    S = [
        NCPoly._adopt(algebra, _expand(algebra, vacuum, node, expansions, memo))
        for node in ss_nodes(n)
    ]
    products = _cartan_product(n)
    omega = [NCPoly._adopt(algebra, products[n - ell]) for ell in range(1, n + 1)]

    family = SSFamily(n, S, omega)
    _family_cache[n] = family
    return family


def _expand(algebra, vacuum, node, expansions, memo):
    """The node multiplied out, as {normal word: coeff}, memoised in ``expansions``.

    A term coef * head * child inserts its head into each word of the
    child's expansion from the left, in the vacuum module (``pbw._insert``
    on ``vacuum``, the all-zero depth table, with the caller's ``memo``);
    each head e_ic[-1-q] has negative degree, so this is the normal form of
    the product.
    """
    table = expansions.get(node)
    if table is None:
        table = {}
        for coef, head, child in node.terms:
            sub = _expand(algebra, vacuum, child, expansions, memo)
            if head is None:  # a tau term contributes coef * child
                _accumulate(table, sub, coef)
            else:
                for word, c in sub.items():
                    inserted = _insert(algebra, vacuum, head, word, memo)
                    _accumulate(table, inserted, coef * c)
        expansions[node] = table
    return table


def _cartan_product(n):
    """The c_0..c_n of (tau + e_11[-1]) ... (tau + e_nn[-1]) = sum_j tau^j c_j.

    Each c_j is returned as {sorted word: int}.  The c_j lie in the
    commutative ring on the e_ii[u], u < 0: the loop part of
    [e_ii[u], e_kk[v]] is d_ik (e_ik[u+v] - e_ki[u+v]) = 0, and the cocycle
    pairs only opposite degrees, so two negative modes have no central term
    either.  A word of them is therefore equal to its sorted word, which is
    its normal word.  T = [tau, .] is a derivation, being a commutator, with
    T e_ii[r] = -r e_ii[r-1]; it keeps the ring, and c tau = tau c - T c.
    So one more factor on the right of P = sum_j tau^j c_j gives

        P (tau + x) = sum_j tau^(j+1) c_j + tau^j (c_j x - T c_j),

    the recurrence of ``diffop.miura`` over another differential ring.
    """
    coeffs = [{(): 1}]
    for i in range(1, n + 1):
        x = Gen(i, i, -1)
        nxt = [{} for _ in range(len(coeffs) + 1)]
        for j, c in enumerate(coeffs):
            _accumulate(nxt[j + 1], c)
            for word, a in c.items():
                _accumulate(nxt[j], {tuple(sorted(word + (x,))): a})
                for p, g in enumerate(word):  # -T e_ii[r] = r e_ii[r-1]
                    shifted = word[:p] + (g.shifted(-1),) + word[p + 1 :]
                    _accumulate(nxt[j], {tuple(sorted(shifted)): a}, g.u)
        coeffs = nxt
    return coeffs


def check_row_property(S, n):
    """Whether every monomial of S has at most one factor from row n.

    Returns (ok, witness); the witness is an offending monomial when ok is
    False.
    """
    for word in S._terms:
        bottom = sum(1 for g in word if g.i == n)
        if bottom > 1:
            return False, word
    return True, None
