"""Reference constructions shared by several test files (not collected).

pytest's default import mode puts ``tests/`` on ``sys.path``, so a test
imports these as ``from oracles import vacuum_module``.
"""

import math
import weakref
from fractions import Fraction
from itertools import combinations, permutations

from critcenter.algebra import Gen
from critcenter.errors import ValidationError
from critcenter.lincomb import LinComb, _accumulate, canonical
from critcenter.modules import RootFunction, RootModule
from critcenter.pbw import NCPoly
from critcenter.sugawara import _perm_sign


def vacuum_module(n):
    """The vacuum module gl_n[[t]].v_0 = 0 at critical level.

    r = 0 everywhere realizes it.  States are its vectors; acting with
    Fourier coefficients here realizes products inside the vertex algebra
    itself.
    """
    values = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1)}
    return RootModule(RootFunction(n, values, "vacuum", {}, _allow_zero_diagonal=True))


def lemma_relations_bound(word, rf):
    """Whether sum of degrees >= sum of depths, which forces word.v_0 = 0."""
    degrees = 0
    depths = 0
    for entry in word:
        g = entry if isinstance(entry, Gen) else Gen(*entry)
        degrees += g.u
        depths += rf(g.i, g.j)
    return degrees >= depths


def gbinom(top, k):
    """binom(top, k) for any integer top and k >= 0, by the falling factorial."""
    if k < 0:
        return 0
    value = 1
    for step in range(k):
        value *= top - step
    return value // math.factorial(k)


def from_word(algebra, word, coeff=1):
    """The NC polynomial coeff * word, straightened."""
    return NCPoly(algebra, {tuple(word): coeff})


# -- tau: the products that define S_l and omega_l ---------------------------


class _Tau:
    """The outer derivation adjoint to -d/dt on loop degrees."""

    def __repr__(self):
        return "tau"


TAU = _Tau()


def tau_bracket(x):
    """[tau, e_ij[r]] = -r e_ij[r-1]; tau kills the central element."""
    if not isinstance(x, Gen):
        raise ValidationError("tau_bracket expects a loop generator")
    if x.u == 0:
        return []
    return [(x.shifted(-1), -x.u)]


_TAU_MEMO = weakref.WeakKeyDictionary()  # algebra -> {word: normal form}


def straighten_with_tau(algebra, word):
    """Normal form {(tau power, normal word): coeff} of a word over TAU and Gen.

    Resolves the rightmost out-of-order pair first, where the library's
    ``pbw._straighten`` takes the leftmost: x y -> y x + [x, y] for two
    generators, and x tau -> tau x - [tau, x], so every tau ends up on the
    left.  Memoised per algebra in a table of the oracle's own, so it never
    reads the library's straightening cache; the values are shared and never
    mutated.
    """
    memo = _TAU_MEMO.setdefault(algebra, {})
    hit = memo.get(word)
    if hit is not None:
        return hit
    bad = next(
        (
            k
            for k in range(len(word) - 2, -1, -1)
            if word[k] is not TAU and (word[k + 1] is TAU or word[k] > word[k + 1])
        ),
        None,
    )
    if bad is None:
        k = 0
        while k < len(word) and word[k] is TAU:
            k += 1
        out = {(k, word[k:]): 1}
    else:
        x, y = word[bad], word[bad + 1]
        head, tail = word[:bad], word[bad + 2 :]
        out = {}
        _accumulate(out, straighten_with_tau(algebra, head + (y, x) + tail))
        if y is TAU:
            for g, c in tau_bracket(x):
                _accumulate(out, straighten_with_tau(algebra, head + (g,) + tail), -c)
        else:
            lie, central = algebra.bracket(x, y)
            for g, c in lie:
                _accumulate(out, straighten_with_tau(algebra, head + (g,) + tail), c)
            if central:
                _accumulate(out, straighten_with_tau(algebra, head + tail), central)
    memo[word] = out
    return out


class TauPoly(LinComb):
    """An NC polynomial in tau and the loop generators, tau on the left.

    The term c tau^k w is keyed (k, w) with w a normal word.  The product
    straightens each concatenated pair of raw words (``straighten_with_tau``),
    so ``sugawara.cdet`` over a matrix of TauPolys is cdet(tau + E[-1]) as
    the definition writes it.
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        table = {}
        items = terms.items() if isinstance(terms, dict) else terms or ()
        for (k, word), c in items:
            raw = (TAU,) * k + tuple(word)
            _accumulate(table, straighten_with_tau(algebra, raw), canonical(c))
        self._terms = table

    @classmethod
    def _adopt(cls, algebra, table):
        poly = super()._adopt(table)
        poly.algebra = algebra
        return poly

    def _new(self, table):
        return TauPoly._adopt(self.algebra, table)

    @classmethod
    def tau(cls, algebra):
        return cls(algebra, {(1, ()): 1})

    @classmethod
    def generator(cls, algebra, gen):
        return cls(algebra, {(0, (gen,)): 1})

    def __mul__(self, other):
        table = {}
        for (k1, w1), c1 in self._terms.items():
            for (k2, w2), c2 in other._terms.items():
                raw = (TAU,) * k1 + w1 + (TAU,) * k2 + w2
                _accumulate(table, straighten_with_tau(self.algebra, raw), c1 * c2)
        return TauPoly._adopt(self.algebra, table)

    def tau_component(self, k):
        """The right coefficient of tau^k, as an NCPoly."""
        table = {w: c for (j, w), c in self._terms.items() if j == k}
        return NCPoly._adopt(self.algebra, table)

    @staticmethod
    def _tokens(key):
        k, word = key
        return [repr(TAU)] * k + [repr(g) for g in word]


def tau_plus_e(algebra):
    """The matrix tau + E[-1] over TauPoly: e_ij[-1] at (i, j), plus tau on the diagonal."""
    n = algebra.n
    tau = TauPoly.tau(algebra)
    gen = lambda i, j: TauPoly.generator(algebra, Gen(i, j, -1))
    return [
        [tau + gen(i, j) if i == j else gen(i, j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


class CommPoly(LinComb):
    """Commutative polynomial in graded symbols (i, j, u).

    Used for associated-graded computations: monomials are sorted tuples of
    symbols, so equality is syntactic.
    """

    __slots__ = ()

    @staticmethod
    def _key(mono):
        return tuple(sorted(mono))

    @classmethod
    def symbol(cls, i, j, u):
        return cls({((i, j, u),): 1})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return CommPoly(
            (m1 + m2, c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )

    __rmul__ = __mul__

    @staticmethod
    def _tokens(mono):
        return [f"x[{i},{j};{u}]" for (i, j, u) in mono]


def symbol(p):
    """Top filtration-degree part of an NCPoly as a commutative polynomial.

    The filtration degree of a monomial is its number of generator factors.
    """
    top = max(map(len, p._terms), default=0)
    return CommPoly(
        ([(g.i, g.j, g.u) for g in word], c)
        for word, c in p._terms.items()
        if len(word) == top
    )


def commutative_char_poly_coefficients(n):
    """Coefficients of det(lambda Id + X) as commutative polynomials.

    The entry symbols are the graded images x[i,j;-1]; coefficient l (of
    lambda^{n-l}) is the sum of the principal l x l minors.  The independent
    reference for the top symbols of the S_l.
    """
    return [
        CommPoly(
            ([(rows[r], rows[perm[r]], -1) for r in range(ell)], _perm_sign(perm))
            for rows in combinations(range(1, n + 1), ell)
            for perm in permutations(range(ell))
        )
        for ell in range(1, n + 1)
    ]
