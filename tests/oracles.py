"""Reference constructions shared by several test files (not collected).

pytest's default import mode puts ``tests/`` on ``sys.path``, so a test
imports these as ``from oracles import vacuum_module``.
"""

from fractions import Fraction
from itertools import combinations, permutations

from critcenter.algebra import Gen
from critcenter.errors import DomainError
from critcenter.lincomb import LinComb
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


def from_word(algebra, word, coeff=1, tau_power=0):
    """The NC polynomial coeff * tau^tau_power * word, straightened."""
    return NCPoly(algebra, {(tau_power, tuple(word)): coeff})


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

    The filtration degree of a monomial is its number of generator factors;
    tau is not allowed.
    """
    top = 0
    for (k, word) in p._terms:
        if k:
            raise DomainError("symbol undefined: monomial contains tau")
        top = max(top, len(word))
    return CommPoly(
        ([(g.i, g.j, g.u) for g in word], c)
        for (_k, word), c in p._terms.items()
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
