"""The affine Kac-Moody algebra of gl_n at the critical level.

Generators e_ij[u] span the loop algebra gl_n((t)); the central extension is
given by the two-cocycle

    (x f(t), y g(t))  |->  -kappa(x, y) * Res_{t=0} f(t) g'(t),

with kappa the critical level, -1/2 times the modified Killing form

    (X, Y) = 2n tr(XY) - 2 tr(X) tr(Y).

Only there is the centre of the completed enveloping algebra nontrivial
(Feigin-Frenkel), so the level is a constant, not a parameter.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ValidationError


class _GenFields(NamedTuple):
    u: int
    i: int
    j: int


class Gen(_GenFields):
    """The loop generator e_ij[u] = e_ij tensor t^u (1-based i, j).

    Built as ``Gen(i, j, u)`` from three ints, and stored as the tuple
    (u, i, j), so generators compare in PBW order: degree first, then (i, j)
    lexicographic.  ``_make`` and so ``_replace`` go through the constructor.
    """

    __slots__ = ()

    def __new__(cls, i, j, u):
        if type(i) is not int or type(j) is not int or type(u) is not int:
            raise ValidationError(
                f"generator fields must be ints, got i={i!r}, j={j!r}, u={u!r}"
            )
        return tuple.__new__(cls, (u, i, j))

    def __getnewargs__(self):
        return self.i, self.j, self.u

    @classmethod
    def _make(cls, fields):
        u, i, j = fields
        return cls(i, j, u)

    def __repr__(self):
        return f"e[{self.i},{self.j};{self.u}]"

    def shifted(self, du):
        return Gen(self.i, self.j, self.u + du)


_GEN_RE = re.compile(r"^e\[(-?\d+),(-?\d+);(-?\d+)\]$")


def gen_from_str(token):
    m = _GEN_RE.match(token.replace(" ", ""))
    if not m:
        raise ValidationError(f"cannot parse generator token {token!r}")
    return Gen(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def word_from_tokens(tokens):
    """The factors of a JSON word, a product read left to right; "one" is none."""
    return tuple(gen_from_str(t) for t in map(str.strip, tokens) if t != "one")


def killing_form(n, a, b):
    """(e_ij, e_kl) = 2n d_jk d_il - 2 d_ij d_kl for the pairs a=(i,j), b=(k,l)."""
    i, j = a
    k, l = b
    return 2 * n * (j == k) * (i == l) - 2 * (i == j) * (k == l)


def bracket(a, b, n):
    """[e_ij[u], e_kl[v]] in rank n, as (loop part, central scalar).

    The loop part is d_jk e_il[u+v] - d_li e_kj[u+v]; the central scalar is
    -kappa(e_ij, e_kl) * v * d_{u+v,0}, the residue of t^u d(t^v), with
    kappa = -1/2 (,).  The modified Killing form takes only even values, so
    the scalar is always an int.
    """
    if not (isinstance(a, Gen) and isinstance(b, Gen)):
        raise ValidationError("bracket arguments must be loop generators")
    terms = {}
    if a.j == b.i:
        g = Gen(a.i, b.j, a.u + b.u)
        terms[g] = terms.get(g, 0) + 1
    if b.j == a.i:
        g = Gen(b.i, a.j, a.u + b.u)
        terms[g] = terms.get(g, 0) - 1
    central = 0
    if a.u + b.u == 0:
        central = killing_form(n, (a.i, a.j), (b.i, b.j)) * b.u // 2
    return [(g, c) for g, c in terms.items() if c], central


def check_rank(n):
    """Reject a rank that is not an int (a bool is not one) of at least 1."""
    if type(n) is not int:
        raise ValidationError(f"rank must be an integer, got {n!r}")
    if n < 1:
        raise ValidationError("rank must be at least 1")


class AffineAlgebra:
    """Context object: affine gl_n of rank n at the critical level.

    Carries a bracket cache, and the straightening cache that ``NCPoly``'s
    constructor and product share, {raw word: normal form}.  The chain's
    stages fill no table on the algebra but the bracket cache: each
    straightens and projects with a memo local to its call.
    """

    def __init__(self, n):
        check_rank(n)
        self.n = n
        self._straighten_cache = {}
        self._bracket_cache = {}

    def bracket(self, a, b):
        """``bracket(a, b, self.n)``, memoised, with the loop part as a tuple."""
        hit = self._bracket_cache.get((a, b))
        if hit is None:
            lie, central = bracket(a, b, self.n)
            hit = self._bracket_cache[a, b] = (tuple(lie), central)
        return hit

    def __repr__(self):
        return f"AffineAlgebra(n={self.n})"
