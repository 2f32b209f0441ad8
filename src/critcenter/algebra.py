"""The affine Kac-Moody algebra of gl_n with the residue cocycle.

Generators e_ij[u] span the loop algebra gl_n((t)); the central extension is
given by the two-cocycle

    (x f(t), y g(t))  |->  -kappa(x, y) * Res_{t=0} f(t) g'(t),

where kappa is a rational multiple of the modified Killing form

    (X, Y) = 2n tr(XY) - 2 tr(X) tr(Y).

The critical level is kappa = -1/2 times this form.  The outer derivation tau
satisfies [tau, e_ij[r]] = -r e_ij[r-1] and kills the central element.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError


class Gen(NamedTuple):
    """The loop generator e_ij[u] = e_ij tensor t^u (1-based i, j)."""

    i: int
    j: int
    u: int

    def __repr__(self):
        return f"e[{self.i},{self.j};{self.u}]"

    @property
    def is_diagonal(self):
        return self.i == self.j

    def shifted(self, du):
        return Gen(self.i, self.j, self.u + du)


class _Tau:
    """The outer derivation adjoint to -d/dt on loop degrees."""

    def __repr__(self):
        return "tau"


TAU = _Tau()

_GEN_RE = re.compile(r"^e\[(-?\d+),(-?\d+);(-?\d+)\]$")


def gen_from_str(token):
    m = _GEN_RE.match(token.replace(" ", ""))
    if not m:
        raise ValidationError(f"cannot parse generator token {token!r}")
    return Gen(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def tau_token(k):
    """The JSON word token of tau^k for k >= 1."""
    return f"tau^{k}"


def word_from_tokens(tokens):
    """The factors of a JSON word, a product read left to right.

    "tau^k" stands for k tau factors where it is, and "one" for none.
    """
    word = []
    for token in map(str.strip, tokens):
        if token == "tau" or token.startswith("tau^"):
            power = "1" if token == "tau" else token[4:]
            if not power.isdecimal():
                raise ValidationError(f"cannot parse tau power {token!r}")
            word += [TAU] * int(power)
        elif token != "one":
            word.append(gen_from_str(token))
    return tuple(word)


def gen_sort_key(g):
    """Total order on loop generators: degree first, then (i, j) lexicographic."""
    return (g.u, g.i, g.j)


def killing_form(n, a, b):
    """(e_ij, e_kl) = 2n d_jk d_il - 2 d_ij d_kl for the pairs a=(i,j), b=(k,l)."""
    i, j = a
    k, l = b
    return 2 * n * (j == k) * (i == l) - 2 * (i == j) * (k == l)


class BilinearForm:
    """A rational multiple of the modified Killing form on gl_n."""

    def __init__(self, n, multiple):
        self.n = n
        self.multiple = Fraction(multiple)

    @classmethod
    def critical(cls, n):
        return cls(n, Fraction(-1, 2))

    def value(self, a, b):
        return self.multiple * killing_form(self.n, a, b)

    def __repr__(self):
        return f"BilinearForm(n={self.n}, multiple={self.multiple})"


def bracket(a, b, form):
    """[e_ij[u], e_kl[v]] as (loop part, central scalar).

    The loop part is d_jk e_il[u+v] - d_li e_kj[u+v]; the central scalar is
    -kappa(e_ij, e_kl) * v * d_{u+v,0}, the residue of t^u d(t^v), as an
    int when it is integral (always, at the critical level, where it is
    computed in int arithmetic only).
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
        scaled = -killing_form(form.n, (a.i, a.j), (b.i, b.j)) * b.u
        scaled *= form.multiple.numerator
        den = form.multiple.denominator
        central = scaled // den if scaled % den == 0 else Fraction(scaled, den)
    return [(g, c) for g, c in terms.items() if c], central


def tau_bracket(x):
    """[tau, e_ij[r]] = -r e_ij[r-1]."""
    if not isinstance(x, Gen):
        raise ValidationError("tau_bracket expects a loop generator")
    if x.u == 0:
        return []
    return [(x.shifted(-1), -x.u)]


class AffineAlgebra:
    """Context object: rank n together with the chosen level form.

    Carries the straightening cache used by the PBW layer and a bracket
    cache, so that repeated normal-form computations against one algebra are
    shared.
    """

    def __init__(self, n, form=None):
        if n < 1:
            raise ValidationError("rank must be at least 1")
        self.n = n
        self.form = form if form is not None else BilinearForm.critical(n)
        self._straighten_cache = {}
        self._bracket_cache = {}

    @classmethod
    def critical(cls, n):
        return cls(n, BilinearForm.critical(n))

    def bracket(self, a, b):
        """``bracket(a, b, self.form)``, memoised, with the loop part as a tuple."""
        hit = self._bracket_cache.get((a, b))
        if hit is None:
            lie, central = bracket(a, b, self.form)
            hit = self._bracket_cache[a, b] = (tuple(lie), central)
        return hit

    def __repr__(self):
        return f"AffineAlgebra(n={self.n}, form={self.form!r})"
