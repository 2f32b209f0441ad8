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

from .errors import ValidationError

_B = 10  # bits per index in a generator's code
_interned = {}  # (i, j, u) -> its Gen


class Gen(int):
    """The loop generator e_ij[u] = e_ij tensor t^u (1-based i, j).

    Built as ``Gen(i, j, u)`` from three ints, the indices in [0, 2**10).
    Its value is the code (u << 20) | (i << 10) | j, so generators compare
    in PBW order, degree first, then (i, j) lexicographic, and a word of
    them hashes and compares as a tuple of small ints.  Each (i, j, u) has
    one interned object, with the fields stored as plain attributes (faster
    to read than to decode); as it is shared, they cannot be set or
    deleted, and a copy or an unpickled generator is that object.
    ``_make`` takes the fields in PBW order (u, i, j); it and ``_replace``
    go through the constructor.  A generator is not a number: arithmetic on
    it raises TypeError, and it formats as its text ``e[i,j;u]``.
    """

    def __new__(cls, i, j, u):
        if type(i) is not int or type(j) is not int or type(u) is not int:
            raise ValidationError(
                f"generator fields must be ints, got i={i!r}, j={j!r}, u={u!r}"
            )
        g = _interned.get((i, j, u))
        if g is None:
            if not (0 <= i < 1 << _B and 0 <= j < 1 << _B):
                raise ValidationError(
                    f"generator indices must lie in [0, {1 << _B}), got i={i}, j={j}"
                )
            g = int.__new__(cls, (u << 2 * _B) | (i << _B) | j)
            vars(g).update(i=i, j=j, u=u)
            _interned[i, j, u] = g
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"generator {self!r} is shared: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"generator {self!r} is shared: cannot delete {name!r}")

    def __reduce__(self):
        return Gen, (self.i, self.j, self.u)

    @classmethod
    def _make(cls, fields):
        u, i, j = fields
        return cls(i, j, u)

    def _replace(self, **fields):
        i, j, u = (fields.pop(f, getattr(self, f)) for f in "iju")
        if fields:
            raise ValueError(f"Got unexpected field names: {list(fields)!r}")
        return Gen(i, j, u)

    def __repr__(self):
        return f"e[{self.i},{self.j};{self.u}]"

    def __format__(self, spec):
        return format(repr(self), spec)

    def _repr_pretty_(self, printer, cycle):
        # IPython's and Hypothesis's pretty printers would otherwise take
        # the int printer, which calls abs()
        printer.text(repr(self))

    def shifted(self, du):
        return Gen(self.i, self.j, self.u + du)


def _not_a_number(name):
    def refuse(self, *args):
        raise TypeError(f"{name}: the generator {self!r} is not a number")

    refuse.__name__ = name
    return refuse


# The int operators Gen inherits.  Each raises itself instead of returning
# NotImplemented: for ``1 + g`` Python tries the subclass's ``__radd__``
# first and would fall back to int's.
for _op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "divmod", "pow",
            "lshift", "rshift", "and", "or", "xor"):
    setattr(Gen, f"__{_op}__", _not_a_number(f"__{_op}__"))
    setattr(Gen, f"__r{_op}__", _not_a_number(f"__r{_op}__"))
for _op in ("neg", "pos", "abs", "invert"):
    setattr(Gen, f"__{_op}__", _not_a_number(f"__{_op}__"))
del _op


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
