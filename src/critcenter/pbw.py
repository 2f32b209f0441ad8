"""Normally ordered noncommutative polynomials in affine generators.

An NC monomial is tau^k times a word of loop generators.  Normal form sorts
the word by the fixed total order (degree ascending, then (i, j)
lexicographic) with all tau powers collected at the far left; straightening
repeatedly swaps adjacent out-of-order factors,

    x y -> y x + [x, y],        e_ij[r] tau -> tau e_ij[r] + r e_ij[r-1],

absorbing central scalars into the coefficient (the central element acts as
1).  The rewriting terminates and is confluent, so the normal form does not
depend on the order in which swaps are applied.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import TAU, gen_from_str, gen_sort_key
from .errors import DomainError, ValidationError
from .laurent import scalar_from_str, scalar_to_str
from .lincomb import LinComb, _accumulate


def _triangular_key(g):
    # Lower-triangular factors first, then Cartan, then upper-triangular;
    # ties broken by degree and index.  This is the PBW order realizing the
    # canonical projection onto the Cartan part.
    block = 0 if g.i > g.j else (1 if g.i == g.j else 2)
    return (block, g.u, g.i, g.j)


_ORDER_KEYS = {"deglex": gen_sort_key, "triangular": _triangular_key}


def _straighten(algebra, word, order="deglex"):
    """Normal form of a raw word (tuple over Gen and TAU tokens).

    Returns a dict {(tau_power, gen_word): Fraction}.  Cached per algebra
    and term order.
    """
    cache = algebra._straighten_cache.setdefault(order, {})
    hit = cache.get(word)
    if hit is not None:
        return hit
    key_of = _ORDER_KEYS[order]

    bad = None
    for idx in range(len(word) - 1):
        x, y = word[idx], word[idx + 1]
        if x is TAU:
            continue
        if y is TAU or key_of(x) > key_of(y):
            bad = idx
            break
    if bad is None:
        k = 0
        while k < len(word) and word[k] is TAU:
            k += 1
        result = {(k, tuple(word[k:])): Fraction(1)}
        cache[word] = result
        return result

    x, y = word[bad], word[bad + 1]
    head, tail = word[:bad], word[bad + 2 :]
    out = {}
    _accumulate(out, _straighten(algebra, head + (y, x) + tail, order))
    if y is TAU:
        # e_ij[r] tau = tau e_ij[r] + r e_ij[r-1]
        if x.u != 0:
            _accumulate(
                out,
                _straighten(algebra, head + (x.shifted(-1),) + tail, order),
                Fraction(x.u),
            )
    else:
        lie, central = algebra.bracket(x, y)
        for g, c in lie:
            _accumulate(out, _straighten(algebra, head + (g,) + tail, order), c)
        if central:
            _accumulate(out, _straighten(algebra, head + tail, order), central)
    cache[word] = out
    return out


class NCPoly(LinComb):
    """A finite rational combination of normally ordered NC monomials."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms=None, _normal=False):
        self.algebra = algebra
        table = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, coeff in items:
                coeff = Fraction(coeff)
                if not coeff:
                    continue
                tau_pow, word = key
                if _normal:
                    contributions = {(tau_pow, tuple(word)): Fraction(1)}
                else:
                    raw = (TAU,) * tau_pow + tuple(word)
                    contributions = _straighten(algebra, raw)
                _accumulate(table, contributions, coeff)
        self._terms = table

    @classmethod
    def _adopt(cls, algebra, table):
        """Wrap a table that is already normal, with nonzero Fraction values.

        The polynomial takes ownership of ``table`` without copying or
        re-normalising it, so sums built in one dict stay linear.
        """
        poly = cls.__new__(cls)
        poly.algebra = algebra
        poly._terms = table
        return poly

    def _new(self, table):
        return NCPoly._adopt(self.algebra, table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, algebra):
        return cls(algebra, {(0, ()): Fraction(1)}, _normal=True)

    @classmethod
    def generator(cls, algebra, gen):
        return cls(algebra, {(0, (gen,)): Fraction(1)}, _normal=True)

    @classmethod
    def tau(cls, algebra):
        return cls(algebra, {(1, ()): Fraction(1)}, _normal=True)

    @classmethod
    def from_word(cls, algebra, word, coeff=1, tau_power=0):
        return cls(algebra, {(tau_power, tuple(word)): Fraction(coeff)})

    # -- queries -----------------------------------------------------------

    def items(self):
        """Monomials in display order: tau power descending, then word order."""
        return sorted(
            self._terms.items(),
            key=lambda kv: (
                -kv[0][0],
                len(kv[0][1]),
                [gen_sort_key(g) for g in kv[0][1]],
            ),
        )

    def coefficient(self, tau_power, word):
        return self._terms.get((tau_power, tuple(word)), Fraction(0))

    def tau_component(self, tau_power):
        """The right coefficient of tau^k: sum of tau-free words at that power."""
        picked = {
            (0, word): c for (k, word), c in self._terms.items() if k == tau_power
        }
        return NCPoly._adopt(self.algebra, picked)

    def max_tau_power(self):
        return max((k for (k, _w) in self._terms), default=0)

    def words(self):
        """The tau-free content as {word: coeff}; errors if tau occurs."""
        out = {}
        for (k, word), c in self._terms.items():
            if k:
                raise DomainError("polynomial contains tau")
            out[word] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if self.algebra is not other.algebra and (
            self.algebra.n != other.algebra.n
            or self.algebra.form.multiple != other.algebra.form.multiple
        ):
            raise ValidationError("operands live over different algebras")

    def __add__(self, other):
        self._check_compatible(other)
        return super().__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        table = {}
        for (k1, w1), c1 in self._terms.items():
            for (k2, w2), c2 in other._terms.items():
                raw = (TAU,) * k1 + w1 + (TAU,) * k2 + w2
                _accumulate(table, _straighten(self.algebra, raw), c1 * c2)
        return NCPoly._adopt(self.algebra, table)

    __rmul__ = __mul__

    # -- presentation ------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (k, word), c in self.items():
            factors = []
            if k == 1:
                factors.append("tau")
            elif k > 1:
                factors.append(f"tau^{k}")
            factors.extend(repr(g) for g in word)
            body = "*".join(factors) if factors else "1"
            if c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    def to_json(self):
        out = []
        for (k, word), c in self.items():
            tokens = [f"tau^{k}"] if k else []
            tokens.extend(repr(g) for g in word)
            out.append({"coeff": scalar_to_str(c), "word": tokens})
        return out

    @classmethod
    def from_json(cls, algebra, data):
        terms = []
        for entry in data:
            coeff = scalar_from_str(entry["coeff"])
            tau_pow = 0
            word = []
            for token in entry["word"]:
                token = token.strip()
                if token == "one":
                    continue
                if token == "tau":
                    tau_pow += 1
                elif token.startswith("tau^"):
                    tau_pow += int(token[4:])
                else:
                    word.append(gen_from_str(token))
            terms.append(((tau_pow, tuple(word)), coeff))
        return cls(algebra, terms)


def nc_normal_form(algebra, raw):
    """Normal-form a raw expression: iterable of (coeff, token word) pairs.

    Tokens are Gen or TAU.  Mainly a convenience wrapper around the NCPoly
    constructor for tests and callers holding unstructured words.
    """
    table = {}
    for coeff, word in raw:
        _accumulate(table, _straighten(algebra, tuple(word)), Fraction(coeff))
    return NCPoly._adopt(algebra, table)


def nc_mul(p, q):
    return p * q


def hc_project(p):
    """Canonical projection onto the commutative algebra on the e_ii[u], u < 0.

    The input is rewritten in the triangular order (lower-triangular factors
    to the left, Cartan factors in the middle, upper-triangular to the
    right); monomials containing an off-diagonal factor are then deleted.
    Performing the deletion in that presentation realizes the projection
    along n_- U + U n_+, which is the map sending the Sugawara vectors to
    their diagonal-product images.  Deleting in a different presentation is
    a different (non-canonical) linear map.
    """
    table = {}
    for (k, word), c in p._terms.items():
        if k:
            raise DomainError("projection undefined: monomial contains tau")
        if any(g.u >= 0 for g in word):
            raise DomainError("projection undefined: nonnegative-degree factor")
        tri = _straighten(p.algebra, word, "triangular")
        _accumulate(
            table,
            {key: c2 for key, c2 in tri.items() if all(g.is_diagonal for g in key[1])},
            c,
        )
    return NCPoly._adopt(p.algebra, table)


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
    def one(cls):
        return cls({(): Fraction(1)})

    @classmethod
    def symbol(cls, i, j, u):
        return cls({((i, j, u),): Fraction(1)})

    def items(self):
        return sorted(self._terms.items())

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return CommPoly(
            (m1 + m2, c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )

    __rmul__ = __mul__

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, c in self.items():
            body = "*".join(f"x[{i},{j};{u}]" for (i, j, u) in mono) or "1"
            parts.append(body if c == 1 else f"{c}*{body}")
        return " + ".join(parts)

    __repr__ = __str__


def symbol(p):
    """Top filtration-degree part of p as a commutative polynomial.

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
