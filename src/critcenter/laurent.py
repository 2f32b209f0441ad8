"""Exact Laurent series arithmetic over the rationals.

Coefficients are exact scalars in the package's canonical form
(``lincomb.canonical``): an int when integral, a `fractions.Fraction`
otherwise, never zero and never a float, so ``coefficient`` may return an
int.  A LaurentElement is a finite rational combination of
integer powers of t, optionally truncated: when ``precision`` is set to p,
coefficients of t^k for k >= p are unknown and the element stands for its
stored part plus O(t^p).  Exact (untruncated) elements have
``precision is None``.

The valuation of the exact zero element is the sentinel ``INFINITY``, which
compares greater than every integer.

Products and sums of products go through ``LaurentElement.dot``, one fused
multiply-accumulate that holds the product-precision rule; ``*`` is its
one-pair case.

Series division ``a.divide(d, order)`` is ``a * d.invert(order)`` computed
by a fraction-free recurrence in ints, one Fraction per quotient
coefficient; ``invert`` is the quotient of one by the element.  With d
scaled to ints c_j and a to ints s_k, the recurrence

    Q_k = c_0^k s_k - sum_{j=1..k} c_j c_0^(j-1) Q_{k-j}

takes its sum in Horner form, (((c_J Q_(k-J)) c_0 + c_(J-1) Q_(k-J+1)) c_0
+ ...) c_0 + c_1 Q_(k-1), so every product is a small int times a large
one.  The private ``_divide`` also divides the quotient by a positive int,
for oper extraction's Cramer factor: that int joins the denominator of each
coefficient's one Fraction, so the dividend is never scaled.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    PrecisionExhaustedError,
    UndeterminedCoefficientError,
    UndeterminedValuationError,
    ValidationError,
    ZeroDivisorError,
)
from .lincomb import canonical, scalar_from_str, scalar_to_str, signed_sum


def int_from_json(value, what):
    """A JSON integer; floats, strings and booleans raise ValidationError."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


class _Infinity:
    """Sentinel for the valuation of zero; larger than every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __neg__(self):
        raise ArithmeticError("negative infinity is not modelled")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def _normal(table, precision):
    """The nonzero terms of ``table`` below the precision, values canonical."""
    return {
        k: canonical(c)
        for k, c in table.items()
        if c and (precision is None or k < precision)
    }


def _scaled(c, scale):
    """The int c * scale, for an int or Fraction c whose denominator divides scale."""
    return c.numerator * (scale // c.denominator)


def _min_prec(p, q):
    if p is None:
        return q
    if q is None:
        return p
    return min(p, q)


class LaurentElement:
    """A Laurent polynomial/truncated series with exact coefficients.

    Stored as a map exponent -> nonzero canonical coefficient.  When
    ``precision`` is set, no stored exponent reaches it.
    """

    __slots__ = ("_coeff", "precision")

    def __init__(self, coeff=None, precision=None):
        table = {}
        if coeff:
            for k, c in (coeff.items() if isinstance(coeff, dict) else coeff):
                if type(k) is not int:
                    raise ValidationError(f"exponent must be an int, got {k!r}")
                table[k] = table.get(k, 0) + canonical(c)
        self._coeff = _normal(table, precision)
        self.precision = precision

    @classmethod
    def _adopt(cls, table, precision):
        """An element of the terms of ``table``, whose values are int or Fraction."""
        obj = cls.__new__(cls)
        obj._coeff = _normal(table, precision)
        obj.precision = precision
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, precision=None):
        return cls({}, precision)

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent, coefficient=1):
        return cls({exponent: coefficient})

    # -- basic queries -----------------------------------------------------

    def items(self):
        return sorted(self._coeff.items())

    def is_zero(self):
        """True when the element is exactly zero (not merely zero mod t^p)."""
        return not self._coeff and self.precision is None

    def is_zero_mod_precision(self):
        return not self._coeff

    def coefficient(self, k):
        """The coefficient of t^k; errors if k is hidden by the precision."""
        if self.precision is not None and k >= self.precision:
            raise UndeterminedCoefficientError(
                f"coefficient of t^{k} not determined at precision O(t^{self.precision})"
            )
        return self._coeff.get(k, 0)

    def valuation(self):
        """Smallest exponent with nonzero coefficient; INFINITY for zero."""
        if self._coeff:
            return min(self._coeff)
        if self.precision is not None:
            raise UndeterminedValuationError(
                f"element is zero up to O(t^{self.precision}); valuation undetermined"
            )
        return INFINITY

    def _lower_bound(self):
        # Smallest exponent that could carry a nonzero coefficient.
        if self._coeff:
            return min(self._coeff)
        return self.precision  # None for exact zero

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        prec = _min_prec(self.precision, other.precision)
        table = dict(self._coeff)
        for k, c in other._coeff.items():
            table[k] = table.get(k, 0) + c
        return self._adopt(table, prec)

    def __neg__(self):
        return self._adopt({k: -c for k, c in self._coeff.items()}, self.precision)

    def __sub__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            return self.scale(other)
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return LaurentElement.dot(((self, other),))

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs, start=None):
        """``start + a1*b1 + a2*b2 + ...`` over the pairs (a, b), normalised once.

        ``start=None`` is the exact zero.  The result equals the left fold of
        ``+`` and ``*`` in every coefficient and in its precision, and this
        is where the product-precision rule lives.  A product with an
        exact-zero factor is the exact zero and contributes nothing.
        Otherwise a*b is determined below lb(a) + prec(b) and lb(b) +
        prec(a), where lb is the least stored exponent, or the precision of
        a truncated zero, so ``O(t^p)`` still bounds it.  A sum is
        determined below the least precision of its terms, so every product
        is needed only below the least precision of ``start`` and all the
        products, and all of them accumulate into one table.
        """
        prec = None if start is None else start.precision
        factors = []
        for a, b in pairs:
            if a.is_zero() or b.is_zero():
                continue
            if b.precision is not None:
                prec = _min_prec(prec, a._lower_bound() + b.precision)
            if a.precision is not None:
                prec = _min_prec(prec, b._lower_bound() + a.precision)
            factors.append((a._coeff.items(), b._coeff.items()))
        table = {} if start is None else dict(start._coeff)
        get = table.get
        for left, right in factors:
            for k1, c1 in left:
                for k2, c2 in right:
                    k = k1 + k2
                    if prec is None or k < prec:
                        table[k] = get(k, 0) + c1 * c2
        return LaurentElement._adopt(table, prec)

    def scale(self, scalar):
        scalar = canonical(scalar)
        if not scalar:
            return LaurentElement.zero()
        return self._adopt(
            {k: c * scalar for k, c in self._coeff.items()}, self.precision
        )

    # -- calculus ----------------------------------------------------------

    def derivative(self):
        """Termwise d/dt; the precision bound drops by one."""
        prec = None if self.precision is None else self.precision - 1
        return self._adopt(
            {k - 1: k * c for k, c in self._coeff.items() if k != 0}, prec
        )

    def invert(self, order):
        """A series b with self*b = 1 + O(t^order); b has valuation -v(self).

        A single exact monomial inverts exactly; otherwise b is truncated
        (see ``divide``, of which this is ``one().divide(self, order)``).
        """
        return LaurentElement.one().divide(self, order)

    def divide(self, divisor, order):
        """The quotient ``self * divisor.invert(order)``, without the inverse.

        Equal to that product in every coefficient and its precision, with
        the same error when the inverse does not exist.  Write divisor =
        t^v (c_0 + c_1 t + ...) and self = t^w (s_0 + s_1 t + ...), w the
        lower bound of self.  Unless the divisor is a single exact monomial,
        the inverse is truncated at t^(e-v), e = min(order, prec(divisor) -
        v) (e <= 0 raises), and the product has precision w - v + e; a
        truncated dividend lowers it to prec(self) - v.  Below it the
        coefficient q_k of t^(w-v+k) needs only inverse terms of index
        j <= k < e, so it is the true quotient: s_k = sum_{j<=k} c_j q_{k-j}.
        With c and s scaled to ints by their common denominators D and S,
        Q_k = c_0^(k+1) q_k S / D is an int,

            Q_k = c_0^k s_k - sum_{j=1..k} c_j c_0^(j-1) Q_{k-j},

        and q_k = Q_k D / (c_0^(k+1) S) is the one Fraction per coefficient.
        The sum is taken in Horner form over the divisor's nonzero tail
        indices j_1 < ... < j_m <= k,

            (((c_(j_m) Q_(k-j_m)) c_0^(j_m - j_(m-1)) + ...)
                + c_(j_1) Q_(k-j_1)) c_0^(j_1 - 1),

        the same int, but each step multiplies a quotient term by a small
        divisor coefficient or a power of c_0 instead of by the growing
        product c_j c_0^(j-1).  ``_divide`` also divides by an int
        scale > 0, which joins that denominator: q_k = Q_k D / (c_0^(k+1) S
        scale).
        """
        return self._divide(divisor, order, 1)

    def _divide(self, divisor, order, scale):
        """``divide``, with the quotient also divided by the int ``scale`` > 0.

        Equal to ``self.scale(Fraction(1, scale)).divide(divisor, order)`` in
        every coefficient and its precision: dividing by a positive int
        moves no exponent, precision or exact zero.
        """
        if divisor.is_zero():
            raise ZeroDivisorError("cannot invert the zero series")
        v = divisor.valuation()  # raises UndeterminedValuationError on O(t^p) zero
        inverse_prec = None  # the precision of divisor.invert(order)
        if len(divisor._coeff) > 1 or divisor.precision is not None:
            effective = order
            if divisor.precision is not None:
                effective = min(effective, divisor.precision - v)
            if effective <= 0:
                message = f"cannot invert to order {order}"
                if divisor.precision is not None:
                    message += f" with input precision O(t^{divisor.precision})"
                raise PrecisionExhaustedError(message)
            inverse_prec = effective - v
        if self.is_zero():
            return LaurentElement.zero()
        w = self._lower_bound()
        prec = None if inverse_prec is None else w + inverse_prec
        if self.precision is not None:
            prec = _min_prec(prec, self.precision - v)
        if not self._coeff:
            return self._adopt({}, prec)
        count = max(self._coeff) - w + 1 if prec is None else prec - w + v
        big_d = lcm(*(c.denominator for c in divisor._coeff.values()))
        big_s = lcm(*(c.denominator for c in self._coeff.values()))
        c0 = _scaled(divisor._coeff[v], big_d)
        # tail (j_i, c_(j_i), c_0^(j_i - j_(i-1))) with j_0 = 1, ascending
        tail, below = [], 1
        for j, c in sorted((k - v, c) for k, c in divisor._coeff.items() if k != v):
            tail.append((j, _scaled(c, big_d), c0 ** (j - below)))
            below = j
        dividend = {k - w: _scaled(c, big_s) for k, c in self._coeff.items()}
        denominator = big_s * scale
        quotient = []
        table = {}
        power = 1  # c_0^k
        live = 0  # the number of tail indices <= k
        for k in range(count):
            while live < len(tail) and tail[live][0] <= k:
                live += 1
            horner = 0
            for j, c, step in reversed(tail[:live]):
                horner = (horner + c * quotient[k - j]) * step
            total = power * dividend.get(k, 0) - horner
            quotient.append(total)
            power *= c0
            if total:
                table[w - v + k] = Fraction(total * big_d, power * denominator)
        return self._adopt(table, prec)

    def truncate(self, precision):
        return self._adopt(self._coeff, _min_prec(self.precision, precision))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self._coeff == other._coeff and self.precision == other.precision

    def __hash__(self):
        return hash((tuple(sorted(self._coeff.items())), self.precision))

    def agrees_with(self, other):
        """Equality of all coefficients determined on both sides."""
        bound = _min_prec(self.precision, other.precision)
        exps = set(self._coeff) | set(other._coeff)
        for k in exps:
            if bound is not None and k >= bound:
                continue
            if self._coeff.get(k, 0) != other._coeff.get(k, 0):
                return False
        return True

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return f"LaurentElement({self!s})"

    def __str__(self):
        body = signed_sum(
            (c, "" if k == 0 else "t" if k == 1 else f"t^{k}") for k, c in self.items()
        )
        if self.precision is not None:
            tail = f"O(t^{self.precision})"
            body = tail if body == "0" else f"{body} + {tail}"
        return body

    # -- serialization -----------------------------------------------------

    def to_json(self):
        data = {"terms": [[k, scalar_to_str(c)] for k, c in self.items()]}
        if self.precision is not None:
            data["precision"] = self.precision
        return data

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "terms" not in data:
            raise ValidationError(f"not a Laurent element: {data!r}")
        try:
            terms = [
                (int_from_json(k, "exponent"), scalar_from_str(c))
                for k, c in data["terms"]
            ]
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad Laurent terms: {exc}") from exc
        prec = data.get("precision")
        return cls(terms, None if prec is None else int_from_json(prec, "precision"))
