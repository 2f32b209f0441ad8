"""Normally ordered noncommutative polynomials in affine generators.

An NC monomial is a word of loop generators.  Normal form sorts the word by
the fixed total order (degree ascending, then (i, j) lexicographic);
straightening repeatedly swaps adjacent out-of-order factors,

    x y -> y x + [x, y],

absorbing central scalars into the coefficient (the central element acts as
1).  The rewriting terminates and is confluent, so the normal form does not
depend on the order in which swaps are applied.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import word_from_tokens
from .errors import DomainError, ValidationError
from .lincomb import LinComb, _accumulate, canonical, gc_paused


def _straighten(algebra, word, memo):
    """Normal form of a raw word (a tuple of Gen) as {word: int or Fraction}.

    ``memo`` holds the normal form per word and is owned by the caller, as
    for ``_insert``: a call-local dict dies with its call, and ``NCPoly``
    passes the algebra's ``_straighten_cache``.  Its values are shared and
    never mutated.
    """
    hit = memo.get(word)
    if hit is not None:
        return hit
    for bad in range(len(word) - 1):
        if word[bad] > word[bad + 1]:
            break
    else:
        memo[word] = result = {word: 1}
        return result

    x, y = word[bad], word[bad + 1]
    head, tail = word[:bad], word[bad + 2 :]
    out = {}
    _accumulate(out, _straighten(algebra, head + (y, x) + tail, memo))
    lie, central = algebra.bracket(x, y)
    for g, c in lie:
        _accumulate(out, _straighten(algebra, head + (g,) + tail, memo), c)
    if central:
        _accumulate(out, _straighten(algebra, head + tail, memo), central)
    memo[word] = out
    return out


def _insert(algebra, depths, g, word, memo):
    """g * word * v_0 in a root module, for a normal creation word, as {word: coeff}.

    ``depths`` maps (i, j) to r(i, j), so e_ij[u] is a creation factor when
    u < r(i, j) and kills v_0 otherwise.  g is prepended when it does not
    exceed the first factor h and is a creation factor; an annihilator that
    reaches v_0 gives 0; otherwise

        g (h w') = h (g w') + [g, h] w',

    with the central scalar of [g, h] times w' among the bracket terms, and
    h is inserted into each word of g w' in turn.  ``memo`` holds the result
    per (generator, word) and is owned by the caller; its values are shared
    and never mutated.  The all-zero table is the vacuum module: for g of
    negative degree every generator met is a creation factor, and the result
    is the normal form of (g,) + word (``_straighten``), computed without
    straightening whole words (``sugawara.ss_vectors``).
    """
    key = (g, word)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if (not word or g <= word[0]) and g.u < depths[g.i, g.j]:
        result = {(g,) + word: 1}
    elif not word:
        result = {}
    else:
        head, tail = word[0], word[1:]
        result = {}
        for w, c in _insert(algebra, depths, g, tail, memo).items():
            _accumulate(result, _insert(algebra, depths, head, w, memo), c)
        lie, central = algebra.bracket(g, head)
        for h, c in lie:
            _accumulate(result, _insert(algebra, depths, h, tail, memo), c)
        if central:
            _accumulate(result, {tail: central})
    memo[key] = result
    return result


class NCPoly(LinComb):
    """A finite exact combination of normally ordered NC monomials (words)."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        table = {}
        if terms:
            memo = algebra._straighten_cache
            items = terms.items() if isinstance(terms, dict) else terms
            for word, coeff in items:
                coeff = canonical(coeff)
                if coeff:
                    _accumulate(table, _straighten(algebra, tuple(word), memo), coeff)
        self._terms = table

    @classmethod
    def _adopt(cls, algebra, table):
        poly = super()._adopt(table)
        poly.algebra = algebra
        return poly

    def _new(self, table):
        return NCPoly._adopt(self.algebra, table)

    def coefficient(self, word):
        return self._terms.get(tuple(word), 0)

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if self.algebra.n != other.algebra.n:
            raise ValidationError("operands live over different algebras")

    def __add__(self, other):
        self._check_compatible(other)
        return super().__add__(other)

    def __mul__(self, other):
        """The product: each concatenated pair of words, straightened."""
        if type(other) is int or type(other) is Fraction:
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check_compatible(other)
        memo = self.algebra._straighten_cache
        table = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                _accumulate(table, _straighten(self.algebra, w1 + w2, memo), c1 * c2)
        return NCPoly._adopt(self.algebra, table)

    __rmul__ = __mul__

    @classmethod
    def from_json(cls, algebra, data):
        terms = cls._terms_from_json(data, word_from_tokens)
        return cls(algebra, [(word, c) for c, word in terms])


def _project_word(algebra, word, memo):
    """The Cartan projection of a word of negative-degree generators.

    Returns {cartan_word: coeff}, memoised in ``memo``, which the caller
    owns (``hc_project`` passes a dict local to its call).  A word A x B
    whose leftmost lower-triangular factor is x equals
    x A B + sum_k A_<k [A_k, x] A_>k B, and x A B lies in n_- U, so the
    word projects as its bracket terms: shorter words, again of negative
    degree.  No bracket here has a central term, as the cocycle of
    e_ij[u], e_kl[v] needs u + v = 0.  A word with no lower factor lies in
    U(b_+), b_+ = h + n_+; with an upper factor it lies in U n_+ (sorting
    its Cartan factors to the left keeps an upper factor in every term, as
    [e_kk[v], e_ij[u]] is upper for i < j), and projects to 0.  A word with
    neither is all-Cartan, its factors commute, and it projects to itself.
    """
    hit = memo.get(word)
    if hit is not None:
        return hit
    out = {}
    for low, x in enumerate(word):
        if x.i > x.j:
            rest = word[low + 1 :]
            for k in range(low):
                pre, post = word[:k], word[k + 1 : low] + rest
                for g, c in algebra.bracket(word[k], x)[0]:
                    _accumulate(out, _project_word(algebra, pre + (g,) + post, memo), c)
            break
    else:
        if all(g.i == g.j for g in word):
            out[tuple(sorted(word))] = 1
    memo[word] = out
    return out


@gc_paused
def hc_project(p):
    """Canonical projection onto the commutative algebra on the e_ii[u], u < 0.

    This is the projection of U = U(h) + (n_- U + U n_+) onto its first
    summand, with n_- (n_+) spanned by the lower- (upper-) triangular
    e_ij[u] of every loop degree: the map sending the Sugawara vectors to
    their diagonal-product images.  It equals rewriting in the triangular
    PBW order (lower-triangular factors left, Cartan in the middle,
    upper-triangular right) and deleting every monomial with an
    off-diagonal factor; deleting in a different presentation is a
    different (non-canonical) linear map.

    The decomposition is the triangular PBW theorem, and n_+ and n_- are
    Lie subalgebras with no central term: [e_ij[u], e_kl[v]] stays strictly
    upper (lower) when both factors are, and its cocycle carries
    (e_ij, e_kl) = 2n d_jk d_il, which is 0 there.  So a word whose first
    factor is lower-triangular lies in n_- U, one whose last factor is
    upper-triangular lies in U n_+, and both project to 0 at once.
    ``_project_word`` reduces each word by moving its lower factors out to
    the left end, keeping only the bracket terms; its survivors are
    all-Cartan.  Its memo is local to the call: brackets keep the degree,
    so the words met for one S_l (degree -l) are never met for another,
    and a table kept past the call would only hold memory.
    """
    table, memo = {}, {}
    for word, c in p._terms.items():
        if any(g.u >= 0 for g in word):
            raise DomainError("projection undefined: nonnegative-degree factor")
        _accumulate(table, _project_word(p.algebra, word, memo), c)
    return NCPoly._adopt(p.algebra, table)
