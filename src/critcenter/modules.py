"""Root modules and the action of Fourier coefficients on them.

A root function assigns a depth r(i, j) >= 0 to every matrix position, with
r(i, i) > 0 and the subadditivity r(i, j) + r(j, k) >= r(i, k); the span of
the e_ij[u] with u >= r(i, j) is then a subalgebra of gl_n[[t]] on which the
central extension splits.  The root module it induces is generated by a
vector v_0 with e_ij[u].v_0 = 0 for u >= r(i, j), and has a PBW basis of
ordered creation monomials (factors e_ij[u] with u < r(i, j), sorted by
degree then index) applied to v_0.

Generators act by left insertion (``pbw._insert``, on the root function's
depth table): annihilators commute rightwards through a creation word until
they reach v_0, collecting bracket and central terms on the way; at the
critical level the central element acts as 1 and all results are exact.

States (vacuum-module vectors, i.e. words of negative-degree generators) act
through their fields.  The field of x[-m-1] is the m-th divided z-derivative
of the field of x[-1], with coefficients

    (x[-m-1])_(p) = (-1)^m binom(p, m) x[p - m],

and the field of a product state is the normally ordered product, giving the
recursion

    (x[-m-1] B)_(s) v = sum_{p <= -1} c_p x[p-m] (B_(s-p-1) v)
                      + sum_{p >= 0} c_p B_(s-p-1) (x[p-m] v),

with c_p the coefficient above.  The recursion reads B only through its
modes B_(s), so B may be any product expression: a word, or a node of the
first-column minor table of cdet(tau + E[-1]) (``sugawara.ss_nodes``), a
sum of terms coef * x[-m-1] * child whose children are nodes again.  The
vanishing scan reads each S_l, and its certified bound, from its node and
never straightens it into PBW words; the straightened S_l is the test oracle.
The recursion runs on plain {word: coeff} tables of creation monomials;
a ModuleVector wraps a table only at the public edge, in ``fourier_act``
and ``act``.

Both sums are truncated by certified annihilation bounds derived from the
basic vanishing rule: a word x_{n_1} ... x_{n_k} kills v_0 whenever
sum n_i >= sum r(alpha_i).  Every truncation is certified, never heuristic,
so reported zeroes are exact.

When every depth r(i, j) is at most 1, a sharper truncation holds, by loop
degree.  The module is graded by loop degree: v_0 has
degree 0, e_ij[u] raises degree by u, and the cocycle pairs only modes of
opposite degree.  Every creation factor has u < r(i, j) <= 1, so every PBW
monomial has degree <= 0 and every vector of positive degree is 0.  Give a
word the degree D = sum u of its factors, and a MinorNode F[R, J] the degree
J - |R| (``RootModule._degree``).  On a monomial of degree d, word_(s) has
degree d + s + 1 + D, by induction on the recursion: both terms of
(x[-m-1] B)_(s) have degree (p - m) + (d + s - p + deg B) = d + s + 1 + D,
and ()_(-1) is the identity.  Hence the degree cut:

    word_(s) mono = 0 for s >= -D - d,   and   x[p - m] mono = 0 for p - m > -d.

Both rules meet in ``RootModule._zero_from``, which every truncation reads:
the recursion neither expands nor caches a monomial at or past it, and both
sums and the scan stop below it.  The bounds the module reports
(``annihilation_bound``, the scan's ``certified_from``) stay the depth bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import AffineAlgebra, Gen, check_rank, word_from_tokens
from .errors import DomainError, ValidationError
from .laurent import LaurentElement
from .lincomb import LinComb, _accumulate, canonical, gc_paused, scalar_from_str
from .pbw import NCPoly, _insert, _straighten
from .sugawara import MinorNode, ss_nodes
from .diffop import Oper, irregularity


def _field_mode(head, m, p):
    """The mode x[p - m] and coefficient (-1)^m binom(p, m) of (x[-m-1])_(p).

    For p < 0 the coefficient is binom(m - p - 1, m); for p >= 0 it is
    (-1)^m binom(p, m), which is 0 for p < m.
    """
    c = math.comb(m - p - 1, m) if p < 0 else (-1) ** (m % 2) * math.comb(p, m)
    return Gen(head.i, head.j, p - m), c


class _DepthTable(dict):
    """r(i, j) keyed by (i, j); an index outside 1..n raises ValidationError."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def __missing__(self, key):
        raise ValidationError(f"index {key} outside 1..{self.n}")


class RootFunction:
    """Depth function r(i, j) on the full index square {1..n}^2."""

    def __init__(self, n, values, kind="custom", params=None, _allow_zero_diagonal=False):
        check_rank(n)
        self.n = n
        self._values = _DepthTable(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                try:
                    v = values[(i, j)]
                except KeyError as exc:
                    raise ValidationError(f"missing depth at {(i, j)}") from exc
                if type(v) is not int:
                    raise ValidationError(f"depth r{(i, j)} must be an integer, got {v!r}")
                self._values[(i, j)] = v
        self.kind = kind
        self.params = dict(params or {})
        self._validate(_allow_zero_diagonal)

    def _validate(self, allow_zero_diagonal):
        n = self.n
        for (i, j), v in self._values.items():
            if v < 0:
                raise ValidationError(f"negative depth r{(i, j)} = {v}")
            if i == j and v == 0 and not allow_zero_diagonal:
                raise ValidationError(f"diagonal depth r{(i, i)} must be positive")
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if self(i, j) + self(j, k) < self(i, k):
                        raise ValidationError(
                            f"subadditivity fails: r{(i, j)}+r{(j, k)} < r{(i, k)}"
                        )

    def __call__(self, i, j):
        return self._values[i, j]

    def __eq__(self, other):
        if not isinstance(other, RootFunction):
            return NotImplemented
        return self.n == other.n and self._values == other._values

    def describe(self):
        def fmt(value):
            if isinstance(value, tuple):
                return "(" + ", ".join(str(c) for c in value) + ")"
            return str(value)

        inner = ", ".join(f"{k}={fmt(v)}" for k, v in sorted(self.params.items()))
        return f"{self.kind}(n={self.n}{', ' + inner if inner else ''})"

    __repr__ = describe

    def as_matrix(self):
        return [
            [self(i, j) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)
        ]

    def threshold(self, ell):
        """Theoretical vanishing threshold for the degree-l operators (or None)."""
        if self.kind == "constant":
            return ell * self.params["m"]
        if self.kind == "km0":
            return self.params["m"] + ell - 1
        if self.kind == "moy-prasad":
            return math.ceil((self.params["r"] + 1) * ell)
        return None


def _check_depth(m, name):
    """A depth parameter is a positive int; like RootFunction, never truncate it."""
    if type(m) is not int:
        raise ValidationError(f"{name} m must be an integer, got {m!r}")
    if m <= 0:
        raise DomainError(f"{name} m must be positive")


def _square(n, depth):
    """{(i, j): depth(i, j)} over {1..n}^2, for a valid rank n."""
    check_rank(n)
    return {(i, j): depth(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}


def root_fn_constant(n, m):
    """r(i, j) = m everywhere: the congruence subalgebra t^m gl_n[[t]]."""
    _check_depth(m, "congruence depth")
    return RootFunction(n, _square(n, lambda i, j: m), "constant", {"m": m})


def root_fn_km0(n, m):
    """Depth m on the whole bottom row, 0 on the last column above it, 1 elsewhere."""
    _check_depth(m, "conductor depth")
    values = _square(n, lambda i, j: m if i == n else 0 if j == n else 1)
    return RootFunction(n, values, "km0", {"m": m})


def _exact(value, name):
    """An int, Fraction or "num/den" string as a Fraction; never a float or bool."""
    if isinstance(value, str):
        return scalar_from_str(value)
    if type(value) is int or type(value) is Fraction:
        return Fraction(value)
    raise ValidationError(f"{name} must be an exact rational, got {value!r}")


def root_fn_moy_prasad(n, x, r):
    """r(i, j) = 1 - ceil(x_i - x_j - r) off the diagonal, 1 + floor(r) on it."""
    if not isinstance(x, (list, tuple)):
        raise ValidationError(f"point must be a list of coordinates, got {x!r}")
    x = [_exact(c, "point coordinate") for c in x]
    r = _exact(r, "depth parameter r")
    if len(x) != n:
        raise ValidationError("point must have one coordinate per row")
    if r < 0:
        raise ValidationError("depth parameter r must be nonnegative")

    def depth(i, j):
        if i == j:
            return 1 + math.floor(r)
        return 1 - math.ceil(x[i - 1] - x[j - 1] - r)

    return RootFunction(n, _square(n, depth), "moy-prasad", {"x": tuple(x), "r": r})


class ModuleVector(LinComb):
    """Finite exact combination of ordered creation monomials applied to v_0.

    A word given to the constructor (or read by ``from_json``) must be a
    basis monomial: loop generators in nondecreasing PBW order (the order
    in which ``Gen`` tuples compare), as ``RootModule.act`` writes them.
    """

    __slots__ = ()

    @staticmethod
    def _key(word):
        word = tuple(word)
        if any(x > y for x, y in zip(word, word[1:])):
            raise ValidationError(
                f"module vector word {list(map(repr, word))} is not in PBW order"
            )
        return word

    @classmethod
    def vacuum(cls):
        return cls({(): 1})

    def _body(self, word):
        return "*".join(self._tokens(word) + ["v0"])

    @classmethod
    def from_json(cls, data):
        terms = cls._terms_from_json(data, word_from_tokens)
        return cls((word, c) for c, word in terms)


def _field_states(state):
    """A state for the field recursion: {word: coeff}, or {node: 1} for a MinorNode."""
    if type(state) is MinorNode:
        return {state: 1}
    return _state_words(state)


def _state_words(state):
    """Normalize a state to {word: coeff}; words must have negative degrees."""
    if isinstance(state, (NCPoly, ModuleVector)):
        words = dict(state._terms)
    elif isinstance(state, dict):
        words = {tuple(w): canonical(c) for w, c in state.items()}
    elif isinstance(state, (tuple, list)):
        words = {tuple(state): 1}
    else:
        raise ValidationError(f"cannot interpret state {state!r}")
    for word in words:
        for g in word:
            if not isinstance(g, Gen):
                raise ValidationError("states contain loop generators only")
            if g.u >= 0:
                raise ValidationError(
                    f"state factor {g!r} has nonnegative degree; states live in"
                    " strictly negative degrees"
                )
    return words


class RootModule:
    """The induced module for a root function, with exact generator action.

    Its ``algebra`` is affine gl_n at the critical level, where the
    centrality and vanishing statements hold.  Straightening and field
    actions are memoized per instance, so reuse one RootModule across a
    computation.
    """

    def __init__(self, rf):
        self.rf = rf
        self.algebra = AffineAlgebra(rf.n)
        self._act_cache = {}
        self._fourier_cache = {}
        self._move_cache = {}
        self._depths = {}
        self._degrees = {}
        # The degree cut of the module docstring needs every r(i, j) <= 1.
        self._degree_cut = max(rf._values.values()) <= 1
        # The basic vanishing rule (degree sum >= depth sum kills v_0) needs
        # positive diagonal depths: a central contraction removes a pair of
        # opposite factors of total degree zero and total depth at least
        # r(i, i), so with a zero diagonal the empty word is reachable on the
        # boundary and the rule must be padded by one.
        self._lemma_slack = (
            0 if all(rf(i, i) > 0 for i in range(1, rf.n + 1)) else 1
        )

    # -- creation data -----------------------------------------------------

    def _check_vector(self, vec):
        """Raise ValidationError unless vec is a ModuleVector of creation monomials."""
        if not isinstance(vec, ModuleVector):
            raise ValidationError(f"expected a ModuleVector, got {type(vec).__name__}")
        for word in vec._terms:
            for g in word:
                if not isinstance(g, Gen) or g.u >= self.rf(g.i, g.j):
                    raise ValidationError(f"{g!r} is not a creation factor (u < r(i, j))")

    # -- generator action --------------------------------------------------

    def act(self, g, vec):
        """Exact action of e_ij[u] on a module vector, by ``pbw._insert``."""
        if not isinstance(g, Gen):
            raise ValidationError("act expects a loop generator")
        algebra, depths, cache = self.algebra, self.rf._values, self._act_cache
        out = {}
        for word, c in vec._terms.items():
            _accumulate(out, _insert(algebra, depths, g, word, cache), c)
        return ModuleVector._adopt(out)

    def act_word(self, word, vec):
        """Apply a word of generators, rightmost factor first."""
        self._check_vector(vec)
        for g in reversed(tuple(word)):
            if vec.is_zero():
                return vec
            vec = self.act(g, vec)
        return vec

    # -- certified annihilation bounds --------------------------------------

    def _depth(self, word):
        """sum (r(i,j) - u) over a word's factors, or W(node) for a MinorNode."""
        depth = self._depths.get(word)
        if depth is None:
            if type(word) is MinorNode:
                depth = max(
                    self._depth(child)
                    + (0 if head is None else self.rf(head.i, head.j) - head.u)
                    for _coef, head, child in word.terms
                )
            else:
                depth = sum(self.rf(g.i, g.j) - g.u for g in word)
            self._depths[word] = depth
        return depth

    def _degree(self, word):
        """Loop degree: sum u over a word's factors, power - len(rows) for a MinorNode.

        A node is homogeneous of that degree, by the table recursion of
        ``sugawara``: F[empty, 0] = 1 has degree 0; the tau term of F[R, J]
        is F[R - i, J - 1], of degree (J - 1) - (|R| - 1), and its other
        terms e_ic[-1-q] F[R - i, J + q] have degree
        (-1 - q) + (J + q) - (|R| - 1); both are J - |R|.
        """
        degree = self._degrees.get(word)
        if degree is None:
            if type(word) is MinorNode:
                degree = word.power - len(word.rows)
            else:
                degree = sum(g.u for g in word)
            self._degrees[word] = degree
        return degree

    def annihilation_bound(self, state, vec):
        """Certified N with state_(s) vec = 0 for all s >= N.

        The field of a state is the sum of its words' fields, so the bound
        is the largest over words and over the creation monomials of vec.
        For a nonempty word x_{n_1} ... x_{n_k} acting on a creation
        monomial, every expansion term is a word of generator modes summing
        to sum n_i + s + 1, so the basic vanishing rule kills everything as
        soon as s >= sum r(alpha_i) - sum n_i - 1 + shift(vec), where
        shift(vec) collects (r - u) over the creation factors of vec.  This
        sharpens by one the naive per-factor count, which is not a valid
        bound: reordering corrections inside a field expansion can land
        exactly on the boundary.

        A word may also be a MinorNode.  Its depth W is the largest, over
        its terms (coef, head, child), of r(head) - u(head) + W(child), where
        a tau term counts as W(child) and W(()) = 0.  Expanding the node's
        products gives words head * w with w a word of the child, so by
        induction every word of the node has sum (r - u) <= W.  The node's
        field is the sum of its words' fields, so W - 1 + shift(vec) bounds
        each nonempty word by the argument above, and hence the node.  A
        node with W = 0 reaches () through tau terms only: it is a multiple
        of the vacuum, of degree 0, and acts only at s = -1.
        """
        self._check_vector(vec)
        words = _field_states(state)
        return max((self._depth_rule(w, mono) for w in words for mono in vec._terms), default=0)

    def _depth_rule(self, word, mono):
        """W(word) - 1 + shift(mono) + slack; 0 for a vacuum field (W = 0), acting at -1.

        mono is a creation monomial (``_check_vector``, ``pbw._insert``), so shift >= 0.
        """
        depth = self._depth(word)
        return depth and depth - 1 + self._depth(mono) + self._lemma_slack

    def _zero_from(self, word, mono):
        """The least N with word_(s) mono = 0 certified for all s >= N.

        The depth bound, or under the degree cut (module docstring) the
        smaller of it and -deg(word) - deg(mono).
        """
        bound = self._depth_rule(word, mono)
        if self._degree_cut:
            return min(bound, -self._degree(word) - self._degree(mono))
        return bound

    # -- Fourier action ------------------------------------------------------

    def fourier_act(self, state, s, vec):
        """The s-th Fourier coefficient of the field of a state, applied to vec.

        ``state`` is a state as ``_state_words`` reads it, or a MinorNode of
        ``sugawara.ss_nodes``.
        """
        self._check_vector(vec)
        table = {}
        for word, c in _field_states(state).items():
            _accumulate(table, self._fourier_word(word, s, vec._terms), c)
        return ModuleVector._adopt(table)

    def _fourier_word(self, word, s, terms):
        """word_(s) applied to the {monomial: coeff} table ``terms``, as a table.

        ``word`` is a word or a MinorNode.  word_(s) is linear in its
        argument, so it is expanded once per unit monomial of ``terms``
        (cached under ``(word, s, monomial)``) and those tables are summed
        with the coefficients of ``terms``: exact by linearity, and each
        expansion is truncated by its own monomial's certified bounds.

        A monomial with s >= ``_zero_from(word, monomial)`` gives 0; it is
        skipped, neither expanded nor cached.

        Tables passed in and returned are shared and read-only: the empty
        word returns ``terms`` itself, and ``terms`` may be a table that a
        cache holds.  Sums go into a fresh table, as ``_accumulate`` asks.
        """
        if not word:
            return terms if s == -1 else {}
        cache = self._fourier_cache
        total = {}
        for mono, c in terms.items():
            key = (word, s, mono)
            table = cache.get(key)
            if table is None:
                if s >= self._zero_from(word, mono):
                    continue
                table = cache[key] = self._fourier_expand(word, s, mono)
            _accumulate(total, table, c)
        return total

    def _fourier_expand(self, word, s, mono):
        """The table of word_(s) mono for a nonempty word or a node and a unit monomial.

        A node is the sum of its terms (coef, head, child): the product state
        coef * head * child, or coef * child for a tau term (head None).  A
        word is the one-term state (1, word[0], word[1:]).
        """
        unit = {mono: 1}
        terms = word.terms if type(word) is MinorNode else ((1, word[0], word[1:]),)
        total = {}
        for coef, head, tail in terms:
            if head is None:
                _accumulate(total, self._fourier_word(tail, s, unit), coef)
                continue
            m = -head.u - 1
            # creation side: p <= -1, head mode p - m applied after the tail field
            for p in range(s - self._zero_from(tail, mono), 0):
                inner = self._fourier_word(tail, s - p - 1, unit)
                if inner:
                    mode, c = _field_mode(head, m, p)
                    moved = self.act(mode, ModuleVector._adopt(inner))
                    _accumulate(total, moved._terms, coef * c)
            # annihilation side: p >= m, head acts first
            for p, c, moved in self._moves(head, mono):
                _accumulate(total, self._fourier_word(tail, s - p - 1, moved), coef * c)
        return total

    def _moves(self, head, mono):
        """The annihilation side of head's field on mono, as (p, c_p, x[p - m].mono).

        These are the modes x[p - m] for m <= p < ``_zero_from((head,), mono)``
        (the binomial vanishes below m) that do not kill the unit monomial
        ``mono``; each moved vector is kept as its table.  The field of the
        one-factor word (head,) is (head,)_(p) = c_p x[p - m], with c_p
        nonzero for p >= m, so its rule bounds the moves: the depth part is
        m + r(head) + shift(mono) + slack, as W((head,)) = r(head) + m + 1,
        and the cut m + 1 - deg(mono).  The moves depend on neither s nor
        the rest of the state, so they are cached under ``(head, mono)``.
        """
        hit = self._move_cache.get((head, mono))
        if hit is not None:
            return hit
        unit = ModuleVector._adopt({mono: 1})
        m = -head.u - 1
        moves = []
        for p in range(m, self._zero_from((head,), mono)):
            mode, c = _field_mode(head, m, p)
            moved = self.act(mode, unit)._terms
            if moved:
                moves.append((p, c, moved))
        moves = self._move_cache[head, mono] = tuple(moves)
        return moves


# -- module-level operations ---------------------------------------------


@gc_paused
def state_is_central(state, n):
    """Exact membership test for the centre of the vacuum vertex algebra.

    A state lies in the centre iff gl_n[t] kills it, i.e. e_ij[u] kills it
    for every u >= 0.  It suffices that the n generators e_{i,i+1}[0]
    (1 <= i < n) and e_{n,1}[1] kill it:

    * The annihilator of a vector is a Lie subalgebra, since
      [x, y] v = x (y v) - y (x v).
    * The generators generate n_+[0] and sl_n t[t] = sl_n tensor tC[t]:
      n_+[0] applied to e_{n,1}[1] gives sl_n t, as e_{n,1} is the lowest
      weight vector of the irreducible adjoint module, and
      [sl_n t, sl_n t^k] = sl_n t^(k+1) as [sl_n, sl_n] = sl_n.  No central
      term arises: the cocycle of e_ij[a], e_kl[b] carries the factor
      b d_{a+b,0}, which vanishes for a, b >= 0.
    * Weight 0.  e_ii[0] acts on a creation monomial by its weight, the
      count of factors with row i minus those with column i, and each root
      vector or Cartan element of n_+[0] + sl_n t[t] shifts weights by a
      fixed amount.  So each weight component v_lambda of the vector is
      killed too: a highest-weight vector for sl_n[0] in finitely many
      graded pieces (finite-dimensional sl_n-modules), so lambda is
      dominant.  The form restricts to the Killing form 2n tr(XY) of sl_n,
      so the level is critical for sl_n too, and the mode S_(1) of sl_n's
      quadratic Segal-Sugawara vector S = 1/2 sum_a J^a[-1] J_a[-1] v_0
      commutes with affine sl_n (S is central) and with each I[u] (its
      field has no singular product with an sl_n field).  It kills v_0, so
      it acts as 0.  On v_lambda every term of S_(1) but
      1/2 sum_a J^a[0] J_a[0] ends in a mode of sl_n t[t], so S_(1) acts
      as the Casimir 1/2 (lambda, lambda + 2 rho), positive for dominant
      lambda != 0.  So lambda is 0 on the Cartan subalgebra of sl_n: the
      gl_n weight is constant over i.  It sums to 0 over i, as each factor
      adds 1 at its row and -1 at its column, so it is 0.
    * n_-[0].  Each graded piece of the vacuum module is a finite-dimensional
      sl_n-module, and the vector lies in finitely many of them.  A vector of
      weight 0 that n_+[0] kills generates a finite-dimensional
      highest-weight module of highest weight 0.  That module is a quotient
      of the Verma module, semisimple by Weyl's theorem and generated by one
      highest-weight vector, so it is irreducible: the trivial module.  So
      n_-[0] kills the vector too, and with the Cartan part and sl_n t[t],
      sl_n[t] does.
    * gl_n[t] = sl_n[t] + I[t], and each I[u], u >= 0, kills every vector:
      (I, e_ij) = 2n d_ij - 2n d_ij = 0 in the modified form, so I[u] is
      central in the affine algebra, and I[u] v_0 = 0 in the vacuum module.

    At n = 1, sl_1 = 0 and gl_1[t] = I[t], so every state is central; the
    one check left, on e_{1,1}[1] = I[1], always passes.

    The generators act as derivations, with no module built.  The state
    vector is sum c_w w v_0 over the state's words w, taken as given: any
    word of negative-degree factors, normal or not.  A generator g of degree
    >= 0 kills v_0, so

        g w v_0 = [g, w] v_0 = sum_i w_<i [g, w_i] w_>i v_0,

    where [g, w_i] gives its loop part, and its central scalar (the central
    element acts as 1) times w_<i w_>i.  A loop term h of degree >= 0 kills
    v_0 in turn, so h w_>i v_0 expands by the same rule; every term is then
    a word of negative-degree factors.  Straightening (``pbw._straighten``)
    keeps them so, as brackets of negative-degree generators have negative
    degree and no central term, and writes the sum in the PBW basis of the
    vacuum module, the normal words of negative-degree factors: g kills the
    state iff the straightened sum is 0.

    The state may be an NCPoly, a dict, a tuple or a ModuleVector; only a
    dict or a tuple can hold words that are not normal.  An NCPoly over a
    rank-n algebra lends its bracket cache; any other state is expanded
    over a fresh ``AffineAlgebra(n)``.  All n generators are derived in one
    walk over the state's words (``_kills_all``).  No straightening memo
    outlives the call.
    """
    algebra, words = _critical_words(state, n)
    generators = [Gen(i, i + 1, 0) for i in range(1, n)] + [Gen(n, 1, 1)]
    return _kills_all(algebra, generators, words)


def _critical_words(state, n):
    """The state as (rank-n algebra, {word of negative-degree factors: coeff})."""
    words = _state_words(state)
    for word in words:
        for g in word:
            if not (1 <= g.i <= n and 1 <= g.j <= n):
                raise ValidationError(f"state factor {g!r} has an index outside 1..{n}")
    if isinstance(state, NCPoly) and state.algebra.n == n:
        return state.algebra, words
    return AffineAlgebra(n), words


def _kills_all(algebra, generators, words):
    """Whether each generator kills sum c_w w v_0, expanded as in ``state_is_central``.

    One walk over the words fills a raw sum per generator, in the order
    that a walk for that generator alone would.  A table local to the call
    maps each distinct factor x to the generators g with [g, x] != 0, so
    each position costs one lookup, not one bracket per generator.  The
    table also records whether [g, x] is simple, with no central term and
    every loop term of negative degree (every e_{a,a+1}[0], and e_{n,1}[1]
    on factors of degree <= -2); the raw words of a simple bracket are
    added here, and only the others go through ``_add_bracket``.  The raw
    sums are straightened one by one, stopping at the first that is not 0,
    each with a memo of its own (``_straightens_to_zero``): one memo shared
    by the n sums peaks higher, for no gain in time.
    """
    raws = [{} for _ in generators]
    partners = {}
    for word, c in words.items():
        for i, x in enumerate(word):
            hits = partners.get(x)
            if hits is None:
                hits = partners[x] = []
                for g, raw in zip(generators, raws):
                    lie, central = algebra.bracket(g, x)
                    if lie or central:
                        simple = not central and all(h.u < 0 for h, _ in lie)
                        hits.append((raw, lie, central, simple))
            if hits:
                pre, post = word[:i], word[i + 1 :]
                for raw, lie, central, simple in hits:
                    if simple:
                        for h, c2 in lie:
                            key = pre + (h,) + post
                            raw[key] = raw.get(key, 0) + c * c2
                    else:
                        _add_bracket(algebra, lie, central, c, pre, post, raw)
    return all(_straightens_to_zero(algebra, raw) for raw in raws)


def _straightens_to_zero(algebra, raw):
    out, memo = {}, {}
    for word, c in raw.items():
        if c:
            _accumulate(out, _straighten(algebra, word, memo), c)
    return not out


def _add_bracket(algebra, lie, central, c, pre, post, raw):
    """Add c * pre [g, x] post v_0 to raw, with [g, x] = (lie, central).

    A loop term h of degree >= 0 kills v_0, so h post v_0 = [h, post] v_0,
    which expands factor by factor by this same rule.
    """
    for h, c2 in lie:
        if h.u >= 0:
            for i, y in enumerate(post):
                lie2, central2 = algebra.bracket(h, y)
                if lie2 or central2:
                    left, right = pre + post[:i], post[i + 1 :]
                    _add_bracket(algebra, lie2, central2, c * c2, left, right, raw)
        else:
            key = pre + (h,) + post
            raw[key] = raw.get(key, 0) + c * c2
    if central:
        key = pre + post
        raw[key] = raw.get(key, 0) + c * central


@gc_paused
def ss_operator_act(n, ell, N, rf):
    """Apply the N-th Fourier coefficient of S_l, from its node, to v_0."""
    if rf.n != n:
        raise ValidationError("root function rank does not match n")
    if type(ell) is not int:
        raise ValidationError(f"component index must be an integer, got {ell!r}")
    if type(N) is not int:
        raise ValidationError(f"Fourier mode must be an integer, got {N!r}")
    if not 1 <= ell <= n:
        raise ValidationError(f"component index {ell} out of range 1..{n}")
    mod = RootModule(rf)
    return mod.fourier_act(ss_nodes(n)[ell - 1], N, ModuleVector.vacuum())


def _workers_from_env(cells):
    """Always 1: the per-l scans run in-line (see ``vanishing_report``).

    Under the GIL a thread pool only makes the pure-Python scans take turns.
    Nothing here calls this; it stays only as a name the benchmark's tracer
    patches, until that tracer drops it.
    """
    return 1


@gc_paused
def vanishing_report(n, rf, scan_window=3):
    """Scan the Fourier coefficients of every S_l around its threshold.

    For each l the report records the theoretical threshold, whether
    vanishing at and above it is fully verified (explicit checks up to the
    certified bound, the bound covering the rest), the smallest N in the
    scanned range above which everything vanishes, and a witness vector for
    the largest nonvanishing N seen.

    Each l is scanned downward from the top of its range and stops at the
    first nonzero cell: the largest nonvanishing N and its witness.  The
    report reads no cell below it, so none is computed.  Cells and
    ``certified_from`` come from S_l's node (``sugawara.ss_nodes``), whose
    bound on v_0, W - 1 + slack, equals the straightened S_l's, the largest
    depth sum (r - u) of its words (all of degree -l < 0), less 1, plus slack:

    * Multiplying the node out straightens products of generators, which
      never raises sum (r - u): a bracket e_ij[a], e_jk[b] -> e_ik[a+b]
      cannot, by subadditivity, and a central contraction removes
      r(i,j) + r(j,i) >= 0.  So no straightened word is deeper than W.
    * A path word of the node comes from a permutation s with tau on fixed
      columns T; let K be the others.  Adding the l - |K| factors e_cc[-1]
      for some c in T gives a top-symbol monomial of S_l, with coefficient
      +-1 from a principal l-minor, and depth at least the path word's,
      because r >= 0.  So some straightened word has depth >= W.

    The scan of S_l starts below ``RootModule._zero_from(node, ())``, so it
    skips only certified zeros of [thr - window, max(thr, certified_from)):
    the depth bound, or l under the degree cut (S_l has degree -l).
    """
    if rf.n != n:
        raise ValidationError("root function rank does not match n")
    if type(scan_window) is not int:
        raise ValidationError(f"scan window must be an integer, got {scan_window!r}")
    if scan_window < 0:
        raise ValidationError(f"scan window must be nonnegative, got {scan_window}")
    mod = RootModule(rf)
    vacuum = ModuleVector.vacuum()
    report = {
        "case": rf.describe(),
        "n": n,
        "scan_window": scan_window,
        "thresholds_theoretical": [],
        "certified_from": [],
        "verified": [],
        "observed_min_vanishing": [],
        "witnesses": [],
        "witness_N": [],
    }
    for ell, node in enumerate(ss_nodes(n), start=1):
        certified = mod.annihilation_bound(node, vacuum)
        thr = rf.threshold(ell)
        if thr is None:
            thr = certified
        lo = thr - scan_window
        largest_bad = witness = None
        for N in range(mod._zero_from(node, ()) - 1, lo - 1, -1):
            value = mod.fourier_act(node, N, vacuum)
            if not value.is_zero():
                largest_bad, witness = N, value
                break
        report["thresholds_theoretical"].append(thr)
        report["certified_from"].append(certified)
        report["verified"].append(largest_bad is None or largest_bad < thr)
        report["observed_min_vanishing"].append(
            lo if largest_bad is None else largest_bad + 1
        )
        report["witnesses"].append(None if witness is None else witness.to_json())
        report["witness_N"].append(largest_bad)
    return report


def conductor_irregularity_report(n, m, scan_window=3):
    """Combine the conductor-subalgebra vanishing with the pole-order calculus.

    Annihilation by the depth-m conductor subalgebra forces a_{l,N} = 0 for
    N >= m + l - 1, i.e. pole bounds -v(a_l) <= m + l - 1 for any compatible
    oper.  Feeding the bounds into the irregularity formula yields
    Irr <= m - 1, and the oper saturating every bound attains it exactly.
    """
    rf = root_fn_km0(n, m)
    vanishing = vanishing_report(n, rf, scan_window=scan_window)
    if not all(vanishing["verified"]):
        raise AssertionError(
            "internal invariant violation: conductor vanishing failed"
        )
    pole_bounds = vanishing["thresholds_theoretical"]
    witness = Oper([LaurentElement.monomial(-bound) for bound in pole_bounds])
    witness_irr = irregularity(witness)
    return {
        "case": vanishing["case"],
        "n": n,
        "m": m,
        "thresholds_theoretical": vanishing["thresholds_theoretical"],
        "observed_min_vanishing": vanishing["observed_min_vanishing"],
        "witnesses": vanishing["witnesses"],
        "pole_bounds": pole_bounds,
        "witness_oper": witness.to_json(),
        "witness_irregularity": witness_irr,
        "irregularity_bound": m - 1,
        "vanishing_verified": all(vanishing["verified"]),
    }
