"""Lie algebra cohomology with coefficients in a representation.

Cochains of degree n are alternating multilinear maps from n-fold wedge
powers of the Lie algebra into the coefficient space V.  They are stored on
the canonical basis: strictly increasing index tuples, each carrying a
coordinate vector in V.  Evaluation at arbitrary tuples applies the
permutation sign; repeated indices give zero.

The differential follows the shuffle-sum convention (one action term over
(1,n)-shuffles minus one bracket term over (2,n-1)-shuffles, with ordinary
permutation signs), which matches the coherence equation of the algebra
verifier; the signs are computed in closed form, so no degree is capped by
the size of a shuffle table.  Degree 0 is included with C_0 = V and
(delta f)(x) = rho(x) f, so square-zero and dimension formulas hold
uniformly.

A ``Representation`` keeps its cochain complex, one ``_Complex``, through
the record's ``_kept`` under "complex".  Per degree it assembles delta_n
once into scaled rows and eliminates it once, by one forward pass whose
pivots give the rank; only the queries that read vectors back-substitute
that pass.  ``delta`` takes one integer dot product per row, and no query
builds a dense matrix but ``delta_matrix``, their view.

Tensor contractions run on the scaled integers of ``core``: a Lie algebra
stores its structure constants in that form, a representation and a
cochain keep theirs, built on first use.  The Jacobi identity, the
representation law, the Lie-morphism condition and the intertwiner law
are signed parts, checked on basis tuples by ``core._first_failure``, the
walker of the verifiers of ``core`` and ``morphisms``.

Matrix flattening convention: increasing tuples ordered lexicographically,
V index fastest.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .linalg import (Matrix, _Record, _back_substitute, _column_matrix, _forward, _kernel_vectors,
                     _reduce, _solve, _times, as_matrix, is_zero_vec, vec, vec_sub, vec_zero)
from .core import (Tensor3, _alternating, _bracket_defect_parts, _first_failure, _ivec,
                   _jacobi_parts, _mixed_jacobi_parts, _pair_violations, _scale, _scale_arg,
                   _scale_tensor, _unscale, _unscale_tensor, perm_sign, tensor)


class LieMorphismError(ValueError):
    """The supplied linear map is not a Lie algebra morphism."""


class IntertwinerError(ValueError):
    """The supplied linear map does not intertwine the representations."""


class LieAlgebra(_Record):
    """A Lie algebra by structure constants: [e_i, e_j] = sum_t sc[i][j][t] e_t.

    Construction validates antisymmetry and the Jacobi identity on basis
    triples, so every held instance is a genuine Lie algebra.
    """

    dim: int
    _scaled: tuple   # sc in scaled form; canonical, so == and hash compare sc

    def __init__(self, dim: int, sc: Tensor3):
        self.__dict__.update(vars(self._of(dim, _scale_tensor(tensor(sc, (dim, dim, dim)), 2))))

    @classmethod
    def _of(cls, dim: int, sc) -> "LieAlgebra":
        """The Lie algebra whose structure constants are given in scaled form,
        checked as the public constructor checks them."""
        for pair in _pair_violations(sc):
            raise ValueError(f"structure constants not antisymmetric at {pair}")
        if failure := _first_failure("jacobi", dim, (
                (ijk, _jacobi_parts(sc, *ijk)) for ijk in combinations(range(dim), 3))):
            raise ValueError(f"Jacobi identity fails at {failure.args}")
        return super()._of(dim, sc)

    @cached_property
    def sc(self) -> Tensor3:
        return _unscale_tensor(self._scaled, 2, self.dim)

    def ad(self, i: int) -> Matrix:
        """Matrix of ad(e_i): x -> [e_i, x]; its columns are the [e_i, e_s]."""
        return _column_matrix(self._scaled[i], self.dim)


class Representation(_Record):
    """rho: g -> gl(V), one dimV x dimV matrix per basis element of g.

    Construction validates rho([x,y]) = rho(x) rho(y) - rho(y) rho(x) on all
    basis pairs.
    """

    g: LieAlgebra
    dimV: int
    rho: tuple[Matrix, ...]

    def __init__(self, g: LieAlgebra, dimV: int, rho: tuple[Matrix, ...]):
        mats = [as_matrix(m, dimV) for m in rho]
        if any(m.rows != dimV or m.cols != dimV for m in mats):
            raise ValueError(f"rho matrices must be {dimV}x{dimV}")
        if len(mats) != g.dim:
            raise ValueError("need one rho matrix per basis element")
        self.__dict__.update(g=g, dimV=dimV, rho=tuple(mats))
        sc, (r, rt) = self.g._scaled, self._scaled
        if failure := _first_failure("representation", dimV, (
                ((i, j), _mixed_jacobi_parts(sc, r, rt, i, j, l))
                for i, j in combinations(range(g.dim), 2) for l in range(dimV))):
            raise ValueError(f"representation law fails at {failure.args}")

    @cached_property
    def _scaled(self) -> tuple:
        """(r, rt) in scaled form, built on first use: r[i] holds the columns
        of rho[i] and rt[l][i] is r[i][l], so that rho(x) e_l is the
        contraction of rt[l] with x."""
        r = tuple(m._columns for m in self.rho)
        return r, tuple(tuple(c[l] for c in r) for l in range(self.dimV))

    def rho_vec(self, x) -> Matrix:
        """rho of an arbitrary coordinate vector of g."""
        return self._rho(_scale_arg(x, self.g.dim))

    def _rho(self, x) -> Matrix:
        """rho of the scaled vector ``x`` of g: each column l the contraction
        of rt[l] with x."""
        return _column_matrix([_ivec(self.dimV, ((1, c, (x,)),)) for c in self._scaled[1]],
                              self.dimV)


def increasing_tuples(dim: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The basis keys of n-cochains on g, dim g = dim: none when n > dim."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(combinations(range(dim), n)) if n <= dim else ()


class Cochain(_Record):
    """Degree-n alternating cochain with values in V.

    ``values`` maps every strictly increasing n-tuple of basis indices to a
    V coordinate vector; missing keys are filled with zero at construction.
    """

    n: int
    g: LieAlgebra
    dimV: int
    values: dict

    def __init__(self, n: int, g: LieAlgebra, dimV: int, values: dict | None = None):
        canonical = {}
        keys = increasing_tuples(g.dim, n)
        key_set = set(keys)
        supplied = dict(values or {})
        for key in supplied:
            if key not in key_set:
                raise ValueError(f"not an increasing {n}-tuple: {key}")
        for key in keys:
            raw = supplied.get(key)
            v = vec(raw) if raw is not None else vec_zero(dimV)
            if len(v) != dimV:
                raise ValueError(f"value at {key} has wrong length")
            canonical[key] = v
        self.__dict__.update(n=n, g=g, dimV=dimV, values=canonical)

    @classmethod
    def zero(cls, n: int, g: LieAlgebra, dimV: int) -> "Cochain":
        return cls(n, g, dimV)

    def is_zero(self) -> bool:
        return all(is_zero_vec(v) for v in self.values.values())

    def value_at_basis(self, idx: tuple[int, ...]):
        """Alternating evaluation at an arbitrary basis index tuple."""
        if len(idx) != self.n or not all(0 <= i < self.g.dim for i in idx):
            raise ValueError(f"not {self.n} basis indices of g: {idx}")
        if len(set(idx)) < len(idx):
            return vec_zero(self.dimV)
        order = tuple(sorted(idx))
        sign = perm_sign(tuple(sorted(range(len(idx)), key=lambda p: idx[p])))
        base = self.values[order]
        return base if sign == 1 else tuple(-c for c in base)

    def evaluate(self, vectors) -> tuple[Fraction, ...]:
        """Full alternating multilinear evaluation at coordinate vectors of g."""
        if len(vectors) != self.n:
            raise ValueError(f"expected {self.n} arguments")
        args = [_scale_arg(v, self.g.dim) for v in vectors]
        if not args:
            return self.values[()]
        return _unscale(_ivec(self.dimV, ((1, self._scaled, args),)), self.dimV)

    @cached_property
    def _scaled(self) -> tuple:
        """The cochain as a full alternating tensor in scaled form, built on
        first use."""
        return _alternating(self.g.dim, self.n,
                            {key: _scale(v) for key, v in self.values.items()})


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


def delta(f: Cochain, rep: Representation) -> Cochain:
    """Cochain differential: action sum over (1,n)-shuffles minus bracket sum
    over (2,n-1)-shuffles, ordinary permutation signs; the kept rows of
    delta_n, each dotted once with the coordinates of f."""
    if f.g != rep.g or f.dimV != rep.dimV:
        raise ValueError("cochain and representation live on different data")
    flat = _times(*_complex(rep).rows(f.n), _scale(cochain_to_vec(f)))
    return vec_to_cochain(f.n + 1, f.g, f.dimV, flat)


def cochain_to_vec(f: Cochain) -> tuple[Fraction, ...]:
    out = []
    for key in increasing_tuples(f.g.dim, f.n):
        out.extend(f.values[key])
    return tuple(out)


def vec_to_cochain(n: int, g: LieAlgebra, dimV: int, flat) -> Cochain:
    """The cochain of the flattened `Fraction` coordinates ``flat``, built
    as it is: every caller hands over a complete vector of its own."""
    return Cochain._of(n, g, dimV, {key: tuple(flat[pos * dimV:(pos + 1) * dimV])
                                    for pos, key in enumerate(increasing_tuples(g.dim, n))})


class _Complex:
    """The cochain complex of a representation, kept on it under "complex".

    Per degree n it owns, each made on first use, the rows of delta_n, the
    one forward pass of those rows, whose length is the rank, and the rref
    back-substituted from that pass.  It holds the representation's scaled
    data, never the record, and is the one place a delta_n is eliminated."""

    def __init__(self, rep: Representation):
        self.dim, self.dimV, self.sc = rep.g.dim, rep.dimV, rep.g._scaled
        self.rho = [m._rows for m in rep.rho]
        self._rows, self._echelon, self._reduced = {}, {}, {}

    def rows(self, n: int) -> tuple[tuple, int]:
        """The rows of delta_n in scaled form and its number of columns."""
        if n not in self._rows:
            self._rows[n] = self._assemble(n)
        return self._rows[n]

    def _assemble(self, n: int) -> tuple[tuple, int]:
        """The rows of delta_n on the increasing-tuple (x) V basis: (delta f)(key)
        sums (-1)^i rho(e_key[i]) f(key less i) and, for i < j, (-1)^(i+j)
        f([e_key[i], e_key[j]], rest), with f(e_t, rest) = (-1)^#(rest below t)
        f(sorted tuple).  Each row sums integer numerators over the lcm of the
        denominators it reads, and is reduced once."""
        d, sc, rho = self.dimV, self.sc, self.rho
        cols = {key: j * d for j, key in enumerate(increasing_tuples(self.dim, n))}
        width, out = len(cols) * d, []
        for key in increasing_tuples(self.dim, n + 1):
            action = [((-1) ** i, rho[x], cols[key[:i] + key[i + 1:]]) for i, x in enumerate(key)]
            bracket = []   # (numerator, den, block) of each f(e_t, rest) term
            for i, j in combinations(range(n + 1), 2):
                rest = key[:i] + key[i + 1:j] + key[j + 1:]
                items, den = sc[key[i]][key[j]]
                for t, c in items:
                    if t not in rest:
                        below = sum(1 for r in rest if r < t)
                        bracket.append(((-1) ** (i + j + below) * c, den,
                                        cols[tuple(sorted(rest + (t,)))]))
            for l in range(d):
                den = lcm(*[r[l][1] for _, r, _ in action], *[q for _, q, _ in bracket])
                row = [0] * width
                for sign, r, s in action:
                    items, q = r[l]
                    for k, e in items:
                        row[s + k] += sign * e * (den // q)
                for c, q, s in bracket:
                    row[s + l] += c * (den // q)
                out.append(_reduce((row, den)))
        return tuple(out), width

    def echelon(self, n: int) -> dict:
        """``_forward`` of the rows of delta_n, pivot column -> its echelon row."""
        if n not in self._echelon:
            self._echelon[n] = _forward(*self.rows(n))
        return self._echelon[n]

    def rank(self, n: int) -> int:
        """The rank of delta_n, read off its forward pass; 0 below degree 0."""
        return len(self.echelon(n)) if n >= 0 else 0

    def kernel(self, n: int, image: bool = False) -> tuple[tuple[Fraction, ...], ...]:
        """The kernel vectors of delta_n from its rref, one per free column f
        in increasing order.

        With ``image``, f is left out when an image vector of delta_{n-1}
        has its last nonzero free coordinate at f.  A cocycle is its
        coordinates at the free columns, its kernel vector there e_f; so
        these f are the pivots of the image's spanning columns eliminated on
        the free rows of delta_{n-1}, reversed (a row's denominator moves no
        last nonzero)."""
        pivots, width = self.echelon(n), self.rows(n)[1]
        free, bounded = [c for c in range(width) if c not in pivots], set()
        if image and n >= 1:
            rows, spans = self.rows(n - 1)[0], {p: [] for p in self.echelon(n - 1)}
            for i, c in enumerate(reversed(free)):
                for k, x in rows[c][0]:
                    if k in spans:
                        spans[k].append((i, x))
            bounded = {free[-1 - i] for i in _forward([(v, 1) for v in spans.values()], len(free))}
        if n not in self._reduced:
            self._reduced[n] = _back_substitute(pivots)
        return _kernel_vectors(self._reduced[n], [c for c in free if c not in bounded], width)

    def primitive(self, n: int, f) -> tuple[Fraction, ...] | None:
        """The solution x of delta_{n-1} x = f, the `Fraction` coordinates of
        an n-cochain, with free unknowns zero, or None: [delta_{n-1} | f]
        eliminated afresh, as the kept pass keeps no row operations."""
        rows, cols = self.rows(n - 1)
        ratios = map(Fraction.as_integer_ratio, f)
        x = _solve(rows, [(((0, p),) if p else (), q) for p, q in ratios], cols, 1)
        return None if x is None else _unscale(x[0], cols)


def _complex(rep: Representation) -> _Complex:
    """The cochain complex of ``rep``, made once and kept on it."""
    return rep._kept("complex", _Complex, rep)


def delta_matrix(n: int, rep: Representation) -> Matrix:
    """Matrix of the degree-n differential on the increasing-tuple (x) V basis:
    the dense view of the kept rows of delta_n."""
    return Matrix._of(*_complex(rep).rows(n))


def cocycle_basis(n: int, rep: Representation) -> tuple[tuple[Fraction, ...], ...]:
    """Flattened kernel basis of delta_n, from its rref's free columns in order."""
    return _complex(rep).kernel(n)


def is_cocycle(f: Cochain, rep: Representation) -> bool:
    return delta(f, rep).is_zero()


def is_coboundary(f: Cochain, rep: Representation) -> Cochain | None:
    """A primitive g with delta(g) = f, or None.

    Deterministic: the primitive is the solve() solution with free
    coefficients zeroed, of the rows of delta_{n-1} with f as a column.
    Degree must be at least 1 (there is no complex below degree 0), and f
    must live on rep's algebra and coefficients, as for ``delta``.
    """
    if f.n < 1:
        raise ValueError("is_coboundary needs degree >= 1")
    if f.g != rep.g or f.dimV != rep.dimV:
        raise ValueError("cochain and representation live on different data")
    x = _complex(rep).primitive(f.n, cochain_to_vec(f))
    return None if x is None else vec_to_cochain(f.n - 1, f.g, f.dimV, x)


def cohomology_dim(n: int, rep: Representation) -> int:
    """dim ker(delta_n) - rank(delta_{n-1}), the ranks read off the forward
    passes alone."""
    c = _complex(rep)
    return c.rows(n)[1] - c.rank(n) - c.rank(n - 1)


def cohomology_basis(n: int, rep: Representation) -> tuple[Cochain, ...]:
    """The kernel vectors of delta_n that a greedy left-to-right scan keeps
    independent of im delta_{n-1} and of those kept before: those at the
    free columns of delta_n that no image vector bounds."""
    kernel = _complex(rep).kernel(n, image=True)
    return tuple(vec_to_cochain(n, rep.g, rep.dimV, v) for v in kernel)


# ---------------------------------------------------------------------------
# cohomologous pairs across different algebras
# ---------------------------------------------------------------------------


def is_lie_morphism(psi: Matrix, g: LieAlgebra, h: LieAlgebra) -> bool:
    if psi.rows != h.dim or psi.cols != g.dim:
        return False
    u = psi._columns
    return _first_failure("lie-morphism", h.dim, (
        ((i, j), _bracket_defect_parts(u, g._scaled, h._scaled, i, j))
        for i, j in combinations(range(g.dim), 2))) is None


def pullback_representation(rep: Representation, psi: Matrix, g: LieAlgebra) -> Representation:
    """The representation of g on rep's space obtained by composing with psi.

    Valid whenever psi is a Lie algebra morphism g -> rep.g; the constructor
    re-checks the representation law.  Its matrices are rho of the scaled
    columns of psi.
    """
    if psi.rows != rep.g.dim or psi.cols != g.dim:
        raise ValueError("psi shape incompatible with the pullback")
    return Representation(g, rep.dimV, tuple(map(rep._rho, psi._columns)))


def is_intertwiner(t: Matrix, rep_source: Representation, pullback: Representation) -> bool:
    """t(rho(x) v) = (pullback rho)(x) t(v) on all basis x of the common g and v."""
    if rep_source.g != pullback.g:
        return False
    if t.rows != pullback.dimV or t.cols != rep_source.dimV:
        return False
    u, r, r_pulled = t._columns, rep_source._scaled[0], pullback._scaled[0]
    return _first_failure("intertwiner", t.rows, (
        ((i, l), ((1, u, (r[i][l],)), (-1, r_pulled[i], (u[l],))))
        for i in range(rep_source.g.dim) for l in range(t.cols))) is None


def cohomologous(
    J: Cochain,
    K: Cochain,
    psi: Matrix,
    t: Matrix,
    rep_source: Representation,
    rep_target_pullback: Representation,
) -> Cochain | None:
    """Solve t(J(x_1..x_n)) - K(psi x_1, .., psi x_n) = (delta Phi)(x_1..x_n).

    The unknown Phi has degree n-1 and lives in the complex of J's algebra
    with the pulled-back coefficients ``rep_target_pullback``.  Returns the
    deterministic solve() solution, or None when no primitive exists.

    Raises LieMorphismError / IntertwinerError when psi or t fail their
    structural preconditions.  psi and t are not required to be invertible.
    """
    if J.n != K.n:
        raise ValueError("cochains must have the same degree")
    if not is_lie_morphism(psi, J.g, K.g):
        raise LieMorphismError("psi is not a Lie algebra morphism")
    if rep_target_pullback.g != J.g or rep_target_pullback.dimV != K.dimV:
        raise ValueError("rep_target_pullback must act on J's algebra with K's coefficients")
    if rep_source.g != J.g or rep_source.dimV != J.dimV:
        raise ValueError("rep_source must be J's representation data")
    if not is_intertwiner(t, rep_source, rep_target_pullback):
        raise IntertwinerError("t does not intertwine the representations over psi")

    return is_coboundary(_transfer_difference(J, K, psi, t), rep_target_pullback)


def _transfer_difference(J: Cochain, K: Cochain, psi: Matrix, t: Matrix) -> Cochain:
    """The cochain t(J(x_1..x_n)) - K(psi x_1, .., psi x_n) on J's algebra,
    whose coboundary primitives witness J and K as cohomologous over
    (psi, t): each value one contraction of the scaled columns of t and psi,
    unscaled once for the `Fraction` storage of a cochain.  The shapes are
    the caller's to check."""
    if not J.n:   # K takes no argument to contract
        return Cochain._of(0, J.g, K.dimV, {(): vec_sub(t.apply(J.values[()]), K.values[()])})
    u, cols = t._columns, psi._columns
    return Cochain._of(J.n, J.g, K.dimV, {
        key: _unscale(_ivec(K.dimV, ((1, u, (_scale(J.values[key]),)),
                                     (-1, K._scaled, [cols[i] for i in key]))), K.dimV)
        for key in increasing_tuples(J.g.dim, J.n)})


# ---------------------------------------------------------------------------
# classification data built from this complex
# ---------------------------------------------------------------------------


class Quadruple(_Record):
    """(Lie algebra, dim of the transported space, representation, 3-cocycle).

    Exactly the data needed to assemble a standard-shape 2-term algebra;
    construction re-checks that ``jtilde`` is a cocycle of the right degree.
    """

    g: LieAlgebra
    dim_u: int
    rep: Representation
    jtilde: Cochain

    def __init__(self, g: LieAlgebra, dim_u: int, rep: Representation, jtilde: Cochain):
        if dim_u < 0:
            raise ValueError("dim_u must be nonnegative")
        if rep.g != g:
            raise ValueError("representation acts on a different Lie algebra")
        if jtilde.n != 3 or jtilde.g != g or jtilde.dimV != rep.dimV:
            raise ValueError("jtilde must be a degree-3 cochain on g with values in V")
        if not is_cocycle(jtilde, rep):
            raise ValueError("jtilde is not a cocycle")
        self.__dict__.update(g=g, dim_u=dim_u, rep=rep, jtilde=jtilde)
