"""Two-term L-infinity algebras: data model, bracket, and the axiom verifier.

An algebra lives on coordinates: degree 0 has basis e_0..e_{n0-1}, degree 1
has f_0..f_{n1-1}.  Structure data is stored densely:

* ``d``   : n0 x n1 matrix of the differential (degree 1 -> degree 0);
* ``b00`` : b00[i][j][t] = coefficient of e_t in [e_i, e_j];
* ``b01`` : b01[i][j][t] = coefficient of f_t in [e_i, f_j];
* ``jac`` : jac[i][j][k][t] = coefficient of f_t in J(e_i, e_j, e_k).

The bracket of two degree-1 elements vanishes for degree reasons and is not
stored; the bracket extends to mixed arguments by [v, x] = -[x, v].

Antisymmetry of ``b00``/``jac`` is stored redundantly (full tensors) and
validated as an explicit verifier stage.  An algebra stores its structure
once, in scaled integers, the one exact vector form of the package
(``linalg._scale``): each leaf vector of a structure tensor as integer
numerators over the lcm of its own denominators, and ``d`` as its columns
in the same form.  The public constructor scales its `Fraction` data once;
the pipeline hands its scaled results to ``TwoTermAlgebra._of``.  The
public ``d``, ``b00``, ``b01`` and ``jac`` are `Fraction` views, built on
first read, and every tensor contraction runs on the scaled form.  One
kernel, ``linalg._isum``, sums signed contractions of scaled tensors with
scaled vectors (a basis argument is an index into the tensor).  The Jacobi,
mixed-Jacobi (representation) and bracket-defect laws are written once here
as such signed parts.  Because all structure maps are multilinear, a law
holds when it holds on basis tuples, and one walker, ``_first_failure``,
checks every law of the package there, in lexicographic order, naming the
first failing tuple, so reports are deterministic: the equations of both
verifiers (their report built by ``_report``) and the Lie algebra,
representation, Lie-morphism and intertwiner checks of ``cohomology``.
The pipeline (``classify``, ``morphisms``, ``builders``) builds new
algebras and morphisms with the same kernel, so `Fraction`s appear only
at the API boundary: in the public views and in the discrepancy of a
reported failure.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from typing import Iterator, NamedTuple, Sequence

from .linalg import (Matrix, _Record, _column_matrix, _isum, _ivec, _reduce, _scale, _unscale,
                     as_matrix, basis_vec, is_zero_vec, rat, vec, vec_add, vec_sub, vec_zero)

# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------


class ShuffleSet(NamedTuple):
    """All (m, n)-shuffles with ordinary permutation signs.

    A shuffle is a permutation of {0..m+n-1} (images stored 0-based) that is
    increasing on its first m and on its last n positions.  Elements are
    listed in lexicographic order of the image tuple.
    """

    m: int
    n: int
    elements: tuple[tuple[tuple[int, ...], int], ...]


def perm_sign(perm: Sequence[int]) -> int:
    inversions = 0
    for a in range(len(perm)):
        pa = perm[a]
        for b in range(a + 1, len(perm)):
            if pa > perm[b]:
                inversions += 1
    return -1 if inversions & 1 else 1


def shuffles(m: int, n: int) -> ShuffleSet:
    if m < 0 or n < 0:
        raise ValueError("shuffle arguments must be nonnegative")
    if m + n > 8:
        raise ValueError("shuffle size limited to m + n <= 8")
    total = m + n
    elements = []
    for head in combinations(range(total), m):
        head_set = set(head)
        tail = tuple(i for i in range(total) if i not in head_set)
        perm = head + tail
        elements.append((perm, perm_sign(perm)))
    elements.sort()
    expected = math.comb(total, m)
    assert len(elements) == expected
    return ShuffleSet(m, n, tuple(elements))


# the shuffle tables the laws of the package read, built once
_SHUFFLES = {mn: shuffles(*mn).elements for mn in ((1, 2), (1, 3), (2, 2))}


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

Vec = tuple[Fraction, ...]
Tensor3 = tuple[tuple[Vec, ...], ...]
Tensor4 = tuple[tuple[tuple[Vec, ...], ...], ...]


def tensor(data, shape: tuple[int, ...]):
    """``data`` as nested tuples of `Fraction` vectors, ``len(shape)``
    indices deep; ValueError naming ``shape`` unless it has that shape."""
    build = lambda row: tuple(map(rat, row))
    for _ in shape[1:]:
        build = lambda node, inner=build: tuple(map(inner, node))
    out = build(data)
    nodes = [out]
    for depth, n in enumerate(shape, 1):
        if any(len(x) != n for x in nodes):
            raise ValueError(f"tensor shape mismatch, expected {shape}")
        if depth < len(shape):
            nodes = [x for node in nodes for x in node]
    return out


def zero_tensor(shape: tuple[int, ...]):
    out = vec_zero(shape[-1])
    for n in reversed(shape[:-1]):
        out = (out,) * n
    return out


# ---------------------------------------------------------------------------
# the algebra
# ---------------------------------------------------------------------------


class TwoTermAlgebra(_Record):
    n0: int
    n1: int
    _scaled: _Scaled   # canonical, so == and hash compare the structure

    def __init__(self, n0: int, n1: int, d, b00, b01, jac):
        d = as_matrix(d, n1)
        if d.rows != n0 or d.cols != n1:
            raise ValueError(f"d must be {n0}x{n1}")
        self.__dict__.update(n0=n0, n1=n1, _scaled=_scaled_algebra(
            d._columns, _scale_tensor(tensor(b00, (n0, n0, n0)), 2),
            _scale_tensor(tensor(b01, (n0, n1, n1)), 2),
            _scale_tensor(tensor(jac, (n0, n0, n0, n1)), 3)))

    @classmethod
    def _of(cls, n0: int, n1: int, d, b00, b01, jac) -> "TwoTermAlgebra":
        """The algebra whose structure is given in scaled form: ``d`` as its
        columns, every tensor nested in tuples."""
        return super()._of(n0, n1, _scaled_algebra(d, b00, b01, jac))

    @cached_property
    def d(self) -> Matrix:
        return _column_matrix(self._scaled.d, self.n0)

    @cached_property
    def b00(self) -> Tensor3:
        return _unscale_tensor(self._scaled.b00, 2, self.n0)

    @cached_property
    def b01(self) -> Tensor3:
        return _unscale_tensor(self._scaled.b01, 2, self.n1)

    @cached_property
    def jac(self) -> Tensor4:
        return _unscale_tensor(self._scaled.jac, 3, self.n1)

    @classmethod
    def zero(cls, n0: int, n1: int) -> "TwoTermAlgebra":
        return cls(
            n0,
            n1,
            Matrix.zero(n0, n1),
            zero_tensor((n0, n0, n0)),
            zero_tensor((n0, n1, n1)),
            zero_tensor((n0, n0, n0, n1)),
        )


class Element(_Record):
    """An element of L0 + L1, stored as its pair of coordinate tuples."""

    deg0: Vec
    deg1: Vec

    def __init__(self, deg0: Vec, deg1: Vec):
        self.__dict__.update(deg0=vec(deg0), deg1=vec(deg1))

    @classmethod
    def degree0(cls, L: TwoTermAlgebra, coords) -> "Element":
        return cls(vec(coords), vec_zero(L.n1))

    @classmethod
    def degree1(cls, L: TwoTermAlgebra, coords) -> "Element":
        return cls(vec_zero(L.n0), vec(coords))

    @classmethod
    def basis0(cls, L: TwoTermAlgebra, i: int) -> "Element":
        return cls.degree0(L, basis_vec(L.n0, i))

    @classmethod
    def basis1(cls, L: TwoTermAlgebra, i: int) -> "Element":
        return cls.degree1(L, basis_vec(L.n1, i))

    def __add__(self, other: "Element") -> "Element":
        return Element(vec_add(self.deg0, other.deg0), vec_add(self.deg1, other.deg1))

    def __sub__(self, other: "Element") -> "Element":
        return Element(vec_sub(self.deg0, other.deg0), vec_sub(self.deg1, other.deg1))

    def is_zero(self) -> bool:
        return is_zero_vec(self.deg0) and is_zero_vec(self.deg1)


# -- the scaled-integer form of ``linalg`` ------------------------------------


class _Scaled(NamedTuple):
    """An algebra in scaled form.  ``d`` holds the columns of the
    differential and ``b01t[l][p]`` is ``b01[p][l]``, so that [x, f_l] is
    the contraction of ``b01t[l]`` with x."""

    d: tuple
    b00: tuple
    b01: tuple
    b01t: tuple
    jac: tuple


def _scaled_algebra(d, b00, b01, jac) -> _Scaled:
    return _Scaled(d, b00, b01, tuple(tuple(row[l] for row in b01) for l in range(len(d))), jac)


_ZERO_SCALED = ((), 1)


def _neg(v):
    """The scaled form of -v."""
    return tuple([(t, -x) for t, x in v[0]]), v[1]


def _leaves(fn, tensor, depth: int):
    """``tensor`` with ``fn`` applied to each leaf vector ``depth`` indices deep."""
    if depth == 1:
        return tuple([fn(v) for v in tensor])
    return tuple([_leaves(fn, sub, depth - 1) for sub in tensor])


def _scale_tensor(tensor, depth: int):
    """Scaled form of a tensor whose leaf vectors sit ``depth`` indices deep."""
    return _leaves(_scale, tensor, depth)


def _unscale_tensor(tensor, depth: int, n: int):
    """The `Fraction` tensor of a scaled one with length-``n`` leaves; equal
    leaves are converted once."""
    memo = {}
    return _leaves(lambda v: memo.get(v) or memo.setdefault(v, _unscale(v, n)), tensor, depth)


def _alternating(n: int, slots: int, values: dict):
    """The scaled tensor of leaves ``slots`` indices deep over range(n) that
    is alternating in those indices and takes ``values`` on increasing
    index tuples (every other leaf with a repeated index is zero)."""
    signs = [(order, perm_sign(order)) for order in permutations(range(slots))]
    leaves = {}
    for key, v in values.items():
        neg = _neg(v)
        for order, sign in signs:
            leaves[tuple(key[o] for o in order)] = v if sign == 1 else neg
    grid = [leaves.get(idx, _ZERO_SCALED) for idx in product(range(n), repeat=slots)]
    for _ in range(slots - 1):
        grid = [tuple(grid[i:i + n]) for i in range(0, len(grid), n or 1)]
    return tuple(grid)


def _scale_arg(v, n: int):
    """Scaled form of a coordinate vector argument, which must have length ``n``."""
    v = vec(v)
    if len(v) != n:
        raise ValueError(f"expected a coordinate vector of length {n}, got length {len(v)}")
    return _scale(v)


# -- the structure laws, each written once as signed parts for ``_isum`` ------


def _jacobi_parts(b, i: int, j: int, k: int) -> list:
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] for a scaled
    antisymmetric bracket tensor ``b``: minus the Jacobi defect
    [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]]."""
    # -[e_i,[e_j,e_k]] = [[e_j,e_k],e_i];  -[e_k,[e_i,e_j]] = [[e_i,e_j],e_k];
    # [e_j,[e_i,e_k]] = [[e_k,e_i],e_j]
    return [(-1, b[i], (b[j][k],)), (-1, b[k], (b[i][j],)), (1, b[j], (b[i][k],))]


def _mixed_jacobi_parts(b, r, rt, j: int, k: int, l: int) -> list:
    """rho([e_j,e_k]) f_l - rho(e_j) rho(e_k) f_l + rho(e_k) rho(e_j) f_l, the
    defect of the representation law on f_l, for an action given in scaled
    form by r[i][l] = rho(e_i) f_l (and its transpose ``rt``) of a Lie
    algebra with bracket tensor ``b``."""
    return [(-1, r[j], (r[k][l],)), (1, r[k], (r[j][l],)), (1, rt[l], (b[j][k],))]


def _bracket_defect_parts(u, b_src, b_tgt, i: int, j: int) -> list:
    """[u e_i, u e_j]' - u([e_i, e_j]) for a linear map with scaled columns
    ``u`` between algebras with bracket tensors ``b_src`` and ``b_tgt``."""
    return [(-1, u, (b_src[i][j],)), (1, b_tgt, (u[i], u[j]))]


def bracket(L: TwoTermAlgebra, x: Element, y: Element) -> Element:
    """Bilinear bracket on L0 + L1.

    Degree-0 output comes from the two degree-0 parts; mixed parts use
    [v, x] = -[x, v]; two degree-1 parts bracket to zero.
    """
    S = L._scaled
    x0, y0 = _scale_arg(x.deg0, L.n0), _scale_arg(y.deg0, L.n0)
    x1, y1 = _scale_arg(x.deg1, L.n1), _scale_arg(y.deg1, L.n1)
    out0 = _ivec(L.n0, ((1, S.b00, (x0, y0)),))
    out1 = _ivec(L.n1, ((1, S.b01, (x0, y1)), (-1, S.b01, (y0, x1))))
    return Element(_unscale(out0, L.n0), _unscale(out1, L.n1))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

EQ_D_BRACKET = "d-bracket-compat"          # d([x,v]) = [x,d(v)]
EQ_D_SYMMETRY = "d-bracket-symmetry"       # [d(u),v] = [u,d(v)]
EQ_JACOBI_DEFECT = "jacobi-defect"         # d(J(x,y,z)) = jacobi defect of [.,.]
EQ_JACOBI_DEFECT_DEG1 = "jacobi-defect-deg1"  # J(d(v),y,z) = mixed jacobi defect
EQ_COHERENCE = "jacobiator-coherence"      # shuffle identity in four arguments

ALGEBRA_EQUATIONS = (
    EQ_D_BRACKET,
    EQ_D_SYMMETRY,
    EQ_JACOBI_DEFECT,
    EQ_JACOBI_DEFECT_DEG1,
    EQ_COHERENCE,
)


class EquationFailure(NamedTuple):
    equation: str
    args: tuple[int, ...]
    discrepancy: Vec


class VerificationReport(NamedTuple):
    """Outcome of a basis-tuple check of a family of defining equations.

    ``structure_errors`` lists violated storage invariants (antisymmetry);
    equations are only checked when the structure is clean.  ``failures``
    holds the lexicographically first failing tuple per equation.
    """

    equations: tuple[str, ...]
    structure_errors: tuple[str, ...]
    failures: tuple[EquationFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.structure_errors and not self.failures

    def failure_for(self, equation: str) -> EquationFailure | None:
        for f in self.failures:
            if f.equation == equation:
                return f
        return None

    def lines(self) -> list[str]:
        out = []
        for err in self.structure_errors:
            out.append(f"structure: {err}")
        if self.structure_errors:
            return out
        failed = {f.equation: f for f in self.failures}
        for eq in self.equations:
            if eq in failed:
                f = failed[eq]
                disc = ", ".join(_rational_text(c) for c in f.discrepancy)
                out.append(f"{eq}: FAIL at {f.args} discrepancy ({disc})")
            else:
                out.append(f"{eq}: ok")
        return out


def _digits(n: int) -> str:
    """``str(n)``, also past Python's int-to-str digit limit and in
    subquadratic time.  A number longer than 2000 bits (below the smallest
    allowed limit) is built as an exact `decimal.Decimal` from its binary
    halves, hi * 2**w + lo, as CPython 3.12's ``_pylong`` does; libmpdec
    multiplies long numbers in subquadratic time, where splitting by a power
    of ten costs a quadratic ``divmod``.  The arithmetic runs in a local
    exact `decimal.Context`, so the interpreter's own context is untouched."""
    if n.bit_length() <= 2000:
        return str(n)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          traps=[decimal.Inexact])
    powers = {}

    def power(w: int) -> decimal.Decimal:     # 2**w, each width built once
        if w not in powers:
            powers[w] = (ctx.power(2, w) if w <= 2000
                         else ctx.multiply(power(w >> 1), power(w - (w >> 1))))
        return powers[w]

    def build(m: int, w: int) -> decimal.Decimal:    # 0 <= m < 2**w
        if w <= 2000:
            return decimal.Decimal(m)
        half = w >> 1
        high = m >> half
        return ctx.add(ctx.multiply(build(high, w - half), power(half)),
                       build(m - (high << half), half))

    return "-" * (n < 0) + str(build(abs(n), n.bit_length()))


def _int_text(text: str) -> int:
    """``int(text)`` for a signed decimal string of any length: the inverse
    of ``_digits``, splitting strings past 600 digits in two."""
    digits = text.lstrip("+-")
    if len(digits) <= 600:
        return int(text)
    k = len(digits) // 2
    value = _int_text(digits[:-k]) * 10 ** k + _int_text(digits[-k:])
    return -value if text.startswith("-") else value


def _rational_text(x: Fraction) -> str:
    """``str(x)`` for a `Fraction` of any length."""
    text = _digits(x.numerator)
    return text if x.denominator == 1 else f"{text}/{_digits(x.denominator)}"


def structure_violations(L: TwoTermAlgebra) -> tuple[str, ...]:
    """Antisymmetry of b00 in its two slots and of jac in its three slots."""
    S = L._scaled
    return (*(f"b00 antisymmetry violated at {p}" for p in _pair_violations(S.b00)),
            *(f"jac antisymmetry violated at {idx}" for idx in _jac_violations(L.n0, S.jac)))


def _pair_violations(t) -> Iterator[tuple[int, int]]:
    """The pairs i <= j, in lexicographic order, where the scaled 2-tensor
    ``t`` has t[i][j] != -t[j][i]: the one antisymmetry scan of b00, of
    structure constants and of morphism corrections."""
    for i in range(len(t)):
        for j in range(i, len(t)):
            if t[i][j] != _neg(t[j][i]):
                yield i, j


def _jac_violations(n0: int, jac) -> Iterator[tuple[int, int, int]]:
    """Index triples, in lexicographic order, where the scaled ``jac`` is not
    alternating: its leaf differs from zero on a repeated index, or from the
    leaf of the sorted triple times the sign of the sort."""
    bad = [(a, b, c) for a, b, c in product(range(n0), repeat=3)
           if (a == b or b == c or a == c) and jac[a][b][c] != _ZERO_SCALED]
    for i, j, k in combinations(range(n0), 3):
        v, odd = jac[i][j][k], _neg(jac[i][j][k])
        for (a, b, c), want in (((i, k, j), odd), ((j, i, k), odd), ((j, k, i), v),
                                ((k, i, j), v), ((k, j, i), odd)):
            if jac[a][b][c] != want:
                bad.append((a, b, c))
    yield from sorted(bad)


def _first_failure(equation, n, checks) -> EquationFailure | None:
    """The first (args, parts) of ``checks`` whose signed sum ``_isum(n, parts)``
    is nonzero, as a failure whose discrepancy is that sum: every law is walked here."""
    for args, parts in checks:
        total = _isum(n, parts)
        if any(total[0]):
            return EquationFailure(equation, args, _unscale(_reduce(total), n))
    return None


def _report(equations, structure, checks) -> VerificationReport:
    """The report of ``verify`` or ``verify_morphism``: the ``structure`` errors
    alone if any, else the first failure of each of ``equations`` on its ``checks``."""
    if structure:
        return VerificationReport(equations, structure, ())
    return VerificationReport(equations, (), tuple(
        f for eq in equations if (f := _first_failure(eq, *checks[eq])) is not None))


def verify(L: TwoTermAlgebra) -> VerificationReport:
    """Check the five defining equations on all basis tuples.

    Multilinearity makes basis checks sufficient, so no random sampling is
    involved.  Tuple ranges follow the symmetries of each equation: all
    (n0 x n1) pairs, (n1 x n1) pairs i <= j (the law is symmetric in i, j),
    strictly increasing triples, n1 x increasing pairs, and strictly
    increasing 4-tuples.  Each equation
    is written as lhs - rhs, a signed sum of contractions, and evaluated on
    the algebra's scaled-integer form; a `Fraction` is built only for the
    discrepancy of a reported failure.  The report is kept on the algebra
    object, so a repeated call on the same object returns it unchecked.
    """
    return L._kept("verify", _verify, L)


def _verify(L: TwoTermAlgebra) -> VerificationReport:
    n0, n1 = L.n0, L.n1
    S = L._scaled
    d, b00, b01, b01t, jac = S
    return _report(ALGEBRA_EQUATIONS, structure_violations(L), {
        # d([e_i, f_j]) = [e_i, d(f_j)]
        EQ_D_BRACKET: (n0, (
            ((i, j), ((1, d, (b01[i][j],)), (-1, b00[i], (d[j],))))
            for i in range(n0) for j in range(n1))),
        # [d(f_i), f_j] = [f_i, d(f_j)] = -[d(f_j), f_i]: symmetric in (i, j)
        EQ_D_SYMMETRY: (n1, (
            ((i, j), ((1, b01t[j], (d[i],)), (1, b01t[i], (d[j],))))
            for i in range(n1) for j in range(i, n1))),
        # d(J(e_i,e_j,e_k)) = [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]]
        EQ_JACOBI_DEFECT: (n0, (
            ((i, j, k), ((1, d, (jac[i][j][k],)), *_jacobi_parts(b00, i, j, k)))
            for (i, j, k) in combinations(range(n0), 3))),
        # J(d(f_l),e_j,e_k) = [f_l,[e_j,e_k]] - [[f_l,e_j],e_k] - [e_j,[f_l,e_k]];
        # the left side is J(e_j, e_k, d(f_l)), a cyclic permutation, and the
        # right side is minus the defect of the representation law of
        # rho(e_i) = [e_i, .] on f_l
        EQ_JACOBI_DEFECT_DEG1: (n1, (
            ((l, j, k), ((1, jac[j][k], (d[l],)),
                         *_mixed_jacobi_parts(b00, b01, b01t, j, k, l)))
            for l in range(n1) for (j, k) in combinations(range(n0), 2))),
        # coherence of the Jacobiator in four arguments
        EQ_COHERENCE: (n1, (
            (quad, _coherence_parts(S, quad))
            for quad in combinations(range(n0), 4))),
    })


def coherence_lhs(L: TwoTermAlgebra, args: tuple[int, int, int, int]) -> Vec:
    """Left side of the four-argument coherence identity on basis indices.

    Arguments need not be increasing or distinct.  The verifier sums
    ``_coherence_parts`` itself; the tests call this on repeated arguments.
    ``jac`` must be antisymmetric (no ``structure_violations``).
    """
    return _unscale(_ivec(L.n1, _coherence_parts(L._scaled, args)), L.n1)


def _coherence_parts(S: "_Scaled", args: tuple[int, int, int, int]) -> list:
    parts = []
    for perm, sign in _SHUFFLES[1, 3]:
        a, b, c, d = (args[p] for p in perm)
        parts.append((sign, S.b01[a], (S.jac[b][c][d],)))
    for perm, sign in _SHUFFLES[2, 2]:
        a, b, c, d = (args[p] for p in perm)
        # J([e_a,e_b], e_c, e_d) = J(e_c, e_d, [e_a,e_b]): a cyclic permutation
        parts.append((-sign, S.jac[c][d], (S.b00[a][b],)))
    return parts


def homology_dims(L: TwoTermAlgebra) -> tuple[int, int]:
    """(dim L0 - rank d, dim L1 - rank d)."""
    r = L.d.rank()
    return (L.n0 - r, L.n1 - r)
