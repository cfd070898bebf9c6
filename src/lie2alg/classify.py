"""Classification machinery for 2-term L-infinity algebras.

The pipeline: ``decompose`` fixes a deterministic direct-sum decomposition of
both degrees, ``extract_triple`` reads off a Lie algebra, a representation on
the kernel of the differential and a 3-cocycle, ``normal_form`` rebuilds the
standard-shape algebra on that data together with an explicit verified
isomorphism, and ``certify_isomorphism`` / ``extract_quadruple_maps`` convert
between isomorphisms of algebras and isomorphisms of their classifying
quadruples.  ``invariants`` computes a fingerprint of necessary conditions
used by ``distinguish`` to refute isomorphism.

The splitting L0 = g + im d, L1 = ker d + U comes from one elimination,
the public ``linalg.rref`` of [d | I] on its scaled rows
(``_splitting``): the bases, the coordinate changes coords0 and f, h, and
the inverses coords0^-1 = [g | im d] and f^-1 = [ker d | U], which are
those bases, are all read off it, in scaled form.  ``decompose`` builds its
record from these pieces and keeps them; the pipeline reads them directly.

``transport``, ``extract_triple`` and ``normal_form`` build their tensors on
the scaled-integer form of ``core`` (integer numerators, one denominator per
vector, summed by ``linalg._isum``) and hand it to the algebras and
morphisms they return, which store only that form, so verifying them
converts nothing; `Fraction`s appear only in the views of the public API.

Results that are functions of an algebra are kept per algebra object,
through the record's ``_kept``: ``verify`` keeps its report under
"verify", the quadruple (one splitting and one extraction) is kept under
"quadruple" and shared by ``normal_form``, ``invariants``, ``skeleton`` and
``split_normal_form``, and ``normal_form`` keeps its target algebra, the
maps of its isomorphism, verified once, and the inverses of its linear
maps under "normal_form" (it splits the algebra itself, and extracts the
quadruple from that splitting unless one is kept).  Each `Morphism` it
returns keeps those inverses under "inverse", so ``morphisms.inverse`` of
it eliminates nothing.  A value is kept only on the argument of the call
that computed it and never refers back to that algebra, so an algebra is
still freed by reference counting.  Two values are shared.  A standard
shape the package built keeps the quadruple it was built from
(``builders._built_from``), which ``invariants`` and ``skeleton`` of it
read, and is its own normal form: ``normal_form`` of it returns the
identity, verified once, onto a new record on its structure, and
``split_normal_form`` of it rebuilds nothing.  Any other algebra, one equal
to such a shape included, is split.  And a normal form equal to its input
keeps the input's "verify" report.  The public ``decompose`` and
``extract_triple`` are not cached.

A full search for a Lie algebra isomorphism is deliberately out of scope:
the module certifies user-supplied maps and refutes via invariants.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from math import lcm
from typing import NamedTuple

from .linalg import (
    Matrix,
    Subspace,
    _Record,
    _eliminate,
    _forward,
    _invertible,
    _transpose,
    as_matrix,
    basis_vec,
    block_diag,
    invert,
    rref,
)
from .core import (
    TwoTermAlgebra,
    _SHUFFLES,
    _alternating,
    _column_matrix,
    _ivec,
    _pair_violations,
    _scale,
    _scale_tensor,
    _unscale,
    tensor,
    verify,
)
from .morphisms import (
    Morphism,
    compose,
    inverse,
    is_isomorphism,
    verify_morphism,
)
from .cohomology import (
    Cochain,
    IntertwinerError,
    LieAlgebra,
    LieMorphismError,
    Quadruple,
    Representation,
    cohomology_dim,
    delta,
    is_coboundary,
    is_lie_morphism,
    pullback_representation,
    _transfer_difference,
    is_intertwiner,
)
from .builders import _built_from, _standard_shape, _verified, killing_form, normal_form_algebra


class InvertibilityError(ValueError):
    """A map that must be invertible is singular or has the wrong shape."""


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


class _Splitting(NamedTuple):
    """A `Decomposition` in scaled form: the bases, which are the inverses
    coords0^-1 = [g | im d] and f^-1 = [ker d | U], the columns of coords0,
    f == coords1 and h, and the columns of the g rows of coords0 and of the
    kernel rows of f."""

    g: tuple
    imd: tuple
    ker: tuple
    u: tuple
    coords0: tuple
    f: tuple
    h: tuple
    g_coords: tuple
    k_coords: tuple


class Decomposition(_Record):
    """A choice of complements: degree 0 splits into a Lie-algebra part and
    the image of d, degree 1 into the kernel of d and a transported copy U,
    spanned by the standard basis vectors at the pivot columns of d.

    ``coords0``/``coords1`` change standard coordinates into decomposition
    coordinates (g then image; kernel then U).  ``f == coords1`` maps degree 1
    to (kernel, image-of-d) coordinates: the identity on the kernel and d on U.
    ``h`` sends x in degree 0 to the unique element of U whose image under d
    is the image-part of x; it vanishes on the g part.
    """

    source: TwoTermAlgebra
    g_basis: Subspace
    imd_basis: Subspace
    kerd_basis: Subspace
    u_basis: Subspace
    f: Matrix
    h: Matrix
    coords0: Matrix
    coords1: Matrix

    @cached_property
    def _scaled(self) -> _Splitting:
        """The splitting in scaled form, what ``extract_triple`` contracts
        with: the one ``decompose`` read the fields off, or else built from
        the fields on first use."""
        g, k, c0, c1 = self.g_basis.dim, self.kerd_basis.dim, self.coords0, self.coords1
        return _Splitting(
            *[_scale_tensor(s.basis, 1)
              for s in (self.g_basis, self.imd_basis, self.kerd_basis, self.u_basis)],
            c0._columns, self.f._columns, self.h._columns,
            c0.submatrix(range(g), range(c0.cols))._columns,
            c1.submatrix(range(k), range(c1.cols))._columns)


def decompose(L: TwoTermAlgebra) -> Decomposition:
    """Deterministic decomposition via greedy standard-basis complements,
    read off one row reduction, of [d | I] (``_splitting``), which the
    record keeps as its scaled form.

    Precondition: ``verify(L)`` passes.
    """
    s = _splitting(L)
    n0, n1 = L.n0, L.n1
    g_b, imd, kerd, u_b = (Subspace._of(n, tuple([_unscale(v, n) for v in basis]))
                           for n, basis in ((n0, s.g), (n0, s.imd), (n1, s.ker), (n1, s.u)))
    f = _column_matrix(s.f, n1)
    dec = Decomposition._of(L, g_b, imd, kerd, u_b, f, _column_matrix(s.h, n1),
                            _column_matrix(s.coords0, n0), f)
    dec.__dict__["_scaled"] = s
    return dec


def _splitting(L: TwoTermAlgebra) -> _Splitting:
    """The splitting of ``decompose``, read off rref([d | I]) on scaled rows.

    rref([d | I]) = [E d | E] has a pivot in every row: first the r pivots
    p_i of d, on the rows D_i of rref(d), then rows zero on d's block.
    - U is spanned by the e_p, and im d by d(e_p): a free e_f is its kernel
      vector plus e_p with p < f, and no e_p is in span(ker d, e_0..e_{p-1}),
      on which the row of rref(d) with pivot p vanishes.
    - E sends d(e_p_i) to e_i and the e_c at the last pivots, the greedy
      complement g of im d, to the rest: coords0 is E's last rows, then its
      first r.
    - The kernel vector of a free column f is e_f less D_i[f] at each p_i;
      the kernel coordinates of x are its free entries, its U ones D x.
    - d maps e_p_i onto im d's i-th basis vector, so h is E's first rows
      placed at the rows p_i.
    """
    n0, n1 = L.n0, L.n1
    red, pivots = rref(Matrix._of([(items + ((n1 + i, den),), den)
                                   for i, (items, den) in enumerate(L.d._rows)], n1 + n0))
    r = sum(p < n1 for p in pivots)
    e_rows = [(tuple([(k - n1, x) for k, x in items if k >= n1]), den) for items, den in red._rows]
    d_rows = [(tuple([(k, x) for k, x in items if k < n1]), den) for items, den in red._rows[:r]]
    free = {f: j for j, f in enumerate(c for c in range(n1) if c not in pivots[:r])}
    units = [(((f, 1),), 1) for f in free]
    ker_rows = [(((free[c], 1),), 1) if c in free else None for c in range(n1)]
    h_rows = [((), 1)] * n1
    for p, (items, den), e in zip(pivots, d_rows, e_rows):
        ker_rows[p] = (tuple([(free[k], -x) for k, x in items if k != p]), den)
        h_rows[p] = e
    return _Splitting(
        tuple([(((p - n1, 1),), 1) for p in pivots[r:]]),
        tuple([L._scaled.d[p] for p in pivots[:r]]),
        _transpose(ker_rows, len(free)),
        tuple([(((p, 1),), 1) for p in pivots[:r]]),
        _transpose(e_rows[r:] + e_rows[:r], n0),
        _transpose(units + d_rows, n1),
        _transpose(h_rows, n0),
        _transpose(e_rows[r:], n0),
        _transpose(units, n1))


def extract_triple(L: TwoTermAlgebra, dec: Decomposition) -> Quadruple:
    """Read the classifying quadruple off a decomposition.

    The Lie bracket is the degree-0 bracket projected to the g part, the
    representation is the mixed bracket on the kernel of d, and the cocycle
    corrects the Jacobiator by the shuffle sum of h-brackets.  All three
    structure laws are re-checked by the constructors; a failure indicates
    an invalid input algebra or an implementation bug.
    """
    if dec.source != L:
        raise ValueError("decomposition belongs to a different algebra")
    return _extract(L, dec._scaled)


def _extract(L: TwoTermAlgebra, s: _Splitting) -> Quadruple:
    """``extract_triple`` of L on the splitting ``s`` in scaled form."""
    gdim, kdim = len(s.g), len(s.ker)
    n0, n1 = L.n0, L.n1
    S = L._scaled
    G, K, g_coords, k_coords, h = s.g, s.ker, s.g_coords, s.k_coords, s.h

    w = {(i, j): _ivec(n0, ((1, S.b00, (G[i], G[j])),))     # [x_i, x_j]
         for i, j in combinations(range(gdim), 2)}
    sc = _alternating(gdim, 2, {key: _ivec(gdim, ((1, g_coords, (wij,)),))
                                for key, wij in w.items()})
    g = LieAlgebra._of(gdim, sc)

    rho = tuple(
        _column_matrix([_ivec(kdim, ((1, k_coords, (_ivec(n1, ((1, S.b01, (G[i], k)),)),)),))
                        for k in K], kdim)
        for i in range(gdim))
    rep = Representation(g, kdim, rho)

    hw = {key: _ivec(n1, ((1, h, (wij,)),)) for key, wij in w.items()}   # h([x_i, x_j])
    values = {}
    for key in combinations(range(gdim), 3):
        parts = [(1, S.jac, tuple(G[k] for k in key))]
        for perm, sign in _SHUFFLES[1, 2]:
            a, y, z = (key[p] for p in perm)
            parts.append((-sign, S.b01, (G[a], hw[y, z])))
        values[key] = _unscale(_ivec(kdim, ((1, k_coords, (_ivec(n1, parts),)),)), kdim)
    jtilde = Cochain(3, g, kdim, values)

    return Quadruple(g, len(s.u), rep, jtilde)


def _checked(mor: Morphism, failure: str, iso: bool = False) -> Morphism:
    """``mor``, built by the package, once ``verify_morphism`` passes (and, with
    ``iso``, it is an isomorphism); else a RuntimeError naming ``failure``: a bug."""
    report = verify_morphism(mor)
    if not report.passed or iso and not is_isomorphism(mor):
        raise RuntimeError(f"{failure}: {report.lines()}")
    return mor


# ---------------------------------------------------------------------------
# transport of structure
# ---------------------------------------------------------------------------


def transport(
    L: TwoTermAlgebra, phi0, phi1, correction
) -> tuple[TwoTermAlgebra, Morphism]:
    """Push the structure of L through a graded linear isomorphism.

    The new differential, brackets and Jacobiator are the unique ones making
    (phi0, phi1, correction) a morphism; the new Jacobiator uses the already
    transported mixed bracket.  Each is built on scaled integers, one
    ``linalg._isum`` per output vector; each x_a = phi0^-1(e_a) is bound
    once into the rows [x_a, f_l] and correction(e_m, x_a), which the new
    mixed bracket and Jacobiator contract with one vector.  Returns the new
    algebra and the connecting morphism, which store that scaled form (their
    `Fraction` views are built on first read); both are re-verified.

    Precondition: ``verify(L)`` passes; when it does not, the transported
    algebra fails its check with ValueError.  A failed check on a valid L
    is a bug, RuntimeError.  A ``correction`` that is not antisymmetric
    raises ValueError naming its first bad pair.
    """
    return _transport(L, phi0, phi1,
                      lambda: _scale_tensor(tensor(correction, (L.n0, L.n0, L.n1)), 2))


def _transport(L: TwoTermAlgebra, phi0, phi1, scaled_correction) -> tuple:
    """``transport`` of the correction ``scaled_correction()`` returns in
    scaled form, called once phi0 and phi1 pass their checks."""
    phi0, phi1 = as_matrix(phi0, L.n0), as_matrix(phi1, L.n1)
    if phi0.rows != phi0.cols or phi0.rows != L.n0:
        raise InvertibilityError("phi0 must be square of size n0")
    if phi1.rows != phi1.cols or phi1.rows != L.n1:
        raise InvertibilityError("phi1 must be square of size n1")
    inv0 = invert(phi0)
    inv1 = invert(phi1)
    if inv0 is None:
        raise InvertibilityError("phi0 is singular")
    if inv1 is None:
        raise InvertibilityError("phi1 is singular")
    C = scaled_correction()
    for pair in _pair_violations(C):
        raise ValueError(f"correction antisymmetry violated at {pair}")

    n0, n1 = L.n0, L.n1
    S = L._scaled
    P0, P1 = phi0._columns, phi1._columns
    X, V = inv0._columns, inv1._columns   # preimages of target bases

    dv = [_ivec(n0, ((1, S.d, (v,)),)) for v in V]
    d_new = tuple(_ivec(n0, ((1, P0, (w,)),)) for w in dv)

    # bx[a][l] = [x_a, f_l] and cx[a][m] = corr(e_m, x_a) = -corr(x_a, e_m)
    bx = [tuple(_ivec(n1, ((1, row, (x,)),)) for row in S.b01t) for x in X]
    cx = [tuple(_ivec(n1, ((1, row, (x,)),)) for row in C) for x in X]
    pairs = list(combinations(range(n0), 2))
    w = {(a, b): _ivec(n0, ((1, S.b00, (X[a], X[b])),)) for a, b in pairs}   # [x_a, x_b]
    c = {(a, b): _ivec(n1, ((1, cx[b], (X[a],)),)) for a, b in pairs}        # corr(x_a, x_b)
    b00_new = _alternating(n0, 2, {
        p: _ivec(n0, ((1, P0, (w[p],)), (-1, d_new, (c[p],)))) for p in pairs})

    b01_new = tuple(tuple(_ivec(n1, ((1, P1, (_ivec(n1, ((1, bx[a], (V[b],)),)),)),
                                     (1, cx[a], (dv[b],))))
                          for b in range(n1)) for a in range(n0))

    jac_new = {}
    for key in combinations(range(n0), 3):
        parts = [(1, P1, (_ivec(n1, ((1, S.jac, tuple(X[k] for k in key)),)),))]
        for perm, sign in _SHUFFLES[1, 2]:
            a, y, z = (key[p] for p in perm)
            parts += [(-sign, b01_new[a], (c[y, z],)), (sign, cx[a], (w[y, z],))]
        jac_new[key] = _ivec(n1, parts)

    out = TwoTermAlgebra._of(n0, n1, d_new, b00_new, b01_new, _alternating(n0, 3, jac_new))
    report = verify(out)
    if not report.passed:
        # the structure of L carries over exactly, so this is a bug unless L
        # itself breaks the precondition
        error = RuntimeError if verify(L).passed else ValueError
        raise error(f"transported algebra failed verification: {report.lines()}")
    return out, _checked(Morphism._of(L, out, (P0, P1, C)),
                         "transport produced an invalid morphism")


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


class NormalFormResult(NamedTuple):
    algebra: TwoTermAlgebra
    morphism: Morphism
    quadruple: Quadruple


def normal_form(L: TwoTermAlgebra) -> NormalFormResult:
    """The standard-shape algebra isomorphic to L, with an explicit verified
    isomorphism from L onto it.

    Precondition: ``verify(L)`` passes.  Deterministic via the splitting of
    ``decompose``; idempotent on its own output up to structural equality.
    The target algebra, the quadruple, the maps of the isomorphism and the
    columns of the inverses of its phi0 and phi1 are computed and verified
    once per algebra object and kept on it; each call returns a new
    `Morphism` from L around them, which keeps those inverses for
    ``inverse``.
    """
    target, q, scaled, inverse_maps = L._kept("normal_form", _normal_form, L)
    mor = Morphism._of(L, target, scaled)
    mor._kept("inverse", lambda: inverse_maps)
    return NormalFormResult(target, mor, q)


def _normal_form(L: TwoTermAlgebra) -> tuple:
    """(target, quadruple, the scaled form of the isomorphism, the columns
    of the inverses of its phi0 and phi1) of the normal form of L: nothing
    that refers back to L, so that it can be kept on L.  A standard shape
    built from q is its own normal form: the target is a new record on L's
    stored structure and the maps are the identity.  Any other L is split
    (``_splitting``); the quadruple is extracted from that splitting unless
    L keeps one already, and the inverses are its bases, [g | im d] and
    [ker d | U]."""
    q = L._kept("built from")
    if q is None:
        s = _splitting(L)
        q = L._kept("quadruple", _extract, L, s)
        target, maps, inverse_maps = (_standard_shape(q), _normalizing_maps(L, s),
                                      (s.g + s.imd, s.ker + s.u))
    else:   # the base `_of` keeps the fields as given, L's `_scaled` included
        target = _built_from(q, super(TwoTermAlgebra, TwoTermAlgebra)._of(L.n0, L.n1, L._scaled))
        maps = (Matrix.identity(L.n0)._columns, Matrix.identity(L.n1)._columns,
                _alternating(L.n0, 2, {}))
        inverse_maps = maps[:2]
    if target == L:   # a new object; verify depends on the value alone
        target._kept("verify", verify, L)
    _verified(target)
    mor = _checked(Morphism._of(L, target, maps), "normalizing morphism failed verification",
                   iso=True)
    return target, q, mor._scaled, inverse_maps


def _normalizing_maps(L: TwoTermAlgebra, s: _Splitting) -> tuple:
    """The scaled (phi0, phi1, Phi) of the isomorphism from L onto the
    standard shape of the quadruple read off the splitting ``s``: phi0 is
    coords0 and phi1 is f."""
    n0, n1 = L.n0, L.n1
    S, h = L._scaled, s.h
    g_std = [_ivec(n0, ((1, s.g, (c,)),)) for c in s.g_coords]   # the g part of e_i

    Phi = {}
    for i, j in combinations(range(n0), 2):
        # [e_i, h_j] - [g_j, h_i], where e_i = g_i + (the image part of e_i),
        # in kernel coordinates, plus the U coordinates f(h(y)) of y = [e_i, e_j]
        x = _ivec(n1, ((1, S.b01[i], (h[j],)), (-1, S.b01, (g_std[j], h[i]))))
        hy = _ivec(n1, ((1, h, (S.b00[i][j],)),))
        Phi[i, j] = _ivec(n1, ((1, s.k_coords, (x,)), (1, s.f, (hy,))))
    return s.coords0, s.f, _alternating(n0, 2, Phi)


def _quadruple(L: TwoTermAlgebra) -> Quadruple:
    """The quadruple of L, extracted once per algebra object and kept on it,
    or the one a standard shape keeps from the start."""
    return L._kept("quadruple", lambda: _extract(L, _splitting(L)))


def skeleton(L: TwoTermAlgebra) -> TwoTermAlgebra:
    """The standard shape with the transported space removed (U = 0)."""
    q = _quadruple(L)
    return normal_form_algebra(Quadruple(q.g, 0, q.rep, q.jtilde))


def split_normal_form(L: TwoTermAlgebra) -> Quadruple:
    """The quadruple of an algebra already in standard shape: the one L was
    built from, or else the one L keeps (``_quadruple``), when L is then
    bit-for-bit ``normal_form_algebra`` of it (else ValueError).  L itself
    is then verified.
    """
    q = L._kept("built from")
    if q is None:
        q = _quadruple(L)
        if _standard_shape(q) != L:
            raise ValueError("not a standard-shape algebra")
    _verified(L)
    return q


# ---------------------------------------------------------------------------
# invariants and refutation
# ---------------------------------------------------------------------------


class InvariantVector(NamedTuple):
    """Deterministic isomorphism-invariant fingerprint of an algebra.

    Every field is computable from the algebra alone and agrees for any two
    decompositions, so a mismatch in any field refutes isomorphism.  Equality
    of all fields is necessary but not sufficient.
    """

    dim_g: int
    dim_u: int
    dim_v: int
    n0: int
    n1: int
    h0: int
    h1: int
    derived_series: tuple[int, ...]
    lower_central_series: tuple[int, ...]
    center_dim: int
    killing_rank: int
    cohomology_h0: int
    cohomology_h1: int
    cohomology_h2: int
    cohomology_h3: int
    jtilde_is_coboundary: bool

    def lines(self) -> list[str]:
        return [f"{label}={_render_value(getattr(self, attr))}" for attr, label in self.FIELDS]


# (attribute, label) of each field, in order
InvariantVector.FIELDS = tuple(zip(InvariantVector._fields, (
    "dim g", "dim U", "dim V", "n0", "n1", "h0", "h1", "derived series", "lower central series",
    "center dim", "Killing rank", "H0", "H1", "H2", "H3", "Jtilde coboundary flag"), strict=True))


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _series_dims(g: LieAlgebra, pairs) -> tuple[int, ...]:
    """Dimensions along g = g_0, g_1, ... until they stabilize, where
    g_{k+1} is spanned by the [x, y] over ``pairs(basis of g, basis of
    g_k)``, both bases of scaled vectors; the basis of g_{k+1} is the
    reduced rows of the brackets."""
    dims = [g.dim]
    basis = current = [_scale(basis_vec(g.dim, i)) for i in range(g.dim)]
    while current:
        brackets = [_ivec(g.dim, ((1, g._scaled, pair),)) for pair in pairs(basis, current)]
        current = _eliminate(brackets, g.dim)[0]
        if len(current) == dims[-1]:
            break
        dims.append(len(current))
    return tuple(dims)


def center_dim(g: LieAlgebra) -> int:
    """The dimension of the kernel of all ad(e_i) at once: dim g minus the
    rank of their stacked matrices, counted on the transpose, whose row s
    is ([e_s, e_i])_i = -([e_i, e_s])_i: a plane of the stored structure
    constants over its common denominator."""
    n, dens = g.dim, [lcm(*[d for _, d in plane]) for plane in g._scaled]
    return n - len(_forward([([(i * n + t, x * (den // d)) for i, (items, d) in enumerate(plane)
                               for t, x in items], den) for plane, den in zip(g._scaled, dens)],
                            n * n))


def invariants(L: TwoTermAlgebra) -> InvariantVector:
    """Compute the full fingerprint from the extracted quadruple, which is
    extracted once per algebra object and kept on it (as ``normal_form``
    does).

    Precondition: ``verify(L)`` passes.
    """
    q = _quadruple(L)
    rank_d = q.dim_u
    h_dims = tuple(cohomology_dim(n, q.rep) for n in range(4))
    return InvariantVector(
        dim_g=q.g.dim,
        dim_u=rank_d,
        dim_v=q.rep.dimV,
        n0=L.n0,
        n1=L.n1,
        h0=L.n0 - rank_d,
        h1=L.n1 - rank_d,
        derived_series=_series_dims(q.g, lambda _, current: combinations(current, 2)),
        lower_central_series=_series_dims(q.g, product),
        center_dim=center_dim(q.g),
        killing_rank=killing_form(q.g).rank(),
        cohomology_h0=h_dims[0],
        cohomology_h1=h_dims[1],
        cohomology_h2=h_dims[2],
        cohomology_h3=h_dims[3],
        # J~ is a cocycle (Quadruple checks it), so it is a coboundary when H3 = 0
        jtilde_is_coboundary=h_dims[3] == 0 or is_coboundary(q.jtilde, q.rep) is not None,
    )


def distinguish(L: TwoTermAlgebra, M: TwoTermAlgebra) -> str | None:
    """Name the first differing invariant field, or None when all agree.

    A returned field name proves the algebras are not isomorphic; None is
    inconclusive (invariants are necessary, not sufficient).
    """
    a = invariants(L)
    b = invariants(M)
    for attr, label in InvariantVector.FIELDS:
        if getattr(a, attr) != getattr(b, attr):
            return label
    return None


# ---------------------------------------------------------------------------
# isomorphism certificates
# ---------------------------------------------------------------------------


def certify_isomorphism(
    L: TwoTermAlgebra, M: TwoTermAlgebra, chi, f_u, t_v
) -> Morphism | None:
    """Build a verified isomorphism L -> M from quadruple-level maps.

    ``chi`` must be a Lie algebra isomorphism, ``f_u`` a linear isomorphism
    between the transported spaces, and ``t_v`` an invertible intertwiner,
    all stated against the normalized bases (the inputs are normalized
    first when not already in standard shape).  When the two cocycles are
    not cohomologous under (chi, t_v) the answer is None; invalid maps raise
    LieMorphismError / InvertibilityError / IntertwinerError.
    """
    nf_l = normal_form(L)
    nf_m = normal_form(M)
    q_l, q_m = nf_l.quadruple, nf_m.quadruple

    chi, f_u, t_v = (as_matrix(chi, q_l.g.dim), as_matrix(f_u, q_l.dim_u),
                     as_matrix(t_v, q_l.rep.dimV))

    if chi.rows != q_m.g.dim or chi.cols != q_l.g.dim or not _invertible(chi):
        raise InvertibilityError("chi is not an invertible map between the Lie algebra parts")
    if not is_lie_morphism(chi, q_l.g, q_m.g):
        raise LieMorphismError("chi is not a Lie algebra morphism")
    if f_u.rows != q_m.dim_u or f_u.cols != q_l.dim_u or not _invertible(f_u):
        raise InvertibilityError("fU is not an invertible map between the transported spaces")
    pulled = pullback_representation(q_m.rep, chi, q_l.g)
    if t_v.rows != q_m.rep.dimV or t_v.cols != q_l.rep.dimV or not _invertible(t_v):
        raise InvertibilityError("tV is not invertible")
    if not is_intertwiner(t_v, q_l.rep, pulled):
        raise IntertwinerError("tV does not intertwine the representations over chi")

    witness = is_coboundary(_transfer_difference(q_l.jtilde, q_m.jtilde, chi, t_v), pulled)
    if witness is None:
        return None

    # the correction is the witness on the g part, zero on U
    corr = _alternating(nf_l.algebra.n0, 2,
                        {key: _scale(value) for key, value in witness.values.items()})
    mor_nf = Morphism._of(nf_l.algebra, nf_m.algebra, (block_diag(chi, f_u)._columns,
                                                       block_diag(t_v, f_u)._columns, corr))
    _checked(mor_nf, "certificate morphism failed verification")

    inv_m = inverse(nf_m.morphism)
    if inv_m is None:
        raise RuntimeError("normalizing morphism is not invertible")
    return _checked(compose(compose(nf_l.morphism, mor_nf), inv_m),
                    "assembled isomorphism failed verification", iso=True)


class QuadrupleMaps(NamedTuple):
    tau: Matrix
    f_u: Matrix
    t_v: Matrix
    witness: Cochain


def extract_quadruple_maps(m: Morphism) -> QuadrupleMaps:
    """Recover quadruple-level maps from an isomorphism of standard shapes.

    Returns the induced Lie algebra isomorphism (projection of phi0 on the
    Lie part), the restriction of phi0 to the transported space, the
    restriction of phi1 to the coefficient space, and the projected
    correction witnessing that the two cocycles are cohomologous.  Both
    quadruples are read by ``split_normal_form`` (ValueError off the shape).
    A non-isomorphism, a map off the blocks of the shapes or a failed check
    on the blocks raises RuntimeError; for a verified isomorphism of
    standard shapes these checks cannot fail.
    """
    q_src = split_normal_form(m.source)
    q_tgt = split_normal_form(m.target)
    g, u, v = q_src.g.dim, q_src.dim_u, q_src.rep.dimV
    g2, u2, v2 = q_tgt.g.dim, q_tgt.dim_u, q_tgt.rep.dimV

    if not is_isomorphism(m):
        raise RuntimeError("morphism is not an isomorphism")
    if (g, u, v) != (g2, u2, v2):
        raise RuntimeError("standard shapes have different dimensions")

    # phi0 maps U into U' and phi1 maps V into V' exactly
    if not m.phi0.submatrix(range(g2), range(g, g + u)).is_zero():
        raise RuntimeError("phi0 does not map the transported space into itself")
    if not m.phi1.submatrix(range(v2, v2 + u2), range(v)).is_zero():
        raise RuntimeError("phi1 does not map the coefficient space into itself")

    # so phi0 is block lower-triangular with diagonal blocks tau and f_u and
    # phi1 block upper-triangular with t_v on its diagonal: as phi0 and phi1
    # are invertible, so are tau, f_u and t_v
    tau = m.phi0.submatrix(range(g2), range(g))
    f_u = m.phi0.submatrix(range(g2, g2 + u2), range(g, g + u))
    t_v = m.phi1.submatrix(range(v2), range(v))

    if not is_lie_morphism(tau, q_src.g, q_tgt.g):
        raise RuntimeError("projected map is not a Lie algebra isomorphism")
    pulled = pullback_representation(q_tgt.rep, tau, q_src.g)
    if not is_intertwiner(t_v, q_src.rep, pulled):
        raise RuntimeError("restriction to the coefficient space is not an intertwiner")

    witness = Cochain(
        2,
        q_src.g,
        v2,
        {
            (i, j): m.Phi[i][j][:v2]
            for (i, j) in combinations(range(g), 2)
        },
    )

    # t_v(J(x)) - J'(tau x) must equal delta(witness) in the pulled-back complex
    if _transfer_difference(q_src.jtilde, q_tgt.jtilde, tau, t_v) != delta(witness, pulled):
        raise RuntimeError("correction does not witness the cocycles as cohomologous")

    return QuadrupleMaps(tau, f_u, t_v, witness)
