"""Classification machinery for 2-term L-infinity algebras.

The pipeline: ``decompose`` fixes a deterministic direct-sum decomposition of
both degrees, ``extract_triple`` reads off a Lie algebra, a representation on
the kernel of the differential and a 3-cocycle, ``normal_form`` rebuilds the
standard-shape algebra on that data together with an explicit verified
isomorphism, and ``certify_isomorphism`` / ``extract_quadruple_maps`` convert
between isomorphisms of algebras and isomorphisms of their classifying
quadruples.  ``invariants`` computes a fingerprint of necessary conditions
used by ``distinguish`` to refute isomorphism.

``transport``, ``extract_triple`` and ``normal_form`` build their tensors on
the scaled-integer form of ``core`` (integer numerators, one denominator per
vector, summed by ``linalg._isum``) and hand it to the algebras and
morphisms they return, which store only that form, so verifying them
converts nothing; `Fraction`s appear only in the views of the public API.

Results that are functions of an algebra are kept per algebra object,
through the record's ``_kept``: ``verify`` keeps its report under
"verify", the quadruple (one ``decompose`` and one ``extract_triple``) is
kept under "quadruple" and shared by ``normal_form``, ``invariants``,
``skeleton`` and ``split_normal_form``, and ``normal_form`` keeps its target
algebra and the maps of its isomorphism, verified once, under
"normal_form" (it decomposes the algebra itself, and extracts the quadruple
from that decomposition unless one is kept).  A value is kept only on the
argument of the call that computed it and never refers back to that
algebra, so an algebra built by the pipeline (a normal form, say) is
classified afresh, and an algebra is still freed by reference counting.
The public ``decompose`` and ``extract_triple`` are not cached.

A full search for a Lie algebra isomorphism is deliberately out of scope:
the module certifies user-supplied maps and refutes via invariants.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

from .linalg import (
    Matrix,
    Subspace,
    _Record,
    _eliminate,
    _invertible,
    _kernel_vectors,
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
from .builders import _standard_shape, _verified, killing_form, normal_form_algebra


class InvertibilityError(ValueError):
    """A map that must be invertible is singular or has the wrong shape."""


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


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
    def _scaled(self) -> tuple:
        """(g basis, kernel basis, g coordinates, kernel coordinates, h) in
        scaled form, built on first use: what ``extract_triple`` and
        ``normal_form`` contract with."""
        g, k = self.g_basis.dim, self.kerd_basis.dim
        return (_scale_tensor(self.g_basis.basis, 1), _scale_tensor(self.kerd_basis.basis, 1),
                self.coords0.submatrix(range(g), range(self.coords0.cols))._columns,
                self.coords1.submatrix(range(k), range(self.coords1.cols))._columns,
                self.h._columns)


def decompose(L: TwoTermAlgebra) -> Decomposition:
    """Deterministic decomposition via greedy standard-basis complements,
    read off one row reduction, of [d | I].

    Precondition: ``verify(L)`` passes.
    """
    n0, n1 = L.n0, L.n1
    # rref([d | I]) = [E @ d | E] has a pivot in every row: first the r
    # pivots of d, on the nonzero rows of rref(d), then rows zero on d's block
    red, pivots = rref(L.d.hstack(Matrix.identity(n0)))
    r = sum(p < n1 for p in pivots)
    imd = Subspace._of(n0, tuple([L.d.column(p) for p in pivots[:r]]))
    free = [c for c in range(n1) if c not in pivots]
    kerd = Subspace._of(n1, _kernel_vectors((red._rows, pivots), free, n1))
    # U is the greedy complement of ker d: a free e_f is its kernel vector
    # plus e_p with p < f, and no e_p is in span(ker d, e_0..e_{p-1}), on
    # which the row of rref(d) with pivot p vanishes.
    u_b = Subspace._of(n1, tuple([basis_vec(n1, p) for p in pivots[:r]]))
    # E sends im d's basis to e_0..e_{r-1} and the e_c at the last pivots,
    # the greedy complement g of im d, to the rest
    g_b = Subspace._of(n0, tuple([basis_vec(n0, p - n1) for p in pivots[r:]]))
    coords0 = red.submatrix([*range(r, n0), *range(r)], range(n1, n1 + n0))
    # the kernel coordinates of x are its free entries, its U ones rref(d) @ x
    coords1 = Matrix.identity(n1).submatrix(free, range(n1)).vstack(
        red.submatrix(range(r), range(n1)))
    # d maps U's basis onto im d's: h is U's basis times E's first r rows
    h = u_b.matrix() @ red.submatrix(range(r), range(n1, n1 + n0))
    return Decomposition._of(L, g_b, imd, kerd, u_b, coords1, h, coords0, coords1)


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
    gdim, kdim = dec.g_basis.dim, dec.kerd_basis.dim
    n0, n1 = L.n0, L.n1
    S = L._scaled
    G, K, g_coords, k_coords, h = dec._scaled

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

    return Quadruple(g, dec.u_basis.dim, rep, jtilde)


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
    ``linalg._isum`` per output vector.  Returns the new algebra and the
    connecting morphism, which store that scaled form (their `Fraction`
    views are built on first read); both are re-verified before returning.

    Precondition: ``verify(L)`` passes; when it does not, the transported
    algebra fails its check with ValueError.  A failed check on a valid L
    is a bug, RuntimeError.  A ``correction`` that is not antisymmetric
    raises ValueError naming its first bad pair.
    """
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
    corr = tensor(correction, (L.n0, L.n0, L.n1))
    C = _scale_tensor(corr, 2)
    for pair in _pair_violations(C):
        raise ValueError(f"correction antisymmetry violated at {pair}")

    n0, n1 = L.n0, L.n1
    S = L._scaled
    P0, P1 = phi0._columns, phi1._columns
    X, V = inv0._columns, inv1._columns   # preimages of target bases

    dv = [_ivec(n0, ((1, S.d, (v,)),)) for v in V]
    d_new = tuple(_ivec(n0, ((1, P0, (w,)),)) for w in dv)

    pairs = list(combinations(range(n0), 2))
    w = {(a, b): _ivec(n0, ((1, S.b00, (X[a], X[b])),)) for a, b in pairs}   # [x_a, x_b]
    c = {(a, b): _ivec(n1, ((1, C, (X[a], X[b])),)) for a, b in pairs}       # corr(x_a, x_b)
    b00_new = _alternating(n0, 2, {
        p: _ivec(n0, ((1, P0, (w[p],)), (-1, d_new, (c[p],)))) for p in pairs})

    b01_new = tuple(tuple(_ivec(n1, ((1, P1, (_ivec(n1, ((1, S.b01, (X[a], V[b])),)),)),
                                     (1, C, (dv[b], X[a]))))
                          for b in range(n1)) for a in range(n0))

    jac_new = {}
    for key in combinations(range(n0), 3):
        parts = [(1, P1, (_ivec(n1, ((1, S.jac, tuple(X[k] for k in key)),)),))]
        for perm, sign in _SHUFFLES[1, 2]:
            a, y, z = (key[p] for p in perm)
            parts += [(-sign, b01_new[a], (c[y, z],)), (-sign, C, (X[a], w[y, z]))]
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

    Precondition: ``verify(L)`` passes.  Deterministic via ``decompose``;
    idempotent on its own output up to structural equality.  The target
    algebra, the quadruple and the maps of the isomorphism are computed and
    verified once per algebra object and kept on it; each call returns a
    new `Morphism` from L around them.
    """
    target, q, scaled = L._kept("normal_form", _normal_form, L)
    return NormalFormResult(target, Morphism._of(L, target, scaled), q)


def _normal_form(L: TwoTermAlgebra) -> tuple:
    """(target, quadruple, the scaled form of the isomorphism) of the normal
    form of L: nothing that refers back to L, so that it can be kept on L.
    The quadruple is extracted from the same decomposition unless L keeps
    one already."""
    dec = decompose(L)
    q = L._kept("quadruple", extract_triple, L, dec)
    target = normal_form_algebra(q)

    gdim, kdim = dec.g_basis.dim, dec.kerd_basis.dim
    n0, n1 = L.n0, L.n1
    S = L._scaled
    G, _, g_coords, k_coords, h = dec._scaled
    g_std = [_ivec(n0, ((1, G, (c,)),)) for c in g_coords]   # the g part of e_i
    # the U coordinates of degree 0 (coords0 past g) under kdim zero rows: in
    # degree 1 of the normal form, V = ker d comes first
    u = Matrix.zero(kdim, n0).vstack(dec.coords0.submatrix(range(gdim, n0), range(n0)))._columns

    Phi = {}
    for i, j in combinations(range(n0), 2):
        # [e_i, h_j] - [g_j, h_i], where e_i = g_i + (the image part of e_i)
        s = _ivec(n1, ((1, S.b01[i], (h[j],)), (-1, S.b01, (g_std[j], h[i]))))
        Phi[i, j] = _ivec(n1, ((1, k_coords, (s,)), (1, u, (S.b00[i][j],))))
    Phi = _alternating(n0, 2, Phi)
    mor = Morphism._of(L, target, (dec.coords0._columns, dec.f._columns, Phi))
    return target, q, _checked(mor, "normalizing morphism failed verification", iso=True)._scaled


def _quadruple(L: TwoTermAlgebra) -> Quadruple:
    """The quadruple of L, extracted once per algebra object and kept on it."""
    return L._kept("quadruple", lambda: extract_triple(L, decompose(L)))


def skeleton(L: TwoTermAlgebra) -> TwoTermAlgebra:
    """The standard shape with the transported space removed (U = 0)."""
    q = _quadruple(L)
    return normal_form_algebra(Quadruple(q.g, 0, q.rep, q.jtilde))


def split_normal_form(L: TwoTermAlgebra) -> Quadruple:
    """The quadruple of an algebra already in standard shape: the one L
    keeps (``_quadruple``), read off a standard shape in identity
    coordinates.  Raises ValueError unless L is bit-for-bit
    ``normal_form_algebra`` of it, which is then verified on L itself.
    """
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
    rank of their stacked rows."""
    return g.dim - Matrix._of([row for i in range(g.dim) for row in g.ad(i)._rows], g.dim).rank()


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
        jtilde_is_coboundary=is_coboundary(q.jtilde, q.rep) is not None,
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
