"""Morphisms of 2-term L-infinity algebras.

A morphism from L to L' is a pair: a graded linear map (phi0, phi1) together
with a correction Phi on pairs of degree-0 elements, valued in the target's
degree-1 space.  ``Phi[i][j]`` holds the target coordinates of the value on
the source basis pair (e_i, e_j).

Composition convention: ``compose(first, second)`` applies ``first`` and then
``second``.

A morphism stores the columns of phi0 and phi1 and its correction once, in
the scaled-integer form of ``core``: the public constructor scales its
`Fraction` data, and ``compose`` and ``inverse`` build their results on
that form with ``linalg._isum`` and hand it to ``Morphism._of``; a
morphism of a normal form keeps the inverses of its linear maps
("inverse", through the record's ``_kept``).  A skew correction is fixed
by its values on pairs i < j, so ``compose`` and ``inverse`` of skew ones
compute only those; of a public ``Morphism`` whose ``Phi`` is not skew,
every ordered pair.  The public
``phi0``, ``phi1`` and ``Phi`` are views built on first read, and
``verify_morphism`` checks the equations on the scaled form, so `Fraction`s
appear only at the API boundary.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .linalg import Matrix, _Record, _forward, as_matrix, invert
from .core import (
    Tensor3,
    TwoTermAlgebra,
    VerificationReport,
    _SHUFFLES,
    _alternating,
    _bracket_defect_parts,
    _column_matrix,
    _ivec,
    _pair_violations,
    _report,
    _scale_tensor,
    _unscale_tensor,
    tensor,
    zero_tensor,
)

EQ_CHAIN_MAP = "chain-map"                    # phi(d(v)) = d'(phi(v))
EQ_BRACKET_DEFECT = "bracket-defect"          # d'(Phi(x,y)) = phi([x,y]) - [phi x, phi y]'
EQ_MIXED_DEFECT = "mixed-bracket-defect"      # Phi(d(v),y) = phi([v,y]) - [phi v, phi y]'
EQ_JACOBIATOR_COMPAT = "jacobiator-compat"    # shuffle identity in three arguments

MORPHISM_EQUATIONS = (
    EQ_CHAIN_MAP,
    EQ_BRACKET_DEFECT,
    EQ_MIXED_DEFECT,
    EQ_JACOBIATOR_COMPAT,
)


class Morphism(_Record):
    source: TwoTermAlgebra
    target: TwoTermAlgebra
    _scaled: tuple   # (columns of phi0, columns of phi1, Phi), all scaled

    def __init__(self, source: TwoTermAlgebra, target: TwoTermAlgebra, phi0, phi1, Phi):
        phi0, phi1 = as_matrix(phi0, source.n0), as_matrix(phi1, source.n1)
        if phi0.rows != target.n0 or phi0.cols != source.n0:
            raise ValueError(f"phi0 must be {target.n0}x{source.n0}")
        if phi1.rows != target.n1 or phi1.cols != source.n1:
            raise ValueError(f"phi1 must be {target.n1}x{source.n1}")
        Phi = _scale_tensor(tensor(Phi, (source.n0, source.n0, target.n1)), 2)
        self.__dict__.update(source=source, target=target,
                             _scaled=(phi0._columns, phi1._columns, Phi))

    @cached_property
    def phi0(self) -> Matrix:
        return _column_matrix(self._scaled[0], self.target.n0)

    @cached_property
    def phi1(self) -> Matrix:
        return _column_matrix(self._scaled[1], self.target.n1)

    @cached_property
    def Phi(self) -> Tensor3:
        return _unscale_tensor(self._scaled[2], 2, self.target.n1)


def identity_morphism(L: TwoTermAlgebra) -> Morphism:
    return Morphism(
        L,
        L,
        Matrix.identity(L.n0),
        Matrix.identity(L.n1),
        zero_tensor((L.n0, L.n0, L.n1)),
    )


def verify_morphism(m: Morphism) -> VerificationReport:
    """Check the four defining equations of a morphism on all basis tuples.

    Requires source and target to be valid algebras; this is a precondition,
    not re-checked here.  As in ``core.verify``, each equation is a signed
    sum of contractions on the scaled-integer forms of the morphism and its
    two algebras, and a `Fraction` is built only for the discrepancy of a
    reported failure.  Each phi(e_i) is bound into the target's mixed
    bracket once, B1[i][m] = [phi e_i, f_m]', so the terms [phi e_i, y]' of
    two equations contract B1[i] with y alone.
    """
    src, tgt = m.source, m.target
    u0, w1, Phi = m._scaled   # phi(e_i), phi(f_j), Phi(e_i, e_j)
    S, T = src._scaled, tgt._scaled
    B1 = tuple(tuple(_ivec(tgt.n1, ((1, row, (u,)),)) for row in T.b01t) for u in u0)
    structure = tuple(f"Phi antisymmetry violated at {p}" for p in _pair_violations(Phi))
    return _report(MORPHISM_EQUATIONS, structure, {
        # phi0(d(f_j)) = d'(phi1(f_j))
        EQ_CHAIN_MAP: (tgt.n0, (
            ((j,), ((1, u0, (S.d[j],)), (-1, T.d, (w1[j],))))
            for j in range(src.n1))),
        # d'(Phi(e_i,e_j)) = phi([e_i,e_j]) - [phi e_i, phi e_j]'
        EQ_BRACKET_DEFECT: (tgt.n0, (
            ((i, j), ((1, T.d, (Phi[i][j],)), *_bracket_defect_parts(u0, S.b00, T.b00, i, j)))
            for (i, j) in combinations(range(src.n0), 2))),
        # Phi(d(f_l), e_i) = phi([f_l,e_i]) - [phi f_l, phi e_i]', where
        # Phi(d(f_l), e_i) = -Phi(e_i, d(f_l)), [f_l, e_i] = -[e_i, f_l] and
        # [phi f_l, phi e_i]' = -[phi e_i, phi f_l]'
        EQ_MIXED_DEFECT: (tgt.n1, (
            ((l, i), ((-1, Phi[i], (S.d[l],)), (-1, B1[i], (w1[l],)),
                      (1, w1, (S.b01[i][l],))))
            for l in range(src.n1) for i in range(src.n0))),
        # compatibility of the Jacobiators through Phi
        EQ_JACOBIATOR_COMPAT: (tgt.n1, (
            (tri, _jacobiator_parts(S, T, B1, u0, w1, Phi, tri))
            for tri in combinations(range(src.n0), 3))),
    })


def _jacobiator_parts(S, T, B1, u0, w1, Phi, tri: tuple[int, int, int]) -> list:
    """phi1(J(x,y,z)) - J'(phi x, phi y, phi z) minus the sum over
    (1,2)-shuffles of sign * ([phi a, Phi(b,c)]' + Phi(a, [b,c])), where
    B1[a] is [phi e_a, .]' on the target's degree-1 basis."""
    i, j, k = tri
    parts = [(1, w1, (S.jac[i][j][k],)), (-1, T.jac, (u0[i], u0[j], u0[k]))]
    for perm, sign in _SHUFFLES[1, 2]:
        a, b, c = (tri[p] for p in perm)
        parts.append((-sign, B1[a], (Phi[b][c],)))
        parts.append((-sign, Phi[a], (S.b00[b][c],)))
    return parts


def _correction(n: int, value, *made_from) -> tuple:
    """The correction with leaf ``value(i, j)`` on each pair of range(n): on
    pairs i < j alone, then made alternating, when every correction in
    ``made_from`` is antisymmetric, and so ``value``; else on all n^2 pairs."""
    if any(next(_pair_violations(t), None) for t in made_from):
        return tuple(tuple(value(i, j) for j in range(n)) for i in range(n))
    return _alternating(n, 2, {(i, j): value(i, j) for i, j in combinations(range(n), 2)})


def compose(first: Morphism, second: Morphism) -> Morphism:
    """Apply ``first``, then ``second``; the correction on pairs i < j alone
    when both are antisymmetric (``_correction``)."""
    if first.target != second.source:
        raise ValueError("compose: first.target must equal second.source")
    a0, a1, A = first._scaled
    b0, b1, B = second._scaled
    n0, m0, m1 = first.source.n0, second.target.n0, second.target.n1
    u0 = tuple(_ivec(m0, ((1, b0, (c,)),)) for c in a0)
    w1 = tuple(_ivec(m1, ((1, b1, (c,)),)) for c in a1)
    # Psi(x, y) = Phi2(phi1 x, phi1 y) + phi2(Phi1(x, y))
    Psi = _correction(n0, lambda i, j: _ivec(m1, ((1, B, (a0[i], a0[j])), (1, b1, (A[i][j],)))),
                      A, B)
    return Morphism._of(first.source, second.target, (u0, w1, Psi))


def inverse(m: Morphism) -> Morphism | None:
    """Inverse morphism, or None when the linear part is not invertible.

    The inverses of phi0 and phi1 are ``invert``ed, unless ``m`` keeps
    their columns under "inverse": the morphism of ``classify.normal_form``
    does, as they are the bases its splitting already holds, so inverting
    it eliminates nothing.  The correction is computed on pairs i < j alone
    when ``m``'s is antisymmetric (``_correction``).
    """
    known = m._kept("inverse")
    if known is None:
        if m.phi0.rows != m.phi0.cols or m.phi1.rows != m.phi1.cols:
            return None
        inv0, inv1 = invert(m.phi0), invert(m.phi1)
        if inv0 is None or inv1 is None:
            return None
        known = inv0._columns, inv1._columns
    x, v = known
    Phi, n0, n1 = m._scaled[2], m.target.n0, m.target.n1
    # Phi^-1(x, y) = -phi1^-1(Phi(phi0^-1 x, phi0^-1 y))
    Psi = _correction(n0, lambda i, j: _ivec(n1, (
        (-1, v, (_ivec(n1, ((1, Phi, (x[i], x[j])),)),)),)), Phi)
    return Morphism._of(m.target, m.source, (x, v, Psi))


def is_isomorphism(m: Morphism) -> bool:
    """True iff both graded components of the linear part are invertible:
    square, with a pivot (``linalg._forward``) for each column it stores."""
    return all(len(cols) == n == len(_forward(cols, n))
               for cols, n in zip(m._scaled[:2], (m.target.n0, m.target.n1)))
