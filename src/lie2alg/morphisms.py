"""Morphisms of 2-term L-infinity algebras.

A morphism from L to L' is a pair: a graded linear map (phi0, phi1) together
with a correction Phi on pairs of degree-0 elements, valued in the target's
degree-1 space.  ``Phi[i][j]`` holds the target coordinates of the value on
the source basis pair (e_i, e_j).

Composition convention: ``compose(first, second)`` applies ``first`` and then
``second``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import Matrix, basis_vec, invert, is_zero_vec, vec_sub, vec_zero
from .core import (
    EquationFailure,
    Tensor3,
    TwoTermAlgebra,
    VerificationReport,
    contract,
    shuffles,
    tensor3,
    vec_add,
    zero_tensor3,
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


@dataclass(frozen=True)
class Morphism:
    source: TwoTermAlgebra
    target: TwoTermAlgebra
    phi0: Matrix
    phi1: Matrix
    Phi: Tensor3

    def __post_init__(self):
        phi0, phi1 = self.phi0, self.phi1
        if not isinstance(phi0, Matrix):
            phi0 = Matrix.from_rows([tuple(r) for r in phi0], cols=self.source.n0)
        if not isinstance(phi1, Matrix):
            phi1 = Matrix.from_rows([tuple(r) for r in phi1], cols=self.source.n1)
        if phi0.rows != self.target.n0 or phi0.cols != self.source.n0:
            raise ValueError(f"phi0 must be {self.target.n0}x{self.source.n0}")
        if phi1.rows != self.target.n1 or phi1.cols != self.source.n1:
            raise ValueError(f"phi1 must be {self.target.n1}x{self.source.n1}")
        object.__setattr__(self, "phi0", phi0)
        object.__setattr__(self, "phi1", phi1)
        object.__setattr__(
            self,
            "Phi",
            tensor3(self.Phi, (self.source.n0, self.source.n0, self.target.n1)),
        )


def identity_morphism(L: TwoTermAlgebra) -> Morphism:
    return Morphism(
        L,
        L,
        Matrix.identity(L.n0),
        Matrix.identity(L.n1),
        zero_tensor3((L.n0, L.n0, L.n1)),
    )


def verify_morphism(m: Morphism) -> VerificationReport:
    """Check the four defining equations of a morphism on all basis tuples.

    Requires source and target to be valid algebras; this is a precondition,
    not re-checked here.
    """
    structure = []
    for i in range(m.source.n0):
        for j in range(i, m.source.n0):
            if not is_zero_vec(vec_add(m.Phi[i][j], m.Phi[j][i])):
                structure.append(f"Phi antisymmetry violated at ({i}, {j})")
    if structure:
        return VerificationReport(MORPHISM_EQUATIONS, tuple(structure), ())

    src, tgt = m.source, m.target
    failures = []
    u0 = [m.phi0.column(i) for i in range(src.n0)]   # phi(e_i)
    w1 = [m.phi1.column(j) for j in range(src.n1)]   # phi(f_j)
    dcols = [src.d.column(j) for j in range(src.n1)]

    # phi0(d(f_j)) = d'(phi1(f_j))
    fail = None
    for j in range(src.n1):
        lhs, rhs = m.phi0.apply(dcols[j]), tgt.d.apply(w1[j])
        if lhs != rhs:
            fail = EquationFailure(EQ_CHAIN_MAP, (j,), vec_sub(lhs, rhs))
            break
    if fail:
        failures.append(fail)

    # d'(Phi(e_i,e_j)) = phi([e_i,e_j]) - [phi e_i, phi e_j]'
    fail = None
    for i in range(src.n0):
        if fail:
            break
        for j in range(i + 1, src.n0):
            lhs = tgt.d.apply(m.Phi[i][j])
            rhs = vec_sub(m.phi0.apply(src.b00[i][j]), contract(tgt.b00, u0[i], u0[j], n=tgt.n0))
            if lhs != rhs:
                fail = EquationFailure(EQ_BRACKET_DEFECT, (i, j), vec_sub(lhs, rhs))
                break
    if fail:
        failures.append(fail)

    # Phi(d(f_l), e_i) = phi([f_l,e_i]) - [phi f_l, phi e_i]'
    fail = None
    for l in range(src.n1):
        if fail:
            break
        for i in range(src.n0):
            lhs = contract(m.Phi, dcols[l], basis_vec(src.n0, i), n=tgt.n1)
            # [f_l, e_i] = -[e_i, f_l];  [phi f_l, phi e_i]' = -[phi e_i, phi f_l]'
            rhs = vec_sub(
                contract(tgt.b01, u0[i], w1[l], n=tgt.n1),
                m.phi1.apply(src.b01[i][l]),
            )
            if lhs != rhs:
                fail = EquationFailure(EQ_MIXED_DEFECT, (l, i), vec_sub(lhs, rhs))
                break
    if fail:
        failures.append(fail)

    # compatibility of the Jacobiators through Phi
    fail = None
    sh12 = shuffles(1, 2).elements
    for tri in combinations(range(src.n0), 3):
        lhs = vec_sub(
            m.phi1.apply(src.jac[tri[0]][tri[1]][tri[2]]),
            contract(tgt.jac, u0[tri[0]], u0[tri[1]], u0[tri[2]], n=tgt.n1),
        )
        rhs = vec_zero(tgt.n1)
        for perm, sign in sh12:
            a, b, c = tri[perm[0]], tri[perm[1]], tri[perm[2]]
            term = vec_add(
                contract(tgt.b01, u0[a], m.Phi[b][c], n=tgt.n1),
                contract(m.Phi[a], src.b00[b][c], n=tgt.n1),
            )
            if sign == 1:
                rhs = vec_add(rhs, term)
            else:
                rhs = vec_sub(rhs, term)
        if lhs != rhs:
            fail = EquationFailure(EQ_JACOBIATOR_COMPAT, tri, vec_sub(lhs, rhs))
            break
    if fail:
        failures.append(fail)

    return VerificationReport(MORPHISM_EQUATIONS, (), tuple(failures))


def compose(first: Morphism, second: Morphism) -> Morphism:
    """Apply ``first``, then ``second``."""
    if first.target != second.source:
        raise ValueError("compose: first.target must equal second.source")
    phi0 = second.phi0 @ first.phi0
    phi1 = second.phi1 @ first.phi1
    n0 = first.source.n0
    cols = [first.phi0.column(i) for i in range(n0)]
    psi = []
    for i in range(n0):
        row = []
        for j in range(n0):
            row.append(
                vec_add(
                    contract(second.Phi, cols[i], cols[j], n=second.target.n1),
                    second.phi1.apply(first.Phi[i][j]),
                )
            )
        psi.append(tuple(row))
    return Morphism(first.source, second.target, phi0, phi1, tuple(psi))


def inverse(m: Morphism) -> Morphism | None:
    """Inverse morphism, or None when the linear part is not invertible."""
    inv0 = invert(m.phi0) if m.phi0.rows == m.phi0.cols else None
    inv1 = invert(m.phi1) if m.phi1.rows == m.phi1.cols else None
    if inv0 is None or inv1 is None:
        return None
    n0 = m.target.n0
    phi = []
    for i in range(n0):
        row = []
        for j in range(n0):
            val = contract(m.Phi, inv0.column(i), inv0.column(j), n=m.target.n1)
            row.append(tuple(-c for c in inv1.apply(val)))
        phi.append(tuple(row))
    return Morphism(m.target, m.source, inv0, inv1, tuple(phi))


def is_isomorphism(m: Morphism) -> bool:
    """True iff both graded components of the linear part are invertible."""
    if m.phi0.rows != m.phi0.cols or m.phi1.rows != m.phi1.cols:
        return False
    return m.phi0.rank() == m.phi0.rows and m.phi1.rank() == m.phi1.rows
