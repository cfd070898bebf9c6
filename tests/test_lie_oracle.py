"""Oracles for the Lie-theoretic invariants and the direct-sum representation.

Each reference is the plain `Fraction` loop the library once ran: the
Killing form as trace(ad_i @ ad_j), the derived and lower central series
as repeated spans of brackets, the center as the common kernel of the ad
matrices stacked one by one, and a direct-sum representation built row by
row.  They run on the catalog and on seeded direct sums of catalog algebras
in a scaled basis, so the constants are not all 0 and +-1.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from lie2alg import (
    LieAlgebra,
    Matrix,
    direct_sum_rep,
    killing_form,
    lie_algebra,
    representation,
    trivial_rep,
)
from lie2alg.classify import _series_dims, center_dim, invariants
from lie2alg.builders import normal_form_algebra
from lie2alg.cohomology import Cochain, Quadruple
from lie2alg.linalg import basis_vec, image_basis, kernel_basis, vec_zero

F = Fraction
CATALOG = ["abelian0", "abelian1", "abelian3", "nonabelian2", "heisenberg3", "so3", "sl2"]


def scaled_direct_sum(seed: int) -> LieAlgebra:
    """Two or three catalog algebras summed, basis vector i scaled by a
    seeded nonzero rational."""
    rng = random.Random(seed)
    parts = [lie_algebra(rng.choice(CATALOG[1:])) for _ in range(rng.randint(2, 3))]
    n = sum(p.dim for p in parts)
    sc = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for p in parts:
        for i, j, t in product(range(p.dim), repeat=3):
            sc[off + i][off + j][off + t] = p.sc[i][j][t]
        off += p.dim
    s = [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5))) for _ in range(n)]
    return LieAlgebra(n, [[[s[i] * s[j] / s[t] * sc[i][j][t] for t in range(n)]
                           for j in range(n)] for i in range(n)])


ALGEBRAS = ([pytest.param(lie_algebra(name), id=name) for name in CATALOG]
            + [pytest.param(scaled_direct_sum(seed), id=f"sum-{seed}") for seed in range(8)])


def ref_killing_form(g: LieAlgebra) -> Matrix:
    ads = [g.ad(i) for i in range(g.dim)]
    return Matrix.from_rows([[sum(((ads[i] @ ads[j])[t, t] for t in range(g.dim)), F(0))
                              for j in range(g.dim)] for i in range(g.dim)], cols=g.dim)


def ref_bracket(g: LieAlgebra, x, y):
    n = g.dim
    return tuple(sum((x[i] * y[j] * g.sc[i][j][t] for i in range(n) for j in range(n)), F(0))
                 for t in range(n))


def ref_series(g: LieAlgebra, lower_central: bool) -> tuple[int, ...]:
    basis = [basis_vec(g.dim, i) for i in range(g.dim)]
    dims, current = [g.dim], basis
    while True:
        pairs = product(basis, current) if lower_central else combinations(current, 2)
        vectors = [v for v in (ref_bracket(g, x, y) for x, y in pairs) if any(v)]
        nxt = image_basis(Matrix.from_columns(vectors, rows=g.dim)).basis if vectors else ()
        if len(nxt) == dims[-1]:
            break
        dims.append(len(nxt))
        current = list(nxt)
        if not nxt:
            break
    return tuple(dims)


def ref_center_dim(g: LieAlgebra) -> int:
    if g.dim == 0:
        return 0
    stacked = g.ad(0)
    for i in range(1, g.dim):
        stacked = stacked.vstack(g.ad(i))
    return kernel_basis(stacked).dim


@pytest.mark.parametrize("g", ALGEBRAS)
def test_killing_form_is_trace_of_ad_products(g):
    assert killing_form(g) == ref_killing_form(g)


@pytest.mark.parametrize("g", ALGEBRAS)
def test_series_and_center_match_naive_loops(g):
    assert _series_dims(g, lambda _, current: combinations(current, 2)) == ref_series(g, False)
    assert _series_dims(g, product) == ref_series(g, True)
    assert center_dim(g) == ref_center_dim(g)


@pytest.mark.parametrize("g", ALGEBRAS)
def test_invariants_carry_the_reference_values(g):
    # a skeletal algebra (trivial coefficients, zero cocycle) has g itself as
    # its Lie part, and every field below is basis independent
    q = Quadruple(g, 0, trivial_rep(g, 1), Cochain(3, g, 1))
    inv = invariants(normal_form_algebra(q))
    assert inv.derived_series == ref_series(g, False)
    assert inv.lower_central_series == ref_series(g, True)
    assert inv.center_dim == ref_center_dim(g)
    assert inv.killing_rank == ref_killing_form(g).rank()


@pytest.mark.parametrize("name, derived, lower, center", [
    ("so3", (3,), (3,), 0),
    ("sl2", (3,), (3,), 0),
    ("heisenberg3", (3, 1, 0), (3, 1, 0), 1),
    ("nonabelian2", (2, 1, 0), (2, 1), 0),
    ("abelian3", (3, 0), (3, 0), 3),
    ("abelian0", (0,), (0,), 0),
])
def test_catalog_values(name, derived, lower, center):
    g = lie_algebra(name)
    assert ref_series(g, False) == _series_dims(g, lambda _, c: combinations(c, 2)) == derived
    assert ref_series(g, True) == _series_dims(g, product) == lower
    assert ref_center_dim(g) == center_dim(g) == center


def ref_direct_sum_rep(a, b) -> tuple[Matrix, ...]:
    n = a.dimV + b.dimV
    mats = []
    for i in range(a.g.dim):
        rows = [a.rho[i].row(r) + vec_zero(b.dimV) for r in range(a.dimV)]
        rows += [vec_zero(a.dimV) + b.rho[i].row(r) for r in range(b.dimV)]
        mats.append(Matrix.from_rows(rows, cols=n))
    return tuple(mats)


@pytest.mark.parametrize("g", ALGEBRAS)
@pytest.mark.parametrize("names", [("adjoint", "trivial2"), ("trivial1", "adjoint"),
                                   ("trivial0", "adjoint"), ("adjoint", "trivial0")])
def test_direct_sum_rep_matches_row_built(g, names):
    a, b = (representation(g, n) for n in names)
    rep = direct_sum_rep(a, b)
    assert rep.dimV == a.dimV + b.dimV
    assert rep.rho == ref_direct_sum_rep(a, b)
