"""Reference test for ``classify.decompose``.

``decompose`` reads all nine fields of a `Decomposition` off one row
reduction, of [d | I].  This module keeps the construction it replaces,
seven eliminations (the image and kernel of d, the complements of
both, and three inversions), as an independent oracle and asserts equal
fields on seeded random algebras, on every zero algebra up to 3+3, and on
abelian algebras whose differential is zero, surjective or injective.
"""

import random
from dataclasses import fields
from fractions import Fraction

import pytest

from lie2alg import (
    Decomposition,
    Matrix,
    TwoTermAlgebra,
    block_diag,
    complement,
    decompose,
    image_basis,
    invert,
    kernel_basis,
    random_algebra,
    skeletal_string,
    so3,
    verify,
)
from lie2alg import classify, linalg
from lie2alg.builders import RandomProfile
from lie2alg.core import zero_tensor


def oracle_decompose(L):
    """The greedy complements of im d and ker d, and the change of
    coordinates, by seven separate eliminations."""
    imd = image_basis(L.d)
    g_b = complement(imd)
    kerd = kernel_basis(L.d)
    u_b = complement(kerd)
    gdim, r, kdim = g_b.dim, imd.dim, kerd.dim
    coords0 = invert(Matrix.from_columns(g_b.basis + imd.basis, rows=L.n0))
    coords1 = invert(Matrix.from_columns(kerd.basis + u_b.basis, rows=L.n1))
    assert coords0 is not None and coords1 is not None
    # image-of-d coordinates of d restricted to U
    m_block = (coords0 @ (L.d @ u_b.matrix())).submatrix(range(gdim, L.n0), range(r))
    m_inv = invert(m_block)
    assert m_inv is not None
    f = block_diag(Matrix.identity(kdim), m_block) @ coords1
    h = (u_b.matrix() @ m_inv) @ coords0.submatrix(range(gdim, L.n0), range(L.n0))
    return Decomposition(L, g_b, imd, kerd, u_b, f, h, coords0, coords1)


def assert_same_decomposition(L):
    got, want = decompose(L), oracle_decompose(L)
    for field in fields(Decomposition):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def abelian_with_differential(d: Matrix) -> TwoTermAlgebra:
    n0, n1 = d.rows, d.cols
    return TwoTermAlgebra(n0, n1, d, zero_tensor((n0, n0, n0)), zero_tensor((n0, n1, n1)),
                          [[[[0] * n1] * n0] * n0] * n0)


def random_differential(rng: random.Random, n0: int, n1: int, rank: int) -> Matrix:
    """A random rational n0 x n1 matrix of the given rank."""
    def draw(rows, cols):
        return Matrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                  for _ in range(cols)] for _ in range(rows)], cols=cols)
    while True:
        d = draw(n0, rank) @ draw(rank, n1)
        if d.rank() == rank:
            return d


@pytest.mark.parametrize("max_dim_u", [0, 1, 2, 3])
def test_random_algebras(max_dim_u):
    profile = RandomProfile(max_dim_u=max_dim_u)
    for seed in range(60):
        assert_same_decomposition(random_algebra(seed, profile))


@pytest.mark.parametrize("n0", range(4))
@pytest.mark.parametrize("n1", range(4))
def test_zero_algebras(n0, n1):
    assert_same_decomposition(TwoTermAlgebra.zero(n0, n1))


def test_zero_differential_with_brackets():
    L = skeletal_string(so3(), 1)
    assert L.d.is_zero()
    assert_same_decomposition(L)


SHAPES = [(1, 1), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3), (2, 5), (5, 2), (4, 6), (6, 4), (6, 6)]


@pytest.mark.parametrize("n0,n1,rank", [
    (n0, n1, k) for n0, n1 in SHAPES for k in sorted({0, min(n0, n1) - 1, min(n0, n1)})])
def test_differentials_of_every_rank(n0, n1, rank):
    """d = 0, a rank strictly between, and full rank: d onto degree 0
    (rank n0) when n0 <= n1, d one to one (rank n1) when n1 <= n0."""
    rng = random.Random(f"{n0}x{n1} rank {rank}")
    for _ in range(5):
        L = abelian_with_differential(random_differential(rng, n0, n1, rank))
        assert verify(L).passed
        assert_same_decomposition(L)


def test_one_elimination_per_call(monkeypatch):
    """Every field comes from the one reduction of [d | I]."""
    calls = []
    original = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (linalg, classify):
        monkeypatch.setattr(module, "_eliminate", counted)
    for L in (random_algebra(7), skeletal_string(so3(), 1), TwoTermAlgebra.zero(2, 3)):
        calls.clear()
        decompose(L)
        assert len(calls) == 1
