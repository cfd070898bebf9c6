import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest

from lie2alg import (
    Cochain,
    IntertwinerError,
    LieAlgebra,
    LieMorphismError,
    Matrix,
    Quadruple,
    Representation,
    abelian,
    adjoint_rep,
    cohomologous,
    cohomology_basis,
    cohomology_dim,
    delta,
    delta_matrix,
    is_coboundary,
    is_cocycle,
    pullback_representation,
    so3,
    sl2,
    trivial_rep,
)
from lie2alg import cohomology as cohomology_module
from lie2alg.builders import abelian, catalog_pairs, lie_algebra, representation
from lie2alg.cohomology import (
    _complex,
    _transfer_difference,
    cochain_to_vec,
    cocycle_basis,
    increasing_tuples,
    is_intertwiner,
    is_lie_morphism,
    vec_to_cochain,
)
from lie2alg.core import _scale_tensor, perm_sign
from lie2alg.linalg import _scale, basis_vec, image_basis, invert, kernel_basis, solve
from lie2alg.linalg import vec_add, vec_sub, vec_zero

F = Fraction


def vec_scale(c, u):
    return tuple(c * a for a in u)


def oracle_delta(f: Cochain, rep: Representation) -> Cochain:
    """Independent differential: the classical alternating-sum formula

    (df)(x_0..x_n) = sum_i (-1)^i rho(x_i) f(..no i..)
                   + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..no i, no j..)
    """
    g = f.g
    n = f.n
    values = {}
    for key in increasing_tuples(g.dim, n + 1):
        acc = vec_zero(f.dimV)
        for pos in range(n + 1):
            rest = key[:pos] + key[pos + 1 :]
            sign = (-1) ** pos
            term = rep.rho[key[pos]].apply(f.values[rest])
            acc = vec_add(acc, vec_scale(sign, term))
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                rest = tuple(k for idx, k in enumerate(key) if idx not in (a, b))
                sign = (-1) ** (a + b)
                for t, c in enumerate(g.sc[key[a]][key[b]]):
                    if c:
                        acc = vec_add(acc, vec_scale(sign * c, f.value_at_basis((t,) + rest)))
        values[key] = acc
    return Cochain(n + 1, g, f.dimV, values)


def oracle_delta_matrix(n: int, rep: Representation) -> Matrix:
    import math

    g = rep.g
    cols = []
    n_rows = math.comb(g.dim, n + 1) * rep.dimV
    for key in increasing_tuples(g.dim, n):
        for v_idx in range(rep.dimV):
            basis = Cochain(
                n, g, rep.dimV,
                {key: tuple(F(1) if t == v_idx else F(0) for t in range(rep.dimV))},
            )
            cols.append(cochain_to_vec(oracle_delta(basis, rep)))
    return Matrix.from_columns(cols, rows=n_rows) if cols else Matrix.zero(n_rows, 0)


def small_entry(rng):
    return F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else F(0)


def random_cochain(rng, n, g, dim_v):
    return Cochain(n, g, dim_v, {key: tuple(small_entry(rng) for _ in range(dim_v))
                                 for key in increasing_tuples(g.dim, n)})


class TestDeltaAgainstOracle:
    def test_matrices_agree_across_catalog(self):
        for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=4, max_dim_v=4):
            for n in range(0, g.dim + 1):
                assert delta_matrix(n, rep) == oracle_delta_matrix(n, rep), (
                    g_name, rep_name, n,
                )

    def test_so3_trivial_one_cochain(self):
        g = so3()
        rep = trivial_rep(g, 1)
        f = Cochain(1, g, 1, {(0,): (1,), (1,): (0,), (2,): (0,)})
        df = delta(f, rep)
        # only the pair bracketing back onto e_0 survives, with a minus sign
        assert df.values[(1, 2)] == (F(-1),)
        assert df.values[(0, 1)] == (F(0),)
        assert df.values[(0, 2)] == (F(0),)

    def test_degree_zero_action(self):
        g = so3()
        rep = adjoint_rep(g)
        f = Cochain(0, g, 3, {(): (1, 0, 0)})
        df = delta(f, rep)
        for (i,) in increasing_tuples(3, 1):
            assert df.values[(i,)] == rep.rho[i].apply((F(1), F(0), F(0)))

    def test_degree_beyond_dim_is_zero_space(self):
        g = so3()
        rep = trivial_rep(g, 1)
        f = Cochain(3, g, 1, {(0, 1, 2): (5,)})
        df = delta(f, rep)
        assert df.n == 4
        assert df.values == {}
        assert df.is_zero()

    def test_seeded_cochains_across_catalog(self):
        rng = random.Random(5)
        for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=4, max_dim_v=4):
            for n in range(0, g.dim + 1):
                for _ in range(2):
                    f = random_cochain(rng, n, g, rep.dimV)
                    assert delta(f, rep) == oracle_delta(f, rep), (g_name, rep_name, n)


class TestSquareZero:
    def test_catalog(self):
        for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=4, max_dim_v=4):
            for n in range(0, g.dim + 1):
                prod = delta_matrix(n + 1, rep) @ delta_matrix(n, rep)
                assert prod.is_zero(), (g_name, rep_name, n)


class TestComplexCache:
    """Each representation keeps one cochain complex, which keeps the
    differentials and their eliminations; a kept answer must equal a fresh
    one in every order of queries."""

    def test_repeated_delta_matrix_is_equal(self):
        for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=4, max_dim_v=2):
            for n in range(0, g.dim + 2):
                first = delta_matrix(n, rep)
                assert delta_matrix(n, rep) == first
                assert delta_matrix(n, representation(g, rep_name)) == first, (g_name, rep_name, n)

    def test_cached_rank_matches_matrix_rank(self):
        for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=4, max_dim_v=4):
            for n in range(0, g.dim + 2):
                assert _complex(rep).rank(n) == delta_matrix(n, rep).rank(), (g_name, rep_name, n)

    def test_kept_rref_is_reduced(self):
        # each kept rref row in canonical scaled form: its denominator is its
        # pivot entry, so the pivot reads 1, and no other pivot column is set
        for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=4, max_dim_v=3):
            cx = _complex(rep)
            for n in range(g.dim + 1):
                cocycle_basis(n, rep)
                rows, pivots = cx._reduced[n]
                assert pivots == tuple(sorted(cx.echelon(n))), (g_name, rep_name, n)
                for p, (items, den) in zip(pivots, rows):
                    entries = dict(items)
                    assert den > 0 and min(entries) == p and entries[p] == den, (g_name, n)
                    assert gcd(den, *entries.values()) == 1
                    assert not set(entries) & set(pivots) - {p}

    def test_each_degree_is_eliminated_once(self, monkeypatch):
        # ranks read the kept forward pass alone; the vector queries
        # back-substitute that same pass, which stays as it was kept
        from lie2alg import linalg

        complex_class = cohomology_module._Complex
        for g_name, g, rep_name, _ in catalog_pairs(max_dim_g=3, max_dim_v=3):
            rep = representation(g, rep_name)
            passes, assembled = [], []
            real, assemble = linalg._forward, complex_class._assemble

            def forward(rows, cols):
                passes.append(len(rows))
                return real(rows, cols)

            def counted_assemble(self, n):
                assembled.append(n)
                return assemble(self, n)

            monkeypatch.setattr(cohomology_module, "_forward", forward)
            monkeypatch.setattr(complex_class, "_assemble", counted_assemble)
            dims = [cohomology_dim(n, rep) for n in range(g.dim + 1)]
            assert len(passes) == g.dim + 1 and sorted(assembled) == list(range(g.dim + 1))
            cx = _complex(rep)
            assert cx._reduced == {}   # no rref on rank-only queries
            kept = dict(cx._echelon)
            fresh = {n: real(*cx.rows(n)) for n in kept}
            bases = [cohomology_basis(n, rep) for n in range(g.dim + 1)]
            # one more pass per degree >= 1: the image pivots on the free rows
            assert len(passes) == 2 * (g.dim + 1) - 1
            assert sorted(assembled) == list(range(g.dim + 1))
            assert [len(b) for b in bases] == dims, (g_name, rep_name)
            assert set(cx._reduced) == set(kept)
            assert all(cx._echelon[n] is kept[n] == fresh[n] for n in kept)
            monkeypatch.undo()

    def test_query_order_does_not_matter(self):
        for g_name, g, rep_name, _ in catalog_pairs(max_dim_g=4, max_dim_v=3):
            basis_first = representation(g, rep_name)
            dim_first = representation(g, rep_name)
            assert basis_first == dim_first
            for n in range(0, g.dim + 1):
                b1 = cohomology_basis(n, basis_first)
                d1 = cohomology_dim(n, basis_first)
                d2 = cohomology_dim(n, dim_first)
                b2 = cohomology_basis(n, dim_first)
                assert (b1, d1) == (b2, d2), (g_name, rep_name, n)
                assert len(b1) == d1

    def test_equal_reps_do_not_share_a_cache(self):
        g = so3()
        a, b = adjoint_rep(g), adjoint_rep(g)
        delta_matrix(2, a)
        assert a == b and vars(a)["_kept_results"] is not vars(b).get("_kept_results")
        assert "complex" not in vars(b).get("_kept_results", {})
        assert _complex(b) is not _complex(a) and _complex(b)._rows == {}

    def test_kept_complex_does_not_keep_the_representation_alive(self):
        # reference counting alone must free it: no kept value refers back
        gc.disable()
        try:
            rep = adjoint_rep(so3())
            assert cohomology_dim(2, rep) == 0 and cohomology_basis(1, rep) == ()
            primitive = Cochain(1, rep.g, 3, {(0,): (1, 2, 3), (2,): (0, 0, 5)})
            assert is_coboundary(delta(primitive, rep), rep) is not None
            # ranks and the image pivots read the forward passes alone; only
            # the kernel vectors of cohomology_basis(1) read a back-substitution
            assert set(vars(rep)["_kept_results"]) == {"complex"}
            cx = vars(rep)["_kept_results"]["complex"]
            assert (set(cx._rows), set(cx._echelon), set(cx._reduced)) == ({0, 1, 2}, {0, 1, 2}, {1})
            ref = weakref.ref(rep)
            del rep
            assert ref() is None
        finally:
            gc.enable()


class TestDeltaMatrixShapes:
    def test_negative_degree_rejected(self):
        rep = trivial_rep(so3(), 1)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            delta_matrix(-1, rep)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            cohomology_basis(-1, rep)

    def test_beyond_dimension(self):
        g = so3()
        rep = trivial_rep(g, 1)
        m = delta_matrix(3, rep)
        assert m.rows == 0 and m.cols == 1

    def test_so3_trivial_top(self):
        m = delta_matrix(2, trivial_rep(so3(), 1))
        assert (m.rows, m.cols) == (1, 3)
        assert m.rank() == 0

    def test_so3_adjoint(self):
        m = delta_matrix(2, adjoint_rep(so3()))
        assert (m.rows, m.cols) == (3, 9)
        assert m.rank() == 3


class TestCocycleCoboundary:
    def test_zero_cochain(self):
        g = so3()
        rep = trivial_rep(g, 1)
        z = Cochain.zero(2, g, 1)
        assert is_cocycle(z, rep)
        prim = is_coboundary(z, rep)
        assert prim is not None and prim.is_zero()

    def test_top_degree_cocycle(self):
        g = so3()
        rep = trivial_rep(g, 1)
        f = Cochain(3, g, 1, {(0, 1, 2): (1,)})
        assert is_cocycle(f, rep)

    def test_volume_class_is_not_coboundary(self):
        g = so3()
        rep = trivial_rep(g, 1)
        f = Cochain(3, g, 1, {(0, 1, 2): (1,)})
        assert is_coboundary(f, rep) is None

    def test_adjoint_top_degree_always_bounds(self):
        g = so3()
        rep = adjoint_rep(g)
        rng = random.Random(4)
        for _ in range(5):
            f = Cochain(3, g, 3, {(0, 1, 2): tuple(rng.randint(-3, 3) for _ in range(3))})
            assert is_cocycle(f, rep)
            prim = is_coboundary(f, rep)
            assert prim is not None
            assert delta(prim, rep) == f

    def test_primitive_exactness(self):
        g = sl2()
        rep = adjoint_rep(g)
        f = Cochain(3, g, 3, {(0, 1, 2): (2, -1, 3)})
        prim = is_coboundary(f, rep)
        assert prim is not None
        assert delta(prim, rep) == f

    def test_degree_zero_rejected(self):
        g = so3()
        rep = trivial_rep(g, 1)
        with pytest.raises(ValueError):
            is_coboundary(Cochain.zero(0, g, 1), rep)


class TestCohomologyDims:
    def test_abelian2_trivial(self):
        rep = trivial_rep(abelian(2), 1)
        assert [cohomology_dim(n, rep) for n in range(3)] == [1, 2, 1]

    def test_so3_trivial(self):
        rep = trivial_rep(so3(), 1)
        assert [cohomology_dim(n, rep) for n in range(4)] == [1, 0, 0, 1]

    def test_so3_adjoint(self):
        rep = adjoint_rep(so3())
        assert [cohomology_dim(n, rep) for n in range(4)] == [0, 0, 0, 0]

    def test_degree_zero_is_invariants(self):
        g = so3()
        assert cohomology_dim(0, trivial_rep(g, 2)) == 2
        assert cohomology_dim(0, adjoint_rep(g)) == 0

    def test_degrees_above_dim_g_are_zero_without_building_tuples(self, monkeypatch):
        # C^n = 0 for n > dim g: no n-tuple is asked for, not even where
        # ``combinations`` could not hold one
        sizes = []
        real = cohomology_module.combinations
        monkeypatch.setattr(cohomology_module, "combinations",
                            lambda pool, r: sizes.append(r) or real(pool, r))
        for g in (abelian(0), abelian(2), so3(), sl2()):
            for rep in (trivial_rep(g, 2), adjoint_rep(g)):
                for n in (g.dim + 1, g.dim + 2, 2**62, 2**63 - 1, 2**63, 10**20):
                    assert cohomology_dim(n, rep) == 0 and cohomology_basis(n, rep) == ()
                # the degrees up to dim g answer as on a representation that kept nothing
                fresh = Representation(g, rep.dimV, rep.rho)
                assert ([cohomology_dim(n, rep) for n in range(g.dim + 1)]
                        == [cohomology_dim(n, fresh) for n in range(g.dim + 1)])
        assert max(sizes) <= 3

    def test_basis_spans(self):
        rep = trivial_rep(abelian(2), 1)
        assert len(cohomology_basis(1, rep)) == 2
        rep2 = trivial_rep(so3(), 1)
        (rep3,) = cohomology_basis(3, rep2)
        assert not rep3.is_zero()


def greedy_cohomology_basis(n, rep):
    """Reference: keep each kernel vector of delta_n, in order, that is
    independent of the image of delta_{n-1} and of the vectors kept so far."""
    dn = delta_matrix(n, rep)
    current = list(image_basis(delta_matrix(n - 1, rep)).basis) if n >= 1 else []
    chosen = []
    for cand in kernel_basis(dn).basis:
        if Matrix.from_columns(current + [cand], rows=dn.cols).rank() > len(current):
            current.append(cand)
            chosen.append(vec_to_cochain(n, rep.g, rep.dimV, cand))
    return tuple(chosen)


class TestCohomologyBasisAgainstGreedy:
    def test_catalog(self):
        for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=3, max_dim_v=3):
            for n in range(0, g.dim + 1):
                assert cohomology_basis(n, rep) == greedy_cohomology_basis(n, rep), (
                    g_name, rep_name, n,
                )


def scaled_direct_sum(names, rng):
    """The direct sum of catalog algebras with basis vector i scaled by a
    seeded d_i in {-2, -1, 1, 2}, as in the benchmark's cohomology items:
    [e_i, e_j] = sum_t d_i d_j / d_t sc[i][j][t] e_t."""
    parts = [lie_algebra(name) for name in names]
    n = sum(p.dim for p in parts)
    sc = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for p in parts:
        for i, j, t in product(range(p.dim), repeat=3):
            sc[off + i][off + j][off + t] = p.sc[i][j][t]
        off += p.dim
    d = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
    return LieAlgebra(n, [[[F(d[i] * d[j], d[t]) * sc[i][j][t] for t in range(n)]
                           for j in range(n)] for i in range(n)])


def benchmark_size_pairs():
    """4- and 5-dimensional direct sums with adjoint and trivial
    coefficients, the sizes the cohomology benchmark eliminates."""
    rng = random.Random(2024)
    for names, rep_names in ((("so3", "nonabelian2"), ("adjoint", "trivial1")),
                             (("heisenberg3", "nonabelian2"), ("adjoint+trivial1",)),
                             (("nonabelian2", "nonabelian2"), ("adjoint",))):
        g = scaled_direct_sum(names, rng)
        for rep_name in rep_names:
            yield f"{'+'.join(names)}/{rep_name}", g, representation(g, rep_name)


class TestOraclesAtBenchmarkSize:
    """The catalog oracles above, on the direct sums of the benchmark."""

    def test_delta_matrix_and_cohomology_basis(self):
        for name, g, rep in benchmark_size_pairs():
            for n in range(0, g.dim + 1):
                m = delta_matrix(n, rep)
                assert m == oracle_delta_matrix(n, rep), (name, n)
                assert m._rows == tuple(map(_scale, m.to_rows())), (name, n)
                assert cohomology_basis(n, rep) == greedy_cohomology_basis(n, rep), (name, n)

    def test_delta_is_the_matrix_applied(self):
        rng = random.Random(8)
        for name, g, rep in benchmark_size_pairs():
            for n in range(0, g.dim + 1):
                f = random_cochain(rng, n, g, rep.dimV)
                assert cochain_to_vec(delta(f, rep)) == delta_matrix(n, rep).apply(
                    cochain_to_vec(f)), (name, n)

    def test_is_coboundary_is_solve(self):
        rng = random.Random(13)
        decided = set()
        for name, g, rep in benchmark_size_pairs():
            for n in range(1, g.dim + 1):
                exact = delta(random_cochain(rng, n - 1, g, rep.dimV), rep)
                # a seeded cocycle off the image whenever H^n is nonzero
                values = dict(exact.values)
                for b in cohomology_basis(n, rep):
                    c = rng.choice((-2, -1, 1, 2))
                    values = {key: vec_add(v, vec_scale(c, b.values[key]))
                              for key, v in values.items()}
                cocycle = Cochain(n, g, rep.dimV, values)
                for f in (exact, cocycle, random_cochain(rng, n, g, rep.dimV)):
                    a = delta_matrix(n - 1, rep)
                    x = solve(a, Matrix.from_columns([cochain_to_vec(f)], rows=a.rows))
                    expected = (None if x is None
                                else vec_to_cochain(n - 1, g, rep.dimV, x.column(0)))
                    assert is_coboundary(f, rep) == expected, (name, n)
                    decided.add(expected is None)
        assert decided == {True, False}


class TestCohomologous:
    def test_equal_cochains_identity_maps(self):
        g = so3()
        rep = trivial_rep(g, 1)
        f = Cochain(3, g, 1, {(0, 1, 2): (1,)})
        phi = cohomologous(f, f, Matrix.identity(3), Matrix.identity(1), rep, rep)
        assert phi is not None and phi.is_zero()

    def test_scalar_rescaling(self):
        g = so3()
        rep = trivial_rep(g, 1)
        j = Cochain(3, g, 1, {(0, 1, 2): (1,)})
        k = Cochain(3, g, 1, {(0, 1, 2): (2,)})
        phi = cohomologous(j, k, Matrix.identity(3), Matrix.from_rows([[2]]), rep, rep)
        assert phi is not None and phi.is_zero()

    def test_not_cohomologous(self):
        g = so3()
        rep = trivial_rep(g, 1)
        j = Cochain(3, g, 1, {(0, 1, 2): (1,)})
        z = Cochain.zero(3, g, 1)
        assert cohomologous(j, z, Matrix.identity(3), Matrix.identity(1), rep, rep) is None

    def test_bad_psi_raises(self):
        g = so3()
        rep = trivial_rep(g, 1)
        f = Cochain.zero(3, g, 1)
        not_morphism = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        with pytest.raises(LieMorphismError):
            cohomologous(f, f, not_morphism, Matrix.identity(1), rep, rep)

    def test_bad_intertwiner_raises(self):
        g = so3()
        rep = adjoint_rep(g)
        f = Cochain.zero(3, g, 3)
        bad_t = Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        with pytest.raises(IntertwinerError):
            cohomologous(f, f, Matrix.identity(3), bad_t, rep, rep)

    def test_symmetry_with_invertible_maps(self):
        # if (J, K) are cohomologous under (psi, t), then (K, J) are
        # cohomologous under the inverse maps
        g = so3()
        rep = adjoint_rep(g)
        rng = random.Random(11)
        for _ in range(5):
            j = Cochain(3, g, 3, {(0, 1, 2): tuple(rng.randint(-2, 2) for _ in range(3))})
            k = Cochain(3, g, 3, {(0, 1, 2): tuple(rng.randint(-2, 2) for _ in range(3))})
            psi = Matrix.identity(3)
            t = Matrix.identity(3)
            fwd = cohomologous(j, k, psi, t, rep, rep)
            bwd = cohomologous(k, j, psi, t, rep, rep)
            assert (fwd is None) == (bwd is None)

    def test_pullback_along_rotation(self):
        # the cyclic basis rotation is an automorphism of so3 and also an
        # intertwiner of the adjoint representation with its own pullback;
        # adjoint-valued degree-3 classes vanish, so any pair must admit a
        # correction under these maps
        g = so3()
        rep = adjoint_rep(g)
        rot = Matrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        pulled = pullback_representation(rep, rot, g)
        rng = random.Random(2)
        j = Cochain(3, g, 3, {(0, 1, 2): tuple(rng.randint(-2, 2) for _ in range(3))})
        k = Cochain(3, g, 3, {(0, 1, 2): tuple(rng.randint(-2, 2) for _ in range(3))})
        phi = cohomologous(j, k, rot, rot, rep, pulled)
        assert phi is not None
        # exactness of the returned correction
        lhs = {
            key: vec_sub(
                rot.apply(j.values[key]),
                k.evaluate([rot.column(i) for i in key]),
            )
            for key in increasing_tuples(3, 3)
        }
        assert delta(phi, pulled) == Cochain(3, g, 3, lhs)


# ---------------------------------------------------------------------------
# evaluation and the structure laws against plain Fraction loops
# ---------------------------------------------------------------------------


def oracle_minor_det(vectors, rows):
    """det of the square minor picking the given coordinates of each vector."""
    total = F(0)
    for perm in permutations(range(len(vectors))):
        prod = F(perm_sign(perm))
        for col, r in enumerate(perm):
            prod *= vectors[col][rows[r]]
        total += prod
    return total


def oracle_evaluate(f, vectors):
    out = vec_zero(f.dimV)
    for key in increasing_tuples(f.g.dim, f.n):
        out = vec_add(out, vec_scale(oracle_minor_det(vectors, key), f.values[key]))
    return out


class TestEvaluateAgainstMinorDeterminants:
    @pytest.mark.parametrize("g", [so3(), abelian(4)], ids=["so3", "abelian4"])
    def test_degrees_zero_to_three(self, g):
        rng = random.Random(f"evaluate-{g.dim}")
        for n in range(4):
            for _ in range(15):
                f = random_cochain(rng, n, g, 2)
                vectors = [tuple(small_entry(rng) for _ in range(g.dim)) for _ in range(n)]
                cases = [vectors]
                if n >= 1:
                    cases.append(vectors[:-1] + [vec_zero(g.dim)])
                if n >= 2:
                    cases.append(vectors[:-1] + [vectors[0]])
                for args in cases:
                    assert f.evaluate(args) == oracle_evaluate(f, args), (n, args)

    def test_wrong_vector_lengths_rejected(self):
        f = Cochain(1, so3(), 1, {(0,): (1,), (1,): (2,), (2,): (3,)})
        assert f.evaluate([(1, 0, 0)]) == (F(1),)
        for bad in ((1, 0, 0, 5), (1, 0)):
            with pytest.raises(ValueError, match="length 3"):
                f.evaluate([bad])

    def test_rho_vec_wrong_lengths_rejected(self):
        rep = adjoint_rep(so3())
        assert rep.rho_vec((1, 0, 0)) == rep.rho[0]
        for bad in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError, match="length 3"):
                rep.rho_vec(bad)


LARGE_PRIMES = (999_953, 999_959, 999_961, 1_000_003, 1_000_033)


def large_entry(rng):
    return F(rng.randint(-10**6, 10**6) or 1, rng.choice(LARGE_PRIMES))


def naive_apply(m, v):
    return tuple(sum((m[i, k] * v[k] for k in range(m.cols)), F(0)) for i in range(m.rows))


def naive_mul(a, b):
    cols = [naive_apply(a, b.column(j)) for j in range(b.cols)]
    return Matrix.from_columns(cols, rows=a.rows)


def naive_bracket(sc, x, y):
    n = len(sc)
    return tuple(sum((x[i] * y[j] * sc[i][j][t]
                      for i in range(n) for j in range(n) if x[i] and y[j]), F(0))
                 for t in range(n))


def oracle_lie_error(dim, sc):
    """The message ``LieAlgebra(dim, sc)`` raises, or None."""
    for i in range(dim):
        for j in range(i, dim):
            if any(vec_add(sc[i][j], sc[j][i])):
                return f"structure constants not antisymmetric at ({i}, {j})"
    e = [basis_vec(dim, i) for i in range(dim)]
    for i, j, k in combinations(range(dim), 3):
        defect = vec_sub(vec_sub(naive_bracket(sc, e[i], sc[j][k]),
                                 naive_bracket(sc, sc[i][j], e[k])),
                         naive_bracket(sc, e[j], sc[i][k]))
        if any(defect):
            return f"Jacobi identity fails at ({i}, {j}, {k})"
    return None


def oracle_rep_error(g, mats):
    """The message ``Representation(g, dimV, mats)`` raises, or None."""
    for i, j in combinations(range(g.dim), 2):
        x = g.sc[i][j]
        lhs = Matrix.zero(mats[0].rows, mats[0].rows)
        for k in range(g.dim):
            lhs = lhs + x[k] * mats[k]
        if lhs != naive_mul(mats[i], mats[j]) - naive_mul(mats[j], mats[i]):
            return f"representation law fails at ({i}, {j})"
    return None


def oracle_is_intertwiner(t, source, target):
    """Entrywise `Fraction` check of t rho(e_i) == rho'(e_i) t for every
    basis e_i; False when t is not a map from source's space to target's."""
    n, m = t.rows, t.cols
    if (n, m) != (target.dimV, source.dimV):
        return False
    return all(sum((t[r, k] * a[k, c] for k in range(m)), F(0))
               == sum((b[r, k] * t[k, c] for k in range(n)), F(0))
               for a, b in zip(source.rho, target.rho) for r in range(n) for c in range(m))


def oracle_is_lie_morphism(psi, g, h):
    cols = [psi.column(i) for i in range(g.dim)]
    return all(naive_apply(psi, g.sc[i][j]) == naive_bracket(h.sc, cols[i], cols[j])
               for i, j in combinations(range(g.dim), 2))


def so3_plus_sl2():
    """Structure constants of so3 + sl2, so3 on the first three indices."""
    sc = [[[F(0)] * 6 for _ in range(6)] for _ in range(6)]
    for offset, part in ((0, so3()), (3, sl2())):
        for i in range(3):
            for j in range(3):
                for t in range(3):
                    sc[offset + i][offset + j][offset + t] = part.sc[i][j][t]
    return sc


def rational_basis(rng, n):
    """An invertible matrix with entries over large primes; its columns are a basis."""
    while True:
        p = Matrix.from_rows([[large_entry(rng) if rng.random() < 0.5 else F(int(r == c))
                               for c in range(n)] for r in range(n)])
        if invert(p) is not None:
            return p


def change_basis(sc, p):
    """Structure constants on the basis of the columns of ``p``."""
    n, inv = len(sc), invert(p)
    cols = [p.column(i) for i in range(n)]
    return [[list(naive_apply(inv, naive_bracket(sc, cols[i], cols[j]))) for j in range(n)]
            for i in range(n)]


def perturbed(m, rng):
    """``m`` with a large-denominator amount added to one random entry."""
    rows = [list(row) for row in m.to_rows()]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += large_entry(rng)
    return Matrix.from_rows(rows)


def raises_message(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestLawsAgainstOracle:
    """The Lie algebra, representation and Lie-morphism checks report the
    same first failing tuple as plain `Fraction` loops, on so3 + sl2 and its
    representations under basis changes with large prime denominators; the
    intertwiner check agrees with them on the catalog."""

    def test_lie_algebra_first_failure(self):
        rng = random.Random(71)
        seen = set()
        for trial in range(24):
            sc = change_basis(so3_plus_sl2(), rational_basis(rng, 6))
            assert raises_message(lambda: LieAlgebra(6, sc)) is None
            i, j = sorted(rng.sample(range(6), 2))
            t, c = rng.randrange(6), large_entry(rng)
            sc[i][j][t] += c
            if trial % 4:
                sc[j][i][t] -= c
            want = oracle_lie_error(6, sc)
            assert raises_message(lambda: LieAlgebra(6, sc)) == want
            seen.add(want)
        assert len(seen) > 3

    def test_scaled_constructor_first_failure(self):
        """``LieAlgebra._of`` on scaled structure constants runs the public
        constructor's checks, and its ``sc`` view is the input tensor."""
        rng = random.Random(74)
        seen = set()
        for trial in range(12):
            sc = change_basis(so3_plus_sl2(), rational_basis(rng, 6))
            g = LieAlgebra._of(6, _scale_tensor(sc, 2))
            assert g.sc == tuple(tuple(map(tuple, plane)) for plane in sc)
            assert g == LieAlgebra(6, sc)
            i, j = sorted(rng.sample(range(6), 2))
            t, c = rng.randrange(6), large_entry(rng)
            sc[i][j][t] += c
            if trial % 3:
                sc[j][i][t] -= c
            want = oracle_lie_error(6, sc)
            assert raises_message(lambda: LieAlgebra._of(6, _scale_tensor(sc, 2))) == want
            seen.add(want.split(" at ")[0])
        assert seen == {"structure constants not antisymmetric", "Jacobi identity fails"}

    def test_representation_first_failure(self):
        rng = random.Random(72)
        g = LieAlgebra(6, so3_plus_sl2())
        seen = set()
        for trial in range(12):
            q = rational_basis(rng, 6)
            q_inv = invert(q)
            mats = [q_inv @ g.ad(i) @ q for i in range(6)]
            assert raises_message(lambda: Representation(g, 6, tuple(mats))) is None
            k = rng.randrange(6)
            mats[k] = perturbed(mats[k], rng)
            want = oracle_rep_error(g, mats)
            assert raises_message(lambda: Representation(g, 6, tuple(mats))) == want
            seen.add(want)
        assert len(seen) > 2

    def test_lie_morphism_against_oracle(self):
        rng = random.Random(73)
        h = LieAlgebra(6, so3_plus_sl2())
        project = Matrix.from_rows([basis_vec(6, i) for i in range(3)])   # onto so3
        seen = set()
        for trial in range(16):
            p = rational_basis(rng, 6)
            g = LieAlgebra(6, change_basis(h.sc, p))
            for psi, source, target in ((p, g, h), (project @ p, g, so3()),
                                        (Matrix.identity(6), h, h)):
                if trial % 2:
                    psi = perturbed(psi, rng)
                want = oracle_is_lie_morphism(psi, source, target)
                assert is_lie_morphism(psi, source, target) == want
                seen.add(want)
        assert seen == {True, False}

    def test_intertwiner_against_oracle(self):
        """Every catalog representation up to dimension 4 against its own
        pullback and against its conjugate by a random invertible t, with t,
        t perturbed in one entry and maps of the wrong shape; on an abelian
        algebra, whose representations are all zero, also against the one
        where only the last basis element acts, as the identity."""
        rng = random.Random(75)
        seen = set()
        for g_name, g, _, rep in catalog_pairs(max_dim_g=4, max_dim_v=4):
            n = rep.dimV
            pulled = pullback_representation(rep, Matrix.identity(g.dim), g)
            t = rational_basis(rng, n)
            t_inv = invert(t)
            conj = Representation(g, n, tuple(t @ m @ t_inv for m in rep.rho))
            cases = [(Matrix.identity(n), pulled), (t, pulled), (t, conj),
                     (perturbed(t, rng), conj), (Matrix.identity(n + 1), pulled),
                     (Matrix.zero(n, n + 1), pulled), (Matrix.zero(n + 1, n), conj)]
            if g_name.startswith("abelian"):
                last = (Matrix.zero(n, n),) * (g.dim - 1) + (Matrix.identity(n),)
                cases.append((t, Representation(g, n, last)))
            for u, target in cases:
                want = oracle_is_intertwiner(u, rep, target)
                assert is_intertwiner(u, rep, target) == want
                seen.add((u.rows, u.cols) == (n, n) and want)
        assert seen == {True, False}


def _abelian4_acting_by_e0():
    """abelian4 on a line, e0 acting as the identity and the rest as zero."""
    return Representation(abelian(4), 1, (Matrix.identity(1),) + (Matrix.zero(1, 1),) * 3)


class TestRecordPreconditions:
    @pytest.mark.parametrize("build, message", [
        (lambda: Quadruple(so3(), -1, trivial_rep(so3()), Cochain.zero(3, so3(), 1)),
         "dim_u must be nonnegative"),
        (lambda: Quadruple(so3(), 0, trivial_rep(sl2()), Cochain.zero(3, so3(), 1)),
         "different Lie algebra"),
        (lambda: Quadruple(abelian(4), 0, _abelian4_acting_by_e0(),
                           Cochain(3, abelian(4), 1, {(1, 2, 3): (1,)})),
         "not a cocycle"),
        (lambda: Representation(so3(), 2, (Matrix.zero(2, 2),) * 2 + (Matrix.zero(3, 3),)),
         "must be 2x2"),
        (lambda: Representation(so3(), 1, (Matrix.zero(1, 1),) * 2),
         "one rho matrix per basis element"),
        (lambda: Cochain(2, so3(), 1, {(1, 0): (1,)}), "not an increasing 2-tuple"),
        (lambda: Cochain(2, so3(), 1, {range(2): (1,)}), "not an increasing 2-tuple"),
        (lambda: Cochain(1, so3(), 2, {(0,): (1,)}), "wrong length"),
        (lambda: Cochain.zero(2, so3(), 1).evaluate([(1, 0, 0)]), "expected 2 arguments"),
        (lambda: Cochain(-1, so3(), 1), "degree must be nonnegative"),
        (lambda: Cochain.zero(2, so3(), 1).value_at_basis((0, 5)),
         r"not 2 basis indices of g: \(0, 5\)"),
        (lambda: Cochain.zero(2, so3(), 1).value_at_basis((0,)),
         r"not 2 basis indices of g: \(0,\)"),
        (lambda: Cochain.zero(2, so3(), 1).value_at_basis((0, 0, 0)),
         r"not 2 basis indices of g: \(0, 0, 0\)"),
        (lambda: Cochain.zero(2, so3(), 1).value_at_basis((-1, 0)),
         r"not 2 basis indices of g: \(-1, 0\)"),
        (lambda: delta(Cochain.zero(1, so3(), 1), adjoint_rep(so3())), "different data"),
        (lambda: delta(Cochain.zero(1, sl2(), 1), trivial_rep(so3())), "different data"),
        (lambda: pullback_representation(adjoint_rep(so3()), Matrix.identity(2), so3()),
         "psi shape"),
        (lambda: is_coboundary(Cochain(1, so3(), 1, {(0,): (1,)}), trivial_rep(abelian(1))),
         "different data"),
        (lambda: is_coboundary(Cochain(2, so3(), 1, {(0, 1): (1,)}), adjoint_rep(so3())),
         "different data"),
    ], ids=["quadruple-dim-u", "quadruple-other-algebra", "quadruple-not-cocycle",
            "rep-matrix-size", "rep-matrix-count", "cochain-key", "cochain-key-not-a-tuple",
            "cochain-value-length", "evaluate-arity", "cochain-negative-degree",
            "value-at-basis-index-range", "value-at-basis-short", "value-at-basis-long",
            "value-at-basis-negative-index", "delta-dim-v", "delta-algebra", "pullback-psi-shape",
            "is-coboundary-algebra", "is-coboundary-dim-v"])
    def test_raises_value_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("degree_k, pullback_dim, source_dim, message", [
        (2, 1, 1, "same degree"),
        (3, 2, 1, "rep_target_pullback"),
        (3, 1, 2, "rep_source"),
    ], ids=["degrees", "pullback", "source"])
    def test_cohomologous_value_errors(self, degree_k, pullback_dim, source_dim, message):
        g = so3()
        with pytest.raises(ValueError, match=message):
            cohomologous(Cochain.zero(3, g, 1), Cochain.zero(degree_k, g, 1), Matrix.identity(3),
                         Matrix.identity(1), trivial_rep(g, source_dim),
                         trivial_rep(g, pullback_dim))

    def test_value_at_basis_on_good_tuples(self):
        # the checked tuples still evaluate: a repeat gives zero, a swap the sign
        f = Cochain(2, so3(), 1, {(0, 2): (3,)})
        assert f.value_at_basis((0, 2)) == (3,) and f.value_at_basis((2, 0)) == (-3,)
        assert f.value_at_basis((1, 1)) == (0,) and f.value_at_basis((0, 1)) == (0,)
        assert Cochain(0, so3(), 1, {(): (4,)}).value_at_basis(()) == (4,)

    def test_cohomologous_in_degree_zero(self):
        # the transfer difference of degree 0 is built, and is_coboundary refuses it
        g = so3()
        with pytest.raises(ValueError, match="is_coboundary needs degree >= 1"):
            cohomologous(Cochain(0, g, 1, {(): (1,)}), Cochain(0, g, 1, {(): (2,)}),
                         Matrix.identity(3), Matrix.identity(1), trivial_rep(g), trivial_rep(g))


def primes_from(start):
    """The primes from ``start`` on, by trial division."""
    n = start
    while True:
        if all(n % k for k in range(2, int(n ** 0.5) + 1)):
            yield n
        n += 1


def prime_matrix(rng, primes, rows, cols, invertible=False):
    """A matrix whose nonzero entries lie over two primes drawn from
    ``primes``, distinct from those of every other draw; invertible when asked."""
    p, q = next(primes), next(primes)
    while True:
        m = Matrix.from_rows([[F(rng.randint(-9, 9), rng.choice((p, q))) for _ in range(cols)]
                              for _ in range(rows)], cols=cols)
        if not invertible or invert(m) is not None:
            return m


def fraction_transfer_difference(J, K, psi, t):
    """The `Fraction` form ``_transfer_difference`` replaced."""
    cols = [psi.column(i) for i in range(J.g.dim)]
    return Cochain(J.n, J.g, K.dimV, {
        key: vec_sub(t.apply(J.values[key]), K.evaluate([cols[i] for i in key]))
        for key in increasing_tuples(J.g.dim, J.n)})


class TestScaledHelpersAgainstFractionForms:
    """``pullback_representation`` and ``_transfer_difference`` contract
    scaled columns; they equal the `Fraction` forms they replaced."""

    def test_pullback_against_rho_vec(self):
        rng, primes = random.Random(251), primes_from(101)
        h = LieAlgebra(6, so3_plus_sl2())
        project = Matrix.from_rows([basis_vec(6, i) for i in range(3)])   # onto so3
        cases = [(project, h, rep) for rep in (adjoint_rep(so3()), trivial_rep(so3(), 2))]
        for _, g, _, rep in catalog_pairs(max_dim_g=3, max_dim_v=3):
            p = prime_matrix(rng, primes, g.dim, g.dim, invertible=True)
            # p is an isomorphism from g in the basis of its columns onto g
            cases += [(Matrix.identity(g.dim), g, rep),
                      (p, LieAlgebra(g.dim, change_basis(g.sc, p)), rep)]
        for psi, source, rep in cases:
            assert is_lie_morphism(psi, source, rep.g)
            pulled = pullback_representation(rep, psi, source)
            want = tuple(rep.rho_vec(psi.column(i)) for i in range(source.dim))
            assert pulled.rho == want and pulled.g is source and pulled.dimV == rep.dimV
            assert [m._columns for m in pulled.rho] == [m._columns for m in want]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_transfer_difference_against_the_fraction_form(self, n):
        rng, primes = random.Random(252 + n), primes_from(101)
        h = LieAlgebra(6, so3_plus_sl2())
        for source, target in ((so3(), so3()), (sl2(), h), (abelian(4), sl2())):
            for dim_j, dim_k in ((1, 1), (2, 3), (3, 1), (0, 2), (2, 0)):
                psi = prime_matrix(rng, primes, target.dim, source.dim)
                t = prime_matrix(rng, primes, dim_k, dim_j)
                J = random_prime_cochain(rng, primes, n, source, dim_j)
                K = random_prime_cochain(rng, primes, n, target, dim_k)
                got = _transfer_difference(J, K, psi, t)
                want = fraction_transfer_difference(J, K, psi, t)
                assert got == want and got.values == want.values


def random_prime_cochain(rng, primes, n, g, dim_v):
    """A cochain whose nonzero values lie over two primes drawn from ``primes``."""
    p, q = next(primes), next(primes)
    return Cochain(n, g, dim_v, {key: [F(rng.randint(-9, 9), rng.choice((p, q)))
                                       for _ in range(dim_v)]
                                 for key in increasing_tuples(g.dim, n)})
