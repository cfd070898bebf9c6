import random
from fractions import Fraction

import pytest

from lie2alg import (
    Cochain,
    Matrix,
    Quadruple,
    TwoTermAlgebra,
    abelian,
    adjoint_rep,
    cartan_cocycle,
    direct_sum_rep,
    example27_automorphism,
    heisenberg3,
    killing_form,
    lie_algebra,
    nonabelian2,
    normal_form,
    normal_form_algebra,
    parse_quaternion,
    quaternion_example,
    random_algebra,
    representation,
    skeletal_string,
    sl2,
    so3,
    trivial_rep,
    verify,
    verify_morphism,
)
from lie2alg.builders import (
    RandomProfile,
    ZERO_PROFILE,
    catalog_pairs,
    qmul,
    quaternion,
)

F = Fraction


class TestQuaternionArithmetic:
    def test_multiplication_table(self):
        one = quaternion(1)
        i = quaternion(0, 1)
        j = quaternion(0, 0, 1)
        k = quaternion(0, 0, 0, 1)
        assert qmul(i, j) == k
        assert qmul(j, k) == i
        assert qmul(k, i) == j
        assert qmul(j, i) == quaternion(0, 0, 0, -1)
        assert qmul(i, i) == quaternion(-1)
        assert qmul(j, j) == quaternion(-1)
        assert qmul(k, k) == quaternion(-1)
        assert qmul(qmul(i, j), k) == quaternion(-1)
        assert qmul(one, i) == i

    def test_associativity_sample(self):
        rng = random.Random(1)
        for _ in range(20):
            a, b, c = (
                quaternion(*(rng.randint(-3, 3) for _ in range(4))) for _ in range(3)
            )
            assert qmul(qmul(a, b), c) == qmul(a, qmul(b, c))

    def test_parse(self):
        assert parse_quaternion("1+2i+3j+5k") == (F(1), F(2), F(3), F(5))
        assert parse_quaternion("0") == (F(0), F(0), F(0), F(0))
        assert parse_quaternion("i") == (F(0), F(1), F(0), F(0))
        assert parse_quaternion("-j+k") == (F(0), F(0), F(-1), F(1))
        assert parse_quaternion("1/2+3/4i") == (F(1, 2), F(3, 4), F(0), F(0))
        assert parse_quaternion("7i-j") == (F(0), F(7), F(-1), F(0))

    def test_parse_rejects_garbage(self):
        for bad in ("", "x", "1.5", "++i"):
            with pytest.raises(ValueError):
                parse_quaternion(bad)


class TestQuaternionExample:
    def test_jacobiator_values(self):
        L = quaternion_example("1+2i+3j+5k")
        assert L.jac[1][2][3] == (F(0), F(2), F(3), F(5))
        assert L.jac[0][1][2] == (F(0),) * 4
        assert L.jac[2][1][3] == (F(0), F(-2), F(-3), F(-5))

    def test_only_imaginary_part_enters(self):
        assert quaternion_example("1+2i+3j+5k") == quaternion_example("2i+3j+5k")
        assert quaternion_example("1") == quaternion_example("0")

    @pytest.mark.parametrize("v", ["0", "1", "i", "1+2i+3j+5k", "-1/2i+7k"])
    def test_always_verifies(self, v):
        assert verify(quaternion_example(v)).passed


class TestExample27:
    def test_phi_values(self):
        m = example27_automorphism("1+2i+3j+5k")
        assert m.Phi[1][2] == (F(0), F(0), F(0), F(1))     # 1 * k
        assert m.Phi[2][3] == (F(0), F(2), F(0), F(0))     # 2 * i
        assert m.Phi[3][1] == (F(0), F(0), F(-3), F(0))    # Re(v(k-i)) = -5+2
        assert m.Phi[0][1] == (F(0),) * 4

    def test_linear_part_is_cyclic(self):
        m = example27_automorphism("0")
        assert m.phi0.column(1) == (F(0), F(0), F(1), F(0))   # i -> j
        assert m.phi0.column(2) == (F(0), F(0), F(0), F(1))   # j -> k
        assert m.phi0.column(3) == (F(0), F(1), F(0), F(0))   # k -> i
        assert m.phi0 == m.phi1

    @pytest.mark.parametrize("v", ["0", "1+2i+3j+5k"])
    def test_verifies(self, v):
        assert verify_morphism(example27_automorphism(v)).passed


class TestKillingForm:
    def test_abelian_is_zero(self):
        assert killing_form(abelian(3)).is_zero()

    def test_so3(self):
        assert killing_form(so3()) == Matrix.from_rows(
            [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
        )

    def test_sl2(self):
        kf = killing_form(sl2())
        assert kf[0, 0] == F(8)
        assert kf[1, 2] == F(4)
        assert kf[2, 1] == F(4)
        assert kf[1, 1] == F(0)
        assert kf[0, 1] == F(0)

    def test_invariance(self):
        for g in (so3(), sl2(), heisenberg3(), nonabelian2()):
            kf = killing_form(g)
            n = g.dim
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        # K([x,y],z) + K(y,[x,z]) = 0
                        lhs = sum(
                            (g.sc[x][y][t] * kf[t, z] for t in range(n)), F(0)
                        )
                        rhs = sum(
                            (g.sc[x][z][t] * kf[y, t] for t in range(n)), F(0)
                        )
                        assert lhs + rhs == 0

    def test_semisimple_nondegenerate(self):
        assert killing_form(so3()).rank() == 3
        assert killing_form(sl2()).rank() == 3


class TestSkeletalString:
    def test_zero_scaling(self):
        L = skeletal_string(so3(), 0)
        assert all(
            all(all(c == 0 for c in row) for row in plane)
            for block in L.jac
            for plane in block
        )

    def test_so3_value(self):
        L = skeletal_string(so3(), 1)
        assert L.jac[0][1][2] == (F(-2),)

    def test_scaling_is_linear(self):
        a = skeletal_string(so3(), 2)
        assert a.jac[0][1][2] == (F(-4),)

    def test_abelian_gives_zero(self):
        L = skeletal_string(abelian(3), 5)
        assert verify(L).passed
        q_jac_empty = all(
            all(all(c == 0 for c in row) for row in plane)
            for block in L.jac
            for plane in block
        )
        assert q_jac_empty

    def test_structure(self):
        L = skeletal_string(so3(), 1)
        assert (L.n0, L.n1) == (3, 1)
        assert L.d.is_zero()
        assert verify(L).passed

    def test_nonsemisimple_catalog_entries_still_cocycles(self):
        for g in (heisenberg3(), nonabelian2(), abelian(2)):
            assert verify(skeletal_string(g, 3)).passed


class TestNormalFormAlgebra:
    def test_zero_quadruple(self):
        g = abelian(0)
        q = Quadruple(g, 0, trivial_rep(g, 0), Cochain.zero(3, g, 0))
        assert normal_form_algebra(q) == TwoTermAlgebra.zero(0, 0)

    def test_quaternion_identification(self):
        # assembling the rotation algebra with the adjoint action and the
        # imaginary-part cocycle gives exactly the normalized quaternionic
        # algebra
        v = "1+2i+3j+5k"
        g = so3()
        jt = Cochain(3, g, 3, {(0, 1, 2): (2, 3, 5)})
        q = Quadruple(g, 1, adjoint_rep(g), jt)
        assert normal_form_algebra(q) == normal_form(quaternion_example(v)).algebra

    def test_skeletal_string_shape(self):
        g = so3()
        q = Quadruple(g, 0, trivial_rep(g, 1), cartan_cocycle(g, 1))
        assert normal_form_algebra(q) == skeletal_string(g, 1)

    def test_invalid_quadruple_rejected(self):
        g = so3()
        rep = trivial_rep(g, 1)
        not_cocycle = Cochain(2, g, 1, {(0, 1): (1,)})
        with pytest.raises(ValueError):
            Quadruple(g, 0, rep, not_cocycle)

    def test_output_always_verifies(self):
        rng = random.Random(8)
        for g_name, g, rep_name, rep in catalog_pairs(max_dim_g=3, max_dim_v=3):
            from lie2alg.builders import random_cocycle

            jt = random_cocycle(rng, rep, 2)
            q = Quadruple(g, rng.randint(0, 2), rep, jt)
            assert verify(normal_form_algebra(q)).passed


class TestCatalog:
    def test_lookup(self):
        assert lie_algebra("abelian4").dim == 4
        assert lie_algebra("so3").sc == so3().sc
        with pytest.raises(ValueError):
            lie_algebra("e8")

    def test_representations(self):
        g = so3()
        assert representation(g, "trivial").dimV == 1
        assert representation(g, "trivial3").dimV == 3
        assert representation(g, "adjoint").dimV == 3
        assert representation(g, "adjoint+trivial2").dimV == 5
        with pytest.raises(ValueError):
            representation(g, "spin7")

    def test_direct_sum_blocks(self):
        g = so3()
        rep = direct_sum_rep(adjoint_rep(g), trivial_rep(g, 1))
        assert rep.rho[0].column(3) == (F(0),) * 4

    def test_direct_sum_over_different_algebras_rejected(self):
        with pytest.raises(ValueError, match="same Lie algebra"):
            direct_sum_rep(trivial_rep(so3()), trivial_rep(sl2()))


class TestRandomAlgebra:
    def test_deterministic(self):
        assert random_algebra(7) == random_algebra(7)
        assert random_algebra(7, RandomProfile()) == random_algebra(7)

    def test_zero_profile(self):
        assert random_algebra(3, ZERO_PROFILE) == TwoTermAlgebra.zero(0, 0)

    def test_sample_verifies(self):
        for seed in range(30):
            assert verify(random_algebra(seed)).passed

    def test_negative_max_dim_u_is_rejected(self):
        with pytest.raises(ValueError, match=r"^max_dim_u must be nonnegative, got -1$"):
            random_algebra(0, RandomProfile(max_dim_u=-1))

    def test_profile_restriction(self):
        profile = RandomProfile(algebras=("so3",), representations=("adjoint",), max_dim_u=0)
        L = random_algebra(5, profile)
        assert (L.n0, L.n1) == (3, 3)
