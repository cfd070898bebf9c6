from fractions import Fraction

import pytest

from lie2alg import (
    Matrix,
    Morphism,
    TwoTermAlgebra,
    compose,
    example27_automorphism,
    identity_morphism,
    inverse,
    is_isomorphism,
    quaternion_example,
    random_algebra,
    verify_morphism,
)
from lie2alg.core import zero_tensor
from lie2alg.morphisms import EQ_JACOBIATOR_COMPAT

F = Fraction
V = "1+2i+3j+5k"


class TestVerifyMorphism:
    def test_identity_passes(self):
        m = identity_morphism(quaternion_example(V))
        assert verify_morphism(m).passed

    @pytest.mark.parametrize("v", ["0", "1", "i", V])
    def test_automorphism_passes(self, v):
        m = example27_automorphism(v)
        assert verify_morphism(m).passed
        assert is_isomorphism(m)

    def test_zero_correction_breaks_compat(self):
        # the cyclic rotation needs its correction: zeroing it must surface
        # in the Jacobiator compatibility equation
        m = example27_automorphism(V)
        stripped = Morphism(
            m.source, m.target, m.phi0, m.phi1, zero_tensor((4, 4, 4))
        )
        report = verify_morphism(stripped)
        assert not report.passed
        assert report.failure_for(EQ_JACOBIATOR_COMPAT) is not None

    def test_phi_antisymmetry_checked(self):
        L = quaternion_example("0")
        Phi = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        Phi[0][1][2] = 1  # not mirrored
        m = Morphism(L, L, Matrix.identity(4), Matrix.identity(4), Phi)
        report = verify_morphism(m)
        assert report.structure_errors

    def test_dimension_mismatch_rejected(self):
        L = quaternion_example("0")
        Z = TwoTermAlgebra.zero(2, 2)
        with pytest.raises(ValueError):
            Morphism(L, Z, Matrix.identity(4), Matrix.identity(4), zero_tensor((4, 4, 4)))

    @pytest.mark.parametrize("phi1", [Matrix.identity(3), Matrix.zero(4, 3)],
                             ids=["phi1-square", "phi1-columns"])
    def test_phi1_of_the_wrong_shape_rejected(self, phi1):
        L = quaternion_example(V)
        with pytest.raises(ValueError, match="phi1 must be 4x4"):
            Morphism(L, L, Matrix.identity(4), phi1, zero_tensor((4, 4, 4)))


class TestCompose:
    def test_identity_left_right(self):
        m = example27_automorphism(V)
        ident = identity_morphism(m.source)
        assert compose(ident, m) == m
        assert compose(m, ident) == m

    def test_with_inverse_is_identity(self):
        m = example27_automorphism(V)
        inv = inverse(m)
        assert inv is not None
        assert compose(m, inv) == identity_morphism(m.source)
        assert compose(inv, m) == identity_morphism(m.source)

    def test_triple_composition_is_linear_identity(self):
        m = example27_automorphism(V)
        cubed = compose(compose(m, m), m)
        assert cubed.phi0 == Matrix.identity(4)
        assert cubed.phi1 == Matrix.identity(4)
        assert verify_morphism(cubed).passed

    def test_associativity(self):
        m = example27_automorphism(V)
        inv = inverse(m)
        a, b, c = m, m, inv
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left == right

    def test_closure_under_composition(self):
        # normalizing morphisms composed with transport morphisms stay valid
        for seed in range(6):
            L = random_algebra(seed)
            from lie2alg import normal_form

            res = normal_form(L)
            back = inverse(res.morphism)
            loop = compose(res.morphism, back)
            assert verify_morphism(loop).passed
            assert loop == identity_morphism(L)

    def test_source_target_mismatch(self):
        m = example27_automorphism(V)
        other = identity_morphism(quaternion_example("0"))
        with pytest.raises(ValueError):
            compose(m, other)


class TestInverse:
    def test_identity(self):
        ident = identity_morphism(quaternion_example("1"))
        assert inverse(ident) == ident

    def test_automorphism_inverse_verifies(self):
        m = example27_automorphism(V)
        inv = inverse(m)
        assert inv is not None
        assert verify_morphism(inv).passed

    def test_double_inverse(self):
        m = example27_automorphism(V)
        assert inverse(inverse(m)) == m

    def test_zero_map_not_invertible(self):
        L = quaternion_example("0")
        m = Morphism(L, L, Matrix.zero(4, 4), Matrix.zero(4, 4), zero_tensor((4, 4, 4)))
        assert inverse(m) is None
        assert not is_isomorphism(m)

    def test_non_square_not_isomorphism(self):
        # inclusion of the zero algebra into a bigger one
        Z = TwoTermAlgebra.zero(0, 0)
        L = TwoTermAlgebra.zero(2, 1)
        incl = Morphism(Z, L, Matrix.zero(2, 0), Matrix.zero(1, 0), ())
        assert verify_morphism(incl).passed
        assert not is_isomorphism(incl)
