"""The package's record types: value semantics over ``_fields``.

The plain value records are `typing.NamedTuple`s; the records with a
constructor, checks or cached views share one base.  Either way a record
equals another of its type exactly when their field tuples are equal,
hashes as that tuple where the fields are hashable, refuses assignment and
shows its fields in its repr.  Views cached on one of two equal records
change neither ``==`` nor ``hash``.
"""

from fractions import Fraction
from functools import cached_property

import pytest

from lie2alg import (
    Element,
    Matrix,
    RandomProfile,
    Decomposition,
    ShuffleSet,
    Subspace,
    adjoint_rep,
    cartan_cocycle,
    decompose,
    example27_automorphism,
    extract_quadruple_maps,
    identity_morphism,
    invariants,
    normal_form,
    quaternion_example,
    shuffles,
    so3,
    verify,
)
from lie2alg.core import EquationFailure

V = "1+2i+3j+5k"


def _failing_report():
    L = quaternion_example(V)
    b00 = [[list(row) for row in plane] for plane in L.b00]
    b00[1][2][1] += 1
    b00[2][1][1] -= 1
    return verify(type(L)(4, 4, L.d, b00, L.b01, L.jac))


# each factory builds a new record, equal to the last one it built
FACTORIES = {
    "Matrix": lambda: Matrix(2, 3, [1, 2, 3, 0, Fraction(1, 2), -1]),
    "Subspace": lambda: Subspace(3, ((1, 0, 0), (0, 1, 1))),
    "Element": lambda: Element((1, 2), (Fraction(1, 3),)),
    "ShuffleSet": lambda: ShuffleSet(*shuffles(1, 2)),
    "TwoTermAlgebra": lambda: quaternion_example(V),
    "EquationFailure": lambda: EquationFailure("jacobi-defect", (1, 2, 3), (Fraction(1, 2),)),
    "VerificationReport": _failing_report,
    "Morphism": lambda: example27_automorphism(V),
    "LieAlgebra": so3,
    "Representation": lambda: adjoint_rep(so3()),
    "Cochain": lambda: cartan_cocycle(so3(), 2),
    "Quadruple": lambda: normal_form(quaternion_example(V)).quadruple,
    "Decomposition": lambda: decompose(quaternion_example(V)),
    "InvariantVector": lambda: invariants(quaternion_example(V)),
    "NormalFormResult": lambda: normal_form(quaternion_example(V)),
    "QuadrupleMaps": lambda: extract_quadruple_maps(
        identity_morphism(normal_form(quaternion_example(V)).algebra)),
    "RandomProfile": lambda: RandomProfile(max_dim_u=1),
}


def _values(record):
    return tuple(getattr(record, f) for f in type(record)._fields)


def _with(record, index, value):
    """A copy of ``record`` whose field ``index`` holds ``value``, built
    around the constructor, which would reject most such values."""
    values = list(_values(record))
    values[index] = value
    if isinstance(record, tuple):
        return type(record)(*values)
    out = object.__new__(type(record))
    out.__dict__.update(zip(type(record)._fields, values))
    return out


@pytest.mark.parametrize("name", FACTORIES)
def test_record_semantics(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    cls = type(a)
    assert cls.__name__ == name and a is not b
    for attr, member in vars(cls).items():
        if isinstance(member, cached_property):
            getattr(a, attr)   # cached on one side only

    assert _values(a) == _values(b)
    assert a == b and not a != b
    # a NamedTuple equals the plain tuple of its values; a record with a
    # constructor equals only records of its own type
    assert (a == _values(a)) is isinstance(a, tuple)
    try:
        expected_hash = hash(_values(a))
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected_hash

    for index, field in enumerate(cls._fields):
        twin = _with(a, index, getattr(a, field))
        assert twin == a
        changed = _with(a, index, object())
        assert changed != a and not changed == a, field
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b

    text = repr(a)
    assert text.startswith(f"{name}(")
    assert f"{cls._fields[0]}=" in text


def test_factories_cover_every_exported_record():
    import lie2alg

    exported = {name for name, obj in vars(lie2alg).items()
                if isinstance(obj, type) and hasattr(obj, "_fields")}
    assert exported <= set(FACTORIES)



def test_unchecked_constructor_takes_each_field_once():
    # a record without checks of its own (``Decomposition``) takes its
    # fields as given, by position or by name, and each exactly once
    dec = FACTORIES["Decomposition"]()
    values = _values(dec)
    fields = Decomposition._fields
    assert Decomposition(*values) == dec
    assert Decomposition(*values[:2], **dict(zip(fields[2:], values[2:]))) == dec
    assert Decomposition._of(*values) == dec
    for args, kwargs in [(values[:-1], {}), (values + (None,), {}),
                         (values, {fields[0]: values[0]}), (values[:-1], {"other": None})]:
        with pytest.raises(TypeError, match="Decomposition takes the fields source, g_basis"):
            Decomposition(*args, **kwargs)
