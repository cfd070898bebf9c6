from fractions import Fraction

import pytest

from lie2alg import (
    Matrix,
    TwoTermAlgebra,
    example27_automorphism,
    quaternion_example,
    skeletal_string,
    so3,
)
from lie2alg.documents import (
    DocumentError,
    algebra_from_document,
    algebra_to_document,
    dumps,
    format_rational,
    load_algebra,
    load_morphism,
    loads,
    maps_from_document,
    maps_to_document,
    morphism_from_document,
    morphism_to_document,
    parse_rational,
    save_document,
    transport_from_document,
    transport_to_document,
)

F = Fraction


class TestRationalStrings:
    def test_canonical_format(self):
        assert format_rational(F(3)) == "3"
        assert format_rational(F(-3, 4)) == "-3/4"
        assert format_rational(F(0)) == "0"
        assert format_rational(F(2, 4)) == "1/2"

    def test_parse_accepts_and_canonicalizes(self):
        assert parse_rational("2/4", "x") == F(1, 2)
        assert parse_rational("-6/-4", "x") == F(3, 2)
        assert parse_rational("+5", "x") == F(5)

    def test_parse_rejects(self):
        for bad in ("1.5", "a", "1/0", "", "1/2/3"):
            with pytest.raises(DocumentError):
                parse_rational(bad, "x")


class TestAlgebraRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: quaternion_example("1+2i+3j+5k"),
            lambda: skeletal_string(so3(), 1),
            lambda: TwoTermAlgebra.zero(0, 0),
            lambda: TwoTermAlgebra.zero(3, 2),
        ],
    )
    def test_parse_serialize_identity(self, make):
        L = make()
        doc = algebra_to_document(L)
        text = dumps(doc)
        again = algebra_from_document(loads(text))
        assert again == L
        assert dumps(algebra_to_document(again)) == text

    def test_serialize_canonicalizes(self):
        doc = algebra_to_document(TwoTermAlgebra.zero(1, 1))
        doc["d"] = [["2/4"]]
        L = algebra_from_document(doc)
        assert L.d[0, 0] == F(1, 2)
        assert algebra_to_document(L)["d"] == [["1/2"]]

    def test_metadata_preserved_on_write(self):
        doc = algebra_to_document(TwoTermAlgebra.zero(1, 0), name="zero")
        assert doc["name"] == "zero"

    def test_antisymmetry_violation_located(self):
        doc = algebra_to_document(TwoTermAlgebra.zero(2, 0))
        doc["b00"] = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
        with pytest.raises(DocumentError, match=r"antisymmetry violated at \(0, 0\)"):
            algebra_from_document(doc)

    def test_shape_error_located(self):
        doc = algebra_to_document(TwoTermAlgebra.zero(2, 1))
        doc["d"] = [["0"]]
        with pytest.raises(DocumentError, match="d"):
            algebra_from_document(doc)

    def test_bad_rational_located(self):
        doc = algebra_to_document(TwoTermAlgebra.zero(1, 1))
        doc["d"] = [["nope"]]
        with pytest.raises(DocumentError, match=r"d\[0\]\[0\]"):
            algebra_from_document(doc)

    def test_version_checked(self):
        doc = algebra_to_document(TwoTermAlgebra.zero(1, 1))
        doc["format_version"] = "99"
        with pytest.raises(DocumentError, match="format_version"):
            algebra_from_document(doc)

    def test_kind_checked(self):
        doc = algebra_to_document(TwoTermAlgebra.zero(1, 1))
        doc["kind"] = "algebra?"
        with pytest.raises(DocumentError, match="kind"):
            algebra_from_document(doc)

    @pytest.mark.parametrize("bad", [True, False, "\u0661", "1/\u0662", "\uff11"],
                             ids=["true", "false", "arabic-indic", "arabic-indic-den",
                                  "fullwidth"])
    def test_entries_reject_booleans_and_non_ascii_digits(self, bad):
        doc = algebra_to_document(TwoTermAlgebra.zero(1, 1))
        doc["d"] = [[bad]]
        with pytest.raises(DocumentError, match=r"d\[0\]\[0\]: invalid rational"):
            algebra_from_document(loads(dumps(doc)))

    @pytest.mark.parametrize("bad", [1.9, True, "1", None])
    def test_dimensions_must_be_json_integers(self, bad):
        doc = algebra_to_document(TwoTermAlgebra.zero(1, 1))
        doc["n0"] = bad
        with pytest.raises(DocumentError, match="n0/n1"):
            algebra_from_document(doc)


class TestMorphismDocuments:
    def test_inline_round_trip(self):
        m = example27_automorphism("1+2i+3j+5k")
        doc = morphism_to_document(m)
        again = morphism_from_document(loads(dumps(doc)))
        assert again == m

    def test_path_references(self, tmp_path):
        m = example27_automorphism("i")
        alg_path = tmp_path / "quat.json"
        save_document(str(alg_path), algebra_to_document(m.source))
        doc = morphism_to_document(m, source_path="quat.json", target_path="quat.json")
        mor_path = tmp_path / "mor.json"
        save_document(str(mor_path), doc)
        again = load_morphism(str(mor_path))
        assert again == m

    def test_bad_reference_type(self):
        doc = {
            "format_version": "1",
            "kind": "morphism",
            "source": 7,
            "target": 8,
            "phi0": [],
            "phi1": [],
            "Phi": [],
        }
        with pytest.raises(DocumentError, match="source"):
            morphism_from_document(doc)


class TestMapsAndTransport:
    def test_maps_round_trip(self):
        chi = Matrix.identity(3)
        f_u = Matrix.zero(0, 0)
        t_v = Matrix.from_rows([[2]])
        doc = loads(dumps(maps_to_document(chi, f_u, t_v)))
        chi2, fu2, tv2 = maps_from_document(doc)
        assert (chi2, fu2, tv2) == (chi, f_u, t_v)

    def test_maps_nonlist_row(self):
        doc = maps_to_document(Matrix.identity(1), Matrix.zero(0, 0), Matrix.identity(1))
        doc["chi"] = [5]
        with pytest.raises(DocumentError, match=r"chi\[0\]"):
            maps_from_document(doc)

    def test_transport_round_trip(self):
        L = quaternion_example("0")
        m = example27_automorphism("0")
        doc = loads(dumps(transport_to_document(m.phi0, m.phi1, m.Phi)))
        phi0, phi1, Phi = transport_from_document(doc, L)
        assert phi0 == m.phi0 and phi1 == m.phi1 and Phi == m.Phi

    def test_transport_shape_checked(self):
        L = quaternion_example("0")
        doc = transport_to_document(Matrix.identity(3), Matrix.identity(4),
                                    [[[0] * 4] * 4] * 4)
        with pytest.raises(DocumentError):
            transport_from_document(doc, L)


class TestFiles:
    def test_load_missing_file(self):
        with pytest.raises(DocumentError, match="cannot read"):
            load_algebra("/nonexistent/never.json")

    def test_invalid_json(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            loads("{not json")

    def test_deep_nesting(self):
        depth = 50_000
        with pytest.raises(DocumentError, match="nested too deeply"):
            loads("[" * depth + "]" * depth)

    def test_save_load(self, tmp_path):
        L = skeletal_string(so3(), 2)
        path = tmp_path / "s.json"
        save_document(str(path), algebra_to_document(L))
        assert load_algebra(str(path)) == L

    def test_byte_determinism(self):
        L = quaternion_example("1+2i+3j+5k")
        assert dumps(algebra_to_document(L)) == dumps(algebra_to_document(L))
