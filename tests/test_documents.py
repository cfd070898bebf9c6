import json
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from lie2alg import (
    Matrix,
    Morphism,
    TwoTermAlgebra,
    example27_automorphism,
    quaternion_example,
    skeletal_string,
    so3,
)
from lie2alg.core import _digits, perm_sign
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


# ---------------------------------------------------------------------------
# the first error of a document with two defects
# ---------------------------------------------------------------------------

DROP = object()   # a mutation value: the list at that path loses its last element

_ZERO32 = TwoTermAlgebra.zero(3, 2)
_FIRST_ERROR_DOCS = {
    "algebra": (algebra_to_document(_ZERO32), algebra_from_document),
    "morphism": (morphism_to_document(Morphism(
        _ZERO32, TwoTermAlgebra.zero(2, 4), Matrix.zero(2, 3), Matrix.zero(4, 2),
        [[[0] * 4] * 3] * 3)), morphism_from_document),
    "maps": (maps_to_document(Matrix.zero(2, 3), Matrix.zero(3, 1), Matrix.zero(2, 2)),
             maps_from_document),
    "transport": (transport_to_document(Matrix.zero(3, 3), Matrix.zero(2, 2),
                                        [[[0] * 2] * 3] * 3),
                  lambda doc: transport_from_document(doc, _ZERO32)),
}


def _mutated(doc, mutations):
    doc = json.loads(json.dumps(doc))
    for path, value in mutations:
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = holder[path[-1]][:-1] if value is DROP else value
    return doc


# (document kind, two defects in reading order, the message of the first)
_FIRST_ERRORS = [
    ("algebra", [(("d", 0, 1), "1.5"), (("d", 2, 0), "1/0")],
     "d[0][1]: invalid rational '1.5'"),
    ("algebra", [(("d", 1, 0), "3/0"), (("d", 2), DROP)],
     "d[1][0]: zero denominator in '3/0'"),
    ("algebra", [(("d", 1), DROP), (("d", 2, 1), "x")], "d[1]: expected length 2"),
    ("algebra", [(("d",), DROP), (("d", 0, 0), "x")], "d: expected length 3"),
    ("algebra", [(("d", 1), 7), (("d", 2, 0), "1.5")], "d[1]: expected length 2"),
    ("algebra", [(("d", 2, 1), "1.5"), (("b00", 0, 0, 0), "x")],
     "d[2][1]: invalid rational '1.5'"),
    ("algebra", [(("b00", 0, 2, 1), "1.5"), (("b00", 1, 0, 0), "1/0")],
     "b00[0][2][1]: invalid rational '1.5'"),
    ("algebra", [(("b00", 1, 2, 0), " 2/0 "), (("b00", 2), DROP)],
     "b00[1][2][0]: zero denominator in ' 2/0 '"),
    ("algebra", [(("b00", 1, 1), DROP), (("b00", 1, 2, 2), "y")],
     "b00[1][1]: expected length 3"),
    ("algebra", [(("b00", 0, 0, 0), "1/0"), (("b00", 2), DROP)],
     "b00[0][0][0]: zero denominator in '1/0'"),
    ("algebra", [(("b00", 0, 1), None), (("b00", 0, 2, 0), "1.5")],
     "b00[0][1]: expected length 3"),
    ("algebra", [(("b00", 0, 0, 1), True), (("b00", 0, 0, 2), 1.5)],
     "b00[0][0][1]: invalid rational True"),
    ("algebra", [(("b00", 2, 2, 2), 1.5), (("b01", 0, 0, 0), "x")],
     "b00[2][2][2]: invalid rational 1.5"),
    ("algebra", [(("b01", 2, 0, 1), "1e3"), (("b01", 2, 1), DROP)],
     "b01[2][0][1]: invalid rational '1e3'"),
    ("algebra", [(("b01", 0), DROP), (("b01", 1, 0, 0), "x")], "b01[0]: expected length 2"),
    ("algebra", [(("b01", 1, 1), DROP), (("b01", 2, 0, 0), "1/0")],
     "b01[1][1]: expected length 2"),
    ("algebra", [(("b01", 1, 0, 1), "-4/-0"), (("jac",), 7)],
     "b01[1][0][1]: zero denominator in '-4/-0'"),
    ("algebra", [(("b01",), "b01"), (("jac", 0), DROP)], "b01: expected length 3"),
    ("algebra", [(("jac", 1, 0, 2), DROP), (("jac", 1, 2, 0, 0), "1.5")],
     "jac[1][0][2]: expected length 2"),
    ("algebra", [(("jac", 0, 1, 2, 1), "1/0"), (("jac", 0, 2), DROP)],
     "jac[0][1][2][1]: zero denominator in '1/0'"),
    ("algebra", [(("jac", 2, 2, 2, 0), "٣"), (("jac", 2, 2, 2, 1), "1/0")],
     "jac[2][2][2][0]: invalid rational '٣'"),
    ("algebra", [(("jac",), 7), (("b00", 0, 0, 0), "1")], "jac: expected length 3"),
    ("algebra", [(("jac", 1), {}), (("jac", 2, 0, 0, 0), "x")], "jac[1]: expected length 3"),
    ("algebra", [(("b00", 0, 0, 0), "1"), (("jac", 2, 2, 2, 1), "x")],
     "jac[2][2][2][1]: invalid rational 'x'"),
    ("morphism", [(("source", "d", 2, 1), "1.5"), (("phi0", 0, 0), "x")],
     "d[2][1]: invalid rational '1.5'"),
    ("morphism", [(("target", "jac", 0, 0), DROP), (("phi0", 0, 0), "x")],
     "jac[0][0]: expected length 2"),
    ("morphism", [(("phi0", 0), DROP), (("phi0", 1, 2), "1.5")], "phi0[0]: expected length 3"),
    ("morphism", [(("phi0", 0, 1), "5/0"), (("phi0", 1, 0), "x")],
     "phi0[0][1]: zero denominator in '5/0'"),
    ("morphism", [(("phi0",), DROP), (("phi1", 0, 0), "x")], "phi0: expected length 2"),
    ("morphism", [(("phi0", 1, 2), "y"), (("phi1", 0, 0), "x")],
     "phi0[1][2]: invalid rational 'y'"),
    ("morphism", [(("phi1", 2, 1), "1.5"), (("phi1", 3, 0), "1/0")],
     "phi1[2][1]: invalid rational '1.5'"),
    ("morphism", [(("phi1", 3), DROP), (("Phi", 0), DROP)], "phi1[3]: expected length 2"),
    ("morphism", [(("phi1", 0, 1), "2/+0"), (("Phi",), None)],
     "phi1[0][1]: zero denominator in '2/+0'"),
    ("morphism", [(("Phi", 2, 1), DROP), (("Phi", 2, 2, 3), "z")], "Phi[2][1]: expected length 4"),
    ("morphism", [(("Phi", 0, 0, 3), "1/00"), (("Phi", 0, 1), DROP)],
     "Phi[0][0][3]: zero denominator in '1/00'"),
    ("morphism", [(("Phi", 1), None), (("Phi", 2, 0, 0), "x")], "Phi[1]: expected length 3"),
    ("morphism", [(("Phi", 1, 1, 1), "1//2"), (("Phi", 2), DROP)],
     "Phi[1][1][1]: invalid rational '1//2'"),
    ("maps", [(("chi", 1), DROP), (("fU", 0, 0), "x")], "chi[1]: expected length 3"),
    ("maps", [(("chi", 0, 2), "1.5"), (("chi", 1), DROP)], "chi[0][2]: invalid rational '1.5'"),
    ("maps", [(("chi", 1, 1), "x"), (("fU",), "bad")], "chi[1][1]: invalid rational 'x'"),
    ("maps", [(("chi",), {}), (("fU",), 5)], "chi: expected a matrix (list of rows)"),
    ("maps", [(("fU", 2, 0), "1/0"), (("tV", 0, 0), "x")], "fU[2][0]: zero denominator in '1/0'"),
    ("maps", [(("fU", 1), 5), (("fU", 2, 0), "x")], "fU[1]: expected length 1"),
    ("maps", [(("fU", 0), "r"), (("tV",), 5)], "fU[0]: expected a row (list of entries)"),
    ("maps", [(("tV",), 5), (("tV",), 5)], "tV: expected a matrix (list of rows)"),
    ("maps", [(("tV", 1), ["1", "2", "3"]), (("tV", 1, 0), "x")], "tV[1]: expected length 2"),
    ("maps", [(("tV", 1, 1), "1 /2"), (("tV", 0), 5)], "tV[0]: expected a row (list of entries)"),
    ("transport", [(("phi0", 2), DROP), (("phi1", 0, 0), "x")], "phi0[2]: expected length 3"),
    ("transport", [(("phi0", 1, 1), "1.5"), (("phi1", 0, 0), "1/0")],
     "phi0[1][1]: invalid rational '1.5'"),
    ("transport", [(("phi0",), []), (("Phi",), None)], "phi0: expected length 3"),
    ("transport", [(("phi1", 1, 0), "7/0"), (("phi1", 1, 1), "x")],
     "phi1[1][0]: zero denominator in '7/0'"),
    ("transport", [(("phi1",), DROP), (("Phi", 0, 0, 0), "x")], "phi1: expected length 2"),
    ("transport", [(("phi1", 0), "row"), (("phi1", 1), DROP)], "phi1[0]: expected length 2"),
    ("transport", [(("Phi", 0, 2), DROP), (("Phi", 1, 0, 0), "x")],
     "Phi[0][2]: expected length 2"),
    ("transport", [(("Phi", 2, 1, 1), "--1"), (("Phi", 2, 2), DROP)],
     "Phi[2][1][1]: invalid rational '--1'"),
    ("transport", [(("Phi", 1, 0, 0), "0/0"), (("Phi", 2), 3)],
     "Phi[1][0][0]: zero denominator in '0/0'"),
    ("transport", [(("Phi",), None), (("phi0", 0, 0), "1")], "Phi: expected length 3"),
]


@pytest.mark.parametrize("kind,mutations,message", _FIRST_ERRORS)
def test_first_error_of_two_defects(kind, mutations, message):
    doc, read = _FIRST_ERROR_DOCS[kind]
    with pytest.raises(DocumentError) as info:
        read(_mutated(doc, mutations))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# the codec against a Fraction oracle: parse_rational per entry, the public
# constructors, and json's own encoder
# ---------------------------------------------------------------------------

_BIG = 7 * 10 ** 4999 + 3    # 5,000 digits, past the default int-to-str limit


def _fraction_tensor(data, shape, where):
    if not isinstance(data, list) or len(data) != shape[0]:
        raise DocumentError(f"{where}: expected length {shape[0]}")
    if len(shape) == 1:
        return tuple(parse_rational(e, f"{where}[{k}]") for k, e in enumerate(data))
    return tuple(_fraction_tensor(sub, shape[1:], f"{where}[{i}]") for i, sub in enumerate(data))


def _fraction_matrix(data, rows, cols, where):
    return Matrix.from_rows(_fraction_tensor(data, (rows, cols), where), cols=cols)


def _fraction_algebra(doc):
    n0, n1 = doc["n0"], doc["n1"]
    return TwoTermAlgebra(n0, n1, _fraction_matrix(doc["d"], n0, n1, "d"),
                          _fraction_tensor(doc["b00"], (n0, n0, n0), "b00"),
                          _fraction_tensor(doc["b01"], (n0, n1, n1), "b01"),
                          _fraction_tensor(doc["jac"], (n0, n0, n0, n1), "jac"))


def _fraction_morphism(doc):
    s, t = _fraction_algebra(doc["source"]), _fraction_algebra(doc["target"])
    return Morphism(s, t, _fraction_matrix(doc["phi0"], t.n0, s.n0, "phi0"),
                    _fraction_matrix(doc["phi1"], t.n1, s.n1, "phi1"),
                    _fraction_tensor(doc["Phi"], (s.n0, s.n0, t.n1), "Phi"))


def _fraction_maps(doc):
    return tuple(_fraction_matrix(doc[k], len(doc[k]), len(doc[k][0]) if doc[k] else 0, k)
                 for k in ("chi", "fU", "tV"))


def _fraction_lists(t, depth):
    if depth == 1:
        return [format_rational(e) for e in t]
    return [_fraction_lists(sub, depth - 1) for sub in t]


def _json_text(doc):
    return json.dumps(doc, indent=2) + "\n"


def _algebra_lists(L):
    return {"format_version": "1", "kind": "algebra", "n0": L.n0, "n1": L.n1,
            "d": _fraction_lists(L.d.to_rows(), 2), "b00": _fraction_lists(L.b00, 3),
            "b01": _fraction_lists(L.b01, 3), "jac": _fraction_lists(L.jac, 4)}


def _morphism_lists(m):
    return {"format_version": "1", "kind": "morphism", "source": _algebra_lists(m.source),
            "target": _algebra_lists(m.target), "phi0": _fraction_lists(m.phi0.to_rows(), 2),
            "phi1": _fraction_lists(m.phi1.to_rows(), 2), "Phi": _fraction_lists(m.Phi, 3)}


_values = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    st.sampled_from([F(_BIG), F(-_BIG, 9), F(5, _BIG), F(_BIG, _BIG + 2)]),
)


@st.composite
def _spelled(draw, x):
    """A non-canonical but valid spelling of the rational ``x``."""
    if x == 0 and draw(st.booleans()):
        return draw(st.sampled_from(["-0", "+0", "0/7", "0/-3", "-0/5", 0]))
    k = draw(st.sampled_from([1, 1, 2, 3, -1, -2]))
    text = f"{_digits(k * x.numerator)}/{_digits(k * x.denominator)}"
    if k == 1 and x.denominator == 1:
        if abs(x) < 1000 and draw(st.booleans()):
            return int(x)                     # a JSON integer
        text = _digits(x.numerator)
    if not text.startswith("-") and draw(st.booleans()):
        text = "+" + text
    return f" {text} " if draw(st.booleans()) else text


@st.composite
def _entries(draw, shape, alternating=0):
    """Spelled nested lists of lengths ``shape``, alternating in their
    first ``alternating`` indices."""
    values = {}
    for idx in product(*map(range, shape)):
        head, key = idx[:alternating], tuple(sorted(idx[:alternating])) + idx[alternating:]
        if len(set(head)) < len(head):
            values[idx] = F(0)
        else:   # the sorted index comes first in lexicographic order
            values[idx] = draw(_values) if idx == key else perm_sign(head) * values[key]

    def nest(prefix):
        if len(prefix) == len(shape):
            return draw(_spelled(values[prefix]))
        return [nest(prefix + (i,)) for i in range(shape[len(prefix)])]
    return nest(())


@st.composite
def _algebra_docs(draw):
    n0, n1 = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    return {"format_version": "1", "kind": "algebra", "n0": n0, "n1": n1,
            "d": draw(_entries((n0, n1))), "b00": draw(_entries((n0, n0, n0), 2)),
            "b01": draw(_entries((n0, n1, n1))), "jac": draw(_entries((n0, n0, n0, n1), 3))}


@st.composite
def _morphism_docs(draw):
    s, t = draw(_algebra_docs()), draw(_algebra_docs())
    return {"format_version": "1", "kind": "morphism", "source": s, "target": t,
            "phi0": draw(_entries((t["n0"], s["n0"]))), "phi1": draw(_entries((t["n1"], s["n1"]))),
            "Phi": draw(_entries((s["n0"], s["n0"], t["n1"])))}


@st.composite
def _maps_docs(draw):
    doc = {"format_version": "1", "kind": "maps"}
    for key in ("chi", "fU", "tV"):
        rows = draw(st.integers(0, 3))
        doc[key] = draw(_entries((rows, draw(st.integers(1, 3)) if rows else 0)))
    return doc


_CODEC = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestCodecAgainstFractionOracle:
    @_CODEC
    @given(doc=_algebra_docs())
    def test_algebra(self, doc):
        L = algebra_from_document(doc)
        assert L == _fraction_algebra(doc)
        text = dumps(algebra_to_document(L))
        assert text == _json_text(_algebra_lists(_fraction_algebra(doc)))
        again = algebra_from_document(loads(text))
        assert again == L and dumps(algebra_to_document(again)) == text

    @_CODEC
    @given(doc=_morphism_docs())
    def test_morphism(self, doc):
        m = morphism_from_document(doc)
        assert m == _fraction_morphism(doc)
        text = dumps(morphism_to_document(m))
        assert text == _json_text(_morphism_lists(_fraction_morphism(doc)))
        again = morphism_from_document(loads(text))
        assert again == m and dumps(morphism_to_document(again)) == text

    @_CODEC
    @given(doc=_maps_docs())
    def test_maps(self, doc):
        maps = maps_from_document(doc)
        assert maps == _fraction_maps(doc)
        text = dumps(maps_to_document(*maps))
        assert text == _json_text({"format_version": "1", "kind": "maps", **{
            k: _fraction_lists(x.to_rows(), 2) for k, x in zip(("chi", "fU", "tV"), maps)}})
        assert dumps(maps_to_document(*maps_from_document(loads(text)))) == text

    @_CODEC
    @given(data=st.data(), n0=st.integers(0, 3), n1=st.integers(0, 2))
    def test_transport(self, data, n0, n1):
        doc = {"format_version": "1", "kind": "transport",
               "phi0": data.draw(_entries((n0, n0))), "phi1": data.draw(_entries((n1, n1))),
               "Phi": data.draw(_entries((n0, n0, n1)))}
        L = TwoTermAlgebra.zero(n0, n1)
        phi0, phi1, Phi = transport_from_document(doc, L)
        assert phi0 == _fraction_matrix(doc["phi0"], n0, n0, "phi0")
        assert phi1 == _fraction_matrix(doc["phi1"], n1, n1, "phi1")
        assert Phi == _fraction_tensor(doc["Phi"], (n0, n0, n1), "Phi")
        text = dumps(transport_to_document(phi0, phi1, Phi))
        assert text == _json_text({"format_version": "1", "kind": "transport",
                                   "phi0": _fraction_lists(phi0.to_rows(), 2),
                                   "phi1": _fraction_lists(phi1.to_rows(), 2),
                                   "Phi": _fraction_lists(Phi, 3)})
        assert dumps(transport_to_document(*transport_from_document(loads(text), L))) == text


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(value=_json_values)
def test_dumps_is_json_with_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1.9, -0.0,
                                   [], {}, [[]], {"a": {}}, "é \x00\"\\", (1, (2,)),
                                   [""], [[], "a"], ["a", ["b", "c"], [["1/2", ""]], "é"],
                                   {"x": [["-3/7", "0"], ["1", "é\n"]], "y": ["z"]},
                                   ("a", ("b",)), [1, "a", None, ["b", 2.5]]])
def test_dumps_is_json_with_indent_2_on_edge_values(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"
