"""Interchange documents: JSON with canonical rational strings.

Rationals travel as strings "p" or "p/q" with q > 0 and gcd(|p|, q) = 1;
negative values carry a leading '-' and there is never a '+'.  Parsing
accepts any valid integer ratio (e.g. "2/4") and canonicalizes on write, so
serialize(parse(doc)) is the canonical form and round-trips bit-exactly on
already canonical documents.  Numbers of any length are written and read,
also past Python's int-to-str digit limit.

Document kinds:

* ``algebra``   : dims + d/b00/b01/jac tensors (and optional metadata);
* ``morphism``  : source/target (inline algebra or file path), phi0/phi1/Phi;
* ``maps``      : chi/fU/tV matrices for isomorphism certification;
* ``transport`` : phi0/phi1/Phi for structure transport.

Matrices and tensors travel as nested lists of rational strings.  A shape
error names the index path of the offending list and the length expected
there (for example ``jac[0][1][2]: expected length 3``), of the first
defect in reading order.  Documents are read into and written from the
stored scaled form of ``linalg`` (``_read``, ``_text``), with no `Fraction`
views; ``dumps`` indents by itself, as json indents in pure Python.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from .linalg import Matrix, _scale_ratios, _transpose, rat
from .core import (TwoTermAlgebra, _digits, _int_text, _rational_text, _unscale_tensor,
                   structure_violations)
from .morphisms import Morphism

FORMAT_VERSION = "1"

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[+-]?[0-9]+)?\Z")


class DocumentError(ValueError):
    """Malformed document; the message names the offending location."""


format_rational = _rational_text


def _ratio(text, where: str) -> tuple[int, int]:
    """The reduced (p, q), q > 0, of the document rational ``text``."""
    if type(text) is int:
        return text, 1
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise DocumentError(f"{where}: invalid rational {text!r}")
    num, _, den = text.strip().partition("/")
    p, q = _int_text(num), _int_text(den) if den else 1
    if q == 0:
        raise DocumentError(f"{where}: zero denominator in {text!r}")
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def parse_rational(text, where: str) -> Fraction:
    return Fraction(*_ratio(text, where))


def _read(data, shape: tuple[int, ...], where: str):
    """The scaled tensor of ``data``: nested lists of lengths ``shape`` with
    rationals at the leaves; an error names its index path below ``where``."""
    if not isinstance(data, list) or len(data) != shape[0]:
        raise DocumentError(f"{where}: expected length {shape[0]}")
    if len(shape) > 1:
        return tuple([_read(sub, shape[1:], f"{where}[{i}]") for i, sub in enumerate(data)])
    return _scale_ratios([(t, r) for t, e in enumerate(data)     # most entries are "0"
                          if e != "0" and (r := _ratio(e, f"{where}[{t}]"))[0]])


def _text(x: int, den: int) -> str:
    """The canonical text of the rational x / den."""
    g = gcd(x, den)
    return _digits(x // g) if g == den else f"{_digits(x // g)}/{_digits(den // g)}"


def _lists(t, depth: int, n: int) -> list:
    """The texts of a scaled tensor with length-``n`` leaves ``depth`` indices deep."""
    if depth:
        return [_lists(sub, depth - 1, n) for sub in t]
    texts = ["0"] * n
    for k, x in t[0]:
        texts[k] = _text(x, t[1])
    return texts


# ---------------------------------------------------------------------------
# algebra documents
# ---------------------------------------------------------------------------


def algebra_to_document(L: TwoTermAlgebra, name: str | None = None,
                        provenance: str | None = None) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": "algebra"}
    if name is not None:
        doc["name"] = name
    if provenance is not None:
        doc["provenance"] = provenance
    d, b00, b01, _, jac = L._scaled
    doc["n0"], doc["n1"] = L.n0, L.n1
    doc["d"] = _lists(_transpose(d, L.n0), 1, L.n1)
    doc["b00"] = _lists(b00, 2, L.n0)
    doc["b01"] = _lists(b01, 2, L.n1)
    doc["jac"] = _lists(jac, 3, L.n1)
    return doc


def _check_header(doc, kind: str) -> None:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(
            f"format_version: expected {FORMAT_VERSION!r}, got {doc.get('format_version')!r}"
        )
    if doc.get("kind") != kind:
        raise DocumentError(f"kind: expected {kind!r}, got {doc.get('kind')!r}")


def algebra_from_document(doc: dict) -> TwoTermAlgebra:
    """Parse and structurally validate an algebra document.

    Shape errors and antisymmetry violations raise DocumentError with the
    offending location; equation failures are not checked here.
    """
    _check_header(doc, "algebra")
    n0, n1 = doc.get("n0"), doc.get("n1")
    # bool is an int subclass; 1.9, true and "1" are not dimensions
    if type(n0) is not int or type(n1) is not int:
        raise DocumentError(f"n0/n1: expected JSON integers, got {n0!r}, {n1!r}")
    if n0 < 0 or n1 < 0:
        raise DocumentError("n0/n1 must be nonnegative")
    for key in ("d", "b00", "b01", "jac"):
        if key not in doc:
            raise DocumentError(f"missing field {key!r}")
    d = _transpose(_read(doc["d"], (n0, n1), "d"), n1)
    b00 = _read(doc["b00"], (n0, n0, n0), "b00")
    b01 = _read(doc["b01"], (n0, n1, n1), "b01")
    jac = _read(doc["jac"], (n0, n0, n0, n1), "jac")
    L = TwoTermAlgebra._of(n0, n1, d, b00, b01, jac)
    violations = structure_violations(L)
    if violations:
        raise DocumentError(violations[0])
    return L


# ---------------------------------------------------------------------------
# morphism documents
# ---------------------------------------------------------------------------


def morphism_to_document(m: Morphism, source_path: str | None = None,
                         target_path: str | None = None) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": "morphism"}
    doc["source"] = algebra_to_document(m.source) if source_path is None else source_path
    doc["target"] = algebra_to_document(m.target) if target_path is None else target_path
    phi0, phi1, Phi = m._scaled
    doc["phi0"] = _lists(_transpose(phi0, m.target.n0), 1, m.source.n0)
    doc["phi1"] = _lists(_transpose(phi1, m.target.n1), 1, m.source.n1)
    doc["Phi"] = _lists(Phi, 2, m.target.n1)
    return doc


def _resolve_algebra_ref(ref, base_dir: str, where: str) -> TwoTermAlgebra:
    if isinstance(ref, dict):
        return algebra_from_document(ref)
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        return load_algebra(path)
    raise DocumentError(f"{where}: must be an inline algebra document or a file path")


def morphism_from_document(doc: dict, base_dir: str = ".") -> Morphism:
    _check_header(doc, "morphism")
    source = _resolve_algebra_ref(doc.get("source"), base_dir, "source")
    target = _resolve_algebra_ref(doc.get("target"), base_dir, "target")
    phi0 = _transpose(_read(doc.get("phi0"), (target.n0, source.n0), "phi0"), source.n0)
    phi1 = _transpose(_read(doc.get("phi1"), (target.n1, source.n1), "phi1"), source.n1)
    Phi = _read(doc.get("Phi"), (source.n0, source.n0, target.n1), "Phi")
    return Morphism._of(source, target, (phi0, phi1, Phi))


# ---------------------------------------------------------------------------
# map documents
# ---------------------------------------------------------------------------


def maps_to_document(chi: Matrix, f_u: Matrix, t_v: Matrix) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "maps",
        "chi": _lists(chi._rows, 1, chi.cols),
        "fU": _lists(f_u._rows, 1, f_u.cols),
        "tV": _lists(t_v._rows, 1, t_v.cols),
    }


def maps_from_document(doc: dict) -> tuple[Matrix, Matrix, Matrix]:
    _check_header(doc, "maps")
    out = []
    for key in ("chi", "fU", "tV"):
        data = doc.get(key)
        if not isinstance(data, list):
            raise DocumentError(f"{key}: expected a matrix (list of rows)")
        if data and not isinstance(data[0], list):
            raise DocumentError(f"{key}[0]: expected a row (list of entries)")
        rows = len(data)
        cols = len(data[0]) if rows else 0
        out.append(Matrix._of(_read(data, (rows, cols), key), cols))
    return tuple(out)


def transport_to_document(phi0: Matrix, phi1: Matrix, Phi) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "transport",
        "phi0": _lists(phi0._rows, 1, phi0.cols),
        "phi1": _lists(phi1._rows, 1, phi1.cols),
        "Phi": [[[_text(*rat(x).as_integer_ratio()) for x in leaf] for leaf in plane]
                for plane in Phi],
    }


def transport_from_document(doc: dict, L: TwoTermAlgebra):
    phi0, phi1, Phi = _transport_maps(doc, L)
    return phi0, phi1, _unscale_tensor(Phi, 2, L.n1)


def _transport_maps(doc: dict, L: TwoTermAlgebra):
    """``transport_from_document``, its correction left in scaled form."""
    _check_header(doc, "transport")
    phi0 = Matrix._of(_read(doc.get("phi0"), (L.n0, L.n0), "phi0"), L.n0)
    phi1 = Matrix._of(_read(doc.get("phi1"), (L.n1, L.n1), "phi1"), L.n1)
    return phi0, phi1, _read(doc.get("Phi"), (L.n0, L.n0, L.n1), "Phi")


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for string dict keys, with json's C
    functions for strings and scalars (its indenting encoder is pure Python)."""
    return _json(doc, "\n") + "\n"


def _json(value, newline: str) -> str:
    """``value`` as JSON whose lines start with ``newline``, indented by 2."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        items = [encode_basestring_ascii(v) if isinstance(v, str) else _json(v, inner)
                 for v in value]
        return f"[{inner}{f',{inner}'.join(items)}{newline}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{f',{inner}'.join(items)}{newline}}}" if items else "{}"
    return json.dumps(value)


def _object(pairs: list) -> dict:
    """A JSON object, which must not repeat a key (json alone keeps the last)."""
    obj, seen = dict(pairs), set()
    if len(obj) < len(pairs):
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise DocumentError(f"invalid JSON: repeated key {key!r}")
    return obj


# one decoder for every document: json.loads with a hook builds a new scanner
# per call, and on CPython 3.11.7 that keeps about 60 bytes per new document
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def loads(text: str) -> dict:
    try:
        if text.startswith("\ufeff"):       # json.loads' own check, as it words it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from None


def load_algebra(path: str) -> TwoTermAlgebra:
    return algebra_from_document(load_document(path))


def load_morphism(path: str) -> Morphism:
    return morphism_from_document(load_document(path), base_dir=os.path.dirname(path) or ".")


def save_document(path: str, doc: dict) -> None:
    text = dumps(doc)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror}") from None
