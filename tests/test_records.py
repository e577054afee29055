"""The record types: named tuples with a fixed shape."""

import json

import pytest

from gbsyz import Integers, IntegersMod, dsl, groebner, poly, syzygy

# (type, _fields, _field_defaults)
RECORDS = [
    (poly.Mono, ("exps", "pos"), {}),
    (poly.Term, ("coeff", "mono"), {}),
    (poly.Ambient, ("ring", "nvars", "rank"), {}),
    (groebner.DivisionResult, ("quotients", "remainder"), {}),
    (groebner.SPair, ("value", "left_cofactor", "right_cofactor", "kind"), {}),
    (groebner.GroebnerBasis, ("elements", "order"), {}),
    (groebner.TermCertificate, ("entries",), {}),
    (dsl.ProblemFile,
     ("ring", "var_names", "rank", "order", "ambient", "poly_ambient", "generators"), {}),
    (syzygy.Certificate, ("basis", "pairs", "unreduced"), {}),
    (syzygy.SyzygyBasis, ("relations", "order", "source", "labels", "certificate"),
     {"certificate": None}),
    (syzygy.ResolutionLevel, ("basis", "order", "labels", "certificate"), {"certificate": None}),
    (syzygy.FreeTail, ("kind",), {"kind": "free"}),
    (syzygy.PeriodicTail, ("b", "ann_b", "ann_ann_b", "positions", "stable_index", "kind"),
     {"kind": "periodic"}),
    (syzygy.Resolution, ("ambient", "levels", "tail"), {}),
    (syzygy.VerificationReport, ("ok", "checks"), {}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_shape(cls, fields, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert issubclass(cls, tuple)
    rec = cls(*range(len(fields)))
    assert not hasattr(rec, "__dict__")
    changed = rec._replace(**{fields[0]: "x"})
    assert type(changed) is cls
    assert changed == ("x",) + tuple(range(1, len(fields)))
    assert rec == tuple(range(len(fields)))
    required = len(fields) - len(defaults)
    assert cls(*range(required)) == tuple(range(required)) + tuple(defaults.values())


def test_record_reprs_and_json():
    # error texts interpolate monomials and ambients, and `reduction_step`
    # trace events print `lm` through json
    assert repr(poly.Mono((1, 0), 2)) == "Mono(exps=(1, 0), pos=2)"
    assert repr(poly.Ambient(Integers(), 2, 1)) == "Ambient(ring=Z, nvars=2, rank=1)"
    assert repr(poly.Ambient(IntegersMod(12), 2, 3)) == "Ambient(ring=Z/12, nvars=2, rank=3)"
    assert json.dumps(poly.Mono((1, 0), 2)) == "[[1, 0], 2]"
    assert json.dumps({"lm": poly.Mono((0, 3), 0)}, default=str) == '{"lm": [[0, 3], 0]}'


def test_records_with_methods_keep_them():
    res = syzygy.Resolution(None, ((), (), ()), syzygy.FreeTail())
    assert (res.length, res.quotient_length) == (2, 3)
    assert res._replace(levels=((),)).length == 0
    report = syzygy.VerificationReport(False, ({"ok": True}, {"ok": False}))
    assert report.failures() == [{"ok": False}]
    assert repr(syzygy.FreeTail()) == "FreeTail(kind='free')"
