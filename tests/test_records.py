"""The record types: named tuples with a fixed shape."""

import copy
import json
import pickle

import pytest

from gbsyz import Integers, IntegersMod, dsl, groebner, poly, syzygy

# (type, _fields, _field_defaults, defining module)
RECORDS = [
    (poly.Mono, ("exps", "pos"), {}, poly),
    (poly.Term, ("coeff", "mono"), {}, poly),
    (poly.Ambient, ("ring", "nvars", "rank"), {}, poly),
    (groebner.DivisionResult, ("quotients", "remainder"), {}, groebner),
    (groebner.SPair, ("value", "left_cofactor", "right_cofactor", "kind"), {}, groebner),
    (groebner.GroebnerBasis, ("elements", "order"), {}, groebner),
    (groebner.TermCertificate, ("entries",), {}, groebner),
    (dsl.ProblemFile,
     ("ring", "var_names", "rank", "order", "ambient", "poly_ambient", "generators"), {}, dsl),
    (syzygy.Certificate, ("basis", "pairs", "unreduced"), {}, syzygy),
    (syzygy.SyzygyBasis, ("relations", "order", "source", "labels", "certificate"),
     {"certificate": None}, syzygy),
    (syzygy.ResolutionLevel, ("basis", "order", "labels", "certificate"), {"certificate": None},
     syzygy),
    (syzygy.FreeTail, ("kind",), {"kind": "free"}, syzygy),
    (syzygy.PeriodicTail, ("b", "ann_b", "ann_ann_b", "positions", "stable_index", "kind"),
     {"kind": "periodic"}, syzygy),
    (syzygy.Resolution, ("ambient", "levels", "tail"), {}, syzygy),
    (syzygy.VerificationReport, ("ok", "checks"), {}, syzygy),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults, module", RECORDS, ids=IDS)
def test_record_shape(cls, fields, defaults, module):
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
    assert [getattr(rec, field) for field in fields] == list(range(len(fields)))


@pytest.mark.parametrize("cls, fields, defaults, module", RECORDS, ids=IDS)
def test_record_construction_by_keyword(cls, fields, defaults, module):
    values = dict(zip(fields, range(len(fields))))
    rec = cls(**values)
    assert type(rec) is cls and rec == tuple(range(len(fields)))
    required = {f: v for f, v in values.items() if f not in defaults}
    assert cls(**required) == tuple(required.values()) + tuple(defaults.values())
    # positional and keyword arguments mix as in a call
    assert cls(0, **{f: v for f, v in values.items() if f != fields[0]}) == rec


@pytest.mark.parametrize("cls, fields, defaults, module", RECORDS, ids=IDS)
def test_record_make_asdict_and_match_args(cls, fields, defaults, module):
    rec = cls._make(iter(range(len(fields))))
    assert type(rec) is cls and rec == cls(*range(len(fields)))
    assert rec._asdict() == dict(zip(fields, range(len(fields))))
    assert list(rec._asdict()) == list(fields)
    assert cls.__match_args__ == fields
    with pytest.raises(TypeError):
        cls._make(range(len(fields) + 1))


@pytest.mark.parametrize("cls, fields, defaults, module", RECORDS, ids=IDS)
def test_record_copy_and_pickle(cls, fields, defaults, module):
    rec = cls(*[[k] for k in range(len(fields))])
    for twin in (copy.copy(rec), copy.deepcopy(rec),
                 *(pickle.loads(pickle.dumps(rec, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(twin) is cls
        assert twin == rec
    assert copy.deepcopy(rec)[0] is not rec[0]


@pytest.mark.parametrize("cls, fields, defaults, module", RECORDS, ids=IDS)
def test_record_module(cls, fields, defaults, module):
    # pickle finds a record class through its module
    assert cls.__module__ == module.__name__
    assert getattr(module, cls.__name__) is cls


@pytest.mark.parametrize("cls, fields, defaults, module", RECORDS, ids=IDS)
def test_record_wrong_arguments(cls, fields, defaults, module):
    with pytest.raises(TypeError):
        cls(*range(len(fields) + 1))
    required = len(fields) - len(defaults)
    if required:
        with pytest.raises(TypeError):
            cls(*range(required - 1))
    with pytest.raises(TypeError):
        cls(*range(len(fields)), nonesuch=0)
    with pytest.raises(TypeError):
        cls(*range(len(fields)), **{fields[0]: 0})
    with pytest.raises(ValueError):
        cls(*range(len(fields)))._replace(nonesuch=0)


def test_record_match_statement():
    match poly.Mono((1, 0), 2):
        case poly.Mono(exps, pos=2):
            assert exps == (1, 0)
        case _:
            pytest.fail("no match")


def test_record_docs():
    assert groebner.GroebnerBasis.__doc__.startswith(
        "elements, which must form a Groebner basis under order:")
    assert syzygy.Certificate.__doc__.startswith(
        "Per S-pair (i, j) of `basis` that carries a cofactor")
    assert groebner.TermCertificate.__doc__ == "T = sum coeff_i * X^gamma_i * gens[index_i]."
    assert poly.Ambient.__doc__ == "The data of H_m = R[X1..Xn]^m."


def test_record_reprs_and_json():
    # error texts interpolate monomials and ambients, and `reduction_step`
    # trace events print `lm` through json
    assert repr(poly.Mono((1, 0), 2)) == "Mono(exps=(1, 0), pos=2)"
    assert repr(poly.Ambient(Integers(), 2, 1)) == "Ambient(ring=Z, nvars=2, rank=1)"
    assert repr(poly.Ambient(IntegersMod(12), 2, 3)) == "Ambient(ring=Z/12, nvars=2, rank=3)"
    assert repr(groebner.TermCertificate(((0, "a", (1,)),))) == \
        "TermCertificate(entries=((0, 'a', (1,)),))"
    assert repr(syzygy.Resolution(1, (), None)) == "Resolution(ambient=1, levels=(), tail=None)"
    assert json.dumps(poly.Mono((1, 0), 2)) == "[[1, 0], 2]"
    assert json.dumps({"lm": poly.Mono((0, 3), 0)}, default=str) == '{"lm": [[0, 3], 0]}'


def test_records_with_methods_keep_them():
    res = syzygy.Resolution(None, ((), (), ()), syzygy.FreeTail())
    assert (res.length, res.quotient_length) == (2, 3)
    assert res._replace(levels=((),)).length == 0
    report = syzygy.VerificationReport(False, ({"ok": True}, {"ok": False}))
    assert report.failures() == [{"ok": False}]
    assert repr(syzygy.FreeTail()) == "FreeTail(kind='free')"
