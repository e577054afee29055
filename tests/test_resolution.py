"""Free resolutions: golden examples, tails, verification."""

import random

import pytest

from gbsyz import (
    Ambient,
    FreeTail,
    GuardExceeded,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    Mono,
    PeriodicTail,
    Term,
    TopLex,
    TruncatedF2y,
    UsageError,
    Vector,
    apply_relation,
    divide,
    free_resolution,
    parse_problem,
    schreyer_syzygies,
    verify_resolution,
)
from gbsyz import groebner, syzygy
from gbsyz.syzygy import Resolution, ResolutionLevel
from helpers import (
    GOLDEN,
    element_candidates,
    gens_of,
    problem,
    random_nonzero_vector,
    random_vector,
    reference_apply_relation,
    reference_labels,
    reference_level_verdicts,
    vec,
)


def rel_in(level, p, polys):
    amb = level.basis[0].ambient
    terms = []
    for pos, text in enumerate(polys):
        poly = vec(p, text)
        for c, m in poly.terms:
            terms.append(Term(c, Mono(m.exps, pos)))
    return Vector(amb, level.order, terms)


def module_equal(level, vectors):
    basis = list(level.basis)
    for v in vectors:
        if not divide(v, basis, level.order).remainder.is_zero():
            return False
    for v in basis:
        if not divide(v, vectors, level.order).remainder.is_zero():
            return False
    return True


def test_resolution_zint_ideal():
    p = problem("zint_ideal")
    labels, gens = gens_of(p)
    res = free_resolution(gens, labels=labels)
    assert isinstance(res.tail, FreeTail)
    assert res.length == 2
    assert [len(level.basis) for level in res.levels] == [3, 3, 1]
    final = res.levels[2]
    reference = rel_in(final, p, ["3", "-X - 2", "-Y^2 + X - 3"])
    assert module_equal(final, [reference])
    assert verify_resolution(res).ok


def test_resolution_zloc2_ideal():
    p = problem("zloc2_ideal")
    labels, gens = gens_of(p)
    res = free_resolution(gens, labels=labels)
    assert isinstance(res.tail, FreeTail)
    assert res.length == 2
    level1 = res.levels[1]
    from gbsyz import format_lt_module

    assert format_lt_module(list(level1.basis), p.var_names) == "<X^3, 2>e1 (+) <X^3>e2"
    final = res.levels[2]
    reference = rel_in(final, p, ["2", "-X^3 + 1", "-Y^3 + 1"])
    assert module_equal(final, [reference])
    assert final.basis[0] == reference
    assert verify_resolution(res).ok


def test_resolution_z4_ideal_periodic():
    p = problem("z4_ideal")
    labels, gens = gens_of(p)
    res = free_resolution(gens, labels=labels)
    tail = res.tail
    assert isinstance(tail, PeriodicTail)
    ring = p.ring
    assert [ring.format(x) for x in tail.b] == ["2", "2", "2", "2"]
    assert [ring.format(x) for x in tail.ann_b] == ["2", "2", "2", "2"]
    assert [ring.format(x) for x in tail.ann_ann_b] == ["2", "2", "2", "2"]
    assert tail.stable_index == 2
    # the explicitly computed extra level realises (+) Ann(b_j) eps_j
    extra = res.levels[-1]
    assert sorted(v.lp() for v in extra.basis) == [0, 1, 2, 3]
    assert all(v.lm().exps == (0, 0) for v in extra.basis)
    assert all(ring.eq(ring.canonical(v.lc()), 2) for v in extra.basis)
    assert verify_resolution(res).ok


def test_resolution_z12_ideal_alternation():
    p = problem("z12_ideal")
    labels, gens = gens_of(p)
    res = free_resolution(gens, labels=labels)
    tail = res.tail
    ring = p.ring
    assert isinstance(tail, PeriodicTail)
    assert [ring.format(x) for x in tail.b] == ["3", "4", "4", "3"]
    assert [ring.format(x) for x in tail.ann_b] == ["4", "3", "3", "4"]
    assert [ring.format(x) for x in tail.ann_ann_b] == ["3", "4", "4", "3"]
    from gbsyz import format_lt_module

    assert (
        format_lt_module(list(res.levels[1].basis), p.var_names)
        == "<X^3, 3>e1 (+) <3>e2 (+) <1>e3 (+) <4>e4"
    )
    assert verify_resolution(res).ok


def test_resolution_quotient_length_bound_and_flag():
    p = problem("zint_ideal")
    labels, gens = gens_of(p)
    res = free_resolution(gens, labels=labels)
    assert res.quotient_length == 3  # = n + 1
    assert res.quotient_length <= len(p.var_names) + 1


def test_resolution_stabilizes_immediately_for_constant_ideal():
    p = problem("zint_ideal")
    res = free_resolution([vec(p, "2")])
    assert isinstance(res.tail, FreeTail)
    assert res.length == 0
    assert res.quotient_length == 1


def test_resolution_rejects_non_toplex_without_unsafe():
    p = problem("zint_ideal")
    _, gens = gens_of(p)
    from gbsyz import Schreyer

    sch = Schreyer(gens, p.order)
    with pytest.raises(UsageError):
        free_resolution(gens, order=sch)
    # explicit unsafe order (a different variable priority) is accepted
    alt = TopLex(2, (1, 0))
    res = free_resolution(gens, unsafe_order=alt)
    assert verify_resolution(res).ok


def test_resolution_max_levels_guard():
    p = problem("z4_ideal")
    _, gens = gens_of(p)
    with pytest.raises(GuardExceeded) as exc:
        free_resolution(gens, max_levels=1)
    assert exc.value.partial is not None


def test_resolution_rejects_negative_max_levels():
    # a usage error, like buchberger's guard, also where level 0 is
    # already stable and no level would be counted
    _, gens = gens_of(problem("z4_ideal"))
    p = problem("zint_ideal")
    for g, max_levels in ((gens, -1), ([vec(p, "2")], -5)):
        with pytest.raises(UsageError, match="max_levels"):
            free_resolution(g, max_levels=max_levels)
    assert free_resolution([vec(p, "2")], max_levels=0).length == 0


def test_verify_detects_sign_flip():
    p = problem("zint_ideal")
    labels, gens = gens_of(p)
    res = free_resolution(gens, labels=labels)
    level = res.levels[2]
    # flip the sign of one coordinate of the final relation
    bad = Vector(
        level.basis[0].ambient,
        level.order,
        [
            Term(c if m.pos != 0 else level.basis[0].ambient.ring.neg(c), m)
            for c, m in level.basis[0].terms
        ],
    )
    broken = res._replace(levels=res.levels[:2] + (level._replace(basis=(bad,)),))
    report = verify_resolution(broken)
    assert not report.ok
    assert any(c["check"] == "composite_zero" and not c["ok"] for c in report.checks)


def test_verify_reports_a_relation_past_the_level_below():
    # without the last element of level 0, level 1's relations name a
    # position past its end: a failed composite_zero, not an IndexError
    labels, gens = gens_of(problem("zint_ideal"))
    res = free_resolution(gens, labels=labels)
    level0 = res.levels[0]
    short = level0._replace(basis=level0.basis[:-1], labels=level0.labels[:-1])
    report = verify_resolution(res._replace(levels=(short,) + res.levels[1:]))
    assert not report.ok
    (check,) = [c for c in report.checks if c["check"] == "composite_zero" and c["level"] == 1]
    assert not check["ok"]
    assert check["witness"] == res.levels[1].labels[0]


def test_apply_relation_rejects_a_position_past_the_source():
    labels, gens = gens_of(problem("zint_ideal"))
    res = free_resolution(gens, labels=labels)
    short = list(res.levels[0].basis[:2])
    past = [rel for rel in res.levels[1].basis if any(m.pos >= 2 for _, m in rel.terms)]
    assert past
    for rel in past:
        with pytest.raises(UsageError, match="past"):
            apply_relation(rel, short)


def test_an_empty_source_is_a_usage_error():
    labels, gens = gens_of(problem("zint_ideal"))
    res = free_resolution(gens, labels=labels)
    with pytest.raises(UsageError, match="empty source"):
        apply_relation(res.levels[1].basis[0], [])
    with pytest.raises(UsageError, match="empty source"):
        groebner.expand_combination([], [])
    with pytest.raises(UsageError, match="empty source"):
        groebner.expand_combination([gens[0]], [])


def _labeled_inputs():
    """(relations, order, labels) for label matching: the Buchberger basis
    and every syzygy basis of the golden and seeded resolutions, and the
    golden syzygy bases with an equal and an associate duplicate added.
    Three small lists reach the `v{k}` labels, after a `'` label by
    unit-normalized value and after one by leading monomial."""
    for text in (
        "ring Z/12; vars X Y; rank 2;"
        " a = [X^2 + Y, 1]; b = [4*X^2, Y]; c = [6*X^2 + X, 0]; d = [0, 5*Y]; e = [0, 5*Y];",
        "ring Z; vars X Y; rank 1; a = 2*X^2 + Y; b = 3*X^2 + X; c = Y^3 + X*Y; d = 2*Y^3;",
        "ring Z_(2); vars X Y; rank 1; a = 2*X^2 + Y; b = 3*X^2 + X; c = 3*Y^3 + X*Y; d = 6*Y^3;",
    ):
        p = parse_problem(text)
        yield [v for _, v in p.generators], p.order, [name for name, _ in p.generators]
    golden = [(True, free_resolution(gens, labels=labels))
              for labels, gens in (gens_of(problem(key)) for key in GOLDEN)]
    seeded = [(False, res) for res in [*zerodivisor_resolutions(), *domain_resolutions()]]
    for with_duplicates, res in golden + seeded:
        ring = res.ambient.ring
        unit = next((u for u in element_candidates(ring, 3)
                     if ring.is_unit(u) and not ring.eq(u, ring.one())), ring.one())
        level0 = res.levels[0]
        yield list(level0.basis), level0.order, list(level0.labels)
        for level in res.levels:
            syz = schreyer_syzygies((level.basis, level.order), labels=level.labels)
            if not syz.relations:
                continue
            rels, labs = list(syz.relations), list(syz.labels)
            yield rels, syz.order, labs
            if with_duplicates:
                yield (rels + [rels[0], rels[-1].scale(unit), rels[0].scale(unit)],
                       syz.order, labs + ["dup", "assoc", "assoc0"])


def test_pseudo_reduce_labels_match_the_scanning_reference():
    count = 0
    for relations, order, labels in _labeled_inputs():
        reduced, got = syzygy._pseudo_reduce_labeled(relations, order, labels, guard=10_000)
        assert got == reference_labels(reduced, relations, labels)
        count += 1
    assert count > 50


def test_resolution_is_deterministic():
    p = problem("z12_ideal")
    labels, gens = gens_of(p)
    a = free_resolution(gens, labels=labels)
    b = free_resolution(gens, labels=labels)
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert la.basis == lb.basis and la.labels == lb.labels
    assert a.tail == b.tail


def test_duplicate_generators_resolve():
    # two copies of e1: level 0 is constant but not position-separated,
    # so one more syzygy level (the relation eps1 - eps2) finishes it
    from gbsyz import IntegersMod, Mono, Term

    amb = Ambient(IntegersMod(4), 2, 2)
    order = TopLex(2)
    e1 = Vector(amb, order, [Term(1, Mono((0, 0), 0))])
    res = free_resolution([e1, e1])
    assert isinstance(res.tail, FreeTail)
    assert [len(level.basis) for level in res.levels] == [2, 1]
    assert verify_resolution(res).ok


def zerodivisor_resolutions():
    rng = random.Random(36)
    for ring in [IntegersMod(6), TruncatedF2y(3)]:
        amb = Ambient(ring, 2, 2)
        order = TopLex(2)
        for _ in range(10):
            gens = [
                random_nonzero_vector(rng, amb, order, max_terms=2, max_exp=2)
                for _ in range(2)
            ]
            yield free_resolution(gens)


def domain_resolutions():
    rng = random.Random(35)
    for ring in [Integers(), IntegersLocalizedAt(2)]:
        amb = Ambient(ring, 2, 1)
        order = TopLex(2)
        for _ in range(8):
            gens = [
                random_nonzero_vector(rng, amb, order, max_terms=2, max_exp=2)
                for _ in range(2)
            ]
            yield free_resolution(gens)


def test_random_zerodivisor_resolutions_verify():
    for res in zerodivisor_resolutions():
        assert verify_resolution(res).ok


def test_verify_reports_a_free_tail_whose_last_level_has_syzygies():
    # cut after level 0, which has nonzero syzygies: the lifts in its
    # certificate are no longer zero, and nothing else fails
    res = free_resolution(gens_of(problem("zint_ideal"))[1])
    assert isinstance(res.tail, FreeTail) and len(res.levels) > 1
    report = verify_resolution(res._replace(levels=res.levels[:1]))
    assert [(c["check"], c["ok"], c["witness"]) for c in report.failures()] == [
        ("free_tail_kernel_zero", False, None)
    ]


def test_random_domain_resolutions_free_and_bounded():
    for res in domain_resolutions():
        assert isinstance(res.tail, FreeTail)
        assert res.quotient_length <= 3
        assert verify_resolution(res).ok


def test_verify_reports_a_free_tail_that_is_not_a_groebner_basis():
    # the free tail's Schreyer syzygies cannot be computed on a level that
    # is not a Groebner basis: reported as a failed check, not raised
    p = parse_problem("ring Z; vars X Y; rank 1; f = X + 1;")
    res = free_resolution([v for _, v in p.generators])
    assert isinstance(res.tail, FreeTail) and len(res.levels) == 1
    bad = (vec(p, "X*Y + 1"), vec(p, "X^2 + Y"))
    broken = res._replace(levels=(res.levels[0]._replace(basis=bad, labels=("a", "b")),))
    report = verify_resolution(broken)
    assert not report.ok
    failed = {(c["check"], c["level"]) for c in report.failures()}
    assert failed == {
        ("standard_representation", 0),
        ("lift_identity", 0),
        ("free_tail_kernel_zero", 0),
    }
    (tail,) = [c for c in report.checks if c["check"] == "free_tail_kernel_zero"]
    assert "not a Groebner basis" in tail["witness"]


def test_apply_relation_matches_whole_vector_adds():
    # every relation of every golden level against the level below it
    # (zero), and random relations in the same module (mostly nonzero)
    rng = random.Random(41)
    for key in GOLDEN:
        _, gens = gens_of(problem(key))
        levels = free_resolution(gens).levels
        for below, level in zip(levels, levels[1:]):
            source = list(below.basis)
            amb = level.basis[0].ambient
            rels = list(level.basis) + [random_vector(rng, amb, level.order, 5, 2) for _ in range(8)]
            for rel in rels:
                got = apply_relation(rel, source)
                want = reference_apply_relation(rel, source)
                assert got.terms == want.terms and got.order is want.order


def counting_divisions(monkeypatch):
    """Patch groebner._reduce, the reduction loop of every division and
    S-pair loop, to count its calls; returns the count list."""
    calls = []
    reduce = groebner._reduce

    def counting(*args):
        calls.append(1)
        return reduce(*args)

    monkeypatch.setattr(groebner, "_reduce", counting)
    return calls


def all_resolutions():
    resolutions = [free_resolution(gens_of(problem(key))[1]) for key in GOLDEN]
    return resolutions + list(zerodivisor_resolutions()) + list(domain_resolutions())


def test_verify_makes_no_division_on_a_free_resolution_result(monkeypatch):
    # every level carries the certificate of the divisions that made its
    # syzygies, the periodic tail's extra level included, so the verifier
    # checks them and divides nothing
    resolutions = all_resolutions()
    assert {type(res.tail) for res in resolutions} == {FreeTail, PeriodicTail}
    calls = counting_divisions(monkeypatch)
    for res in resolutions:
        assert verify_resolution(res).ok
    assert calls == []


def tampered_certificates():
    """(name, level, (i, j), check, witness) per tampering of the lifts of
    a valid level, each at the first pair whose lift has a quotient term:
    the left cofactor term changed, which leaves that cofactor and the
    new term as quotient terms over the bound; the left cofactor term
    dropped, which leaves it as such a quotient term; the pair missing;
    and a quotient term moved to another position. check is a check
    that must fail, with witness in its text."""
    level = free_resolution(gens_of(problem("zint_ideal"))[1]).levels[0]
    cert, basis = level.certificate, level.basis

    def cofactor_monos(i, j):
        left, right = groebner.pair_cofactors(basis[i], basis[j], auto=(i == j))
        exps = level.order.codec.exps
        return [Mono(exps(left[1]), i)] + ([Mono(exps(right[1]), j)] if right else [])

    (i, j), lift = next((ij, lift) for ij, lift in cert.pairs.items()
                        if len(lift.terms) > len(cofactor_monos(*ij)))
    cofactors = cofactor_monos(i, j)

    def replaced(old, new):
        terms = [new if t.mono == old else t for t in lift.terms if new or t.mono != old]
        return Vector(lift.ambient, lift.order, terms)

    m = cofactors[0]
    b = next(c for c, t in lift.terms if t == m)
    bigger = Term(b, Mono((m.exps[0] + 1,) + m.exps[1:], i))
    c, n = next(t for t in lift.terms if t.mono not in cofactors)
    moved = Term(c, Mono(n.exps, (n.pos + 1) % len(basis)))
    changes = {
        "cofactor": ({**cert.pairs, (i, j): replaced(m, bigger)},
                     "standard_representation", f"LM(q{i + 1}) * LM(g{i + 1}) above LM(S)"),
        "dropped": ({**cert.pairs, (i, j): replaced(m, None)},
                    "standard_representation", f"LM(q{i + 1}) * LM(g{i + 1}) above LM(S)"),
        "missing": ({ij: lift for ij, lift in cert.pairs.items() if ij != (i, j)},
                    "standard_representation", "has no certificate"),
        "moved": ({**cert.pairs, (i, j): replaced(n, moved)},
                  "lift_identity", "differs from sum q_l g_l"),
    }
    for name, (pairs, check, witness) in changes.items():
        yield name, level._replace(certificate=cert._replace(pairs=pairs)), (i, j), check, witness


def test_verify_rejects_tampered_certificates_of_a_valid_basis(monkeypatch):
    tampered = list(tampered_certificates())
    calls = counting_divisions(monkeypatch)
    for name, level, (i, j), check, witness in tampered:
        report = verify_resolution(single_level(level))
        failed = report.failures()
        assert not report.ok and failed, name
        assert {c["check"] for c in failed} <= {"standard_representation", "lift_identity"}, name
        for c in failed:
            assert c["witness"].startswith(f"S-pair ({i + 1},{j + 1}) "), (name, c)
        assert any(c["check"] == check and witness in c["witness"] for c in failed), (name, failed)
    assert calls == []


def test_relations_are_the_nonzero_lifts_of_the_certificate():
    # one representation: each relation is the certificate's lift itself
    for res in all_resolutions():
        for level in res.levels:
            syz = schreyer_syzygies((level.basis, level.order))
            lifts = [lift for lift in syz.certificate.pairs.values() if not lift.is_zero()]
            assert len(syz.relations) == len(lifts)
            assert all(r is lift for r, lift in zip(syz.relations, lifts))


def test_verify_ignores_a_certificate_made_for_another_basis(monkeypatch):
    # an equal basis that is not the level's own: the empty certificate is
    # ignored, and the verifier divides the level's S-pairs itself
    res = free_resolution(gens_of(problem("z12_ideal"))[1])
    level = res.levels[0]
    assert level.certificate.basis is level.basis
    alien = level.certificate._replace(basis=tuple(list(level.basis)), pairs={})
    assert alien.basis == level.basis and alien.basis is not level.basis
    calls = counting_divisions(monkeypatch)
    report = verify_resolution(res._replace(levels=(level._replace(certificate=alien),) + res.levels[1:]))
    assert report.ok
    assert calls


def single_level(level):
    """A resolution holding only `level`, without a tail to check."""
    return Resolution(level.basis[0].ambient, (level,), None)


def level_verdicts(report, nlevels):
    """Per level: whether its standard_representation and lift_identity
    records passed."""
    ok = [True] * nlevels
    for c in report.checks:
        if c["check"] in ("standard_representation", "lift_identity"):
            ok[c["level"]] = ok[c["level"]] and c["ok"]
    return ok


def test_certificate_agrees_with_the_groebner_and_sampling_reference():
    # per level, the certificate passes exactly where Buchberger's
    # criterion and 20 sampled combinations pass: on the golden and the
    # seeded resolutions, and on every golden level with one element
    # dropped (some of which are no longer Groebner bases)
    resolutions = all_resolutions()
    for res in resolutions:
        report = verify_resolution(res)
        assert report.ok
        want = [g and s is not False for g, s in reference_level_verdicts(res)]
        assert level_verdicts(report, len(res.levels)) == want
    dropped = []
    for res in resolutions[: len(GOLDEN)]:
        for level in res.levels:
            for k in range(len(level.basis) if len(level.basis) > 1 else 0):
                basis = level.basis[:k] + level.basis[k + 1 :]
                labels = level.labels[:k] + level.labels[k + 1 :]
                dropped.append(single_level(level._replace(basis=basis, labels=labels)))
    verdicts = []
    for res in dropped:
        report = verify_resolution(res)
        (reference,) = reference_level_verdicts(res)
        verdicts.append(report.ok)
        assert report.ok == (reference == (True, True))
        assert report.checks[0]["ok"] == reference[0]
    assert True in verdicts and False in verdicts


def not_groebner_level():
    p = parse_problem("ring Z; vars X Y; rank 1; f = X + 1;")
    return ResolutionLevel((vec(p, "X*Y + 1"), vec(p, "X^2 + Y")), p.order, ("a", "b"))


def test_certificate_fails_on_a_level_that_is_not_a_groebner_basis():
    report = verify_resolution(single_level(not_groebner_level()))
    assert [(c["check"], c["ok"]) for c in report.checks] == [
        ("standard_representation", False),
        ("lift_identity", False),
    ]
    assert report.checks[0]["witness"] == "S-pair (1,2) leaves a nonzero remainder"
    assert report.checks[1]["witness"] == "S-pair (1,2) differs from sum q_l g_l"


def certified_by(monkeypatch, tamper, level):
    """level with the certificate that schreyer_syzygies makes while
    groebner._reduce, its reduction loop, is replaced by tamper."""
    monkeypatch.setattr(groebner, "_reduce", tamper)
    cert = schreyer_syzygies((level.basis, level.order)).certificate
    monkeypatch.undo()
    return level._replace(certificate=cert)


def test_certificate_fails_when_the_division_drops_its_remainder(monkeypatch):
    # a division that loses remainder terms reports a zero remainder with
    # honest quotients: only the identity S = sum q_l g_l catches it
    reduce = groebner._reduce

    def lossy(work, index, lift, trace):
        reduce(work, index, lift, trace)
        return []

    level = certified_by(monkeypatch, lossy, not_groebner_level())
    report = verify_resolution(single_level(level))
    assert [(c["check"], c["ok"]) for c in report.checks] == [
        ("standard_representation", True),
        ("lift_identity", False),
    ]
    assert report.checks[1]["witness"] == "S-pair (1,2) differs from sum q_l g_l"


def test_certificate_fails_when_quotients_break_the_degree_bound(monkeypatch):
    # quotients moved along the Koszul syzygy g2 e1 - g1 e2 still satisfy
    # S = sum q_l g_l: only the degree bound catches them
    level = free_resolution(gens_of(problem("zint_ideal"))[1]).levels[0]
    g1, g2 = level.basis[:2]

    shift = level.order.codec.pack((2, 2), 0)

    reduce = groebner._reduce

    def shifted(work, index, lift, trace):
        rest = reduce(work, index, lift, trace)
        # the lift holds -sum q_l eps_l: q1 += X^(2,2) g2, q2 -= X^(2,2) g1
        lift.add_term_mul(-1, shift, g2.packed)
        lift.add_term_mul(1, shift + 1, g1.packed)
        return rest

    report = verify_resolution(single_level(certified_by(monkeypatch, shifted, level)))
    assert [(c["check"], c["ok"]) for c in report.checks] == [
        ("standard_representation", False),
        ("lift_identity", True),
    ]
    assert "LM(q1) * LM(g1) above LM(S)" in report.checks[0]["witness"]
