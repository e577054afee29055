"""The acceptance gate: one test per criterion, exact values, stated budgets.

Every check is exact arithmetic; "module-equal" means mutual reduction
to zero. Each test prints a single PASS line with its runtime.
"""

import json
import random
import time

from gbsyz import (
    Ambient,
    FreeTail,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    Mono,
    PeriodicTail,
    Schreyer,
    Term,
    TopLex,
    TruncatedF2y,
    Vector,
    apply_relation,
    buchberger,
    divide,
    format_lt_module,
    format_vector,
    free_resolution,
    is_groebner,
    pseudo_reduce,
    s_poly,
    schreyer_syzygies,
    term_module_member,
    verify_resolution,
)
from gbsyz.cli import main as cli_main
from helpers import (
    GOLDEN,
    gens_of,
    parse_in,
    problem,
    random_nonzero,
    random_nonzero_vector,
    random_vector,
    vec,
)

PROPERTY_RINGS = [
    Integers(),
    IntegersMod(4),
    IntegersMod(6),
    IntegersMod(12),
    TruncatedF2y(2),
    IntegersLocalizedAt(2),
]


class budget:
    def __init__(self, number, descr, seconds):
        self.number = number
        self.descr = descr
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
            print(f"ACCEPTANCE {self.number} ({self.descr}): {status} in {elapsed:.2f}s")
            assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.2f}s"
        else:
            print(f"ACCEPTANCE {self.number} ({self.descr}): FAIL after {elapsed:.2f}s")
        return False


def relation(p, source_level_rank, order, template):
    terms = []
    for pos, text in enumerate(template):
        poly = vec(p, text)
        for c, m in poly.terms:
            terms.append(Term(c, Mono(m.exps, pos)))
    amb = Ambient(p.ring, len(p.var_names), source_level_rank)
    return Vector(amb, order, terms)


def module_equal(basis, order, vectors):
    return all(
        divide(v, list(basis), order).remainder.is_zero() for v in vectors
    ) and all(divide(v, vectors, order).remainder.is_zero() for v in basis)


def test_criterion_1_f2y_spolynomials():
    with budget(1, "S-polynomial golden trio over F2[y]/y^2", 1.0):
        p = problem("f2y_spair")
        f = vec(p, "y*X2 + X1")
        g = vec(p, "y*X1 + y")
        assert s_poly(f, g, p.order).value == vec(p, "X1^2 + y*X2")
        assert s_poly(f, f, p.order).value == vec(p, "y*X1")
        assert s_poly(g, g, p.order).value == vec(p, "0")


def test_criterion_2_z2_rank2_buchberger():
    with budget(2, "rank-2 Buchberger golden case over Z/2", 1.0):
        p = problem("z2_rank2")
        _, gens = gens_of(p)
        gb = buchberger(gens, p.order)
        assert len(gb.elements) == 3
        assert gb.elements[2] == vec(p, "[0, X^2]")
        assert (
            format_lt_module(list(gb.elements), p.var_names)
            == "<Y, X>e1 (+) <X^2>e2"
        )


def test_criterion_3_zint_ideal_full_pipeline():
    with budget(3, "integer ideal golden case: gb, syzygies, resolution", 1.0):
        p = problem("zint_ideal")
        labels, gens = gens_of(p)
        gb = buchberger(gens, p.order)
        assert list(gb.elements) == gens, "gb must fix (g1, g2, g3)"
        assert format_lt_module(list(gb.elements), p.var_names) == "<Y^2, 4*X^2, 6*X>"
        syz = schreyer_syzygies(gb, labels=labels)
        printed = [format_vector(v, p.var_names) for v in syz.relations]
        assert printed == [
            "[4*X^2 - 4, -Y^2 + X - 3, 0]",
            "[6*X + 6, 0, -Y^2 + X - 3]",
            "[0, 3, -2*X + 2]",
        ]
        res = free_resolution(gens, labels=labels)
        assert isinstance(res.tail, FreeTail) and res.length == 2
        final = res.levels[2]
        reference = relation(p, 3, final.order, ["3", "-X - 2", "-Y^2 + X - 3"])
        assert module_equal(final.basis, final.order, [reference])


def test_criterion_4_zloc2_ideal_resolution():
    with budget(4, "length-2 resolution golden case over Z_(2)", 1.0):
        p = problem("zloc2_ideal")
        labels, gens = gens_of(p)
        res = free_resolution(gens, labels=labels)
        assert isinstance(res.tail, FreeTail) and res.length == 2
        level1 = res.levels[1]
        assert (
            format_lt_module(list(level1.basis), p.var_names)
            == "<X^3, 2>e1 (+) <X^3>e2"
        )
        final = res.levels[2]
        reference = relation(p, 3, final.order, ["2", "-X^3 + 1", "-Y^3 + 1"])
        assert module_equal(final.basis, final.order, [reference])


def test_criterion_5_z4_ideal_periodic():
    with budget(5, "periodic-tail golden case over Z/4", 1.0):
        p = problem("z4_ideal")
        labels, gens = gens_of(p)
        gb = buchberger(gens, p.order)
        assert list(gb.elements) == gens
        syz = schreyer_syzygies(gb, labels=labels)
        order = syz.order
        reference = [
            relation(p, 3, order, ["X^3 - 1", "0", "-Y^4 + Y"]),
            relation(p, 3, order, ["2", "-Y^3 + 1", "0"]),
            relation(p, 3, order, ["0", "X^3 - 1", "-2*Y"]),
            relation(p, 3, order, ["0", "2", "0"]),
        ]
        assert module_equal(list(syz.relations), order, reference)
        res = free_resolution(gens, labels=labels)
        tail = res.tail
        assert isinstance(tail, PeriodicTail)
        ring = p.ring
        assert all(ring.eq(a, 2) for a in tail.ann_b) and len(tail.ann_b) == 4
        extra = res.levels[-1]
        assert sorted(v.lp() for v in extra.basis) == [0, 1, 2, 3]
        assert all(
            v.lm().exps == (0, 0) and ring.eq(ring.canonical(v.lc()), 2)
            for v in extra.basis
        )
        assert verify_resolution(res).ok


def test_criterion_6_z12_ideal_alternation():
    with budget(6, "alternating-tail golden case over Z/12", 2.0):
        p = problem("z12_ideal")
        labels, gens = gens_of(p)
        gb = buchberger(gens, p.order)
        assert list(gb.elements) == gens
        assert (
            format_lt_module(list(gb.elements), p.var_names)
            == "<Y, X^3, 3*X^2, 9>"
        )
        syz = schreyer_syzygies(gb, labels=labels)
        red = pseudo_reduce(list(syz.relations), syz.order)
        assert (
            format_lt_module(list(red.elements), p.var_names)
            == "<X^3, 3>e1 (+) <3>e2 (+) <1>e3 (+) <4>e4"
        )
        res = free_resolution(gens, labels=labels)
        tail = res.tail
        ring = p.ring
        assert isinstance(tail, PeriodicTail)
        assert [ring.format(x) for x in tail.ann_b] == ["4", "3", "3", "4"]
        assert [ring.format(x) for x in tail.ann_ann_b] == ["3", "4", "4", "3"]
        assert verify_resolution(res).ok


def _random_gens(rng, amb, order, count=2, max_terms=3, max_exp=2):
    return [
        random_nonzero_vector(rng, amb, order, max_terms=max_terms, max_exp=max_exp)
        for _ in range(count)
    ]


def test_criterion_7_property_suite():
    with budget(7, "property suite, >= 10^3 cases per family", 300.0):
        rng = random.Random(0xACCE55)
        order2 = TopLex(2)

        # division reconstruction + remainder-term non-membership (>= 1000)
        from gbsyz import expand_combination

        cases = 0
        while cases < 1000:
            ring = PROPERTY_RINGS[cases % len(PROPERTY_RINGS)]
            amb = Ambient(ring, 2, rng.randrange(1, 4))
            h = random_vector(rng, amb, order2, max_terms=4, max_exp=4)
            divisors = _random_gens(rng, amb, order2, rng.randrange(1, 4), 3, 3)
            res = divide(h, divisors, order2)
            recon = res.remainder.add(expand_combination(res.quotients, divisors))
            assert recon == h
            lts = [(d.lc(), d.lm()) for d in divisors]
            for t in res.remainder.terms:
                assert term_module_member(t, lts, ring) is None
            cases += 1

        # buchberger output passes is_groebner (>= 1000 runs)
        for k in range(1000):
            ring = PROPERTY_RINGS[k % len(PROPERTY_RINGS)]
            amb = Ambient(ring, 2, 1 + k % 3)
            gens = _random_gens(rng, amb, order2, 2 + k % 2, 3, 2)
            gb = buchberger(gens, order2)
            assert is_groebner(list(gb.elements), order2)

        # every syzygy relation annihilates its source + LT formulas (>= 1000)
        from test_syzygy import check_lt_formulas

        relations_seen = 0
        k = 0
        while relations_seen < 1000:
            ring = PROPERTY_RINGS[k % len(PROPERTY_RINGS)]
            k += 1
            amb = Ambient(ring, 2, 1 + k % 2)
            gens = _random_gens(rng, amb, order2, 2 + k % 2, 3, 2)
            gb = buchberger(gens, order2)
            syz = schreyer_syzygies(gb)
            for r in syz.relations:
                assert apply_relation(r, list(gb.elements)).is_zero()
            check_lt_formulas(gb, syz, ring)
            relations_seen += len(syz.relations)

        # term_module_member against the brute-force oracle (>= 1000)
        from test_groebner import brute_force_member

        for k in range(1000):
            ring = PROPERTY_RINGS[k % len(PROPERTY_RINGS)]
            nontrivial = rng.randrange(1, 3)
            gens = [
                (
                    random_nonzero(rng, ring),
                    Mono((rng.randrange(3), rng.randrange(3)), rng.randrange(2)),
                )
                for _ in range(nontrivial)
            ]
            target = Term(
                random_nonzero(rng, ring),
                Mono((rng.randrange(3), rng.randrange(3)), rng.randrange(2)),
            )
            cert = term_module_member(target, gens, ring)
            if cert is not None:
                total = ring.zero()
                for idx, coeff, gamma in cert.entries:
                    total = ring.add(total, ring.mul(coeff, gens[idx][0]))
                assert ring.eq(total, target.coeff)
            else:
                assert not brute_force_member(ring, target, gens, bound=8)

        # Schreyer-order axioms on >= 10^4 random triples
        from test_poly import _axiom_check

        for ring in PROPERTY_RINGS:
            amb = Ambient(ring, 2, 2)
            images = _random_gens(rng, amb, order2, 3, 2, 2)
            sch = Schreyer(images, order2)
            _axiom_check(sch, 2, 3, rng, 1700)


def test_criterion_8_resolution_length_bound():
    with budget(8, ">= 50 random domain ideals resolve freely, length <= 3", 120.0):
        rng = random.Random(48879)
        for ring in [Integers(), IntegersLocalizedAt(2)]:
            amb = Ambient(ring, 2, 1)
            order = TopLex(2)
            for _ in range(30):
                gens = _random_gens(rng, amb, order, rng.randrange(1, 4), 3, 2)
                res = free_resolution(gens)
                assert isinstance(res.tail, FreeTail)
                assert res.quotient_length <= 3


def test_criterion_9_parser_round_trip(tmp_path, capsys):
    with budget(9, "parser round-trip over the golden corpus", 60.0):
        payload_kinds = {
            "basis",
            "syzygy",
            "relation",
            "quotient",
            "certificate",
            "target",
            "remainder",
        }
        checked = 0
        for key, text in GOLDEN.items():
            path = tmp_path / f"{key}.gb"
            path.write_text(text, encoding="utf-8")
            prob = problem(key)
            commands = [["gb"], ["syz"], ["resolve"]]
            if key == "zint_ideal":
                commands += [["reduce", "4*Y^2 - 4*X^3 + 12*X^2"], ["member", "12*X^2 - 12"]]
            for cmd in commands:
                argv = [cmd[0], str(path)] + cmd[1:] + ["--format", "json-like"]
                assert cli_main(argv) == 0
                out = capsys.readouterr().out
                for line in out.splitlines():
                    rec = json.loads(line)
                    if rec["kind"] not in payload_kinds:
                        continue
                    reparsed = parse_in(prob, rec["rank"], rec["value"])
                    assert (
                        format_vector(reparsed, prob.var_names) == rec["value"]
                    ), f"round-trip failed for {rec['value']!r}"
                    checked += 1
        assert checked > 60
        print(f"  round-tripped {checked} polynomial payloads")
