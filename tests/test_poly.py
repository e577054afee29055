"""Monomials, orders, and module-vector arithmetic."""

import functools
import itertools
import random

import pytest

from gbsyz import (
    Ambient,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    InternalError,
    Mono,
    Schreyer,
    Term,
    TopLex,
    TruncatedF2y,
    UsageError,
    Vector,
    expand_combination,
    free_resolution,
    mono_divides,
    reorder,
    sort_basis,
)
from gbsyz.groebner import s_pair_indexed
from gbsyz.poly import EXP_BITS, HEAP_MIN, POSMASK, Accumulator
from helpers import (
    GOLDEN,
    gens_of,
    problem,
    random_element,
    random_mono,
    random_nonzero,
    random_nonzero_vector,
    random_vector,
    reference_expand_combination,
    reference_s_pair_value,
    reference_vector_mul,
    rings_under_test,
    vec,
)

# the four kinds of coefficient ring: a domain, Z/N with zerodivisors,
# and the two valuation rings
TERM_PRODUCT_RINGS = (Integers(), IntegersMod(12), TruncatedF2y(3), IntegersLocalizedAt(2))


def leading_term(v):
    """The decoded leading term of v, None for zero."""
    return v.terms[0] if v.terms else None


def test_mono_divides_position_rule():
    # X1*e1 divides X1*X2*e1 with quotient X2, but not X1*X2*e2
    x1e1 = Mono((1, 0), 0)
    x1x2e1 = Mono((1, 1), 0)
    x1x2e2 = Mono((1, 1), 1)
    assert mono_divides(x1e1, x1x2e1) == (0, 1)
    assert mono_divides(x1e1, x1x2e2) is None
    assert mono_divides(x1x2e1, x1x2e1) == (0, 0)


def test_top_order_chain_from_definition():
    # with X2 > X1: X2 e1 > X2 e2 > X1 e1 > X1 e2
    order = TopLex(2)
    x2 = (1, 0)  # vars declared (X2, X1)
    x1 = (0, 1)
    chain = [Mono(x2, 0), Mono(x2, 1), Mono(x1, 0), Mono(x1, 1)]
    for a, b in zip(chain, chain[1:]):
        assert order.compare(a, b) > 0
        assert order.compare(b, a) < 0
    assert order.compare(chain[0], chain[0]) == 0


def test_leading_data_z4_ideal():
    p = problem("z4_ideal")
    g1 = vec(p, "Y^4 - Y")
    assert g1.lm() == Mono((4, 0), 0)
    assert g1.lc() == 1
    assert g1.lm().exps == (4, 0)
    assert g1.lp() == 0


def test_zero_vector_leading_data():
    p = problem("zint_ideal")
    zero = vec(p, "0")
    assert zero.is_zero()
    assert zero.terms == ()
    with pytest.raises(UsageError):
        zero.lm()
    with pytest.raises(UsageError):
        zero.lp()


def test_vector_add_and_term_mul_mod12():
    p = problem("z12_ideal")
    u = vec(p, "3*X^2 + 6")
    w = u.add(vec(p, "9").scale(2))
    assert w == vec(p, "3*X^2")


def test_add_neg_cancels():
    rng = random.Random(7)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 3)
        order = TopLex(2)
        for _ in range(100):
            v = random_vector(rng, amb, order)
            assert v.add(v.neg()).is_zero()


def test_term_products_match_repeated_merges():
    # Vector.mul and expand_combination evaluate through one dict, the
    # references merge one whole vector per term; equal terms and order
    rng = random.Random(13)
    for ring in TERM_PRODUCT_RINGS:
        order = TopLex(2)
        poly_amb, amb = Ambient(ring, 2, 1), Ambient(ring, 2, 3)
        for _ in range(60):
            a = random_vector(rng, poly_amb, order, 5, 3)
            b = random_vector(rng, poly_amb, order, 5, 3)
            for x, y in ((a, b), (a, a), (a, a.neg())):
                got, want = x.mul(y), reference_vector_mul(x, y)
                assert got.terms == want.terms and got.order is want.order
            vectors = [random_nonzero_vector(rng, amb, order, 4, 3) for _ in range(3)]
            quotients = [random_vector(rng, poly_amb, order, 3, 2) for _ in range(3)]
            for qs, vs in ((quotients, vectors), (quotients[:2] + [quotients[0].neg()],
                                                  vectors[:2] + [vectors[0]])):
                got, want = expand_combination(qs, vs), reference_expand_combination(qs, vs)
                assert got.terms == want.terms and got.order is want.order


def test_accumulator_matches_vector_arithmetic():
    # add and add_term_mul against Vector.add and term_mul, with sums
    # that cancel to zero; lead() is asked between adds, so it must see
    # the terms added after its first call. The accumulator works on
    # monomials packed by the order's codec
    rng = random.Random(17)
    for ring in TERM_PRODUCT_RINGS:
        order = TopLex(2, rng.choice([(0, 1), (1, 0)]))
        codec = order.codec
        amb = Ambient(ring, 2, 2)

        def lead(acc):
            t = acc.lead()
            return None if t is None else Term(t[0], codec.decode(t[1]))

        for _ in range(80):
            start = random_vector(rng, amb, order, 3, 2)
            sources = [random_nonzero_vector(rng, amb, order, 4, 2) for _ in range(2)]
            acc, want = Accumulator(amb, order, start.packed), start
            products = []
            for _ in range(10):
                if products and rng.random() < 0.3:
                    # cancel an earlier product
                    c, exps, v = rng.choice(products)
                    c = ring.neg(c)
                elif rng.random() < 0.6:
                    c = random_nonzero(rng, ring)
                    exps = tuple(rng.randrange(3) for _ in range(2))
                    v = rng.choice(sources)
                    products.append((c, exps, v))
                else:
                    v = None
                if v is not None:
                    acc.add_term_mul(c, codec.pack(exps, 0), v.packed)
                    want = want.add(v.term_mul(c, exps))
                elif want.terms and rng.random() < 0.5:
                    # cancel a term of the sum, often the leading one
                    c, m = want.terms[0] if rng.random() < 0.5 else rng.choice(want.terms)
                    acc.add(ring.neg(c), codec.encode(m))
                    want = want.add(Vector(amb, order, [Term(ring.neg(c), m)]))
                else:
                    t = Term(random_nonzero(rng, ring), random_mono(rng, 2, 2, 3))
                    acc.add(t.coeff, codec.encode(t.mono))
                    want = want.add(Vector(amb, order, [t]))
                assert not any(ring.is_zero(c) for c in acc.coeffs.values())
                if rng.random() < 0.5:
                    assert lead(acc) == leading_term(want)
            got = acc.vector()
            assert got.terms == want.terms and got.order is order
            assert lead(acc) == leading_term(want)


def _accumulator_inputs(rng, ring):
    """(order, ambient) pairs, one for each key the Accumulator's
    leading-term index sorts by: TOP-lex on rank 2, TOP-lex on rank 1,
    where the key is -m and a small sum's leader is its `max`, and a
    Schreyer order on rank 3."""
    order = TopLex(2, rng.choice([(0, 1), (1, 0)]))
    schreyer, amb = _order_tower(rng, ring, 2, (2, 3))[1]
    return [(order, Ambient(ring, 2, 2)), (order, Ambient(ring, 2, 1)), (schreyer, amb)]


def test_accumulator_lead_on_short_sums():
    # lead() after every operation, on sums that shrink to 1 and to 0
    # terms and grow again, past HEAP_MIN and back, before the index
    # exists and after; there is no index until a lead() sees HEAP_MIN or
    # more terms, and none after a lead() that finds the sum empty
    rng = random.Random(29)
    for ring in TERM_PRODUCT_RINGS:
        one = ring.one()
        for order, amb in _accumulator_inputs(rng, ring):
            codec = order.codec
            for _ in range(60):
                start = random_vector(rng, amb, order, 1, 2)
                acc, want = Accumulator(amb, order, start.packed), start
                has_heap = False

                def check():
                    nonlocal has_heap
                    t = acc.lead()
                    assert (None if t is None else Term(t[0], codec.decode(t[1]))) == leading_term(want)
                    if not want.terms:
                        has_heap = False
                    elif len(want.terms) >= HEAP_MIN:
                        has_heap = True
                    assert (acc.heap is None) == (not has_heap)
                    assert acc.vector().terms == want.terms

                check()
                sizes = (rng.randint(2, 4), rng.randint(0, 1), rng.randint(2, 5), 1, 0, 3,
                         rng.randint(HEAP_MIN, HEAP_MIN + 3), rng.randint(1, HEAP_MIN - 1),
                         rng.randint(HEAP_MIN, HEAP_MIN + 3), 0, HEAP_MIN - 1, 1)
                for size in sizes:
                    while len(want.terms) != size:
                        if len(want.terms) < size:
                            # a new term or a product into one already there;
                            # rank 1 has 16 monomials of exponents up to 3
                            c, mono = random_nonzero(rng, ring), random_mono(rng, 2, amb.rank, 3)
                        else:
                            # cancel the leading term or another one
                            t = want.terms[0] if rng.random() < 0.5 else rng.choice(want.terms)
                            c, mono = ring.neg(t.coeff), t.mono
                        if rng.random() < 0.5:
                            acc.add(c, codec.encode(mono))
                        else:
                            acc.add_term_mul(c, codec.pack(mono.exps, 0), [(one, mono.pos)])
                        want = want.add(Vector(amb, order, [Term(c, mono)]))
                        check()


def test_accumulator_reuse_matches_a_fresh_one_per_sum():
    # one accumulator drained by lead() and refilled, the way Buchberger's
    # loop and s_pairs reuse their work accumulator, against a fresh one
    # per sum: the same lead() sequence and vector(), on sums that regrow
    # past HEAP_MIN after a drain
    rng = random.Random(31)
    for ring in TERM_PRODUCT_RINGS:
        for order, amb in _accumulator_inputs(rng, ring):
            reused = Accumulator(amb, order)
            for _ in range(80):
                fresh = Accumulator(amb, order)
                size = rng.choice((0, 1, 3, HEAP_MIN - 1, HEAP_MIN, HEAP_MIN + 4))
                for _ in range(size):
                    v = random_nonzero_vector(rng, amb, order, 3, 2)
                    c, shift = random_nonzero(rng, ring), order.codec.pack(random_mono(rng, 2, 1, 1).exps, 0)
                    for acc in (reused, fresh):
                        acc.add_term_mul(c, shift, v.packed)
                assert reused.vector().terms == fresh.vector().terms
                # drain both, a leading term at a time, with extra products
                # on the way as a reduction step adds them; each lead() is
                # the first term of the sum sorted in full
                while True:
                    got, want = reused.lead(), fresh.lead()
                    assert got == want == next(iter(fresh.vector().packed), None)
                    if want is None:
                        break
                    c, m = want
                    extra = random_nonzero_vector(rng, amb, order, 3, 1)
                    extra = [(d, n) for d, n in extra.packed
                             if order.key(n) > order.key(m) and rng.random() < 0.5]
                    for acc in (reused, fresh):
                        acc.add(ring.neg(c), m)
                        acc.add_term_mul(ring.one(), 0, extra)
                assert reused.is_zero() and reused.heap is None


def test_s_pair_values_match_whole_vector_reference():
    # s_pair_indexed forms the value in one accumulator, the reference
    # merges two term_mul
    # vectors: equal terms and order on seeded pairs, then on every pair
    # of every golden resolution level
    def check(f, g, order, auto):
        got = s_pair_indexed(f, g, auto).value
        want = reference_s_pair_value(f, g, order, auto)
        assert got.terms == want.terms and got.order is want.order

    rng = random.Random(19)
    for ring in TERM_PRODUCT_RINGS:
        order = TopLex(2)
        amb = Ambient(ring, 2, 2)
        for _ in range(100):
            f = random_nonzero_vector(rng, amb, order, 4, 3)
            g = random_nonzero_vector(rng, amb, order, 4, 3)
            check(f, g, order, False)
            check(f, f, order, True)
            # equal values at distinct indices still form a cross pair
            check(f, f, order, False)
    for key in GOLDEN:
        for level in free_resolution(gens_of(problem(key))[1]).levels:
            basis = level.basis
            for i in range(len(basis)):
                for j in range(i, len(basis)):
                    check(basis[i], basis[j], level.order, i == j)


def test_normalization_idempotent_and_merging():
    z = Integers()
    amb = Ambient(z, 2, 2)
    order = TopLex(2)
    m = Mono((1, 1), 0)
    v = Vector(amb, order, [Term(2, m), Term(3, m), Term(-5, m), Term(1, Mono((0, 0), 1))])
    assert len(v.terms) == 1
    again = Vector(amb, order, v.terms)
    assert again == v and again.terms == v.terms


def test_mixed_order_and_ambient_errors():
    p = problem("zint_ideal")
    a = vec(p, "Y^2")
    other_order = TopLex(2, (1, 0))
    b = Vector(a.ambient, other_order, a.terms)
    with pytest.raises(UsageError):
        a.add(b)
    assert reorder(b, p.order) == a


def test_reorder_keeps_a_vector_already_under_the_order():
    p = problem("zint_ideal")
    v = vec(p, "Y^2 + Y*X^3 + X^4 - 3")
    assert reorder(v, v.order) is v
    other = TopLex(2, (1, 0))
    w = reorder(v, other)
    assert w is not v and w.order is other and w == v
    assert [m for _, m in w.terms] == sorted((m for _, m in v.terms),
                                             key=lambda m: other.key(other.codec.encode(m)))
    assert w.terms != v.terms
    # an equal order that is another object still re-sorts under it
    u = reorder(v, TopLex(2))
    assert u is not v and u.terms == v.terms


def test_add_commutative_associative_term_mul_distributes():
    rng = random.Random(11)
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 2)
        order = TopLex(2)
        for _ in range(150):
            u = random_vector(rng, amb, order)
            v = random_vector(rng, amb, order)
            w = random_vector(rng, amb, order)
            assert u.add(v) == v.add(u)
            assert u.add(v).add(w) == u.add(v.add(w))
            c = random_element(rng, ring)
            exps = tuple(rng.randrange(3) for _ in range(2))
            lhs = u.add(v).term_mul(c, exps)
            rhs = u.term_mul(c, exps).add(v.term_mul(c, exps))
            assert lhs == rhs


def _axiom_check(order, nvars, rank, rng, rounds):
    for _ in range(rounds):
        m = random_mono(rng, nvars, rank, 3)
        n = random_mono(rng, nvars, rank, 3)
        cmn = order.compare(m, n)
        assert cmn == -order.compare(n, m)
        assert (cmn == 0) == (m == n)
        gamma = tuple(rng.randrange(3) for _ in range(nvars))
        if any(gamma):
            shifted = Mono(tuple(a + b for a, b in zip(m.exps, gamma)), m.pos)
            assert order.compare(shifted, m) > 0
        if cmn > 0:
            sm = Mono(tuple(a + b for a, b in zip(m.exps, gamma)), m.pos)
            sn = Mono(tuple(a + b for a, b in zip(n.exps, gamma)), n.pos)
            assert order.compare(sm, sn) > 0


def test_order_axioms_including_nested_schreyer():
    rng = random.Random(13)
    rounds = 1700  # x6 rings: >= 10^4 triples per order family
    for ring in rings_under_test():
        amb = Ambient(ring, 2, 2)
        base = TopLex(2)
        _axiom_check(base, 2, 2, rng, rounds)
        images = [random_nonzero_vector(rng, amb, base) for _ in range(3)]
        sch1 = Schreyer(images, base)
        _axiom_check(sch1, 2, 3, rng, rounds)
        amb2 = Ambient(ring, 2, 3)
        images2 = [random_nonzero_vector(rng, amb2, sch1) for _ in range(2)]
        sch2 = Schreyer(images2, sch1)
        _axiom_check(sch2, 2, 2, rng, rounds)


def test_schreyer_tie_break_on_equal_images():
    # images with equal leading monomials: comparison reduces to position
    p = problem("zint_ideal")
    g = vec(p, "Y^2 + 1")
    h = vec(p, "Y^2 - X")
    sch = Schreyer([g, h], p.order)
    e0 = Mono((0, 0), 0)
    e1 = Mono((0, 0), 1)
    assert sch.compare(e0, e1) > 0
    assert sch.compare(e1, e0) < 0


def test_schreyer_comparison_zint_ideal():
    # LM(X^2 g2) = X^4 vs LM(X g1) = X Y^2 under lex Y > X: X eps1 > X^2 eps2
    p = problem("zint_ideal")
    gens = [v for _, v in p.generators]
    sch = Schreyer(gens, p.order)
    x_eps1 = Mono((0, 1), 0)
    x2_eps2 = Mono((0, 2), 1)
    assert sch.compare(x_eps1, x2_eps2) > 0


def test_schreyer_rejects_zero_images():
    p = problem("zint_ideal")
    with pytest.raises(UsageError):
        Schreyer([Vector.zero(p.ambient, p.order)], p.order)


# -- sort keys against the recursive comparator they replaced ---------------


def reference_compare(order, m, n):
    """1, 0 or -1 as m is greater than, equal to or less than n, by the
    definitions: lex along the priority then the smaller position for
    TOP-lex; the parent order on LM(X^a g_l) then l < k for Schreyer."""
    if isinstance(order, Schreyer):
        lm_l, lm_k = order.images[m.pos].lm(), order.images[n.pos].lm()
        c = reference_compare(
            order.parent,
            Mono(tuple(a + b for a, b in zip(m.exps, lm_l.exps)), lm_l.pos),
            Mono(tuple(a + b for a, b in zip(n.exps, lm_k.exps)), lm_k.pos),
        )
        if c:
            return c
    else:
        for i in order.priority:
            if m.exps[i] != n.exps[i]:
                return 1 if m.exps[i] > n.exps[i] else -1
    if m.pos != n.pos:
        return 1 if m.pos < n.pos else -1
    return 0


def reference_sort_basis(vectors, order):
    def cmp(u, v):
        ring = u.ambient.ring
        for a, b in zip(u.terms, v.terms):
            c = reference_compare(order, a.mono, b.mono)
            if c:
                return c
            ka, kb = ring.sort_key(a.coeff), ring.sort_key(b.coeff)
            if ka != kb:
                return -1 if ka > kb else 1
        return (len(u.terms) > len(v.terms)) - (len(u.terms) < len(v.terms))

    return sorted(vectors, key=functools.cmp_to_key(cmp), reverse=True)


def _order_tower(rng, ring, nvars, ranks, priority=None):
    """A TOP-lex order, of a random priority by default, and Schreyer
    orders nested on it, one per entry of `ranks` (the rank each order
    acts on), with their ambients."""
    base = TopLex(nvars, priority or rng.sample(range(nvars), nvars))
    tower = [(base, Ambient(ring, nvars, ranks[0]))]
    for rank in ranks[1:]:
        parent, amb = tower[-1]
        images = [random_nonzero_vector(rng, amb, parent, 3, 3) for _ in range(rank)]
        tower.append((Schreyer(images, parent), Ambient(ring, nvars, rank)))
    return tower


def _mono_near_the_limit(rng, nvars, rank):
    """A monomial with each exponent small or within 2 of the largest a
    packed field holds."""
    top = (1 << (EXP_BITS - 1)) - 1
    return Mono(tuple(top - rng.randrange(3) if rng.random() < 0.5 else rng.randrange(4)
                      for _ in range(nvars)), rng.randrange(rank))


def test_keys_agree_with_reference_comparator():
    rng = random.Random(29)
    priorities = [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
    for ring in rings_under_test():
        # TOP-lex, then Schreyer orders nested one, two and three levels
        # deep, over a random priority and over every non-default one
        towers = [_order_tower(rng, ring, 3, [2, 3, 2, 3])]
        towers += [_order_tower(rng, ring, 3, [2, 3, 2, 3], p) for p in priorities]
        for order, amb in itertools.chain(*towers):
            codec = order.codec
            for k in range(400):
                draw = random_mono if k % 2 else _mono_near_the_limit
                m = draw(rng, amb.nvars, amb.rank)
                n = m if rng.random() < 0.1 else draw(rng, amb.nvars, amb.rank)
                want = reference_compare(order, m, n)
                km, kn = order.key(codec.encode(m)), order.key(codec.encode(n))
                assert isinstance(km, int) and order.unkey(km) == codec.encode(m)
                assert (km < kn) - (km > kn) == want
                assert order.compare(m, n) == want


def test_normalize_and_sort_basis_follow_the_reference():
    rng = random.Random(31)
    for ring in rings_under_test():
        for order, amb in _order_tower(rng, ring, 2, [2, 3, 2]):
            vectors = []
            for _ in range(40):
                terms = [Term(random_element(rng, ring), random_mono(rng, 2, amb.rank, 3))
                         for _ in range(rng.randrange(1, 7))]
                v = Vector(amb, order, terms)
                monos = sorted({t.mono for t in v.terms},
                               key=functools.cmp_to_key(lambda m, n: reference_compare(order, m, n)),
                               reverse=True)
                assert [t.mono for t in v.terms] == monos
                if not v.is_zero():
                    # a proper prefix, and a copy with its leading coefficient changed
                    vectors += [v, Vector.from_packed(amb, order, v.packed[:-1]),
                                Vector(amb, order, [v.terms[0]._replace(coeff=random_element(rng, ring))])]
            vectors = [v for v in vectors if not v.is_zero()]
            rng.shuffle(vectors)
            # also without leading-term ties, and with a zero vector
            untied = list({v.packed[0]: v for v in vectors}.values())
            with_zero = untied + [Vector.zero(amb, order)]
            rng.shuffle(with_zero)
            for inputs in (vectors, untied, with_zero):
                assert [v.terms for v in sort_basis(inputs, order)] == [
                    v.terms for v in reference_sort_basis(inputs, order)
                ]


def test_equal_priorities_give_equal_keys():
    rng = random.Random(37)
    a, b = TopLex(3, (2, 0, 1)), TopLex(3, [2, 0, 1])
    assert a == b and hash(a) == hash(b) and a != TopLex(3)
    assert a.codec is b.codec
    for _ in range(200):
        m = a.codec.encode(random_mono(rng, 3, 2, 4))
        assert a.key(m) == b.key(m)


# ---------------------------------------------------------------------------
# the packed-monomial codec
# ---------------------------------------------------------------------------


def test_pack_and_decode_round_trip():
    # every field and the position survive packing, for random
    # priorities, exponents up to the field limit and ranks past 256
    rng = random.Random(41)
    top = (1 << (EXP_BITS - 1)) - 1
    for nvars in range(1, 5):
        for _ in range(30):
            priority = tuple(rng.sample(range(nvars), nvars))
            codec = TopLex(nvars, priority).codec
            assert codec is TopLex(nvars, list(priority)).codec
            for _ in range(50):
                exps = tuple(rng.choice([0, 1, rng.randrange(top + 1), top]) for _ in range(nvars))
                mono = Mono(exps, rng.choice([0, 1, 255, 256, rng.randrange(4096)]))
                m = codec.encode(mono)
                assert codec.decode(m) == mono and codec.exps(m) == exps
                assert m & codec.guard == 0 and m & POSMASK == mono.pos


def test_packed_ring_monomials_multiply_by_addition():
    # X^a * e_pos times X^b is one addition, and divisibility is the
    # guard and position test on the difference
    rng = random.Random(43)
    codec = TopLex(3, (2, 0, 1)).codec
    for _ in range(300):
        a = random_mono(rng, 3, 4, 5)
        b = tuple(rng.randrange(4) for _ in range(3))
        n = random_mono(rng, 3, 4, 5)
        prod = codec.encode(a) + codec.pack(b, 0)
        assert codec.decode(prod) == Mono(tuple(x + y for x, y in zip(a.exps, b)), a.pos)
        gamma = mono_divides(a, n)
        diff = codec.encode(n) - codec.encode(a)
        assert (diff & codec.divmask == 0) == (gamma is not None)
        if gamma is not None:
            assert codec.decode(diff) == Mono(gamma, 0)


def test_overflow_raises_and_never_wraps():
    top = (1 << (EXP_BITS - 1)) - 1
    z = Integers()
    order = TopLex(2)
    codec = order.codec
    # packing an exponent at 2^(W-1), or a negative one
    for exps in ((top + 1, 0), (0, top + 1), (-1, 0)):
        with pytest.raises(InternalError):
            codec.pack(exps, 0)
    with pytest.raises(InternalError):
        Vector(Ambient(z, 2, 1), order, [Term(1, Mono((top + 1, 0), 0))])
    # a product that carries into a guard bit: a term product and an
    # accumulated one
    amb = Ambient(z, 2, 2)
    v = Vector(amb, order, [Term(1, Mono((1, top), 1)), Term(1, Mono((0, 0), 0))])
    assert v.term_mul(1, (top - 1, 0)).terms[0].mono == Mono((top, top), 1)
    with pytest.raises(InternalError):
        v.term_mul(1, (0, 1))
    acc = Accumulator(amb, order)
    with pytest.raises(InternalError):
        acc.add_term_mul(1, codec.pack((0, 1), 0), v.packed)
    assert all(m & codec.guard == 0 for m in acc.coeffs)
    # a Schreyer shift folded past the limit: two nested images whose
    # leading exponents add up to 2^(W-1)
    half = 1 << (EXP_BITS - 2)
    image = Vector(Ambient(z, 2, 1), order, [Term(1, Mono((half, 0), 0))])
    inner = Schreyer([image], order)
    assert inner.fold(0) == (codec.pack((half, 0), 0), 0)
    outer_image = Vector(Ambient(z, 2, 1), inner, [Term(1, Mono((half - 1, 0), 0))])
    Schreyer([outer_image], inner)
    outer_image = Vector(Ambient(z, 2, 1), inner, [Term(1, Mono((half, 0), 0))])
    with pytest.raises(InternalError):
        Schreyer([outer_image], inner)


def _size(order):
    """The attributes of an order with the length of each container."""
    return {name: (len(value) if hasattr(value, "__len__") else None)
            for name, value in vars(order).items()}


def test_order_size_does_not_grow_with_key_calls():
    # keys are computed, not memoised: 10k keys of distinct monomials
    # leave an order as large as it was
    rng = random.Random(47)
    for order, amb in _order_tower(rng, Integers(), 3, [2, 3, 2]):
        codec = order.codec
        before = _size(order)
        monos = {codec.pack((k % 23, k // 23 % 29, k // 667), k % amb.rank) for k in range(10_000)}
        assert len(monos) == 10_000
        for m in monos:
            assert order.unkey(order.key(m)) == m
        assert _size(order) == before


def test_an_order_on_other_variables_is_a_usage_error():
    # packing along an order on fewer variables would drop exponents
    # and merge distinct monomials
    terms = [Term(1, Mono((1, 2, 3), 0)), Term(2, Mono((1, 2, 4), 0))]
    with pytest.raises(UsageError):
        Vector(Ambient(Integers(), 3, 1), TopLex(2), terms)
    with pytest.raises(UsageError):
        Vector(Ambient(Integers(), 3, 1), TopLex(4), terms)


def test_equal_vectors_under_different_priorities_hash_equal():
    p = problem("zint_ideal")
    v = vec(p, "Y^2 + Y*X^3 + X^4 - 3")
    w = reorder(v, TopLex(2, (1, 0)))
    assert w.order.codec is not v.order.codec and w.packed != v.packed
    assert w == v and hash(w) == hash(v)
