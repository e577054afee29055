"""The verifier's pair check, `syzygy._check_level`, differentially: its
(standard, identity) witnesses must equal those of the frozen
`reference_check_level` on the golden and seeded resolutions, and on
certificates with one injected fault each."""

import random

import pytest

from gbsyz import (
    Ambient,
    Integers,
    IntegersLocalizedAt,
    IntegersMod,
    TopLex,
    TruncatedF2y,
    Vector,
    free_resolution,
    parse_problem,
)
from gbsyz import syzygy
from gbsyz.poly import Accumulator
from gbsyz.syzygy import ResolutionLevel
from helpers import GOLDEN, gens_of, problem, random_nonzero_vector, reference_check_level, vec

RINGS = (Integers(), IntegersMod(4), IntegersMod(6), IntegersLocalizedAt(2), TruncatedF2y(3))


def seeded_resolutions():
    rng = random.Random(25)
    order = TopLex(2)
    for ring in RINGS:
        for rank in (1, 2):
            amb = Ambient(ring, 2, rank)
            for _ in range(3):
                gens = [random_nonzero_vector(rng, amb, order, max_terms=3, max_exp=2)
                        for _ in range(rng.randrange(2, 4))]
                yield free_resolution(gens)


def all_levels():
    """Every nonempty level of the golden and seeded resolutions, with its
    certificate."""
    resolutions = [free_resolution(gens_of(problem(key))[1]) for key in GOLDEN]
    resolutions += list(seeded_resolutions())
    return [(level, syzygy._certificate_of(level))
            for res in resolutions for level in res.levels if level.basis]


def witnesses(level, cert):
    """(got, want): the witnesses of `_check_level` and of the reference."""
    ring = level.basis[0].ambient.ring
    return syzygy._check_level(level, cert, ring), reference_check_level(level, cert, ring)


def with_terms(lift, terms):
    """lift plus the packed (coeff, mono) terms, summed."""
    acc = Accumulator(lift.ambient, lift.order, lift.packed)
    for c, m in terms:
        acc.add(c, m)
    return acc.vector()


def faults(level, cert, ij):
    """(name, certificate) per fault injected at the pair ij of cert."""
    basis, lift = level.basis, cert.pairs[ij]
    ring, last = lift.ambient.ring, len(basis) - 1
    high = level.order.codec.pack((9,) * lift.ambient.nvars, 0)
    c, m = lift.packed[-1]

    def replaced(new):
        return cert._replace(pairs={**cert.pairs, ij: new})

    yield "dropped", cert._replace(pairs={k: v for k, v in cert.pairs.items() if k != ij})
    wide = lift.ambient._replace(rank=len(basis) + 1)
    yield "wrong rank", replaced(Vector.from_packed(wide, lift.order, lift.packed))
    # two positions over the bound when there are two, so the witness
    # must name the least
    over = [(ring.one(), high + pos) for pos in sorted({last, 0}, reverse=True)]
    yield "over the bound", replaced(with_terms(lift, over))
    yield "unreduced", cert._replace(unreduced=cert.unreduced | {ij})
    yield "changed coefficient", replaced(with_terms(lift, [(ring.one(), m)]))
    yield "negated coefficient", replaced(with_terms(lift, [(ring.neg(c), m)]))


def test_check_level_matches_the_reference_on_resolutions():
    levels = all_levels()
    assert len(levels) > 60
    assert not any(cert.unreduced for _, cert in levels)
    for level, cert in levels:
        got, want = witnesses(level, cert)
        assert got == want == (None, None)


def test_check_level_matches_the_reference_on_injected_faults():
    kinds = {}
    for level, cert in all_levels():
        for ij in cert.pairs:
            for name, bad in faults(level, cert, ij):
                got, want = witnesses(level, bad)
                assert got == want, (name, ij, level.basis)
                assert got != (None, None), (name, ij)
                kinds.setdefault(name, set()).add(got)
    # every kind of fault gives more than one distinct pair of witnesses
    assert len(kinds) == 6
    assert all(len(found) > 1 for found in kinds.values())
    assert any(w[0] and "above LM(S)" in w[0] for w in kinds["over the bound"])
    assert any(w[0] is None and w[1] for w in kinds["changed coefficient"])


def hand_built_levels():
    """Levels built by hand, with no certificate: two elements that are
    not a Groebner basis; X + Y and Y twice, whose last pair has a zero
    S-polynomial; and three rank-2 elements over Z/4 at one leading
    position."""
    p = parse_problem("ring Z; vars X Y; rank 1; f = X + 1;")
    yield ResolutionLevel((vec(p, "X*Y + 1"), vec(p, "X^2 + Y")), p.order, ("a", "b"))
    yield ResolutionLevel((vec(p, "X + Y"), vec(p, "Y"), vec(p, "Y")), p.order, ("a", "b", "c"))
    q = parse_problem("ring Z/4; vars X Y; rank 2; f = [X, 0];")
    yield ResolutionLevel((vec(q, "[2*X, Y]"), vec(q, "[X + 1, 0]"), vec(q, "[2*X + 2, Y]")),
                          q.order, ("a", "b", "c"))


@pytest.mark.parametrize("index", range(3))
def test_check_level_matches_the_reference_on_hand_built_levels(index):
    level = list(hand_built_levels())[index]
    cert = syzygy._certificate_of(level._replace(certificate=None))
    got, want = witnesses(level, cert)
    assert got == want
    for ij in cert.pairs:
        for name, bad in faults(level, cert, ij):
            got, want = witnesses(level, bad)
            assert got == want, (name, ij)


def test_a_failing_pair_leaves_nothing_for_the_next():
    # pair (1,2) of [X + Y, Y, Y] has a quotient term, Y eps_2, at the
    # bound; doubling it breaks only the identity. Pair (2,3) has S = 0,
    # so the constant quotient term added to its lift is over the bound:
    # a residue of pair (1,2) in the work sum would hide it
    level = list(hand_built_levels())[1]
    cert = syzygy._certificate_of(level)
    pack = level.order.codec.pack
    first, second = cert.pairs[0, 1], cert.pairs[1, 2]
    quotient = pack((0, 1), 1)
    assert (-1, quotient) in first.packed
    assert list(second.packed) == [(1, pack((0, 0), 1)), (-1, pack((0, 0), 2))]
    pairs = {**cert.pairs, (0, 1): with_terms(first, [(-1, quotient)]),
             (1, 2): with_terms(second, [(1, pack((0, 0), 1))])}
    got, want = witnesses(level, cert._replace(pairs=pairs))
    assert got == want == ("S-pair (2,3) has LM(q2) * LM(g2) above LM(S)",
                           "S-pair (1,2) differs from sum q_l g_l")
