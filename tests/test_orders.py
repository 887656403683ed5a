"""The closed-form block readings of `ceresa.forced_order` against the
per-block `Lattice` reading they replace.

Off the coupled case (h = g, q = None, blocks touched by a free y'_l), the
least k of a block of wedge^3 in the Smith frame depends on its index
pattern, which of its distinct indices are cycle slots, q and the d-values
(README, "Orders").  Every such key is read here, with seeded integral tags,
against `helpers.lattice_block_order`.
"""

import random
import sys
from itertools import product
from math import gcd

from tropceresa import ceresa, cli
from tropceresa import intlinalg as la
from tropceresa.catalog import builtin_curve, builtin_table
from tropceresa.exterior import embed_H_in_L

import helpers


def _tag(rng, rels, monos, trial):
    """A seeded integral tag over the block's monomials: a combination of
    its relations, that with one relation made primitive, either plus noise
    on one monomial, or all zero."""
    kind = trial % 5
    rels = [rel for rel in rels if rel]
    if kind == 4 or not rels:
        return {} if kind == 4 else {rng.choice(monos): rng.randint(-3, 3) or 1}
    coeffs = [rng.randint(-3, 3) for _ in rels]
    if kind in (1, 3):  # one relation over the gcd of its entries
        r = rng.randrange(len(rels))
        big = gcd(*rels[r].values())
        rows = [{c: x // big for c, x in rel.items()} if i == r else rel for i, rel in enumerate(rels)]
    else:
        rows = rels
    tag: dict = {}
    for a, rel in zip(coeffs, rows):
        for c, x in rel.items():
            tag[monos[c]] = tag.get(monos[c], 0) + a * x
    if kind >= 2:
        t = rng.choice(monos)
        tag[t] = tag.get(t, 0) + (rng.randint(-3, 3) or 1)
    return {t: c for t, c in tag.items() if c}


def test_block_readings_match_the_lattice_reading():
    """Every uncoupled key: the patterns {i, i, j}, {i, j, j} and {i < j < k},
    each cycle/weight profile of their distinct indices (all-cycle is the
    maximal-rank one), q in {2, None}; d in 1..6 on the cycle slots and 0 on
    the weight slots, s in {1, 2, 6}.  The closed form equals the lattice
    reading, and each key shows the orders 1 and inf, and > 1 wherever it
    has a relation."""
    rng = random.Random(38)
    keys = 0
    for pattern in ((0, 0, 1), (0, 1, 1), (0, 1, 2)):
        m = len(set(pattern))
        for cycle, q in product(product((False, True), repeat=m), (2, None)):
            reading = ceresa._block_reading(pattern, cycle, q)
            seen, related = set(), False
            for trial in range(60):
                d = [rng.randint(1, 6) if c else 0 for c in cycle]
                s = rng.choice((1, 2, 6))
                slots = tuple(zip(d, cycle))
                monos, rels = helpers.block_relations(pattern, slots, q)
                related |= any(rels)
                tag = _tag(rng, rels, monos, trial)
                want = helpers.lattice_block_order(pattern, slots, q, tag, s)
                assert ceresa._block_order(reading, tag, d, s) == want, (pattern, slots, q, s, tag)
                seen.add(min(want, 2) if want else "inf")
            assert seen == {1, "inf"} | ({2} if related else set()), (pattern, cycle, q)
            keys += 1
    assert keys == 2 * (4 + 4 + 8)


def test_triple_smith_is_the_smith_form_of_m_s():
    """The shared M_S helper of `group_table` and `forced_order` gives
    `intlinalg.smith_diagonal`'s e, and its V carries the rows of M_S onto
    those of diag(e), for d in 1..6."""
    for d in product(range(1, 7), repeat=3):
        di, dj, dk = d
        m_s = [[dj, dk, 0], [di, 0, dk], [0, di, dj]]
        e, v = ceresa._triple_smith(*d)
        assert list(e) == la.smith_diagonal(m_s)[0]
        mv = [[sum(x * row[c] for x, row in zip(r, v)) for c in range(3)] for r in m_s]
        assert la.lattice_eq(mv, [[x if i == j else 0 for j in range(3)] for i, x in enumerate(e)], 3)


def _count_ceresa_lattices(monkeypatch):
    """The sizes of the `Lattice`s that code in `ceresa` builds itself."""
    built = []

    class Counted(la.Lattice):
        def __init__(self, n, vectors=()):
            if sys._getframe(1).f_globals["__name__"] == ceresa.__name__:
                built.append(n)
            super().__init__(n, vectors)

    monkeypatch.setattr(la, "Lattice", Counted)
    return built


def test_deficient_rank_sample_draws_build_no_lattice_in_ceresa(capsys, monkeypatch):
    """A theta-w1 `sample` draw reads both of its orders in closed form: no
    `Lattice` is built from `ceresa`.  The maximal-rank ambient order of a
    class that is not pure still builds its one coupled lattice there."""
    built = _count_ceresa_lattices(monkeypatch)
    code = cli.main([
        "sample", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1",
        "--count", "20", "--seed", "4", "--workers", "1",
    ])
    assert code == 0 and capsys.readouterr().out
    assert built == []
    ctx = ceresa.build_context(builtin_curve("tl3"))
    v = ceresa.v_class(ctx, builtin_table("tl3"))
    ceresa.ambient_order(ctx, v + embed_H_in_L([1] + [0] * (2 * ctx.g - 1), ctx.g))
    assert len(built) == 1
