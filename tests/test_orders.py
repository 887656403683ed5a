"""The block congruences of `ceresa.forced_order` against the `Lattice`
readings they replace.

The least k of a block of wedge^3 in the Smith frame depends on its index
pattern, which of its distinct indices are cycle slots, q and the d-values
(README, "Orders").  Every key is read here by `ceresa._blocks_order`, with
seeded integral tags and no y'_l column, against
`helpers.lattice_block_order`; the blocks that a free y'_l couples (h = g,
q = None) are read together by the same routine, with seeded y'_l columns,
against `helpers.coupled_lattice_order`.
"""

import random
from itertools import combinations, product
from math import gcd
from pathlib import Path

from tropceresa import ceresa, cli
from tropceresa import intlinalg as la
from tropceresa.catalog import builtin_curve, builtin_table
from tropceresa.exterior import _wedge_step, embed_H_in_L
from tropceresa.graph_core import load_curve

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
                got = ceresa._blocks_order([(reading, tag, d, {})], s)
                assert got == want, (pattern, slots, q, s, tag)
                seen.add(min(want, 2) if want else "inf")
            assert seen == {1, "inf"} | ({2} if related else set()), (pattern, cycle, q)
            keys += 1
    assert keys == 2 * (4 + 4 + 8)


def _coupled_case(rng, trial) -> tuple:
    """(d, s, parts, keys): a seeded coupled case at h = g, q = None.  The
    keys mix blocks {i, i, j} and {i < j < k}; parts[1:] are 1..g y'_l
    columns on their two-b monomials, and parts[0] the class part: s times a
    combination of the relations less a combination of the columns (order
    1), that unscaled and plus noise on one monomial that has a relation
    (order > 1 mostly), or that with noise on a monomial in no relation
    (no order)."""
    g = rng.choice((3, 4))
    d = [rng.randint(1, 6) for _ in range(g)]
    s = rng.choice((1, 2, 6))
    pairs = sorted({tuple(sorted((i, i, j))) for i in range(g) for j in range(g) if i != j})
    triples = list(combinations(range(g), 3))
    keys = rng.sample(pairs, rng.randint(1, 3))
    keys += rng.sample(triples, rng.randint(1, min(2, len(triples))))
    blocks = {}
    for key in keys:
        idx = sorted(set(key))
        m = len(idx)
        monos, rels = helpers.block_relations(
            tuple(map(idx.index, key)), tuple((d[i], True) for i in idx), None)
        glob = [tuple(idx[i % m] + g * (i >= m) for i in t) for t in monos]
        blocks[key] = glob, [{glob[c]: x for c, x in rel.items()} for rel in rels]
    cols = []
    for _ in range(rng.randint(1, g)):
        col = {}
        for key, (monos, _) in blocks.items():
            for t in monos:
                if sum(i >= g for i in t) == 2 and rng.random() < 0.7:
                    col.setdefault(key, {})[t] = (rng.randint(-4, 4) or 1) * rng.choice((1, s))
        cols.append(col)
    kind = trial % 3
    ys = [rng.randint(-2, 2) for _ in cols]
    part = {}
    for key, (monos, rels) in blocks.items():
        tag = {}
        for rel in rels:
            a = rng.randint(-2, 2) * (s if kind == 0 else 1)
            for t, x in rel.items():
                tag[t] = tag.get(t, 0) + a * x
        for a, col in zip(ys, cols):
            for t, x in col.get(key, {}).items():
                tag[t] = tag.get(t, 0) - a * x
        part[key] = tag
    if kind:
        key = rng.choice(keys)
        monos, rels = blocks[key]
        related = set().union(*rels)
        t = rng.choice([t for t in monos if (t in related) == (kind == 1)])
        part[key][t] = part[key].get(t, 0) + rng.choice((-1, 1))
    part = {key: {t: c for t, c in tag.items() if c} for key, tag in part.items()}
    return d, s, [part, *cols], set(keys)


def _coupled_blocks(d, s, parts, keys) -> list:
    """A coupled case's blocks as `ceresa._blocks_order` reads them: each
    key through `ceresa._block_tag`, with the y'_l columns that touch it."""
    return [
        ceresa._block_tag(key, parts[0].get(key, {}),
                          {l: col[key] for l, col in enumerate(parts[1:]) if key in col},
                          d, len(d), None)
        for key in keys
    ]


def _splits_off(blocks, s) -> bool:
    """Whether a block with a y'_l column has a class coordinate, not 0 mod
    E, that no column touches mod E: a summand Z/E that splits off G."""
    for reading, tag, d, columns in blocks:
        read = ceresa._block_congruences(reading, tag, d, s)
        if read and columns:
            cols = [ceresa._block_congruences(reading, col, d, s)[1] for col in columns.values()]
            if any(x % e and not any(col[c][1] % e for col in cols)
                   for c, (e, x) in enumerate(read[1])):
                return True
    return False


def test_coupled_congruences_match_the_coupled_lattice():
    """The coupled blocks read as congruences (`ceresa._blocks_order`)
    give the least k of the one lattice over their monomials
    (`helpers.coupled_lattice_order`) on seeded cases: d in 1..6, s in
    {1, 2, 6}, keys mixing {i, i, j} and {i < j < k}, 1..g y'_l columns.
    At least 40 cases each have order 1, order > 1 and no order, and at
    least 40 a class coordinate in a summand that splits off G."""
    rng = random.Random(41)
    seen = {1: 0, 2: 0, "inf": 0, "split": 0}
    for trial in range(300):
        d, s, parts, keys = _coupled_case(rng, trial)
        want = helpers.coupled_lattice_order(d, s, parts, keys)
        blocks = _coupled_blocks(d, s, parts, keys)
        assert ceresa._blocks_order(blocks, s) == want, (d, s, parts, keys)
        seen[min(want, 2) if want else "inf"] += 1
        seen["split"] += _splits_off(blocks, s)
    assert min(seen.values()) >= 40, seen


def test_y_columns_have_two_bs():
    """omega' ^ b_l in the Smith frame has two b's in every term, so Y-degree
    2 at h = g, on the five built-in graphs and k4_w1: a y'_l column meets
    no zero, single or bbb coordinate of a block, only diagonal and pair
    ones, which `_blocks_order` rests on."""
    curves = [builtin_curve(name) for name in ("k4", "tl3", "theta-w1", "3balloon", "theta0")]
    for curve in curves + [load_curve(str(Path(__file__).parent / "data" / "k4_w1.json"))]:
        ctx = ceresa.build_context(curve)
        g = ctx.g
        for l in range(g):
            for t in _wedge_step(ctx.omega_frame.coeffs, [(g + l, 1)]):
                assert sum(i >= g for i in t) == 2, (curve, l, t)
                assert ctx.filt.y_degree(t) == 2 or not ctx.maximal_rank, (curve, l, t)


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


def test_deficient_rank_sample_draws_build_no_lattice_in_ceresa(capsys, monkeypatch):
    """A theta-w1 `sample` draw reads both of its orders in closed form: no
    `Lattice` is built from `ceresa`.  The maximal-rank ambient order of a
    class that is not pure reads its coupled blocks as congruences: it
    builds no lattice over wedge^3 monomials, only `_blocks_order`'s one
    lattice over the coordinates that a y'_l column touches.  Measured on
    tl3 (d = 1, 2, 1, 18, two free y'_l): one lattice of 8 columns, against
    the C(8, 3) = 56 monomials of wedge^3."""
    built = helpers.count_ceresa_lattices(monkeypatch)
    code = cli.main([
        "sample", "--graph", "builtin:theta-w1", "--table", "builtin:theta-w1",
        "--count", "20", "--seed", "4", "--workers", "1",
    ])
    assert code == 0 and capsys.readouterr().out
    assert built == []
    ctx = ceresa.build_context(builtin_curve("tl3"))
    v = ceresa.v_class(ctx, builtin_table("tl3"))
    ceresa.ambient_order(ctx, v + embed_H_in_L([1] + [0] * (2 * ctx.g - 1), ctx.g))
    assert built == [("_blocks_order", 8)]
