import random
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from tropceresa.errors import PreconditionError, SchemaError
from tropceresa.graph_core import (
    curve_from_json,
    curve_to_json,
    genus,
    graph_genus,
    hyperelliptic_involutions,
    is_hyperelliptic,
    is_stable,
    load_curve,
    quotient_curve,
    scaled_to_integer,
    spanning_trees,
    stabilize,
    symanzik,
    tropical_curve,
    validate_involution,
)

from tropceresa import graph_core
from tropceresa.symplectic import homology_basis, polarization_Q

from helpers import (
    banana_curve,
    brute_hyperelliptic_involutions,
    brute_spanning_trees,
    det_fraction,
    involutions,
    is_identity,
    k4_curve,
    k4_doubled,
    loop_chain_curve,
    quotient_genus,
    random_curve,
    separating_edges,
)


def barbell():
    """The dumbbell: two loops joined by a bridge."""
    return tropical_curve(
        [("p", 0), ("q", 0)],
        [("lp", ("p", "p"), 1), ("lq", ("q", "q"), 1), ("br", ("p", "q"), 1)],
    )


def theta0(lengths=(1, 1, 1)):
    return tropical_curve(
        [("u", 0), ("v", 0)],
        [("t1", ("u", "v"), lengths[0]), ("u2", ("u", "v"), lengths[1]), ("u3", ("u", "v"), lengths[2])],
    )


def balloon3():
    return tropical_curve(
        [("z", 0), ("v1", 1), ("v2", 1), ("v3", 1)],
        [("b1", ("z", "v1"), 1), ("b2", ("z", "v2"), 1), ("b3", ("z", "v3"), 1)],
    )


# -- genus ------------------------------------------------------------------


def test_genus_examples():
    assert genus(k4_curve()) == 3
    theta_w1 = tropical_curve(
        [("u", 1), ("v", 1)],
        [("t1", ("u", "v"), 1), ("u2", ("u", "v"), 1), ("u3", ("u", "v"), 1)],
    )
    assert genus(theta_w1) == 4
    assert graph_genus(theta_w1) == 2
    assert genus(tropical_curve([("p", 0)], [])) == 0


def test_disconnected_rejected():
    with pytest.raises(SchemaError):
        tropical_curve([("a", 0), ("b", 0)], [])


# -- stabilize ---------------------------------------------------------------


def test_stabilize_subdivision():
    sub = tropical_curve(
        [("u", 0), ("v", 0), ("m", 0)],
        [
            ("t1", ("u", "v"), 3),
            ("x1", ("u", "m"), 1),
            ("x2", ("m", "v"), 2),
            ("t3", ("u", "v"), 4),
        ],
    )
    st = stabilize(sub)
    assert genus(st) == 2
    assert sorted(e.length for e in st.edges) == [3, 3, 4]


def test_stabilize_leaf_and_fixpoint():
    k = k4_curve()
    leafed = tropical_curve(
        [(v.id, v.weight) for v in k.vertices] + [("x", 0)],
        [(e.id, e.ends, e.length) for e in k.edges] + [("zz", ("a", "x"), 1)],
    )
    assert stabilize(leafed) == k
    assert stabilize(k) == k


def test_stabilize_idempotent_preserves_genus_and_cycles():
    rng = random.Random(0)
    for _ in range(60):
        c = random_curve(rng)
        s = stabilize(c)
        assert stabilize(s) == s
        assert genus(s) == genus(c)
        assert is_stable(s)
        # the cycle metric is untouched, so the tree polynomial agrees
        assert symanzik(s) == symanzik(c)


def test_stabilize_confluence_under_relabeling():
    # renaming scrambles the processing order; the stable model is the same
    sub = tropical_curve(
        [("u", 0), ("v", 0), ("m", 0), ("x", 0)],
        [
            ("a", ("u", "m"), 1),
            ("b", ("m", "v"), 2),
            ("c", ("u", "v"), 3),
            ("d", ("u", "v"), 4),
            ("e", ("v", "x"), 5),
        ],
    )
    ren = tropical_curve(
        [("u", 0), ("v", 0), ("m", 0), ("x", 0)],
        [
            ("z", ("u", "m"), 1),
            ("y", ("m", "v"), 2),
            ("c", ("u", "v"), 3),
            ("d", ("u", "v"), 4),
            ("w", ("v", "x"), 5),
        ],
    )
    s1, s2 = stabilize(sub), stabilize(ren)
    assert sorted(e.length for e in s1.edges) == sorted(e.length for e in s2.edges)
    assert genus(s1) == genus(s2)


def test_stabilize_genus_guard():
    with pytest.raises(PreconditionError):
        stabilize(tropical_curve([("p", 1)], []))


# -- spanning trees and the tree polynomial ----------------------------------


def test_spanning_tree_examples():
    tri = tropical_curve(
        [("a", 0), ("b", 0), ("c", 0)],
        [("e1", ("a", "b"), 1), ("e2", ("b", "c"), 1), ("e3", ("c", "a"), 1)],
    )
    assert len(spanning_trees(tri)) == 3
    assert len(spanning_trees(k4_curve())) == 16
    loop = tropical_curve([("p", 0)], [("l", ("p", "p"), 5)])
    assert spanning_trees(loop) == [()]


def test_spanning_trees_against_brute_force():
    rng = random.Random(1)
    for _ in range(40):
        c = random_curve(rng)
        assert sorted(spanning_trees(c)) == brute_spanning_trees(c)


def test_symanzik_examples():
    assert symanzik(k4_curve()) == 16
    loop = tropical_curve([("p", 0)], [("l", ("p", "p"), 5)])
    assert symanzik(loop) == 5
    tree = tropical_curve(
        [("a", 0), ("b", 1), ("c", 1)],
        [("e1", ("a", "b"), 3), ("e2", ("a", "c"), 7)],
    )
    assert symanzik(tree) == 1


def _spanning_tree_sum(curve):
    """The Symanzik polynomial by its definition: a sum over the spanning
    trees of the product of the lengths outside each."""
    return sum(
        (prod((e.length for e in curve.edges if e.id not in tree), start=Fraction(1))
         for tree in map(set, spanning_trees(curve))),
        start=Fraction(0),
    )


def test_symanzik_matches_the_spanning_tree_sum():
    """The matrix-tree determinant equals the sum over spanning trees on 300
    random curves (loops, parallel edges and weights included), a third of
    them with rational lengths."""
    rng = random.Random(44)
    seen = {"loops": 0, "rational": 0}
    for trial in range(300):
        curve = random_curve(rng, max_edges=9)
        if trial % 3 == 0:
            curve = curve.with_lengths(
                {e.id: Fraction(rng.randint(1, 12), rng.randint(1, 6)) for e in curve.edges}
            )
            seen["rational"] += any(e.length.denominator > 1 for e in curve.edges)
        seen["loops"] += any(e.ends[0] == e.ends[1] for e in curve.edges)
        assert symanzik(curve) == _spanning_tree_sum(curve), curve
    assert min(seen.values()) >= 80, seen


def test_symanzik_of_the_genus_16_prism_is_its_cycle_determinant():
    """On the genus-16 prism (45 edges, where enumerating the C(45, 29)
    edge subsets never ends) symanzik returns within a second and equals
    the determinant of the Gram matrix of its cycles."""
    curve = load_curve(str(Path(__file__).parent / "data" / "prism16.json"))
    assert genus(curve) == 16 and len(curve.edges) == 45
    start = time.process_time()
    value = symanzik(curve)
    assert time.process_time() - start < 1
    gram = polarization_Q(curve, homology_basis(curve))
    assert value == det_fraction(gram)


def test_scaled_to_integer():
    c = tropical_curve(
        [("p", 0)],
        [("l1", ("p", "p"), "7/2"), ("l2", ("p", "p"), "5/3")],
    )
    scaled, m = scaled_to_integer(c)
    assert m == 6
    assert sorted(e.length for e in scaled.edges) == [10, 21]


# -- cuts ---------------------------------------------------------------------


def test_separating_edges():
    assert separating_edges(barbell()) == {"br"}
    assert separating_edges(k4_curve()) == set()
    assert separating_edges(balloon3()) == {"b1", "b2", "b3"}


def test_bridges_are_the_zero_loop_classes():
    """An edge lies on no cycle exactly when its loop class in the homology
    basis is zero: the twist table reads its bridges off the basis."""
    rng = random.Random(20)
    weighted_trees = [
        tropical_curve([("a", 2), ("b", 1)], [("e", ("a", "b"), 1)]),
        tropical_curve(
            [("a", 1), ("b", 0), ("c", 1)],
            [("e", ("a", "b"), 1), ("f", ("b", "c"), 2)],
        ),
    ]
    named = [
        barbell(), balloon3(), k4_curve(), theta0(), loop_chain_curve(3),
        banana_curve(4), k4_doubled(3, [1] * 9), *weighted_trees,
    ]
    counts = {True: 0, False: 0}
    for curve in [random_curve(rng) for _ in range(300)] + named:
        loops = homology_basis(curve).edge_loop_class
        zero = {eid for eid, loop in loops.items() if not any(loop)}
        assert zero == separating_edges(curve)
        counts[bool(zero)] += 1
    assert min(counts.values()) >= 50, counts


# -- involutions and hyperellipticity ----------------------------------------


def test_k4_involutions():
    invs = involutions(k4_curve())
    nonid = [i for i in invs if not is_identity(i)]
    assert len(nonid) == 9
    for i in invs:
        validate_involution(k4_curve(), i)
    assert not is_hyperelliptic(k4_curve())


def test_k4_not_hyperelliptic_any_lengths():
    rng = random.Random(3)
    for _ in range(10):
        c = tuple(rng.randint(1, 9) for _ in range(6))
        assert not is_hyperelliptic(k4_curve(c))
    assert not is_hyperelliptic(k4_curve((2, 2, 2, 2, 2, 2)))


def test_theta0_hyperelliptic_and_quotient():
    for lengths in ((1, 1, 1), (2, 3, 5)):
        th = theta0(lengths)
        assert is_hyperelliptic(th)
        swap = next(
            i for i in hyperelliptic_involutions(th) if i.vertex_map["u"] == "v"
        )
        quo = quotient_curve(th, swap)
        assert graph_genus(quo) == 0
        assert len(quo.edges) == 3 and len(quo.vertices) == 4


def test_balloon_barbell_banana_chain_hyperelliptic():
    assert is_hyperelliptic(balloon3())
    assert is_hyperelliptic(barbell())
    for n in (3, 4, 5):
        assert is_hyperelliptic(banana_curve(n))
    for n in (2, 3, 4):
        assert is_hyperelliptic(loop_chain_curve(n))


def test_banana_family_has_only_the_vertex_swap():
    # from n = 11 on, bananas lie past the reach of the exhaustive oracle
    for n in range(3, 46):
        (inv,) = hyperelliptic_involutions(banana_curve(n))
        assert inv.vertex_map == {"u": "v", "v": "u"}
        assert all(e == img for e, img in inv.edge_map.items())
        assert not inv.flipped_loops


def unit_prism(n):
    """C_n x K_2 with unit lengths: genus n + 1 and 3n edges."""
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(f"r{i:02}", (f"u{i:02}", f"v{i:02}"), 1),
                  (f"u{i:02}", (f"u{i:02}", f"u{j:02}"), 1),
                  (f"v{i:02}", (f"v{i:02}", f"v{j:02}"), 1)]
    return tropical_curve([(f"{s}{i:02}", 0) for s in "uv" for i in range(n)], edges)


def test_large_families_decide_past_twelve_edges():
    """Unit prisms C_n x K_2 (n = 5..15, up to 45 edges) are 3-edge-connected
    and no banana, so none is hyperelliptic; loop chains up to 45 edges have
    exactly the reflection that fixes every vertex.  No edge cap refuses
    them: the search is one walk per candidate image of the first vertex."""
    for n in range(5, 16):
        assert hyperelliptic_involutions(unit_prism(n)) == []
    for n in range(2, 24):
        chain = loop_chain_curve(n)
        (inv,) = hyperelliptic_involutions(chain)
        assert all(x == y for x, y in inv.vertex_map.items())
        assert inv.flipped_loops == {f"l{i}" for i in range(n)}
    assert len(chain.edges) == 45


def test_unstable_input_rejected():
    sub = tropical_curve(
        [("u", 0), ("v", 0), ("m", 0)],
        [
            ("t1", ("u", "v"), 3),
            ("x1", ("u", "m"), 1),
            ("x2", ("m", "v"), 2),
            ("t3", ("u", "v"), 4),
        ],
    )
    with pytest.raises(PreconditionError):
        hyperelliptic_involutions(sub)


def brute_involutions(curve):
    """Independent search over all vertex/edge permutation pairs."""
    from itertools import permutations

    weight = {v.id: v.weight for v in curve.vertices}
    vids = sorted(weight)
    eids = [e.id for e in curve.sorted_edges()]
    edge = {e.id: e for e in curve.edges}
    out = []
    for vperm in permutations(vids):
        vmap = dict(zip(vids, vperm))
        if any(vmap[vmap[v]] != v for v in vids):
            continue
        if any(weight[v] != weight[vmap[v]] for v in vids):
            continue
        if any(weight[v] > 0 and vmap[v] != v for v in vids):
            continue
        for eperm in permutations(eids):
            emap = dict(zip(eids, eperm))
            if any(emap[emap[e]] != e for e in eids):
                continue
            ok = True
            for e in eids:
                img = emap[e]
                u, w = edge[e].ends
                if {vmap[u], vmap[w]} != set(edge[img].ends):
                    ok = False
                    break
                if edge[e].length != edge[img].length:
                    ok = False
                    break
            if ok:
                loops_free = [
                    e
                    for e in eids
                    if edge[e].ends[0] == edge[e].ends[1]
                    and emap[e] == e
                    and vmap[edge[e].ends[0]] == edge[e].ends[0]
                ]
                for mask in range(1 << len(loops_free)):
                    flips = frozenset(
                        e for b, e in enumerate(loops_free) if mask >> b & 1
                    )
                    out.append((tuple(sorted(vmap.items())), tuple(sorted(emap.items())), flips))
    return sorted(out)


def test_involutions_match_brute_force():
    cases = [theta0(), theta0((2, 3, 5)), barbell(), balloon3(), banana_curve(3)]
    for curve in cases:
        got = sorted(
            (
                tuple(sorted(i.vertex_map.items())),
                tuple(sorted(i.edge_map.items())),
                i.flipped_loops,
            )
            for i in involutions(curve)
        )
        assert got == brute_involutions(curve)


def test_hyperelliptic_matches_brute_quotient_check():
    rng = random.Random(4)
    checked = 0
    while checked < 15:
        c = stabilize(random_curve(rng, max_edges=6))
        if len(c.vertices) > 6 or len(c.edges) > 6:
            continue
        checked += 1
        genera = [graph_genus(quotient_curve(c, i)) for i in involutions(c)]
        # the exhaustive oracle's cell count agrees with the built quotient
        assert genera == [quotient_genus(c, i) for i in involutions(c)]
        assert is_hyperelliptic(c) == (0 in genera)


def involution_key(inv):
    return (
        tuple(sorted(inv.vertex_map.items())),
        tuple(sorted(inv.edge_map.items())),
        inv.flipped_loops,
    )


def seeded_stable_curves(rng, count, fewest, most):
    """`count` stable curves of `fewest` to `most` edges; most share few
    distinct lengths, which keeps symmetries alive."""
    curves = []
    while len(curves) < count:
        c = stabilize(random_curve(rng, max_edges=most))
        if rng.random() < 0.6:
            c = c.with_lengths({e.id: rng.choice((1, 1, 2)) for e in c.edges})
        if fewest <= len(c.edges) <= most:
            curves.append(c)
    return curves


def test_hyperelliptic_involutions_match_exhaustive_oracle():
    """The -1 rule finds exactly the tree-quotient involutions of the
    exhaustive oracle, at most one per image of the first vertex, on 1500
    seeded stable curves of at most 9 edges, 40 of 10 to 12 edges (the
    oracle's cost grows fast with the edges), and the named families."""
    curves = seeded_stable_curves(random.Random(12), 1500, 0, 9)
    covered = {
        "loops": sum(any(e.ends[0] == e.ends[1] for e in c.edges) for c in curves),
        "parallel": sum(
            len({frozenset(e.ends) for e in c.edges}) < len(c.edges) for c in curves
        ),
        "weights": sum(c.total_weight() > 0 for c in curves),
    }
    assert min(covered.values()) >= 270, covered
    for mixed in (False, True):
        def lengths(n):
            return [1 + i % 3 if mixed else 1 for i in range(n)]

        curves += [banana_curve(n, lengths(n)) for n in range(3, 9)]
        curves += [loop_chain_curve(n, lengths(2 * n - 1)) for n in range(2, 6)]
        curves += [k4_doubled(d, lengths(6 + d)) for d in range(4)]
    answers = []
    curves += seeded_stable_curves(random.Random(34), 40, 10, 12)
    for c in curves:
        found = hyperelliptic_involutions(c)
        got = sorted(map(involution_key, found))
        want = sorted(map(involution_key, brute_hyperelliptic_involutions(c)))
        assert got == want, curve_to_json(c)
        assert is_hyperelliptic(c) == bool(want)
        first = min(v.id for v in c.vertices)
        assert len({i.vertex_map[first] for i in found}) == len(found)
        answers.append(bool(want))
    assert 270 <= sum(answers) <= len(answers) - 270, sum(answers)


def double_bridge(ends=("u", "v"), lengths=(1, 1)):
    """Two parallel edges between two weight-1 vertices; `ends` orients the
    second edge."""
    return tropical_curve(
        [("u", 1), ("v", 1)],
        [("e1", ("u", "v"), lengths[0]), ("e2", ends, lengths[1])],
    )


def two_loops():
    return tropical_curve([("p", 0)], [("l1", ("p", "p"), 1), ("l2", ("p", "p"), 1)])


def weighted_theta():
    """A theta whose vertex u carries weight 1, so no vertex map swaps the
    ends and the identity is no -1 map."""
    return tropical_curve(
        [("u", 1), ("v", 0)],
        [(f"t{i}", ("u", "v"), 1) for i in range(3)],
    )


@pytest.mark.parametrize(
    "curve, expected",
    [
        pytest.param(barbell(), [({"p": "p", "q": "q"}, {"lp": "lp", "lq": "lq", "br": "br"},
                                   {"lp", "lq"})], id="dumbbell"),
        pytest.param(double_bridge(), [({"u": "u", "v": "v"}, {"e1": "e2", "e2": "e1"}, set())],
                     id="double-bridge"),
        pytest.param(double_bridge(("v", "u")),
                     [({"u": "u", "v": "v"}, {"e1": "e2", "e2": "e1"}, set())],
                     id="double-bridge-reversed"),
        pytest.param(double_bridge(lengths=(1, 2)), [], id="double-bridge-unequal"),
        pytest.param(two_loops(), [({"p": "p"}, {"l1": "l1", "l2": "l2"}, {"l1", "l2"})],
                     id="two-loops"),
        pytest.param(weighted_theta(), [], id="weighted-theta"),
    ],
)
def test_minus_one_rule_on_named_curves(curve, expected):
    """Each named curve has exactly the expected tree-quotient involutions,
    and the exhaustive oracle agrees."""
    found = hyperelliptic_involutions(curve)
    assert [(i.vertex_map, i.edge_map, i.flipped_loops) for i in found] == expected
    assert sorted(map(involution_key, found)) == sorted(
        map(involution_key, brute_hyperelliptic_involutions(curve))
    )


def candidates(curve):
    return [(i.vertex_map, i.edge_map, i.flipped_loops)
            for i in graph_core._tree_quotient_candidates(curve)]


def doubled_dumbbell():
    """The dumbbell with its bridge doubled: no bridge pins p, so the walk
    also tries p -> q, an automorphism that moves both loops."""
    return tropical_curve(
        [("p", 0), ("q", 0)],
        [("lp", ("p", "p"), 1), ("lq", ("q", "q"), 1), ("e1", ("p", "q"), 1),
         ("e2", ("p", "q"), 1)],
    )


def test_a_vertex_map_moving_a_loop_is_rejected():
    """Swapping p and q is an automorphism of both dumbbells, but a loop's
    class is its own chord's unit vector, so no edge at q has the class of
    the loop at p: no candidate moves p.  On the doubled dumbbell the walk
    from p -> q ends there; on the dumbbell the bridge fixes p."""
    for curve in (barbell(), doubled_dumbbell()):
        assert any(i.vertex_map["p"] == "q" for i in involutions(curve))
        assert [vm for vm, _, _ in candidates(curve)] == [{"p": "p", "q": "q"}]
    ((_, emap, flips),) = candidates(doubled_dumbbell())
    assert emap == {"lp": "lp", "lq": "lq", "e1": "e2", "e2": "e1"}
    assert flips == {"lp", "lq"}


def bridged_digon():
    """A digon a-b with a bridge from each end to a vertex with a loop.
    Swapping a and b reverses both digon edges, as the -1 rule asks there,
    but would move the bridges' ends."""
    return tropical_curve(
        [("a", 0), ("b", 0), ("pa", 0), ("pb", 0)],
        [("e1", ("a", "b"), 1), ("e2", ("a", "b"), 1), ("ba", ("a", "pa"), 1),
         ("bb", ("b", "pb"), 1), ("la", ("pa", "pa"), 1), ("lb", ("pb", "pb"), 1)],
    )


@pytest.mark.parametrize("curve", [barbell(), bridged_digon()], ids=["dumbbell", "bridged-digon"])
def test_bridges_are_fixed_with_their_ends(curve):
    """The bridge rule: the one involution found fixes every bridge with
    both of its ends, and the exhaustive oracle agrees."""
    bridges = separating_edges(curve)
    ((vmap, emap, _),) = candidates(curve)
    assert all(emap[b] == b for b in bridges)
    assert all(vmap[x] == x for e in curve.edges if e.id in bridges for x in e.ends)
    assert sorted(map(involution_key, hyperelliptic_involutions(curve))) == sorted(
        map(involution_key, brute_hyperelliptic_involutions(curve))
    )


def bridged_theta():
    """A theta whose arc a-x1-x2-b carries a bridge at x1 and at x2, each to
    a vertex with a loop.  Swapping a and b reverses every arc of the
    theta, as the -1 rule asks there, and so swaps x1 and x2."""
    return tropical_curve(
        [("a", 0), ("b", 0), ("x1", 0), ("x2", 0), ("y1", 0), ("y2", 0)],
        [("a1", ("a", "x1"), 1), ("a2", ("x1", "x2"), 1), ("a3", ("x2", "b"), 1),
         ("c1", ("a", "b"), 1), ("c2", ("a", "b"), 1), ("k1", ("x1", "y1"), 1),
         ("k2", ("x2", "y2"), 1), ("l1", ("y1", "y1"), 1), ("l2", ("y2", "y2"), 1)],
    )


def test_a_walk_that_moves_a_bridge_end_is_refused():
    """a ends no bridge, so the walk also tries a -> b, the image under an
    automorphism that swaps x1 and x2.  Every other edge there obeys the -1
    rule, but read from y1 the bridge k1 pins x1, a conflicting end, so the
    walk yields nothing; nor does any other, as the oracle agrees."""
    curve = bridged_theta()
    assert any(i.vertex_map["a"] == "b" for i in involutions(curve))
    assert candidates(curve) == []
    assert brute_hyperelliptic_involutions(curve) == []


def test_propagation_tells_loops_from_parallel_edges():
    """x (a loop and a bridge) and y (the bridge and two parallel edges)
    both meet three unit-length edge ends, but a loop's class is met at no
    other vertex, so x is fixed; nor does a walk pair the ends of the
    doubled dumbbell once its loops differ in length."""
    curve = tropical_curve(
        [("x", 0), ("y", 0), ("z", 0)],
        [("lx", ("x", "x"), 1), ("br", ("x", "y"), 1), ("e1", ("y", "z"), 1),
         ("e2", ("y", "z"), 1), ("lz", ("z", "z"), 1)],
    )
    assert candidates(curve) == [(
        {"x": "x", "y": "y", "z": "z"},
        {"lx": "lx", "br": "br", "e1": "e2", "e2": "e1", "lz": "lz"},
        {"lx", "lz"},
    )]
    uneven = doubled_dumbbell().with_lengths({"lp": 1, "lq": 2, "e1": 1, "e2": 1})
    assert [vm for vm, _, _ in candidates(uneven)] == [{"p": "p", "q": "q"}]


def theta_with_loops():
    """Two parallel edges and a loop at each end.  The identity vertex map
    already has a tree quotient (the parallel edges swapped, both loops
    reflected); swapping u and v never does."""
    return tropical_curve(
        [("u", 0), ("v", 0)],
        [
            ("e1", ("u", "v"), 1),
            ("e2", ("u", "v"), 1),
            ("lu", ("u", "u"), 1),
            ("lv", ("v", "v"), 1),
        ],
    )


def test_is_hyperelliptic_stops_at_first_certified_involution(monkeypatch):
    """is_hyperelliptic pulls one candidate and certifies it, and leaves the
    walk from u -> v untried; hyperelliptic_involutions runs the search to
    its end."""
    pulled, certified, finished = [], [], []
    tree_quotient_candidates = graph_core._tree_quotient_candidates
    quotient = graph_core.quotient_curve

    def counting_candidates(curve):
        for inv in tree_quotient_candidates(curve):
            pulled.append(inv)
            yield inv
        finished.append(curve)

    def counting_quotient(curve, inv):
        certified.append(inv)
        return quotient(curve, inv)

    monkeypatch.setattr(graph_core, "_tree_quotient_candidates", counting_candidates)
    monkeypatch.setattr(graph_core, "quotient_curve", counting_quotient)
    curve = theta_with_loops()
    assert is_hyperelliptic(curve)
    assert len(pulled) == 1 and len(certified) == 1 and not finished
    pulled.clear()
    certified.clear()
    (inv,) = hyperelliptic_involutions(curve)
    assert pulled == certified == [inv] and finished == [curve]
    assert inv.flipped_loops == {"lu", "lv"}


def test_hyperelliptic_search_checks_its_certificate(monkeypatch):
    circle = tropical_curve([("p", 0)], [("l", ("p", "p"), 1)])
    monkeypatch.setattr(graph_core, "quotient_curve", lambda curve, inv: circle)
    with pytest.raises(RuntimeError, match="disagree"):
        hyperelliptic_involutions(theta0())


def test_quotient_tip_names_avoid_vertex_ids():
    # the swap folds e0 onto a pendant edge whose default tip name is
    # already the id of a vertex of the curve
    named = tropical_curve(
        [("u", 0), ("e0__tip", 0)],
        [(f"e{i}", ("u", "e0__tip"), 1) for i in range(3)],
    )
    (swap,) = hyperelliptic_involutions(named)
    quo = quotient_curve(named, swap)
    assert graph_genus(quo) == 0 and len(quo.vertices) == 4


def test_validate_involution_rejects_unknown_flipped_loop():
    th = theta0()
    ident = next(i for i in involutions(th) if is_identity(i))
    bad = graph_core.Involution(ident.vertex_map, ident.edge_map, frozenset({"zz"}))
    with pytest.raises(SchemaError, match="flipped_loops"):
        validate_involution(th, bad)


def triangle():
    return tropical_curve(
        [("a", 0), ("b", 0), ("c", 0)],
        [("e1", ("a", "b"), 1), ("e2", ("b", "c"), 1), ("e3", ("c", "a"), 1)],
    )


@pytest.mark.parametrize(
    "curve, vertex_map, edge_map, message",
    [
        pytest.param(theta0(), {"u": "u"}, None, "vertex map is not a permutation",
                     id="vertex-missing"),
        pytest.param(theta0(), None, {"t1": "t1", "u2": "u2"}, "edge map is not a permutation",
                     id="edge-missing"),
        pytest.param(triangle(), {"a": "b", "b": "c", "c": "a"}, None,
                     "vertex map is not an involution", id="vertex-three-cycle"),
        pytest.param(weighted_theta(), {"u": "v", "v": "u"}, None,
                     "vertex map does not preserve weights", id="weights"),
        pytest.param(double_bridge(), {"u": "v", "v": "u"}, None,
                     "positive-weight vertex moved", id="weighted-vertex-moved"),
        pytest.param(theta0(), None, {"t1": "u2", "u2": "u3", "u3": "t1"},
                     "edge map is not an involution", id="edge-three-cycle"),
        pytest.param(barbell(), None, {"lp": "lq", "lq": "lp", "br": "br"},
                     "edge map incompatible with incidence", id="loops-swapped"),
        pytest.param(theta0((1, 2, 3)), None, {"t1": "u2", "u2": "t1", "u3": "u3"},
                     "edge map does not preserve lengths", id="lengths"),
    ],
)
def test_validate_involution_refusals(curve, vertex_map, edge_map, message):
    """Each refusal of validate_involution, on the identity with one map
    replaced; quotient_curve refuses the same maps."""
    vm = vertex_map or {v.id: v.id for v in curve.vertices}
    inv = graph_core.Involution(vm, edge_map or {e.id: e.id for e in curve.edges})
    with pytest.raises(SchemaError, match=message):
        validate_involution(curve, inv)
    with pytest.raises(SchemaError, match=message):
        quotient_curve(curve, inv)


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ([("p", 0), ("p", 1)], [("l", ("p", "p"), 1)], "duplicate vertex ids"),
        ([("p", 0)], [("l", ("p", "p"), 1), ("l", ("p", "p"), 2)], "duplicate edge ids"),
        ([("p", -1)], [("l", ("p", "p"), 1)], "vertex p has negative weight"),
    ],
)
def test_curve_refusals(vertices, edges, message):
    with pytest.raises(SchemaError, match=message):
        tropical_curve(vertices, edges)


def test_with_lengths_refuses_missing_edges():
    with pytest.raises(SchemaError, match=r"lengths missing for edges \['u3'\]"):
        theta0().with_lengths({"t1": 1, "u2": 2})


# -- json ---------------------------------------------------------------------


def test_json_round_trip():
    k = k4_curve((1, 2, 3, 4, 5, 6))
    data = curve_to_json(k)
    back = curve_from_json(data)
    assert genus(back) == genus(k)
    assert {e.id: e.length for e in back.edges} == {e.id: e.length for e in k.edges}
    assert data == curve_to_json(back)


def test_json_rational_lengths():
    data = {
        "vertices": [{"id": "p", "weight": 2}],
        "edges": [{"id": "l", "ends": ["p", "p"], "length": "3/2"}],
    }
    c = curve_from_json(data)
    assert {e.id: e for e in c.edges}["l"].length == Fraction(3, 2)
    assert curve_to_json(c)["edges"][0]["length"] == "3/2"


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        curve_from_json({"vertices": [], "edges": []})
    with pytest.raises(SchemaError):
        curve_from_json(
            {
                "vertices": [{"id": "p", "weight": 0}],
                "edges": [{"id": "l", "ends": ["p", "q"], "length": "1"}],
            }
        )
    with pytest.raises(SchemaError):
        curve_from_json(
            {
                "vertices": [{"id": "p", "weight": 0}],
                "edges": [{"id": "l", "ends": ["p", "p"], "length": "0"}],
            }
        )
