"""Independent reference values for the benchmark's output checks.

Nothing here imports the package under test.  The Gram form of the edge
lengths is rebuilt from a breadth-first spanning tree (the package uses a
greedy tree by edge id), and invariant factors come from determinantal
divisors (the package uses Hermite/Smith reduction).  A change of cycle
basis is a unimodular congruence, so both routes must give the same
invariant factors.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from math import comb, gcd, prod


def cycle_gram(vertices, edges):
    """Gram matrix of the fundamental cycles over a BFS spanning forest.

    vertices: iterable of vertex ids; edges: list of (id, u, v, length) with
    integer lengths.  Returns the h x h integer matrix sum_e len(e) c_i(e) c_j(e).
    """
    adj = {v: [] for v in vertices}
    for eid, u, v, _ in edges:
        adj[u].append((v, eid, 1))
        adj[v].append((u, eid, -1))
    parent = {}
    for root in sorted(adj):
        if root in parent:
            continue
        parent[root] = None
        queue = deque([root])
        while queue:
            cur = queue.popleft()
            for nxt, eid, sgn in sorted(adj[cur]):
                if nxt not in parent:
                    parent[nxt] = (cur, eid, sgn)
                    queue.append(nxt)
    tree = {p[1] for p in parent.values() if p is not None}

    def path_to_root(v):
        out = {}
        while parent[v] is not None:
            cur, eid, sgn = parent[v]
            out[eid] = out.get(eid, 0) - sgn  # walking v -> cur
            v = cur
        return out

    cycles = []
    for eid, u, v, _ in edges:
        if eid in tree:
            continue
        cyc = {eid: 1}
        # close the cycle with the tree path v -> root -> u
        for part, sign in ((path_to_root(v), 1), (path_to_root(u), -1)):
            for k, c in part.items():
                cyc[k] = cyc.get(k, 0) + sign * c
        cycles.append({k: c for k, c in cyc.items() if c})
    length = {eid: ln for eid, _, _, ln in edges}
    return [
        [sum(length[e] * c * cj.get(e, 0) for e, c in ci.items()) for cj in cycles]
        for ci in cycles
    ]


def det(mat) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(r) for r in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factors(mat) -> list[int]:
    """Smith invariant factors d_k / d_(k-1) of a nonsingular square matrix,
    where d_k is the gcd of all k x k minors."""
    n = len(mat)
    divisors = [1]
    for k in range(1, n + 1):
        d = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                d = gcd(d, det([[mat[r][c] for c in cols] for r in rows]))
        divisors.append(d)
    return [divisors[k] // divisors[k - 1] for k in range(1, n + 1)]


def group_orders(g: int, factors) -> dict:
    """Closed-form orders of A, B, Abar, Bbar at maximal rank, from the
    invariant factors of Q in ascending divisibility order."""
    det_q = prod(factors)
    tail = prod(factors[i] ** comb(g - 1 - i, 2) for i in range(g))
    b = 2 ** comb(g, 3) * det_q ** comb(g, 2)
    bbar = 2 ** comb(g, 3) * det_q ** (comb(g, 2) - 1)
    return {"A": b * tail, "B": b, "Abar": bbar * tail, "Bbar": bbar}
