"""Seeded workload inputs: relabelled groups, actions and topologies.

Seed 0 keeps the catalog labels. Any other seed relabels the non-identity
group elements (and, for the battery, the carrier points) by permutations
drawn from random.Random(seed), so the same seed always gives the same
inputs. For z2, z3 and k4 every such relabelling is an automorphism, so
their tables are the same at every seed; s3, d4 and z2xz2xz2 vary.
Everything here works on raw tables and is independent of the library's
search code, so the inputs stay the same across versions of the library.
"""

from __future__ import annotations

import random


def rng_for(seed: int):
    """None at seed 0 (identity relabellings), else a seeded generator."""
    return None if seed == 0 else random.Random(seed)


def draw_perm(rng, items) -> list:
    """The items in a seeded order (unchanged at seed 0)."""
    out = list(items)
    if rng is not None:
        rng.shuffle(out)
    return out


def greedy_generator_count(cayley, identity: int) -> int:
    """Size of the generating set built by repeatedly adjoining the smallest
    element not yet generated, the way the library's search picks the
    generators whose images it tries."""
    n = len(cayley)
    closed = {identity}
    count = 0
    while len(closed) < n:
        count += 1
        closed.add(min(x for x in range(n) if x not in closed))
        while True:
            grown = {cayley[a][b] for a in closed for b in closed}
            if grown <= closed:
                break
            closed |= grown
    return count


def relabel_group(binact, name: str, rng):
    """The catalog group `name` with its non-identity elements relabelled,
    and the relabelling p (old index a becomes p[a]).

    The identity keeps its index, as in every catalog group: the library's
    distributivity and homomorphism checks scan elements in index order and
    never fail at the identity, so moving it changes their cost by up to
    2x (k4 on 4 points with --require-distributive: 6.2 s with the identity
    first, 3.2 s with it elsewhere). Homomorphism generation tries (m!)^k
    generator images, where k is the greedy generating-set size, which also
    depends on the labelling: a third of all labellings of d4 need three
    greedy generators instead of two, 120 times the work at m = 5. So
    relabellings are drawn until k matches the catalog labelling. Both keep
    the amount of work of a workload the same for every seed.
    """
    g = binact.builtin_group(name)
    n = g.order
    want = greedy_generator_count(g.cayley, g.identity)
    others = [a for a in range(n) if a != g.identity]
    while True:
        p = list(range(n))
        for a, b in zip(others, draw_perm(rng, others)):
            p[a] = b
        cayley = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                cayley[p[a]][p[b]] = p[g.cayley[a][b]]
        if greedy_generator_count(cayley, g.identity) == want:
            break
    labels = [""] * n
    for a in range(n):
        labels[p[a]] = g.labels[a]
    return binact.make_group(cayley, name=g.name, labels=labels), p


def relabel_table(table, p, sigma):
    """Action table with group element g renamed p[g] and carrier point x
    renamed sigma[x]."""
    m = len(sigma)
    out = [None] * len(table)
    for g, sl in enumerate(table):
        new = [[0] * m for _ in range(m)]
        for x in range(m):
            for xp in range(m):
                new[sigma[x]][sigma[xp]] = sigma[sl[x][xp]]
        out[p[g]] = new
    return out


def relabel_opens(opens, sigma):
    out = []
    for u in opens:
        v = 0
        for x, sx in enumerate(sigma):
            if u >> x & 1:
                v |= 1 << sx
        out.append(v)
    return out
