"""Independent brute-force oracles.

Everything in this module is written against raw tables with plain loops and
no imports from the package under test, so a bug in the implementation
cannot leak into its own check. All oracles are exhaustive at the scales the
tests use them; none of them is expected to be fast.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial


def oracle_valid_action_tables(cayley, identity, m):
    """All binary-action tables of the given group on m points.

    Brute force over every assignment of an m*m table to every non-identity
    element, keeping the identity slice pinned to (x, x') -> x'. Returns a
    set of fully assembled tables (tuple-of-tuple-of-tuples indexed by
    group element). Only sane for (|G|-1) * m * m <= 12 or so.
    """
    n = len(cayley)
    cells = [(g, x) for g in range(n) if g != identity for x in range(m)]
    id_slice = tuple(tuple(xp for xp in range(m)) for _ in range(m))
    rows = list(product(range(m), repeat=m))
    found = set()
    for choice in product(rows, repeat=len(cells)):
        slices = [[None] * m for _ in range(n)]
        for x in range(m):
            slices[identity][x] = id_slice[x]
        for (g, x), row in zip(cells, choice):
            slices[g][x] = row
        table = tuple(tuple(sl) for sl in slices)
        ok = True
        for g in range(n):
            for h in range(n):
                gh = cayley[g][h]
                for x in range(m):
                    for xp in range(m):
                        if table[gh][x][xp] != table[g][x][table[h][x][xp]]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.add(table)
    return found


def oracle_distributivity_witness(cayley, table, m):
    """True, or the first (g, h, x, x', x'') violating
    g(h(x, x'), h(x, x'')) = h(x, g(x', x'')), over every tuple, the
    identity included."""
    n = len(cayley)
    for g in range(n):
        for h in range(n):
            for x in range(m):
                for xp in range(m):
                    for xpp in range(m):
                        left = table[g][table[h][x][xp]][table[h][x][xpp]]
                        right = table[h][x][table[g][xp][xpp]]
                        if left != right:
                            return (g, h, x, xp, xpp)
    return True


def oracle_is_distributive(cayley, table, m):
    return oracle_distributivity_witness(cayley, table, m) is True


def oracle_action_axiom_witness(cayley, identity, table, m):
    """None for a binary action, else its first failure: (x, x') with
    e(x, x') != x' for axiom (2), checked first, or else (g, h, x, x')
    with (gh)(x, x') != g(x, h(x, x')) for axiom (1), each first in
    lexicographic order."""
    for x in range(m):
        for xp in range(m):
            if table[identity][x][xp] != xp:
                return (x, xp)
    n = len(cayley)
    for g in range(n):
        for h in range(n):
            for x in range(m):
                for xp in range(m):
                    if table[cayley[g][h]][x][xp] != table[g][x][table[h][x][xp]]:
                        return (g, h, x, xp)
    return None


def oracle_left_action_witness(cayley, identity, rows, m):
    """None for a left action rows[g][x] = g.x, else its first failure:
    (x,) with e.x != x, checked first, or else (g, h, x) with
    (gh).x != g.(h.x), each first in lexicographic order."""
    for x in range(m):
        if rows[identity][x] != x:
            return (x,)
    n = len(cayley)
    for g in range(n):
        for h in range(n):
            for x in range(m):
                if rows[cayley[g][h]][x] != rows[g][rows[h][x]]:
                    return (g, h, x)
    return None


def oracle_identity(cayley):
    """The first two-sided identity of the table, or None."""
    n = len(cayley)
    for e in range(n):
        if all(cayley[e][a] == a and cayley[a][e] == a for a in range(n)):
            return e
    return None


def oracle_associativity_witness(cayley):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc), or
    None when the table is associative."""
    n = len(cayley)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]:
                    return (a, b, c)
    return None


def oracle_inverses(cayley, identity):
    """The tuple of two-sided inverses, each the first b with ab = ba = e,
    or the first element a that has no two-sided inverse."""
    n = len(cayley)
    out = []
    for a in range(n):
        for b in range(n):
            if cayley[a][b] == identity and cayley[b][a] == identity:
                out.append(b)
                break
        else:
            return a
    return tuple(out)


def oracle_stabiliser_commutator_witness(cayley, identity, table, m):
    """True, or the first (x, h, g) with h(x, x) = x whose commutator
    k = h g h^-1 g^-1 moves a point in the row k(x, -). In a distributive
    action the row at x is the identity on every such commutator, so on
    the subgroup [G_x, G] they generate, G_x = {h : h(x, x) = x}: the law
    at (h, x, x) makes h(x, -) commute with every g(x, -)."""
    n = len(cayley)
    inv = [next(b for b in range(n) if cayley[a][b] == identity) for a in range(n)]
    for x in range(m):
        for h in range(n):
            if table[h][x][x] != x:
                continue
            for g in range(n):
                k = cayley[cayley[h][g]][cayley[inv[h]][inv[g]]]
                if list(table[k][x]) != list(range(m)):
                    return (x, h, g)
    return True


def oracle_hom_count(cayley, identity, degree):
    """Number of homomorphisms from the group into the symmetric group S_degree.

    Brute force over every map element -> permutation; checks the whole
    multiplication table. Cost |degree!| ** |G|, fine for |G| <= 6, degree <= 3.
    """
    n = len(cayley)
    perms = list(product(range(degree), repeat=degree))
    perms = [p for p in perms if sorted(p) == list(range(degree))]

    def comp(p, q):  # apply q first
        return tuple(p[q[i]] for i in range(degree))

    count = 0
    ident = tuple(range(degree))
    for assign in product(range(len(perms)), repeat=n):
        if perms[assign[identity]] != ident:
            continue
        good = True
        for a in range(n):
            for b in range(n):
                if comp(perms[assign[a]], perms[assign[b]]) != perms[assign[cayley[a][b]]]:
                    good = False
                    break
            if not good:
                break
        if good:
            count += 1
    return count


def _closure(cayley, members):
    """Least subset containing members and closed under the product; a
    subgroup when members holds the identity, the group being finite."""
    s = set(members)
    while True:
        nxt = s | {cayley[a][b] for a in s for b in s}
        if nxt == s:
            return frozenset(s)
        s = nxt


def oracle_permutation_homomorphisms(cayley, identity, degree):
    """All homomorphisms into S_degree in generation order: images of the
    greedy generators (repeatedly adjoin the least element not yet
    generated) range over every tuple of permutations in lexicographic
    order, the other elements follow along breadth-first generator words,
    and a tuple is kept when the whole multiplication table holds.
    Cost (degree!) ** |gens| * |G| ** 2."""
    n = len(cayley)
    gens = []
    closed = _closure(cayley, {identity})
    while len(closed) < n:
        gens.append(min(x for x in range(n) if x not in closed))
        closed = _closure(cayley, {identity, *gens})
    words = {identity: ()}
    queue = [identity]
    for x in queue:
        for j, s in enumerate(gens):
            y = cayley[x][s]
            if y not in words:
                words[y] = words[x] + (j,)
                queue.append(y)

    def comp(p, q):  # apply q first
        return tuple(p[q[i]] for i in range(degree))

    out = []
    for images in product(sorted(permutations(range(degree))), repeat=len(gens)):
        rho = []
        for x in range(n):
            acc = tuple(range(degree))
            for j in words[x]:
                acc = comp(acc, images[j])
            rho.append(acc)
        if all(rho[cayley[a][b]] == comp(rho[a], rho[b]) for a in range(n) for b in range(n)):
            out.append(tuple(rho))
    return tuple(out)


def _partitions(m, largest=None):
    """Every partition of m as a non-increasing tuple of parts."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part, *rest)


def oracle_burnside_counts(cayley, identity, m):
    """(raw, classes) of the binary actions of the group on m points.

    A binary action is one homomorphism G -> S_m per point, so raw is
    |Hom(G, S_m)| ** m. A relabelling sigma sends the row rho at t to
    sigma rho sigma^-1 at sigma(t), so it fixes an action exactly when, on
    each of its cycles, the row at one point t gives the others and
    commutes with sigma^l, l the cycle's length. So sigma fixes
    prod over its cycles of N(sigma^l) actions, N(tau) counting the
    homomorphisms whose every image commutes with tau, and Burnside's
    lemma over the m! / z_lambda permutations of each cycle type lambda
    gives classes = sum over lambda of (1 / z_lambda) prod over the parts
    l of N(sigma_lambda^l), z_lambda = prod over l of l ** k_l k_l!, k_l
    the number of parts l."""
    homs = oracle_permutation_homomorphisms(cayley, identity, m)

    def power(sigma, l):
        out = tuple(range(m))
        for _ in range(l):
            out = tuple(sigma[x] for x in out)
        return out

    def commuting(tau):
        return sum(all(tuple(p[tau[x]] for x in range(m)) == tuple(tau[p[x]] for x in range(m))
                       for p in rho)
                   for rho in homs)

    classes = Fraction(0)
    for parts in _partitions(m):
        sigma = [0] * m
        start = 0
        for l in parts:  # one cycle start -> start + 1 -> ... -> start
            for x in range(start, start + l):
                sigma[x] = start + (x - start + 1) % l
            start += l
        z = 1
        for l, k in Counter(parts).items():
            z *= l ** k * factorial(k)
        fixed = 1
        for l in parts:
            fixed *= commuting(power(sigma, l))
        classes += Fraction(fixed, z)
    assert classes.denominator == 1
    return len(homs) ** m, int(classes)


def oracle_subgroups(cayley, identity):
    """Every subgroup as an element set: the closures of all subsets.
    Cost 2 ** |G| closures."""
    order = len(cayley)
    return {
        _closure(cayley, {identity, *subset})
        for size in range(order + 1)
        for subset in combinations(range(order), size)
    }


def oracle_dey_count(cayley, identity, n):
    """Number of homomorphisms into S_n by Dey's formula: with a_k the count
    for S_k over k!, sum_k a_k x^k = exp(sum over subgroups H of
    x^[G:H] / [G:H]), so k a_k = sum_d c_d a_(k-d), where c_d counts the
    subgroups of index d. Subgroups are the closures of all subsets."""
    order = len(cayley)
    c = Counter(order // len(h) for h in oracle_subgroups(cayley, identity))
    a = [Fraction(1)]
    for k in range(1, n + 1):
        a.append(sum(c[d] * a[k - d] for d in c if d <= k) / k)
    count = a[n] * factorial(n)
    assert count.denominator == 1
    return int(count)


def oracle_topology_count(n):
    """Topologies on n points counted as reflexive transitive relations.

    A finite topology is the same data as a preorder (x <= y iff x lies in
    every open set containing y), so counting preorders counts topologies.
    Candidate relations: 2 ** (n*n - n) with the diagonal forced.
    """
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for bits in range(1 << len(off_diag)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(off_diag):
            if bits >> k & 1:
                rel[i][j] = True
        transitive = True
        for i in range(n):
            for j in range(n):
                if not rel[i][j]:
                    continue
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        transitive = False
                        break
                if not transitive:
                    break
            if not transitive:
                break
        if transitive:
            count += 1
    return count


def oracle_left_cosets(cayley, members):
    """Left cosets xH as a set of frozensets, by raw Cayley products."""
    n = len(cayley)
    return {frozenset(cayley[x][h] for h in members) for x in range(n)}


def oracle_k_set(table, K, A, B):
    """K(A, B) = {g(x, y) : g in K, x in A, y in B}, by a set comprehension
    over the raw table."""
    return frozenset(table[g][x][y] for g in K for x in A for y in B)


def oracle_min_bi_invariant(cayley, table, m, x):
    """Least S containing x with {g(a,b): g, a in S, b in S} == S, by
    repeated expansion."""
    n = len(cayley)
    s = {x}
    while True:
        nxt = {table[g][a][b] for g in range(n) for a in s for b in s}
        nxt |= s
        if nxt == s:
            return frozenset(s)
        s = nxt


def oracle_relabellings(table, m):
    """The set of the tables of all m! relabellings of the carrier, each
    rebuilt cell by cell: sigma sends g(x, x') = y to
    g(sigma x, sigma x') = sigma y."""
    found = set()
    for sigma in permutations(range(m)):
        out = [[[0] * m for _ in range(m)] for _ in table]
        for g, sl in enumerate(table):
            for x in range(m):
                for xp in range(m):
                    out[g][sigma[x]][sigma[xp]] = sigma[sl[x][xp]]
        found.add(tuple(tuple(tuple(row) for row in sl) for sl in out))
    return found


def oracle_canonical_form(table, m):
    """Lexicographically least table among all m! relabellings of the carrier."""
    return min(oracle_relabellings(table, m))


def oracle_canonical_representatives(tables, m):
    """The distinct canonical forms of the given tables, in table order."""
    return sorted({oracle_canonical_form(t, m) for t in tables})


def oracle_is_continuous(table, m, opens):
    """True, or the first open V (ascending bitmask) whose preimage under
    the action table is not open, scanned open by open.

    A (g, x, x') landing in V has an open preimage around it iff g maps the
    product of the minimal neighbourhoods of x and x' into V; a minimal
    neighbourhood is the intersection of the opens containing the point.
    """
    full = (1 << m) - 1
    opens = sorted(opens)
    nbhd = []
    for x in range(m):
        acc = full
        for u in opens:
            if u >> x & 1:
                acc &= u
        nbhd.append([p for p in range(m) if acc >> p & 1])
    for v in opens:
        for sl in table:
            for x in range(m):
                for xp in range(m):
                    if not v >> sl[x][xp] & 1:
                        continue
                    for u in nbhd[x]:
                        for w in nbhd[xp]:
                            if not v >> sl[u][w] & 1:
                                return v
    return True


def oracle_is_continuous_map(m_src, src_opens, dst_opens, f):
    """Is the preimage under f of every open of dst an open of src? Scanned
    open by open, with each preimage looked up among src's opens."""
    src = set(src_opens)
    for v in dst_opens:
        pre = 0
        for x in range(m_src):
            if v >> f[x] & 1:
                pre |= 1 << x
        if pre not in src:
            return False
    return True


def oracle_is_hausdorff(m, opens):
    """Does every pair of distinct points lie in two disjoint opens? Each
    pair is tried against every pair of opens."""
    for x, y in combinations(range(m), 2):
        if not any(u >> x & 1 and v >> y & 1 and not u & v for u in opens for v in opens):
            return False
    return True


def oracle_quotient_opens(table, m, opens):
    """Opens of the orbit space of a distributive action, as ascending class
    bitmasks: classes are the orbits {g(x, x) : g}, numbered by smallest
    member, and every one of the 2^k class sets is kept when its preimage
    is among the opens."""
    classes = []
    for x in range(m):
        orbit = {sl[x][x] for sl in table}
        if not any(x in c for c in classes):
            classes.append(orbit)
    projection = [next(i for i, c in enumerate(classes) if x in c) for x in range(m)]
    src = set(opens)
    out = []
    for cmask in range(1 << len(classes)):
        pre = 0
        for x in range(m):
            if cmask >> projection[x] & 1:
                pre |= 1 << x
        if pre in src:
            out.append(cmask)
    return tuple(out)


def oracle_battery(cayley, table, m, opens):
    """The outcome of every check the theorem battery records on a
    continuous model, by brute force. G(U, U) and G(A, A) come from
    oracle_k_set over every open U and closed A (the complements of the
    opens). For a distributive action also: every diagonal x -> g(x, x) a
    bijection that oracle_is_continuous_map accepts; the saturation of
    every closed A, the union of the orbits {g(x, x) : g} of its points,
    closed; and, over the quotient opens of oracle_quotient_opens, the
    projection of every closed A closed (which is also properness here),
    the quotient Hausdorff by oracle_is_hausdorff, and the quotient opens
    covering every class (compactness on a finite carrier)."""
    full = (1 << m) - 1
    src = set(opens)
    closed = [full ^ u for u in opens]
    elements = range(len(cayley))

    def points(mask):
        return [x for x in range(m) if mask >> x & 1]

    def mask_of(pts):
        return sum(1 << x for x in set(pts))

    def square(mask):
        return mask_of(oracle_k_set(table, elements, points(mask), points(mask)))

    out = {"guu_open": all(square(u) in src for u in opens),
           "gaa_closed": all(full ^ square(c) in src for c in closed)}
    if not oracle_is_distributive(cayley, table, m):
        return out
    diagonals = [[sl[x][x] for x in range(m)] for sl in table]
    orbits = [oracle_k_set(table, elements, [x], [x]) for x in range(m)]
    classes = list(dict.fromkeys(orbits))  # numbered by smallest member
    projection = [classes.index(o) for o in orbits]
    k = len(classes)
    qopens = oracle_quotient_opens(table, m, opens)
    qfull = (1 << k) - 1
    closed_map = all(qfull ^ mask_of(projection[x] for x in points(c)) in qopens
                     for c in closed)
    covered = 0
    for u in qopens:
        covered |= u
    out.update({
        "delta_homeomorphism": all(sorted(d) == list(range(m))
                                   and oracle_is_continuous_map(m, opens, opens, d)
                                   for d in diagonals),
        "ka_closed": all(full ^ mask_of(y for x in points(c) for y in orbits[x]) in src
                         for c in closed),
        "projection_closed": closed_map,
        "projection_proper": closed_map,
        "quotient_hausdorff": oracle_is_hausdorff(k, qopens),
        "quotient_compact": covered == qfull,
        "quotient_locally_compact": covered == qfull,
    })
    return out
