"""References the tests compare the engine against.

Frozen genus-2 polynomials: the seven per-graph values and their sum.
Each block is (X-degree, denominator, L-shift, {L-power: numerator}).
These are data, not derived in-process; the tests compare engine output
against them term by term.

plain_psi: the cotangent recursion alone, with neither the string nor the
dilaton equation, which kp2.mgn applies before each recursion step.

hodge_second_route: a one-step removal through the third Chern character,
for the few Hodge integrals it covers.

euler_at and expand_vertex_class: the Euler class and the vertex class at
any label i in Q(zeta), from the weights at i; kp2.mgn.vertex_class builds
only the label-0 class, over Fractions.

vertex_at and leg_at: the vertex and leg factors at any label p, as the
pairs of kp2.labelled, from the vertex class and the weights at p rather
than by twisting their label-0 values.

dressed_per_composition and unmerged_graph_contribution: the dressed
vertex and the graph sum as they were before the flag sums went by
symmetry class, one ring product per ordered flag composition and, by
prefix_walk, a depth-first walk over every arrangement of every bundle,
once per phase solution that phases lists by a spanning tree.

reference_enumerate_graphs: the stable-graph census as it was before its
walk cut rows ahead of building them and its canonical test stopped
sweeping every block permutation: the edge walk with its stability cut on
finished rows only, and a sorted image of the edge codes per permutation.
"""

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod
from operator import mul
from weakref import WeakKeyDictionary

from kp2 import localization
from kp2.graphs import StableGraph, _check_request, _flag_factor, normalize_tag
from kp2.labelled import CycElem
from kp2.lring import RingElem
from kp2.mgn import _dfact, _splits, hodge_psi_integral
from kp2.scalars import ConsistencyError, CycScalar, weight, weight_pow

GRAPH_VALUES = {
    "G1": [
        (0, 2592, -3, {0: 24, 1: -12, 2: 6, 3: -61, 4: 12, 5: -3, 6: 54, 7: -3, 9: -17}),
        (1, 144, -3, {0: 12, 1: -4, 2: 1, 3: -20, 4: 2, 6: 9}),
        (2, 24, -3, {0: 6, 1: -1, 3: -5}),
        (3, 4, -3, {0: 1}),
    ],
    "G2": [
        (0, 1728, -3, {0: 24, 1: -28, 2: 10, 3: -45, 4: 36, 5: -7, 6: 26, 7: -11, 9: -5}),
        (1, 288, -3, {0: 36, 1: -28, 2: 5, 3: -44, 4: 18, 6: 13}),
        (2, 48, -3, {0: 18, 1: -7, 3: -11}),
        (3, 8, -3, {0: 3}),
    ],
    "G3": [
        (0, 20736, -2, {0: 288, 1: -190, 2: -25, 3: -364, 4: 145, 5: 74, 6: 97, 8: -25}),
        (1, 3456, -2, {0: 288, 1: -95, 2: -24, 3: -194, 5: 25}),
        (2, 8, -2, {0: 1}),
    ],
    "G4": [
        (0, 746496, -1, {0: 2592, 1: -541, 2: -864, 3: -2229, 4: 720, 5: 897, 7: -575}),
        (1, 96, -1, {0: 1}),
    ],
    "G5": [
        (0, 1728, -2, {0: 12, 1: -8, 2: -11, 3: -8, 4: 5, 5: 16, 6: -1, 8: -5}),
        (1, 72, -2, {0: 3, 1: -1, 2: -3, 3: -1, 5: 2}),
        (2, 16, -2, {0: 1, 2: -1}),
    ],
    "G6": [
        (0, 62208, -1, {0: 138, 1: 143, 2: -204, 3: -135, 4: -222, 5: 201, 7: 79}),
        (1, 3456, -1, {0: 23, 1: 24, 2: -22, 4: -25}),
    ],
    "G7": [
        (0, 3732480, 0, {0: 281, 1: 4320, 2: 1785, 3: -2736, 4: -3765, 6: 2059}),
    ],
}

TOTAL_BLOCKS = [
    (0, 17280, -3, {0: 400, 3: -959, 6: 784, 9: -216}),
    (1, 1, 0, {}),
]

# which frozen value belongs to which undecorated graph, keyed by the
# canonical (genera, edges) pair
GOLDEN_NAMES = {
    ((0, 0), ((0, 1), (0, 1), (0, 1))): "G1",
    ((0, 0), ((0, 0), (0, 1), (1, 1))): "G2",
    ((0, 1), ((0, 0), (0, 1))): "G3",
    ((1, 1), ((0, 1),)): "G4",
    ((0,), ((0, 0), (0, 0))): "G5",
    ((1,), ((0, 0),)): "G6",
    ((2,), ()): "G7",
}


def from_blocks(blocks) -> RingElem:
    out = RingElem.zero()
    for x, den, shift, nums in blocks:
        for power, num in nums.items():
            out = out + RingElem.monomial(Fraction(num, den), l=power + shift, x=x)
    return out


def genus2_graph_values() -> dict:
    return {name: from_blocks(blocks) for name, blocks in GRAPH_VALUES.items()}


def genus2_total() -> RingElem:
    out = from_blocks([TOTAL_BLOCKS[0]])
    x = RingElem.X()
    x1 = (RingElem.const(Fraction(-1, 3)) + RingElem.monomial(Fraction(5, 24), l=-3)
          + RingElem.monomial(Fraction(13, 96), l=3))
    x2 = RingElem.const(Fraction(-1, 2)) + RingElem.monomial(Fraction(5, 8), l=-3)
    x3 = RingElem.monomial(Fraction(5, 8), l=-3)
    return out + x1 * x + x2 * x * x + x3 * x * x * x


def hodge_second_route(g: int, exps, lam) -> Fraction:
    """A second route to a few Hodge integrals, not through the ch-recursion of kp2.mgn.

    Genus 1 with a single lambda_1 at one marking uses the canonical
    identification of the cotangent line with the Hodge line there.  Genus 2
    monomials of total degree 3 go through the third-Chern-character boundary
    formula in a single step, landing directly on cotangent integrals.
    """
    exps = tuple(int(a) for a in exps)
    lam = tuple(sorted(int(m) for m in lam))
    if g == 1 and lam == (1,) and len(exps) == 1:
        return plain_psi(1, (exps[0] + 1,))
    if g == 2 and lam in ((1, 1, 1), (1, 2)):
        factor = Fraction(1) if lam == (1, 1, 1) else Fraction(1, 2)
        total = plain_psi(2, exps + (4,))
        for j, a in enumerate(exps):
            total -= plain_psi(2, exps[:j] + exps[j + 1 :] + (a + 3,))
        boundary = Fraction(0)
        for a in range(3):
            b = 2 - a
            sign = -1 if a % 2 else 1
            boundary += sign * plain_psi(1, exps + (a, b))
            for h in range(3):
                for left, right, m in _splits(exps):
                    boundary += sign * m * plain_psi(h, left + (a,)) * plain_psi(2 - h, right + (b,))
        total += boundary / 2
        return factor * total / 60
    raise ValueError("second route covers only its cross-check cases")


def plain_psi(g: int, exps) -> Fraction:
    """The cotangent integral by the DVV recursion on the largest exponent
    alone: 0 outside the stable range or on dimension mismatch."""
    n = len(exps)
    if g < 0 or 2 * g - 2 + n <= 0 or sum(exps) != 3 * g - 3 + n:
        return Fraction(0)
    return _plain_dvv(g, tuple(sorted(exps)))


@cache
def _plain_dvv(g: int, exps: tuple) -> Fraction:
    if g == 0:
        value = Fraction(factorial(len(exps) - 3))
        for a in exps:
            value /= factorial(a)
        return value
    if (g, exps) == (1, (1,)):
        return Fraction(1, 24)
    k = exps[-1] - 1
    rest = exps[:-1]
    total = Fraction(0)
    for j, d in enumerate(rest):
        others = rest[:j] + rest[j + 1:]
        total += Fraction(_dfact(2 * (k + d) + 1), _dfact(2 * d - 1)) * plain_psi(
            g, others + (k + d,))
    boundary = Fraction(0)
    for a in range(k):
        b = k - 1 - a
        w = _dfact(2 * a + 1) * _dfact(2 * b + 1)
        boundary += w * plain_psi(g - 1, rest + (a, b))
        for g1 in range(g + 1):
            for left, right, m in _splits(rest):
                boundary += m * w * plain_psi(g1, left + (a,)) * plain_psi(g - g1, right + (b,))
    total += boundary / 2
    return total / _dfact(2 * k + 3)


def euler_at(i: int) -> CycScalar:
    """Euler class of the three fixed-point directions; equals -9 for every i."""
    w = weight(i)
    others = [weight(j) for j in (0, 1, 2) if j != i]
    return (w - others[0]) * (w - others[1]) * (CycScalar(-3) * w)


@cache
def expand_vertex_class(i: int, h: int) -> dict:
    """Product of the three truncated dual Chern polynomials over e_i.

    Each factor is sum_k (-1)^k lambda_k u^{h-k} for a tangent weight u:
    w_i - w_j at the other fixed points and -3 w_i, whose product is e_i.
    From genus 2 on, the lambda-degree is capped at 3h - 3, the dimension
    the lambda classes are pulled back from.  Maps sorted lambda-index
    tuples (() for the constant term e_i^{h-1}) to CycScalars; cached, so
    callers must not modify it.
    """
    w = weight(i)
    others = [j for j in range(3) if j != i]
    us = [w - weight(others[0]), w - weight(others[1]), CycScalar(-3) * w]
    cap = 3 * h - 3 if h >= 2 else 3 * h
    # polynomial in lambda_1..lambda_h keyed by sorted index tuples
    poly = {(): CycScalar(1)}
    for u in us:
        factor = {(): u**h}
        for k in range(1, h + 1):
            factor[(k,)] = CycScalar(-1) ** k * u ** (h - k)
        new: dict = {}
        for lam1, c1 in poly.items():
            for lam2, c2 in factor.items():
                if sum(lam1) + sum(lam2) > cap:
                    continue
                key = tuple(sorted(lam1 + lam2))
                term = c1 * c2
                prev = new.get(key)
                new[key] = term if prev is None else prev + term
        poly = new
    inv_e = euler_at(i).inverse()
    return {lam: c * inv_e for lam, c in poly.items() if not c.is_zero()}


_VERTICES: WeakKeyDictionary = WeakKeyDictionary()  # context -> {(h, i, flags): vertex_at}


def vertex_at(ctx, h, i, a_values) -> CycElem:
    """localization.vertex_contribution at label i as a CycElem: its sum
    over lambda-monomials and extra insertions with the label-i vertex class
    and weight powers, memoized per context."""
    a_values = tuple(sorted(a_values))
    memo = _VERTICES.setdefault(ctx, {})
    if (h, i, a_values) not in memo:
        exps = tuple(a - 1 for a in a_values)
        budget = 3 * h - 3 + len(a_values) - sum(exps)
        terms = []
        for lam, coeff in expand_vertex_class(i, h).items():
            rem = budget - sum(lam)
            for parts in localization._partitions(rem, rem) if rem >= 0 else ():
                integral = hodge_psi_integral(h, exps + tuple(p + 1 for p in parts), lam)
                if integral:
                    sign = (-1) ** sum(p % 2 == 0 for p in parts)
                    mult = prod(factorial(parts.count(p)) for p in set(parts))
                    scale = coeff * integral * sign / mult * weight_pow(i, -rem)
                    terms.append(CycElem(reduce(mul, [ctx.rows[0][p] for p in parts],
                                                RingElem.one())) * scale)
        value = CycElem.sum(terms)
        for part in (value.a, value.b):
            if part.x_degree() > 0 or not part.c_degrees() <= {0}:
                raise ConsistencyError("vertex contribution acquired an X- or c-dependence")
        memo[h, i, a_values] = value
    return memo[h, i, a_values]


def leg_at(ctx, i, tag, a) -> CycElem:
    """localization.leg_contribution at label i: the label-0 row entry times
    w_i^(k - shift), k = 0, 1, 2, 1 for H0, H1, H2, psiH and shift = a - 1
    (a - 2 for psiH), from z/w_i in the rows and the prefactor w_i^k."""
    k, shift = {"H0": (0, a - 1), "H1": (1, a - 1), "H2": (2, a - 1), "psiH": (1, a - 2)}[
        normalize_tag(tag)]
    return CycElem(localization.leg_contribution(ctx, tag, a)) * weight_pow(i, k - shift)


def dressed_per_composition(ctx, graph, v, i, budget, loop) -> dict:
    """localization._dressed_at at label i, by one product per ordered flag
    composition of vertex_at and leg_at (leg and loop values memoized): the
    same values and errors, but a key whose terms cancel stays, with value zero."""
    L = localization
    h, ends = graph.genera[v], L._ends(graph, v)
    legs = [m for m, w in enumerate(graph.legs) if w == v]
    loops = [e for e, (a, b) in enumerate(graph.edges) if a == b == v]
    names = ([f"e{e}.{s}" for e, s in ends] + [f"l{m}" for m in legs]
             + [f"e{e}.{s}" for e in loops for s in (0, 1)])
    nk, nl = len(ends), len(legs)
    dressings: dict = {}  # leg and loop values -> their product (None for 1)
    out: dict = {}
    for values in L._compositions(len(names), budget):
        rest = values[nk:]
        if rest not in dressings:
            factors = [leg_at(ctx, i, graph.tags[m], a) for m, a in zip(legs, rest)]
            for j in range(nk + nl, len(values), 2):
                try:
                    factors.append(loop(*values[j:j + 2]))
                except ConsistencyError as exc:
                    flags = zip(names[j:j + 2], values[j:j + 2])
                    raise L._located(exc, graph, flags) from exc
            dressings[rest] = reduce(mul, factors) if factors else None
        dress = dressings[rest]
        if dress is not None and dress.is_zero():
            continue
        try:
            term = vertex_at(ctx, h, i, values)
        except ConsistencyError as exc:
            raise L._located(exc, graph, zip(names, values)) from exc
        if term.is_zero():
            continue
        out.setdefault(values[:nk], []).append(term if dress is None else term * dress)
    return {k: CycElem.sum(terms) for k, terms in out.items()}


def prefix_walk(graph, dressed, pairs, factor) -> RingElem:
    """localization._flag_walk as a depth-first walk over every key of every
    vertex, each prefix product kept and every suffix recomputed per prefix:
    factor(b, flag) enters once w is assigned, for each pairs[b] = (u, w), u != w."""
    nv = len(dressed)
    ends = [localization._ends(graph, w) for w in range(nv)]
    closing = [[b for b, (u, v) in enumerate(pairs) if v == w != u] for w in range(nv)]
    flag: dict = {}  # (edge, side) -> value

    def closed(w, key, term):
        for end, a in zip(ends[w], key):
            flag[end] = a
        for item in closing[w]:
            term = term * factor(item, flag)
        return term

    def walk(w, prefix):
        # prefix: the product over vertices before w (None at vertex 0); the
        # last vertex's terms are summed first.
        if w == nv - 1:
            inner = RingElem.sum([closed(w, key, term) for key, term in dressed[w].items()])
            return inner if prefix is None else prefix * inner
        terms = []
        for key, term in dressed[w].items():
            term = closed(w, key, term)
            terms.append(walk(w + 1, term if prefix is None else prefix * term))
        return RingElem.sum(terms)

    return walk(0, None)


def phases(graph, pairs) -> list[tuple]:
    """The phi on the bundles (u, v), u < v, that solve the vertex system of
    the kp2.localization docstring, one per element of the cycle space, by
    a spanning tree; none at nonzero weight degree."""
    a = localization._degrees(graph)
    if sum(a) % 3:
        return []
    up, order = {}, [0]  # spanning tree: vertex -> bundle towards root 0
    for w in order:
        for b, (u, v) in enumerate(pairs):
            x = u + v - w if w in (u, v) else 0
            if x and x not in up:
                up[x] = b
                order.append(x)
    free = [b for b in range(len(pairs)) if b not in up.values()]
    out = []
    for values in product(range(3), repeat=len(free)):
        phi = dict(zip(free, values))
        for x in order[:0:-1]:  # leaves first: every other bundle at x is set
            b = up[x]
            rest = a[x] - sum(phi[c] if v == x else -phi[c]
                              for c, (u, v) in enumerate(pairs) if x in (u, v) and c != b)
            phi[b] = rest if pairs[b][1] == x else -rest
        out.append(tuple(phi[b] % 3 for b in range(len(pairs))))
    return out


def unmerged_graph_contribution(ctx, graph) -> RingElem:
    """localization.graph_contribution by prefix_walk: every arrangement of
    every bundle's flags is walked at both of its ends."""
    L = localization
    bundles: dict = {}
    for e, (u, v) in enumerate(graph.edges):
        if u != v:
            bundles.setdefault((u, v), []).append(e)
    pairs, edges = list(bundles), list(bundles.values())
    dressed = [L._dressed_vertex(ctx, ctx._dressed_memo, graph, w, lambda b1, b2:
                                 RingElem.sum(L._edge_modes(ctx, b1, b2)))
               for w in range(len(graph.genera))]
    walks = [prefix_walk(graph, dressed, pairs, lambda b, flag: L._bundle_term(
        ctx, graph, (pairs[b], edges[b]), flag, phi[b])) for phi in phases(graph, pairs)]
    return RingElem.sum(walks) * (Fraction(3) ** len(graph.genera) / graph.aut_order)


def reference_edge_multisets(genera, ne: int, n: int):
    """kp2.graphs._edge_multisets with its cuts on finished rows only."""
    nv = len(genera)
    need = [3 - 2 * h for h in genera]
    val = [0] * nv
    col = [[0] * nv for _ in genera]  # col[v][u]: copies of the pair (u, v)
    tie = [v > 0 and genera[v - 1] == genera[v] for v in range(nv)]
    out: list = []

    def place(u, v, left, lacking, comp):
        if v == nv:  # every pair (u, .) is placed: u is final
            lacking += max(0, need[u] - val[u])
            later = sum(max(0, need[w] - val[w]) for w in range(u + 1, nv))
            if lacking + max(0, later - 2 * left) > n:
                return
            if u and tie[u] and col[u - 1][:u - 1] == col[u][:u - 1]:
                rows = [[col[w][a] for w in (a, *range(u + 1, nv))] for a in (u - 1, u)]
                if rows[0] < rows[1]:
                    return
            if u + 1 < nv:
                joined = {comp[w] for w in range(u, nv) if col[w][u]} | {comp[u]}
                comp = [u if c in joined else c for c in comp]
                if u in comp[u + 1:]:
                    place(u + 1, u + 1, left, lacking, comp)
            elif left == 0:
                out.append(tuple((a, b) for a in range(nv) for b in range(a, nv)
                                 for _ in range(col[b][a])))
            return
        place(u, v + 1, left, lacking, comp)
        for count in range(1, left + 1):
            val[u] += 1
            val[v] += 1
            col[v][u] += 1
            if v > u + 1 and tie[v] and col[v - 1] < col[v]:
                break
            place(u, v + 1, left - count, lacking, comp)
        count = col[v][u]
        val[u] -= count
        val[v] -= count
        col[v][u] = 0

    place(0, 0, ne, 0, list(range(nv)))
    return out


def reference_block_perms(genera) -> list[tuple]:
    """Vertex permutations that preserve the nondecreasing genera, in lexicographic order."""
    blocks = []
    start = 0
    for v in range(1, len(genera) + 1):
        if v == len(genera) or genera[v] != genera[start]:
            blocks.append(range(start, v))
            start = v
    return [sum(parts, ()) for parts in product(*(permutations(b) for b in blocks))]


def reference_pair_tables(perms, nv: int) -> list[bytes]:
    """Per permutation sigma, the code of the sorted image of each pair code u * nv + v."""
    return [bytes(a * nv + b if a <= b else b * nv + a for a in sigma for b in sigma)
            for sigma in perms]


def reference_edge_stabilizer(codes, perms, tables):
    """The perms that fix the sorted edge codes, or None if one makes them
    smaller: one sorted image per permutation."""
    out = []
    for sigma, table in zip(perms, tables):
        mapped = sorted(map(table.__getitem__, codes))
        if mapped < codes:
            return None
        if mapped == codes:
            out.append(sigma)
    return out


def reference_enumerate_graphs(g: int, tags) -> list:
    """kp2.graphs.enumerate_graphs through the reference walk and sweep."""
    if isinstance(tags, int):
        tags, colours = ("H0",) * tags, [[m] for m in range(tags)]
    else:
        tags = tuple(normalize_tag(t) for t in tags)
        colours = [[m for m, t in enumerate(tags) if t == c] for c in dict.fromkeys(tags)]
    n = len(tags)
    _check_request(g, n)
    slot = sorted(range(n), key=sum(colours, []).__getitem__)
    runs = [(slot[c[0]], slot[c[0]] + len(c)) for c in colours if len(c) > 1]
    labelings = prod(factorial(len(c)) for c in colours)
    out = []
    for nv in range(1, 2 * g - 1 + n):
        for genera in combinations_with_replacement(range(g + 1), nv):
            ne = g - sum(genera) + nv - 1
            if ne < 0:
                continue
            perms = reference_block_perms(genera)
            tables = reference_pair_tables(perms, nv)
            for edges in reference_edge_multisets(genera, ne, n):
                stabilizer = reference_edge_stabilizer([u * nv + v for u, v in edges], perms, tables)
                if stabilizer is None:
                    continue
                flag = _flag_factor(edges)
                base = [2 * h - 2 for h in genera]
                for (u, v) in edges:
                    base[u] += 1
                    base[v] += 1
                for parts in product(*(combinations_with_replacement(range(nv), len(c))
                                       for c in colours)):
                    place = [v for p in parts for v in p]
                    val = base[:]
                    for v in place:
                        val[v] += 1
                    if min(val) <= 0:
                        continue
                    group = []
                    for sigma in stabilizer:
                        mapped = [sigma[v] for v in place]
                        for a, b in runs:
                            mapped[a:b] = sorted(mapped[a:b])
                        if mapped < place:
                            break
                        if mapped == place:
                            group.append(sigma)
                    else:
                        legs = tuple(place[k] for k in slot)
                        full = len(group) * flag * prod(factorial(p.count(v))
                                                        for p in parts for v in set(p))
                        q = Fraction(full, labelings)
                        aut = q.numerator if q.denominator == 1 else q
                        out.append(StableGraph(genera, edges, legs, tags, aut, tuple(group)))
    out.sort(key=lambda gr: (gr.genera, gr.edges, gr.legs))
    return out
