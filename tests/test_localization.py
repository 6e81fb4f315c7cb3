"""Fixed-point graph sums: censuses, automorphisms, kernels, assembled values."""

import gc
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod
from pathlib import Path

import pytest

from kp2 import graphs, labelled, localization
from kp2.graphs import _edge_multisets, _edge_stabilizer, _flag_factor, _ratio
from kp2.labelled import (CycElem, _p_coefficient, decoration_orbits, edge_contribution,
                          labelled_contribution)
from kp2.localization import (
    build_context,
    correlator,
    enumerate_graphs,
    graph_contribution,
    leg_contribution,
    per_graph_contributions,
    vertex_contribution,
)
from kp2.lring import RingElem
from kp2.mirror import mirror_data
from kp2.scalars import ConsistencyError, CycScalar, weight_pow

from golden import (
    GOLDEN_NAMES,
    Vertices,
    cyc,
    euler_at,
    genus2_graph_values,
    genus2_total,
    leg_at,
    reference_block_perms,
    reference_enumerate_graphs,
)

F = Fraction

# undecorated census at genus 2 with no markings, keyed by (genera, edges)
GENUS2_CENSUS = {
    ((0, 0), ((0, 1), (0, 1), (0, 1))): 12,
    ((0, 0), ((0, 0), (0, 1), (1, 1))): 8,
    ((0, 1), ((0, 0), (0, 1))): 2,
    ((1, 1), ((0, 1),)): 2,
    ((0,), ((0, 0), (0, 0))): 8,
    ((1,), ((0, 0),)): 2,
    ((2,), ()): 1,
}


def brute_aut(genera, edges, legs, decorations=None, tags=None):
    """Count automorphisms directly at flag level.

    A symmetry is a vertex bijection preserving genus (and labels, when
    given), together with a bijection of half-edges that lies over it and
    preserves the edge pairing, and a bijection of the markings that lies
    over it: the identity, or with tags any one that keeps every tag (legs
    coloured by tag).
    """
    nv = len(genera)
    flags = [(e, s) for e in range(len(edges)) for s in (0, 1)]
    vertex_of = {(e, s): edges[e][s] for (e, s) in flags}
    partner = {(e, s): (e, 1 - s) for (e, s) in flags}
    index = {f: k for k, f in enumerate(flags)}
    markings = range(len(legs))
    taus = [tau for tau in permutations(markings)
            if all(tau[m] == m if tags is None else tags[tau[m]] == tags[m] for m in markings)]
    count = 0
    for sigma in permutations(range(nv)):
        if any(genera[sigma[v]] != genera[v] for v in range(nv)):
            continue
        if decorations is not None and any(
            decorations[sigma[v]] != decorations[v] for v in range(nv)
        ):
            continue
        leg_maps = sum(all(legs[tau[m]] == sigma[legs[m]] for m in markings) for tau in taus)
        if not leg_maps:
            continue
        for pi in permutations(range(len(flags))):
            good = True
            for a, fa in enumerate(flags):
                img = flags[pi[a]]
                if vertex_of[img] != sigma[vertex_of[fa]]:
                    good = False
                    break
                if flags[pi[index[partner[fa]]]] != partner[img]:
                    good = False
                    break
            if good:
                count += leg_maps
    return count


def all_census_graphs():
    out = []
    out.extend(enumerate_graphs(2, ()))
    out.extend(enumerate_graphs(1, ("H1",)))
    out.extend(enumerate_graphs(0, ("H0", "H0", "H2")))
    out.extend(enumerate_graphs(1, ("H2", "H2", "H2")))
    out.extend(enumerate_graphs(0, ("H1", "H2", "H1", "H1", "H2")))
    return out


def labelings(tags):
    """prod_t m_t!: the marking maps of each colour onto its legs."""
    return prod(factorial(tags.count(t)) for t in set(tags))


def test_genus_two_census():
    graphs = enumerate_graphs(2, ())
    assert len(graphs) == 7
    found = {(g.genera, g.edges): g.aut_order for g in graphs}
    assert found == GENUS2_CENSUS
    assert all(sum(g.genera) + len(g.edges) - len(g.genera) + 1 == 2 for g in graphs)
    assert len({g.signature() for g in graphs}) == 7


def test_small_censuses():
    one = enumerate_graphs(1, ("H1",))
    assert {(g.genera, g.edges) for g in one} == {((1,), ()), ((0,), ((0, 0),))}
    zero = enumerate_graphs(0, 3)
    assert len(zero) == 1
    assert zero[0].aut_order == 1
    assert zero[0].tags == ("H0", "H0", "H0")


def test_unstable_census_raises():
    with pytest.raises(ValueError):
        enumerate_graphs(1, ())
    with pytest.raises(ValueError):
        enumerate_graphs(0, 2)


def test_tag_normalization():
    graphs = enumerate_graphs(0, (0, 1, 2))
    assert graphs[0].tags == ("H0", "H1", "H2")
    with pytest.raises(ValueError):
        enumerate_graphs(0, ("H3", "H0", "H0"))


def _mapped_edges(sigma, edges) -> tuple:
    """The sorted edge multiset that the vertex permutation sigma carries
    edges to: the direct route that _edge_stabilizer is held to."""
    return tuple(sorted((a, b) if a <= b else (b, a)
                        for a, b in ((sigma[u], sigma[v]) for (u, v) in edges)))


def _valid_perms(genera, edges, legs):
    """Vertex permutations preserving genera, the edge multiset and every leg,
    found by a pass over all nv! permutations."""
    nv = len(genera)
    edge_key = tuple(sorted(edges))
    out = []
    for sigma in permutations(range(nv)):
        if any(genera[v] != genera[sigma[v]] for v in range(nv)):
            continue
        if any(sigma[v] != v for v in legs):
            continue
        if _mapped_edges(sigma, edges) != edge_key:
            continue
        out.append(sigma)
    return out


@pytest.mark.parametrize("g, n", [(2, 2), (3, 0), (1, 3), (0, 5), (3, 1), (2, 3)])
def test_automorphism_groups_match_brute_force(g, n):
    for gr in enumerate_graphs(g, n):
        group = _valid_perms(gr.genera, gr.edges, gr.legs)
        assert sorted(gr.automorphisms) == group, gr.signature()
        assert gr.aut_order == len(group) * _flag_factor(gr.edges)


def _swept_stabilizer(genera, edges):
    """The block perms, in lexicographic order, that fix edges, or None if
    one makes them smaller: every perm mapped pair by pair."""
    perms = reference_block_perms(genera)
    mapped = [_mapped_edges(sigma, edges) for sigma in perms]
    if min(mapped) < edges:
        return None
    return [sigma for sigma, m in zip(perms, mapped) if m == edges]


@pytest.mark.parametrize("nv", [2, 3, 4])
def test_edge_stabilizer_matches_mapped_edges(nv):
    # The pruned search against mapping each edge multiset pair by pair
    # under every block perm: the same kept perms in the same order, and
    # None for a non-canonical one.
    pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
    outcomes = set()
    for genera in combinations_with_replacement(range(2), nv):
        for ne in range(4):
            for edges in combinations_with_replacement(pairs, ne):
                want = _swept_stabilizer(genera, edges)
                assert _edge_stabilizer(genera, edges) == want, (genera, edges)
                outcomes.add(want is None)
    assert outcomes == {False, True}


@pytest.mark.parametrize("genera", [(0,) * 5, (0,) * 6, (0,) * 5 + (1,), (0,) + (1,) * 5],
                         ids=["0x5", "0x6", "0x5-1", "0-1x5"])
def test_edge_stabilizer_on_blocks_of_five_and_six(genera):
    # Blocks of 5 and 6 equal-genus vertices, where the search prunes whole
    # branches: a fixed sample of multisets, each with its smallest image
    # under the block perms, which is canonical, so both outcomes occur.
    rng = random.Random(1012)
    nv = len(genera)
    pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
    perms = reference_block_perms(genera)
    kept = nones = 0
    for _ in range(25):
        edges = tuple(sorted(rng.choice(pairs) for _ in range(rng.randrange(3, 10))))
        for sample in (edges, min(_mapped_edges(sigma, edges) for sigma in perms)):
            want = _swept_stabilizer(genera, sample)
            assert _edge_stabilizer(genera, sample) == want, (genera, sample)
            kept += want is not None and len(want) > 1
            nones += want is None
    assert kept and nones


def _connected(nv, edges) -> bool:
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(nv)}) == 1


def reference_key(genera, edges, legs):
    """The smallest (genera, edges, legs) over every vertex permutation."""
    nv = len(genera)
    best = None
    for sigma in permutations(range(nv)):
        h = tuple(genera[sigma.index(v)] for v in range(nv))
        e = tuple(sorted(tuple(sorted((sigma[u], sigma[v]))) for (u, v) in edges))
        l = tuple(sigma[v] for v in legs)
        key = (h, e, l)
        if best is None or key < best:
            best = key
    return best


def brute_census(g, n):
    """(signature, aut_order) of every graph, from all labeled candidates."""
    found = {}
    for nv in range(1, 2 * g - 1 + n):
        pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
        for genera in product(range(g + 1), repeat=nv):
            ne = g - sum(genera) + nv - 1
            if ne < 0:
                continue
            for edges in combinations_with_replacement(pairs, ne):
                if not _connected(nv, edges):
                    continue
                for legs in product(range(nv), repeat=n):
                    val = [2 * h - 2 for h in genera]
                    for (u, v) in edges:
                        val[u] += 1
                        val[v] += 1
                    for v in legs:
                        val[v] += 1
                    if min(val) <= 0:
                        continue
                    key = reference_key(genera, edges, legs)
                    if key not in found:
                        found[key] = len(_valid_perms(*key)) * _flag_factor(key[1])
    return [(graphs.StableGraph(h, e, l, ("H0",) * n, aut, ()).signature(), aut)
            for (h, e, l), aut in sorted(found.items())]


@pytest.mark.parametrize("g, n", [(2, 2), (3, 0), (1, 3), (0, 5)])
def test_census_matches_brute_force(g, n):
    got = [(gr.signature(), gr.aut_order) for gr in enumerate_graphs(g, n)]
    assert got == brute_census(g, n)


def test_genus_three_censuses():
    assert len(enumerate_graphs(3, 0)) == 42
    graphs = enumerate_graphs(3, 1)
    assert len(graphs) == 181
    assert len({gr.signature() for gr in graphs}) == 181
    for gr in graphs:
        key = (gr.genera, gr.edges, gr.legs)
        assert key == reference_key(*key), gr.signature()
        assert gr.aut_order == len(_valid_perms(*key)) * _flag_factor(gr.edges)
    assert [(gr.genera, gr.edges, gr.legs) for gr in graphs] == sorted(
        (gr.genera, gr.edges, gr.legs) for gr in graphs)


def _lacking(genera, edges):
    """Flags the vertices lack for stability, which only legs can supply."""
    val = [0] * len(genera)
    for (u, v) in edges:
        val[u] += 1
        val[v] += 1
    return sum(max(0, 3 - 2 * h - x) for h, x in zip(genera, val))


@pytest.mark.parametrize("g, n", [(2, 2), (3, 0), (1, 3), (3, 1)])
def test_edge_walk_keeps_every_canonical_candidate(g, n):
    # The walk may drop only what enumerate_graphs rejects: a disconnected
    # multiset, one that needs more than n legs, or one that a relabeling
    # within the genus blocks makes smaller.  Every genus vector with up to
    # five vertices is checked against all multisets of its pairs.  What it
    # yields is connected, and no two adjacent vertices t, t + 1 of one genus
    # have columns out of order in the rows a < t, or, with equal columns
    # there, rows out of order (swapping them would make the edges smaller).
    for nv in range(1, min(5, 2 * g - 2 + n) + 1):
        pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
        for genera in combinations_with_replacement(range(g + 1), nv):
            ne = g - sum(genera) + nv - 1
            if ne < 0:
                continue
            walked = _edge_multisets(genera, ne, n)
            assert len(set(walked)) == len(walked)
            for edges in walked:
                assert _connected(nv, edges), (genera, edges)
                assert _lacking(genera, edges) <= n, (genera, edges)
                count = Counter(edges)
                for t in range(nv - 1):
                    if genera[t] == genera[t + 1]:
                        above = [count[a, t] for a in range(t)]
                        assert above >= [count[a, t + 1] for a in range(t)], (genera, edges)
                        # equal above: rows t and t + 1, read as (loops, pairs
                        # beyond t + 1), are in order too
                        if above == [count[a, t + 1] for a in range(t)]:
                            rows = [[count[s, w] for w in (s, *range(t + 2, nv))]
                                    for s in (t, t + 1)]
                            assert rows[0] >= rows[1], (genera, edges)
            perms = [sigma for sigma in permutations(range(nv))
                     if all(genera[sigma[v]] == genera[v] for v in range(nv))]
            walked = set(walked)
            for edges in combinations_with_replacement(pairs, ne):
                if _lacking(genera, edges) > n or not _connected(nv, edges):
                    continue
                if all(tuple(sorted(tuple(sorted((sigma[u], sigma[v]))) for (u, v) in edges))
                       >= edges for sigma in perms):
                    assert edges in walked, (genera, edges)


@pytest.mark.parametrize("g, tags", [
    (0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2),
    (2, 3), (3, 0), (3, 1), (3, 2), (4, 0), (2, ("H1", "H1")), (2, ("H1",) * 3),
    (1, ("H2", "H2", "psiH")), (0, ("H1",) * 4)])
def test_census_equals_reference(g, tags):
    # The pruned walk and search list exactly what the reference census,
    # cut on finished rows and swept over every block perm, lists: every
    # field, the automorphism tuples and the type of aut_order included.
    got = enumerate_graphs(g, tags)
    want = reference_enumerate_graphs(g, tags)
    assert got == want
    assert repr(got) == repr(want)


def test_ratio_is_an_int_unless_fractional():
    # an integral weight is an int, which JSON prints as 48, not as a fraction
    assert json.dumps(_ratio(96, 2)) == "48"
    assert type(_ratio(F(6), 3)) is int and _ratio(F(3, 2), 3) == F(1, 2)
    for g, tags, fractional in ((0, ("H1",) * 4, F(1, 3)), (2, ("H1", "H1"), F(1, 2)), (3, 1, None)):
        weights = [gr.aut_order for gr in enumerate_graphs(g, tags)]
        assert fractional is None or fractional in weights
        for w in weights:
            assert type(w) is (int if w.denominator == 1 else F), (g, tags, w)


@pytest.mark.parametrize("g, n, count", [
    (2, 3, 555), (2, 4, 5608), (3, 2, 1355), (4, 0, 379), (1, 4, 163), (0, 6, 236)])
def test_frozen_census_counts(g, n, count):
    # (4, 0) is the genus-4 count of Maggiolo-Pagani, arXiv:1012.4777
    graphs = enumerate_graphs(g, n)
    assert len(graphs) == count
    assert len({(gr.genera, gr.edges, gr.legs) for gr in graphs}) == count


def test_genus_three_series(ctx2):
    total = correlator(ctx2, 3, ())
    assert total.c_degrees() == {0}
    # the constant-map term (-1)^g chi |B_2g B_2g-2| / (4g (2g-2) (2g-2)!), chi = 3
    assert total.eval_at(1, 0) == F(-1, 483840)
    contributions = per_graph_contributions(ctx2, 3, ())
    assert len(contributions) == 42
    assert RingElem.sum(item.value for item in contributions) == total
    assert correlator(ctx2, 3, ("H0",)).is_zero()  # delta != 0: exact zero


def test_genus_three_series_equals_the_frozen_one(ctx2):
    # total and total_a2 of fg --genus 3, frozen from the graph sums before
    # the edge factors were split into rational modes; fg prints to_json
    frozen = json.loads((Path(__file__).parent / "frozen_series.json").read_text())["fg-g3"]
    total = correlator(ctx2, 3, ())
    assert (len(frozen["total"]), len(frozen["total_a2"])) == (28, 19)
    assert total.to_json() == frozen["total"]
    assert total.to_a2_form().to_json("A2") == frozen["total_a2"]


def test_frozen_genus_five_entry():
    # fg --genus 5 takes minutes, so the suite checks its frozen entry
    # alone: read into the rational ring, free of c, the constant-map term
    # F_5(1,0) = -1/851558400 and an A2 form of degree 3g - 3 = 12
    frozen = json.loads((Path(__file__).parent / "frozen_series.json").read_text())["fg-g5"]
    assert frozen["genus"] == 5
    total = RingElem.from_json(frozen["total"])
    assert total.to_json() == frozen["total"]
    assert total.c_degrees() == {0}
    assert total.eval_at(1, 0) == F(-1, 851558400)
    assert (len(frozen["total"]), total.l_range(), total.x_degree()) == (91, (-12, 24), 12)
    a2 = total.to_a2_form()
    assert a2.to_json("A2") == frozen["total_a2"]
    assert a2.x_degree() == 12


def test_genus_three_series_is_a_polynomial_in_a2(ctx2):
    # F_3 lies in Q[L^-1, L][A2] with A2-degree 3g - 3 = 6 (Lho-Pandharipande)
    total = correlator(ctx2, 3, ())
    a2 = total.to_a2_form()
    assert a2.x_degree() == 6
    assert a2.c_degrees() == {0}
    assert a2.l_range() == (0, 12)
    # X = (L^3 A2 + L^3/2 - 1)/3 inverts to A2 = 3 L^-3 X + L^-3 - 1/2
    assert a2.substitute_x(RingElem({(-3, 1, 0): 3, (-3, 0, 0): 1, (0, 0, 0): F(-1, 2)})) == total


def _gv_numbers(ctx, dmax, f3_scale=1):
    """Gopakumar-Vafa numbers n^h_d, h = 0, 2, 3, from the exact totals.

    Q = q Qofq(q) is inverted to q(Q) and each series is composed with it.
    With x = k lambda, sum_g lambda^(2g-2) F_g is the sum over h, d, k of
    n^h_d (1/k) (2 sin(x/2))^(2h-2) Q^(kd), so
    Y = -1/3 + sum n^0_d d^3 Q^(kd),
    F_2 = sum (n^0_d/240 + n^2_d) k Q^(kd) and
    F_3 = sum (n^0_d/6048 - n^2_d/12 + n^3_d) k^3 Q^(kd).
    """
    mirror = mirror_data(dmax)

    def mul(a, b):
        return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(dmax + 1)]

    def compose(series, inner):
        out, power = [F(0)] * (dmax + 1), [F(1)] + [F(0)] * dmax
        for coeff in series:
            out = [o + coeff * p for o, p in zip(out, power)]
            power = mul(power, inner)
        return out

    big_q = [F(0)] + [c.as_rational() for c in mirror.Qofq.coeffs[:dmax]]
    small_q = [F(0), F(1)] + [F(0)] * (dmax - 1)
    for _ in range(dmax):  # each step fixes one more order of Q(q(Q)) = Q
        residual = compose(big_q, small_q)
        residual[1] -= 1
        small_q = [s - r for s, r in zip(small_q, residual)]

    def in_big_q(elem):
        return compose([c.as_rational() for c in mirror.eval_q(elem).coeffs], small_q)

    def strip_covers(series, power):
        # series[m] = sum over d | m of a_d (m/d)^power; returns the a_d
        out = {}
        for m in range(1, dmax + 1):
            out[m] = series[m] - sum(out[d] * (m // d) ** power
                                     for d in range(1, m) if m % d == 0)
        return out

    yukawa = strip_covers(in_big_q(correlator(ctx, 0, ("H1", "H1", "H1"))), 0)
    n0 = {d: yukawa[d] / d**3 for d in yukawa}
    f2 = strip_covers(in_big_q(correlator(ctx, 2, ())), 1)
    n2 = {d: f2[d] - n0[d] / 240 for d in f2}
    f3 = strip_covers(in_big_q(correlator(ctx, 3, ()).scale(f3_scale)), 3)
    n3 = {d: f3[d] - n0[d] / 6048 + n2[d] / 12 for d in f3}
    return n0, n2, n3


def test_genus_three_gopakumar_vafa_integrality(ctx2):
    n0, n2, n3 = _gv_numbers(ctx2, 5)
    assert [n0[d] for d in range(1, 6)] == [3, -6, 27, -192, 1695]
    assert [n2[d] for d in range(1, 6)] == [0, 0, 0, -102, 5430]
    assert [n3[d] for d in range(1, 6)] == [0, 0, 0, 15, -3672]
    # control: a doubled F_3 is not a BPS expansion
    _, _, doubled = _gv_numbers(ctx2, 5, f3_scale=2)
    assert doubled[1] == F(1, 2016)
    assert any(v.denominator != 1 for v in doubled.values())


def test_aut_orders_by_brute_force():
    # a coloured automorphism may permute same-tag markings, so |Aut| is
    # aut_order = |G| F / N times prod_t m_t!
    for g in all_census_graphs():
        assert brute_aut(g.genera, g.edges, g.legs, tags=g.tags) == (
            g.aut_order * labelings(g.tags)), g.signature()
    assert any(isinstance(g.aut_order, Fraction) for g in all_census_graphs())


def test_decorated_aut_orders_by_brute_force():
    for g in all_census_graphs():
        for labels, aut in decoration_orbits(g):
            assert brute_aut(g.genera, g.edges, g.legs, labels, g.tags) == (
                aut * labelings(g.tags)), (g.signature(), labels)


def test_orbit_stabilizer_count():
    # summing |Aut| / |Aut_decorated| over orbit representatives recovers the
    # number of labelings
    for g in all_census_graphs():
        total = sum(F(g.aut_order, aut) for _, aut in decoration_orbits(g))
        assert total == 3 ** len(g.genera), g.signature()


def test_kernel_constant_term_vanishes(ctx1):
    for i in range(3):
        for j in range(3):
            assert _p_coefficient(ctx1, i, j, 0, 0).is_zero()


def test_kernel_alternating_antidiagonals_vanish(ctx1):
    for total_degree in (1, 2, 3):
        for i in range(3):
            for j in range(3):
                acc = RingElem.zero()
                for x in range(total_degree + 1):
                    term = _p_coefficient(ctx1, i, j, x, total_degree - x)
                    acc = acc + (term if x % 2 == 0 else -term)
                assert acc.is_zero(), (total_degree, i, j)


def test_edge_symmetry_and_degrees(ctx1):
    for (i, j) in ((0, 0), (0, 1), (1, 2), (2, 0)):
        for (b1, b2) in ((1, 1), (1, 2), (2, 2), (3, 2)):
            e = edge_contribution(ctx1, i, j, b1, b2)
            assert e == edge_contribution(ctx1, j, i, b2, b1)
            for part in (e.a, e.b):
                assert part.c_degrees() <= {0}
                assert part.x_degree() <= 1


def test_edge_linear_part_closed_form(ctx1):
    # coefficient of X: a product of first-order row entries with an
    # alternating sign and one inverse power of L
    rows = ctx1.rows
    for (i, j) in ((0, 0), (0, 1), (2, 1)):
        for (b1, b2) in ((1, 1), (1, 2), (2, 2), (3, 2)):
            e = edge_contribution(ctx1, i, j, b1, b2)
            linear = CycElem(e.a.x_coefficient(1), e.b.x_coefficient(1))
            sign = 1 if (b1 + b2) % 2 == 0 else -1
            expected = (
                CycElem(rows[1][b1 - 1] * rows[1][b2 - 1] * RingElem.monomial(3 * sign, l=-1))
                * cyc(weight_pow(i, 2 - b1) * weight_pow(j, 2 - b2))
            )
            assert linear == expected, (i, j, b1, b2)


def test_edge_rejects_bad_flags(ctx1):
    with pytest.raises(ValueError):
        edge_contribution(ctx1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        edge_contribution(ctx1, 0, 1, 5, 4)  # needs a row beyond kmax


def test_leg_values(ctx1):
    # the label-0 legs of the graph sums, and golden's legs at every label,
    # which the labelled route's references read
    assert leg_contribution(ctx1, "H0", 1) == RingElem.one()
    assert leg_contribution(ctx1, "H1", 1) == RingElem.monomial(1, l=1, e=1)
    assert leg_contribution(ctx1, "H2", 1) == RingElem.monomial(1, l=-1, e=-1)
    assert leg_contribution(ctx1, "psiH", 1).is_zero()
    assert leg_contribution(ctx1, "psiH", 2) == -RingElem.monomial(1, l=1, e=1)
    for i in range(3):
        w = weight_pow(i, 1)
        assert leg_at(ctx1, i, "H0", 1) == RingElem.one()
        assert leg_at(ctx1, i, "H1", 1) == CycElem(RingElem.monomial(1, l=1, e=1)) * cyc(w)
        assert leg_at(ctx1, i, "H2", 1) == CycElem(RingElem.monomial(1, l=-1, e=-1)) * cyc(w * w)
        assert leg_at(ctx1, i, "psiH", 1).is_zero()
        assert leg_at(ctx1, i, "psiH", 2) == -CycElem(RingElem.monomial(1, l=1, e=1)) * cyc(w)


def test_leg_c_degrees(ctx1):
    expected = {"H0": {0}, "H1": {1}, "H2": {-1}, "psiH": {1}}
    for tag, degrees in expected.items():
        got = leg_contribution(ctx1, tag, 2 if tag == "psiH" else 1)
        assert got.c_degrees() == degrees


def test_vertex_rank_zero(ctx1):
    for i in range(3):
        v = vertex_contribution(ctx1, 0, i, (1, 1, 1))
        assert v == RingElem.const(euler_at(i).inverse())


def test_vertex_genus_one_closed_form(ctx1):
    # the two lambda-monomials that survive the dimension bound: the empty
    # one with one extra insertion, and lambda_1.  At labels 1 and 2 the
    # value has a zeta part, so the ring refuses it and golden's pair holds it.
    full = vertex_contribution(ctx1, 1, 0, (1,))
    assert full == ctx1.rows[0][1] * F(1, 24) + RingElem.const(F(-1, 36))
    vertices = Vertices(ctx1)
    for i in range(3):
        assert vertices.at(1, i, (1,)) == CycElem(ctx1.rows[0][1]) * cyc(
            CycScalar(F(1, 24)) * weight_pow(i, -1)) + cyc(CycScalar(F(-1, 36)) * weight_pow(i, 2))
    for i in (1, 2):
        with pytest.raises(ConsistencyError, match="not rational"):
            vertex_contribution(ctx1, 1, i, (1,))


def test_vertex_genus_three(ctx1):
    # one flag at a genus-3 vertex fills its 7 dimensions with rows up to k = 7
    value = vertex_contribution(ctx1, 3, 0, (1,))
    assert not value.is_zero()
    assert value.x_degree() == 0 and value.c_degrees() == {0}
    vertices = Vertices(ctx1)
    for i in range(3):
        assert vertices.at(3, i, (1,)) == CycElem(value) * cyc(weight_pow(i, -1))


@pytest.mark.parametrize("g, tags", [(1, ("H1",)), (2, ())], ids=["1-1", "2-0"])
def test_graph_contribution_sums_every_labelling(ctx1, g, tags):
    # the sum over all 3^V labellings of the labelled values, each over the
    # graph's aut_order, with no orbits taken
    for graph in enumerate_graphs(g, tags):
        direct = CycElem.sum(labelled_contribution(ctx1, graph, labels, graph.aut_order)
                             for labels in product(range(3), repeat=len(graph.genera)))
        assert graph_contribution(ctx1, graph) == direct, graph.signature()


# (ring products, term pairs) of a correlator on a fresh context, rows
# included; before the flag sums went by symmetry class they were
# (2446, 49615) and (2633, 91443), with one flag walk per phase solution
# (1638, 32590) and (1882, 54671), with a product before each sum
# (1586, 31808) and (1738, 51463), and with each ordering of two legs of
# one tag its own product (1532, 31250) and (1646, 50428)
WORK_BOUNDS = {(2, ("H1", "H1")): (1504, 31101), (3, ()): (1646, 50428)}


@pytest.mark.parametrize("g, tags", WORK_BOUNDS, ids=["2-H1x2", "3-0"])
def test_graph_sums_stay_within_their_work(g, tags, monkeypatch):
    # Every RingElem product is made by RingElem.dot and counted there, with
    # its term pairs: a pair of nonzero elements, the second not one(), is
    # one product of the terms of one times those of the other, a scalar
    # being a one-term constant.  A change that computes a symmetry class
    # more than once exceeds the bounds; one that makes products the counter
    # cannot see reads below 90% of them.
    real, one = RingElem.dot, RingElem.one()
    work = [0, 0]

    def counted(pairs):
        pairs = list(pairs)
        for x, y in pairs:
            if x and y and y is not one:
                work[0] += 1
                work[1] += len(x.terms) * len(y.terms)
        return real(pairs)

    monkeypatch.setattr(RingElem, "dot", staticmethod(counted))
    correlator(build_context(), g, tags)
    for count, bound in zip(work, WORK_BOUNDS[g, tags]):
        assert 0.9 * bound <= count <= bound


def test_graph_sums_leave_no_cyclic_garbage():
    # A flag walk's states and the census searches' cells are freed when
    # the walk returns, and the labelled route's memos live on the context,
    # so nothing these runs build waits for the collector: a walk whose
    # recursive closure is left referring to itself leaves its states here.
    gc.collect()
    gc.disable()
    try:
        correlator(build_context(), 2, ("H1", "H1"))
        enumerate_graphs(3, 1)
        ctx = build_context()
        for contribution in per_graph_contributions(ctx, 2, ()):
            labelled.graph_json(contribution, ctx)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_genus_two_golden_values(ctx2):
    golden = genus2_graph_values()
    contributions = per_graph_contributions(ctx2, 2, ())
    assert len(contributions) == 7
    total = RingElem.zero()
    for item in contributions:
        name = GOLDEN_NAMES[(item.graph.genera, item.graph.edges)]
        assert item.value == golden[name], name
        total = total + item.value
    assert total == genus2_total()


def test_three_point_values(ctx1):
    assert correlator(ctx1, 0, ("H0",) * 3) == RingElem.const(F(-1, 3))
    assert correlator(ctx1, 0, ("H1",) * 3) == RingElem.monomial(
        CycScalar(F(-1, 3)), l=3, e=3
    )
    assert correlator(ctx1, 0, ("H2",) * 3) == RingElem.monomial(
        CycScalar(F(-1, 3)), l=-3, e=-3
    )
    # integer tags mean the same insertions
    assert correlator(ctx1, 0, (2, 2, 2)) == correlator(ctx1, 0, ("H2",) * 3)


def test_genus_one_one_point_closed_form(ctx1):
    from kp2.anomaly import genus_one_inputs

    one_point = correlator(ctx1, 1, ("H1",))
    assert one_point == genus_one_inputs()[0]


class _NoMemo(dict):
    """A memo table that never stores, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def _class_representatives(graph):
    """One decoration orbit per class under G and the six relabelings p -> +-p + s."""
    sigmas = graph.automorphisms
    seen = set()
    for labels, aut in decoration_orbits(graph):
        if labels not in seen:
            seen.update(min(labelled._aut_images([(eps * p + s) % 3 for p in labels], sigmas))
                        for s in range(3) for eps in (1, -1))
            yield labels, aut


@pytest.mark.parametrize(
    "g, tags", [(1, ("H0", "psiH", "H1")), (2, ("H1", "H2")), (2, ()), (1, ("H2", "psiH", "H2"))],
    ids=["1-3-mixed", "2-2", "2-0", "1-3-orders"],
)
def test_dressed_vertex_memo_matches_fresh_contexts(g, tags):
    # A dressed vertex is shared across graphs and vertices by its key alone,
    # in the memo of the label sums and in the labelled route's memo, both at
    # label 0.  The reference is a fresh context per graph with those memos
    # off; both have the rows a correlator would size.  At (2,2) a vertex
    # with a loop at 0 and one without at 2 differ only in the loop count of
    # the key.  At (1, H2 psiH H2) a vertex holds the legs psiH, H2 in one
    # graph and H2, psiH in another, and the key sorts them.  Every
    # decoration orbit is checked, except at (2,2): there one per relabeling
    # class, to keep it short.  With delta = 0 the sum over all labellings,
    # which reads only label-0 vertices, is checked too.
    kmax = 3 * g - 3 + len(tags)
    shared = build_context()
    shared.extend_rows(kmax)
    for graph in enumerate_graphs(g, tags):
        fresh = build_context()
        fresh.extend_rows(kmax)
        fresh._dressed_memo = _NoMemo()
        fresh._labelled_memo = _NoMemo()
        orbits = _class_representatives(graph) if tags == ("H1", "H2") else decoration_orbits(graph)
        for labels, aut in orbits:
            assert (labelled_contribution(shared, graph, labels, aut)
                    == labelled_contribution(fresh, graph, labels, aut)), (graph, labels)
        if not localization.weight_degree(tags):
            assert graph_contribution(shared, graph) == graph_contribution(fresh, graph), graph
    memos = (shared._dressed_memo, shared._labelled_memo)
    assert shared._labelled_memo
    assert bool(shared._dressed_memo) != bool(localization.weight_degree(tags))
    assert all(list(key[1]) == sorted(key[1]) for memo in memos for key in memo)


def test_dressed_vertex_memo_keeps_error_location(monkeypatch):
    real = localization.vertex_contribution

    def broken(ctx, h, i, a_values):
        if h == 1 and i == 0:
            raise ConsistencyError("injected vertex failure")
        return real(ctx, h, i, a_values)

    monkeypatch.setattr(localization, "vertex_contribution", broken)
    ctx = build_context()
    ctx.extend_rows(3)
    graphs = enumerate_graphs(2, ())
    # The genus-1 vertex with one edge end has the same memo key in both; it
    # fails at label 0, where the labelled route dresses every vertex.
    first = next(gr for gr in graphs if gr.genera == (1, 1))
    second = next(gr for gr in graphs if gr.genera == (0, 1))
    for graph, labels, flags in ((first, (2, 2), "e0.0=1"), (second, (0, 2), "e1.1=1")):
        with pytest.raises(ConsistencyError) as info:
            labelled_contribution(ctx, graph, labels, graph.aut_order)
        message = str(info.value)
        assert "injected vertex failure" in message
        assert graph.signature() in message
        assert f"labels {list(labels)}" in message
        assert f"flags {flags}" in message
        assert message == (f"injected vertex failure [graph {graph.signature()}, flags {flags}]"
                           f" at labels {list(labels)}")
    assert not any(key[0] == 1 for key in ctx._labelled_memo)
