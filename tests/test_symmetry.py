"""Leg colours, relabeling symmetry and the contracted flag sum, checked
against direct routes.

The reduced assembly sums graphs whose same-tag legs share a colour,
weighted by N, sums every labelling of a graph at once from label-0
vertices and bundled links over the phases of its cycle space, skips
totals with delta != 0 mod 3, and contracts the flag sum vertex by vertex.
Each of these is compared here with the unreduced computation it replaces:
labelled_contribution, one decoration orbit at a time at its labels, whose
values are CycElem pairs a + b zeta.
"""

from fractions import Fraction
from functools import cache, partial
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import golden
from kp2 import labelled, localization
from kp2.graphs import _flag_factor
from kp2.labelled import CycElem, decoration_orbits, edge_contribution, labelled_contribution
from kp2.localization import (
    build_context,
    correlator,
    enumerate_graphs,
    graph_contribution,
    per_graph_contributions,
    weight_degree,
)
from kp2.lring import RingElem
from kp2.scalars import ConsistencyError, weight, weight_pow

# g <= 1 with up to three legs, and genus 2 unpointed
SMALL_CASES = [
    (0, ("H0", "H1", "H2")),
    (0, ("psiH", "H2", "H0")),
    (1, ("H0",)),
    (1, ("H1",)),
    (1, ("H2",)),
    (1, ("psiH",)),
    (1, ("H1", "H2")),
    (1, ("H2", "H2")),
    (1, ("H0", "H1", "H2")),
    (1, ("H2", "psiH", "H1")),
    (2, ()),
]


@cache
def graphs_of(g, tags):
    return enumerate_graphs(g, tags)


def orbit_values(ctx, g, tags):
    """labelled_contribution of every decoration orbit, one by one."""
    for graph in graphs_of(g, tags):
        for labels, aut in decoration_orbits(graph):
            yield graph, labels, aut, labelled_contribution(ctx, graph, labels, aut)


def values_by_graph(ctx, g, tags):
    """The orbit_values grouped by graph, in enumeration order."""
    out: dict = {}
    for graph, _, _, value in orbit_values(ctx, g, tags):
        out.setdefault(graph, []).append(value)
    return out


def cartesian_contribution(ctx, graph, p, aut):
    """The flag sum at the labels p, over aut, by filtering the Cartesian
    product of all flag ranges, each factor evaluated at its labels."""
    nv = len(graph.genera)
    slots = []  # (vertex, kind, payload)
    for e, (u, v) in enumerate(graph.edges):
        slots.append((u, "e", (e, 0)))
        slots.append((v, "e", (e, 1)))
    for m, v in enumerate(graph.legs):
        slots.append((v, "l", m))
    val = graph.valences()
    budgets = [3 * graph.genera[v] - 3 + val[v] for v in range(nv)]
    total = CycElem(RingElem.zero())
    for assignment in product(*[range(1, budgets[v] + 2) for v, _, _ in slots]):
        used = [0] * nv
        for (v, _, _), a in zip(slots, assignment):
            used[v] += a - 1
        if any(used[v] > budgets[v] for v in range(nv)):
            continue
        term = CycElem(RingElem.one())
        by_vertex = [[] for _ in range(nv)]
        edge_a = {}
        for (v, kind, payload), a in zip(slots, assignment):
            by_vertex[v].append(a)
            if kind == "e":
                edge_a[payload] = a
            else:
                term = term * golden.leg_at(ctx, p[v], graph.tags[payload], a)
        for v in range(nv):
            term = term * golden.vertex_at(ctx, graph.genera[v], p[v], by_vertex[v])
        for e, (u, v) in enumerate(graph.edges):
            term = term * edge_contribution(ctx, p[u], p[v], edge_a[(e, 0)], edge_a[(e, 1)])
        total = total + term
    return total * (1 / Fraction(aut))


@cache
def labelled_reference(g, tags):
    """The total over the labeled graphs of len(tags) markings with the tags
    put on, every decoration orbit evaluated on its own: no leg colours."""
    ctx = build_context()
    ctx.extend_rows(3 * g - 3 + len(tags))
    values = []
    for graph in enumerate_graphs(g, len(tags)):
        graph = graph._replace(tags=tags)
        values += [labelled_contribution(ctx, graph, labels, aut)
                   for labels, aut in decoration_orbits(graph)]
    return CycElem.sum(values)


COLOURED_CASES = {
    "0-H1x4": (0, ("H1",) * 4),
    "1-H1x3": (1, ("H1",) * 3),
    "1-H2H2psiH": (1, ("H2", "H2", "psiH")),
    "1-H1H1H2H2": (1, ("H1", "H1", "H2", "H2")),
    "1-H2psiHH2": (1, ("H2", "psiH", "H2")),
    "2-H1x2": (2, ("H1", "H1")),
}


@pytest.mark.parametrize("g, tags", COLOURED_CASES.values(), ids=COLOURED_CASES)
def test_coloured_sums_match_the_labelled_reference(ctx2, g, tags):
    # Each coloured graph stands for N labeled ones.  Its decoration orbits,
    # evaluated one by one, and correlator must both give the labeled total.
    # At delta != 0 (H1 H1 H2 H2) correlator returns zero unassembled, and
    # both sums are cancellations of nonzero values.
    reference = labelled_reference(g, tags)
    ctx2.extend_rows(3 * g - 3 + len(tags))
    values = [value for *_, value in orbit_values(ctx2, g, tags)]
    assert CycElem.sum(values) == reference
    assert correlator(ctx2, g, tags) == reference
    assert reference.is_zero() == bool(weight_degree(tags))
    assert any(not v.is_zero() for v in values)


def test_unweighted_coloured_sum_differs(ctx2, monkeypatch):
    # control: the coloured graphs with N forced to 1 miss labeled graphs
    real = localization.enumerate_graphs

    def unweighted(g, tags):
        return [gr._replace(aut_order=len(gr.automorphisms) * _flag_factor(gr.edges))
                for gr in real(g, tags)]

    monkeypatch.setattr(localization, "enumerate_graphs", unweighted)
    assert correlator(ctx2, 2, ("H1", "H1")) != labelled_reference(2, ("H1", "H1"))


def test_coloured_graph_counts():
    # same-tag legs are placed as multisets: fewer graphs than labeled legs
    for g, tags, labelled, coloured in ((1, ("H1",) * 3, 23, 11), (2, ("H1",) * 2, 75, 60),
                                        (2, ("H1",) * 3, 555, 191)):
        assert len(enumerate_graphs(g, len(tags))) == labelled
        assert len(enumerate_graphs(g, tags)) == coloured


@pytest.mark.parametrize(
    "g, tags",
    [(1, ("H0", "H1", "H2")), (2, ("H2", "psiH", "H1")), (1, ("psiH", "H2", "H1", "H0"))],
)
def test_distinct_tags_give_the_labelled_census(g, tags):
    # one colour per marking: graph for graph the labeled census, tags aside
    labelled = [gr._replace(tags=tags) for gr in enumerate_graphs(g, len(tags))]
    assert enumerate_graphs(g, tags) == labelled


def test_weight_degree_rule():
    assert weight_degree(("H0",)) == 2
    assert weight_degree(("H1", "H1")) == 0
    assert weight_degree(("H2",)) == 1
    assert weight_degree(("psiH", "H2", "H2")) == 0
    assert weight_degree(()) == 0
    assert weight_degree((0, 1, 2)) == 0  # integer tags count as H0, H1, H2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shift_and_swap_relations(ctx1, data):
    g, tags = data.draw(st.sampled_from(SMALL_CASES))
    graph = data.draw(st.sampled_from(graphs_of(g, tags)))
    labels = data.draw(st.tuples(*[st.integers(0, 2)] * len(graph.genera)))
    # relabeling keeps the decorated automorphism order, so one order serves
    # all; the values are pairs a + b zeta, and the swap conjugates them
    value = labelled_contribution(ctx1, graph, labels, 1)
    shifted = labelled_contribution(ctx1, graph, [(p + 1) % 3 for p in labels], 1)
    swapped = labelled_contribution(ctx1, graph, [-p % 3 for p in labels], 1)
    assert shifted == value * weight_pow(1, weight_degree(tags))
    assert swapped == value.conjugate()


def test_relations_are_not_vacuous(ctx1):
    # the single genus-1 vertex with one square: a value that the shift
    # really moves and the swap really conjugates
    graph = next(gr for gr in graphs_of(1, ("H2",)) if gr.genera == (1,))
    value = labelled_contribution(ctx1, graph, (1,), 1)
    assert not value.is_zero()
    assert value.conjugate() != value
    assert labelled_contribution(ctx1, graph, (2,), 1) == value * weight_pow(1, 1)


@pytest.mark.parametrize(
    "g, tags", [(1, ("H0",)), (1, ("H2",)), (1, ("H1", "H2")), (2, ("H2",))]
)
def test_nonzero_delta_totals_vanish_the_slow_way(ctx2, g, tags):
    assert weight_degree(tags) != 0
    ctx2.extend_rows(3 * g - 3 + len(tags))
    total = RingElem.zero()
    nonzero = 0
    for _, _, _, value in orbit_values(ctx2, g, tags):
        nonzero += not value.is_zero()
        total = total + value
    assert nonzero > 0  # the zero is a cancellation, not a sum of zeros
    assert total.is_zero()
    assert correlator(ctx2, g, tags).is_zero()


def assert_graphs_cancel(ctx, g, tags):
    # With delta != 0 the shift maps a graph's decorations onto themselves
    # and multiplies their values by zeta^delta, so each graph sums to zero:
    # a cancellation of nonzero decoration values, checked orbit by orbit.
    assert weight_degree(tags) != 0
    ctx.extend_rows(3 * g - 3 + len(tags))
    for graph, values in values_by_graph(ctx, g, tags).items():
        assert CycElem.sum(values).is_zero(), graph.signature()
        assert any(not v.is_zero() for v in values), graph.signature()


@pytest.mark.parametrize(
    "g, tags",
    [(2, ()), (2, ("H1", "H1")), (1, ("H0", "psiH", "H1")), (1, ("H1", "H2")),
     (1, ("H2", "H2", "H2")), (1, ("H0", "H2")), (0, ("H1",) * 4), (1, ("H1",)),
     (1, ("H2", "H2", "psiH")), (3, ())],
    ids=["2-0", "2-2", "1-3-mixed", "1-2-delta", "1-3-repeated", "1-2", "0-H1x4", "1-1",
         "1-H2H2psiH", "3-0"],
)
def test_graph_values_sum_their_decorations(g, tags):
    # A graph value, the sum over all labellings from label-0 vertices and
    # bundled links, must equal the plain sum of the per-decoration values,
    # each evaluated on its own at its labels, graph by graph and in
    # enumeration order.  At (1, H2 H2 H2) the legs share one colour, so the
    # decorated orders carry the weight N.  With delta != 0
    # per_graph_contributions refuses, no phases solve the vertex system, so
    # graph_contribution refuses each graph, and every graph value is zero.
    ctx = build_context()
    if weight_degree(tags):
        assert_graphs_cancel(ctx, g, tags)
        for graph in graphs_of(g, tags):
            with pytest.raises(ConsistencyError, match="weight degree") as info:
                graph_contribution(ctx, graph)
            assert graph.signature() in str(info.value)
        return
    contributions = per_graph_contributions(ctx, g, tags)
    by_graph = values_by_graph(ctx, g, tags)
    assert [item.graph for item in contributions] == list(by_graph)
    for item in contributions:
        assert item.value == CycElem.sum(by_graph[item.graph]), item.graph.signature()
        assert graph_contribution(ctx, item.graph) == item.value
    assert any(not v.is_zero() for values in by_graph.values() for v in values)
    assert any(not item.value.is_zero() for item in contributions)


PHASE_CASES = [(3, ()), (2, ("H1", "H1")), (1, ("H2", "H2", "psiH")), (2, ("H0",)),
               (1, ("H1", "H2")), (2, ("H2", "H2"))]


@pytest.mark.parametrize("g, tags", PHASE_CASES)
def test_phases_solve_the_vertex_system(g, tags):
    # golden.phases yields 3^(B - V + 1) distinct phi on the B bundles,
    # each solving sum_(into v) phi - sum_(out of v) phi = a_v mod 3, a_v =
    # ends + weight degree of the legs + links leaving v.  sum a_v = 0
    # exactly when delta = 0; otherwise there is no solution, and
    # graph_contribution refuses the graph, naming it.
    ctx = build_context()
    ranks = set()
    for graph in graphs_of(g, tags):
        nv = len(graph.genera)
        links = [(u, v) for u, v in graph.edges if u != v]
        pairs = sorted(set(links))
        a = [sum(w in link for link in links) + sum(u == w for u, _ in links)
             + weight_degree(t for t, x in zip(graph.tags, graph.legs) if x == w)
             for w in range(nv)]
        assert (sum(a) % 3 == 0) == (weight_degree(tags) == 0)
        if weight_degree(tags):
            assert golden.phases(graph, pairs) == []
            with pytest.raises(ConsistencyError, match="weight degree") as info:
                graph_contribution(ctx, graph)
            assert graph.signature() in str(info.value)
            continue
        phases = golden.phases(graph, pairs)
        rank = len(pairs) - nv + 1
        assert len(set(phases)) == len(phases) == 3 ** rank, graph.signature()
        ranks.add(rank)
        for phi in phases:
            for w in range(nv):
                into = sum(p for p, (_, v) in zip(phi, pairs) if v == w)
                out = sum(p for p, (u, _) in zip(phi, pairs) if u == w)
                assert (into - out - a[w]) % 3 == 0, (graph.signature(), phi, w)
    if not weight_degree(tags):
        assert max(ranks) >= 1  # some graph has a cycle of bundles


@pytest.mark.parametrize("g, tags", [(2, ())])
def test_reduced_matches_per_orbit(ctx2, g, tags):
    # The reduced graph sums on the shared context, whose rows other tests
    # have extended further, match the per-decoration sums on a fresh one:
    # the assembly reads no row beyond 3g - 3 + n.
    ctx2.extend_rows(3 * g - 3 + len(tags) + 2)
    reduced = per_graph_contributions(ctx2, g, tags)
    fresh = build_context()
    fresh.extend_rows(3 * g - 3 + len(tags))
    by_graph = values_by_graph(fresh, g, tags)
    assert [item.graph for item in reduced] == list(by_graph)
    for item in reduced:
        assert item.value == CycElem.sum(by_graph[item.graph]), item.graph.signature()


@pytest.mark.parametrize("g, tags", [(1, ("H2",))], ids=["1-1"])
def test_nonzero_delta_values_cancel_per_graph(ctx2, g, tags):
    assert_graphs_cancel(ctx2, g, tags)


@pytest.mark.parametrize("g, tags", [(2, ()), (3, ()), (2, ("H1", "H1"))],
                         ids=["2-0", "3-0", "2-2"])
def test_labelling_sum_walks_once_per_graph(g, tags, monkeypatch):
    # The sum over all 3^V labellings is one flag walk per graph, whose
    # state carries the phases of the open bundles, not one walk per
    # solution of the vertex system.  Parallel links share one bundle, and
    # a bundle of two or more links reaches the bundle memo.
    walks = []
    real = localization._flag_walk

    def counted(*args):
        walks.append(None)
        return real(*args)

    monkeypatch.setattr(localization, "_flag_walk", counted)
    ctx = build_context()
    ctx.extend_rows(3 * g - 3 + len(tags))
    bundled = cycles = 0
    for graph in graphs_of(g, tags):
        links = [(u, v) for u, v in graph.edges if u != v]
        del walks[:]
        graph_contribution(ctx, graph)
        assert len(walks) == 1, graph.signature()
        bundled += len(set(links)) < len(links)
        cycles += len(set(links)) > len(graph.genera) - 1
    assert bundled and (cycles or (g, tags) == (2, ()))  # (2,0) has no cycle of bundles
    assert any(len(pairs) > 1 for _, pairs in ctx._bundle_memo)


def test_nonzero_delta_refuses_graph_sums(ctx2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no enumeration expected")

    monkeypatch.setattr(localization, "enumerate_graphs", refuse)
    for g, tags in ((1, ("H2",)), (2, ("H0", "H1")), (1, ("H1", "H2"))):
        with pytest.raises(ValueError, match="weight degree"):
            per_graph_contributions(ctx2, g, tags)


def test_zero_shortcut_skips_assembly(ctx2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no assembly expected")

    monkeypatch.setattr(localization, "per_graph_contributions", refuse)
    assert correlator(ctx2, 2, ("H2", "H2")).is_zero()
    assert correlator(ctx2, 3, ("H0",)).is_zero()


def test_zero_shortcut_keeps_input_errors(ctx2):
    with pytest.raises(ValueError, match="unstable"):
        correlator(ctx2, 0, ("H2", "H2"))
    with pytest.raises(ValueError, match="non-negative"):
        correlator(ctx2, -1, ("H2",) * 4)
    with pytest.raises(ValueError, match="unknown"):
        correlator(ctx2, 1, ("H2", 3))


# (g, tags) -> decoration orbits and nonzero orbit values; the last two
# cases have legs whose factors carry zeta at labels 1 and 2
CARTESIAN_CASES = {(1, ("H1",)): (6, 6), (2, ()): (36, 36),
                   (1, ("H2", "psiH", "H1")): (375, 60), (1, ("H2", "H2", "psiH")): (258, 51)}


@pytest.mark.parametrize("g, tags", CARTESIAN_CASES)
def test_contracted_matches_cartesian(ctx2, g, tags):
    ctx2.extend_rows(3 * g - 3 + len(tags))
    count = nonzero = 0
    for graph, labels, aut, value in orbit_values(ctx2, g, tags):
        assert value == cartesian_contribution(ctx2, graph, labels, aut), (
            graph.signature(), labels)
        count += 1
        nonzero += not value.is_zero()
    assert (count, nonzero) == CARTESIAN_CASES[g, tags]


def _genus_one_graph(genera):
    return next(gr for gr in enumerate_graphs(1, ("H1",)) if gr.genera == genera)


def test_vertex_consistency_error_names_its_term():
    ctx = build_context()
    ctx.extend_rows(1)
    ctx.rows[0][1] = ctx.rows[0][1] + RingElem.X()  # the genus-1 vertex reads R_{0,1}
    graph = _genus_one_graph((1,))
    with pytest.raises(ConsistencyError) as info:
        labelled_contribution(ctx, graph, (2,), graph.aut_order)
    message = str(info.value)
    assert "X-dependence" in message
    assert graph.signature() in message
    assert "labels [2]" in message
    assert "flags l0=1" in message


def test_edge_consistency_error_names_its_term():
    ctx = build_context()
    ctx.extend_rows(1)
    ctx.rows[1][1] = ctx.rows[1][1] + RingElem.c(1)  # the loop kernel reads R_{1,1}
    graph = _genus_one_graph((0,))
    with pytest.raises(ConsistencyError) as info:
        labelled_contribution(ctx, graph, (1,), graph.aut_order)
    message = str(info.value)
    assert "c-degree" in message
    assert graph.signature() in message
    assert "flags e0.0=1 e0.1=1" in message
    assert f"[graph {graph.signature()}, flags e0.0=1 e0.1=1] at labels [1]" in message
    # a link on the labelled route fails in the direct worker too
    link = next(gr for gr in enumerate_graphs(0, ("H1",) * 4) if gr.edges == ((0, 1),))
    with pytest.raises(ConsistencyError) as info:
        labelled_contribution(ctx, link, (0, 1), link.aut_order)
    assert f"[graph {link.signature()}, flags e0.0=1 e0.1=1] at labels [0, 1]" in str(info.value)
    # on the correlator path the rational modes fail: for a loop in its
    # vertex, dressed at label 0, and for a link in its bundle factor; both
    # name the undecorated graph and the flags
    for g, tags, where in ((1, ("H1",), "h=[0] p=[] e=[0-0] legs=[0:H1]"),
                           (0, ("H1",) * 4, "h=[0,0] p=[] e=[0-1] legs=[0:H1;0:H1;1:H1;1:H1]")):
        with pytest.raises(ConsistencyError) as info:
            correlator(ctx, g, tags)
        message = str(info.value)
        assert "c-degree" in message
        assert f"[graph {where}, flags e0.0=1 e0.1=1]" in message


def test_twisted_edge_error_names_the_requested_labels():
    # each edge is computed at its own labels; the error names (1, 1)
    ctx = build_context()
    ctx.extend_rows(1)
    ctx.rows[1][1] = ctx.rows[1][1] + RingElem.c(1)
    with pytest.raises(ConsistencyError) as info:
        edge_contribution(ctx, 1, 1, 1, 1)
    assert "edge (1,1,1,1) has nonzero c-degree" in str(info.value)


def test_edge_twists_match_the_direct_worker(ctx1):
    # E(i, j, b1, b2) = zeta^(i (1 - b1 - b2)) E(0, j - i, b1, b2), which the
    # sum over all labellings rests on, for every pair of labels and every
    # flag pair the rows reach, each edge computed at its own labels; the
    # twist with the degree's sign flipped fails
    wrong = 0
    for b1, b2 in product(range(1, ctx1.kmax + 1), repeat=2):
        if b1 + b2 - 1 > ctx1.kmax:
            continue
        for i, j in product(range(3), repeat=2):
            direct = edge_contribution(ctx1, i, j, b1, b2)
            base = edge_contribution(ctx1, 0, (j - i) % 3, b1, b2)
            assert base * weight((i * (1 - b1 - b2)) % 3) == direct, (i, j, b1, b2)
            wrong += base * weight((i * (b1 + b2 - 1)) % 3) != direct
    assert wrong > 100


def test_edge_modes_match_the_direct_worker(ctx1):
    # E(i, j, b1, b2) = zeta^(i (1 - b1 - b2)) sum_k zeta^((j - i) k) Q_k(b1, b2)
    # with rational Q_k, which the graph sums rest on, for every pair of
    # labels and every flag pair the rows reach; with the sign of k flipped
    # it fails in most cases (never at j = i, nor where Q_1 = Q_2)
    wrong = cases = 0
    for b1, b2 in product(range(1, ctx1.kmax + 1), repeat=2):
        if b1 + b2 - 1 > ctx1.kmax:
            continue
        modes = localization._edge_modes(ctx1, b1, b2)
        for i, j in product(range(3), repeat=2):
            direct = edge_contribution(ctx1, i, j, b1, b2)

            def assembled(sign):
                return CycElem.sum([CycElem(q).twist(i * (1 - b1 - b2) + sign * (j - i) * k)
                                    for k, q in enumerate(modes)])

            assert assembled(1) == direct, (i, j, b1, b2)
            wrong += assembled(-1) != direct
            cases += 1
    assert cases == 9 * 28 and wrong > cases / 2


@pytest.mark.parametrize("g, tags", [(2, ("H1", "H1")), (2, ()), (1, ("H2", "H2", "psiH"))],
                         ids=["2-H1x2", "2-0", "1-H2H2psiH"])
def test_graph_sums_stay_rational_without_the_direct_worker(g, tags, monkeypatch):
    # The sum over all labellings reads edges only through their rational
    # modes: with the direct edge worker gone it still gives the labelled
    # reference, and no ring product in it, by RingElem.__mul__ or inside
    # RingElem.dot, meets a CycElem pair.  The labelled route still reaches
    # the worker.
    reference = labelled_reference(g, tags)

    def refuse(*args):
        raise AssertionError("direct edge worker called")

    monkeypatch.setattr(labelled, "edge_contribution", refuse)
    monkeypatch.setattr(labelled, "_p_coefficient", refuse)
    real, real_dot = RingElem.__mul__, RingElem.dot
    products = []

    def counted(self, other):
        products.append(isinstance(other, CycElem))
        return real(self, other)

    def counted_dot(pairs):  # a pair of nonzero elements, the second not one(), is a product
        pairs = list(pairs)
        products.extend(isinstance(x, CycElem) or isinstance(y, CycElem) for x, y in pairs
                        if x and y and y is not RingElem.one())
        return real_dot(pairs)

    monkeypatch.setattr(RingElem, "__mul__", counted)
    monkeypatch.setattr(RingElem, "__rmul__", counted)
    monkeypatch.setattr(RingElem, "dot", staticmethod(counted_dot))
    assert correlator(build_context(), g, tags) == reference
    assert len(products) > 100 and not any(products)
    ctx = build_context()
    ctx.extend_rows(3 * g - 3 + len(tags))
    graph = next(gr for gr in graphs_of(g, tags) if gr.edges)
    with pytest.raises(AssertionError, match="direct edge worker"):
        labelled_contribution(ctx, graph, [0] * len(graph.genera), graph.aut_order)


# Graphs whose vertices carry every leg tag and loop pattern at genus <= 2,
# including every dressed vertex of pointed-g2 (<H1,H1>_2) and anomaly-g1
# (genus 1 with H2 and psiH legs)
TWIST_CASES = [(2, ("H1", "H1")), (2, ()), (1, ("H2", "H2", "H2")), (1, ("H2", "H2", "psiH")),
               (1, ("H0", "psiH", "H1")), (0, ("H0", "H1", "H2", "psiH"))]


def _direct_loop(ctx):
    """The loop factor of the labelled route: the direct edge worker at (0, 0)."""
    return lambda b1, b2: edge_contribution(ctx, 0, 0, b1, b2).a


def _mode_loop(ctx):
    """The loop factor of the label sums: a label-0 loop, Q_0 + Q_1 + Q_2."""
    return lambda b1, b2: RingElem.sum(localization._edge_modes(ctx, b1, b2))


def test_dressed_twists_match_the_direct_worker():
    # kp2.labelled builds each dressed vertex once, at label 0 with loops
    # through the direct worker at (0, 0), and takes its entry at link flags
    # k and label p as zeta^(p d) times it, d = sum(k) + len(k) + the weight
    # degree of its legs.  The reference at each label p is golden's
    # per-composition dressing with vertex, legs and loops evaluated at p,
    # at the flag budget the memos use and one above it; the twist with d's
    # sign flipped fails.  Each entry of the two label-0 memos, the label
    # sums' (loops through their modes) and the labelled route's, equals
    # _dressed_at with loops through the direct worker.
    ctx = build_context()
    ctx.extend_rows(7)
    memo = labelled._DRESSED.setdefault(ctx, {})
    seen = set()
    wrong = nonzero = 0
    for g, tags in TWIST_CASES:
        for graph in enumerate_graphs(g, tags):
            val = graph.valences()
            for v, extra in product(range(len(graph.genera)), (0, 1)):
                ends = localization._ends(graph, v)
                legs = sorted(t for t, w in zip(graph.tags, graph.legs) if w == v)
                loops = sum(a == b == v for a, b in graph.edges)
                budget = 3 * graph.genera[v] - 3 + val[v] + extra
                key = (graph.genera[v], tuple(legs), loops, len(ends), budget)
                if key in seen:
                    continue
                seen.add(key)
                base = localization._dressed_at(ctx, graph, v, budget, _direct_loop(ctx))
                nonzero += any(base.values())
                if not extra:
                    assert localization._dressed_vertex(ctx, ctx._dressed_memo, graph, v,
                                                        _mode_loop(ctx)) == base
                    assert localization._dressed_vertex(ctx, memo, graph, v,
                                                        _direct_loop(ctx)) == base
                for p in range(3):
                    ref = golden.dressed_per_composition(ctx, graph, v, p, budget,
                                                         partial(edge_contribution, ctx, p, p))
                    assert {k for k, x in ref.items() if x} == set(base)
                    for k, x in base.items():
                        d = sum(k) + len(k) + weight_degree(legs)
                        assert ref[k] == CycElem(x).twist(p * d), (graph.signature(), v, p, k)
                        wrong += ref[k] != CycElem(x).twist(-p * d)
    # 57 memo keys, each in both label-0 memos; each key's relation at two budgets
    assert (len(ctx._dressed_memo), len(memo), len(seen), nonzero) == (57, 57, 114, 106)
    assert wrong > 250


def test_flag_budget_slack_changes_no_dressed_vertex():
    # A flag composition past a vertex's dimension bound only adds terms
    # that vanish, so the bound the graph sums use loses nothing.  Checked
    # on every vertex of every graph at (2, ()), (1, H1) and TWIST_CASES,
    # with loops through the modes and through the direct worker in turn.
    ctx = build_context()
    ctx.extend_rows(7)
    checked = nonzero = 0
    for g, tags in [(2, ()), (1, ("H1",))] + TWIST_CASES:
        for graph in enumerate_graphs(g, tags):
            val = graph.valences()
            for v in range(len(graph.genera)):
                budget = 3 * graph.genera[v] - 3 + val[v]
                loop = (_mode_loop(ctx), _direct_loop(ctx))[v % 2]
                base = localization._dressed_at(ctx, graph, v, budget, loop)
                for extra in (1, 2):
                    wide = localization._dressed_at(ctx, graph, v, budget + extra, loop)
                    assert wide == base, (graph.signature(), v, extra)
                checked += 1
                nonzero += any(base.values())
    assert (checked, nonzero) == (322, 294)


def test_dressed_multisets_match_the_per_composition_sum():
    # _dressed_at sums the leg and loop flags by multiset and shares one
    # value among link keys with equal sorted flags.  The reference is the
    # per-composition dressing of golden at label 0, one product per
    # ordered flag composition, with loops through their modes and through
    # the direct worker, on every vertex of every graph through genus 3
    # unpointed and of two pointed genus-2 sums.  _dressed_at leaves out a
    # key whose terms cancel, so the reference's zero values are dropped
    # (each case has some).
    ctx = build_context()
    ctx.extend_rows(6)
    checked = nonzero = cancelled = 0
    for g, tags in [(2, ()), (3, ()), (2, ("H1", "H1")), (2, ("psiH", "H0", "H2"))]:
        for graph in enumerate_graphs(g, tags):
            val = graph.valences()
            for v in range(len(graph.genera)):
                budget = 3 * graph.genera[v] - 3 + val[v]
                for loop in (_mode_loop(ctx), _direct_loop(ctx)):
                    ref = golden.dressed_per_composition(ctx, graph, v, 0, budget, loop)
                    kept = {k: x for k, x in ref.items() if x}
                    assert localization._dressed_at(ctx, graph, v, budget, loop) == kept, (
                        graph.signature(), v, loop)
                    checked += 1
                    nonzero += bool(kept)
                    cancelled += len(ref) - len(kept)
    assert (checked, nonzero, cancelled) == (4716, 4030, 146)


# graphs with a bundle of at least two parallel links, per case
BUNDLED = {(2, ()): 1, (3, ()): 21, (2, ("H1", "H1")): 25, (1, ("H2", "H2", "psiH")): 4}


@pytest.mark.parametrize("g, tags", BUNDLED, ids=["2-0", "3-0", "2-H1x2", "1-H2H2psiH"])
def test_bundle_orbits_match_the_unmerged_walk(g, tags):
    # graph_contribution eliminates the vertices in order, a bundle's flags
    # sorted into the state where it opens; golden's prefix walk over every
    # key of every vertex is the reference, graph by graph.
    ctx = build_context()
    ctx.extend_rows(3 * g - 3 + len(tags))
    bundled = 0
    for graph in enumerate_graphs(g, tags):
        assert graph_contribution(ctx, graph) == golden.unmerged_graph_contribution(ctx, graph), (
            graph.signature())
        bundled += any(graph.edges.count(e) > 1 for e in graph.edges if e[0] != e[1])
    assert bundled == BUNDLED[g, tags]
