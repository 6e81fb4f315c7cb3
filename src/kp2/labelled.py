"""The labelled reference route: graph values one fixed-point labelling at a time.

kp2.localization sums all 3^V labellings of a graph at once from label-0
vertices and rational edge modes.  This module is the independent route
it is checked against: labelled_contribution evaluates one labelling,
every edge through the direct two-point kernel at its labels
(edge_contribution), decoration_orbits lists the orbits of labellings
under a graph's automorphisms, and graph_json builds the fg --per-graph
entry of a graph, whose decoration values must sum exactly to its value.
Only fg --per-graph and the tests import it.  Its memos, the direct edge
values and the dressed vertices per label, are kept per context.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from weakref import WeakKeyDictionary

from .graphs import StableGraph, _ratio
from .localization import Context, _check_degrees, _dressed_vertex, _flag_walk, _located
from .lring import RingElem
from .scalars import ConsistencyError, CycScalar, euler_at, weight_pow

__all__ = ["edge_contribution", "labelled_contribution", "decoration_orbits", "graph_json"]

_EDGES: WeakKeyDictionary = WeakKeyDictionary()  # context -> {(i, j, b1, b2): edge}
_DRESSED: WeakKeyDictionary = WeakKeyDictionary()  # context -> per label, dressed vertices


def _p_coefficient(ctx: Context, i: int, j: int, a: int, b: int) -> RingElem:
    """Coefficient of x^a y^b in the two-point kernel between fixed points."""
    r = ctx.rows
    inner = (r[0][a] * r[0][b] + r[1][a] * r[2][b] * (weight_pow(i, 1) * weight_pow(j, 2))
             + r[2][a] * r[1][b] * (weight_pow(i, 2) * weight_pow(j, 1)))
    out = inner * (CycScalar(-3) * weight_pow(i, -a) * weight_pow(j, -b))
    if i == j and a == 0 and b == 0:
        out = out - RingElem.const(euler_at(i))
    return out


def edge_contribution(ctx: Context, i: int, j: int, b1: int, b2: int) -> RingElem:
    """The edge factor for flags (b1, b2) at fixed points (i, j), the direct
    worker: an alternating kernel sum along the anti-diagonal of degree
    b1 + b2 - 1; c-degree 0 and X-degree <= 1 are asserted."""
    if b1 < 1 or b2 < 1:
        raise ValueError("flag values are positive")
    if b1 + b2 - 1 > ctx.kmax:
        raise ValueError(f"edge needs rows up to {b1 + b2 - 1}, kmax={ctx.kmax}")
    memo, key = _EDGES.setdefault(ctx, {}), (i, j, b1, b2)
    total = memo.get(key)
    if total is None:
        terms = [_p_coefficient(ctx, i, j, b1 + s, b2 - 1 - s) for s in range(b2)]
        total = RingElem.sum([x if (b1 + b2 + s) % 2 == 0 else -x for s, x in enumerate(terms)])
        memo[key] = _check_degrees(total, f"({i},{j},{b1},{b2})")
    return total


def labelled_contribution(ctx: Context, graph: StableGraph, labels, aut) -> RingElem:
    """The flag sum at the fixed-point labels over aut, every edge through
    edge_contribution; it reads no memo entry of the label sums.  A
    ConsistencyError names the graph and flags, then the labels."""

    links = [((u, v), (e,)) for e, (u, v) in enumerate(graph.edges) if u != v]

    def link(b, flag):
        (u, v), (e,) = links[b]
        try:
            return edge_contribution(ctx, labels[u], labels[v], flag[e, 0], flag[e, 1])
        except ConsistencyError as exc:
            raise _located(exc, graph, [(f"e{e}.{s}", flag[e, s]) for s in (0, 1)]) from exc

    memos = _DRESSED.setdefault(ctx, ({}, {}, {}))
    try:
        dressed = [_dressed_vertex(ctx, memos[i], graph, w, i,
                                   partial(edge_contribution, ctx, i, i))
                   for w, i in enumerate(labels)]
        return _flag_walk(graph, dressed, links, link) / Fraction(aut)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{exc} at labels {list(labels)}") from exc


def _aut_images(labels, sigmas) -> list[tuple]:
    """The labelings that the vertex permutations sigmas carry labels to."""
    return [tuple(labels[sigma.index(w)] for w in range(len(labels))) for sigma in sigmas]


def decoration_orbits(graph: StableGraph) -> list[tuple[tuple, int]]:
    """Orbit representatives of fixed-point labelings under the graph's
    group G, each with aut_order times its stabilizer's share of G: summed
    over 1/aut_dec, they give all 3^V labelings over 1/aut_order.
    """
    reps: dict = {}
    for p in product(range(3), repeat=len(graph.genera)):
        images = _aut_images(p, graph.automorphisms)
        key = min(images)
        if key not in reps:
            reps[key] = _ratio(images.count(key) * graph.aut_order, len(images))
    return sorted(reps.items())


def graph_json(contribution, ctx: Context) -> dict:
    """A graph's value and its decoration values, each at its labels, whose
    exact sum must be the value."""
    graph = contribution.graph
    orbits = [(labels, aut, labelled_contribution(ctx, graph, labels, aut))
              for labels, aut in decoration_orbits(graph)]
    if RingElem.sum(value for *_, value in orbits) != contribution.value:
        raise ConsistencyError(f"graph {graph.signature()}: the value is not the sum of its "
                               "decoration values")
    return {
        "signature": graph.signature(),
        "aut_order": graph.aut_order,
        "value": contribution.value.to_json(),
        "decorations": [{"labels": list(labels), "aut_order": aut, "value": value.to_json()}
                        for labels, aut, value in orbits],
    }
