"""The labelled reference route: graph values one fixed-point labelling at a time.

fg --per-graph and the tests check kp2.localization with it:
labelled_contribution takes each link through the direct kernel at its
labels (edge_contribution), decoration_orbits lists labelling orbits, and
graph_json builds a graph's fg --per-graph entry.

Values are CycElems a + b zeta (the only JSON with a zeta part),
RingElems in the walk while rational.  By kp2.localization's twist,
dressed vertices are built at label 0, a link at labels (p, q) and flags
(b1, b2) is zeta^(p (b1 - 1) + q b2) times its edge, rational at p = q,
and the value zeta^(sum_v p_v a_v) times the flag sum, a_v from _degrees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product
from operator import mul
from weakref import WeakKeyDictionary

from . import ConsistencyError
from .graphs import StableGraph, _ratio
from .localization import Context, _check_degrees, _degrees, _dressed_vertex, _flag_walk, _located
from .lring import RingElem
from .scalars import CycScalar, rat_str, to_cyc

__all__ = ["CycElem", "edge_contribution", "labelled_contribution", "decoration_orbits",
           "graph_json"]

_DRESSED = WeakKeyDictionary()  # context -> label-0 dressed vertices
_TWISTED = WeakKeyDictionary()  # context -> twisted edges
_ONE, _ZERO = RingElem.one(), RingElem.zero()


class CycElem:
    """a + b zeta, a and b canonical RingElems, zeta^2 = -1 - zeta."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=_ZERO):
        self.a, self.b = a, b

    @staticmethod
    def sum(items) -> "CycElem":
        items = list(items)
        return CycElem(RingElem.sum([x.a for x in items]), RingElem.sum([x.b for x in items]))

    @staticmethod
    def dot(pairs):
        """sum(x * y for x, y in pairs), a RingElem if no factor is a CycElem,
        else a0 b0 - q + (a0 b1 + a1 b0 - q) zeta, q = a1 b1."""
        pairs = list(pairs)
        if not any(isinstance(x, CycElem) for p in pairs for x in p):
            return RingElem.dot(pairs)
        a, b = [], []
        for x, y in pairs:
            (x0, x1), (y0, y1) = _parts(x), _parts(y)
            q = x1 and y1 and -x1 * y1
            a += [(x0, y0), (q, _ONE)]
            b += [(x0, y1), (x1, y0), (q, _ONE)]
        return CycElem(RingElem.dot(a), RingElem.dot(b))

    def to_json(self) -> list[dict]:  # RingElem.to_json with zeta parts
        a, b = self.a.terms, self.b.terms
        return [{"L": k[0], "X": k[1], "c": k[2],
                 "coeff": {"a": rat_str(a.get(k, 0)), "b": rat_str(b.get(k, 0))}}
                for k in sorted(a.keys() | b.keys())]

    __bool__ = lambda self: bool(self.a or self.b)
    is_zero = lambda self: not self

    def __eq__(self, other):
        other = _parts(other)
        return NotImplemented if other is None else (self.a, self.b) == other

    def conjugate(self) -> "CycElem":
        return CycElem(self.a - self.b, -self.b)

    def twist(self, k: int) -> "CycElem":
        """zeta^k times this value: zeta (a + b zeta) = -b + (a - b) zeta."""
        a, b = self.a, self.b
        for _ in range(k % 3):
            a, b = -b, a - b
        return CycElem(a, b)

    def __add__(self, other):
        other = _parts(other)
        return NotImplemented if other is None else CycElem(self.a + other[0], self.b + other[1])

    __radd__ = __add__
    __neg__ = lambda self: CycElem(-self.a, -self.b)
    __sub__ = lambda self, other: self + -other

    def __mul__(self, other):
        if isinstance(other, (RingElem, int, Fraction)):
            return CycElem(self.a * other, self.b and self.b * other)
        return NotImplemented if _parts(other) is None else CycElem.dot([(self, other)])

    __rmul__ = __mul__


def _parts(x):
    """(a, b) for x = a + b zeta, a CycElem, RingElem or scalar, else None."""
    if isinstance(x, (CycElem, RingElem)):
        return (x.a, x.b) if isinstance(x, CycElem) else (x, _ZERO)
    if isinstance(x, (int, Fraction, CycScalar)):
        x = to_cyc(x)
        return RingElem.const(x.a), RingElem.const(x.b)


def _p_coefficient(ctx: Context, i: int, j: int, a: int, b: int) -> CycElem:
    """Coefficient of x^a y^b in the two-point kernel between fixed points."""
    r = ctx.rows
    inner = (CycElem(r[0][a] * r[0][b]) + CycElem(r[1][a] * r[2][b]).twist(i + 2 * j)
             + CycElem(r[2][a] * r[1][b]).twist(2 * i + j))
    out = inner.twist(-i * a - j * b) * -3
    return out + 9 if i == j and a == b == 0 else out  # less e_i = -9


def edge_contribution(ctx: Context, i: int, j: int, b1: int, b2: int) -> CycElem:
    """The edge factor for flags (b1, b2) at fixed points (i, j), the direct
    worker: an alternating kernel sum along the anti-diagonal of degree
    b1 + b2 - 1; c-degree 0 and X-degree <= 1 are asserted."""
    if b1 < 1 or b2 < 1:
        raise ValueError("flag values are positive")
    if b1 + b2 - 1 > ctx.kmax:
        raise ValueError(f"edge needs rows up to {b1 + b2 - 1}, kmax={ctx.kmax}")
    terms = [_p_coefficient(ctx, i, j, b1 + s, b2 - 1 - s) for s in range(b2)]
    total = CycElem.sum([x if (b1 + b2 + s) % 2 == 0 else -x for s, x in enumerate(terms)])
    for part in (total.a, total.b):
        _check_degrees(part, f"({i},{j},{b1},{b2})")
    return total


def labelled_contribution(ctx: Context, graph: StableGraph, labels, aut) -> CycElem:
    """The flag sum at the labels over aut, every edge through
    edge_contribution and no memo entry of the label sums; a
    ConsistencyError names the graph and flags, then the labels."""

    links = [((u, v), (e,)) for e, (u, v) in enumerate(graph.edges) if u != v]
    memo, twisted = _DRESSED.setdefault(ctx, {}), _TWISTED.setdefault(ctx, {})

    def factor(*key):  # the edge (i, j, b1, b2), twisted
        if key not in twisted:
            i, j, b1, b2 = key
            value = edge_contribution(ctx, *key).twist(i * (b1 - 1) + j * b2)
            twisted[key] = value.a if i == j else value  # rational at equal labels
        return twisted[key]

    def link(bundle, flag, _):
        (u, v), (e,) = bundle
        try:
            return factor(labels[u], labels[v], flag[e, 0], flag[e, 1])
        except ConsistencyError as exc:
            raise _located(exc, graph, [(f"e{e}.{s}", flag[e, s]) for s in (0, 1)]) from exc

    try:
        dressed = [_dressed_vertex(ctx, memo, graph, w, partial(factor, 0, 0))
                   for w in range(len(labels))]
        value = CycElem(*_parts(_flag_walk(graph, dressed, links, link, CycElem.dot)))
        return value.twist(sum(map(mul, labels, _degrees(graph)))) * Fraction(1, aut)
    except ConsistencyError as exc:
        raise ConsistencyError(f"{exc} at labels {list(labels)}") from exc


def _aut_images(labels, sigmas) -> list[tuple]:
    """The labelings that the vertex permutations sigmas carry labels to."""
    return [tuple(labels[sigma.index(w)] for w in range(len(labels))) for sigma in sigmas]


def decoration_orbits(graph: StableGraph) -> list[tuple[tuple, int]]:
    """Orbit representatives of fixed-point labelings under the graph's
    group G, each with aut_order times its stabilizer's share of G: summed
    over 1/aut_dec, they give all 3^V labelings over 1/aut_order."""
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
    if CycElem.sum(value for *_, value in orbits) != contribution.value:
        raise ConsistencyError(f"graph {graph.signature()}: the value is not the sum of its "
                               "decoration values")
    return {
        "signature": graph.signature(),
        "aut_order": graph.aut_order,
        "value": contribution.value.to_json(),
        "decorations": [{"labels": list(labels), "aut_order": aut, "value": value.to_json()}
                        for labels, aut, value in orbits],
    }
