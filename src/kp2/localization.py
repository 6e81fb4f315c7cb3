"""The localization contribution assembly over stable graphs.

A fixed locus is a stable graph: vertices carry a genus and a fixed-point
label, edges two positive flag values, legs an insertion tag and a flag
value.  The total is the sum over decorated graphs of (1 / |Aut|) times
the sum over flag assignments of the product of vertex, edge and leg
factors in the differential ring.  Undecorated graphs come from
kp2.graphs, and each decoration orbit is summed once, weighted by its
decorated automorphism order.

Weight degree.  A factor is a Q-rational expression in the weights w_p
over the ring over Q (the rows are rational; weights enter through
weight_pow, euler_at and the vertex class) of degree, mod 3:

- leg H_k with flag value a: k + 1 - a (psiH: 3 - a);
- vertex with n flags of values a_f: sum(a_f - 1) - n (a lambda-monomial
  of degree d has a coefficient of degree 3h - 3 - d, each extra
  insertion j adds 1 - j, and they fill the vertex dimension);
- edge (b1, b2): 1 - b1 - b2 (euler_at and w_i^2 w_j have degree 3).

With w_p = zeta^p the shift p -> p + s multiplies a factor of degree d by
zeta^(s d), and the swap p -> -p conjugates it.  So an edge at (i, j) is
the one at (0, j - i) twisted, and a dressed vertex (below) is computed at
the first label asked for and twisted to the others; each leg H_k adds
k - 1 (psiH: 1) to the degree of its other flags, each loop 0.

Flag values cancel, so every term of a graph sum has degree
delta = sum_j (k_j - 1) mod 3 over the insertions.  The total is
shift-invariant, so it vanishes unless delta = 0: correlator returns zero
without assembly, and per_graph_contributions refuses such tags.  With
delta = 0 a shift keeps a value and a swap conjugates it, so one
decoration orbit is evaluated per class under G and the six relabelings
p -> +-p + s, which keep the decorated automorphism order (_contribution).

Contracted flag sum.  graph_contribution first sums, per vertex, the
vertex factor times its leg and loop factors over its flag compositions,
keyed by its flags on the other edges, then walks the vertices
depth-first, sharing prefix products, and multiplies an edge factor in
once both ends are assigned.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import factorial, prod
from operator import mul

from .graphs import (StableGraph, _aut_images, _check_request, decoration_orbits,
                     enumerate_graphs, normalize_tag)
from .lring import RingElem
from .mgn import expand_vertex_class, hodge_psi_integral
from .rseries import extract_R_rows
from .scalars import ConsistencyError, CycScalar, euler_at, weight, weight_pow

__all__ = [
    "StableGraph", "Contribution", "Context", "build_context",
    "enumerate_graphs", "decoration_orbits", "vertex_contribution",
    "edge_contribution", "leg_contribution", "graph_contribution",
    "per_graph_contributions", "correlator", "checked_total", "normalize_tag",
    "weight_degree",
]

class Contribution(namedtuple("Contribution", ("graph", "value"))):
    """The assembled value of one undecorated graph, for delta = 0."""

    __slots__ = ()


class Context:
    """The asymptotic rows R_{m,k}, k <= kmax, and memo tables of the
    factors that read them: vertex_contribution by (h, i, sorted flag
    values), edge_contribution by (i, j, b1, b2), leg_contribution by
    (i, tag, a) and _dressed_vertex by (h, i, sorted leg tags, loops,
    ends).  Flag budgets are fixed by the graph, so no memo key carries
    one.  Rows only grow, so no memoized value goes stale; the vertex
    classes read no row and are cached in kp2.mgn.
    """

    def __init__(self):
        self.kmax = 0
        self.rows = extract_R_rows(0)
        self._vertex_memo: dict = {}
        self._edge_memo: dict = {}
        self._leg_memo: dict = {}
        self._dressed_memo: dict = {}

    def extend_rows(self, kmax: int) -> None:
        """Make the rows reach R_{m,kmax}; rows already present do not change."""
        if kmax > self.kmax:
            self.rows = extract_R_rows(kmax)
            self.kmax = kmax


def build_context() -> Context:
    """An empty context; each correlator extends its rows to the depth it needs."""
    return Context()


def _partitions(total: int, cap: int):
    """Nonincreasing partitions of total into parts in 1..cap (empty for total 0)."""
    if total == 0:
        yield ()
    for part in range(min(total, cap), 0, -1):
        for tail in _partitions(total - part, part):
            yield (part,) + tail


def vertex_contribution(ctx: Context, h: int, i: int, a_values) -> RingElem:
    """The localized vertex series coefficient for flag values a_values: a
    sum over extra insertions j >= 2 filling the vertex dimension, each
    weighted by t_j = (-1)^j R_{0,j-1} w_i^{1-j}, and over the
    lambda-monomials of the vertex class.
    """
    a_values = tuple(sorted(a_values))
    key = (h, i, a_values)
    hit = ctx._vertex_memo.get(key)
    if hit is not None:
        return hit
    n = len(a_values)
    exps = tuple(a - 1 for a in a_values)
    budget = 3 * h - 3 + n - sum(exps)
    terms = []
    rows0 = ctx.rows[0]
    for lam, coeff in expand_vertex_class(i, h).items():
        rem = budget - sum(lam)
        if rem < 0:
            continue
        for parts in _partitions(rem, rem):
            # parts are the j-1 values; each j >= 2
            integral = hodge_psi_integral(h, exps + tuple(p + 1 for p in parts), lam)
            if integral == 0:
                continue
            if parts and parts[0] > ctx.kmax:
                raise ValueError(f"row index {parts[0]} beyond kmax={ctx.kmax}")
            mult = prod(factorial(parts.count(p)) for p in set(parts))
            scale = coeff * integral * (-1) ** sum(p % 2 == 0 for p in parts) / mult
            terms.append(reduce(mul, (rows0[p] for p in parts),
                                RingElem.const(scale * weight_pow(i, -rem))))
    total = RingElem.sum(terms)
    if total.x_degree() > 0:
        raise ConsistencyError("vertex contribution acquired an X-dependence")
    if not total.c_degrees() <= {0}:
        raise ConsistencyError("vertex contribution acquired a c-dependence")
    ctx._vertex_memo[key] = total
    return total


def _p_coefficient(ctx: Context, i: int, j: int, a: int, b: int) -> RingElem:
    """Coefficient of x^a y^b in the two-point kernel between fixed points."""
    rows = ctx.rows
    wi2wj = weight_pow(i, 2) * weight_pow(j, 1)
    wiwj2 = weight_pow(i, 1) * weight_pow(j, 2)
    inner = (
        rows[0][a] * rows[0][b]
        + rows[1][a] * rows[2][b] * RingElem.const(wiwj2)
        + rows[2][a] * rows[1][b] * RingElem.const(wi2wj)
    )
    out = inner * RingElem.const(CycScalar(-3) * weight_pow(i, -a) * weight_pow(j, -b))
    if i == j and a == 0 and b == 0:
        out = out - RingElem.const(euler_at(i))
    return out


def _twist(x: RingElem, d: int) -> RingElem:
    """x times zeta^d."""
    return x * weight(d % 3) if d % 3 else x


def _edge_at(ctx: Context, i: int, j: int, b1: int, b2: int) -> RingElem:
    """The edge factor computed at (i, j): an alternating sum of kernel
    coefficients along the anti-diagonal of total degree b1 + b2 - 1."""
    terms = []
    for s in range(b2):
        term = _p_coefficient(ctx, i, j, b1 + s, b2 - 1 - s)
        terms.append(term if (b1 + b2 + s) % 2 == 0 else -term)
    return RingElem.sum(terms)


def edge_contribution(ctx: Context, i: int, j: int, b1: int, b2: int) -> RingElem:
    """The edge factor for flag values (b1, b2) at fixed points (i, j), the
    one at (0, j - i) twisted; c-degree 0 and X-degree <= 1 are asserted."""
    if b1 < 1 or b2 < 1:
        raise ValueError("flag values are positive")
    if b1 + b2 - 1 > ctx.kmax:
        raise ValueError(f"edge needs rows up to {b1 + b2 - 1}, kmax={ctx.kmax}")
    key, base = (i, j, b1, b2), (0, (j - i) % 3, b1, b2)
    memo = ctx._edge_memo
    total = memo.get(key)
    if total is None:
        at0 = memo.get(base)
        if at0 is None:
            at0 = _edge_at(ctx, *base)
        total = _twist(at0, i * (1 - b1 - b2))
        if not total.c_degrees() <= {0}:
            raise ConsistencyError(f"edge ({i},{j},{b1},{b2}) has nonzero c-degree")
        if total.x_degree() > 1:
            raise ConsistencyError(f"edge ({i},{j},{b1},{b2}) has X-degree > 1")
        memo[base], memo[key] = at0, total
    return total


_PREFAC = {"H0": (0, 0), "H1": (1, 1), "H2": (2, -1), "psiH": (1, 1)}  # w_i power, L and c power


def leg_contribution(ctx: Context, i: int, tag: str, a: int) -> RingElem:
    """Leg factor: the z^{a-1} coefficient of the normalized row (z^{a-2} for
    the descendent insertion, which therefore vanishes at a = 1)."""
    tag = normalize_tag(tag)
    if a < 1:
        raise ValueError("flag values are positive")
    key = (i, tag, a)
    hit = ctx._leg_memo.get(key)
    if hit is not None:
        return hit
    shift, row = (a - 2, 1) if tag == "psiH" else (a - 1, int(tag[1]))
    if shift < 0:
        out = RingElem.zero()
    else:
        if shift > ctx.kmax:
            raise ValueError(f"leg needs row order {shift}, kmax={ctx.kmax}")
        k, l = _PREFAC[tag]
        out = ctx.rows[row][shift] * RingElem.monomial(
            CycScalar(-1 if (a - 1) % 2 else 1) * weight_pow(i, k - shift), l=l, e=l)
    ctx._leg_memo[key] = out
    return out


def _compositions(n: int, budget: int):
    """Tuples of n flag values >= 1 whose excesses a - 1 sum to at most budget."""
    if n == 0:
        yield ()
        return
    for a in range(1, budget + 2):
        for rest in _compositions(n - 1, budget - a + 1):
            yield (a,) + rest


def _located(exc: ConsistencyError, graph: StableGraph, flags=()) -> ConsistencyError:
    """exc restated with the decorated graph and the flag values of its term, if any."""
    named = " ".join(f"{name}={a}" for name, a in flags)
    where = f"graph {graph.signature()}, labels {list(graph.decorations)}"
    return ConsistencyError(f"{exc} [{where}{', flags ' + named if named else ''}]")


def _edge_term(ctx: Context, graph: StableGraph, e: int, b1: int, b2: int) -> RingElem:
    u, v = graph.edges[e]
    try:
        return edge_contribution(ctx, graph.decorations[u], graph.decorations[v], b1, b2)
    except ConsistencyError as exc:
        raise _located(exc, graph, ((f"e{e}.0", b1), (f"e{e}.1", b2))) from exc


def _dressed_at(ctx: Context, graph: StableGraph, v: int, budget: int, ends) -> dict:
    """Vertex v's factor at its label with its leg and loop flags summed
    out, keyed by its flags on the other edges in the order of ends (pairs
    (edge, side)), over the compositions within budget."""
    h, i = graph.genera[v], graph.decorations[v]
    legs = [m for m, w in enumerate(graph.legs) if w == v]
    loops = [e for e, (a, b) in enumerate(graph.edges) if a == b == v]
    names = ([f"e{e}.{s}" for e, s in ends] + [f"l{m}" for m in legs]
             + [f"e{e}.{s}" for e in loops for s in (0, 1)])
    nk, nl = len(ends), len(legs)
    dressings: dict = {}  # leg and loop values -> their product (None for 1)
    out: dict = {}  # values on the other edges -> terms, summed once at the end
    for values in _compositions(len(names), budget):
        rest = values[nk:]
        if rest in dressings:
            dress = dressings[rest]
        else:
            factors = [leg_contribution(ctx, i, graph.tags[m], a) for m, a in zip(legs, rest)]
            factors += [_edge_term(ctx, graph, e, rest[nl + 2 * t], rest[nl + 2 * t + 1])
                        for t, e in enumerate(loops)]
            dress = reduce(mul, factors) if factors else None
            dressings[rest] = dress
        if dress is not None and dress.is_zero():
            continue
        try:
            term = vertex_contribution(ctx, h, i, values)
        except ConsistencyError as exc:
            raise _located(exc, graph, zip(names, values)) from exc
        if term.is_zero():
            continue
        if dress is not None:
            term = term * dress
        out.setdefault(values[:nk], []).append(term)
    return {k: RingElem.sum(terms) for k, terms in out.items()}


def _dressed_vertex(ctx: Context, graph: StableGraph, v: int, ends) -> dict:
    """_dressed_at within v's dimension bound 3h - 3 + legs + 2 loops + ends,
    memoized on v's genus, label, sorted leg tags, loop count and number of
    ends, which fix that bound; callers must not modify it.  Only the first
    label asked for is computed; the others twist it."""
    h, i = graph.genera[v], graph.decorations[v]
    tags = tuple(sorted(t for t, w in zip(graph.tags, graph.legs) if w == v))
    loops = sum(a == b == v for a, b in graph.edges)
    key = (h, i, tags, loops, len(ends))
    memo = ctx._dressed_memo
    dressed = memo.get(key)
    if dressed is None:
        for s in (1, 2):
            other = memo.get((h, (i + s) % 3) + key[2:])
            if other is not None:
                d = len(ends) + weight_degree(tags)
                dressed = {k: _twist(x, -s * (sum(k) + d)) for k, x in other.items()}
                break
        else:
            budget = 3 * h - 3 + len(tags) + 2 * loops + len(ends)
            dressed = _dressed_at(ctx, graph, v, budget, ends)
        memo[key] = dressed
    return dressed


def graph_contribution(ctx: Context, graph: StableGraph) -> RingElem:
    """Sum over flag assignments of the vertex/edge/leg product, over aut_order.

    Each vertex's flags range over the compositions within its dimension
    bound (_dressed_vertex); wider bounds add only vanishing terms.  A
    ConsistencyError from a factor names the graph, labels and flags.
    """
    if graph.decorations is None:
        raise ValueError("graph_contribution needs a decorated graph")
    nv = len(graph.genera)
    links = [(e, u, v) for e, (u, v) in enumerate(graph.edges) if u != v]
    ends = [[(e, 0 if u == w else 1) for e, u, v in links if w in (u, v)] for w in range(nv)]
    closing = [[e for e, _, v in links if v == w] for w in range(nv)]
    dressed = [_dressed_vertex(ctx, graph, w, ends[w]) for w in range(nv)]
    flag: dict = {}  # (edge, side) -> value, on the vertices assigned so far

    def closed(w: int, key, factor: RingElem) -> RingElem:
        for end, a in zip(ends[w], key):
            flag[end] = a
        for e in closing[w]:
            factor = factor * _edge_term(ctx, graph, e, flag[(e, 0)], flag[(e, 1)])
        return factor

    def walk(w: int, prefix: RingElem | None) -> RingElem:
        # prefix: the product over vertices before w (None at vertex 0).  The
        # last vertex closes the remaining edges; its terms are summed first.
        if w == nv - 1:
            inner = RingElem.sum([closed(w, key, factor) for key, factor in dressed[w].items()])
            return inner if prefix is None else prefix * inner
        terms = []
        for key, factor in dressed[w].items():
            term = closed(w, key, factor)
            terms.append(walk(w + 1, term if prefix is None else prefix * term))
        return RingElem.sum(terms)

    return walk(0, None) / Fraction(graph.aut_order)


_TAG_DEGREE = {"H0": -1, "H1": 0, "H2": 1, "psiH": 1}


def weight_degree(tags) -> int:
    """delta = sum of (k_j - 1) mod 3, the weight degree of every term of the sum."""
    return sum(_TAG_DEGREE[normalize_tag(t)] for t in tags) % 3


# The six relabelings p -> eps * p + s of the fixed points, as (s, eps).
_RELABELINGS = tuple((s, eps) for eps in (1, -1) for s in range(3))


def _contribution(ctx: Context, graph: StableGraph) -> Contribution:
    """The graph's value for delta = 0, one graph_contribution per class.

    A class with value v sums to a * v + b * conj(v), a and b counting the
    orbits that p -> eps * p + s reaches with eps = 1 and -1.  Either a = b,
    or b = 0: a swap fixes the class, and v = conj(v) is checked.
    """
    found: set = set()  # the orbits of the classes evaluated so far
    addends = []
    for labels, aut in decoration_orbits(graph):
        if labels in found:
            continue
        weights = [0, 0]  # a and b
        for s, eps in _RELABELINGS:
            image = min(_aut_images([(eps * p + s) % 3 for p in labels], graph.automorphisms))
            if image not in found:
                found.add(image)
                weights[eps < 0] += 1
        decorated = graph._replace(decorations=labels, aut_order=aut)
        value = graph_contribution(ctx, decorated)
        if not weights[1] and value != value.conjugate():
            raise _located(ConsistencyError("a swap-fixed class value is not rational"),
                           decorated)
        addends.append((value, *weights))
    return Contribution(graph, RingElem.sum_with_conjugates(addends))


def per_graph_contributions(ctx: Context, g: int, tags) -> list[Contribution]:
    """Per undecorated graph: the sum over decoration orbits of its value.

    Tags with delta != 0 raise ValueError (their total is zero).  Rows reach
    3g - 3 + n, the largest index a budget can request.
    """
    if weight_degree(tags):
        raise ValueError("per_graph_contributions needs insertions of weight degree 0")
    graphs = enumerate_graphs(g, tags)
    ctx.extend_rows(3 * g - 3 + len(tags))
    return [_contribution(ctx, gr) for gr in graphs]


def correlator(ctx: Context, g: int, insertions) -> RingElem:
    """Total over all decorated stable graphs: the genus-g series, free of
    c, with no insertions; exactly zero for delta != 0.  An unstable or
    negative-genus request raises ValueError.
    """
    tags = tuple(normalize_tag(t) for t in insertions)
    _check_request(g, len(tags))
    if weight_degree(tags):
        return RingElem.zero()
    return checked_total(per_graph_contributions(ctx, g, tags), tags)


def checked_total(contributions, tags) -> RingElem:
    """The sum of the per-graph values, which must be free of c when there
    are no insertions; rationality is checked per class (_contribution)."""
    total = RingElem.sum(item.value for item in contributions)
    if not tags and not total.c_degrees() <= {0}:
        raise ConsistencyError("series without insertions must have c-degree 0")
    return total
