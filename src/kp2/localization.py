"""The localization contribution assembly over stable graphs.

A fixed locus is a stable graph: vertices carry a genus and a fixed-point
label, edges two positive flag values, legs an insertion tag and a flag
value.  The total is the sum over decorated graphs of

    (1 / |Aut|) * sum over flag assignments of
        prod vertex terms * prod edge terms * prod leg terms

with every factor in the differential ring.  Undecorated graphs are
enumerated up to isomorphism (kp2.graphs), and each decoration orbit is
summed once, weighted by its decorated automorphism order.

Relabeling symmetry.  Let delta = sum_j (k_j - 1) mod 3 over the
insertions, with H0, H1, H2 and psiH counting -1, 0, 1 and 1.  Every factor
is a Q-rational expression in the weights w_0, w_1, w_2 over the ring over
Q: the rows have rational coefficients, and the weights enter only through
weight_pow, euler_at and the tangent weights of the vertex class.  In
weight degree, a leg H_k with flag value a has k + 1 - a (psiH: 3 - a), a
vertex with n flags of values a_f has sum(a_f - 1) - n (a lambda-monomial
of degree d has a Hodge coefficient of degree 3h - 3 - d, each extra
insertion j adds 1 - j, and they fill the vertex dimension), and an edge
(b1, b2) has 1 - b1 - b2 mod 3 (euler_at and w_i^2 w_j have degree 3).
The flag values cancel, so every term of the sum has degree delta mod 3,
and with w_p = zeta^p:

- shift: p -> p + 1 multiplies each w_p, hence a decorated-graph value, by
  zeta^delta;
- swap: p -> -p sends w_p to its conjugate w_(-p), so it conjugates the
  value, as conjugation fixes Q.

Relabeling keeps the decorated automorphism order.  The total is
shift-invariant, so T = zeta^delta T vanishes unless delta = 0 mod 3:
correlator returns zero without assembly, and per_graph_contributions
refuses such tags.  With delta = 0 a shift keeps a value and a swap
conjugates it, so per_graph_contributions evaluates one decoration orbit
per class under the graph's group G (kp2.graphs) and the six relabelings p -> +-p + s, and adds each class
once, as a v + b conj(v) with integers a and b.

Contracted flag sum.  Each leg and loop meets one vertex, so
graph_contribution first sums, per vertex, over the flag compositions
within its dimension bound: the vertex factor times its leg and loop
factors, keyed by the values of its flags on the other edges.  It then
walks the vertices depth-first, sharing prefix products, and multiplies an
edge factor in once both of its ends are assigned.
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
from .scalars import ConsistencyError, CycScalar, euler_at, weight_pow

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
    factors that read them.

    Each holds factors that depend on nothing else in a graph:

    - _vertex_memo: vertex_contribution by (h, i, sorted flag values);
    - _edge_memo: edge_contribution by (i, j, b1, b2);
    - _leg_memo: leg_contribution by (i, tag, a);
    - _dressed_memo: a vertex with its legs and loops summed out, by (h, i,
      sorted leg tags, loop count, number of other-edge ends, budget).

    Rows only grow, so no memoized value goes stale.  The vertex classes
    read no row and are cached in kp2.mgn.
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
            mult = prod(factorial(parts.count(p)) for p in set(parts))
            factor = RingElem.const(coeff * integral / mult)
            for p in parts:
                if p > ctx.kmax:
                    raise ValueError(f"row index {p} beyond kmax={ctx.kmax}")
                factor = factor * rows0[p] * RingElem.const(
                    CycScalar(1 if p % 2 else -1) * weight_pow(i, -p))
            terms.append(factor)
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


def edge_contribution(ctx: Context, i: int, j: int, b1: int, b2: int) -> RingElem:
    """The edge factor for flag values (b1, b2) at fixed points (i, j): an
    alternating sum of kernel coefficients along the anti-diagonal of total
    degree b1 + b2 - 1; c-degree 0 and X-degree <= 1 are asserted.
    """
    if b1 < 1 or b2 < 1:
        raise ValueError("flag values are positive")
    if b1 + b2 - 1 > ctx.kmax:
        raise ValueError(f"edge needs rows up to {b1 + b2 - 1}, kmax={ctx.kmax}")
    key = (i, j, b1, b2)
    hit = ctx._edge_memo.get(key)
    if hit is not None:
        return hit
    terms = []
    for s in range(b2):
        term = _p_coefficient(ctx, i, j, b1 + s, b2 - 1 - s)
        terms.append(term if (b1 + b2 + s) % 2 == 0 else -term)
    total = RingElem.sum(terms)
    if not total.c_degrees() <= {0}:
        raise ConsistencyError(f"edge ({i},{j},{b1},{b2}) has nonzero c-degree")
    if total.x_degree() > 1:
        raise ConsistencyError(f"edge ({i},{j},{b1},{b2}) has X-degree > 1")
    ctx._edge_memo[key] = total
    return total


_PREFAC = {
    "H0": lambda i: RingElem.one(),
    "H1": lambda i: RingElem.monomial(weight_pow(i, 1), l=1, x=0, e=1),
    "H2": lambda i: RingElem.monomial(weight_pow(i, 2), l=-1, x=0, e=-1),
    "psiH": lambda i: RingElem.monomial(weight_pow(i, 1), l=1, x=0, e=1),
}


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
        sign = CycScalar(-1 if (a - 1) % 2 else 1)
        out = _PREFAC[tag](i) * ctx.rows[row][shift] * RingElem.const(
            sign * weight_pow(i, -shift)
        )
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


def _dressed_vertex(ctx: Context, graph: StableGraph, v: int, budget: int, ends) -> dict:
    """Vertex v's factor with its leg and loop flags summed out.

    Keyed by the values of v's flags on the other edges, in the order of ends
    (pairs (edge, side)); every composition of v's flags within budget is
    visited once.  The sum is symmetric in the legs, so it is memoized on
    v's genus, label, sorted leg tags, loop count, number of ends and
    budget; callers must not modify it.
    """
    h, i = graph.genera[v], graph.decorations[v]
    legs = [m for m, w in enumerate(graph.legs) if w == v]
    loops = [e for e, (a, b) in enumerate(graph.edges) if a == b == v]
    key = (h, i, tuple(sorted(graph.tags[m] for m in legs)), len(loops), len(ends), budget)
    hit = ctx._dressed_memo.get(key)
    if hit is not None:
        return hit
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
    dressed = {k: RingElem.sum(terms) for k, terms in out.items()}
    ctx._dressed_memo[key] = dressed
    return dressed


def graph_contribution(ctx: Context, graph: StableGraph, budget_extra: int = 0) -> RingElem:
    """Sum over flag assignments of the vertex/edge/leg product, over aut_order.

    Flags are assigned vertex by vertex, each vertex's flags ranging over
    the compositions within its dimension bound; budget_extra widens every
    bound, and the extra terms all vanish.  A ConsistencyError from a
    factor names the graph, labels and flags.
    """
    if graph.decorations is None:
        raise ValueError("graph_contribution needs a decorated graph")
    nv = len(graph.genera)
    val = graph.valences()
    links = [(e, u, v) for e, (u, v) in enumerate(graph.edges) if u != v]
    ends = [[(e, 0 if u == w else 1) for e, u, v in links if w in (u, v)] for w in range(nv)]
    closing = [[e for e, _, v in links if v == w] for w in range(nv)]
    dressed = [
        _dressed_vertex(ctx, graph, w, 3 * graph.genera[w] - 3 + val[w] + budget_extra, ends[w])
        for w in range(nv)
    ]
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


def _contribution(ctx: Context, graph: StableGraph, budget_extra: int) -> Contribution:
    """The graph's value for delta = 0, one graph_contribution per class.

    A class with evaluated value v sums to a * v + b * conj(v): a and b
    count the orbits that p -> eps * p + s reaches from the evaluated one
    with eps = 1 and -1.  Either a = b, and the class sum is rational by
    construction, or b = 0: a swap fixes the class, so v must equal
    conj(v), which is checked here.
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
        value = graph_contribution(ctx, decorated, budget_extra)
        if not weights[1] and value != value.conjugate():
            raise _located(ConsistencyError("a swap-fixed class value is not rational"),
                           decorated)
        addends.append((value, *weights))
    return Contribution(graph, RingElem.sum_with_conjugates(addends))


def per_graph_contributions(ctx: Context, g: int, tags, budget_extra: int = 0) -> list[Contribution]:
    """Per undecorated graph: the sum over decoration orbits of its value.

    Tags with delta != 0 raise ValueError before any enumeration (their
    total is zero).  Rows first reach 3g - 3 + n, the largest index a
    vertex, edge or leg budget can request, plus 2 * budget_extra (an edge
    spans two vertices).
    """
    if weight_degree(tags):
        raise ValueError("per_graph_contributions needs insertions of weight degree 0")
    graphs = enumerate_graphs(g, tags)
    ctx.extend_rows(3 * g - 3 + len(tags) + 2 * budget_extra)
    return [_contribution(ctx, gr, budget_extra) for gr in graphs]


def correlator(ctx: Context, g: int, insertions) -> RingElem:
    """Total over all decorated stable graphs; rationality is asserted.

    With no insertions it is the genus-g series, which must be free of c.
    For delta != 0 mod 3 it is exactly zero, returned without assembly.  An
    unstable or negative-genus request raises ValueError first.
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
