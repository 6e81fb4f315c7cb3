"""Stable-graph enumeration and the localization contribution assembly.

A fixed locus is indexed by a stable graph: vertices carry a genus and a
fixed-point label, edges carry two positive flag values, legs carry an
insertion tag and a flag value.  The total invariant is the sum over
decorated graphs of

    (1 / |Aut|) * sum over flag assignments of
        prod vertex terms * prod edge terms * prod leg terms

with every factor an element of the differential ring.  Undecorated graphs
are enumerated up to isomorphism; decorations are summed via one orbit
representative each, weighted by its decorated automorphism count.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .lring import RingElem
from .mgn import expand_vertex_class, hodge_psi_integral
from .rseries import extract_R_rows
from .scalars import ConsistencyError, CycScalar, euler_at, weight_pow

__all__ = [
    "StableGraph",
    "Contribution",
    "Context",
    "build_context",
    "enumerate_graphs",
    "decoration_orbits",
    "vertex_contribution",
    "edge_contribution",
    "leg_contribution",
    "graph_contribution",
    "per_graph_contributions",
    "correlator",
    "normalize_tag",
]

TAGS = ("H0", "H1", "H2", "psiH")


def normalize_tag(tag) -> str:
    if isinstance(tag, int):
        tag = f"H{tag}"
    if tag not in TAGS:
        raise ValueError(f"unknown insertion tag {tag!r}")
    return tag


@dataclass(frozen=True)
class StableGraph:
    """A stable graph, optionally decorated with fixed-point labels.

    genera[v] is the vertex genus, decorations[v] the fixed-point label (None
    while undecorated), edges a sorted tuple of vertex pairs (u <= v, loops
    allowed), legs the marking-to-vertex map, tags the insertion per marking.
    aut_order counts decoration-preserving automorphisms at flag level.
    """

    genera: tuple
    decorations: tuple | None
    edges: tuple
    legs: tuple
    tags: tuple
    aut_order: int

    def genus(self) -> int:
        return sum(self.genera) + len(self.edges) - len(self.genera) + 1

    def valences(self) -> list[int]:
        val = [0] * len(self.genera)
        for (u, v) in self.edges:
            val[u] += 1
            val[v] += 1
        for v in self.legs:
            val[v] += 1
        return val

    def signature(self) -> str:
        dec = "" if self.decorations is None else ",".join(map(str, self.decorations))
        e = ";".join(f"{u}-{v}" for (u, v) in self.edges)
        l = ";".join(f"{v}:{t}" for v, t in zip(self.legs, self.tags))
        h = ",".join(map(str, self.genera))
        return f"h=[{h}] p=[{dec}] e=[{e}] legs=[{l}]"


def _valid_perms(genera, edges, legs, decorations=None):
    """Vertex permutations preserving genera, edge multiset, legs, decorations."""
    nv = len(genera)
    edge_key = tuple(sorted(edges))
    out = []
    for sigma in permutations(range(nv)):
        if any(genera[v] != genera[sigma[v]] for v in range(nv)):
            continue
        if decorations is not None and any(
            decorations[v] != decorations[sigma[v]] for v in range(nv)
        ):
            continue
        if any(sigma[v] != v for v in legs):
            continue
        mapped = tuple(sorted(tuple(sorted((sigma[u], sigma[v]))) for (u, v) in edges))
        if mapped != edge_key:
            continue
        out.append(sigma)
    return out


def _flag_factor(edges) -> int:
    """Parallel-edge permutations times half-edge swaps of loops."""
    mult: dict = {}
    loops = 0
    for e in edges:
        mult[e] = mult.get(e, 0) + 1
        if e[0] == e[1]:
            loops += 1
    out = 2**loops
    for m in mult.values():
        f = 1
        for t in range(2, m + 1):
            f *= t
        out *= f
    return out


def _canonical_key(genera, edges, legs):
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


def enumerate_graphs(g: int, tags) -> list[StableGraph]:
    """All undecorated stable graphs of total genus g with the given legs.

    tags is a sequence of insertion tags (one per marking) or an integer
    count; markings are labeled, so automorphisms fix each leg.
    """
    if isinstance(tags, int):
        if tags < 0:
            raise ValueError(f"leg count must be non-negative, got {tags}")
        tags = ("H0",) * tags
    tags = tuple(normalize_tag(t) for t in tags)
    n = len(tags)
    if g < 0:
        raise ValueError(f"genus must be non-negative, got {g}")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"unstable request (g={g}, n={n})")
    found: dict = {}
    max_v = 2 * g - 2 + n
    for nv in range(1, max_v + 1):
        pairs = [(u, v) for u in range(nv) for v in range(u, nv)]
        for genera in product(range(g + 1), repeat=nv):
            ne = g - sum(genera) + nv - 1
            if ne < 0:
                continue
            for edges in combinations_with_replacement(pairs, ne):
                if not _connected(nv, edges):
                    continue
                for legs in product(range(nv), repeat=n):
                    val = [0] * nv
                    for (u, v) in edges:
                        val[u] += 1
                        val[v] += 1
                    for v in legs:
                        val[v] += 1
                    if any(2 * h - 2 + s <= 0 for h, s in zip(genera, val)):
                        continue
                    key = _canonical_key(genera, edges, legs)
                    if key in found:
                        continue
                    ch, ce, cl = key
                    aut = len(_valid_perms(ch, ce, cl)) * _flag_factor(ce)
                    found[key] = StableGraph(
                        genera=ch,
                        decorations=None,
                        edges=ce,
                        legs=cl,
                        tags=tags,
                        aut_order=aut,
                    )
    return [found[k] for k in sorted(found)]


def decoration_orbits(graph: StableGraph) -> list[tuple[tuple, int]]:
    """Orbit representatives of fixed-point labelings, with decorated aut order.

    Summing representatives weighted by 1/aut_dec equals summing all 3^V
    labelings weighted by 1/aut_undecorated.
    """
    nv = len(graph.genera)
    sigmas = _valid_perms(graph.genera, graph.edges, graph.legs)
    flag = _flag_factor(graph.edges)
    reps: dict = {}
    for p in product(range(3), repeat=nv):
        images = []
        for sigma in sigmas:
            mapped = [0] * nv
            for v in range(nv):
                mapped[sigma[v]] = p[v]
            images.append(tuple(mapped))
        key = min(images)
        if key not in reps:
            stab = sum(1 for im in images if im == key)
            reps[key] = stab * flag
    return sorted(reps.items())


@dataclass
class Contribution:
    """Assembled value of one undecorated graph, with its decoration detail."""

    graph: StableGraph
    value: RingElem
    per_decoration: list  # (labels, aut_order, RingElem)


class Context:
    """Shared exact inputs: the asymptotic rows R_{m,k}, k <= kmax, and memo tables."""

    def __init__(self):
        self.kmax = 0
        self.rows = extract_R_rows(0)
        self._vertex_classes: dict = {}
        self._vertex_memo: dict = {}
        self._edge_memo: dict = {}
        self._leg_memo: dict = {}

    def extend_rows(self, kmax: int) -> None:
        """Make the rows reach R_{m,kmax}; rows already present do not change."""
        if kmax > self.kmax:
            self.rows = extract_R_rows(kmax)
            self.kmax = kmax

    def vertex_class(self, i: int, h: int):
        key = (i, h)
        hit = self._vertex_classes.get(key)
        if hit is None:
            hit = expand_vertex_class(i, h).expansion
            self._vertex_classes[key] = hit
        return hit


def build_context() -> Context:
    """An empty context; each correlator extends its rows to the depth it needs."""
    return Context()


def _partitions(total: int):
    """Nonincreasing partitions of total into parts >= 1 (empty for total 0)."""
    if total == 0:
        yield ()
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for tail in rec(remaining - part, part):
                yield (part,) + tail

    yield from rec(total, total)


def vertex_contribution(ctx: Context, h: int, i: int, a_values, gamma_override=None) -> RingElem:
    """The localized vertex series coefficient for flag values a_values.

    Finite sum over extra insertions j >= 2 whose shifted exponents fill the
    vertex dimension, each weighted by t_j = (-1)^j R_{0,j-1} w_i^{1-j}, and
    over the lambda-monomials of the vertex class.
    """
    if h > 2:
        raise ValueError("vertex genus out of the supported range")
    a_values = tuple(sorted(a_values))
    key = (h, i, a_values)
    if gamma_override is None:
        hit = ctx._vertex_memo.get(key)
        if hit is not None:
            return hit
    n = len(a_values)
    exps = tuple(a - 1 for a in a_values)
    budget = 3 * h - 3 + n - sum(exps)
    expansion = gamma_override if gamma_override is not None else ctx.vertex_class(i, h)
    total = RingElem.zero()
    rows0 = ctx.rows[0]
    for lam, coeff in expansion.items():
        rem = budget - sum(lam)
        if rem < 0:
            continue
        for parts in _partitions(rem):
            # parts are the j-1 values; each j >= 2
            integral = hodge_psi_integral(h, exps + tuple(p + 1 for p in parts), lam)
            if integral == 0:
                continue
            mult = 1
            run = 1
            for t in range(1, len(parts)):
                run = run + 1 if parts[t] == parts[t - 1] else 1
                if run > 1:
                    mult *= run
            factor = RingElem.const(coeff * integral / mult)
            for p in parts:
                j = p + 1
                if j - 1 > ctx.kmax:
                    raise ValueError(f"row index {j - 1} beyond kmax={ctx.kmax}")
                sign = 1 if j % 2 == 0 else -1
                factor = factor * rows0[j - 1] * RingElem.const(
                    CycScalar(sign) * weight_pow(i, 1 - j)
                )
            total = total + factor
    if total.x_degree() > 0:
        raise ConsistencyError("vertex contribution acquired an X-dependence")
    if not total.c_degrees() <= {0}:
        raise ConsistencyError("vertex contribution acquired a c-dependence")
    if gamma_override is None:
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
    """The edge factor for flag values (b1, b2) at fixed points (i, j).

    Alternating extraction of kernel coefficients along the anti-diagonal of
    total degree b1 + b2 - 1; c-degree 0 and X-degree <= 1 are asserted.
    """
    if b1 < 1 or b2 < 1:
        raise ValueError("flag values are positive")
    if b1 + b2 - 1 > ctx.kmax:
        raise ValueError(f"edge needs rows up to {b1 + b2 - 1}, kmax={ctx.kmax}")
    key = (i, j, b1, b2)
    hit = ctx._edge_memo.get(key)
    if hit is not None:
        return hit
    total = RingElem.zero()
    for s in range(b2):
        term = _p_coefficient(ctx, i, j, b1 + s, b2 - 1 - s)
        total = total + (term if s % 2 == 0 else -term)
    if (b1 + b2) % 2:
        total = -total
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
    if tag == "psiH":
        shift = a - 2
        row = 1
    else:
        shift = a - 1
        row = int(tag[1])
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


def graph_contribution(ctx: Context, graph: StableGraph, budget_extra: int = 0) -> RingElem:
    """Sum over flag assignments of the vertex/edge/leg product, over |Aut|.

    budget_extra widens every per-vertex dimension bound; the extra terms all
    vanish, which the tests exercise.
    """
    if graph.decorations is None:
        raise ValueError("graph_contribution needs a decorated graph")
    nv = len(graph.genera)
    p = graph.decorations
    slots = []  # (vertex, kind, payload)
    for eidx, (u, v) in enumerate(graph.edges):
        slots.append((u, "e", (eidx, 0)))
        slots.append((v, "e", (eidx, 1)))
    for lidx, v in enumerate(graph.legs):
        slots.append((v, "l", lidx))
    val = graph.valences()
    budgets = [3 * graph.genera[v] - 3 + val[v] + budget_extra for v in range(nv)]
    ranges = [range(1, budgets[vtx] + 2) for (vtx, _, _) in slots]
    total = RingElem.zero()
    for assignment in product(*ranges):
        used = [0] * nv
        for (vtx, _, _), a in zip(slots, assignment):
            used[vtx] += a - 1
        if any(used[v] > budgets[v] for v in range(nv)):
            continue
        term = RingElem.one()
        by_vertex: list[list[int]] = [[] for _ in range(nv)]
        edge_a: dict = {}
        for (vtx, kind, payload), a in zip(slots, assignment):
            by_vertex[vtx].append(a)
            if kind == "e":
                edge_a[payload] = a
            else:
                term = term * leg_contribution(ctx, p[vtx], graph.tags[payload], a)
        if term.is_zero():
            continue
        for v in range(nv):
            term = term * vertex_contribution(ctx, graph.genera[v], p[v], by_vertex[v])
        for eidx, (u, v) in enumerate(graph.edges):
            term = term * edge_contribution(
                ctx, p[u], p[v], edge_a[(eidx, 0)], edge_a[(eidx, 1)]
            )
        total = total + term
    return total / Fraction(graph.aut_order)


def per_graph_contributions(
    ctx: Context, g: int, tags, threads: int = 1, budget_extra: int = 0
) -> list[Contribution]:
    """Per undecorated graph: the sum over decoration orbits of its value.

    Rows are extended first to 3g - 3 + n, the largest index any vertex, edge
    or leg budget can request; each widening of the budgets by budget_extra
    adds at most 2 * budget_extra (an edge spans two vertices).
    """
    graphs = enumerate_graphs(g, tags)
    ctx.extend_rows(3 * g - 3 + len(tags) + 2 * budget_extra)
    jobs = []
    for gi, gr in enumerate(graphs):
        for labels, aut in decoration_orbits(gr):
            decorated = dataclasses.replace(gr, decorations=labels, aut_order=aut)
            jobs.append((gi, decorated))

    def run(job):
        return graph_contribution(ctx, job[1], budget_extra)

    if threads <= 1:
        results = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    out = []
    for gi, gr in enumerate(graphs):
        value = RingElem.zero()
        detail = []
        for job, res in zip(jobs, results):
            if job[0] == gi:
                value = value + res
                detail.append((job[1].decorations, job[1].aut_order, res))
        out.append(Contribution(graph=gr, value=value, per_decoration=detail))
    return out


def correlator(ctx: Context, g: int, insertions, threads: int = 1) -> RingElem:
    """Total over all decorated stable graphs; rationality is asserted.

    With no insertions this is the genus-g series itself, which must also be
    free of c.
    """
    tags = tuple(normalize_tag(t) for t in insertions)
    contributions = per_graph_contributions(ctx, g, tags, threads=threads)
    total = RingElem.zero()
    for item in contributions:
        total = total + item.value
    for coeff in total.terms.values():
        if not coeff.is_rational():
            raise ConsistencyError("correlator total is not rational")
    if not tags and not total.c_degrees() <= {0}:
        raise ConsistencyError("series without insertions must have c-degree 0")
    return total
