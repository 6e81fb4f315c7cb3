"""The localization contribution assembly over stable graphs.

A fixed locus is a stable graph: vertices carry a genus and a fixed-point
label, edges two positive flag values, legs an insertion tag and a flag
value.  The total sums over labelled graphs 1/|Aut| times the flag sum of
the product of vertex, edge and leg factors.  Graphs come from kp2.graphs.

Labellings.  With w_p = zeta^p a factor has a degree d mod 3 (leg H_k at
flag a: k + 1 - a, psiH: 3 - a; vertex with flags a_f: sum(a_f - 2);
edge (b1, b2): 1 - b1 - b2), and p -> p + s multiplies it by zeta^(s d):
a vertex with its legs and loops (_dressed_vertex) at label p is
zeta^(p (|k| + d_v)) times its label-0 value, k its link flags,
d_v = len(k) + weight_degree(its legs), and E^(i,j) =
zeta^(i (1 - b1 - b2)) E^(0,j-i), E^(0,t) = sum_k zeta^(t k) Q_k with
rational Q_k (_edge_modes).  A Fourier sum over the t = p_v - p_u of B
bundles of parallel links gives the sum over all 3^V labellings as
3^V sum_phi W(phi), phi over the 3^(B - V + 1) solutions of
sum_(into v) phi - sum_(out of v) phi = d_v + #links leaving v mod 3
(none unless delta = sum_j (k_j - 1) = 0 mod 3, and then correlator
returns zero unassembled).  W(phi) is a flag sum over label-0 vertices (a
loop is Q_0 + Q_1 + Q_2) times, per bundle, its links' modes convolved,
at -psi, psi = phi + sum b2 (_bundle_term): it is rational.  kp2.labelled
checks these sums one labelling at a time.  At label 0 the vertex class
is rational too (kp2.mgn: power sums s_m = 3 s_{m-1} - 3 s_{m-2}).

Contracted flag sum.  A vertex factor V reads sorted flags, so a vertex
with legs and loops (_dressed_at) at link flags k is sum_R V(k + R) D(R),
D(R) its leg and loop factors summed over the arrangements of R.
Vertices are eliminated in order: the sum over those from w on is made
once per state, the lower flags and phases of the bundles open across w;
a key at w takes the factors of the bundles closing there, and keys
sharing next flags are summed before one product with their next states'
sum.  A bundle factor reads sorted flag pairs and its upper end walks
every arrangement, so its lower flags enter the state sorted: keys
permuting them share one state.  Each sum of products is one RingElem.dot.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import product
from math import factorial, prod
from operator import mul

from . import ConsistencyError
from .graphs import StableGraph, _check_request, enumerate_graphs, normalize_tag
from .lring import RingElem
from .mgn import hodge_psi_integral, vertex_class
from .rseries import extract_R_rows

_ONE = RingElem.one()

__all__ = [
    "StableGraph", "Contribution", "Context", "build_context",
    "enumerate_graphs", "vertex_contribution", "leg_contribution", "graph_contribution",
    "per_graph_contributions", "correlator", "checked_total", "normalize_tag", "weight_degree",
]


def __getattr__(name):
    # perfbench/tracer.py wraps these two names here (ROADMAP item 1)
    if name in ("edge_contribution", "decoration_orbits"):
        from . import labelled
        return getattr(labelled, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


Contribution = namedtuple("Contribution", ("graph", "value"))


class Context:
    """The rows R_{m,k}, k <= kmax (they only grow), and the memos of
    vertex_contribution, _edge_modes, leg_contribution, _bundle_term and
    _dressed_vertex at label 0."""

    def __init__(self):
        self.kmax = 0
        self.rows = extract_R_rows(0)
        self._vertex_memo: dict = {}
        self._mode_memo: dict = {}
        self._leg_memo: dict = {}
        self._dressed_memo: dict = {}
        self._bundle_memo: dict = {}

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
    lambda-monomials of the vertex class.  Graph sums pass i = 0.  Label i
    scales each term by w_i^(-budget) = zeta^(i sum(a - 2)); an irrational
    result raises ConsistencyError.  i stays: perfbench/tracer.py keys on
    it."""
    a_values = tuple(sorted(a_values))
    if i * (sum(a_values) - 2 * len(a_values)) % 3 and vertex_contribution(ctx, h, 0, a_values):
        raise ConsistencyError(f"vertex contribution at label {i} is not rational")
    key = (h, a_values)
    hit = ctx._vertex_memo.get(key)
    if hit is not None:
        return hit
    exps = tuple(a - 1 for a in a_values)
    budget = 3 * h - 3 + len(a_values) - sum(exps)
    scales: dict = {}  # parts -> their rows' coefficient
    for lam, coeff in vertex_class(h).items():
        rem = budget - sum(lam)
        for parts in _partitions(rem, rem):  # none if rem < 0
            # parts are the j-1 values; each j >= 2
            integral = hodge_psi_integral(h, exps + tuple(p + 1 for p in parts), lam)
            if integral == 0:
                continue
            if parts and parts[0] > ctx.kmax:
                raise ValueError(f"row index {parts[0]} beyond kmax={ctx.kmax}")
            mult = prod(factorial(parts.count(p)) for p in set(parts))
            sign = (-1) ** sum(p % 2 == 0 for p in parts)
            scales[parts] = scales.get(parts, 0) + coeff * integral * sign / mult
    rows0 = ctx.rows[0]
    total = RingElem.dot([(reduce(mul, [rows0[p] for p in parts[:-1]], RingElem.const(s)),
                           rows0[parts[-1]] if parts else _ONE) for parts, s in scales.items()])
    if total.x_degree() > 0:
        raise ConsistencyError("vertex contribution acquired an X-dependence")
    if not total.c_degrees() <= {0}:
        raise ConsistencyError("vertex contribution acquired a c-dependence")
    ctx._vertex_memo[key] = total
    return total


def _check_degrees(value: RingElem, where: str) -> RingElem:
    if not value.c_degrees() <= {0}:
        raise ConsistencyError(f"edge {where} has nonzero c-degree")
    if value.x_degree() > 1:
        raise ConsistencyError(f"edge {where} has X-degree > 1")
    return value


def _edge_modes(ctx: Context, b1: int, b2: int) -> tuple:
    """Q_k, E^(0,t)(b1, b2) = sum_k zeta^(t k) Q_k: the kernel at (0, t) is
    -3 zeta^(-t b) (R0[a] R0[b] + zeta^(2t) R1[a] R2[b] + zeta^t R2[a] R1[b])."""
    modes = ctx._mode_memo.get((b1, b2))
    if modes is None:
        rows, parts = ctx.rows, ([], [], [])
        for s in range(b2):
            a, b = b1 + s, b2 - 1 - s
            for m, n, k in ((0, 0, -b), (1, 2, 2 - b), (2, 1, 1 - b)):
                x = rows[m][a]
                parts[k % 3].append((x if (b1 + b2 + s) % 2 else -x, rows[n][b]))
        modes = ctx._mode_memo[b1, b2] = tuple(
            _check_degrees(RingElem.dot(p) * 3, f"mode Q_{k}({b1},{b2})") for k, p in enumerate(parts))
    return modes


def leg_contribution(ctx: Context, tag: str, a: int) -> RingElem:
    """Leg factor at label 0: the z^{a-1} coefficient of the normalized row
    (z^{a-2} for the descendent insertion, which so vanishes at a = 1)."""
    tag = normalize_tag(tag)
    if a < 1:
        raise ValueError("flag values are positive")
    key = (tag, a)
    hit = ctx._leg_memo.get(key)
    if hit is not None:
        return hit
    shift, row = (a - 2, 1) if tag == "psiH" else (a - 1, int(tag[1]))
    if shift < 0:
        out = RingElem.zero()
    else:
        if shift > ctx.kmax:
            raise ValueError(f"leg needs row order {shift}, kmax={ctx.kmax}")
        l = (0, 1, -1)[row]  # the prefactor's L and c power
        out = ctx.rows[row][shift] * RingElem.monomial(-1 if (a - 1) % 2 else 1, l=l, e=l)
    ctx._leg_memo[key] = out
    return out


def _compositions(n: int, budget: int, least: int = 0):
    """Tuples of n flag values >= 1 whose excesses a - 1 sum to at most
    budget, nondecreasing from least on if least."""
    if n == 0:
        yield ()
        return
    for a in range(least or 1, budget + 2):
        for rest in _compositions(n - 1, budget - a + 1, least and a):
            yield (a,) + rest


def _located(exc: ConsistencyError, graph: StableGraph, flags=()) -> ConsistencyError:
    """exc restated with the graph and flag values of its term, if any."""
    named = " ".join(f"{name}={a}" for name, a in flags)
    where = f"graph {graph.signature()}" + (f", flags {named}" if named else "")
    return ConsistencyError(f"{exc} [{where}]")


def _ends(graph: StableGraph, v: int) -> list:
    """v's link ends (edge, side), in edge order."""
    return [(e, 0 if a == v else 1) for e, (a, b) in enumerate(graph.edges)
            if a != b and v in (a, b)]


def _same_legs(leg, *values) -> RingElem:
    """Legs of one tag at sorted values: one product, times its arrangements."""
    count = factorial(len(values)) // prod(factorial(values.count(a)) for a in set(values))
    return RingElem.sum([reduce(mul, map(leg, values))] * count)


def _dressed_at(ctx: Context, graph: StableGraph, v: int, budget: int, loop) -> dict:
    """Vertex v's factor at label 0, keyed by its link flags, leg and loop
    flags summed out by multiset within budget (one per tag's legs).
    loop(b1, b2) is the loop factor; errors name one arrangement's flags."""
    h, ends = graph.genera[v], _ends(graph, v)
    legs: dict = {}  # tag -> names of v's legs
    for m, w in enumerate(graph.legs):
        if w == v:
            legs.setdefault(graph.tags[m], []).append(f"l{m}")
    slots = [(names, partial(_same_legs, cache(partial(leg_contribution, ctx, t))), 1)
             for t, names in legs.items()]
    slots += [([f"e{e}.0", f"e{e}.1"], loop, 0) for e, (a, b) in enumerate(graph.edges)
              if a == b == v]
    dress = {(): (_ONE, ())}  # sorted values placed -> (D, an arrangement)
    for names, factor, least in slots:
        factor, step = cache(factor), {}
        for placed, (term, named) in dress.items():
            for values in _compositions(len(names), budget - sum(placed) + len(placed), least):
                try:
                    f = factor(*values)
                except ConsistencyError as exc:
                    raise _located(exc, graph, zip(names, values)) from exc
                if f:
                    key = tuple(sorted(placed + values))
                    step.setdefault(key, ([], named + tuple(zip(names, values))))[0].append(
                        (f, term))
        dress = {key: (d, named) for key, (t, named) in step.items() if (d := RingElem.dot(t))}
    out = {}
    for k in _compositions(len(ends), budget):
        pairs, room = [], budget - sum(k) + len(k)
        for placed, (term, named) in dress.items():
            if sum(placed) - len(placed) > room:
                continue
            try:
                x = vertex_contribution(ctx, h, 0, k + placed)
            except ConsistencyError as exc:
                flags = [*zip((f"e{e}.{s}" for e, s in ends), k), *named]
                raise _located(exc, graph, flags) from exc
            pairs.append((x, term))
        if value := RingElem.dot(pairs):
            out[k] = value
    return out


def _dressed_vertex(ctx: Context, memo: dict, graph: StableGraph, v: int, loop) -> dict:
    """_dressed_at within v's dimension bound 3h - 3 + valence (wider ones
    add only zeros), memoized in memo by (h, legs, loops, valence); do not
    modify it."""
    h, valence = graph.genera[v], graph.valences()[v]
    tags = tuple(sorted(t for t, w in zip(graph.tags, graph.legs) if w == v))
    key = (h, tags, sum(a == b == v for a, b in graph.edges), valence)
    dressed = memo.get(key)
    if dressed is None:
        dressed = memo[key] = _dressed_at(ctx, graph, v, 3 * h - 3 + valence, loop)
    return dressed


def _convolve(p, q) -> list:
    """Cyclic convolution: index m sums p_k q_(m-k)."""
    return [RingElem.dot([(p[k], q[(m - k) % 3]) for k in range(3)]) for m in range(3)]


def _bundle_term(ctx: Context, graph: StableGraph, bundle, flag, phi: int) -> RingElem:
    """A bundle's factor in W(phi), memoized by (psi, sorted flag pairs);
    the last convolution makes only psi's component."""
    pairs = [(flag[e, 0], flag[e, 1]) for e in bundle[1]]
    key = tuple(sorted(pairs))
    memo = ctx._bundle_memo
    psi = (phi + sum(b for _, b in key)) % 3
    if (psi, key) not in memo:
        try:
            *head, last = [_edge_modes(ctx, *ab) for ab in key]
        except ConsistencyError as exc:
            raise _located(exc, graph, [(f"e{e}.{s}", ab[s]) for e, ab in zip(bundle[1], pairs)
                                        for s in (0, 1)]) from exc
        memo[psi, key] = RingElem.dot([(p, last[(-psi - k) % 3]) for k, p in enumerate(
            reduce(_convolve, head))]) if head else last[-psi % 3]
    return memo[psi, key]


def _degrees(graph: StableGraph) -> list:
    """The right sides of the vertex equations (module docstring)."""
    a = [weight_degree(t for t, w in zip(graph.tags, graph.legs) if w == v)
         for v in range(len(graph.genera))]
    for u, v in graph.edges:
        if u != v:
            a[u] += 2
            a[v] += 1
    return a


@cache
def _solutions(phases: tuple, n: int, checks: tuple, values: range) -> list:
    """The t in values^n with sum(c * (phases + t)) = r mod 3 per check (r, c)."""
    return [t for t in product(values, repeat=n)
            if all(sum(map(mul, c, phases + t)) % 3 == r for r, c in checks)]


def _flag_walk(graph: StableGraph, dressed, bundles, factor, dot, a=None):
    """The flag sum by elimination in vertex order (module docstring);
    bundles[b] = ((u, v), edges), u < v, factor(bundles[b], flag, phase)
    enters at v; without a every phase is 0.  dot sums products
    (CycElem.dot for kp2.labelled's pairs)."""
    nv = len(dressed)
    ends = [_ends(graph, w) for w in range(nv)]
    new = [[b for b, ((u, _), _) in enumerate(bundles) if u == w] for w in range(nv)]
    live = [[]]  # live[w]: the bundles open across w, new[w - 1] last
    for w in range(nv):
        live.append([b for b in live[w] if bundles[b][0][1] > w] + new[w])
    checks = [()] * nv  # (a_x, signs on live[w] + new[w]) where x's last bundle opens
    for x in range(nv if a and bundles else 0):
        sign = [(v == x) - (u == x) for (u, v), _ in bundles]
        w = max(u for (u, v), _ in bundles if x in (u, v))
        checks[w] += ((a[x] % 3, tuple(sign[b] for b in live[w] + new[w])),)
    values = range(3 if a else 1)
    flag: dict = {}  # (edge, side) -> value
    memo: dict = {(nv, ((), ())): _ONE}  # (w, state) -> the sum over the vertices from w on

    def rest(w: int, state: tuple) -> RingElem:
        if (w, state) not in memo:
            lowers, phases = state
            for b, lower in zip(live[w], lowers):
                flag.update(zip([(e, 0) for e in bundles[b][1]], lower))
            kept = tuple(p for b, p in zip(live[w], phases) if bundles[b][0][1] > w)
            nexts = [kept + t for t in _solutions(phases, len(new[w]), checks[w], values)]
            groups: dict = {}  # next flags -> pairs; factors are read before any recursion
            for key, term in dressed[w].items() if nexts else ():
                flag.update(zip(ends[w], key))
                closing = [factor(bundles[b], flag, p) for b, p in zip(live[w], phases)
                           if bundles[b][0][1] == w] or [_ONE]
                after = tuple(tuple(sorted(flag[e, 0] for e in bundles[b][1])) for b in live[w + 1])
                groups.setdefault(after, []).append((reduce(mul, closing[:-1], term), closing[-1]))
            memo[w, state] = dot([(dot(terms), dot([(rest(w + 1, (after, p)), _ONE) for p in nexts]))
                                  for after, terms in groups.items()])
        return memo[w, state]

    return rest(0, ((), ()))


def graph_contribution(ctx: Context, graph: StableGraph) -> RingElem:
    """Sum over all labellings and flag assignments of the vertex/edge/leg
    product, over aut_order.  A ConsistencyError names the graph and flags."""
    a = _degrees(graph)
    if sum(a) % 3:
        raise _located(ConsistencyError("no labelling sum at nonzero weight degree"), graph)
    links: dict = {}
    for e, (u, v) in enumerate(graph.edges):
        if u != v:
            links.setdefault((u, v), []).append(e)
    dressed = [_dressed_vertex(ctx, ctx._dressed_memo, graph, w, lambda b1, b2:
                               RingElem.sum(_edge_modes(ctx, b1, b2))) for w in range(len(a))]
    walk = _flag_walk(graph, dressed, list(links.items()), partial(_bundle_term, ctx, graph),
                      RingElem.dot, a)
    return walk * (Fraction(3) ** len(a) / graph.aut_order)


_TAG_DEGREE = {"H0": -1, "H1": 0, "H2": 1, "psiH": 1}


def weight_degree(tags) -> int:
    """delta = sum of (k_j - 1) mod 3, the weight degree of every term of the sum."""
    return sum(_TAG_DEGREE[normalize_tag(t)] for t in tags) % 3


def per_graph_contributions(ctx: Context, g: int, tags) -> list[Contribution]:
    """Per graph its value; delta != 0 raises ValueError.  Rows reach
    3g - 3 + n, the largest index a budget can request."""
    if weight_degree(tags):
        raise ValueError("per_graph_contributions needs insertions of weight degree 0")
    graphs = enumerate_graphs(g, tags)
    ctx.extend_rows(3 * g - 3 + len(tags))
    return [Contribution(graph, graph_contribution(ctx, graph)) for graph in graphs]


def correlator(ctx: Context, g: int, insertions) -> RingElem:
    """Total over all labelled stable graphs: the genus-g series, free of
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
    are no insertions."""
    total = RingElem.sum(item.value for item in contributions)
    if not tags and not total.c_degrees() <= {0}:
        raise ConsistencyError("series without insertions must have c-degree 0")
    return total
