"""Stable graphs: enumeration and automorphisms.

This module lists the stable graphs up to isomorphism, with their
automorphism groups; kp2.localization assembles their values.  It needs
no ring arithmetic, so the graph census loads nothing else of kp2.

Enumeration.  Legs are coloured by insertion tag; an integer leg count
gives each marking its own colour (labeled legs).  A graph is listed
in canonical form: the vertex relabeling with the smallest key (genera,
edges, placement), edges the sorted pairs u <= v and the placement each
colour's leg vertices as a nondecreasing tuple.  Only nondecreasing genera
are generated, so only relabelings within blocks of equal genus count.
Edges come as sorted multisets, cut wherever no completion can be stable,
connected and canonical (_edge_multisets); a pruned search drops those a
relabeling makes smaller and finds those fixing the rest
(_edge_stabilizer).  A placement is canonical when none of these makes it
smaller, each colour's image sorted; those keeping it form the graph's
coloured automorphism group G.

Weight.  A coloured graph stands for N = prod_t m_t! / prod_(t,v) m_(t,v)!
marking maps (m_t legs of colour t, m_(t,v) of them at vertex v), which
fall into labeled graphs whose 1/|Aut| sum to N / (|G| F), F the flag
factor (parallel-edge permutations and loop flips).  So aut_order is
|G| F / N = |Aut| / prod_t m_t!, Aut also permuting same-colour legs: a
Fraction unless N divides |G| F.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations_with_replacement, product
from math import factorial, prod

__all__ = ["TAGS", "normalize_tag", "StableGraph", "enumerate_graphs"]

TAGS = ("H0", "H1", "H2", "psiH")


def normalize_tag(tag) -> str:
    if isinstance(tag, int):
        tag = f"H{tag}"
    if tag not in TAGS:
        raise ValueError(f"unknown insertion tag {tag!r}")
    return tag


class StableGraph(namedtuple("StableGraph", ("genera", "edges", "legs", "tags",
                                               "aut_order", "automorphisms"))):
    """A stable graph.

    genera[v] is the vertex genus, edges the sorted vertex pairs (u <= v,
    loops allowed), legs the marking-to-vertex map, tags the insertion per
    marking.  aut_order is |G| F / N and automorphisms is G (see the module
    docstring).  The signature keeps an empty label list, p=[].
    """

    __slots__ = ()

    def valences(self) -> list[int]:
        val = [0] * len(self.genera)
        for (u, v) in self.edges:
            val[u] += 1
            val[v] += 1
        for v in self.legs:
            val[v] += 1
        return val

    def signature(self) -> str:
        e = ";".join(f"{u}-{v}" for (u, v) in self.edges)
        l = ";".join(f"{v}:{t}" for v, t in zip(self.legs, self.tags))
        h = ",".join(map(str, self.genera))
        return f"h=[{h}] p=[] e=[{e}] legs=[{l}]"


def _flag_factor(edges) -> int:
    """Parallel-edge permutations times half-edge swaps of loops."""
    out = 2 ** sum(u == v for u, v in edges)
    for e in set(edges):
        out *= factorial(edges.count(e))
    return out


def _check_request(g: int, n: int) -> None:
    if g < 0:
        raise ValueError(f"genus must be non-negative, got {g}")
    if 2 * g - 2 + n <= 0:
        raise ValueError(f"unstable request (g={g}, n={n})")


def _edge_multisets(genera, ne: int, n: int):
    """Sorted multisets of ne edges (u <= v) on the vertices of genera.

    Pairs are placed in lexicographic order, so row u (the pairs (u, .))
    and u's valence are final once passed.  Each cut drops only candidates
    that enumerate_graphs rejects:

    - stability: a vertex of genus h needs 3 - 2h flags, and an edge if
      nv > 1.  Only the n legs supply what the edges, two flags each,
      leave lacking.  room is n less the lack at final vertices < u, short
      the lack from u on.  A pair's copies stop once short - 2 left >
      room, and a row past its loops once u lacks more than room + left.
    - connectivity: later edges join vertices > u, so a final row u whose
      component holds no vertex > u leaves the graph disconnected; smaller
      vertices were checked at their own rows.
    - column order: col[v][a] counts the pair (a, v).  For v - 1 > u of
      the genus of v, if column v - 1 is below column v, swapping them
      makes the edges smaller, and more copies of (u, v) keep it so: the
      row stops.
    - row order: if columns u - 1 and u also agree in the rows above u - 1,
      swapping them trades the final rows u - 1 and u, read as (loops,
      pairs beyond u); if row u - 1 is smaller, the edges get smaller.
    """
    nv = len(genera)
    need = [max(3 - 2 * h, nv > 1) for h in genera]
    short = sum(need)
    if short > 2 * ne + n:
        return []
    val = [0] * nv
    col = [[0] * nv for _ in genera]
    tie = [v > 0 and genera[v - 1] == genera[v] for v in range(nv)]
    out = []

    def place(u, v, left, room, short, comp):
        if v == nv:  # u is final
            d = need[u] - val[u]
            if d > 0:
                room -= d
                short -= d
            if room < 0 or short - 2 * left > room:
                return
            if u and tie[u] and col[u - 1][:u - 1] == col[u][:u - 1]:
                rows = [[col[w][a] for w in (a, *range(u + 1, nv))] for a in (u - 1, u)]
                if rows[0] < rows[1]:
                    return
            if u + 1 < nv:
                joined = {comp[w] for w in range(u, nv) if col[w][u]} | {comp[u]}
                comp = [u if c in joined else c for c in comp]
                if u in comp[u + 1:]:
                    place(u + 1, u + 1, left, room, short, comp)
            elif left == 0:
                out.append(tuple((a, b) for a in range(nv) for b in range(a, nv)
                                 for _ in range(col[b][a])))
            return
        if v == u + 1 and need[u] - val[u] - left > room:
            return
        place(u, v + 1, left, room, short, comp)
        for count in range(1, left + 1):
            short -= (val[u] < need[u]) + (val[v] + (u == v) < need[v])
            val[u] += 1
            val[v] += 1
            col[v][u] += 1
            if short - 2 * (left - count) > room or v > u + 1 and tie[v] and col[v - 1] < col[v]:
                break
            place(u, v + 1, left - count, room, short, comp)
        count = col[v][u]
        val[u] -= count
        val[v] -= count
        col[v][u] = 0

    place(0, 0, ne, n, short, list(range(nv)))
    return out


def _edge_stabilizer(genera, edges):
    """The block relabelings fixing the edges, sorted, or None if one makes them smaller.

    tau (vertex tau[k] at place k) makes the edges smaller iff it makes
    the pair counts, row by row, larger.  Places fill in order from cells
    of vertices whose counts to the filled places match; a row whose best
    (cell counts sorted) is below the one to match is cut, one above it
    gives None.
    """
    nv = len(genera)
    adj = [[0] * nv for _ in genera]
    for u, v in edges:
        adj[u][v] += 1
        adj[v][u] += 1
    found = []
    tau = [0] * nv

    def search(k, cells):  # cells: vertex lists for the places k..
        if len(cells) == nv - k:  # tau is forced
            tau[k:] = [w for w, in cells]
            got = [adj[tau[a]][tau[b]] for a in range(k, nv) for b in range(a, nv)]
            want = [adj[a][b] for a in range(k, nv) for b in range(a, nv)]
            if got == want:
                found.append(tuple(tau))
            return got <= want
        want = adj[k][k:]
        for x in cells[0]:
            row = adj[x]
            rest = [[y for y in cells[0] if y != x], *cells[1:]]
            best = [row[x]]
            for ys in rest:
                best += sorted([row[y] for y in ys], reverse=True)
            if best != want:
                if best > want:
                    return False
                continue
            tau[k] = x
            if not search(k + 1, [[y for y in ys if row[y] == w]
                                  for ys in rest for w in sorted({row[y] for y in ys}, reverse=True)]):
                return False
        return True

    cells = [[v for v, h in enumerate(genera) if h == c] for c in dict.fromkeys(genera)]
    return sorted(found) if search(0, cells) else None


def _ratio(num, den):
    """num / den exactly, as an int when den divides num."""
    if num % den == 0:
        return num // den
    from fractions import Fraction
    return Fraction(num, den)


def enumerate_graphs(g: int, tags) -> list[StableGraph]:
    """All stable graphs of total genus g with the given legs.

    tags is an integer count, for labeled markings, or a sequence of
    insertion tags, whose legs are coloured by tag and placed as one
    multiset per colour; aut_order carries the weight N.  Each graph
    appears once, in canonical form, sorted by (genera, edges, legs).
    """
    if isinstance(tags, int):
        if tags < 0:
            raise ValueError(f"leg count must be non-negative, got {tags}")
        tags, colours = ("H0",) * tags, [[m] for m in range(tags)]
    else:
        tags = tuple(normalize_tag(t) for t in tags)
        colours = [[m for m, t in enumerate(tags) if t == c] for c in dict.fromkeys(tags)]
    n = len(tags)
    _check_request(g, n)
    slot = sorted(range(n), key=sum(colours, []).__getitem__)  # m at place[slot[m]]
    runs = [(slot[c[0]], slot[c[0]] + len(c)) for c in colours if len(c) > 1]
    labelings = prod(factorial(len(c)) for c in colours)
    out = []
    for nv in range(1, 2 * g - 1 + n):
        for genera in combinations_with_replacement(range(g + 1), nv):
            ne = g - sum(genera) + nv - 1
            if ne < 0:
                continue
            for edges in _edge_multisets(genera, ne, n):
                stabilizer = _edge_stabilizer(genera, edges)
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
                        out.append(StableGraph(genera, edges, legs, tags, _ratio(full, labelings),
                                               tuple(group)))
    out.sort(key=lambda gr: (gr.genera, gr.edges, gr.legs))
    return out

