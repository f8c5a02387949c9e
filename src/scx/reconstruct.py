"""Recognizing and inverting derived subdivisions.

If a complex K is the derived subdivision of some T with the chain labels
forgotten, every vertex of K stands for a face of T and carries a well
defined rank (the dimension of that face).  Each facet of K is a maximal
chain, so its vertices carry ranks 0..L-1 bijectively, and the two vertices
facing a shared ridge carry the same rank: the ranks of a seed facet fix
those of its ridge-connected piece, along the spanning tree of ridge
crossings that the complex's incidence index lists for the piece.  Rank
recovery searches seed orderings piece by piece, on an explicit stack,
and reconstruct's budget counts the orderings it tries.  reconstruct
groups the pieces by shared vertices into vertex-connected parts, whose
ranks are independent, and searches each part on its own.
The rank-0 vertices are those of T, and the face of T behind a vertex u
is the set of rank-0 neighbors of u.
reconstruct keeps a piece's ranks only if each of its vertices has rank + 1
rank-0 neighbors inside it, as in any sd(T): a chain through the barycenter
of a face lies in sd(F) for a facet F of T, and sd(F) in one piece.  A
candidate T is accepted only when the chains of sd(T), translated through
the vertex correspondence, are the facets of K.
"""

import itertools

from .complexes import SimplicialComplex, _maximal
from .errors import (DEFAULT_MAX_NODES, NotDerivedSubdivisionError,
                     check_budget, spend)


def _rank0_neighbours(facets, ranks):
    """Vertex -> the rank-0 vertices sharing one of the facets with it."""
    below = {}
    for F in facets:
        for z in F:  # stops at the facet's rank-0 vertex
            if not ranks[z]:
                break
        for v in F:
            below.setdefault(v, set()).add(z)
    return below


def _rankings(complex, strict, tick=lambda: None, pieces=None):
    """rank_colorings' assignments in the same order, each with the
    complex's _rank0_neighbours table under it (None unless strict); with
    strict, only those whose every piece passes the rank-0 neighbour count.
    tick is called once per seed ordering tried.  pieces, the (s, tree)
    pieces of the complex's incidence index by default, are those ranked."""
    fs = complex.facets
    # per ridge-connected piece: its facets, seed first, and the vertex pairs
    # facing the ridges of its spanning tree
    pieces = [([fs[s]] + [fs[j] for _, _, j, _ in tree],
               [(fs[i][p], fs[j][q]) for i, p, j, q in tree])
              for s, tree in (complex._incidence()[3] if pieces is None
                              else pieces)]
    ranks = {}
    tables = [None] * len(pieces)  # each piece's table, for strict

    def seeds(k):
        # one yield per seed ordering the piece accepts; the piece's ranks
        # stay in place until the generator resumes
        facets, links = pieces[k]
        free = [v for v in facets[0] if v not in ranks]
        need = set(range(len(facets[0]))).difference(
            ranks[v] for v in facets[0] if v in ranks)
        if len(need) != len(free):
            return  # a rank already on the seed repeats or is too large
        for perm in itertools.permutations(sorted(need)):
            tick()
            ranks.update(zip(free, perm))
            added = list(free)
            for x, y in links:
                if y not in ranks:
                    ranks[y] = ranks[x]
                    added.append(y)
                elif ranks[y] != ranks[x]:
                    break
            else:
                if strict:
                    tables[k] = _rank0_neighbours(facets, ranks)
                if not strict or all(len(zs) == ranks[v] + 1
                                     for v, zs in tables[k].items()):
                    yield True
            for v in added:
                del ranks[v]

    stack = []
    while True:
        if len(stack) == len(pieces):
            yield dict(ranks), _merged(tables) if strict else None
        else:
            stack.append(seeds(len(stack)))
        while stack and not next(stack[-1], False):
            stack.pop()
        if not stack:
            return


def _merged(tables):
    """One vertex -> rank-0 neighbours table holding those of all tables."""
    if len(tables) == 1:
        return tables[0]
    below = {}
    for table in tables:
        for v, zs in table.items():
            below.setdefault(v, set()).update(zs)
    return below


def rank_colorings(complex):
    """Yield every rank assignment giving each facet the ranks 0..L-1, in the
    order of a facet-by-facet search over the sorted facets."""
    return (ranks for ranks, _ in _rankings(complex, False))


def rank_coloring(complex):
    """First rank assignment, or None when the facets admit none."""
    for ranks in rank_colorings(complex):
        return ranks
    return None


def _parts(complex):
    """The ridge-connected pieces (s, tree) of the complex's incidence index
    grouped into its vertex-connected parts, as (pieces, facets) per part;
    parts, and the pieces of each, come by least facet."""
    fs, pieces = complex.facets, complex._incidence()[3]
    if len(pieces) == 1:  # one ridge-connected piece is vertex-connected
        return [(pieces, fs)]
    facets = [[fs[s]] + [fs[j] for _, _, j, _ in tree] for s, tree in pieces]
    verts = [set(itertools.chain.from_iterable(f)) for f in facets]
    holders = {}  # vertex -> the pieces holding it
    for k, vs in enumerate(verts):
        for v in vs:
            holders.setdefault(v, []).append(k)
    parts, seen = [], [False] * len(pieces)
    for k in range(len(pieces)):
        if not seen[k]:
            seen[k] = True
            part = [k]
            for a in part:  # breadth first over shared vertices
                for b in itertools.chain.from_iterable(map(holders.get, verts[a])):
                    if not seen[b]:
                        seen[b] = True
                        part.append(b)
            part.sort()
            parts.append(([pieces[a] for a in part],
                          [F for a in part for F in facets[a]]))
    return parts


def _try_ranks(facets, ranks, below):
    """Facets, as sets, of the T with sd(T) = the complex of the facets
    under ranks, or None; below is their _rank0_neighbours table under
    ranks."""
    back = {}  # face of the candidate -> the vertex standing for it
    for u, zs in below.items():
        fu = frozenset(zs)
        if len(fu) != ranks[u] + 1 or fu in back:
            return None
        back[fu] = u
    top = _maximal(back)
    # the maximal chains of sd(candidate) ending at each face, translated
    # through back: those of its subfaces one dimension down, extended
    chains = {}
    for fu in sorted(back, key=len):
        subs = [chains.get(fu - {v}) for v in fu] if len(fu) > 1 else [[()]]
        if None in subs:
            return None
        chains[fu] = [c + (back[fu],) for cs in subs for c in cs]
    if {frozenset(c) for F in top for c in chains[F]} == set(map(frozenset, facets)):
        return top
    return None


def reconstruct(complex, max_nodes=DEFAULT_MAX_NODES):
    """Invert a derived subdivision, keeping the rank-0 vertex labels.

    Raises NotDerivedSubdivisionError when the complex is not the derived
    subdivision of anything, and BudgetExceededError when the rank search
    tries more than max_nodes seed orderings over all components.
    """
    check_budget("max_nodes", max_nodes)
    if not complex.facets:
        return SimplicialComplex()
    nodes = itertools.count(1)
    tick = lambda: spend(next(nodes), max_nodes,
                         "reconstruct tried more than %(budget)d seed orderings")
    out = []
    for pieces, facets in _parts(complex):
        tries = (_try_ranks(facets, ranks, below)
                 for ranks, below in _rankings(complex, True, tick, pieces))
        got = next(filter(None, tries), None)
        if got is None:
            raise NotDerivedSubdivisionError(
                "no rank structure of a derived subdivision fits")
        out.extend(got)
    return SimplicialComplex(out)
