"""Recognizing and inverting derived subdivisions.

If a complex K is the derived subdivision of some T with the chain labels
forgotten, every vertex of K stands for a face of T and carries a well
defined rank (the dimension of that face).  Each facet of K is a maximal
chain, so its vertices carry ranks 0..L-1 bijectively.  Rank recovery is
therefore a constraint problem over the facets, and once ranks are known the
rest is forced: the rank-0 vertices are the vertices of T, and the face of T
behind a vertex u is exactly the set of rank-0 neighbors of u (every vertex
of a face is joined to its barycenter chain vertex inside some chain).

Every recovered candidate is verified by rebuilding the subdivision and
translating it back through the vertex correspondence; only an exact facet
set match is accepted, so a wrong rank solution can never leak through.
"""

import itertools

from .complexes import SimplicialComplex, _maximal, face_tuple
from .errors import NotDerivedSubdivisionError
from .subdivision import sd


def rank_colorings(complex):
    """Yield every rank assignment giving each facet the ranks 0..L-1."""
    facets = list(complex.facets)
    ranks = {}

    def rec(i):
        if i == len(facets):
            yield dict(ranks)
            return
        F = facets[i]
        need = set(range(len(F)))
        free = []
        for v in F:
            if v in ranks:
                if ranks[v] not in need:
                    return
                need.discard(ranks[v])
            else:
                free.append(v)
        for perm in itertools.permutations(sorted(need)):
            for v, r in zip(free, perm):
                ranks[v] = r
            yield from rec(i + 1)
            for v in free:
                del ranks[v]

    yield from rec(0)


def rank_coloring(complex):
    """First rank assignment, or None when the facets admit none."""
    for ranks in rank_colorings(complex):
        return ranks
    return None


def _try_ranks(complex, ranks):
    zero = {v for v, r in ranks.items() if r == 0}
    # rank-0 neighbours, read off the facets; u itself counts only when its
    # rank is 0, and then its face is (u,) anyway
    below = {v: set() for v in complex.vertices}
    for F in complex.facets:
        zs = [v for v in F if v in zero]
        for v in F:
            below[v].update(zs)
    faces = {}
    seen = set()
    for u in complex.vertices:
        if ranks[u] == 0:
            fu = (u,)
        else:
            fu = face_tuple(below[u])
        if len(fu) != ranks[u] + 1 or fu in seen:
            return None
        seen.add(fu)
        faces[u] = fu
    candidate = SimplicialComplex(_maximal(list(faces.values())))
    back = {f: u for u, f in faces.items()}
    translated = set()
    for chain in sd(candidate).complex.facets:
        try:
            translated.add(face_tuple(back[c] for c in chain))
        except KeyError:
            return None
    if translated != set(complex.facets):
        return None
    return candidate


def _reconstruct_connected(complex):
    for ranks in rank_colorings(complex):
        got = _try_ranks(complex, ranks)
        if got is not None:
            return got
    return None


def reconstruct(complex):
    """Invert a derived subdivision, keeping the rank-0 vertex labels.

    Raises NotDerivedSubdivisionError when the complex is not the derived
    subdivision of anything.
    """
    if not complex.facets:
        return SimplicialComplex()
    pieces = []
    for part in complex.connected_components():
        got = _reconstruct_connected(part)
        if got is None:
            raise NotDerivedSubdivisionError(
                "no rank structure of a derived subdivision fits")
        pieces.extend(got.facets)
    return SimplicialComplex(pieces)
