"""Derived (order-complex) subdivision and derived neighborhoods.

The derived subdivision of a complex is the order complex of its face poset:
vertices are the faces, facets are the maximal chains.  A maximal chain inside
a facet F is a sequence of nested prefixes of an ordering of F, so F
contributes (dim F + 1)! facets and the subdivision of the whole complex has
sum_F (dim F + 1)! facets.  Chain vertices keep their face-of-the-base labels,
which is what lets neighborhoods and repeated rounds line up without any
renaming; normalize() flattens the labels when ints are wanted.

sd() works on the base's vertex ranks (SimplicialComplex._ranked): every
base face is ranked once as its tuple of vertex ranks, each chain is an
increasing tuple of face ranks, the chains are sorted once and handed to
the complex through SimplicialComplex._canonical (proof in sd).
"""

import itertools
import math

from .complexes import SimplicialComplex, face_tuple, _closure, _fkey
from .errors import InvalidComplexError, check_budget, spend

DEFAULT_MAX_FACETS = 10 ** 7


class Subdivision:
    """One round of derived subdivision with its carrier bookkeeping.

    base is the complex subdivided in the last round; rounds counts how many
    rounds produced `complex` in total.  carrier maps a face of `complex` to
    the smallest face of `base` containing it, which for a chain is just its
    top element.
    """

    def __init__(self, base, complex, rounds=1):
        self.base = base
        self.complex = complex
        self.rounds = rounds

    def carrier(self, face):
        f = face_tuple(face)
        if not self.complex.has_face(f):
            raise InvalidComplexError("%r is not a face of the subdivision" % (f,))
        if self.rounds == 0:
            return f
        return max(f, key=len)

    def table(self):
        """All (face, carrier) pairs, smallest faces first."""
        fs = sorted(self.complex.faces(), key=lambda f: (len(f), _fkey(f)))
        return [(f, self.carrier(f)) for f in fs]


def _predict_facets(complex):
    return sum(math.factorial(len(F)) for F in complex.facets)


def _chain_shape(n):
    """The maximal chains of a facet of n vertices, by vertex position.

    Returns (subsets, chains): the nonempty subsets of range(n) as increasing
    tuples, in increasing order, and one chain per ordering of range(n), as
    the increasing indices into subsets of the ordering's prefixes.
    """
    subsets = sorted(s for k in range(1, n + 1)
                     for s in itertools.combinations(range(n), k))
    at = {s: i for i, s in enumerate(subsets)}
    chains = [tuple(sorted(at[tuple(sorted(p[:i + 1]))] for i in range(n)))
              for p in itertools.permutations(range(n))]
    return subsets, chains


def sd(complex, max_facets=DEFAULT_MAX_FACETS):
    """Derived subdivision, as a Subdivision object.

    Each base face gets the rank of its tuple of vertex ranks; a chain is a
    tuple of face ranks.  Chain labels are looked up only at the end, so no
    chain or face label is sorted or keyed.
    """
    check_budget("max_facets", max_facets)
    spend(_predict_facets(complex), max_facets,
          "subdivision would have %(requested)d facets (budget %(budget)d)")
    verts, _, ranked = complex._ranked()
    faces = sorted(_closure(ranked))
    rank = {f: r for r, f in enumerate(faces)}
    shapes, chains = {}, []
    for F in ranked:
        if len(F) not in shapes:
            shapes[len(F)] = _chain_shape(len(F))
        subsets, shape = shapes[len(F)]
        table = [rank[tuple(map(F.__getitem__, s))] for s in subsets]
        chains.extend(tuple(map(table.__getitem__, c)) for c in shape)
    chains.sort()
    # The facets handed over meet the four conditions of _canonical:
    # - strictly increasing: a facet's vertex ranks increase (_ranked), and
    #   position subsets, taken in order, compare as the vertex-rank tuples
    #   of the faces they pick.  Those tuples sort as the faces do under
    #   _fkey, and a face label is a tuple keyed (2, _fkey), so face ranks
    #   follow the _vkey order of chain labels.  A shape chain lists its
    #   distinct prefixes by increasing subset index, so their ranks
    #   increase.
    # - distinct: a chain of F holds F and only faces of F, and no other
    #   facet contains F; within F, an ordering is read off its prefixes.
    # - unnested: a chain of F inside a chain of G puts F inside G, so
    #   F = G, and both chains have len(F) elements.
    # - _fkey order: face ranks follow _vkey order, so rank tuples sort as
    #   their label tuples do.
    labels = [tuple(map(verts.__getitem__, f)) for f in faces]
    facets = [tuple(map(labels.__getitem__, c)) for c in chains]
    out = SimplicialComplex._canonical(facets)
    # every base face lies in a maximal chain, and face ranks follow the
    # _vkey order of the labels: labels are out's vertices, in order
    out._vertices = tuple(labels)
    return Subdivision(base=complex, complex=out, rounds=1)


def sd_k(complex, k, max_facets=DEFAULT_MAX_FACETS):
    """k rounds of derived subdivision; base of the result is round k-1."""
    check_budget("max_facets", max_facets)
    if k < 0:
        raise InvalidComplexError("subdivision rounds must be >= 0")
    out = Subdivision(base=complex, complex=complex, rounds=0)
    for _ in range(k):
        nxt = sd(out.complex, max_facets=max_facets)
        out = Subdivision(base=out.complex, complex=nxt.complex, rounds=out.rounds + 1)
    return out


def derived_neighborhood(complex, sub, k=1, max_facets=DEFAULT_MAX_FACETS):
    """Closed union of the facets of sd^k(complex) meeting sd^k(sub).

    sub must be a subcomplex; its faces are faces of the ambient complex, so
    after k rounds its chain vertices are literally a subset of the ambient
    chain vertices and membership is plain label lookup.
    """
    check_budget("max_facets", max_facets)
    if k < 1:
        raise InvalidComplexError("derived neighborhoods need at least one round")
    for F in sub.facets:
        if not complex.has_face(F):
            raise InvalidComplexError("%r is not a face of the ambient complex" % (F,))
    ambient = sd_k(complex, k, max_facets=max_facets).complex
    marked = set(sd_k(sub, k, max_facets=max_facets).complex.vertices)
    picked = [F for F in ambient.facets if marked & set(F)]
    return SimplicialComplex(picked)
