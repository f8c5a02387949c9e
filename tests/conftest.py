"""Shared generators for randomized tests.

These are deliberately independent of the package internals: maximality
filtering and facet sampling are redone here by hand so that expected values
never lean on the code under test.
"""

import random
import warnings

from hypothesis import strategies as st

from scx import SimplicialComplex


def maximal_faces(faces):
    """Keep the inclusion-maximal members of a family of vertex tuples."""
    faces = [tuple(sorted(set(f), key=repr)) for f in faces]
    out = []
    for f in sorted(set(faces), key=len, reverse=True):
        if not any(set(f) < set(g) for g in out):
            out.append(f)
    return out


def random_complex(seed, n_vertices=8, max_dim=3, n_samples=7):
    """Random complex from sampled faces; always has at least one facet."""
    rng = random.Random(seed)
    faces = []
    for _ in range(n_samples):
        size = rng.randint(1, max_dim + 1)
        faces.append(tuple(rng.sample(range(n_vertices), size)))
    return SimplicialComplex(maximal_faces(faces))


def random_pure_complex(seed, n_vertices=8, dim=2, n_facets=6):
    """Random pure complex with a connected facet graph, grown facet by facet."""
    rng = random.Random(seed)
    first = tuple(rng.sample(range(n_vertices), dim + 1))
    facets = [first]
    guard = 0
    while len(facets) < n_facets and guard < 200:
        guard += 1
        base = list(rng.choice(facets))
        rng.shuffle(base)
        drop = base.pop()
        candidates = [v for v in range(n_vertices) if v not in base and v != drop]
        if not candidates:
            continue
        new = tuple(sorted(base + [rng.choice(candidates)]))
        if new not in {tuple(sorted(F)) for F in facets}:
            facets.append(new)
    return SimplicialComplex(maximal_faces(facets))


labels = st.one_of(st.integers(-3, 40), st.text("abc", max_size=2),
                   st.tuples(st.integers(0, 2), st.text("ab", max_size=1)))


@st.composite
def labelled_complexes(draw):
    """Random complexes on int, str and tuple labels, dominated faces included."""
    names = draw(st.lists(labels, min_size=7, max_size=7, unique=True))
    raw = draw(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4,
                                 unique=True), max_size=8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex([tuple(names[i] for i in f) for f in raw])


def petersen():
    """The Petersen graph as a 1-complex: outer 5-cycle 0..4, inner
    pentagram 5..9, spokes i -- i+5.  Every vertex lies in three edges, so
    it is no pseudomanifold, and no two vertices are twins (no swap of two
    vertices maps edges to edges), so a canonical-form search on it meets
    one leaf per automorphism, 120 in all."""
    return SimplicialComplex([(i, (i + 1) % 5) for i in range(5)]
                             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                             + [(i, i + 5) for i in range(5)])


def glued_subdivided_triangles(n):
    """n copies of sd(triangle), built by hand, sharing only their barycentre.

    Copy i has corners c(j) = 6i + 1 + j and, on the edge opposite c(j),
    the midpoint m(j) = 6i + 4 + j; the barycentre is 0.  Each copy accepts
    two rank orderings (the true one, and ranks 0 and 1 swapped), and the
    shared barycentre rejects every combination, so an unbudgeted
    reconstruct tries about 2^(n+1) orderings.
    """
    return SimplicialComplex([(0, 6 * i + 1 + k, 6 * i + 4 + j)
                              for i in range(n) for j in range(3)
                              for k in range(3) if k != j])
