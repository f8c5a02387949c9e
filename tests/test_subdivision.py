"""Derived subdivision: counts, carriers, budgets, neighborhoods."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scx.complexes
import scx.subdivision
from scx import BudgetExceededError, InvalidComplexError, SimplicialComplex, full_simplex, octahedron, simplex_boundary
from scx.complexes import _vkey, face_tuple
from scx.subdivision import Subdivision, derived_neighborhood, sd, sd_k

from conftest import labelled_complexes, random_complex


def test_sd_of_triangle():
    s = sd(full_simplex(2))
    assert len(s.complex.facets) == 6
    assert s.complex.f_vector() == (7, 12, 6)
    assert s.complex.euler_characteristic() == 1
    # chain vertices are the faces of the base
    assert set(s.complex.vertices) == set(full_simplex(2).faces())


def test_sd_of_small_spheres():
    s = sd(simplex_boundary(3))
    assert len(s.complex.facets) == 24
    assert s.complex.f_vector() == (14, 36, 24)
    assert s.complex.euler_characteristic() == 2
    assert s.complex.classify_surface().kind == "closed-surface"

    assert len(sd(octahedron()).complex.facets) == 48


def test_facet_count_law_and_euler_on_randoms():
    for seed in range(10):
        c = random_complex(seed)
        s = sd(c).complex
        want = sum(math.factorial(len(F)) for F in c.facets)
        assert len(s.facets) == want
        assert s.euler_characteristic() == c.euler_characteristic()


def test_carrier_and_table():
    s = sd(full_simplex(2))
    assert s.carrier(((0,),)) == (0,)
    assert s.carrier(((0,), (0, 1))) == (0, 1)
    assert s.carrier(((0,), (0, 1), (0, 1, 2))) == (0, 1, 2)
    with pytest.raises(InvalidComplexError):
        s.carrier(((0,), (1, 2)))  # not a chain

    rows = s.table()
    assert len(rows) == len(s.complex.faces())
    assert rows[0][0] == (rows[0][1],)  # a vertex carries its own label


def test_sd_k_rounds():
    c = simplex_boundary(3)
    s2 = sd_k(c, 2)
    assert s2.rounds == 2
    assert len(s2.complex.facets) == 24 * 6
    assert s2.base == sd(c).complex
    assert s2.complex.euler_characteristic() == 2

    s0 = sd_k(c, 0)
    assert s0.complex == c
    assert s0.carrier((0, 1)) == (0, 1)


def test_sd_budget():
    with pytest.raises(BudgetExceededError):
        sd(full_simplex(7), max_facets=1000)
    with pytest.raises(BudgetExceededError):
        sd_k(full_simplex(5), 2, max_facets=1000)  # second round blows up
    err = None
    try:
        sd(full_simplex(7), max_facets=1000)
    except BudgetExceededError as e:
        err = e
    assert err.requested == math.factorial(8) and err.budget == 1000


def test_a_negative_facet_budget_is_refused_before_any_work():
    """Zero rounds and a sub that is not a face would each answer or raise
    something else first."""
    bad = "max_facets must be at least 0, got -1"
    for call in (lambda: sd(full_simplex(2), max_facets=-1),
                 lambda: sd_k(full_simplex(2), 0, max_facets=-1),
                 lambda: derived_neighborhood(
                     full_simplex(2), SimplicialComplex([(7,)]), k=0,
                     max_facets=-1)):
        with pytest.raises(InvalidComplexError, match=bad):
            call()
    assert len(sd(full_simplex(2), max_facets=6).complex.facets) == 6


def test_derived_neighborhood_of_vertex_in_triangle():
    nb = derived_neighborhood(full_simplex(2), SimplicialComplex([(0,)]))
    assert len(nb.facets) == 2
    for F in nb.facets:
        assert (0,) in F


def test_derived_neighborhood_in_surfaces():
    o = octahedron()
    disk = derived_neighborhood(o, SimplicialComplex([(0,)]))
    sc = disk.classify_surface()
    assert (sc.kind, sc.genus, sc.boundary_components) == ("surface-with-boundary", 0, 1)

    edge = derived_neighborhood(simplex_boundary(3), SimplicialComplex([(0, 1)]))
    sc = edge.classify_surface()
    assert (sc.kind, sc.genus, sc.boundary_components) == ("surface-with-boundary", 0, 1)

    equator = SimplicialComplex([(2, 4), (3, 4), (3, 5), (2, 5)])
    ann = derived_neighborhood(o, equator)
    sc = ann.classify_surface()
    assert (sc.kind, sc.euler_characteristic, sc.boundary_components) == (
        "surface-with-boundary", 0, 2)

    disk2 = derived_neighborhood(o, SimplicialComplex([(0,)]), k=2)
    sc = disk2.classify_surface()
    assert (sc.kind, sc.genus, sc.boundary_components) == ("surface-with-boundary", 0, 1)


def test_derived_neighborhood_validates():
    with pytest.raises(InvalidComplexError):
        derived_neighborhood(full_simplex(2), SimplicialComplex([(0, 3)]))
    with pytest.raises(InvalidComplexError):
        derived_neighborhood(full_simplex(2), SimplicialComplex([(0,)]), k=0)


def stellar_star(facets, sigma, apex):
    # independent oracle step: star one face, replacing every facet that
    # contains it by the cones over its deletion walls
    s = set(sigma)
    out = []
    for F in facets:
        if s <= set(F):
            for v in sigma:
                out.append(tuple(x for x in F if x != v) + (apex,))
        else:
            out.append(F)
    return out


def stellar_sd(C):
    """Star every face of C from the top dimension down, fresh apex each."""
    facets = list(C.facets)
    for k in range(C.dim, 0, -1):
        for sigma in sorted(C.faces(k)):
            facets = stellar_star(facets, sigma, ("b", sigma))
    return SimplicialComplex(facets)


def test_sd_agrees_with_stellar_oracle():
    cases = [full_simplex(2), full_simplex(3), simplex_boundary(3),
             SimplicialComplex([(0, 1, 2), (2, 3), (3, 4)])]
    for seed in range(4):
        cases.append(random_complex(seed, n_vertices=6, max_dim=2, n_samples=4))
    for C in cases:
        ref = stellar_sd(C)
        mapping = {}
        for v in ref.vertices:
            mapping[v] = v[1] if isinstance(v, tuple) and v[0] == "b" else (v,)
        assert set(ref.relabel(mapping).facets) == set(sd(C).complex.facets)


def sd_by_face_tuple(C):
    """The order complex built label by label: every prefix of every ordering
    of every facet made a face by face_tuple, the chains checked and sorted by
    the constructor."""
    chains = []
    for F in C.facets:
        for perm in itertools.permutations(F):
            chains.append(tuple(face_tuple(perm[:i + 1]) for i in range(len(perm))))
    return SimplicialComplex(chains)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(labelled_complexes(), labelled_complexes().map(sd_by_face_tuple)))
def test_ranked_chains_match_the_label_construction(C):
    """int, str and tuple labels, non-pure complexes, 0-dim facets, the empty
    complex, and their subdivisions (labels nested one level deeper)."""
    assert sd(C).complex.facets == sd_by_face_tuple(C).facets


def test_sd_sorts_no_label(monkeypatch):
    # the chains are ranked and handed over: no face_tuple, no constructor
    mixed = SimplicialComplex([(0, "a", (1, "b")), ("a", 2), ((0, ""),)])
    inputs = [octahedron(), sd(octahedron()).complex, mixed, SimplicialComplex()]
    want = [sd_by_face_tuple(C).facets for C in inputs]
    tet = full_simplex(3)
    want_k = sd_by_face_tuple(sd_by_face_tuple(tet)).facets

    def refuse(*args):
        raise AssertionError("sd built a face or a complex label by label")

    monkeypatch.setattr(scx.complexes, "face_tuple", refuse)
    monkeypatch.setattr(scx.subdivision, "face_tuple", refuse)
    monkeypatch.setattr(SimplicialComplex, "__init__", refuse)
    assert [sd(C).complex.facets for C in inputs] == want
    assert sd_k(tet, 2).complex.facets == want_k


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(labelled_complexes())
def test_sd_stores_its_vertices_in_label_order(C):
    """sd hands the vertex order it builds to the complex it returns, so
    its vertices are never sorted again; a fresh _vkey sort agrees, one
    round and two rounds deep, on int, str and tuple labels."""
    for out in (sd(C).complex, sd_k(C, 2).complex):
        labels = {v for F in out.facets for v in F}
        assert out._vertices == tuple(sorted(labels, key=_vkey))
