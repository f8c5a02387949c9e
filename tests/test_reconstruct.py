"""Tests for inverting derived subdivisions.

Oracle notes: the positive cases lean on sd() itself, whose facet counts and
chain structure are pinned independently in test_subdivision, plus the
isomorphism checker pinned in test_census.  The negative cases are decided by
hand (odd cycles admit no alternating rank assignment, a lone edge or a
4-cycle forces two vertices onto the same recovered face).
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scx.complexes import (SimplicialComplex, full_simplex, octahedron,
                           simplex_boundary)
from scx.census import iso
from scx.errors import (BudgetExceededError, InvalidComplexError,
                        NotDerivedSubdivisionError)
from scx.reconstruct import _rankings, rank_coloring, rank_colorings, reconstruct
from scx.subdivision import sd, sd_k

from conftest import glued_subdivided_triangles, maximal_faces, random_complex


def unwrap(complex):
    # reconstruct keeps the subdivision's rank-0 labels, which for a raw
    # sd() output are singleton tuples (v,)
    return complex.relabel({(v,): v for (v,) in complex.vertices})


def test_reconstruct_fills_no_face_cache(monkeypatch):
    # neighbours come from the facets: no closure of the input, or of its
    # connected pieces, is expanded
    K = sd(full_simplex(2)).complex
    assert unwrap(reconstruct(K)).facets == full_simplex(2).facets
    assert K._faces is None and K._by_dim is None

    def refuse(self, dim=None):
        raise AssertionError("reconstruct expanded a face closure")

    monkeypatch.setattr(SimplicialComplex, "faces", refuse)
    for T in (full_simplex(3), simplex_boundary(3)):
        assert unwrap(reconstruct(sd(T).complex)).facets == T.facets


def test_roundtrip_triangle():
    T = full_simplex(3)
    K = sd(T).complex
    assert unwrap(reconstruct(K)).facets == T.facets


def test_roundtrip_hollow_tetrahedron():
    T = simplex_boundary(4)
    K = sd(T).complex
    assert unwrap(reconstruct(K)).facets == T.facets


def test_roundtrip_after_relabeling():
    T = simplex_boundary(4)
    K = sd(T).complex.normalize()
    got = reconstruct(K)
    assert iso(got, T) is not None


def test_roundtrip_nonpure():
    T = SimplicialComplex([(0, 1, 2), (2, 3), (4, 5)])
    K = sd(T).complex
    assert unwrap(reconstruct(K)).facets == T.facets


def test_roundtrip_disconnected():
    T = SimplicialComplex([(0, 1, 2), (5, 6)])
    K = sd(T).complex.normalize()
    got = reconstruct(K)
    assert len(got.connected_components()) == 2
    assert iso(got, T) is not None


def test_point_and_empty():
    assert reconstruct(SimplicialComplex([(7,)])).facets == ((7,),)
    assert reconstruct(SimplicialComplex([])).facets == ()


def test_path_of_two_edges_inverts_to_an_edge():
    K = SimplicialComplex([(0, 1), (1, 2)])
    got = reconstruct(K)
    assert got.f_vector() == (2, 1)


def test_odd_cycles_rejected():
    for n in (3, 5, 7):
        K = SimplicialComplex([(i, (i + 1) % n) for i in range(n)])
        with pytest.raises(NotDerivedSubdivisionError):
            reconstruct(K)


def test_lone_edge_and_four_cycle_rejected():
    with pytest.raises(NotDerivedSubdivisionError):
        reconstruct(SimplicialComplex([(0, 1)]))
    with pytest.raises(NotDerivedSubdivisionError):
        reconstruct(SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)]))


def test_six_cycle_inverts_to_three_cycle():
    K = SimplicialComplex([(i, (i + 1) % 6) for i in range(6)])
    got = reconstruct(K)
    assert got.f_vector() == (3, 3)


def test_rank_coloring_properties():
    K = sd(full_simplex(3)).complex.normalize()
    ranks = rank_coloring(K)
    assert ranks is not None
    for F in K.facets:
        assert sorted(ranks[v] for v in F) == list(range(len(F)))
    assert rank_coloring(SimplicialComplex([(0, 1), (1, 2), (0, 2)])) is None


def test_rank_colorings_all_satisfy():
    K = SimplicialComplex([(0, 1), (1, 2)])
    sols = list(rank_colorings(K))
    assert len(sols) == 2
    for ranks in sols:
        for F in K.facets:
            assert sorted(ranks[v] for v in F) == list(range(len(F)))


def test_random_roundtrips():
    for seed in range(25):
        T = random_complex(seed, n_vertices=7, max_dim=2, n_samples=5)
        if not T.facets:
            continue
        K = sd(T).complex.normalize()
        got = reconstruct(K)
        assert iso(got, T) is not None


def peels_one_round(base, k):
    got = reconstruct(sd_k(base, k).complex.normalize())
    return iso(got, sd_k(base, k - 1).complex) is not None


# a search with one interpreter frame per facet overflowed the stack on the
# 1728 facets of sd^3(oct) and the 1296 of sd^4(triangle)
def test_reconstruct_third_subdivision_of_the_octahedron():
    assert peels_one_round(octahedron(), 3)


def test_reconstruct_fourth_subdivision_of_the_triangle():
    assert peels_one_round(full_simplex(2), 4)


def test_reconstruct_fourth_subdivision_of_the_octahedron():
    K = sd(sd_k(octahedron(), 3).complex.normalize()).complex
    assert reconstruct(K).f_vector() == (866, 2592, 1728)


def test_bouquet_of_triangles_rejected_at_once():
    # 30 triangles on one shared vertex: no piece has the neighbour counts
    # of a derived subdivision, so the search ends at the first piece
    K = SimplicialComplex([(0, 2 * i + 1, 2 * i + 2) for i in range(30)])
    start = time.perf_counter()
    with pytest.raises(NotDerivedSubdivisionError):
        reconstruct(K)
    assert time.perf_counter() - start < 1.0


def test_a_negative_reconstruct_budget_is_refused_before_any_work():
    for K in (SimplicialComplex(), sd(octahedron()).complex):
        with pytest.raises(InvalidComplexError,
                           match="max_nodes must be at least 0, got -1"):
            reconstruct(K, max_nodes=-1)


def test_reconstruct_budget_stops_an_exponential_search():
    # about 2^(n+1) seed orderings before the "no": 0.3 s unbudgeted at
    # n = 12, and out of reach at n = 40
    for n in (12, 40):
        K = glued_subdivided_triangles(n)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            reconstruct(K, max_nodes=1000)
        assert time.perf_counter() - start < 2.0
        assert (info.value.requested, info.value.budget) == (1001, 1000)
        assert str(info.value) == "reconstruct tried more than 1000 seed orderings"
    # the budget counts every ordering tried: 34 suffice for four copies
    K = glued_subdivided_triangles(4)
    with pytest.raises(BudgetExceededError):
        reconstruct(K, max_nodes=33)
    for budget in (34, 10 ** 6):
        with pytest.raises(NotDerivedSubdivisionError):
            reconstruct(K, max_nodes=budget)
    # one ordering per ridge-connected piece inverts a clean subdivision
    T = octahedron()
    assert unwrap(reconstruct(sd(T).complex, max_nodes=1)).facets == T.facets


def budget_needed(K):
    """The least max_nodes under which reconstruct(K) ends in an answer."""
    for budget in itertools.count(1):
        try:
            reconstruct(K, max_nodes=budget)
        except NotDerivedSubdivisionError:
            pass
        except BudgetExceededError:
            continue
        return budget


def shifted(K, by):
    return K.relabel({v: v + by for v in K.vertices})


def test_reconstruct_searches_each_vertex_connected_part_on_its_own():
    # sd of two triangles on one vertex is one vertex-connected part of two
    # ridge-connected pieces; beside sd(octahedron) and sd of a path, the
    # input has four pieces in three parts, in each order
    subs = [sd(T).complex.normalize() for T in (
        SimplicialComplex([(0, 3, 4), (0, 1, 2)]), octahedron(),
        SimplicialComplex([(0, 1), (1, 2)]))]
    for shifts in itertools.permutations((0, 100, 200)):
        parts = [shifted(P, by) for P, by in zip(subs, shifts)]
        K = SimplicialComplex([F for P in parts for F in P.facets])
        assert (len(K._incidence()[3]), len(K.connected_components())) == (4, 3)
        assert reconstruct(K).facets == SimplicialComplex(
            [F for P in parts for F in reconstruct(P).facets]).facets
        assert budget_needed(K) == sum(map(budget_needed, parts))
    # a part that inverts is searched once: a search over the whole input
    # would try its other seed orderings after the next part fails
    good = sd(octahedron()).complex.normalize()
    bad = shifted(glued_subdivided_triangles(3), 100)
    K = SimplicialComplex(good.facets + bad.facets)
    with pytest.raises(NotDerivedSubdivisionError):
        reconstruct(K)
    assert budget_needed(K) == budget_needed(good) + budget_needed(bad)


def test_chain_check_rejects_what_the_piece_checks_pass():
    # one rank assignment passes every piece's rank-0 neighbour count, and
    # only the chain check rejects the candidate: in sd(octahedron) minus
    # one facet its translated chains are not the facets, and in
    # sd(triangle) minus the two facets at a corner a face of it has a
    # subface no vertex stands for
    for K in (SimplicialComplex(sd(octahedron()).complex.facets[1:]),
              SimplicialComplex(sd(full_simplex(2)).complex.facets[2:])):
        assert len(list(_rankings(K, True))) == 1
        with pytest.raises(NotDerivedSubdivisionError):
            reconstruct(K)


@st.composite
def small_complexes(draw):
    n = draw(st.integers(1, 6))
    faces = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=4, unique=True),
                          min_size=1, max_size=5))
    return SimplicialComplex(maximal_faces(faces))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_complexes(), st.randoms(use_true_random=False))
def test_reconstruct_inverts_relabeled_subdivisions(T, rng):
    K = sd(T).complex
    labels = list(range(len(K.vertices)))
    rng.shuffle(labels)
    K = K.relabel(dict(zip(K.vertices, labels)))
    assert iso(reconstruct(K), T) is not None


def brute_rank_colorings(K):
    """Every valid assignment, in the order of a facet-by-facet search: by
    the ranks of the facets' vertices read facet after facet."""
    vs = K.vertices
    top = max(len(F) for F in K.facets)
    found = []
    for values in itertools.product(range(top), repeat=len(vs)):
        ranks = dict(zip(vs, values))
        if all(sorted(ranks[v] for v in F) == list(range(len(F)))
               for F in K.facets):
            found.append(ranks)
    return sorted(found, key=lambda r: [r[v] for F in K.facets for v in F])


def test_rank_colorings_match_brute_force():
    cases = [SimplicialComplex([(i, (i + 1) % 6) for i in range(6)]),
             SimplicialComplex([(0, 1, 2), (2, 3), (3, 4), (5,)]),
             SimplicialComplex([(0, 1, 2), (0, 2, 3), (0, 3, 4), (4, 5)]),
             sd(SimplicialComplex([(0, 1), (1, 2)])).complex.normalize()]
    cases += [random_complex(seed, n_vertices=6, max_dim=2, n_samples=4)
              for seed in range(40)]
    for K in cases:
        assert list(rank_colorings(K)) == brute_rank_colorings(K), K.facets
