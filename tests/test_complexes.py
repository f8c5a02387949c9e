"""Core complex type: construction, closure, local operations, surfaces."""

from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings

import scx.complexes
from scx import (
    InvalidComplexError,
    SimplicialComplex,
    face_tuple,
    full_simplex,
    new_complex,
    octahedron,
    simplex_boundary,
)
from scx.subdivision import sd_k

from conftest import labelled_complexes

# 6-vertex projective plane: every edge on exactly two of these ten triangles
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]

# 5-vertex Moebius band: cyclic strip of five triangles
MOEBIUS_FACETS = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)]


def test_face_tuple_sorts_and_rejects_duplicates():
    assert face_tuple((2, 0, 1)) == (0, 1, 2)
    assert face_tuple(("b", 3, ("a",))) == (3, "b", ("a",))
    with pytest.raises(InvalidComplexError):
        face_tuple((1, 1, 2))


def test_constructor_dedups_and_drops_dominated():
    c = SimplicialComplex([(0, 1, 2), (2, 1, 0)])
    assert c.facets == ((0, 1, 2),)
    with pytest.warns(UserWarning, match="dominated"):
        c = SimplicialComplex([(0, 1, 2), (0, 1)])
    assert c.facets == ((0, 1, 2),)


def test_constructor_names_a_label_it_sorts_but_cannot_hash():
    class Unhashable(int):
        __hash__ = None

    facet = (Unhashable(3), Unhashable(1))
    assert face_tuple(facet) == facet[::-1]
    # a generator of facets, read once
    with pytest.raises(InvalidComplexError,
                       match="^unhashable vertex label 1$"):
        SimplicialComplex(F for F in [(0, 2), facet])


def test_constructor_passes_on_a_type_error_of_hashable_labels():
    """Labels that hash but raise TypeError when compared fail the facet
    set once two equal facets meet; every label hashes, so the error is
    passed on as it is, not named an unhashable label."""
    class Incomparable(int):
        __hash__ = int.__hash__

        def __eq__(self, other):
            raise TypeError("labels that do not compare")

    with pytest.raises(TypeError, match="^labels that do not compare$"):
        SimplicialComplex([(Incomparable(0),), (Incomparable(0),)])


def test_empty_inputs():
    assert SimplicialComplex().dim == -1
    assert SimplicialComplex().facets == ()
    with pytest.raises(InvalidComplexError):
        new_complex([])
    with pytest.raises(InvalidComplexError):
        SimplicialComplex([()])


def test_basic_counts():
    t = full_simplex(2)
    assert t.dim == 2
    assert t.f_vector() == (3, 3, 1)
    assert t.euler_characteristic() == 1

    s = simplex_boundary(3)
    assert s.f_vector() == (4, 6, 4)
    assert s.euler_characteristic() == 2

    o = octahedron()
    assert o.f_vector() == (6, 12, 8)
    assert o.euler_characteristic() == 2


def test_faces_and_membership():
    s = simplex_boundary(3)
    assert len(s.faces()) == 4 + 6 + 4
    assert s.faces(2) == frozenset(s.facets)
    assert (0, 2) in s
    assert not s.has_face((0, 1, 2, 3))


def test_link_of_vertex_in_sphere_is_cycle():
    lk = simplex_boundary(3).link((0,))
    assert lk.f_vector() == (3, 3)
    assert lk.classify_surface().kind == "not-a-surface"  # it is a curve

    lk2 = octahedron().link((2, 4))
    assert lk2.facets == ((0,), (1,))

    # link of a facet has nothing left
    assert full_simplex(2).link((0, 1, 2)).facets == ()

    with pytest.raises(InvalidComplexError):
        octahedron().link((0, 1))  # antipodal pair, not an edge


def test_star_is_closed():
    st = octahedron().star((0,))
    assert len(st.facets) == 4
    assert st.f_vector() == (5, 8, 4)
    assert st.euler_characteristic() == 1


def test_deletion_keeps_low_faces():
    d = full_simplex(2).deletion((0, 1))
    assert d.facets == ((0, 2), (1, 2))
    assert set(d.vertices) == {0, 1, 2}

    # removing a vertex this way removes its star
    d2 = full_simplex(2).deletion((2,))
    assert d2.facets == ((0, 1),)


def test_induced_subcomplex():
    ind = octahedron().induced([0, 2, 4, 5])
    assert ind.facets == ((0, 2, 4), (0, 2, 5))


def test_join_relabels_on_collision():
    s0 = SimplicialComplex([(0,), (1,)])
    square = s0.join(s0)
    assert square.f_vector() == (4, 4)
    assert square.euler_characteristic() == 0


def test_cone_and_boundary():
    square = SimplicialComplex([(0, 1), (1, 2), (2, 3), (0, 3)])
    pyramid = square.cone()
    assert pyramid.dim == 2
    assert len(pyramid.facets) == 4
    assert pyramid.boundary() == square

    assert full_simplex(3).boundary() == simplex_boundary(3)
    assert simplex_boundary(3).boundary().facets == ()

    with pytest.raises(InvalidComplexError):
        SimplicialComplex([(0, 1, 2), (3, 4)]).boundary()

    with pytest.raises(InvalidComplexError):
        square.cone(apex=2)


def test_relabel_and_normalize():
    c = SimplicialComplex([("a", "b"), ("b", "c")])
    n = c.normalize()
    assert n.facets == ((0, 1), (1, 2))
    with pytest.raises(InvalidComplexError):
        c.relabel({"a": 0, "b": 0, "c": 1})

    # label order is lexicographic, so the chain vertex (0,1) lands between (0,) and (1,)
    chains = SimplicialComplex([((0,), (0, 1)), ((1,), (0, 1))])
    assert chains.normalize().facets == ((0, 1), (1, 2))


def test_vertices_are_sorted_once():
    C = SimplicialComplex([(0, "a", (1, "b")), ("a", 2), ((0, ""),)])
    vs = C.vertices
    assert vs == (0, 2, "a", (0, ""), (1, "b"))

    def refuse(v):
        raise AssertionError("the vertex labels were sorted again")

    with mock.patch.object(scx.complexes, "_vkey", refuse):
        assert C.vertices is vs and C.n_vertices == 5


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(labelled_complexes())
def test_normalize_is_the_relabeling_by_rank(C):
    want = C.relabel({v: i for i, v in enumerate(C.vertices)})

    def refuse(*args):
        raise AssertionError("normalize checked its facets label by label")

    with mock.patch.object(SimplicialComplex, "__init__", refuse):
        got = C.normalize()
    assert got.facets == want.facets and got.vertices == want.vertices


def test_connectivity():
    two = SimplicialComplex([(0, 1, 2), (3, 4, 5)])
    assert not two.is_connected()
    parts = two.connected_components()
    assert [p.facets for p in parts] == [((0, 1, 2),), ((3, 4, 5),)]
    assert octahedron().is_connected()


def test_dual_graph():
    dg = simplex_boundary(3).dual_graph()
    assert dg.pseudomanifold and dg.connected
    assert all(len(nbrs) == 3 for nbrs in dg.adjacency)

    book = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert not book.dual_graph().pseudomanifold
    assert book.dual_graph().connected


def test_orientation():
    signs = simplex_boundary(3).orientation()
    assert signs is not None and set(signs.values()) <= {1, -1}
    assert octahedron().orientation() is not None
    assert SimplicialComplex(MOEBIUS_FACETS).orientation() is None
    assert SimplicialComplex(RP2_FACETS).orientation() is None
    with pytest.raises(InvalidComplexError):
        SimplicialComplex([(0, 1, 2), (3, 4)]).orientation()


def test_classify_surfaces():
    s = simplex_boundary(3).classify_surface()
    assert (s.kind, s.orientable, s.genus) == ("closed-surface", True, 0)

    o = octahedron().classify_surface()
    assert (o.kind, o.orientable, o.genus) == ("closed-surface", True, 0)

    rp2 = SimplicialComplex(RP2_FACETS).classify_surface()
    assert (rp2.kind, rp2.orientable, rp2.cross_caps) == ("closed-surface", False, 1)
    assert rp2.euler_characteristic == 1

    mb = SimplicialComplex(MOEBIUS_FACETS).classify_surface()
    assert (mb.kind, mb.orientable, mb.cross_caps) == ("surface-with-boundary", False, 1)
    assert mb.boundary_components == 1

    disk = full_simplex(2).classify_surface()
    assert (disk.kind, disk.orientable, disk.genus) == ("surface-with-boundary", True, 0)
    assert disk.boundary_components == 1

    pinch = SimplicialComplex([(0, 1, 2), (0, 3, 4)]).classify_surface()
    assert pinch.kind == "not-a-surface"

    assert SimplicialComplex([(0, 1)]).classify_surface().kind == "not-a-surface"
    book = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert book.classify_surface().kind == "not-a-surface"


def test_boundary_components_count_the_holes(monkeypatch):
    # sd^2 of the octahedron less m facets with no vertex in common is a
    # sphere with m holes; boundary() is never called for it
    monkeypatch.setattr(SimplicialComplex, "boundary", None)
    K = sd_k(octahedron(), 2).complex
    holes = []
    for F in K.facets:
        if len(holes) < 4 and set(F).isdisjoint(chain.from_iterable(holes)):
            holes.append(F)
    for m in range(5):
        C = SimplicialComplex([F for F in K.facets if F not in holes[:m]])
        sc = C.classify_surface()
        assert (sc.kind, sc.genus, sc.boundary_components) == (
            "surface-with-boundary" if m else "closed-surface", 0, m)


def brute_force_faces(C):
    """Every nonempty vertex subset of every facet, by dimension."""
    by_dim = {}
    for F in C.facets:
        for mask in range(1, 2 ** len(F)):
            face = tuple(v for i, v in enumerate(F) if mask >> i & 1)
            by_dim.setdefault(len(face) - 1, set()).add(face)
    return by_dim


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(labelled_complexes())
def test_face_counts_match_a_brute_force_closure(C):
    want = brute_force_faces(C)
    top = max(want, default=-1)
    assert C.f_vector() == tuple(len(want[k]) for k in range(top + 1))
    assert C.euler_characteristic() == sum((-1) ** k * len(want[k])
                                           for k in want)
    for k in range(-1, top + 2):
        assert C.faces(k) == frozenset(want.get(k, ()))
    assert C.faces() == frozenset().union(*want.values())


def test_equality_and_hash():
    a = SimplicialComplex([(0, 1), (1, 2)])
    b = SimplicialComplex([(2, 1), (1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != SimplicialComplex([(0, 1)])
