"""Tests for the explicit surface families.

Independent oracles: polygon triangulation counts are rebuilt from scratch
by enumerating maximal sets of pairwise noncrossing diagonals, and the
closed-form Catalan numbers pin both.  Surface classification and the
isomorphism checker are pinned by their own test modules, so facet counts
asserted here are frozen arithmetic of the constructions.
"""

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scx.census import determine_gluing, iso
from scx.complexes import SimplicialComplex, octahedron
from scx.errors import InvalidComplexError, QuotientRejected
from scx.families import (count_torus_outcomes, dyck_words, grid_disk,
                          grid_sphere, grid_surface, lower_bound_table,
                          polygon_triangulations, recover_strip_permutation,
                          strip_sphere, strip_surface, triangle_strip,
                          triangulation_from_pattern, torus_from_pattern,
                          _oriented_cycle, _read_strip_permutation,
                          _strip_holes, _tube)


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def crossing(d1, d2, n):
    # strict interleaving of two chords of the n-gon
    (a, b), (c, d) = sorted(d1), sorted(d2)
    return a < c < b < d or c < a < d < b


def triangulations_by_diagonals(n):
    """Oracle: maximal noncrossing diagonal sets, counted the slow way."""
    diags = [(i, j) for i in range(n) for j in range(i + 2, n)
             if not (i == 0 and j == n - 1)]
    found = 0
    for subset in itertools.combinations(diags, n - 3):
        if all(not crossing(p, q, n) for p, q in itertools.combinations(subset, 2)):
            found += 1
    return found


def test_triangle_strip_shape():
    s = triangle_strip(5)
    assert len(s.facets) == 5 and s.n_vertices == 7
    sc = s.classify_surface()
    assert (sc.kind, sc.genus, sc.boundary_components) == (
        "surface-with-boundary", 0, 1)
    with pytest.raises(InvalidComplexError):
        triangle_strip(0)


def test_strip_sphere_counts_and_type():
    for g in (1, 2, 3):
        s = strip_sphere(g)
        assert len(s.facets) == 4 * g + 8
        sc = s.classify_surface()
        assert (sc.kind, sc.orientable, sc.genus) == ("closed-surface", True, 0)


def test_strip_surface_counts_and_type():
    for g, perm in ((1, (1,)), (2, (2, 1)), (3, (2, 3, 1))):
        M = strip_surface(perm)
        assert len(M.facets) == 14 * g + 8
        assert M.n_vertices == 5 * g + 6
        sc = M.classify_surface()
        assert (sc.kind, sc.orientable, sc.genus) == ("closed-surface", True, g)


def test_strip_surface_validates_permutation():
    for bad in ((), (2,), (1, 1), (0, 1)):
        with pytest.raises(InvalidComplexError):
            strip_surface(bad)


def test_permutations_must_hold_integers():
    # no entry is truncated or parsed: 1.9 is not 1, and "1" is not 1
    for make in (strip_surface, grid_surface):
        for bad in ((1.9, 2.2), (1.0, 2.0), ("1", "2"), (1, "2"), (1, None)):
            with pytest.raises(InvalidComplexError, match="permutation of 1..g"):
                make(bad)


def test_strip_surfaces_pairwise_distinct():
    for g in (2, 3):
        perms = list(itertools.permutations(range(1, g + 1)))
        surfaces = [strip_surface(p) for p in perms]
        for i in range(len(perms)):
            for j in range(i + 1, len(perms)):
                assert iso(surfaces[i], surfaces[j]) is None, (perms[i], perms[j])


def test_recover_strip_permutation_roundtrip():
    import random
    for g in (1, 2, 3):
        for perm in itertools.permutations(range(1, g + 1)):
            M = strip_surface(perm)
            assert recover_strip_permutation(M) == perm
            vs = list(M.vertices)
            shuffled = vs[:]
            random.Random(g * 100 + sum(perm)).shuffle(shuffled)
            M2 = M.relabel(dict(zip(vs, shuffled)))
            assert recover_strip_permutation(M2) == perm



def test_recover_strip_permutation_beyond_genus_three():
    """Seeded genus-4 and genus-5 permutations, each relabelled at random
    onto ints, strings and tuples."""
    import random
    rng = random.Random(45)
    for g in (4, 5):
        perms = list(itertools.permutations(range(1, g + 1)))
        for perm in rng.sample(perms, 3):
            M = strip_surface(perm)
            vs = list(M.vertices)
            for name in (lambda v: v + 100, lambda v: "v%d" % v,
                         lambda v: (v, "t")):
                images = [name(v) for v in vs]
                rng.shuffle(images)
                M2 = M.relabel(dict(zip(vs, images)))
                assert recover_strip_permutation(M2) == perm

def edge_flips(M):
    """Every surface one edge flip away from the closed surface M."""
    edges = {}
    for F in M.facets:
        for i in range(3):
            e = F[:i] + F[i + 1:]
            edges.setdefault(e, []).append(F)
    for e, tris in sorted(edges.items()):
        if len(tris) != 2:
            continue
        c = [v for v in tris[0] if v not in e][0]
        d = [v for v in tris[1] if v not in e][0]
        if tuple(sorted((c, d))) not in edges:
            keep = set(M.facets) - set(tris)
            keep |= {tuple(sorted((e[0], c, d))), tuple(sorted((e[1], c, d)))}
            yield SimplicialComplex(keep)


def test_recover_strip_permutation_rejects_outsiders():
    with pytest.raises(InvalidComplexError):
        recover_strip_permutation(octahedron())
    # same facet count, same genus, but not in the family
    foreign = next(edge_flips(strip_surface((1,))))
    assert foreign.classify_surface().genus == 1
    with pytest.raises(InvalidComplexError):
        recover_strip_permutation(foreign)


def stacked_sphere(n_facets, degree):
    """A sphere stacked from the tetrahedron boundary: vertex 0 reaches the
    given degree first, then stacking goes on away from it."""
    tris = set(itertools.combinations(range(4), 3))
    while len(tris) < n_facets:
        at_0 = [t for t in tris if 0 in t]
        a, b, c = min(at_0) if len(at_0) < degree else max(tris - set(at_0))
        v = len(tris) // 2 + 2
        tris -= {(a, b, c)}
        tris |= {(a, b, v), (a, c, v), (b, c, v)}
    return SimplicialComplex(tris)


def tunnelled_sphere(g, holes):
    """strip_sphere(g) with a tube between each pair of holes, as
    strip_surface builds it, but with the holes anywhere."""
    sphere = strip_sphere(g)
    signs = sphere.orientation()
    tris = set(sphere.facets) - {h for pair in holes for h in pair}
    for j, (A, B) in enumerate(holes):
        mids = tuple(2 * g + 6 + 3 * j + t for t in range(3))
        tris.update(_tube(_oriented_cycle(A, signs[A]), mids,
                          tuple(reversed(_oriented_cycle(B, signs[B])))))
    return SimplicialComplex(tris)


def test_recover_strip_permutation_rejects_near_misses():
    """Every edge flip of a strip surface, and outsiders whose facet counts
    are 14g + 8, fail the decoder's own checks or its rebuild."""
    assert tunnelled_sphere(2, [((1, 2, 3), (5, 6, 7)),
                                ((2, 3, 4), (6, 7, 8))]) == strip_surface((1, 2))
    near = [F for perm in ((1, 2), (2, 1), (1, 2, 3), (3, 1, 2))
            for F in edge_flips(strip_surface(perm))]
    assert len(near) == 228
    outsiders = [
        strip_sphere(7), grid_surface(tuple(range(1, 7))),
        # an apex of the right degree with too many other vertices
        stacked_sphere(36, 9),
        # two holes sharing a vertex, and holes in the wrong blocks
        tunnelled_sphere(2, [((0, 1, 2), (2, 3, 4)), ((1, 2, 3), (5, 6, 7))]),
        tunnelled_sphere(2, [((1, 2, 3), (4, 5, 6)), ((2, 3, 4), (6, 7, 8))]),
    ]
    for M in near + outsiders:
        assert len(M.facets) % 14 == 8
        with pytest.raises(InvalidComplexError,
                           match="complex is not a strip surface"):
            recover_strip_permutation(M)


def test_recover_strip_permutation_rejects_a_ring_off_two_runs_of_three():
    """A tube's ring meets the strip at two runs of three strip vertices.
    Here the ring 8, 9, 10 of strip_sphere(1) meets the strip at 0, 1, 3,
    4, 5, 6 instead, read from either end of the strip.  Three triangles
    on the apex 7 and inner strip edges add no edge and pad the facets to
    14 + 8."""
    ring = [(8, 9, 10), (8, 9, 0), (8, 9, 1), (9, 10, 3), (9, 10, 4),
            (8, 10, 5), (8, 10, 6)]
    pad = [(i, i + 1, 7) for i in (1, 2, 3)]
    M = SimplicialComplex(list(strip_sphere(1).facets) + ring + pad)
    assert len(M.facets) == 22 and len(M.faces(1)) == len(
        strip_sphere(1).faces(1)) + 15
    with pytest.raises(InvalidComplexError,
                       match="complex is not a strip surface"):
        recover_strip_permutation(M)


def test_recover_strip_permutation_refuses_a_strip_surface_with_a_hole():
    """strip_surface((1,)) less one triangle, padded to 22 facets by a
    disjoint one, is thin, so the punctured sphere P glues in from its apex
    facet, in place.  Less a triangle of P, the gluing still reaches every
    vertex of P but places a triangle the complex lacks.  Less the tube
    triangle on hole 1's edge (1, 3), every triangle of P is placed but no
    unplaced triangle holds that edge."""
    g, M = 1, strip_surface((1,))
    sphere, holes = strip_sphere(g), set().union(*_strip_holes(g))
    P = SimplicialComplex(F for F in sphere.facets if F not in holes)
    seed = ((0, 1, 2 * g + 5), (0, 1, 2 * g + 5))
    for gone, in_p in (((2, 3, 4), True), ((1, 3, 9), False)):
        assert gone in M.facets and (gone in P.facets) == in_p
        holed = SimplicialComplex([F for F in M.facets if F != gone]
                                  + [(100, 101, 102)])
        m = determine_gluing(P, holed, seed)
        assert m == {v: v for v in P.vertices}
        assert (set(P.facets) <= set(holed.facets)) == (not in_p)
        assert [F for F in holed.facets if F not in P.facets
                and {1, 3} <= set(F)] == ([(1, 3, 9)] if in_p else [])
        assert _read_strip_permutation(holed, P, m, g) is None
        with pytest.raises(InvalidComplexError,
                           match="complex is not a strip surface"):
            recover_strip_permutation(holed)


def test_grid_disk_shape():
    for g in (1, 2):
        d = grid_disk(g)
        assert len(d.facets) == 8 * g - 1
        assert d.n_vertices == 8 * g + 1
        sc = d.classify_surface()
        assert (sc.kind, sc.genus, sc.boundary_components) == (
            "surface-with-boundary", 0, 1)


def test_grid_sphere_counts_and_type():
    for g in (1, 2):
        s = grid_sphere(g)
        assert len(s.facets) == 16 * g
        sc = s.classify_surface()
        assert (sc.kind, sc.orientable, sc.genus) == ("closed-surface", True, 0)


def test_grid_surface_counts_and_type():
    for g, perm in ((1, (1,)), (2, (1, 2)), (2, (2, 1)), (3, (3, 1, 2))):
        M = grid_surface(perm)
        assert len(M.facets) == 20 * g
        assert M.n_vertices == 8 * g + 2
        sc = M.classify_surface()
        assert (sc.kind, sc.orientable, sc.genus) == ("closed-surface", True, g)


def test_grid_surfaces_distinct_for_two_handles():
    assert iso(grid_surface((1, 2)), grid_surface((2, 1))) is None


def test_grid_surface_facets_are_frozen():
    # SHA-256 of the facet lists of grid_surface over every permutation of
    # 1..g for g = 1, 2, 3, as built when grid_disk and _grid_holes each
    # defined their own vertex index helpers; the facets must not change
    h = hashlib.sha256()
    for g in (1, 2, 3):
        for perm in itertools.permutations(range(1, g + 1)):
            h.update(repr(grid_surface(perm).facets).encode())
    assert h.hexdigest() == (
        "efc002248cf677e4cf777b67cf2f59a9ba3ac177659b45acced8f62d6a04549b")


def test_polygon_triangulation_counts_match_oracle():
    for n in range(4, 9):
        got = sum(1 for _ in polygon_triangulations(n))
        assert got == triangulations_by_diagonals(n) == catalan(n - 2)


def test_polygon_triangulations_are_valid():
    for tris in polygon_triangulations(7):
        assert len(tris) == 5
        C = SimplicialComplex(tris)
        sc = C.classify_surface()
        assert (sc.kind, sc.genus, sc.boundary_components) == (
            "surface-with-boundary", 0, 1)


def test_pattern_decode_is_a_bijection():
    for r in (2, 3):
        n = 2 * r + 2
        words = list(dyck_words(4 * r))
        assert len(words) == catalan(2 * r)
        decoded = {triangulation_from_pattern(n, w) for w in words}
        assert decoded == set(polygon_triangulations(n))


def test_pattern_decode_rejects_malformed_words():
    for bad in ("", "10", "0110", "1111", "0011", "10x1"):
        with pytest.raises(InvalidComplexError):
            triangulation_from_pattern(4, bad)


def reference_triangulation_from_pattern(n, pattern):
    """Oracle: the recursive decoder, one call per node on a slice of the word."""
    if len(pattern) != 2 * (n - 2) or set(pattern) - {"0", "1"}:
        raise InvalidComplexError("pattern must be a 1/0 word of length %d"
                                  % (2 * (n - 2)))

    def matching(word):
        depth = 0
        for idx, ch in enumerate(word):
            depth += 1 if ch == "1" else -1
            if depth == 0:
                return idx
        raise InvalidComplexError("pattern is not balanced")

    def rec(i, j, word):
        if not word:
            if j != i + 1:
                raise InvalidComplexError("pattern is not balanced")
            return ()
        if word[0] != "1":
            raise InvalidComplexError("pattern is not balanced")
        cut = matching(word)
        left = word[1:cut]
        right = word[cut + 1:]
        k = i + 1 + len(left) // 2
        if k >= j:
            raise InvalidComplexError("pattern is not balanced")
        return ((i, k, j),) + rec(i, k, left) + rec(k, j, right)

    return rec(0, n - 1, pattern)


def outcome(f, *args):
    try:
        return f(*args)
    except InvalidComplexError as e:
        return "error: %s" % e


def test_pattern_decode_matches_the_recursive_reference():
    # every word up to the torus polygons of r = 4, n = 10
    assert triangulation_from_pattern(2, "") == ()
    for n in range(2, 11):
        words = list(dyck_words(2 * (n - 2)))
        assert len(words) == catalan(n - 2)
        for w in words:
            assert triangulation_from_pattern(n, w) == \
                reference_triangulation_from_pattern(n, w)


def words_near(n):
    # mostly words of the right length, so that balance is what gets checked
    size = max(2 * (n - 2), 0)
    return st.tuples(st.just(n), st.one_of(
        st.text("01", min_size=size, max_size=size),
        st.text("01x", max_size=size + 2)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 9).flatmap(words_near))
def test_pattern_decode_errors_match_the_reference(case):
    n, word = case
    assert outcome(triangulation_from_pattern, n, word) == \
        outcome(reference_triangulation_from_pattern, n, word)


def test_pattern_decode_and_words_run_without_recursion():
    m = 3998
    n = m + 2
    assert triangulation_from_pattern(n, "1" * m + "0" * m) == tuple(
        (0, t, t + 1) for t in range(m, 0, -1))
    assert triangulation_from_pattern(n, "10" * m) == tuple(
        (t - 1, t, n - 1) for t in range(1, m + 1))
    assert next(dyck_words(4000)) == "10" * 2000


def test_dyck_words_in_lexicographic_order():
    for length in range(0, 17, 2):
        words = list(dyck_words(length))
        assert words == sorted(set(words))
        assert len(words) == catalan(length // 2)
        assert all(w.count("1") == length // 2 and all(
            w[:i].count("1") >= w[:i].count("0") for i in range(length))
            for w in words)
    assert list(dyck_words(-2)) == []
    with pytest.raises(InvalidComplexError):
        next(dyck_words(3))


def test_torus_quotient_always_rejected():
    for r in (2, 3):
        for word in dyck_words(4 * r):
            with pytest.raises(QuotientRejected):
                torus_from_pattern(r, word)


def test_torus_rejection_names_the_degenerate_triangle():
    with pytest.raises(QuotientRejected) as e:
        torus_from_pattern(2, "11101000")
    assert "degenerates" in str(e.value)


def reference_torus_rejection(r, word):
    """Oracle: glue the reference decode, stop at the first degenerate triangle."""
    def cls(p):
        i = p if p <= r else 2 * r + 1 - p
        return 0 if i == r else i

    for tri in reference_triangulation_from_pattern(2 * r + 2, word):
        img = {cls(p) for p in tri}
        if len(img) < 3:
            return "triangle %r degenerates to %r under the gluing" % (
                tri, tuple(sorted(img)))
    return None


def test_torus_rejection_matches_the_gluing_reference():
    for r in (2, 3, 4):
        for word in dyck_words(4 * r):
            with pytest.raises(QuotientRejected) as e:
                torus_from_pattern(r, word)
            assert str(e.value) == reference_torus_rejection(r, word)
    for r, word in ((1, "1010"), (2, "1010"), (2, "01101010")):
        with pytest.raises(InvalidComplexError):
            torus_from_pattern(r, word)


def test_count_torus_outcomes():
    assert count_torus_outcomes(2) == (14, 0)
    assert count_torus_outcomes(3) == (132, 0)
    assert count_torus_outcomes(4) == (1430, 0)


def test_lower_bound_table():
    rows = lower_bound_table(max_g=3, max_r=4)
    strips = {r.parameter: r for r in rows if r.family == "strip"}
    grids = {r.parameter: r for r in rows if r.family == "grid"}
    tori = {r.parameter: r for r in rows if r.family == "torus-quotient"}
    assert strips[3].n_facets == 50 and strips[3].n_types == 6
    assert grids[2].n_facets == 40 and grids[2].n_types == 2
    assert all(r.n_types == 0 for r in tori.values())
    assert len(rows) == 3 + 3 + 3
