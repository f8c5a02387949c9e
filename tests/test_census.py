"""Gluing, isomorphism, canonical forms, censuses, and counting bounds.

Expected census values are derived here by independent means: sphere counts
from an edge-flip walk over triangulations (starting at a stacked sphere),
disk counts from a raw filter over all small triangle sets, and isomorphism
answers from a plain vertex-permutation backtracker.
"""

import hashlib
import importlib
import itertools
import random
import time
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scx import (BudgetExceededError, InvalidComplexError, SimplicialComplex,
                 full_simplex, octahedron, simplex_boundary)
from scx.census import (
    IsoCertificate,
    _flag_form,
    _removal_keys,
    canonical_label,
    census,
    check_bounds,
    derived_count_bound,
    determine_gluing,
    enumerate_disks,
    enumerate_surfaces,
    iso,
    manifold_count_bound,
)
from scx.subdivision import sd_k

from conftest import labels, petersen, random_complex, random_pure_complex


# -- independent oracles -----------------------------------------------------


def brute_iso(a_facets, b_facets):
    """Backtracking vertex-bijection search on plain facet sets (ints only)."""
    fa = {tuple(sorted(F)) for F in a_facets}
    fb = {tuple(sorted(F)) for F in b_facets}
    va = sorted({v for F in fa for v in F})
    vb = sorted({v for F in fb for v in F})
    if len(va) != len(vb) or len(fa) != len(fb):
        return None
    if sorted(map(len, fa)) != sorted(map(len, fb)):
        return None
    siga = {v: sorted(len(F) for F in fa if v in F) for v in va}
    sigb = {w: sorted(len(F) for F in fb if w in F) for w in vb}
    m = {}
    used = set()

    def rec(i):
        if i == len(va):
            return {tuple(sorted(m[x] for x in F)) for F in fa} == fb
        v = va[i]
        for w in vb:
            if w in used or sigb[w] != siga[v]:
                continue
            m[v] = w
            used.add(w)
            ok = True
            for F in fa:
                if v in F and all(x in m for x in F):
                    if tuple(sorted(m[x] for x in F)) not in fb:
                        ok = False
                        break
            if ok and rec(i + 1):
                return True
            del m[v]
            used.discard(w)
        return False

    return dict(m) if rec(0) else None


def _tri(xs):
    return tuple(sorted(xs))


def stacked_sphere(n):
    tris = {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
    for v in range(4, n):
        f = min(tris)
        tris.remove(f)
        a, b, c = f
        tris |= {_tri((a, b, v)), _tri((a, c, v)), _tri((b, c, v))}
    return frozenset(tris)


def flip_canon(tris):
    """Canonical shape: minimum over degree-class-respecting relabelings."""
    verts = sorted({v for t in tris for v in t})
    deg = Counter(v for t in tris for v in t)
    cells = {}
    for v in verts:
        cells.setdefault(deg[v], []).append(v)
    ordered = [cells[d] for d in sorted(cells)]
    offsets = []
    base = 0
    for cell in ordered:
        offsets.append(base)
        base += len(cell)
    best = None
    for perms in itertools.product(*map(itertools.permutations, ordered)):
        label = {}
        for cell_perm, off in zip(perms, offsets):
            for i, v in enumerate(cell_perm):
                label[v] = off + i
        shape = tuple(sorted(_tri(label[v] for v in t) for t in tris))
        if best is None or shape < best:
            best = shape
    return best


def flip_neighbors(tris):
    edge_map = {}
    for t in tris:
        for e in itertools.combinations(t, 2):
            edge_map.setdefault(e, []).append(t)
    out = []
    for e, ts in edge_map.items():
        if len(ts) != 2:
            continue
        a, b = e
        x = next(v for v in ts[0] if v not in e)
        y = next(v for v in ts[1] if v not in e)
        if x == y or _tri((x, y)) in edge_map:
            continue
        out.append(frozenset(set(tris) - set(ts)
                             | {_tri((a, x, y)), _tri((b, x, y))}))
    return out


def flip_sphere_types(n):
    """All n-vertex sphere triangulation types via edge-flip closure."""
    start = flip_canon(stacked_sphere(n))
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for nb in flip_neighbors(set(cur)):
            c = flip_canon(nb)
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


def raw_disk_types(t):
    """All t-triangle disk types among the triangle sets on t+2 labels.

    Every set is grown from the triangle (0, 1, 2), one triangle at a time
    across an edge of the set, never putting an edge in a third triangle;
    each grown set then goes through the Euler and surface filters, and
    flip_canon names the type of each disk.
    That reaches every disk type: relabel a disk to contain (0, 1, 2); its
    dual graph is connected, so removing a leaf of a spanning tree rooted
    at (0, 1, 2) leaves a smaller such set, and no subset of a disk puts an
    edge in three triangles.
    """
    triangles = list(itertools.combinations(range(t + 2), 3))
    level = {frozenset([(0, 1, 2)])}
    for _ in range(t - 1):
        grown = set()
        for tris in level:
            edge_count = Counter(e for f in tris
                                 for e in itertools.combinations(f, 2))
            for f in triangles:
                counts = [edge_count[e] for e in itertools.combinations(f, 2)]
                if f not in tris and any(counts) and max(counts) < 2:
                    grown.add(tris | {f})
        level = grown
    found = {}
    for tris in map(sorted, level):
        edges = {e for f in tris for e in itertools.combinations(f, 2)}
        chi_faces = len({v for f in tris for v in f}) - len(edges) + t
        if chi_faces != 1:
            continue
        c = SimplicialComplex(tris)
        sc = c.classify_surface()
        if (sc.kind, sc.orientable, sc.genus, sc.boundary_components) != (
                "surface-with-boundary", True, 0, 1):
            continue
        found[flip_canon(tris)] = True
    return len(found)


# -- gluing and isomorphism ---------------------------------------------------


def test_determine_gluing_recovers_identity_and_relabelings():
    o = octahedron()
    f0 = o.facets[0]
    assert determine_gluing(o, o, (f0, f0)) == {v: v for v in o.vertices}

    phi = {v: v + 10 for v in o.vertices}
    r = o.relabel(phi)
    m = determine_gluing(o, r, (f0, tuple(phi[v] for v in f0)))
    assert m == phi


def test_determine_gluing_partial_overlap_stops_cleanly():
    o = octahedron()
    phi = {v: chr(ord("a") + v) for v in o.vertices}
    a = SimplicialComplex(o.facets[:6])
    b = SimplicialComplex(o.facets[2:]).relabel(phi)
    seed_facet = o.facets[3]
    m = determine_gluing(a, b, (seed_facet, tuple(phi[v] for v in seed_facet)))
    assert m is not None
    assert all(phi[v] == w for v, w in m.items())
    assert set(seed_facet) <= set(m)


def test_determine_gluing_detects_conflicts():
    def cycle(n):
        return SimplicialComplex([(i, (i + 1) % n) for i in range(n)])

    # wrapping a 4-cycle around a 5-cycle pins vertex 0 to two images
    assert determine_gluing(cycle(4), cycle(5), ((0, 1), (0, 1))) is None
    # and a 5-cycle around a 4-cycle reuses an image vertex
    assert determine_gluing(cycle(5), cycle(4), ((0, 1), (0, 1))) is None


def test_determine_gluing_validates_input():
    o = octahedron()
    with pytest.raises(InvalidComplexError):
        determine_gluing(o, o, ((0, 1, 2), o.facets[0]))
    book = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    with pytest.raises(InvalidComplexError):
        determine_gluing(book, book, ((0, 1, 2), (0, 1, 2)))


def test_determine_gluing_names_a_bad_seed_image():
    o = octahedron()
    # 0 and 1 are antipodal: no facet holds both
    with pytest.raises(InvalidComplexError,
                       match=r"^seed image \(0, 1, 2\) is not a facet$"):
        determine_gluing(o, o, (o.facets[0], (0, 1, 2)))
    triangle = SimplicialComplex([(0, 1), (1, 2), (0, 2)])
    with pytest.raises(InvalidComplexError,
                       match="^seed facets have different dimensions$"):
        determine_gluing(o, triangle, (o.facets[0], (0, 1)))


def test_a_negative_iso_budget_is_refused_before_the_equal_facets_shortcut():
    with pytest.raises(InvalidComplexError,
                       match="max_nodes must be at least 0, got -1"):
        iso(octahedron(), octahedron(), max_nodes=-1)
    assert iso(octahedron(), octahedron(), max_nodes=0) is not None


def test_iso_on_known_pairs():
    s = simplex_boundary(3)
    phi = {v: "v%d" % v for v in s.vertices}
    cert = iso(s, s.relabel(phi))
    assert cert is not None and cert.check(s, s.relabel(phi))
    assert iso(s, octahedron()) is None

    cert = iso(s, s)
    assert cert is not None and cert.check(s, s)

    # a wrong domain, a wrong image set, an image that is no vertex label
    # (1.0 equals 1 but is not a label), and a bijection that is no map
    m = dict(cert.mapping)
    assert not IsoCertificate(tuple(sorted(m.items()))[1:]).check(s, s)
    assert not IsoCertificate(tuple((v, v + 1) for v in s.vertices)).check(s, s)
    assert not IsoCertificate(((0, 1.0), (1, 0), (2, 2), (3, 3))).check(s, s)
    edge = SimplicialComplex([(0, 1), (1, 2)])
    assert not IsoCertificate(((0, 1), (1, 0), (2, 2))).check(edge, edge)


def test_pseudomanifold_paths_build_no_dual_graph(monkeypatch):
    """canonical_label, iso and determine_gluing read "connected
    pseudomanifold" off the incidence index."""
    a = sd_k(octahedron(), 1).complex.normalize()
    b = a.relabel({v: (7 * v + 3) % 26 for v in a.vertices})

    def refuse(self):
        raise AssertionError("dual_graph was called")

    monkeypatch.setattr(SimplicialComplex, "dual_graph", refuse)
    assert canonical_label(a)[0] == canonical_label(b)[0]
    cert = iso(a, b)
    assert cert is not None and cert.check(a, b)
    m = cert.as_dict()
    assert determine_gluing(a, b, (a.facets[0], [m[v] for v in a.facets[0]])) == m


def test_iso_agrees_with_brute_force():
    import random as _random
    rng = _random.Random(99)
    for trial in range(30):
        if trial % 2:
            a = random_pure_complex(trial, n_vertices=7, dim=2, n_facets=5)
        else:
            a = random_complex(trial, n_vertices=7, max_dim=3, n_samples=5)
        perm = list(range(12))
        rng.shuffle(perm)
        b = a.relabel({v: perm[v] for v in a.vertices})
        if trial % 3 == 0:
            # tamper: drop one facet and its vertices may vanish with it
            b = SimplicialComplex(b.facets[1:]) if len(b.facets) > 1 else b
        got = iso(a, b)
        want = brute_iso(a.facets, b.facets)
        assert (got is None) == (want is None), (a.facets, b.facets)
        if got is not None:
            assert got.check(a, b)


def test_canonical_label_is_iso_invariant():
    for seed in range(8):
        a = random_pure_complex(seed, n_vertices=7, dim=2, n_facets=6)
        phi = {v: v * 3 + 1 for v in a.vertices}
        b = a.relabel(phi)
        ca, ma = canonical_label(a)
        cb, mb = canonical_label(b)
        assert ca == cb
        assert a.relabel(ma) == ca

    x = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,)])
    y = SimplicialComplex([(5, 6), (6, 7), (5, 7), (0,)])
    assert canonical_label(x)[0] == canonical_label(y)[0]


def test_canonical_label_budget():
    # no twins to skip: the search meets 120 leaves, one per automorphism
    with pytest.raises(BudgetExceededError) as err:
        canonical_label(petersen(), budget=100)
    assert (err.value.requested, err.value.budget) == (101, 100)


# connected pseudomanifolds: every disk with at most 6 triangles and every
# closed surface on 6 vertices
PSEUDOMANIFOLDS = ([D for level in enumerate_disks(6).values() for D in level]
                   + enumerate_surfaces(6))


@st.composite
def relabeled(draw, source):
    C = PSEUDOMANIFOLDS[source]
    labels = draw(st.permutations(range(20)))
    return C.relabel({v: labels[i] for i, v in enumerate(C.vertices)})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_canonical_form_sees_through_relabelings(data):
    i = data.draw(st.integers(0, len(PSEUDOMANIFOLDS) - 1))
    j = i if data.draw(st.booleans()) else data.draw(
        st.integers(0, len(PSEUDOMANIFOLDS) - 1))
    a, b = data.draw(relabeled(i)), data.draw(relabeled(j))
    ca, ma = canonical_label(a)
    cb, mb = canonical_label(b)
    assert ca == canonical_label(PSEUDOMANIFOLDS[i])[0]
    assert a.relabel(ma) == ca and b.relabel(mb) == cb
    assert (iso(a, b) is not None) == (ca == cb) == (i == j)


def first_gluing(a, b):
    """iso's answer on connected pseudomanifolds, from determine_gluing: the
    gluing of a's first facet onto the first flag of b, in facet then
    permutation order, that maps the facets of a onto those of b."""
    for g in b.facets:
        for perm in itertools.permutations(g):
            m = determine_gluing(a, b, (a.facets[0], perm))
            if (m is not None and len(m) == len(a.vertices)
                    and {tuple(sorted(m[v] for v in F)) for F in a.facets}
                    == set(b.facets)):
                return m
    return None


def test_iso_certificate_is_the_first_full_gluing():
    import random as _random
    rng = _random.Random(5)
    for i, a in enumerate(PSEUDOMANIFOLDS):
        for b in (a, PSEUDOMANIFOLDS[(i + 1) % len(PSEUDOMANIFOLDS)]):
            labels = list(range(20))
            rng.shuffle(labels)
            b = b.relabel({v: labels[k] for k, v in enumerate(b.vertices)})
            cert = iso(a, b)
            want = first_gluing(a, b)
            assert (cert is None) == (want is None)
            if cert is not None:
                assert cert.as_dict() == want


def test_iso_general_search_keeps_one_frame():
    # not a pseudomanifold: three edges meet at vertex 1, so iso backtracks
    # over vertex images, one level per vertex, past the interpreter's
    # recursion limit
    import random as _random
    a = SimplicialComplex([(i, i + 1) for i in range(1500)] + [(1, 1501)])
    labels = list(range(1502))
    _random.Random(3).shuffle(labels)
    b = a.relabel(dict(enumerate(labels)))
    cert = iso(a, b)
    assert cert is not None and cert.check(a, b)


def test_iso_general_search_exhausts_to_none():
    # equal screens (a degree-3 vertex, so no pseudomanifold), but the
    # degree-3 vertex has two leaf neighbours in a and one in b
    a = SimplicialComplex([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    b = SimplicialComplex([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert a.f_vector() == b.f_vector()
    assert sorted(len(a.facets_containing((v,))) for v in a.vertices) == \
        sorted(len(b.facets_containing((v,))) for v in b.vertices)
    assert brute_iso(a.facets, b.facets) is None
    assert iso(a, b) is None


def disjoint(*parts):
    """The disjoint union of parts, each renumbered after the last."""
    facets, base = [], 0
    for C in parts:
        C = C.normalize()
        facets += [tuple(v + base for v in F) for F in C.facets]
        base += C.n_vertices
    return SimplicialComplex(facets)


def no_pseudomanifolds():
    """name -> complex: none is a connected pseudomanifold, and each has
    many automorphisms, so a search that permutes whole colour cells, or
    one that backtracks over vertex images, blows up on several."""
    OCT = octahedron()
    sd_oct = sd_k(OCT, 1).complex
    return {
        "two octahedra": disjoint(OCT, OCT),
        "sd(oct) twice": disjoint(sd_oct, sd_oct),
        "star K1,10": SimplicialComplex([(0, i) for i in range(1, 11)]),
        "two tetrahedron boundaries": disjoint(simplex_boundary(3),
                                               simplex_boundary(3)),
        "sd of three triangles on an edge": sd_k(SimplicialComplex(
            [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), 1).complex,
        "two octahedra at a vertex": SimplicialComplex(
            list(OCT.facets) + [tuple(v + 5 if v else 0 for v in F)
                                for F in OCT.facets]),
        "three edges": SimplicialComplex([(0, 1), (2, 3), (4, 5)]),
    }


@pytest.mark.parametrize("name", sorted(no_pseudomanifolds()))
def test_canonical_forms_off_pseudomanifolds_are_quick(name):
    a = no_pseudomanifolds()[name]
    b = shuffled(a, random.Random(22))
    timed = []
    for call in (lambda: canonical_label(a), lambda: canonical_label(b),
                 lambda: iso(a, b)):
        start = time.perf_counter()
        timed.append(call())
        assert time.perf_counter() - start < 0.5, name
    (ca, ma), (cb, mb), cert = timed
    assert ca == cb and a.relabel(ma) == ca and b.relabel(mb) == cb
    assert cert is not None and cert.check(a, b)


@st.composite
def scattered(draw):
    """A complex of up to three vertex-disjoint parts of mixed dimension,
    isolated vertices included, on int, str and tuple labels."""
    names = draw(st.lists(labels, min_size=9, max_size=9, unique=True))
    faces = [tuple(names[3 * part + i] for i in face)
             for part in range(draw(st.integers(1, 3)))
             for face in draw(st.lists(st.lists(
                 st.integers(0, 2), min_size=1, max_size=3, unique=True),
                 min_size=1, max_size=3))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex(faces)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(scattered(), scattered(), st.randoms(use_true_random=False))
def test_canonical_forms_of_scattered_complexes(a, c, rng):
    """Forms see through relabellings, and iso and equal forms agree with
    the brute-force oracle, run on the complexes renumbered 0..n-1."""
    names = rng.sample(range(100), a.n_vertices)
    b = a.relabel(dict(zip(a.vertices, names)))
    ca, ma = canonical_label(a)
    assert canonical_label(b)[0] == ca and a.relabel(ma) == ca
    for other in (b, c):
        cert = iso(a, other)
        want = brute_iso(a.normalize().facets, other.normalize().facets)
        assert (cert is None) == (want is None) == (
            canonical_label(other)[0] != ca)
        assert cert is None or cert.check(a, other)


def test_canonical_label_of_the_empty_complex():
    empty = SimplicialComplex([])
    canon, mapping = canonical_label(empty)
    assert canon.facets == () and mapping == {}


def test_fast_paths_honour_their_budgets():
    K = sd_k(octahedron(), 2).complex
    with pytest.raises(BudgetExceededError) as err:
        canonical_label(K, budget=100)
    assert (err.value.requested, err.value.budget) == (288 * 6, 100)
    assert canonical_label(K)[0].f_vector() == K.f_vector()

    # equal screens, not isomorphic: the fast path tries all 5 * 3! seeds
    a = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4), (1, 4, 5)])
    b = SimplicialComplex([(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4), (1, 3, 5)])
    assert iso(a, b, max_nodes=30) is None
    with pytest.raises(BudgetExceededError) as err:
        iso(a, b, max_nodes=29)
    assert err.value.budget == 29


def test_canonical_label_aborts_walks_early():
    """sd^2 has 6 times the facets and flags of sd^1.  Walks that stop at the
    first worse facet keep the time ratio near 6; a full walk from every flag
    makes it ~36 and more; 20 separates them."""

    def best_of_3(k):
        C = sd_k(octahedron(), k).complex
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            canonical_label(C)
            best = min(best, time.perf_counter() - start)
        return best

    small, large = best_of_3(1), best_of_3(2)
    assert large / small < 20, (small, large)


def shuffled(C, rng):
    """C with its vertices renamed by a seeded shuffle of 0..n-1."""
    labels = list(range(C.n_vertices))
    rng.shuffle(labels)
    return C.relabel(dict(zip(C.vertices, labels)))


def frozen_corpus():
    """part -> [(complex, its seeded relabelling)]: every disk with at most 7
    triangles, every closed surface on 7 vertices, and the census
    benchmark's big iso inputs, sd^2 of the octahedron and sd^3 of the
    triangle."""
    rng = random.Random(16)
    disks = [D for level in enumerate_disks(7).values() for D in level]
    big = [sd_k(octahedron(), 2).complex.normalize(),
           sd_k(full_simplex(2), 3).complex.normalize()]
    return {part: [(C, shuffled(C, rng)) for C in members]
            for part, members in (("disks", disks),
                                  ("surfaces", enumerate_surfaces(7)),
                                  ("big", big))}


def iso_pairs(part, pairs):
    """Each complex against its own relabelling and, for surfaces, against
    every other's; each disk also against the next disk's of its size."""
    if part == "surfaces":
        return [(a, r) for a, _ in pairs for _, r in pairs]
    out = list(pairs)
    if part == "disks":
        for (a, _), (b, r) in zip(pairs, pairs[1:] + pairs[:1]):
            if len(a.facets) == len(b.facets):
                out.append((a, r))
    return out


# (entry point, corpus part) -> SHA-256 of the outputs: canonical facets and
# sorted label map of both sides of every pair, or iso's certificate mapping
# (None when not isomorphic) on every pair of iso_pairs
CANONICAL_DIGESTS = {
    ("canonical_label", "disks"):
        "61bda6cd5695beb0e9eac61fe118e9e2d14cc8d5a31906eeb78cbbccfab03e1f",
    ("iso", "disks"):
        "6bacce766f3c8ec7e8f12f5eb3c6963da824bb54eecea2b206de2024ab1b3626",
    ("canonical_label", "surfaces"):
        "edba305ef00ca3802608ed1bf8a595032b8a042fe8553279015d4643089beaa1",
    ("iso", "surfaces"):
        "ba3433ce1809f4f0826e4688551bff186dc754bd15037353642073109dc346dc",
    ("canonical_label", "big"):
        "8f41b07d128aa84f90812e00abcda076fc2e7a549909ddd992a957adf871c841",
    ("iso", "big"):
        "a116fb8f4caed04067f5906d208600a166c5d5717fc09dd8e53dff1d7f7135b0",
}


def test_canonical_outputs_are_frozen():
    got = {}
    for part, pairs in frozen_corpus().items():
        digest = hashlib.sha256()
        for C in (c for pair in pairs for c in pair):
            canon, mapping = canonical_label(C)
            digest.update(repr((canon.facets, sorted(mapping.items()))).encode())
        got[("canonical_label", part)] = digest.hexdigest()
        digest = hashlib.sha256()
        for a, b in iso_pairs(part, pairs):
            cert = iso(a, b)
            digest.update(repr(cert and cert.mapping).encode())
        got[("iso", part)] = digest.hexdigest()
    assert got == CANONICAL_DIGESTS


def test_iso_stops_each_walk_at_its_first_unequal_entry():
    """iso walks b from each flag against one walk code of a.  Walks that
    stop at their first unequal entry make five iso calls on relabellings
    of sd^3 of the octahedron cost less than one canonical_label of it
    (about 0.6 times as much); walks that go on after a smaller entry make
    them cost about 5.6 times as much; 2 separates them."""
    K = sd_k(octahedron(), 3).complex
    relabellings = [shuffled(K, random.Random(seed)) for seed in range(5)]
    best_iso = best_canon = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for R in relabellings:
            assert iso(K, R) is not None
        mid = time.perf_counter()
        canonical_label(K)
        best_iso = min(best_iso, mid - start)
        best_canon = min(best_canon, time.perf_counter() - mid)
    assert best_iso / best_canon < 2, (best_iso, best_canon)


# -- censuses -----------------------------------------------------------------


def test_sphere_counts_match_flip_oracle():
    want = {n: len(flip_sphere_types(n)) for n in (4, 5, 6, 7)}
    for n in (4, 5, 6, 7):
        spheres = [s for s in enumerate_surfaces(n)
                   if s.classify_surface().genus == 0
                   and s.classify_surface().orientable]
        assert len(spheres) == want[n], n
    assert want == {4: 1, 5: 1, 6: 2, 7: 5}


def test_surface_census_known_anchors():
    assert len(enumerate_surfaces(4)) == 1
    six = enumerate_surfaces(6)
    rp2 = [s for s in six if not s.classify_surface().orientable]
    assert len(rp2) == 1 and rp2[0].classify_surface().cross_caps == 1

    seven = enumerate_surfaces(7)
    tori = [s for s in seven
            if s.classify_surface().orientable and s.classify_surface().genus == 1]
    assert len(tori) == 1  # the 7-vertex torus
    assert len(tori[0].facets) == 14
    # no 7-vertex closed surface with two cross-caps exists
    assert not any((not s.classify_surface().orientable
                    and s.classify_surface().cross_caps == 2) for s in seven)


def test_eight_vertex_surfaces_by_type():
    # Sulanke-Lutz (arXiv:math/0610022), 8 vertices: 14 spheres, 7 tori,
    # 16 projective planes and 6 Klein bottles; no other type fits on 8
    # vertices.  The growth keeps no memo of visited triangle sets, so this
    # pins what it must still find.
    eight = enumerate_surfaces(8)
    types = Counter()
    for s in eight:
        sc = s.classify_surface()
        assert sc.kind == "closed-surface" and s.n_vertices == 8
        assert sc.euler_characteristic == 8 - len(s.facets) // 2
        types[(sc.orientable, sc.genus if sc.orientable else sc.cross_caps)] += 1
    assert types == {(True, 0): 14, (True, 1): 7, (False, 1): 16, (False, 2): 6}
    assert len(eight) == 43


# vertex count -> SHA-256 of repr([S.facets for S in enumerate_surfaces(n)]),
# taken from the generator that canonicalised every closed surface it grew
SURFACE_DIGESTS = {
    4: "4f013a0695f091151527e221de763947cb2cc3157f8aa1970ce36b6cac893858",
    5: "035ae4b3c1971d9b2fd1520ec58c562f59302462e8513e6e2e213f761cf00b6f",
    6: "8f53a4ce430806004dc885a1898a9a109dafdc6ca9914e2540ca4a169d712857",
    7: "b70d836533f44369c53aa5e6c0c78efdd97409bd9ff695a6adaceb04270c1e5c",
    8: "949d6e9bd271ed06c671112e85024acf40819e2ee78745011a6222531723b5cc",
}


@pytest.mark.parametrize("n", sorted(SURFACE_DIGESTS))
def test_surface_census_outputs_are_frozen(n):
    forms = repr([S.facets for S in enumerate_surfaces(n)])
    assert hashlib.sha256(forms.encode()).hexdigest() == SURFACE_DIGESTS[n]


@pytest.mark.parametrize("n, classes", [(7, 9), (8, 43)])
def test_surface_census_canonicalises_one_surface_per_class(
        monkeypatch, n, classes):
    """A closed surface that iso matches to a kept form skips
    canonical_label, so it runs once per class.  Canonicalising every
    closed surface grown made 103 calls at 7 vertices and 1509 at 8."""
    module = importlib.import_module("scx.census")
    calls, canonical = [], module.canonical_label

    def counted(*args):
        calls.append(args[0])
        return canonical(*args)

    monkeypatch.setattr(module, "canonical_label", counted)
    assert len(enumerate_surfaces(n)) == classes
    assert len(calls) == classes


@pytest.mark.parametrize("call, requested, budget", [
    (enumerate_disks, 13, 12), (enumerate_surfaces, 11, 10),
    (census, 11, 10)])
def test_census_caps_refuse_before_any_work(call, requested, budget):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        call(requested)
    assert (err.value.requested, err.value.budget) == (requested, budget)
    assert time.perf_counter() - start < 1


def test_disk_counts_match_raw_oracle():
    levels = enumerate_disks(5)
    for t in range(1, 6):
        assert len(levels[t]) == raw_disk_types(t), t
    for t, disks in levels.items():
        for d in disks:
            sc = d.classify_surface()
            assert (sc.kind, sc.genus, sc.boundary_components) == (
                "surface-with-boundary", 0, 1)
            assert len(d.facets) == t


def grow_every_disk(max_triangles):
    """The disk census without the removal-key screen: every disk grown by
    an ear or a corner move is canonicalised and deduplicated."""
    levels = {1: [SimplicialComplex([(0, 1, 2)])]}
    for t in range(1, max_triangles):
        found = {}
        for disk in levels[t]:
            edge_count = Counter(e for F in disk.facets
                                 for e in itertools.combinations(F, 2))
            boundary = [e for e, c in edge_count.items() if c == 1]
            fresh = max(disk.vertices) + 1
            grown = [(x, y, fresh) for x, y in boundary]
            at_vertex = {}
            for x, y in boundary:
                at_vertex.setdefault(x, []).append(y)
                at_vertex.setdefault(y, []).append(x)
            grown += [_tri((u, v, w)) for w, (u, v) in at_vertex.items()
                      if _tri((u, v)) not in edge_count]
            for F in grown:
                canon, _ = canonical_label(
                    SimplicialComplex(disk.facets + (F,)))
                found.setdefault(canon.facets, canon)
        levels[t + 1] = [found[k] for k in sorted(found)]
    return levels


def is_disk(facets):
    sc = SimplicialComplex(facets).classify_surface()
    return (sc.kind, sc.orientable, sc.genus, sc.boundary_components) == (
        "surface-with-boundary", True, 0, 1)


def test_disk_census_equals_canonicalising_every_grown_disk():
    every = grow_every_disk(8)
    for n in range(9):
        assert enumerate_disks(n) == {t: every[t] for t in range(1, n + 1)}, n


# enumerate_disks(10) as it was before the removal-key screen: the sha256 of
# repr((t, [disk.facets for each disk])) for each level t in order
DISKS_10_DIGEST = (
    "509a064272ea66af4426822e64ae81526f05e6e338cdf70c05e68334ef649dfb")


def test_disk_census_to_ten_triangles_is_frozen():
    levels = enumerate_disks(10)
    assert [len(levels[t]) for t in sorted(levels)] == [
        1, 1, 2, 5, 9, 28, 73, 244, 782, 2805]
    digest = hashlib.sha256()
    for t in sorted(levels):
        digest.update(repr((t, [D.facets for D in levels[t]])).encode())
    assert digest.hexdigest() == DISKS_10_DIGEST


def brute_automorphisms(facets):
    """Every permutation p of the vertices 0..n-1 of an int complex mapping
    facets onto facets, as the tuple of images, by backtracking over vertex
    images with each facet checked once all its vertices have one."""
    fs = {tuple(sorted(F)) for F in facets}
    n = len({v for F in fs for v in F})
    found, image = [], []

    def rec():
        v = len(image)
        if v == n:
            found.append(tuple(image))
            return
        for w in range(n):
            if w in image:
                continue
            image.append(w)
            if all(tuple(sorted(image[x] for x in F)) in fs
                   for F in fs if v in F and max(F) == v):
                rec()
            image.pop()

    rec()
    return found


def test_flag_form_reports_every_automorphism_but_the_identity():
    rng = random.Random(24)
    members = [D for level in enumerate_disks(6).values() for D in level]
    members += enumerate_surfaces(6)
    assert len(members) == 49
    for C in members:  # each is its own canonical form
        form, label, automorphisms = _flag_form(shuffled(C, rng), 10 ** 6)
        assert form == C
        identity = tuple(range(C.n_vertices))
        assert identity not in automorphisms
        for p in automorphisms:
            assert {_tri(p[x] for x in F) for F in form.facets} == set(
                form.facets)
        want = brute_automorphisms(C.facets)
        assert len(automorphisms) + 1 == len(want), C.facets
        assert set(automorphisms) | {identity} == set(want)


@pytest.mark.parametrize("max_triangles, grown", [(8, 379), (10, 4350)])
def test_disk_census_canonicalises_one_disk_per_move_orbit(
        monkeypatch, max_triangles, grown):
    """One _flag_form call for the triangle's group, then one per grown
    disk that passes the removal-key screen.  Growing by one move per
    automorphism orbit leaves 379 of them at 8 triangles and 4350 at 10;
    growing by every move leaves 539 and 4936."""
    module = importlib.import_module("scx.census")
    calls, flag_form = [], module._flag_form

    def counted(*args):
        calls.append(args[0])
        return flag_form(*args)

    monkeypatch.setattr(module, "_flag_form", counted)
    levels = enumerate_disks(max_triangles)
    assert len(calls) == 1 + grown
    assert calls[0].facets == ((0, 1, 2),)
    assert len(levels[max_triangles]) == {8: 244, 10: 2805}[max_triangles]


def test_every_disk_has_a_removable_triangle_leaving_a_smaller_disk():
    """A triangle is removable exactly when deleting it leaves a disk, and
    that disk's canonical form is in the previous level."""
    levels = enumerate_disks(8)
    for t in range(2, 9):
        previous = {D.facets for D in levels[t - 1]}
        for D in levels[t]:
            keys = dict(_removal_keys(D.facets))
            assert keys, D.facets
            for F in D.facets:
                rest = [G for G in D.facets if G != F]
                assert (F in keys) == is_disk(rest), (D.facets, F)
                if F in keys:
                    canon, _ = canonical_label(SimplicialComplex(rest))
                    assert canon.facets in previous, (D.facets, F)


DISKS_8 = [D for level in enumerate_disks(8).values() for D in level
           if len(D.facets) > 1]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(DISKS_8) - 1), st.randoms(use_true_random=False))
def test_removal_keys_survive_relabelling(i, rng):
    D = DISKS_8[i]
    labels = rng.sample(range(100), D.n_vertices)
    m = dict(zip(D.vertices, labels))
    want = {_tri(map(m.__getitem__, F)): key
            for F, key in _removal_keys(D.facets)}
    assert dict(_removal_keys(D.relabel(m).facets)) == want


def test_census_table_and_bounds():
    rows = census(6)
    sphere_rows = {r.n_vertices: r for r in rows if r.orientable and r.genus == 0}
    assert sphere_rows[4].count == 1 and sphere_rows[4].endo == "yes"
    assert sphere_rows[5].count == 1
    assert sphere_rows[6].count == 2
    rp2_row = next(r for r in rows if not r.orientable)
    assert rp2_row.count == 1 and rp2_row.endo == "no"
    assert all(r.count <= r.bound for r in rows)

    members = enumerate_surfaces(6)
    table = check_bounds(members)
    assert all(ok for (_, _, _, ok) in table)


def test_bound_values():
    assert manifold_count_bound(2, 10) == 2 ** 40
    assert derived_count_bound(2, 1) == 2 ** 24
    assert manifold_count_bound(3, 2) == 2 ** 18
    assert manifold_count_bound(0, 0) == derived_count_bound(0, 0) == 1


def test_bounds_reject_negative_input():
    # 2 ** negative is a float and factorial(-1) raises ValueError; both
    # bounds refuse the input instead
    for bound in (manifold_count_bound, derived_count_bound):
        for d, n in ((-1, 20), (-2, 20), (2, -3), (-1, -1)):
            with pytest.raises(InvalidComplexError):
                bound(d, n)
