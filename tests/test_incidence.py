"""Oracle tests for the paths served by the cached incidence index.

Every reference below recomputes its answer from the facet list by plain
scans, mostly pairwise ones, and never looks at the index.  The index-based
methods of SimplicialComplex, deletion's scan by first vertex, the
maximality filter and the parser's nesting check are each compared with
them on random small complexes with mixed dimensions, duplicates and
dominated faces, and on pieces of real surfaces.
"""

import itertools
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from scx.complexes import (DualGraph, SimplicialComplex, SurfaceClass,
                           _maximal, face_tuple, full_simplex, octahedron)
from scx.errors import InvalidComplexError, ScxFormatError
from scx.scxio import MAGIC, complex_from_text, complex_to_text
from scx.subdivision import sd_k

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# closed surfaces and a disk to cut pieces from, so that links, boundaries
# and orientations of real surfaces show up next to arbitrary complexes
RP2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
       (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]
TORUS7 = [tuple(sorted(((i + a) % 7, (i + b) % 7, (i + c) % 7)))
          for i in range(7) for a, b, c in ((0, 1, 3), (0, 2, 3))]
# connected, every edge in at most two triangles, but vertex 0 is pinched:
# its link is two edges, a path plus a cycle, or two cycles
PINCHED = ([(0, 1, 2), (0, 3, 4)],
           [(0, 1, 2), (0, 2, 3), (0, 1, 3), (0, 4, 5), (0, 5, 6)],
           [(0, 1, 2), (0, 2, 3), (0, 1, 3), (0, 4, 5), (0, 5, 6), (0, 4, 6)])
BASES = (list(octahedron().facets), RP2, TORUS7,
         [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5)]) + PINCHED

faces = st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True).map(tuple)


@st.composite
def raw_facets(draw):
    """Facet lists with mixed sizes, repeats and dominated members."""
    out = draw(st.lists(faces, min_size=1, max_size=8))
    if draw(st.booleans()):
        F = draw(st.sampled_from(out))
        out.append(F[::-1])  # the same face again, in another order
    if draw(st.booleans()):
        F = draw(st.sampled_from(out))
        if len(F) > 1:
            out.append(F[:draw(st.integers(1, len(F) - 1))])  # dominated
    return out


@st.composite
def surface_pieces(draw):
    """Pure 2-complexes: a surface or disk with facets cut out or added."""
    base = draw(st.sampled_from(BASES))
    keep = [F for F in base if draw(st.integers(0, 5)) > 0]
    extra = draw(st.lists(st.lists(st.integers(0, 7), min_size=3, max_size=3,
                                   unique=True).map(tuple), max_size=2))
    return keep + extra or base


def build(raw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SimplicialComplex(raw)


complexes = st.one_of(raw_facets(), surface_pieces()).map(build)


# -- quadratic references ------------------------------------------------------


def ref_maximal(family):
    out = []
    for f in sorted(set(family), key=len, reverse=True):
        if not any(set(f) < set(g) for g in out):
            out.append(f)
    return out


def ref_kept(raw):
    cleaned = {face_tuple(f) for f in raw}
    return sorted(f for f in cleaned
                  if not any(len(g) > len(f) and set(f) < set(g) for g in cleaned))


def ref_facets_containing(C, sigma):
    ss = set(face_tuple(sigma))
    return tuple(F for F in C.facets if ss <= set(F))


def ref_link(C, sigma):
    s = face_tuple(sigma)
    if s not in C.faces():
        raise InvalidComplexError("%r is not a face" % (s,))
    lk = [tuple(v for v in F if v not in s) for F in C.facets if set(s) <= set(F)]
    return SimplicialComplex(r for r in lk if r)


def ref_ridge_counts(facets):
    count = {}
    for F in facets:
        if len(F) < 2:
            continue
        for r in itertools.combinations(F, len(F) - 1):
            count[r] = count.get(r, 0) + 1
    return count


def ref_star(C, sigma):
    fs = ref_facets_containing(C, sigma)
    if not fs:
        raise InvalidComplexError("%r is not a face" % (face_tuple(sigma),))
    return SimplicialComplex(fs)


def ref_components(C):
    """Vertex-connected pieces, merged pairwise until nothing changes."""
    pieces = [[F] for F in C.facets]
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(pieces)), 2):
            if {v for F in pieces[a] for v in F} & {v for F in pieces[b] for v in F}:
                pieces[a] += pieces.pop(b)
                merged = True
                break
    return sorted((SimplicialComplex(p) for p in pieces),
                  key=lambda P: P.vertices[0])


def ref_boundary(C):
    if not C.is_pure():
        raise InvalidComplexError("boundary needs a pure complex")
    if C.dim <= 0:
        return SimplicialComplex()
    return SimplicialComplex(r for r, c in ref_ridge_counts(C.facets).items()
                             if c == 1)


def ref_dual_graph(C):
    fs = C.facets
    adj = [set() for _ in fs]
    for i, j in itertools.combinations(range(len(fs)), 2):
        if len(fs[i]) > 1 and len(fs[j]) > 1 and len(set(fs[i]) & set(fs[j])) \
                == len(fs[i]) - 1 == len(fs[j]) - 1:
            adj[i].add(j)
            adj[j].add(i)
    seen, queue = {0}, [0]
    while fs and queue:
        for j in adj[queue.pop()]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    pm = (C.is_pure() and bool(fs)
          and all(c <= 2 for c in ref_ridge_counts(fs).values()))
    return DualGraph(facets=fs, adjacency=tuple(tuple(sorted(s)) for s in adj),
                     pseudomanifold=pm, connected=not fs or len(seen) == len(fs))


def ref_orientation(C):
    """Sign propagation that finds each facet's neighbours by a full scan."""
    if not C.is_pure():
        raise InvalidComplexError("orientation needs a pure complex")
    fs = C.facets
    if fs and len(fs[0]) < 2:
        return {F: 1 for F in fs}
    if any(c > 2 for c in ref_ridge_counts(fs).values()):
        return None

    def omitted(F, r):
        return next(p for p, v in enumerate(F) if v not in r)

    sign = {}
    for start in range(len(fs)):
        if start in sign:
            continue
        sign[start] = 1
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(len(fs)):
                r = tuple(v for v in fs[i] if v in fs[j])
                if j == i or len(r) != len(fs[i]) - 1:
                    continue
                want = -sign[i] * (-1) ** (omitted(fs[i], r) + omitted(fs[j], r))
                if j not in sign:
                    sign[j] = want
                    queue.append(j)
                elif sign[j] != want:
                    return None
    return {fs[i]: s for i, s in sign.items()}


def ref_classify(C):
    chi = C.euler_characteristic()
    fail = SurfaceClass(kind="not-a-surface", euler_characteristic=chi)
    if not C.facets or C.dim != 2 or not C.is_pure() or not C.is_connected():
        return fail
    for e in C.faces(1):
        if len(ref_facets_containing(C, e)) > 2:
            return fail
    closed = True
    for v in C.faces(0):
        lk = ref_link(C, v)
        if lk.dim != 1 or not lk.is_connected():
            return fail
        degs = {}
        for a, b in lk.facets:
            degs[a] = degs.get(a, 0) + 1
            degs[b] = degs.get(b, 0) + 1
        if len(degs) != lk.n_vertices:
            return fail
        ds = sorted(degs.values())
        if ds.count(1) == 2 and set(ds) <= {1, 2}:
            closed = False
        elif set(ds) != {2}:
            return fail
    orientable = ref_orientation(C) is not None
    b = 0 if closed else len(ref_boundary(C).connected_components())
    kind = "closed-surface" if closed else "surface-with-boundary"
    if orientable:
        return SurfaceClass(kind=kind, euler_characteristic=chi, orientable=True,
                            genus=(2 - chi - b) // 2, boundary_components=b)
    return SurfaceClass(kind=kind, euler_characteristic=chi, orientable=False,
                        cross_caps=2 - chi - b, boundary_components=b)


def ref_deletion(C, other):
    if isinstance(other, SimplicialComplex):
        forb = [set(F) for F in other.facets]
    else:
        forb = [set(face_tuple(other))]
    keep = [f for f in C.faces() if not any(b <= set(f) for b in forb)]
    return SimplicialComplex(ref_maximal(keep))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InvalidComplexError as e:
        return "raised", str(e)


# -- the complex ---------------------------------------------------------------


@SETTINGS
@given(raw_facets())
def test_kept_facets_and_maximal_match_the_pairwise_scan(raw):
    assert list(build(raw).facets) == ref_kept(raw)
    family = [face_tuple(f) for f in raw]
    got = _maximal(family)
    assert sorted(got) == sorted(ref_maximal(family))
    assert [len(f) for f in got] == sorted((len(f) for f in got), reverse=True)


@SETTINGS
@given(complexes, st.lists(faces, max_size=3))
def test_facets_containing_and_link_match_the_full_scan(C, probes):
    for sigma in sorted(C.faces()) + probes + [()]:
        assert C.facets_containing(sigma) == ref_facets_containing(C, sigma)
        assert outcome(C.link, sigma) == outcome(ref_link, C, sigma)
        assert outcome(C.star, sigma) == outcome(ref_star, C, sigma)


@SETTINGS
@given(complexes)
def test_connected_components_match_pairwise_merging(C):
    assert C.connected_components() == ref_components(C)


@SETTINGS
@given(complexes)
def test_ridge_index_users_match_the_pairwise_scan(C):
    assert outcome(C.boundary) == outcome(ref_boundary, C)
    assert C.dual_graph() == ref_dual_graph(C)
    assert outcome(C.orientation) == outcome(ref_orientation, C)


@SETTINGS
@given(complexes)
def test_classify_surface_matches_the_full_scan(C):
    assert C.classify_surface() == ref_classify(C)


@SETTINGS
@given(complexes, st.data())
def test_deletion_matches_the_full_scan(C, data):
    own = sorted(C.faces())
    single = data.draw(st.one_of(faces, st.sampled_from(own), st.just(())))
    part = build(data.draw(st.lists(st.sampled_from(own), min_size=1,
                                    max_size=4)))
    for other in (single, part, data.draw(complexes)):
        assert C.deletion(other) == ref_deletion(C, other)


def test_pieces_reach_every_surface_kind():
    kinds = set()
    for raw in (list(octahedron().facets), RP2, TORUS7, BASES[3], RP2[1:]):
        sc = build(raw).classify_surface()
        assert sc == ref_classify(build(raw))
        kinds.add((sc.kind, sc.orientable))
    assert kinds == {("closed-surface", True), ("closed-surface", False),
                     ("surface-with-boundary", True),
                     ("surface-with-boundary", False)}
    for raw in PINCHED:
        C = build(raw)
        assert C.is_connected() and C.dual_graph().pseudomanifold
        assert C.classify_surface() == ref_classify(C)
        assert C.classify_surface().kind == "not-a-surface"


def test_classify_surface_builds_no_complex_per_vertex(monkeypatch):
    """Vertex links are read off the stars: on sd^2 of the octahedron (146
    vertices) and of a triangle (37) at most the boundary and its components
    are built."""
    rungs = [complex_from_text(complex_to_text(sd_k(base, 2).complex))
             for base in (octahedron(), full_simplex(2))]
    made = []
    init, canonical = SimplicialComplex.__init__, SimplicialComplex._canonical

    def counting_init(self, *args):
        made.append("init")
        init(self, *args)

    def counting_canonical(cls, facets):
        made.append("canonical")
        return canonical(facets)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting_init)
    monkeypatch.setattr(SimplicialComplex, "_canonical",
                        classmethod(counting_canonical))
    for C, kind in zip(rungs, ("closed-surface", "surface-with-boundary")):
        del made[:]
        assert C.classify_surface().kind == kind
        assert len(made) <= 2, (kind, len(made))


def test_star_queries_build_only_the_stars():
    """facets_containing, link and star read the vertex stars alone; the
    full index, built later, holds that same table."""
    K = complex_from_text(complex_to_text(sd_k(octahedron(), 2).complex))
    v = K.vertices[0]
    assert len(K.facets_containing((v,))) == len(K.link((v,)).facets)
    assert K.star((v,)).facets == K.facets_containing((v,))
    assert K._index is None
    assert K._incidence()[0] is K._stars()


# -- the parser's nesting check ------------------------------------------------


def ref_complex_from_text(text):
    """The parser with its pairwise nesting check, for the same inputs."""
    lines = text.split("\n")[:-1]
    head = [int(line.split(" ")[1]) for line in lines[1:4]]
    dim, n_vertices, n_facets = head
    facets = []
    for k in range(n_facets):
        line_no = 5 + k
        f = tuple(int(p) for p in lines[4 + k].split(" "))
        if list(f) != sorted(set(f)):
            raise ScxFormatError("facet vertices must be strictly increasing",
                                 line_no)
        if facets and f <= facets[-1]:
            raise ScxFormatError("facets must be listed in increasing order",
                                 line_no)
        for j, g in enumerate(facets):
            if set(g) < set(f) or set(f) < set(g):
                raise ScxFormatError("facet is nested with the one on line %d"
                                     % (5 + j), line_no)
        facets.append(f)
    if {v for F in facets for v in F} != set(range(n_vertices)):
        raise ScxFormatError("vertex labels must be exactly 0..%d"
                             % (n_vertices - 1), 4)
    if max((len(F) for F in facets), default=0) - 1 != dim:
        raise ScxFormatError("declared dim %d but facets have dim %d"
                             % (dim, max(len(F) for F in facets) - 1), 2)
    return SimplicialComplex(facets)


@st.composite
def scx_files(draw):
    """Valid files and files with nested, unsorted or miscounted facets."""
    facets = sorted(set(draw(st.lists(faces.map(lambda f: tuple(sorted(f))),
                                      min_size=1, max_size=9))))
    if draw(st.booleans()):
        facets = ref_maximal(facets)
        facets.sort()
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(facets) - 1))
        facets.insert(i, facets.pop())  # out of order
    used = {v for F in facets for v in F}
    n_vertices = len(used) if draw(st.integers(0, 3)) else max(used) + 1
    relabel = {v: i for i, v in enumerate(sorted(used))}
    if draw(st.booleans()):
        facets = [tuple(relabel[v] for v in F) for F in facets]
    dim = max(len(F) for F in facets) - 1 + (draw(st.integers(0, 5)) == 0)
    lines = [MAGIC, "dim %d" % dim, "vertices %d" % n_vertices,
             "facets %d" % len(facets)]
    lines.extend(" ".join(str(v) for v in F) for F in facets)
    return "\n".join(lines) + "\n"


@SETTINGS
@given(scx_files())
def test_parser_matches_the_pairwise_nesting_check(text):
    def parse(fn):
        try:
            return "ok", fn(text).facets
        except ScxFormatError as e:
            return "error", str(e), e.line_no

    assert parse(complex_from_text) == parse(ref_complex_from_text)
