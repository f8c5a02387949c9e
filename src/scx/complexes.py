"""Core simplicial complex type and elementary constructions.

A complex is determined by its facet list.  Faces are stored as tuples of
vertex labels sorted by a universal key, so int, str and tuple labels can
coexist; tuple labels show up once subdivisions start naming vertices by the
faces they subdivide.  Queries that need lower faces expand the downward
closure on demand and memoize it.
"""

import itertools
import warnings
from dataclasses import dataclass

from .errors import InvalidComplexError


def _vkey(v):
    """Total order on vertex labels across types: ints, then strs, then tuples."""
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, str):
        return (1, v)
    if isinstance(v, tuple):
        return (2, tuple(_vkey(x) for x in v))
    raise InvalidComplexError("unsupported vertex label %r" % (v,))


def _fkey(face):
    return tuple(_vkey(v) for v in face)


def face_tuple(vertices):
    """Canonical face representation: tuple of distinct labels in universal order."""
    vs = tuple(sorted(vertices, key=_vkey))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise InvalidComplexError("repeated vertex %r in face %r" % (a, vs))
    return vs


def _maximal(faces):
    """Maximal elements of a family of faces, longest first.

    Each face is compared only with the longer maximal faces in the star of
    its least crowded vertex.
    """
    by_len = {}
    for f in set(faces):
        by_len.setdefault(len(f), []).append(f)
    out = []
    star = {}  # vertex -> longer maximal faces containing it
    for n in sorted(by_len, reverse=True):
        level = []
        for f in by_len[n]:
            near = min((star.get(v, ()) for v in f), key=len, default=out)
            if not any(set(f).issubset(g) for g in near):
                level.append(f)
        for g in level:
            for v in g:
                star.setdefault(v, []).append(g)
        out.extend(level)
    return out


def _closure(facets):
    """Set of all nonempty faces of the given faces."""
    faces = set()
    for F in facets:
        for k in range(1, len(F) + 1):
            faces.update(itertools.combinations(F, k))
    return faces


def _levels(facets):
    """The nonempty faces of the given faces, one frozenset per face size."""
    return [frozenset(itertools.chain.from_iterable(
                map(itertools.combinations, facets, itertools.repeat(k))))
            for k in range(1, max(map(len, facets), default=0) + 1)]


def _ridge_map(facets):
    """Ridge -> (facet index, position of the vertex facing the ridge) for
    each facet of dimension >= 1 containing it."""
    ridges = {}
    for i, F in enumerate(facets):
        if len(F) > 1:
            for pos in range(len(F)):
                ridges.setdefault(F[:pos] + F[pos + 1:], []).append((i, pos))
    return ridges


@dataclass(frozen=True)
class DualGraph:
    """Facet adjacency structure: facets in canonical order, neighbors by index."""

    facets: tuple
    adjacency: tuple
    pseudomanifold: bool
    connected: bool


@dataclass(frozen=True)
class SurfaceClass:
    """Outcome of classify_surface.

    kind is one of "closed-surface", "surface-with-boundary", "not-a-surface".
    genus counts handles of an orientable surface, cross_caps counts cross-caps
    of a non-orientable one; the other slot stays None.
    """

    kind: str
    euler_characteristic: int
    orientable: bool = None
    genus: int = None
    cross_caps: int = None
    boundary_components: int = 0


class SimplicialComplex:
    """Immutable simplicial complex given by its facets (maximal faces).

    The empty complex (no facets) is allowed; use new_complex to reject it.
    Dominated would-be facets are dropped with a warning, exact duplicates
    silently.
    """

    __slots__ = ("facets", "_vertices", "_faces", "_by_dim", "_star_index",
                 "_index")

    def __init__(self, facets=()):
        cleaned = set()
        for f in map(face_tuple, facets):
            try:
                cleaned.add(f)
            except TypeError:  # a label face_tuple sorts but cannot hash
                for v in f:
                    try:
                        hash(v)
                    except TypeError:
                        raise InvalidComplexError(
                            "unhashable vertex label %r" % (v,)) from None
                raise
        if any(len(f) == 0 for f in cleaned):
            raise InvalidComplexError("the empty face cannot be listed as a facet")
        if len({len(f) for f in cleaned}) > 1:
            keep = _maximal(cleaned)
            for f in cleaned.difference(keep):
                warnings.warn("dropping dominated facet %r" % (f,))
        else:
            keep = cleaned
        self._store(tuple(sorted(keep, key=_fkey)))

    @classmethod
    def _canonical(cls, facets):
        """Store facets that are already canonical, without checking them.

        Canonical means four things: the facets are distinct, each one is
        strictly increasing in the universal label order, none is contained
        in another, and the sequence is sorted by _fkey.  Only callers that
        prove all four may use this; input from outside the program goes
        through __init__.  The callers are the .scx parser, star,
        connected_components, normalize, sd, canonical_label,
        census._individualise and enumerate_disks, each with its proof
        where it calls.
        """
        self = cls.__new__(cls)
        self._store(tuple(facets))
        return self

    def _store(self, facets):
        self.facets = facets
        self._vertices = self._faces = self._by_dim = None
        self._star_index = self._index = None

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self):
        return max((len(F) for F in self.facets), default=0) - 1

    @property
    def vertices(self):
        """The vertex labels in the universal order, sorted once."""
        if self._vertices is None:
            self._vertices = tuple(sorted({v for F in self.facets for v in F},
                                          key=_vkey))
        return self._vertices

    def _ranked(self):
        """(labels, rank, facets): the vertices, label -> rank, and the
        facets as tuples of vertex ranks; built afresh on each call.

        Ranks follow the universal order of the labels, so each facet's rank
        tuple is increasing, and rank tuples sort as their label tuples do
        under _fkey; (len, rank tuple) orders faces as (len, _fkey) orders
        them.  The facets are not cached: many small live complexes would
        hold one list each.
        """
        labels = self.vertices
        rank = dict(zip(labels, range(len(labels))))
        return labels, rank, [tuple(map(rank.__getitem__, F))
                              for F in self.facets]

    @property
    def n_vertices(self):
        return len(self.vertices)

    def _face_levels(self):
        """The faces of each dimension 0..dim, as frozensets, built once."""
        if self._by_dim is None:
            self._by_dim = _levels(self.facets)
        return self._by_dim

    def faces(self, dim=None):
        """All nonempty faces as a frozenset, or just those of one dimension.

        The faces of one dimension come from _face_levels; the frozenset of
        all of them is built only when asked for.
        """
        if dim is not None:
            levels = self._face_levels()
            return levels[dim] if 0 <= dim < len(levels) else frozenset()
        if self._faces is None:
            self._faces = frozenset(_closure(self.facets))
        return self._faces

    def has_face(self, sigma):
        return face_tuple(sigma) in self.faces()

    def __contains__(self, sigma):
        return self.has_face(sigma)

    def f_vector(self):
        return tuple(map(len, self._face_levels()))

    def euler_characteristic(self):
        return sum((-1) ** k * len(level)
                   for k, level in enumerate(self._face_levels()))

    def is_pure(self):
        return len({len(F) for F in self.facets}) <= 1

    def _stars(self):
        """Vertex -> indices of the facets containing it, built once; read-only."""
        if self._star_index is None:
            stars = {}
            for i, F in enumerate(self.facets):
                for v in F:
                    stars.setdefault(v, []).append(i)
            self._star_index = stars
        return self._star_index

    def _incidence(self):
        """(stars, across, thin, pieces), built once; read-only.

        stars is the table of _stars(), not a copy.  across[i] lists
        (p, j, q) for each facet j sharing the ridge that facet i's vertex at
        position p faces; q is the position of j's facing vertex.  thin: no
        ridge lies in three facets.  pieces are the ridge-connected pieces
        by least facet s, as (s, tree): tree holds, breadth first, the
        crossing (i, p, j, q) that first reaches each other facet j, so the
        crossings span the piece.  Ridges count for facets of dim >= 1.
        """
        if self._index is None:
            fs = self.facets
            ridges = _ridge_map(fs)
            across = [[] for _ in fs]
            for ends in ridges.values():
                for (i, p), (j, q) in itertools.permutations(ends, 2):
                    across[i].append((p, j, q))
            thin = all(len(ends) <= 2 for ends in ridges.values())
            pieces, seen = [], [False] * len(fs)
            for s in range(len(fs)):
                if not seen[s]:
                    seen[s] = True
                    order, tree = [s], []
                    for i in order:
                        for p, j, q in across[i]:
                            if not seen[j]:
                                seen[j] = True
                                order.append(j)
                                tree.append((i, p, j, q))
                    pieces.append((s, tree))
            self._index = (self._stars(), across, thin, pieces)
        return self._index

    def facets_containing(self, sigma):
        s, fs = face_tuple(sigma), self.facets
        if not s:
            return fs
        star = self._stars().get(s[0], ())
        return tuple(fs[i] for i in star if set(s).issubset(fs[i]))

    # -- local and global constructions ----------------------------------

    def link(self, sigma):
        s = face_tuple(sigma)
        star = self.facets_containing(s) if s else ()
        if not star:
            raise InvalidComplexError("%r is not a face" % (s,))
        lk = []
        for F in star:
            rest = tuple(v for v in F if v not in s)
            if rest:
                lk.append(rest)
        return SimplicialComplex(lk)

    def star(self, sigma):
        """Closed star: the closure of every facet containing sigma."""
        fs = self.facets_containing(sigma)
        if not fs:
            raise InvalidComplexError("%r is not a face" % (face_tuple(sigma),))
        return SimplicialComplex._canonical(fs)  # an in-order subset of facets

    def deletion(self, other):
        """Subcomplex of faces containing no facet of `other` (complex or single face)."""
        forb = other.facets if isinstance(other, SimplicialComplex) else [face_tuple(other)]
        if () in forb:
            return SimplicialComplex()  # the empty face lies in every face
        by_first = {}  # a forbidden face inside f has its first vertex in f
        for b in forb:
            by_first.setdefault(b[0], []).append(set(b))
        keep = [f for f in self.faces()
                if not any(b <= set(f) for v in f for b in by_first.get(v, ()))]
        return SimplicialComplex(_maximal(keep))

    def induced(self, vertices):
        """Full subcomplex on a vertex subset."""
        vs = set(vertices)
        inter = {tuple(v for v in F if v in vs) for F in self.facets}
        inter.discard(())
        return SimplicialComplex(_maximal(inter))

    def join(self, other):
        """Simplicial join; vertex label collisions force a dense int relabeling."""
        if set(self.vertices) & set(other.vertices):
            a = {v: i for i, v in enumerate(self.vertices)}
            b = {v: i + len(a) for i, v in enumerate(other.vertices)}
            return self.relabel(a).join(other.relabel(b))
        return SimplicialComplex(
            face_tuple(F + G) for F in self.facets for G in other.facets
        )

    def cone(self, apex=None):
        """Join with a fresh apex vertex (an unused int label unless given)."""
        if apex is None:
            ints = [v for v in self.vertices if isinstance(v, int)]
            apex = max(ints) + 1 if ints else 0
        if any(apex in F for F in self.facets):
            raise InvalidComplexError("apex %r is already a vertex" % (apex,))
        if not self.facets:
            return SimplicialComplex([(apex,)])
        return SimplicialComplex(face_tuple(F + (apex,)) for F in self.facets)

    def boundary(self):
        """Closure of the ridges lying in exactly one facet (pure complexes only)."""
        if not self.is_pure():
            raise InvalidComplexError("boundary needs a pure complex")
        if self.dim <= 0:
            return SimplicialComplex()
        # built afresh: boundary is often a complex's only query, and caching
        # the index on many small live complexes costs more memory than it saves
        ridges = _ridge_map(self.facets)
        return SimplicialComplex(r for r, fs in ridges.items() if len(fs) == 1)

    # -- relabelings ------------------------------------------------------

    def relabel(self, mapping):
        vs = self.vertices
        img = set()
        for v in vs:
            if v not in mapping:
                raise InvalidComplexError("no image for vertex %r" % (v,))
            img.add(mapping[v])
        if len(img) != len(vs):
            raise InvalidComplexError("relabeling is not injective")
        return SimplicialComplex(
            tuple(mapping[v] for v in F) for F in self.facets
        )

    def normalize(self):
        """Relabel vertices to 0..n-1 following the universal label order."""
        # the ranked facets are canonical: ranks follow the label order, and
        # an int label's _vkey orders as the int does (see _ranked)
        return SimplicialComplex._canonical(self._ranked()[2])

    # -- connectivity and duality ----------------------------------------

    def is_connected(self):
        return len(self._facet_groups()) <= 1

    def _facet_groups(self):
        """Facets of each vertex-connected piece, pieces by least vertex."""
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for F in self.facets:
            a = find(F[0])
            for v in F[1:]:
                parent[find(v)] = a
        groups = {}
        for F in self.facets:
            groups.setdefault(find(F[0]), []).append(F)
        return [fs for _, fs in sorted(groups.items(), key=lambda kv: _vkey(kv[0]))]

    def connected_components(self):
        """Split into vertex-connected pieces, each a complex."""
        # each group is an in-order subset of the canonical facet tuple
        return [SimplicialComplex._canonical(fs) for fs in self._facet_groups()]

    def dual_graph(self):
        """Facet adjacency across shared ridges, read off the incidence index.

        pseudomanifold means pure, nonempty and thin (every ridge in at most
        two facets); connected means at most one ridge-connected piece.
        """
        fs = self.facets
        _, across, thin, pieces = self._incidence()
        # two facets share at most one ridge, so no neighbour repeats
        adj = tuple(tuple(sorted(j for _, j, _ in row)) for row in across)
        return DualGraph(facets=fs, adjacency=adj,
                         pseudomanifold=self.is_pure() and bool(fs) and thin,
                         connected=len(pieces) <= 1)

    def orientation(self):
        """Compatible facet signs, or None when no such assignment exists.

        Needs a pure complex.  Signs start at 1 on each piece's least facet,
        follow the piece's tree crossings and are then checked at every ridge.
        """
        if not self.is_pure():
            raise InvalidComplexError("orientation needs a pure complex")
        _, across, thin, pieces = self._incidence()
        if not thin:
            return None
        # compatible iff the ridge orientations induced by the positions of
        # the two facing vertices cancel
        sign = {}
        for seed, tree in pieces:
            sign[seed] = 1
            for i, p, j, q in tree:
                sign[j] = -sign[i] * (-1) ** (p + q)
        for i, row in enumerate(across):
            for p, j, q in row:
                if sign[j] != -sign[i] * (-1) ** (p + q):
                    return None
        return {self.facets[i]: s for i, s in sign.items()}

    # -- surface recognition ----------------------------------------------

    def classify_surface(self):
        """Decide whether this is a connected triangulated surface and which one.

        Disconnected complexes report not-a-surface.  The index gives the
        pieces, the thin flag and each vertex link, read off the star; the
        ends of the links that are paths give the boundary edges, so the
        boundary is never built.
        """
        chi = self.euler_characteristic()

        def fail():
            return SurfaceClass(kind="not-a-surface", euler_characteristic=chi)

        if not self.facets or self.dim != 2 or not self.is_pure():
            return fail()
        stars, _, thin, pieces = self._incidence()
        if not thin or len(pieces) != 1:  # one piece is vertex-connected: see below
            return fail()
        fs = self.facets
        rim = {}  # boundary vertex -> its two neighbours along the boundary
        for v, star in stars.items():
            # the link of v is the graph of edges F - v over its star facets
            nbrs = {}
            for i in star:
                x, y, z = fs[i]
                a, b = (y, z) if v == x else (x, z) if v == y else (x, y)
                nbrs.setdefault(a, []).append(b)
                nbrs.setdefault(b, []).append(a)
            # no edge lies in three triangles, so the link is a union of
            # cycles and paths; walk the piece from one path end, or from
            # anywhere if there is none: a single cycle (interior vertex) or
            # path (boundary vertex) meets every vertex, and then the star
            # of v lies in one piece, so one piece is vertex-connected
            ends = [u for u, ns in nbrs.items() if len(ns) == 1]
            start = ends[0] if ends else next(iter(nbrs))
            prev, cur, seen = start, nbrs[start][0], 1
            while cur != start and len(nbrs[cur]) == 2:
                x, y = nbrs[cur]
                prev, cur, seen = cur, (y if x == prev else x), seen + 1
            if cur != start:
                seen += 1  # the far end of a path
            if seen != len(nbrs):
                return fail()
            if ends:
                # an end u of the path makes v u an edge of one triangle
                rim[v] = ends
        orientable = self.orientation() is not None
        # every boundary vertex has two boundary neighbours, so the boundary
        # is a union of cycles: walk each one off rim
        b = 0
        while rim:
            b += 1
            prev, (cur, _) = rim.popitem()
            while cur in rim:
                x, y = rim.pop(cur)
                prev, cur = cur, (y if x == prev else x)
        twice = 2 - chi - b  # twice the genus, or the cross-cap count
        return SurfaceClass(
            kind="surface-with-boundary" if b else "closed-surface",
            euler_characteristic=chi, orientable=orientable,
            genus=twice // 2 if orientable else None,
            cross_caps=None if orientable else twice, boundary_components=b,
        )

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return "SimplicialComplex(dim=%d, n_facets=%d, n_vertices=%d)" % (
            self.dim, len(self.facets), self.n_vertices,
        )


def new_complex(facets):
    """Build a complex from facets, rejecting empty input."""
    fs = list(facets)
    if not fs:
        raise InvalidComplexError("a complex needs at least one facet")
    return SimplicialComplex(fs)


def full_simplex(d):
    """The solid d-simplex on vertices 0..d."""
    if d < 0:
        raise InvalidComplexError("dimension must be >= 0")
    return SimplicialComplex([tuple(range(d + 1))])


def simplex_boundary(d):
    """Boundary sphere of the d-simplex: all d-subsets of 0..d."""
    if d < 1:
        raise InvalidComplexError("dimension must be >= 1")
    return SimplicialComplex(itertools.combinations(range(d + 1), d))


def octahedron():
    """Boundary of the 3-dimensional cross-polytope; antipodal pairs (0,1),(2,3),(4,5)."""
    return SimplicialComplex(
        (a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)
    )
