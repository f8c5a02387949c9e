"""Explicit surface families whose isomorphism types multiply with size.

Two positive constructions and one documented dead end:

* strip surfaces: cap a triangle strip into a sphere, punch out 2g strip
  triangles in two blocks of g, and reconnect the holes through fresh
  three-vertex tubes according to a permutation.  Genus g with 14g + 8
  facets, and the permutation can be read back off the surface.
* grid surfaces: the same plan starting from a triangulated 1 x 4g grid.
  The holes are pairwise vertex disjoint there, so the reconnecting prisms
  need no fresh vertices at all: genus g with 20g facets on 8g + 2 vertices.
* quotient tori: triangulate a (2r + 2)-gon and glue its boundary by the
  usual torus identification.  The left edge of the polygon always maps to
  a loop, so every single pattern is rejected, by proof and without any
  gluing; the functions exist to make that failure checkable.

The kept strip triangles sit asymmetrically between the hole blocks (one
before, two between, none after), which kills the end-for-end symmetry: the
punctured sphere that all genus-g strip surfaces share glues into each of
them in one way only, and recovery reads the permutation through it.
"""

import math
import operator
from dataclasses import dataclass

from .census import determine_gluing, iso
from .complexes import SimplicialComplex, _vkey, face_tuple
from .errors import InvalidComplexError, QuotientRejected


def _check_perm(perm):
    try:
        p = tuple(map(operator.index, perm))
    except TypeError:  # a non-integer entry, such as 1.9 or "1"
        p = ()
    if not p or sorted(p) != list(range(1, len(p) + 1)):
        raise InvalidComplexError("need a permutation of 1..g, got %r" % (perm,))
    return p


# -- triangle strips ----------------------------------------------------------


def triangle_strip(k):
    """Strip of k triangles {i, i+1, i+2} on the vertices 0..k+1."""
    if k < 1:
        raise InvalidComplexError("strip needs at least one triangle")
    return SimplicialComplex([(i, i + 1, i + 2) for i in range(k)])


def strip_sphere(g):
    """Sphere with 4g + 8 facets: a (2g+3)-strip plus a cone over its rim."""
    if g < 1:
        raise InvalidComplexError("genus must be >= 1")
    strip = triangle_strip(2 * g + 3)
    return strip.cone(apex=2 * g + 5).boundary()


def _oriented_cycle(facet, sign):
    x, y, z = facet
    return (x, y, z) if sign > 0 else (x, z, y)


def _tube(ring_a, mids, ring_b):
    # cylinder ring_a -> mids -> ring_b, all three listed as oriented cycles
    tris = []
    for R, S in ((ring_a, mids), (mids, ring_b)):
        for i in range(3):
            tris.append((R[i], R[(i + 1) % 3], S[(i + 1) % 3]))
            tris.append((R[i], S[i], S[(i + 1) % 3]))
    return tris


def _strip_holes(g):
    """The two blocks of g strip triangles that strip_surface punches out of
    strip_sphere(g): one kept triangle before them, two between, none after."""
    return ([(j, j + 1, j + 2) for j in range(1, g + 1)],
            [(j, j + 1, j + 2) for j in range(g + 3, 2 * g + 3)])


def strip_surface(perm):
    """Orientable genus-g surface with 14g + 8 facets from a permutation.

    Hole j in the first block tunnels to hole perm[j-1] in the second; the
    tube around hole j uses the fresh vertices 2g + 3j + 3 .. 2g + 3j + 5.
    """
    perm = _check_perm(perm)
    return _strip_surface(strip_sphere(len(perm)), perm)


def _strip_surface(sphere, perm):
    """strip_surface(perm) built on sphere, strip_sphere(len(perm))."""
    g = len(perm)
    signs = sphere.orientation()
    holes_a, holes_b = _strip_holes(g)
    removed = set(holes_a + holes_b)
    tris = [F for F in sphere.facets if F not in removed]
    for j in range(1, g + 1):
        A = holes_a[j - 1]
        B = holes_b[perm[j - 1] - 1]
        mids = tuple(2 * g + 6 + 3 * (j - 1) + t for t in range(3))
        ca = _oriented_cycle(A, signs[A])
        cb = _oriented_cycle(B, signs[B])
        tris.extend(_tube(ca, mids, tuple(reversed(cb))))
    return SimplicialComplex(tris)


def recover_strip_permutation(complex):
    """Read the permutation back off a strip surface, labels irrelevant.

    The punctured sphere P, strip_sphere(g) less its holes, is glued in
    from its apex facet (0, 1, 2g + 5), seeded on the facets at each vertex
    of the apex's degree in both orientations; a gluing counts only if it
    places every facet of P.  Hole j of the first block leaves one unplaced
    triangle on the image of its edge (j, j + 2) (consecutive holes share
    (j, j + 1)).  Its third vertex and that vertex's neighbours off P form
    tube j's ring, and the least second-block label of P that the ring
    touches is g + 2 + perm[j - 1].  A guess is returned only when the
    surface rebuilt from it is isomorphic to the complex.
    """
    n = len(complex.facets)
    g, rem = divmod(n - 8, 14)
    if g < 1 or rem != 0:
        raise InvalidComplexError("facet count %d is not 14g + 8" % n)
    # determine_gluing needs a pure complex with every ridge in <= 2 facets
    if complex.dim == 2 and complex.is_pure() and complex._incidence()[2]:
        sphere, holes = strip_sphere(g), set().union(*_strip_holes(g))
        P = SimplicialComplex(F for F in sphere.facets if F not in holes)
        fs, stars = complex.facets, complex._stars()
        apex = 2 * g + 5
        for c in complex.vertices:
            if len(stars[c]) != apex:
                continue
            for i in stars[c]:
                x, y = (v for v in fs[i] if v != c)
                # P's vertex 0 lies in three facets, and so must its image
                for seed in ((x, y, c), (y, x, c)):
                    if len(stars[seed[0]]) != 3:
                        continue
                    m = determine_gluing(P, complex, ((0, 1, apex), seed))
                    perm = _read_strip_permutation(complex, P, m, g)
                    if perm and iso(_strip_surface(sphere, perm),
                                    complex) is not None:
                        return perm
    raise InvalidComplexError("complex is not a strip surface")


def _read_strip_permutation(complex, P, m, g):
    """The permutation read through the gluing m of P into complex; None
    unless m places every facet of P and the reading is a permutation."""
    if m is None or len(m) < P.n_vertices:
        return None
    placed = {face_tuple(m[v] for v in F) for F in P.facets}
    if not placed <= set(complex.facets):
        return None
    fs, stars = complex.facets, complex._stars()
    inverse = {w: v for v, w in m.items()}
    nbrs = lambda u: {w for i in stars[u] for w in fs[i]}
    perm = []
    for j in range(1, g + 1):
        a, b = m[j], m[j + 2]
        off = [fs[i] for i in stars[a] if b in fs[i] and fs[i] not in placed]
        if len(off) != 1:
            return None
        x, = set(off[0]) - {a, b}
        ring = {x} | {w for w in nbrs(x) if w not in inverse}
        touched = {inverse[w] for u in ring for w in nbrs(u) if w in inverse}
        perm.append(min((v - g - 2 for v in touched if v > g + 2), default=0))
    return tuple(perm) if sorted(perm) == list(range(1, g + 1)) else None


# -- grid surfaces ------------------------------------------------------------


def _grid_rows(g):
    """The labels t(j) and b(j) of the j-th top and bottom grid vertices."""
    return (lambda j: j), (lambda j: 4 * g + 1 + j)


def grid_disk(g):
    """Triangulated 1 x 4g grid missing one corner triangle: 8g - 1 facets.

    Top vertices are 0..4g left to right, bottom vertices 4g+1..8g+1; the
    diagonals flip direction halfway along and the last lower corner is cut,
    which also drops the bottom-right vertex.
    """
    if g < 1:
        raise InvalidComplexError("genus must be >= 1")
    t, b = _grid_rows(g)
    tris = []
    for k in range(1, 4 * g + 1):
        if k <= 2 * g:
            tris.append((t(k - 1), b(k - 1), b(k)))
            tris.append((t(k - 1), t(k), b(k)))
        else:
            tris.append((t(k - 1), t(k), b(k - 1)))
            tris.append((t(k), b(k - 1), b(k)))
    tris.pop()  # the corner triangle (t_{4g}, b_{4g-1}, b_{4g})
    return SimplicialComplex(tris)


def grid_sphere(g):
    """Sphere with 16g facets: the grid disk plus a cone over its rim."""
    disk = grid_disk(g)
    return disk.cone(apex=8 * g + 1).boundary()


def _grid_holes(g):
    t, b = _grid_rows(g)
    # hole j of the first block sits in square 2j-1, leftmost corner first;
    # hole i of the second block sits in square 2g+2i, rightmost corner first
    first = [(t(2 * j - 2), t(2 * j - 1), b(2 * j - 1)) for j in range(1, g + 1)]
    second = [(t(2 * g + 2 * i), t(2 * g + 2 * i - 1), b(2 * g + 2 * i - 1))
              for i in range(1, g + 1)]
    return first, second


def _quad(a, b, c, d):
    # cyclic quad a-b-c-d split along the diagonal at its least corner
    m = min((a, b, c, d), key=_vkey)
    if m in (a, c):
        return [(a, b, c), (a, c, d)]
    return [(b, c, d), (b, d, a)]


def _prism(tri1, tri2):
    p0, p1, p2 = tri1
    q0, q1, q2 = tri2
    tris = []
    tris.extend(_quad(p0, p1, q1, q0))
    tris.extend(_quad(p1, p2, q2, q1))
    tris.extend(_quad(p2, p0, q0, q2))
    return tris


def grid_surface(perm):
    """Orientable genus-g surface with 20g facets on 8g + 2 vertices.

    Because the punched holes share no vertices, each pair is joined by a
    bare six-triangle prism between the matched hole corners.
    """
    perm = _check_perm(perm)
    g = len(perm)
    sphere = grid_sphere(g)
    first, second = _grid_holes(g)
    removed = {face_tuple(h) for h in first} | {face_tuple(h) for h in second}
    tris = [F for F in sphere.facets if F not in removed]
    for j in range(1, g + 1):
        tris.extend(_prism(first[j - 1], second[perm[j - 1] - 1]))
    return SimplicialComplex(tris)


# -- polygon triangulations and the torus quotient ----------------------------


def polygon_triangulations(n):
    """All triangulations of a convex n-gon on the cyclic labels 0..n-1."""
    if n < 3:
        raise InvalidComplexError("a polygon needs at least 3 vertices")

    def rec(i, j):
        if j - i < 2:
            yield ()
            return
        for k in range(i + 1, j):
            for left in rec(i, k):
                for right in rec(k, j):
                    yield ((i, k, j),) + left + right

    yield from rec(0, n - 1)


def dyck_words(length):
    """All balanced 1/0 words of the given length, lexicographically."""
    if length % 2:
        raise InvalidComplexError("balanced words have even length")
    if length < 0:
        return
    half = length // 2
    word = "10" * half  # the least word
    while True:
        yield word
        # the word is a stack: pop back to the last 0 with a 1 after it, push
        # a 1 there, then the least completion: close every open 1, then 10s
        cut = word.rfind("0", 0, word.rfind("1"))
        if cut < 0:
            return
        opens = word.count("1", 0, cut) + 1
        word = (word[:cut] + "1" + "0" * (2 * opens - cut - 1)
                + "10" * (half - opens))


def _apexes(n, pattern):
    """Check a pattern for the n-gon and give each 1, in order, its apex.

    The apex of a 1 is the number of 0s read up to and including its
    matching 0: that many polygon vertices precede it along the rim.
    """
    if len(pattern) != 2 * (n - 2) or set(pattern) - {"0", "1"}:
        raise InvalidComplexError("pattern must be a 1/0 word of length %d"
                                  % (2 * (n - 2)))
    apexes = []
    opened = []  # indices into apexes of the 1s not yet matched
    zeros = 0
    for ch in pattern:
        if ch == "1":
            opened.append(len(apexes))
            apexes.append(None)
        elif opened:
            zeros += 1
            apexes[opened.pop()] = zeros
        else:
            raise InvalidComplexError("pattern is not balanced")
    if opened:
        raise InvalidComplexError("pattern is not balanced")
    return apexes


def triangulation_from_pattern(n, pattern):
    """Decode a balanced word of length 2(n-2) into an n-gon triangulation.

    The word is the preorder walk of the diagonal tree: a triangle on the
    root edge (i, j) with apex k is written 1, then the left part over
    (i, k), then 0, then the right part over (k, j).  So i counts the 0s
    before the 1, and j is the apex of the innermost open 1, or n - 1.
    """
    apexes = iter(_apexes(n, pattern))
    ends = [n - 1]  # right ends of the edges whose parts are open
    zeros = 0
    tris = []
    for ch in pattern:
        if ch == "1":
            k = next(apexes)
            tris.append((zeros, k, ends[-1]))
            ends.append(k)
        else:
            zeros += 1
            ends.pop()
    return tuple(tris)


def torus_from_pattern(r, pattern):
    """Attempt the torus quotient of a triangulated (2r + 2)-gon.

    The polygon rim reads u_0 .. u_r along the bottom and back along the
    top, and the quotient identifies u_i with w_i and both ends of each
    path with each other, so vertex p goes to class min(p, 2r + 1 - p),
    with class r merged into class 0.  The first triangle of every pattern
    is (0, k, 2r + 1), and both 0 and 2r + 1 go to class 0: the left edge
    (u_0, w_0) joins two identified vertices.  So every valid pattern is
    rejected at its first triangle, and the exception names it.
    """
    if r < 2:
        raise InvalidComplexError("need r >= 2")
    k = _apexes(2 * r + 2, pattern)[0]
    i = min(k, 2 * r + 1 - k)
    raise QuotientRejected("triangle %r degenerates to %r under the gluing"
                           % ((0, k, 2 * r + 1), (0,) if i == r else (0, i)))


def count_torus_outcomes(r):
    """(patterns tried, quotients accepted) over every pattern for this r."""
    total = 0
    for word in dyck_words(4 * r):
        total += 1
        try:
            torus_from_pattern(r, word)
        except QuotientRejected:
            pass
    return total, 0


# -- headline numbers ----------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundRow:
    """How many surface types a family gives at one parameter and size."""

    family: str
    parameter: int
    n_facets: int
    n_types: int


def lower_bound_table(max_g=3, max_r=4):
    """Facet counts against how many distinct surfaces each family yields.

    Strip and grid families give one surface per permutation (g! of them,
    pairwise nonisomorphic; the tests check that for small g), all of genus
    g.  The torus quotients contribute nothing: every pattern's first
    triangle degenerates, as torus_from_pattern proves.
    """
    rows = []
    for g in range(1, max_g + 1):
        rows.append(LowerBoundRow("strip", g, 14 * g + 8, math.factorial(g)))
    for g in range(1, max_g + 1):
        rows.append(LowerBoundRow("grid", g, 20 * g, math.factorial(g)))
    for r in range(2, max_r + 1):
        rows.append(LowerBoundRow("torus-quotient", r, 2 * r, 0))
    return rows
