"""Isomorphism, gluing, canonical forms, and small censuses.

The pseudomanifold fast paths all exploit the same fact: once an ordered
facet correspondence is fixed, walking the dual graph forces the rest of the
vertex identification, because crossing a shared ridge determines the image
of the opposite vertex, which each walk reads off the incidence index.
determine_gluing walks from one ordered seed facet.  canonical_label walks
from every flag (a facet and an order of its vertices), numbering vertices
as it meets them, and keeps the smallest walk code, each facet's sorted
labels in the order reached.  The code depends only on the flag up to
isomorphism and lists every facet: a canonical form.  So iso compares b's
flags, in order, against one walk from a's first facet; the first tie fixes
the isomorphism.

Both run one walk routine, _canon_walk, which stops a walk at its first
entry above the best code's (canonical_label) or unequal to a's (iso), and
both skip unwalked a flag whose second entry, which its start facet and
vertex order fix (_flags), would already stop it.

Any other complex is cut into vertex-connected pieces, each with a form
from the flag walk or from individualisation-refinement, which skips a
vertex whose swap with one tried maps facets to facets; iso compares the
forms of the whole (_canonical_form, _individualise).

Censuses grow triangulations facet by facet: closed surfaces by repeatedly
capping the least open edge, disks by level-wise ear and corner moves.
Results are deduplicated by canonical form.  The surface census tests a
closed surface with iso against the forms kept with its invariant
(facet count, sorted vertex degrees) and canonicalises only one that
matches none, so once per class.  The disk census grows each
representative by one move per orbit of its automorphism group, which the
flag walk reports as the walks that tie the best code (_flag_form), and
canonicalises a grown disk only when its new triangle has the least
removal key among the disk's removable triangles (the inverses of the two
moves), a screen on an isomorphism invariant of the pair (disk, triangle);
enumerate_disks proves that every class is still reached.
"""

import itertools
import math
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, combinations, repeat

from .complexes import SimplicialComplex, face_tuple
from .collapse import _overall_verdict, _search_options, is_endo_collapsible
from .errors import (DEFAULT_MAX_NODES, InvalidComplexError, check_budget,
                     spend)


@dataclass(frozen=True)
class IsoCertificate:
    """Vertex bijection witnessing an isomorphism."""

    mapping: tuple  # sorted (source, image) pairs

    def as_dict(self):
        return dict(self.mapping)

    def check(self, a, b):
        m = self.as_dict()
        if set(m) != set(a.vertices):
            return False
        if sorted(m.values(), key=repr) != sorted(b.vertices, key=repr):
            return False
        try:
            mapped = {face_tuple(m[v] for v in F) for F in a.facets}
        except InvalidComplexError:
            return False
        return mapped == set(b.facets)


def determine_gluing(a, b, seed):
    """Propagate a vertex identification from one ordered facet correspondence.

    seed is (facet_of_a, ordered_vertex_tuple_of_a_b_facet); entry i of the
    second component is the image of the i-th vertex of the first.  The walk
    crosses every ridge that is two-sided in both complexes and stops at
    ridges that are one-sided in b (that is where an overlap ends).  Returns
    the vertex mapping found, or None on any conflict.  Both complexes must be
    pure with every ridge in at most two facets.
    """
    fa, ordered = seed
    fa = face_tuple(fa)
    if fa not in a.facets:
        raise InvalidComplexError("seed %r is not a facet" % (fa,))
    ordered = tuple(ordered)
    gb = face_tuple(ordered)
    if gb not in b.facets:
        raise InvalidComplexError("seed image %r is not a facet" % (gb,))
    if len(fa) != len(ordered):
        raise InvalidComplexError("seed facets have different dimensions")
    for c, name in ((a, "first"), (b, "second")):
        if not (c.is_pure() and c._incidence()[2]):
            raise InvalidComplexError(
                "%s complex is not a pseudomanifold" % name)
    fs_a, fs_b = a.facets, b.facets
    across_a, across_b = a._incidence()[1], b._incidence()[1]
    mapping = dict(zip(fa, ordered))
    inverse = {w: v for v, w in mapping.items()}
    start = fs_a.index(fa)
    image = {start: fs_b.index(gb)}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        F, G = fs_a[i], fs_b[image[i]]
        # read only for facets of b the walk reaches, so a walk costs its
        # overlap, not b's size: facing vertex -> (neighbour, its apex)
        facing_b = {G[p]: (k, fs_b[k][q]) for p, k, q in across_b[image[i]]}
        for p, j, q in sorted(across_a[i]):  # the ridges of F in order
            nb = facing_b.get(mapping[F[p]])
            if nb is None:
                continue  # one-sided in b: the overlap stops here
            k, apex_b = nb
            # then image[j] is k, or (mapping being injective) image[i], k and
            # image[j] would be three facets of thin b on this ridge's image
            if j in image:
                continue
            apex_a = fs_a[j][q]
            if apex_a in mapping:
                if mapping[apex_a] != apex_b:
                    return None
            elif apex_b in inverse:
                return None
            else:
                mapping[apex_a] = apex_b
                inverse[apex_b] = apex_a
            image[j] = k
            queue.append(j)
    return mapping


def _vertex_signature(complex):
    fs, stars = complex.facets, complex._stars()
    return {v: tuple(sorted(len(fs[i]) for i in stars[v]))
            for v in complex.vertices}


def _screens(complex):
    return (
        complex.dim,
        complex.n_vertices,
        tuple(sorted(len(F) for F in complex.facets)),
        complex.f_vector(),
        tuple(sorted(_vertex_signature(complex).values())),
    )


def _connected_pm(complex):
    """Whether complex is pure, of dimension >= 1, thin and one piece."""
    return (complex.is_pure() and complex.dim >= 1 and complex._incidence()[2]
            and len(complex._incidence()[3]) == 1)


def _certificate(a, image):
    # a.vertices is in _vkey order, so the pairs come out sorted
    return IsoCertificate(tuple((v, image[v]) for v in a.vertices))


def iso(a, b, max_nodes=DEFAULT_MAX_NODES):
    """Isomorphism test with certificate; None when not isomorphic.

    On connected pseudomanifolds the certificate comes from b's first flag,
    in facet then vertex order, whose walk code equals that of a's first
    facet in its own order.  Each flag's walk stops at its first entry
    unequal to a's, which is the same full tie as a walk that stops only
    above a's code.  A flag whose second entry differs from a's is skipped
    unwalked, since its walk would stop there.  Every flag counts one
    node, skipped or not.  Any other pair is isomorphic when both have the
    same _canonical_form, and every leaf of either search counts one node.
    Raises BudgetExceededError past max_nodes seeds or search nodes.
    """
    check_budget("max_nodes", max_nodes)
    if _screens(a) != _screens(b):
        return None
    if a.facets == b.facets:
        return _certificate(a, {v: v for v in a.vertices})

    nodes = itertools.count(1)
    over = "isomorphism search exceeded %(budget)d nodes"
    if _connected_pm(a) and _connected_pm(b):
        # a flag fixes the isomorphism: b's first flag whose walk code ties
        # that of a's first facet in its own order is the answer
        va, vb = a.vertices, b.vertices
        fa, ta = _walk_table(a)
        start, perm, k_a = next(_flags(fa, ta))
        code, label_a, _ = _canon_walk(fa, ta, start, perm, None)
        fb, tb = _walk_table(b)
        for start, perm, k in _flags(fb, tb):
            spend(next(nodes), max_nodes, over)
            if k != k_a:
                continue  # its second code entry differs from code[1]
            run = _canon_walk(fb, tb, start, perm, code, exact=True)
            if run is not None:
                at = {l: vb[j] for j, l in run[1].items()}
                return _certificate(a, {va[i]: at[l] for i, l in label_a.items()})
        return None

    if not (_connected_pm(a) or _connected_pm(b)):  # else one is, one not
        (form, label_a), (form_b, label_b) = (
            _canonical_form(c, max_nodes, over) for c in (a, b))
        if form == form_b:
            at = {l: w for w, l in label_b.items()}
            return _certificate(a, {v: at[l] for v, l in label_a.items()})
    return None


def _walk_table(complex):
    """Facets as vertex ranks (SimplicialComplex._ranked), and per facet
    (facing vertex, neighbour, apex) for each neighbour, read off the
    incidence index: apex is the neighbour's vertex opposite the shared
    ridge."""
    facets = complex._ranked()[2]
    table = [[(F[p], j, facets[j][q]) for p, j, q in row]
             for F, row in zip(facets, complex._incidence()[1])]
    return facets, table


def _flags(facets, table):
    """Every flag, start facet then vertex order, as (start, perm, k).

    k is the position in perm of the last vertex facing a neighbour of the
    start facet.  The walk reaches that neighbour first, and its apex is new
    (were it in the start facet, the two facets would be equal), so the
    flag's second code entry is range(d+2) without k: it depends on k alone
    and is smaller for larger k.  A lone facet has no second entry; its k
    is d.
    """
    for start, F in enumerate(facets):
        facing = [v for v, _, _ in table[start]]
        if len(facing) in (0, len(F)):
            last = len(F) - 1
            for perm in itertools.permutations(F):
                yield start, perm, last
        else:
            for perm in itertools.permutations(F):
                yield start, perm, max(map(perm.index, facing))


def _canon_walk(facets, table, start, perm, best, exact=False):
    """Walk code and labels of one flag, and whether the code ties best.

    Returns None once the code exceeds best, or, when exact, once it
    differs from best; an exact walk that returns ties best in full.  A
    flag's code ties best under one rule exactly when it does under the
    other.  Neighbours go in the label order of the shared ridges, which is
    the descending label order of the facing vertices.  A thin complex has
    one neighbour per ridge, so the facing vertices of one facet are
    distinct and their labels alone order them.
    """
    label = dict(zip(perm, range(len(perm))))
    nxt = len(perm)
    code = [best[0] if best else tuple(range(nxt))]  # every code starts so
    placed = {start}
    tied = best is not None
    queue = [start]
    facing_label = lambda e: label[e[0]]
    for i in queue:
        row = table[i]
        if len(row) > 1:
            row = sorted(row, key=facing_label, reverse=True)
        for _, j, apex in row:
            if j in placed:
                continue
            placed.add(j)
            queue.append(j)
            if apex not in label:
                label[apex] = nxt
                nxt += 1
            entry = tuple(sorted(map(label.__getitem__, facets[j])))
            if tied:
                want = best[len(code)]
                if entry != want:
                    if exact or entry > want:
                        return None
                    tied = False
            code.append(entry)
    return code, label, tied


def canonical_label(complex, budget=DEFAULT_MAX_NODES):
    """Canonical relabeling: returns (canonical complex, mapping to new ids).

    Isomorphic complexes produce equal canonical complexes, and
    complex.relabel(mapping) is the canonical one.  Connected pure
    pseudomanifolds take _flag_form, any other complex _canonical_form.
    Raises BudgetExceededError when flags exceed budget, or when the leaves
    (relabelings) of that search do.
    """
    check_budget("budget", budget)
    if not complex.facets:
        return complex, {}
    if _connected_pm(complex):
        return _flag_form(complex, budget)[:2]

    # canonical: each piece's form is, and later pieces take larger labels
    form, label = _canonical_form(complex, budget, "canonical labeling "
                                  "search exceeded %(budget)d relabelings")
    return SimplicialComplex._canonical(form), label


def _flag_form(complex, budget):
    """(canonical complex, label map, automorphisms) of a connected pure
    pseudomanifold.

    The form keeps the smallest walk code over all flags, the first one on
    a tie.  Each walk stops at its first entry above the best code's, and a
    flag whose second entry is above the best code's is skipped unwalked,
    since its walk would stop there.  A walk that ties the best code in
    full labels the complex onto the same form, so it and the best flag's
    labels differ by an automorphism of the form; every automorphism
    carries the best flag to such a tie.  The automorphisms, identity
    omitted, are tuples p with p[x] the image of form vertex x; the list
    restarts whenever the best code improves.
    """
    spend(len(complex.facets) * math.factorial(complex.dim + 1), budget,
          "canonical labeling needs %(requested)d walks (budget %(budget)d)")
    vertices = complex.vertices
    facets, table = _walk_table(complex)
    best = best_label = None
    best_k, ties = -1, []
    for start, perm, k in _flags(facets, table):
        if k < best_k:
            continue  # its second code entry exceeds best[1]
        run = _canon_walk(facets, table, start, perm, best)
        if run is None:
            continue
        if run[2]:
            ties.append(run[1])
        else:
            (best, best_label, _), best_k, ties = run, k, []
    ranks = sorted(best_label, key=best_label.__getitem__)  # by form vertex
    automorphisms = [tuple(map(label.__getitem__, ranks)) for label in ties]
    # the entries are distinct, strictly increasing int tuples of one
    # length, so none nests in another, and sorted int tuples of one
    # length are in _fkey order
    return (SimplicialComplex._canonical(sorted(best)),
            {v: best_label[i] for i, v in enumerate(vertices)}, automorphisms)


def _canonical_form(complex, budget, over):
    """Sorted canonical int facets and label map: the pieces' forms, sorted
    by (vertex count, form) and offset; each leaf spends a budget tick."""
    leaves = itertools.count(1)
    tick = lambda: spend(next(leaves), budget, over)
    forms = [(p.n_vertices,) + (canonical_label(p, budget) if _connected_pm(p)
                                else _individualise(p, tick))
             for p in complex.connected_components()]
    form, labels, base = [], {}, 0
    for n, canon, label in sorted(forms, key=lambda t: (t[0], t[1].facets)):
        form.extend(tuple(x + base for x in F) for F in canon.facets)
        labels.update((v, x + base) for v, x in label.items())
        base += n
    return form, labels


def _individualise(piece, tick):
    """(canonical complex, label map) of a connected piece by
    individualisation-refinement (McKay, Piperno, Practical graph
    isomorphism II, 2014).  A node is an ordered partition of the vertex
    ranks, cells named by first position; the root refines the
    _vertex_signature cells in their order.  Refinement splits each cell
    that a queued splitter cell hits by its members' neighbour counts in
    the splitter (neighbours share a facet), parts by increasing count,
    and queues every part; only the hit members are regrouped, the others
    stay where they are as the count-0 part.  A node individualises each v
    of its first cell of two or more: v goes first in a cell of its own,
    the only splitter.  A leaf, all singletons, labels vertices by
    position; the least sorted relabelled facet list is the form.  It is canonical:
    refinement, target cell and leaf form read no label, so a relabelling
    maps the search tree onto the relabelled piece's, leaf forms kept.  A
    node skips v if the transposition (u v) maps facets to facets for a
    tried u: an automorphism fixing the node's partition (u, v share a
    cell), it carries u's subtree onto v's, leaf forms kept.
    """
    labels, _, facets = piece._ranked()
    sig, stars = _vertex_signature(piece), piece._stars()
    star = [[facets[i] for i in stars[v]] for v in labels]
    nbrs = [set(chain.from_iterable(s)) - {v} for v, s in enumerate(star)]
    link = lambda u, v: {tuple(x for x in F if x != u) for F in star[u]
                         if v not in F}

    def refine(cell, cells, queue):
        own = set()  # cells made in this call, so not shared with a parent
        for w in queue:  # the queue grows while it is read
            count = Counter(chain.from_iterable(nbrs[x] for x in cells[w]))
            hit = {}  # cell -> count -> its members with that count
            for y, k in count.items():
                hit.setdefault(cell[y], {}).setdefault(k, []).append(y)
            for s in sorted(hit):
                parts = hit[s]
                rest = len(cells[s]) - sum(map(len, parts.values()))
                if len(parts) + bool(rest) < 2:
                    continue
                p = s
                if rest:  # the unhit members stay at s, the count-0 part
                    if s not in own:
                        cells[s] = set(cells[s])
                        own.add(s)
                    for m in parts.values():
                        cells[s].difference_update(m)
                    queue.append(s)
                    p += rest
                for k in sorted(parts):
                    cells[p] = set(parts[k])
                    own.add(p)
                    for y in parts[k]:
                        cell[y] = p
                    queue.append(p)
                    p += len(parts[k])
        return cell, cells

    sigs = sorted(sig.values())
    cell, cells = [bisect_left(sigs, sig[v]) for v in labels], {}
    for v, p in enumerate(cell):
        cells.setdefault(p, set()).add(v)
    best, stack = None, [refine(cell, cells, sorted(cells))]
    while stack:
        cell, cells = stack.pop()
        if len(cells) == len(cell):  # a leaf: position labels each vertex
            tick()
            form = sorted(tuple(sorted(cell[x] for x in F)) for F in facets)
            if best is None or form < best[0]:
                best = form, cell
            continue
        s, tried = min(p for p, m in cells.items() if len(m) > 1), []
        for v in sorted(cells[s]):
            if not any(link(u, v) == link(v, u) for u in tried):
                tried.append(v)
                c, z = cell[:], dict(cells)
                z[s], z[s + 1] = {v}, cells[s] - {v}
                for x in z[s + 1]:
                    c[x] = s + 1
                stack.append(refine(c, z, [s]))
    # the form relabels the piece's facets: distinct, unnested, and sorted
    return SimplicialComplex._canonical(best[0]), dict(zip(labels, best[1]))


# -- censuses ----------------------------------------------------------------


def _check_surface_cap(n_vertices):
    spend(n_vertices, 10, "surface census capped at %(budget)d vertices")


def enumerate_surfaces(n_vertices):
    """All connected closed triangulated surfaces on exactly n vertices, up to
    isomorphism.

    Grows triangle sets from a fixed seeded edge, always capping the least
    open edge, introducing fresh vertices in discovery order, so the used
    vertices are range(n_used).  A set fixes which of its triangles capped
    each edge, so it has exactly one growth path and is reached at most
    once: no set is remembered.  Each stack entry carries its triangles,
    its edge counts (triangles per edge) and n_used, so a child copies its
    parent's counts and adds its new triangle instead of recounting.

    A closed set on all n vertices that classify_surface accepts is
    grouped by an isomorphism invariant, (facet count, sorted vertex
    degrees), and tested with iso against the forms already kept in its
    group; canonical_label runs only when it matches none, so once per
    class.  The output is the one that canonicalising every closed surface
    gives: a skipped surface has a certified isomorphism to a kept form,
    so that form is its canonical form; a surface that matches none is of
    a class not kept yet, since isomorphic surfaces share the invariant and
    iso finds an isomorphism whenever one exists; and every form kept comes
    from canonical_label.
    """
    if n_vertices < 4:
        return []
    _check_surface_cap(n_vertices)
    kept = {}  # invariant -> the forms kept with it
    seed = ((0, 1, 2), (0, 1, 3))
    counts = {(0, 1): 2, (0, 2): 1, (1, 2): 1, (0, 3): 1, (1, 3): 1}
    stack = [(seed, counts, 4)]
    while stack:
        tris, counts, n_used = stack.pop()
        open_edges = [e for e, c in counts.items() if c == 1]
        if open_edges:
            va, vb = min(open_edges)
            for w in range(n_used + (n_used < n_vertices)):  # old, then fresh
                if w == va or w == vb:
                    continue
                ea = (w, va) if w < va else (va, w)
                eb = (w, vb) if w < vb else (vb, w)
                a, b = counts.get(ea, 0), counts.get(eb, 0)
                t = (w, va, vb) if w < va else (
                    (va, w, vb) if w < vb else (va, vb, w))
                if a == 2 or b == 2 or t in tris:
                    continue
                child = counts.copy()
                child[va, vb], child[ea], child[eb] = 2, a + 1, b + 1
                stack.append((tris + (t,), child, max(n_used, w + 1)))
            continue
        if n_used != n_vertices:
            continue
        # distinct (a t already in tris is skipped), strictly increasing int
        # triples (t is built sorted, w apart from va < vb), so none nests in
        # another, and sorted int triples of one length are in _fkey order
        cand = SimplicialComplex._canonical(sorted(tris))
        if cand.classify_surface().kind != "closed-surface":
            continue
        degrees = sorted(Counter(chain.from_iterable(tris)).values())
        group = kept.setdefault((len(tris), tuple(degrees)), [])
        if not any(iso(form, cand) is not None for form in group):
            group.append(canonical_label(cand)[0])
    return sorted(chain.from_iterable(kept.values()), key=lambda S: S.facets)


def _removal_keys(facets):
    """Each removable triangle of a disk of two or more triangles, with its
    removal key, as (triangle, key) pairs.

    A removable triangle leaves a disk when deleted; the removable ones are
    the inverses of enumerate_disks' two moves.  An ear has two boundary
    edges au and av; its apex a then lies in no other triangle, since the
    link of a is a path from u to v through the edge uv.  A corner has
    exactly one boundary edge uv, and the opposite vertex w is interior.
    The key reads only edge counts and vertex degrees (triangles per
    vertex), so an isomorphism of disks carries each removable triangle to
    one with the same key: (0, sorted degrees of u and v) for an ear,
    (1, degree of w, sorted degrees of u and v) for a corner.
    """
    edge_count = Counter(chain.from_iterable(map(combinations, facets,
                                                  repeat(2))))
    degree = Counter(chain.from_iterable(facets))
    on_boundary = set(chain.from_iterable(
        e for e, c in edge_count.items() if c == 1))
    for F in facets:
        a, b, c = F
        # the vertices of F facing its boundary edges
        facing = [x for x, e in ((c, (a, b)), (b, (a, c)), (a, (b, c)))
                  if edge_count[e] == 1]
        if len(facing) == 2:
            yield F, (0, tuple(sorted(map(degree.__getitem__, facing))))
        elif len(facing) == 1 and facing[0] not in on_boundary:
            w = facing[0]
            u, v = (x for x in F if x != w)
            yield F, (1, degree[w], tuple(sorted((degree[u], degree[v]))))


def enumerate_disks(max_triangles):
    """Triangulated disks with up to the given number of triangles, up to
    isomorphism, keyed by triangle count.

    Level t+1 comes from level t by two boundary moves: an ear over one
    boundary edge using a fresh vertex, and a corner fill over two consecutive
    boundary edges whose endpoints are not yet joined by an edge.  Each
    representative keeps its automorphism group from _flag_form, and makes
    one move per orbit of the group on its boundary edges (ears) and on its
    corner vertices (corners): the least member of each orbit.  A grown
    disk is kept only when its new triangle has the least removal key
    (_removal_keys) among its removable triangles; only kept disks are
    canonicalised and deduplicated.

    Every class X of level t+1 is still reached.  X has a removable
    triangle: a triangulated disk is shellable, and the last triangle of a
    shelling of X meets the rest in one edge (an ear) or in two (a corner).
    Let r be a removable triangle of X with the least key.  X - r is a
    disk of t triangles, and by induction its class has a representative P
    in level t, with an isomorphism f from X - r to P.  If r is an ear over
    uv, uv is a boundary edge of X - r, and the loop makes the ear over
    f(uv) from P.  If r is a corner at w over uv, then wu and wv are the
    boundary edges at w in X - r and uv is no edge of it, so the loop makes
    the corner at f(w) from P.  The loop makes that move m only when m is
    the least of its orbit; else it makes the least one, g(m) for an
    automorphism g of P (which keeps edges and boundary edges, so moves go
    to moves).  Growing P by g(m) gives a disk isomorphic to
    growing it by m, by g extended with the fresh vertex to itself, which
    carries the new triangle onto the new triangle.  Either way the grown
    disk is isomorphic to X by an isomorphism carrying its new triangle to
    r, so its new triangle has r's key, the least one, and it is kept.  The
    argument asks only that g be an automorphism of P, so it holds for the
    orbits of any subgroup of the group.
    """
    if max_triangles < 1:
        return {}
    spend(max_triangles, 12, "disk census capped at %(budget)d triangles")
    triangle = SimplicialComplex([(0, 1, 2)])  # its own canonical form
    levels = {1: [triangle]}
    groups = [_flag_form(triangle, DEFAULT_MAX_NODES)[2]]
    for t in range(1, max_triangles):
        nxt = {}
        for disk, group in zip(levels[t], groups):
            edge_count = Counter(chain.from_iterable(
                map(combinations, disk.facets, repeat(2))))
            boundary = [e for e, c in edge_count.items() if c == 1]
            fresh = max(disk.vertices) + 1
            grown = []
            for (x, y) in boundary:
                # the least boundary edge of its orbit
                if all((min(g[x], g[y]), max(g[x], g[y])) >= (x, y)
                       for g in group):
                    grown.append(disk.facets + (face_tuple((x, y, fresh)),))
            at_vertex = {}
            for (x, y) in boundary:
                at_vertex.setdefault(x, []).append(y)
                at_vertex.setdefault(y, []).append(x)
            # the boundary is one cycle: each of its vertices ends two edges
            for w, (u, v) in at_vertex.items():
                if face_tuple((u, v)) in edge_count:
                    continue
                if all(g[w] >= w for g in group):  # least corner of its orbit
                    grown.append(disk.facets + (face_tuple((u, v, w)),))
            for facets in grown:
                keys = dict(_removal_keys(facets))
                if keys[facets[-1]] > min(keys.values()):
                    continue  # some removable triangle has a smaller key
                # disk's facets are canonical int triangles, and the new
                # triangle is new: an ear has a fresh vertex, and a corner
                # fill's edge uv is absent; so the sorted facets are
                # canonical
                cand = SimplicialComplex._canonical(sorted(facets))
                form, _, automorphisms = _flag_form(cand, DEFAULT_MAX_NODES)
                nxt.setdefault(form.facets, (form, automorphisms))
        levels[t + 1] = [nxt[k][0] for k in sorted(nxt)]
        groups = [nxt[k][1] for k in sorted(nxt)]
    return levels


# -- counting bounds and the census table ------------------------------------


def _check_bound_args(d, n_facets):
    if d < 0 or n_facets < 0:
        raise InvalidComplexError("bounds need d >= 0 and n_facets >= 0, got d=%d, "
                                  "n_facets=%d" % (d, n_facets))


# the largest k with 2^k below 10^4300: str() spells no int of more digits
_MAX_EXPONENT = (10 ** 4300).bit_length() - 1


def _bound_exponent(k):
    """k, refused past _MAX_EXPONENT before 2^k is taken: a bound past 4300
    digits raises BudgetExceededError."""
    spend(k, _MAX_EXPONENT, "counting bound would have more than 4300 "
          "digits: its exponent passes %(budget)d")
    return k


def manifold_count_bound(d, n_facets):
    """Upper bound 2^(d^2 N) for the number of d-manifold triangulation types
    with N facets."""
    _check_bound_args(d, n_facets)
    return 2 ** _bound_exponent(d * d * n_facets)


def derived_count_bound(d, n_facets):
    """Upper bound 2^(d^2 (d+1)! N) used when passing to derived subdivisions."""
    _check_bound_args(d, n_facets)
    # d^2 N is checked first, so (d+1)! is taken only for d <= 119, or not
    # at all when d^2 N is 0
    k = _bound_exponent(d * d * n_facets)
    return 2 ** _bound_exponent(k and k * math.factorial(d + 1))


@dataclass(frozen=True)
class CensusRow:
    """One census class: surfaces on n_vertices of one type, with their
    endo verdict, smallest facet count and counting bound."""

    n_vertices: int
    orientable: bool
    genus: int  # handle count when orientable, cross-cap count otherwise
    count: int
    endo: str  # aggregated endo-collapsibility verdict over the class
    min_facets: int
    bound: int


DEFAULT_CENSUS_SEEDS = 16
DEFAULT_CENSUS_MAX_NODES = 10 ** 5


def census(max_vertices, seeds=DEFAULT_CENSUS_SEEDS,
           max_nodes=DEFAULT_CENSUS_MAX_NODES):
    """Census table of closed surfaces by vertex count and topological type."""
    _search_options("auto", 0, seeds, max_nodes)  # before any enumeration
    _check_surface_cap(max_vertices)  # and the cap, before any search
    rows = []
    for n in range(4, max_vertices + 1):
        groups = {}
        for s in enumerate_surfaces(n):
            sc = s.classify_surface()
            genus = sc.genus if sc.orientable else sc.cross_caps
            groups.setdefault((sc.orientable, genus), []).append(s)
        for (orientable, genus), members in sorted(groups.items()):
            endo = _overall_verdict(
                is_endo_collapsible(m, strategy="auto", seeds=seeds,
                                    max_nodes=max_nodes).verdict
                for m in members)
            min_facets = min(len(m.facets) for m in members)
            rows.append(CensusRow(
                n_vertices=n, orientable=orientable, genus=genus,
                count=len(members), endo=endo, min_facets=min_facets,
                bound=manifold_count_bound(2, min_facets)))
    return rows


def check_bounds(members, d=2):
    """Group complexes by facet count N and compare against 2^(d^2 N)."""
    by_n = Counter(len(m.facets) for m in members)
    out = []
    for n_facets in sorted(by_n):
        bound = manifold_count_bound(d, n_facets)
        out.append((n_facets, by_n[n_facets], bound, by_n[n_facets] <= bound))
    return out
