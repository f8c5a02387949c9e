"""Collapse search, strategies, certificates, and their independent replay."""

import bisect
import dataclasses
import functools
import hashlib
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scx import (InvalidComplexError, SimplicialComplex, certificate_to_text,
                 full_simplex, octahedron, polygon_triangulations,
                 simplex_boundary)
from scx import collapse, scxio
from scx.collapse import (
    CollapsePair,
    collapses_to,
    discrete_morse_vector,
    is_collapsible,
    is_endo_collapsible,
    sd_endo_collapsibility_report,
)
from scx.scxio import certificate_from_text, complex_from_text, complex_to_text
from scx.subdivision import sd, sd_k
from scx.verify import verify_certificate

from conftest import staircase_product

DISK2 = SimplicialComplex([(0, 1, 2), (1, 2, 3)])


def closure(facets):
    return {f for F in facets for k in range(1, len(F) + 1)
            for f in itertools.combinations(F, k)}


def interleaved_best(calls, rounds=5):
    """Best time of each call over rounds that run every call once, in turn,
    so that a slow spell of a shared host slows all of them alike."""
    best = [float("inf")] * len(calls)
    for _ in range(rounds):
        for k, call in enumerate(calls):
            start = time.perf_counter()
            call()
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def dunce_hat():
    """The dunce hat, triangulated from its quotient description.

    Gluing the sides of the triangle T = [0, 1, 2] as a.a.a^-1 (0 -> 1 and
    1 -> 2 are a, 2 -> 0 is a^-1) glues every side onto a in vertex order:
    one vertex, one edge, one triangle.  A cell of sd(T), a chain of faces
    of T, goes to its image under that gluing: a chain topped by a side
    keeps only its vertex positions inside the side, one topped by a vertex
    becomes the vertex, one topped by T stays itself.  The second derived
    subdivision of such a quotient is simplicial, so a triangle of sd^2(T),
    a chain of three nested cells of sd(T), goes to its three images.
    """
    def image(cell):
        top = cell[-1]
        if len(top) == 2:
            return ("a",) + tuple(tuple(top.index(v) for v in F) for F in cell)
        return ("v",) if len(top) == 1 else ("T",) + cell

    labels = {}
    triangles = []
    for order in itertools.permutations((0, 1, 2)):
        flag = tuple(tuple(sorted(order[:k])) for k in (1, 2, 3))
        for cells in itertools.permutations(range(3)):
            chain = [tuple(flag[j] for j in sorted(cells[:k])) for k in (1, 2, 3)]
            triangles.append(tuple(labels.setdefault(image(c), len(labels))
                                   for c in chain))
    return SimplicialComplex(triangles)


def test_triangle_is_collapsible():
    res = is_collapsible(full_simplex(2))
    assert res.verdict == "yes"
    assert len(res.certificate.pairs) == 3  # (7 faces - 1) / 2
    ok, msg = verify_certificate(res.certificate, full_simplex(2))
    assert ok, msg


def test_solid_simplex_collapsible_exhaustively():
    res = is_collapsible(full_simplex(3), strategy="exhaustive")
    assert res.verdict == "yes"
    assert verify_certificate(res.certificate, full_simplex(3))[0]


def test_sphere_is_not_collapsible():
    res = is_collapsible(simplex_boundary(3))
    assert res.verdict == "no"
    assert "euler" in res.reason


def test_search_no_beyond_euler_gate():
    # cycle plus an isolated vertex has the euler number of a point but no free face
    c = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,)])
    assert is_collapsible(c, strategy="exhaustive").verdict == "no"
    assert is_collapsible(c, strategy="greedy").verdict == "unknown"
    assert is_collapsible(c, strategy="lex").verdict == "unknown"


def test_collapse_to_subcomplex():
    path = SimplicialComplex([(0, 1), (1, 2), (2, 3)])
    mid = SimplicialComplex([(1, 2)])
    res = collapses_to(path, mid)
    assert res.verdict == "yes"
    assert verify_certificate(res.certificate)[0]

    ends = SimplicialComplex([(0,), (3,)])
    assert collapses_to(path, ends).verdict == "no"

    # collapsing onto itself needs no moves
    res = collapses_to(path, path)
    assert res.verdict == "yes" and res.certificate.pairs == ()

    with pytest.raises(InvalidComplexError):
        collapses_to(path, SimplicialComplex([(0, 9)]))


def count_memo_tests(monkeypatch):
    """Patch the name `set` in scx.collapse with a subclass that counts
    membership tests, and give the subclass, whose `tests` is the count.
    On a call with one candidate only _dfs tests membership, against its
    memo `seen`."""

    class Counting(set):
        tests = 0

        def __contains__(self, item):
            Counting.tests += 1
            return super().__contains__(item)

    monkeypatch.setattr(collapse, "set", Counting, raising=False)
    return Counting


def test_exhaustive_collapse_to_exhausts_a_fan_through_the_memo(monkeypatch):
    """A fan of four triangles is a disk, so it does not collapse onto the
    circle bounding its first triangle plus a far vertex, although the Euler
    characteristics agree.  The search tests its memo 50 times: 41 moves
    into new states and 9 into already refuted ones.  Trying again every
    move that commutes with one already tried would make 92 tests, 51 of
    them refuted states; without its transposition table the search visits
    272 states."""
    counted = count_memo_tests(monkeypatch)
    fan = SimplicialComplex([(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5)])
    target = SimplicialComplex([(0, 5), (0, 1), (1, 5), (3,)])
    res = collapses_to(fan, target, strategy="exhaustive")
    assert (res.verdict, res.reason, res.nodes) == ("no", "exhausted 42 states", 42)
    assert counted.tests == 50


def test_budget_gives_unknown():
    res = is_collapsible(full_simplex(2), strategy="exhaustive", max_nodes=0)
    assert res.verdict == "unknown"
    assert "budget" in res.reason


def test_exhaustive_search_restores_the_recursion_limit():
    # 673 faces: deep enough that a recursive search would need a higher
    # limit; the iterative search never changes it
    disk = sd_k(full_simplex(2), 3).complex
    before = sys.getrecursionlimit()
    assert is_collapsible(disk, strategy="exhaustive", max_nodes=50).verdict \
        == "unknown"
    assert sys.getrecursionlimit() == before
    res = is_collapsible(disk, strategy="exhaustive")
    assert res.verdict == "yes" and verify_certificate(res.certificate, disk)[0]
    assert sys.getrecursionlimit() == before


def test_greedy_is_deterministic_per_seed():
    a = is_collapsible(full_simplex(3), seed=5)
    b = is_collapsible(full_simplex(3), seed=5)
    assert a.certificate.pairs == b.certificate.pairs


def test_endo_collapsible_basics():
    # a single full simplex drops to its boundary with no moves at all
    res = is_endo_collapsible(full_simplex(2))
    assert res.verdict == "yes" and res.certificate.pairs == ()
    assert verify_certificate(res.certificate, full_simplex(2))[0]

    res = is_endo_collapsible(DISK2)
    assert res.verdict == "yes" and len(res.certificate.pairs) == 1
    assert verify_certificate(res.certificate, DISK2)[0]

    res = is_endo_collapsible(simplex_boundary(3))
    assert res.verdict == "yes"
    assert res.certificate.removed_facet in simplex_boundary(3).facets
    assert verify_certificate(res.certificate, simplex_boundary(3))[0]


def test_endo_collapsible_every_facet_of_small_spheres():
    for c in (simplex_boundary(3), octahedron()):
        for F in c.facets:
            res = is_endo_collapsible(c, facet=F, strategy="auto")
            assert res.verdict == "yes", (F, res.reason)
            assert res.certificate.removed_facet == F
            assert verify_certificate(res.certificate, c)[0]


def test_endo_collapsible_dimension_zero():
    assert is_endo_collapsible(SimplicialComplex([(0,)])).verdict == "yes"
    assert is_endo_collapsible(SimplicialComplex([(0,), (1,)])).verdict == "yes"
    assert is_endo_collapsible(SimplicialComplex([(0,), (1,), (2,)])).verdict == "no"


def test_endo_collapsible_validates():
    with pytest.raises(InvalidComplexError):
        is_endo_collapsible(SimplicialComplex([(0, 1, 2), (3, 4)]))
    with pytest.raises(InvalidComplexError):
        is_endo_collapsible(DISK2, facet=(0, 1))


def test_endo_verdicts_past_and_at_the_euler_gate():
    assert is_endo_collapsible(SimplicialComplex([])).reason == "empty complex"
    # two triangles: one facet removed leaves euler number 1, the two
    # boundary circles have 0
    two = SimplicialComplex([(0, 1, 2), (3, 4, 5)])
    res = is_endo_collapsible(two, facet=(0, 1, 2))
    assert (res.verdict, res.reason) == ("no", "euler-obstruction")
    # two circles pass the euler check (goal: one vertex), but the circle
    # that keeps all its edges has no free face
    circles = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    res = is_endo_collapsible(circles, facet=(0, 1), strategy="exhaustive")
    assert (res.verdict, res.reason) == ("no", "exhausted %d states" % res.nodes)
    res = is_endo_collapsible(circles, strategy="exhaustive")
    assert (res.verdict, res.reason) == ("no", "all 6 facets refuted")


def test_verify_rejects_tampered_certificates():
    res = is_collapsible(full_simplex(2))
    cert = res.certificate

    reordered = type(cert)(
        initial_facets=cert.initial_facets, removed_facet=None,
        pairs=tuple(reversed(cert.pairs)), claim=cert.claim)
    assert not verify_certificate(reordered)[0]

    truncated = type(cert)(
        initial_facets=cert.initial_facets, removed_facet=None,
        pairs=cert.pairs[:-1], claim=cert.claim)
    assert not verify_certificate(truncated)[0]

    misclaimed = type(cert)(
        initial_facets=cert.initial_facets, removed_facet=None,
        pairs=cert.pairs, claim="collapse-to")
    assert not verify_certificate(misclaimed)[0]

    assert not verify_certificate(cert, full_simplex(3))[0]


def test_sd_endo_report_for_small_sphere():
    rep = sd_endo_collapsibility_report(simplex_boundary(3))
    assert rep.hypotheses_met == "yes"
    assert len(rep.face_verdicts) == 14
    assert all(v == "yes" for _, v, _ in rep.face_verdicts)
    assert rep.conclusion.verdict == "yes"


def test_sd_endo_report_refuses_a_non_pure_complex(monkeypatch):
    # a pure complex has pure links, and sd keeps non-purity, so the
    # refusal comes before any link is subdivided
    def refuse(complex):
        raise AssertionError("sd was called")

    monkeypatch.setattr("scx.collapse.sd", refuse)
    for mixed in (SimplicialComplex([(0, 1, 2), (2, 3)]),
                  SimplicialComplex([(0, 1), (2,)])):
        with pytest.raises(InvalidComplexError,
                           match="endo-collapsibility needs a pure complex"):
            sd_endo_collapsibility_report(mixed)


def test_discrete_morse_vectors():
    assert discrete_morse_vector(full_simplex(2)) == (1, 0, 0)
    assert discrete_morse_vector(simplex_boundary(3)) == (1, 0, 1)
    assert discrete_morse_vector(octahedron()) == (1, 0, 1)
    for attempts in (0, -1):
        with pytest.raises(InvalidComplexError, match="attempts"):
            discrete_morse_vector(octahedron(), attempts=attempts)
        with pytest.raises(InvalidComplexError, match="attempts"):
            discrete_morse_vector(SimplicialComplex(), attempts=attempts)


def reference_lex(facets, removed, goal_facets):
    """The lex rollout by full scans: at every step the least alive face, in
    (size, label) order, with exactly one alive strict coface and outside
    the goal, is collapsed with that coface."""
    alive = closure(facets) - {removed}
    goal = closure(goal_facets)
    up = {f: [g for g in alive if len(g) > len(f) and set(f) < set(g)]
          for f in alive}
    pairs = []
    while len(alive) != (len(goal) if goal else 1):
        for f in sorted(alive - goal, key=lambda f: (len(f), f)):
            cofaces = [g for g in up[f] if g in alive]
            if len(cofaces) == 1:
                pairs.append((f, cofaces[0]))
                alive -= {f, cofaces[0]}
                break
        else:
            return None
    return pairs


def test_lex_certificate_matches_a_reference_rollout():
    # tuple labels of ints, whose universal order is plain tuple order
    for C in (sd(octahedron()).complex, sd(full_simplex(2)).complex):
        res = is_endo_collapsible(C, facet=C.facets[0], strategy="lex")
        assert res.verdict == "yes" and verify_certificate(res.certificate, C)[0]
        expect = reference_lex(C.facets, C.facets[0], C.boundary().facets)
        assert [(p.free, p.coface) for p in res.certificate.pairs] == expect


def test_lex_rollout_scales_linearly():
    """sd^3 has 6 times the facets of sd^2.  A heap of candidates keeps each
    lex step logarithmic; rescanning every candidate at every step made the
    rollout quadratic.  Int labels keep label hashing out of the ratio."""
    rungs = [sd_k(octahedron(), k).complex.normalize() for k in (2, 3)]
    small, large = interleaved_best([
        lambda C=C: is_endo_collapsible(C, facet=C.facets[0], strategy="lex")
        for C in rungs])
    assert large / small < 12, (small, large)


def test_endo_search_scales_linearly_on_tuple_labels():
    """sd^3 has 6 times the facets of sd^2, and its vertex labels nest one
    level deeper.  Ordering the faces by vertex ranks computes each vertex's
    sort key once; keying every face by its vertices' nested keys took about
    30 times as long at sd^3 as at sd^2.  15 separates the two."""
    rungs = [sd_k(octahedron(), k).complex for k in (2, 3)]
    small, large = interleaved_best([
        lambda C=C: is_endo_collapsible(C, facet=C.facets[0]) for C in rungs])
    assert large / small < 15, (small, large)


@pytest.mark.parametrize("relabel", [lambda v: 3 * v + 7,
                                     lambda v: "v%02d" % v,
                                     lambda v: (1, (v,))])
def test_searches_run_on_vertex_ranks(relabel):
    """An order-keeping relabelling leaves the vertex ranks alone, so every
    search makes the same moves, and its certificate maps back to the new
    labels."""
    for C in (sd(octahedron()).complex.normalize(), dunce_hat(),
              sd(full_simplex(2)).complex.normalize()):
        R = C.relabel({v: relabel(v) for v in C.vertices})
        for call in SEARCH_CALLS.values():
            for strategy in collapse.STRATEGIES:
                a = call(C, strategy=strategy, max_nodes=200)
                b = call(R, strategy=strategy, max_nodes=200)
                assert (a.verdict, a.reason, a.nodes) == \
                    (b.verdict, b.reason, b.nodes)
                if a.certificate is not None:
                    removed = a.certificate.removed_facet
                    assert b.certificate.removed_facet == (
                        None if removed is None else tuple(map(relabel, removed)))
                    assert b.certificate.pairs == tuple(
                        collapse.CollapsePair(
                            tuple(map(relabel, p.free)),
                            tuple(map(relabel, p.coface)))
                        for p in a.certificate.pairs)
                    assert verify_certificate(b.certificate, R)[0]
        assert discrete_morse_vector(C, attempts=4) == \
            discrete_morse_vector(R, attempts=4)


def test_exhaustive_search_scales_linearly():
    """sd^4 of a triangle has 6 times the faces of sd^3, and the exhaustive
    search goes down without backtracking.  Each DFS node edits its parent's
    free list; rescanning every face at every node made the ratio about 30,
    and the search about 19 times as slow as a greedy rollout at sd^4."""
    rungs = [sd_k(full_simplex(2), k).complex.normalize() for k in (3, 4)]
    small, large, greedy = interleaved_best(
        [lambda C=C: is_collapsible(C, strategy="exhaustive") for C in rungs]
        + [lambda: is_collapsible(rungs[1], strategy="greedy")])
    assert large / small < 12, (small, large)
    assert large / greedy < 3, (large, greedy)


def test_the_free_list_of_every_dfs_node_is_the_scanned_one(monkeypatch):
    """Each child's free mask, derived from its parent's, equals a scan of
    every face, at every node of every exhaustive search on the corpus of
    the frozen outputs, at a small and the default budget: a face is free
    when it is alive and its engine count, the alive cofaces plus 2 on a
    protected face, is 1."""
    derive = collapse._child_free
    checked = []

    def checked_child_free(engine, masks, free, child, i, t):
        out = derive(engine, masks, free, child, i, t)
        scan = sum(1 << r for r, up0 in enumerate(engine.up0)
                   if child >> r & 1 and up0 - len(engine.sup[r]) + sum(
                       child >> s & 1 for s in engine.sup[r]) == 1)
        assert out == scan, (i, t)
        checked.append(out)
        return out

    monkeypatch.setattr(collapse, "_child_free", checked_child_free)
    corpus = [octahedron(), simplex_boundary(3), full_simplex(3),
              sd(octahedron()).complex.normalize(),
              sd_k(full_simplex(2), 2).complex.normalize(),
              dunce_hat()] + hexagon_triangulations()
    for C in corpus:
        for call in SEARCH_CALLS.values():
            for budget in SEARCH_BUDGETS.values():
                call(C, strategy="exhaustive", **budget)
    assert len(checked) > 4000


def reference_undo(engine, record):
    xs, touched = record
    for r in touched:
        engine.up[r] += 1
    for x in xs:
        engine.alive[x] = 1
    engine.n_alive += len(xs)


def reference_free_after(engine, free, record):
    """The free faces after the move `record`, edited from the sorted list
    `free` of the state before it."""
    xs, touched = record
    up = engine.up
    out = free[:]
    for x in (*xs, *(r for r in touched if not up[r])):
        k = bisect.bisect_left(out, x)
        if k < len(out) and out[k] == x:
            del out[k]
    for r in touched:
        if up[r] == 1:
            bisect.insort(out, r)
    return out


def reference_dfs(engine, max_nodes):
    """The exhaustive search on free-face lists: it kills each move's pair in
    the engine, edits the parent's sorted free list and undoes the move when
    it backtracks.  Same contract as collapse._dfs."""
    goal = engine.goal_size
    if engine.n_alive == goal:
        return [], 0
    alive, sup = engine.alive, engine.sup
    pairs, seen, nodes = [], set(), 1
    key = sum(1 << i for i, a in enumerate(alive) if a)
    free = engine.cand
    stack = [(key, free, iter(free), None)]
    while stack and nodes <= max_nodes:
        key, free, moves, entered = stack[-1]
        for i in moves:
            t = next(t for t in sup[i] if alive[t])
            if engine.n_alive - 2 == goal:
                pairs.append((i, t))
                return pairs, nodes
            child = key ^ (1 << i | 1 << t)
            if child in seen:
                continue
            nodes += 1
            record = (t, i), engine.kill(t) + engine.kill(i)
            pairs.append((i, t))
            free = reference_free_after(engine, free, record)
            stack.append((child, free, iter(free), record))
            break
        else:
            seen.add(key)
            stack.pop()
            if entered is not None:
                reference_undo(engine, entered)
                pairs.pop()
    return None, nodes


def engine_state(engine):
    return engine.n_alive, bytes(engine.alive), engine.up[:], engine.cand[:]


BITMASK_DFS = collapse._dfs  # the tests below patch the module's binding


def same_as_the_reference(engine, max_nodes):
    """The bitmask search's (pairs, nodes), checked against the reference
    from the same start state, which the bitmask search leaves untouched."""
    start = engine_state(engine)
    got = BITMASK_DFS(engine, max_nodes)
    assert engine_state(engine) == start
    assert reference_dfs(engine, max_nodes) == got
    return got


def test_the_bitmask_search_is_the_list_search_on_the_frozen_corpus(
        monkeypatch):
    searched = []

    def checked(engine, max_nodes):
        searched.append(max_nodes)
        return same_as_the_reference(engine, max_nodes)

    monkeypatch.setattr(collapse, "_dfs", checked)
    for C in [octahedron(), simplex_boundary(3), full_simplex(3),
              sd(octahedron()).complex.normalize(),
              sd_k(full_simplex(2), 2).complex.normalize(),
              dunce_hat()] + hexagon_triangulations():
        for call in SEARCH_CALLS.values():
            for budget in SEARCH_BUDGETS.values():
                call(C, strategy="exhaustive", **budget)
    assert len(searched) > 200
    assert set(searched) == {40, collapse.DEFAULT_MAX_NODES}


def test_the_bitmask_search_is_the_list_search_on_polygon_disks(monkeypatch):
    """Every 10-gon triangulation's exhaustive endo search and every 8-gon
    refutation onto an ear's boundary plus the vertex opposite the ear's
    tip, one seeded vertex relabelling per disk: the 1562 searches of the
    small-search benchmark workload at its seed 7, with its node count.
    The 132 refutations test the memo 80492 times; trying again every move
    that commutes with one already tried would make 215978 tests."""
    monkeypatch.setattr(collapse, "_dfs", same_as_the_reference)
    counted = count_memo_tests(monkeypatch)
    rng = random.Random(7)

    def shuffled(tris, n):
        images = list(range(n))
        rng.shuffle(images)
        return sorted(tuple(sorted(images[v] for v in T)) for T in tris)

    nodes = 0
    for tris in polygon_triangulations(10):
        res = is_endo_collapsible(SimplicialComplex(shuffled(tris, 10)),
                                  strategy="exhaustive")
        assert res.verdict == "yes"
        nodes += res.nodes
    refuted = counted.tests = 0
    for tris in polygon_triangulations(8):
        # the first ear in triangle order, as small-search picks it
        a = next(a for T in sorted(tris) for a in range(8)
                 if set(T) == {a, (a + 1) % 8, (a + 2) % 8})
        b, c = (a + 1) % 8, (a + 2) % 8
        both = shuffled(list(tris) + [(a, b), (b, c), (a, c), ((b + 4) % 8,)],
                        8)
        target = [f for f in both if len(f) < 3]
        res = collapses_to(SimplicialComplex([f for f in both if len(f) == 3]),
                           SimplicialComplex(target), strategy="exhaustive")
        assert res.verdict == "no"
        nodes += res.nodes
        refuted += 1
    assert refuted == 132 and nodes == 73016
    assert counted.tests == 80492


@pytest.mark.parametrize("complex", [sd_k(simplex_boundary(3), 2).complex]
                         + [SimplicialComplex(T)
                            for T in polygon_triangulations(7)])
def test_engine_tables_match_a_reference_build(complex):
    """sub[i] lists the faces of i less its vertex at position 0, 1, ...,
    as combinations lists them reversed; sup[j] holds the faces j is one
    vertex short of."""
    levels = collapse._levels(complex._ranked()[2])
    engine = collapse._Engine(levels)
    faces, index = engine.faces, engine.index
    assert faces == sorted(set().union(*levels), key=lambda f: (len(f), f))
    sup = [set() for _ in faces]
    for i, f in enumerate(faces):
        row = [index[r] for r in itertools.combinations(f, len(f) - 1)
               if r][::-1]
        assert list(engine.sub[i]) == row
        for j in row:
            sup[j].add(i)
    assert [set(s) for s in engine.sup] == sup
    assert all(len(s) == len(set(s)) for s in engine.sup)


@st.composite
def engine_starts(draw):
    """A random complex of dimension at most 2 on 6 vertices, as _levels of
    sorted tuples; a goal (None for one vertex, else the closure of some of
    its faces); a removed top face outside the goal, or None; a budget."""
    pool = [f for k in (1, 2, 3) for f in itertools.combinations(range(6), k)]
    facets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    levels = collapse._levels(facets)
    faces = sorted(f for level in levels for f in level)
    goal = draw(st.none() | st.lists(st.sampled_from(faces), max_size=3))
    goal = None if goal is None else collapse._levels(goal)
    protected = set() if goal is None else set().union(*goal)
    top = sorted(levels[-1] - protected)
    removed = draw(st.none() | st.sampled_from(top)) if top else None
    budget = st.integers(0, 60) | st.just(collapse.DEFAULT_MAX_NODES)
    return levels, goal, removed, draw(budget)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(engine_starts())
def test_the_bitmask_search_is_the_list_search_on_random_complexes(start):
    levels, goal, removed, max_nodes = start
    engine = collapse._Engine(levels, goal)
    engine.reset(removed)
    same_as_the_reference(engine, max_nodes)


CYCLE3 = SimplicialComplex([(0, 1), (1, 2), (0, 2)])


@pytest.mark.parametrize("factors, f", [
    ((simplex_boundary(3), CYCLE3), (12, 48, 72, 36)),  # S^2 x S^1
    ((CYCLE3, CYCLE3, CYCLE3), (27, 189, 324, 162)),  # T^3
], ids=["S2xS1", "T3"])
def test_the_bitmask_search_is_the_list_search_on_closed_3_manifolds(
        monkeypatch, factors, f):
    """Two closed 3-manifolds that are not spheres, built as staircase
    products: the one-facet exhaustive endo search runs past 2 * 10**4
    nodes on both, and the bitmask search follows the reference there."""
    M = functools.reduce(staircase_product, factors)
    assert M.f_vector() == f
    sphere = simplex_boundary(3).classify_surface()
    assert {M.link((v,)).classify_surface() for v in M.vertices} == {sphere}
    monkeypatch.setattr(collapse, "_dfs", same_as_the_reference)
    res = is_endo_collapsible(M, facet=M.facets[0], strategy="exhaustive",
                              max_nodes=2 * 10 ** 4)
    assert (res.verdict, res.nodes) == ("unknown", 2 * 10 ** 4)


def test_exhaustive_search_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the search set the recursion limit to %d" % limit)

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    disk = sd_k(full_simplex(2), 3).complex  # 673 faces
    res = is_collapsible(disk, strategy="exhaustive")
    assert res.verdict == "yes" and verify_certificate(res.certificate, disk)[0]
    assert is_collapsible(disk, strategy="exhaustive", max_nodes=50).verdict \
        == "unknown"
    # 1968 moves deep, past the interpreter's default limit of 1000 frames
    disk = sd_k(full_simplex(2), 4).complex
    res = is_collapsible(disk, strategy="exhaustive")
    assert res.verdict == "yes" and len(res.certificate.pairs) > 1000
    assert verify_certificate(res.certificate, disk)[0]


def test_one_engine_per_search_and_no_face_cache(monkeypatch):
    builds = []
    build = collapse._Engine.__init__

    def counting_build(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(collapse._Engine, "__init__", counting_build)

    def run(call):
        builds.clear()
        out = call()
        return len(builds), out

    # greedy collapses the whisker (2, 3), then every seed is stuck
    stuck = SimplicialComplex([(0, 1), (1, 2), (0, 2), (2, 3), (4,)])
    n, res = run(lambda: is_collapsible(stuck, strategy="auto"))
    assert n == 1 and res.verdict == "no" and res.reason.startswith("exhausted")
    assert stuck._faces is None

    # a one-node budget leaves every facet unconfirmed, so all 8 are tried
    octa = octahedron()
    n, res = run(lambda: is_endo_collapsible(octa, strategy="exhaustive",
                                             max_nodes=1))
    assert n == 1 and res.verdict == "unknown"
    assert res.reason == "no facet confirmed; some runs hit the budget"
    assert octa._faces is None

    # a loop plus a vertex has the disk's Euler number, not its homotopy type
    disk = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    loop = SimplicialComplex([(0, 1), (1, 2), (0, 2), (3,)])
    n, res = run(lambda: collapses_to(disk, loop, strategy="auto"))
    assert n == 1 and res.verdict == "no" and res.reason.startswith("exhausted")
    assert disk._faces is None and loop._faces is None

    disk = sd(full_simplex(2)).complex
    n, vec = run(lambda: discrete_morse_vector(disk, attempts=16))
    assert n == 1 and vec == (1, 0, 0)
    assert disk._faces is None


def test_dunce_hat_is_not_collapsible():
    hat = dunce_hat()
    assert hat.f_vector() == (17, 52, 36)
    assert hat.euler_characteristic() == 1
    on_edge = {}
    for T in hat.facets:
        for e in itertools.combinations(T, 2):
            on_edge[e] = on_edge.get(e, 0) + 1
    assert min(on_edge.values()) >= 2
    # the glued edge a, in 4 pieces, is the only place three triangles meet
    assert sorted(on_edge.values()) == [2] * 48 + [3] * 4
    for seed in range(5):
        assert is_collapsible(hat, seed=seed).verdict != "yes"
    res = is_collapsible(hat, strategy="exhaustive")
    assert res.verdict == "no"
    assert res.reason == "exhausted %d states" % res.nodes and res.nodes > 0


def hexagon_triangulations():
    """The 14 triangulations of the hexagon, under one fixed relabeling."""
    perm = (4, 0, 5, 2, 1, 3)
    return [SimplicialComplex([[perm[v] for v in T] for T in tri])
            for tri in polygon_triangulations(6)]


# entry point -> call; collapses_to aims at the first facet, and the endo
# search also runs on the last facet alone
SEARCH_CALLS = {
    "collapsible": lambda C, **kw: is_collapsible(C, **kw),
    "endo": lambda C, **kw: is_endo_collapsible(C, **kw),
    "endo-last-facet": lambda C, **kw: is_endo_collapsible(
        C, facet=C.facets[-1], **kw),
    "collapse-to-first-facet": lambda C, **kw: collapses_to(
        C, SimplicialComplex([C.facets[0]]), **kw),
}
SEARCH_BUDGETS = {"default": {}, "small": {"seeds": 3, "max_nodes": 40}}
# SHA-256 over (verdict, reason, nodes, certificate text) of every complex of
# the corpus in turn, taken before the three claims shared one search path
SEARCH_DIGESTS = {
    ("collapsible", "greedy", "default"):
        "96dde9dcfb236fe1c89e9863c5b28ba05d37b9882f5a6a6846a674d15ccb5699",
    ("collapsible", "greedy", "small"):
        "90ea739a847b35044f187e1f16d327215f941a75885d3421c6a01cfa030accd5",
    ("collapsible", "lex", "default"):
        "24522e35488775f32309e046e315b725c4b442ec70c9f280187ec93c33b866f2",
    ("collapsible", "lex", "small"):
        "24522e35488775f32309e046e315b725c4b442ec70c9f280187ec93c33b866f2",
    ("collapsible", "exhaustive", "default"):
        "a9ea907f6214bda9da88976e4123e14174da469d12f4170d555446c59ca8dc72",
    ("collapsible", "exhaustive", "small"):
        "a2553fba5751db588ec88facb6301caac7a5bba9657ec871ecf6e06cbc44e736",
    ("collapsible", "auto", "default"):
        "1ab46aafe1abd90efdd1bdd54324be15f325f483bc7b6f53826862ff5f63c913",
    ("collapsible", "auto", "small"):
        "1ab46aafe1abd90efdd1bdd54324be15f325f483bc7b6f53826862ff5f63c913",
    ("endo", "greedy", "default"):
        "acd6a66510d32521daea8dd18831d17d7fbaef41b69d6e5d27bf000d974f6edd",
    ("endo", "greedy", "small"):
        "acd6a66510d32521daea8dd18831d17d7fbaef41b69d6e5d27bf000d974f6edd",
    ("endo", "lex", "default"):
        "67afb9c917eb2bb31f94ef7c462748319df496b5d3ce5c9c8266e1e0db913fd6",
    ("endo", "lex", "small"):
        "67afb9c917eb2bb31f94ef7c462748319df496b5d3ce5c9c8266e1e0db913fd6",
    ("endo", "exhaustive", "default"):
        "24814278f3c87cc9a081b4f017685ac73e5806d269fc1f2945941a74194aeb59",
    ("endo", "exhaustive", "small"):
        "35464fb2011070e398e6f4e4626fb64d5ce5f4242618bc39ee636e407c8afcbb",
    ("endo", "auto", "default"):
        "acd6a66510d32521daea8dd18831d17d7fbaef41b69d6e5d27bf000d974f6edd",
    ("endo", "auto", "small"):
        "acd6a66510d32521daea8dd18831d17d7fbaef41b69d6e5d27bf000d974f6edd",
    ("endo-last-facet", "greedy", "default"):
        "b28a52022aab8dc4c3b4fb60e0680efc2642c8027586ea4c99522bcc52d88613",
    ("endo-last-facet", "greedy", "small"):
        "b28a52022aab8dc4c3b4fb60e0680efc2642c8027586ea4c99522bcc52d88613",
    ("endo-last-facet", "lex", "default"):
        "abdd39515882c66ad6bb749a5fbf339eecb39e9b688daae696051cd41edcfcc3",
    ("endo-last-facet", "lex", "small"):
        "abdd39515882c66ad6bb749a5fbf339eecb39e9b688daae696051cd41edcfcc3",
    ("endo-last-facet", "exhaustive", "default"):
        "3bd57be7a56ccf21531d803f9ef65c4b797449ce56fef9ea07b7f1b6525d7213",
    ("endo-last-facet", "exhaustive", "small"):
        "6ca093ae3634236326e23841034fd6c8da7561da76921a4dd15d6af0d59ff231",
    ("endo-last-facet", "auto", "default"):
        "b28a52022aab8dc4c3b4fb60e0680efc2642c8027586ea4c99522bcc52d88613",
    ("endo-last-facet", "auto", "small"):
        "b28a52022aab8dc4c3b4fb60e0680efc2642c8027586ea4c99522bcc52d88613",
    ("collapse-to-first-facet", "greedy", "default"):
        "82d17ea48d5a8b70684c3081d1c2609a2f62a18acbbdaf1f850635b986b8589e",
    ("collapse-to-first-facet", "greedy", "small"):
        "8b3336d3fccd6f5b613ac13360545913703823460b589cca702c8c86ca751a68",
    ("collapse-to-first-facet", "lex", "default"):
        "67c14c2f7781f1288aa301079dcef31bc1328362b420375c6a0c055eb4ad70c0",
    ("collapse-to-first-facet", "lex", "small"):
        "67c14c2f7781f1288aa301079dcef31bc1328362b420375c6a0c055eb4ad70c0",
    ("collapse-to-first-facet", "exhaustive", "default"):
        "55f94ca1646c953a5d88bd77553e08ffd06deebee442d712d64665de51baaa70",
    ("collapse-to-first-facet", "exhaustive", "small"):
        "7b3927d0430ed3dfde9c39a91c8766fb06f70e3b226cfe613aeb696f4ec2134a",
    ("collapse-to-first-facet", "auto", "default"):
        "56d3470ebe0ad4cf59de19380b1bc252ffa72451c63481158096d52839299736",
    ("collapse-to-first-facet", "auto", "small"):
        "56d3470ebe0ad4cf59de19380b1bc252ffa72451c63481158096d52839299736",
}


def test_search_outputs_are_frozen():
    """Verdict, reason, node count and certificate bytes of every strategy
    and entry point, at the default and at a small budget, on a fixed
    corpus: spheres, balls, normalized subdivisions, the dunce hat and the
    hexagon's triangulations."""
    corpus = [octahedron(), simplex_boundary(3), full_simplex(3),
              sd(octahedron()).complex.normalize(),
              sd_k(full_simplex(2), 2).complex.normalize(),
              dunce_hat()] + hexagon_triangulations()
    got = {}
    for (entry, strategy, budget) in SEARCH_DIGESTS:
        digest = hashlib.sha256()
        for C in corpus:
            res = SEARCH_CALLS[entry](C, strategy=strategy,
                                      **SEARCH_BUDGETS[budget])
            text = certificate_to_text(res.certificate) if res else None
            digest.update(repr((res.verdict, res.reason, res.nodes,
                                text)).encode())
        got[(entry, strategy, budget)] = digest.hexdigest()
    assert got == SEARCH_DIGESTS


def test_the_frozen_outputs_cover_every_strategy_and_entry_point():
    assert set(SEARCH_DIGESTS) == set(itertools.product(
        SEARCH_CALLS, collapse.STRATEGIES, SEARCH_BUDGETS))


def test_written_texts_never_reach_a_per_line_diagnosis(monkeypatch):
    """The readers' per-line loops only name faults, so the bulk readings
    take whole every text the writers write: each certificate of the
    frozen corpus, and each rung of the `scx sd` ladder of LADDER_DIGESTS
    (sd one round at a time from the written text) with its greedy endo
    certificate, sd^3 of the octahedron's among them."""
    def refused(*args):
        raise AssertionError("a per-line diagnosis ran on written text")

    monkeypatch.setattr(scxio, "_facet_line", refused)
    monkeypatch.setattr(scxio, "_pair_line", refused)
    corpus = [octahedron(), simplex_boundary(3), full_simplex(3),
              sd(octahedron()).complex.normalize(),
              sd_k(full_simplex(2), 2).complex.normalize(),
              dunce_hat()] + hexagon_triangulations()
    read = 0
    for (entry, strategy, budget) in SEARCH_DIGESTS:
        for C in corpus:
            res = SEARCH_CALLS[entry](C, strategy=strategy,
                                      **SEARCH_BUDGETS[budget])
            if res:
                text = certificate_to_text(res.certificate)
                assert certificate_from_text(text, C) == res.certificate
                read += 1
    assert read > 300
    for base, rounds in ((octahedron(), 3), (full_simplex(2), 4),
                         (full_simplex(3), 2)):
        text = complex_to_text(base)
        for _ in range(rounds):
            text = complex_to_text(sd(complex_from_text(text)).complex)
            C = complex_from_text(text)
            cert = is_endo_collapsible(C).certificate
            assert certificate_from_text(certificate_to_text(cert), C) == cert


def test_collapse_pairs_are_named_tuples():
    p = CollapsePair((1, 2), (1, 2, 3))
    assert (p.free, p.coface) == ((1, 2), (1, 2, 3))
    assert p == CollapsePair(free=(1, 2), coface=(1, 2, 3))
    assert p != CollapsePair((1,), (1, 2))
    assert hash(p) == hash(((1, 2), (1, 2, 3)))
    assert repr(p) == "CollapsePair(free=(1, 2), coface=(1, 2, 3))"
    for name in ("free", "coface", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, (1,))
    assert p == CollapsePair((1, 2), (1, 2, 3))
    assert p._replace(free=(3,)) == CollapsePair((3,), (1, 2, 3))
    # the builder the search and the reader share makes the same pairs
    q = collapse._new_pair(((1, 2), (1, 2, 3)))
    assert type(q) is CollapsePair and q == p


# entry point -> a call whose shortcut (Euler gate, empty complex) would
# answer without searching
SHORTCUT_CALLS = {
    "is_collapsible": lambda **kw: is_collapsible(simplex_boundary(2), **kw),
    "collapses_to": lambda **kw: collapses_to(
        full_simplex(2), simplex_boundary(2), **kw),
    "is_endo_collapsible": lambda **kw: is_endo_collapsible(
        SimplicialComplex([]), **kw),
}


@pytest.mark.parametrize("entry", SHORTCUT_CALLS)
def test_an_unknown_strategy_is_refused_before_any_shortcut(entry):
    with pytest.raises(InvalidComplexError, match="unknown strategy 'bogus'"):
        SHORTCUT_CALLS[entry](strategy="bogus")


@pytest.mark.parametrize("entry", SHORTCUT_CALLS)
def test_negative_search_budgets_are_refused(entry):
    call = SHORTCUT_CALLS[entry]
    with pytest.raises(InvalidComplexError,
                       match="seeds must be at least 0, got -3"):
        call(seeds=-3)
    with pytest.raises(InvalidComplexError,
                       match="max_nodes must be at least 0, got -5"):
        call(strategy="exhaustive", max_nodes=-5)


def test_the_endo_report_checks_its_options_before_any_subdivision(
        monkeypatch):
    monkeypatch.setattr("scx.collapse.sd", None)
    for bad in ({"seeds": -1}, {"max_nodes": -1}, {"strategy": "bogus"}):
        with pytest.raises(InvalidComplexError):
            sd_endo_collapsibility_report(simplex_boundary(2), **bad)


def test_zero_search_budgets_stay_valid():
    # no greedy seed at all: auto goes straight to the exhaustive search
    res = is_collapsible(full_simplex(2), strategy="auto", seeds=0)
    assert (res.verdict, res.reason) == ("yes", "exhaustive") and res.nodes > 0
    res = is_collapsible(full_simplex(2), strategy="greedy", seeds=0)
    assert (res.verdict, res.reason) == ("unknown", "greedy stuck after 0 seeds")


def test_no_collapse_claim_calls_another(monkeypatch):
    """A tracer that wraps each entry point must see each search once, so
    no public claim reaches another through the module's names.  The names
    imported above are the originals."""
    for name in ("collapses_to", "is_collapsible", "is_endo_collapsible"):
        monkeypatch.setattr(collapse, name, None)
    for C in (SimplicialComplex([]), SimplicialComplex([(0,)]), DISK2,
              octahedron(), sd(full_simplex(2)).complex):
        for strategy in collapse.STRATEGIES:
            is_collapsible(C, strategy=strategy)
            collapses_to(C, C, strategy=strategy)
            is_endo_collapsible(C, strategy=strategy)


def test_search_results_are_frozen():
    res = is_collapsible(full_simplex(2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.certificate = None
