"""Collapsibility search with certificates.

A face is free when it has exactly one strict coface; because the alive face
set stays closed under taking subsets throughout a collapse, that is the same
as having exactly one immediate coface, so freeness is tracked with a single
counter per face.  An elementary collapse removes a free face together with
its unique coface.  Searches run against one of two goals: a fixed target
subcomplex whose faces are protected, or "point" (any single vertex).  A
protected face starts with a coface count that no collapse lowers to 1, so it
never reads free; its faces are protected too, so it is never the coface of
a free face either.  So it never dies, and the goal is reached once the
alive count equals the goal's size.

The three claims (collapses_to, is_collapsible, is_endo_collapsible) check
their options first (_search_options: a known strategy, seeds and max_nodes
at least 0), so no shortcut answers a bad call, then share one search path,
_decide: one Euler rule, chi(faces) - chi(removed facet) = chi(goal) with
chi(point) = 1; one engine built from the input's facets (whose face cache
stays unfilled); each candidate facet searched in turn; the first "yes"
wrapped into its certificate.  Each strategy in STRATEGIES chains stages
over that engine: "greedy" does seeded random rollouts, "lex" is the
deterministic least-candidate rollout, "exhaustive" is an iterative
depth-first search over collapse orders with a transposition table keyed by
the exact alive-face bitmask, checked before each move, and "auto" is
greedy then exhaustive.  Verdicts are "yes" (with certificate), "no"
(proof: an invariant obstruction or an exhausted search), or "unknown"
(budget or stuck rollouts).

The search runs on vertex ranks (SimplicialComplex._ranked): faces are
tuples of ranks, which hash and sort as plain ints in the (len, _fkey) order
of their labels, and only the certificate's faces are mapped back to labels,
unless the labels are the ints 0..n-1 and so the ranks themselves.
Both rollouts run one loop that reads the engine's arrays in place and
differs only in its picker.
The exhaustive search only reads the engine.  A node is its alive mask
(the memo key), its free mask and its untried moves, ints with one bit per
face index; a child's free mask is its parent's with the faces of the
move's pair recounted, so a node costs those faces, not a scan of every
face.  A child's untried moves are the faces free in it that turned free
with the move or that its parent has not tried yet: a move that commutes
with one its parent already tried is not retried (sleep sets, see _dfs).
"""

import random
from collections import Counter, deque, namedtuple
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import accumulate, chain, combinations, compress, count, repeat

from .complexes import face_tuple, _fkey, _levels
from .errors import DEFAULT_MAX_NODES, InvalidComplexError, check_budget
from .subdivision import sd

DEFAULT_SEEDS = 64
DEFAULT_ATTEMPTS = 16  # discrete_morse_vector's runs
_SEED_STRIDE = 1000003


class CollapsePair(namedtuple("CollapsePair", "free coface")):
    """One elementary collapse: a free face and its unique coface.

    A named tuple: .free and .coface name its two entries and cannot be
    set, and equality, order and hash are the tuple's, so a pair equals
    and hashes as the plain tuple (free, coface); _replace gives a changed
    copy, and the dataclasses functions do not apply.  The search and the
    reader build pairs with _new_pair, tuple.__new__ bound to the class,
    which skips the Python-level __new__.
    """

    __slots__ = ()


_new_pair = partial(tuple.__new__, CollapsePair)  # (free, coface) -> pair


@dataclass(frozen=True)
class CollapseSequence:
    """Replayable collapse certificate.

    claim is "collapsible" (down to one vertex), "collapse-to" (down to
    target_facets) or "endo-collapsible" (removed_facet taken out first, then
    down to the boundary of the starting complex, or to a vertex when that
    boundary is empty).  target_facets belongs to collapse-to claims only and
    is None for the other two: an endo goal follows from initial_facets, and
    a replay recounts it from them.
    """

    initial_facets: tuple
    removed_facet: tuple
    pairs: tuple
    claim: str
    target_facets: tuple = None


@dataclass(frozen=True)
class CollapseResult:
    """Verdict, reason, the certificate of a "yes" and the DFS node count."""

    verdict: str  # "yes" | "no" | "unknown"
    reason: str
    certificate: CollapseSequence = None
    nodes: int = 0

    def __bool__(self):
        return self.verdict == "yes"


def _face_order_key(f):
    return (len(f), _fkey(f))


def _chi(levels):
    return sum(len(level) * (-1) ** k for k, level in enumerate(levels))


class _Engine:
    """Mutable collapse state over a fixed, downward-closed face set.

    The faces are rank tuples, given as _levels; index order is (size, rank
    tuple), the order of (len, _fkey) on the labels, so each level sorts
    natively.  goal None means "down to one vertex"; otherwise the goal's
    faces, also given as _levels, are protected: each starts with 2 more
    than its coface count, so a face is free exactly when it is alive with
    a count of 1.  reset() restores the start state.
    """

    def __init__(self, levels, goal=None):
        self.faces = faces = list(chain.from_iterable(map(sorted, levels)))
        self.index = index = dict(zip(faces, count()))
        self.sub = sub = [()] * (len(levels[0]) if levels else 0)
        self.sup = sup = [[] for _ in faces]
        for level in levels[1:]:
            ids = range(len(sub), len(sub) + len(level))
            cols = list(zip(*faces[ids.start:ids.stop]))
            # the faces less the vertex at position p, for p = 0, 1, ...
            drops = [list(map(index.__getitem__,
                              zip(*cols[:p], *cols[p + 1:])))
                     for p in range(len(cols))]
            for drop in drops:  # a deque of length 0 runs the appends only
                deque(map(list.append, map(sup.__getitem__, drop), ids), 0)
            sub.extend(zip(*drops))
        self.goal_size = 1 if goal is None else sum(map(len, goal))
        self.up0 = up0 = list(map(len, sup))
        for level in goal or ():
            for f in level:
                up0[index[f]] += 2
        self.reset()

    def reset(self, removed=None):
        """Back to the start state, less the facet `removed` (a rank tuple)
        if given; the candidates are the free faces in index order, as at
        build time."""
        self.alive = bytearray([1]) * len(self.faces)
        self.n_alive = len(self.faces)
        self.up = self.up0[:]
        if removed is not None:
            self.kill(self.index[removed])
        self.cand = [i for i in range(len(self.faces))
                     if self.alive[i] and self.up[i] == 1]

    def kill(self, x):
        """Kill the face x: the alive faces whose coface count dropped."""
        alive, up, touched = self.alive, self.up, []
        alive[x] = 0
        for r in self.sub[x]:
            if alive[r]:
                up[r] -= 1
                touched.append(r)
        self.n_alive -= 1
        return touched


def _collapse(engine, rng, goal):
    """Collapse from the current state until `goal` faces are alive or no
    face is free; gives the index pairs applied.

    rng picks uniformly among engine.cand (greedy), dropping stale entries;
    rng None picks the least free face (lex) from a heap fed by the new tail
    of engine.cand, which only grows then.  A stale face (dead, or with no
    alive coface) never turns free again, so stale heap entries are dropped
    for good.  Every step reads the engine's arrays in place.
    """
    alive, up, sub, sup = engine.alive, engine.up, engine.sub, engine.sup
    cand = engine.cand
    randrange = rng.randrange if rng is not None else None
    heap, fed, n, out = [], 0, engine.n_alive, []
    while n != goal:
        if randrange is not None:
            while cand:
                j = randrange(len(cand))
                i = cand[j]
                if alive[i] and up[i] == 1:
                    break
                cand[j] = cand[-1]
                cand.pop()
            else:
                break
        else:
            for i in cand[fed:]:
                heappush(heap, i)
            fed = len(cand)
            while heap and not (alive[heap[0]] and up[heap[0]] == 1):
                heappop(heap)
            if not heap:
                break
            i = heap[0]
        for t in sup[i]:
            if alive[t]:
                break
        for x in (t, i):
            alive[x] = 0
            for r in sub[x]:
                if alive[r]:
                    up[r] -= 1
                    if up[r] == 1:
                        cand.append(r)
        n -= 2
        out.append((i, t))
    engine.n_alive = n
    return out


def _rollout(engine, removed, rng):
    """Collapse from a reset less `removed` to the goal, picking as
    _collapse does: index pairs, or None if stuck."""
    engine.reset(removed)
    out = _collapse(engine, rng, engine.goal_size)
    return out if engine.n_alive == engine.goal_size else None


def _coface_mask(engine, r):
    """Face r's cofaces as an int bitmask, one bit per face index; 0 for a
    protected face, which so never has exactly one alive coface."""
    s = engine.sup[r]
    return sum(map((1).__lshift__, s)) if engine.up0[r] == len(s) else 0


def _child_free(engine, masks, free, child, i, t):
    """The free mask of `child`, the alive mask after the move (i, t) out of
    a node whose free mask was `free`.  Only the faces of t and i lose a
    coface, all still alive (the alive set is closed downwards), so only
    they are recounted; masks[r] is r's _coface_mask, or None until read."""
    free &= child
    for r in (*engine.sub[t], *engine.sub[i]):
        m = masks[r]
        if m is None:
            m = masks[r] = _coface_mask(engine, r)
        m &= child
        if not m:
            free &= ~(1 << r)
        elif not m & (m - 1):
            free |= 1 << r
    return free


def _dfs(engine, max_nodes):
    """Exhaustive search over collapse orders: (index pairs or None, nodes),
    where nodes past max_nodes means the budget ran out first.

    Depth first with an explicit stack of (alive mask, free mask, free
    faces not yet tried).  A node's next move is its least untried free
    face i, paired with the one alive face t among i's cofaces; a child's
    free mask comes from _child_free, which reads the coface mask of every
    face that turns free.  A state joins `seen` once every move out of it
    has failed, and a move into a seen state is never applied.

    Sleep sets (Godefroid 1996): the child of the move (i, t) is offered
    only the faces free in it that were not free in its parent or that its
    parent has not tried yet; a face j free in both that the parent tried
    before i, or was not offered itself, is asleep in the child.  An asleep
    move always leads into `seen`, so the search makes the same nodes in
    the same order, and gives the same pairs and nodes under every budget,
    as one that tries every free face; it only tests `seen` less often.

    Moves with different cofaces commute.  Let j be free in the parent
    with coface u and still free in the child.  Then u is not t, whose
    removal would leave j no coface, and not i, whose coface t would be a
    second coface of j; and neither free face is the other's coface, since
    a free face has a coface and the coface of a free face is maximal.  So
    neither move removes the other's faces or the one coface of its free
    face: from Y, the parent less (j, u), i is still free with coface t,
    and both orders reach Y less (i, t).

    An asleep move leads into `seen`, by induction on the pushes.  If j is
    asleep in the child, then either the parent tried j before i, so Y is
    in `seen` (it was there, or its subtree was refuted before the parent
    went on), or j was asleep in the parent, so Y is in `seen` by
    induction.  Y joined `seen` only after its move (i, t) was tried or
    found asleep, so Y less (i, t) is in `seen` too.  It is not the goal,
    which is never pushed and so never joins `seen`; so an asleep move is
    never a last move, which the full search applies untested.

    The memo stays sound.  Sleep sets with a state cache can lose states:
    a state cached while some of its moves slept is later met with those
    moves awake and skipped.  Here `seen` still holds only refuted states,
    from which no collapse order reaches the goal, by induction on the
    order states join it: each move out of a joining state was tried, and
    its target joined `seen` earlier, or is asleep, and its target is in
    `seen` already.
    """
    goal = engine.goal_size
    if engine.n_alive == goal:
        return [], 0
    masks = [None] * len(engine.faces)
    for i in engine.cand:  # reset() listed the free faces
        masks[i] = _coface_mask(engine, i)
    last = engine.n_alive - goal - 2  # twice the depth of a last move
    key = sum(map((1).__lshift__, compress(count(), engine.alive)))
    free = sum(map((1).__lshift__, engine.cand))
    pairs, seen, nodes = [], set(), 1
    stack = [(key, free, free)]
    while stack and nodes <= max_nodes:
        key, free, todo = stack.pop()
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            tbit = masks[i] & key
            t = tbit.bit_length() - 1
            if 2 * len(stack) == last:
                pairs.append((i, t))
                return pairs, nodes
            child = key ^ low ^ tbit
            if child in seen:
                continue
            nodes += 1
            pairs.append((i, t))
            stack.append((key, free, todo))
            kid = _child_free(engine, masks, free, child, i, t)
            stack.append((child, kid, kid & (todo | ~free)))
            break
        else:
            seen.add(key)
            if stack:
                pairs.pop()
    return None, nodes


# A stage runs one search over the engine, less the facet `removed`, and
# gives (verdict, reason, index pairs of a "yes" or None, nodes).

def _greedy(engine, removed, seed, seeds, max_nodes):
    for attempt in range(seeds):
        got = _rollout(engine, removed,
                       random.Random(seed * _SEED_STRIDE + attempt))
        if got is not None:
            return "yes", "greedy seed %d" % attempt, got, 0
    return "unknown", "greedy stuck after %d seeds" % seeds, None, 0


def _lex(engine, removed, seed, seeds, max_nodes):
    got = _rollout(engine, removed, None)
    if got is None:
        return "unknown", "lex rollout stuck", None, 0
    return "yes", "lex", got, 0


def _exhaustive(engine, removed, seed, seeds, max_nodes):
    engine.reset(removed)
    got, nodes = _dfs(engine, max_nodes)
    if got is not None:
        return "yes", "exhaustive", got, nodes
    if nodes > max_nodes:
        return "unknown", "node budget %d exceeded" % max_nodes, None, max_nodes
    return "no", "exhausted %d states" % nodes, None, nodes


# strategy -> its stages: the first "yes" wins, else the last stage's outcome
_STAGES = {"greedy": (_greedy,), "lex": (_lex,), "exhaustive": (_exhaustive,),
           "auto": (_greedy, _exhaustive)}
STRATEGIES = tuple(_STAGES)


def _search_options(strategy, seed, seeds, max_nodes):
    """The options of one search, checked before any shortcut answers."""
    if strategy not in _STAGES:
        raise InvalidComplexError("unknown strategy %r" % (strategy,))
    check_budget("seeds", seeds)
    check_budget("max_nodes", max_nodes)
    return strategy, seed, seeds, max_nodes


def _decide(complex, labels, faces, goal, claim, candidates, options,
            target=None):
    """The one search path of the three claims.

    faces are the complex's faces and goal those to reach (None for one
    vertex), both as _levels of rank tuples; candidates are the facets to
    remove first, rank tuples of the top dimension, or [None].  labels maps
    ranks back for the certificate; labels that are the ints 0..n-1 are
    the ranks themselves.
    """
    strategy, seed, seeds, max_nodes = options
    if (set(map(type, labels)) == {int} and labels[0] == 0
            and labels[-1] == len(labels) - 1):
        # the sorted ints 0..n-1 are their own ranks: tuple gives a rank
        # tuple back as it is
        label = tuple
    else:
        def label(f):
            return tuple(map(labels.__getitem__, f))

    # a removed facet takes its (-1)^dim out of the Euler number
    removed_chi = 0 if candidates[0] is None else (-1) ** complex.dim
    if _chi(faces) - removed_chi == (1 if goal is None else _chi(goal)):
        engine = _Engine(faces, goal)
        verdicts = set()
        for sigma in candidates:
            for stage in _STAGES[strategy]:
                verdict, reason, got, nodes = stage(engine, sigma, seed,
                                                    seeds, max_nodes)
                if got is not None:
                    # the faces of each (i, t) in turn, read off in pairs
                    in_turn = map(label, map(engine.faces.__getitem__,
                                             chain.from_iterable(got)))
                    pairs = tuple(map(_new_pair, zip(in_turn, in_turn)))
                    return CollapseResult(verdict, reason, CollapseSequence(
                        complex.facets, None if sigma is None else label(sigma),
                        pairs, claim, target), nodes)
            verdicts.add(verdict)
        if len(candidates) == 1:
            return CollapseResult(verdict, reason, nodes=nodes)
        if "unknown" in verdicts:
            return CollapseResult("unknown",
                                  "no facet confirmed; some runs hit the budget")
    elif len(candidates) == 1:
        return CollapseResult("no", "euler-obstruction")
    return CollapseResult("no", "all %d facets refuted" % len(candidates))


def collapses_to(complex, target, strategy="greedy", seed=0,
                 seeds=DEFAULT_SEEDS, max_nodes=DEFAULT_MAX_NODES):
    """Does the complex collapse onto the target subcomplex?"""
    options = _search_options(strategy, seed, seeds, max_nodes)
    labels, rank, facets = complex._ranked()
    faces, goal = _levels(facets), []
    for F in target.facets:
        f = tuple(map(rank.get, F))  # None marks a vertex outside the complex
        if len(f) > len(faces) or f not in faces[len(f) - 1]:
            raise InvalidComplexError("target facet %r is not a face" % (F,))
        goal.append(f)
    return _decide(complex, labels, faces, _levels(goal), "collapse-to",
                   [None], options, target.facets)


def is_collapsible(complex, strategy="greedy", seed=0,
                   seeds=DEFAULT_SEEDS, max_nodes=DEFAULT_MAX_NODES):
    """Does the complex collapse down to a single vertex?"""
    options = _search_options(strategy, seed, seeds, max_nodes)
    labels, _, facets = complex._ranked()
    return _decide(complex, labels, _levels(facets), None, "collapsible",
                   [None], options)


def is_endo_collapsible(complex, facet=None, strategy="greedy", seed=0,
                        seeds=DEFAULT_SEEDS, max_nodes=DEFAULT_MAX_NODES):
    """After removing one facet, does the rest collapse onto the boundary?

    When the boundary is empty the goal is a single vertex instead.  With
    facet=None every facet is tried in canonical order until one works.
    """
    options = _search_options(strategy, seed, seeds, max_nodes)
    if not complex.facets:
        return CollapseResult("yes", "empty complex")
    if not complex.is_pure():
        raise InvalidComplexError("endo-collapsibility needs a pure complex")
    if len(complex.facets) == 1 and complex.dim == 0:
        return CollapseResult("yes", "single vertex", CollapseSequence(
            complex.facets, complex.facets[0], (), "endo-collapsible"))
    if facet is not None:
        facet = face_tuple(facet)
        if facet not in complex.facets:
            raise InvalidComplexError("%r is not a facet" % (facet,))
    labels, rank, facets = complex._ranked()
    ridges = Counter(chain.from_iterable(map(combinations, facets,
                                             repeat(complex.dim))))
    bd = [r for r, n in ridges.items() if n == 1]
    return _decide(complex, labels, _levels(facets),
                   _levels(bd) if bd else None, "endo-collapsible",
                   facets if facet is None
                   else [tuple(map(rank.__getitem__, facet))], options)


def _overall_verdict(verdicts):
    """"yes" when every verdict is, else "no" when any is, else "unknown"."""
    verdicts = set(verdicts)
    if verdicts <= {"yes"}:
        return "yes"
    return "no" if "no" in verdicts else "unknown"


@dataclass
class EndoReport:
    """Per-face endo-collapsibility of subdivided links, plus the direct check.

    face_verdicts rows are (face, verdict, reason); hypotheses_met aggregates
    them; conclusion is the endo-collapsibility result for the subdivision of
    the whole complex.
    """

    face_verdicts: tuple
    hypotheses_met: str
    conclusion: CollapseResult


def sd_endo_collapsibility_report(complex, strategy="auto", seed=0,
                                  seeds=DEFAULT_SEEDS,
                                  max_nodes=DEFAULT_MAX_NODES):
    """For every face, test whether the derived subdivision of its link is
    endo-collapsible; then test the derived subdivision of the complex itself."""
    _search_options(strategy, seed, seeds, max_nodes)
    # links of a pure complex are pure and sd keeps non-purity, so a non-pure
    # complex fails the conclusion anyway: refuse it before any link's sd
    if not complex.is_pure():
        raise InvalidComplexError("endo-collapsibility needs a pure complex")
    rows = []
    for f in sorted(complex.faces(), key=_face_order_key):
        lk = complex.link(f)
        if not lk.facets:
            rows.append((f, "yes", "empty link"))
            continue
        res = is_endo_collapsible(sd(lk).complex, strategy=strategy, seed=seed,
                                  seeds=seeds, max_nodes=max_nodes)
        rows.append((f, res.verdict, res.reason))
    agg = _overall_verdict(v for _, v, _ in rows)
    conclusion = is_endo_collapsible(sd(complex).complex, strategy=strategy,
                                     seed=seed, seeds=seeds,
                                     max_nodes=max_nodes)
    return EndoReport(face_verdicts=tuple(rows), hypotheses_met=agg,
                      conclusion=conclusion)


def discrete_morse_vector(complex, attempts=DEFAULT_ATTEMPTS, seed=0):
    """Best discrete Morse vector found by random runs.

    Each run collapses while a free face exists and otherwise deletes one
    top-dimensional alive face as critical.  Runs are compared top dimension
    first, so fewer high critical faces always wins.
    """
    if attempts < 1:
        raise InvalidComplexError("attempts must be at least 1, got %d"
                                  % attempts)
    if not complex.facets:
        return ()
    best = None
    levels = _levels(complex._ranked()[2])
    starts = [0, *accumulate(map(len, levels))]  # index of each size's first
    engine = _Engine(levels)
    for attempt in range(attempts):
        rng = random.Random(seed * _SEED_STRIDE + attempt)
        engine.reset()
        critical = [0] * len(levels)
        _collapse(engine, rng, 0)
        while engine.n_alive:
            # faces are in size order: the last alive one has the top size
            top = engine.alive.rindex(1)
            size = len(engine.faces[top])
            same = [x for x in range(starts[size - 1], top + 1)
                    if engine.alive[x]]
            touched = engine.kill(same[rng.randrange(len(same))])
            engine.cand.extend(r for r in touched if engine.up[r] == 1)
            critical[size - 1] += 1
            _collapse(engine, rng, 0)
        vec = tuple(critical)
        if best is None or tuple(reversed(vec)) < tuple(reversed(best)):
            best = vec
    return best
