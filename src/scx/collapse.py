"""Collapsibility search with certificates.

A face is free when it has exactly one strict coface; because the alive face
set stays closed under taking subsets throughout a collapse, that is the same
as having exactly one immediate coface, so freeness is tracked with a single
counter per face.  An elementary collapse removes a free face together with
its unique coface.  Searches run against one of two goals: a fixed target
subcomplex whose faces are protected, or "point" (any single vertex).  A
protected face is never the coface of an unprotected free face, so it never
dies, and the goal is reached once the alive count equals the goal's size.

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
"""

import heapq
import random
from dataclasses import dataclass
from functools import partial

from .complexes import face_tuple, _closure, _fkey, _vkey
from .errors import InvalidComplexError
from .subdivision import sd

DEFAULT_SEEDS = 64
DEFAULT_MAX_NODES = 10 ** 6
_SEED_STRIDE = 1000003


@dataclass(frozen=True)
class CollapsePair:
    """One elementary collapse: a free face and its unique coface."""

    free: tuple
    coface: tuple


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


class _Engine:
    """Mutable collapse state over a fixed, downward-closed face set.

    goal None means "down to one vertex"; otherwise the goal faces are
    protected.  reset() restores the start state.
    """

    def __init__(self, faces, goal=None):
        # (len, vertex ranks) is the order of (len, _fkey), with one _vkey call
        # per vertex instead of one per vertex occurrence
        rank = {v: r for r, v in enumerate(
            sorted((f[0] for f in faces if len(f) == 1), key=_vkey))}
        self.faces = sorted(faces, key=lambda f: (len(f), [rank[v] for v in f]))
        self.index = {f: i for i, f in enumerate(self.faces)}
        n = len(self.faces)
        self.sub = [[] for _ in range(n)]
        self.sup = [[] for _ in range(n)]
        for i, f in enumerate(self.faces):
            if len(f) < 2:
                continue
            for pos in range(len(f)):
                j = self.index[f[:pos] + f[pos + 1:]]
                self.sub[i].append(j)
                self.sup[j].append(i)
        self.protected = frozenset(self.index[f] for f in goal or ())
        self.goal_size = 1 if goal is None else len(goal)
        self.up0 = [len(s) for s in self.sup]
        self.reset()

    def reset(self, removed=None):
        """Back to the start state, less the facet `removed` if given; the
        candidates are the free faces in index order, as at build time."""
        self.alive = bytearray([1]) * len(self.faces)
        self.n_alive = len(self.faces)
        self.up = self.up0[:]
        if removed is not None:
            self.apply_delete(self.index[removed], track=False)
        self.cand = self.list_free()

    def pick_free(self, rng):
        """Uniform pick from the current free faces; stale entries drop out."""
        cand = self.cand
        while cand:
            j = rng.randrange(len(cand))
            i = cand[j]
            if self.alive[i] and self.up[i] == 1:
                return i
            cand[j] = cand[-1]
            cand.pop()
        return None

    def list_free(self):
        return [i for i in range(len(self.faces))
                if self.alive[i] and self.up[i] == 1 and i not in self.protected]

    def unique_coface(self, i):
        for t in self.sup[i]:
            if self.alive[t]:
                return t
        raise AssertionError("face %r has no alive coface" % (self.faces[i],))

    def _kill(self, x, touched, track):
        self.alive[x] = 0
        self.n_alive -= 1
        for r in self.sub[x]:
            if self.alive[r]:
                self.up[r] -= 1
                touched.append(r)
                if track and self.up[r] == 1 and r not in self.protected:
                    self.cand.append(r)

    def apply_pair(self, i, t, track=True):
        touched = []
        self._kill(t, touched, track)
        self._kill(i, touched, track)
        return (i, t, touched)

    def apply_delete(self, i, track=True):
        touched = []
        self._kill(i, touched, track)
        return (i, None, touched)

    def undo(self, record):
        i, t, touched = record
        for r in touched:
            self.up[r] += 1
        for x in ((i,) if t is None else (i, t)):
            self.alive[x] = 1
            self.n_alive += 1


def _chi(faces):
    return sum((-1) ** (len(f) - 1) for f in faces)


def _least_free(engine):
    """Lex picker: the least free face, from a heap fed by the new tail of
    engine.cand, which only grows in a lex rollout.  A face that is stale
    (dead, or with no alive coface) never turns free again, so stale heap
    entries are dropped for good."""
    heap, fed = [], 0

    def pick():
        nonlocal fed
        for i in engine.cand[fed:]:
            heapq.heappush(heap, i)
        fed = len(engine.cand)
        while heap and not (engine.alive[heap[0]] and engine.up[heap[0]] == 1):
            heapq.heappop(heap)
        return heap[0] if heap else None
    return pick


def _run_rollout(engine, removed, pick):
    """Collapse from a reset less `removed`: pair indices, or None if stuck."""
    engine.reset(removed)
    out = []
    while engine.n_alive != engine.goal_size:
        i = pick()
        if i is None:
            return None
        t = engine.unique_coface(i)
        engine.apply_pair(i, t)
        out.append((i, t))
    return out


def _dfs(engine, max_nodes):
    """Exhaustive search over collapse orders: (index pairs or None, nodes),
    where nodes past max_nodes means the budget ran out first.

    Depth first with an explicit stack of (alive bitmask, remaining moves,
    undo record of the move in).  A state joins `seen` once every move out
    of it has failed, and a move into a seen state is never applied.
    """
    goal = engine.goal_size
    if engine.n_alive == goal:
        return [], 0
    pairs, seen, nodes = [], set(), 1
    key = sum(1 << i for i, a in enumerate(engine.alive) if a)
    stack = [(key, iter(engine.list_free()), None)]
    while stack and nodes <= max_nodes:
        key, moves, entered = stack[-1]
        for i in moves:
            t = engine.unique_coface(i)
            if engine.n_alive - 2 == goal:
                pairs.append((i, t))
                return pairs, nodes
            child = key ^ (1 << i | 1 << t)  # both bits are set
            if child in seen:
                continue
            nodes += 1
            record = engine.apply_pair(i, t, track=False)
            pairs.append((i, t))
            stack.append((child, iter(engine.list_free()), record))
            break
        else:
            seen.add(key)
            stack.pop()
            if entered is not None:
                engine.undo(entered)
                pairs.pop()
    return None, nodes


# A stage runs one search over the engine, less the facet `removed`, and
# gives (verdict, reason, index pairs of a "yes" or None, nodes).

def _greedy(engine, removed, seed, seeds, max_nodes):
    for attempt in range(seeds):
        rng = random.Random(seed * _SEED_STRIDE + attempt)
        got = _run_rollout(engine, removed, partial(engine.pick_free, rng))
        if got is not None:
            return "yes", "greedy seed %d" % attempt, got, 0
    return "unknown", "greedy stuck after %d seeds" % seeds, None, 0


def _lex(engine, removed, seed, seeds, max_nodes):
    got = _run_rollout(engine, removed, _least_free(engine))
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
    for name, value in (("seeds", seeds), ("max_nodes", max_nodes)):
        if value < 0:
            raise InvalidComplexError("%s must be at least 0, got %d"
                                      % (name, value))
    return strategy, seed, seeds, max_nodes


def _decide(complex, faces, goal, claim, candidates, options, target=None):
    """The one search path of the three claims.

    goal is the closed face set to reach, None for one vertex; candidates
    are the facets to remove first, all of the top dimension, or [None].
    """
    strategy, seed, seeds, max_nodes = options
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
                    pairs = tuple(CollapsePair(engine.faces[i], engine.faces[t])
                                  for i, t in got)
                    return CollapseResult(verdict, reason, CollapseSequence(
                        complex.facets, sigma, pairs, claim, target), nodes)
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
    faces = _closure(complex.facets)
    for F in target.facets:
        if F not in faces:
            raise InvalidComplexError("target facet %r is not a face" % (F,))
    return _decide(complex, faces, _closure(target.facets), "collapse-to",
                   [None], options, target.facets)


def is_collapsible(complex, strategy="greedy", seed=0,
                   seeds=DEFAULT_SEEDS, max_nodes=DEFAULT_MAX_NODES):
    """Does the complex collapse down to a single vertex?"""
    options = _search_options(strategy, seed, seeds, max_nodes)
    return _decide(complex, _closure(complex.facets), None, "collapsible",
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
    candidates = list(complex.facets) if facet is None else [face_tuple(facet)]
    if candidates[0] not in complex.facets:
        raise InvalidComplexError("%r is not a facet" % (candidates[0],))
    bd = complex.boundary()
    return _decide(complex, _closure(complex.facets),
                   _closure(bd.facets) if bd.facets else None,
                   "endo-collapsible", candidates, options)


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


def discrete_morse_vector(complex, attempts=16, seed=0):
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
    d = complex.dim
    best = None
    engine = _Engine(_closure(complex.facets))
    for attempt in range(attempts):
        rng = random.Random(seed * _SEED_STRIDE + attempt)
        engine.reset()
        critical = [0] * (d + 1)
        while engine.n_alive:
            i = engine.pick_free(rng)
            if i is not None:
                engine.apply_pair(i, engine.unique_coface(i))
                continue
            top = max((x for x in range(len(engine.faces)) if engine.alive[x]),
                      key=lambda x: len(engine.faces[x]))
            size = len(engine.faces[top])
            same = [x for x in range(len(engine.faces))
                    if engine.alive[x] and len(engine.faces[x]) == size]
            pickx = same[rng.randrange(len(same))]
            engine.apply_delete(pickx)
            critical[size - 1] += 1
        vec = tuple(critical)
        if best is None or tuple(reversed(vec)) < tuple(reversed(best)):
            best = vec
    return best
