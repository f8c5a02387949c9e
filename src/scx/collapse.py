"""Collapsibility search with certificates.

A face is free when it has exactly one strict coface; because the alive face
set stays closed under taking subsets throughout a collapse, that is the same
as having exactly one immediate coface, so freeness is tracked with a single
counter per face.  An elementary collapse removes a free face together with
its unique coface.  Searches run against one of two goals: a fixed target
subcomplex whose faces are protected, or "point" (any single vertex).

Three strategies share one engine: "greedy" does seeded random rollouts,
"lex" is the deterministic least-candidate rollout, "exhaustive" is a
depth-first search over collapse orders with a transposition table keyed by
the exact alive-face bitmask.  "auto" chains greedy then exhaustive.
Verdicts are "yes" (with certificate), "no" (proof: an invariant obstruction
or an exhausted search), or "unknown" (budget or stuck rollouts).
"""

import random
import sys
from dataclasses import dataclass

from .complexes import SimplicialComplex, face_tuple, _fkey
from .errors import InvalidComplexError

DEFAULT_SEEDS = 64
DEFAULT_MAX_NODES = 10 ** 6
_SEED_STRIDE = 1000003


@dataclass(frozen=True)
class CollapsePair:
    free: tuple
    coface: tuple


@dataclass(frozen=True)
class CollapseSequence:
    """Replayable collapse certificate.

    claim is "collapsible" (down to one vertex), "collapse-to" (down to
    target_facets) or "endo-collapsible" (removed_facet taken out first, then
    down to the boundary of the starting complex, or to a vertex when that
    boundary is empty).
    """

    initial_facets: tuple
    removed_facet: tuple
    pairs: tuple
    claim: str
    target_facets: tuple = None


@dataclass
class CollapseResult:
    verdict: str  # "yes" | "no" | "unknown"
    reason: str
    certificate: CollapseSequence = None
    nodes: int = 0

    def __bool__(self):
        return self.verdict == "yes"


class _Budget(Exception):
    pass


def _face_order_key(f):
    return (len(f), _fkey(f))


class _Engine:
    """Mutable collapse state over a fixed, downward-closed face list."""

    def __init__(self, faces, protected):
        self.faces = sorted(faces, key=_face_order_key)
        self.index = {f: i for i, f in enumerate(self.faces)}
        n = len(self.faces)
        self.sub = [[] for _ in range(n)]
        self.sup = [[] for _ in range(n)]
        for i, f in enumerate(self.faces):
            if len(f) < 2:
                continue
            for pos in range(len(f)):
                r = f[:pos] + f[pos + 1:]
                j = self.index[r]
                self.sub[i].append(j)
                self.sup[j].append(i)
        self.alive = bytearray([1]) * n
        self.alive_mask = (1 << n) - 1
        self.n_alive = n
        self.up = [len(self.sup[i]) for i in range(n)]
        self.protected = frozenset(self.index[f] for f in protected)
        self.cand = [i for i in range(n)
                     if self.up[i] == 1 and i not in self.protected]

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

    def pick_least(self):
        best = None
        for i in self.cand:
            if self.alive[i] and self.up[i] == 1 and (best is None or i < best):
                best = i
        return best

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
        self.alive_mask &= ~(1 << x)
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
            self.alive_mask |= 1 << x
            self.n_alive += 1


def _closure_faces(complex):
    return set(complex.faces())


def _chi(faces):
    return sum((-1) ** (len(f) - 1) for f in faces)


def _run_rollout(engine, rng, goal_mask, pick):
    """Collapse until success, returning the pair index list, or None if stuck."""
    out = []
    while True:
        if goal_mask is None:
            if engine.n_alive == 1:
                return out
        elif engine.alive_mask == goal_mask:
            return out
        i = pick(engine, rng)
        if i is None:
            return None
        t = engine.unique_coface(i)
        engine.apply_pair(i, t)
        out.append((i, t))


def _dfs(engine, goal_mask, max_nodes):
    """Exhaustive search over collapse orders; True/False, or _Budget raised."""
    seen = set()
    nodes = 0
    pairs = []
    limit = sys.getrecursionlimit()

    def rec():
        nonlocal nodes
        if goal_mask is None:
            if engine.n_alive == 1:
                return True
        elif engine.alive_mask == goal_mask:
            return True
        key = engine.alive_mask
        if key in seen:
            return False
        nodes += 1
        if nodes > max_nodes:
            raise _Budget()
        for i in engine.list_free():
            t = engine.unique_coface(i)
            record = engine.apply_pair(i, t, track=False)
            pairs.append((i, t))
            if rec():
                return True
            pairs.pop()
            engine.undo(record)
        seen.add(key)
        return False

    sys.setrecursionlimit(max(limit, len(engine.faces) * 2 + 100))
    try:
        ok = rec()
    finally:
        sys.setrecursionlimit(limit)
    return ok, pairs, nodes


def _search(start_faces, protected, goal_faces, strategy, seed, seeds, max_nodes):
    """Shared driver.  goal_faces None means "down to one vertex"."""
    start = set(start_faces)
    if goal_faces is not None:
        goal = set(goal_faces)
        if not goal <= start:
            raise InvalidComplexError("target faces are not all present at the start")
        if _chi(start) != _chi(goal):
            return CollapseResult("no", "euler-obstruction")
    else:
        goal = None
        if _chi(start) != 1:
            return CollapseResult("no", "euler-obstruction")

    def fresh():
        return _Engine(start, protected if goal is not None else ())

    probe = fresh()
    goal_mask = None
    if goal is not None:
        goal_mask = 0
        for f in goal:
            goal_mask |= 1 << probe.index[f]

    def pairs_to_faces(engine, idx_pairs):
        return tuple(CollapsePair(free=engine.faces[i], coface=engine.faces[t])
                     for i, t in idx_pairs)

    if strategy in ("greedy", "auto"):
        for attempt in range(seeds):
            rng = random.Random(seed * _SEED_STRIDE + attempt)
            engine = fresh()
            got = _run_rollout(engine, rng, goal_mask,
                               lambda e, r: e.pick_free(r))
            if got is not None:
                return CollapseResult("yes", "greedy seed %d" % attempt,
                                      certificate=pairs_to_faces(engine, got))
        if strategy == "greedy":
            return CollapseResult("unknown", "greedy stuck after %d seeds" % seeds)

    if strategy == "lex":
        engine = fresh()
        got = _run_rollout(engine, None, goal_mask, lambda e, r: e.pick_least())
        if got is not None:
            return CollapseResult("yes", "lex",
                                  certificate=pairs_to_faces(engine, got))
        return CollapseResult("unknown", "lex rollout stuck")

    if strategy in ("exhaustive", "auto"):
        engine = fresh()
        try:
            ok, idx_pairs, nodes = _dfs(engine, goal_mask, max_nodes)
        except _Budget:
            return CollapseResult("unknown", "node budget %d exceeded" % max_nodes,
                                  nodes=max_nodes)
        if ok:
            return CollapseResult("yes", "exhaustive", nodes=nodes,
                                  certificate=pairs_to_faces(engine, idx_pairs))
        return CollapseResult("no", "exhausted %d states" % nodes, nodes=nodes)

    raise InvalidComplexError("unknown strategy %r" % (strategy,))


def _finish(result, initial_facets, removed, claim, target_facets):
    if result.verdict == "yes":
        result.certificate = CollapseSequence(
            initial_facets=initial_facets,
            removed_facet=removed,
            pairs=result.certificate,
            claim=claim,
            target_facets=target_facets,
        )
    return result


def collapses_to(complex, target, strategy="greedy", seed=0,
                 seeds=DEFAULT_SEEDS, max_nodes=DEFAULT_MAX_NODES):
    """Does the complex collapse onto the target subcomplex?"""
    for F in target.facets:
        if not complex.has_face(F):
            raise InvalidComplexError("target facet %r is not a face" % (F,))
    goal = _closure_faces(target)
    res = _search(_closure_faces(complex), goal, goal,
                  strategy, seed, seeds, max_nodes)
    return _finish(res, complex.facets, None, "collapse-to", target.facets)


def is_collapsible(complex, strategy="greedy", seed=0,
                   seeds=DEFAULT_SEEDS, max_nodes=DEFAULT_MAX_NODES):
    """Does the complex collapse down to a single vertex?"""
    res = _search(_closure_faces(complex), (), None,
                  strategy, seed, seeds, max_nodes)
    return _finish(res, complex.facets, None, "collapsible", None)


def is_endo_collapsible(complex, facet=None, strategy="greedy", seed=0,
                        seeds=DEFAULT_SEEDS, max_nodes=DEFAULT_MAX_NODES):
    """After removing one facet, does the rest collapse onto the boundary?

    When the boundary is empty the goal is a single vertex instead.  With
    facet=None every facet is tried in canonical order until one works.
    """
    if not complex.facets:
        return CollapseResult("yes", "empty complex")
    if not complex.is_pure():
        raise InvalidComplexError("endo-collapsibility needs a pure complex")
    if len(complex.facets) == 1 and complex.dim == 0:
        return _finish(CollapseResult("yes", "single vertex", certificate=()),
                       complex.facets, complex.facets[0], "endo-collapsible", None)

    if facet is not None:
        sigma = face_tuple(facet)
        if sigma not in complex.facets:
            raise InvalidComplexError("%r is not a facet" % (sigma,))
        candidates = [sigma]
    else:
        candidates = list(complex.facets)

    bd = complex.boundary()
    goal = _closure_faces(bd) if bd.facets else None
    target_facets = bd.facets if bd.facets else None

    saw_unknown = False
    last = None
    for sigma in candidates:
        start = _closure_faces(complex)
        start.discard(sigma)
        res = _search(start, goal if goal is not None else (),
                      goal, strategy, seed, seeds, max_nodes)
        if res.verdict == "yes":
            return _finish(res, complex.facets, sigma, "endo-collapsible",
                           target_facets)
        if res.verdict == "unknown":
            saw_unknown = True
        last = res
    if len(candidates) == 1:
        return last
    if saw_unknown:
        return CollapseResult("unknown",
                              "no facet confirmed; some runs hit the budget")
    return CollapseResult("no", "all %d facets refuted" % len(candidates))


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
    from .subdivision import sd

    rows = []
    for f in sorted(complex.faces(), key=_face_order_key):
        lk = complex.link(f)
        if not lk.facets:
            rows.append((f, "yes", "empty link"))
            continue
        if not lk.is_pure():
            rows.append((f, "no", "link is not pure"))
            continue
        res = is_endo_collapsible(sd(lk).complex, strategy=strategy, seed=seed,
                                  seeds=seeds, max_nodes=max_nodes)
        rows.append((f, res.verdict, res.reason))
    verdicts = {v for _, v, _ in rows}
    if verdicts <= {"yes"}:
        agg = "yes"
    elif "no" in verdicts:
        agg = "no"
    else:
        agg = "unknown"
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
    if not complex.facets:
        return ()
    d = complex.dim
    best = None
    for attempt in range(attempts):
        rng = random.Random(seed * _SEED_STRIDE + attempt)
        engine = _Engine(_closure_faces(complex), ())
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
