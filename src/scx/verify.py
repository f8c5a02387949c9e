"""Independent replay of collapse certificates.

This module deliberately shares no bookkeeping with the search engine or the
incidence index of SimplicialComplex: it imports only the label order
(_vkey, face_tuple) and the error types, re-expands the face closure itself
and re-checks freeness of every pair in its own face-to-strict-cofaces map,
so a bug in the search cannot hide in its own verifier.

Faces are replayed as tuples of vertex ranks, with each label's universal
sort key computed once.  The engine works on ranks too, but replay shares
none of its state: it ranks the labels of the certificate's own initial
facets and reads every pair from the certificate's labelled faces, so an
engine that mapped a rank back wrongly hands over a certificate that names
the wrong faces, and replay rejects it.  The closure of the initial facets
is listed once and each face gets an id through one dict; each face keeps
its strict cofaces as a list of ids, and the live flags are a bytearray.  A
pair (s, t) is free when t has one more vertex than s, t is in s's coface
list, and the live entries of that list are exactly [t]: the strict-coface
test, not a count of immediate cofaces.

A face naming a vertex outside the initial facets, or naming one twice, is
read by face_tuple, which raises or leaves the face dead just as a replay
by labels did.  A label is matched to a vertex by equality, as sets match
faces, so one of another type that equals a vertex's label (1.0 for 1)
reads as that vertex.

When the labels of the initial facets, taken as a set, have type int (so
no bool) and are exactly 0..n-1, each label is its own rank.  Then the
facets of the complex passed in, which are canonical, read as themselves,
and every pair's faces are first looked up in the id dict as given.  Proof
that a hit gives the id the rank path gives: ranks follow the universal
order, which is numeric on ints, and the i-th smallest of 0..n-1 is i, so
every rank tuple of the closure is a strictly increasing tuple of labels.
A hit means the face is a tuple equal, entry by entry, to such a rank
tuple t.  Equal values hash alike, so each entry finds the label it equals
in the rank dict, whose rank is that entry's value; the ranks sort to t
itself and hold no repeat, so the rank path neither raises nor gives
another face.  On any miss (an unsorted face, an unknown or repeated
vertex, an unhashable face, a list) the replay goes pair by pair on the
rank path, with every raise and message it has, at its own pair.
"""

from collections import Counter, deque
from itertools import chain, combinations, compress, repeat
from operator import attrgetter, itemgetter

from .complexes import _vkey, face_tuple
from .errors import InvalidComplexError


def _ranker(facets):
    """(ranks, n, ident): ranks gives a face as its tuple of vertex ranks,
    or None for a face naming a vertex outside `facets`, and raises on a
    face that face_tuple refuses; n counts the labels, and ident says they
    are the ints 0..n-1, each its own rank."""
    try:
        labels = set(chain.from_iterable(facets))
        # distinct ints are 0..n-1 when the least is 0 and the greatest n-1
        ident = (set(map(type, labels)) == {int} and min(labels) == 0
                 and max(labels) == len(labels) - 1)
        labels = range(len(labels)) if ident else sorted(labels, key=_vkey)
    except (TypeError, InvalidComplexError):
        # an unhashable or unsupported label: face_tuple raises on the first
        # facet holding one, or on an earlier repeated vertex, as before;
        # one it sorts but set() cannot hash (an int subclass without a
        # hash) is refused by name, as every other bad label is
        for F in facets:
            face_tuple(F)
        for v in chain.from_iterable(facets):
            try:
                hash(v)
            except TypeError:
                raise InvalidComplexError(
                    "unhashable vertex label %r" % (v,)) from None
        raise
    rank = dict(zip(labels, range(len(labels))))

    def ranks(face):
        try:
            f = tuple(sorted(map(rank.__getitem__, face)))
        except (KeyError, TypeError):
            f = None
        if f is None or len(set(f)) < len(f):
            face_tuple(face)  # raises on a repeated or unsupported label
            return None
        return f
    return ranks, len(labels), ident


def _closure(facets):
    return set(chain.from_iterable(combinations(F, k) for F in facets
                                   for k in range(1, len(F) + 1)))


def _faces_and_cofaces(facets, n):
    """(faces, ids, up): the closure of `facets` listed by size, the dict
    giving each face its position as id, and each face's strict cofaces as
    a list of ids.

    The facets are rank tuples on the ranks 0..n-1, each used, so the
    vertex faces are (0,)..(n-1,) and a vertex's rank is its id.  Each
    level's faces are taken at one set of vertex positions at a time, so
    the lists are filled by C-level maps, not a loop per face.
    """
    levels = [list(zip(range(n)))]
    levels.extend(list(set(chain.from_iterable(map(combinations, facets,
                                                   repeat(m)))))
                  for m in range(2, max(map(len, facets), default=0) + 1))
    faces = list(chain.from_iterable(levels))
    # one int object per id, shared by the dict and every coface list
    numbers = list(range(len(faces)))
    ids = dict(zip(faces, numbers))
    # a face of the top size has no coface: one shared empty tuple
    up = [[] for _ in range(len(faces) - len(levels[-1]))]
    up.extend(repeat((), len(levels[-1])))
    start = n
    for m, level in enumerate(levels[1:], 2):
        mine = numbers[start:start + len(level)]
        for k in range(1, m):
            for at in combinations(range(m), k):
                subs = (map(itemgetter(*at), level) if k == 1 else
                        map(ids.__getitem__, map(itemgetter(*at), level)))
                deque(map(list.append, map(up.__getitem__, subs), mine), 0)
        start += len(level)
    return faces, ids, up


def verify_certificate(cert, complex=None):
    """Replay a CollapseSequence; returns (ok, message).

    When a complex is passed, its facets must match the certificate's record
    of the starting complex.
    """
    ranks, n, ident = _ranker(cert.initial_facets)
    own = complex is not None and cert.initial_facets is complex.facets
    # a complex's facets are canonical, strictly increasing tuples: with
    # ident labels each is its own rank tuple, and it matches itself
    facets = set(cert.initial_facets if own and ident
                 else map(ranks, cert.initial_facets))
    if (complex is not None and not own
            and facets != set(map(ranks, complex.facets))):
        return False, "certificate is for a different complex"
    if cert.claim not in ("collapsible", "collapse-to", "endo-collapsible"):
        return False, "unknown claim %r" % (cert.claim,)
    if (cert.removed_facet is not None) != (cert.claim == "endo-collapsible"):
        return False, "facet removal only belongs to endo-collapsible claims"

    faces, ids, up = _faces_and_cofaces(facets, n)
    live = bytearray([1]) * len(faces)

    removed = None
    if cert.removed_facet is not None:
        removed = ranks(cert.removed_facet)
        if removed not in facets:
            return False, "removed face %r is not a facet" % (
                face_tuple(cert.removed_facet),)
        live[ids[removed]] = 0

    pairs = tuple(cert.pairs)  # read twice below
    got = None
    if ident:
        # every face as given at once; a face that misses or cannot be
        # hashed, or a pair that is none, sends the replay pair by pair
        # through ranks, so that a raise comes at its own pair, after the
        # verdicts before it
        try:
            got = zip(
                list(map(ids.__getitem__, map(attrgetter("free"), pairs))),
                list(map(ids.__getitem__, map(attrgetter("coface"), pairs))))
        except (AttributeError, KeyError, TypeError):
            pass
    if got is None:
        got = ((ids.get(ranks(pair.free)), ids.get(ranks(pair.coface)))
               for pair in pairs)
    for k, (s, t) in enumerate(got):
        if s is None or t is None or not (live[s] and live[t]):
            return False, "pair %d names a dead face" % k
        cofaces = up[s]
        if len(faces[t]) != len(faces[s]) + 1 or t not in cofaces:
            return False, "pair %d is not a face and its immediate coface" % k
        # t is a live entry, so it is the only one when they sum to 1
        if sum(map(live.__getitem__, cofaces)) != 1:
            return False, "pair %d removes a non-free face" % k
        live[s] = live[t] = 0

    alive = set(compress(faces, live))
    if cert.claim == "collapsible":
        if len(alive) == 1 and len(next(iter(alive))) == 1:
            return True, "collapsed to a vertex"
        return False, "terminal state is not a single vertex"

    if cert.claim == "collapse-to":
        if cert.target_facets is None:
            return False, "collapse-to claim without target"
        target = [ranks(F) for F in cert.target_facets]
        if None not in target and alive == _closure(target):
            return True, "collapsed onto the target"
        return False, "terminal state differs from the target"

    # endo-collapsible: target is the boundary of the starting complex
    if len(set(map(len, facets))) > 1:
        return False, "endo-collapsible claim on a non-pure complex"
    count = Counter(chain.from_iterable(combinations(F, len(F) - 1)
                                        for F in facets if len(F) > 1))
    bd = [r for r, c in count.items() if c == 1]
    if bd:
        if alive == _closure(bd):
            return True, "collapsed onto the boundary"
        return False, "terminal state differs from the boundary"
    if len(alive) == 1 and len(next(iter(alive))) == 1:
        return True, "collapsed to a vertex"
    if not alive and len(removed) == 1:
        return True, "single vertex removed"
    return False, "terminal state is not a single vertex"
