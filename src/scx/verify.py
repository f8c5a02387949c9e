"""Independent replay of collapse certificates.

This module deliberately shares no bookkeeping with the search engine or the
incidence index of SimplicialComplex: it re-expands the face closure itself
and re-checks freeness of every pair in its own face-to-strict-cofaces map,
so a bug in the search cannot hide in its own verifier.

Faces are replayed as tuples of vertex ranks, with each label's universal
sort key computed once instead of face_tuple's once per occurrence.  The
engine works on ranks too, but replay shares none of its state: it ranks
the labels of the certificate's own initial facets and reads every pair
from the certificate's labelled faces, so an engine that mapped a rank
back wrongly hands over a certificate that names the wrong faces, and
replay rejects it.  A face naming a vertex outside the initial facets, or
naming one twice, is read by face_tuple, which raises or leaves the face
dead just as a replay by labels did.  A label is matched to a vertex by
equality, as sets match faces, so one of another type that equals a
vertex's label (1.0 for 1) reads as that vertex.
"""

from itertools import chain, combinations

from .complexes import _vkey, face_tuple
from .errors import InvalidComplexError


def _ranker(facets):
    """The function giving a face as its tuple of vertex ranks, or None for
    a face naming a vertex outside `facets`; it raises on a face that
    face_tuple refuses."""
    try:
        labels = sorted(set(chain.from_iterable(facets)), key=_vkey)
    except (TypeError, InvalidComplexError):
        # an unhashable or unsupported label: face_tuple raises on the first
        # facet holding one, or on an earlier repeated vertex, as before
        for F in facets:
            face_tuple(F)
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
    return ranks


def _closure(facets):
    return set(chain.from_iterable(combinations(F, k) for F in facets
                                   for k in range(1, len(F) + 1)))


def _coface_index(faces):
    """Map each face of a closed family to its strict cofaces in the family."""
    up = {}
    for tau in faces:
        for k in range(1, len(tau)):
            for sigma in combinations(tau, k):
                up.setdefault(sigma, []).append(tau)
    return up


def _strict_cofaces(up, alive, sigma):
    return [f for f in up.get(sigma, ()) if f in alive]


def verify_certificate(cert, complex=None):
    """Replay a CollapseSequence; returns (ok, message).

    When a complex is passed, its facets must match the certificate's record
    of the starting complex.
    """
    ranks = _ranker(cert.initial_facets)
    facets = set(map(ranks, cert.initial_facets))
    # a complex's facets are canonical, so its own tuple matches itself
    if (complex is not None and cert.initial_facets is not complex.facets
            and facets != set(map(ranks, complex.facets))):
        return False, "certificate is for a different complex"
    if cert.claim not in ("collapsible", "collapse-to", "endo-collapsible"):
        return False, "unknown claim %r" % (cert.claim,)
    if (cert.removed_facet is not None) != (cert.claim == "endo-collapsible"):
        return False, "facet removal only belongs to endo-collapsible claims"

    alive = _closure(facets)
    up = _coface_index(alive)
    removed = None
    if cert.removed_facet is not None:
        removed = ranks(cert.removed_facet)
        if removed not in facets:
            return False, "removed face %r is not a facet" % (
                face_tuple(cert.removed_facet),)
        alive.discard(removed)

    for k, pair in enumerate(cert.pairs):
        sigma = ranks(pair.free)
        tau = ranks(pair.coface)
        if sigma not in alive or tau not in alive:
            return False, "pair %d names a dead face" % k
        if not (set(sigma) < set(tau) and len(tau) == len(sigma) + 1):
            return False, "pair %d is not a face and its immediate coface" % k
        cofaces = _strict_cofaces(up, alive, sigma)
        if len(cofaces) != 1 or cofaces[0] != tau:
            return False, "pair %d removes a non-free face" % k
        alive.discard(sigma)
        alive.discard(tau)

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
    if len({len(F) for F in facets}) > 1:
        return False, "endo-collapsible claim on a non-pure complex"
    count = {}
    for F in facets:
        if len(F) < 2:
            continue
        for r in combinations(F, len(F) - 1):
            count[r] = count.get(r, 0) + 1
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
