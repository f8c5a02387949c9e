"""Independent replay of collapse certificates.

This module deliberately shares no bookkeeping with the search engine or the
incidence index of SimplicialComplex: it re-expands the face closure itself
and re-checks freeness of every pair in its own face-to-strict-cofaces map,
so a bug in the search cannot hide in its own verifier.
"""

import itertools

from .complexes import face_tuple


def _closure(facets):
    out = set()
    for F in facets:
        f = face_tuple(F)
        for k in range(1, len(f) + 1):
            out.update(itertools.combinations(f, k))
    return out


def _coface_index(faces):
    """Map each face of a closed family to its strict cofaces in the family."""
    up = {}
    for tau in faces:
        for k in range(1, len(tau)):
            for sigma in itertools.combinations(tau, k):
                up.setdefault(sigma, []).append(tau)
    return up


def _strict_cofaces(up, alive, sigma):
    return [f for f in up.get(sigma, ()) if f in alive]


def verify_certificate(cert, complex=None):
    """Replay a CollapseSequence; returns (ok, message).

    When a complex is passed, its facets must match the certificate's record
    of the starting complex.
    """
    facets = {face_tuple(F) for F in cert.initial_facets}
    if complex is not None and facets != set(complex.facets):
        return False, "certificate is for a different complex"
    if cert.claim not in ("collapsible", "collapse-to", "endo-collapsible"):
        return False, "unknown claim %r" % (cert.claim,)
    if (cert.removed_facet is not None) != (cert.claim == "endo-collapsible"):
        return False, "facet removal only belongs to endo-collapsible claims"

    alive = _closure(facets)
    up = _coface_index(alive)
    removed = None
    if cert.removed_facet is not None:
        removed = face_tuple(cert.removed_facet)
        if removed not in facets:
            return False, "removed face %r is not a facet" % (removed,)
        alive.discard(removed)

    for k, pair in enumerate(cert.pairs):
        sigma = face_tuple(pair.free)
        tau = face_tuple(pair.coface)
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
        if alive == _closure(cert.target_facets):
            return True, "collapsed onto the target"
        return False, "terminal state differs from the target"

    # endo-collapsible: target is the boundary of the starting complex
    if len({len(F) for F in facets}) > 1:
        return False, "endo-collapsible claim on a non-pure complex"
    count = {}
    for F in facets:
        if len(F) < 2:
            continue
        for r in itertools.combinations(F, len(F) - 1):
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
