"""Collapse search, strategies, certificates, and their independent replay."""

import sys

import pytest

from scx import InvalidComplexError, SimplicialComplex, full_simplex, octahedron, simplex_boundary
from scx.collapse import (
    collapses_to,
    discrete_morse_vector,
    is_collapsible,
    is_endo_collapsible,
    sd_endo_collapsibility_report,
)
from scx.subdivision import sd_k
from scx.verify import verify_certificate

DISK2 = SimplicialComplex([(0, 1, 2), (1, 2, 3)])


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


def test_budget_gives_unknown():
    res = is_collapsible(full_simplex(2), strategy="exhaustive", max_nodes=0)
    assert res.verdict == "unknown"
    assert "budget" in res.reason


def test_exhaustive_search_restores_the_recursion_limit():
    # 673 faces: deep enough that the search raises the limit while it runs
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


def test_discrete_morse_vectors():
    assert discrete_morse_vector(full_simplex(2)) == (1, 0, 0)
    assert discrete_morse_vector(simplex_boundary(3)) == (1, 0, 1)
    assert discrete_morse_vector(octahedron()) == (1, 0, 1)
