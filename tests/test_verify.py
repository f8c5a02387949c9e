"""Certificate replay on a large complex, and the linear-time pipeline guard.

The replay oracle here is the all-alive-faces scan: at every pair it looks
through every alive face for strict cofaces of the free face.  The verifier
reads its own face-to-coface map instead, and the two must give the same
verdict and the same rejection message on every tampered certificate.
"""

import dataclasses
import itertools
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scx.cli import main
from scx.collapse import CollapsePair, CollapseSequence, is_endo_collapsible
from scx.complexes import (SimplicialComplex, face_tuple, octahedron,
                           simplex_boundary)
from scx.errors import InvalidComplexError
from scx.scxio import (certificate_from_text, certificate_to_text,
                       complex_from_text, complex_to_text)
from scx.subdivision import sd_k
from scx.verify import verify_certificate


def scan_replay(cert):
    """Replay an endo-collapsible certificate by scanning every alive face."""
    facets = {face_tuple(F) for F in cert.initial_facets}
    alive = {f for F in facets for k in range(1, len(F) + 1)
             for f in itertools.combinations(F, k)}
    alive.discard(face_tuple(cert.removed_facet))
    for k, pair in enumerate(cert.pairs):
        sigma, tau = face_tuple(pair.free), face_tuple(pair.coface)
        if sigma not in alive or tau not in alive:
            return False, "pair %d names a dead face" % k
        if not (set(sigma) < set(tau) and len(tau) == len(sigma) + 1):
            return False, "pair %d is not a face and its immediate coface" % k
        cofaces = [f for f in alive if len(f) > len(sigma) and set(sigma) <= set(f)]
        if cofaces != [tau]:
            return False, "pair %d removes a non-free face" % k
        alive -= {sigma, tau}
    if len(alive) == 1 and len(next(iter(alive))) == 1:
        return True, "collapsed to a vertex"
    return False, "terminal state is not a single vertex"


def parsed_rung(k):
    """sd^k of the octahedron as the parser returns it, with int labels."""
    return complex_from_text(complex_to_text(sd_k(octahedron(), k).complex))


@pytest.fixture(scope="module")
def sd2_cert():
    C = parsed_rung(2)
    res = is_endo_collapsible(C)
    assert res.verdict == "yes"
    return C, res.certificate


def tampered(cert, pairs):
    return dataclasses.replace(cert, pairs=tuple(pairs))


def test_greedy_certificate_replays_on_sd2_octahedron(sd2_cert):
    C, cert = sd2_cert
    assert len(C.facets) == 288
    assert verify_certificate(cert, C) == (True, "collapsed to a vertex")
    assert scan_replay(cert) == (True, "collapsed to a vertex")


def test_tampered_certificates_get_the_scan_verdict(sd2_cert):
    C, cert = sd2_cert
    pairs = list(cert.pairs)
    k = next(i for i, p in enumerate(pairs)
             if len(p.free) == 2 and len(p.coface) == 3)
    free = pairs[k].free
    cases = {
        # the last pair frees a vertex that is crowded at the start
        "removes a non-free face": [pairs[-1]] + pairs[:-1],
        "terminal state": pairs[:-1],
        "names a dead face": pairs[:6] + pairs[5:],
        "is not a face and its immediate coface":
            pairs[:k] + [pairs[k]._replace(free=free[:1])]
            + pairs[k + 1:],
    }
    middle = len(pairs) // 2
    cases["dropped from the middle"] = pairs[:middle] + pairs[middle + 1:]
    for expect, changed in cases.items():
        bad = tampered(cert, changed)
        got = verify_certificate(bad, C)
        assert got == scan_replay(bad), expect
        assert not got[0]
        if expect != "dropped from the middle":
            assert expect in got[1]
    assert verify_certificate(tampered(cert, cases["names a dead face"]), C)[1] \
        == "pair 6 names a dead face"
    assert verify_certificate(tampered(cert, cases["removes a non-free face"]),
                              C)[1] == "pair 0 removes a non-free face"


# closed spheres, so that scan_replay's single-vertex end state is the claim
SPHERES = [parsed_rung(0), parsed_rung(1),
           complex_from_text(complex_to_text(simplex_boundary(3))),
           complex_from_text(complex_to_text(sd_k(simplex_boundary(3), 1)
                                             .complex))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_single_pair_mutations_get_the_scan_verdict(data):
    """Drop one pair, swap it with its neighbour, or replace its free face or
    coface by another face: the replay must agree with the scan, which
    decides whether the mutant is still a valid collapse."""
    C = data.draw(st.sampled_from(SPHERES))
    res = is_endo_collapsible(C, seed=data.draw(st.integers(0, 3)),
                              strategy=data.draw(st.sampled_from(["greedy",
                                                                  "lex"])))
    assert res.verdict == "yes"
    cert = res.certificate
    pairs = list(cert.pairs)
    k = data.draw(st.integers(0, len(pairs) - 1))
    how = data.draw(st.sampled_from(["drop", "swap", "free", "coface"]))
    if how == "drop":
        del pairs[k]
    elif how == "swap":
        k = min(k, len(pairs) - 2)
        pairs[k], pairs[k + 1] = pairs[k + 1], pairs[k]
    else:
        face = data.draw(st.sampled_from(sorted(C.faces())))
        pairs[k] = pairs[k]._replace(**{how: face})
    bad = tampered(cert, pairs)
    assert verify_certificate(bad, C) == scan_replay(bad)


def test_parse_classify_and_replay_scale_linearly():
    """sd^3 has 6 times the facets of sd^2, so linear code takes ~6 times as
    long, while a quadratic scan takes ~36 times; 15 separates them."""

    def best_of_3(k):
        C = parsed_rung(k)
        text = complex_to_text(C)
        cert = is_endo_collapsible(C).certificate
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            D = complex_from_text(text)
            kind = D.classify_surface().kind
            ok = verify_certificate(cert, D)[0]
            best = min(best, time.perf_counter() - start)
            assert kind == "closed-surface" and ok
        return best

    small, large = best_of_3(2), best_of_3(3)
    assert large / small < 15, (small, large)


def test_each_claim_check_names_its_reason():
    """One certificate per check that the replays above never reach, with
    the verdict and message it must get."""
    tri, path = ((0, 1, 2),), ((0, 1), (1, 2))
    mixed, disk = ((0, 1, 2), (2, 3)), ((0, 1, 2), (1, 2, 3))
    removal = "facet removal only belongs to endo-collapsible claims"
    for facets, removed, claim, target, want in (
            (tri, None, "bogus", None, (False, "unknown claim 'bogus'")),
            (tri, (0, 1, 2), "collapsible", None, (False, removal)),
            (tri, None, "endo-collapsible", None, (False, removal)),
            (tri, (0, 1), "endo-collapsible", None,
             (False, "removed face (0, 1) is not a facet")),
            (path, None, "collapse-to", ((1,),),
             (False, "terminal state differs from the target")),
            (mixed, (0, 1, 2), "endo-collapsible", None,
             (False, "endo-collapsible claim on a non-pure complex")),
            (disk, (0, 1, 2), "endo-collapsible", None,
             (False, "terminal state differs from the boundary")),
            (((0,),), (0,), "endo-collapsible", None,
             (True, "single vertex removed"))):
        cert = CollapseSequence(initial_facets=facets, removed_facet=removed,
                                pairs=(), claim=claim, target_facets=target)
        assert verify_certificate(cert) == want, (facets, claim)


def test_faces_outside_the_ranked_labels_read_as_face_tuple_reads_them():
    """Replay ranks the labels of the initial facets; any other face goes
    through face_tuple, which names a repeated or unsupported label, or
    leaves a face with an unknown vertex dead."""
    C = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    cert = is_endo_collapsible(C, strategy="lex").certificate
    first = cert.pairs[0]

    def replay(**change):
        return verify_certificate(dataclasses.replace(cert, **change), C)

    for bad in ((first.free[0], 9), ("a",), ((7,),)):
        pairs = (first._replace(free=bad),) + cert.pairs[1:]
        assert replay(pairs=pairs) == (False, "pair 0 names a dead face")
    for free, message in (((1, 1), "repeated vertex 1 in face (1, 1)"),
                          ((1, 2.5), "unsupported vertex label 2.5"),
                          (([1], 2), "unsupported vertex label [1]")):
        pairs = (first._replace(free=free),) + cert.pairs[1:]
        with pytest.raises(InvalidComplexError, match=re.escape(message)):
            replay(pairs=pairs)
    assert replay(removed_facet=(1, 2, 9)) == \
        (False, "removed face (1, 2, 9) is not a facet")
    # the first bad initial facet is named, as face_tuple meets it
    for facets, message in ((((0, 0), ([1],)), "repeated vertex 0"),
                            (((0, 1), (2, {3})), "unsupported vertex label {3}"),
                            (((0, 1.5), (2, [3])), "unsupported vertex label 1.5")):
        with pytest.raises(InvalidComplexError, match=re.escape(message)):
            replay(initial_facets=facets)
    # a complex whose facets differ, or name other vertices
    other = SimplicialComplex([(0, 1, 2), (1, 2, 4)])
    assert verify_certificate(cert, other) == \
        (False, "certificate is for a different complex")


def test_an_unhashable_label_face_tuple_accepts_is_refused_as_unhashable():
    """An int subclass without a hash passes face_tuple, which only sorts
    and compares labels, so replay refuses it where it collects the labels
    into a set, naming the label as for every other bad label."""
    class Unhashable(int):
        __hash__ = None

    facets = ((Unhashable(0), Unhashable(1)),)
    assert face_tuple(facets[0]) == facets[0]
    cert = CollapseSequence(initial_facets=facets, removed_facet=None,
                            pairs=(), claim="collapsible")
    with pytest.raises(InvalidComplexError,
                       match="unhashable vertex label 0"):
        verify_certificate(cert)


def test_replay_passes_on_a_type_error_of_hashable_labels():
    """Labels that hash but raise TypeError when compared fail the label
    set of the replay; face_tuple accepts each facet and every label
    hashes, so the error is passed on as it is."""
    class Incomparable(int):
        __hash__ = int.__hash__

        def __eq__(self, other):
            raise TypeError("labels that do not compare")

    facets = ((Incomparable(0),), (Incomparable(0),))
    cert = CollapseSequence(initial_facets=facets, removed_facet=None,
                            pairs=(), claim="collapsible")
    with pytest.raises(TypeError, match="^labels that do not compare$"):
        verify_certificate(cert)


def mutant(data, C):
    """A certificate of C with one pair dropped, swapped with its neighbour,
    or given another face of C as its free face or coface."""
    res = is_endo_collapsible(C, seed=data.draw(st.integers(0, 3)),
                              strategy=data.draw(st.sampled_from(["greedy",
                                                                  "lex"])))
    assert res.verdict == "yes"
    pairs = list(res.certificate.pairs)
    k = data.draw(st.integers(0, len(pairs) - 1))
    how = data.draw(st.sampled_from(["drop", "swap", "free", "coface"]))
    if how == "drop":
        del pairs[k]
    elif how == "swap":
        k = min(k, len(pairs) - 2)
        pairs[k], pairs[k + 1] = pairs[k + 1], pairs[k]
    else:
        face = data.draw(st.sampled_from(sorted(C.faces())))
        pairs[k] = pairs[k]._replace(**{how: face})
    return tampered(res.certificate, pairs)


# labels that are not the ints 0..n-1, so that replay maps every face
# through its ranks: strs, the tuple labels of an in-memory sd, ints offset
# by 5 and ints with a gap
OTHER_LABELS = [simplex_boundary(3).relabel(dict(zip(range(4), "dcba"))),
                sd_k(simplex_boundary(3), 1).complex,
                SPHERES[1].relabel({v: v + 5 for v in SPHERES[1].vertices}),
                SPHERES[2].relabel({0: 0, 1: 1, 2: 7, 3: 9})]


def test_other_labels_leave_the_identity_ranks():
    assert [C.vertices[0] for C in OTHER_LABELS] == ["a", (0,), 5, 0]
    for C in OTHER_LABELS:
        assert C.vertices != tuple(range(len(C.vertices)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_single_pair_mutations_on_other_labels_get_the_scan_verdict(data):
    C = data.draw(st.sampled_from(OTHER_LABELS))
    bad = mutant(data, C)
    assert verify_certificate(bad, C) == verify_certificate(bad) == \
        scan_replay(bad)


def test_unsorted_faces_replay_as_their_sorted_selves():
    """A face listed out of order misses the identity lookup and is read
    through its ranks; the parser sorts a file's faces before replay."""
    C = SimplicialComplex([(0, 1, 2), (1, 2, 3)])
    text = "remove 0 1 2\ncollapse 2,1 3,2,1\nclaim endo-collapsible\n"
    cert = certificate_from_text(text, C)
    assert cert.pairs[0] == CollapsePair((1, 2), (1, 2, 3))
    assert certificate_to_text(cert) == \
        "remove 0 1 2\ncollapse 1,2 1,2,3\nclaim endo-collapsible\n"
    want = (True, "collapsed onto the boundary")
    assert verify_certificate(cert, C) == want
    for free, coface in (((2, 1), (1, 2, 3)), ((1, 2), (3, 1, 2)),
                         ([2, 1], [3, 2, 1])):
        unsorted = tampered(cert, [CollapsePair(free, coface)])
        assert verify_certificate(unsorted, C) == want
        assert verify_certificate(unsorted) == want
    # on a sphere, every pair listed backwards
    C = SPHERES[1]
    cert = is_endo_collapsible(C).certificate
    backwards = tampered(cert, [CollapsePair(p.free[::-1], p.coface[::-1])
                                for p in cert.pairs])
    assert verify_certificate(backwards, C) == scan_replay(backwards) == \
        (True, "collapsed to a vertex")


THREE_SPHERES = [complex_from_text(complex_to_text(
    sd_k(simplex_boundary(4), k).complex)) for k in (1, 2)]


def cert_of(C):
    return is_endo_collapsible(C).certificate


def test_three_sphere_certificates_round_trip_through_the_cli(tmp_path,
                                                              capsys):
    """scx endo --cert, then scx verify-cert, on sd and sd^2 of the boundary
    of the 4-simplex (120 and 2880 facets)."""
    for C, facets in zip(THREE_SPHERES, (120, 2880)):
        assert len(C.facets) == facets and C.dim == 3
        scx_file, cert_file = tmp_path / "s.scx", tmp_path / "s.cert"
        scx_file.write_text(complex_to_text(C))
        assert main(["endo", str(scx_file), "--cert", str(cert_file)]) == 0
        assert capsys.readouterr().out.startswith("verdict yes\n")
        assert main(["verify-cert", str(scx_file), str(cert_file)]) == 0
        assert capsys.readouterr().out == "certificate ok\n"
        cert = certificate_from_text(cert_file.read_text(), C)
        assert certificate_to_text(cert) == cert_file.read_text()
        assert len(cert.pairs) == (len(C.faces()) - 2) // 2
    # the scan costs a pass over the alive faces per pair: the small rung
    assert scan_replay(cert_of(THREE_SPHERES[0])) == \
        (True, "collapsed to a vertex")


def test_tampered_three_sphere_certificates_get_the_scan_verdict():
    C = THREE_SPHERES[0]
    cert = cert_of(C)
    pairs = list(cert.pairs)
    faces = sorted(C.faces(), key=lambda f: (len(f), f))
    seen = {verify_certificate(tampered(cert, pairs[:-1]), C)[1]}
    for k in range(0, len(pairs) - 1, 7):
        p = pairs[k]
        other = faces[(3 * k) % len(faces)]
        for changed in (pairs[:k] + pairs[k + 1:],
                        pairs[:k] + [pairs[k + 1], p] + pairs[k + 2:],
                        pairs[:k] + [p._replace(free=other)]
                        + pairs[k + 1:],
                        pairs[:k] + [p._replace(coface=other)]
                        + pairs[k + 1:]):
            bad = tampered(cert, changed)
            got = verify_certificate(bad, C)
            assert got == scan_replay(bad), k
            seen.add(re.sub(r"^pair \d+ ", "", got[1]))
    # the mutants reach every rejection the scan knows
    assert {"names a dead face", "removes a non-free face",
            "is not a face and its immediate coface",
            "terminal state is not a single vertex"} <= seen


def test_labels_equal_to_0_to_n_minus_1_keep_their_own_type_rules():
    """Only labels of type int read as their own ranks: floats equal to
    0..n-1 are still refused, and bools still replay as the ints they
    equal."""
    cert = CollapseSequence(initial_facets=((0.0, 1.0), (1.0, 2.0)),
                            removed_facet=None, pairs=(), claim="collapsible")
    with pytest.raises(InvalidComplexError,
                       match=re.escape("unsupported vertex label 0.0")):
        verify_certificate(cert)
    path = ((False, True), (True, 2))
    cert = CollapseSequence(
        initial_facets=path, removed_facet=None, claim="collapsible",
        pairs=(CollapsePair((False,), (False, True)),
               CollapsePair((1,), (1, 2))))
    assert verify_certificate(cert) == (True, "collapsed to a vertex")
