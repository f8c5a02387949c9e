"""Tests for the text format and certificate serialization.

Expected texts are written out by hand from the format description, so the
writer is checked against a frozen byte string and the parser against the
writer.
"""

import dataclasses
import re
import tracemalloc
from operator import lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scx import scxio
from scx.collapse import (CollapsePair, CollapseSequence, collapses_to,
                          is_collapsible, is_endo_collapsible)
from scx.complexes import (SimplicialComplex, face_tuple, full_simplex,
                           octahedron)
from scx.errors import InvalidComplexError, ScxFormatError
from scx.families import polygon_triangulations
from scx.scxio import (_int_fields, _relabel_once, _split_strict,
                       canonical_facets, certificate_from_text,
                       certificate_to_text, complex_from_text,
                       complex_to_text, read_certificate, read_complex,
                       write_certificate, write_complex)
from scx.subdivision import sd, sd_k
from scx.verify import verify_certificate

from conftest import labelled_complexes, random_complex

DISK2 = SimplicialComplex([(0, 1, 2), (1, 2, 3)])


def test_written_text_is_frozen_for_a_known_complex():
    text = complex_to_text(DISK2)
    assert text == "scx 1\ndim 2\nvertices 4\nfacets 2\n0 1 2\n1 2 3\n"


def test_roundtrip_octahedron():
    text = complex_to_text(octahedron())
    C = complex_from_text(text)
    assert len(C.facets) == 8
    assert C.classify_surface().kind == "closed-surface"
    assert complex_to_text(C) == text


def test_renumbering_reaches_a_fixed_point():
    # one renumbering pass maps (0,1),(1,3),(2,3) to (0,1),(1,2),(2,3),
    # so a naive single pass would not be idempotent
    C = SimplicialComplex([(0, 1), (2, 3), (1, 3)])
    text = complex_to_text(C)
    assert complex_to_text(complex_from_text(text)) == text


def test_canonical_facets_idempotent_on_random_complexes():
    for seed in range(12):
        C = random_complex(seed)
        once = canonical_facets(C)
        again = canonical_facets(SimplicialComplex(once))
        assert once == again


def test_chain_labels_written_as_ints():
    K = sd(full_simplex(2)).complex
    C = complex_from_text(complex_to_text(K))
    assert len(C.facets) == 6
    assert C.n_vertices == 7
    assert all(isinstance(v, int) for v in C.vertices)


def test_empty_complex_roundtrip():
    text = complex_to_text(SimplicialComplex([]))
    assert text == "scx 1\ndim -1\nvertices 0\nfacets 0\n"
    assert complex_from_text(text).facets == ()


def test_file_roundtrip(tmp_path):
    path = tmp_path / "oct.scx"
    write_complex(octahedron(), path)
    assert complex_to_text(read_complex(path)) == complex_to_text(octahedron())


def bad(text, line_no):
    with pytest.raises(ScxFormatError) as e:
        complex_from_text(text)
    assert e.value.line_no == line_no
    return e.value


def test_parser_rejects_bad_magic():
    bad("scx 2\ndim 0\nvertices 1\nfacets 1\n0\n", 1)
    bad("", 1)


def test_parser_rejects_bad_headers():
    bad("scx 1\nvertices 1\ndim 0\nfacets 1\n0\n", 2)
    bad("scx 1\ndim x\nvertices 1\nfacets 1\n0\n", 2)
    bad("scx 1\ndim 0\nvertices 1\n", 3 + 1)


def test_parser_rejects_bad_facet_lines():
    base = "scx 1\ndim 2\nvertices 3\nfacets 1\n"
    increasing = "facet vertices must be strictly increasing"
    for line, message in (("2 1 0", increasing),
                          ("0 0 1", increasing),
                          ("0  1 2", "malformed spacing"),
                          ("0 1 2 ", "malformed spacing"),
                          ("0 1 x", "expected an integer, got 'x'")):
        assert str(bad(base + line + "\n", 5)) == "line 5: " + message


def test_parser_rejects_nested_and_unordered_facets():
    e = bad("scx 1\ndim 2\nvertices 3\nfacets 2\n0 1\n0 1 2\n", 6)
    assert "nested with the one on line 5" in str(e)
    e = bad("scx 1\ndim 1\nvertices 3\nfacets 2\n1 2\n0 1\n", 6)
    assert "increasing order" in str(e)


def test_parser_rejects_count_and_label_mismatches():
    bad("scx 1\ndim 1\nvertices 2\nfacets 2\n0 1\n", 5)
    bad("scx 1\ndim 1\nvertices 2\nfacets 1\n0 1\nextra\n", 6)
    e = bad("scx 1\ndim 1\nvertices 2\nfacets 1\n0 2\n", 4)
    assert "0..1" in str(e)
    e = bad("scx 1\ndim 2\nvertices 2\nfacets 1\n0 1\n", 2)
    assert "declared dim" in str(e)
    e = bad("scx 1\ndim -1\nvertices -1\nfacets 0\n", 3)
    assert str(e) == "line 3: negative vertex count -1"
    # a negative label is spelled as the writer would spell it; the label
    # range check rejects it
    e = bad("scx 1\ndim 1\nvertices 2\nfacets 1\n-1 0\n", 4)
    assert str(e) == "line 4: vertex labels must be exactly 0..1"


def test_parser_rejects_a_missing_final_newline():
    # the writer ends every line with a newline, so such a file would not
    # write back byte for byte; the error names the last line
    for text in (complex_to_text(octahedron()),
                 "scx 1\ndim -1\nvertices 0\nfacets 0\n"):
        complex_from_text(text)
        e = bad(text[:-1], text.count("\n"))
        assert str(e) == "line %d: missing final newline" % text.count("\n")
    # a bad line still comes first, named as before
    e = bad("scx 1\ndim 2\nvertices 3\nfacets 1\n0  1 2", 5)
    assert str(e) == "line 5: malformed spacing"


OCT_TEXT = ("scx 1\ndim 2\nvertices 6\nfacets 8\n0 1 2\n0 1 3\n0 2 4\n0 3 4\n"
            "1 2 5\n1 3 5\n2 4 5\n3 4 5\n")
MIXED_TEXT = "scx 1\ndim 2\nvertices 5\nfacets 4\n0 1\n0 1 2\n1 3\n3 4\n"


def swapped(old, new, text=OCT_TEXT):
    assert old in text
    return text.replace(old, new, 1)


READER_FAULTS = [
    (swapped("0 3 4", "0 3 +4"), "non-canonical integer '+4'", 8),
    (swapped("1 3 5", "1  3 5"), "malformed spacing", 10),
    (swapped("2 4 5", "2 4 " + "1" * 4301),
     "expected an integer, got '%s…' (4301 characters)" % ("1" * 20), 11),
    (swapped("0 2 4", "0 4 2"),
     "facet vertices must be strictly increasing", 7),
    (swapped("0 1 3\n0 2 4", "0 2 4\n0 1 3"),
     "facets must be listed in increasing order", 7),
    (swapped("1 3 5", "1 2 5"), "facets must be listed in increasing order", 10),
    (MIXED_TEXT, "facet is nested with the one on line 5", 6),
    # a nesting on an earlier line is named before a misspelling; past
    # mixed sizes that do not nest, the misspelling is named
    (swapped("3 4\n", "3 04\n", MIXED_TEXT),
     "facet is nested with the one on line 5", 6),
    ("scx 1\ndim 2\nvertices 5\nfacets 3\n0 1 2\n1 3\n3 04\n",
     "non-canonical integer '04'", 7),
    (swapped("vertices 6", "vertices 7"), "vertex labels must be exactly 0..6", 4),
    (swapped("dim 2", "dim 3"), "declared dim 3 but facets have dim 2", 2),
    (swapped("3 4 5\n", ""), "expected 8 facet lines, found 7", 11),
    (OCT_TEXT[:-1], "missing final newline", 12),
]


@pytest.mark.parametrize("text, message, line_no", READER_FAULTS)
def test_each_reader_fault_keeps_its_message_and_line(text, message, line_no):
    complex_from_text(OCT_TEXT)
    e = bad(text, line_no)
    assert str(e) == "line %d: %s" % (line_no, message)


def test_reading_a_large_file_takes_bounded_memory():
    """The 10368 facet lines of sd^4 of the octahedron, 148735 bytes: one
    spelling match over all of them took 8.7 MB of backtracking memory, a
    9 MB peak in all; one match per line keeps it under 4 MB."""
    text = complex_to_text(sd_k(octahedron(), 4).complex)
    tracemalloc.start()
    try:
        C = complex_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(C.facets) == 10368 and len(text) == 148735
    assert peak < 4 * 2 ** 20, peak


def test_a_huge_vertex_count_is_refused_in_bounded_memory():
    """The header's count is checked against the labels the text uses
    before range(n_vertices) is built: a 40-byte file claiming two million
    vertices is refused without a set of two million ints."""
    text = "scx 1\ndim 0\nvertices 2000000\nfacets 1\n0\n"
    tracemalloc.start()
    try:
        e = bad(text, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e) == "line 4: vertex labels must be exactly 0..1999999"
    assert peak < 2 ** 20, peak


def test_a_bad_line_past_the_first_block_is_named():
    text = complex_to_text(sd(sd(octahedron()).complex).complex)
    lines = text.split("\n")
    assert len(lines) > 4 + 256 + 10
    k = 4 + 256 + 7  # in the second block of lines
    first = lines[k].split(" ")[0]
    for line, want in (("0" + lines[k], "non-canonical integer %r" % ("0" + first)),
                       (lines[k].replace(" ", "  ", 1), "malformed spacing")):
        e = bad("\n".join(lines[:k] + [line] + lines[k + 1:]), k + 1)
        assert str(e) == "line %d: %s" % (k + 1, want)
    e = bad(text[:-1], text.count("\n"))
    assert str(e) == "line %d: missing final newline" % text.count("\n")


def test_error_message_carries_line_number():
    e = bad("scx 1\ndim 1\nvertices 3\nfacets 2\n0 1\n1 1\n", 6)
    assert str(e).startswith("line 6:")


def test_endo_certificate_roundtrip():
    res = is_endo_collapsible(DISK2, facet=(0, 1, 2))
    assert res.verdict == "yes"
    text = certificate_to_text(res.certificate)
    assert text.startswith("remove 0 1 2\n")
    cert = certificate_from_text(text, DISK2)
    assert cert == res.certificate
    ok, msg = verify_certificate(cert)
    assert ok, msg


def test_collapse_to_certificate_roundtrip():
    target = SimplicialComplex([(0, 1)])
    res = collapses_to(full_simplex(3), target)
    assert res.verdict == "yes"
    text = certificate_to_text(res.certificate)
    assert "claim collapse-to\n" in text
    assert "target 0 1\n" in text
    cert = certificate_from_text(text, full_simplex(3))
    assert cert == res.certificate
    ok, msg = verify_certificate(cert)
    assert ok, msg


def test_certificate_file_roundtrip(tmp_path):
    res = is_collapsible(full_simplex(3))
    path = tmp_path / "c.cert"
    write_certificate(res.certificate, path)
    cert = read_certificate(path, full_simplex(3))
    assert cert == res.certificate


def test_certificate_needs_int_labels():
    relabeled = full_simplex(2).relabel({0: "a", 1: "b", 2: "c"})
    res = is_collapsible(relabeled)
    with pytest.raises(ScxFormatError) as e:
        certificate_to_text(res.certificate)
    assert "integer" in str(e.value)


def test_certificate_parser_rejections():
    for text, line_no, message in (
            ("collapse 1 1,2\nremove 0 1 2\nclaim collapsible\n", 2,
             "remove must be the first line"),
            ("claim collapsible\nclaim collapsible\n", 2, "duplicate claim"),
            ("collapse 1 1,2\n", 1, "certificate has no claim line"),
            ("frob 1 2\nclaim collapsible\n", 1, "unknown directive 'frob'"),
            ("target 0 1\nclaim collapsible\n", 1,
             "target lines only follow a collapse-to claim"),
            ("claim collapsible\ncollapse 1 1,2\n", 2, "collapse after claim"),
            ("collapse 1\nclaim collapsible\n", 1, "collapse needs two faces"),
            ("collapse 1 1,2 1,2,3\nclaim collapsible\n", 1,
             "collapse needs two faces"),
            ("claim\n", 1, "claim needs one word"),
            ("collapse 1 1,2\nclaim collapse to\n", 2, "claim needs one word")):
        with pytest.raises(ScxFormatError) as e:
            certificate_from_text(text, DISK2)
        assert str(e.value) == "line %d: %s" % (line_no, message), text
    # the writer refuses a collapse-to claim it could not read back
    cert = collapses_to(DISK2, SimplicialComplex([(1, 2, 3)])).certificate
    with pytest.raises(ScxFormatError) as e:
        certificate_to_text(dataclasses.replace(cert, target_facets=None))
    assert str(e.value) == "collapse-to certificate without a target"


def test_certificate_face_rejections_name_the_line():
    head = "remove 0 1 2\ncollapse 1,2 1,2,3\n"
    for line, message in (
            ("collapse 2,1 3,1,1", "repeated vertex 1 in face (1, 1, 3)"),
            ("collapse 1,x 1,2,3", "expected an integer, got 'x'"),
            ("collapse 1,2  1,2,3", "malformed spacing"),
            ("collapse 1,,2 1,2,3", "expected an integer, got ''")):
        with pytest.raises(ScxFormatError) as e:
            certificate_from_text(head + line + "\nclaim endo-collapsible\n",
                                  DISK2)
        assert str(e.value) == "line 3: " + message


# spellings that int() reads as 2 or 0 but the writer never emits
LENIENT = (("+2", "2"), ("02", "2"), ("0_2", "2"), ("\u0662", "2"),
           ("2\t", "2"), ("2\r", "2"), ("-0", "0"))


def respellings(text, canonical, spelled):
    """Copies of text with one integer field equal to `canonical` spelled
    otherwise, each with the number of the changed line."""
    lines = text.split("\n")
    for k, line in enumerate(lines):
        words = line.split(" ")
        for w, word in enumerate(words):
            fields = word.split(",")
            for f, field in enumerate(fields):
                if field == canonical:
                    word2 = ",".join(fields[:f] + [spelled] + fields[f + 1:])
                    line2 = " ".join(words[:w] + [word2] + words[w + 1:])
                    yield "\n".join(lines[:k] + [line2] + lines[k + 1:]), k + 1


def test_readers_reject_integers_the_writer_never_spells():
    texts = ("scx 1\ndim 2\nvertices 3\nfacets 1\n0 1 2\n",
             "scx 1\ndim -1\nvertices 0\nfacets 0\n")
    certs = ("remove 0 1 2\ncollapse 1,2 1,2,3\nclaim endo-collapsible\n",
             "claim collapse-to\ntarget 0 1\ntarget 1 2\n")
    n = 0
    for spelled, canonical in LENIENT:
        want = "non-canonical integer %r" % spelled
        for text in texts:
            complex_from_text(text)
            for variant, line_no in respellings(text, canonical, spelled):
                assert str(bad(variant, line_no)) == "line %d: %s" % (line_no, want)
                n += 1
        for text in certs:
            certificate_from_text(text, DISK2)
            for variant, line_no in respellings(text, canonical, spelled):
                with pytest.raises(ScxFormatError) as e:
                    certificate_from_text(variant, DISK2)
                assert str(e.value) == "line %d: %s" % (line_no, want)
                n += 1
    # per spelling of 2: the dim header, a facet line, remove, both faces of
    # collapse, target; per spelling of 0: a facet line, both count
    # headers, remove, target
    assert n == 6 * 6 + 5


def test_endo_certificates_store_no_target(monkeypatch):
    # the goal of an endo claim is the boundary, implied by the complex:
    # neither the search nor the parser keeps it, and the parser never
    # computes it
    res = is_endo_collapsible(DISK2)
    assert res.verdict == "yes" and res.certificate.target_facets is None
    text = certificate_to_text(res.certificate)

    def refuse(self):
        raise AssertionError("the parser computed the boundary")

    monkeypatch.setattr(SimplicialComplex, "boundary", refuse)
    cert = certificate_from_text(text, DISK2)
    assert cert.target_facets is None and cert == res.certificate
    monkeypatch.undo()
    assert verify_certificate(cert, DISK2) == (True, "collapsed onto the boundary")


# -- round trips under Hypothesis ----------------------------------------------

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

def reference_relabel_once(facets):
    """A renumbering pass written out without the writer's code: vertices by
    first appearance in the facet list, then each facet and the list sorted."""
    order = {}
    for F in facets:
        for v in F:
            if v not in order:
                order[v] = len(order)
    return tuple(sorted(tuple(sorted(order[v] for v in F)) for F in facets))


def relabel_passes(C):
    """Every facet list the renumbering passes go through, up to the repeat."""
    states = [reference_relabel_once(C.facets)]
    while len(states) < 2 or states[-1] != states[-2]:
        states.append(reference_relabel_once(states[-1]))
    return states


@SETTINGS
@given(st.one_of(labelled_complexes(),
                 labelled_complexes().map(lambda C: sd(C).complex)))
def test_each_renumbering_pass_lowers_the_facet_list(C):
    """After the first pass, a pass that changes the facets makes their
    sorted list lexicographically smaller, so the passes cannot cycle; sd
    outputs carry tuple labels."""
    states = relabel_passes(C)
    assert all(b < a for a, b in zip(states[:-2], states[1:-1]))
    assert canonical_facets(C) == states[-1]


def test_renumbering_the_third_subdivision_of_the_octahedron():
    K = sd(sd(sd(octahedron()).complex).complex).complex
    states = relabel_passes(K)
    assert len(states) == 18 and states[-1] == canonical_facets(K)
    assert all(b < a for a, b in zip(states[:-2], states[1:-1]))
    # the writer's pass takes each state to the next one
    assert all(tuple(_relabel_once(a)) == b for a, b in zip(states, states[1:]))


@SETTINGS
@given(labelled_complexes())
def test_text_roundtrip_is_byte_identical(C):
    text = complex_to_text(C)
    D = complex_from_text(text)
    assert complex_to_text(D) == text
    # the parser hands its facets over unchecked; the checking constructor
    # must find nothing to change
    assert D.facets == SimplicialComplex(D.facets).facets
    assert D.f_vector() == C.f_vector()


DISKS = [SimplicialComplex(T) for n in range(4, 9)
         for T in polygon_triangulations(n)]


@st.composite
def disk_certificates(draw):
    """Endo and collapse-to certificates of a small disk read from its text."""
    disk = draw(st.sampled_from(DISKS))
    C = complex_from_text(complex_to_text(disk))
    strategy = draw(st.sampled_from(["greedy", "lex"]))
    seed = draw(st.integers(0, 3))
    if draw(st.booleans()):
        facet = draw(st.sampled_from(C.facets))
        res = is_endo_collapsible(C, facet=facet, strategy=strategy, seed=seed)
    else:
        target = SimplicialComplex([draw(st.sampled_from(C.facets))])
        res = collapses_to(C, target, strategy=strategy, seed=seed)
    assert res.verdict == "yes"
    return C, res.certificate


@SETTINGS
@given(disk_certificates())
def test_certificate_text_roundtrip_is_byte_identical(case):
    C, cert = case
    text = certificate_to_text(cert)
    parsed = certificate_from_text(text, C)
    assert parsed == cert
    assert certificate_to_text(parsed) == text


def test_certificate_writer_refuses_bool_labels():
    """str(True) is "True", which the reader refuses, so the writer does."""
    res = is_collapsible(SimplicialComplex([(False, True), (True, 2)]))
    assert res.verdict == "yes"
    with pytest.raises(ScxFormatError) as e:
        certificate_to_text(res.certificate)
    assert str(e.value) == ("certificate serialization needs integer vertex "
                            "labels; write the complex first to normalize it")


def test_certificate_writer_refuses_labels_past_4300_digits():
    """str() spells no int of more than 4300 digits."""
    res = is_collapsible(SimplicialComplex([(10 ** 5000, 0), (0, 1)]))
    assert res.verdict == "yes"
    with pytest.raises(ScxFormatError) as e:
        certificate_to_text(res.certificate)
    assert str(e.value) == ("certificate serialization needs labels of at "
                            "most 4300 digits")


@pytest.fixture(scope="module")
def sd3_cert_text():
    """sd^3 of the octahedron as read from its text, with the text of its
    endo certificate: a remove line, 2592 collapse lines and the claim."""
    C = complex_from_text(complex_to_text(sd_k(octahedron(), 3).complex))
    text = certificate_to_text(is_endo_collapsible(C).certificate)
    lines = text.split("\n")
    assert lines[0].startswith("remove ") and lines[-2:] == \
        ["claim endo-collapsible", ""]
    assert len(lines) == 2595
    return C, text


def test_sd3_certificate_writes_back_byte_for_byte(sd3_cert_text):
    C, text = sd3_cert_text
    cert = certificate_from_text(text, C)
    assert len(cert.pairs) == 2592
    assert certificate_to_text(cert) == text


def test_collapse_blocks_name_the_line_of_a_bad_field(sd3_cert_text):
    """Lines 2..257 are the first block of collapse lines, 258..513 the
    second: a fault at the end of one, or inside the next, names its line."""
    C, text = sd3_cert_text
    lines = text.split("\n")
    for line_no in (2, 257, 258, 300):
        _, free, coface = lines[line_no - 1].split(" ")
        v = free.split(",")[0]
        twice = tuple(sorted(map(int, free.split(",") * 2)))
        for line, message in (
                ("collapse x,%s %s" % (free, coface),
                 "expected an integer, got 'x'"),
                ("collapse +%s %s" % (free, coface),
                 "non-canonical integer '+%s'" % v),
                ("collapse  %s %s" % (free, coface), "malformed spacing"),
                ("collapse %s %s,%s" % (free, free, free),
                 "repeated vertex %s in face %r" % (v, twice))):
            changed = lines[:line_no - 1] + [line] + lines[line_no:]
            with pytest.raises(ScxFormatError) as e:
                certificate_from_text("\n".join(changed), C)
            assert str(e.value) == "line %d: %s" % (line_no, message)


def test_a_collapse_line_after_the_claim_is_refused_in_a_block(sd3_cert_text):
    C, text = sd3_cert_text
    lines = text.split("\n")
    claim = lines[-2]
    for at in (100, 257, 2592):
        changed = lines[:at] + [claim] + lines[at:-2] + [""]
        with pytest.raises(ScxFormatError) as e:
            certificate_from_text("\n".join(changed), C)
        assert str(e.value) == "line %d: collapse after claim" % (at + 2)
    # an unsorted face in a block is sorted, and the text writes back sorted
    _, free, coface = lines[1].split(" ")
    changed = list(lines)
    changed[1] = "collapse %s %s" % (free, ",".join(coface.split(",")[::-1]))
    assert certificate_from_text("\n".join(changed), C) == \
        certificate_from_text(text, C)


# -- both readers against a field-by-field oracle ------------------------------

HUGE = "1" * 4301  # one digit past the longest int str() spells by default


def shown(field):
    """A field as a refusal shows it: past 20 characters, cut to 20 with
    its length given."""
    if len(field) > 20:
        return "'%s\u2026' (%d characters)" % (field[:20], len(field))
    return repr(field)


def field_fault(fields):
    """The refusal of the first bad field, or None: each field must be
    read by int() and be spelled as str() spells what int() read."""
    for p in fields:
        try:
            int(p)
        except ValueError:
            return "expected an integer, got %s" % shown(p)
    for p in fields:
        if str(int(p)) != p:
            return "non-canonical integer %s" % shown(p)
    return None


def int_words(text, complex_text):
    """Per line of text, the index of its first integer word (past the last
    word on a claim line), or None for the magic line, kept as written."""
    starts = []
    for k, line in enumerate(text.split("\n")[:-1]):
        if complex_text:
            starts.append(None if k == 0 else 1 if k < 4 else 0)
        else:
            starts.append(2 if line.startswith("claim ") else 1)
    return starts


def oracle_line_fault(line, start):
    """The refusal of one line whose words before `start` were left as
    written: the fields of a collapse line are checked face by face, those
    of any other line all at once."""
    words = line.split(" ")
    if "" in words:
        return "malformed spacing"
    if start is None:
        return None
    if words[0] != "collapse":
        return field_fault(words[start:])
    faults = (field_fault(face.split(",")) for face in words[start:])
    return next(filter(None, faults), None)


ARABIC_INDIC = str.maketrans("0123456789",
                             "".join(map(chr, range(0x660, 0x66A))))


def respell(field):
    """Spellings of one field: as written, as int() reads it but str()
    never writes it, and ones int() cannot read at all."""
    lenient = ["+" + field, "0" + field, "0_" + field, field + "\t",
               field + "\r", field.translate(ARABIC_INDIC)]
    return [field] + lenient + ["-0"] * (field == "0") + ["x", HUGE, ""]


@st.composite
def mangled(draw, text, starts):
    """text with a few of its integer fields respelled and a few spaces
    doubled, on every line but the magic one."""
    lines = text.split("\n")[:-1]
    open_lines = [k for k, start in enumerate(starts) if start is not None]
    with_ints = [k for k in open_lines
                 if starts[k] < len(lines[k].split(" "))]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.sampled_from(with_ints))
        words = lines[k].split(" ")
        w = draw(st.integers(starts[k], len(words) - 1))
        fields = words[w].split(",")
        f = draw(st.integers(0, len(fields) - 1))
        fields[f] = draw(st.sampled_from(respell(fields[f])))
        words[w] = ",".join(fields)
        lines[k] = " ".join(words)
    for _ in range(draw(st.integers(0, 1))):
        k = draw(st.sampled_from(open_lines))
        words = lines[k].split(" ")
        at = draw(st.integers(0, len(words)))
        lines[k] = " ".join(words[:at]) + "  " + " ".join(words[at:])
    return "\n".join(lines) + "\n"


def verdict(read, *args):
    """What a reader returns, or the message and line it refuses with."""
    try:
        return read(*args)
    except ScxFormatError as e:
        return str(e), e.line_no


def oracle_verdict(variant, starts, answer):
    """The oracle's verdict on a mangled text whose values are unchanged:
    the first line at fault, else the answer the untouched text gives."""
    for line_no, (line, start) in enumerate(
            zip(variant.split("\n")[:-1], starts), 1):
        fault = oracle_line_fault(line, start)
        if fault:
            return "line %d: %s" % (line_no, fault), line_no
    return answer


SCX_TEXTS = [complex_to_text(C) for C in
             (DISK2, octahedron(), full_simplex(3), SimplicialComplex([]),
              SimplicialComplex([(0, 1, 2), (2, 3), (4,)]))]


@SETTINGS
@given(st.sampled_from(SCX_TEXTS).flatmap(lambda text: st.tuples(
    st.just(text), mangled(text, int_words(text, True)))))
@example((SCX_TEXTS[0], SCX_TEXTS[0].replace("1 2 3", "1 2 " + HUGE)))
def test_complex_reader_matches_a_field_by_field_oracle(case):
    text, variant = case
    want = oracle_verdict(variant, int_words(text, True),
                          complex_from_text(text))
    assert verdict(complex_from_text, variant) == want


@SETTINGS
@given(disk_certificates().flatmap(lambda case: st.tuples(
    st.just(case), mangled(certificate_to_text(case[1]),
                           int_words(certificate_to_text(case[1]), False)))))
@example(((DISK2, is_collapsible(DISK2).certificate),
          certificate_to_text(is_collapsible(DISK2).certificate).replace(
              "collapse 0 ", "collapse %s " % HUGE)))
def test_certificate_reader_matches_a_field_by_field_oracle(case):
    (C, cert), variant = case
    starts = int_words(certificate_to_text(cert), False)
    assert verdict(certificate_from_text, variant, C) == \
        oracle_verdict(variant, starts, cert)



# -- the bulk certificate reading against the per-line reading -----------------


def test_an_unsorted_face_is_read_sorted_by_the_per_line_loop(monkeypatch):
    """An unsorted face fails the bulk reading, but the text is legal: the
    per-line loop reads every line, finds no fault, and hands back the
    faces sorted, so the certificate writes back sorted."""
    cert = is_endo_collapsible(DISK2, facet=(0, 1, 2)).certificate
    text = certificate_to_text(cert)
    assert "collapse 1,2 1,2,3\n" in text
    read_lines = []
    pair_line = scxio._pair_line

    def counted(line, line_no):
        read_lines.append(line_no)
        return pair_line(line, line_no)

    monkeypatch.setattr(scxio, "_pair_line", counted)
    for old, new in (("collapse 1,2 1,2,3\n", "collapse 2,1 3,1,2\n"),
                     ("collapse 1,2 1,2,3\n", "collapse 1,2 1,3,2\n")):
        del read_lines[:]
        got = certificate_from_text(text.replace(old, new), DISK2)
        assert read_lines == list(range(2, len(cert.pairs) + 2))
        assert got == cert
        assert certificate_to_text(got) == text


OLD_INT = r"(?:0|-?[1-9][0-9]*)"
OLD_FACE = "(%s(?:,%s)*)" % (OLD_INT, OLD_INT)
OLD_COLLAPSE_LINE = re.compile("collapse %s %s" % (OLD_FACE, OLD_FACE))


def per_line_certificate_reader(text, complex):
    """certificate_from_text as it read before the bulk reading, one line
    at a time, kept as the bulk reading's oracle."""
    def face(vs, line_no):
        if len(vs) > 1 and not all(map(lt, vs, vs[1:])):
            vs = tuple(sorted(vs))
            if len(set(vs)) != len(vs):
                try:
                    face_tuple(vs)
                except InvalidComplexError as e:
                    raise ScxFormatError(str(e), line_no)
        return vs

    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    removed = None
    pairs = []
    claim = None
    targets = []
    for line_no, line in enumerate(lines, 1):
        m = claim is None and OLD_COLLAPSE_LINE.fullmatch(line)
        if m:
            try:
                free = tuple(map(int, m[1].split(",")))
                coface = tuple(map(int, m[2].split(",")))
            except ValueError:
                pass
            else:
                pairs.append(CollapsePair(face(free, line_no),
                                          face(coface, line_no)))
                continue
        parts = _split_strict(line, line_no)
        if parts[0] == "remove":
            if removed is not None or pairs or claim:
                raise ScxFormatError("remove must be the first line", line_no)
            removed = face_tuple(_int_fields(parts[1:], line_no))
        elif parts[0] == "collapse":
            if claim is not None:
                raise ScxFormatError("collapse after claim", line_no)
            if len(parts) != 3:
                raise ScxFormatError("collapse needs two faces", line_no)
            for f in parts[1:]:
                _int_fields(f.split(","), line_no)
        elif parts[0] == "claim":
            if claim is not None:
                raise ScxFormatError("duplicate claim", line_no)
            if len(parts) != 2:
                raise ScxFormatError("claim needs one word", line_no)
            claim = parts[1]
        elif parts[0] == "target":
            if claim != "collapse-to":
                raise ScxFormatError(
                    "target lines only follow a collapse-to claim", line_no)
            targets.append(face_tuple(_int_fields(parts[1:], line_no)))
        else:
            raise ScxFormatError("unknown directive %r" % parts[0], line_no)
    if claim is None:
        raise ScxFormatError("certificate has no claim line", len(lines) or 1)
    return CollapseSequence(
        initial_facets=complex.facets, removed_facet=removed,
        pairs=tuple(pairs), claim=claim,
        target_facets=tuple(targets) if targets else None)


SD_OCT = complex_from_text(complex_to_text(sd(octahedron()).complex))
HEPTAGON_DISKS = [complex_from_text(complex_to_text(SimplicialComplex(T)))
                  for T in polygon_triangulations(7)]


@st.composite
def respelled_certificates(draw):
    """A complex, sd(oct) or a 7-gon disk, and the text of one of its
    certificates with a few faces of collapse lines respelled: their
    vertices reordered, or one of them repeated."""
    C = draw(st.sampled_from([SD_OCT] + HEPTAGON_DISKS))
    kw = dict(strategy=draw(st.sampled_from(["greedy", "lex"])),
              seed=draw(st.integers(0, 3)))
    if C is SD_OCT or draw(st.booleans()):
        res = is_endo_collapsible(C, facet=draw(st.sampled_from(C.facets)),
                                  **kw)
    else:
        res = collapses_to(C, SimplicialComplex([C.facets[-1]]), **kw)
    assert res.verdict == "yes"
    lines = certificate_to_text(res.certificate).split("\n")
    at = [k for k, line in enumerate(lines) if line.startswith("collapse ")]
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.sampled_from(at))
        words = lines[k].split(" ")
        w = draw(st.integers(1, 2))
        fields = words[w].split(",")
        if draw(st.booleans()):
            fields = draw(st.permutations(fields))
        else:
            fields.insert(draw(st.integers(0, len(fields))),
                          draw(st.sampled_from(fields)))
        words[w] = ",".join(fields)
        lines[k] = " ".join(words)
    return C, "\n".join(lines)


@SETTINGS
@given(respelled_certificates())
def test_certificate_reader_matches_the_per_line_reader(case):
    C, text = case
    assert verdict(certificate_from_text, text, C) == \
        verdict(per_line_certificate_reader, text, C)
