"""Tests for the text format and certificate serialization.

Expected texts are written out by hand from the format description, so the
writer is checked against a frozen byte string and the parser against the
writer.
"""

import pytest

from scx.collapse import collapses_to, is_collapsible, is_endo_collapsible
from scx.complexes import SimplicialComplex, full_simplex, octahedron
from scx.errors import ScxFormatError
from scx.scxio import (canonical_facets, certificate_from_text,
                       certificate_to_text, complex_from_text,
                       complex_to_text, read_certificate, read_complex,
                       write_certificate, write_complex)
from scx.subdivision import sd
from scx.verify import verify_certificate

from conftest import random_complex

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
    bad(base + "2 1 0\n", 5)
    bad(base + "0 0 1\n", 5)
    bad(base + "0  1 2\n", 5)
    bad(base + "0 1 x\n", 5)


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
    with pytest.raises(ScxFormatError):
        certificate_from_text("collapse 1 1,2\nremove 0 1 2\nclaim collapsible\n", DISK2)
    with pytest.raises(ScxFormatError):
        certificate_from_text("claim collapsible\nclaim collapsible\n", DISK2)
    with pytest.raises(ScxFormatError):
        certificate_from_text("collapse 1 1,2\n", DISK2)
    with pytest.raises(ScxFormatError):
        certificate_from_text("frob 1 2\nclaim collapsible\n", DISK2)
    with pytest.raises(ScxFormatError):
        certificate_from_text("target 0 1\nclaim collapsible\n", DISK2)
