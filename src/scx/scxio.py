"""Plain-text serialization for complexes and collapse certificates.

The complex format is line-oriented and strict:

    scx 1
    dim 2
    vertices 4
    facets 4
    0 1 2
    ...

Writing always renumbers vertices densely by first appearance in the sorted
facet list.  One renumbering pass is not idempotent (resorting the facets can
change which vertex appears first), so the pass is iterated until the facet
list stops changing.  That always happens: a pass that changes the list makes
it lexicographically smaller (see canonical_facets), so no state repeats.
The same proof shows that the list is fixed exactly when its first-appearance
order is 0, 1, 2, ..., so the passes stop there, without a pass that only
confirms it.  Rewriting a written file is therefore byte-identical.

Reading is strict in the same way: facet lines must hold strictly
increasing labels, come in increasing order and never nest, and the last
line ends with a newline.  A file that passes those checks lists its facets
in canonical form already, so the parser hands them straight to the complex
without sorting them again.

Integers must be spelled as the writer spells them: ASCII digits, no
leading zero, underscore or "+", a "-" only on a negative number ("dim -1"
heads the empty complex), single spaces or certificate-face commas between
fields and nothing after the last.  Any other spelling is rejected with
its field and line, and so is a field too long for int() to read.

Both readers read their many lines on one skeleton (_read_block): a bulk
reading with no Python loop per line and, only when one of its checks
fails, a per-line loop that names the first line at fault with the
message a line-by-line reading gives.  The bulk reading matches each line
with one compiled pattern through one map, joins the lines _CHUNK at a
time, reads the fields with one map(int, ...), checks strict increase at
every separator inside a facet or face at once and cuts the fields into
tuples (_increasing_tuples).  Facet order and nesting are checked after
it, on the facets before the first faulty line: a fault there comes
first.  A certificate's block is its collapse lines after an optional
remove line, up to the first line _COLLAPSE_LINE refuses; that line and
those after it go to the directive dispatch.  An unsorted face fails the
bulk reading but is legal: the per-line loop sorts it and finds no fault.

The per-field diagnosis (_split_strict, _int_fields) refuses every line
the patterns refuse: _split_strict refuses an empty field, so a line it
passes is fields joined by single spaces; a collapse line then needs three
of them, the faces split at commas; and _int_fields refuses a field int()
cannot read (its first loop) or that is not an _INT (its second).  The
patterns accept exactly such lines of _INT fields, and "collapse F F".  So
a facet line that the pattern or int() refuses fails one of _facet_line's
checks, and so does, in the dispatch, a collapse line that ends the block
before the claim: no collapse line is dropped unread.

Memory stays bounded: one match covers one line, so its backtracking
memory ends with the line, and only the fields of one chunk of lines are
alive at once.  Reading the 10368 facet lines of sd^4 of the octahedron
peaks under 4 MB.

Certificates use one line per step:

    remove 0 1 2            (at most once, first; endo-collapsible claims only)
    collapse 1,2 1,2,3      (free face, then its coface)
    claim endo-collapsible
    target 0 1              (collapse-to claims only, one facet per line)

An endo-collapsible claim's goal, the boundary, is implied by the complex
and never stored: its target_facets stays None.
"""

import re
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, attrgetter, eq, ge, lt, methodcaller, not_

from .collapse import CollapseSequence, _new_pair
from .complexes import SimplicialComplex, face_tuple
from .errors import InvalidComplexError, ScxFormatError

MAGIC = "scx 1"
_INT = r"(?:0|-?[1-9][0-9]*)"  # the spelling str(int) gives
_INT_FIELD = re.compile(_INT)
_FACET_LINE = re.compile("%s(?: %s)*" % (_INT, _INT))
_FACE = "%s(?:,%s)*" % (_INT, _INT)
_COLLAPSE_LINE = re.compile("collapse %s %s" % (_FACE, _FACE))
# a separator to 1 inside a tuple, 0 between two; a field's characters go
_IN_FACET = str.maketrans(" \n", "\x01\x00", "-0123456789")
_IN_FACE = str.maketrans(", \n", "\x01\x00\x00", "-0123456789")
_CHUNK = 256  # lines joined for one split: bounds the fields alive


def _renumbered(facets, order):
    """Each facet and the list sorted, with every vertex replaced by its
    position in `order`, which holds the facets' vertices; its values are
    overwritten."""
    for i, v in enumerate(order):
        order[v] = i
    out = [tuple(sorted(map(order.__getitem__, F))) for F in facets]
    out.sort()
    return out


def _relabel_once(facets):
    """One renumbering pass: vertices by first appearance, then each facet
    and the list sorted."""
    return _renumbered(facets, dict.fromkeys(chain.from_iterable(facets)))


def canonical_facets(complex):
    """Dense int relabeling that is stable under being applied again.

    Passes after the first lower the sorted facet list until it is fixed.
    Let F be the first facet with a vertex the pass moves.  The facets
    before it keep their labels, so these are 0..m-1, and the new vertices
    of F take m, m+1, ... in order: none grows and one shrinks, so the
    image of F, and with it the new list, sorts lower.  So a pass changes
    the list exactly when it moves a vertex, and the passes stop at the
    first list whose first-appearance order is 0, 1, 2, ...
    """
    cur = _relabel_once(complex.facets)
    order = dict.fromkeys(chain.from_iterable(cur))
    while not all(map(eq, order, count())):
        cur = _renumbered(cur, order)
        order = dict.fromkeys(chain.from_iterable(cur))
    return tuple(cur)


def complex_to_text(complex):
    """The .scx text of the complex, on its canonical_facets labels."""
    facets = canonical_facets(complex)
    n_vertices = len({v for F in facets for v in F})
    dim = max((len(F) for F in facets), default=0) - 1
    lines = [MAGIC,
             "dim %d" % dim,
             "vertices %d" % n_vertices,
             "facets %d" % len(facets)]
    lines.extend(" ".join(str(v) for v in F) for F in facets)
    return "\n".join(lines) + "\n"


def _split_strict(line, line_no):
    parts = line.split(" ")
    if "" in parts:
        raise ScxFormatError("malformed spacing", line_no)
    return parts


def _echo(field):
    """A refused field as a message shows it: whole up to 20 characters,
    else its first 20 and its length."""
    if len(field) <= 20:
        return repr(field)
    return "%r (%d characters)" % (field[:20] + "\u2026", len(field))


def _int_fields(parts, line_no):
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ScxFormatError("expected an integer, got %s" % _echo(p),
                                 line_no)
    for p in parts:
        if not _INT_FIELD.fullmatch(p):
            raise ScxFormatError("non-canonical integer %s" % _echo(p),
                                 line_no)
    return out


def _header_value(lines, idx, keyword):
    if idx >= len(lines):
        raise ScxFormatError("missing %r header" % keyword, idx + 1)
    parts = _split_strict(lines[idx], idx + 1)
    if len(parts) != 2 or parts[0] != keyword:
        raise ScxFormatError("expected %r header" % keyword, idx + 1)
    return _int_fields(parts[1:], idx + 1)[0]


def _chunks(lines):
    """The lines joined by newlines, _CHUNK lines at a time."""
    return map("\n".join, map(lines.__getitem__, map(
        slice, range(0, len(lines), _CHUNK), count(_CHUNK, _CHUNK))))


def _increasing_tuples(chunks, inside, size=0):
    """The tuples of int fields on the chunks of lines, or None when a
    field is past int()'s digit limit or a tuple is not strictly
    increasing.  The table `inside` tells a separator within a tuple (1)
    from one between two (0); a nonzero size says every tuple has it."""
    tuples = []
    for chunk in chunks:
        try:
            ints = tuple(map(int, chunk.replace(",", " ").split()))
        except ValueError:  # a field past int()'s digit limit
            return None
        inner = chunk.translate(inside)  # one byte per neighbouring pair
        if not all(compress(map(lt, ints, islice(ints, 1, None)),
                            inner.encode())):
            return None
        if size:
            tuples += zip(*[iter(ints)] * size)
            continue
        # each tuple's end in ints: its 1s, plus one, after the last end
        ends = [0]
        ends += accumulate(map(add, map(len, inner.split("\x00")), repeat(1)))
        tuples += map(ints.__getitem__, map(slice, ends, islice(ends, 1, None)))
    return tuples


def _read_block(block, first_no, bulk, read_line):
    """The items on the lines `block`, numbered from first_no, and the
    ScxFormatError naming the first line at fault, or None: bulk(block)
    reads them all, or gives None when a check fails, and only then does
    read_line(line, line_no) read them line by line."""
    items = bulk(block)
    if items is not None:
        return items, None
    items = []
    for line_no, line in enumerate(block, first_no):
        try:
            items.append(read_line(line, line_no))
        except ScxFormatError as e:
            return items, e
    return items, None


def _bulk_facets(body):
    """The facets on the facet lines `body`, or None when a line is
    misspelled, holds a field int() cannot read or is not strictly
    increasing.  Order and nesting are not checked."""
    if not all(map(_FACET_LINE.fullmatch, body)):
        return None
    sizes = set(map(str.count, body, repeat(" ")))
    size = sizes.pop() + 1 if len(sizes) == 1 else 0
    return _increasing_tuples(_chunks(body), _IN_FACET, size)


def _facet_line(line, line_no):
    """The facet on one facet line; it must be strictly increasing."""
    f = tuple(_int_fields(_split_strict(line, line_no), line_no))
    if not all(map(lt, f, f[1:])):
        raise ScxFormatError("facet vertices must be strictly increasing",
                             line_no)
    return f


def _check_unnested(facets):
    """Refuse the first facet nested with an earlier one, naming both lines;
    facets of one size are distinct, so they never nest."""
    if len(set(map(len, facets))) < 2:
        return
    stars = {}  # vertex -> indices of the earlier facets containing it
    for k, f in enumerate(facets):
        # an earlier facet nested with f sorts before f, so it contains f[0]
        fs = set(f)
        nested = [j for j in stars.get(f[0], ())
                  if len(facets[j]) != len(f)
                  and (fs.issubset(facets[j]) or fs.issuperset(facets[j]))]
        if nested:
            raise ScxFormatError("facet is nested with the one on line %d"
                                 % (5 + nested[0]), 5 + k)
        for v in f:
            stars.setdefault(v, []).append(k)


def complex_from_text(text):
    """Parse .scx text strictly, naming the line of the first fault."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise ScxFormatError("first line must be %r" % MAGIC, 1)
    dim = _header_value(lines, 1, "dim")
    n_vertices = _header_value(lines, 2, "vertices")
    n_facets = _header_value(lines, 3, "facets")
    if n_vertices < 0:
        raise ScxFormatError("negative vertex count %d" % n_vertices, 3)
    if len(lines) != 4 + n_facets:
        raise ScxFormatError("expected %d facet lines, found %d"
                             % (n_facets, len(lines) - 4), len(lines))
    facets, fault = _read_block(lines[4:], 5, _bulk_facets, _facet_line)
    # a facet out of order, or nested, before the faulty line comes first
    k = next(compress(count(1), map(ge, facets, islice(facets, 1, None))), 0)
    if k:
        facets, fault = facets[:k], ScxFormatError(
            "facets must be listed in increasing order", 5 + k)
    _check_unnested(facets)
    if fault is not None:
        raise fault
    used = set(chain.from_iterable(facets))
    # the count first: n_vertices comes from the header, not from the text
    if len(used) != n_vertices or used != set(range(n_vertices)):
        raise ScxFormatError("vertex labels must be exactly 0..%d"
                             % (n_vertices - 1), 4)
    got_dim = max(map(len, facets), default=0) - 1
    if got_dim != dim:
        raise ScxFormatError("declared dim %d but facets have dim %d"
                             % (dim, got_dim), 2)
    if not text.endswith("\n"):  # the writer ends every line with one
        raise ScxFormatError("missing final newline", len(lines))
    # distinct, strictly increasing, unnested and in increasing order: the
    # int facets are canonical as they stand
    return SimplicialComplex._canonical(facets)


def write_complex(complex, path):
    """Write complex_to_text(complex) to the file at path."""
    with open(path, "w") as fh:
        fh.write(complex_to_text(complex))


def read_complex(path):
    """Parse the .scx file at path with complex_from_text."""
    with open(path) as fh:
        return complex_from_text(fh.read())


# -- certificates -------------------------------------------------------------


def certificate_to_text(cert):
    """One line per certificate step; needs integer vertex labels."""
    targets = cert.target_facets if cert.claim == "collapse-to" else None
    faces = chain(
        () if cert.removed_facet is None else (cert.removed_facet,),
        map(attrgetter("free"), cert.pairs),
        map(attrgetter("coface"), cert.pairs), targets or ())
    # the label types of the whole text, checked once; str(True) is "True",
    # which no reader takes for an integer
    types = set(map(type, chain.from_iterable(faces)))
    if bool in types or not all(issubclass(t, int) for t in types):
        raise ScxFormatError(
            "certificate serialization needs integer vertex labels; "
            "write the complex first to normalize it")
    if cert.claim == "collapse-to" and targets is None:
        raise ScxFormatError("collapse-to certificate without a target")
    lines = []
    try:
        if cert.removed_facet is not None:
            lines.append("remove " + " ".join(map(str, cert.removed_facet)))
        lines.extend("collapse %s %s" % (",".join(map(str, p.free)),
                                         ",".join(map(str, p.coface)))
                     for p in cert.pairs)
        lines.append("claim " + cert.claim)
        if targets is not None:
            lines.extend("target " + " ".join(map(str, F)) for F in targets)
    except ValueError:  # str() spells no int of more than 4300 digits
        raise ScxFormatError(
            "certificate serialization needs labels of at most 4300 digits")
    return "\n".join(lines) + "\n"


def _bulk_pairs(block):
    """The pairs on the collapse lines `block`, each one _COLLAPSE_LINE
    matches, or None when a field is past int()'s digit limit or a face
    is not strictly increasing."""
    faces = _increasing_tuples(map(methodcaller("replace", "collapse ", ""),
                                   _chunks(block)), _IN_FACE)
    if faces is not None:
        in_turn = iter(faces)  # free face, coface, free face, ...
        return list(map(_new_pair, zip(in_turn, in_turn)))


def _pair_line(line, line_no):
    """The pair on one collapse line that _COLLAPSE_LINE matches, its faces
    sorted; both faces' fields are read before a repeated vertex is
    refused."""
    faces = [_int_fields(face.split(","), line_no)
             for face in line.split(" ")[1:]]
    try:
        return _new_pair(tuple(map(face_tuple, faces)))
    except InvalidComplexError as e:  # names the repeated vertex
        raise ScxFormatError(str(e), line_no) from None


def certificate_from_text(text, complex):
    """Parse a certificate against the complex it talks about, naming the
    line of the first fault."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    removed, start = None, 0
    if lines and lines[0].partition(" ")[0] == "remove":
        removed = face_tuple(_int_fields(_split_strict(lines[0], 1)[1:], 1))
        start = 1
    # the collapse block: the lines from start that _COLLAPSE_LINE matches,
    # up to the first one it does not
    end = next(compress(count(start), map(not_, map(
        _COLLAPSE_LINE.fullmatch, islice(lines, start, None)))), len(lines))
    pairs, fault = _read_block(lines[start:end], start + 1, _bulk_pairs,
                               _pair_line)
    if fault is not None:
        raise fault
    claim = None
    targets = []
    for line_no, line in enumerate(islice(lines, end, None), end + 1):
        parts = _split_strict(line, line_no)
        if parts[0] == "remove":  # only the first line may remove
            raise ScxFormatError("remove must be the first line", line_no)
        elif parts[0] == "collapse":
            if claim is not None:
                raise ScxFormatError("collapse after claim", line_no)
            # the line that ends the block: _COLLAPSE_LINE refused it, and
            # so do these checks (docstring)
            if len(parts) != 3:
                raise ScxFormatError("collapse needs two faces", line_no)
            for face in parts[1:]:
                _int_fields(face.split(","), line_no)
        elif parts[0] == "claim":
            if claim is not None:
                raise ScxFormatError("duplicate claim", line_no)
            if len(parts) != 2:
                raise ScxFormatError("claim needs one word", line_no)
            claim = parts[1]
        elif parts[0] == "target":
            if claim != "collapse-to":
                raise ScxFormatError("target lines only follow a collapse-to claim",
                                     line_no)
            targets.append(face_tuple(_int_fields(parts[1:], line_no)))
        else:
            raise ScxFormatError("unknown directive %r" % parts[0], line_no)
    if claim is None:
        raise ScxFormatError("certificate has no claim line", len(lines) or 1)
    return CollapseSequence(
        initial_facets=complex.facets,
        removed_facet=removed,
        pairs=tuple(pairs),
        claim=claim,
        target_facets=tuple(targets) if targets else None,
    )


def write_certificate(cert, path):
    """Write certificate_to_text(cert) to the file at path."""
    with open(path, "w") as fh:
        fh.write(certificate_to_text(cert))


def read_certificate(path, complex):
    """Parse the certificate file at path against its complex."""
    with open(path) as fh:
        return certificate_from_text(fh.read(), complex)
