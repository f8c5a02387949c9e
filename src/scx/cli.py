"""Command line front end.

Every subcommand reads and writes the plain text complex format.  Exit
codes are uniform: 0 is success or a positive verdict, 1 a negative
verdict, 2 an unknown verdict or an exhausted search budget, 3 a usage or
format problem, a negative budget among them.  The census is a table, not
a verdict: it prints a search that ran out as an "unknown" cell and exits
0.  Output depends only on the inputs and flags, never on timing, so
identical invocations produce identical bytes.
"""

import argparse
import sys

from .census import (DEFAULT_CENSUS_MAX_NODES, DEFAULT_CENSUS_SEEDS, census,
                     derived_count_bound, iso, manifold_count_bound)
from .collapse import (DEFAULT_ATTEMPTS, DEFAULT_SEEDS, STRATEGIES,
                       collapses_to, discrete_morse_vector, is_collapsible,
                       is_endo_collapsible, sd_endo_collapsibility_report)
from .complexes import (SimplicialComplex, face_tuple, full_simplex,
                        octahedron, simplex_boundary)
from .errors import (DEFAULT_MAX_NODES, BudgetExceededError,
                     InvalidComplexError, NotDerivedSubdivisionError,
                     QuotientRejected, ScxFormatError)
from .families import (grid_surface, lower_bound_table, strip_surface,
                       torus_from_pattern)
from .reconstruct import reconstruct
from .scxio import (certificate_to_text, complex_to_text, read_certificate,
                    read_complex)
from .subdivision import DEFAULT_MAX_FACETS, derived_neighborhood, sd_k
from .verify import verify_certificate


def _emit(text, out):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _int_list(text):
    """Integers separated by whitespace, as in '0 1 2'."""
    try:
        return tuple(int(p) for p in text.split())
    except ValueError:
        raise ScxFormatError("non-integer entry in %r" % text) from None


def _parse_faces(text):
    """Inline subcomplex syntax: facets joined by commas, vertices by spaces."""
    facets = []
    for chunk in text.split(","):
        facet = _int_list(chunk)
        if not facet:
            raise ScxFormatError("empty facet in %r" % text)
        facets.append(facet)
    return SimplicialComplex(facets)


def _verdict_exit(res):
    print("verdict %s" % res.verdict)
    print("reason %s" % res.reason)
    return {"yes": 0, "no": 1}.get(res.verdict, 2)


def _write_cert(res, out):
    if out and res.certificate is not None:
        _emit(certificate_to_text(res.certificate), out)


def cmd_validate(args):
    C = read_complex(args.file)
    print("dim %d" % C.dim)
    print("vertices %d" % C.n_vertices)
    print("facets %d" % len(C.facets))
    print("pure %s" % ("yes" if C.is_pure() else "no"))
    dg = C.dual_graph()
    print("pseudomanifold %s" % ("yes" if dg.pseudomanifold else "no"))
    print("connected %s" % ("yes" if dg.connected else "no"))
    print("euler %d" % C.euler_characteristic())
    sc = C.classify_surface()
    line = "surface %s" % sc.kind
    if sc.kind == "closed-surface":
        line += " orientable=%s genus=%s" % (
            "yes" if sc.orientable else "no",
            sc.genus if sc.orientable else sc.cross_caps)
    elif sc.kind == "surface-with-boundary":
        line += " genus=%s boundary=%d" % (sc.genus, sc.boundary_components)
    print(line)
    return 0


def cmd_sd(args):
    C = read_complex(args.file)
    out = sd_k(C, args.k, max_facets=args.budget).complex
    _emit(complex_to_text(out), args.output)
    return 0


def cmd_neighborhood(args):
    C = read_complex(args.file)
    sub = _parse_faces(args.sub)
    nb = derived_neighborhood(C, sub, k=args.k, max_facets=args.budget)
    _emit(complex_to_text(nb), args.output)
    return 0


def cmd_collapse(args):
    C = read_complex(args.file)
    target = _parse_faces(args.target) if args.target is not None else None

    if target is not None:
        res = collapses_to(C, target, strategy=args.strategy, seed=args.seed,
                           seeds=args.tries, max_nodes=args.budget)
    else:
        res = is_collapsible(C, strategy=args.strategy, seed=args.seed,
                             seeds=args.tries, max_nodes=args.budget)
    _write_cert(res, args.cert)
    return _verdict_exit(res)


def cmd_endo(args):
    C = read_complex(args.file)
    if args.report:
        rep = sd_endo_collapsibility_report(C, strategy=args.strategy,
                                            seed=args.seed, seeds=args.tries,
                                            max_nodes=args.budget)
        for face, verdict, reason in rep.face_verdicts:
            print("link %s %s (%s)" % (" ".join(str(v) for v in face),
                                       verdict, reason))
        print("hypotheses %s" % rep.hypotheses_met)
        return _verdict_exit(rep.conclusion)
    facet = (face_tuple(_int_list(args.facet)) if args.facet is not None
             else None)
    res = is_endo_collapsible(C, facet=facet, strategy=args.strategy,
                              seed=args.seed, seeds=args.tries,
                              max_nodes=args.budget)
    _write_cert(res, args.cert)
    return _verdict_exit(res)


def cmd_morse(args):
    C = read_complex(args.file)
    vec = discrete_morse_vector(C, attempts=args.attempts, seed=args.seed)
    print("morse %s" % " ".join(str(c) for c in vec))
    return 0


def cmd_reconstruct(args):
    C = read_complex(args.file)
    try:
        T = reconstruct(C, max_nodes=args.budget)
    except NotDerivedSubdivisionError as e:
        print("not a derived subdivision: %s" % e, file=sys.stderr)
        return 1
    _emit(complex_to_text(T), args.output)
    return 0


def cmd_generate(args):
    if args.family == "strip":
        C = strip_surface(_int_list(args.perm))
    elif args.family == "grid":
        C = grid_surface(_int_list(args.perm))
    elif args.family == "torus":
        try:
            C = torus_from_pattern(args.r, args.pattern)
        except QuotientRejected as e:
            print("rejected: %s" % e, file=sys.stderr)
            return 1
    elif args.family == "octahedron":
        C = octahedron()
    elif args.family == "simplex":
        C = full_simplex(args.d)
    else:
        C = simplex_boundary(args.d)
    _emit(complex_to_text(C), args.output)
    return 0


def cmd_iso(args):
    a = read_complex(args.file)
    b = read_complex(args.other)
    cert = iso(a, b, max_nodes=args.budget)
    if cert is None:
        print("not isomorphic")
        return 1
    print("isomorphic")
    for v, w in cert.mapping:
        print("%s -> %s" % (v, w))
    return 0


def cmd_census(args):
    rows = census(args.max_vertices, seeds=args.tries, max_nodes=args.budget)
    print("vertices orientable genus count endo min_facets")
    for r in rows:
        print("%d %s %d %d %s %d" % (r.n_vertices,
                                     "yes" if r.orientable else "no",
                                     r.genus, r.count, r.endo, r.min_facets))
    return 0


def cmd_verify_cert(args):
    C = read_complex(args.file)
    cert = read_certificate(args.cert, C)
    ok, message = verify_certificate(cert, C)
    if ok:
        print("certificate ok")
        return 0
    print("certificate rejected: %s" % message)
    return 1


def cmd_bounds(args):
    # both bounds first: a rejected input prints nothing to stdout
    bound = manifold_count_bound(args.d, args.facets)
    derived = derived_count_bound(args.d, args.facets)
    print("dim %d facets %d" % (args.d, args.facets))
    print("manifold-count-bound %d" % bound)
    print("derived-count-bound %d" % derived)
    if args.table:
        print("family parameter facets types")
        for row in lower_bound_table():
            print("%s %d %d %d" % (row.family, row.parameter,
                                   row.n_facets, row.n_types))
    return 0


def _add_search_flags(p):
    p.add_argument("--strategy", default="greedy", choices=STRATEGIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tries", type=int, default=DEFAULT_SEEDS,
                   help="number of greedy restarts")
    p.add_argument("--budget", type=int, default=DEFAULT_MAX_NODES,
                   help="search node budget")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; restarts always run "
                        "serially, so the result matches --jobs 1")
    p.add_argument("--cert", help="write the certificate here on success")


def _validate_args(p):
    p.add_argument("file")


def _sd_args(p):
    p.add_argument("file")
    p.add_argument("-k", type=int, default=1, help="rounds")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--budget", type=int, default=DEFAULT_MAX_FACETS,
                   help="largest facet count to allow")


def _neighborhood_args(p):
    p.add_argument("file")
    p.add_argument("--sub", required=True,
                   help="subcomplex facets, e.g. '0 1 2, 2 3'")
    p.add_argument("-k", type=int, default=1, help="subdivision rounds")
    p.add_argument("-o", "--output")
    p.add_argument("--budget", type=int, default=DEFAULT_MAX_FACETS)


def _collapse_args(p):
    p.add_argument("file")
    p.add_argument("--target", help="collapse onto these facets instead of a point")
    _add_search_flags(p)


def _endo_args(p):
    p.add_argument("file")
    p.add_argument("--facet", help="remove this facet, e.g. '0 1 2'")
    p.add_argument("--report", action="store_true",
                   help="per-face report over subdivided links")
    _add_search_flags(p)


def _morse_args(p):
    p.add_argument("file")
    p.add_argument("--attempts", type=int, default=DEFAULT_ATTEMPTS)
    p.add_argument("--seed", type=int, default=0)


def _reconstruct_args(p):
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--budget", type=int, default=DEFAULT_MAX_NODES,
                   help="largest number of seed orderings to try")


def _generate_args(p):
    p.add_argument("family", choices=["strip", "grid", "torus", "octahedron",
                                      "simplex", "simplex-boundary"])
    p.add_argument("--perm", default="1",
                   help="permutation of 1..g, e.g. '2 1' (strip and grid)")
    p.add_argument("-r", type=int, default=2, help="torus polygon parameter")
    p.add_argument("--pattern", default="", help="torus triangulation pattern")
    p.add_argument("-d", type=int, default=2, help="simplex dimension")
    p.add_argument("-o", "--output")


def _iso_args(p):
    p.add_argument("file")
    p.add_argument("other")
    p.add_argument("--budget", type=int, default=DEFAULT_MAX_NODES)


def _census_args(p):
    p.add_argument("-n", "--max-vertices", type=int, default=7)
    p.add_argument("--tries", type=int, default=DEFAULT_CENSUS_SEEDS)
    p.add_argument("--budget", type=int, default=DEFAULT_CENSUS_MAX_NODES)


def _verify_cert_args(p):
    p.add_argument("file")
    p.add_argument("cert")


def _bounds_args(p):
    p.add_argument("-d", type=int, default=2)
    p.add_argument("-n", "--facets", type=int, default=20)
    p.add_argument("--table", action="store_true",
                   help="also print the family table")


# subcommand -> (help, function adding its arguments, handler), in help order
COMMANDS = {
    "validate": ("parse a complex and print a summary", _validate_args,
                 cmd_validate),
    "sd": ("derived subdivision", _sd_args, cmd_sd),
    "neighborhood": ("derived neighborhood of a subcomplex",
                     _neighborhood_args, cmd_neighborhood),
    "collapse": ("collapsibility search", _collapse_args, cmd_collapse),
    "endo": ("endo-collapsibility search", _endo_args, cmd_endo),
    "morse": ("best discrete Morse vector found", _morse_args, cmd_morse),
    "reconstruct": ("invert a derived subdivision if possible",
                    _reconstruct_args, cmd_reconstruct),
    "generate": ("builtin families and shapes", _generate_args, cmd_generate),
    "iso": ("isomorphism test between two complexes", _iso_args, cmd_iso),
    "census": ("closed surface census by vertex count", _census_args,
               cmd_census),
    "verify-cert": ("replay a collapse certificate", _verify_cert_args,
                    cmd_verify_cert),
    "bounds": ("counting bounds for a facet budget", _bounds_args, cmd_bounds),
}


def build_parser(command=None):
    """The scx parser; given a subcommand name, it registers only that
    subcommand's parser, with the top-level usage still listing them all."""
    parser = argparse.ArgumentParser(
        prog="scx",
        description="Inspect, subdivide, collapse and generate simplicial complexes.")
    # without a metavar argparse lists the registered names in the usage and
    # calls the argument "command" in its errors; a one-command build meets
    # neither error, so its metavar lists every name for the usage
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (summary, add_arguments, handler) in COMMANDS.items():
        if command in (None, name):
            p = subs.add_parser(name, help=summary)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # only a first word that names a subcommand picks it: help, no arguments
    # and unknown names need the full parser for argparse's own messages
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 3
    try:
        return args.func(args)
    except ScxFormatError as e:
        print("format error: %s" % e, file=sys.stderr)
        return 3
    except InvalidComplexError as e:
        print("invalid input: %s" % e, file=sys.stderr)
        return 3
    except BudgetExceededError as e:
        print("budget exceeded: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print(str(e), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
