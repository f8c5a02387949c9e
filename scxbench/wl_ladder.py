"""cli-ladder: the user-facing pipeline on a size ladder, in process.

Every step is one `scx` command run through scx.cli.main(argv) with its
output captured; interpreter start-up is not the program, so no subprocess.
Rungs are built with `generate` then `sd`, and each rung gets `validate`,
`endo --cert`, `verify-cert` and `reconstruct`.  The seed relabels the
vertices of each generated base before it is written; only the octahedron
has labels for that to change.
"""

import contextlib
import io
import os
import random
from dataclasses import dataclass

import facts
from meter import OpFailed


@dataclass(frozen=True)
class Family:
    name: str
    generate: tuple
    rounds: int
    base_vertices: int
    base_facets: int
    facets_per_round: int  # sd multiplies the facet count by (dim + 1)!
    euler: int
    surface: str

    def facets(self, k):
        return self.base_facets * self.facets_per_round ** k


FAMILIES = (
    Family("oct", ("octahedron",), 3, 6, 8, 6, 2,
           "surface closed-surface orientable=yes genus=0"),
    Family("tri", ("simplex", "-d", "2"), 4, 3, 1, 6, 1,
           "surface surface-with-boundary genus=0 boundary=1"),
    Family("tet", ("simplex", "-d", "3"), 2, 4, 1, 24, 1,
           "surface not-a-surface"),
)
RUNGS = tuple("%s%d" % (f.name, k) for f in FAMILIES
              for k in range(1, f.rounds + 1))
TOP_RUNG = "oct3"
JOBS_RUNG = "oct2"
OPS_PER_RUNG = 5  # sd, validate, endo, verify-cert, reconstruct


@dataclass
class Inputs:
    workdir: str
    labels: dict  # family name -> vertex relabeling of its generated base


def make_inputs(mods, seed, workdir, families=FAMILIES):
    rng = random.Random(seed)
    labels = {fam.name: facts.shuffled_labels(range(fam.base_vertices), rng)
              for fam in families}
    return Inputs(workdir=workdir, labels=labels)


def _read(path):
    with open(path) as fh:
        return fh.read()


def run_pass(mods, inputs, meter, families=FAMILIES):
    wd = inputs.workdir
    for name in os.listdir(wd):  # no file of an earlier pass may stand in
        os.remove(os.path.join(wd, name))

    def cli(label, rung, argv, reads=()):
        """One scx command as a timed item: (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return meter.op(label, mods.cli.main, list(argv))

        try:
            code = meter.item(label, rung, call)
        finally:
            for path in reads:
                meter.counts["scxio.bytes_read"] += os.path.getsize(path)
        if code not in (0, 1):
            meter.fail(label, "%s exited %s: %s" % (rung, code, err.getvalue().strip()))
        return code, out.getvalue()

    built = set()
    for fam in families:
        path = lambda k, ext="scx": os.path.join(wd, "%s%d.%s" % (fam.name, k, ext))
        gen = os.path.join(wd, fam.name + ".gen.scx")
        try:
            cli("generate", fam.name + "0",
                ("generate",) + fam.generate + ("-o", gen))
        except OpFailed:
            meter.skip(fam.name, fam.rounds * OPS_PER_RUNG)
            continue
        facets = facts.parse_scx(_read(gen))
        meter.expect(len(facets) == fam.base_facets
                     and facts.euler(facets) == fam.euler,
                     "%s: generate wrote a wrong base" % fam.name)
        with open(path(0), "w") as fh:
            fh.write(facts.scx_text(facts.relabel(facets, inputs.labels[fam.name])))

        for k in range(1, fam.rounds + 1):
            rung = "%s%d" % (fam.name, k)
            prev = facets
            try:
                cli("sd", rung, ("sd", path(k - 1), "-o", path(k)),
                    reads=(path(k - 1),))
            except OpFailed:
                meter.skip(rung, (fam.rounds - k + 1) * OPS_PER_RUNG - 1)
                break
            built.add(rung)
            facets = facts.parse_scx(_read(path(k)))
            meter.counts["subdivision.facets_out"] += len(facets)
            meter.expect(len(facets) == fam.facets(k),
                         "%s: sd wrote %d facets, expected %d"
                         % (rung, len(facets), fam.facets(k)))
            meter.expect(facts.euler(facets) == fam.euler,
                         "%s: sd output has the wrong Euler characteristic" % rung)
            _rung_commands(cli, meter, rung, fam, facets, prev,
                           path(k), path(k, "cert"), path(k, "rec.scx"))

    if JOBS_RUNG not in built:
        if any(JOBS_RUNG.startswith(f.name) for f in families):
            meter.skip("endo --tries 64", 2)
        return
    serial_path = os.path.join(wd, JOBS_RUNG + ".scx")
    verdicts = []
    for label, extra in (("endo_tries64", ()), ("endo_jobs2", ("--jobs", "2"))):
        try:
            code, out = cli(label, None,
                            ("endo", serial_path, "--tries", "64") + extra,
                            reads=(serial_path,))
        except OpFailed:
            continue
        verdicts.append(out.splitlines()[0] if out else "")
        meter.expect(code == 0 and verdicts[-1] == "verdict yes",
                     "%s: %s on %s" % (label, verdicts[-1], JOBS_RUNG))
    meter.expect(len(set(verdicts)) <= 1,
                 "--jobs 2 verdict differs from the serial verdict")

def _rung_commands(cli, meter, rung, fam, facets, prev, scx, cert, rec):
    try:
        code, out = cli("validate", rung, ("validate", scx), reads=(scx,))
        lines = out.splitlines()
        want = ["dim %d" % (len(facets[0]) - 1),
                "facets %d" % len(facets),
                "pseudomanifold yes",
                "connected yes",
                "euler %d" % fam.euler,
                fam.surface]
        missing = [w for w in want if w not in lines]
        meter.expect(code == 0 and not missing,
                     "%s: validate output lacks %s" % (rung, missing))
    except OpFailed:
        pass

    try:
        code, out = cli("endo", rung, ("endo", scx, "--cert", cert), reads=(scx,))
    except OpFailed:
        code = None
    if code is not None:
        meter.expect(code == 0 and out.startswith("verdict yes\n"),
                     "%s: endo says %r" % (rung, out.splitlines()[:1]))
    if code != 0:
        meter.skip(rung + " verify-cert", 1)
    else:
        pairs = sum(1 for line in _read(cert).splitlines()
                    if line.startswith("collapse "))
        meter.expect(pairs == facts.endo_pairs(facets),
                     "%s: certificate has %d pairs, the face numbers need %d"
                     % (rung, pairs, facts.endo_pairs(facets)))
        try:
            code, out = cli("verify-cert", rung, ("verify-cert", scx, cert),
                            reads=(scx, cert))
            meter.counts["verify.pairs"] += pairs
            meter.expect(code == 0 and out == "certificate ok\n",
                         "%s: verify-cert says %r" % (rung, out.strip()))
        except OpFailed:
            pass

    try:
        code, out = cli("reconstruct", rung, ("reconstruct", scx, "-o", rec),
                        reads=(scx,))
        got = facts.parse_scx(_read(rec)) if code == 0 else None
        meter.expect(got is not None and facts.f_vector(got) == facts.f_vector(prev),
                     "%s: reconstruct did not return the previous rung" % rung)
    except OpFailed:
        pass


def top_rung(label, rung):
    return rung == TOP_RUNG and label != "sd"


def latency_item(label):
    return True
