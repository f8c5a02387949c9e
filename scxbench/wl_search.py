"""small-search: many small collapse searches, each timed as one item.

Every triangulation of the convex 10-gon gets an exhaustive endo-collapse
search and a greedy collapse search, each replayed by verify_certificate.
Every triangulation of the 8-gon gets an exhaustive collapses_to search
onto the boundary of one ear plus the vertex opposite the ear's tip; that
target has the disk's Euler characteristic but not its homotopy type, so
the answer is "no" and only an exhausted search may give it.  The seed
draws a vertex relabeling per disk, which changes the search order.
"""

import random
from dataclasses import dataclass

import facts
from meter import OpFailed

YES_GON = 10
NO_GON = 8
OPS_PER_DISK = 4  # two searches, two replays


@dataclass
class Inputs:
    yes: list  # disks that collapse
    no: list  # (disk, target) pairs that do not


def ear_target(tris, n):
    """Boundary edges of the first ear, plus the vertex opposite its tip."""
    for T in sorted(tris):
        for a in range(n):
            ear = {a, (a + 1) % n, (a + 2) % n}
            if set(T) == ear:
                b, c = (a + 1) % n, (a + 2) % n
                return [(a, b), (b, c), (a, c), ((b + n // 2) % n,)]
    raise ValueError("a polygon triangulation always has an ear")


def make_inputs(mods, seed, workdir):
    rng = random.Random(seed)
    SC = mods.complexes.SimplicialComplex
    fam = mods.families
    yes = []
    for tris in list(fam.polygon_triangulations(YES_GON)):
        labels = facts.shuffled_labels(range(YES_GON), rng)
        yes.append(SC(facts.relabel(tris, labels)))
    no = []
    for tris in list(fam.polygon_triangulations(NO_GON)):
        labels = facts.shuffled_labels(range(NO_GON), rng)
        target = facts.relabel(ear_target(tris, NO_GON), labels)
        no.append((SC(facts.relabel(tris, labels)), SC(target)))
    return Inputs(yes, no)


def run_pass(mods, inputs, meter):
    collapse = mods.collapse
    verify = mods.verify

    def searches(D):
        endo = meter.op("is_endo_collapsible", collapse.is_endo_collapsible,
                        D, strategy="exhaustive")
        endo_ok = (meter.op("verify_certificate", verify.verify_certificate,
                            endo.certificate, D)
                   if endo.verdict == "yes" else None)
        flat = meter.op("is_collapsible", collapse.is_collapsible,
                        D, strategy="greedy")
        flat_ok = (meter.op("verify_certificate", verify.verify_certificate,
                            flat.certificate, D)
                   if flat.verdict == "yes" else None)
        return endo, endo_ok, flat, flat_ok

    for D in inputs.yes:
        before = meter.attempted
        try:
            endo, endo_ok, flat, flat_ok = meter.item(
                "disk%d" % YES_GON, None, lambda: searches(D))
        except OpFailed:
            meter.skip("disk%d" % YES_GON, OPS_PER_DISK - (meter.attempted - before))
            continue
        for res, ok, pairs in ((endo, endo_ok, facts.endo_pairs(D.facets)),
                               (flat, flat_ok,
                                (len(facts.closure(D.facets)) - 1) // 2)):
            meter.expect(res.verdict == "yes" and ok is not None and ok[0],
                         "a %d-gon disk: %s, %s" % (YES_GON, res.reason, ok))
            meter.counts["collapse.dfs_nodes"] += res.nodes
            if res.certificate is not None:
                n = len(res.certificate.pairs)
                meter.counts["collapse.cert_pairs"] += n
                meter.counts["verify.pairs"] += n
                meter.expect(n == pairs, "certificate has %d pairs, the face "
                             "numbers need %d" % (n, pairs))

    for D, target in inputs.no:
        try:
            res = meter.item("refute%d" % NO_GON, None, lambda: meter.op(
                "collapses_to", collapse.collapses_to, D, target,
                strategy="exhaustive"))
        except OpFailed:
            continue
        meter.counts["collapse.dfs_nodes"] += res.nodes
        meter.expect(res.verdict == "no"
                     and res.reason == "exhausted %d states" % res.nodes
                     and res.nodes > 0,
                     "an %d-gon refutation: %s %s" % (NO_GON, res.verdict, res.reason))


def top_rung(label, rung):
    return label == "disk%d" % YES_GON


def latency_item(label):
    return True
