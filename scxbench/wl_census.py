"""census: enumeration, canonical labels and isomorphism, called directly.

No file is read or written and no big search runs, so this workload
bypasses the parser and the collapse engine; canonical_label dominates.
The seed draws the vertex relabelings that canonical_label and iso must
see through.
"""

import random
from dataclasses import dataclass

import facts
from meter import OpFailed

DISK_TRIANGLES = 8
DISK_LEVELS = (1, 1, 2, 5, 9, 28, 73, 244)  # enumerate_disks(8), as in tests
SURFACE_VERTICES = (4, 5, 6, 7)
SURFACE_TOTALS = (1, 1, 3, 9)  # as anchored in tests/test_census.py
SPHERES = (1, 1, 2, 5)  # OEIS A000109
# (vertices, orientable, genus or cross-caps, count, endo) from Lutz's census
# of surfaces with at most 7 vertices; only spheres are endo-collapsible.
CENSUS_ROWS = (
    (4, True, 0, 1, "yes"), (5, True, 0, 1, "yes"),
    (6, False, 1, 1, "no"), (6, True, 0, 2, "yes"),
    (7, False, 1, 3, "no"), (7, True, 0, 5, "yes"), (7, True, 1, 1, "no"),
)
MAX_VERTICES = DISK_TRIANGLES + 2


@dataclass
class Inputs:
    disk_labels: list  # one relabeling of 0..9 per 8-triangle disk
    surface_labels: list  # one relabeling of 0..6 per surface
    big: list  # (name, complex, seeded relabeling of it)


def make_inputs(mods, seed, workdir):
    rng = random.Random(seed)
    SC = mods.complexes.SimplicialComplex
    disk_labels = [facts.shuffled_labels(range(MAX_VERTICES), rng)
                   for _ in range(DISK_LEVELS[-1])]
    surface_labels = [facts.shuffled_labels(range(max(SURFACE_VERTICES)), rng)
                      for _ in range(sum(SURFACE_TOTALS))]
    big = []
    for name, base, k in (("sd2oct", mods.complexes.octahedron(), 2),
                          ("sd3tri", mods.complexes.full_simplex(2), 3)):
        K = mods.subdivision.sd_k(base, k).complex.normalize()
        R = SC(facts.relabel(K.facets, facts.shuffled_labels(K.vertices, rng)))
        big.append((name, K, R))
    return Inputs(disk_labels, surface_labels, big)


def run_pass(mods, inputs, meter):
    census = mods.census
    SC = mods.complexes.SimplicialComplex

    def call(label, rung, fn, *args):
        return meter.item(label, rung, lambda: meter.op(label, fn, *args))

    disks = []
    try:
        levels = call("enumerate_disks", "disks8", census.enumerate_disks,
                      DISK_TRIANGLES)
        got = tuple(len(levels.get(t, ())) for t in range(1, DISK_TRIANGLES + 1))
        meter.expect(got == DISK_LEVELS, "disk levels %s" % (got,))
        for t, level in levels.items():
            for D in level:
                meter.expect(len(D.facets) == t and facts.euler(D.facets) == 1,
                             "a level-%d disk is not a disk" % t)
        disks = levels.get(DISK_TRIANGLES, [])
    except OpFailed:
        pass

    surfaces = []
    for n, total, spheres in zip(SURFACE_VERTICES, SURFACE_TOTALS, SPHERES):
        try:
            got = call("enumerate_surfaces", "surf%d" % n,
                       census.enumerate_surfaces, n)
        except OpFailed:
            continue
        meter.expect(len(got) == total, "%d surfaces on %d vertices" % (len(got), n))
        meter.expect(sum(1 for S in got if facts.euler(S.facets) == 2) == spheres,
                     "sphere count on %d vertices" % n)
        for S in got:
            meter.expect(len(S.vertices) == n and not facts.boundary_ridges(S.facets),
                         "a surface on %d vertices is not closed" % n)
        surfaces.extend(got)

    try:
        rows = call("census", "census7", census.census, max(SURFACE_VERTICES))
        got = tuple((r.n_vertices, r.orientable, r.genus, r.count, r.endo)
                    for r in rows)
        meter.expect(got == CENSUS_ROWS, "census rows %s" % (got,))
        for r in rows:
            chi = 2 - 2 * r.genus if r.orientable else 2 - r.genus
            meter.expect(r.min_facets == 2 * (r.n_vertices - chi),
                         "census min_facets on %d vertices" % r.n_vertices)
    except OpFailed:
        pass

    for D, labels in zip(disks, inputs.disk_labels):
        R = SC(facts.relabel(D.facets, labels))
        try:
            (a, la), (b, lb) = call("canonical_label", "disk8",
                                    lambda: (census.canonical_label(D),
                                             census.canonical_label(R)))
        except OpFailed:
            continue
        meter.expect(a.facets == b.facets
                     and facts.relabel(D.facets, la) == list(a.facets)
                     and facts.relabel(R.facets, lb) == list(b.facets),
                     "canonical_label differs on a relabeled disk")

    relabeled = [SC(facts.relabel(S.facets, labels))
                 for S, labels in zip(surfaces, inputs.surface_labels)]
    pairs = [("iso_pair", "surfaces", S, i, R, j)
             for i, S in enumerate(surfaces) for j, R in enumerate(relabeled)]
    pairs += [("iso_big", name, K, 0, R, 0) for name, K, R in inputs.big]
    for label, rung, A, i, B, j in pairs:
        try:
            cert = call(label, rung, census.iso, A, B)
        except OpFailed:
            continue
        meter.expect((cert is not None) == (i == j),
                     "iso %s %d %d says %s" % (rung, i, j, cert is not None))
        if cert is not None:
            meter.expect(facts.relabel(A.facets, cert.as_dict()) == list(B.facets),
                         "iso %s certificate does not map the facets" % rung)


def top_rung(label, rung):
    return label == "enumerate_disks"


def latency_item(label):
    return label in ("canonical_label", "iso_pair")
