"""
Surface families with many isomorphism types
============================================

Two constructions turn a permutation into a closed orientable genus-g
surface, and the permutation can be read back from the bare facet list.
Distinct permutations give distinct triangulations on the same facet
count, which is what drives the counting lower bounds.
"""

from itertools import permutations

from scx import (
    count_torus_outcomes,
    grid_surface,
    iso,
    lower_bound_table,
    polygon_triangulations,
    recover_strip_permutation,
    strip_surface,
    triangle_strip,
)

# the raw material is a triangulated strip; triangle_strip(5) has 5 triangles
strip = triangle_strip(5)
print("strip:", len(strip.facets), "triangles,",
      "boundary edges:", len(strip.boundary().facets))

# strip_surface punches g holes in each of two sphere halves and joins
# them with tubes according to a permutation
for perm in permutations(range(1, 3)):
    surf = strip_surface(perm)
    sc = surf.classify_surface()
    print("strip_surface", perm, "->", len(surf.facets), "facets,",
          sc.kind, "genus", sc.genus)

# the permutation is recoverable from the unlabeled complex, so the two
# surfaces above cannot be isomorphic
a, b = strip_surface((1, 2)), strip_surface((2, 1))
print("recovered:", recover_strip_permutation(a), recover_strip_permutation(b))
print("isomorphic:", iso(a, b) is not None)

# the grid family does the same with quadrangulated prisms
for g in (1, 2):
    surf = grid_surface(tuple(range(1, g + 1)))
    sc = surf.classify_surface()
    print("grid_surface genus", g, ":", len(surf.facets), "facets,",
          sc.kind, "genus", sc.genus)

# a third candidate family folds triangulated polygons into tori; the
# fold always degenerates, so it contributes nothing
total, accepted = count_torus_outcomes(4)
print("torus quotients at r=4:", total, "patterns,", accepted, "accepted")
print("polygon triangulations, 6-gon:",
      sum(1 for _ in polygon_triangulations(6)))

# the table summarizes facet counts against isomorphism type counts; the
# parameter is the genus g, or the polygon size r for the torus quotients
for row in lower_bound_table(3):
    name = "r" if row.family == "torus-quotient" else "g"
    print(row.family, name, "=", row.parameter, ":",
          row.n_facets, "facets,", row.n_types, "types")
