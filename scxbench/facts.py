"""Independent arithmetic used to check the program's outputs.

Nothing here imports scx: files are parsed, faces counted and vertices
relabeled by hand, so a defect in the package cannot hide in its own check.
"""

import itertools


def parse_scx(text):
    """Facets of a .scx text, after checking the header against the body."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 4 or lines[0] != "scx 1":
        raise ValueError("not an scx file")
    header = {}
    for line in lines[1:4]:
        key, value = line.split(" ")
        header[key] = int(value)
    facets = [tuple(int(v) for v in line.split(" ")) for line in lines[4:]]
    if len(facets) != header["facets"]:
        raise ValueError("facet count differs from the header")
    if len({v for F in facets for v in F}) != header["vertices"]:
        raise ValueError("vertex count differs from the header")
    if max(len(F) for F in facets) - 1 != header["dim"]:
        raise ValueError("dimension differs from the header")
    return facets


def scx_text(facets):
    """Strict .scx text of facets already labeled 0..n-1."""
    facets = sorted(tuple(sorted(F)) for F in facets)
    lines = ["scx 1",
             "dim %d" % (max(len(F) for F in facets) - 1),
             "vertices %d" % len({v for F in facets for v in F}),
             "facets %d" % len(facets)]
    lines.extend(" ".join(str(v) for v in F) for F in facets)
    return "\n".join(lines) + "\n"


def closure(facets):
    out = set()
    for F in facets:
        F = tuple(sorted(F))
        for k in range(1, len(F) + 1):
            out.update(itertools.combinations(F, k))
    return out


def f_vector(facets):
    faces = closure(facets)
    top = max(len(f) for f in faces)
    return tuple(sum(1 for f in faces if len(f) == k) for k in range(1, top + 1))


def euler(facets):
    return sum((-1) ** k * n for k, n in enumerate(f_vector(facets)))


def boundary_ridges(facets):
    """Ridges of a pure complex that lie in exactly one facet."""
    count = {}
    for F in facets:
        F = tuple(sorted(F))
        for r in itertools.combinations(F, len(F) - 1):
            count[r] = count.get(r, 0) + 1
    return [r for r, c in count.items() if c == 1]


def endo_pairs(facets):
    """Pairs in any endo-collapse certificate of a pure complex.

    One facet is removed first and every other face not in the goal goes in
    a pair, so the count is fixed by the face numbers: the goal is the
    boundary, or a single vertex when the boundary is empty.
    """
    bd = boundary_ridges(facets)
    goal = len(closure(bd)) if bd else 1
    return (len(closure(facets)) - 1 - goal) // 2


def relabel(facets, perm):
    """Apply a vertex map given as a list or dict, sorting each facet."""
    return sorted(tuple(sorted(perm[v] for v in F)) for F in facets)


def shuffled_labels(vertices, rng):
    """Random bijection from the given vertices onto 0..n-1."""
    vertices = sorted(vertices)
    images = list(range(len(vertices)))
    rng.shuffle(images)
    return dict(zip(vertices, images))
