"""Seeded inputs and task lists of the three benchmark workloads.

Everything here is computed by the benchmark itself; nothing imports
``momentangle``.  ``build(workload, seed)`` returns the JSON files the CLI
will read (name -> object) and the fixed task list of one pass.  Each task
carries the argv of one ``momentangle`` call and what the oracle needs to
judge its report.  The same seed always gives the same files and tasks.

File names in argv end in ``.json`` and are resolved against the work
directory by the runner, so the task list does not depend on where the
checkout lives.
"""

from __future__ import annotations

import random
from itertools import combinations, product

WORKLOADS = ("sphere", "search", "quotient")

# The reference example of the paper: a free 2-torus on Z_K for
# K = boundary of C_6(9), and the 7 x 9 matrix presenting the quotient.
REFERENCE_TORUS = [
    [1, 0, 1, 0, 1, 0, 1, 0, 1],
    [0, 1, 0, 1, 0, 1, 0, 1, 1],
]
REFERENCE_QUOTIENT = [
    [-1, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 1, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 1, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 1, 0],
    [-1, -1, 0, 0, 0, 0, 0, 0, 1],
]

# The 6-vertex real projective plane: H_1 = Z/2, so it is no homology
# sphere and the certificate must answer "unknown".
RP2_6 = [(1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6), (2, 3, 5),
         (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]

# The 7-vertex (Moebius) torus: triangles {i, i+1, i+3} and {i, i+2, i+3}
# mod 7; H_1 = Z^2.
TORUS_7 = sorted(tuple(sorted((i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1)))
                 for i in range(7) for a in (1, 2))

# (n, m) of the cyclic polytopes C_n(m) whose boundaries are certified.
SPHERES = ((4, 12), (5, 10), (6, 9), (6, 10))

# sw-quasitoric cases: the exponents a_i of prod CP^{a_i} (or RP^{a_i}
# with generator degree 1).
SW_CASES = (
    ("cp2x1", (2,), 2), ("cp2x2", (2, 2), 2), ("cp2x3", (2, 2, 2), 2),
    ("cp2x4", (2, 2, 2, 2), 2), ("cp2x5", (2, 2, 2, 2, 2), 2),
    ("cp3x3", (3, 3, 3), 2), ("cp1cp2cp3", (1, 2, 3), 2),
    ("rp1x6", (1, 1, 1, 1, 1, 1), 1),
)

# Fixed task of each workload whose time is reported as largest_task_s.
LARGEST_TASK = {"sphere": "manifold-c6_10-relabelled",
                "search": "search-k2-exhaustive",
                "quotient": "sw-cp2x5"}

RANDOM_SEARCH_SAMPLES = 2000
# Distinct row lattices of free 2-tori on Z_K, K = boundary of C_6(9), that
# have a basis with entries in {0,1}.  There is no free 3-torus with such
# a basis.
K2_BINARY_LATTICES = 2223
GL_IMAGES = 2          # GL_7(Z) images of the quotient, GL_2(Z) of the torus


def gale_facets(n, m):
    """Facets of the boundary of C_n(m) by Gale's evenness condition."""
    out = []
    for s in combinations(range(1, m + 1), n):
        inside = set(s)
        gaps = [v for v in range(1, m + 1) if v not in inside]
        if all(sum(1 for v in s if a < v < b) % 2 == 0
               for a, b in zip(gaps, gaps[1:])):
            out.append(list(s))
    return out


def relabel(facets, m, rng):
    """Facets under a random permutation of the vertex labels 1..m."""
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return sorted(sorted(perm[v - 1] for v in f) for f in facets)


def unimodular(rng, n):
    """Random element of GL_n(Z): a product of elementary row operations
    and sign changes, so its determinant is +1 or -1 by construction."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.choice((-2, -1, 1, 2))
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    for i in range(n):
        if rng.random() < 0.5:
            M[i] = [-a for a in M[i]]
    return M


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def product_of_projective_spaces(exponents):
    """(complex, characteristic matrix) of prod P^{a_i}.

    The complex is the join of the simplex boundaries on consecutive vertex
    blocks of sizes a_i + 1; block i of the characteristic matrix is
    [I_{a_i} | -1], the standard matrix of P^{a_i}.
    """
    blocks, start = [], 1
    for a in exponents:
        blocks.append(list(range(start, start + a + 1)))
        start += a + 1
    m = start - 1
    n = sum(exponents)
    facets = [sorted(v for part in choice for v in part)
              for choice in product(*[list(combinations(b, len(b) - 1))
                                      for b in blocks])]
    lam = [[0] * m for _ in range(n)]
    row = 0
    for a, block in zip(exponents, blocks):
        for i in range(a):
            lam[row + i][block[i] - 1] = 1
            lam[row + i][block[-1] - 1] = -1
        row += a
    return {"m": m, "facets": facets}, lam


def matrix_json(M):
    return {"rows": len(M), "cols": len(M[0]), "data": M}


def _task(task_id, argv, **check):
    return {"id": task_id, "argv": argv, "check": check}


def _sphere(rng):
    files, tasks = {}, []
    for n, m in SPHERES:
        gale = gale_facets(n, m)
        # The largest task is a fixed instance: its relabelling does not
        # follow the workload seed, so its time does not vary with the draw
        # (certificate sizes of relabelled C_6(10) range over 112-165).
        draw = (random.Random("largest") if f"manifold-c{n}_{m}-relabelled"
                == LARGEST_TASK["sphere"] else rng)
        for label, facets in (("gale", gale),
                              ("relabelled", relabel(gale, m, draw))):
            name = f"c{n}_{m}-{label}.json"
            files[name] = {"m": m, "facets": facets}
            tasks.append(_task(f"manifold-c{n}_{m}-{label}",
                               ["check-manifold", "--complex", name],
                               kind="manifold", complex=name, sphere=True,
                               betti=[0] * (n - 1) + [1],
                               torsion=[[]] * n))
    files["rp2_6.json"] = {"m": 6, "facets": [list(f) for f in RP2_6]}
    tasks.append(_task("manifold-rp2_6",
                       ["check-manifold", "--complex", "rp2_6.json"],
                       kind="manifold", complex="rp2_6.json", sphere=False,
                       betti=[0, 0, 0], torsion=[[], [2], []]))
    files["torus_7.json"] = {"m": 7, "facets": [list(f) for f in TORUS_7]}
    tasks.append(_task("manifold-torus_7",
                       ["check-manifold", "--complex", "torus_7.json"],
                       kind="manifold", complex="torus_7.json", sphere=False,
                       betti=[0, 2, 1], torsion=[[], [], []]))
    return files, tasks


def _search(rng):
    files = {"c6_9.json": {"m": 9, "facets": gale_facets(6, 9)}}
    common = dict(kind="search", complex="c6_9.json")
    tasks = [
        _task("search-k2-exhaustive",
              ["search-free", "--complex", "c6_9.json", "--k", "2",
               "--entries=0,1"], k=2, lattices=K2_BINARY_LATTICES,
              has_reference=True, **common),
        _task("search-k3-exhaustive",
              ["search-free", "--complex", "c6_9.json", "--k", "3",
               "--entries=0,1"], k=3, lattices=0, **common),
        _task("search-k2-random",
              ["--seed", str(rng.randrange(1 << 30)), "search-free",
               "--complex", "c6_9.json", "--k", "2", "--entries=-1,0,1",
               "--mode", "random", "--samples", str(RANDOM_SEARCH_SAMPLES)],
              k=2, samples=RANDOM_SEARCH_SAMPLES, **common),
    ]
    return files, tasks


def _quotient(rng):
    files = {"c6_9.json": {"m": 9, "facets": gale_facets(6, 9)}}
    tasks = [_task("verify-example", ["verify-example"], kind="example")]
    for i in range(GL_IMAGES):
        torus = matmul(unimodular(rng, 2), REFERENCE_TORUS)
        tname = f"torus-{i}.json"
        files[tname] = {"m": 9, "rows": torus}
        tasks.append(_task(f"check-free-{i}",
                           ["check-free", "--complex", "c6_9.json",
                            "--torus", tname],
                           kind="free", complex="c6_9.json", torus=tname))
        tasks.append(_task(f"extend-char-{i}",
                           ["--seed", str(rng.randrange(1 << 30)),
                            "extend-char", "--complex", "c6_9.json",
                            "--torus", tname, "--entry-bound", "3"],
                           kind="extend", complex="c6_9.json", torus=tname))
        for cmd in ("quotient-h2", "w2"):
            tasks.append(_task(f"{cmd}-torus-{i}",
                               [cmd, "--torus", tname],
                               kind=cmd, torus=tname))
    for i in range(GL_IMAGES):
        theta = matmul(unimodular(rng, 7), REFERENCE_QUOTIENT)
        qname = f"theta-{i}.json"
        files[qname] = matrix_json(theta)
        for cmd in ("quotient-h2", "w2"):
            tasks.append(_task(f"{cmd}-theta-{i}", [cmd, "--theta", qname],
                               kind=cmd, theta=qname))
    for label, exponents, degree in SW_CASES:
        K, lam = product_of_projective_spaces(exponents)
        lam = matmul(unimodular(rng, len(lam)), lam)
        files[f"{label}-complex.json"] = K
        files[f"{label}-char.json"] = matrix_json(lam)
        tasks.append(_task(f"sw-{label}",
                           ["sw-quasitoric", "--complex",
                            f"{label}-complex.json", "--char",
                            f"{label}-char.json", "--generator-degree",
                            str(degree)],
                           kind="sw", exponents=list(exponents),
                           degree=degree))
    return files, tasks


def build(workload, seed):
    """(files, tasks) of one workload; a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {"sphere": _sphere, "search": _search,
            "quotient": _quotient}[workload](rng)
