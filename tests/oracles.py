"""Reference implementations the tests check the package against.

Each one has no caller in the package itself: the sphere certificate takes
links on facet bitmasks and shells on them, the search and acts_freely
decide freeness through torus.FreenessTest, and no command reports
almost-freeness or a manifold verdict.  They stay here, as the oracles
the tests already used them as.  The input generators that several test
files draw from live here too.  is_shelling does not call the package's
shelling: it checks an order from intersections of facets alone.
relabel_key is the sphere certificate's key as it was before it squeezed
facet masks, and key_name formats the names the certificate reports.
search_json is the search report built as plain dicts and lists, which
the CLI's writer must match byte for byte, and h_vector reads the
h-vector off the f-vector.
"""

from itertools import combinations, product
from math import comb

from momentangle.homology import is_homology_sphere
from momentangle.intlinalg import IntMatrix, cokernel, rank_rational
from momentangle.simplicial import SimplicialComplex, new_complex
from momentangle.torus import _check_action_input


def zero_matrix(rows, cols):
    return IntMatrix([[0] * cols for _ in range(rows)], rows=rows, cols=cols)


def image_contains(A, b):
    """Does A x = b have an integer solution?  b is a length-rows vector."""
    return cokernel(A).vanishes(b)


def support(K):
    """Vertices that belong to at least one facet of K, ascending."""
    seen = set()
    for f in K.facets:
        seen.update(f)
    return tuple(sorted(seen))


def has_face(K, sigma):
    sigma = set(sigma)
    if not sigma:
        return True
    return any(sigma <= set(f) for f in K.facets)


def link(K, sigma):
    """Link of a face of K, relabeled to 1..m-|sigma|.

    Returns (L, labels) where labels[i] is the original label of the new
    vertex i+1.  Vertices of K outside sigma that end up in no facet of
    the link survive as ghost vertices.
    """
    sigma = tuple(sorted(set(sigma)))
    if not has_face(K, sigma):
        raise ValueError(f"{sigma} is not a face of the complex")
    if not sigma:
        return K, tuple(range(1, K.m + 1))
    labels = tuple(v for v in range(1, K.m + 1) if v not in sigma)
    newlabel = {v: i + 1 for i, v in enumerate(labels)}
    sset = set(sigma)
    faces = [tuple(newlabel[v] for v in f if v not in sset)
             for f in K.facets if sset <= set(f)]
    return SimplicialComplex(len(labels), faces), labels


def acts_almost_freely(T, K):
    """Finite isotropy everywhere: rational rank k outside every facet."""
    _check_action_input(T, K)
    k = T.k
    return all(rank_rational(T.matrix.submatrix_cols(comp)) == k
               for comp in K.facet_complements())


def manifold_verdict(K):
    """"certified_manifold" when K certifies as a homology sphere, else
    "unknown" — never "not a manifold"."""
    return "certified_manifold" if is_homology_sphere(K) else "unknown"


def is_shelling(facets, order):
    """Whether the facets, taken in this order of their indices, are a
    shelling: all of one size d + 1, and each F_j after the first meets
    F_1 u ... u F_{j-1} in a pure complex of dimension d - 1.  That
    intersection is the complex of the faces F_j & F_i, i < j, so it is
    pure of dimension d - 1 when each of them lies in one of size d."""
    if sorted(order) != list(range(len(facets))) or not facets:
        return False
    placed = [frozenset(facets[i]) for i in order]
    d = len(placed[0]) - 1
    if any(len(F) != d + 1 for F in placed):
        return False
    for j in range(1, len(placed)):
        meets = {placed[j] & F for F in placed[:j]}
        ridges = [G for G in meets if len(G) == d]
        if not all(any(G <= R for R in ridges) for G in meets):
            return False
    return True


def relabel_key(masks):
    """(support size, facets relabelled onto the support) of the complex
    with these facet bitmasks: the support's vertices numbered 1, 2, ...
    in order by a dict, and the label tuples sorted.  Two complexes get
    one key exactly when an order-preserving relabelling of their
    supports carries one onto the other."""
    supp = 0
    for f in masks:
        supp |= f
    label = {}
    for i in range(supp.bit_length()):
        if supp >> i & 1:
            label[i] = len(label) + 1
    return len(label), tuple(sorted(
        tuple(label[i] for i in range(f.bit_length()) if f >> i & 1)
        for f in masks))


def key_name(size, facets):
    """The name the sphere certificate gives a complex with this support
    size and these facets, as label tuples: the size, ":", then the
    facets as ","-joined labels, ";"-separated, in lexicographic order."""
    return f"{size}:" + ";".join(",".join(map(str, f))
                                 for f in sorted(facets))


def random_unimodular(rng, n):
    """A unimodular n x n matrix: 3n + 2 random row additions, with
    multipliers in [-2, 2], applied to the identity."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return IntMatrix(M)


def projective_product(exponents):
    """(K, lambda) of prod P^{a_i}: the join of simplex boundaries on
    consecutive vertex blocks, with block i of lambda = [I_{a_i} | -1]."""
    blocks, start = [], 1
    for a in exponents:
        blocks.append(range(start, start + a + 1))
        start += a + 1
    m = start - 1
    K = new_complex(m, [sum(choice, ()) for choice in
                        product(*[combinations(b, len(b) - 1)
                                  for b in blocks])])
    lam = [[0] * m for _ in range(sum(exponents))]
    row = 0
    for a, block in zip(exponents, blocks):
        for i in range(a):
            lam[row + i][block[i] - 1] = 1
            lam[row + i][block[-1] - 1] = -1
        row += a
    return K, IntMatrix(lam)


def search_json(res):
    """The search-free report of a SearchResult, less its verdict, each
    lattice as its Subtorus.to_json record."""
    return {"found": [{"m": res.m, "rows": [list(row) for row in key]}
                      for key in res.checked_keys()],
            "explored": res.explored,
            "complete_candidates": res.complete_candidates,
            "note": res.note}


def h_vector(K):
    """h_0..h_n of K, n = dim K + 1, from its f-vector alone."""
    n = K.dimension + 1
    f = (1,) + K.f_vector()
    return [sum((-1) ** (k - i) * comb(n - i, k - i) * f[i]
                for i in range(k + 1)) for k in range(n + 1)]
