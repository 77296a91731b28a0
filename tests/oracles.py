"""Reference implementations the tests check the package against.

Each one has no caller in the package itself: the sphere certificate takes
links on facet bitmasks, the search and acts_freely decide freeness through
torus.FreenessTest, and no command reports almost-freeness or a manifold
verdict.  They stay here, as the oracles the tests already used them as.
"""

from momentangle.homology import is_homology_sphere
from momentangle.intlinalg import IntMatrix, cokernel, rank_rational
from momentangle.simplicial import SimplicialComplex
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
