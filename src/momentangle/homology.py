"""Simplicial homology over Z and Z/2, plus homology-sphere certification.

The sphere certificate is the recursive-links criterion: a complex passes
iff its reduced integer homology matches the sphere of its dimension and
every vertex link passes recursively one dimension down.  Passing makes
the associated moment-angle complex a certified topological manifold;
failing only yields "unknown" since the criterion is sufficient, not
necessary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .intlinalg import IntMatrix, InternalError, sparse_invariant_factors
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class ChainComplexData:
    """Boundary matrices d=0..dim, faces ordered as in faces_of_dim.

    boundary[0] is the augmentation map C_0 -> C_{-1} = Z (all-ones row),
    so reduced homology falls out of the same matrices.
    """

    boundaries: tuple


def _check_boundary_squared_zero(lower, upper):
    """Raise InternalError unless lower @ upper == 0, both given as sparse
    columns ({row: entry} dicts, column j of upper indexing lower)."""
    for j, col in enumerate(upper):
        image = {}
        for i, a in col.items():
            for r, b in lower[i].items():
                image[r] = image.get(r, 0) + a * b
        if any(image.values()):
            raise InternalError(
                f"boundary of boundary is nonzero (column {j})")


def _boundary_columns(K: SimplicialComplex):
    """Boundary maps d=0..dim K as sparse columns, one {row: +-1} dict per
    d-face, faces and rows ordered as in faces_of_dim; d=0 is the
    augmentation.  Checks d o d = 0 on every consecutive pair."""
    boundaries = []
    faces_below = [()]
    for d in range(K.dimension + 1):
        faces = K.faces_of_dim(d)
        index_below = {f: i for i, f in enumerate(faces_below)}
        cols = [{index_below[face[:i] + face[i + 1:]]: -1 if i & 1 else 1
                 for i in range(len(face))} for face in faces]
        if boundaries:
            _check_boundary_squared_zero(boundaries[-1], cols)
        boundaries.append(cols)
        faces_below = faces
    return boundaries


def chain_complex(K: SimplicialComplex) -> ChainComplexData:
    boundaries = []
    nrows = 1
    for cols in _boundary_columns(K):
        rows = [[0] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, a in col.items():
                rows[i][j] = a
        boundaries.append(IntMatrix(rows, rows=nrows, cols=len(cols)))
        nrows = len(cols)
    return ChainComplexData(tuple(boundaries))


@dataclass(frozen=True)
class HomologyProfile:
    """Per-degree Betti rank, integer torsion, and Z/2 dimension."""

    reduced: bool
    betti: tuple
    torsion: tuple      # tuple of tuples, per degree
    mod2: tuple

    def degrees(self):
        return range(len(self.betti))

    def to_json(self):
        return {"reduced": self.reduced,
                "degrees": [{"degree": d, "betti": self.betti[d],
                             "torsion": list(self.torsion[d]),
                             "mod2": self.mod2[d]}
                            for d in self.degrees()]}


def homology(K: SimplicialComplex, reduced=True) -> HomologyProfile:
    """Homology in degrees 0..dim K, over Z and over Z/2.

    Integer homology comes from the invariant factors of each boundary
    map, found by sparse elimination on unit pivots with dense Smith
    normal form only on the block that is left.  By the universal
    coefficient theorem the GF(2) rank of a boundary map is its number of
    odd invariant factors, which gives the mod-2 Betti numbers.
    """
    dim = K.dimension
    if dim < 0:
        return HomologyProfile(reduced, (), (), ())
    boundaries = _boundary_columns(K)
    fvec = [len(cols) for cols in boundaries]
    ranks_z = [0] * (dim + 2)
    ranks_2 = [0] * (dim + 2)
    factors = [()] * (dim + 2)
    for d, cols in enumerate(boundaries):
        if d == 0 and not reduced:
            continue  # unreduced: no augmentation, rank stays 0
        factors[d] = sparse_invariant_factors(cols)
        ranks_z[d] = len(factors[d])
        ranks_2[d] = sum(1 for f in factors[d] if f % 2)
    betti, torsion, mod2 = [], [], []
    for d in range(dim + 1):
        betti.append(fvec[d] - ranks_z[d] - ranks_z[d + 1])
        torsion.append(tuple(f for f in factors[d + 1] if f > 1))
        mod2.append(fvec[d] - ranks_2[d] - ranks_2[d + 1])
    return HomologyProfile(reduced, tuple(betti), tuple(torsion), tuple(mod2))


def _matches_sphere(prof: HomologyProfile, dim: int) -> bool:
    for d in prof.degrees():
        want = 1 if d == dim else 0
        if prof.betti[d] != want or prof.torsion[d]:
            return False
    return True


@dataclass
class SphereCertificate:
    """Recursion trace of the homology-sphere check.

    complexes maps a canonical key (support size, relabeled facets) to a
    record with the dimension, the homology verdict, and the keys of the
    vertex links, so shared links appear once.
    """

    verdict: bool
    root: tuple
    complexes: dict = field(default_factory=dict)
    criterion: str = "recursive-links"
    # homology(K) of the checked complex, computed once for the certificate
    # and kept for callers that report it; not part of the JSON.
    homology: Optional[HomologyProfile] = field(default=None, compare=False,
                                                repr=False)

    def __bool__(self):
        return self.verdict

    def to_json(self):
        return {"verdict": self.verdict, "criterion": self.criterion,
                "root": _key_str(self.root),
                "complexes": {_key_str(k): v
                              for k, v in self.complexes.items()}}


def _key_str(key):
    return f"{key[0]}:" + ";".join(",".join(map(str, f)) for f in key[1])


def _canonical_key(K: SimplicialComplex):
    # Ghost vertices do not change the space, so key on the relabeled
    # support only; this also makes memoization hit across links.
    supp = K.support()
    relabel = {v: i + 1 for i, v in enumerate(supp)}
    facets = tuple(sorted(tuple(relabel[v] for v in f) for f in K.facets))
    return (len(supp), facets)


def _check_sphere(K, key, memo, table, prof=None):
    """Certify K, whose canonical key is key; prof is homology(K) when the
    caller already has it."""
    if key in memo:
        return memo[key]
    memo[key] = False  # guard; overwritten below
    dim = K.dimension
    if dim < 0:
        # The empty complex is the (-1)-sphere.
        memo[key] = True
        table[key] = {"dim": -1, "homology_matches_sphere": True,
                      "vertex_links": {}}
        return True
    if prof is None:
        prof = homology(K, reduced=True)
    hom_ok = _matches_sphere(prof, dim)
    links = {}
    ok = hom_ok
    if hom_ok:
        for v in K.support():
            L, _ = K.link((v,))
            link_key = _canonical_key(L)
            links[v] = _key_str(link_key)
            if (L.dimension != dim - 1
                    or not _check_sphere(L, link_key, memo, table)):
                ok = False
                break
    memo[key] = ok
    table[key] = {"dim": dim, "homology_matches_sphere": hom_ok,
                  "vertex_links": links}
    return ok


def is_homology_sphere(K: SimplicialComplex) -> SphereCertificate:
    memo, table = {}, {}
    root = _canonical_key(K)
    prof = homology(K, reduced=True)
    verdict = _check_sphere(K, root, memo, table, prof)
    return SphereCertificate(verdict=verdict, root=root, complexes=table,
                             homology=prof)


def manifold_verdict(K: SimplicialComplex) -> str:
    """"certified_manifold" when K certifies as a homology sphere, else
    "unknown" — never "not a manifold"."""
    return "certified_manifold" if is_homology_sphere(K) else "unknown"
