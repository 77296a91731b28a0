"""Simplicial homology over Z and Z/2, plus homology-sphere certification.

The sphere certificate is the recursive-links criterion: a complex passes
iff its reduced integer homology matches the sphere of its dimension and
every vertex link passes recursively one dimension down.  Passing makes
the associated moment-angle complex a certified topological manifold;
failing only yields "unknown" since the criterion is sufficient, not
necessary.

The root complex always gets its homology, which callers report.  Below
the root, each complex is a list of facet bitmasks and its homology
condition is discharged by a collapse first: if the complex less one
top-dimensional facet collapses to a vertex, the complex is homotopy
equivalent to a sphere (Whitehead; greedy collapses as in Benedetti and
Lutz, Exp. Math. 2014).  A failed collapse proves nothing, so only then
is the homology computed, with its d o d check, as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .intlinalg import IntMatrix, InternalError, sparse_invariant_factors
from .simplicial import SimplicialComplex, _bitmask


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
    # Nonempty complexes of the table whose homology condition was settled
    # by a collapse and by homology, {"collapse": n, "homology": n}; not
    # part of the JSON.
    settled_by: dict = field(default_factory=dict, compare=False,
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


def _bits(mask):
    """The one-bit masks of mask, lowest first."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit)
        mask ^= bit
    return out


def _canonical_key(masks):
    """(support size, relabeled facets) of the complex whose facets are
    the nonempty bitmasks masks.  Ghost vertices do not change the space,
    so key on the relabeled support only; this also makes memoization hit
    across links."""
    supp = 0
    for f in masks:
        supp |= f
    label = {bit: i for i, bit in enumerate(_bits(supp), 1)}
    facets = [tuple([label[bit] for bit in _bits(f)]) for f in masks]
    facets.sort()
    return (len(label), tuple(facets))


def _dimension(masks):
    return max(map(int.bit_count, masks), default=0) - 1


def _collapses_off_a_facet(masks):
    """True when the complex with these nonempty facet bitmasks, less the
    interior of one top-dimensional facet D, collapses to a single vertex.

    Then K - D is contractible, and K is K - D with one cell attached
    along the boundary of D, so K is homotopy equivalent to the sphere of
    its dimension (Whitehead).  The collapse is greedy, from a stack of
    free faces: a free face has exactly one live codimension-one coface,
    which is then maximal, and the pair is removed.  Each live face keeps
    the count and the xor of its live codimension-one cofaces, so the xor
    of a free face is its coface.  False proves nothing: a greedy
    collapse can get stuck.
    """
    # Faces top down from the facets, which have no cofaces: a face joins
    # todo when first reached from a coface, so each is expanded once.
    count = dict.fromkeys(masks, 0)  # live face -> live cofaces
    xor = dict.fromkeys(masks, 0)    # live face -> xor of live cofaces
    below = {}                       # face -> its codimension-one faces
    todo = list(masks)
    while todo:
        face = todo.pop()
        subs = below[face] = []
        if not face & (face - 1):
            continue  # a vertex: the empty face is not in the complex
        rest = face
        while rest:
            bit = rest & -rest
            rest ^= bit
            sub = face ^ bit
            subs.append(sub)
            if sub in count:
                count[sub] += 1
                xor[sub] ^= face
            else:
                count[sub] = 1
                xor[sub] = face
                todo.append(sub)
    top = max(masks, key=int.bit_count)
    del count[top]
    for sub in below[top]:
        count[sub] -= 1
        xor[sub] ^= top
    free = [face for face, n in count.items() if n == 1]
    while free:
        face = free.pop()
        if count.get(face) != 1:
            continue  # collapsed already, or no longer free
        for gone in (xor[face], face):
            del count[gone]
            for sub in below[gone]:
                n = count[sub] - 1
                count[sub] = n
                xor[sub] ^= gone
                if n == 1:
                    free.append(sub)
    return len(count) == 1


def is_homology_sphere(K: SimplicialComplex) -> SphereCertificate:
    """Certify K by the recursive-links criterion.

    Below the root a complex is its facet bitmasks in K's labels, and a
    vertex link is taken on the masks.  Its homology condition is settled
    by _collapses_off_a_facet when that succeeds; only otherwise is a
    SimplicialComplex built from the canonical key for homology.  The root
    always gets homology(K), which the certificate keeps for callers.
    """
    memo, table = {}, {}
    names = {}  # key -> _key_str(key), since links recur across parents
    settled = {"collapse": 0, "homology": 0}

    def check(masks, removed, key, prof=None):
        """Certify the complex with facet bitmasks masks and canonical key
        key, whose vertices are K's less the mask removed; prof is its
        homology when the caller already has it."""
        if key in memo:
            return memo[key]
        memo[key] = False  # guard; overwritten below
        dim = _dimension(masks)
        if dim < 0:
            # The empty complex is the (-1)-sphere.
            memo[key] = True
            table[key] = {"dim": -1, "homology_matches_sphere": True,
                          "vertex_links": {}}
            return True
        if prof is None and _collapses_off_a_facet(masks):
            settled["collapse"] += 1
            hom_ok = True
        else:
            if prof is None:
                prof = homology(SimplicialComplex(*key), reduced=True)
            settled["homology"] += 1
            hom_ok = _matches_sphere(prof, dim)
        links = {}
        ok = hom_ok
        if hom_ok:
            supp = 0
            for f in masks:
                supp |= f
            for bit in _bits(supp):
                link = [f ^ bit for f in masks if f & bit and f != bit]
                link_key = _canonical_key(link)
                # The vertex's label as SimplicialComplex.link numbers it:
                # its label in K less the removed vertices below it.
                label = bit.bit_length() - (removed & (bit - 1)).bit_count()
                name = names.get(link_key)
                if name is None:
                    name = names[link_key] = _key_str(link_key)
                links[label] = name
                if (_dimension(link) != dim - 1
                        or not check(link, removed | bit, link_key)):
                    ok = False
                    break
        memo[key] = ok
        table[key] = {"dim": dim, "homology_matches_sphere": hom_ok,
                      "vertex_links": links}
        return ok

    masks = [_bitmask(f) for f in K.facets]
    root = _canonical_key(masks)
    prof = homology(K, reduced=True)
    verdict = check(masks, 0, root, prof)
    return SphereCertificate(verdict=verdict, root=root, complexes=table,
                             homology=prof, settled_by=settled)


def manifold_verdict(K: SimplicialComplex) -> str:
    """"certified_manifold" when K certifies as a homology sphere, else
    "unknown" — never "not a manifold"."""
    return "certified_manifold" if is_homology_sphere(K) else "unknown"
