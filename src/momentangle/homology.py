"""Simplicial homology over Z and Z/2, plus homology-sphere certification.

The sphere certificate is the recursive-links criterion: a complex passes
iff its reduced integer homology matches the sphere of its dimension and
every vertex link passes recursively one dimension down.  Passing makes
the associated moment-angle complex a certified topological manifold;
failing only yields "unknown" since the criterion is sufficient, not
necessary.

Every complex of the certificate, the root included, is a list of facet
bitmasks, and its homology condition is discharged by a collapse first:
if the complex less one top-dimensional facet collapses to a vertex, the
complex is homotopy equivalent to a sphere (Whitehead; greedy collapses
as in Benedetti and Lutz, Exp. Math. 2014).  A failed collapse proves
nothing, so only then is the homology computed on the link's faces, with
its d o d check, as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional

from .intlinalg import InternalError, sparse_invariant_factors
from .simplicial import SimplicialComplex, _bitmask


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


def _boundary_columns(faces):
    """Boundary maps d=0..dim of the complex with these nonempty face
    masks, as sparse columns, one {row: +-1} dict per d-face; the faces of
    a layer in ascending mask order, and dropping the i-th lowest vertex
    carries (-1)^i.  d=0 is the augmentation.  Checks d o d = 0."""
    layers = [[] for _ in range(_dimension(faces) + 1)]
    for f in faces:
        layers[f.bit_count() - 1].append(f)
    boundaries = []
    index_below = {0: 0}
    for layer in layers:
        layer.sort()
        cols = [{index_below[face ^ bit]: -1 if i & 1 else 1
                 for i, bit in enumerate(_bits(face))} for face in layer]
        if boundaries:
            _check_boundary_squared_zero(boundaries[-1], cols)
        boundaries.append(cols)
        index_below = {f: i for i, f in enumerate(layer)}
    return boundaries


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
    return _homology(_face_poset([_bitmask(f) for f in K.facets])[0],
                     reduced)


def _homology(faces, reduced):
    """homology() of the complex with these nonempty faces, as bitmasks."""
    boundaries = _boundary_columns(faces)
    dim = len(boundaries) - 1
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


def _sphere_homology(dim):
    """Reduced homology of the dim-sphere; empty for dim = -1."""
    betti = tuple(int(d == dim) for d in range(dim + 1))
    return HomologyProfile(True, betti, ((),) * (dim + 1), betti)


@dataclass
class SphereCertificate:
    """Recursion trace of the homology-sphere check.

    complexes maps the name of a canonical key (support size, relabeled
    facets) to a record with the dimension, the homology verdict, and the
    names of the vertex links, so shared links appear once.
    """

    verdict: bool
    root: str
    complexes: dict = field(default_factory=dict)
    criterion: ClassVar[str] = "recursive-links"
    # homology(K) of the checked complex, for callers that report it: the
    # sphere's when the root collapsed, else the fallback's; not part of
    # the JSON.
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
                "root": self.root, "complexes": self.complexes}


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


def _face_poset(masks):
    """count and xor of each nonempty face of the complex with these facet
    bitmasks: its number of codimension-one cofaces, and their xor.  Faces
    top down from the facets, which have no cofaces and come first in
    masks order: a face joins todo when first reached from a coface, so
    each is expanded once."""
    count = dict.fromkeys(masks, 0)
    xor = dict.fromkeys(masks, 0)
    todo = list(masks)
    while todo:
        face = todo.pop()
        if not face & (face - 1):
            continue  # a vertex: the empty face is not in the complex
        rest = face
        while rest:
            bit = rest & -rest
            rest ^= bit
            sub = face ^ bit
            if sub in count:
                count[sub] += 1
                xor[sub] ^= face
            else:
                count[sub] = 1
                xor[sub] = face
                todo.append(sub)
    return count, xor


def _collapses_off_a_facet(faces, removed, count, xor):
    """True when L = lk_S K, less the interior of one top-dimensional facet
    D, collapses to a single vertex.  S is the mask removed, count and xor
    are _face_poset of K, and faces lists each face of L, facets first, as
    its union with S: its cofaces in L are its cofaces in K, so K's tables
    hold for it, and its faces drop one bit not in S.

    Then L - D is contractible, and L is L - D with one cell attached
    along the boundary of D, so L is homotopy equivalent to the sphere of
    its dimension (Whitehead).  The collapse is greedy, from a stack of
    free faces: a free face has exactly one live codimension-one coface,
    which is then maximal, and the pair is removed.  Each live face keeps
    the count and xor of its live codimension-one cofaces, so the xor of
    a free face is its coface.  False proves nothing: a greedy collapse
    can get stuck."""
    count = {face: count[face] for face in faces}
    xor = {face: xor[face] for face in faces}
    top = max(faces, key=int.bit_count)
    del count[top]
    # S, the empty face of L, is no face here.
    for sub in count.keys() & {top ^ bit for bit in _bits(top & ~removed)}:
        count[sub] -= 1
        xor[sub] ^= top
    free = [face for face, n in count.items() if n == 1]
    while free:
        face = free.pop()
        if count.get(face) != 1:
            continue  # collapsed already, or no longer free
        for gone in (xor[face], face):
            del count[gone]
            rest = gone & ~removed
            if not rest & (rest - 1):
                continue  # a vertex of the link: no faces below
            while rest:
                bit = rest & -rest
                rest ^= bit
                sub = gone ^ bit
                n = count[sub] - 1
                count[sub] = n
                xor[sub] ^= gone
                if n == 1:
                    free.append(sub)
    return len(count) == 1


def is_homology_sphere(K: SimplicialComplex) -> SphereCertificate:
    """Certify K by the recursive-links criterion.

    Each complex is its facet bitmasks in K's labels, and a vertex link
    is taken on the masks.  Its homology condition is settled by
    _collapses_off_a_facet on K's face poset when that succeeds, and by
    _homology on the link's faces only otherwise.
    """
    memo, table = {}, {}
    names = {}  # key -> _key_str(key), since links recur across parents
    visited = {}  # vertex set S -> (name of lk_S K, whether it passed)
    settled = {"collapse": 0, "homology": 0}
    stuck = {}  # key -> homology of a complex whose collapse got stuck
    masks = [_bitmask(f) for f in K.facets]
    count, xor = _face_poset(masks)

    def check(masks, faces, removed, key):
        """Certify lk_S K, S = removed, from its masks, its canonical key
        and its parent's faces, as in _collapses_off_a_facet.  A link has
        a lower dimension than its parent, so key never recurs below."""
        if key in memo:
            return memo[key]
        dim = _dimension(masks)
        if dim < 0:
            # The empty complex is the (-1)-sphere.
            memo[key] = True
            table[names[key]] = {"dim": -1,
                                 "homology_matches_sphere": True,
                                 "vertex_links": {}}
            return True
        faces = [f for f in faces if f & removed == removed and f != removed]
        if _collapses_off_a_facet(faces, removed, count, xor):
            settled["collapse"] += 1
            hom_ok = True
        else:
            # The faces just collapsed, less S: lk_S K's own.
            prof = stuck[key] = _homology([f ^ removed for f in faces],
                                          True)
            settled["homology"] += 1
            hom_ok = prof == _sphere_homology(dim)
        links = {}
        ok = hom_ok
        if hom_ok:
            supp = 0
            for f in masks:
                supp |= f
            for bit in _bits(supp):
                # lk_S K and dim are the same from every parent: take it once.
                sub = removed | bit
                if sub not in visited:
                    link = [f ^ bit for f in masks if f & bit and f != bit]
                    link_key = _canonical_key(link)
                    if link_key not in names:
                        names[link_key] = _key_str(link_key)
                    visited[sub] = names[link_key], (
                        _dimension(link) == dim - 1
                        and check(link, faces, sub, link_key))
                # K's vertices less the removed ones are numbered 1, 2, ...
                # in order, so bit's label is K's less the removed below it.
                label = bit.bit_length() - (removed & (bit - 1)).bit_count()
                links[label], passed = visited[sub]
                if not passed:
                    ok = False
                    break
        memo[key] = ok
        table[names[key]] = {"dim": dim,
                             "homology_matches_sphere": hom_ok,
                             "vertex_links": links}
        return ok

    root = _canonical_key(masks)
    names[root] = _key_str(root)
    verdict = check(masks, count, 0, root)
    del check  # the closure refers to itself: free its tables on return
    # A root that collapsed is homotopy equivalent to the sphere.
    prof = stuck.get(root) or _sphere_homology(K.dimension)
    return SphereCertificate(verdict=verdict, root=names[root],
                             complexes=table, homology=prof,
                             settled_by=settled)
