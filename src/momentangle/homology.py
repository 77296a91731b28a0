"""Simplicial homology over Z and Z/2, plus homology-sphere certification.

The sphere certificate is the recursive-links criterion: a complex passes
iff its reduced integer homology matches the sphere of its dimension and
every vertex link passes recursively one dimension down.  Passing makes
the associated moment-angle complex a certified topological manifold;
failing only yields "unknown" since the criterion is sufficient, not
necessary.

Every complex of the certificate, the root included, is a list of facet
bitmasks.  Its key is the masks with the holes of their support squeezed
out, an order-preserving relabelling onto the support by a few shifts,
and each distinct key is named once.  One rule settles the homology
condition of each complex.  A pure complex whose ridges each lie in two
facets, and whose facets have a shelling order, is a PL sphere (Danaraj
and Klee, Duke Math. J. 1974), and so is every link in it: the complex
and its whole subtree pass.  Any other complex takes its homology, on
the faces of its facet masks, with the d o d check.
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
    return _homology(_faces([_bitmask(f) for f in K.facets]), reduced)


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

    complexes maps the name (_key_str) of a key (_canonical_key: facet
    masks, the holes of their support squeezed out) to a record with the
    dimension, the homology verdict, and the names of the vertex links, so
    shared links appear once.
    """

    verdict: bool
    root: str
    complexes: dict = field(default_factory=dict)
    criterion: ClassVar[str] = "recursive-links"
    # homology(K) of the checked complex, for callers that report it: the
    # sphere's when the root shelled, else the one computed for the root;
    # not part of the JSON.
    homology: Optional[HomologyProfile] = field(default=None, compare=False,
                                                repr=False)
    # Nonempty complexes of the table whose homology condition was settled
    # by a shelling, their own or one above them, and by homology,
    # {"shelling": n, "homology": n}; not part of the JSON.
    settled_by: dict = field(default_factory=dict, compare=False,
                             repr=False)

    def __bool__(self):
        return self.verdict

    def to_json(self):
        return {"verdict": self.verdict, "criterion": self.criterion,
                "root": self.root, "complexes": self.complexes}


def _key_str(key, text):
    """The name of a _canonical_key: its support size, ":", then its
    facets as ","-joined labels, ";"-separated in the lexicographic order
    of the label tuples, which is not the order of the masks.  text maps
    each squeezed facet mask named so far to its labels as a str of chr,
    which orders as the tuple does, and to its text."""
    for f in key:
        if f not in text:
            labels = [bit.bit_length() for bit in _bits(f)]
            text[f] = "".join(map(chr, labels)), ",".join(map(str, labels))
    facets = sorted([text[f] for f in key])
    # The support is squeezed onto bits 0, 1, ...: the last mask has its top.
    return (f"{key[-1].bit_length() if key else 0}:"
            + ";".join([t for _, t in facets]))


def _bits(mask):
    """The one-bit masks of mask, lowest first."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit)
        mask ^= bit
    return out


def _canonical_key(masks):
    """The nonempty facet bitmasks masks, ascending, with the holes of
    their support squeezed out: its i-th vertex becomes bit i - 1.  That
    keeps the vertex order, so keys are equal exactly when the complexes
    relabelled onto their supports are; ghost vertices do not change the
    space, and memoization hits across links."""
    supp = 0
    for f in masks:
        supp |= f
    holes = ~supp & (1 << supp.bit_length()) - 1
    squeezed = masks
    while holes:  # the highest run of holes first: the lower ones stay put
        hi = holes.bit_length()
        lo = (supp & (1 << hi) - 1).bit_length()
        below = (1 << lo) - 1
        squeezed = [f & below | f >> hi << lo for f in squeezed]
        holes &= below
    return tuple(sorted(squeezed))


def _dimension(masks):
    return max(map(int.bit_count, masks), default=0) - 1


def _faces(masks):
    """The nonempty faces of the complex with these facet bitmasks, as a
    set: top down from the facets, each face expanded once."""
    faces = set(masks)
    todo = list(faces)
    while todo:
        face = rest = todo.pop()
        if not face & (face - 1):
            continue  # a vertex: the empty face is not in the complex
        while rest:
            bit = rest & -rest
            rest ^= bit
            if face ^ bit not in faces:
                faces.add(face ^ bit)
                todo.append(face ^ bit)
    return faces


def _shelling_order(masks):
    """Indices of the facets masks in a shelling order, or None.

    None unless every ridge lies in exactly two facets.  Facets are placed
    greedily from the first: F may come next when R(F), the vertices v
    whose neighbour across the ridge F - v is placed, is nonempty and lies
    in no placed facet, so that F meets the placed ones in a pure complex
    of codimension one.  R(F) only grows, so F is tried again only when it
    does.  Neighbours have one size, so a complex that is not pure gets no
    order.  A stuck greedy pass proves nothing."""
    if not masks:
        return None
    across = {}  # ridge -> the facets on its two sides
    for i, f in enumerate(masks):
        for bit in _bits(f):
            across.setdefault(f ^ bit, []).append(i)
    if any(len(pair) != 2 for pair in across.values()):
        return None
    restriction = [0] * len(masks)  # R(F) as a mask, -1 once F is placed
    holding = {}  # vertex bit -> bitset of the placed facets holding it
    order, todo = [], [0]
    while todo:
        i = todo.pop()
        if restriction[i] < 0:
            continue  # placed already
        hits = -1 if order else 0  # the placed facets holding R(F)
        for bit in _bits(restriction[i]):
            hits &= holding.get(bit, 0)
        if hits:
            continue
        order.append(i)
        restriction[i] = -1
        f = masks[i]
        for bit in _bits(f):
            holding[bit] = holding.get(bit, 0) | 1 << i
            a, b = across[f ^ bit]
            j = a + b - i
            if restriction[j] >= 0:
                restriction[j] |= masks[j] & ~f
                todo.append(j)
    return order if len(order) == len(masks) else None


def is_homology_sphere(K: SimplicialComplex) -> SphereCertificate:
    """Certify K by the recursive-links criterion.

    Each complex is its facet bitmasks in K's labels, and a vertex link
    is taken on the masks.  A complex that has a _shelling_order is a PL
    sphere, and so is every link in it: its homology condition holds, and
    that of every complex below it, with no shelling tried there.  Any
    other complex is settled by _homology on its own faces.
    """
    memo, table = {}, {}
    names = {}  # key -> _key_str(key), since links recur across parents
    text = {}  # squeezed facet mask -> its sort key and text, for _key_str
    visited = {}  # vertex set S -> (name of lk_S K, whether it passed)
    settled = {"shelling": 0, "homology": 0}
    measured = {}  # key -> homology of a complex that did not shell

    def check(masks, removed, key, shelled):
        """Certify lk_S K, S = removed, from its masks and its canonical
        key; shelled when a complex above it has a shelling.  A link has a
        lower dimension than its parent, so key never recurs below."""
        if key in memo:
            return memo[key]
        dim = _dimension(masks)
        if dim < 0:  # the empty complex is the (-1)-sphere, with no links
            hom_ok = True
        elif shelled or _shelling_order(masks) is not None:
            shelled = True
            settled["shelling"] += 1
            hom_ok = True
        else:
            prof = measured[key] = _homology(_faces(masks), True)
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
                        names[link_key] = _key_str(link_key, text)
                    visited[sub] = names[link_key], (
                        _dimension(link) == dim - 1
                        and check(link, sub, link_key, shelled))
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

    masks = [_bitmask(f) for f in K.facets]
    root = _canonical_key(masks)
    names[root] = _key_str(root, text)
    verdict = check(masks, 0, root, False)
    del check  # the closure refers to itself: free its tables on return
    prof = measured.get(root) or _sphere_homology(K.dimension)
    return SphereCertificate(verdict=verdict, root=names[root],
                             complexes=table, homology=prof,
                             settled_by=settled)
