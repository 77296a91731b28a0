"""Simplicial complexes on a labeled vertex set {1..m}.

Only the combinatorics is ever stored: a complex is its vertex count plus
the set of inclusion-maximal faces.  Vertices outside every face ("ghost"
vertices) are first-class, so m is independent of the facet support.
"""

from __future__ import annotations

from itertools import combinations


class SimplicialComplex:
    """Immutable complex: vertex count m and sorted, mutually
    non-containing facets (each an ascending tuple of 1-based labels)."""

    __slots__ = ("m", "facets")

    def __init__(self, m, faces):
        # Exact ints only: a float or a bool is an error, never rounded.
        if type(m) is not int:
            raise TypeError(f"vertex count {m!r} is not an exact integer")
        if m <= 0:
            raise ValueError("vertex count must be positive")
        cleaned = set()
        for face in faces:
            face = tuple(face)
            for v in face:
                if type(v) is not int:
                    raise TypeError(f"vertex {v!r} is not an exact integer")
                if not 1 <= v <= m:
                    raise ValueError(f"vertex {v} out of range 1..{m}")
            cleaned.add(tuple(sorted(set(face))))
        cleaned.discard(())
        # A face can lie only inside a strictly larger face, so filter
        # layer by layer from the largest size down: each face is tested
        # against the facets already kept, and pure input needs no test.
        layers = {}
        for face in cleaned:
            layers.setdefault(len(face), []).append(face)
        facets = []
        larger = []  # bitmasks of the kept facets of every larger size
        for size in sorted(layers, reverse=True):
            for face in layers[size]:
                mask = _bitmask(face)
                if not any(mask & ~g == 0 for g in larger):
                    facets.append((face, mask))
            larger = [mask for _, mask in facets]
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "facets",
                           tuple(sorted(face for face, _ in facets)))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.m == other.m and self.facets == other.facets)

    def __hash__(self):
        return hash((self.m, self.facets))

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, facets={list(self.facets)})"

    @property
    def dimension(self):
        """Max facet size minus one; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def is_pure(self):
        sizes = {len(f) for f in self.facets}
        return len(sizes) <= 1

    def facet_complements(self):
        """{1..m} minus each facet, ascending, in facet order.  Without
        facets the empty face is the one maximal face, so its complement
        (1, ..., m) is the one complement."""
        verts = set(range(1, self.m + 1))
        return [tuple(sorted(verts.difference(f)))
                for f in self.facets or [()]]

    def faces_of_dim(self, d):
        """All d-faces in ascending order; d = -1 gives the empty face."""
        if not -1 <= d <= self.dimension:
            raise ValueError(f"dimension {d} out of range -1..{self.dimension}")
        if d == -1:
            return [()]
        out = set()
        for f in self.facets:
            out.update(combinations(f, d + 1))
        return sorted(out)

    def f_vector(self):
        """(f_0, ..., f_dim); empty tuple for the empty complex."""
        return tuple(len(self.faces_of_dim(d))
                     for d in range(self.dimension + 1))

    def euler_characteristic(self):
        return sum((-1) ** d * f for d, f in enumerate(self.f_vector()))

    def minimal_nonfaces(self):
        """Inclusion-minimal non-faces (generators of the non-face ideal),
        by size, then lexicographically.

        A vertex set is a non-face exactly when it lies in no facet, that
        is, when it meets every facet complement.  So the minimal
        non-faces are the minimal transversals of facet_complements()
        (Berge, Hypergraphs, 1989; Eiter and Gottlob, SIAM J. Comput.
        1995), built here by Berge's sequential algorithm on bitmasks.
        The work follows the transversals kept along the way, not the
        number of vertex subsets.  A ghost vertex lies in every
        complement, so it comes out as a singleton; without facets every
        vertex does.
        """
        transversals = [0]  # minimal transversals of the edges so far
        for edge in sorted(map(_bitmask, self.facet_complements())):
            hit = [t for t in transversals if t & edge]
            grown = []
            for t in transversals:
                if t & edge:
                    continue
                rest = edge
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    grow = t | bit
                    # Two grown sets never contain one another, so grow
                    # is minimal unless it contains a kept transversal.
                    if not any(h & ~grow == 0 for h in hit):
                        grown.append(grow)
            transversals = hit + grown
        out = [tuple(v + 1 for v in range(self.m) if (t >> v) & 1)
               for t in transversals]
        out.sort(key=lambda nf: (len(nf), nf))
        return out

    def to_json(self):
        return {"m": self.m, "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["m"], obj["facets"])


def new_complex(m, faces):
    return SimplicialComplex(m, faces)


def boundary_of_simplex(n):
    """Boundary of the n-simplex: all n-subsets of {1..n+1}."""
    if n < 0:
        raise ValueError("simplex dimension must be >= 0")
    return SimplicialComplex(n + 1, combinations(range(1, n + 2), n))


def cyclic_polytope_boundary(n, m):
    """Boundary complex of the cyclic polytope with m vertices in dim n.

    Facets are the n-subsets of {1..m} passing Gale's evenness condition;
    the combinatorics does not depend on the defining parameter choices,
    so no coordinates are ever computed.  The subsets are generated
    directly as runs of consecutive vertices (Ziegler, Lectures on
    Polytopes, Thm 0.7): every run that contains neither 1 nor m has even
    length.  Every branch of the generation ends in a facet, so the cost
    is O(#facets * n), not C(m, n).
    """
    if n < 2:
        raise ValueError("polytope dimension must be >= 2")
    if m <= n:
        raise ValueError("need more vertices than the dimension")
    facets = []

    def runs(prefix, start, left):
        # prefix holds the runs so far; start - 1 is outside the subset.
        if left == 0:
            facets.append(prefix)
            return
        # The last run ends at m and may have any length.
        facets.append(prefix + tuple(range(m - left + 1, m + 1)))
        # Any other run starts by m - left, which leaves room for a gap
        # and the rest of the subset.  A run through 1 may have any
        # length; every other one has even length.
        for first in range(start, m - left + 1):
            step = 1 if first == 1 else 2
            for length in range(step, left + 1, step):
                runs(prefix + tuple(range(first, first + length)),
                     first + length + 1, left - length)

    runs((), 1, n)
    return SimplicialComplex(m, facets)


def _bitmask(face):
    """Bit v - 1 set for each vertex v of face."""
    mask = 0
    for v in face:
        mask |= 1 << (v - 1)
    return mask
