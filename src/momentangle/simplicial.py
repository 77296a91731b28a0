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
        facets = [f for f in cleaned
                  if not any(f != g and set(f) <= set(g) for g in cleaned)]
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "facets", tuple(sorted(facets)))

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

    def support(self):
        """Vertices that belong to at least one facet, ascending."""
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    def facet_complements(self):
        """{1..m} minus each facet, ascending, in facet order."""
        out = []
        for f in self.facets:
            fset = set(f)
            out.append(tuple(v for v in range(1, self.m + 1)
                             if v not in fset))
        return out

    def has_face(self, sigma):
        sigma = set(sigma)
        if not sigma:
            return True
        return any(sigma <= set(f) for f in self.facets)

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

    def link(self, sigma):
        """Link of a face, relabeled to 1..m-|sigma|.

        Returns (L, labels) where labels[i] is the original label of the
        new vertex i+1.  Vertices of K outside sigma that end up in no
        facet of the link survive as ghost vertices.
        """
        sigma = tuple(sorted(set(sigma)))
        if not self.has_face(sigma):
            raise ValueError(f"{sigma} is not a face of the complex")
        if not sigma:
            return self, tuple(range(1, self.m + 1))
        labels = tuple(v for v in range(1, self.m + 1) if v not in sigma)
        newlabel = {v: i + 1 for i, v in enumerate(labels)}
        sset = set(sigma)
        faces = [tuple(newlabel[v] for v in f if v not in sset)
                 for f in self.facets if sset <= set(f)]
        return SimplicialComplex(len(labels), faces), labels

    def minimal_nonfaces(self):
        """Inclusion-minimal non-faces (generators of the non-face ideal)."""
        facet_masks = [sum(1 << (v - 1) for v in f) for f in self.facets]
        found = []
        out = []
        # A minimal non-face has every proper subset a face, so its size
        # is at most dim + 2.
        for size in range(1, min(self.m, self.dimension + 2) + 1):
            for cand in combinations(range(self.m), size):
                mask = 0
                for v in cand:
                    mask |= 1 << v
                if any(mask & ~fm == 0 for fm in facet_masks):
                    continue  # a face
                if any(mask & nf == nf for nf in found):
                    continue  # contains a smaller non-face
                found.append(mask)
                out.append(tuple(v + 1 for v in cand))
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


def _gale_even(subset, m):
    # Evenness for consecutive non-elements implies it for all pairs,
    # since any gap count is a sum of consecutive gap counts.
    sset = set(subset)
    comp = [i for i in range(1, m + 1) if i not in sset]
    for a, b in zip(comp, comp[1:]):
        if sum(1 for s in subset if a < s < b) % 2:
            return False
    return True


def cyclic_polytope_boundary(n, m):
    """Boundary complex of the cyclic polytope with m vertices in dim n.

    Facets are the n-subsets of {1..m} passing Gale's evenness condition;
    the combinatorics does not depend on the defining parameter choices,
    so no coordinates are ever computed.  Brute force over n-subsets —
    intended for desk scale (m up to ~20).
    """
    if n < 2:
        raise ValueError("polytope dimension must be >= 2")
    if m <= n:
        raise ValueError("need more vertices than the dimension")
    facets = [s for s in combinations(range(1, m + 1), n) if _gale_even(s, m)]
    return SimplicialComplex(m, facets)
