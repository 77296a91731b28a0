"""Cohomological outputs of torus quotients.

Two pipelines live here:

* H^2 and w_2 of a partial quotient, straight from the quotient-projection
  matrix: H^2 is the integer cokernel of its transpose, and w_2 is the
  class of v_1 + ... + v_m in the mod-2 cokernel.  Only H^2/w_2 are
  computed for partial quotients; w_1 is reported as 0 and the
  simple-connectivity of the ambient moment-angle manifold is an input
  assumption, both stated explicitly in every report.

* The graded mod-2 face ring of a full quotient (quasitoric manifold for
  generator degree 2, small cover for degree 1), with the total
  Stiefel-Whitney class prod(1 + v_i) and Stiefel-Whitney numbers paired
  against the fundamental class.

Ring arithmetic is degree-wise GF(2) linear algebra over monomial bases;
the linear relations are eliminated up front so only m - n free
generators remain, which keeps the bases tiny at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .intlinalg import (AbelianGroupPresentation, IntMatrix, cokernel,
                        rows_to_bitmasks, rref_mod2)
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class Mod2Class:
    """A mod-2 cohomology class as coordinates in a stated basis."""

    ambient: str
    coords: tuple

    def is_zero(self):
        return not any(self.coords)

    def to_json(self):
        return {"ambient": self.ambient, "coords": list(self.coords),
                "nonzero": not self.is_zero()}


def h2_of_quotient(theta: IntMatrix) -> AbelianGroupPresentation:
    """H^2 of the partial quotient presented by theta: the cokernel of
    theta^T acting on Z<v_1..v_m>.

    Assumes the ambient moment-angle manifold is simply-connected; that
    assumption is a flag on the report, not something verified here.
    """
    return cokernel(theta.transpose())


def mod2_residue(theta: IntMatrix, vec):
    """Reduce an integer vector mod 2 and then modulo the mod-2 row space
    of theta.

    Returns (residue, pivots): the residue as a bitmask (bit j is
    coordinate j), zero iff vec lies in the row space, and the pivot
    positions of the reduced row echelon form of theta mod 2.
    """
    rows, pivots = rref_mod2(rows_to_bitmasks(theta))
    mask = 0
    for j, b in enumerate(vec):
        if b & 1:
            mask |= 1 << j
    for row, p in zip(rows, pivots):
        if (mask >> p) & 1:
            mask ^= row
    return mask, pivots


def w2_of_quotient(theta: IntMatrix):
    """(class of v_1+...+v_m in the mod-2 cokernel, is_zero flag).

    Membership of the all-ones vector in the mod-2 row space of theta
    decides vanishing; the coordinates are w.r.t. the basis of [v_i] for
    the non-pivot generator indices.
    """
    m = theta.cols
    vec, pivots = mod2_residue(theta, [1] * m)
    basis = [j for j in range(m) if j not in set(pivots)]
    coords = tuple((vec >> j) & 1 for j in basis)
    ambient = ("H^2 of quotient, mod 2; basis "
               + ", ".join(f"[v{j + 1}]" for j in basis))
    cls = Mod2Class(ambient, coords)
    return cls, cls.is_zero()


# ---------------------------------------------------------------------------
# Graded mod-2 face ring of a full quotient.

# A polynomial over GF(2) in the free generators is a frozenset of
# exponent tuples; addition is symmetric difference.

def _poly_mul(p, q):
    acc = set()
    for a in p:
        for b in q:
            mono = tuple(x + y for x, y in zip(a, b))
            acc.symmetric_difference_update((mono,))
    return frozenset(acc)


def _poly_add(p, q):
    return frozenset(set(p) ^ set(q))


class GradedMod2Ring:
    """Z/2[v_1..v_m] / (non-face monomials + linear forms), graded.

    generator_degree is 2 for quasitoric quotients and 1 for small
    covers; internally everything is indexed by algebraic degree (number
    of v-factors) and scaled on output.
    """

    def __init__(self, K: SimplicialComplex, lam_mod2: IntMatrix,
                 generator_degree: int = 2):
        if generator_degree not in (1, 2):
            raise ValueError("generator degree must be 1 or 2")
        if lam_mod2.cols != K.m:
            raise ValueError("column count must equal the vertex count")
        if not K.is_pure():
            raise ValueError("complex must be pure")
        n = K.dimension + 1
        if lam_mod2.rows != n:
            raise ValueError(f"need {n} rows, got {lam_mod2.rows}")
        rows, pivots = rref_mod2(rows_to_bitmasks(lam_mod2))
        if len(rows) != n:
            raise ValueError("linear forms are not independent mod 2")
        for sigma in K.facets:
            sub = lam_mod2.submatrix_cols(sigma)
            r, _ = rref_mod2(rows_to_bitmasks(sub))
            if len(r) != n:
                raise ValueError(
                    f"not characteristic mod 2: facet {sigma} is singular")

        self.K = K
        self.m = K.m
        self.generator_degree = generator_degree
        self.top_algebraic = n
        pivot_set = set(pivots)
        self.free_vars = [j for j in range(self.m) if j not in pivot_set]
        findex = {j: i for i, j in enumerate(self.free_vars)}
        nfree = len(self.free_vars)

        def unit(i):
            e = [0] * nfree
            e[i] = 1
            return frozenset({tuple(e)})

        # Substitution: pivot generator -> sum of free generators.
        self._subst = {}
        for j in self.free_vars:
            self._subst[j] = unit(findex[j])
        for row, p in zip(rows, pivots):
            poly = frozenset()
            for j in self.free_vars:
                if (row >> j) & 1:
                    poly = _poly_add(poly, unit(findex[j]))
            self._subst[p] = poly

        self._relations = []
        for nonface in K.minimal_nonfaces():
            poly = frozenset({tuple([0] * nfree)})
            for v in nonface:
                poly = _poly_mul(poly, self._subst[v - 1])
            if poly:
                self._relations.append((len(nonface), poly))

        self._degree_cache = {}

    # -- degree-wise linear algebra -------------------------------------

    def _degree(self, t):
        if t in self._degree_cache:
            return self._degree_cache[t]
        monos = self._monomials(t)
        index = {mono: i for i, mono in enumerate(monos)}
        ideal_rows = []
        for deg, poly in self._relations:
            if deg > t:
                continue
            for mono in self._monomials(t - deg):
                prod = _poly_mul(frozenset({mono}), poly)
                mask = 0
                for mm in prod:
                    mask |= 1 << index[mm]
                if mask:
                    ideal_rows.append(mask)
        rows, pivots = rref_mod2(ideal_rows)
        entry = (monos, index, rows, pivots)
        self._degree_cache[t] = entry
        return entry

    def _monomials(self, t):
        """Exponent tuples of the degree-t monomials in the free
        generators, in combinations_with_replacement order."""
        nfree = len(self.free_vars)
        if nfree == 0:
            return [()] if t == 0 else []
        out = []
        for combo in combinations_with_replacement(range(nfree), t):
            e = [0] * nfree
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
        return out

    def dim(self, t):
        """Dimension of the algebraic-degree-t graded piece."""
        monos, _, rows, _ = self._degree(t)
        return len(monos) - len(rows)

    def basis(self, t):
        """Monomial basis of degree t: the non-pivot monomials."""
        monos, _, _, pivots = self._degree(t)
        pset = set(pivots)
        return [mono for i, mono in enumerate(monos) if i not in pset]

    @property
    def top(self):
        """Largest degree with a nonzero graded piece."""
        return max((t for t in range(self.top_algebraic + 1)
                    if self.dim(t) > 0), default=0)

    def reduce(self, poly, t):
        """Canonical representative of a degree-t polynomial mod the ideal."""
        monos, index, rows, pivots = self._degree(t)
        mask = 0
        for mono in poly:
            if sum(mono) != t:
                raise ValueError("polynomial is not homogeneous of degree t")
            mask |= 1 << index[mono]
        for row, p in zip(rows, pivots):
            if (mask >> p) & 1:
                mask ^= row
        return frozenset(mono for i, mono in enumerate(monos)
                         if (mask >> i) & 1)

    def multiply(self, p, tp, q, tq):
        """Product of reduced classes, reduced in degree tp + tq."""
        return self.reduce(_poly_mul(p, q), tp + tq)

    def generator_poly(self, i):
        """Image of v_i (1-based) as a reduced degree-1 polynomial."""
        return self.reduce(self._subst[i - 1], 1)

    def coords(self, poly, t):
        basis = self.basis(t)
        return tuple(int(mono in poly) for mono in basis)

    def fundamental_pairing(self, poly):
        """Coefficient of a reduced top-degree class on the fundamental
        class; requires the top graded piece to be one-dimensional."""
        if self.dim(self.top) != 1:
            raise ValueError("no fundamental class: top degree dimension "
                             f"is {self.dim(self.top)}")
        return 1 if poly else 0


def face_ring_mod2(K: SimplicialComplex, lam_mod2: IntMatrix,
                   generator_degree: int = 2) -> GradedMod2Ring:
    return GradedMod2Ring(K, lam_mod2, generator_degree)


def total_sw_class(R: GradedMod2Ring):
    """Total Stiefel-Whitney class prod_i (1 + v_i) as a list of
    Mod2Class, indexed by algebraic degree 0..top (real degree is the
    algebraic degree times the generator degree)."""
    parts = {0: frozenset({tuple([0] * len(R.free_vars))})}
    for i in range(1, R.m + 1):
        vi = R._subst[i - 1]
        new = {}
        for t, poly in parts.items():
            new[t] = _poly_add(new.get(t, frozenset()), poly)
            if t + 1 <= R.top_algebraic:
                bump = _poly_mul(poly, vi)
                new[t + 1] = _poly_add(new.get(t + 1, frozenset()), bump)
        parts = {t: R.reduce(p, t) for t, p in new.items()}
    out = []
    for j in range(R.top + 1):
        poly = parts.get(j, frozenset())
        real = j * R.generator_degree
        out.append(Mod2Class(f"graded face ring, degree {real}",
                             R.coords(poly, j)))
    return out


def sw_triviality(R: GradedMod2Ring) -> bool:
    """All positive-degree Stiefel-Whitney classes vanish."""
    return all(c.is_zero() for c in total_sw_class(R)[1:])


def _partitions(total, largest):
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def sw_numbers(R: GradedMod2Ring):
    """Every Stiefel-Whitney number: monomials in the w_i of total real
    degree equal to the real dimension, paired with the fundamental
    class.  Keys name real degrees, e.g. "w2^2" or "w4"."""
    if R.dim(R.top) != 1:
        raise ValueError("no fundamental class: top degree dimension "
                         f"is {R.dim(R.top)}")
    classes = total_sw_class(R)
    polys = []
    for j, cls in enumerate(classes):
        basis = R.basis(j)
        polys.append(frozenset(mono for mono, c in zip(basis, cls.coords)
                               if c))
    out = {}
    for partition in _partitions(R.top, R.top):
        acc = frozenset({tuple([0] * len(R.free_vars))})
        t = 0
        for part in partition:
            acc = R.multiply(acc, t, polys[part], part)
            t += part
        value = R.fundamental_pairing(acc)
        pieces = []
        for part in sorted(set(partition), reverse=True):
            e = partition.count(part)
            name = f"w{part * R.generator_degree}"
            pieces.append(name if e == 1 else f"{name}^{e}")
        out[" ".join(pieces)] = value
    return out
