"""Cohomological outputs of torus quotients.

Both outputs read the classes of the generators v_1..v_m in F_2^m modulo
the row space of theta mod 2, from one reduction (_generator_classes):

* H^2 and w_2 of a partial quotient, straight from the quotient-projection
  matrix: H^2 is the integer cokernel of its transpose, and w_2 is the
  class of v_1 + ... + v_m in the mod-2 cokernel.  Only H^2/w_2 are
  computed for partial quotients; w_1 is reported as 0 and the
  simple-connectivity of the ambient moment-angle manifold is an input
  assumption, both stated explicitly in every report.

* The graded mod-2 face ring of a full quotient (quasitoric manifold for
  generator degree 2, small cover for degree 1), with the total
  Stiefel-Whitney class prod(1 + v_i) and Stiefel-Whitney numbers paired
  against the fundamental class.  Its degree-one generators are the same
  classes, so its w_2 is the partial-quotient w_2 of the same matrix, in
  the same basis.

Ring arithmetic is degree-wise GF(2) linear algebra over monomial bases.
The linear relations are eliminated up front, so only m - n free
generators remain.  Each monomial is packed into one int, so a product of
monomials is one integer addition, and a reduction XORs in one ideal row
per pivot bit set in its input.
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


def _generator_classes(theta: IntMatrix):
    """(basis, classes): the classes of v_1..v_m in F_2^m modulo the row
    space of theta mod 2, from one rref_mod2.

    basis lists the non-pivot indices.  classes[j] is the class of v_j as
    a bitmask whose set bits are basis indices: 1 << j for a free j, and
    the reduced row without its pivot bit for a pivot j.
    """
    rows, pivots = rref_mod2(rows_to_bitmasks(theta))
    classes = [1 << j for j in range(theta.cols)]
    for row, p in zip(rows, pivots):
        classes[p] = row ^ (1 << p)
    pivot_set = set(pivots)
    return [j for j in range(theta.cols) if j not in pivot_set], classes


def mod2_class(theta: IntMatrix, vec) -> Mod2Class:
    """The class of an integer vector, reduced mod 2, in the mod-2
    cokernel of theta^T, in the basis of [v_j] for the non-pivot
    indices j."""
    basis, classes = _generator_classes(theta)
    mask = 0
    for j, b in enumerate(vec):
        if b & 1:
            mask ^= classes[j]
    ambient = ("H^2 of quotient, mod 2; basis "
               + ", ".join(f"[v{j + 1}]" for j in basis))
    return Mod2Class(ambient, tuple((mask >> j) & 1 for j in basis))


def w2_of_quotient(theta: IntMatrix):
    """(class of v_1+...+v_m in the mod-2 cokernel, is_zero flag).

    The class vanishes iff the all-ones vector lies in the mod-2 row
    space of theta.
    """
    cls = mod2_class(theta, [1] * theta.cols)
    return cls, cls.is_zero()


# ---------------------------------------------------------------------------
# Graded mod-2 face ring of a full quotient.

# A polynomial over GF(2) in the free generators is a frozenset of packed
# monomials; addition is symmetric difference.  A packed monomial is one
# int whose bits [w*i, w*(i+1)) hold the exponent of free generator i.
# The ring sizes w so that no product it forms carries from one field into
# the next, so the product of two monomials is their sum and distinct
# monomials are distinct ints.

def _poly_mul(p, q):
    # For a fixed a the sums a + b are distinct, so each row of products
    # is XORed in as one set.
    acc = set()
    for a in p:
        acc ^= {a + b for b in q}
    return frozenset(acc)


class GradedMod2Ring:
    """Z/2[v_1..v_m] / (non-face monomials + linear forms), graded.

    generator_degree is 2 for quasitoric quotients and 1 for small
    covers; internally everything is indexed by algebraic degree (number
    of v-factors) and scaled on output.

    Every facet is nonsingular mod 2, so the linear forms are a linear
    system of parameters and the ring is spanned by face monomials: it
    vanishes above algebraic degree n (Stanley, Combinatorics and
    Commutative Algebra, ch. III).  Degree tables are built only up to n.
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
        basis, classes = _generator_classes(lam_mod2)
        if len(basis) != K.m - n:
            raise ValueError("linear forms are not independent mod 2")
        # Gale duality: the columns on sigma have rank n mod 2 iff the
        # classes of the generators outside sigma span the quotient.
        for sigma, comp in zip(K.facets, K.facet_complements()):
            r, _ = rref_mod2([classes[v - 1] for v in comp])
            if len(r) != K.m - n:
                raise ValueError(
                    f"not characteristic mod 2: facet {sigma} is singular")

        self.K = K
        self.m = K.m
        self.generator_degree = generator_degree
        self.top_algebraic = n
        self.free_vars = basis
        # A product of two classes has degree at most 2n and a minimal
        # non-face at most n + 1 vertices; no exponent exceeds that.
        width = max(2 * n, n + 1).bit_length()
        self._width = width
        self._units = [1 << (width * i) for i in range(len(basis))]

        # Substitution: generator -> sum of free generators.
        self._subst = [frozenset(u for j, u in zip(basis, self._units)
                                 if (cls >> j) & 1) for cls in classes]

        self._relations = []
        for nonface in K.minimal_nonfaces():
            poly = frozenset({0})
            for v in nonface:
                poly = _poly_mul(poly, self._subst[v - 1])
            if poly:
                self._relations.append((len(nonface), poly))

        self._degree_cache = {}
        self._sw_cache = None

    # -- degree-wise linear algebra -------------------------------------

    def _degree(self, t):
        """(monomials, index, pivot rows, pivot mask, basis) of degree
        t <= n.  The monomials are in combinations_with_replacement order
        and index maps each to its bit; the pivot rows of the ideal are
        keyed by their pivot bit, and the basis is the non-pivot
        monomials."""
        entry = self._degree_cache.get(t)
        if entry is not None:
            return entry
        monos = [sum(combo)
                 for combo in combinations_with_replacement(self._units, t)]
        index = {mono: i for i, mono in enumerate(monos)}
        ideal_rows = []
        for deg, poly in self._relations:
            if deg > t:
                continue
            for mono in self._degree(t - deg)[0]:
                row = 0
                for r in poly:
                    row |= 1 << index[mono + r]
                ideal_rows.append(row)
        rows, pivots = rref_mod2(ideal_rows)
        pivot_row = {1 << p: row for row, p in zip(rows, pivots)}
        pivot_mask = sum(pivot_row)
        basis = [mono for i, mono in enumerate(monos)
                 if not (pivot_mask >> i) & 1]
        entry = (monos, index, pivot_row, pivot_mask, basis)
        self._degree_cache[t] = entry
        return entry

    def _mono_degree(self, mono):
        """Degree of a packed monomial, or -1 if mono is not one."""
        w = self._width
        if type(mono) is not int or mono < 0 or mono >> (w * len(self._units)):
            return -1
        field = (1 << w) - 1
        return sum((mono >> (w * i)) & field for i in range(len(self._units)))

    def _basis(self, t):
        return self._degree(t)[4] if t <= self.top_algebraic else []

    def dim(self, t):
        """Dimension of the algebraic-degree-t graded piece."""
        return len(self._basis(t))

    def basis(self, t):
        """Monomial basis of degree t: the monomials that are not pivots
        of the ideal, as packed ints (opaque; compare them only with
        other monomials of this ring), in combinations_with_replacement
        order of exponents."""
        return list(self._basis(t))

    @property
    def top(self):
        """Largest degree with a nonzero graded piece."""
        return max((t for t in range(self.top_algebraic + 1)
                    if self.dim(t) > 0), default=0)

    def reduce(self, poly, t):
        """Canonical representative of a degree-t polynomial mod the ideal."""
        if t > self.top_algebraic:
            if any(self._mono_degree(mono) != t for mono in poly):
                raise ValueError("polynomial is not homogeneous of degree t")
            return frozenset()
        monos, index, pivot_row, pivot_mask, _ = self._degree(t)
        mask = 0
        try:
            for mono in poly:
                mask |= 1 << index[mono]
        except (KeyError, TypeError):
            raise ValueError(
                "polynomial is not homogeneous of degree t") from None
        # The pivot rows are fully reduced, so XORing the row of each
        # pivot bit set in the input clears every pivot bit in one pass.
        hit = mask & pivot_mask
        while hit:
            low = hit & -hit
            mask ^= pivot_row[low]
            hit ^= low
        out = []
        while mask:
            low = mask & -mask
            out.append(monos[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def multiply(self, p, tp, q, tq):
        """Product of reduced classes, reduced in degree tp + tq."""
        return self.reduce(_poly_mul(p, q), tp + tq)

    def coords(self, poly, t):
        return tuple(int(mono in poly) for mono in self._basis(t))

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


def _expand_total_class(R: GradedMod2Ring):
    """The reduced pieces of prod_i (1 + v_i) in degrees 0..top."""
    parts = {0: frozenset({0})}
    for vi in R._subst:
        new = {}
        for t, poly in parts.items():
            new[t] = new.get(t, frozenset()) ^ poly
            if t + 1 <= R.top_algebraic:
                new[t + 1] = new.get(t + 1, frozenset()) ^ _poly_mul(poly, vi)
        parts = {t: R.reduce(p, t) for t, p in new.items()}
    return tuple(parts.get(j, frozenset()) for j in range(R.top + 1))


def _sw_pieces(R: GradedMod2Ring):
    """The total class of R, expanded once per ring and kept on it."""
    if R._sw_cache is None:
        R._sw_cache = _expand_total_class(R)
    return R._sw_cache


def total_sw_class(R: GradedMod2Ring):
    """Total Stiefel-Whitney class prod_i (1 + v_i) as a list of
    Mod2Class, indexed by algebraic degree 0..top (real degree is the
    algebraic degree times the generator degree)."""
    return [Mod2Class(f"graded face ring, degree {j * R.generator_degree}",
                      R.coords(poly, j))
            for j, poly in enumerate(_sw_pieces(R))]


def sw_triviality(R: GradedMod2Ring) -> bool:
    """All positive-degree Stiefel-Whitney classes vanish."""
    return not any(_sw_pieces(R)[1:])


def sw_numbers(R: GradedMod2Ring):
    """Every Stiefel-Whitney number: monomials in the w_i of total real
    degree equal to the real dimension, paired with the fundamental
    class.  Keys name real degrees, e.g. "w2^2" or "w4"."""
    if R.dim(R.top) != 1:
        raise ValueError("no fundamental class: top degree dimension "
                         f"is {R.dim(R.top)}")
    pieces = _sw_pieces(R)
    out = {}

    # Depth-first over partitions with non-increasing parts, carrying
    # the product of the prefix, so each prefix is multiplied once.
    def walk(partition, t, product):
        if t == R.top:
            names = []
            for part in sorted(set(partition), reverse=True):
                e = partition.count(part)
                name = f"w{part * R.generator_degree}"
                names.append(name if e == 1 else f"{name}^{e}")
            out[" ".join(names)] = R.fundamental_pairing(product)
            return
        largest = partition[-1] if partition else R.top
        for part in range(min(R.top - t, largest), 0, -1):
            walk(partition + (part,), t + part,
                 R.multiply(product, t, pieces[part], part))

    walk((), 0, frozenset({0}))
    return out
