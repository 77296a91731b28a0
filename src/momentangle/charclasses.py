"""Cohomological outputs of torus quotients.

Both outputs read the classes of the generators v_1..v_m in F_2^m modulo
the row space of theta mod 2, from one reduction (_generator_classes):

* H^2 and w_2 of a partial quotient, straight from the quotient-projection
  matrix: H^2 is the integer cokernel of its transpose, and w_2 is the
  class of v_1 + ... + v_m in the mod-2 cokernel.  Only H^2/w_2 are
  computed; w_1 is reported as 0, and the ambient moment-angle manifold
  is assumed simply connected.  Only verify-example states both; the
  quotient-h2 report names the ambient assumption, the w2 report neither.

* The graded mod-2 face ring of a full quotient (quasitoric manifold for
  generator degree 2, small cover for degree 1), with the total
  Stiefel-Whitney class prod(1 + v_i) and Stiefel-Whitney numbers paired
  against the fundamental class.  Its degree-one generators are the same
  classes, so its w_2 is the partial-quotient w_2 of the same matrix, in
  the same basis.

Ring arithmetic is degree-wise GF(2) linear algebra over monomial bases.
The linear relations are eliminated up front, so only m - n free
generators remain.  Each monomial is packed into one int, so a product of
monomials is one integer addition.  Each degree is built from the basis
of the degree below, so its cost follows the size of the answer, not the
number of monomials, and a reduction XORs in one memoised normal form per
monomial of its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

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
# int whose w-bit fields hold the exponents of the free generators, the
# first generator in the highest field.  The ring sizes w so that no
# product it forms carries from one field into the next, so the product
# of two monomials is their sum and distinct monomials are distinct ints.
# Comparing two packed monomials of one degree compares their exponents
# of the first generator first, so descending ints are
# combinations_with_replacement order.

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

    Monomials in the free generators are compared in
    combinations_with_replacement order, a monomial order on each degree,
    and the leading term of a polynomial is its latest monomial.  The
    basis of degree t is the monomials that are not the leading term of
    any degree-t element of the ideal, and every monomial has one normal
    form in it.  A divisor of a basis monomial is a basis
    monomial, so degree t is spanned by the products u b of a free
    generator u and a basis monomial b of degree t - 1; every other
    monomial x is u nf(x / u) modulo the ideal.  The constructor
    eliminates, on those products only, the commutators
    u_i nf(u_j y) - u_j nf(u_i y) for y in the basis of degree t - 2 and
    the minimal non-face relations of degree t, each rewritten into
    products.  These span the ideal there, so the basis and every normal
    form are the ones of an elimination over all monomials of degree t
    (Mourrain, AAECC-13, LNCS 1719, 1999).

    The ring vanishes in degree n + 1 iff theta mod 2 is nonsingular on
    every facet: then it is spanned by face monomials (Stanley,
    Combinatorics and Commutative Algebra, ch. III), and otherwise it
    maps onto a polynomial ring on a singular facet.  So the constructor
    builds degrees 0..n + 1 and stops at the first zero piece; top is
    the last nonzero one.
    """

    def __init__(self, K: SimplicialComplex, lam_mod2: IntMatrix,
                 generator_degree: int = 2):
        if type(generator_degree) is not int:
            raise TypeError(f"generator degree {generator_degree!r} is not "
                            "an exact integer")
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

        self.generator_degree = generator_degree
        # A product of two classes has degree at most 2n and a minimal
        # non-face at most n + 1 vertices; no exponent exceeds that.
        width = max(2 * n, n + 1).bit_length()
        self._width = width
        k = len(basis)
        self._units = [1 << (width * (k - 1 - i)) for i in range(k)]

        # Substitution: generator -> sum of free generators.
        self._subst = [frozenset(u for j, u in zip(basis, self._units)
                                 if (cls >> j) & 1) for cls in classes]

        relations = {}
        for nonface in K.minimal_nonfaces():
            poly = frozenset({0})
            for v in nonface:
                poly = _poly_mul(poly, self._subst[v - 1])
            if poly:
                relations.setdefault(len(nonface), []).append(poly)

        # _bases[t] lists the basis of degree t in
        # combinations_with_replacement order.  _forms[t] maps a monomial
        # of degree t to its normal form, a mask whose bit i stands for
        # _bases[t][i]; it holds every product u b and, once reduced, any
        # other monomial.
        self._bases = [[0]]
        self._forms = [{0: 1}]
        for t in range(1, n + 2):
            if not self._add_degree(relations.get(t, ())):
                break
        else:
            raise ValueError("not characteristic mod 2: facet "
                             f"{_first_singular_facet(K, classes)} is "
                             "singular")
        self.top = len(self._bases) - 1

    def _add_degree(self, relations):
        """Build the basis and the product normal forms of the next
        degree; False if that piece is zero."""
        t = len(self._bases)
        prev, prev_forms = self._bases[t - 1], self._forms[t - 1]
        products = sorted({u + b for u in self._units for b in prev},
                          reverse=True)
        column = {mono: 1 << i for i, mono in enumerate(products)}
        # lifts[u][i] is the column of u * prev[i].
        lifts = {u: [column[u + b] for b in prev] for u in self._units}

        def lift(u, form):
            row = 0
            lifted = lifts[u]
            while form:
                low = form & -form
                row ^= lifted[low.bit_length() - 1]
                form ^= low
            return row

        rows = []
        if t >= 2:
            # Two products of basis monomials commute as they stand.
            in_basis = set(prev)
            for y in self._bases[t - 2]:
                forms = [(u, prev_forms[u + y], u + y in in_basis)
                         for u in self._units]
                for (ui, fi, bi), (uj, fj, bj) in combinations(forms, 2):
                    if not (bi and bj):
                        row = lift(ui, fj) ^ lift(uj, fi)
                        if row:
                            rows.append(row)
        for poly in relations:
            row = 0
            for mono in poly:
                u = self._lowest_unit(mono)
                row ^= lift(u, self._normal_form(mono - u, t - 1))
            rows.append(row)
        # The highest bit is the latest product in
        # combinations_with_replacement order, the leading term.
        rows, pivots = rref_mod2(rows)
        if len(pivots) == len(products):
            return False
        pivot_set = set(pivots)
        basis, bit = [], {}
        for i, mono in enumerate(products):
            if i not in pivot_set:
                bit[i] = 1 << len(basis)
                basis.append(mono)
        forms = {products[i]: b for i, b in bit.items()}
        for row, p in zip(rows, pivots):
            row ^= 1 << p
            form = 0
            while row:
                low = row & -row
                form |= bit[low.bit_length() - 1]
                row ^= low
            forms[products[p]] = form
        self._bases.append(basis)
        self._forms.append(forms)
        return True

    def _lowest_unit(self, mono):
        """A free generator dividing a monomial of positive degree."""
        w = self._width
        return 1 << ((mono & -mono).bit_length() - 1) // w * w

    def _normal_form(self, mono, t):
        """Normal form of a packed monomial of degree t <= top, as
        u nf(x / u) summed over products u b, memoised.  An int that is
        no monomial of degree t ends its descent at degree 0 with a
        nonzero rest, or earlier at zero or past the last field, and
        nothing is memoised for it."""
        forms = self._forms[t]
        form = forms.get(mono)
        if form is None:
            low = mono & -mono
            if not t or not low or low >> self._width * len(self._units):
                raise ValueError("polynomial is not homogeneous of degree t")
            u = self._lowest_unit(mono)
            rest = self._normal_form(mono - u, t - 1)
            prev = self._bases[t - 1]
            form = 0
            while rest:
                low = rest & -rest
                form ^= forms[u + prev[low.bit_length() - 1]]
                rest ^= low
            forms[mono] = form
        return form

    def _reduce_monomials(self, monos, t):
        """The class of a sum of degree-t monomials, each counted with
        its multiplicity mod 2, as a frozenset of basis monomials."""
        if not 0 <= t <= self.top:
            if t < 0 or any(self._mono_degree(mono) != t for mono in monos):
                raise ValueError("polynomial is not homogeneous of degree t")
            return frozenset()
        forms = self._forms[t]
        mask = 0
        for mono in monos:
            try:
                mask ^= forms[mono]
            except (KeyError, TypeError):
                if type(mono) is not int:
                    raise ValueError("polynomial is not homogeneous of "
                                     "degree t") from None
                mask ^= self._normal_form(mono, t)
        basis = self._bases[t]
        out = []
        while mask:
            low = mask & -mask
            out.append(basis[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    @cached_property
    def _sw_pieces(self):
        """The total class, expanded once per ring."""
        return _expand_total_class(self)

    # -- degree-wise linear algebra -------------------------------------

    def _mono_degree(self, mono):
        """Degree of a packed monomial, or -1 if mono is not one."""
        w = self._width
        if type(mono) is not int or mono < 0 or mono >> (w * len(self._units)):
            return -1
        field = (1 << w) - 1
        return sum((mono >> (w * i)) & field for i in range(len(self._units)))

    def _basis(self, t):
        if t < 0:
            raise ValueError("degree must be non-negative")
        return self._bases[t] if t <= self.top else []

    def dim(self, t):
        """Dimension of the algebraic-degree-t graded piece."""
        return len(self._basis(t))

    def basis(self, t):
        """Monomial basis of degree t: the monomials that are not leading
        terms of the ideal, as packed ints (opaque; compare them only
        with other monomials of this ring), in
        combinations_with_replacement order of exponents."""
        return list(self._basis(t))

    def reduce(self, poly, t):
        """Canonical representative of a degree-t polynomial mod the ideal."""
        return self._reduce_monomials(poly, t)

    def multiply(self, p, tp, q, tq):
        """Product of reduced classes, reduced in degree tp + tq."""
        return self._reduce_monomials([a + b for a in p for b in q], tp + tq)

    def coords(self, poly, t):
        return tuple(int(mono in poly) for mono in self._basis(t))

    def fundamental_pairing(self, poly):
        """Coefficient of a reduced top-degree class on the fundamental
        class; requires the top graded piece to be one-dimensional."""
        if self.dim(self.top) != 1:
            raise ValueError("no fundamental class: top degree dimension "
                             f"is {self.dim(self.top)}")
        return 1 if poly else 0


def _first_singular_facet(K: SimplicialComplex, classes):
    """The first facet on which theta mod 2 is singular.  By Gale duality
    the columns on sigma have rank n mod 2 iff the classes of the
    generators outside sigma span the quotient."""
    rank = K.m - K.dimension - 1
    return next(sigma for sigma, comp
                in zip(K.facets, K.facet_complements())
                if len(rref_mod2([classes[v - 1] for v in comp])[0]) != rank)


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
            if t + 1 <= R.top:
                new[t + 1] = new.get(t + 1, frozenset()) ^ _poly_mul(poly, vi)
        parts = {t: R.reduce(p, t) for t, p in new.items()}
    return tuple(parts.get(j, frozenset()) for j in range(R.top + 1))


def total_sw_class(R: GradedMod2Ring):
    """Total Stiefel-Whitney class prod_i (1 + v_i) as a list of
    Mod2Class, indexed by algebraic degree 0..top (real degree is the
    algebraic degree times the generator degree)."""
    return [Mod2Class(f"graded face ring, degree {j * R.generator_degree}",
                      R.coords(poly, j))
            for j, poly in enumerate(R._sw_pieces)]


def sw_triviality(R: GradedMod2Ring) -> bool:
    """All positive-degree Stiefel-Whitney classes vanish."""
    return not any(R._sw_pieces[1:])


def sw_numbers(R: GradedMod2Ring):
    """Every Stiefel-Whitney number: monomials in the w_i of total real
    degree equal to the real dimension, paired with the fundamental
    class.  Keys name real degrees, e.g. "w2^2" or "w4"."""
    pieces = R._sw_pieces
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
