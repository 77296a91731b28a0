"""Subtorus actions on moment-angle complexes, decided combinatorially.

A k-dimensional subtorus of T^m is stored as a primitive k x m integer
matrix A (rows = a lattice basis of the cocharacter sublattice).  Whether
the subtorus acts freely on Z_K reduces to a condition on the columns of
A outside each facet: the induced map into the complementary coordinate
torus must be injective, i.e. the submatrix has full rank and unit
invariant factors.  The space itself is never built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .intlinalg import (IntMatrix, InternalError, _bareiss,
                        hermite_normal_form, is_primitive_cols,
                        is_primitive_rows, kernel_lattice, rank_rational,
                        row_lattice_equal)
from .simplicial import SimplicialComplex


class PreconditionError(ValueError):
    """A stated hypothesis of an operation is violated (as opposed to the
    operation legitimately answering False)."""


@dataclass(frozen=True)
class Subtorus:
    """Embedded k-torus in T^m, given by a primitive k x m row basis."""

    matrix: IntMatrix

    def __post_init__(self):
        if not is_primitive_rows(self.matrix):
            raise ValueError(
                "rows must be a primitive full-rank lattice basis")

    @property
    def k(self):
        return self.matrix.rows

    @property
    def m(self):
        return self.matrix.cols

    def row_lattice_key(self):
        return hermite_normal_form(self.matrix)

    def to_json(self):
        return {"m": self.m, "rows": [list(r) for r in self.matrix.data]}

    @classmethod
    def from_json(cls, obj):
        rows = obj["rows"]
        return cls(IntMatrix(rows, rows=len(rows), cols=obj["m"]))


def cyclic69_free_subtorus() -> Subtorus:
    """The 2-torus in T^9 acting freely on the moment-angle manifold of
    the boundary of the cyclic polytope C_6(9)."""
    return Subtorus(IntMatrix([
        [1, 0, 1, 0, 1, 0, 1, 0, 1],
        [0, 1, 0, 1, 0, 1, 0, 1, 1],
    ]))


def cyclic69_quotient_matrix() -> IntMatrix:
    """The 7 x 9 matrix whose kernel torus is cyclic69_free_subtorus()."""
    return IntMatrix([
        [-1, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 1, 0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 1, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, -1, 0, 0, 0, 0, 0, 1, 0],
        [-1, -1, 0, 0, 0, 0, 0, 0, 1],
    ])


@dataclass(frozen=True)
class FreenessResult:
    free: bool
    witness: Optional[tuple]  # first offending facet, canonical order

    def __bool__(self):
        return self.free


def _check_action_input(T: Subtorus, K: SimplicialComplex):
    if T.m != K.m:
        raise ValueError(f"ambient rank {T.m} != vertex count {K.m}")
    if not K.is_pure():
        raise PreconditionError(
            "complex is not pure; freeness of the quotient setting "
            "requires purity")


# A memo entry costs about 80 bytes with a palette of up to 30 codes; the
# int key grows by 4 bytes per 30 codes, to about 340 bytes an entry at the
# 2048 codes of FREENESS_PALETTE_LIMIT.  In a long random search over a
# wide entry set nearly every column set is new, so without a cap the memo
# would grow with the run time.  The cap holds it under 25 MB there; the
# exhaustive searches of the boundary of C_6(9) need at most 92 entries.
FREENESS_MEMO_LIMIT = 1 << 16
FREENESS_PALETTE_LIMIT = 1 << 11


class FreenessTest:
    """The one freeness test, for one k: do the columns labelled by each
    set generate Z^k?  Free on Z_K when the sets are K's facet
    complements.

    Columns are held as codes into palette, a list of distinct length-k
    columns: column j is palette[codes[j - 1]].  memo maps the set of codes
    of a label set, as an int bitmask of palette indices, to
    is_primitive_cols(k, ...), so the test runs once per set of distinct
    columns however often the set recurs.  The key is exact: rank k with
    every invariant factor 1 means the columns generate Z^k, which depends
    only on the set of distinct columns, not on their order or
    multiplicity.  The memo stops growing at FREENESS_MEMO_LIMIT entries,
    and code() starts palette and memo over before the palette would pass
    FREENESS_PALETTE_LIMIT codes, which keeps a key within 256 bytes.
    children maps a prefix key to the bitmask of the codes c for which
    key | 1 << c is primitive, read through memo once per prefix; it is
    capped like memo, and code() clears it whenever it adds a code, as
    it does after starting over.  A caller testing many candidates keeps
    one instance for all of them."""

    def __init__(self, k, palette=()):
        self.k = k
        self.palette = list(palette)
        self.index = {col: c for c, col in enumerate(self.palette)}
        self.memo = {}
        self.children = {}

    def code(self, columns):
        """The codes of columns, a sequence of length-k tuples; a column
        new to the palette gets the next code."""
        palette, index = self.palette, self.index
        if len(palette) + len(columns) > FREENESS_PALETTE_LIMIT:
            palette.clear()
            index.clear()
            self.memo.clear()
        codes = []
        for col in columns:
            code = index.get(col)
            if code is None:
                code = index[col] = len(palette)
                palette.append(col)
                self.children.clear()  # each mask lacks the new code
            codes.append(code)
        return codes

    def first_unfree(self, codes, comps):
        """Index of the first label set in comps (1-based, into the
        columns coded by codes) whose columns are not primitive, or
        None."""
        memo = self.memo
        for i, comp in enumerate(comps):
            key = 0
            for j in comp:
                key |= 1 << codes[j - 1]
            free = memo.get(key)
            if free is None:
                free = self._primitive(key)
            if not free:
                return i
        return None

    def free_codes(self, codes, heads):
        """The codes c, ascending, for which first_unfree(codes + [c],
        comps) is None, where comps are the label sets in heads each
        extended by column len(codes) + 1: the children of a search node
        that pass the complements their column completes.  Each head's
        columns are masked into a prefix key, and the answer is the AND
        of the prefixes' child masks, read low bit first."""
        children = self.children
        free = (1 << len(self.palette)) - 1
        for head in heads:
            key = 0
            for j in head:
                key |= 1 << codes[j - 1]
            mask = children.get(key)
            if mask is None:
                mask = self._children(key)
            free &= mask
        out = []
        while free:
            low = free & -free
            out.append(low.bit_length() - 1)
            free ^= low
        return out

    def _children(self, prefix):
        """The child mask of prefix, stored while children is below the
        memo's cap."""
        memo = self.memo
        mask = 0
        for c in range(len(self.palette)):
            key = prefix | 1 << c
            free = memo.get(key)
            if free is None:
                free = self._primitive(key)
            if free:
                mask |= 1 << c
        if len(self.children) < FREENESS_MEMO_LIMIT:
            self.children[prefix] = mask
        return mask

    def _primitive(self, key):
        """The memo miss: is_primitive_cols of the columns coded by key,
        stored while the memo is below its cap."""
        palette = self.palette
        cols = []
        rest = key
        while rest:
            low = rest & -rest
            cols.append(palette[low.bit_length() - 1])
            rest ^= low
        free = is_primitive_cols(self.k, cols)
        if len(self.memo) < FREENESS_MEMO_LIMIT:
            self.memo[key] = free
        return free


def acts_freely(T: Subtorus, K: SimplicialComplex) -> FreenessResult:
    """Free action test, one submatrix check per facet."""
    _check_action_input(T, K)
    test = FreenessTest(T.k)
    i = test.first_unfree(test.code(T.matrix.transpose().data),
                          K.facet_complements())
    return FreenessResult(i is None, None if i is None else K.facets[i])


def _independent(rows, labels):
    """Are the columns of the matrix with these rows, labelled 1-based
    by labels, linearly independent over Q?  For a square minor, that is
    a nonzero determinant."""
    return _bareiss([[row[j - 1] for j in labels] for row in rows],
                    len(labels))[0] == len(labels)


def is_rational_characteristic(lam: IntMatrix, K: SimplicialComplex) -> bool:
    """Columns indexed by every simplex linearly independent over Q.

    Checking maximal faces suffices: subsets of independent columns stay
    independent.
    """
    if lam.cols != K.m:
        raise ValueError(f"column count {lam.cols} != vertex count {K.m}")
    if K.facets and lam.rows < max(len(f) for f in K.facets):
        raise ValueError("fewer rows than the largest facet size")
    return all(_independent(lam.data, sigma) for sigma in K.facets)


def characteristic_duality_holds(lam: IntMatrix, theta: IntMatrix,
                                 K: SimplicialComplex) -> bool:
    """For jointly independent, mutually orthogonal row systems on a pure
    complex: det of the facet columns of lam is nonzero exactly when det
    of the complementary columns of theta is.

    Under the preconditions this must always hold; it is used as an
    executable-theorem oracle in the property suite.  Violated
    preconditions raise PreconditionError rather than returning False.
    """
    m = K.m
    if lam.cols != m or theta.cols != m:
        raise PreconditionError("column counts must equal the vertex count")
    if lam.rows + theta.rows != m:
        raise PreconditionError("row counts must sum to the vertex count")
    if not K.is_pure():
        raise PreconditionError("complex must be pure")
    if K.facets and len(K.facets[0]) != lam.rows:
        raise PreconditionError("facet size must equal lam's row count")
    if not (lam @ theta.transpose()).is_zero():
        raise PreconditionError("row systems are not orthogonal")
    if rank_rational(lam.stack(theta)) != m:
        raise PreconditionError("rows are not jointly independent over Q")
    return all(_independent(lam.data, sigma)
               == _independent(theta.data, comp)
               for sigma, comp in zip(K.facets, K.facet_complements()))


def torus_from_kernel(lam: IntMatrix) -> Subtorus:
    """Identity component of the kernel of the torus map defined by lam."""
    return Subtorus(kernel_lattice(lam))


@dataclass(frozen=True)
class ExtensionResult:
    success: bool
    theta_full: Optional[IntMatrix]
    lam: Optional[IntMatrix]
    tries: int
    message: str = ""


def extend_to_characteristic(T: Subtorus, K: SimplicialComplex,
                             entry_bound: Optional[int] = None,
                             max_tries: int = 100_000,
                             seed: int = 0) -> ExtensionResult:
    """Extend T's rows to an (m-n) x m matrix with nonzero dets on all
    facet complements, by seeded rejection sampling of the missing rows.

    Entries are drawn from [-entry_bound, entry_bound] (default max(3, m)).
    entry_bound and max_tries must be at least 1, else ValueError: bound 0
    only draws zero rows.  Generic rows succeed with probability
    approaching 1 as the entry bound grows, so failure after max_tries is
    reported, not raised.  A torus of dimension m - n draws no row; its
    failure names a facet on whose complement its own minor is zero.  The
    returned lam is a kernel basis of the extended matrix, with T inside
    its kernel torus.  By Gale duality (characteristic_duality_holds) the
    nonzero complement minors make lam a rational characteristic matrix
    of K; that is checked on every success, and a failure raises
    InternalError.
    """
    _check_action_input(T, K)
    m = K.m
    n = K.dimension + 1
    need = m - n - T.k
    if need < 0:
        raise ValueError(f"subtorus dimension {T.k} exceeds m - n = {m - n}")
    bound = entry_bound if entry_bound is not None else max(3, m)
    if bound < 1:
        raise ValueError(f"entry bound must be at least 1, got {bound}")
    if max_tries < 1:
        raise ValueError(f"max tries must be at least 1, got {max_tries}")
    rng = random.Random(seed)
    comps = K.facet_complements()
    size = m - n
    tries = 0
    while tries < max_tries:
        tries += 1
        rows = T.matrix.data + tuple(
            tuple(rng.randint(-bound, bound) for _ in range(m))
            for _ in range(need))
        bad = next((i for i, c in enumerate(comps)
                    if not _independent(rows, c)), None)
        if bad is None:
            theta_full = IntMatrix(rows, rows=size, cols=m)
            lam = kernel_lattice(theta_full)
            if not is_rational_characteristic(lam, K):
                raise InternalError(
                    "kernel of the extension is not characteristic")
            return ExtensionResult(True, theta_full, lam, tries)
        if need == 0:  # nothing is being sampled; retrying cannot help
            return ExtensionResult(
                False, None, None, tries,
                f"no row drawn: the torus already has dimension "
                f"m - n = {size}, and its own minor on the complement of "
                f"facet {list(K.facets[bad])} is zero")
    return ExtensionResult(False, None, None, tries,
                           f"no valid extension in {tries} tries "
                           f"(entry bound {bound})")


def quotient_projection(T: Subtorus) -> IntMatrix:
    """(m-k) x m matrix presenting T^m -> T^m/T, with T as exact kernel.

    Its rows are kernel_lattice(T.matrix): with U A V = [I_k | 0], the
    last m-k columns of V span the integer vectors orthogonal to T's
    rows, and V is unimodular, so they are primitive.  Postconditions
    are checked on every call and raise InternalError.
    """
    theta = kernel_lattice(T.matrix)
    if not (theta @ T.matrix.transpose()).is_zero():
        raise InternalError("quotient projection does not kill the torus")
    if not is_primitive_rows(theta):
        raise InternalError("quotient projection rows are not primitive")
    if not row_lattice_equal(kernel_lattice(theta), T.matrix):
        raise InternalError("quotient projection kernel is not the torus")
    return theta
