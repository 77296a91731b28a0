"""Exact integer matrix algebra.

Everything here runs on Python's arbitrary-precision integers; no
floating point is used anywhere.  The Smith normal form is the engine
behind kernel lattices and cokernels; membership in a cokernel (is b in
the image of A?) reads the cokernel's presentation, so one Smith form
answers any number of such questions.  The Hermite normal form, on
plain rows, answers lattice equality and the search's keys, and it
settles primitivity, the question the subtorus search asks most, where
a Bareiss minor of +-1 does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain


class InternalError(AssertionError):
    """An internal postcondition failed.

    Raised by an explicit check, so it also fires under ``python -O``;
    the command line reports it as an internal error, exit code 3.
    """


class IntMatrix:
    """Immutable dense integer matrix, row-major, of exact ints only (a
    float or a bool raises TypeError instead of being rounded)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(map(tuple, data))
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        for x in chain((rows, cols), *data):
            if type(x) is not int:
                raise TypeError(f"matrix value {x!r} is not an exact integer")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("ragged or mis-shaped matrix data")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        bt = other.transpose().data
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt]
             for row in self.data],
            rows=self.rows, cols=other.cols)

    def transpose(self):
        return IntMatrix([[row[i] for row in self.data]
                          for i in range(self.cols)],
                         rows=self.cols, cols=self.rows)

    def is_zero(self):
        return all(a == 0 for row in self.data for a in row)

    def submatrix_cols(self, labels):
        """Columns selected by 1-based labels, in the order given."""
        for j in labels:
            if not 1 <= j <= self.cols:
                raise ValueError(f"column label {j} out of range 1..{self.cols}")
        return IntMatrix([[row[j - 1] for j in labels] for row in self.data],
                         rows=self.rows, cols=len(labels))

    def stack(self, other):
        """Rows of self followed by rows of other."""
        if self.cols != other.cols:
            raise ValueError("dimension mismatch in row stack")
        return IntMatrix(self.data + other.data,
                         rows=self.rows + other.rows, cols=self.cols)

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols,
                "data": [list(r) for r in self.data]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["data"], rows=obj["rows"], cols=obj["cols"])


def _bareiss(rows, ncols):
    """Fraction-free (Bareiss) echelon reduction of the matrix with these
    rows: (rank over Q, last pivot times the sign of the row swaps).  The
    last pivot is, up to sign, the minor on the pivot rows and columns, so
    it is det(A) for square A of full rank."""
    M = [list(row) for row in rows]
    nrows = len(M)
    rank = 0
    sign = 1
    prev = 1
    for c in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if M[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            sign = -sign
        for r in range(rank + 1, nrows):
            for cc in range(c + 1, ncols):
                M[r][cc] = (M[r][cc] * M[rank][c] - M[r][c] * M[rank][cc]) // prev
            M[r][c] = 0
        prev = M[rank][c]
        rank += 1
    return rank, sign * prev


def det(A):
    """Exact determinant via fraction-free Bareiss elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    rank, last = _bareiss(A.data, A.cols)
    return last if rank == A.rows else 0


def rank_rational(A):
    """Rank over Q via fraction-free (Bareiss) echelon reduction."""
    return _bareiss(A.data, A.cols)[0]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == S with U, V unimodular, S diagonal, d_i | d_{i+1}."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix
    invariant_factors: tuple

    @property
    def rank(self):
        return len(self.invariant_factors)


def _diagonalize(B, n, m):
    """Bring rows 0..n-1 x columns 0..m-1 of the tableau B, a list of row
    lists, to Smith normal form in place; return the rank.

    Pivot rule: smallest nonzero absolute value, ties broken by lowest
    (row, col), so that golden tests are deterministic.  Every row step
    acts on a whole row of B and every column step on a whole column, so
    the blocks beyond n and m ride along and record the transforms.
    """
    def swap_cols(i, j):
        for row in B:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        best = None
        for i in range(t, n):
            row = B[i]
            for j in range(t, m):
                v = abs(row[j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            return t
        _, pi, pj = best
        B[t], B[pi] = B[pi], B[t]
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(n):
                if i != t and B[i][t]:
                    P = B[t]
                    q = B[i][t] // P[t]
                    B[i] = R = [x - q * y for x, y in zip(B[i], P)]
                    if R[t]:
                        B[t], B[i] = R, P
                        dirty = True
            if dirty:
                continue
            for j in range(m):
                if j != t and B[t][j]:
                    q = B[t][j] // B[t][t]
                    for row in B:
                        row[j] -= q * row[t]
                    if B[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # Row and column t are clear; force the pivot to divide the rest.
            p = B[t][t]
            bad = None
            for i in range(t + 1, n):
                if any(B[i][j] % p for j in range(t + 1, m)):
                    bad = i
                    break
            if bad is None:
                break
            B[t] = [x + y for x, y in zip(B[t], B[bad])]
        if B[t][t] < 0:
            B[t] = [-x for x in B[t]]
        t += 1


def smith(A):
    """Smith normal form with tracked unimodular transforms.

    One tableau [[A, I_n], [I_m, 0]] is diagonalized on its A block
    (_diagonalize), which leaves [[S, U], [V, 0]].
    """
    n, m = A.rows, A.cols
    B = [list(row) + [0] * n for row in A.data]
    B += [[0] * (m + n) for _ in range(m)]
    for i, row in enumerate(B):  # I_n to the right of A, I_m below it
        row[(m + i) % (m + n)] = 1
    rank = _diagonalize(B, n, m)
    return SmithDecomposition(
        U=IntMatrix([row[m:] for row in B[:n]], rows=n, cols=n),
        S=IntMatrix([row[:m] for row in B[:n]], rows=n, cols=m),
        V=IntMatrix([row[:m] for row in B[n:]], rows=m, cols=m),
        invariant_factors=tuple(B[i][i] for i in range(rank)))


def sparse_invariant_factors(columns):
    """Invariant factors of the integer matrix with the given columns.

    Each column is a {row: entry} dict with no zero entries; the input is
    not modified.  Pivots of absolute value 1 are eliminated sparsely,
    always from a shortest column that holds one, which keeps fill-in
    low; each adds one factor 1.  The dense block that is left is
    diagonalized on its own, with no transforms.  The Smith normal form
    is unique, so the result equals smith(A).invariant_factors.
    """
    cols = [dict(col) for col in columns]
    in_row = {}     # row -> ids of the columns with an entry in that row
    by_size = {}    # entry count -> ids of the columns not yet tried
    for j, col in enumerate(cols):
        for i in col:
            in_row.setdefault(i, set()).add(j)
        if col:
            by_size.setdefault(len(col), set()).add(j)
    units = 0
    while by_size:
        size = min(by_size)
        bucket = by_size[size]
        j = bucket.pop()
        if not bucket:
            del by_size[size]
        col = cols[j]
        piv = min((i for i, a in col.items() if a in (1, -1)),
                  key=lambda i: len(in_row[i]), default=None)
        if piv is None:
            continue  # no unit now; retried only if a later pivot changes it
        # Column operations clear row piv outside column j; row piv is then
        # a unit row, so column j and row piv split off as a factor 1.
        p = col[piv]
        for k in in_row[piv] - {j}:
            other = cols[k]
            old_size = len(other)
            q = other[piv] * p
            for i, a in col.items():
                b = other.get(i, 0) - q * a
                if not b:
                    del other[i]
                    in_row[i].discard(k)
                else:
                    if i not in other:
                        in_row[i].add(k)
                    other[i] = b
            old = by_size.get(old_size)
            if old is not None:
                old.discard(k)
                if not old:
                    del by_size[old_size]
            if other:
                by_size.setdefault(len(other), set()).add(k)
        for i in col:
            in_row[i].discard(j)
        cols[j] = {}
        units += 1
    left = [col for col in cols if col]
    if not left:
        return (1,) * units
    rows = sorted(set().union(*left))
    dense = [[col.get(i, 0) for col in left] for i in rows]
    rank = _diagonalize(dense, len(rows), len(left))
    return (1,) * units + tuple(dense[i][i] for i in range(rank))


def kernel_lattice(A):
    """Basis (as rows) of the saturated lattice {x in Z^cols : A x^T = 0}.

    The basis vectors are the last cols - rank(A) columns of V from the
    Smith decomposition, hence automatically primitive.
    """
    sd = smith(A)
    r = sd.rank
    vt = sd.V.transpose()
    return IntMatrix(vt.data[r:], rows=A.cols - r, cols=A.cols)


def is_primitive_cols(k, columns):
    """True iff the k-row matrix with these columns (each a length-k
    sequence) has rank k and all invariant factors 1, that is, iff the
    columns generate Z^k.

    This is the one primitivity test of the package: the rows then span a
    direct summand, and the torus map the columns define is injective.
    Bareiss elimination gives the rank over Q and, at rank k, the nonzero
    minor on its pivot columns; a minor of +-1 answers True at once.
    Otherwise the columns generate Z^k iff the Hermite normal form of
    their lattice is I_k.  No Smith form is built.
    """
    columns = list(columns)
    return _generates(k, *_bareiss(zip(*columns), len(columns)), columns)


def is_primitive_rows(A):
    """True iff the rows span a rank-rows direct summand of Z^cols: the
    test of is_primitive_cols, with Bareiss run on the rows as they are
    and the columns built only for the Hermite form."""
    return _generates(A.rows, *_bareiss(A.data, A.cols), zip(*A.data))


def _generates(k, rank, D, columns):
    """Do columns generate Z^k, given the Bareiss rank and last pivot D
    of the k-row matrix they form?"""
    if rank < k:
        return False
    return D in (1, -1) or hermite_normal_form_rows(columns) == tuple(
        tuple(int(i == j) for j in range(k)) for i in range(k))


@dataclass(frozen=True)
class AbelianGroupPresentation:
    """Z^ambient / (column lattice), in Smith-normalized coordinates.

    generator_images column j gives the image of the j-th ambient basis
    vector; its rows are the torsion coordinates (mod their invariant
    factor, in divisibility order) followed by the free coordinates.
    """

    free_rank: int
    torsion: tuple
    generator_images: IntMatrix

    def vanishes(self, vec):
        """Is the class of vec, a vector of Z^ambient, zero in the group?

        That is, does vec lie in the column lattice: each torsion
        coordinate of its image is 0 mod its factor and each free
        coordinate is 0.
        """
        G = self.generator_images
        if len(vec) != G.cols:
            raise ValueError("vector length does not match row count")
        t = len(self.torsion)
        for i, row in enumerate(G.data):
            c = sum(a * x for a, x in zip(row, vec))
            if (c % self.torsion[i] if i < t else c) != 0:
                return False
        return True


def cokernel(A):
    """Presentation of Z^rows / image(x -> A x)."""
    sd = smith(A)
    r = sd.rank
    torsion = tuple(d for d in sd.invariant_factors if d > 1)
    # Each factor divides the next, so the factors 1 come first and the
    # torsion rows are the last len(torsion) of U's first r rows.
    images = [[x % d for x in row]
              for row, d in zip(sd.U.data[r - len(torsion):r], torsion)]
    images += sd.U.data[r:]
    return AbelianGroupPresentation(
        free_rank=A.rows - r, torsion=torsion,
        generator_images=IntMatrix(images, rows=len(images), cols=A.rows))


def _xgcd(a, b):
    """(g, s, t) with s a + t b == g == gcd(a, b) > 0, for a, b not both 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def hermite_normal_form_rows(rows):
    """Row-style Hermite normal form of the lattice spanned by rows (a
    sequence of equal-length integer sequences), as a tuple of row tuples
    with zero rows dropped.

    Column by column, the first row with a nonzero entry becomes the
    pivot row and every lower row with a nonzero entry is folded into it:
    by a quotient step when the pivot divides the entry, else by one
    unimodular 2 x 2 extended-gcd step that leaves the gcd in the pivot
    row and 0 below it (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4).  Canonical: pivots positive, entries above each pivot
    reduced into [0, pivot).  Two integer matrices span the same row
    lattice iff their HNFs are equal, which is how lattice equality,
    search dedup and primitivity work.
    """
    H = [list(row) for row in rows]
    nrows = len(H)
    ncols = len(H[0]) if H else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if H[i][c]), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        P = H[r]
        for i in range(r + 1, nrows):
            b = H[i][c]
            if not b:
                continue
            a = P[c]
            if b % a == 0:
                q = b // a
                H[i] = [x - q * y for x, y in zip(H[i], P)]
            else:
                g, s, t = _xgcd(a, b)
                p, q = a // g, b // g
                P, H[i] = ([s * y + t * x for x, y in zip(H[i], P)],
                           [p * x - q * y for x, y in zip(H[i], P)])
        if P[c] < 0:
            P = [-x for x in P]
        H[r] = P
        for i in range(r):
            q = H[i][c] // P[c]
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], P)]
        r += 1
    return tuple(map(tuple, H[:r]))


def hermite_normal_form(A):
    """Row-style Hermite normal form of A's row lattice, as an IntMatrix;
    see hermite_normal_form_rows."""
    H = hermite_normal_form_rows(A.data)
    return IntMatrix(H, rows=len(H), cols=A.cols)


def row_lattice_equal(A, B):
    if A.cols != B.cols:
        return False
    return hermite_normal_form(A) == hermite_normal_form(B)


# ---------------------------------------------------------------------------
# GF(2) helpers (bitmask rows) shared by homology and the face-ring code.

def rows_to_bitmasks(A):
    out = []
    for row in A.data:
        mask = 0
        for j, a in enumerate(row):
            if a & 1:
                mask |= 1 << j
        out.append(mask)
    return out


def rref_mod2(bitrows):
    """Reduced row echelon form over GF(2).

    Returns (rows, pivots): reduced nonzero rows and their pivot bit
    positions, both sorted by pivot position.  A pivot is a row's highest
    bit.  The forward pass costs O(n r) row XORs for n input rows and
    rank r.  The back-substitution costs one XOR per pivot bit set below
    a row's own pivot, at most r (r - 1) / 2 and usually far fewer,
    instead of testing all r^2 pivot/row pairs.
    """
    basis = {}  # pivot position -> row
    for row in bitrows:
        while row:
            p = row.bit_length() - 1
            if p in basis:
                row ^= basis[p]
            else:
                basis[p] = row
                break
    pivots = sorted(basis)
    pivot_mask = 0
    for p in pivots:
        pivot_mask |= 1 << p
    # Back-substitute in ascending pivot order.  The rows with lower
    # pivots are already fully reduced, so each XOR clears exactly the
    # pivot bit it is made for and sets no other pivot bit.
    rows = []
    for p in pivots:
        row = basis[p]
        below = row & pivot_mask & ~(1 << p)
        while below:
            q = below & -below
            row ^= basis[q.bit_length() - 1]
            below ^= q
        basis[p] = row
        rows.append(row)
    return rows, pivots


def rank_mod2(A):
    rows, _ = rref_mod2(rows_to_bitmasks(A))
    return len(rows)
