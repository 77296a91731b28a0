import json
import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from momentangle import charclasses
from momentangle.charclasses import (GradedMod2Ring, _poly_mul,
                                     face_ring_mod2, h2_of_quotient,
                                     mod2_class, sw_numbers, sw_triviality,
                                     total_sw_class, w2_of_quotient)
from momentangle.cli import main
from momentangle.intlinalg import IntMatrix, rows_to_bitmasks, rref_mod2
from momentangle.simplicial import boundary_of_simplex, new_complex
from momentangle.torus import (cyclic69_quotient_matrix, quotient_projection,
                               cyclic69_free_subtorus)
from oracles import image_contains


def lucas_binom_mod2(n, k):
    """Lucas' theorem over GF(2): C(n,k) is odd iff k's bits are a subset
    of n's bits."""
    return 1 if (n & k) == k else 0


def cpn_ring(n, gdeg=2):
    K = boundary_of_simplex(n)
    lam = IntMatrix([[int(i == j) for j in range(n)] + [1]
                     for i in range(n)])
    return face_ring_mod2(K, lam, generator_degree=gdeg)


def random_unimodular(rng, n):
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return IntMatrix(M)


class TestH2:
    def test_reference_quotient(self):
        pres = h2_of_quotient(cyclic69_quotient_matrix())
        assert pres.free_rank == 2
        assert pres.torsion == ()
        # v3..v9 reduce to words in v1, v2 exactly as expected.
        qt = cyclic69_quotient_matrix().transpose()
        for gen, expr in [(3, (1,)), (4, (2,)), (5, (1,)), (6, (2,)),
                          (7, (1,)), (8, (2,)), (9, (1, 2))]:
            vec = [0] * 9
            vec[gen - 1] = 1
            for b in expr:
                vec[b - 1] -= 1
            assert image_contains(qt, vec)

    def test_toy_circle_quotient(self):
        pres = h2_of_quotient(IntMatrix([[1, -1]]))
        assert pres.free_rank == 1
        assert pres.torsion == ()
        # Both generators map to the same element of the cokernel.
        assert image_contains(IntMatrix([[1], [-1]]), [1, -1])

    def test_identity_gives_zero_group(self):
        pres = h2_of_quotient(IntMatrix.identity(3))
        assert pres.free_rank == 0
        assert pres.torsion == ()

    def test_invariance_under_gl(self):
        rng = random.Random(8)
        base = h2_of_quotient(cyclic69_quotient_matrix())
        for _ in range(10):
            G = random_unimodular(rng, 7)
            pres = h2_of_quotient(G @ cyclic69_quotient_matrix())
            assert pres.free_rank == base.free_rank
            assert pres.torsion == base.torsion


class TestW2:
    def test_reference_quotient_nonzero(self):
        cls, zero = w2_of_quotient(cyclic69_quotient_matrix())
        assert not zero
        assert cls.coords == (1, 1)  # [v1] + [v2]

    def test_all_ones_row_kills_w2(self):
        theta = IntMatrix([[1, 1, 1], [0, 1, 0]])
        _, zero = w2_of_quotient(theta)
        assert zero

    def test_paired_coordinates_even_case(self):
        # Mod-2 row space contains (1,1,0,0) and (0,0,1,1); their sum is
        # the all-ones vector.
        theta = IntMatrix([[1, -1, 0, 0], [0, 0, 1, -1]])
        _, zero = w2_of_quotient(theta)
        assert zero

    def test_verdict_invariant_under_gl_and_rederivation(self):
        rng = random.Random(12)
        Q = cyclic69_quotient_matrix()
        for _ in range(10):
            G = random_unimodular(rng, 7)
            _, zero = w2_of_quotient(G @ Q)
            assert not zero
        Q2 = quotient_projection(cyclic69_free_subtorus())
        _, zero = w2_of_quotient(Q2)
        assert not zero

    def test_mod2_class(self):
        theta = IntMatrix([[1, -1, 0, 0], [0, 0, 3, 1]])
        assert mod2_class(theta, [3, 1, 2, 0]).is_zero()  # row 1 mod 2
        assert mod2_class(theta, [1, 1, 1, 1]).is_zero()  # sum of rows
        cls = mod2_class(theta, [1, 0, 0, 0])
        assert cls.coords == (1, 0)
        assert cls.ambient == "H^2 of quotient, mod 2; basis [v1], [v3]"


def mod2_residue(theta, vec):
    """The reduction of vec mod 2 and mod the mod-2 row space of theta, as
    a bitmask, with the pivots of theta's rref_mod2: the w2 path before
    the generator classes were shared with the face ring, kept here as
    the oracle."""
    rows, pivots = rref_mod2(rows_to_bitmasks(theta))
    mask = 0
    for j, b in enumerate(vec):
        if b & 1:
            mask |= 1 << j
    for row, p in zip(rows, pivots):
        if (mask >> p) & 1:
            mask ^= row
    return mask, pivots


def test_mod2_class_matches_residue_oracle():
    rng = random.Random(10)
    for r in range(7):
        for m in range(10):
            for _ in range(6):
                data = [[rng.randint(-3, 3) for _ in range(m)]
                        for _ in range(r)]
                if r >= 2 and rng.random() < 0.5:
                    # A row equal to another mod 2.
                    i, k = rng.sample(range(r), 2)
                    data[k] = [a + 2 * rng.randint(-1, 1) for a in data[i]]
                if r and rng.random() < 0.3:
                    data[rng.randrange(r)] = [2 * rng.randint(-1, 1)
                                              for _ in range(m)]
                theta = IntMatrix(data, rows=r, cols=m)
                vecs = [[rng.randint(-4, 4) for _ in range(m)],
                        [2 * rng.randint(-2, 2) for _ in range(m)],
                        [1] * m, [0] * m]
                vecs += [list(row) for row in data]
                for vec in vecs:
                    residue, pivots = mod2_residue(theta, vec)
                    basis = [j for j in range(m) if j not in pivots]
                    cls = mod2_class(theta, vec)
                    assert cls.coords == tuple((residue >> j) & 1
                                               for j in basis)
                    assert cls.is_zero() == (residue == 0)
                cls, zero = w2_of_quotient(theta)
                assert zero == (mod2_residue(theta, [1] * m)[0] == 0)
                assert cls == mod2_class(theta, [1] * m)


class TestFaceRing:
    def test_cpn_is_truncated_polynomial_ring(self):
        for n in (1, 2, 3, 5):
            R = cpn_ring(n)
            assert [R.dim(t) for t in range(n + 1)] == [1] * (n + 1)
            assert R.top == n

    def test_square_boundary_profile(self):
        K = new_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        R = face_ring_mod2(K, IntMatrix([[1, 0, 1, 0], [0, 1, 0, 1]]))
        assert [R.dim(t) for t in range(R.top + 1)] == [1, 2, 1]

    def test_point_ring(self):
        R = face_ring_mod2(new_complex(1, [(1,)]), IntMatrix([[1]]))
        assert R.top == 0
        assert R.dim(0) == 1

    def test_non_characteristic_rejected(self):
        K = boundary_of_simplex(2)
        lam = IntMatrix([[1, 0, 1], [0, 0, 0]])
        with pytest.raises(ValueError):
            face_ring_mod2(K, lam)

    def test_singular_facet_found_among_many(self):
        # Independent rows, but v1 = v4 mod 2 on the facet {1, 4}.
        K = new_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(ValueError, match=r"facet \(1, 4\)"):
            face_ring_mod2(K, IntMatrix([[1, 0, 1, 3], [0, 1, 1, 2]]))

    def test_non_pure_rejected(self):
        K = new_complex(3, [(1, 2), (3,)])
        with pytest.raises(ValueError):
            face_ring_mod2(K, IntMatrix([[1, 0, 1], [0, 1, 1]]))

    def test_palindromic_dims_and_nondegenerate_pairing(self):
        rings = [cpn_ring(n) for n in (2, 3, 4, 6, 8)]
        K4 = new_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        rings.append(face_ring_mod2(K4, IntMatrix([[1, 0, 1, 0],
                                                   [0, 1, 0, 1]])))
        for R in rings:
            top = R.top
            dims = [R.dim(t) for t in range(top + 1)]
            assert dims == dims[::-1]
            for j in range(top + 1):
                # Gram matrix of deg j x deg (top - j) -> top must be
                # nondegenerate over GF(2).
                bj = R.basis(j)
                bk = R.basis(top - j)
                gram = []
                for a in bj:
                    row = []
                    for b in bk:
                        prod = R.multiply(frozenset({a}), j,
                                          frozenset({b}), top - j)
                        row.append(R.fundamental_pairing(prod))
                    gram.append(row)
                # Row reduce over GF(2) and demand full rank.
                rows = [int("".join(map(str, r)), 2) if r else 0
                        for r in gram]
                basis = {}
                for r in rows:
                    while r:
                        p = r.bit_length() - 1
                        if p in basis:
                            r ^= basis[p]
                        else:
                            basis[p] = r
                            break
                assert len(basis) == len(bj) == len(bk)


class TestTotalSwClass:
    def test_cpn_matches_binomials(self):
        for n in range(1, 11):
            R = cpn_ring(n)
            classes = total_sw_class(R)
            assert len(classes) == n + 1
            for j, cls in enumerate(classes):
                want = lucas_binom_mod2(n + 1, j)
                assert (0 if cls.is_zero() else 1) == want, (n, j)

    def test_w0_is_one(self):
        for R in [cpn_ring(3), cpn_ring(4, gdeg=1)]:
            assert total_sw_class(R)[0].coords == (1,)

    def test_cp3_positive_classes_vanish(self):
        classes = total_sw_class(cpn_ring(3))
        assert all(c.is_zero() for c in classes[1:])

    def test_real_projective_space_small_cover(self):
        # Same combinatorics at generator degree 1.
        for n in (2, 3, 4):
            R = cpn_ring(n, gdeg=1)
            for j, cls in enumerate(total_sw_class(R)):
                assert (0 if cls.is_zero() else 1) == lucas_binom_mod2(
                    n + 1, j)


class TestSwTrivialityAndNumbers:
    def test_triviality_iff_power_of_two(self):
        for n in range(1, 17):
            assert sw_triviality(cpn_ring(n)) == ((n + 1) & n == 0), n

    def test_cp2_numbers(self):
        nums = sw_numbers(cpn_ring(2))
        assert nums == {"w2^2": 1, "w4": 1}

    def test_cp3_numbers_all_vanish(self):
        assert all(v == 0 for v in sw_numbers(cpn_ring(3)).values())

    def test_small_cover_number_keys(self):
        nums = sw_numbers(cpn_ring(2, gdeg=1))
        assert set(nums) == {"w1^2", "w2"}

    def test_numbers_need_a_fundamental_class(self):
        # Two disjoint edges: the ring stops at degree 1, of dimension 2.
        K = new_complex(4, [(1, 2), (3, 4)])
        R = face_ring_mod2(K, IntMatrix([[1, 0, 1, 0], [0, 1, 0, 1]]))
        assert R.top == 1 and R.dim(1) == 2 and R.dim(2) == 0
        with pytest.raises(ValueError, match="no fundamental class: top "
                           "degree dimension is 2"):
            sw_numbers(R)


# ---------------------------------------------------------------------------
# Differential tests against the face ring on exponent tuples.

def tuple_poly_mul(p, q):
    acc = set()
    for a in p:
        for b in q:
            mono = tuple(x + y for x, y in zip(a, b))
            acc.symmetric_difference_update((mono,))
    return frozenset(acc)


class TupleRing:
    """The graded mod-2 face ring on frozensets of exponent tuples, reduced
    by testing every pivot row: the arithmetic GradedMod2Ring had before
    monomials were packed into ints, kept here as the oracle."""

    def __init__(self, K, lam):
        self.m = K.m
        self.n = K.dimension + 1
        rows, pivots = rref_mod2(rows_to_bitmasks(lam))
        free = [j for j in range(K.m) if j not in set(pivots)]
        self.nfree = len(free)

        def unit(j):
            return frozenset({tuple(int(i == free.index(j))
                                    for i in range(self.nfree))})

        self.subst = {j: unit(j) for j in free}
        for row, p in zip(rows, pivots):
            poly = frozenset()
            for j in free:
                if (row >> j) & 1:
                    poly ^= unit(j)
            self.subst[p] = poly
        self.relations = []
        for nonface in K.minimal_nonfaces():
            poly = frozenset({(0,) * self.nfree})
            for v in nonface:
                poly = tuple_poly_mul(poly, self.subst[v - 1])
            if poly:
                self.relations.append((len(nonface), poly))
        self.cache = {}
        self.bases = {}
        self.mono_cache = {}

    def monomials(self, t):
        if self.nfree == 0:
            return [()] if t == 0 else []
        out = []
        for combo in combinations_with_replacement(range(self.nfree), t):
            e = [0] * self.nfree
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
        return out

    def degree(self, t):
        if t not in self.cache:
            monos = self.monomials(t)
            index = {mono: i for i, mono in enumerate(monos)}
            ideal_rows = []
            for deg, poly in self.relations:
                if deg > t:
                    continue
                for mono in self.monomials(t - deg):
                    mask = 0
                    for mm in tuple_poly_mul(frozenset({mono}), poly):
                        mask |= 1 << index[mm]
                    if mask:
                        ideal_rows.append(mask)
            rows, pivots = rref_mod2(ideal_rows)
            self.cache[t] = (monos, index, rows, pivots)
        return self.cache[t]

    def dim(self, t):
        monos, _, rows, _ = self.degree(t)
        return len(monos) - len(rows)

    def basis(self, t):
        monos, _, _, pivots = self.degree(t)
        pset = set(pivots)
        return [mono for i, mono in enumerate(monos) if i not in pset]

    @property
    def top(self):
        return max(t for t in range(self.n + 1) if self.dim(t) > 0)

    def reduce(self, poly, t):
        monos, index, rows, pivots = self.degree(t)
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

    def reduce_monomial(self, mono):
        # reduce is linear: the multiplication table needs each product
        # monomial reduced once.
        if mono not in self.mono_cache:
            self.mono_cache[mono] = self.reduce(frozenset({mono}), sum(mono))
        return self.mono_cache[mono]

    def coords(self, poly, t):
        if t not in self.bases:
            self.bases[t] = self.basis(t)
        return tuple(int(mono in poly) for mono in self.bases[t])

    def total_class(self):
        parts = {0: frozenset({(0,) * self.nfree})}
        for i in range(self.m):
            new = {}
            for t, poly in parts.items():
                new[t] = new.get(t, frozenset()) ^ poly
                if t + 1 <= self.n:
                    new[t + 1] = new.get(t + 1, frozenset()) ^ \
                        tuple_poly_mul(poly, self.subst[i])
            parts = {t: self.reduce(p, t) for t, p in new.items()}
        return [parts.get(j, frozenset()) for j in range(self.top + 1)]

    @staticmethod
    def partitions(total, largest):
        if total == 0:
            yield ()
            return
        for part in range(min(total, largest), 0, -1):
            for rest in TupleRing.partitions(total - part, part):
                yield (part,) + rest

    def sw_numbers(self, gdeg):
        polys = self.total_class()
        out = {}
        for partition in self.partitions(self.top, self.top):
            acc = frozenset({(0,) * self.nfree})
            t = 0
            for part in partition:
                acc = self.reduce(tuple_poly_mul(acc, polys[part]), t + part)
                t += part
            names = []
            for part in sorted(set(partition), reverse=True):
                e = partition.count(part)
                name = f"w{part * gdeg}"
                names.append(name if e == 1 else f"{name}^{e}")
            out[" ".join(names)] = 1 if acc else 0
        return out


def projective_product(exponents):
    """(K, lambda) of prod P^{a_i}: the join of simplex boundaries on
    consecutive vertex blocks, with block i of lambda = [I_{a_i} | -1]."""
    blocks, start = [], 1
    for a in exponents:
        blocks.append(range(start, start + a + 1))
        start += a + 1
    m = start - 1
    K = new_complex(m, [sum(choice, ()) for choice in
                        product(*[combinations(b, len(b) - 1)
                                  for b in blocks])])
    lam = [[0] * m for _ in range(sum(exponents))]
    row = 0
    for a, block in zip(exponents, blocks):
        for i in range(a):
            lam[row + i][block[i] - 1] = 1
            lam[row + i][block[-1] - 1] = -1
        row += a
    return K, IntMatrix(lam)


def square_ring_input():
    K = new_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    return K, IntMatrix([[1, 0, 1, 0], [0, 1, 0, 1]])


DIFFERENTIAL_CASES = (
    [(f"cp{n}-g{g}", (n,), g) for n in range(1, 9) for g in (1, 2)]
    + [(f"cp2x{k}", (2,) * k, 2) for k in range(1, 6)]
    + [("cp3x3", (3, 3, 3), 2), ("cp1cp2cp3", (1, 2, 3), 2),
       ("rp1x6", (1,) * 6, 1), ("square", None, 2)])


@pytest.mark.parametrize("label, exponents, gdeg", DIFFERENTIAL_CASES,
                         ids=[c[0] for c in DIFFERENTIAL_CASES])
def test_packed_ring_matches_tuple_ring(label, exponents, gdeg):
    if exponents is None:
        K, lam = square_ring_input()
    else:
        K, lam = projective_product(exponents)
    rng = random.Random(f"twist:{label}")
    lam = random_unimodular(rng, lam.rows) @ lam
    R = face_ring_mod2(K, lam, generator_degree=gdeg)
    O = TupleRing(K, lam)
    n = O.n
    for t in range(2 * n + 3):
        assert R.dim(t) == O.dim(t), t
        assert len(R.basis(t)) == len(O.basis(t)), t
    assert R.top == O.top

    # Products of basis monomials, also those that land above n.
    bases = [R.basis(t) for t in range(n + 1)]
    obases = [O.basis(t) for t in range(n + 1)]
    for i, j in combinations_with_replacement(range(n + 1), 2):
        for a, oa in zip(bases[i], obases[i]):
            for b, ob in zip(bases[j], obases[j]):
                got = R.coords(R.multiply(frozenset({a}), i,
                                          frozenset({b}), j), i + j)
                mono = tuple(x + y for x, y in zip(oa, ob))
                want = O.coords(O.reduce_monomial(mono), i + j)
                assert got == want, (i, j)

    classes = total_sw_class(R)
    want = O.total_class()
    assert [c.coords for c in classes] == [O.coords(p, j)
                                           for j, p in enumerate(want)]
    assert sw_numbers(R) == O.sw_numbers(gdeg)


W2_CASES = ([(f"cp{n}", (n,)) for n in range(1, 7)]
            + [(f"cp2x{k}", (2,) * k) for k in range(1, 6)]
            + [("cp3x3", (3, 3, 3)), ("cp1cp2cp3", (1, 2, 3)),
               ("rp1x6", (1,) * 6)])


@pytest.mark.parametrize("gdeg", (1, 2))
@pytest.mark.parametrize("label, exponents", W2_CASES,
                         ids=[c[0] for c in W2_CASES])
def test_w2_is_first_slice_of_total_class(label, exponents, gdeg):
    # The partial-quotient w2 of a characteristic matrix equals the
    # degree-one piece of the full quotient's total class: both are the
    # class of v_1 + ... + v_m on the non-pivot generators of the same
    # rref_mod2.
    K, lam = projective_product(exponents)
    rng = random.Random(f"w2:{label}:{gdeg}")
    for _ in range(3):
        twisted = random_unimodular(rng, lam.rows) @ lam
        cls, zero = w2_of_quotient(twisted)
        piece = total_sw_class(face_ring_mod2(K, twisted,
                                              generator_degree=gdeg))[1]
        assert cls.coords == piece.coords
        assert zero == piece.is_zero()


def colmask_first_singular(K, lam):
    """The ring's facet test before it read the generator classes: rank n
    mod 2 of the columns on each facet.  Returns "dependent" for
    dependent rows, else the first singular facet, else None."""
    n = K.dimension + 1
    bitrows = rows_to_bitmasks(lam)
    if len(rref_mod2(bitrows)[0]) != n:
        return "dependent"
    colmask = [sum(((row >> j) & 1) << i for i, row in enumerate(bitrows))
               for j in range(K.m)]
    for sigma in K.facets:
        if len(rref_mod2([colmask[v - 1] for v in sigma])[0]) != n:
            return sigma
    return None


def test_facet_test_matches_colmask_oracle():
    rng = random.Random(11)
    seen = set()
    cases = [(n,) for n in range(1, 7)] + [(2,) * k for k in range(1, 5)]
    for exponents in cases:
        K, lam = projective_product(exponents)
        for trial in range(12):
            data = [list(row) for row in
                    (random_unimodular(rng, lam.rows) @ lam).data]
            j = rng.randrange(K.m)
            for row in data:
                row[j] = rng.randint(-2, 2)
            if trial % 4 == 0:
                # A last row equal to the first mod 2, or even if alone.
                first = data[0] if len(data) > 1 else [0] * K.m
                data[-1] = [a + 2 * b for a, b in zip(first, data[-1])]
            lam2 = IntMatrix(data)
            want = colmask_first_singular(K, lam2)
            if want is None:
                face_ring_mod2(K, lam2)
                seen.add("accepted")
                continue
            with pytest.raises(ValueError) as exc:
                face_ring_mod2(K, lam2)
            if want == "dependent":
                assert str(exc.value) == \
                    "linear forms are not independent mod 2"
                seen.add("dependent")
            else:
                assert str(exc.value) == \
                    f"not characteristic mod 2: facet {want} is singular"
                seen.add("first" if want == K.facets[0] else "later")
    assert seen == {"accepted", "dependent", "first", "later"}


def test_sw_numbers_multiply_count_on_cp2x5(monkeypatch):
    # Each prefix of the 42 partitions of 10 is multiplied once.
    K, lam = projective_product((2,) * 5)
    R = face_ring_mod2(K, lam)
    calls = []
    multiply = GradedMod2Ring.multiply

    def counting(self, p, tp, q, tq):
        calls.append((tp, tq))
        return multiply(self, p, tp, q, tq)

    monkeypatch.setattr(GradedMod2Ring, "multiply", counting)
    nums = sw_numbers(R)
    assert len(nums) == 42
    assert len(calls) == 138


def test_square_ring_never_aliases():
    # n = 2 with two free generators: the fields hold exponents up to
    # 2n = 4, the degree of a product of two classes.  Degrees 5-8 are
    # reached by monomials whose exponents stay within that.
    K, lam = square_ring_input()
    R = face_ring_mod2(K, lam)
    O = TupleRing(K, lam)
    gens = R.basis(1)
    assert len(gens) == O.nfree == 2
    packed = {}
    for t in range(5):
        for e in O.monomials(t):
            poly = frozenset({0})
            for g, k in zip(gens, e):
                for _ in range(k):
                    poly = _poly_mul(poly, frozenset({g}))
            (packed[e],) = poly
    assert len(set(packed.values())) == len(packed) == 15
    seen = set()
    for e, f in product(packed, repeat=2):
        mono = tuple(x + y for x, y in zip(e, f))
        if max(mono) > 4:
            continue
        t = sum(mono)
        seen.add(t)
        got = R.reduce(frozenset({packed[e] + packed[f]}), t)
        want = O.reduce_monomial(mono)
        assert R.coords(got, t) == O.coords(want, t)
        assert bool(got) == bool(want)
    assert seen == set(range(9))
    for t in range(5, 9):
        assert R.dim(t) == O.dim(t) == 0
        assert R.basis(t) == [] and O.basis(t) == []
        assert R.reduce(frozenset(), t) == frozenset()


def test_reduce_rejects_wrong_degree():
    K, lam = square_ring_input()
    R = face_ring_mod2(K, lam)
    x, y = R.basis(1)
    xy = _poly_mul(frozenset({x}), frozenset({y}))
    for t in (0, 1, 3, 4, 6):
        with pytest.raises(ValueError):
            R.reduce(xy, t)
    with pytest.raises(ValueError):
        R.reduce(frozenset({(1, 1)}), 2)
    assert R.reduce(xy, 2) == R.reduce(R.reduce(xy, 2), 2)


def test_total_class_computed_once_per_sw_quasitoric(tmp_path, capsys,
                                                     monkeypatch):
    K, lam = projective_product((2, 2))
    cpath, lpath = tmp_path / "K.json", tmp_path / "lam.json"
    cpath.write_text(json.dumps(K.to_json()))
    lpath.write_text(json.dumps(lam.to_json()))
    calls = []
    expand = charclasses._expand_total_class

    def counting(R):
        calls.append(R)
        return expand(R)

    monkeypatch.setattr(charclasses, "_expand_total_class", counting)
    for _ in range(2):
        assert main(["sw-quasitoric", "--complex", str(cpath),
                     "--char", str(lpath)]) == 0
    out = capsys.readouterr().out
    assert '"sw_numbers"' in out
    assert len(calls) == 2 and calls[0] is not calls[1]
    R = calls[1]
    first = total_sw_class(R)
    first[0] = None
    assert total_sw_class(R)[0].coords == (1,)
    assert len(calls) == 2
