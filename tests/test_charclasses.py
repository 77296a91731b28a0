import random
from itertools import combinations_with_replacement

import pytest

from momentangle.charclasses import (face_ring_mod2, h2_of_quotient,
                                     mod2_residue, sw_numbers, sw_triviality,
                                     total_sw_class, w2_of_quotient)
from momentangle.intlinalg import IntMatrix, image_contains
from momentangle.simplicial import boundary_of_simplex, new_complex
from momentangle.torus import (cyclic69_quotient_matrix, quotient_projection,
                               cyclic69_free_subtorus)


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

    def test_mod2_residue(self):
        theta = IntMatrix([[1, -1, 0, 0], [0, 0, 3, 1]])
        assert mod2_residue(theta, [3, 1, 2, 0])[0] == 0  # row 1 mod 2
        assert mod2_residue(theta, [1, 1, 1, 1])[0] == 0  # sum of rows
        residue, pivots = mod2_residue(theta, [1, 0, 0, 0])
        assert residue == 0b0001 and pivots == [1, 3]


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
