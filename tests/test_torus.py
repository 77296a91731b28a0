import random
import time
from itertools import product

import pytest

import momentangle.torus
from momentangle.intlinalg import (IntMatrix, InternalError, det,
                                   hermite_normal_form, is_primitive_rows,
                                   kernel_lattice, row_lattice_equal, smith)
from momentangle.simplicial import (boundary_of_simplex,
                                    cyclic_polytope_boundary, new_complex)
from momentangle.torus import (FreenessTest, PreconditionError, Subtorus,
                               acts_freely, characteristic_duality_holds,
                               cyclic69_free_subtorus,
                               cyclic69_quotient_matrix,
                               extend_to_characteristic,
                               is_rational_characteristic,
                               quotient_projection, torus_from_kernel)
from oracles import acts_almost_freely, random_unimodular


def cpn_char_matrix(n):
    # Columns e_1..e_n, -(1..1): the standard projective-space matrix.
    return IntMatrix([[int(i == j) for j in range(n)] + [-1]
                      for i in range(n)])


class TestSubtorus:
    def test_rejects_non_primitive(self):
        with pytest.raises(ValueError):
            Subtorus(IntMatrix([[2, 0, 0]]))

    def test_wide_entries_stay_fast(self):
        # A primitivity test through the dense Smith form ran for more
        # than 40 s on a 10 x 50 matrix with entries in +-1000.
        rng = random.Random(50)
        rows = [[rng.randint(-1000, 1000) for _ in range(50)]
                for _ in range(10)]
        t0 = time.perf_counter()
        T = Subtorus(IntMatrix(rows))
        with pytest.raises(ValueError):
            Subtorus(IntMatrix([[3 * a for a in rows[0]]] + rows[1:]))
        assert time.perf_counter() - t0 < 10.0
        assert (T.k, T.m) == (10, 50)

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            Subtorus(IntMatrix([[1, 1], [2, 2]]))

    def test_json_roundtrip(self):
        T = cyclic69_free_subtorus()
        assert Subtorus.from_json(T.to_json()) == T


class TestHardcodedMatrices:
    def test_subtorus_rows(self):
        T = cyclic69_free_subtorus()
        assert T.matrix.data == ((1, 0, 1, 0, 1, 0, 1, 0, 1),
                                 (0, 1, 0, 1, 0, 1, 0, 1, 1))

    def test_quotient_matrix_shape(self):
        Q = cyclic69_quotient_matrix()
        assert (Q.rows, Q.cols) == (7, 9)

    def test_orthogonality(self):
        Q = cyclic69_quotient_matrix()
        T = cyclic69_free_subtorus()
        assert (Q @ T.matrix.transpose()).is_zero()

    def test_kernel_is_the_subtorus(self):
        Q = cyclic69_quotient_matrix()
        T = cyclic69_free_subtorus()
        assert row_lattice_equal(kernel_lattice(Q), T.matrix)


class TestFreeness:
    def test_reference_example(self):
        K = cyclic_polytope_boundary(6, 9)
        assert acts_freely(cyclic69_free_subtorus(), K).free

    def test_diagonal_circle(self):
        for K in [boundary_of_simplex(2), cyclic_polytope_boundary(2, 5)]:
            diag = Subtorus(IntMatrix([[1] * K.m]))
            assert acts_freely(diag, K).free

    def test_coordinate_circle_has_fixed_points(self):
        K = boundary_of_simplex(2)
        T = Subtorus(IntMatrix([[1, 0, 0]]))
        res = acts_freely(T, K)
        assert not res.free
        assert res.witness == (1, 2)  # canonically first offending facet

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            acts_freely(Subtorus(IntMatrix([[1, 0]])), boundary_of_simplex(2))

    def test_non_pure_rejected(self):
        K = new_complex(3, [(1, 2), (3,)])
        with pytest.raises(PreconditionError):
            acts_freely(Subtorus(IntMatrix([[1, 1, 1]])), K)

    def test_gl_invariance(self):
        K = cyclic_polytope_boundary(6, 9)
        T = cyclic69_free_subtorus()
        rng = random.Random(3)
        for _ in range(20):
            G = random_unimodular(rng, 2)
            assert acts_freely(Subtorus(G @ T.matrix), K).free

    def test_memo_is_capped_and_changes_no_answer(self, monkeypatch):
        monkeypatch.setattr(momentangle.torus, "FREENESS_MEMO_LIMIT", 5)
        comps = cyclic_polytope_boundary(6, 9).facet_complements()
        palette = list(product(range(-2, 3), repeat=2))
        rng = random.Random(8)
        test = FreenessTest(2, palette)
        for _ in range(200):
            columns = [(rng.randint(-2, 2), rng.randint(-2, 2))
                       for _ in range(9)]
            codes = [palette.index(col) for col in columns]
            assert (test.first_unfree(codes, comps)
                    == FreenessTest(2, palette).first_unfree(codes, comps))
        assert len(test.memo) == 5

    @pytest.mark.parametrize("limit", [5, 1 << 16])
    def test_free_codes_agree_with_first_unfree(self, monkeypatch, limit):
        # The search's child filter: code c passes when every complement
        # completed by the next column is free with c there.  On the
        # triangle boundary complement (1,) ends at column 1, so its
        # prefix mask is empty.
        monkeypatch.setattr(momentangle.torus, "FREENESS_MEMO_LIMIT", limit)
        rng = random.Random(5)
        for K, k in ((cyclic_polytope_boundary(6, 9), 2),
                     (boundary_of_simplex(2), 1)):
            comps = K.facet_complements()
            palette = list(product(range(-1, 3), repeat=k))
            test = FreenessTest(k, palette)
            for _ in range(150):
                depth = rng.randrange(K.m)
                codes = [rng.randrange(len(palette)) for _ in range(depth)]
                ending = [comp for comp in comps if comp[-1] == depth + 1]
                heads = [comp[:-1] for comp in ending]
                assert test.free_codes(codes, heads) == [
                    c for c in range(len(palette))
                    if FreenessTest(k, palette).first_unfree(
                        codes + [c], ending) is None]
            assert len(test.memo) <= limit

    def test_free_codes_within_a_starting_mask(self):
        # The search passes the codes that keep its rows sorted as the
        # starting mask: the answer is the unmasked one cut to the mask.
        rng = random.Random(11)
        K = cyclic_polytope_boundary(6, 9)
        comps = K.facet_complements()
        palette = list(product(range(-1, 3), repeat=2))
        test = FreenessTest(2, palette)
        for _ in range(150):
            depth = rng.randrange(K.m)
            codes = [rng.randrange(len(palette)) for _ in range(depth)]
            heads = [comp[:-1] for comp in comps if comp[-1] == depth + 1]
            mask = rng.getrandbits(len(palette))
            assert test.free_codes(codes, heads, mask) == [
                c for c in test.free_codes(codes, heads) if mask >> c & 1]

    @pytest.mark.parametrize("limit", [3, 1 << 16])
    def test_child_masks_match_the_definition(self, monkeypatch, limit):
        # One instance serves a stream of random palettes, codes and
        # heads.  A low palette cap makes code() start over mid-stream,
        # and each new code must clear the child masks, which describe
        # the old palette; the masks stay within the memo's cap.
        monkeypatch.setattr(momentangle.torus, "FREENESS_MEMO_LIMIT", limit)
        monkeypatch.setattr(momentangle.torus, "FREENESS_PALETTE_LIMIT", 12)
        rng = random.Random(24)
        test = FreenessTest(2)
        restarts = hits = 0
        for _ in range(300):
            old = list(test.palette)
            codes = test.code([(rng.randint(-2, 2), rng.randint(-2, 2))
                               for _ in range(rng.randint(0, 6))])
            if test.palette != old:
                assert test.children == {}
                restarts += test.palette[:len(old)] != old
            palette = list(test.palette)
            if not palette:
                continue
            for _ in range(3):
                heads = [sorted(rng.sample(range(1, len(codes) + 1),
                                           rng.randint(0, len(codes))))
                         for _ in range(rng.randint(0, 3))]
                comps = [head + [len(codes) + 1] for head in heads]
                want = [c for c in range(len(palette))
                        if FreenessTest(2, palette).first_unfree(
                            codes + [c], comps) is None]
                assert test.free_codes(codes, heads) == want
                hits += 0 < len(want) < len(palette)
                assert len(test.children) <= limit
        assert restarts > 5 and hits > 50


class TestAlmostFreeness:
    def test_free_implies_almost_free(self):
        K = cyclic_polytope_boundary(6, 9)
        assert acts_almost_freely(cyclic69_free_subtorus(), K)

    def test_rank_deficiency(self):
        K = new_complex(3, [(1,)])
        T = Subtorus(IntMatrix([[1, 0, 0], [0, 1, 2]]))
        assert not acts_almost_freely(T, K)

    def test_kernel_torus_of_characteristic_matrix(self):
        K = boundary_of_simplex(3)
        lam = cpn_char_matrix(3)
        assert acts_almost_freely(torus_from_kernel(lam), K)


class TestRationalCharacteristic:
    def test_projective_matrix(self):
        for n in (2, 3, 5):
            assert is_rational_characteristic(cpn_char_matrix(n),
                                              boundary_of_simplex(n))

    def test_zero_column_fails(self):
        lam = IntMatrix([[1, 0, 0], [0, 1, 0]])
        assert not is_rational_characteristic(lam, boundary_of_simplex(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            is_rational_characteristic(IntMatrix([[1, 1]]),
                                       boundary_of_simplex(2))


class TestDuality:
    def test_block_case(self):
        K = new_complex(4, [(1, 2)])
        lam = IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])
        theta = IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1]])
        assert characteristic_duality_holds(lam, theta, K)

    def test_randomized_orthogonal_pairs(self):
        rng = random.Random(17)
        trials = 0
        while trials < 100:
            m = rng.randint(3, 9)
            n = rng.randint(1, m - 1)
            lam = IntMatrix([[rng.randint(-4, 4) for _ in range(m)]
                             for _ in range(n)])
            theta = kernel_lattice(lam)
            if theta.rows != m - n:
                continue  # lam was rank-deficient; skip
            faces = set()
            for _ in range(rng.randint(1, 6)):
                faces.add(tuple(sorted(rng.sample(range(1, m + 1), n))))
            K = new_complex(m, faces)
            assert characteristic_duality_holds(lam, theta, K)
            trials += 1

    def test_broken_orthogonality_is_an_error(self):
        K = new_complex(4, [(1, 2)])
        lam = IntMatrix([[1, 0, 0, 0], [0, 1, 0, 0]])
        theta = IntMatrix([[1, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(PreconditionError):
            characteristic_duality_holds(lam, theta, K)


class TestTorusFromKernel:
    def test_diagonal_circle(self):
        T = torus_from_kernel(cpn_char_matrix(3))
        assert T.k == 1
        assert T.matrix.data[0] in ((1, 1, 1, 1), (-1, -1, -1, -1))

    def test_reference_quotient_matrix(self):
        T = torus_from_kernel(cyclic69_quotient_matrix())
        assert T.k == 2
        assert row_lattice_equal(T.matrix,
                                 cyclic69_free_subtorus().matrix)

    def test_identity_gives_trivial_torus(self):
        assert torus_from_kernel(IntMatrix.identity(3)).k == 0


class TestExtension:
    def test_reference_example(self):
        K = cyclic_polytope_boundary(6, 9)
        T = cyclic69_free_subtorus()
        res = extend_to_characteristic(T, K, entry_bound=3,
                                       max_tries=10_000, seed=2024)
        assert res.success
        assert res.theta_full.rows == 3
        assert res.theta_full.data[:2] == T.matrix.data
        # The kernel torus of the produced matrix contains T.
        TL = torus_from_kernel(res.lam)
        stacked = TL.matrix.stack(T.matrix)
        assert hermite_normal_form(stacked) == hermite_normal_form(TL.matrix)
        assert acts_almost_freely(TL, K)
        assert is_rational_characteristic(res.lam, K)

    def test_trivial_torus_on_triangle(self):
        K = boundary_of_simplex(2)
        T = Subtorus(IntMatrix([], rows=0, cols=3))
        res = extend_to_characteristic(T, K, entry_bound=1, seed=5)
        assert res.success
        assert res.theta_full.rows == 1
        assert all(x != 0 for x in res.theta_full.data[0])

    def test_nothing_to_extend(self):
        K = boundary_of_simplex(2)
        T = Subtorus(IntMatrix([[1, 1, 1]]))
        res = extend_to_characteristic(T, K, seed=0)
        assert res.success
        assert res.theta_full == T.matrix
        assert res.tries == 1

    def test_full_size_torus_names_its_singular_facet(self):
        # With k = m - n no row is drawn, so the failure names a facet on
        # whose complement the torus's own minor is zero, not a bound.
        K = cyclic_polytope_boundary(6, 9)
        T = Subtorus(IntMatrix([[int(i == j) for j in range(9)]
                                for i in range(3)]))
        res = extend_to_characteristic(T, K, seed=1)
        assert (res.success, res.tries) == (False, 1)
        assert "entry bound" not in res.message
        assert res.message.startswith("no row drawn")
        assert res.message.endswith("facet [1, 2, 3, 4, 5, 6] is zero")
        assert det(T.matrix.submatrix_cols((7, 8, 9))) == 0

    def test_seed_is_required(self):
        # An unseeded extension could not be reproduced: the seed is a
        # keyword without a default, and None is refused.
        K = boundary_of_simplex(2)
        T = Subtorus(IntMatrix([], rows=0, cols=3))
        with pytest.raises(TypeError):
            extend_to_characteristic(T, K)
        with pytest.raises(TypeError):
            extend_to_characteristic(T, K, 1, 1, 5)
        with pytest.raises(ValueError, match="explicit seed"):
            extend_to_characteristic(T, K, seed=None)

    def test_dimension_too_large(self):
        K = boundary_of_simplex(2)
        with pytest.raises(ValueError):
            extend_to_characteristic(
                Subtorus(IntMatrix([[1, 0, 0], [0, 1, 0]])), K, seed=0)

    def test_failure_is_reported_not_raised(self):
        K = boundary_of_simplex(2)
        T = Subtorus(IntMatrix([[1, 0, 0]]))  # fixes points; cannot extend?
        res = extend_to_characteristic(T, K, seed=0)
        assert res.tries == 1
        assert not res.success or res.theta_full is not None

    @pytest.mark.parametrize("kwargs, named", [
        ({"entry_bound": 0}, "0"), ({"entry_bound": -2}, "-2"),
        ({"max_tries": 0}, "0"), ({"max_tries": -5}, "-5")])
    def test_futile_ranges_rejected(self, kwargs, named):
        K = cyclic_polytope_boundary(6, 9)
        with pytest.raises(ValueError, match=f"got {named}$"):
            extend_to_characteristic(cyclic69_free_subtorus(), K, seed=0,
                                     **kwargs)

    def test_smallest_ranges_accepted(self):
        K = boundary_of_simplex(2)
        T = Subtorus(IntMatrix([], rows=0, cols=3))
        res = extend_to_characteristic(T, K, entry_bound=1, max_tries=1,
                                       seed=5)
        assert res.tries == 1

    def test_non_characteristic_kernel_is_internal_error(self,
                                                         monkeypatch):
        # Nonzero complement minors make the kernel characteristic (Gale
        # duality), so a kernel that is not is a broken postcondition,
        # not a reason to draw again.  Seed 1 succeeds at its 6th try.
        monkeypatch.setattr(momentangle.torus, "is_rational_characteristic",
                            lambda lam, K: False)
        with pytest.raises(InternalError, match="not characteristic"):
            extend_to_characteristic(cyclic69_free_subtorus(),
                                     cyclic_polytope_boundary(6, 9),
                                     entry_bound=3, max_tries=50, seed=1)

    @pytest.mark.parametrize("seed, tries, drawn, lam", [
        (3, 28, (3, -3, 1, 2, 2, -2, -1, 1, -2),
         ((-5, -1, 0, 1, 5, 0, 0, 0, 0), (1, 0, 1, 0, -2, 0, 0, 0, 0),
          (-1, -1, 0, 0, 1, 1, 0, 0, 0), (3, 0, 0, 0, -4, 0, 1, 0, 0),
          (-4, -1, 0, 0, 4, 0, 0, 1, 0), (1, -1, 0, 0, -2, 0, 0, 0, 1))),
        (11, 89, (-2, 1, -1, -3, 2, 2, -3, 3, -2),
         ((-4, -1, 4, 1, 0, 0, 0, 0, 0), (3, 0, -4, 0, 1, 0, 0, 0, 0),
          (1, -1, -1, 0, 0, 1, 0, 0, 0), (-2, 0, 1, 0, 0, 0, 1, 0, 0),
          (2, -1, -2, 0, 0, 0, 0, 1, 0), (-2, -1, 1, 0, 0, 0, 0, 0, 1))),
        (2024, 41, (-3, 1, 2, 2, -1, 0, 1, -2, 3),
         ((-1, 5, 1, -5, 0, 0, 0, 0, 0), (-1, 2, 0, -2, 1, 0, 0, 0, 0),
          (0, -2, 0, 1, 0, 1, 0, 0, 0), (-1, 4, 0, -4, 0, 0, 1, 0, 0),
          (0, -4, 0, 3, 0, 0, 0, 1, 0), (-1, 4, 0, -5, 0, 0, 0, 0, 1))),
        (977, 109, (1, -3, 0, 1, 3, 0, -3, -1, -3),
         ((-4, -1, 4, 1, 0, 0, 0, 0, 0), (-3, 0, 2, 0, 1, 0, 0, 0, 0),
          (-3, -1, 3, 0, 0, 1, 0, 0, 0), (3, 0, -4, 0, 0, 0, 1, 0, 0),
          (-2, -1, 2, 0, 0, 0, 0, 1, 0), (0, -1, -1, 0, 0, 0, 0, 0, 1))),
    ])
    def test_reference_draws_pinned(self, seed, tries, drawn, lam):
        # The draws, the try on which the minor test first passes, and the
        # kernel basis, pinned: a change to the minor test or to the order
        # of the draws shows here, not only in the benchmark digests.
        T = cyclic69_free_subtorus()
        res = extend_to_characteristic(T, cyclic_polytope_boundary(6, 9),
                                       entry_bound=3, seed=seed)
        assert (res.success, res.tries, res.message) == (True, tries, "")
        assert res.theta_full == IntMatrix(T.matrix.data + (drawn,))
        assert res.lam == IntMatrix(lam)

    def test_deterministic_for_fixed_seed(self):
        K = cyclic_polytope_boundary(6, 9)
        T = cyclic69_free_subtorus()
        a = extend_to_characteristic(T, K, entry_bound=3, seed=11)
        b = extend_to_characteristic(T, K, entry_bound=3, seed=11)
        assert a.theta_full == b.theta_full
        assert a.tries == b.tries


class TestQuotientProjection:
    def test_diagonal_circle_in_t2(self):
        T = Subtorus(IntMatrix([[1, 1]]))
        theta = quotient_projection(T)
        assert theta.rows == 1
        assert row_lattice_equal(theta, IntMatrix([[1, -1]]))

    def test_trivial_torus(self):
        T = Subtorus(IntMatrix([], rows=0, cols=4))
        assert quotient_projection(T) == IntMatrix.identity(4)

    def test_reference_torus_matches_row_lattice(self):
        T = cyclic69_free_subtorus()
        theta = quotient_projection(T)
        assert row_lattice_equal(theta, cyclic69_quotient_matrix())

    def test_matches_completion_oracle(self):
        rng = random.Random(303)
        tested = 0
        for m in range(1, 10):
            for k in range(m + 1):
                for _ in range(30):
                    A = IntMatrix([[rng.randint(-3, 3) for _ in range(m)]
                                   for _ in range(k)], rows=k, cols=m)
                    if is_primitive_rows(A.data):
                        T = Subtorus(A)
                        assert (quotient_projection(T)
                                == completion_quotient_projection(T)), A
                        tested += 1
        assert tested > 1000
        A = cyclic69_free_subtorus().matrix
        for G in ([[1, 1], [0, 1]], [[0, 1], [1, 0]]):
            T = Subtorus(IntMatrix(G) @ A)
            assert quotient_projection(T) == completion_quotient_projection(T)


def completion_quotient_projection(T):
    """The former quotient_projection, kept as an oracle: the last m - k
    columns of the unimodular completion M = V @ blockdiag(U, I), for
    which A M = [I_k | 0] when U A V = [I_k | 0]."""
    m, k = T.m, T.k
    if k == 0:
        return IntMatrix.identity(m)
    sd = smith(T.matrix)
    block = [[int(i == j and i >= k) for j in range(m)] for i in range(m)]
    for i in range(k):
        block[i][:k] = sd.U.data[i]
    M = sd.V @ IntMatrix(block, rows=m, cols=m)
    assert T.matrix @ M == IntMatrix(
        [[int(i == j) for j in range(m)] for i in range(k)], rows=k, cols=m)
    assert det(M) in (1, -1)
    return IntMatrix([[M.data[i][j] for i in range(m)]
                      for j in range(k, m)], rows=m - k, cols=m)
