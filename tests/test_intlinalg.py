import ast
import os
import random
import subprocess
import sys
from collections import defaultdict

import pytest

import momentangle
from momentangle import intlinalg
from momentangle.intlinalg import (IntMatrix, cokernel, det,
                                   hermite_normal_form,
                                   hermite_normal_form_rows,
                                   is_primitive_rows,
                                   kernel_lattice,
                                   rank_rational, row_lattice_equal,
                                   rows_to_bitmasks, rref_mod2, smith,
                                   sparse_invariant_factors)
from momentangle.torus import cyclic69_free_subtorus, cyclic69_quotient_matrix
from oracles import image_contains, zero_matrix


def primitive_cols(k, columns):
    """Do these columns, each of length k, generate Z^k?  The
    primitivity test on the rows they form, as FreenessTest asks it."""
    return is_primitive_rows(list(zip(*columns)) or [()] * k)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


def random_unimodular(rng, n):
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return IntMatrix(M)


def sparse_columns(A):
    return [{i: row[j] for i, row in enumerate(A.data) if row[j]}
            for j in range(A.cols)]


class TestSmith:
    def test_identity(self):
        sd = smith(IntMatrix.identity(3))
        assert sd.invariant_factors == (1, 1, 1)

    def test_diagonal(self):
        sd = smith(IntMatrix([[2, 0], [0, 4]]))
        assert sd.invariant_factors == (2, 4)

    def test_hand_worked(self):
        # det = -8, gcd of entries 2, so d1 = 2 and d1*d2 = 8.
        sd = smith(IntMatrix([[2, 4], [6, 8]]))
        assert sd.invariant_factors == (2, 4)

    def test_zero_matrix(self):
        sd = smith(zero_matrix(2, 3))
        assert sd.invariant_factors == ()
        assert sd.U @ zero_matrix(2, 3) @ sd.V == sd.S

    def test_golden_transforms(self):
        # The exact U, S and V of the fixed pivot rule: the quotient-h2
        # images and the extend-char kernels are read off them.  [[2, 0],
        # [0, 3]] reaches the divisibility fix-up; the next case starts on
        # a negative pivot.
        Q = cyclic69_quotient_matrix()
        cases = [
            (Q,
             [[-1, 0, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0, 0],
              [1, 0, -1, 0, 0, 0, 0], [0, 1, 0, -1, 0, 0, 0],
              [0, 0, 1, 0, -1, 0, 0], [0, 0, 0, 1, 0, -1, 0],
              [0, 0, 0, 0, 1, 1, -1]],
             [[int(i == j) for j in range(9)] for i in range(7)],
             [[1, 0, 1, 0, 1, 0, 1, -1, 1], [0, 1, 0, 1, 0, 1, 0, 1, 0],
              [0, 0, 1, 0, 1, 0, 1, -1, 1], [0, 0, 0, 1, 0, 1, 0, 1, 0],
              [0, 0, 0, 0, 1, 0, 1, -1, 1], [0, 0, 0, 0, 0, 1, 0, 1, 0],
              [0, 0, 0, 0, 0, 0, 1, -1, 1], [0, 0, 0, 0, 0, 0, 0, 1, 0],
              [0, 0, 0, 0, 0, 0, 0, 0, 1]]),
            (Q.transpose(),
             [[-1, 0, 0, 0, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0, 0, 0, 0],
              [-1, 0, -1, 0, 0, 0, 0, 0, 0], [0, -1, 0, -1, 0, 0, 0, 0, 0],
              [-1, 0, -1, 0, -1, 0, 0, 0, 0], [0, -1, 0, -1, 0, -1, 0, 0, 0],
              [-1, 0, -1, 0, -1, 0, -1, 0, 0], [-1, 1, -1, 1, -1, 1, -1, 1, 0],
              [1, 0, 1, 0, 1, 0, 1, 0, 1]],
             [[int(i == j) for j in range(7)] for i in range(9)],
             [[1, 0, -1, 0, 0, 0, 0], [0, 1, 0, -1, 0, 0, 0],
              [0, 0, 1, 0, -1, 0, 0], [0, 0, 0, 1, 0, -1, 0],
              [0, 0, 0, 0, 1, 0, -1], [0, 0, 0, 0, 0, 1, -1],
              [0, 0, 0, 0, 0, 0, 1]]),
            (cyclic69_free_subtorus().matrix,
             [[1, 0], [0, 1]],
             [[1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0]],
             [[1, 0, -1, 0, -1, 0, -1, 0, -1], [0, 1, 0, -1, 0, -1, 0, -1, -1]]
             + [[int(i == j) for j in range(9)] for i in range(2, 9)]),
            (IntMatrix([[2, 0], [0, 3]]),
             [[1, 1], [3, 2]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]]),
            (IntMatrix([[-2, 4], [6, -9]]),
             [[-4, -1], [-15, -4]], [[1, 0], [0, 6]], [[4, -7], [1, -2]]),
            (IntMatrix([], rows=0, cols=3),
             [], [], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            (IntMatrix([[], [], []], rows=3, cols=0),
             [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[], [], []], []),
        ]
        for A, U, S, V in cases:
            sd = smith(A)
            assert sd.U == IntMatrix(U, rows=A.rows, cols=A.rows), A
            assert sd.S == IntMatrix(S, rows=A.rows, cols=A.cols), A
            assert sd.V == IntMatrix(V, rows=A.cols, cols=A.cols), A

    def test_properties_random(self):
        rng = random.Random(20260824)
        for _ in range(200):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            A = random_matrix(rng, rows, cols)
            sd = smith(A)
            assert sd.U @ A @ sd.V == sd.S
            assert det(sd.U) in (1, -1)
            assert det(sd.V) in (1, -1)
            d = sd.invariant_factors
            assert all(x >= 1 for x in d)
            assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
            assert len(d) == rank_rational(A)

    def test_sympy_cross_check(self):
        # |diag S| against sympy's Smith form, with the transforms checked
        # by sympy's determinant, on shapes 1..6 x 1..8 with entries -3..3.
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        rng = random.Random(20261019)
        for trial in range(300):
            r, c = rng.randint(1, 6), rng.randint(1, 8)
            A = random_matrix(rng, r, c, -3, 3)
            sd = smith(A)
            want = normalforms.smith_normal_form(sympy.Matrix(A.data),
                                                 domain=sympy.ZZ)
            diag = [abs(int(want[i, i])) for i in range(min(r, c))]
            assert [abs(sd.S.data[i][i]) for i in range(min(r, c))] \
                == diag, A
            assert sd.U @ A @ sd.V == sd.S
            assert abs(sympy.Matrix(sd.U.data).det()) == 1
            assert abs(sympy.Matrix(sd.V.data).det()) == 1

    def test_det_equals_product_of_factors(self):
        rng = random.Random(5)
        done = 0
        while done < 50:
            n = rng.randint(1, 6)
            A = random_matrix(rng, n, n)
            dA = det(A)
            if dA == 0:
                continue
            prod = 1
            for x in smith(A).invariant_factors:
                prod *= x
            assert abs(dA) == prod
            done += 1


class TestSparseInvariantFactors:
    def test_empty_and_zero(self):
        assert sparse_invariant_factors([]) == ()
        assert sparse_invariant_factors([{}, {}]) == ()

    def test_no_unit_pivot_goes_dense(self):
        assert sparse_invariant_factors([{0: 2}, {0: 4, 1: 8}]) == (2, 8)

    def test_input_not_modified(self):
        cols = [{0: 1, 1: -1}, {0: 1, 2: 1}, {1: 1, 2: -1}]
        before = [dict(c) for c in cols]
        assert sparse_invariant_factors(cols) == (1, 1, 2)
        assert cols == before

    def test_matches_dense_smith(self):
        rng = random.Random(20261017)
        for entries, size in (((0, 0, 0, 1, -1), 12),
                              ((0, 0, 1, -1, 2, -3, 4), 7)):
            for _ in range(300):
                rows, cols = rng.randint(1, size), rng.randint(1, size)
                A = IntMatrix([[rng.choice(entries) for _ in range(cols)]
                               for _ in range(rows)])
                assert (sparse_invariant_factors(sparse_columns(A))
                        == smith(A).invariant_factors)

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        rng = random.Random(1123)
        for _ in range(100):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            A = IntMatrix([[rng.choice((0, 0, 1, -1, 2, -2, 3))
                            for _ in range(cols)] for _ in range(rows)])
            want = tuple(abs(int(x)) for x in invariant_factors(
                sympy.Matrix(A.data), domain=sympy.ZZ) if x)
            assert sparse_invariant_factors(sparse_columns(A)) == want


class TestDetRank:
    def test_det_identity(self):
        assert det(IntMatrix.identity(2)) == 1

    def test_det_nonsquare_raises(self):
        with pytest.raises(ValueError):
            det(zero_matrix(2, 3))

    def test_det_singular(self):
        assert det(IntMatrix([[1, 2], [2, 4]])) == 0

    def test_rank(self):
        assert rank_rational(IntMatrix([[1, 2], [2, 4]])) == 1
        assert rank_rational(zero_matrix(3, 3)) == 0

    def test_sympy_cross_check(self):
        # det and rank_rational share one Bareiss elimination; check both
        # against sympy on every shape from 0 x 0 to 6 x 6, with sparse
        # and repeated rows so that singular cases are common.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        for trial in range(600):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            pool = (-3, -1, 0, 0, 0, 1, 2, 7) if trial % 2 else range(-9, 10)
            rows = [[rng.choice(pool) for _ in range(c)] for _ in range(r)]
            if r > 1 and trial % 3 == 0:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
            A = IntMatrix(rows, rows=r, cols=c)
            S = sympy.Matrix(r, c, [a for row in rows for a in row])
            assert rank_rational(A) == S.rank(), rows
            if r == c:
                assert det(A) == S.det(), rows

    def test_submatrix_cols(self):
        A = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert A.submatrix_cols((3, 1)) == IntMatrix([[3, 1], [6, 4]])
        with pytest.raises(ValueError):
            A.submatrix_cols((0,))


class TestKernel:
    def test_sum_kernel(self):
        ker = kernel_lattice(IntMatrix([[1, 1]]))
        assert ker.rows == 1
        assert ker.data[0] in ((1, -1), (-1, 1))

    def test_identity_kernel_empty(self):
        assert kernel_lattice(IntMatrix.identity(3)).rows == 0

    def test_kernel_rows_primitive(self):
        rng = random.Random(99)
        for _ in range(50):
            A = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 7))
            ker = kernel_lattice(A)
            assert ker.rows == A.cols - rank_rational(A)
            assert (A @ ker.transpose()).is_zero()
            if ker.rows:
                assert is_primitive_rows(ker.data)


    def test_sympy_cross_check(self):
        # On every shape from 0 x 0 to 6 x 8: rank, annihilation,
        # primitivity, and the rational span of sympy's nullspace.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261020)
        for trial in range(300):
            r, c = rng.randint(0, 6), rng.randint(0, 8)
            rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            if r > 1 and trial % 3 == 0:
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            A = IntMatrix(rows, rows=r, cols=c)
            S = sympy.Matrix(r, c, [a for row in rows for a in row])
            ker = kernel_lattice(A)
            assert ker.cols == c
            assert ker.rows == c - S.rank(), rows
            assert (A @ ker.transpose()).is_zero()
            if ker.rows:
                assert is_primitive_rows(ker.data)
                # Every rational null vector lies in the span of ker.
                span = sympy.Matrix(ker.data)
                for v in S.nullspace():
                    assert span.col_join(v.T).rank() == ker.rows, rows


class TestPrimitive:
    def test_unit_row(self):
        assert is_primitive_rows([[1, 0]])

    def test_scaled_row(self):
        assert not is_primitive_rows([[2, 0]])

    def test_rank_deficient(self):
        assert not is_primitive_rows([[1, 1], [2, 2]])

    @staticmethod
    def smith_reference(A):
        sd = smith(A)
        return sd.rank == A.rows and all(d == 1 for d in sd.invariant_factors)

    def check(self, A):
        want = self.smith_reference(A)
        assert is_primitive_rows(A.data) == want, A
        assert primitive_cols(A.rows, A.transpose().data) == want, A

    def test_edge_shapes_against_smith(self):
        for A in [zero_matrix(0, 3), zero_matrix(0, 0),
                  zero_matrix(2, 0), zero_matrix(1, 3),
                  IntMatrix([[2, 0]]), IntMatrix([[2, 4], [1, 3]]),
                  IntMatrix([[1, 1], [2, 2]]), IntMatrix([[1, 0], [0, 1],
                                                          [1, 1]]),
                  IntMatrix([[-1, 0, 0]]), IntMatrix([[2, 3]])]:
            self.check(A)
        assert primitive_cols(0, [(), ()])
        assert primitive_cols(0, [])
        assert not primitive_cols(2, [])
        assert not primitive_cols(1, [(2,), (4,)])
        assert primitive_cols(1, [(2,), (3,)])

    def test_random_against_smith(self):
        rng = random.Random(2718)
        hits = 0
        for _ in range(600):
            A = random_matrix(rng, rng.randint(0, 4), rng.randint(0, 6),
                              -2, 2)
            self.check(A)
            hits += self.smith_reference(A)
        assert 0 < hits < 600  # both answers are exercised

    def test_rows_against_smith_with_hermite_fallback(self, monkeypatch):
        # is_primitive_rows runs Bareiss on the rows as given; entries in
        # +-6 give pivot minors other than +-1, where the Hermite form of
        # the columns answers, both ways.
        fallbacks = []
        real = intlinalg.hermite_normal_form_rows

        def counting(rows):
            fallbacks.append(None)
            return real(rows)

        monkeypatch.setattr(intlinalg, "hermite_normal_form_rows", counting)
        rng = random.Random(2024)
        answers = {}
        for rows, cols in [(2, 5), (3, 6)] * 300:
            A = random_matrix(rng, rows, cols, -6, 6)
            want = self.smith_reference(A)
            before = len(fallbacks)
            assert is_primitive_rows(A.data) == want, A
            if len(fallbacks) > before:
                answers.setdefault((rows, cols), set()).add(want)
            assert primitive_cols(A.rows, zip(*A.data)) == want, A
        assert answers == {(2, 5): {True, False}, (3, 6): {True, False}}

    def test_leading_unit_shortcut_against_bareiss_route(self,
                                                         monkeypatch):
        # is_primitive_rows answers with no elimination when the leading
        # entries are +-1 in strictly increasing columns.  Each answer is
        # that of the Bareiss-then-HNF route, on random rows and on
        # echelon rows with a non-unit pivot, equal leading columns or a
        # zero row.
        bareiss = intlinalg._bareiss
        hermite = intlinalg.hermite_normal_form_rows
        routes = []

        def bareiss_route(rows, cols):
            # Rank k, then a pivot minor of +-1 or the Hermite form of the
            # columns equal to I_k.
            k = len(rows)
            rank, D = bareiss(rows, cols)
            identity = tuple(tuple(int(i == j) for j in range(k))
                             for i in range(k))
            return rank == k and (D in (1, -1)
                                  or hermite(list(zip(*rows))) == identity)

        def eliminating(rows, ncols):
            routes.append("bareiss")
            return bareiss(rows, ncols)

        def hermite_form(rows):
            routes.append("hnf")
            return hermite(rows)

        monkeypatch.setattr(intlinalg, "_bareiss", eliminating)
        monkeypatch.setattr(intlinalg, "hermite_normal_form_rows",
                            hermite_form)
        rng = random.Random(5150)
        cases = []
        for _ in range(300):
            k, cols = rng.randint(0, 4), rng.randint(0, 6)
            cases.append(([[rng.randint(-2, 2) for _ in range(cols)]
                           for _ in range(k)], cols))
        for _ in range(600):
            k, cols = rng.randint(1, 4), rng.randint(4, 7)
            leads = sorted(rng.sample(range(cols), k))
            shape = rng.randrange(4)
            if shape == 1 and k > 1:    # two rows lead in one column
                i = rng.randrange(k - 1)
                leads[i + 1] = leads[i]
            rows = []
            for lead in leads:
                pivot = rng.choice((1, -1))
                if shape == 2 and rng.random() < 0.5:   # a non-unit pivot
                    pivot = rng.choice((2, -2, 3, 6))
                rows.append([0] * lead + [pivot] + [
                    rng.randint(-3, 3) for _ in range(cols - lead - 1)])
            if shape == 3:    # a zero row
                rows[rng.randrange(k)] = [0] * cols
            cases.append((rows, cols))
        # Only the HNF finds these primitive: their pivot minors are 2.
        cases += [([[2, 3]], 2), ([[1, 0, 2], [0, 2, 1]], 3)]
        taken = defaultdict(set)
        for rows, cols in cases:
            del routes[:]
            got = is_primitive_rows(rows)
            route = tuple(routes)
            want = bareiss_route(rows, cols)
            assert got == want, rows
            assert got == self.smith_reference(
                IntMatrix(rows, rows=len(rows), cols=cols)), rows
            taken[route].add(got)
        assert taken[()] == {True}
        assert taken[("bareiss",)] == {True, False}
        assert taken[("bareiss", "hnf")] == {True, False}
        for rows, cols in cases[-2:]:
            del routes[:]
            assert is_primitive_rows(rows)
            assert routes == ["bareiss", "hnf"]

    def test_depends_only_on_distinct_columns(self):
        # The search memoizes primitivity on the set of distinct columns.
        rng = random.Random(1414)
        hits = 0
        for _ in range(600):
            k = rng.randint(0, 4)
            distinct = list({tuple(rng.randint(-2, 2) for _ in range(k))
                             for _ in range(rng.randint(1, 5))})
            cols = distinct + [rng.choice(distinct)
                               for _ in range(rng.randint(1, 3))]
            rng.shuffle(cols)
            rng.shuffle(distinct)
            A = IntMatrix([[c[i] for c in cols] for i in range(k)],
                          rows=k, cols=len(cols))
            want = self.smith_reference(A)
            assert primitive_cols(k, cols) == want, cols
            assert primitive_cols(k, distinct) == want, cols
            hits += want
        assert 0 < hits < 600

    def test_differential_against_smith(self):
        # Entry ranges from {0, 1} up to +-10^9, with zero, repeated and
        # (for k = 0) empty columns, rank-deficient and non-unit cases.
        rng = random.Random(31337)
        for lo, hi in [(0, 1), (-1, 1), (-6, 6), (-1000, 1000),
                       (-10 ** 9, 10 ** 9)]:
            answers = set()
            for _ in range(300):
                k = rng.randint(0, 5)
                cols = [tuple(rng.randint(lo, hi) for _ in range(k))
                        for _ in range(rng.randint(0, 8))]
                shape = rng.randrange(4)
                if shape == 1 and k:      # rank deficient
                    cols = [c[:-1] + (sum(c[:-1]),) for c in cols]
                elif shape == 2 and k:    # one row scaled by a prime
                    q = rng.choice((2, 3, 7))
                    cols = [(q * c[0],) + c[1:] for c in cols]
                cols += [(0,) * k] * rng.randint(0, 2)
                if cols:
                    cols += [rng.choice(cols)
                             for _ in range(rng.randint(0, 3))]
                rng.shuffle(cols)
                A = IntMatrix([[c[i] for c in cols] for i in range(k)],
                              rows=k, cols=len(cols))
                want = self.smith_reference(A)
                assert primitive_cols(k, cols) == want, (k, cols)
                assert is_primitive_rows(A.data) == want, (k, cols)
                answers.add(want)
            assert answers == {True, False}, (lo, hi)
        # Rank k with a pivot minor that is not a unit: the HNF answers,
        # both ways.
        for cols, want in [([(2, 0), (0, 1), (1, 0)], True),
                           ([(2, 0), (0, 1), (4, 0)], False),
                           ([(2,), (3,)], True), ([(6,), (4,), (10,)], False),
                           ([(2, 4), (1, 3), (0, 1)], True),
                           ([(2, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 0)],
                            False),
                           ([(3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0)],
                            True)]:
            k = len(cols[0])
            A = IntMatrix([[c[i] for c in cols] for i in range(k)])
            assert abs(det(IntMatrix(cols[:k]))) != 1, cols
            assert self.smith_reference(A) == want, cols
            assert primitive_cols(k, cols) == want, cols
            assert is_primitive_rows(A.data) == want, cols

    def test_unimodular_columns_against_smith(self):
        # Columns of G @ [I | X] with G unimodular generate Z^k however
        # large the entries; a scaled copy of one column keeps that.
        rng = random.Random(4242)
        for _ in range(100):
            k = rng.randint(1, 5)
            X = [[rng.randint(-10 ** 9, 10 ** 9) for _ in range(3)]
                 for _ in range(k)]
            A = random_unimodular(rng, k) @ IntMatrix(
                [[int(i == j) for j in range(k)] + X[i] for i in range(k)])
            cols = list(A.transpose().data)
            cols.append(tuple(5 * x for x in cols[0]))
            assert primitive_cols(k, cols)
            assert not primitive_cols(k, [tuple(2 * x for x in c)
                                          for c in cols])

    def test_property_against_smith(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        entries = st.one_of(st.integers(-3, 3),
                            st.integers(-10 ** 9, 10 ** 9))

        @hypothesis.settings(max_examples=200, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.integers(0, 4).flatmap(
            lambda k: st.tuples(st.just(k), st.lists(
                st.tuples(*[entries] * k), max_size=7))))
        def check(case):
            k, cols = case
            A = IntMatrix([[c[i] for c in cols] for i in range(k)],
                          rows=k, cols=len(cols))
            assert primitive_cols(k, cols) == self.smith_reference(A)

        check()


class TestCompletion:
    """quotient_projection, which replaced the unimodular completion."""

    def test_postconditions_survive_python_O(self):
        # Each forced failure of quotient_projection's three
        # postconditions must raise InternalError with asserts stripped.
        script = (
            "import momentangle.intlinalg as il\n"
            "import momentangle.torus as t\n"
            "assert False, 'asserts are live'\n"
            "T = t.Subtorus(il.IntMatrix([[1, 1, 0]]))\n"
            "fakes = [('kernel_lattice', lambda M: il.IntMatrix([[1, 0, 0]])),\n"
            "         ('is_primitive_rows', lambda M: False),\n"
            "         ('row_lattice_equal', lambda X, Y: False)]\n"
            "for name, fake in fakes:\n"
            "    real = getattr(t, name)\n"
            "    setattr(t, name, fake)\n"
            "    try:\n"
            "        t.quotient_projection(T)\n"
            "        raise SystemExit('no raise with a fake ' + name)\n"
            "    except il.InternalError as exc:\n"
            "        print(exc)\n"
            "    setattr(t, name, real)\n")
        src = os.path.dirname(os.path.dirname(momentangle.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.splitlines() == [
            "quotient projection does not kill the torus",
            "quotient projection rows are not primitive",
            "quotient projection kernel is not the torus"]


def package_modules():
    """(file name, syntax tree) of every module of the package."""
    pkg = os.path.dirname(momentangle.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so a postcondition written as
    # one would silently vanish; every check in the package raises.
    found = []
    for name, tree in package_modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_src_has_no_orphan_public_names():
    # A public top-level function, class or constant that no other
    # statement of the package names, and that __init__ does not import,
    # is dead code that still reads as API.
    defined = {}                # (file, name) -> its top-level statement
    named_by = defaultdict(set)  # name -> top-level statements naming it
    for name, tree in package_modules():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                targets = [top.name]
            elif isinstance(top, ast.Assign):
                targets = [t.id for t in top.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(top, ast.AnnAssign) and isinstance(top.target,
                                                               ast.Name):
                targets = [top.target.id]
            else:
                targets = []
            for target in targets:
                if not target.startswith("_"):
                    defined[name, target] = top
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    named_by[node.id].add(top)
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        named_by[alias.name].add(top)
    assert [f"{name}:{target}" for (name, target), top in defined.items()
            if not named_by[target] - {top}] == []


class TestCokernel:
    def test_z_mod_2(self):
        pres = cokernel(IntMatrix([[2]]))
        assert pres.free_rank == 0
        assert pres.torsion == (2,)

    def test_zero_map(self):
        pres = cokernel(zero_matrix(3, 2))
        assert pres.free_rank == 3
        assert pres.torsion == ()

    def test_generator_images_shape(self):
        pres = cokernel(IntMatrix([[2, 0], [0, 3], [0, 0]]))
        assert pres.generator_images.cols == 3

    # (A, free_rank, torsion, generator_images.data) of cokernel(A).  The
    # random inputs are the first two with torsion of each shape drawn
    # by random.Random(22) with entries in -4..4; each has factors of 1
    # ahead of its torsion.
    PINNED = [
        ([[1, 0, 0], [0, 2, 0], [0, 0, 6], [0, 0, 0]],
         1, (2, 6), [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ([[-2, 4, 2, -4], [-4, 0, 0, 2], [-1, -2, -3, 4]],
         0, (2, 8), [[0, 1, 0], [1, 6, 6]]),
        ([[-4, 1, 1, 0], [-2, 2, 0, 4], [-2, 0, 0, -2]],
         0, (2, 2), [[0, 1, 0], [0, 0, 1]]),
        ([[2, -4, 1], [4, -4, 2], [0, 4, 0], [4, 2, 2]],
         2, (2,), [[0, 0, 0, 1], [2, -1, 1, 0], [-6, 5, 0, -2]]),
        ([[-2, 0, 1], [2, -4, 0], [4, 4, 4], [2, 4, 2]],
         1, (2, 4), [[0, 1, 0, 0], [0, 0, 3, 2], [-2, -3, 4, -7]]),
        ([[-3, -3, 3, 1, -3], [2, 2, -4, -1, 4], [-1, 2, -4, -3, 3],
          [-1, -2, -4, 4, 2], [1, -2, 1, 1, -1]],
         0, (129,), [[96, 124, 60, 99, 70]]),
        ([[3, -4, -3, 4, -2], [-1, -3, -4, -1, 2], [-3, -2, 3, -4, -3],
          [3, 4, -2, 0, 3], [3, -3, 1, -3, 0]],
         0, (2224,), [[96, 2089, 351, 505, 1929]]),
    ]

    def test_presentations_pinned(self):
        for A, free_rank, torsion, images in self.PINNED:
            pres = cokernel(IntMatrix(A))
            assert pres.free_rank == free_rank, A
            assert pres.torsion == torsion, A
            assert pres.generator_images.data == tuple(map(tuple, images)), A

    def test_quotient_presentation_pinned(self):
        pres = cokernel(cyclic69_quotient_matrix().transpose())
        assert pres.free_rank == 2
        assert pres.torsion == ()
        assert pres.generator_images.data == (
            (-1, 1, -1, 1, -1, 1, -1, 1, 0), (1, 0, 1, 0, 1, 0, 1, 0, 1))

    def test_invariance_under_unimodular_left_factor(self):
        rng = random.Random(11)
        for _ in range(30):
            A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            pres = cokernel(A.transpose())
            G = random_unimodular(rng, A.rows)
            pres2 = cokernel((G @ A).transpose())
            assert pres.free_rank == pres2.free_rank
            assert pres.torsion == pres2.torsion


class TestHermite:
    def test_canonical(self):
        A = IntMatrix([[0, 1, 2], [1, 1, 1]])
        B = IntMatrix([[1, 1, 1], [1, 2, 3]])
        assert hermite_normal_form(A) == hermite_normal_form(B)

    def test_rows_helper_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        rng = random.Random(2024)
        for n in range(450):
            # The last 150 are tall, as primitivity uses them: up to 12
            # rows of at most 4 columns, with zero and repeated rows.
            tall = n >= 300
            r = rng.randint(1, 12) if tall else rng.randint(1, 5)
            c = rng.randint(1, 4) if tall else rng.randint(1, 6)
            e = rng.choice((1, 3, 50, 10 ** 6, 10 ** 9) if tall
                           else (1, 3, 50, 10 ** 6))
            rows = [[rng.randint(-e, e) for _ in range(c)] for _ in range(r)]
            if r > 1 and rng.random() < 0.3:
                rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
            if tall:
                rows += [[0] * c] * rng.randint(0, 2)
                rows += [list(rng.choice(rows))
                         for _ in range(rng.randint(0, 3))]
                rng.shuffle(rows)
            H = hermite_normal_form_rows(rows)
            assert hermite_normal_form(IntMatrix(rows)) == IntMatrix(
                H, rows=len(H), cols=c)
            # Same row lattice: sympy's canonical form of the column
            # lattice of the transposes agrees.
            if H:
                assert (normalforms.hermite_normal_form(sympy.Matrix(rows).T)
                        == normalforms.hermite_normal_form(
                            sympy.Matrix(H).T)), rows
            else:
                assert not any(map(any, rows))
            assert len(H) == rank_rational(IntMatrix(rows))
            pivots = [next(j for j, a in enumerate(row) if a) for row in H]
            assert pivots == sorted(set(pivots))
            for i, p in enumerate(pivots):
                assert H[i][p] > 0
                assert all(0 <= H[above][p] < H[i][p] for above in range(i))

    def test_identity_block_is_the_transform(self):
        # The HNF of [A | I_k] is [HNF(A) | U] with U A = HNF(A) padded by
        # zero rows, U unimodular.  When the k-th pivot is a column of A,
        # U depends only on A's columns up to that pivot, so it is the
        # transform of every matrix that shares them.
        rng = random.Random(12)
        for _ in range(400):
            k, m = rng.randint(0, 4), rng.randint(1, 7)
            e = rng.choice((1, 2, 5))
            A = [[rng.randint(-e, e) for _ in range(m)] for _ in range(k)]
            if k > 1 and rng.random() < 0.3:  # rank deficient
                A[-1] = [a - 3 * b for a, b in zip(A[0], A[-2])]
            unit = [[int(i == j) for j in range(k)] for i in range(k)]
            H = hermite_normal_form_rows(
                [row + u for row, u in zip(A, unit)])
            assert len(H) == k
            U = [row[m:] for row in H]
            UA = [[sum(u * a for u, a in zip(urow, col)) for col in zip(*A)]
                  for urow in U]
            assert UA == [list(row[:m]) for row in H]
            rank = len(hermite_normal_form_rows(A))
            assert [tuple(row) for row in UA[:rank]] == list(
                hermite_normal_form_rows(A))
            assert not any(map(any, UA[rank:]))
            if k:
                assert abs(det(IntMatrix(U))) == 1
            pivot = next(j for j, x in enumerate(H[-1]) if x) if k else -1
            assert (pivot < m) == (rank == k)
            if rank < k:
                continue
            for _ in range(5):
                B = [row[:pivot + 1] + [rng.randint(-e, e)
                                        for _ in range(m - pivot - 1)]
                     for row in A]
                UB = tuple(tuple(sum(u * b for u, b in zip(urow, col))
                                 for col in zip(*B)) for urow in U)
                assert UB == hermite_normal_form_rows(B)

    def test_lattice_equality_under_gl(self):
        rng = random.Random(7)
        for _ in range(30):
            A = random_matrix(rng, 2, 5, -5, 5)
            G = random_unimodular(rng, 2)
            assert row_lattice_equal(A, G @ A)

    def test_different_lattices(self):
        assert not row_lattice_equal(IntMatrix([[1, 0]]),
                                     IntMatrix([[2, 0]]))


def u_reading_image_contains(A, b):
    """The former image_contains, which reads U of its own Smith form,
    kept as an oracle."""
    if len(b) != A.rows:
        raise ValueError("vector length does not match row count")
    sd = smith(A)
    c = [sum(u * x for u, x in zip(row, b)) for row in sd.U.data]
    r = sd.rank
    for i in range(r):
        if c[i] % sd.invariant_factors[i]:
            return False
    return all(c[i] == 0 for i in range(r, A.rows))


class TestImageMembership:
    def test_in_image(self):
        A = IntMatrix([[2, 0], [0, 3]])
        assert image_contains(A, [4, 3])
        assert not image_contains(A, [1, 0])

    def test_rank_deficient(self):
        A = IntMatrix([[1], [1]])
        assert image_contains(A, [5, 5])
        assert not image_contains(A, [1, 2])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="does not match row count"):
            cokernel(IntMatrix([[2, 0], [0, 3]])).vanishes([1])
        with pytest.raises(ValueError, match="does not match row count"):
            image_contains(IntMatrix([[1, 1]]), [])

    def test_vanishes_against_u_reading_oracle(self):
        rng = random.Random(909)
        seen = {True: 0, False: 0}
        torsion = 0
        for _ in range(400):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            A = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            if c > 1 and rng.random() < 0.3:   # rank-deficient
                for row in A:
                    row[-1] = row[0] - 2 * row[1]
            if c and rng.random() < 0.3:       # likely torsion
                for row in A:
                    row[0] *= rng.choice((2, 3, 4))
            A = IntMatrix(A, rows=r, cols=c)
            pres = cokernel(A)
            torsion += bool(pres.torsion)
            x = [rng.randint(-3, 3) for _ in range(c)]
            inside = [sum(a * y for a, y in zip(row, x)) for row in A.data]
            vectors = [inside, [rng.randint(-3, 3) for _ in range(r)]]
            if r:
                shifted = list(inside)
                shifted[rng.randrange(r)] += 1
                vectors.append(shifted)
            for b in vectors:
                want = u_reading_image_contains(A, b)
                assert pres.vanishes(b) == want, (A, b)
                assert image_contains(A, b) == want, (A, b)
                seen[want] += 1
            assert pres.vanishes(inside)
        assert min(seen.values()) > 100 and torsion > 50


def quadratic_rref_mod2(bitrows):
    """The former rref_mod2, whose back-substitution tests every pivot
    against every row, kept as an oracle."""
    basis = {}
    for row in bitrows:
        while row:
            p = row.bit_length() - 1
            if p in basis:
                row ^= basis[p]
            else:
                basis[p] = row
                break
    for p in sorted(basis):
        for q in list(basis):
            if q != p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def gf2_span(bitrows):
    span = {0}
    for row in bitrows:
        span |= {x ^ row for x in span}
    return span


class TestMod2:
    def test_rank_mod2(self):
        # The GF(2) rank is the number of rows rref_mod2 keeps.
        for A, rank in [(IntMatrix([[2, 4], [1, 1]]), 1),
                        (IntMatrix.identity(4), 4)]:
            assert len(rref_mod2(rows_to_bitmasks(A))[0]) == rank

    def test_rref_edge_cases(self):
        assert rref_mod2([]) == ([], [])
        assert rref_mod2([0, 0]) == ([], [])
        assert rref_mod2([0b110, 0b110, 0, 0b110]) == ([0b110], [2])
        assert rref_mod2([0b111, 0b011, 0b001]) == ([1, 2, 4], [0, 1, 2])

    def test_rref_against_quadratic_back_substitution(self):
        rng = random.Random(482)
        for _ in range(1500):
            width = rng.randint(0, 40)
            density = rng.random()
            rows = [sum(1 << b for b in range(width) if rng.random() < density)
                    for _ in range(rng.randint(0, 30))]
            rows += [0] * rng.randint(0, 2)
            rows += [rng.choice(rows) for _ in range(3)] if rows else []
            rng.shuffle(rows)
            assert rref_mod2(rows) == quadratic_rref_mod2(rows), rows

    def test_rref_properties(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=250, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.lists(st.integers(0, (1 << 10) - 1),
                                   max_size=14))
        def check(bitrows):
            rows, pivots = rref_mod2(bitrows)
            assert len(rows) == len(pivots)
            assert gf2_span(rows) == gf2_span(bitrows)
            assert all(p < q for p, q in zip(pivots, pivots[1:]))
            for i, p in enumerate(pivots):
                assert rows[i].bit_length() - 1 == p
                for j, row in enumerate(rows):
                    assert (row >> p) & 1 == (i == j)

        check()


class TestExactEntries:
    def test_inexact_values_rejected(self):
        for bad in (2.0, 2.7, True, float("inf"), "1"):
            with pytest.raises(TypeError, match="not an exact integer"):
                IntMatrix([[1, bad]])
        with pytest.raises(TypeError, match="value 2.0 is not"):
            IntMatrix([[1, 2]], rows=1, cols=2.0)

    def test_first_bad_value_is_named(self):
        # The shape comes before the entries, and the entries in row
        # order.
        with pytest.raises(TypeError, match=r"value 2\.5 is not"):
            IntMatrix([[1, 2.5, True]])
        with pytest.raises(TypeError, match="value True is not"):
            IntMatrix([[1, 2.5, True]], rows=True)
        with pytest.raises(TypeError, match="value '3' is not"):
            IntMatrix([[1, 2], ["3", 4.0]])


class TestImmutable:
    def test_fields_cannot_be_assigned(self):
        # A matrix is hashable, so a write to any field must fail and
        # leave the matrix as it was.
        A = IntMatrix([[1, -2], [3, 4]])
        for name, value in (("rows", 3), ("cols", 1), ("data", ((0,),))):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(A, name, value)
        assert (A.rows, A.cols, A.data) == (2, 2, ((1, -2), (3, 4)))


class TestJson:
    def test_roundtrip(self):
        A = IntMatrix([[1, -2], [3, 4]])
        assert IntMatrix.from_json(A.to_json()) == A
