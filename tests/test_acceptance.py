"""Acceptance suite: one test per criterion, each printing a PASS line
and enforcing its runtime budget.  All arithmetic is exact; there are no
numeric tolerances anywhere."""

import random
import time
from itertools import combinations

import pytest

import momentangle as ma
from momentangle.intlinalg import IntMatrix


def report(number, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, (f"criterion {number} exceeded its {budget}s "
                              f"budget: {elapsed:.1f}s")
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s")


def random_unimodular(rng, n):
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
    return IntMatrix(M)


def test_criterion_1_reference_pipeline():
    t0 = time.perf_counter()
    report_obj = ma.verify_c69_example()
    assert report_obj.passed, report_obj.first_failure
    by_name = {s.name: s for s in report_obj.stages}
    assert by_name["gale-enumeration"].details["facet_count"] == 30
    assert by_name["purity"].details["dimension"] == 5
    assert by_name["freeness"].details["unit_minor_on_all_complements"]
    assert by_name["h2"].details["free_rank"] == 2
    assert by_name["h2"].details["torsion"] == []
    assert by_name["w2"].details["coords"] == [1, 1]
    assert by_name["w2"].details["nonzero"]
    report(1, "reference pipeline", t0, 5.0)


def test_criterion_2_projective_space_example():
    t0 = time.perf_counter()

    def ring(n):
        K = ma.boundary_of_simplex(n)
        lam = IntMatrix([[int(i == j) for j in range(n)] + [1]
                         for i in range(n)])
        return ma.face_ring_mod2(K, lam)

    for n in range(1, 11):
        R = ring(n)
        classes = ma.total_sw_class(R)
        for j, cls in enumerate(classes):
            # Lucas' theorem: C(n+1, j) is odd iff j's bits lie in (n+1)'s.
            want = 1 if ((n + 1) & j) == j else 0
            assert (0 if cls.is_zero() else 1) == want, (n, j)
        assert ma.sw_triviality(R) == ((n + 1) & n == 0)
    nums2 = ma.sw_numbers(ring(2))
    assert nums2["w2^2"] == 1 and nums2["w4"] == 1
    assert all(v == 0 for v in ma.sw_numbers(ring(3)).values())
    report(2, "projective-space SW classes", t0, 2.0)


def test_criterion_3_duality_as_executable_theorem():
    t0 = time.perf_counter()
    rng = random.Random(314159)
    trials = 0
    while trials < 500:
        m = rng.randint(3, 9)
        n = rng.randint(1, m - 1)
        lam = IntMatrix([[rng.randint(-4, 4) for _ in range(m)]
                         for _ in range(n)])
        theta = ma.kernel_lattice(lam)
        if theta.rows != m - n:
            continue  # rank-deficient draw; does not meet the hypotheses
        faces = set()
        for _ in range(rng.randint(1, 6)):
            faces.add(tuple(sorted(rng.sample(range(1, m + 1), n))))
        K = ma.new_complex(m, faces)
        assert ma.characteristic_duality_holds(lam, theta, K)
        trials += 1
    report(3, "duality on 500 randomized instances", t0, 30.0)


def test_criterion_4_extension_realizability():
    t0 = time.perf_counter()
    K = ma.cyclic_polytope_boundary(6, 9)
    T = ma.cyclic69_free_subtorus()
    res = ma.extend_to_characteristic(T, K, entry_bound=3, max_tries=10_000,
                                      seed=20260824)
    assert res.success
    assert res.tries <= 10_000
    for sigma in K.facets:
        comp = tuple(v for v in range(1, 10) if v not in set(sigma))
        assert ma.det(res.theta_full.submatrix_cols(comp)) != 0
    TL = ma.torus_from_kernel(res.lam)
    stacked = TL.matrix.stack(T.matrix)
    assert (ma.hermite_normal_form(stacked)
            == ma.hermite_normal_form(TL.matrix))  # T inside T(lam)
    report(4, "characteristic extension", t0, 10.0)


def test_criterion_5_maximality_evidence():
    t0 = time.perf_counter()
    K = ma.cyclic_polytope_boundary(6, 9)
    res3 = ma.search_free(K, ma.SearchConfig(k=3, entry_set=(0, 1)))
    assert res3.found == []
    assert res3.explored == 31_496
    assert "bounded evidence" in res3.note
    res2 = ma.search_free(K, ma.SearchConfig(k=2, entry_set=(0, 1)))
    assert len(res2.found) == 2223
    assert res2.explored == 20_700
    key = ma.cyclic69_free_subtorus().row_lattice_key()
    assert any(t.row_lattice_key() == key for t in res2.found)
    report(5, "bounded maximality search", t0, 300.0)


def test_criterion_6_exact_linalg_properties():
    t0 = time.perf_counter()
    rng = random.Random(271828)
    for _ in range(1000):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        sd = ma.smith(A)
        assert sd.U @ A @ sd.V == sd.S
        assert ma.det(sd.U) in (1, -1)
        assert ma.det(sd.V) in (1, -1)
        d = sd.invariant_factors
        assert all(x >= 1 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
    done = 0
    while done < 100:
        n = rng.randint(1, 6)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)]
                       for _ in range(n)])
        dA = ma.det(A)
        if dA == 0:
            continue
        prod = 1
        for x in ma.smith(A).invariant_factors:
            prod *= x
        assert abs(dA) == prod
        done += 1
    for _ in range(50):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)]
                       for _ in range(rows)])
        base = ma.cokernel(A.transpose())
        G = random_unimodular(rng, A.rows)
        pres = ma.cokernel((G @ A).transpose())
        assert (pres.free_rank, pres.torsion) == (base.free_rank,
                                                 base.torsion)
    report(6, "exact linear algebra properties", t0, 30.0)


def test_criterion_7_homology_suite():
    t0 = time.perf_counter()
    for n in range(1, 7):
        prof = ma.homology(ma.boundary_of_simplex(n))
        assert prof.betti == tuple(int(d == n - 1) for d in range(n))
        assert all(t == () for t in prof.torsion)
    complexes = [ma.boundary_of_simplex(4),
                 ma.cyclic_polytope_boundary(4, 7),
                 ma.new_complex(6, [(1, 2, 3), (1, 3, 4), (1, 2, 6),
                                    (1, 4, 5), (1, 5, 6), (2, 3, 5),
                                    (2, 4, 5), (2, 4, 6), (3, 4, 6),
                                    (3, 5, 6)]),
                 ma.new_complex(5, [(1, 2), (3,), (4, 5)])]
    for K in complexes:
        unred = ma.homology(K, reduced=False)
        chi = sum((-1) ** d * b for d, b in enumerate(unred.betti))
        assert chi == K.euler_characteristic()
        prof = ma.homology(K)
        for d in prof.degrees():
            below = prof.torsion[d - 1] if d > 0 else ()
            expect = (prof.betti[d]
                      + sum(1 for x in prof.torsion[d] if x % 2 == 0)
                      + sum(1 for x in below if x % 2 == 0))
            assert prof.mod2[d] == expect
    cert = ma.is_homology_sphere(ma.cyclic_polytope_boundary(6, 9))
    assert cert.verdict
    report(7, "homology suite", t0, 60.0)


def test_criterion_8_invariance_suite():
    t0 = time.perf_counter()
    rng = random.Random(161803)
    K = ma.cyclic_polytope_boundary(6, 9)
    T = ma.cyclic69_free_subtorus()
    Q = ma.cyclic69_quotient_matrix()
    base = ma.h2_of_quotient(Q)
    for _ in range(50):
        G = random_unimodular(rng, 2)
        assert ma.acts_freely(ma.Subtorus(G @ T.matrix), K).free
    for _ in range(50):
        G = random_unimodular(rng, 7)
        theta = G @ Q
        pres = ma.h2_of_quotient(theta)
        assert (pres.free_rank, pres.torsion) == (base.free_rank,
                                                 base.torsion)
        _, zero = ma.w2_of_quotient(theta)
        assert not zero
    report(8, "invariance suite", t0, 30.0)


def test_criterion_9_large_sphere_certificate():
    t0 = time.perf_counter()
    cert = ma.is_homology_sphere(ma.cyclic_polytope_boundary(8, 12))
    assert cert.verdict
    assert len(cert.complexes) == 220
    assert all(rec["homology_matches_sphere"]
               for rec in cert.complexes.values())
    report(9, "certificate of the boundary of C8(12)", t0, 20.0)
