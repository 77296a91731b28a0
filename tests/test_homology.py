import json
import os
import random
import subprocess
import sys

import pytest

import momentangle
from momentangle.homology import (InternalError,
                                  _check_boundary_squared_zero, chain_complex,
                                  homology, is_homology_sphere,
                                  manifold_verdict)
from momentangle.intlinalg import rank_mod2, smith
from momentangle.simplicial import (boundary_of_simplex,
                                    cyclic_polytope_boundary, new_complex)

# Minimal 6-vertex triangulation of the real projective plane: the one
# complex in the suite with integer torsion (H_1 = Z/2).
RP2 = new_complex(6, [
    (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
])
# Suspension of RP^2 (Z/2 moves up to H_2) and the cone over it (acyclic).
SUSP_RP2 = new_complex(8, [f + (v,) for f in RP2.facets for v in (7, 8)])
CONE_RP2 = new_complex(7, [f + (7,) for f in RP2.facets])


def dense_reference(K, reduced):
    """Homology from dense smith and GF(2) rank on the chain_complex
    boundaries; also checks rank_mod2 == number of odd invariant factors
    on every boundary."""
    dim = K.dimension
    fvec = K.f_vector()
    ranks_z = [0] * (dim + 2)
    ranks_2 = [0] * (dim + 2)
    factors = [()] * (dim + 2)
    for d, bd in enumerate(chain_complex(K).boundaries):
        factors_d = smith(bd).invariant_factors
        rank_2 = rank_mod2(bd)
        assert rank_2 == sum(1 for f in factors_d if f % 2)
        if d == 0 and not reduced:
            continue
        ranks_z[d] = len(factors_d)
        ranks_2[d] = rank_2
        factors[d] = factors_d
    return (tuple(fvec[d] - ranks_z[d] - ranks_z[d + 1]
                  for d in range(dim + 1)),
            tuple(tuple(f for f in factors[d + 1] if f > 1)
                  for d in range(dim + 1)),
            tuple(fvec[d] - ranks_2[d] - ranks_2[d + 1]
                  for d in range(dim + 1)))


def random_complex(rng):
    m = rng.randint(1, 8)
    return new_complex(m, [rng.sample(range(1, m + 1),
                                      rng.randint(1, min(m, 4)))
                           for _ in range(rng.randint(1, 9))])


class TestChainComplex:
    def test_triangle_boundary_matrix(self):
        cc = chain_complex(boundary_of_simplex(2))
        d1 = cc.boundaries[1]
        assert (d1.rows, d1.cols) == (3, 3)
        for col in d1.transpose().data:
            assert sum(col) == 0

    def test_point(self):
        cc = chain_complex(new_complex(1, [(1,)]))
        assert len(cc.boundaries) == 1  # just the augmentation

    def test_c69_top_boundary(self):
        cc = chain_complex(cyclic_polytope_boundary(6, 9))
        assert cc.boundaries[5].cols == 30

    def test_boundary_squared_check_raises(self):
        # Column 0 of the upper map hits the lower map's column 0 once.
        with pytest.raises(InternalError, match="boundary of boundary"):
            _check_boundary_squared_zero([{0: 1}], [{0: 1}])
        _check_boundary_squared_zero([{0: 1}, {0: 1}], [{0: 1, 1: -1}])

    def test_boundary_squared_check_survives_optimize(self, tmp_path):
        # Under -O: the checker still raises, and a failing check still
        # makes check-manifold exit 3.
        path = tmp_path / "s2.json"
        path.write_text(json.dumps(boundary_of_simplex(3).to_json()))
        script = (
            "import sys\n"
            "from momentangle.cli import main\n"
            "h = sys.modules['momentangle.homology']\n"
            "assert False, 'asserts are live'\n"
            "def broken(K):\n"
            "    h._check_boundary_squared_zero([{0: 1}], [{0: 1}])\n"
            "h._boundary_columns = broken\n"
            f"sys.exit(main(['check-manifold', '--complex', {str(path)!r}]))\n")
        src = os.path.dirname(os.path.dirname(momentangle.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert "boundary of boundary is nonzero" in proc.stderr

    def test_boundary_squared_zero(self):
        for K in [boundary_of_simplex(4), RP2, cyclic_polytope_boundary(3, 6)]:
            cc = chain_complex(K)
            for d in range(len(cc.boundaries) - 1):
                assert (cc.boundaries[d] @ cc.boundaries[d + 1]).is_zero()


class TestHomology:
    def test_sphere_s2(self):
        prof = homology(boundary_of_simplex(3))
        assert prof.betti == (0, 0, 1)
        assert all(t == () for t in prof.torsion)

    def test_simplex_boundaries_are_spheres(self):
        for n in range(1, 7):
            prof = homology(boundary_of_simplex(n))
            want = tuple(int(d == n - 1) for d in range(n))
            assert prof.betti == want
            assert all(t == () for t in prof.torsion)

    def test_two_points_reduced(self):
        prof = homology(new_complex(2, [(1,), (2,)]))
        assert prof.betti == (1,)

    def test_unreduced(self):
        prof = homology(new_complex(2, [(1,), (2,)]), reduced=False)
        assert prof.betti == (2,)

    def test_c69_is_homology_s5(self):
        prof = homology(cyclic_polytope_boundary(6, 9))
        assert prof.betti == (0, 0, 0, 0, 0, 1)
        assert all(t == () for t in prof.torsion)

    def test_rp2_torsion(self):
        prof = homology(RP2)
        assert prof.betti == (0, 0, 0)
        assert prof.torsion[1] == (2,)
        assert prof.mod2 == (0, 1, 1)

    def test_empty_complex(self):
        prof = homology(new_complex(2, []))
        assert prof.betti == ()

    def test_euler_characteristic_identity(self):
        for K in [boundary_of_simplex(4), RP2,
                  cyclic_polytope_boundary(4, 7),
                  new_complex(5, [(1, 2), (3,), (4, 5)])]:
            prof = homology(K, reduced=False)
            chi_betti = sum((-1) ** d * b for d, b in enumerate(prof.betti))
            assert chi_betti == K.euler_characteristic()

    def test_universal_coefficients_identity(self):
        for K in [boundary_of_simplex(3), RP2,
                  cyclic_polytope_boundary(6, 9)]:
            prof = homology(K)
            for d in prof.degrees():
                below = prof.torsion[d - 1] if d > 0 else ()
                expect = (prof.betti[d]
                          + sum(1 for t in prof.torsion[d] if t % 2 == 0)
                          + sum(1 for t in below if t % 2 == 0))
                assert prof.mod2[d] == expect


class TestSparseAgainstDense:
    def test_matches_dense_reference(self):
        rng = random.Random(20261017)
        named = [RP2, SUSP_RP2, CONE_RP2, cyclic_polytope_boundary(4, 7)]
        for K in named + [random_complex(rng) for _ in range(320)]:
            for reduced in (True, False):
                prof = homology(K, reduced=reduced)
                assert ((prof.betti, prof.torsion, prof.mod2)
                        == dense_reference(K, reduced)), (K, reduced)

    def test_suspension_shifts_torsion(self):
        prof = homology(SUSP_RP2)
        assert prof.betti == (0, 0, 0, 0)
        assert prof.torsion == ((), (), (2,), ())
        assert prof.mod2 == (0, 0, 1, 1)

    def test_cone_is_acyclic(self):
        prof = homology(CONE_RP2)
        assert prof.betti == (0, 0, 0, 0)
        assert all(t == () for t in prof.torsion)
        assert prof.mod2 == (0, 0, 0, 0)


class TestSphereCertificate:
    def test_simplex_boundaries(self):
        for n in range(1, 6):
            assert is_homology_sphere(boundary_of_simplex(n)).verdict

    def test_c69(self):
        cert = is_homology_sphere(cyclic_polytope_boundary(6, 9))
        assert cert.verdict
        assert cert.criterion == "recursive-links"

    def test_two_disjoint_triangle_boundaries(self):
        K = new_complex(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert not is_homology_sphere(K).verdict

    def test_single_edge(self):
        assert not is_homology_sphere(new_complex(2, [(1, 2)])).verdict

    def test_rp2_rejected(self):
        assert not is_homology_sphere(RP2).verdict

    def test_each_complex_keyed_and_measured_once(self, monkeypatch):
        hmod = sys.modules["momentangle.homology"]
        calls = {"key": 0, "homology": 0}
        real_key, real_homology = hmod._canonical_key, hmod.homology

        def key(K):
            calls["key"] += 1
            return real_key(K)

        def counted_homology(K, reduced=True):
            calls["homology"] += 1
            return real_homology(K, reduced)

        monkeypatch.setattr(hmod, "_canonical_key", key)
        monkeypatch.setattr(hmod, "homology", counted_homology)
        for K in (cyclic_polytope_boundary(6, 9), RP2,
                  new_complex(5, [(1, 2, 3), (1, 2, 4), (1, 3, 4),
                                  (2, 3, 4)])):
            calls.update(key=0, homology=0)
            cert = is_homology_sphere(K)
            table = cert.complexes.values()
            # The root key, then one key per link a parent computes.
            assert calls["key"] == 1 + sum(len(c["vertex_links"])
                                           for c in table)
            assert calls["homology"] == sum(1 for c in table
                                            if c["dim"] >= 0)
            assert cert.homology == real_homology(K)

    def test_certificate_json(self):
        cert = is_homology_sphere(boundary_of_simplex(2))
        obj = cert.to_json()
        assert obj["verdict"] is True
        assert obj["criterion"] == "recursive-links"
        assert obj["root"] in obj["complexes"]


class TestManifoldVerdict:
    def test_certified(self):
        assert manifold_verdict(boundary_of_simplex(4)) == "certified_manifold"
        assert (manifold_verdict(cyclic_polytope_boundary(6, 9))
                == "certified_manifold")

    def test_unknown_never_claims_nonmanifold(self):
        assert manifold_verdict(new_complex(2, [(1, 2)])) == "unknown"
