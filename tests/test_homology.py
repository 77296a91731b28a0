import gc
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import pytest

import momentangle
from momentangle.homology import (InternalError, SphereCertificate,
                                  _boundary_columns,
                                  _check_boundary_squared_zero,
                                  _canonical_key, _faces, _key_str,
                                  _shelling_order, homology,
                                  is_homology_sphere)
from momentangle.intlinalg import (IntMatrix, rows_to_bitmasks, rref_mod2,
                                   smith)
from momentangle.simplicial import (_bitmask, boundary_of_simplex,
                                    cyclic_polytope_boundary, new_complex)
from oracles import (h_vector, is_shelling, key_name, link,
                     manifold_verdict, projective_product, relabel_key,
                     support)

# Minimal 6-vertex triangulation of the real projective plane: the one
# complex in the suite with integer torsion (H_1 = Z/2).
RP2 = new_complex(6, [
    (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
])
# Suspension of RP^2 (Z/2 moves up to H_2) and the cone over it (acyclic).
SUSP_RP2 = new_complex(8, [f + (v,) for f in RP2.facets for v in (7, 8)])
CONE_RP2 = new_complex(7, [f + (7,) for f in RP2.facets])
# The 7-vertex torus: all vertex links are circles, H_1 = Z^2.
TORUS_7 = new_complex(7, [(i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1)
                          for i in range(7) for a in (1, 2)])
# The tetrahedron boundary with a fin: a triangle glued along the edge 12.
# Homotopy equivalent to S^2, but the link of the edge 12 is three points.
FIN = new_complex(5, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
                      (1, 2, 5)])


@dataclass(frozen=True)
class ChainComplexData:
    """Dense boundary matrices d=0..dim, faces ordered as in faces_of_dim.

    boundary[0] is the augmentation map C_0 -> C_{-1} = Z (all-ones row),
    so reduced homology falls out of the same matrices.
    """

    boundaries: tuple


def chain_complex(K):
    """The dense oracle: boundary matrices built from the faces_of_dim
    tuples, independently of the bitmask builder _boundary_columns."""
    boundaries = []
    faces_below = [()]
    for d in range(K.dimension + 1):
        faces = K.faces_of_dim(d)
        index_below = {f: i for i, f in enumerate(faces_below)}
        rows = [[0] * len(faces) for _ in faces_below]
        for j, face in enumerate(faces):
            for i in range(len(face)):
                rows[index_below[face[:i] + face[i + 1:]]][j] = (-1) ** i
        boundaries.append(IntMatrix(rows, rows=len(faces_below),
                                    cols=len(faces)))
        faces_below = faces
    return ChainComplexData(tuple(boundaries))


def dense_reference(K, reduced):
    """Homology from dense smith and GF(2) rank on the chain_complex
    boundaries; also checks that the rank of rref_mod2 is the number of
    odd invariant factors on every boundary."""
    dim = K.dimension
    fvec = K.f_vector()
    ranks_z = [0] * (dim + 2)
    ranks_2 = [0] * (dim + 2)
    factors = [()] * (dim + 2)
    for d, bd in enumerate(chain_complex(K).boundaries):
        factors_d = smith(bd).invariant_factors
        rank_2 = len(rref_mod2(rows_to_bitmasks(bd))[0])
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


def relabelled(K, rng, ghosts=0):
    """K under a seeded bijection onto a random part of 1..K.m + ghosts."""
    perm = rng.sample(range(1, K.m + ghosts + 1), K.m)
    return new_complex(K.m + ghosts,
                       [[perm[v - 1] for v in f] for f in K.facets])


def cone(K):
    return new_complex(K.m + 1, [f + (K.m + 1,) for f in K.facets])


def suspension(K):
    return new_complex(K.m + 2, [f + (v,) for f in K.facets
                                 for v in (K.m + 1, K.m + 2)])


def masks_of(K):
    return [_bitmask(f) for f in K.facets]


def matches_sphere(K):
    prof = homology(K)
    return (prof.betti == tuple(int(d == K.dimension)
                                for d in prof.degrees())
            and not any(prof.torsion))


def reference_certificate(K, reached=None):
    """The certificate as the recursion built it on SimplicialComplex
    objects: links by oracles.link, keyed by the printed name of the
    relabeled support, and homology for the homology condition of every
    complex.  Each vertex set S of K whose link a parent takes is added
    to reached, as a frozenset of K's labels."""
    memo, table = {}, {}
    reached = set() if reached is None else reached

    def key_of(L):
        relabel = {v: i + 1 for i, v in enumerate(support(L))}
        return key_name(len(relabel), [tuple(relabel[v] for v in f)
                                       for f in L.facets])

    def check(L, key, S, labels):
        # labels[i] is K's label of L's vertex i + 1, and L = lk_S K.
        if key in memo:
            return memo[key]
        memo[key] = False
        dim = L.dimension
        if dim < 0:
            memo[key] = True
            table[key] = {"dim": -1, "homology_matches_sphere": True,
                          "vertex_links": {}}
            return True
        hom_ok = matches_sphere(L)
        links = {}
        ok = hom_ok
        if hom_ok:
            for v in support(L):
                lk, lk_labels = link(L, (v,))
                link_key = key_of(lk)
                links[v] = link_key
                T = S | {labels[v - 1]}
                reached.add(T)
                if lk.dimension != dim - 1 or not check(
                        lk, link_key, T,
                        tuple(labels[u - 1] for u in lk_labels)):
                    ok = False
                    break
        memo[key] = ok
        table[key] = {"dim": dim, "homology_matches_sphere": hom_ok,
                      "vertex_links": links}
        return ok

    root = key_of(K)
    verdict = check(K, root, frozenset(), tuple(range(1, K.m + 1)))
    return SphereCertificate(verdict=verdict, root=root, complexes=table)


def count_keys_and_names(monkeypatch, calls):
    """Count the certificate's _canonical_key calls in calls["key"] and
    its _key_str calls in calls["name"]."""
    hmod = sys.modules["momentangle.homology"]
    real_key, real_name = hmod._canonical_key, hmod._key_str

    def key(masks):
        calls["key"] += 1
        return real_key(masks)

    def name(key, text):
        calls["name"] += 1
        return real_name(key, text)

    monkeypatch.setattr(hmod, "_canonical_key", key)
    monkeypatch.setattr(hmod, "_key_str", name)


def assert_keyed_and_named_once(cert, calls, reached):
    """The root and the link of each vertex set in reached were keyed
    once, however many parents took that link; each distinct key was
    named once, and to_json names none again."""
    assert calls["key"] == 1 + len(reached)
    named = calls["name"]
    obj = cert.to_json()
    assert calls["name"] == named
    assert named == len({obj["root"]} | {
        name for c in obj["complexes"].values()
        for name in c["vertex_links"].values()})


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
        # makes check-manifold exit 3.  RP^2 does not shell, so its
        # certificate reaches _boundary_columns.
        path = tmp_path / "rp2.json"
        path.write_text(json.dumps(RP2.to_json()))
        script = (
            "import sys\n"
            "from momentangle.cli import main\n"
            "h = sys.modules['momentangle.homology']\n"
            "assert False, 'asserts are live'\n"
            "def broken(masks):\n"
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

    def test_mask_columns_match_dense_oracle(self):
        # Entry for entry, once each layer's ascending mask order is
        # matched to the faces_of_dim order of the oracle.
        rng = random.Random(1848)
        for K in [RP2, FIN, TORUS_7, new_complex(1, [(1,)]),
                  cyclic_polytope_boundary(4, 7)] + [
                      random_complex(rng) for _ in range(60)]:
            sparse = _boundary_columns(_faces(masks_of(K)))
            dense = chain_complex(K).boundaries
            assert len(sparse) == len(dense) == K.dimension + 1
            for d, (cols, bd) in enumerate(zip(sparse, dense)):
                faces, below = K.faces_of_dim(d), K.faces_of_dim(d - 1)
                by_mask = sorted(faces, key=_bitmask)
                below_by_mask = sorted(below, key=_bitmask)
                assert len(cols) == len(faces)
                assert ({(by_mask[j], below_by_mask[i], a)
                         for j, col in enumerate(cols)
                         for i, a in col.items()}
                        == {(faces[j], below[i], a)
                            for i, row in enumerate(bd.data)
                            for j, a in enumerate(row) if a}), (K, d)


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

    def test_each_complex_keyed_and_measured_once(self, monkeypatch,
                                                  no_shelling):
        hmod = sys.modules["momentangle.homology"]
        calls = dict.fromkeys(("key", "name", "homology"), 0)
        count_keys_and_names(monkeypatch, calls)
        real_homology = hmod._homology

        def counted_homology(masks, reduced):
            calls["homology"] += 1
            return real_homology(masks, reduced)

        monkeypatch.setattr(hmod, "_homology", counted_homology)
        for K in (cyclic_polytope_boundary(6, 9), RP2,
                  new_complex(5, [(1, 2, 3), (1, 2, 4), (1, 3, 4),
                                  (2, 3, 4)])):
            reached = set()
            reference_certificate(K, reached)
            calls.update(key=0, name=0, homology=0)
            cert = is_homology_sphere(K)
            table = cert.complexes.values()
            assert_keyed_and_named_once(cert, calls, reached)
            assert calls["homology"] == sum(1 for c in table
                                            if c["dim"] >= 0)
            assert cert.homology == homology(K)

    def test_homology_only_where_no_shelling_settles(self, monkeypatch,
                                                     root_not_shelling):
        hmod = sys.modules["momentangle.homology"]
        calls = dict.fromkeys(("key", "name"), 0)
        count_keys_and_names(monkeypatch, calls)
        real_homology = hmod._homology
        measured = []

        def counted_homology(faces, reduced):
            measured.append(faces)
            return real_homology(faces, reduced)

        monkeypatch.setattr(hmod, "_homology", counted_homology)
        # Only the root's shelling fails on the spheres, and RP^2 stops
        # there.  FIN's links of 1 and of the edge 12 do not shell either.
        for K, failed in ((cyclic_polytope_boundary(6, 9), 1), (RP2, 1),
                          (FIN, 3), (boundary_of_simplex(3), 1)):
            reached = set()
            reference_certificate(K, reached)
            calls.update(key=0, name=0)
            measured.clear()
            root_not_shelling.clear()
            cert = is_homology_sphere(K)
            table = cert.complexes.values()
            assert_keyed_and_named_once(cert, calls, reached)
            # Homology runs on the faces of each complex whose shelling
            # failed, and only there: no complex below one that shelled
            # tries a shelling.
            stuck = [masks for i, masks in enumerate(root_not_shelling)
                     if i == 0 or _shelling_order(masks) is None]
            assert len(stuck) == failed
            assert measured == [_faces(masks) for masks in stuck]
            assert cert.settled_by == {
                "shelling": sum(1 for c in table if c["dim"] >= 0)
                - len(stuck),
                "homology": len(stuck)}
            assert cert.homology == homology(K)

    def test_homology_settles_cyclic_spheres_without_shellings(
            self, no_shelling):
        for n, m, size in ((6, 10, 60), (8, 12, 220), (4, 12, 18)):
            cert = is_homology_sphere(cyclic_polytope_boundary(n, m))
            assert len(cert.complexes) == size
            assert cert.settled_by == {"shelling": 0, "homology": size - 1}

    def test_link_shellings_settle_cyclic_spheres(self, root_not_shelling):
        # The root takes homology; each vertex link shells once and
        # settles the complexes below it.  A slide back to one shelling
        # per complex would make hundreds of calls.
        for n, m, size in ((6, 10, 60), (8, 12, 220), (4, 12, 18)):
            root_not_shelling.clear()
            cert = is_homology_sphere(cyclic_polytope_boundary(n, m))
            assert len(cert.complexes) == size
            assert cert.settled_by == {"shelling": size - 2, "homology": 1}
            assert len(root_not_shelling) <= 1 + m

    def test_shelling_settles_cyclic_spheres(self):
        # The root shells, so no complex is measured.
        for n, m, size in ((6, 10, 60), (8, 12, 220), (4, 12, 18)):
            cert = is_homology_sphere(cyclic_polytope_boundary(n, m))
            assert len(cert.complexes) == size
            assert cert.settled_by == {"shelling": size - 1, "homology": 0}

    def test_certificate_leaves_no_garbage(self):
        # The recursion's tables, K's face poset among them, are freed on
        # return, not left in a cycle for the collector; the boundary of
        # C6(10) shells, and RP^2 takes the homology fallback.
        for K in (cyclic_polytope_boundary(6, 10), RP2):
            gc.collect()
            gc.disable()
            try:
                cert = is_homology_sphere(K)
                assert gc.collect() == 0, K
            finally:
                gc.enable()
            assert cert.complexes

    def test_matches_reference_recursion(self):
        # Same JSON, byte for byte, as the recursion on SimplicialComplex
        # links with homology everywhere; ghost vertices move the labels.
        # The reported homology is K's, and every nonempty complex of the
        # table was settled once.  A complex that shells passes.
        rng = random.Random(20261018)
        complexes = [RP2, SUSP_RP2, CONE_RP2, TORUS_7, FIN,
                     new_complex(2, [(1,), (2,)]), new_complex(1, [(1,)]),
                     new_complex(3, [])]
        for n, m in ((2, 5), (3, 6), (4, 7), (5, 8), (6, 9)):
            K = cyclic_polytope_boundary(n, m)
            complexes += [K, relabelled(K, rng), relabelled(K, rng, 3)]
        complexes += [random_complex(rng) for _ in range(150)]
        for K in complexes:
            cert = is_homology_sphere(K)
            reference = reference_certificate(K)
            assert (json.dumps(cert.to_json())
                    == json.dumps(reference.to_json())), K
            order = _shelling_order(masks_of(K))
            assert order is None or reference.verdict and is_shelling(
                K.facets, order), K
            assert cert.homology == homology(K), K
            assert sum(cert.settled_by.values()) == sum(
                1 for c in cert.complexes.values() if c["dim"] >= 0), K

    def test_certificate_json(self):
        cert = is_homology_sphere(boundary_of_simplex(2))
        obj = cert.to_json()
        assert obj["verdict"] is True
        assert obj["criterion"] == "recursive-links"
        assert obj["root"] in obj["complexes"]


class TestCanonicalKey:
    def test_squeezed_keys_equal_exactly_when_relabelled_keys_are(
            self, monkeypatch):
        # Every link that the certificate keys, on the sphere fixtures and
        # the two non-spheres, Gale-labelled, relabelled, and relabelled
        # into 1..3m so that supports have several holes.
        hmod = sys.modules["momentangle.homology"]
        reached = []

        def key(masks):
            reached.append(list(masks))
            return _canonical_key(masks)

        monkeypatch.setattr(hmod, "_canonical_key", key)
        rng = random.Random(20261020)
        fixtures = [RP2, TORUS_7] + [cyclic_polytope_boundary(n, m) for n, m
                                     in ((4, 12), (5, 10), (6, 9), (6, 10),
                                         (8, 12))]
        for K in fixtures:
            for L in (K, relabelled(K, rng), relabelled(K, rng, 2 * K.m)):
                is_homology_sphere(L)
        pairs = {(_canonical_key(masks), relabel_key(masks))
                 for masks in reached}
        assert len(pairs) == len(dict(pairs)) == len(
            {old: new for new, old in pairs})
        assert ((), (0, ())) in pairs  # the link of a facet
        text = {}
        for squeezed, (size, facets) in pairs:
            assert _key_str(squeezed, text) == key_name(size, facets)
        assert _key_str((), {}) == "0:"

    def test_masks_kept_in_their_order(self):
        # The root's masks go on to the shelling in K.facets order.
        masks = [0b11000, 0b10100, 0b01100]
        assert _canonical_key(masks) == (0b011, 0b101, 0b110)
        assert masks == [0b11000, 0b10100, 0b01100]


class TestDehnSommerville:
    """A homology sphere has a symmetric h-vector, h_i = h_{n-i}: the
    Dehn-Sommerville equations, which hold for every Eulerian complex
    (Klee, Canad. J. Math. 1964).  An oracle the certificate's "yes"
    must pass."""

    def test_certified_spheres_have_symmetric_h_vectors(self):
        # The cyclic spheres, cross-polytopes and simplex boundaries of
        # this suite.
        fixtures = ([cyclic_polytope_boundary(n, m) for n, m in
                     ((2, 4), (2, 5), (3, 5), (3, 6), (4, 7), (4, 12),
                      (5, 10), (6, 9), (6, 10), (8, 12))]
                    + [projective_product((1,) * n)[0] for n in range(1, 7)]
                    + [boundary_of_simplex(n) for n in range(1, 7)])
        for K in fixtures:
            assert is_homology_sphere(K).verdict, K
            h = h_vector(K)
            assert h == h[::-1], (K, h)

    def test_torus_is_asymmetric_and_refused(self):
        assert h_vector(TORUS_7) == [1, 4, 10, -1]
        assert not is_homology_sphere(TORUS_7).verdict


class TestManifoldVerdict:
    def test_certified(self):
        assert manifold_verdict(boundary_of_simplex(4)) == "certified_manifold"
        assert (manifold_verdict(cyclic_polytope_boundary(6, 9))
                == "certified_manifold")

    def test_unknown_never_claims_nonmanifold(self):
        assert manifold_verdict(new_complex(2, [(1, 2)])) == "unknown"


class TestLinkShelling:
    """_shelling_order as the certificate uses it: an order must be a
    shelling and the complex a sphere, and complexes that are no spheres
    never shell."""

    def test_shelled_complexes_have_sphere_homology(self):
        rng = random.Random(1939)
        complexes = []
        for dim in (2, 3):
            for _ in range(150):
                m = rng.randint(dim + 1, 8)
                complexes.append(new_complex(m, [
                    rng.sample(range(1, m + 1), dim + 1)
                    for _ in range(rng.randint(1, 14))]))
        links = []
        for n, m in ((3, 7), (4, 7), (4, 8), (5, 8), (6, 9)):
            K = relabelled(cyclic_polytope_boundary(n, m), rng)
            links += [link(K, (v,))[0] for v in support(K)]
        complexes += links + [suspension(L) for L in links[::4]]
        shelled = 0
        for K in complexes:
            order = _shelling_order(masks_of(K))
            if order is not None:
                shelled += 1
                assert is_shelling(K.facets, order), K
                assert matches_sphere(K), K
        # Every link and suspension of one is a sphere that shells.
        assert shelled >= len(links) + len(links[::4])

    def test_link_shelling_on_k_masks_implies_sphere_homology(self):
        # The certificate shells lk_S K on K's masks less S, holes in the
        # labels included.  For every face S of K, an order there must pass
        # the independent checker, and lk_S K must have the homology of a
        # sphere.  S empty is K itself.
        rng = random.Random(2014)
        spheres = [relabelled(cyclic_polytope_boundary(n, m), rng)
                   for n, m in ((3, 7), (4, 7), (5, 8), (6, 9))]
        others = [suspension(spheres[1]), SUSP_RP2, cone(spheres[0]),
                  CONE_RP2, RP2, TORUS_7, FIN]
        for K in spheres + others:
            masks = masks_of(K)
            shelled = 0
            for S in _faces(masks) | {0}:
                lk_masks = [f & ~S for f in masks if f & S == S and f != S]
                order = _shelling_order(lk_masks)
                if order is None:
                    continue
                shelled += 1
                facets = [[v for v in range(1, K.m + 1) if f >> (v - 1) & 1]
                          for f in lk_masks]
                assert is_shelling(facets, order), (K, S)
                lk, _ = link(K, [v for v in range(1, K.m + 1)
                                 if S >> (v - 1) & 1])
                assert matches_sphere(lk), (K, S)
            assert shelled, K

    def test_non_spheres_never_shell(self):
        rng = random.Random(1998)
        links = [L for n, m in ((3, 6), (4, 7), (6, 9))
                 for K in [relabelled(cyclic_polytope_boundary(n, m), rng)]
                 for L in [link(K, (v,))[0] for v in support(K)]]
        cones = [cone(K) for K in links + [boundary_of_simplex(2), RP2,
                                            TORUS_7, suspension(links[0])]]
        for K in [RP2, TORUS_7, SUSP_RP2] + cones:
            assert _shelling_order(masks_of(K)) is None, K

    def test_edge_cases(self):
        # Two points are S^0, and one vertex alone is no sphere.
        assert _shelling_order(masks_of(new_complex(2, [(1,), (2,)])))
        assert _shelling_order(masks_of(new_complex(1, [(1,)]))) is None
        assert _shelling_order(
            masks_of(new_complex(3, [(1,), (2,), (3,)]))) is None
        assert _shelling_order(masks_of(boundary_of_simplex(2)))
        assert _shelling_order(masks_of(new_complex(2, [(1, 2)]))) is None


class TestShelling:
    """_shelling_order on its own: every order it returns passes the
    independent checker, and complexes that are no spheres get none."""

    def test_orders_pass_the_checker(self):
        rng = random.Random(1974)
        spheres = [boundary_of_simplex(n) for n in range(1, 6)]
        for n, m in ((2, 5), (3, 6), (4, 7), (5, 8), (6, 9), (6, 10),
                     (8, 12), (4, 12)):
            K = cyclic_polytope_boundary(n, m)
            spheres += [K, relabelled(K, rng), relabelled(K, rng, 3)]
        for K in spheres:
            order = _shelling_order(masks_of(K))
            assert order is not None and is_shelling(K.facets, order), K

    def test_checker_rejects_swapped_orders(self):
        # Swapping the first two facets keeps a shelling, since they share
        # a ridge.  Swapping the j-th facet with a later one that shares no
        # ridge with the facets before it makes step j fail.
        rng = random.Random(1971)
        for n, m in ((3, 6), (4, 7), (6, 9), (6, 10)):
            K = relabelled(cyclic_polytope_boundary(n, m), rng)
            facets = [set(f) for f in K.facets]
            order = _shelling_order(masks_of(K))
            assert is_shelling(K.facets, order)
            swapped = [order[1], order[0]] + order[2:]
            assert is_shelling(K.facets, swapped)
            rejected = 0
            for j in range(1, len(order) - 1):
                later = [k for k in range(j + 1, len(order))
                         if all(len(facets[order[k]] & facets[i]) < n - 1
                                for i in order[:j])]
                if later:
                    k = rng.choice(later)
                    swapped = list(order)
                    swapped[j], swapped[k] = order[k], order[j]
                    assert not is_shelling(K.facets, swapped), (K, j, k)
                    rejected += 1
            assert rejected >= len(order) // 2, K

    def test_no_order_for_non_spheres(self):
        two_circles = new_complex(6, [(1, 2), (2, 3), (1, 3),
                                      (4, 5), (5, 6), (4, 6)])
        # Not pure, though every ridge lies in two facets.
        circle_and_s0 = new_complex(5, [(1, 2), (2, 3), (1, 3), (4,), (5,)])
        for K in (RP2, TORUS_7, SUSP_RP2, FIN, CONE_RP2, circle_and_s0,
                  cone(cyclic_polytope_boundary(4, 7)),
                  new_complex(3, [(1, 2, 3)]), two_circles,
                  suspension(TORUS_7), new_complex(1, [(1,)]),
                  new_complex(3, [(1,), (2,), (3,)]), new_complex(3, [])):
            assert _shelling_order(masks_of(K)) is None, K

    def test_two_points_shell(self):
        K = new_complex(2, [(1,), (2,)])
        assert _shelling_order(masks_of(K)) == [0, 1]
        cert = is_homology_sphere(K)
        assert cert.verdict
        assert cert.settled_by == {"shelling": 1, "homology": 0}
