import random
import time
from itertools import combinations

import pytest

from momentangle.simplicial import (SimplicialComplex, boundary_of_simplex,
                                    cyclic_polytope_boundary, new_complex)
from oracles import has_face, link, projective_product, support


def brute_force_gale(n, m):
    """Independent oracle: all-pairs statement of the evenness condition."""
    facets = []
    for S in combinations(range(1, m + 1), n):
        comp = [i for i in range(1, m + 1) if i not in S]
        ok = True
        for x in range(len(comp)):
            for y in range(x + 1, len(comp)):
                between = sum(1 for s in S if comp[x] < s < comp[y])
                if between % 2:
                    ok = False
        if ok:
            facets.append(S)
    return facets


def _gale_even(subset, m):
    # The former brute-force test, kept as an oracle: evenness for
    # consecutive non-elements implies it for all pairs.
    sset = set(subset)
    comp = [i for i in range(1, m + 1) if i not in sset]
    for a, b in zip(comp, comp[1:]):
        if sum(1 for s in subset if a < s < b) % 2:
            return False
    return True


def set_based_facets(faces):
    """The former all-pairs maximality filter, kept as an oracle."""
    cleaned = {tuple(sorted(set(face))) for face in faces}
    cleaned.discard(())
    return tuple(sorted(f for f in cleaned
                        if not any(f != g and set(f) <= set(g)
                                   for g in cleaned)))


def subset_minimal_nonfaces(K):
    """The former enumeration of every vertex subset up to size dim + 2,
    kept as an oracle."""
    facet_masks = [sum(1 << (v - 1) for v in f) for f in K.facets]
    found = []
    out = []
    for size in range(1, min(K.m, K.dimension + 2) + 1):
        for cand in combinations(range(K.m), size):
            mask = 0
            for v in cand:
                mask |= 1 << v
            if any(mask & ~fm == 0 for fm in facet_masks):
                continue
            if any(mask & nf == nf for nf in found):
                continue
            found.append(mask)
            out.append(tuple(v + 1 for v in cand))
    return out


def random_faces(rng, m):
    """Faces of mixed sizes, some nested, some repeated, some empty."""
    faces = [rng.sample(range(1, m + 1), rng.randint(0, m))
             for _ in range(rng.randint(0, 10))]
    faces += [rng.sample(f, rng.randint(0, len(f)))
              for f in faces[:rng.randint(0, len(faces))]]
    faces += [list(reversed(f)) for f in faces[:rng.randint(0, 3)]]
    rng.shuffle(faces)
    return faces


class TestConstruction:
    def test_triangle_boundary(self):
        K = new_complex(3, [{1, 2}, {2, 3}, {1, 3}])
        assert K.facets == ((1, 2), (1, 3), (2, 3))
        assert K.dimension == 1

    def test_maximality_filtering(self):
        K = new_complex(3, [{1, 2}, {1}, {2}])
        assert K.facets == ((1, 2),)
        assert support(K) == (1, 2)  # vertex 3 is a ghost

    def test_empty_complex(self):
        K = new_complex(3, [])
        assert K.dimension == -1
        assert K.facets == ()
        assert K.is_pure()

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            new_complex(2, [{1, 3}])

    def test_zero_vertices(self):
        with pytest.raises(ValueError):
            new_complex(0, [])

    def test_deduplication(self):
        K = new_complex(3, [(1, 2), (2, 1), [1, 2]])
        assert K.facets == ((1, 2),)

    def test_layered_filter_matches_set_based_filter(self):
        rng = random.Random(20261018)
        for _ in range(1500):
            m = rng.randint(1, 9)
            faces = random_faces(rng, m)
            assert new_complex(m, faces).facets == set_based_facets(faces)

    def test_facets_non_containing_invariant(self):
        K = new_complex(5, [(1, 2, 3), (1, 2), (4, 5), (4,)])
        for f in K.facets:
            for g in K.facets:
                assert f == g or not set(f) <= set(g)

    def test_fields_cannot_be_assigned(self):
        # A complex is hashable, so a write to either field must fail and
        # leave the complex as it was.
        K = new_complex(3, [(1, 2), (2, 3)])
        for name, value in (("m", 4), ("facets", ((1, 2, 3),))):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(K, name, value)
        assert (K.m, K.facets) == (3, ((1, 2), (2, 3)))


class TestPredicates:
    def test_purity(self):
        assert boundary_of_simplex(3).is_pure()
        assert not new_complex(3, [(1, 2), (3,)]).is_pure()

    def test_dimension_of_simplex_boundaries(self):
        assert boundary_of_simplex(2).dimension == 1
        assert boundary_of_simplex(1).facets == ((1,), (2,))

    def test_has_face(self):
        K = boundary_of_simplex(2)
        assert has_face(K, ())
        assert has_face(K, (1, 2))
        assert not has_face(K, (1, 2, 3))

    def test_facet_complements_in_facet_order(self):
        K = new_complex(5, [(1, 2), (2, 3), (1, 3)])  # 4 and 5 are ghosts
        assert K.facets == ((1, 2), (1, 3), (2, 3))
        assert K.facet_complements() == [(3, 4, 5), (2, 4, 5), (1, 4, 5)]
        # Without facets the empty face is the one maximal face.
        assert boundary_of_simplex(0).facet_complements() == [(1,)]
        for sigma, comp in zip(K.facets, K.facet_complements()):
            assert sorted(sigma + comp) == list(range(1, K.m + 1))


class TestFaces:
    def test_faces_of_dim(self):
        K = boundary_of_simplex(2)
        assert K.faces_of_dim(1) == [(1, 2), (1, 3), (2, 3)]
        assert K.faces_of_dim(0) == [(1,), (2,), (3,)]
        assert K.faces_of_dim(-1) == [()]

    def test_faces_out_of_range(self):
        with pytest.raises(ValueError):
            boundary_of_simplex(2).faces_of_dim(2)

    def test_euler_characteristic_of_simplex_boundaries(self):
        for n in range(1, 9):
            chi = boundary_of_simplex(n).euler_characteristic()
            assert chi == 1 + (-1) ** (n - 1)


class TestLink:
    def test_link_of_vertex_in_triangle(self):
        K = boundary_of_simplex(2)
        L, labels = link(K, (1,))
        assert L.facets == ((1,), (2,))
        assert labels == (2, 3)

    def test_link_of_empty_face(self):
        K = boundary_of_simplex(2)
        L, labels = link(K, ())
        assert L == K
        assert labels == (1, 2, 3)

    def test_link_of_nonface_raises(self):
        with pytest.raises(ValueError):
            link(boundary_of_simplex(2), (1, 2, 3))

    def test_link_purity_on_polytope_boundaries(self):
        for n, m in [(3, 5), (4, 7), (6, 9)]:
            K = cyclic_polytope_boundary(n, m)
            for v in support(K):
                L, _ = link(K, (v,))
                assert L.is_pure()
                assert L.dimension == K.dimension - 1


class TestCyclicPolytope:
    def test_quadrilateral(self):
        K = cyclic_polytope_boundary(2, 4)
        assert K.facets == ((1, 2), (1, 4), (2, 3), (3, 4))

    def test_against_brute_force_oracle(self):
        for n, m in [(2, 4), (3, 5), (4, 7), (6, 9)]:
            K = cyclic_polytope_boundary(n, m)
            assert list(K.facets) == sorted(brute_force_gale(n, m))

    def test_c69_facet_count(self):
        assert len(cyclic_polytope_boundary(6, 9).facets) == 30

    def test_c69_complement_parity(self):
        K = cyclic_polytope_boundary(6, 9)
        for f in K.facets:
            a, b, c = [v for v in range(1, 10) if v not in set(f)]
            assert (b - a) % 2 == 1

    def test_purity_sweep(self):
        for n in range(2, 9):
            for m in range(n + 1, 13):
                K = cyclic_polytope_boundary(n, m)
                assert K.is_pure()
                assert K.dimension == n - 1

    def test_against_subset_gale_test(self):
        for n in range(2, 9):
            for m in range(n + 1, 15):
                expected = [S for S in combinations(range(1, m + 1), n)
                            if _gale_even(S, m)]
                assert list(cyclic_polytope_boundary(n, m).facets) \
                    == expected, (n, m)

    def test_scales_with_the_output(self):
        # Trying all C(200, 4) subsets took more than a minute.
        t0 = time.perf_counter()
        K = cyclic_polytope_boundary(4, 200)
        assert time.perf_counter() - t0 < 10.0
        assert len(K.facets) == 200 * 197 // 2
        assert K.facets[:3] == ((1, 2, 3, 4), (1, 2, 3, 200),
                                (1, 2, 4, 5))

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            cyclic_polytope_boundary(3, 3)


class TestMinimalNonfaces:
    def test_small_cases(self):
        assert boundary_of_simplex(2).minimal_nonfaces() == [(1, 2, 3)]
        # Vertex 4 is a ghost; the full simplex has no non-face.
        assert new_complex(4, [(1, 2), (2, 3)]).minimal_nonfaces() \
            == [(4,), (1, 3)]
        assert new_complex(3, [(1, 2, 3)]).minimal_nonfaces() == []
        assert new_complex(3, []).minimal_nonfaces() == [(1,), (2,), (3,)]

    def test_random_complexes_against_subsets(self):
        rng = random.Random(6)
        for _ in range(600):
            m = rng.randint(1, 9)
            K = new_complex(m, random_faces(rng, m))
            assert K.minimal_nonfaces() == subset_minimal_nonfaces(K), K

    def test_cyclic_polytopes_against_subsets(self):
        for m in range(3, 13):
            for n in range(2, m):
                K = cyclic_polytope_boundary(n, m)
                assert K.minimal_nonfaces() == subset_minimal_nonfaces(K), \
                    (n, m)

    def test_projective_products_against_subsets(self):
        cases = [(2,) * k for k in range(1, 6)]
        cases += [(3, 3, 3), (1, 2, 3), (1,) * 6]
        for exponents in cases:
            K, _ = projective_product(exponents)
            got = K.minimal_nonfaces()
            assert got == subset_minimal_nonfaces(K), exponents
            # One minimal non-face per factor: its whole vertex block.
            assert len(got) == len(exponents)


class TestJson:
    def test_roundtrip(self):
        K = cyclic_polytope_boundary(3, 6)
        assert SimplicialComplex.from_json(K.to_json()) == K

    def test_canonical_order(self):
        K = new_complex(4, [(3, 4), (1, 2)])
        assert K.to_json()["facets"] == [[1, 2], [3, 4]]
