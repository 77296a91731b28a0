import pytest

from momentangle.intlinalg import IntMatrix, hermite_normal_form
from momentangle.search import SearchConfig, search_free
from momentangle.simplicial import boundary_of_simplex, new_complex
from momentangle.torus import PreconditionError


class TestConfig:
    def test_empty_entry_set(self):
        with pytest.raises(ValueError):
            SearchConfig(k=1, entry_set=())

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            SearchConfig(k=1, entry_set=(0, 1), mode="random")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SearchConfig(k=1, entry_set=(0, 1), mode="full")

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            SearchConfig(k=-1, entry_set=(0, 1))

    def test_k_zero_finds_trivial_torus_once(self):
        K = boundary_of_simplex(2)
        for cfg in (SearchConfig(k=0, entry_set=(-1, 0, 1)),
                    SearchConfig(k=0, entry_set=(0, 1), mode="random",
                                 seed=1, samples=5)):
            res = search_free(K, cfg)
            assert len(res.found) == 1
            assert (res.found[0].k, res.found[0].m) == (0, 3)


class TestExhaustive:
    def test_circles_on_triangle_boundary(self):
        K = boundary_of_simplex(2)
        res = search_free(K, SearchConfig(k=1, entry_set=(-1, 0, 1)))
        keys = {t.row_lattice_key() for t in res.found}
        assert hermite_normal_form(IntMatrix([[1, 1, 1]])) in keys
        # Coordinate circles fix points and must not appear.
        assert hermite_normal_form(IntMatrix([[1, 0, 0]])) not in keys

    def test_prune_matches_no_prune(self):
        K = boundary_of_simplex(2)
        pruned = search_free(K, SearchConfig(k=1, entry_set=(0, 1)))
        full = search_free(K, SearchConfig(k=1, entry_set=(0, 1),
                                           prune=False))
        assert ({t.row_lattice_key() for t in pruned.found}
                == {t.row_lattice_key() for t in full.found})

    def test_ceiling_enforced_without_prune(self):
        K = boundary_of_simplex(2)
        with pytest.raises(ValueError):
            search_free(K, SearchConfig(k=2, entry_set=(0, 1), prune=False,
                                        ceiling=10))

    def test_dedup_by_row_lattice(self):
        K = boundary_of_simplex(2)
        res = search_free(K, SearchConfig(k=1, entry_set=(-1, 0, 1)))
        keys = [t.row_lattice_key() for t in res.found]
        assert len(keys) == len(set(keys))

    def test_non_pure_rejected(self):
        K = new_complex(3, [(1, 2), (3,)])
        with pytest.raises(PreconditionError):
            search_free(K, SearchConfig(k=1, entry_set=(0, 1)))

    def test_note_labels_bounded_evidence(self):
        K = boundary_of_simplex(2)
        res = search_free(K, SearchConfig(k=1, entry_set=(0, 1)))
        assert "bounded evidence" in res.note


class TestRandom:
    def test_random_mode_finds_diagonal(self):
        K = boundary_of_simplex(2)
        cfg = SearchConfig(k=1, entry_set=(0, 1), mode="random", seed=3,
                           samples=200)
        res = search_free(K, cfg)
        keys = {t.row_lattice_key() for t in res.found}
        assert hermite_normal_form(IntMatrix([[1, 1, 1]])) in keys

    def test_deterministic_for_seed(self):
        K = boundary_of_simplex(2)
        cfg = SearchConfig(k=1, entry_set=(-1, 0, 1), mode="random", seed=9,
                           samples=100)
        a = search_free(K, cfg)
        b = search_free(K, cfg)
        assert ([t.matrix for t in a.found] == [t.matrix for t in b.found])
