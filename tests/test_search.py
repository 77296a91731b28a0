from itertools import product

import pytest

import momentangle.torus
from momentangle.intlinalg import IntMatrix, hermite_normal_form
from momentangle.search import SearchConfig, search_free
from momentangle.simplicial import (boundary_of_simplex,
                                    cyclic_polytope_boundary, new_complex)
from momentangle.torus import PreconditionError, Subtorus, acts_freely

ORACLE_COMPLEXES = [
    boundary_of_simplex(2),
    boundary_of_simplex(3),
    new_complex(3, [(1, 2, 3)]),                  # full simplex
    new_complex(4, [(1, 2), (2, 3), (1, 3)]),     # ghost vertex 4
    new_complex(4, [(1, 2), (3, 4)]),
    new_complex(2, []),                           # no facets
]


def free_lattices(K, k, entries):
    """Row-lattice keys of every k x m matrix over entries that is a
    Subtorus acting freely on Z_K."""
    keys = set()
    for flat in product(entries, repeat=k * K.m):
        rows = [flat[i * K.m:(i + 1) * K.m] for i in range(k)]
        try:
            T = Subtorus(IntMatrix(rows, rows=k, cols=K.m))
        except ValueError:
            continue
        if acts_freely(T, K):
            keys.add(T.row_lattice_key())
    return keys


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

    def test_repeated_entry_rejected(self):
        with pytest.raises(ValueError, match="-1 repeats"):
            SearchConfig(k=1, entry_set=(0, -1, 1, -1))

    def test_random_requires_samples(self):
        for samples in (0, -3):
            with pytest.raises(ValueError, match="samples >= 1"):
                SearchConfig(k=1, entry_set=(0, 1), mode="random", seed=1,
                             samples=samples)

    def test_exhaustive_mode_rejects_sampling_settings(self):
        with pytest.raises(ValueError, match="--samples 5"):
            SearchConfig(k=1, entry_set=(0, 1), samples=5)
        with pytest.raises(ValueError, match="--seed 0"):
            SearchConfig(k=1, entry_set=(0, 1), seed=0)

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

    def test_found_set_matches_acts_freely_oracle(self):
        # Brute force: every primitive candidate over the entry set that
        # acts_freely accepts, up to row lattice.  Random mode may miss
        # some but must find nothing else.
        for K in ORACLE_COMPLEXES:
            for entries in ((0, 1), (-1, 0, 1)):
                for k in (0, 1, 2):
                    expected = free_lattices(K, k, entries)
                    res = search_free(K, SearchConfig(k=k, entry_set=entries))
                    keys = [t.row_lattice_key() for t in res.found]
                    assert len(keys) == len(set(keys))
                    assert set(keys) == expected, (K, entries, k)
                    rand = search_free(K, SearchConfig(
                        k=k, entry_set=entries, mode="random", seed=k,
                        samples=200))
                    assert ({t.row_lattice_key() for t in rand.found}
                            <= expected), (K, entries, k)

    def test_full_simplex_has_no_free_circle(self):
        # Z_K = D^6 has a fixed point, so no circle acts freely; the empty
        # facet complement must be checked at the root of the search.
        K = new_complex(3, [(1, 2, 3)])
        for entries in ((0, 1), (-1, 0, 1)):
            res = search_free(K, SearchConfig(k=1, entry_set=entries))
            assert res.found == []
            assert res.explored == 0

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


class TestMemo:
    """One search_free call tests each distinct facet-complement column
    set once, and no memo state outlives the call."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        real = momentangle.torus.is_primitive_cols

        def counting(k, columns):
            calls.append(None)
            return real(k, columns)

        monkeypatch.setattr(momentangle.torus, "is_primitive_cols",
                            counting)

        def run(K, cfg):
            del calls[:]
            search_free(K, cfg)
            return len(calls)
        return run

    def test_evaluation_counts_on_c69(self, evaluations):
        K = cyclic_polytope_boundary(6, 9)
        for cfg, want in [
                (SearchConfig(k=3, entry_set=(0, 1)), 92),
                (SearchConfig(k=2, entry_set=(0, 1)), 14),
                (SearchConfig(k=2, entry_set=(-1, 0, 1), mode="random",
                              seed=111985490, samples=2000), 129)]:
            assert evaluations(K, cfg) == want, cfg
            assert evaluations(K, cfg) == want, cfg
