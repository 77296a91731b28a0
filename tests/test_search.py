import hashlib
import json
import random
from itertools import product

import pytest

import momentangle.search
import momentangle.torus
from momentangle.intlinalg import (IntMatrix, hermite_normal_form,
                                   hermite_normal_form_rows, smith)
from momentangle.search import (EXHAUSTIVE_MAX_VERTICES, SearchConfig,
                                search_free)
from momentangle.simplicial import (SimplicialComplex, boundary_of_simplex,
                                    cyclic_polytope_boundary, new_complex)
from momentangle.torus import (FreenessTest, PreconditionError, Subtorus,
                               acts_freely)

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


def smith_primitive(k, cols):
    sd = smith(IntMatrix([[c[i] for c in cols] for i in range(k)],
                         rows=k, cols=len(cols)))
    return sd.rank == k and all(d == 1 for d in sd.invariant_factors)


def frozenset_search(K, cfg):
    """Reference search without palette codes: columns as tuples, the
    freeness memo keyed on frozenset(columns of a complement), primitivity
    by the Smith form.  Returns (found matrices, explored,
    complete_candidates)."""
    m, k = K.m, cfg.k
    found, seen, memo = [], set(), {}
    counts = {"explored": 0, "complete": 0}
    comps = K.facet_complements() or [tuple(range(1, m + 1))]

    def first_unfree(columns, constraints):
        for i, comp in enumerate(constraints):
            cols = [columns[j - 1] for j in comp]
            key = frozenset(cols)
            if key not in memo:
                memo[key] = smith_primitive(k, cols)
            if not memo[key]:
                return i
        return None

    def record(columns):
        counts["complete"] += 1
        key = hermite_normal_form(
            IntMatrix([[col[i] for col in columns] for i in range(k)],
                      rows=k, cols=m))
        if key not in seen:
            seen.add(key)
            found.append(key)

    if cfg.mode == "random":
        rng = random.Random(cfg.seed)
        for _ in range(cfg.samples):
            rows = [[rng.choice(cfg.entry_set) for _ in range(m)]
                    for _ in range(k)]
            columns = [tuple(row[j] for row in rows) for j in range(m)]
            counts["explored"] += 1
            if first_unfree(columns, comps) is None:
                record(columns)
        return found, counts["explored"], counts["complete"]

    # No complement with fewer than k columns generates Z^k: nothing to
    # explore.
    if k > min(map(len, comps)):
        return found, counts["explored"], counts["complete"]
    by_depth = {}
    for comp in comps:
        by_depth.setdefault(comp[-1] if comp else 0, []).append(comp)
    column_choices = list(product(cfg.entry_set, repeat=k))

    def dfs(columns):
        depth = len(columns)
        if first_unfree(columns, by_depth.get(depth, ())) is not None:
            return
        if depth == m:
            record(columns)
            return
        for col in column_choices:
            counts["explored"] += 1
            dfs(columns + (col,))

    dfs(())
    return found, counts["explored"], counts["complete"]


class TestAgainstFrozensetSearch:
    """Palette codes change how the search is keyed, not what it finds:
    the same found list in the same order, and the same counts."""

    CASES = [(K, entries, k)
             for K in ORACLE_COMPLEXES + [cyclic_polytope_boundary(4, 6)]
             for entries in ((0, 1), (-1, 0, 1), (1, 0, -1, 2))
             for k in (0, 1, 2, 3)
             if len(entries) ** (k * K.m) <= 3 ** 11]

    def check(self, K, cfg):
        res = search_free(K, cfg)
        found, explored, complete = frozenset_search(K, cfg)
        assert [t.matrix for t in res.found] == found, (K, cfg)
        assert (res.explored, res.complete_candidates) == (explored,
                                                          complete)
        return res

    def test_exhaustive(self):
        total = 0
        for K, entries, k in self.CASES:
            total += len(self.check(K, SearchConfig(k=k, entry_set=entries))
                         .found)
        assert total > 100

    def test_random(self):
        total = 0
        for K, entries, k in self.CASES:
            total += len(self.check(K, SearchConfig(
                k=k, entry_set=entries, mode="random", seed=7 * k + 1,
                samples=150)).found)
        assert total > 100

    def test_larger_searches(self):
        self.check(cyclic_polytope_boundary(4, 6),
                   SearchConfig(k=2, entry_set=(-1, 0, 1)))
        K = cyclic_polytope_boundary(6, 9)
        res = self.check(K, SearchConfig(k=2, entry_set=(0, 1)))
        assert (len(res.found), res.explored,
                res.complete_candidates) == (2223, 20700, 4518)
        self.check(K, SearchConfig(k=2, entry_set=(-1, 0, 1),
                                   mode="random", seed=5, samples=500))
        res = self.check(K, SearchConfig(k=3, entry_set=(0, 1)))
        assert (res.found, res.explored) == ([], 31496)

    def test_cached_transforms(self, monkeypatch):
        # Leaves that share the codes up to the k-th pivot read their HNF
        # off the cached transform: fewer HNF runs than leaves, and the
        # same answers.  {0, 1, 2} gives non-unit pivots.
        runs = []
        real = momentangle.search.hermite_normal_form_rows

        def counting(rows):
            runs.append(None)
            return real(rows)

        monkeypatch.setattr(momentangle.search, "hermite_normal_form_rows",
                            counting)
        for K, cfg, lattices in [
                (cyclic_polytope_boundary(4, 7),
                 SearchConfig(k=3, entry_set=(0, 1)), 56),
                (cyclic_polytope_boundary(2, 5),
                 SearchConfig(k=2, entry_set=(0, 1, 2)), None)]:
            del runs[:]
            res = self.check(K, cfg)
            assert 0 < len(runs) < res.complete_candidates, cfg
            if lattices is not None:
                assert len(res.found) == lattices
        pivots = {next(x for x in row if x)
                  for t in res.found for row in t.matrix.data}
        assert max(pivots) > 1

    def test_complement_ending_at_the_first_column(self):
        # Each facet complement of the triangle boundary is one column, so
        # complement (1,) is tested at depth 0 on an empty prefix mask.
        K = boundary_of_simplex(2)
        assert (1,) in K.facet_complements()
        res = self.check(K, SearchConfig(k=1, entry_set=(2, 0, -1, 1)))
        assert {t.matrix.data[0][0] for t in res.found} <= {-1, 1}
        assert res.found


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

    def test_inexact_values_rejected(self):
        # A float entry once ran the search silently, a bool entry failed
        # inside it, and a float k failed inside itertools.product.
        for k, entries in ((1, (0.5, 1)), (1, (True, 0)), (2.0, (0, 1)),
                           (True, (0, 1))):
            with pytest.raises(TypeError, match="not an exact integer"):
                SearchConfig(k=k, entry_set=entries)
        # A float sample count failed inside range; a float or bool seed
        # ran silently.
        for seed, samples in ((1, 2.0), (1.5, 2), (True, 2)):
            with pytest.raises(TypeError, match="not an exact integer"):
                SearchConfig(k=1, entry_set=(0, 1), mode="random",
                             seed=seed, samples=samples)

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

    def test_k_over_smallest_complement_builds_no_palette(self,
                                                          monkeypatch):
        # Each facet complement of the triangle boundary has one column,
        # so no 14-torus acts freely; the answer needs no |E|^k palette.
        def no_palette(*args, **kwargs):
            raise AssertionError("palette built")

        monkeypatch.setattr(momentangle.search, "product", no_palette)
        res = search_free(boundary_of_simplex(2),
                          SearchConfig(k=14, entry_set=(0, 1)))
        assert (res.found, res.explored, res.complete_candidates) == (
            [], 0, 0)

    def test_vertex_count_bounded(self):
        # Exhaustive mode recurses once per column: at the bound it runs,
        # one vertex more is an input error naming the bound, raised
        # before any facet complement is built.
        K = boundary_of_simplex(EXHAUSTIVE_MAX_VERTICES - 1)
        res = search_free(K, SearchConfig(k=1, entry_set=(0, 1)))
        assert [t.matrix.data for t in res.found] == [
            ((1,) * EXHAUSTIVE_MAX_VERTICES,)]
        K = boundary_of_simplex(EXHAUSTIVE_MAX_VERTICES)

        def no_complements(self):
            raise AssertionError("facet complements built")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SimplicialComplex, "facet_complements",
                       no_complements)
            with pytest.raises(ValueError, match=(
                    f"at most {EXHAUSTIVE_MAX_VERTICES} vertices, got "
                    f"{EXHAUSTIVE_MAX_VERTICES + 1}")):
                search_free(K, SearchConfig(k=1, entry_set=(0, 1)))
        res = search_free(K, SearchConfig(k=1, entry_set=(0, 1),
                                          mode="random", seed=1, samples=3))
        assert res.explored == 3

    def test_pinned_search_on_c6_10(self):
        # A search 13 times the size of the k = 2 search on C_6(9): its
        # counts and report bytes are pinned.
        res = search_free(cyclic_polytope_boundary(6, 10),
                          SearchConfig(k=2, entry_set=(0, 1)))
        assert (len(res.found), res.explored, res.complete_candidates) == (
            41551, 264172, 84066)
        assert hashlib.sha256(json.dumps(res.to_json()).encode()).hexdigest(
            ) == ("39fda583f125f1d55c584f04e326fc67"
                  "165579f362e759df408435fa5d19faeb")

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

    def test_random_palette_restart_changes_no_answer(self, evaluations,
                                                      monkeypatch):
        K = cyclic_polytope_boundary(2, 6)
        cfg = SearchConfig(k=2, entry_set=tuple(range(-3, 4)),
                           mode="random", seed=12, samples=400)
        full = evaluations(K, cfg)
        monkeypatch.setattr(momentangle.torus, "FREENESS_PALETTE_LIMIT", 20)
        assert evaluations(K, cfg) > full  # the palette did start over
        res = search_free(K, cfg)
        found, explored, complete = frozenset_search(K, cfg)
        assert [t.matrix for t in res.found] == found
        assert (res.explored, res.complete_candidates) == (explored,
                                                          complete)
        assert len(found) > 10

    def test_key_is_a_bitmask_of_palette_codes(self):
        # Two column lists with the same set of distinct columns share one
        # entry: the key is the set of their palette indices.
        comps = [(1, 2, 3)]
        test = FreenessTest(2, [(1, 0), (0, 1), (1, 1), (2, 2)])
        assert test.first_unfree([0, 1, 1], comps) is None
        assert test.first_unfree([1, 0, 0], comps) is None
        assert test.first_unfree([2, 3, 2], comps) == 0
        assert test.memo == {0b0011: True, 0b1100: False}
        assert test.code([(0, 1), (2, 2), (3, 0)]) == [1, 3, 4]

    def test_first_unfree_matches_smith_oracle_across_restarts(self):
        # One instance per k serves every example, and a low palette cap
        # makes code() start palette and memo over mid-stream.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tests = {}
        restarts = []

        @hypothesis.settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.data())
        def check(data):
            k = data.draw(st.integers(0, 3))
            m = data.draw(st.integers(1, 7))
            cols = data.draw(st.lists(
                st.tuples(*[st.integers(-3, 3)] * k), min_size=m,
                max_size=m))
            comps = data.draw(st.lists(st.lists(
                st.integers(1, m), unique=True).map(sorted), max_size=5))
            test = tests.setdefault(k, FreenessTest(k))
            old = list(test.palette)
            codes = test.code(cols)
            if test.palette[:len(old)] != old:
                restarts.append(k)
            assert [test.palette[c] for c in codes] == cols
            assert test.first_unfree(codes, comps) == next(
                (i for i, comp in enumerate(comps) if not smith_primitive(
                    k, [cols[j - 1] for j in comp])), None)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(momentangle.torus, "FREENESS_PALETTE_LIMIT", 12)
            check()
        # k = 0 has the one column (), so only k >= 1 starts over.
        assert set(restarts) == {1, 2, 3}
