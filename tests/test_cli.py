import argparse
import contextlib
import enum
import errno
import hashlib
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import momentangle
from momentangle import cli
from momentangle.cli import main
from momentangle.intlinalg import IntMatrix, InternalError
from momentangle.search import SearchConfig, search_free
from momentangle.simplicial import (boundary_of_simplex,
                                    cyclic_polytope_boundary, new_complex)
from momentangle.torus import cyclic69_free_subtorus, cyclic69_quotient_matrix
import test_search
from oracles import projective_product, search_json


# The 6-vertex real projective plane and the 7-vertex torus: no spheres.
RP2_6 = [(1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
         (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
TORUS_7 = [(i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1)
           for i in range(7) for a in (1, 2)]


# sha256 of the k = 2, entries {0,1} search-free report on C6(9).
K2_C69_DIGEST = ("22c258c3b890ed31bb5483623ff950666abd70a3"
                 "7b7566c20eb045d0eba904ef")


@pytest.fixture
def c69_file(tmp_path):
    path = tmp_path / "c69.json"
    path.write_text(json.dumps(cyclic_polytope_boundary(6, 9).to_json()))
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(cyclic69_free_subtorus().to_json()))
    return str(path)


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(cyclic69_quotient_matrix().to_json()))
    return str(path)


def _src_env():
    src = os.path.dirname(os.path.dirname(momentangle.__file__))
    return dict(os.environ, PYTHONPATH=src)


def report_chunks(payload):
    """The chunks the report writer passes on, in order."""
    chunks = []
    cli._write_report(payload, chunks.append)
    return chunks


def report_text(payload):
    return "".join(report_chunks(payload))


def search_report(monkeypatch, tmp_path, K, cfg):
    """The exit code of the search-free run of cfg on K through main,
    the chunks it writes to stdout, in order, and the report those
    should join to: json.dumps of search_free's search_json with the
    verdict."""
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(K.to_json()))
    argv = ["search-free", "--complex", str(path), "--k", str(cfg.k),
            "--entries=" + ",".join(map(str, cfg.entry_set)),
            "--mode", cfg.mode]
    if cfg.mode == "random":
        argv = ["--seed", str(cfg.seed), *argv,
                "--samples", str(cfg.samples)]
    chunks = []

    def write(text="", flush=False):
        if text:
            chunks.append(text)

    monkeypatch.setattr(cli, "_write_stdout", write)
    code = main(argv)
    res = search_free(K, cfg)
    payload = dict(search_json(res), verdict=bool(res.keys))
    return code, chunks, json.dumps(payload, indent=2) + "\n"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestFacetsCyclic:
    def test_c69(self, capsys):
        code, obj = run_json(capsys, ["facets-cyclic", "6", "9"])
        assert code == 0
        assert len(obj["facets"]) == 30

    def test_quadrilateral(self, capsys):
        code, obj = run_json(capsys, ["facets-cyclic", "2", "4"])
        assert code == 0
        assert obj["facets"] == [[1, 2], [1, 4], [2, 3], [3, 4]]

    def test_bad_arguments(self, capsys):
        assert main(["facets-cyclic", "3", "3"]) == 2

    def test_scales_with_the_output(self, capsys):
        # The brute force over C(1000, 2) subsets ran for over a minute.
        t0 = time.perf_counter()
        code, obj = run_json(capsys, ["facets-cyclic", "2", "1000"])
        assert time.perf_counter() - t0 < 10.0
        assert code == 0
        assert len(obj["facets"]) == 1000


class TestCheckManifold:
    def test_certified(self, capsys, c69_file):
        code, obj = run_json(capsys, ["check-manifold", "--complex",
                                      c69_file])
        assert code == 0
        assert obj["verdict"] is True
        assert obj["manifold"] == "certified_manifold"

    def test_root_homology_computed_once(self, capsys, c69_file,
                                         monkeypatch, no_shelling):
        hmod = sys.modules["momentangle.homology"]
        real = hmod._homology
        calls = []

        def counted(masks, reduced):
            calls.append(None)
            return real(masks, reduced)

        want = hmod.homology(cyclic_polytope_boundary(6, 9)).to_json()
        monkeypatch.setattr(hmod, "_homology", counted)
        code, obj = run_json(capsys, ["check-manifold", "--complex",
                                      c69_file])
        assert code == 0
        assert obj["homology"] == want
        assert len(calls) == sum(
            1 for c in obj["certificate"]["complexes"].values()
            if c["dim"] >= 0)

    def test_homology_only_where_no_shelling_settles(
            self, capsys, c69_file, monkeypatch, root_not_shelling):
        hmod = sys.modules["momentangle.homology"]
        real = hmod._homology
        calls = []

        def counted(faces, reduced):
            calls.append(None)
            return real(faces, reduced)

        want = hmod.homology(cyclic_polytope_boundary(6, 9)).to_json()
        monkeypatch.setattr(hmod, "_homology", counted)
        code, obj = run_json(capsys, ["check-manifold", "--complex",
                                      c69_file])
        assert code == 0
        assert obj["homology"] == want
        # Only the root is measured: each of its vertex links shells and
        # settles every complex below it, which tries no shelling.
        assert len(calls) == 1
        assert len(root_not_shelling) <= 1 + 9

    def test_reports_identical_on_every_path(
            self, capsys, tmp_path, request):
        rng = random.Random(20261018)
        inputs = {"rp2_6": RP2_6, "torus_7": TORUS_7}
        for n, m in ((4, 12), (5, 10), (6, 9), (6, 10)):
            K = cyclic_polytope_boundary(n, m)
            perm = rng.sample(range(1, m + 1), m)
            inputs[f"c{n}_{m}-gale"] = K.facets
            inputs[f"c{n}_{m}-relabelled"] = [[perm[v - 1] for v in f]
                                              for f in K.facets]
        inputs["c8_12-gale"] = cyclic_polytope_boundary(8, 12).facets
        paths = {}
        for name, facets in inputs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(
                {"m": max(max(f) for f in facets),
                 "facets": [list(f) for f in facets]}))

        def reports():
            out = {}
            for name, path in paths.items():
                code = main(["check-manifold", "--complex", str(path)])
                out[name] = (code, capsys.readouterr().out)
            return out

        # The root's shelling settles each sphere by default, homology on
        # the root and the shellings of its links without it, and
        # homology everywhere without any shelling.
        default = reports()
        request.getfixturevalue("root_not_shelling")
        assert reports() == default
        request.getfixturevalue("no_shelling")
        assert reports() == default
        for name, (code, _) in default.items():
            assert code == (0 if name.startswith("c") else 1), name
        complexes = json.loads(default["c8_12-gale"][1])[
            "certificate"]["complexes"]
        assert len(complexes) == 220
        assert all(rec["homology_matches_sphere"]
                   for rec in complexes.values())

    def test_order_preserving_relabelling_keeps_the_report(
            self, capsys, tmp_path):
        # Ghost vertices above every label leave the report byte for byte.
        # Spread over 1..3m in order, K keeps every name, the table's
        # order and each verdict; only the vertex_links labels move, as
        # they number K's vertices less the removed ones, ghosts included,
        # and at the root they move by the relabelling itself.
        rng = random.Random(20261020)
        for facets in (cyclic_polytope_boundary(6, 10).facets,
                       cyclic_polytope_boundary(8, 12).facets, RP2_6,
                       TORUS_7):
            m = max(max(f) for f in facets)
            spread = dict(zip(range(1, m + 1),
                              sorted(rng.sample(range(1, 3 * m + 1), m))))
            reports = []
            for size, fs in ((m, facets), (3 * m, facets),
                             (3 * m, [[spread[v] for v in f]
                                      for f in facets])):
                path = tmp_path / "k.json"
                path.write_text(json.dumps({"m": size, "facets": fs}))
                code = main(["check-manifold", "--complex", str(path)])
                reports.append((code, capsys.readouterr().out))
            (code, text), ghosts_above, (spread_code, spread_text) = reports
            assert ghosts_above == (code, text)
            assert spread_code == code
            want, got = json.loads(text), json.loads(spread_text)
            root = want["certificate"]["root"]
            links = want["certificate"]["complexes"][root]["vertex_links"]
            assert list(got["certificate"]["complexes"][root][
                "vertex_links"]) == [str(spread[int(v)]) for v in links]
            for obj in (want, got):
                for rec in obj["certificate"]["complexes"].values():
                    rec["vertex_links"] = list(rec["vertex_links"].values())
            assert json.dumps(got) == json.dumps(want)

    def test_unknown(self, capsys, tmp_path):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"m": 2, "facets": [[1, 2]]}))
        code, obj = run_json(capsys, ["check-manifold", "--complex",
                                      str(path)])
        assert code == 1
        assert obj["verdict"] is False
        assert obj["manifold"] == "unknown"


class TestCheckFree:
    def test_reference_pair(self, capsys, c69_file, torus_file):
        code, obj = run_json(capsys, ["check-free", "--complex", c69_file,
                                      "--torus", torus_file])
        assert code == 0
        assert obj["verdict"] is True

    def test_negative_verdict(self, capsys, tmp_path):
        cpath = tmp_path / "tri.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        tpath = tmp_path / "coord.json"
        tpath.write_text(json.dumps({"m": 3, "rows": [[1, 0, 0]]}))
        code, obj = run_json(capsys, ["check-free", "--complex", str(cpath),
                                      "--torus", str(tpath)])
        assert code == 1
        assert obj["verdict"] is False
        assert obj["witness_facet"] == [1, 2]


class TestExtendChar:
    def test_requires_seed(self, capsys, c69_file, torus_file):
        assert main(["extend-char", "--complex", c69_file,
                     "--torus", torus_file]) == 2

    def test_success(self, capsys, c69_file, torus_file):
        code, obj = run_json(capsys, ["--seed", "7", "extend-char",
                                      "--complex", c69_file,
                                      "--torus", torus_file,
                                      "--entry-bound", "3"])
        assert code == 0
        assert obj["verdict"] is True
        assert obj["theta_full"]["rows"] == 3

    def test_no_facets_needs_a_nonsingular_theta(self, capsys, tmp_path):
        # Without facets the empty face is maximal, so theta_full is
        # m x m and its minor on the one complement, all m columns, must
        # not vanish; lam has n = 0 rows.  A singular theta_full was
        # accepted while the complex had no complements at all.
        cpath, tpath = tmp_path / "k.json", tmp_path / "t.json"
        cpath.write_text('{"m": 2, "facets": []}')
        tpath.write_text('{"m": 2, "rows": [[1, 1]]}')
        code, obj = run_json(capsys, ["--seed", "2", "extend-char",
                                      "--complex", str(cpath), "--torus",
                                      str(tpath), "--entry-bound", "1"])
        assert code == 0
        assert obj["verdict"] is True
        (a, b), (c, d) = obj["theta_full"]["data"]
        assert a * d - b * c != 0
        assert obj["characteristic_matrix"] == {"rows": 0, "cols": 2,
                                                "data": []}

    @pytest.mark.parametrize("flag, value", [
        ("--entry-bound", "0"), ("--entry-bound", "-2"),
        ("--max-tries", "0"), ("--max-tries", "-1")])
    def test_futile_range_is_an_input_error(self, capsys, c69_file,
                                            torus_file, flag, value):
        code = main(["--seed", "7", "extend-char", "--complex", c69_file,
                     "--torus", torus_file, flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"got {value}" in captured.err
        assert "randrange" not in captured.err


class TestQuotientAndW2:
    def test_h2(self, capsys, theta_file):
        code, obj = run_json(capsys, ["quotient-h2", "--theta", theta_file])
        assert code == 0
        assert obj["h2"]["free_rank"] == 2
        assert obj["h2"]["torsion"] == []
        assert obj["w1"] == 0
        assert "simply-connected" in obj["assumption"]

    def test_w2_nonzero(self, capsys, theta_file):
        code, obj = run_json(capsys, ["w2", "--theta", theta_file])
        assert code == 0
        assert obj["w2"]["nonzero"] is True
        assert obj["w2"]["coords"] == [1, 1]

    def test_w2_from_torus(self, capsys, torus_file):
        code, obj = run_json(capsys, ["w2", "--torus", torus_file])
        assert code == 0
        assert obj["w2"]["nonzero"] is True

    def test_missing_input(self, capsys):
        assert main(["w2"]) == 2

    @pytest.mark.parametrize("cmd", ["w2", "quotient-h2"])
    def test_theta_and_torus_together_rejected(self, capsys, cmd,
                                               theta_file, torus_file):
        code = main([cmd, "--theta", theta_file, "--torus", torus_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--theta" in captured.err and "--torus" in captured.err


class TestSwQuasitoric:
    def test_cp2(self, capsys, tmp_path):
        cpath = tmp_path / "bd2.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        lpath = tmp_path / "cp2.json"
        lpath.write_text(json.dumps(
            IntMatrix([[1, 0, 1], [0, 1, 1]]).to_json()))
        code, obj = run_json(capsys, ["sw-quasitoric", "--complex",
                                      str(cpath), "--char", str(lpath)])
        assert code == 0  # nontrivial classes
        assert obj["sw_trivial"] is False
        assert obj["graded_dims"] == [1, 1, 1]
        assert obj["sw_numbers"] == {"w2^2": 1, "w4": 1}

    def test_cp3_trivial(self, capsys, tmp_path):
        cpath = tmp_path / "bd3.json"
        cpath.write_text(json.dumps(boundary_of_simplex(3).to_json()))
        lpath = tmp_path / "cp3.json"
        lpath.write_text(json.dumps(IntMatrix(
            [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]).to_json()))
        code, obj = run_json(capsys, ["sw-quasitoric", "--complex",
                                      str(cpath), "--char", str(lpath)])
        assert code == 1  # trivial classes: negative verdict
        assert obj["sw_trivial"] is True


class TestSearchFree:
    def test_triangle(self, capsys, tmp_path):
        cpath = tmp_path / "tri.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        code, obj = run_json(capsys, ["search-free", "--complex",
                                      str(cpath), "--k", "1",
                                      "--entries=-1,0,1"])
        assert code == 0
        assert obj["found"]
        assert "bounded evidence" in obj["note"]

    def test_reports_within_trivial_bound_unchanged(self, capsys,
                                                    c69_file):
        # m - n = 3 on the boundary of C6(9): k = 2 and 3 search in full,
        # and their reports keep the bytes they had before k > m - n
        # returned early.
        for k, code, digest in (
                ("2", 0, K2_C69_DIGEST),
                ("3", 1, "a81f62afc284602120acebcaf049c671b87c9de5"
                         "ba84b064ca99537297929ff6")):
            assert main(["search-free", "--complex", c69_file,
                         "--k", k]) == code
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, k

    def test_traced_peak_is_below_twice_the_report(self, c69_file,
                                                   tmp_path):
        # The report is written as it is produced, one lattice at a time:
        # the peak is the search's keys, not the 0.72 MB of text.
        out_path = tmp_path / "k2.json"
        argv = ["--quiet", "--json-out", str(out_path), "search-free",
                "--complex", c69_file, "--k", "2", "--entries=0,1"]
        # A first run fills the caches of argparse and re.
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out_path.stat().st_size
        assert size > 700_000
        assert peak < 2 * size, (peak, size)

    def test_each_lattice_is_checked_once(self, capsys, c69_file,
                                          monkeypatch):
        # Every emitted lattice passes the primitivity check exactly
        # once, on its plain rows.
        checked = []
        real = momentangle.search.is_primitive_rows

        def counted(rows):
            checked.append(rows)
            return real(rows)

        monkeypatch.setattr(momentangle.search, "is_primitive_rows", counted)
        assert main(["search-free", "--complex", c69_file, "--k", "2"]) == 0
        found = json.loads(capsys.readouterr().out)["found"]
        assert len(found) == 2223
        assert [list(map(list, rows)) for rows in checked] == [
            T["rows"] for T in found]

    def test_unprimitive_found_lattice_is_internal_error(
            self, capsys, tmp_path, c69_file, monkeypatch):
        # A found key that is not primitive is a fault of the search, not
        # of the input: exit 3, and --json-out keeps its old bytes.
        def searched(K, cfg):
            res = search_free(K, cfg)
            res.keys[((2,) + (0,) * 8, (0, 1) + (0,) * 7)] = None
            return res

        monkeypatch.setattr(cli, "search_free", searched)
        target = tmp_path / "out.json"
        target.write_text("old report\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["--json-out", str(target), "search-free",
                     "--complex", c69_file, "--k", "2"]) == 3
        err = capsys.readouterr().err
        assert "internal error: InternalError: found lattice" in err
        assert "input error" not in err
        assert target.read_text() == "old report\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_negative_k_is_input_error(self, capsys, tmp_path):
        cpath = tmp_path / "tri.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        assert main(["search-free", "--complex", str(cpath),
                     "--k", "-1"]) == 2
        err = capsys.readouterr().err
        assert "k must be >= 0" in err
        assert "repeat argument" not in err

    def test_too_many_vertices_is_input_error(self, capsys, tmp_path):
        # The 1,000-gon once ran out of recursion depth, exit 3.
        cpath = tmp_path / "gon.json"
        cpath.write_text(json.dumps(
            {"m": 1000, "facets": [[i, i % 1000 + 1]
                                   for i in range(1, 1001)]}))
        assert main(["search-free", "--complex", str(cpath),
                     "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert "at most 200 vertices, got 1000" in captured.err
        assert captured.out == ""

    def test_random_k_over_smallest_complement_answers_at_once(
            self, capsys, c69_file, monkeypatch):
        # No facet complement of the boundary of C_6(9) has more than three
        # columns, so no candidate can be free and none is drawn; a draw
        # fails at once here instead of filling memory with 9 * 10^8
        # entries.
        def no_draws(*args):
            raise AssertionError("candidate drawn")

        monkeypatch.setattr(momentangle.search, "_choices", no_draws)
        code, obj = run_json(capsys, [
            "--seed", "1", "search-free", "--complex", c69_file,
            "--k", "100000000", "--mode", "random", "--samples", "1"])
        assert code == 1
        assert (obj["found"], obj["explored"],
                obj["complete_candidates"]) == ([], 0, 0)

    def test_random_mode_without_samples_is_input_error(self, capsys,
                                                        c69_file):
        # Zero samples is no evidence, so it must not answer "false".
        assert main(["--seed", "1", "search-free", "--complex", c69_file,
                     "--k", "2", "--mode", "random"]) == 2
        captured = capsys.readouterr()
        assert "samples >= 1" in captured.err
        assert captured.out == ""

    def test_sampling_flags_in_exhaustive_mode_are_input_errors(
            self, capsys, tmp_path):
        # Exhaustive mode draws nothing: a sample count or a seed there
        # used to be ignored, and the full search ran without a word.
        cpath = tmp_path / "tri.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        assert main(["search-free", "--complex", str(cpath), "--k", "1",
                     "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert "--samples 5" in captured.err
        assert captured.out == ""
        assert main(["--seed", "3", "search-free", "--complex", str(cpath),
                     "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert "--seed 3" in captured.err
        assert captured.out == ""

    def test_repeated_entry_is_input_error(self, capsys, tmp_path):
        cpath = tmp_path / "tri.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        assert main(["search-free", "--complex", str(cpath), "--k", "1",
                     "--entries=0,1,-1,1"]) == 2
        assert "1 repeats" in capsys.readouterr().err


    def test_unparsable_entries_name_the_flag(self, capsys, tmp_path):
        cpath = tmp_path / "tri.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        for entries, item in (("0,x", "'x'"), ("", "''"),
                              ("0,1.5", "'1.5'")):
            assert main(["search-free", "--complex", str(cpath), "--k", "1",
                         f"--entries={entries}"]) == 2
            captured = capsys.readouterr()
            assert f"--entries: {item} is not an integer" in captured.err
            assert "invalid literal" not in captured.err
            assert captured.out == ""


class TestReportText:
    """Every report is json.dumps(payload, indent=2) to the byte, though
    it is not written by json's indenting encoder."""

    def test_writer_matches_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        text = st.one_of(st.text(), st.sampled_from(
            ["", "\"\\\n\t\x00\x1f", "caf\u00e9", "\u2028\ud800",
             "\U0001f600", "</script>"]))
        scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                            st.floats(), text)
        keys = st.one_of(text, st.integers(), st.booleans(), st.none(),
                         st.floats())
        values = st.recursive(scalars, lambda inner: st.one_of(
            st.lists(inner), st.lists(inner).map(tuple),
            st.lists(st.one_of(st.integers(), st.booleans())),
            st.dictionaries(keys, inner)), max_leaves=40)

        @hypothesis.settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(values)
        def check(x):
            assert report_text(x) == json.dumps(x, indent=2) + "\n"

        check()

    def test_int_like_keys_match_json_dumps(self):
        # Exact ints take their own path; their subclasses do not.
        class Colour(enum.IntEnum):
            RED = 1

        for x in ({Colour.RED: 0}, {True: 1, False: [2]}, {-7: "a"},
                  {10 ** 99 + 1: {3: 4}}, {0: 1, "0": 2, Colour.RED: 3}):
            assert report_text(x) == json.dumps(x, indent=2) + "\n"

    def test_records_match_json_dumps(self, monkeypatch, tmp_path):
        # main writes each found lattice from its key, one template per
        # shape: the bytes of json.dumps on search_json's records, in both
        # modes, at k = 0 ("rows": []) to 3 and with nothing found.
        reports = set()
        for K, entries, k in test_search.TestAgainstFrozensetSearch.CASES:
            for cfg in (SearchConfig(k=k, entry_set=entries),
                        SearchConfig(k=k, entry_set=entries, mode="random",
                                     seed=7 * k + 1, samples=150)):
                code, chunks, want = search_report(monkeypatch, tmp_path,
                                                   K, cfg)
                assert "".join(chunks) == want, (K, cfg)
                found = '"found": []' not in want
                assert code == (0 if found else 1)
                reports.add((k, found, '"rows": []' in want))
        assert {(0, True, True), (3, False, False)} <= reports
        assert {found for _, found, _ in reports} == {True, False}

    def test_key_types_json_rejects(self):
        for bad in ({(1, 2): 0}, {"a": {b"k": 0}}):
            with pytest.raises(TypeError):
                json.dumps(bad, indent=2)
            with pytest.raises(TypeError, match="keys must be str"):
                report_text(bad)

    def test_streamed_found_matches_json_dumps(self, monkeypatch,
                                               tmp_path):
        # The lattices are drawn from the keys as they are written: the
        # list they give, empty or not.
        K = cyclic_polytope_boundary(6, 9)
        for k in (2, 3):
            cfg = SearchConfig(k=k, entry_set=(0, 1))
            res = search_free(K, cfg)
            assert bool(res.found) == (k == 2)
            _, chunks, want = search_report(monkeypatch, tmp_path, K, cfg)
            assert "".join(chunks) == want

    def test_report_is_passed_on_in_bounded_chunks(self, monkeypatch,
                                                   tmp_path):
        # A chunk is passed on once its parts reach 32,768 characters,
        # and a part is one lattice, one list of ints or a dict's text up
        # to a value that is not a scalar: 22 chunks for the 723,865
        # characters of the k = 2 report on C6(9), and 7 for the 228,182
        # of the 3,250 facets of C6(30).
        _, search_chunks, _ = search_report(
            monkeypatch, tmp_path, cyclic_polytope_boundary(6, 9),
            SearchConfig(k=2, entry_set=(0, 1)))
        for chunks, count in (
                (search_chunks, 22),
                (report_chunks(cyclic_polytope_boundary(6, 30).to_json()),
                 7)):
            assert len(chunks) == count
            assert min(map(len, chunks[:-1])) >= 32_768
            assert max(map(len, chunks)) < 64_000

    def test_every_subcommand(self, capsys, tmp_path, c69_file, torus_file,
                              theta_file):
        tri = tmp_path / "tri.json"
        tri.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        cp2 = tmp_path / "cp2.json"
        cp2.write_text(json.dumps(IntMatrix([[1, 0, 1], [0, 1, 1]])
                                  .to_json()))
        runs = {
            "verify-example": ["verify-example"],
            "facets-cyclic": ["facets-cyclic", "4", "7"],
            "check-manifold": ["check-manifold", "--complex", c69_file],
            "check-free": ["check-free", "--complex", c69_file,
                           "--torus", torus_file],
            "extend-char": ["--seed", "7", "extend-char", "--complex",
                            c69_file, "--torus", torus_file],
            "quotient-h2": ["quotient-h2", "--theta", theta_file],
            "w2": ["w2", "--torus", torus_file],
            "sw-quasitoric": ["sw-quasitoric", "--complex", str(tri),
                              "--char", str(cp2)],
            "search-free": ["search-free", "--complex", c69_file,
                            "--k", "2"],
        }
        assert set(runs) == set(cli.COMMANDS)
        out_path = tmp_path / "out.json"
        for name, argv in runs.items():
            code = main(["--json-out", str(out_path)] + argv)
            out = capsys.readouterr().out
            # The exit code is 1 exactly when the verdict is false.
            verdict = json.loads(out).get("verdict")
            assert code == (1 if verdict is False else 0), name
            # The round trip keeps the bytes even for the int keys of the
            # check-manifold certificate, which json writes quoted.
            assert out == json.dumps(json.loads(out), indent=2) + "\n", name
            assert out_path.read_text() == out, name

    def test_negative_runs_exit_1(self, capsys, tmp_path, c69_file):
        rp2 = tmp_path / "rp2.json"
        rp2.write_text(json.dumps({"m": 6, "facets": RP2_6}))
        ones = tmp_path / "ones.json"
        ones.write_text(json.dumps(IntMatrix([[1] * 9]).to_json()))
        coords = tmp_path / "coords.json"
        coords.write_text(json.dumps(
            {"m": 9, "rows": [[int(i == j) for j in range(9)]
                              for i in range(3)]}))
        runs = {
            "w2": ["w2", "--theta", str(ones)],
            "check-manifold": ["check-manifold", "--complex", str(rp2)],
            "extend-char": ["--seed", "1", "extend-char", "--complex",
                            c69_file, "--torus", str(coords)],
            "search-free": ["search-free", "--complex", c69_file,
                            "--k", "3"],
        }
        for name, argv in runs.items():
            assert main(argv) == 1, name
            out = capsys.readouterr().out
            assert json.loads(out)["verdict"] is False, name
            assert out == json.dumps(json.loads(out), indent=2) + "\n", name


SURFACE = os.path.join(os.path.dirname(__file__), "data",
                       "cli_surface.json")


class TestParserSurface:
    """Help, usage and argparse error texts stay as the parser printed
    them when every subparser was built up front: data/cli_surface.json
    holds that parser's output with COLUMNS=80 (CPython 3.10.13, 3.11.7
    and 3.12.1 print the same; 3.13.0 wraps the top-level usage
    differently)."""

    @staticmethod
    def _pinned():
        with open(SURFACE) as fh:
            pinned = json.load(fh)
        minor = "%d.%d" % sys.version_info[:2]
        for versions, cases in pinned.items():
            if minor in versions.split():
                return cases
        pytest.skip(f"no texts pinned for Python {minor}")

    def test_texts_match_the_pinned_ones(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for case in self._pinned():
            with pytest.raises(SystemExit) as exc:
                main(case["argv"])
            captured = capsys.readouterr()
            assert ((exc.value.code, captured.out, captured.err)
                    == (case["code"], case["out"], case["err"])), case["argv"]

    def test_choices_are_the_command_table(self):
        usage = cli.build_parser().format_usage()
        choices = re.search(r"\{([^}]*)\}", usage).group(1)
        assert choices.split(",") == list(cli.COMMANDS)

    @staticmethod
    def _count_builds(monkeypatch):
        """The prog of every ArgumentParser built from now on."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return built

    def test_plain_argv_builds_no_parser(self, capsys, monkeypatch,
                                         theta_file):
        built = self._count_builds(monkeypatch)
        assert main(["w2", "--theta", theta_file]) == 0
        report = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv",
                            ["momentangle", "w2", "--theta", theta_file])
        assert main() == 0
        assert capsys.readouterr().out == report
        assert built == []

    def test_abbreviation_answers_through_argparse(self, capsys, monkeypatch,
                                                   theta_file):
        assert main(["w2", "--theta", theta_file]) == 0
        report = capsys.readouterr()
        built = self._count_builds(monkeypatch)
        assert main(["w2", "--thet", theta_file]) == 0
        assert capsys.readouterr() == report
        assert built == ["momentangle"] + [f"momentangle {name}"
                                           for name in cli.COMMANDS]

    def test_specs_use_only_what_the_plain_parser_reads(self):
        # Any other add_argument keyword (nargs, dest, another action)
        # could be read one way by _plain_args and another by argparse.
        keys = {"type", "default", "required", "choices", "help", "metavar",
                "action"}
        specs = [*cli.GLOBAL_OPTIONS.values()] + [
            spec for _, _, arguments in cli.COMMANDS.values()
            for spec in arguments.values()]
        for spec in specs:
            assert set(spec) <= keys, spec
            assert spec.get("action", "store_true") == "store_true", spec


class TestPlainArgv:
    """cli._plain_args reads a plain argv into the namespace argparse
    gives, and leaves every argv argparse rejects to argparse."""

    @staticmethod
    def _argparse_vars(argv):
        """vars of argparse's namespace for argv, or None if it exits."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                return vars(cli.build_parser().parse_args(argv))
            except SystemExit:
                return None

    @pytest.mark.parametrize("argv", [
        ["verify-example"],
        ["check-manifold", "--complex", "c6_10-relabelled.json"],
        ["search-free", "--complex", "c6_9.json", "--k", "2",
         "--entries=0,1"],
        ["--seed", "862034431", "search-free", "--complex", "c6_9.json",
         "--k", "2", "--entries=-1,0,1", "--mode", "random",
         "--samples", "2000"],
        ["check-free", "--complex", "c6_9.json", "--torus", "torus-0.json"],
        ["--seed", "17", "extend-char", "--complex", "c6_9.json",
         "--torus", "torus-0.json", "--entry-bound", "3"],
        ["quotient-h2", "--torus", "torus-0.json"],
        ["w2", "--theta", "theta-0.json"],
        ["sw-quasitoric", "--complex", "rp1x6-complex.json", "--char",
         "rp1x6-char.json", "--generator-degree", "1"],
        ["--json-out", "out.json", "--quiet", "facets-cyclic", "6", "9"],
    ])
    def test_benchmark_argv_shapes_are_plain(self, argv):
        plain = cli._plain_args(argv)
        assert plain is not None
        assert vars(plain) == self._argparse_vars(argv)

    @pytest.mark.parametrize("argv", [
        # argparse rejects these ...
        ["facets-cyclic", "6"], ["check-manifold"], ["verify-example", "x"],
        ["search-free", "--complex", "c.json", "--k", "x"],
        ["sw-quasitoric", "--complex", "c.json", "--char", "l.json",
         "--generator-degree", "3"],
        ["--quiet=1", "verify-example"], ["w2", "--theta"],
        ["w2", "--theta", "-h"], ["--seed", "1"], ["w2", "--quiet"],
        # ... and accepts these, which are not plain.
        ["w2", "--thet", "f.json"], ["--q", "verify-example"],
        ["w2", "--theta", "a.json", "--theta", "b.json"],
        ["facets-cyclic", "-1", "4"], ["facets-cyclic", "--", "4", "6"],
    ])
    def test_leaves_other_argv_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_agrees_with_argparse(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        commands = list(cli.COMMANDS)
        options = list(cli.GLOBAL_OPTIONS) + sorted({
            name for _, _, arguments in cli.COMMANDS.values()
            for name in arguments if name[0] == "-"})
        values = ["1", "-1", "0,1", "x", "", "theta.json", "random", "3"]
        names = commands + options
        prefixes = [name[:i] for name in names for i in range(3, len(name))
                    if sum(n.startswith(name[:i]) for n in names) == 1]
        pool = (names + prefixes + values + ["--", "-h"]
                + [f"{name}={v}" for name in options for v in values])

        @st.composite
        def given(draw, arguments):
            # The arguments in any order, each at most once and a required
            # one mostly: a positional's value, or an option with a value
            # in the next token or after "=", or alone.
            tokens = []
            for name in draw(st.permutations(list(arguments))):
                value = draw(st.sampled_from(values))
                required = name[0] != "-" or arguments[name].get("required")
                if draw(st.sampled_from([required] * 3 + [False, True])):
                    tokens += draw(st.sampled_from(
                        [[value]] if name[0] != "-" else
                        [[name, value], [f"{name}={value}"]] * 2 + [[name]]))
            return tokens

        @st.composite
        def shaped(draw):
            command = draw(st.sampled_from(commands))
            argv = [*draw(given(cli.GLOBAL_OPTIONS)), command,
                    *draw(given(cli.COMMANDS[command][2]))]
            # Now and then a token from anywhere, anywhere.
            for token in draw(st.lists(st.sampled_from(pool), max_size=1)):
                argv.insert(draw(st.integers(0, len(argv))), token)
            return argv

        plain_seen = []

        @hypothesis.settings(max_examples=600, deadline=None,
                             derandomize=True, database=None)
        @hypothesis.given(st.one_of(shaped(),
                                    st.lists(st.sampled_from(pool),
                                             max_size=6)))
        def check(argv):
            plain = cli._plain_args(argv)
            if plain is not None:
                # So argparse does not exit either.
                assert vars(plain) == self._argparse_vars(argv), argv
                plain_seen.append(argv)

        check()
        assert len(plain_seen) >= 50


class TestGlobalFlags:
    def test_json_out_and_quiet(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        code = main(["--json-out", str(out), "--quiet",
                     "facets-cyclic", "2", "4"])
        assert code == 0
        assert capsys.readouterr().out == ""
        obj = json.loads(out.read_text())
        assert len(obj["facets"]) == 4

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check-manifold", "--complex", str(bad)]) == 2
        # Valid JSON of the wrong shape, once per kind of input.
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        for argv, what in [(["check-manifold", "--complex"], "complex"),
                           (["quotient-h2", "--theta"], "matrix"),
                           (["w2", "--torus"], "subtorus")]:
            capsys.readouterr()
            assert main(argv + [str(empty)]) == 2
            assert (f"{empty}: malformed {what} JSON"
                    in capsys.readouterr().err)

    def test_missing_file_is_input_error(self):
        assert main(["check-manifold", "--complex", "/nope.json"]) == 2

    def test_unwritable_json_out_is_input_error(self, capsys, tmp_path):
        # A directory, and a path whose parent does not exist.
        for target in (tmp_path, tmp_path / "missing" / "x.json"):
            capsys.readouterr()
            assert main(["--json-out", str(target),
                         "facets-cyclic", "4", "6"]) == 2
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            assert f"input error: {target}:" in captured.err

    def test_unwritable_json_out_writes_nothing(self, capsys, tmp_path):
        # Neither on stdout nor a partial file beside the target.
        for target in (tmp_path, tmp_path / "missing" / "x.json"):
            before = sorted(os.listdir(tmp_path.parent))
            assert main(["--json-out", str(target),
                         "facets-cyclic", "4", "6"]) == 2
            assert capsys.readouterr().out == ""
            assert sorted(os.listdir(tmp_path.parent)) == before

    def test_failed_report_keeps_the_old_json_out(self, capsys, tmp_path,
                                                  c69_file, monkeypatch):
        # The k = 2 report fails at its 2,000th lattice, after hundreds of
        # KB went to a partial file.  The target keeps its old bytes and
        # the partial file is removed.
        target = tmp_path / "out.json"
        target.write_text("old report\n")
        before = sorted(os.listdir(tmp_path))
        real = momentangle.search.is_primitive_rows
        calls, partial_sizes = [], []

        def failing(rows):
            calls.append(None)
            if len(calls) == 2000:
                partial_sizes.extend(
                    p.stat().st_size for p in tmp_path.iterdir()
                    if p.name.startswith("out.json."))
                raise RuntimeError("disk gone")
            return real(rows)

        monkeypatch.setattr(momentangle.search, "is_primitive_rows", failing)
        assert main(["--json-out", str(target), "search-free",
                     "--complex", c69_file, "--k", "2"]) == 3
        assert "internal error: RuntimeError: disk gone" in (
            capsys.readouterr().err)
        assert len(partial_sizes) == 1 and partial_sizes[0] > 100_000
        assert target.read_text() == "old report\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_stdout_error_is_not_a_json_out_error(self, capsys, tmp_path,
                                                  c69_file, monkeypatch):
        # stdout on a full device: an internal error as without
        # --json-out, not an input error naming the file, which keeps its
        # old bytes.
        class FullStdout:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        target = tmp_path / "out.json"
        target.write_text("old report\n")
        before = sorted(os.listdir(tmp_path))
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["--json-out", str(target), "search-free",
                     "--complex", c69_file, "--k", "2"]) == 3
        err = capsys.readouterr().err
        assert "internal error: OSError:" in err
        assert "input error" not in err
        assert target.read_text() == "old report\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_json_out_write_error_is_input_error(self, capsys, tmp_path,
                                                 c69_file):
        # The reader of a named pipe takes the first bytes of the 724 KB
        # report and goes: every later write and the flush at close fail.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def read_a_little():
            with open(fifo, "rb") as fh:
                fh.read(100)

        reader = threading.Thread(target=read_a_little, daemon=True)
        reader.start()
        try:
            assert main(["--quiet", "--json-out", str(fifo), "search-free",
                         "--complex", c69_file, "--k", "2"]) == 2
        finally:
            reader.join(timeout=60)
        err = capsys.readouterr().err
        assert f"input error: {fifo}: [Errno {errno.EPIPE}]" in err
        assert "Traceback" not in err

    def test_json_out_keeps_permission_bits(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old report\n")
        target.chmod(0o640)
        assert main(["--quiet", "--json-out", str(target),
                     "facets-cyclic", "2", "4"]) == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert len(json.loads(target.read_text())["facets"]) == 4

    def test_json_out_writes_through_links_and_pipes(self, tmp_path):
        # A symlink, a second hard link and a named pipe are written in
        # place, not replaced by a regular file.
        expected = json.dumps(cyclic_polytope_boundary(2, 4).to_json(),
                              indent=2) + "\n"
        argv = ["--quiet", "--json-out", None, "facets-cyclic", "2", "4"]
        real = tmp_path / "real.json"
        real.write_text("old report\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        argv[2] = str(link)
        assert main(argv) == 0
        assert link.is_symlink() and real.read_text() == expected
        hard = tmp_path / "hard.json"
        os.link(real, hard)
        real.write_text("old report\n")
        argv[2] = str(hard)
        assert main(argv) == 0
        assert real.read_text() == expected
        assert os.path.samefile(real, hard)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        argv[2] = str(fifo)
        try:
            assert main(argv) == 0
        finally:
            reader.join(timeout=60)
        assert received == [expected]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == [
            "fifo", "hard.json", "link.json", "real.json"]

    def test_unexpected_exception_is_internal_error(self, capsys,
                                                   monkeypatch):
        # A crash must not exit 1, which reads as a negative verdict.
        def boom(n, m):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cyclic_polytope_boundary", boom)
        assert main(["facets-cyclic", "2", "4"]) == 3
        assert "internal error: RuntimeError: boom" in capsys.readouterr().err

    def test_internal_error_is_reported_with_traceback(self, capsys,
                                                       monkeypatch):
        # A failed postcondition takes the same branch as any crash.
        def broken(n, m):
            raise InternalError("postcondition failed")

        monkeypatch.setattr(cli, "cyclic_polytope_boundary", broken)
        assert main(["facets-cyclic", "2", "4"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "internal error: InternalError: postcondition failed" in err

    def test_closed_stdout_keeps_the_verdict(self, c69_file):
        # A reader that went away (`... | head -0`) is not an internal
        # error: the verdict was computed, so its exit code stands.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "momentangle.cli", "check-manifold",
                 "--complex", c69_file],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=_src_env(), timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert "internal error" not in proc.stderr

    def test_stdout_closed_in_the_middle_of_a_report(self, c69_file,
                                                     tmp_path):
        # The k = 2 report is about 724 KB, written in many chunks past a
        # 64 KB pipe buffer; the reader takes its first bytes and goes.
        # The --json-out file is still written in full.
        out_path = tmp_path / "out.json"
        for extra in ([], ["--json-out", str(out_path)]):
            proc = subprocess.Popen(
                [sys.executable, "-m", "momentangle.cli", *extra,
                 "search-free", "--complex", c69_file, "--k", "2"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=_src_env())
            try:
                assert proc.stdout.read(100).startswith(b'{\n  "found"')
                proc.stdout.close()
                err = proc.stderr.read().decode()
                assert proc.wait(timeout=120) == 0, err
            finally:
                proc.kill()
                proc.stderr.close()
            assert "internal error" not in err
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
            K2_C69_DIGEST)


class TestInputFiles:
    """Every failure to read an input file is an input error (exit 2)
    whose message names the file."""

    def _input_error(self, capsys, argv, path):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"input error: {path}: " in err
        return err

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        self._input_error(capsys, ["check-manifold", "--complex", str(deep)],
                          deep)

    def test_invalid_utf8(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"m": 3, "facets": [["\xff"]]}')
        self._input_error(capsys, ["check-manifold", "--complex", str(bad)],
                          bad)

    def test_vertex_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "K.json"
        path.write_text('{"m": 3, "facets": [[1, 9]]}')
        err = self._input_error(
            capsys, ["check-manifold", "--complex", str(path)], path)
        assert (f"{path}: malformed complex JSON (vertex 9 out of range "
                "1..3)") in err

    def test_ragged_matrix(self, capsys, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text('{"rows": 2, "cols": 2, "data": [[1, 0], [1]]}')
        err = self._input_error(capsys, ["quotient-h2", "--theta", str(path)],
                                path)
        assert (f"{path}: malformed matrix JSON (ragged or mis-shaped "
                "matrix data)") in err

    def test_non_primitive_torus_names_the_torus_file(self, capsys,
                                                      tmp_path):
        cpath = tmp_path / "K.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        tpath = tmp_path / "T.json"
        tpath.write_text('{"m": 3, "rows": [[2, 0, 0]]}')
        err = self._input_error(
            capsys, ["check-free", "--complex", str(cpath),
                     "--torus", str(tpath)], tpath)
        assert f"{tpath}: malformed subtorus JSON (rows must be a " in err
        assert str(cpath) not in err


class TestExactIntegerInput:
    """JSON numbers must be exact ints; anything else is an input error
    (exit 2), never rounded into a verdict."""

    def _check_free(self, tmp_path, complex_json, torus_json):
        cpath = tmp_path / "K.json"
        cpath.write_text(complex_json)
        tpath = tmp_path / "T.json"
        tpath.write_text(torus_json)
        return main(["check-free", "--complex", str(cpath),
                     "--torus", str(tpath)])

    def test_float_vertex(self, capsys, tmp_path):
        assert self._check_free(tmp_path,
                                '{"m": 3, "facets": [[1, 2.7], [2, 3]]}',
                                '{"m": 3, "rows": [[1, 1, 1]]}') == 2
        assert "vertex 2.7 is not an exact integer" in capsys.readouterr().err

    def test_float_torus_entry(self, capsys, tmp_path):
        K = json.dumps(boundary_of_simplex(2).to_json())
        assert self._check_free(tmp_path, K,
                                '{"m": 3, "rows": [[1, 1, 1.9]]}') == 2
        assert "value 1.9 is not an exact integer" in capsys.readouterr().err

    def test_bool_values(self, capsys, tmp_path):
        K = json.dumps(boundary_of_simplex(2).to_json())
        assert self._check_free(tmp_path, K,
                                '{"m": 3, "rows": [[true, 1, 1]]}') == 2
        assert self._check_free(tmp_path,
                                '{"m": true, "facets": [[1]]}',
                                '{"m": 1, "rows": [[1]]}') == 2
        assert self._check_free(tmp_path,
                                '{"m": 3, "facets": [[1, true], [2, 3]]}',
                                '{"m": 3, "rows": [[1, 1, 1]]}') == 2
        err = capsys.readouterr().err
        assert "True is not an exact integer" in err

    def test_overflowing_entry(self, capsys, tmp_path):
        # json reads 1e400 as inf.
        path = tmp_path / "theta.json"
        path.write_text('{"rows": 1, "cols": 2, "data": [[1e400, 0]]}')
        assert main(["w2", "--theta", str(path)]) == 2
        err = capsys.readouterr().err
        assert "value inf is not an exact integer" in err
        assert "internal error" not in err


class TestVerifyExample:
    def test_full_pipeline(self, capsys):
        code, obj = run_json(capsys, ["verify-example"])
        assert code == 0
        assert obj["passed"] is True
        assert [s["stage"] for s in obj["stages"]] == [
            "gale-enumeration", "purity", "homology-sphere", "freeness",
            "kernel-containment", "h2", "w2"]

    def test_deterministic_reports(self, capsys):
        main(["verify-example"])
        first = capsys.readouterr().out
        main(["verify-example"])
        second = capsys.readouterr().out
        assert first == second


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # Set and dict orders of str keys follow PYTHONHASHSEED; no report
    # may.  Each command runs in a fresh interpreter under two seeds.
    K = cyclic_polytope_boundary(6, 10)
    perm = random.Random(610).sample(range(1, 11), 10)
    relabelled = new_complex(10, [[perm[v - 1] for v in f]
                                  for f in K.facets])
    cp2x3, lam = projective_product((2, 2, 2))
    for name, obj in [("sphere.json", relabelled.to_json()),
                      ("c69.json", cyclic_polytope_boundary(6, 9).to_json()),
                      ("cp2x3.json", cp2x3.to_json()),
                      ("cp2x3-char.json", lam.to_json())]:
        (tmp_path / name).write_text(json.dumps(obj))
    for argv in (["verify-example"],
                 ["check-manifold", "--complex", "sphere.json"],
                 ["search-free", "--complex", "c69.json", "--k", "2",
                  "--entries=0,1"],
                 ["sw-quasitoric", "--complex", "cp2x3.json",
                  "--char", "cp2x3-char.json"]):
        outs = set()
        for seed in ("0", "7"):
            proc = subprocess.run(
                [sys.executable, "-m", "momentangle.cli", *argv],
                env=dict(_src_env(), PYTHONHASHSEED=seed), cwd=tmp_path,
                capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1, argv
        assert outs.pop().startswith(b"{"), argv


def test_cli_imports_only_the_standard_library():
    # The package declares no runtime dependency.  Modules that site
    # hooks load at startup are in the snapshot, so they do not count.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import momentangle.cli\n"
        "for name in sorted(set(sys.modules) - before):\n"
        "    top = name.partition('.')[0]\n"
        "    if top not in sys.stdlib_module_names and top != 'momentangle':\n"
        "        print(name)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
