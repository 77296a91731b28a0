import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

import momentangle
from momentangle import cli
from momentangle.cli import main
from momentangle.intlinalg import IntMatrix, InternalError
from momentangle.simplicial import boundary_of_simplex, cyclic_polytope_boundary
from momentangle.torus import cyclic69_free_subtorus, cyclic69_quotient_matrix


# The 6-vertex real projective plane and the 7-vertex torus: no spheres.
RP2_6 = [(1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
         (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]
TORUS_7 = [(i % 7 + 1, (i + a) % 7 + 1, (i + 3) % 7 + 1)
           for i in range(7) for a in (1, 2)]


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
                                         monkeypatch, no_collapse):
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

    def test_homology_only_for_stuck_collapses(self, capsys, c69_file,
                                               monkeypatch):
        hmod = sys.modules["momentangle.homology"]
        real_homology, real_collapse = (hmod._homology,
                                        hmod._collapses_off_a_facet)
        calls, collapses, stuck = [], [], []

        def counted(masks, reduced):
            calls.append(None)
            return real_homology(masks, reduced)

        def collapse(faces, removed, count, xor):
            collapsed = real_collapse(faces, removed, count, xor)
            collapses.append(None)
            if not collapsed:
                stuck.append(None)
            return collapsed

        want = hmod.homology(cyclic_polytope_boundary(6, 9)).to_json()
        monkeypatch.setattr(hmod, "_homology", counted)
        monkeypatch.setattr(hmod, "_collapses_off_a_facet", collapse)
        code, obj = run_json(capsys, ["check-manifold", "--complex",
                                      c69_file])
        assert code == 0
        assert obj["homology"] == want
        assert len(calls) == len(stuck)
        assert len(collapses) == sum(
            1 for c in obj["certificate"]["complexes"].values()
            if c["dim"] >= 0)
        assert stuck == []  # the 5-sphere and all its links collapse

    def test_reports_identical_when_every_collapse_fails(
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

        default = reports()
        request.getfixturevalue("no_collapse")
        assert reports() == default
        for name, (code, _) in default.items():
            assert code == (0 if name.startswith("c") else 1), name
        complexes = json.loads(default["c8_12-gale"][1])[
            "certificate"]["complexes"]
        assert len(complexes) == 220
        assert all(rec["homology_matches_sphere"]
                   for rec in complexes.values())

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
                ("2", 0, "22c258c3b890ed31bb5483623ff950666abd70a3"
                         "7b7566c20eb045d0eba904ef"),
                ("3", 1, "a81f62afc284602120acebcaf049c671b87c9de5"
                         "ba84b064ca99537297929ff6")):
            assert main(["search-free", "--complex", c69_file,
                         "--k", k]) == code
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, k

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
            assert cli._dumps_indented(x) == json.dumps(x, indent=2)

        check()

    def test_key_types_json_rejects(self):
        for bad in ({(1, 2): 0}, {"a": {b"k": 0}}):
            with pytest.raises(TypeError):
                json.dumps(bad, indent=2)
            with pytest.raises(TypeError, match="keys must be str"):
                cli._dumps_indented(bad)

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

    def test_only_the_named_subparser_is_built(self, capsys, monkeypatch,
                                               theta_file):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["w2", "--theta", theta_file]) == 0
        assert built == ["momentangle", "momentangle w2"]


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
