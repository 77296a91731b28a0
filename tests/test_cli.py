import json
import os
import subprocess
import sys
import time

import pytest

import momentangle
from momentangle import cli
from momentangle.cli import main
from momentangle.intlinalg import IntMatrix
from momentangle.simplicial import boundary_of_simplex, cyclic_polytope_boundary
from momentangle.torus import cyclic69_free_subtorus, cyclic69_quotient_matrix


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
                                         monkeypatch):
        hmod = sys.modules["momentangle.homology"]
        real = hmod.homology
        calls = []

        def counted(K, reduced=True):
            calls.append(None)
            return real(K, reduced)

        monkeypatch.setattr(hmod, "homology", counted)
        monkeypatch.setattr(cli, "homology", counted, raising=False)
        code, obj = run_json(capsys, ["check-manifold", "--complex",
                                      c69_file])
        assert code == 0
        assert obj["homology"] == real(
            cyclic_polytope_boundary(6, 9)).to_json()
        assert len(calls) == sum(
            1 for c in obj["certificate"]["complexes"].values()
            if c["dim"] >= 0)

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

    def test_negative_k_is_input_error(self, capsys, tmp_path):
        cpath = tmp_path / "tri.json"
        cpath.write_text(json.dumps(boundary_of_simplex(2).to_json()))
        assert main(["search-free", "--complex", str(cpath),
                     "--k", "-1"]) == 2
        err = capsys.readouterr().err
        assert "k must be >= 0" in err
        assert "repeat argument" not in err

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
