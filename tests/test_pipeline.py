import pytest

from momentangle import intlinalg
from momentangle.intlinalg import IntMatrix
from momentangle.pipeline import VerificationReport, verify_c69_example
from momentangle.torus import cyclic69_free_subtorus, quotient_projection


class TestVerify:
    def test_all_stages_pass(self):
        report = verify_c69_example()
        assert report.passed
        assert report.first_failure is None
        assert all(s.passed for s in report.stages)
        w2 = next(s for s in report.stages if s.name == "w2")
        assert w2.details["coords"] == [1, 1]

    def test_corrupted_torus_fails_at_freeness(self):
        A = cyclic69_free_subtorus().matrix
        rows = [list(r) for r in A.data]
        # Make columns 1..3 collinear: the facet with complement {1,2,3}
        # then sees a rank-1 submatrix.
        rows[0][1], rows[1][1] = 1, 0
        report = verify_c69_example(torus_matrix=IntMatrix(rows))
        assert not report.passed
        assert report.first_failure == "freeness"
        freeness = next(s for s in report.stages if s.name == "freeness")
        witness = freeness.details["witness_facet"]
        assert witness is not None
        # The witness really is an offending facet: its complement columns
        # are all multiples of (1, 0).
        comp = [v for v in range(1, 10) if v not in witness]
        assert all(rows[1][v - 1] == 0 for v in comp)

    def test_rederived_theta_gives_same_verdicts(self):
        theta = quotient_projection(cyclic69_free_subtorus())
        report = verify_c69_example(theta=theta)
        assert report.passed

    def test_non_primitive_torus_stops_at_freeness(self):
        rows = [list(r) for r in cyclic69_free_subtorus().matrix.data]
        rows[0] = [2 * x for x in rows[0]]
        report = verify_c69_example(torus_matrix=IntMatrix(rows))
        assert not report.passed
        assert [s.name for s in report.stages] == [
            "gale-enumeration", "purity", "homology-sphere", "freeness"]
        assert report.first_failure == "freeness"
        assert set(report.stages[-1].details) == {"error"}

    def test_wrong_theta_stops_at_kernel_containment(self):
        report = verify_c69_example(theta=IntMatrix([[1] + [0] * 8]))
        assert not report.passed
        assert len(report.stages) == 5
        assert report.stages[-1].name == "kernel-containment"
        assert report.first_failure == "kernel-containment"
        assert all(s.passed for s in report.stages[:-1])

    def test_two_smith_forms(self, monkeypatch):
        # One for the kernel lattice of stage 5 and one for the H^2
        # presentation of stage 6, whose generator relations are read off
        # that presentation.
        shapes = []
        real = intlinalg.smith

        def counting(A):
            shapes.append((A.rows, A.cols))
            return real(A)

        monkeypatch.setattr(intlinalg, "smith", counting)
        assert verify_c69_example().passed
        assert shapes == [(7, 9), (9, 7)]

    def test_report_json_shape(self):
        obj = verify_c69_example().to_json()
        assert obj["passed"] is True
        assert len(obj["stages"]) == 7
        assert obj["first_failure"] is None
        assert any("simply-connected" in a for a in obj["assumptions"])

    def test_passed_is_read_off_the_first_failure(self):
        # A report cannot pass with a failing stage named.
        assert VerificationReport([], None).passed
        assert not VerificationReport([], "w2").passed
        with pytest.raises(TypeError):
            VerificationReport([], "w2", passed=True)
