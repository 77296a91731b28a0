"""End-to-end verification of the boundary-of-C_6(9) worked example.

Seven stages, run in order, each with a hard expected outcome: facet
enumeration, purity, homology-sphere certification, freeness of the
hard-coded 2-torus, exact kernel containment against the hard-coded
quotient matrix, the H^2 cokernel, and the nonvanishing of w_2.  The
stages come from one generator, and verify_c69_example holds the only
stop rule: it appends each stage as it is yielded and ends the report at
the first that fails, naming it; later stages are never computed.  A
report is produced even on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .charclasses import h2_of_quotient, mod2_class, w2_of_quotient
from .homology import is_homology_sphere
from .intlinalg import IntMatrix, det, kernel_lattice, row_lattice_equal
from .simplicial import cyclic_polytope_boundary
from .torus import (Subtorus, acts_freely, cyclic69_free_subtorus,
                    cyclic69_quotient_matrix)


@dataclass
class StageResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {"stage": self.name, "passed": self.passed,
                "details": self.details}


@dataclass
class VerificationReport:
    stages: list
    first_failure: Optional[str]

    @property
    def passed(self):
        return self.first_failure is None

    def to_json(self):
        return {"passed": self.passed, "first_failure": self.first_failure,
                "stages": [s.to_json() for s in self.stages],
                "assumptions": [
                    "ambient moment-angle manifold taken simply-connected "
                    "for the H^2 presentation",
                    "w1 of the partial quotient is reported as 0; only "
                    "H^2 and w2 are computed",
                ]}


def verify_c69_example(torus_matrix: Optional[IntMatrix] = None,
                       theta: Optional[IntMatrix] = None) -> VerificationReport:
    """Run the whole pipeline; overrides exist for fault injection and for
    re-derived quotient matrices with the same row lattice."""
    stages = []
    for st in _stages(torus_matrix, theta):
        stages.append(st)
        if not st.passed:
            return VerificationReport(stages, st.name)
    return VerificationReport(stages, None)


def _stages(torus_matrix, theta):
    """The StageResult of each stage in order, yielded as soon as it is
    decided; verify_c69_example stops reading at the first failure."""
    # Stage 1: facet enumeration.
    K = cyclic_polytope_boundary(6, 9)
    yield StageResult("gale-enumeration", len(K.facets) == 30,
                      {"facet_count": len(K.facets)})

    # Stage 2: purity and dimension.
    yield StageResult("purity", K.is_pure() and K.dimension == 5,
                      {"pure": K.is_pure(), "dimension": K.dimension})

    # Stage 3: homology-sphere certificate.
    cert = is_homology_sphere(K)
    yield StageResult("homology-sphere", cert.verdict,
                      {"criterion": cert.criterion,
                       "complexes_checked": len(cert.complexes)})

    # Stage 4: freeness, including the unit-2x2-minor check on every
    # facet complement.
    A = torus_matrix if torus_matrix is not None \
        else cyclic69_free_subtorus().matrix
    try:
        T = Subtorus(A)
    except ValueError as exc:
        yield StageResult("freeness", False, {"error": str(exc)})
        return
    res = acts_freely(T, K)
    minor_ok = True
    bad_comp = None
    for comp in K.facet_complements():
        if not any(det(A.submatrix_cols(pair)) in (1, -1)
                   for pair in combinations(comp, A.rows)):
            minor_ok = False
            bad_comp = comp
            break
    yield StageResult("freeness", res.free and minor_ok,
                      {"witness_facet": list(res.witness) if res.witness
                       else None,
                       "unit_minor_on_all_complements": minor_ok,
                       "bad_complement": list(bad_comp) if bad_comp
                       else None})

    # Stage 5: the quotient matrix annihilates the torus rows and its
    # kernel lattice is exactly the torus lattice.
    Q = theta if theta is not None else cyclic69_quotient_matrix()
    annihilates = (Q @ A.transpose()).is_zero()
    kernel_match = row_lattice_equal(kernel_lattice(Q), A)
    yield StageResult("kernel-containment", annihilates and kernel_match,
                      {"annihilates": annihilates,
                       "kernel_equals_torus_lattice": kernel_match})

    # Stage 6: H^2 = Z^2, torsion-free, with the expected images of the
    # ambient generators: each relation v_gen = sum of v_b vanishes in
    # the presentation.
    pres = h2_of_quotient(Q)
    relations = [(3, (1,)), (5, (1,)), (7, (1,)), (4, (2,)), (6, (2,)),
                 (8, (2,)), (9, (1, 2))]
    rel_ok = True
    for gen, expr in relations:
        vec = [0] * 9
        vec[gen - 1] = 1
        for b in expr:
            vec[b - 1] -= 1
        if not pres.vanishes(vec):
            rel_ok = False
            break
    yield StageResult(
        "h2",
        pres.free_rank == 2 and not pres.torsion and rel_ok,
        {"free_rank": pres.free_rank, "torsion": list(pres.torsion),
         "generator_relations_hold": rel_ok})

    # Stage 7: w2 is [v1] + [v2], nonzero.  Both classes come in the
    # same basis of the mod-2 cokernel, so equal coordinates mean equal
    # classes.
    cls, zero = w2_of_quotient(Q)
    same = mod2_class(Q, [1, 1] + [0] * (Q.cols - 2)) == cls
    yield StageResult("w2", (not zero) and same,
                      {"coords": list(cls.coords), "nonzero": not zero,
                       "equals_v1_plus_v2": same})
