"""Independent oracle for the benchmark's task reports.

Nothing here imports ``momentangle``: every fact is recomputed with the
benchmark's own small exact routines (GF(2) bitmask ranks, Bareiss
determinants, gcds of maximal minors, a row Hermite normal form) or taken
from the mathematics of the inputs (cyclic polytope boundaries are
spheres; prod CP^{a_i} is Stiefel-Whitney trivial iff every a_i + 1 is a
power of 2).  ``Oracle.check`` returns the list of everything wrong with
one report; an empty list means the report is correct.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from math import gcd

from workloads import REFERENCE_TORUS, gale_facets

EXAMPLE_STAGES = ["gale-enumeration", "purity", "homology-sphere",
                  "freeness", "kernel-containment", "h2", "w2"]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- exact arithmetic --------------------------------------------------------

def det(M):
    """Bareiss fraction-free determinant of a square integer matrix."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(r) for r in M]
    sign, prev = 1, 1
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                A[r][j] = (A[r][j] * A[c][c] - A[r][c] * A[c][j]) // prev
        prev = A[c][c]
    return sign * A[n - 1][n - 1]


def columns(M, cols):
    """Columns with the given 1-based labels."""
    return [[row[j - 1] for j in cols] for row in M]


def maximal_minor_gcd(M):
    """gcd of the k x k minors of a k x c matrix (0 when rank < k).  It
    is 1 exactly when x -> x M embeds Z^k as a direct summand, i.e. the
    torus map is injective."""
    k = len(M)
    g = 0
    for cols in combinations(range(1, len(M[0]) + 1), k):
        g = gcd(g, det(columns(M, cols)))
        if g == 1:
            break
    return g


def hnf(M):
    """Row Hermite normal form: positive pivots, entries above a pivot in
    [0, pivot), zero rows dropped.  Unique for a row lattice."""
    H = [list(r) for r in M]
    r = 0
    for c in range(len(H[0]) if H else 0):
        rows = [i for i in range(r, len(H)) if H[i][c]]
        while len(rows) > 1:
            p = min(rows, key=lambda i: abs(H[i][c]))
            for i in rows:
                if i != p:
                    q = H[i][c] // H[p][c]
                    H[i] = [a - q * b for a, b in zip(H[i], H[p])]
            rows = [i for i in range(r, len(H)) if H[i][c]]
        if not rows:
            continue
        H[r], H[rows[0]] = H[rows[0]], H[r]
        if H[r][c] < 0:
            H[r] = [-a for a in H[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        r += 1
    return H[:r]


def rank_mod2(masks):
    basis = {}
    for row in masks:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def in_rowspace_mod2(M, vec):
    masks = [sum(1 << j for j, a in enumerate(row) if a % 2) for row in M]
    target = sum(1 << j for j, a in enumerate(vec) if a % 2)
    return rank_mod2(masks + [target]) == rank_mod2(masks)


def reduced_mod2_homology(facets):
    """(reduced f-vector Euler characteristic, reduced mod-2 Betti numbers
    in degrees 0..dim) of the complex with these facets."""
    dim = max(len(f) for f in facets) - 1
    faces = [sorted({s for f in facets for s in combinations(f, d + 1)})
             for d in range(dim + 1)]
    ranks = [1] + [0] * (dim + 1)  # rank of the augmentation C_0 -> Z/2
    for d in range(1, dim + 1):
        index = {s: i for i, s in enumerate(faces[d - 1])}
        ranks[d] = rank_mod2(
            sum(1 << index[s[:i] + s[i + 1:]] for i in range(len(s)))
            for s in faces[d])
    euler = sum((-1) ** d * len(fd) for d, fd in enumerate(faces)) - 1
    betti = [len(faces[d]) - ranks[d] - ranks[d + 1] for d in range(dim + 1)]
    return euler, betti


def facet_complements(facets, m):
    return [[v for v in range(1, m + 1) if v not in set(f)] for f in facets]


def acts_freely(torus, facets, m):
    return all(maximal_minor_gcd(columns(torus, comp)) == 1
               for comp in facet_complements(facets, m))


# -- Stiefel-Whitney numbers of prod P^{a_i} ----------------------------------

class ProjectiveProduct:
    """H^*(prod P^{a_i}; Z/2) = Z/2[x_i] / (x_i^{a_i+1}) with the total
    Stiefel-Whitney class prod (1 + x_i)^{a_i+1}.

    Monomials are packed integers with one 4-bit field per factor, so a
    product of monomials is an integer sum; (field + 7 - a_i) has bit 3 set
    exactly when the exponent exceeds a_i.  Polynomials are sets of
    monomials, added by symmetric difference.
    """

    def __init__(self, exponents):
        self.a = list(exponents)
        self.n = sum(self.a)
        self.bias = sum((7 - a) << (4 * i) for i, a in enumerate(self.a))
        self.high = sum(8 << (4 * i) for i in range(len(self.a)))
        self.top = sum(a << (4 * i) for i, a in enumerate(self.a))
        total = {0}
        for i, a in enumerate(self.a):
            factor = {j << (4 * i) for j in range(a + 1)
                      if binomial_odd(a + 1, j)}
            total = self.mul(total, factor)
        self.w = [set() for _ in range(self.n + 1)]
        for mono in total:
            self.w[self.degree(mono)].add(mono)

    def degree(self, mono):
        return sum((mono >> (4 * i)) & 15 for i in range(len(self.a)))

    def mul(self, p, q):
        out = set()
        for x in p:
            for y in q:
                z = x + y
                if not (z + self.bias) & self.high:
                    out ^= {z}
        return out

    def betti(self):
        dims = [1]
        for a in self.a:
            nxt = [0] * (len(dims) + a)
            for i, d in enumerate(dims):
                for j in range(a + 1):
                    nxt[i + j] += d
            dims = nxt
        return dims

    def numbers(self, degree):
        """Every SW number, keyed as the program names them."""
        out = {}

        def walk(left, largest, acc, parts):
            if left == 0:
                pieces = []
                for part in sorted(set(parts), reverse=True):
                    e = parts.count(part)
                    name = f"w{part * degree}"
                    pieces.append(name if e == 1 else f"{name}^{e}")
                out[" ".join(pieces)] = int(self.top in acc)
                return
            for part in range(min(left, largest), 0, -1):
                walk(left - part, part, self.mul(acc, self.w[part]),
                     parts + (part,))

        walk(self.n, self.n, {0}, ())
        return out


def binomial_odd(n, k):
    return 0 <= k <= n and (n & k) == k   # Lucas' theorem


def power_of_two(x):
    return x > 0 and x & (x - 1) == 0


# -- report checks ------------------------------------------------------------

class Oracle:
    """Judges the reports of one generated workload.

    ``pinned`` maps task id -> sha256 of the report text for this seed, or
    is empty when no digests are pinned for the seed.  Facts about an input
    are computed once and cached on the oracle, which is the benchmark's
    object, never the program's.
    """

    def __init__(self, files, pinned=None):
        self.files = files
        self.pinned = pinned or {}
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def check(self, task, code, text):
        errors = []
        want = self.pinned.get(task["id"])
        if want is not None and digest(text) != want:
            errors.append("report digest differs from the pinned one")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return errors + [f"report is not JSON: {exc}"]
        if not isinstance(report, dict):
            return errors + ["report is not a JSON object"]
        check = task["check"]
        judge = getattr(self, "_" + check["kind"].replace("-", "_"))
        try:
            expected_code = judge(check, report, errors)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return errors + [f"malformed report: {exc!r}"]
        if code != expected_code:
            errors.append(f"exit code {code}, oracle expects {expected_code}")
        verdict = expected_code == 0
        if "verdict" in report and report["verdict"] is not verdict:
            errors.append("verdict field contradicts the oracle")
        return errors

    def _manifold(self, check, report, errors):
        K = self.files[check["complex"]]
        euler, mod2 = self._memo(("homology", check["complex"]),
                                 lambda: reduced_mod2_homology(K["facets"]))
        degrees = report["homology"]["degrees"]
        betti = [d["betti"] for d in degrees]
        torsion = [d["torsion"] for d in degrees]
        if betti != check["betti"] or torsion != check["torsion"]:
            errors.append(f"integral homology {betti} {torsion} is wrong")
        if [d["mod2"] for d in degrees] != mod2:
            errors.append("mod-2 homology differs from the oracle's")
        if sum((-1) ** d * b for d, b in enumerate(betti)) != euler:
            errors.append("Betti numbers contradict the Euler characteristic")
        label = "certified_manifold" if check["sphere"] else "unknown"
        if report["manifold"] != label:
            errors.append(f"manifold verdict {report['manifold']!r}")
        if report["certificate"]["verdict"] is not check["sphere"]:
            errors.append("certificate verdict is wrong")
        return 0 if check["sphere"] else 1

    def _lattices(self, report, k, facets, m, errors):
        seen = set()
        for t in report["found"]:
            rows = t["rows"]
            if t["m"] != m or len(rows) != k:
                errors.append(f"found torus has the wrong shape: {t}")
                continue
            if hnf(rows) != rows:
                errors.append(f"found torus is not in Hermite form: {rows}")
            if not acts_freely(rows, facets, m):
                errors.append(f"found torus does not act freely: {rows}")
            seen.add(tuple(map(tuple, rows)))
        if len(seen) != len(report["found"]):
            errors.append("found tori are not distinct")
        return seen

    def _search(self, check, report, errors):
        K = self.files[check["complex"]]
        facets, m, k = K["facets"], K["m"], check["k"]
        found = self._lattices(report, k, facets, m, errors)
        if "bounded evidence" not in report["note"]:
            errors.append("the bounded-evidence note is missing")
        if report["complete_candidates"] < len(found):
            errors.append("fewer complete candidates than found tori")
        if "samples" in check and report["explored"] != check["samples"]:
            errors.append("random mode did not draw every sample")
        if "lattices" in check and len(found) != check["lattices"]:
            errors.append(f"{len(found)} lattices, expected "
                          f"{check['lattices']}")
        if (check.get("has_reference")
                and tuple(map(tuple, hnf(REFERENCE_TORUS))) not in found):
            errors.append("the reference torus is not among the hits")
        return 0 if found else 1

    def _free(self, check, report, errors):
        K = self.files[check["complex"]]
        torus = self.files[check["torus"]]["rows"]
        free = acts_freely(torus, K["facets"], K["m"])
        if (report["witness_facet"] is None) is not free:
            errors.append("witness facet contradicts the verdict")
        return 0 if free else 1

    def _extend(self, check, report, errors):
        K = self.files[check["complex"]]
        torus = self.files[check["torus"]]["rows"]
        m, n = K["m"], len(K["facets"][0])
        theta = report["theta_full"]["data"]
        lam = report["characteristic_matrix"]["data"]
        if theta[:len(torus)] != torus:
            errors.append("extension does not start with the torus rows")
        if len(theta) != m - n or len(lam) != n:
            errors.append("extension or characteristic matrix has wrong shape")
        for comp in facet_complements(K["facets"], m):
            if det(columns(theta, comp)) == 0:
                errors.append(f"extension is singular on complement {comp}")
                break
        for f in K["facets"]:
            if det(columns(lam, f)) == 0:
                errors.append(f"characteristic matrix singular on {f}")
                break
        if any(sum(a * b for a, b in zip(r, s)) for r in lam for s in theta):
            errors.append("characteristic matrix is not orthogonal to theta")
        return 0

    def _theta(self, check):
        """(theta, None) for a ``--theta`` task; (None, T) for a
        ``--torus`` task, whose theta the CLI derives from T."""
        if "theta" in check:
            return self.files[check["theta"]]["data"], None
        return None, self.files[check["torus"]]["rows"]

    def _quotient_h2(self, check, report, errors):
        theta, torus = self._theta(check)
        h2 = report["h2"]
        # coker(theta^T) is free exactly when the maximal minors of theta
        # have gcd 1.  The CLI derives theta from a torus T as the exact
        # annihilator of T, whose cokernel is free of rank k.
        if theta is not None and maximal_minor_gcd(theta) != 1:
            errors.append("oracle finds torsion in H^2")
        rank = len(theta[0]) - len(theta) if theta is not None else len(torus)
        if h2["free_rank"] != rank or h2["torsion"] != []:
            errors.append(f"H^2 is Z^{h2['free_rank']} + {h2['torsion']}, "
                          f"expected Z^{rank}")
        return 0

    def _w2(self, check, report, errors):
        theta, torus = self._theta(check)
        if theta is not None:
            nonzero = not in_rowspace_mod2(theta, [1] * len(theta[0]))
        else:
            # theta is the exact annihilator of T, also mod 2, so the
            # all-ones vector lies in its row space iff every row of T
            # has even sum.
            nonzero = any(sum(r) % 2 for r in torus)
        if report["w2"]["nonzero"] is not nonzero:
            errors.append("w2 nonvanishing is wrong")
        return 0 if nonzero else 1

    def _sw(self, check, report, errors):
        exps, degree = check["exponents"], check["degree"]
        ring = self._memo(("sw", tuple(exps)),
                          lambda: ProjectiveProduct(exps))
        trivial = all(power_of_two(a + 1) for a in exps)
        if report["sw_trivial"] is not trivial:
            errors.append("SW triviality contradicts the power-of-2 rule")
        if report["generator_degree"] != degree:
            errors.append("generator degree is wrong")
        if report["graded_dims"] != ring.betti():
            errors.append("graded dimensions are not the Poincare series")
        nonzero = [c["nonzero"] for c in report["total_sw_class"]]
        if nonzero != [bool(w) for w in ring.w]:
            errors.append("nonvanishing of the w_i is wrong")
        numbers = self._memo(("numbers", tuple(exps), degree),
                             lambda: ring.numbers(degree))
        if report.get("sw_numbers") != numbers:
            errors.append("Stiefel-Whitney numbers differ from the oracle's")
        return 1 if trivial else 0

    def _example(self, check, report, errors):
        stages = {s["stage"]: s for s in report["stages"]}
        if [s["stage"] for s in report["stages"]] != EXAMPLE_STAGES:
            errors.append("pipeline stages are not the seven expected ones")
        if not (report["passed"] and report["first_failure"] is None
                and all(s["passed"] for s in report["stages"])):
            errors.append("the reference pipeline did not pass")
        details = (stages["gale-enumeration"]["details"]["facet_count"],
                   stages["purity"]["details"]["dimension"],
                   stages["h2"]["details"]["free_rank"],
                   stages["h2"]["details"]["torsion"],
                   stages["w2"]["details"]["coords"])
        if details != (len(gale_facets(6, 9)), 5, 2, [], [1, 1]):
            errors.append(f"reference pipeline details are wrong: {details}")
        return 0
