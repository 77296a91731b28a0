"""The benchmark's checks on itself.  Each function returns a list of
problems; an empty list means the check passed, and any problem makes the
run report ``"correct": false``."""

from __future__ import annotations

import json

import tracer
import workloads


def generator(workload, seed):
    """The same seed gives the same inputs; another seed other inputs."""
    def dump(s):
        return json.dumps(workloads.build(workload, s), sort_keys=True)

    problems = []
    if dump(seed) != dump(seed):
        problems.append(f"generator is not deterministic for seed {seed}")
    if dump(seed) == dump(seed + 1):
        problems.append(f"seeds {seed} and {seed + 1} give the same inputs")
    return problems


def _corrupt(kind, report):
    """Change one fact the oracle checks for this kind of report."""
    if kind == "manifold":
        report["homology"]["degrees"][-1]["betti"] += 1
    elif kind == "search":
        k = len(report["found"][0]["rows"]) if report["found"] else 2
        report["found"].append({"m": 9, "rows": [[0] * 9] * k})
    elif kind == "free":
        report["witness_facet"] = [1, 2, 3, 4, 5, 6]
    elif kind == "extend":
        report["theta_full"]["data"][-1] = [0] * 9
    elif kind == "quotient-h2":
        report["h2"]["free_rank"] += 1
    elif kind == "w2":
        report["w2"]["nonzero"] = not report["w2"]["nonzero"]
    elif kind == "sw":
        first = next(iter(report["sw_numbers"]))
        report["sw_numbers"][first] ^= 1
    elif kind == "example":
        report["stages"][-1]["details"]["coords"] = [0, 0]
    return report


def oracle_flags_corruption(oracle, outcomes):
    """Every report the oracle accepted must be rejected once its exit
    code is flipped, once one checked fact is changed, and, where a digest
    is pinned, once a byte is appended."""
    problems = []
    for o in outcomes:
        if o.code not in (0, 1) or oracle.check(o.task, o.code, o.text):
            continue
        tid = o.task["id"]
        if not oracle.check(o.task, 1 - o.code, o.text):
            problems.append(f"oracle accepts a flipped exit code on {tid}")
        wrong = _corrupt(o.task["check"]["kind"], json.loads(o.text))
        if not oracle.check(o.task, o.code, json.dumps(wrong, indent=2)):
            problems.append(f"oracle accepts a corrupted report on {tid}")
        if tid in oracle.pinned and not oracle.check(o.task, o.code,
                                                     o.text + " "):
            problems.append(f"oracle ignores the pinned digest on {tid}")
    return problems


def self_times_cover_pass(metrics, traced_pass_s):
    """The self times of all layers add up to the traced pass: what is
    left is the tracer's and the harness's own time inside the timed
    calls, which must stay small."""
    total = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    if not 0.97 * traced_pass_s <= total <= traced_pass_s:
        return [f"layer self times sum to {total:.4f} s, "
                f"the traced pass took {traced_pass_s:.4f} s"]
    return []
