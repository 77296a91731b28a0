"""Command-line front end.

Exit codes: 0 success / true verdict, 1 false or negative verdict,
2 input error, 3 internal error (a failed assertion or any other
unexpected exception, so a crash never reads as a negative verdict).
Every verdict-style command also carries a "verdict" field in its JSON
output matching the exit code.  All randomness requires an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .charclasses import (face_ring_mod2, h2_of_quotient, sw_numbers,
                          sw_triviality, total_sw_class, w2_of_quotient)
from .homology import is_homology_sphere
from .intlinalg import IntMatrix
from .pipeline import verify_c69_example
from .search import SearchConfig, search_free
from .simplicial import SimplicialComplex, cyclic_polytope_boundary
from .torus import (ExtensionResult, Subtorus, acts_freely,
                    extend_to_characteristic, quotient_projection)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load(path, cls, what):
    """cls.from_json of the JSON file at path.  An unreadable file, bad
    JSON or JSON of the wrong shape for cls (named by what) is a
    ValueError naming the path."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        return cls.from_json(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed {what} JSON ({exc})") from exc


def _emit(args, payload):
    text = json.dumps(payload, indent=2)
    if args.json_out:
        try:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"{args.json_out}: {exc}") from exc
    if not args.quiet:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:  # reader gone; the verdict stands
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())


# -- subcommands ------------------------------------------------------------

def cmd_verify_example(args):
    report = verify_c69_example()
    payload = report.to_json()
    payload["verdict"] = report.passed
    _emit(args, payload)
    return EXIT_TRUE if report.passed else EXIT_FALSE


def cmd_facets_cyclic(args):
    K = cyclic_polytope_boundary(args.n, args.m)
    _emit(args, K.to_json())
    return EXIT_TRUE


def cmd_check_manifold(args):
    K = _load(args.complex, SimplicialComplex, "complex")
    cert = is_homology_sphere(K)
    payload = {"verdict": cert.verdict,
               "manifold": "certified_manifold" if cert else "unknown",
               "homology": cert.homology.to_json(),
               "certificate": cert.to_json()}
    _emit(args, payload)
    return EXIT_TRUE if cert.verdict else EXIT_FALSE


def cmd_check_free(args):
    K = _load(args.complex, SimplicialComplex, "complex")
    T = _load(args.torus, Subtorus, "subtorus")
    res = acts_freely(T, K)
    payload = {"verdict": res.free,
               "witness_facet": list(res.witness) if res.witness else None}
    _emit(args, payload)
    return EXIT_TRUE if res.free else EXIT_FALSE


def cmd_extend_char(args):
    if args.seed is None:
        raise ValueError("--seed is required for the randomized extension")
    K = _load(args.complex, SimplicialComplex, "complex")
    T = _load(args.torus, Subtorus, "subtorus")
    res: ExtensionResult = extend_to_characteristic(
        T, K, entry_bound=args.entry_bound, max_tries=args.max_tries,
        seed=args.seed)
    payload = {"verdict": res.success, "tries": res.tries}
    if res.success:
        payload["theta_full"] = res.theta_full.to_json()
        payload["characteristic_matrix"] = res.lam.to_json()
    else:
        payload["message"] = res.message
    _emit(args, payload)
    return EXIT_TRUE if res.success else EXIT_FALSE


def _theta_from_args(args):
    if args.theta and args.torus:
        raise ValueError("give --theta or --torus, not both")
    if args.theta:
        return _load(args.theta, IntMatrix, "matrix")
    if args.torus:
        return quotient_projection(_load(args.torus, Subtorus, "subtorus"))
    raise ValueError("provide either --theta or --torus")


def cmd_quotient_h2(args):
    theta = _theta_from_args(args)
    pres = h2_of_quotient(theta)
    payload = {"h2": {"free_rank": pres.free_rank,
                      "torsion": list(pres.torsion),
                      "v_images": pres.generator_images.to_json()},
               "assumption": "ambient moment-angle manifold taken "
                             "simply-connected",
               "w1": 0}
    if any(t % 2 == 0 for t in pres.torsion):
        payload["warning"] = ("even torsion present: the mod-2 "
                              "presentation may differ from H^2 with Z/2 "
                              "coefficients by a Tor term")
    _emit(args, payload)
    return EXIT_TRUE


def cmd_w2(args):
    theta = _theta_from_args(args)
    cls, zero = w2_of_quotient(theta)
    payload = {"verdict": not zero,
               "w2": {"coords": list(cls.coords), "nonzero": not zero,
                      "basis": cls.ambient},
               "w1": 0}
    _emit(args, payload)
    return EXIT_TRUE if not zero else EXIT_FALSE


def cmd_sw_quasitoric(args):
    K = _load(args.complex, SimplicialComplex, "complex")
    lam = _load(args.char, IntMatrix, "matrix")
    ring = face_ring_mod2(K, lam, generator_degree=args.generator_degree)
    classes = total_sw_class(ring)
    trivial = sw_triviality(ring)
    payload = {"verdict": not trivial,
               "generator_degree": ring.generator_degree,
               "graded_dims": [ring.dim(t) for t in range(ring.top + 1)],
               "total_sw_class": [c.to_json() for c in classes],
               "sw_trivial": trivial}
    if ring.dim(ring.top) == 1:
        payload["sw_numbers"] = sw_numbers(ring)
    _emit(args, payload)
    return EXIT_TRUE if not trivial else EXIT_FALSE


def cmd_search_free(args):
    K = _load(args.complex, SimplicialComplex, "complex")
    entries = tuple(int(x) for x in args.entries.split(","))
    cfg = SearchConfig(k=args.k, entry_set=entries, mode=args.mode,
                       seed=args.seed, samples=args.samples)
    res = search_free(K, cfg)
    payload = res.to_json()
    payload["verdict"] = bool(res.found)
    _emit(args, payload)
    return EXIT_TRUE if res.found else EXIT_FALSE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="Workbench for moment-angle manifolds: manifold "
                    "certification, subtorus freeness, characteristic "
                    "matrices, and Stiefel-Whitney data of quotients.")
    parser.add_argument("--json-out", metavar="PATH",
                        help="also write the JSON result to PATH")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for any randomized step (mandatory "
                             "where randomness is used)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-example",
                       help="run the full boundary-of-C6(9) verification "
                            "pipeline")
    p.set_defaults(func=cmd_verify_example)

    p = sub.add_parser("facets-cyclic",
                       help="facets of a cyclic polytope boundary by "
                            "Gale evenness")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_facets_cyclic)

    p = sub.add_parser("check-manifold",
                       help="homology-sphere certificate for a complex")
    p.add_argument("--complex", required=True)
    p.set_defaults(func=cmd_check_manifold)

    p = sub.add_parser("check-free",
                       help="does a subtorus act freely on Z_K?")
    p.add_argument("--complex", required=True)
    p.add_argument("--torus", required=True)
    p.set_defaults(func=cmd_check_free)

    p = sub.add_parser("extend-char",
                       help="extend a subtorus to a rational "
                            "characteristic matrix (randomized)")
    p.add_argument("--complex", required=True)
    p.add_argument("--torus", required=True)
    p.add_argument("--entry-bound", type=int, default=None)
    p.add_argument("--max-tries", type=int, default=100_000)
    p.set_defaults(func=cmd_extend_char)

    p = sub.add_parser("quotient-h2",
                       help="H^2 presentation of a partial quotient")
    p.add_argument("--theta")
    p.add_argument("--torus")
    p.set_defaults(func=cmd_quotient_h2)

    p = sub.add_parser("w2", help="w2 of a partial quotient")
    p.add_argument("--theta")
    p.add_argument("--torus")
    p.set_defaults(func=cmd_w2)

    p = sub.add_parser("sw-quasitoric",
                       help="total Stiefel-Whitney class and numbers of a "
                            "full quotient")
    p.add_argument("--complex", required=True)
    p.add_argument("--char", required=True)
    p.add_argument("--generator-degree", type=int, choices=(1, 2), default=2)
    p.set_defaults(func=cmd_sw_quasitoric)

    p = sub.add_parser("search-free",
                       help="bounded search for freely acting subtori")
    p.add_argument("--complex", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--entries", default="0,1",
                   help="comma-separated allowed entries")
    p.add_argument("--mode", choices=("exhaustive", "random"),
                   default="exhaustive")
    p.add_argument("--samples", type=int, default=0)
    p.set_defaults(func=cmd_search_free)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
