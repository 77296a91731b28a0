"""Command-line front end.

Each cmd_* returns its JSON payload and nothing else; main writes it
and derives the exit code from its "verdict" field in one place: 1 when
the verdict is false, 0 otherwise (a command without a verdict succeeds
with 0).  2 is an input error and 3 an internal error (an
InternalError or any other unexpected exception, so a crash never reads
as a negative verdict).  All randomness requires an explicit --seed.
COMMANDS is the one table of subcommands; a subcommand's parser is
built only when its name is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from json.encoder import encode_basestring_ascii

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
    or too deeply nested JSON, or JSON that does not describe a valid cls
    (named by what) is a ValueError naming the path."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        return cls.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {what} JSON ({exc})") from exc


# The JSON text of a scalar of each exact type, as json writes it; other
# scalars (floats, subclasses) go through json.dumps.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar_json(x):
    text = _SCALAR_TEXT.get(type(x))
    return text(x) if text else json.dumps(x)


def _key_json(key):
    """A dict key as json writes it: a str quoted as is; a float, int,
    bool or None key as its JSON text, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_scalar_json(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_indented(x, parts, newline):
    """Append the text of x to parts as json.dumps(x, indent=2) writes it
    at the nesting level whose line break and indent are newline.  A
    scalar inside a container is written with its container's line."""
    if isinstance(x, (list, tuple)):
        if not x:
            parts.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is int for v in x):
            parts.append("[" + inner + ("," + inner).join(map(str, x))
                         + newline + "]")
            return
        sep = "[" + inner
        for v in x:
            text = _SCALAR_TEXT.get(type(v))
            if text:
                parts.append(sep + text(v))
            else:
                parts.append(sep)
                _write_indented(v, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(x, dict):
        if not x:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, v in x.items():
            head = sep + _key_json(key) + ": "
            text = _SCALAR_TEXT.get(type(v))
            if text:
                parts.append(head + text(v))
            else:
                parts.append(head)
                _write_indented(v, parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        parts.append(_scalar_json(x))


def _dumps_indented(payload):
    """json.dumps(payload, indent=2), without the pure-Python encoder
    that json takes whenever it indents: lists of plain ints are joined
    in one step and other scalars are written by table or by json's C
    encoder."""
    parts = []
    _write_indented(payload, parts, "\n")
    return "".join(parts)


def _emit(args, payload):
    text = _dumps_indented(payload)
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
    return payload


def cmd_facets_cyclic(args):
    return cyclic_polytope_boundary(args.n, args.m).to_json()


def cmd_check_manifold(args):
    K = _load(args.complex, SimplicialComplex, "complex")
    cert = is_homology_sphere(K)
    return {"verdict": cert.verdict,
            "manifold": "certified_manifold" if cert else "unknown",
            "homology": cert.homology.to_json(),
            "certificate": cert.to_json()}


def cmd_check_free(args):
    K = _load(args.complex, SimplicialComplex, "complex")
    T = _load(args.torus, Subtorus, "subtorus")
    res = acts_freely(T, K)
    return {"verdict": res.free,
            "witness_facet": list(res.witness) if res.witness else None}


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
    return payload


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
    return payload


def cmd_w2(args):
    theta = _theta_from_args(args)
    cls, zero = w2_of_quotient(theta)
    return {"verdict": not zero,
            "w2": {"coords": list(cls.coords), "nonzero": not zero,
                   "basis": cls.ambient},
            "w1": 0}


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
    return payload


def _entry(item):
    """One item of --entries as an int; anything else is an input error
    naming the flag and the item."""
    try:
        return int(item)
    except ValueError:
        raise ValueError(f"--entries: {item!r} is not an integer") from None


def cmd_search_free(args):
    K = _load(args.complex, SimplicialComplex, "complex")
    entries = tuple(_entry(x) for x in args.entries.split(","))
    cfg = SearchConfig(k=args.k, entry_set=entries, mode=args.mode,
                       seed=args.seed, samples=args.samples)
    res = search_free(K, cfg)
    payload = res.to_json()
    payload["verdict"] = bool(res.found)
    return payload


_REQUIRED = {"required": True}
_THETA_OR_TORUS = {"--theta": {}, "--torus": {}}

# Every subcommand, in the order of the help text: its name, its help,
# its handler and the add_argument keywords of each of its arguments.
COMMANDS = {
    "verify-example": (
        "run the full boundary-of-C6(9) verification pipeline",
        cmd_verify_example, {}),
    "facets-cyclic": (
        "facets of a cyclic polytope boundary by Gale evenness",
        cmd_facets_cyclic, {"n": {"type": int}, "m": {"type": int}}),
    "check-manifold": ("homology-sphere certificate for a complex",
                       cmd_check_manifold, {"--complex": _REQUIRED}),
    "check-free": ("does a subtorus act freely on Z_K?", cmd_check_free,
                   {"--complex": _REQUIRED, "--torus": _REQUIRED}),
    "extend-char": (
        "extend a subtorus to a rational characteristic matrix "
        "(randomized)", cmd_extend_char,
        {"--complex": _REQUIRED, "--torus": _REQUIRED,
         "--entry-bound": {"type": int, "default": None},
         "--max-tries": {"type": int, "default": 100_000}}),
    "quotient-h2": ("H^2 presentation of a partial quotient",
                    cmd_quotient_h2, _THETA_OR_TORUS),
    "w2": ("w2 of a partial quotient", cmd_w2, _THETA_OR_TORUS),
    "sw-quasitoric": (
        "total Stiefel-Whitney class and numbers of a full quotient",
        cmd_sw_quasitoric,
        {"--complex": _REQUIRED, "--char": _REQUIRED,
         "--generator-degree": {"type": int, "choices": (1, 2),
                                "default": 2}}),
    "search-free": (
        "bounded search for freely acting subtori", cmd_search_free,
        {"--complex": _REQUIRED, "--k": {"type": int, "required": True},
         "--entries": {"default": "0,1",
                       "help": "comma-separated allowed entries"},
         "--mode": {"choices": ("exhaustive", "random"),
                    "default": "exhaustive"},
         "--samples": {"type": int, "default": 0}}),
}


class _Subcommand:
    """Stand-in parser of one subcommand: argparse calls only its
    parse_known_args, which builds the real parser from COMMANDS."""

    def __init__(self, command, **kwargs):
        self.command, self.kwargs = command, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self.kwargs)
        _, handler, arguments = COMMANDS[self.command]
        for name, spec in arguments.items():
            parser.add_argument(name, **spec)
        parser.set_defaults(func=handler)
        return parser.parse_known_args(args, namespace)


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
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Subcommand)
    for name, (help_text, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text, command=name)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
        _emit(args, payload)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_FALSE if payload.get("verdict") is False else EXIT_TRUE


if __name__ == "__main__":
    sys.exit(main())
