"""Command-line front end.

Each cmd_* returns its JSON payload and nothing else; main writes it as
it is produced (a _Records in it is written as a list, one record at a
time) and derives the exit code from its "verdict" field in one place:
1 when the verdict is false, 0 otherwise (a command without a verdict
succeeds with 0).  2 is an input error and 3 an internal error (an
InternalError or any other unexpected exception, so a crash never reads
as a negative verdict).  All randomness requires an explicit --seed.
COMMANDS is the one table of subcommands and GLOBAL_OPTIONS the one
table of the options before them.  A plain argv (see _plain_args) is
read straight from the two tables and builds no parser; argparse, with
every subparser, is built only for help, abbreviations and errors, so
their texts and exit codes are argparse's.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
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
    if type(key) is int:  # the keys of a certificate's vertex links
        return f'"{key!r}"'
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_scalar_json(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


_SLOT = "\0"  # each int of the sample record of a _Records


class _Records:
    """A list of records shaped like sample, which holds _SLOT for each
    int, each given by the tuple of its ints, drawn as it is written."""

    def __init__(self, sample, values):
        self.sample, self.values = sample, values


def _write_indented(x, write, newline):
    """Pass the text of x to write, part by part, as json.dumps(x,
    indent=2) writes it at the nesting level whose line break and indent
    are newline.  _Records are written as the list of their records,
    each one part from one template.  A scalar inside a container is
    written with its container's line."""
    inner = newline + "  "
    if isinstance(x, (list, tuple)) and x and all(type(v) is int
                                                  for v in x):
        write("[" + inner + ("," + inner).join(map(str, x))
              + newline + "]")
    elif isinstance(x, dict):
        # The text up to each non-scalar value is one part.
        line = []
        sep = "{" + inner
        for key, v in x.items():
            line.append(sep + _key_json(key) + ": ")
            text = _SCALAR_TEXT.get(type(v))
            if text:
                line.append(text(v))
            else:
                write("".join(line))
                line.clear()
                _write_indented(v, write, inner)
            sep = "," + inner
        line.append("{}" if sep[0] == "{" else newline + "}")
        write("".join(line))
    elif isinstance(x, _Records):
        template = _record_template(x.sample, inner)
        sep = "[" + inner
        for values in x.values:
            write(sep + template % values)
            sep = "," + inner
        write("[]" if sep[0] == "[" else newline + "]")
    elif isinstance(x, (list, tuple)):
        sep = "[" + inner
        for v in x:
            text = _SCALAR_TEXT.get(type(v))
            if text:
                write(sep + text(v))
            else:
                write(sep)
                _write_indented(v, write, inner)
            sep = "," + inner
        write("[]" if sep[0] == "[" else newline + "]")
    else:
        write(_scalar_json(x))


def _record_template(sample, newline):
    """The %-template of the records shaped like sample at newline: its
    text, as _write_indented writes it, with a %d for each _SLOT."""
    parts = []
    _write_indented(sample, parts.append, newline)
    return "".join(parts).replace("%", "%%").replace(
        encode_basestring_ascii(_SLOT), "%d")


# A StringIO stdout keeps each string written to it until read, so parts
# go on joined, in chunks of at least this many characters: the k = 2
# search report on C6(9), 0.72 MB of text, then takes 0.76 MB traced,
# and 0.85 MB written lattice by lattice.
_CHUNK_CHARS = 32_768


def _write_report(payload, write):
    """Pass json.dumps(payload, indent=2) and a line break to write, in
    chunks, without the pure-Python encoder that json takes whenever it
    indents: lists of plain ints are joined in one step, _Records are
    written from one template each and other scalars are written by
    table or by json's C encoder."""
    parts = []
    size = 0

    def add(text):
        nonlocal size
        parts.append(text)
        size += len(text)
        if size >= _CHUNK_CHARS:
            write("".join(parts))
            parts.clear()
            size = 0

    _write_indented(payload, add, "\n")
    parts.append("\n")
    write("".join(parts))


def _write_stdout(text="", flush=False):
    try:
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except BrokenPipeError:  # reader gone; the verdict stands
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def _json_out_name(path):
    """The name to write the --json-out report under, and the permission
    bits to give it.  A missing target, or a regular file with one link,
    is written under a temporary name beside it that keeps the file's
    permission bits and replaces it once complete.  Any other target (a
    device, a pipe, a symlink) is written in place."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return f"{path}.{os.getpid()}.tmp", None
    if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
        return f"{path}.{os.getpid()}.tmp", stat.S_IMODE(st.st_mode)
    return path, None


def _emit(args, payload):
    """Write the report to stdout unless --quiet, and to --json-out.  An
    OSError on the --json-out file is an input error naming its path; one
    on stdout is not."""
    path = args.json_out
    to_stdout = (lambda text: None) if args.quiet else _write_stdout
    if not path:
        _write_report(payload, to_stdout)
    else:
        try:
            name, mode = _json_out_name(path)
            fh = open(name, "w")
        except OSError as exc:
            raise ValueError(f"{path}: {exc}") from exc

        def write(text):
            try:
                fh.write(text)
            except OSError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            to_stdout(text)

        try:
            _write_report(payload, write)
            try:
                fh.close()
                if mode is not None:
                    os.chmod(name, mode)
                if name != path:
                    os.replace(name, path)
            except OSError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        finally:
            fh.close()
            if name != path and os.path.exists(name):
                os.unlink(name)
    if not args.quiet:
        _write_stdout(flush=True)


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
    # Each found lattice is written from its key: m, then k rows, flat.
    m, k = res.m, len(next(iter(res.keys), ()))
    found = _Records({"m": _SLOT, "rows": [[_SLOT] * m] * k},
                     (sum(key, (m,)) for key in res.checked_keys()))
    return {"found": found, "explored": res.explored,
            "complete_candidates": res.complete_candidates,
            "note": res.note, "verdict": bool(res.keys)}


# The options before the command, with the add_argument keywords of each.
GLOBAL_OPTIONS = {
    "--json-out": {"metavar": "PATH",
                   "help": "also write the JSON result to PATH"},
    "--seed": {"type": int, "default": None,
               "help": "seed for any randomized step (mandatory where "
                       "randomness is used)"},
    "--quiet": {"action": "store_true", "help": "suppress stdout output"},
}

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


def _read(arguments, tokens, args):
    """Set on args the dest of each of one parser's arguments (their
    add_argument keywords by name) from its plain tokens, as argparse
    would.  Returns the tokens from the first positional one that no
    positional argument is left for, or None when the tokens are not
    plain or argparse would reject them."""
    positionals = iter([name for name in arguments if name[0] != "-"])
    given = {}
    rest = []
    tokens = iter(tokens)
    for token in tokens:
        if token[:1] != "-":
            name = next(positionals, None)
            if name is None:
                rest = [token, *tokens]
                break
            given[name] = token
            continue
        name, eq, value = token.partition("=")
        if name not in arguments or name in given:
            return None
        if arguments[name].get("action") == "store_true":
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
        given[name] = value
    for name, spec in arguments.items():
        if name not in given and (spec.get("required") or name[0] != "-"):
            return None
        flag = spec.get("action") == "store_true"
        value = given.get(name, spec.get("default", False if flag else None))
        if isinstance(value, str) and "type" in spec:
            try:
                value = spec["type"](value)
            except (TypeError, ValueError):
                return None
        if name in given and value not in spec.get("choices", [value]):
            return None
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return rest


def _plain_args(argv=None):
    """The Namespace of build_parser().parse_args(argv) when argv is
    plain, else None: the global options, the command, then its
    arguments, each option by its full name and at most once, with its
    value after "=" or in the next token, which does not start with "-".
    argv defaults to sys.argv[1:]."""
    args = argparse.Namespace()
    rest = _read(GLOBAL_OPTIONS,
                 list(sys.argv[1:] if argv is None else argv), args)
    if not rest or rest[0] not in COMMANDS:
        return None
    args.command = rest[0]
    _, handler, arguments = COMMANDS[rest[0]]
    if _read(arguments, rest[1:], args) != []:
        return None
    args.func = handler
    return args


def build_parser():
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="Workbench for moment-angle manifolds: manifold "
                    "certification, subtorus freeness, characteristic "
                    "matrices, and Stiefel-Whitney data of quotients.")
    for name, spec in GLOBAL_OPTIONS.items():
        parser.add_argument(name, **spec)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for argument, spec in arguments.items():
            command.add_argument(argument, **spec)
        command.set_defaults(func=handler)
    return parser


def main(argv=None):
    args = _plain_args(argv) or build_parser().parse_args(argv)
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
