"""Bounded search for freely acting subtori.

Candidates are k x m matrices over a finite entry set of distinct
values.  A candidate is held as m codes into a palette of distinct
columns: every k-tuple over the entry set in exhaustive mode, the
columns drawn so far in random mode.  Freeness comes from one
torus.FreenessTest per search_free call, the memoised test behind
acts_freely.  Exhaustive mode builds candidates column by column.  At
each node it masks, once, the fixed columns of every facet complement
that the next column completes, and keeps only the child codes that free
all of them (FreenessTest.free_codes), so a failing child is never
entered; the counts are those of checking each complement once its last
column is chosen.  The free child codes of a masked prefix are one
bitmask, found once per search in the test's children table, so a node
ANDs one mask per complement.  The children of the last column are
leaves, recorded in a loop; the recursion is one call per column, which
is why exhaustive mode takes at most EXHAUSTIVE_MAX_VERTICES vertices.
Random mode draws cfg.samples >= 1 candidates as entry indices, the
stream of rng.choice taken in blocks of getrandbits words (_choices).
It codes each distinct column of indices into the test's palette once,
and looks entry values up only for the rows of a free candidate.
Either mode explores and draws nothing when k exceeds the size of the
smallest facet complement, since fewer than k columns never generate
Z^k.  Results are deduplicated by the Hermite normal form of the row
lattice, computed on plain rows, so GL_k(Z)-equivalent candidates count
once.  The result keeps only these keys.  The report takes each key as
checked_keys gives it, primitive on its plain rows, with no IntMatrix or
Subtorus built, and the CLI writes it from its values; found builds
each lattice's Subtorus, with its checks, when it is read.
The HNF stops at the k-th pivot, so it is U A for a unimodular U fixed
by the columns up to that pivot; exhaustive mode reads U off the HNF of
[A | I_k] at one leaf and keys every following leaf that shares those
codes by the palette's images under U, without another HNF.

Exhaustive mode visits one candidate per orbit of the k! row
permutations, which are unimodular: they keep the entry set, freeness on
every facet complement and the row lattice.  Palette codes are in
product order, so the search runs in column-major lexicographic order of
entry indices, and the first member of each orbit in that order is the
one whose rows, as entry-index sequences, are in non-decreasing
lexicographic order.  Only sorted prefixes are entered, so the first
candidate with each lattice is still met first and the keys keep their
order.  A node tracks which adjacent rows are still equal; its tie table
gives the codes that keep the rows sorted, ANDed into the child mask,
and the number k!/(r_1! r_2! ...) of prefixes it stands for, r_j the
sizes of its groups of equal rows, which weights its explored count.  A
free leaf has distinct rows, so it stands for k! complete candidates.

A negative result is bounded evidence over the given entry set only —
never a proof of non-existence.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from itertools import product
from math import factorial
from typing import ClassVar, Optional

from . import torus
from .intlinalg import (IntMatrix, InternalError, hermite_normal_form_rows,
                        is_primitive_rows)
from .simplicial import SimplicialComplex
from .torus import FreenessTest, PreconditionError, Subtorus

BOUNDED_EVIDENCE = ("bounded evidence: search covered the stated entry set "
                    "only; a negative result is not a proof")
# Exhaustive mode recurses once per column, so m stays well under
# Python's default recursion limit of 1000.
EXHAUSTIVE_MAX_VERTICES = 200


@dataclass(frozen=True)
class SearchConfig:
    """Search settings.  k = 0 is allowed: the trivial torus is found once.
    Random mode needs a seed and samples >= 1; exhaustive mode takes
    neither."""

    k: int
    entry_set: tuple
    mode: str = "exhaustive"          # "exhaustive" | "random"
    seed: Optional[int] = None
    samples: int = 0

    def __post_init__(self):
        # Exact ints only: a float or a bool is an error, never rounded.
        for x in (self.k, self.samples, *self.entry_set,
                  *(() if self.seed is None else (self.seed,))):
            if type(x) is not int:
                raise TypeError(f"search value {x!r} is not an exact integer")
        if self.k < 0:
            raise ValueError(
                f"subtorus dimension k must be >= 0, got {self.k}")
        if not self.entry_set:
            raise ValueError("entry set must be nonempty")
        if len(set(self.entry_set)) != len(self.entry_set):
            repeated = next(x for i, x in enumerate(self.entry_set)
                            if x in self.entry_set[:i])
            raise ValueError(
                f"entry set must hold distinct values; {repeated} repeats")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise ValueError("random mode requires an explicit seed")
        if self.mode == "random" and self.samples < 1:
            raise ValueError(
                f"random mode requires samples >= 1, got {self.samples}")
        # Exhaustive mode draws nothing, so a sample count or a seed
        # means the caller expected random mode.
        if self.mode == "exhaustive" and self.samples != 0:
            raise ValueError(
                f"exhaustive mode takes no samples, got --samples "
                f"{self.samples}; use --mode random to sample")
        if self.mode == "exhaustive" and self.seed is not None:
            raise ValueError(
                f"exhaustive mode takes no seed, got --seed {self.seed}; "
                f"use --mode random to sample")


@dataclass
class SearchResult:
    """The lattices found, kept as their HNF row keys in discovery order.
    found builds each one's canonical Subtorus, with its checks, on every
    read: read it once and keep the list.  The report checks each key on
    its plain rows instead."""

    m: int
    keys: dict = field(default_factory=dict)   # HNF rows -> None
    explored: int = 0
    complete_candidates: int = 0
    note: ClassVar[str] = BOUNDED_EVIDENCE

    @property
    def found(self):
        return [Subtorus(IntMatrix(key, rows=len(key), cols=self.m))
                for key in self.keys]

    def checked_keys(self):
        """The keys, each checked primitive on its plain rows as it is
        drawn: the search keys only candidates whose columns generate
        Z^k, so a key that is not is an InternalError."""
        for key in self.keys:
            if not is_primitive_rows(key):
                raise InternalError(f"found lattice {key} is not primitive")
            yield key


# Words per getrandbits call of _choices: bounds the draws held at once.
_DRAW_WORDS = 1 << 14


def _choices(rng, n, count):
    """The indices of count draws of rng.choice from n entries, leaving
    rng as they would.  A draw keeps the top n.bit_length() bits of the
    next word of getrandbits(32 * w), lowest word first, until they are
    below n; it takes a word at least, so asking for no more words than
    draws are missing takes only rng.choice's words.  Up to 255 entries,
    bytes.translate shifts and rejects the words' top bytes."""
    bits = n.bit_length()
    if bits <= 8:
        index = bytes(b >> 8 - bits for b in range(256))
        rejected = bytes(b for b in range(256) if index[b] >= n)
    out = []
    while len(out) < count:
        w = min(count - len(out), _DRAW_WORDS)
        words = rng.getrandbits(32 * w).to_bytes(4 * w, "little")
        if bits <= 8:
            out += words[3::4].translate(index, rejected)
        else:
            out += [r for (x,) in struct.iter_unpack("<I", words)
                    if (r := x >> 32 - bits) < n]
    return out


def search_free(K: SimplicialComplex, cfg: SearchConfig) -> SearchResult:
    """Find subtori of dimension cfg.k acting freely on Z_K, over the
    configured entry set."""
    if not K.is_pure():
        raise PreconditionError("complex must be pure")
    m = K.m
    k = cfg.k
    if cfg.mode == "exhaustive" and m > EXHAUSTIVE_MAX_VERTICES:
        raise ValueError(
            f"exhaustive search takes at most {EXHAUSTIVE_MAX_VERTICES} "
            f"vertices, got {m}; use --mode random to sample")
    result = SearchResult(m)
    seen = result.keys
    comps = K.facet_complements()
    # Fewer than k columns never generate Z^k, so when k exceeds the
    # smallest facet complement no candidate is free: answer "none" with
    # nothing explored or drawn, before either mode builds a palette.
    if k > min(map(len, comps)):
        return result

    if cfg.mode == "random":
        # The palette is the distinct columns in order of first draw.
        # known codes the columns of entry indices drawn since code()
        # last started the palette over, as it does before it is full.
        rng = random.Random(cfg.seed)
        test = FreenessTest(k)
        entries, size = cfg.entry_set, k * m
        full = torus.FREENESS_PALETTE_LIMIT - m
        known = {}
        result.explored = cfg.samples
        block = max(1, _DRAW_WORDS // max(size, 1))
        for first in range(0, cfg.samples, block):
            count = min(block, cfg.samples - first)
            drawn = _choices(rng, len(entries), count * size)
            for j in range(count):
                rows = [drawn[i:i + m]
                        for i in range(j * size, (j + 1) * size, m)]
                # One column per vertex, so k = 0 codes m empty columns.
                cols = list(zip(*rows)) if k else [()] * m
                if len(test.palette) > full:
                    known.clear()
                codes = list(map(known.get, cols))
                if None in codes:
                    codes = test.code([tuple(map(entries.__getitem__, col))
                                       for col in cols])
                    known.update(zip(cols, codes))
                if test.first_unfree(codes, comps) is None:
                    result.complete_candidates += 1
                    # A key seen before keeps its place.
                    seen[hermite_normal_form_rows(
                        [[entries[i] for i in row] for row in rows])] = None
        return result

    # The palette is every k-tuple over the entry set, in product order.
    test = FreenessTest(k, product(cfg.entry_set, repeat=k))
    palette = test.palette
    # heads[d]: the complements ending at column d + 1, less that column,
    # whose other columns are all fixed at a node of depth d.  An empty
    # complement, which only k = 0 reaches, is primitive and goes nowhere.
    heads = [[] for _ in range(m)]
    for comp in comps:
        if comp:
            heads[comp[-1] - 1].append(comp[:-1])
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    # The last transform: the codes up to its k-th pivot column, and for
    # each row i of U the list of (U palette[c])_i over the codes c.
    transform = []
    codes = []

    def leaf_key():
        """HNF of the rows of the complete candidate codes.  The HNF of
        [A | I_k] is [HNF(A) | U] with HNF(A) = U A, since every leaf
        passed a complement whose columns generate Z^k, so A has rank k
        and the k-th pivot is a column of A.  U depends only on the
        columns up to that pivot, so a later leaf with the same codes
        there reads its key off the palette images under U."""
        if transform and codes[:len(transform[0])] == transform[0]:
            return tuple(tuple(map(images.__getitem__, codes))
                         for images in transform[1])
        if not k:
            return ()
        H = hermite_normal_form_rows(
            [[palette[c][i] for c in codes] + unit
             for i, unit in enumerate(identity)])
        # Row k - 1 starts at the k-th pivot.
        pivot = next(j for j, x in enumerate(H[-1]) if x)
        U = [row[m:] for row in H]
        transform[:] = [
            codes[:pivot + 1],
            [[sum(u * x for u, x in zip(urow, col)) for col in palette]
             for urow in U]]
        return tuple(row[:m] for row in H)

    # ties: bit i is set while rows i and i + 1 are equal so far.
    digits = list(product(range(len(cfg.entry_set)), repeat=k))
    tables = {}

    def tie_table(ties):
        """The mask of the codes that keep the rows sorted, each code's
        next ties, and the number of prefixes a node stands for."""
        allowed, nexts = 0, []
        for c, d in enumerate(digits):
            after = ties
            for i in range(k - 1):
                if ties >> i & 1 and d[i] != d[i + 1]:
                    if d[i] > d[i + 1]:
                        break
                    after ^= 1 << i
            else:
                allowed |= 1 << c
            nexts.append(after)
        weight, run = factorial(k), 1
        for i in range(k - 1):
            run = run + 1 if ties >> i & 1 else 1
            weight //= run
        tables[ties] = allowed, nexts, weight
        return tables[ties]

    def dfs(ties):
        # The codes so far are sorted and passed every complement ending
        # at their depth.
        depth = len(codes)
        allowed, nexts, weight = tables.get(ties) or tie_table(ties)
        result.explored += len(palette) * weight
        # Descend only into the sorted children that pass the complements
        # ending at the next column.
        children = test.free_codes(codes, heads[depth], allowed)
        codes.append(None)
        if depth == m - 1:  # the children are leaves
            for c in children:
                codes[-1] = c
                seen[leaf_key()] = None
            # A free leaf's rows are distinct: k! candidates each.
            result.complete_candidates += len(children) * factorial(k)
        else:
            for c in children:
                codes[-1] = c
                dfs(nexts[c])
        codes.pop()

    dfs((1 << max(k - 1, 0)) - 1)  # no column yet: every row ties
    return result
