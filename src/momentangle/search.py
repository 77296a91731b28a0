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
It explores nothing when k exceeds the size of the smallest facet
complement, since fewer than k columns never generate Z^k.  Random mode
draws cfg.samples >= 1 candidates and codes each one's columns into the
test's palette.  Results are deduplicated by the Hermite normal form of
the row lattice, computed on plain rows, so GL_k(Z)-equivalent
candidates count once and a duplicate builds no matrix.  The HNF stops
at the k-th pivot, so it is U A for a unimodular U fixed by the columns
up to that pivot; exhaustive mode reads U off the HNF of [A | I_k] at
one leaf and keys every following leaf that shares those codes by the
palette's images under U, without another HNF.

A negative result is bounded evidence over the given entry set only —
never a proof of non-existence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import ClassVar, Optional

from .intlinalg import IntMatrix, hermite_normal_form_rows
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
    found: list = field(default_factory=list)   # canonical Subtorus values
    explored: int = 0
    complete_candidates: int = 0
    note: ClassVar[str] = BOUNDED_EVIDENCE

    def to_json(self):
        return {"found": [t.to_json() for t in self.found],
                "explored": self.explored,
                "complete_candidates": self.complete_candidates,
                "note": self.note}


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
    result = SearchResult()
    seen = set()
    # Without facets the empty face is maximal.
    comps = K.facet_complements() or [tuple(range(1, m + 1))]

    def record(key):
        """Count a complete free candidate, and keep it if its row
        lattice, given by its HNF key, is new."""
        result.complete_candidates += 1
        if key in seen:
            return
        T = Subtorus(IntMatrix(key, rows=len(key), cols=m))
        seen.add(T.matrix.data)  # equal to key; seen and found share it
        result.found.append(T)

    if cfg.mode == "random":
        # The palette is the distinct columns in order of first draw.
        rng = random.Random(cfg.seed)
        test = FreenessTest(k)
        for _ in range(cfg.samples):
            rows = [[rng.choice(cfg.entry_set) for _ in range(m)]
                    for _ in range(k)]
            # One column per vertex, so k = 0 codes m empty columns.
            codes = test.code(list(zip(*rows)) if k else [()] * m)
            result.explored += 1
            if test.first_unfree(codes, comps) is None:
                record(hermite_normal_form_rows(rows))
        return result

    # Fewer than k columns never generate Z^k, so when k exceeds the
    # smallest facet complement no candidate is free: answer "none" with
    # nothing explored, before building the |E|^k palette.
    if k > min(map(len, comps)):
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

    def dfs():
        # The codes so far passed every complement ending at their depth.
        depth = len(codes)
        result.explored += len(palette)
        # Descend only into the children that pass the complements ending
        # at the next column.
        children = (test.free_codes(codes, heads[depth])
                    if heads[depth] else range(len(palette)))
        codes.append(None)
        if depth == m - 1:  # the children are leaves
            for c in children:
                codes[-1] = c
                record(leaf_key())
        else:
            for c in children:
                codes[-1] = c
                dfs()
        codes.pop()

    dfs()
    return result
