"""Bounded search for freely acting subtori.

Candidates are k x m matrices over a finite entry set.  Exhaustive mode
builds them column by column and prunes any prefix that already violates
a facet constraint (every facet whose complement lies inside the chosen
columns must give an injective submatrix).  Results are deduplicated by
the Hermite normal form of the row lattice, so GL_k(Z)-equivalent
candidates count once.

A negative result is bounded evidence over the given entry set only —
never a proof of non-existence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .intlinalg import IntMatrix, hermite_normal_form, is_primitive_cols
from .simplicial import SimplicialComplex
from .torus import PreconditionError, Subtorus

BOUNDED_EVIDENCE = ("bounded evidence: search covered the stated entry set "
                    "only; a negative result is not a proof")


@dataclass(frozen=True)
class SearchConfig:
    """Search settings.  k = 0 is allowed: the trivial torus is found once."""

    k: int
    entry_set: tuple
    mode: str = "exhaustive"          # "exhaustive" | "random"
    seed: Optional[int] = None
    samples: int = 0
    prune: bool = True
    ceiling: int = 10_000_000

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(
                f"subtorus dimension k must be >= 0, got {self.k}")
        if not self.entry_set:
            raise ValueError("entry set must be nonempty")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise ValueError("random mode requires an explicit seed")


@dataclass
class SearchResult:
    found: list = field(default_factory=list)   # canonical Subtorus values
    explored: int = 0
    complete_candidates: int = 0
    note: str = BOUNDED_EVIDENCE

    def to_json(self):
        return {"found": [t.to_json() for t in self.found],
                "explored": self.explored,
                "complete_candidates": self.complete_candidates,
                "note": self.note}


def _constraints_by_depth(comps):
    by_depth = {}
    for comp in comps:
        by_depth.setdefault(comp[-1] if comp else 0, []).append(comp)
    return by_depth


def search_free(K: SimplicialComplex, cfg: SearchConfig) -> SearchResult:
    """Find subtori of dimension cfg.k acting freely on Z_K, over the
    configured entry set."""
    if not K.is_pure():
        raise PreconditionError("complex must be pure")
    m = K.m
    k = cfg.k
    result = SearchResult()
    seen = set()
    comps = K.facet_complements()

    def record(columns):
        if not is_primitive_cols(k, columns):
            return
        key = hermite_normal_form(
            IntMatrix([[col[i] for col in columns] for i in range(k)],
                      rows=k, cols=m))
        if key in seen:
            return
        seen.add(key)
        result.found.append(Subtorus(key))

    def passes_all(columns):
        return all(is_primitive_cols(k, [columns[j - 1] for j in comp])
                   for comp in comps)

    if cfg.mode == "random":
        rng = random.Random(cfg.seed)
        for _ in range(cfg.samples):
            rows = [[rng.choice(cfg.entry_set) for _ in range(m)]
                    for _ in range(k)]
            columns = [tuple(row[j] for row in rows) for j in range(m)]
            result.explored += 1
            if passes_all(columns):
                result.complete_candidates += 1
                record(columns)
        return result

    raw = len(cfg.entry_set) ** (k * m)
    if not cfg.prune and raw > cfg.ceiling:
        raise ValueError(
            f"{raw} raw candidates exceed the ceiling {cfg.ceiling}; "
            "enable pruning")
    by_depth = _constraints_by_depth(comps)
    column_choices = list(product(cfg.entry_set, repeat=k))

    def dfs(columns):
        depth = len(columns)
        if cfg.prune and depth > 0:
            for comp in by_depth.get(depth, ()):
                if not is_primitive_cols(k, [columns[j - 1] for j in comp]):
                    return
        if depth == m:
            if cfg.prune or passes_all(columns):
                result.complete_candidates += 1
                record(columns)
            return
        for col in column_choices:
            result.explored += 1
            dfs(columns + (col,))

    dfs(())
    return result
