"""Apriori frequent-itemset mining — an extension app (FREERIDE lineage).

Support counting is the generalized reduction at the heart of apriori: for
every transaction, check each candidate itemset and bump its support
counter (one reduction-object group per candidate).  The level-wise driver
(generate candidates of size s+1 from frequent s-itemsets, count, prune)
runs every counting pass through FREERIDE.

The counting kernel exists both as a mini-Chapel reduction — an interesting
compiler test because the *data* is indexed by an *extra* access
(``t[candidates[c][j]]``) — and as a vectorized manual FR version.

Transactions are basket-encoded: element = ``[1..num_items] int`` with 0/1
presence flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any

import numpy as np

from repro.apps.base import VERSIONS, ReductionApp
from repro.chapel.domains import Domain
from repro.chapel.types import INT, ArrayType, array_of
from repro.chapel.values import from_python
from repro.freeride.reduction_object import ReductionObject
from repro.freeride.spec import ReductionArgs, ReductionSpec
from repro.machine.counters import OpCounters
from repro.util.errors import ReproError
from repro.util.validation import check_in_range, check_positive_int

__all__ = [
    "APRIORI_CHAPEL_SOURCE",
    "AprioriResult",
    "AprioriRunner",
    "generate_transactions",
    "VERSIONS",
]

#: Candidate support counting as a Chapel reduction.  ``candidates`` is a
#: [1..numCand] x [1..setSize] array of item indices (an *extra*); the
#: transaction is the data element.  Note the composed access
#: ``t[candidates[c][j]]`` — a data access whose index is an extra access.
APRIORI_CHAPEL_SOURCE = """
class aprioriReduction : ReduceScanOp {
  var numItems: int;
  var numCand: int;
  var setSize: int;
  var candidates: [1..numCand][1..setSize] int;

  def accumulate(t: [1..numItems] int) {
    for c in 1..numCand {
      var present: int = 1;
      for j in 1..setSize {
        if (t[candidates[c][j]] == 0) { present = 0; }
      }
      roAdd(0, c - 1, present);
    }
  }
}
"""


def generate_transactions(
    n: int, num_items: int, avg_basket: int = 6, seed: int = 0
) -> np.ndarray:
    """Synthetic basket data with correlated item groups (so that real
    frequent itemsets exist).  Returns int64 presence flags (n, num_items)."""
    check_positive_int(n, "n")
    check_positive_int(num_items, "num_items")
    rng = np.random.default_rng(seed)
    p = min(0.9, avg_basket / num_items)
    baskets = (rng.random((n, num_items)) < p).astype(np.int64)
    # plant a correlated pattern: items 0 and 1 co-occur frequently
    planted = rng.random(n) < 0.4
    baskets[planted, 0] = 1
    baskets[planted, 1] = 1
    return baskets


@dataclass
class AprioriResult:
    """Frequent itemsets by size, with their supports."""

    frequent: dict[int, list[tuple[tuple[int, ...], int]]]
    min_support: int
    version: str
    counters: OpCounters
    passes: int = 0

    def itemsets_of_size(self, s: int) -> list[tuple[int, ...]]:
        return [items for items, _ in self.frequent.get(s, [])]


class AprioriRunner(ReductionApp):
    """Level-wise apriori with FREERIDE support counting.

    ``options`` are :class:`~repro.apps.base.ReductionApp`'s keyword
    arguments (engine configuration and compiler ``backend``).
    """

    def __init__(
        self,
        num_items: int,
        min_support_frac: float = 0.3,
        max_size: int = 3,
        version: str = "manual",
        **options: Any,
    ) -> None:
        check_positive_int(num_items, "num_items")
        check_in_range(min_support_frac, 0.0, 1.0, "min_support_frac")
        check_positive_int(max_size, "max_size")
        super().__init__(version, **options)
        self.num_items = num_items
        self.min_support_frac = min_support_frac
        self.max_size = max_size

    # -- candidate generation (classic apriori join + prune) -------------------

    @staticmethod
    def _next_candidates(
        frequent: list[tuple[int, ...]], size: int
    ) -> list[tuple[int, ...]]:
        freq_set = set(frequent)
        out: set[tuple[int, ...]] = set()
        for a in frequent:
            for b in frequent:
                if a[:-1] == b[:-1] and a[-1] < b[-1]:
                    cand = a + (b[-1],)
                    # prune: every (size-1)-subset must be frequent
                    if all(
                        tuple(sub) in freq_set
                        for sub in combinations(cand, size - 1)
                    ):
                        out.add(cand)
        return sorted(out)

    # -- one counting pass over the data -----------------------------------------

    def _count_supports(
        self,
        transactions: np.ndarray,
        candidates: list[tuple[int, ...]],
        counters: OpCounters,
    ) -> np.ndarray:
        num_cand, set_size = len(candidates), len(candidates[0])
        compiled = self.compile(
            APRIORI_CHAPEL_SOURCE,
            {"numItems": self.num_items, "numCand": num_cand, "setSize": set_size},
        )
        if compiled is None:
            ledger = OpCounters()
            spec, data = self._manual_spec(candidates, ledger), transactions
        else:
            cand_t = ArrayType(Domain(num_cand), array_of(INT, set_size))
            # candidates hold 1-based item indices in the Chapel view
            cand_value = from_python(
                cand_t, [[i + 1 for i in items] for items in candidates]
            )
            bound = compiled.bind(transactions, {"candidates": cand_value})
            ledger = bound.counters
            spec, data = bound.make_spec([(num_cand, "add")])
        supports = self.run_pass(spec, data).ro.get_group(0)
        counters.add(ledger)
        return supports

    @staticmethod
    def _manual_spec(
        candidates: list[tuple[int, ...]], counters: OpCounters
    ) -> ReductionSpec:
        cand = np.array(candidates, dtype=np.int64)  # (C, s), 0-based
        num_cand, set_size = cand.shape

        def setup(ro: ReductionObject) -> None:
            ro.alloc(num_cand, "add")

        def reduction(args: ReductionArgs) -> None:
            chunk = np.asarray(args.data)
            if chunk.size == 0:
                return
            # present[t, c] = all items of candidate c in transaction t
            present = chunk[:, cand].all(axis=2)  # (n, C) bool
            args.ro.accumulate_group(0, present.sum(axis=0).astype(float))
            n = chunk.shape[0]
            counters.elements_processed += n
            counters.linear_reads += n * num_cand * set_size
            counters.flops += n * num_cand * set_size
            counters.ro_updates += n * num_cand

        return ReductionSpec(
            name="apriori-manual", setup_reduction_object=setup, reduction=reduction
        )

    # -- the level-wise driver ------------------------------------------------------

    def run(self, transactions: np.ndarray) -> AprioriResult:
        transactions = np.ascontiguousarray(transactions, dtype=np.int64)
        if transactions.ndim != 2 or transactions.shape[1] != self.num_items:
            raise ReproError(
                f"transactions must be (n, {self.num_items}), got {transactions.shape}"
            )
        n = transactions.shape[0]
        min_support = max(1, int(np.ceil(self.min_support_frac * n)))
        counters = OpCounters()
        frequent: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        passes = 0

        # size-1 candidates: every single item
        candidates: list[tuple[int, ...]] = [(i,) for i in range(self.num_items)]
        size = 1
        while candidates and size <= self.max_size:
            supports = self._count_supports(transactions, candidates, counters)
            passes += 1
            level = [
                (items, int(s))
                for items, s in zip(candidates, supports)
                if s >= min_support
            ]
            if not level:
                break
            frequent[size] = level
            size += 1
            candidates = self._next_candidates([i for i, _ in level], size)
        return AprioriResult(
            frequent=frequent,
            min_support=min_support,
            version=self.version,
            counters=counters,
            passes=passes,
        )
