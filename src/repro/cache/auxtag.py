"""Auxiliary tag store (ATS).

Per-application shadow tag directory with the same geometry as the shared
cache, updated on every access of that application only. It therefore tracks
the state the cache *would* have had if the application ran alone
(references [53, 56] in the paper).

Three consumers share this one structure:

* **ASM / PTCA** ask, per access, whether it would have hit alone
  (``AtsOutcome.hit``) — the basis of contention-miss counting.
* **UCP and ASM-Cache** need UMON-style way-hit histograms: a hit at MRU
  stack position ``p`` would still hit with any allocation of ``>= p + 1``
  ways, so the cumulative histogram yields ``hits_with_ways(n)``.
* **Set sampling** (Section 4.4): the ATS is kept only for a subset of sets
  and hit/miss *fractions* from the sampled sets are scaled by total access
  counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.replacement import Line, LruSet
from repro.config import CacheConfig


@dataclass
class AtsOutcome:
    """Result of presenting one access to the ATS.

    ``sampled`` is False when the access maps to a non-sampled set, in which
    case ``hit`` and ``stack_position`` are meaningless.
    """

    sampled: bool
    hit: bool = False
    stack_position: Optional[int] = None


class AuxiliaryTagStore:
    """Shadow tags for one application, optionally set-sampled."""

    def __init__(self, config: CacheConfig, sampled_sets: Optional[int] = None) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        if sampled_sets is None or sampled_sets >= self.num_sets:
            self.sample_stride = 1
            self.num_sampled_sets = self.num_sets
        else:
            if sampled_sets <= 0:
                raise ValueError("sampled_sets must be positive")
            self.sample_stride = max(1, self.num_sets // sampled_sets)
            self.num_sampled_sets = len(
                range(0, self.num_sets, self.sample_stride)
            )
        self._sets = {
            idx: LruSet(self.associativity)
            for idx in range(0, self.num_sets, self.sample_stride)
        }
        # Counters over sampled sets only.
        self.sampled_hits = 0
        self.sampled_misses = 0
        # UMON way-hit histogram: way_hits[p] counts hits at stack position p.
        self.way_hits = [0] * self.associativity
        # Total accesses presented (sampled or not) — the scaling base.
        self.total_accesses = 0

    @property
    def is_sampled(self) -> bool:
        return self.sample_stride > 1

    def access(self, line_addr: int) -> AtsOutcome:
        """Present one shared-cache access of this application to the ATS."""
        self.total_accesses += 1
        set_index = line_addr % self.num_sets
        ats_set = self._sets.get(set_index)
        if ats_set is None:
            return AtsOutcome(sampled=False)
        tag = line_addr // self.num_sets
        position = ats_set.stack_position(tag)
        if position is not None:
            self.sampled_hits += 1
            self.way_hits[position] += 1
            ats_set.touch(ats_set.lines[-1 - position])
            return AtsOutcome(sampled=True, hit=True, stack_position=position)
        self.sampled_misses += 1
        ats_set.insert(Line(tag))
        return AtsOutcome(sampled=True, hit=False)

    # -- sampled-to-total scaling (Section 4.4) ---------------------------
    @property
    def sampled_accesses(self) -> int:
        return self.sampled_hits + self.sampled_misses

    def hit_fraction(self) -> float:
        sampled = self.sampled_accesses
        return self.sampled_hits / sampled if sampled else 0.0

    def scaled_hits(self, accesses: Optional[int] = None) -> float:
        """``epoch-ATS-hits``: hit fraction times total access count."""
        base = self.total_accesses if accesses is None else accesses
        return self.hit_fraction() * base

    def scaled_misses(self, accesses: Optional[int] = None) -> float:
        base = self.total_accesses if accesses is None else accesses
        return (1.0 - self.hit_fraction()) * base

    # -- UMON-style utility curves (UCP Section 7.1) ----------------------
    def hits_with_ways(self, ways: int) -> float:
        """Estimated hits had the application been given ``ways`` ways,
        scaled from sampled sets to all accesses."""
        if ways <= 0:
            return 0.0
        sampled = self.sampled_accesses
        if not sampled:
            return 0.0
        sampled_hits_n = sum(self.way_hits[: min(ways, self.associativity)])
        return sampled_hits_n / sampled * self.total_accesses

    def utility_curve(self) -> List[float]:
        """``hits_with_ways(n)`` for n in 0..associativity."""
        return [self.hits_with_ways(n) for n in range(self.associativity + 1)]

    def reset_stats(self) -> None:
        """Clear counters (tag state is preserved across quanta)."""
        self.sampled_hits = 0
        self.sampled_misses = 0
        self.way_hits = [0] * self.associativity
        self.total_accesses = 0
