"""Reuse-distance profile extraction from the workload generators.

The analytic tier never replays a trace through the cache; instead it
samples a bounded prefix of each core's deterministic access stream and
summarises it as a joint *stack-distance* / *time-distance* histogram:

* **stack distance** — distinct lines touched between two accesses to
  the same line. Under LRU (the fully-associative approximation of the
  16-way LLC) a reuse hits iff its stack distance is below capacity.
* **time distance** — accesses elapsed between the two touches. This is
  what co-runner interference scales with: a reuse separated by ``Δt``
  cycles admits ``D_j(λ_j · Δt)`` insertions from each co-runner ``j``
  (see :mod:`repro.analytic.llc`).

Stack distances are computed online with a Fenwick tree over access
timestamps (O(log n) per access): each line's most recent access is an
*active* timestamp, and the stack distance of a reuse is the count of
active timestamps strictly between the previous and current access.

Histograms use geometric buckets (ratio ~1.15, ~75 buckets out to the
sample length) recording per-bucket count and mean stack/time distance;
the hit-rate error this bucketing introduces is bounded by the bucket
width (~15 % in *distance*, far less in hit rate because the CDF is
smooth). The sample length (default 32768 accesses/core) is the wall
clock knob: extraction cost is independent of simulated cycles, which
is what makes 100M-cycle cells take seconds instead of minutes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workloads.mixes import WorkloadMix
from repro.workloads.synthetic import AppSpec, SyntheticTrace

#: Accesses sampled per core when profiling a generator. Extraction is
#: O(n log n) in this; 32768 keeps a 4-core profile under ~2 s while the
#: distance CDFs are already stable to a few percent.
DEFAULT_SAMPLE_ACCESSES = 32768

#: Geometric bucket growth ratio for the distance histogram.
_BUCKET_RATIO = 1.15


def _bucket_bounds(limit: int) -> List[int]:
    """Geometric bucket lower bounds: 0, 1, 2, ... growing by ~15 %."""
    bounds = [0, 1]
    while bounds[-1] < limit:
        bounds.append(max(bounds[-1] + 1, int(bounds[-1] * _BUCKET_RATIO)))
    return bounds


class _Fenwick:
    """Binary indexed tree over access timestamps (prefix counts)."""

    def __init__(self, size: int) -> None:
        self._tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        tree = self._tree
        while i < len(tree):
            tree[i] += delta
            i += i & (-i)

    def prefix(self, index: int) -> int:
        """Sum over [0, index]; -1 yields 0."""
        i = index + 1
        total = 0
        tree = self._tree
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total


@dataclass(frozen=True)
class ReuseProfile:
    """Distance summary of one core's sampled access stream.

    ``buckets`` holds ``(count, mean_stack_distance, mean_time_distance)``
    per geometric bucket for the *reuse* accesses; cold accesses (first
    touch of a line within the sample) are counted in ``cold_frac`` and
    can never hit. All rate-like fields are measured on the sample, not
    taken from the :class:`~repro.workloads.synthetic.AppSpec`, so the
    profile reflects the generator's integer truncation and scrambling.
    """

    spec_name: str
    accesses: int
    mean_gap: float  # measured non-access instructions between accesses
    write_frac: float
    seq_frac: float  # fraction of accesses at exactly prev_line + 1
    cold_frac: float
    buckets: Tuple[Tuple[int, float, float], ...]

    @property
    def reuse_frac(self) -> float:
        """Fraction of sampled accesses that re-touch a line."""
        return 1.0 - self.cold_frac

    def distinct_lines(self, n: float) -> float:
        """Expected distinct lines touched in ``n`` consecutive accesses.

        ``D(n) = Σ_{k=0}^{n-1} P(TD > k)`` where TD is the time distance
        of a random access (cold accesses have infinite TD). With the
        bucketed histogram this is ``(Σ_b count_b · min(td_b, n))/N +
        cold_frac · n`` — concave, increasing, and exactly ``n`` when
        every access is cold.
        """
        if n <= 0:
            return 0.0
        finite = sum(
            count * min(mean_td, n) for count, _sd, mean_td in self.buckets
        )
        return finite / self.accesses + self.cold_frac * n

    def instructions_per_access(self) -> float:
        """Committed instructions carried by each trace record."""
        return self.mean_gap + 1.0


def extract_profile(  # lint: pure -- per-process memo cache, transparent
    mix: WorkloadMix,
    core: int,
    sample_accesses: int = DEFAULT_SAMPLE_ACCESSES,
) -> ReuseProfile:
    """Sample ``mix``'s generator for ``core`` and summarise its reuse.

    Uses :meth:`~repro.workloads.mixes.WorkloadMix.trace_for_core`, so
    the sampled stream is byte-for-byte the prefix the event tier would
    simulate. Profiles are memoised per process on
    ``(spec, mix seed, core, sample length)``.
    """
    key = (mix.specs[core], mix.seed, core, sample_accesses)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    profile = _extract(mix.specs[core], mix.trace_for_core(core), sample_accesses)
    _PROFILE_CACHE[key] = profile
    return profile


def profile_mix(
    mix: WorkloadMix,
    sample_accesses: int = DEFAULT_SAMPLE_ACCESSES,
) -> List[ReuseProfile]:
    """Per-core reuse profiles for every application in ``mix``."""
    return [
        extract_profile(mix, core, sample_accesses)
        for core in range(mix.num_cores)
    ]


_PROFILE_CACHE: Dict[Tuple[AppSpec, int, int, int], ReuseProfile] = {}


def _extract(
    spec: AppSpec, trace: SyntheticTrace, sample_accesses: int
) -> ReuseProfile:
    tree = _Fenwick(sample_accesses)
    last_access: Dict[int, int] = {}
    bounds = _bucket_bounds(sample_accesses)
    counts = [0] * len(bounds)
    sd_sums = [0] * len(bounds)
    td_sums = [0] * len(bounds)
    cold = 0
    gap_total = 0
    writes = 0
    seq = 0
    prev_line: Optional[int] = None
    stream = iter(trace)
    for t in range(sample_accesses):
        record = next(stream)
        gap_total += record.gap
        if record.is_write:
            writes += 1
        line = record.line_addr
        if prev_line is not None and line == prev_line + 1:
            seq += 1
        prev_line = line
        t0 = last_access.get(line)
        if t0 is None:
            cold += 1
        else:
            stack_distance = tree.prefix(t - 1) - tree.prefix(t0)
            bucket = bisect.bisect_right(bounds, stack_distance) - 1
            counts[bucket] += 1
            sd_sums[bucket] += stack_distance
            td_sums[bucket] += t - t0
            tree.add(t0, -1)
        tree.add(t, +1)
        last_access[line] = t
    buckets = tuple(
        (counts[b], sd_sums[b] / counts[b], td_sums[b] / counts[b])
        for b in range(len(bounds))
        if counts[b]
    )
    return ReuseProfile(
        spec_name=spec.name,
        accesses=sample_accesses,
        mean_gap=gap_total / sample_accesses,
        write_frac=writes / sample_accesses,
        seq_frac=seq / sample_accesses,
        cold_frac=cold / sample_accesses,
        buckets=buckets,
    )


__all__ = [
    "DEFAULT_SAMPLE_ACCESSES",
    "ReuseProfile",
    "extract_profile",
    "profile_mix",
]
