"""Summary statistics with the benchmark's sampling rules.

A latency percentile describes a population of distinct requests, so it is
reported only when at least ``MIN_BEYOND`` samples lie beyond it: p50 needs
20 samples, p90 needs 100 and p99 needs 1000.  Medians of repeated identical
jobs (``median``) estimate one quantity and need no such floor, but every
value is reported with its sample count.
"""

import math
import statistics

MIN_BEYOND = 10


def samples_needed(q):
    """Smallest sample count that leaves MIN_BEYOND samples beyond quantile q."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie strictly between 0 and 1")
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


class TooFewSamples(ValueError):
    """A percentile was requested from too small a population."""


def percentile(values, q):
    """The q-quantile (nearest rank) of values, refusing thin tails."""
    n = len(values)
    need = samples_needed(q)
    if n < need:
        raise TooFewSamples(
            "p%g needs %d samples (%d beyond it), got %d"
            % (q * 100, need, MIN_BEYOND, n))
    ordered = sorted(values)
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1]


def median(values):
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)

