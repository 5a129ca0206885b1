"""Latency percentiles that refuse a tail too thin to estimate."""

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than MIN_BEYOND samples above it."""


def percentile(xs, q, min_beyond=MIN_BEYOND):
    """The q-th percentile (0 < q < 100) by linear interpolation between
    order statistics, and the number of samples strictly above it.

    Refuses (TooFewSamples) unless at least `min_beyond` samples lie
    above the value: a tail estimated from fewer points is noise."""
    if not 0 < q < 100:
        raise ValueError("percentile must be strictly between 0 and 100")
    s = sorted(xs)
    if not s:
        raise TooFewSamples("no samples")
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    value = s[lo] if s[hi] == s[lo] else s[lo] + (s[hi] - s[lo]) * (pos - lo)
    beyond = sum(1 for x in s if x > value)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(s)} samples has {beyond} beyond it, needs {min_beyond}"
        )
    return value, beyond

