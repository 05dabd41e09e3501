"""Order statistics shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import statistics

__all__ = ['summarize', 'spread']


def _percentile(data, q):
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize(values):
    """Median, quartiles, sample count and the highest percentile that
    still has at least ten samples beyond it (None under 40 samples)."""
    data = sorted(float(v) for v in values)
    n = len(data)
    if n == 1:
        q1 = q3 = data[0]
    else:
        q1, _, q3 = statistics.quantiles(data, n=4)
    out = {'median': statistics.median(data), 'q1': q1, 'q3': q3, 'n': n,
           'p_high': None}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10:
            out['p_high'] = {'p': q, 'value': _percentile(data, q)}
            break
    return out


def spread(stat):
    """Inter-quartile distance as a share of the median."""
    return (stat['q3'] - stat['q1']) / stat['median'] if stat['median'] \
        else 0.0
