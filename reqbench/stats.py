"""Statistics of the request-path benchmark.

Everything run.py reports is computed here from the raw result the reqbench
binary writes, so the rules are tested in one place (test_stats.py):

* timings are medians plus the highest percentile with at least ten samples
  beyond it (p90 needs min_samples_for(90) = 92 distinct samples);
* failures count against attempts;
* a layer's self time is its span's duration minus the part of that interval
  its child spans cover; trace coverage is the median over requests of the
  request's summed layer self times over its latency.
"""

import math
import statistics

MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sample (mean of the middle two when even)."""
    v = sorted(values)
    if not v:
        raise ValueError("median of an empty sample")
    n = len(v)
    mid = n // 2
    return v[mid] if n % 2 else 0.5 * (v[mid - 1] + v[mid])


def percentile(values, p):
    """Linear-interpolation percentile (p in [0, 100]) of a non-empty sample."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile outside [0, 100]")
    pos = (len(v) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def samples_beyond(values, p):
    """How many samples lie strictly above the p-th percentile."""
    cut = percentile(values, p)
    return sum(1 for x in values if x > cut)


def min_samples_for(p):
    """Smallest sample count whose p-th percentile has MIN_BEYOND samples
    strictly above it when the samples are distinct."""
    n = 1
    while True:
        if n - (math.floor((n - 1) * p / 100.0) + 1) >= MIN_BEYOND:
            return n
        n += 1


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def iqr_share(values):
    """Spread of a set of run results: (q3 - q1) / median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def failed_count(failures):
    """Failed solves: rejected + timed out + exception + missed accuracy
    target + solves that lost a worker."""
    keys = ("rejected", "timed_out", "exceptions", "missed_target",
            "dead_workers")
    return sum(int(failures.get(k, 0)) for k in keys)


def failed_frac(failures, attempted):
    if attempted <= 0:
        raise ValueError("no solve attempted")
    return failed_count(failures) / attempted


def _covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> self time (same unit as the spans).

    spans: iterable of (id, parent, req, name, start, end).
    """
    children = {}
    for sid, parent, _req, _name, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _req, _name, start, end in spans:
        out[sid] = (end - start) - _covered(children.get(sid, []), start, end)
    return out


class SpanSummary:
    """Per-name self-time totals over a span log (ns in, seconds out)."""

    ROOT = "request"

    def __init__(self, spans):
        self.spans = [tuple(s) for s in spans]
        st = self_times(self.spans)
        self.roots = [s for s in self.spans if s[3] == self.ROOT]
        self.in_request = {}   # name -> (total self s, count), req > 0
        self.everywhere = {}   # name -> (total self s, count), any span
        self.layers_of = {}    # req -> layer self s of that request
        for sid, _parent, req, name, _start, _end in self.spans:
            sec = st[sid] * 1e-9
            t, c = self.everywhere.get(name, (0.0, 0))
            self.everywhere[name] = (t + sec, c + 1)
            if req and name != self.ROOT:
                t, c = self.in_request.get(name, (0.0, 0))
                self.in_request[name] = (t + sec, c + 1)
                self.layers_of[req] = self.layers_of.get(req, 0.0) + sec

    @property
    def requests(self):
        return len(self.roots)

    def per_request(self, name):
        """Self seconds of `name` per request (0 when never on the path)."""
        if not self.roots:
            return 0.0
        return self.in_request.get(name, (0.0, 0))[0] / len(self.roots)

    def per_span(self, name, everywhere=False):
        """Mean self seconds of one `name` span (0 when absent)."""
        t, c = (self.everywhere if everywhere else self.in_request).get(
            name, (0.0, 0))
        return t / c if c else 0.0

    def count(self, name, everywhere=False):
        return (self.everywhere if everywhere else self.in_request).get(
            name, (0.0, 0))[1]

    def total(self, name, everywhere=False):
        return (self.everywhere if everywhere else self.in_request).get(
            name, (0.0, 0))[0]

    def coverage(self):
        """Median over requests of (sum of the request's layer self times) /
        (its latency); the root's own self time is the unattributed rest.
        Per-request ratios keep a skewed latency mix (two matrices, a slow
        tail) from inflating the sum against the median."""
        ratios = [self.layers_of.get(r[2], 0.0) / ((r[5] - r[4]) * 1e-9)
                  for r in self.roots if r[5] > r[4]]
        return median(ratios) if ratios else 0.0
