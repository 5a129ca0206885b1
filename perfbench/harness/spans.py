"""Self-time arithmetic over the traced replay's span tree.

A span is a dict with at least id, name, parent (-1 at the top), t0, t1
and words. A span's self time is its duration minus the part of its
interval that its children cover; self words likewise subtract the
children's allocation. The traced wall is then exactly the sum of all
self times plus the time no span covers."""


def _union_length(intervals):
    total, lo, hi = 0.0, None, None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    return total + (hi - lo if hi is not None else 0.0)


def self_times(spans):
    """{span id: (self seconds, self words)}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        clipped = [(max(k["t0"], s["t0"]), min(k["t1"], s["t1"])) for k in kids]
        covered = _union_length([(a, b) for a, b in clipped if b > a])
        words = s.get("words", 0.0) - sum(k.get("words", 0.0) for k in kids)
        out[s["id"]] = (s["t1"] - s["t0"] - covered, words)
    return out


def uncovered(spans, wall_t0, wall_t1):
    """Seconds of [wall_t0, wall_t1] that no top-level span covers."""
    tops = [(max(s["t0"], wall_t0), min(s["t1"], wall_t1)) for s in spans if s["parent"] == -1]
    return (wall_t1 - wall_t0) - _union_length([iv for iv in tops if iv[1] > iv[0]])


def by_name(spans):
    """{name: {"self_s", "words", "instrs", "count"}} summed over the spans of each name.

    A span that did not record its instruction count is charged with its
    request's count (the largest any span of that request recorded)."""
    req_instrs = {}
    for s in spans:
        req_instrs[s["req"]] = max(req_instrs.get(s["req"], 0), s.get("instrs", 0))
    selfs = self_times(spans)
    out = {}
    for s in spans:
        st, words = selfs[s["id"]]
        acc = out.setdefault(s["name"], {"self_s": 0.0, "words": 0.0, "instrs": 0, "count": 0})
        acc["self_s"] += st
        acc["words"] += words
        acc["instrs"] += s.get("instrs", 0) or req_instrs.get(s["req"], 0)
        acc["count"] += 1
    return out
