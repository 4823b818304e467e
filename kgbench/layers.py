"""Per-layer measurement: spans around calls into the program, and the
in-process UDF rates.

Spans are recorded here, around public functions of the program; nothing
inside ``folkscope_ray`` is instrumented.  They are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager

import pyarrow as pa


class Tracer:
    """Spans ``{id, op, name, parent, start, end}``; spans of one operation
    share ``op``.  A disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "op": self.op, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def median(self, name: str) -> float:
        return statistics.median(s["end"] - s["start"]
                                 for s in self.spans if s["name"] == name)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


RSS_SAMPLE_S = 0.005


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class PeakRSS:
    """Peak resident memory of this process, sampled only inside
    ``with sampler:`` windows, so set-up and checks are not counted."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            self.peak = max(self.peak, _rss_bytes())

    def __enter__(self):
        self.peak = max(self.peak, _rss_bytes())
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())


def udf_rates(corpus: pa.Table, patterns: list) -> tuple[dict, dict]:
    """Run each KG user-defined function once, in this process, on one block
    (the whole corpus), and return ``(metrics, counts)``."""
    from folkscope_ray.patterns import (
        Pattern,
        attribute_exclusive_support,
        decode_pattern,
        match_row,
        pattern_of_parsed,
    )
    from folkscope_ray.stages.canonicalize import (
        canonical_from_norms,
        normalize_surface,
    )
    from folkscope_ray.stages.critic import Critic
    from folkscope_ray.stages.generate import MockGenerator
    from folkscope_ray.stages.ingest import ingest_batch, pairs_batch
    from folkscope_ray.stages.mine import (
        MIN_SUPPORT,
        SUPPORT_FLOOR_FRAC,
        grow_subskeleton_patterns,
    )
    from folkscope_ray.stages.parse import parse_assertion
    from folkscope_ray.stages.prompts import expand_prompts

    def timed(fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t

    m: dict[str, float] = {}
    pairs, dt = timed(lambda t: pairs_batch(ingest_batch(t)), corpus)
    m["udf.ingest_rows_per_s"] = corpus.num_rows / dt
    prompts, dt = timed(expand_prompts, pairs)
    m["udf.prompt_rows_per_s"] = pairs.num_rows / dt
    gens, dt = timed(MockGenerator(), prompts)
    m["udf.generate_rows_per_s"] = prompts.num_rows / dt
    scored, dt = timed(Critic(), gens)
    m["udf.critic_rows_per_s"] = gens.num_rows / dt

    rel_text = Counter(zip(scored.column("rel").to_pylist(),
                           scored.column("assertion").to_pylist()))
    t = time.perf_counter()
    parsed = {k: parse_assertion(*k) for k in rel_text}
    m["udf.parse_per_s"] = len(parsed) / (time.perf_counter() - t)

    by_rel: dict[str, list] = {}
    for p in sorted(patterns, key=Pattern.priority):
        by_rel.setdefault(p.rel, []).append(p)
    todo = [(rel, p) for (rel, _t), p in parsed.items()
            if p is not None and rel in by_rel]
    t = time.perf_counter()
    for rel, p in todo:
        match_row(by_rel[rel], rel, *p)
    m["udf.match_per_s"] = len(todo) / (time.perf_counter() - t)

    skel: Counter = Counter()
    lengths: dict[str, Counter] = {}
    for (rel, _t), p in parsed.items():
        if p is not None:
            n = rel_text[(rel, _t)]
            skel[pattern_of_parsed(rel, p[2], p[3])] += n
            lengths.setdefault(rel, Counter())[len(p[0])] += n
    floor = max(MIN_SUPPORT, math.ceil(sum(skel.values()) * SUPPORT_FLOOR_FRAC))
    t = time.perf_counter()
    grown = grow_subskeleton_patterns(dict(skel), lengths)
    attribute_exclusive_support(
        dict(skel), [decode_pattern(k) for k in skel] + grown, floor)
    m["udf.mine_s"] = time.perf_counter() - t

    norms = sorted({normalize_surface(s) for c in ("surf_a", "surf_b")
                    for s in scored.column(c).to_pylist()})
    _canon, m["udf.canon_s"] = timed(canonical_from_norms, norms)

    counts = {"count.pairs": pairs.num_rows,
              "count.scored_rows": scored.num_rows,
              "count.distinct_assertions": len(rel_text)}
    return m, counts
