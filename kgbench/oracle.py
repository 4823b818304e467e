"""Straight-line, single-process KG oracle over a generated corpus table.

Built like ``folkscope_ray.pipelines.oracle`` (plain dicts and loops, no Ray,
no shuffles, no LSH) but fed the benchmark's own rows instead of
``synth.file_row``.  It shares only the pipeline's leaf semantics (templates,
scores, parser, matcher, miner, near-duplicate rule); every step the pipeline
distributes is re-derived here:

- parse and match run once per distinct ``(rel, text)`` and are reused for
  every occurrence (same result as per-row calls: both are pure functions);
- canonicalization is an exact union-find over every pair of normalized
  surfaces that passes ``is_near_duplicate``, with the lexicographically
  smallest member as the cluster's id, in place of the pipeline's
  minhash-LSH banding;
- triples aggregate in one dict keyed on ``(subj, pred, obj)``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa

from folkscope_ray.lexicon import assertion_text
from folkscope_ray.patterns import (
    Pattern,
    attribute_exclusive_support,
    decode_pattern,
    match_row,
    pattern_of_parsed,
)
from folkscope_ray.relations import REL_NAMES
from folkscope_ray.stages.canonicalize import is_near_duplicate, normalize_surface
from folkscope_ray.stages.critic import (
    PLAUSIBILITY_THRESHOLD,
    plausibility_score,
    typicality_score,
)
from folkscope_ray.stages.generate import N_GENS
from folkscope_ray.stages.ingest import extract_entities
from folkscope_ray.stages.mine import (
    MIN_SUPPORT,
    SUPPORT_FLOOR_FRAC,
    grow_subskeleton_patterns,
)
from folkscope_ray.stages.parse import parse_assertion
from folkscope_ray.util import pair_key

@dataclass
class OracleResult:
    triples: pd.DataFrame          # subj, pred, obj, support, plausibility, ...
    counts: dict[str, int]         # work counts of each layer


def _canonical_ids(norms: list[str]) -> dict[str, str]:
    parent = {n: n for n in norms}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(norms):
        for b in norms[i + 1:]:
            if is_near_duplicate(a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    lo, hi = sorted((ra, rb))
                    parent[hi] = lo
    return {n: find(n) for n in norms}


def oracle_kg(corpus: pa.Table) -> OracleResult:
    """Golden triples ``(subj, pred, obj, support, frequency, plausibility,
    typicality)`` and layer counts for one corpus table."""
    rows = []          # (rel, a, b, plaus, typ, text)
    surfaces: set[str] = set()
    n_pairs = 0
    for lang, content in zip(corpus.column("lang").to_pylist(),
                             corpus.column("content").to_pylist()):
        ents = extract_entities(lang, content)
        for a, b in zip(ents, ents[1:]):
            n_pairs += 1
            for rel in REL_NAMES:
                key = pair_key(a, b, rel)
                for g in range(N_GENS):
                    text = assertion_text(rel, a, b, g)
                    plaus = plausibility_score(key, g, text)
                    if plaus < PLAUSIBILITY_THRESHOLD:
                        continue
                    surfaces.update((a, b))
                    rows.append((rel, a, b, plaus,
                                 typicality_score(key, g, text), text))

    parses: dict[tuple[str, str], tuple | None] = {}
    for rel, _a, _b, _p, _t, text in rows:
        if (rel, text) not in parses:
            parses[(rel, text)] = parse_assertion(rel, text)

    counts: Counter = Counter()
    length_counts: dict[str, Counter] = {}
    n_parsed = 0
    for rel, _a, _b, _p, _t, text in rows:
        parsed = parses[(rel, text)]
        if parsed is None:
            continue
        toks, _lems, pos, deps = parsed
        n_parsed += 1
        counts[pattern_of_parsed(rel, pos, deps)] += 1
        length_counts.setdefault(rel, Counter())[len(toks)] += 1
    floor = max(MIN_SUPPORT, math.ceil(n_parsed * SUPPORT_FLOOR_FRAC))
    grown = grow_subskeleton_patterns(dict(counts), length_counts)
    patterns = attribute_exclusive_support(
        dict(counts), [decode_pattern(k) for k in counts] + grown, floor)
    by_rel: dict[str, list[Pattern]] = {}
    for p in sorted(patterns, key=Pattern.priority):
        by_rel.setdefault(p.rel, []).append(p)

    norms = sorted({normalize_surface(s) for s in surfaces})
    canon = _canonical_ids(norms)

    matches: dict[tuple[str, str], list[tuple[str, float]]] = {}
    agg: dict[tuple[str, str, str], list] = {}
    for rel, a, b, plaus, typ, text in rows:
        evs = matches.get((rel, text))
        if evs is None:
            parsed = parses[(rel, text)]
            pats = by_rel.get(rel)
            evs = [] if parsed is None or not pats else [
                (" ".join(ev["words"]), ev["frequency"])
                for ev in match_row(pats, rel, *parsed)]
            matches[(rel, text)] = evs
        subj = f"{canon[normalize_surface(a)]}-{canon[normalize_surface(b)]}"
        for obj, freq in evs:
            slot = agg.setdefault((subj, rel, obj), [0, 0.0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += freq
            slot[2] = max(slot[2], plaus)
            slot[3] = max(slot[3], typ)

    triples = pd.DataFrame(
        [(s, p, o, v[0], v[1], v[2], v[3]) for (s, p, o), v in agg.items()],
        columns=["subj", "pred", "obj", "support", "frequency",
                 "plausibility", "typicality"])
    return OracleResult(triples=triples, counts={
        "pairs": n_pairs,
        "scored_rows": len(rows),
        "distinct_assertions": len(parses),
        "distinct_surfaces": len(norms),
        "canonical_entities": len(set(canon.values())),
        "patterns": len(patterns),
        "triples": len(triples),
        "eventualities": int(triples["support"].sum()) if len(triples) else 0,
    })


def oracle_triples(seed: int, k: int) -> tuple[pd.DataFrame, float]:
    """Golden triples of corpus ``k`` of ``seed``, and the oracle's time in
    seconds; a top-level function, so a process pool can run it."""
    from kgbench.corpus import build_corpus

    corpus = build_corpus(seed, k=k)
    t = time.perf_counter()
    golden = oracle_kg(corpus)
    return golden.triples, time.perf_counter() - t
