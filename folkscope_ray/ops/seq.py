"""Ordered event-sequence pattern matching (MATCH_RECOGNIZE-lite).

SQL engines express "did this user view, then click, then purchase?" with
``MATCH_RECOGNIZE``; the portable equivalent — and the one DuckDB can oracle
— is a per-key ordered STRING_AGG of one-char event codes followed by a
regex count over the encoded sequence.  This module implements exactly that
contract so the Ray plan and the SQL plan are comparable bit-for-bit.

The reference has no sequence-pattern operator (its closest shape is the
ordered PR-curve sweep in src/evaluation/metrics.py); this extends the
engine's §2.10 window/temporal family with the complex-event-processing
primitive a behavioural training-data pipeline needs (funnel extraction,
bot-pattern filtering, session-path labeling).

Execution shape (100-TB contract):

- ONE hash shuffle on the key into bucketed vectorized bodies
  (``ops/window.py _bucketed_groups`` — one pandas dispatch per bucket,
  never per key);
- inside a bucket: one mergesort, one vectorized category→code map, one
  C-level groupby join to build each key's code string, one compiled-regex
  ``str.count`` over the (short) per-key strings;
- like every full-history window operator (``collect_ordered``), a single
  key's encoded sequence must fit a worker's heap — one char per event, so
  a 10M-event key costs 10 MB.  Cap with ``cap_per_key`` upstream if keys
  are unbounded.
"""

from __future__ import annotations

import re

import pandas as pd
from ray.data import Dataset

from .window import _bucketed_groups


def seq_match(ds: Dataset, key_col: str, order_cols: list[str],
              cat_col: str, codes: dict[str, str], pattern: str,
              default_code: str = "x",
              match_alias: str = "n_matches",
              len_alias: str = "seq_len") -> Dataset:
    """Count non-overlapping, leftmost-greedy regex matches of ``pattern``
    over each key's ordered one-char event-code sequence.

    ``codes`` maps category values to single-char codes (unmapped values
    get ``default_code``); ``order_cols`` must give a TOTAL order (include
    a unique id) so the sequence is deterministic across engines.  Match
    semantics are Python ``re.findall`` == DuckDB ``regexp_extract_all``:
    both scan left to right, greedy, non-overlapping.

    Returns one row per key: ``(key, seq_len, n_matches)`` — every key
    appears, including zero-match keys (the caller filters)."""
    for v in codes.values():
        if len(v) != 1:
            raise ValueError(f"codes must be single chars, got {v!r}")
    if len(default_code) != 1:
        raise ValueError("default_code must be a single char")
    pat = re.compile(pattern)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        code = g[cat_col].map(codes).fillna(default_code)
        seq = (code.groupby(g[key_col], sort=True)
               .agg("".join).rename("__seq").reset_index())
        out = pd.DataFrame({key_col: seq[key_col]})
        out[len_alias] = seq["__seq"].str.len().astype("int64")
        out[match_alias] = seq["__seq"].str.count(pat).astype("int64")
        return out

    cols = list(dict.fromkeys([key_col, cat_col] + order_cols))
    return _bucketed_groups(ds.select_columns(cols), key_col, body)


def frequent_path_ngrams(ds: Dataset, key_col: str, order_cols: list[str],
                         cat_col: str, codes: dict[str, str], n: int = 3,
                         min_support: int = 5,
                         default_code: str = "x",
                         gram_alias: str = "gram",
                         support_alias: str = "n_keys") -> Dataset:
    """Frequent contiguous sequential patterns: the event-code n-grams
    that appear in at least ``min_support`` DISTINCT keys' ordered paths —
    the sequential-pattern-mining primitive (contiguous PrefixSpan cut)
    behind funnel discovery and bot-path detection.

    Support counts KEYS (one per key per gram, however often it repeats
    within a path) — the standard sequence-mining support definition.

    Scale shape: ONE hash shuffle on the key into bucketed bodies; inside
    a bucket the per-key code strings concatenate into one byte buffer
    and every n-gram window is extracted with a single stride-tricks view
    (windows crossing a path boundary masked out) — no per-key Python.
    Each bucket emits one row per (gram) with its distinct-key count;
    buckets partition keys, so the counts ADD — one map-combined sum and
    a support filter finish it."""
    import numpy as np

    from .relational import map_combine_aggregate
    from .window import _bucketed_groups

    for v in codes.values():
        if len(v) != 1 or ord(v) > 127:
            raise ValueError("codes must be single ASCII chars")
    if len(default_code) != 1 or ord(default_code) > 127:
        # same contract seq_match enforces: a non-ASCII default would crash
        # .encode("ascii") inside a remote task, and a multi-char default
        # would silently corrupt the fixed-width n-gram windows
        raise ValueError("default_code must be a single ASCII char")
    if not 1 <= n <= 8:
        # base-256 gram packing: 256^8 = 2^64 wraps int64, silently merging
        # distinct grams (the first char's power becomes 0)
        raise ValueError("n must be in [1, 8] (grams pack into int64 "
                         "base-256; wider windows need a different key)")
    pw = (256 ** np.arange(n - 1, -1, -1)).astype(np.int64)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        code = g[cat_col].map(codes).fillna(default_code)
        seqs = (code.groupby(g[key_col], sort=True).agg("".join))
        lens = seqs.str.len().to_numpy()
        buf = np.frombuffer("".join(seqs.tolist()).encode("ascii"),
                            np.uint8)
        if len(buf) < n:
            # dtype-pinned empties: a bare [] types the gram column as
            # Arrow null, and one short bucket would then poison the
            # downstream aggregate with mixed block schemas
            return pd.DataFrame({gram_alias: pd.Series([], dtype="string"),
                                 "__s": pd.array([], dtype="int64")})
        win = np.lib.stride_tricks.sliding_window_view(buf, n)
        owner = np.repeat(np.arange(len(seqs)), lens)
        valid = owner[: len(buf) - n + 1] == owner[n - 1:]
        gi = (win[valid].astype(np.int64) @ pw)
        pairs = np.unique(np.stack([owner[: len(buf) - n + 1][valid], gi],
                                   axis=1), axis=0)
        grams, counts = np.unique(pairs[:, 1], return_counts=True)
        strs = [int(v).to_bytes(n, "big").decode("ascii") for v in grams]
        return pd.DataFrame({gram_alias: strs,
                             "__s": counts.astype("int64")})

    cols = list(dict.fromkeys([key_col, cat_col] + order_cols))
    partials = _bucketed_groups(ds.select_columns(cols), key_col, body)
    agg = map_combine_aggregate(partials, keys=[gram_alias],
                                sums={"__s": support_alias})
    return (agg.filter(expr=f"{support_alias} >= {int(min_support)}")
            .select_columns([gram_alias, support_alias]))
