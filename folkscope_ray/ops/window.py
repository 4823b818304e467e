"""Per-key ordered window functions (lag/lead, running totals, moving
aggregates) — the analytic-window family Ray Data does not ship.

The reference's only ordered-scan analogue is its PR-curve sweep
(`src/evaluation/metrics.py`) — these operators generalize that shape for
the data-pipeline surface the engine exposes (SURVEY.md §2.10).

Execution shape and the 100-TB contract:

- Every operator here shuffles by ``hash(key) % n_buckets`` and runs its
  window body ONCE PER BUCKET, vectorized across every key in the bucket
  with pandas hash-groupby kernels (``groupby().shift/cumsum/cumcount``) —
  never once per key.  A per-key ``map_groups`` costs one Python+pandas
  dispatch per group (~0.5 ms), which at 100k+ keys dominates wall time by
  10-20x (measured: cumsum over 150k rows / 15k keys dropped 65 s -> ~4 s);
  bucketing amortizes that dispatch over n_keys / n_buckets groups.
- Single-phase operators (``lag_gap`` / ``moving_sum_avg`` /
  ``row_number``) still assume one KEY's full history fits one bucket
  group (the session-window assumption; hot keys want the chunked
  variants or a pre-filter).
- ``cumulative_sum(chunk=...)`` (two-phase scale path): rows first compute
  LOCAL running sums inside (key, order//chunk) time chunks — a hot key's
  history spreads across chunks so no group holds more than one chunk —
  then per-chunk totals (one tiny row per (key, chunk)) are prefix-summed
  per key and broadcast back as additive offsets.  Output is bit-identical
  to the single-phase path for integer values (pytest-gated); use integer
  values (e.g. cents) when exactness across phase layouts matters.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset


def _default_buckets() -> int:
    try:
        return max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    except Exception:
        return 16


def _bucketed_groups(ds: Dataset, key_col: str, body, *,
                     n_buckets: int | None = None) -> Dataset:
    """Shuffle rows by ``hash(key) % n_buckets`` and apply ``body`` (a
    pandas DataFrame -> DataFrame fn that must itself be per-key correct,
    i.e. vectorized over every key it sees) once per bucket.

    This is the window-op execution primitive: same co-location guarantee
    as ``groupby(key).map_groups`` (all rows of a key share a bucket), but
    the Python/pandas per-call overhead is paid n_buckets times, not
    n_keys times.  Bucket assignment is ``pd.util.hash_array`` — vectorized
    and process-stable (fixed siphash key), so every map task sends a given
    key to the same bucket."""
    nb = n_buckets or _default_buckets()

    def assign(b: pa.Table) -> pa.Table:
        keys = b.column(key_col).to_pandas().to_numpy()
        buck = (pd.util.hash_array(keys, categorize=False) % nb).astype(np.int32)
        return b.append_column("__wb", pa.array(buck, pa.int32()))

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return body(g.drop(columns=["__wb"]))

    return (ds.map_batches(assign, batch_format="pyarrow")
            .groupby("__wb").map_groups(run, batch_format="pandas"))


def lag_gap(events: Dataset, key_col: str, order_cols: list[str],
            value_col: str, ts_us_col: str | None = None,
            prev_alias: str = "prev_value", gap_alias: str = "gap_us",
            fill_value: float = -1.0, fill_gap: int = -1) -> Dataset:
    """LAG(value) and the inter-row time gap per key, in ``order_cols``
    order.  First row of each key gets ``fill_value`` / ``fill_gap``
    (sentinels rather than NULLs: exact cross-engine hash compare).

    ``ts_us_col``: integer microsecond column the gap is computed on
    (defaults to ``order_cols[0]`` cast to int64)."""
    ts_col = ts_us_col or order_cols[0]

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        ts = g[ts_col].astype("datetime64[us]").astype("int64") \
            if str(g[ts_col].dtype).startswith("datetime") else g[ts_col].astype("int64")
        grp_v = g.groupby(key_col, sort=False)[value_col]
        grp_t = ts.groupby(g[key_col], sort=False)
        out = g.copy()
        out[prev_alias] = grp_v.shift(1).fillna(fill_value)
        out[gap_alias] = (ts - grp_t.shift(1)).fillna(fill_gap).astype("int64")
        return out

    return _bucketed_groups(events, key_col, body)


def moving_sum_avg(ds: Dataset, key_col: str, order_cols: list[str],
                   int_value_col: str, k: int,
                   sum_alias: str = "win_sum", avg_alias: str | None = None,
                   avg_scale: float = 1.0) -> Dataset:
    """Rolling ``ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW`` sum (and
    optional average) per key over an INTEGER value column — integer window
    sums are order-insensitive and exactly representable, so the result
    hash-matches any engine computing the same frame.

    ``avg_alias``: also emit ``win_sum / (avg_scale * frame_count)`` — a
    single IEEE division of identical operands on every engine."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        grp = g.groupby(key_col, sort=False)
        s = (grp[int_value_col]
             .rolling(k, min_periods=1).sum()
             .reset_index(level=0, drop=True).astype("int64"))
        out = g.copy()
        out[sum_alias] = s
        if avg_alias is not None:
            cnt = np.minimum(grp.cumcount().to_numpy() + 1, k)
            out[avg_alias] = s.to_numpy() / (avg_scale * cnt)
        return out

    return _bucketed_groups(ds, key_col, body)


def cumulative_sum(ds: Dataset, key_col: str, order_cols: list[str],
                   int_value_col: str, alias: str = "running",
                   chunk: int | None = None,
                   order_int_col: str | None = None) -> Dataset:
    """Per-key running total of an INTEGER value column in ``order_cols``
    order (``SUM(v) OVER (PARTITION BY key ORDER BY ... ROWS UNBOUNDED
    PRECEDING)``).

    ``chunk=None``: single shuffle on ``key_col``, vectorized cumsum per
    group (whole-key-history-in-one-group assumption).

    ``chunk=<span>``: two-phase scale path — local cumsum inside
    (key, ``order_int_col`` // span) chunks, then per-chunk totals are
    prefix-summed per key on the driver (n_keys × n_chunks rows — tiny by
    construction; above broadcast size this table would be hash-joined
    back instead) and added as offsets.  Identical output (pytest-gated)."""

    if chunk is None:
        def body(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values([key_col] + order_cols, kind="mergesort")
            out = g.copy()
            out[alias] = (g.groupby(key_col, sort=False)[int_value_col]
                          .cumsum().astype("int64"))
            return out

        return _bucketed_groups(ds, key_col, body)

    oc = order_int_col or order_cols[0]

    def assign_chunk(b: pa.Table) -> pa.Table:
        ov = b.column(oc)
        if pa.types.is_timestamp(ov.type):
            ov = pc.cast(pc.cast(ov, pa.timestamp("us")), pa.int64())
        ck = pc.cast(
            pc.floor(pc.divide(pc.cast(ov, pa.float64()), float(chunk))),
            pa.int64())
        return b.append_column("__chunk", ck)

    def local_body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, "__chunk"] + order_cols, kind="mergesort")
        out = g.copy()
        out[alias] = (g.groupby([key_col, "__chunk"], sort=False)[int_value_col]
                      .cumsum().astype("int64"))
        return out

    chunk_src = ds.map_batches(assign_chunk, batch_format="pyarrow")
    chunked = _bucketed_groups(chunk_src, key_col, local_body)
    # per-(key, chunk) totals: one tiny row per chunk (the value shuffled is
    # O(keys x chunks), not O(rows)).  Computed from the PRE-shuffle chunk
    # assignment, not from ``chunked`` — consuming the lazy ``chunked`` here
    # AND in the offset pass below would execute its whole bucketed shuffle
    # twice (measured 2x wall time on the bench query); re-scanning the cheap
    # pruned read + chunk map is far cheaper than a second shuffle.
    from .relational import map_combine_aggregate

    totals = map_combine_aggregate(
        chunk_src.select_columns([key_col, "__chunk", int_value_col]),
        keys=[key_col, "__chunk"], sums={int_value_col: "__ct"},
    ).to_pandas().sort_values([key_col, "__chunk"])
    totals["__offset"] = (
        totals.groupby(key_col)["__ct"].cumsum() - totals["__ct"])
    off_ref = ray.put(
        totals[[key_col, "__chunk", "__offset"]].reset_index(drop=True))

    def add_offset(b: pa.Table) -> pa.Table:
        o = ray.get(off_ref)
        # vectorized hash merge, not a per-row dict probe; how="left"
        # preserves the batch's row order
        bdf = b.select([key_col, "__chunk"]).to_pandas()
        offs = bdf.merge(o, on=[key_col, "__chunk"], how="left")[
            "__offset"].to_numpy(np.int64)
        run = b.column(alias).to_numpy(zero_copy_only=False) + offs
        i = b.column_names.index(alias)
        return b.set_column(i, alias, pa.array(run, pa.int64())) \
                .drop_columns(["__chunk"])

    return chunked.map_batches(add_offset, batch_format="pyarrow")


def dense_rank(ds: Dataset, key_col: str, value_col: str,
               ascending: bool = False, alias: str = "rnk") -> Dataset:
    """DENSE_RANK() OVER (PARTITION BY key ORDER BY value): ties share a
    rank, no gaps.  Vectorized per bucket: sort + pandas ``factorize`` of the
    ordered distinct values per key."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, value_col],
                          ascending=[True, ascending], kind="mergesort")
        # rank = running count of value-change flags within the key
        # (first row of each key flags too, so the cumsum restarts at 1) —
        # one vectorized pass, no per-key dispatch
        flag = ((g[value_col] != g[value_col].shift(1))
                | (g[key_col] != g[key_col].shift(1))).astype("int64")
        out = g.copy()
        out[alias] = flag.groupby(g[key_col].to_numpy(), sort=False).cumsum()
        return out

    return _bucketed_groups(ds, key_col, body)


def ntile(ds: Dataset, key_col: str, order_cols: list[str], n: int,
          alias: str = "tile") -> Dataset:
    """NTILE(n) OVER (PARTITION BY key ORDER BY ...): rows of each key are
    split into ``n`` buckets as evenly as possible (the first ``size % n``
    tiles get one extra row — the SQL-standard rule).  Deterministic when
    ``order_cols`` is a total order."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        grp = g.groupby(key_col, sort=False)
        pos = grp.cumcount().to_numpy()
        size = grp[order_cols[0]].transform("size").to_numpy()
        base, rem = size // n, size % n
        # first rem tiles have (base+1) rows; position p maps accordingly
        cut = rem * (base + 1)
        tile = np.where(
            pos < cut,
            pos // np.maximum(base + 1, 1),
            np.where(base > 0, rem + (pos - cut) // np.maximum(base, 1), pos),
        )
        out = g.copy()
        out[alias] = (tile + 1).astype("int64")
        return out

    return _bucketed_groups(ds, key_col, body)


def row_number(ds: Dataset, key_col: str, order_cols: list[str],
               ascending: list[bool] | None = None,
               alias: str = "rn") -> Dataset:
    """ROW_NUMBER() OVER (PARTITION BY key ORDER BY ...): 1-based position
    per key (vectorized ``groupby().cumcount`` per bucket).  Deterministic
    when ``order_cols`` is a total order (include a unique tiebreak
    column)."""
    asc = ascending if ascending is not None else [True] * len(order_cols)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols,
                          ascending=[True] + list(asc), kind="mergesort")
        out = g.copy()
        out[alias] = (g.groupby(key_col, sort=False).cumcount() + 1).astype("int64")
        return out

    return _bucketed_groups(ds, key_col, body)


def rank_stats(ds: Dataset, key_col: str, value_col: str,
               ascending: bool = True) -> Dataset:
    """RANK() / PERCENT_RANK() / CUME_DIST() OVER (PARTITION BY key ORDER BY
    value) — the tie-aware rank family (gaps on ties, unlike dense_rank).

    One vectorized pass per bucket: tie-group starts flag, min-rank by
    within-key forward fill, tie sizes by one bincount — no per-key
    dispatch.  percent_rank = (rank-1)/(n-1) (0.0 when n = 1, the SQL
    rule); cume_dist = (rank-1+tie_size)/n.  Both divisions are single IEEE
    ops on exact small integers, so results hash-match SQL engines
    bit-exactly; ranks depend only on ``value``, so no tiebreak column is
    needed for determinism."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, value_col],
                          ascending=[True, ascending], kind="mergesort")
        keys = g[key_col].to_numpy()
        flag = ((g[value_col] != g[value_col].shift(1))
                | (g[key_col] != g[key_col].shift(1))).to_numpy()
        pos = g.groupby(key_col, sort=False).cumcount().to_numpy()
        rank = (pd.Series(np.where(flag, pos + 1.0, np.nan))
                .groupby(keys, sort=False).ffill().to_numpy()
                .astype(np.int64))
        tie_id = np.cumsum(flag) - 1
        tie_size = np.bincount(tie_id)[tie_id]
        n = g.groupby(key_col, sort=False)[value_col].transform("size") \
             .to_numpy().astype(np.int64)
        out = g.copy()
        out["rnk"] = rank
        out["pct_rank"] = np.where(
            n > 1, (rank - 1).astype(np.float64) / (n - 1).astype(np.float64),
            0.0)
        out["cume"] = ((rank - 1 + tie_size).astype(np.float64)
                       / n.astype(np.float64))
        return out

    return _bucketed_groups(ds, key_col, body)


def pivot_counts(ds: Dataset, key_col: str, cat_col: str,
                 categories: list[str], prefix: str = "n_") -> Dataset:
    """Pivot a categorical column into per-category count columns per key
    (``SUM(CASE WHEN cat = c THEN 1 ELSE 0 END)``): indicator columns are
    built vectorized per batch, then one map-side-combined groupby — the
    shuffle moves O(blocks × keys) partial rows of small ints."""
    from .relational import map_combine_aggregate

    def indicators(b: pa.Table) -> pa.Table:
        cat = b.column(cat_col)
        out = b.select([key_col])
        for c in categories:
            out = out.append_column(
                prefix + c, pc.cast(pc.equal(cat, c), pa.int64()))
        return out

    return map_combine_aggregate(
        ds.select_columns([key_col, cat_col])
        .map_batches(indicators, batch_format="pyarrow"),
        keys=[key_col],
        sums={prefix + c: prefix + c for c in categories},
        count_alias="n_events",
    )


def _require_string_keys(ds: Dataset, keys: list[str], all_sentinel: str,
                         fn_name: str) -> None:
    """The rollup/cube/grouping-sets sentinel is a STRING; writing it into
    an int key column would produce a mixed object column that Arrow
    rejects downstream — fail fast with direction instead."""
    sch = ds.schema()
    if sch is None:  # zero-block input: vacuously valid
        return
    for name, typ in zip(sch.names, sch.types):
        if name not in keys:
            continue
        # schema types are Arrow DataTypes for Arrow-backed datasets but
        # plain Python/numpy dtypes for pandas-backed ones — accept the
        # string-ish forms of both
        if isinstance(typ, pa.DataType):
            ok = pa.types.is_string(typ) or pa.types.is_large_string(typ)
        else:
            ok = typ is object or str(typ) in ("object", "string", "str")
        if not ok:
            raise TypeError(
                f"{fn_name}: key column {name!r} is {typ} — the "
                f"{all_sentinel!r} sentinel requires string keys; cast the "
                "column to string upstream")


def rollup_counts(ds: Dataset, keys: list[str], int_value_col: str,
                  sum_alias: str, all_sentinel: str = "ALL") -> Dataset:
    """GROUP BY ROLLUP(k1, k2, ...): aggregates at every key prefix level,
    coarser levels derived from the FINEST aggregate (one pass over the
    data, map-side combined; the rollup itself runs over the tiny finest
    table).  Rolled-up key columns carry ``all_sentinel`` instead of SQL
    NULL so cross-engine hash comparison is exact."""
    from .relational import map_combine_aggregate

    _require_string_keys(ds, keys, all_sentinel, "rollup_counts")

    finest = map_combine_aggregate(
        ds.select_columns(keys + [int_value_col]),
        keys=keys, sums={int_value_col: sum_alias}, count_alias="n",
    ).to_pandas()

    levels = [finest]
    for lvl in range(len(keys) - 1, -1, -1):
        kept = keys[:lvl]
        if kept:
            g = (finest.groupby(kept, as_index=False)
                 .agg(**{sum_alias: (sum_alias, "sum"), "n": ("n", "sum")}))
        else:
            g = pd.DataFrame({sum_alias: [finest[sum_alias].sum()],
                              "n": [finest["n"].sum()]})
        for c in keys[lvl:]:
            g[c] = all_sentinel
        levels.append(g[keys + [sum_alias, "n"]])

    out = pd.concat(levels, ignore_index=True)
    import ray.data as rd

    return rd.from_pandas(out)


def cube_counts(ds: Dataset, keys: list[str], int_value_col: str,
                sum_alias: str, all_sentinel: str = "ALL") -> Dataset:
    """GROUP BY CUBE(k1, k2, ...): aggregates at EVERY key subset (2^k
    grouping sets).  Same execution shape as :func:`rollup_counts` — the
    data stream is touched ONCE by the map-side-combined finest aggregate;
    every coarser grouping set is derived from that tiny finest table, so
    the 2^k fan-out costs O(groups), never a second scan.  Rolled-up key
    columns carry ``all_sentinel`` instead of SQL NULL so cross-engine hash
    comparison is exact."""
    from itertools import combinations

    from .relational import map_combine_aggregate

    _require_string_keys(ds, keys, all_sentinel, "cube_counts")
    finest = map_combine_aggregate(
        ds.select_columns(keys + [int_value_col]),
        keys=keys, sums={int_value_col: sum_alias}, count_alias="n",
    ).to_pandas()

    levels = []
    for r in range(len(keys), -1, -1):
        for kept in combinations(keys, r):
            if list(kept) == keys:
                levels.append(finest)
                continue
            if kept:
                g = (finest.groupby(list(kept), as_index=False)
                     .agg(**{sum_alias: (sum_alias, "sum"),
                             "n": ("n", "sum")}))
            else:
                g = pd.DataFrame({sum_alias: [finest[sum_alias].sum()],
                                  "n": [finest["n"].sum()]})
            for c in keys:
                if c not in kept:
                    g[c] = all_sentinel
            levels.append(g[keys + [sum_alias, "n"]])

    out = pd.concat(levels, ignore_index=True)
    import ray.data as rd

    return rd.from_pandas(out)


def resample_ffill(ds: Dataset, key_col: str, ts_col: str, value_col: str,
                   freq_us: int, order_col: str,
                   n_buckets: int | None = None) -> Dataset:
    """Per-key time-series resample + forward fill: one row per ``freq_us``
    bucket from each key's first to last observed bucket, carrying the value
    of the LAST event at-or-before the bucket (ties on identical timestamp
    broken by ``order_col``, e.g. an event id).  The standard gap-fill in
    front of feature engineering / windowed training data.

    Execution shape: key-hash bucketing (``_bucketed_groups`` co-location —
    ONE vectorized pandas body per bucket, not per key): per-(key, bucket)
    last value via sort+groupby-last, per-key grids built with the
    repeat/arange explode (no Python per key), forward fill via pandas'
    C-implemented ``groupby(...).ffill``.  Output rows are bounded by
    (time span / freq) × keys — choose ``freq_us`` accordingly; values pass
    through untouched (no float arithmetic), so a SQL oracle hash-matches
    exactly."""

    def body(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({key_col: pd.Series([], dtype="int64"),
                                 "bucket": pd.Series([], dtype="int64"),
                                 "value_f": pd.Series([], dtype="float64")})
        us = df[ts_col].astype("datetime64[us]").astype("int64")
        g = (us // freq_us).astype("int64")
        d = pd.DataFrame({key_col: df[key_col].to_numpy(), "g": g,
                          "us": us, "o": df[order_col].to_numpy(),
                          "v": df[value_col].to_numpy()})
        # last event per (key, bucket): ties on ts broken by order_col
        d = d.sort_values([key_col, "g", "us", "o"], kind="mergesort")
        last = d.groupby([key_col, "g"], sort=True)["v"].last().reset_index()
        # per-key grid gmin..gmax, vectorized explode
        rng = last.groupby(key_col, sort=True)["g"].agg(["min", "max"])
        cnt = (rng["max"] - rng["min"] + 1).to_numpy(dtype=np.int64)
        total = int(cnt.sum())
        key_rep = np.repeat(rng.index.to_numpy(), cnt)
        grid_g = (np.arange(total, dtype=np.int64)
                  - np.repeat(np.cumsum(cnt) - cnt, cnt)
                  + np.repeat(rng["min"].to_numpy(dtype=np.int64), cnt))
        grid = pd.DataFrame({key_col: key_rep, "g": grid_g})
        out = grid.merge(last, on=[key_col, "g"], how="left")
        out["v"] = out.groupby(key_col, sort=False)["v"].ffill()
        return pd.DataFrame({key_col: out[key_col],
                             "bucket": out["g"].astype("int64"),
                             "value_f": out["v"].astype("float64")})

    return _bucketed_groups(
        ds.select_columns([key_col, ts_col, order_col, value_col]),
        key_col, body, n_buckets=n_buckets)


def unpivot(ds: Dataset, id_cols: list[str], value_cols: list[str],
            var_name: str = "name", value_name: str = "value") -> Dataset:
    """UNPIVOT / melt: one output row per (input row, value column).
    Stateless per-block Arrow transform — column arrays are REUSED (no
    per-row work) and the id columns replicate via one ``take`` per value
    column; no shuffle at all.  SQL parity: DuckDB UNPIVOT."""

    def melt(b: pa.Table) -> pa.Table:
        n = b.num_rows
        parts = []
        for c in value_cols:
            t = b.select(id_cols)
            t = t.append_column(var_name, pa.array([c] * n, pa.string()))
            t = t.append_column(value_name,
                                pc.cast(b.column(c), pa.float64()))
            parts.append(t)
        return pa.concat_tables(parts) if parts else b.select(id_cols)

    return ds.select_columns(id_cols + value_cols).map_batches(
        melt, batch_format="pyarrow")


def rolling_median(ds: Dataset, key_col: str, order_cols: list[str],
                   value_col: str, k: int,
                   alias: str = "med",
                   full_frames_only: bool = True,
                   n_buckets: int | None = None) -> Dataset:
    """Moving median per key over a ROWS BETWEEN k-1 PRECEDING AND CURRENT
    ROW frame (the order-statistic sibling of ``moving_sum_avg``; the
    robust smoother quality-score pipelines prefer over the mean).

    Cross-engine exactness: with ``full_frames_only=True`` (default) only
    rows whose frame holds exactly ``k`` values are emitted, so an ODD
    ``k`` selects one concrete element — no midpoint averaging, hence
    bit-equal doubles on every engine.  Even-``k`` / partial frames take
    the (lo+hi)/2 midpoint, whose last-ulp behaviour is engine-specific;
    they are supported but excluded from the hash-parity contract.

    Scale shape: same bucketed-per-key contract as ``lag_gap`` (one
    vectorized pandas rolling kernel per bucket, never per key)."""
    min_p = k if full_frames_only else 1

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        med = (g.groupby(key_col, sort=False)[value_col]
               .rolling(k, min_periods=min_p).median()
               .reset_index(level=0, drop=True))
        out = g.copy()
        out[alias] = med
        if full_frames_only:
            out = out[med.notna()]
        return out

    return _bucketed_groups(ds, key_col, body, n_buckets=n_buckets)


def transition_counts(ds: Dataset, key_col: str, order_cols: list[str],
                      cat_col: str,
                      src_alias: str = "src", dst_alias: str = "dst",
                      count_alias: str = "n",
                      n_buckets: int | None = None) -> Dataset:
    """First-order Markov transition counts: for each key's rows in
    ``order_cols`` order, count (previous ``cat_col`` -> current
    ``cat_col``) pairs across the whole stream (the event-sequence /
    user-journey transition matrix).

    Scale shape: the bucket body LAGs vectorized per key and immediately
    collapses to per-bucket partial counts (<= |categories|^2 rows per
    bucket), so the final combine moves a category-squared-bounded table
    — never event rows — through the groupby."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        prev = g.groupby(key_col, sort=False)[cat_col].shift(1)
        m = prev.notna().to_numpy()
        part = (pd.DataFrame({src_alias: prev.to_numpy()[m],
                              dst_alias: g[cat_col].to_numpy()[m]})
                .groupby([src_alias, dst_alias], sort=False)
                .size().reset_index(name=count_alias))
        part[count_alias] = part[count_alias].astype("int64")
        return part

    partials = _bucketed_groups(
        ds.select_columns([key_col, cat_col] + [c for c in order_cols
                                                if c not in (key_col, cat_col)]),
        key_col, body, n_buckets=n_buckets)

    import ray.data.aggregate as agg

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({src_alias: b.column(src_alias),
                         dst_alias: b.column(dst_alias),
                         count_alias: pc.cast(
                             b.column(f"sum({count_alias})"), pa.int64())})

    return (partials.groupby([src_alias, dst_alias])
            .aggregate(agg.Sum(count_alias))
            .map_batches(finish, batch_format="pyarrow"))


def funnel_counts(ds: Dataset, key_col: str, ts_col: str, cat_col: str,
                  stages: list[str],
                  stage_alias: str = "stage", users_alias: str = "users",
                  n_buckets: int | None = None) -> Dataset:
    """Sequential funnel: how many keys reach stage i — i.e. have a
    ``stages[0]`` event, then a ``stages[1]`` event STRICTLY AFTER their
    first stage-0 event, then a ``stages[2]`` strictly after that, etc.
    (the classic conversion-funnel analytic, min-ts semantics).

    Scale shape: each bucket resolves its keys' funnels vectorized
    (one filtered groupby-min per stage) and emits ONE row per stage —
    the final combine sums a len(stages)-row table per bucket."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        counts = []
        # reached: Series indexed by key -> ts of reaching the previous
        # stage (start: all keys at -inf so stage 0 is unconditional)
        reached = None
        for i, st in enumerate(stages):
            ev = g[g[cat_col] == st]
            if reached is not None:
                prev_ts = ev[key_col].map(reached)
                ev = ev[prev_ts.notna().to_numpy()
                        & (ev[ts_col].to_numpy()
                           > prev_ts.to_numpy())]
            reached = ev.groupby(key_col, sort=False)[ts_col].min()
            counts.append(len(reached))
        return pd.DataFrame({stage_alias: np.arange(1, len(stages) + 1,
                                                    dtype="int64"),
                             users_alias: np.asarray(counts, dtype="int64")})

    partials = _bucketed_groups(
        ds.select_columns([key_col, ts_col, cat_col]),
        key_col, body, n_buckets=n_buckets)

    import ray.data.aggregate as agg

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({stage_alias: b.column(stage_alias),
                         users_alias: pc.cast(
                             b.column(f"sum({users_alias})"), pa.int64())})

    return (partials.groupby(stage_alias)
            .aggregate(agg.Sum(users_alias))
            .map_batches(finish, batch_format="pyarrow"))


def collect_topk(ds: Dataset, key_col: str, id_col: str,
                 order_cols: list[str], ascending: list[bool], k: int,
                 list_alias: str = "ids", count_alias: str = "n",
                 sep: str = ",") -> Dataset:
    """Per-key ordered collect of the top-``k`` ids (STRING_AGG ... ORDER
    BY over a ranked-top-k subquery): the 'representative examples per
    group' exporter.  Order must be total (include ``id_col`` as the final
    tiebreaker) for cross-engine determinism.

    Scale shape: rides ``cap_per_key``'s map-side pre-prune (the shuffle
    moves <= blocks x keys x k rows), then one vectorized join per key in
    a bucketed body; output is one bounded string row per key."""
    from .split import cap_per_key

    capped = cap_per_key(ds.select_columns(
        list(dict.fromkeys([key_col, id_col] + order_cols))),
        key_col, k, order_cols, ascending=ascending)

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols,
                          ascending=[True] + list(ascending),
                          kind="mergesort")
        ids = g[id_col].astype(str)
        out = (ids.groupby(g[key_col], sort=False)
               .agg(lambda s: sep.join(s)).reset_index())
        out.columns = [key_col, list_alias]
        out[count_alias] = (g.groupby(key_col, sort=False)[id_col]
                            .size().to_numpy().astype("int64"))
        return out

    return _bucketed_groups(capped, key_col, body)


def retention_cohorts(ds: Dataset, key_col: str, ts_col: str,
                      dn_alias: str = "dn", users_alias: str = "users",
                      n_buckets: int | None = None) -> Dataset:
    """Day-N retention: for each key, day 0 is its first active calendar
    day; count how many distinct keys were active again N days later
    (the cohort-retention curve, collapsed across cohorts).

    Scale shape: each bucket resolves its keys' first-day and distinct
    (key, day-offset) pairs vectorized and emits partial ``(dn, users)``
    counts bounded by the observation span in days; the final combine
    sums a days-bounded table."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        days = (g[ts_col].to_numpy().astype("datetime64[D]")
                .astype("int64"))
        keys = g[key_col].to_numpy()
        d0 = pd.Series(days).groupby(keys, sort=False).transform("min")
        dn = days - d0.to_numpy()
        part = (pd.DataFrame({key_col: keys, dn_alias: dn})
                .drop_duplicates()
                .groupby(dn_alias, sort=False).size()
                .reset_index(name=users_alias))
        part[users_alias] = part[users_alias].astype("int64")
        part[dn_alias] = part[dn_alias].astype("int64")
        return part[[dn_alias, users_alias]]

    partials = _bucketed_groups(ds.select_columns([key_col, ts_col]),
                                key_col, body, n_buckets=n_buckets)

    import ray.data.aggregate as agg

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({dn_alias: b.column(dn_alias),
                         users_alias: pc.cast(
                             b.column(f"sum({users_alias})"), pa.int64())})

    return (partials.groupby(dn_alias)
            .aggregate(agg.Sum(users_alias))
            .map_batches(finish, batch_format="pyarrow"))


def islands(ds: Dataset, key_col: str, int_col: str,
            start_alias: str = "start_v", end_alias: str = "end_v",
            len_alias: str = "len",
            n_buckets: int | None = None) -> Dataset:
    """Gaps-and-islands: maximal runs of CONSECUTIVE integer values per
    key (activity streaks, contiguous id ranges, hole detection).
    Duplicate (key, value) rows collapse first, so each island is a run
    of distinct consecutive values.  Returns one row per island:
    ``(key, start_v, end_v, len)``.

    Scale shape: bucketed per-key body — the classic
    ``value - row_number()`` grouping trick vectorized across every key
    in the bucket; output is islands-bounded, never row-bounded."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = (g[[key_col, int_col]].drop_duplicates()
             .sort_values([key_col, int_col], kind="mergesort"))
        rn = g.groupby(key_col, sort=False).cumcount()
        grp = g[int_col].to_numpy() - rn.to_numpy()
        out = (g.assign(__grp=grp)
               .groupby([key_col, "__grp"], sort=False)[int_col]
               .agg(["min", "max", "size"]).reset_index())
        return pd.DataFrame({
            key_col: out[key_col],
            start_alias: out["min"].astype("int64"),
            end_alias: out["max"].astype("int64"),
            len_alias: out["size"].astype("int64")})

    return _bucketed_groups(ds.select_columns([key_col, int_col]),
                            key_col, body, n_buckets=n_buckets)


def ratio_to_report(ds: Dataset, key_col: str, int_value_col: str,
                    id_cols: list[str],
                    alias: str = "share") -> Dataset:
    """Each row's share of its key's total over an INTEGER value column
    (RATIO_TO_REPORT / percent-of-total): integer per-key sums are
    order-insensitive and the share is ONE IEEE division of identical
    int64 operands on every engine — bit-equal doubles cross-engine.

    Scale shape: one map-side-combined per-key sum (keys-bounded
    broadcast table), then one stateless divide scan — no row shuffle."""
    import ray

    from .relational import map_combine_aggregate

    totals = map_combine_aggregate(
        ds.select_columns([key_col, int_value_col]),
        keys=[key_col], sums={int_value_col: "__tot"},
        count_alias="__tot").to_pandas()
    tot_map = {k: int(v) for k, v in
               zip(totals[key_col], totals["__tot"])}
    tref = ray.put(tot_map)

    def share(b: pa.Table) -> pa.Table:
        m = ray.get(tref)
        codes, uniq = pd.factorize(b.column(key_col).to_pandas())
        tot = np.array([m[k] for k in uniq], dtype=np.int64)
        v = b.column(int_value_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        s = v / tot[codes]
        out = b.select(list(dict.fromkeys(
            id_cols + [key_col, int_value_col])))
        return out.append_column(alias, pa.array(s, pa.float64()))

    return ds.select_columns(list(dict.fromkeys(
        id_cols + [key_col, int_value_col]))).map_batches(
        share, batch_format="pyarrow")


def compress_runs(ds: Dataset, key_col: str, order_cols: list[str],
                  value_col: str,
                  n_buckets: int | None = None) -> Dataset:
    """Consecutive-duplicate collapse (event-stream compaction): keep each
    key's row only where ``value_col`` DIFFERS from the previous row in
    ``order_cols`` order (the first row always survives).  The state-change
    log compression every event pipeline wants before long-term storage.

    Scale shape: one bucketed vectorized LAG + filter per bucket; output
    is state-changes-bounded."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        prev = g.groupby(key_col, sort=False)[value_col].shift(1)
        keep = prev.isna().to_numpy() | (
            g[value_col].to_numpy() != prev.to_numpy())
        return g[keep]

    return _bucketed_groups(ds, key_col, body, n_buckets=n_buckets)


def time_rollup(ds: Dataset, ts_col: str, grains: dict[str, int],
                grain_alias: str = "grain", bucket_alias: str = "bucket",
                count_alias: str = "n") -> Dataset:
    """Multi-granularity time rollup in ONE pass: every row fans out to
    one (grain, floor(ts / grain_seconds)) key per requested grain and a
    single map-side-combined aggregate counts all grains together — the
    hour/day/week dashboard rollup without scanning the stream per grain.

    ``grains``: name -> bucket width in seconds.  Scale shape: fan-out is
    a vectorized constant-factor repeat; the one shuffle moves combined
    histogram rows bounded by Σ (span / grain)."""
    from .relational import map_combine_aggregate

    names = sorted(grains)

    def fan(b: pa.Table) -> pa.Table:
        col = b.column(ts_col)
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us"))
        secs = (col.cast(pa.int64()).to_numpy(
            zero_copy_only=False) // 1_000_000)
        n = len(secs)
        gs, bs = [], []
        for g in names:
            gs.append(np.full(n, g, dtype=object))
            bs.append(secs // grains[g])
        return pa.table({
            grain_alias: pa.array(np.concatenate(gs), pa.string()),
            bucket_alias: pa.array(np.concatenate(bs), pa.int64())})

    return map_combine_aggregate(
        ds.select_columns([ts_col]).map_batches(fan, batch_format="pyarrow"),
        keys=[grain_alias, bucket_alias], count_alias=count_alias)


def collect_ordered(ds: Dataset, key_col: str, val_col: str,
                    order_cols: list[str],
                    list_alias: str = "vals", count_alias: str = "n",
                    sep: str = ",") -> Dataset:
    """Full per-key ordered collect (SQL ``STRING_AGG(val, sep ORDER BY
    ...)`` with NO top-k bound) — the event-sequence exporter feeding
    session-path mining or behavioural LMs.  Order must be total (include
    a unique id in ``order_cols``) for cross-engine determinism.

    Scale shape: ONE hash shuffle on the key into bucketed bodies
    (``_bucketed_groups`` — vectorized sort + one C-level groupby-join per
    bucket, not one dispatch per key).  Unlike ``collect_topk`` there is no
    map-side prune — the output row for a key is proportional to the key's
    full stream, so the per-key payload must fit a worker's heap (the same
    contract every SQL engine's STRING_AGG has).  For skew-prone keys cap
    first with ``cap_per_key`` or use ``collect_topk``."""

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col] + order_cols, kind="mergesort")
        vals = g[val_col].astype(str)
        out = (vals.groupby(g[key_col], sort=False)
               .agg(lambda s: sep.join(s)).reset_index())
        out.columns = [key_col, list_alias]
        out[count_alias] = (g.groupby(key_col, sort=False)[val_col]
                            .size().to_numpy().astype("int64"))
        return out

    return _bucketed_groups(
        ds.select_columns(list(dict.fromkeys([key_col, val_col]
                                             + order_cols))),
        key_col, body)


def trailing_range_sum(ds: Dataset, key_col: str, ts_col: str,
                       int_value_col: str, range_s: int,
                       sum_alias: str = "win_sum",
                       cnt_alias: str = "win_n") -> Dataset:
    """Time-based trailing window (SQL ``SUM(v) OVER (PARTITION BY key
    ORDER BY ts RANGE BETWEEN range PRECEDING AND CURRENT ROW)``): for each
    row, the sum/count of the key's rows with ``ts`` in
    ``[row.ts − range_s, row.ts]`` — the 7-day-trailing-revenue shape that
    ROWS-based frames can't express.  Integer value sums are exactly
    representable, so the result hash-matches any engine computing the same
    frame; TIES at the same timestamp all see the full tied group
    (RANGE semantics, not ROWS).

    Shape: one hash shuffle into bucketed bodies; per bucket the frame
    bounds come from ONE vectorized ``searchsorted`` over the key-sorted
    timestamp array (two prefix-sum lookups per row, no per-row loop).
    Like every per-key window here, a key's history lands in one bucket —
    the documented hash-bucket skew caveat applies."""

    range_us = range_s * 1_000_000

    def body(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col], kind="mergesort")
        # normalize to MICROSECONDS explicitly — pandas 2.x preserves the
        # stored unit, so a bare .astype(int64) would be unit-dependent;
        # µs keeps sub-second timestamps exact (DuckDB compares full ts)
        ts = (pd.to_datetime(g[ts_col]).astype("datetime64[us]")
              .astype("int64").to_numpy())
        v = g[int_value_col].to_numpy().astype(np.int64)
        keys = g[key_col].to_numpy()
        # per-key segment bounds
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        seg_of = np.repeat(np.arange(len(starts)),
                           np.diff(np.r_[starts, len(keys)]))
        seg_lo = starts[seg_of]
        seg_hi = np.r_[starts[1:], len(keys)][seg_of]
        csum = np.r_[0, np.cumsum(v)]
        # ts is sorted only WITHIN key segments — lift each segment onto
        # its own disjoint band so one global searchsorted answers every
        # per-segment query (band > any reachable target offset)
        band = (int(ts.max()) - int(ts.min()) + range_us + 2) if len(ts) else 1
        if len(starts) * band < (1 << 62):
            ts_adj = ts + seg_of * band
            # lo = first index in the segment with ts >= row.ts - range
            lo = np.searchsorted(ts_adj, ts_adj - range_us, side="left")
            lo = np.maximum(lo, seg_lo)
            # RANGE CURRENT ROW includes ALL rows tied at row.ts
            hi = np.searchsorted(ts_adj, ts_adj, side="right")
            hi = np.minimum(hi, seg_hi)
        else:
            # band lift would overflow int64 (astronomical span × segment
            # count) — per-SEGMENT searchsorted, still vectorized per key
            lo = np.empty(len(ts), np.int64)
            hi = np.empty(len(ts), np.int64)
            for s0, s1 in zip(starts, np.r_[starts[1:], len(ts)]):
                seg = ts[s0:s1]
                lo[s0:s1] = s0 + np.searchsorted(seg, seg - range_us, "left")
                hi[s0:s1] = s0 + np.searchsorted(seg, seg, "right")
        out = g.copy()
        out[sum_alias] = (csum[hi] - csum[lo]).astype("int64")
        out[cnt_alias] = (hi - lo).astype("int64")
        return out

    return _bucketed_groups(ds, key_col, body)


def grouping_sets_counts(ds: Dataset, keys: list[str],
                         sets: list[tuple[str, ...]], int_value_col: str,
                         sum_alias: str,
                         all_sentinel: str = "ALL") -> Dataset:
    """GROUP BY GROUPING SETS (...): aggregates at exactly the requested
    key subsets — the general form of :func:`rollup_counts` /
    :func:`cube_counts`, same one-scan execution shape: the stream is
    touched ONCE by the map-side-combined finest aggregate and every
    requested set is derived from that tiny finest table.  Keys absent
    from a set carry ``all_sentinel`` (not SQL NULL) so cross-engine hash
    comparison is exact."""
    from .relational import map_combine_aggregate

    for s in sets:
        bad = [c for c in s if c not in keys]
        if bad:
            raise ValueError(f"grouping set {s} has non-key columns {bad}")
    _require_string_keys(ds, keys, all_sentinel, "grouping_sets_counts")

    finest = map_combine_aggregate(
        ds.select_columns(keys + [int_value_col]),
        keys=keys, sums={int_value_col: sum_alias}, count_alias="n",
    ).to_pandas()

    levels = []
    for kept in sets:
        kept = list(kept)
        if kept == keys:
            g = finest.copy()
        elif kept:
            g = (finest.groupby(kept, as_index=False)
                 .agg(**{sum_alias: (sum_alias, "sum"), "n": ("n", "sum")}))
        else:
            g = pd.DataFrame({sum_alias: [finest[sum_alias].sum()],
                              "n": [finest["n"].sum()]})
        for c in keys:
            if c not in kept:
                g[c] = all_sentinel
        levels.append(g[keys + [sum_alias, "n"]])

    out = pd.concat(levels, ignore_index=True)
    import ray.data as rd

    return rd.from_pandas(out)
