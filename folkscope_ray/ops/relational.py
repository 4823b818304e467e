"""Relational building blocks the Dataset API doesn't ship directly:
broadcast join, partitioned hash join, anti join, salted (skew-safe)
aggregation, tumbling windows.

These back the reference's dict-lookup "joins" (SURVEY.md §2.4 J1-J5) and the
wide aggregations (§2.5), expressed with explicit partitioning so the same
code runs on a 256-node cluster:

- broadcast_join      : small side via ``ray.put`` once, zero-copy Arrow
                        ``Table.join`` per batch — no shuffle (J1 metadata
                        joins);
- hash_join           : broadcast escape under a size gate, else Ray's
                        native hash-partitioned ``Dataset.join``;
- anti_join           : broadcast key set + vectorized filter (J2 resume
                        anti-joins);
- asof_join           : hash co-partition both sides, per-bucket vectorized
                        ``merge_asof`` (backward, exact allowed) — no global
                        sort;
- salted_aggregate    : two-phase groupby for skewed keys — (key, salt)
                        partial then key final;
- tumbling_window     : event-time windows via groupby(key, window) —
                        Ray Data has no watermarks; the ordering assumption is
                        "input is a complete batch" (SURVEY.md §2.10).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from ..util import worker_cached
from ray.data.aggregate import Count, Sum


# hash_join ships a right side of at most this many rows by broadcast
JOIN_BROADCAST_MAX = 500_000
# map_combine_aggregate's "auto" final: at most this many partial rows
# combine in a narrow tree, more go through a shuffle
NARROW_FINAL_MAX = 2_000_000

_ARROW_JOIN_HOW = {"inner": "inner", "left": "left outer",
                   "left_outer": "left outer", "right": "right outer",
                   "right_outer": "right outer"}


def _bucket_ids(col: pa.ChunkedArray | pa.Array, n_buckets: int) -> pa.Array:
    """Vectorized, process-stable bucket assignment (pd.util.hash_array uses a
    fixed siphash key, so every map task sends a given key to the same bucket).
    Replaces the per-row ``zlib.crc32(str(k))`` loop — same co-location
    guarantee, no Python iteration over the stream."""
    keys = col.to_pandas().to_numpy()
    b = (pd.util.hash_array(keys, categorize=False) % n_buckets).astype(np.int32)
    return pa.array(b, pa.int32())


def _int_dtype_map(schema) -> dict[str, np.dtype]:
    """Columns whose original type is integer/boolean → target numpy dtype.

    The union-then-map_groups join shape null-fills one side's exclusive
    columns, which makes pandas promote int64 → float64 inside the group
    frame.  Values are unchanged; only the dtype must be restored on the
    side whose rows are all non-null."""
    out: dict[str, np.dtype] = {}
    for name, typ in zip(schema.names, schema.types):
        if isinstance(typ, pa.DataType):
            if pa.types.is_integer(typ) or pa.types.is_boolean(typ):
                out[name] = np.dtype(typ.to_pandas_dtype())
        elif isinstance(typ, np.dtype) and (
                np.issubdtype(typ, np.integer) or typ == np.bool_):
            out[name] = typ
    return out


def _restore_dtypes(df: pd.DataFrame, dtmap: dict[str, np.dtype]) -> pd.DataFrame:
    for name, dt in dtmap.items():
        if name in df.columns and df[name].dtype != dt and not df[name].isna().any():
            df[name] = df[name].astype(dt)
    return df


def broadcast_join(large: Dataset, small_df: pd.DataFrame | pa.Table,
                   on: str | list[str], how: str = "inner") -> Dataset:
    """Join a big Dataset against a small table without a shuffle.

    The small side is ``ray.put`` once and each batch runs a zero-copy
    ``pyarrow.Table.join`` against it (no pandas conversion on the big side).

    Stateless TASKS, not an actor pool: the only per-worker state is one
    ``ray.get`` of the broadcast ref, resolved once per worker process via
    :func:`~folkscope_ray.util.worker_cached`.  An actor pool here pays
    pool spin-up and caps parallelism for zero benefit — measured 3.5 s
    (actor, concurrency≤8) vs 1.6 s (tasks) on the sf0.1 orders join at
    32 cpus; actors remain right only for stages with genuinely expensive
    ``__init__`` state (model weights, taxonomy indexes)."""
    small = (small_df if isinstance(small_df, pa.Table)
             else pa.Table.from_pandas(small_df, preserve_index=False))
    ref = ray.put(small)
    join_type = _ARROW_JOIN_HOW.get(how, how)

    def join_batch(batch: pa.Table) -> pa.Table:
        small_t = worker_cached("bj" + ref.hex(), lambda: ray.get(ref))
        return batch.join(small_t, keys=on, join_type=join_type)

    return large.map_batches(join_batch, batch_format="pyarrow")


def hash_join(left: Dataset, right: Dataset, on: str | list[str],
              n_buckets: int | None = None,
              how: str = "inner") -> Dataset:
    """Partitioned hash join on ``on`` (a single column or a COMPOSITE
    key list).

    Ray's native hash-partitioned ``Dataset.join`` with B partitions.  B
    should exceed cluster parallelism; salt hot keys by raising B (buckets
    are hash-spread, so one hot *key* still lands in one bucket — for that
    case pre-aggregate or use broadcast_join on the deduplicated hot side)."""
    # data-tied broadcast escape (inner/left only — the per-batch Arrow join
    # sees the WHOLE small side, so left rows are complete; right/full outer
    # would emit unmatched right rows once per batch): when the right side is
    # under the gate, ship it once via ray.put and skip the all-to-all
    # entirely.  The right side is materialized to learn its size — object
    # store only (spillable), never the driver; the shuffle plan reuses the
    # pinned blocks.  The gate is lower than the key-set gates (the FULL
    # right table broadcasts, and every batch re-probes it — profitable only
    # while the hash table stays cache-friendly); 0 disables both the probe
    # and the materialize for known-huge right sides.
    keys = [on] if isinstance(on, str) else list(on)
    if JOIN_BROADCAST_MAX and how in ("inner", "left", "left_outer"):
        right = right.materialize()
        if right.count() <= JOIN_BROADCAST_MAX:
            small = pa.concat_tables(
                ray.get(list(right.to_arrow_refs())), promote_options="default")
            return broadcast_join(left, small, on=on, how=how)
    if n_buckets is None:
        # each partition spins up join-aggregator state; too many partitions
        # at small scale costs more than the join (measured 4x at sf0.1)
        try:
            n_buckets = max(2, int(ray.cluster_resources().get("CPU", 8)) // 4)
        except Exception:
            n_buckets = 8
    # Dataset.join rejects pandas-style aliases the broadcast gate accepts —
    # normalize so the same call works on both sides of the size gate
    # ("left" under the gate must not crash beyond it)
    native_how = {"left": "left_outer", "right": "right_outer",
                  "outer": "full_outer"}.get(how, how)
    return left.join(right, join_type=native_how,
                     num_partitions=n_buckets, on=tuple(keys))


def asof_join(left: Dataset, right: Dataset, key_col: str, on_col: str,
              n_buckets: int | None = None, right_cols: list[str] | None = None,
              suffix: str = "_asof", direction: str = "backward") -> Dataset:
    """Distributed as-of join: for every left row, the right row with the
    greatest ``on_col`` <= left's ``on_col`` within the same ``key_col``
    (``direction="backward"``, exact matches allowed — DuckDB ``ASOF LEFT
    JOIN`` with ``l.on >= r.on``), or with ``direction="forward"`` the
    SMALLEST right ``on_col`` >= left's (DuckDB ``l.on <= r.on`` — the
    next-scheduled-event lookup).  Ray Data ships no as-of join; the
    portable shape is a partitioned hash join: hash-bucket BOTH sides on key
    (co-location by construction), then one vectorized ``pandas.merge_asof``
    per bucket —
    no sort shuffle of the full stream, per-bucket sort only.  Hot keys land
    in one bucket (documented hash_join caveat); left-join semantics produce
    nulls for unmatched rows.

    ``right_cols``: right-side columns to carry (default: ``on_col`` only,
    renamed ``{on_col}{suffix}``)."""
    if n_buckets is None:
        try:
            n_buckets = max(2, int(ray.cluster_resources().get("CPU", 8)) // 2)
        except Exception:
            n_buckets = 8
    right_cols = right_cols or []

    def bucketize(side: str, keep: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            batch = batch.select(keep)
            out = batch.append_column(
                "__bucket", _bucket_ids(batch.column(key_col), n_buckets))
            return out.append_column(
                "__side", pa.array([side] * batch.num_rows, pa.string()))
        return fn

    rename = {on_col: on_col + suffix, **{c: c + suffix for c in right_cols}}
    left_dtypes = _int_dtype_map(left.schema())
    right_dtypes = {rename.get(k, k): v
                    for k, v in _int_dtype_map(right.schema()).items()
                    if k in (key_col, on_col, *right_cols)}
    left_keep = [c for c in left.schema().names]
    right_keep = [key_col, on_col] + right_cols
    lb = left.map_batches(bucketize("L", left_keep), batch_format="pyarrow")
    rb = right.select_columns(right_keep).map_batches(
        bucketize("R", right_keep), batch_format="pyarrow")
    both = lb.union(rb)

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # reindex by RECORDED side schemas: a bucket holding only one
        # side's rows lacks the other side's columns in its group frame,
        # and a 0-row side would lose every column (incl. the sort key) to
        # any all-NA prune — select by name instead.  The union null-fills
        # left-only columns on R rows; pandas promotes int64-with-null to
        # float64 — _restore_dtypes brings the recorded left ints back (L
        # rows are all non-null), else an int left column ships out float.
        lg = _restore_dtypes(
            g[g["__side"] == "L"].reindex(columns=left_keep), left_dtypes)
        rg = _restore_dtypes(
            g[g["__side"] == "R"].reindex(columns=right_keep)
            .rename(columns=rename), right_dtypes)
        lg = lg.sort_values([on_col, *([c for c in ("event_id",) if c in lg])],
                            kind="mergesort")
        rg = rg.sort_values(on_col + suffix, kind="mergesort")
        if lg.empty or rg.empty:
            # no-match result shaped like merge_asof's unmatched rows:
            # float64 NaN for recorded-int right columns, object None
            # otherwise (also covers the 0-left-rows bucket: 0 rows out)
            filled = {
                c: pd.Series([np.nan] * len(lg), index=lg.index,
                             dtype=("float64" if c in right_dtypes
                                    else object))
                for c in rename.values()}
            return lg.assign(**filled)
        return pd.merge_asof(
            lg, rg, left_on=on_col, right_on=on_col + suffix, by=key_col,
            direction=direction, allow_exact_matches=True,
        )

    return both.groupby("__bucket").map_groups(merge_bucket, batch_format="pandas")


def skew_join(left: Dataset, right: Dataset, on: str,
              top_k: int = 8, hot_keys: list | None = None,
              n_buckets: int | None = None) -> Dataset:
    """Skew-safe large-large INNER join: the hot keys never enter the shuffle.

    A partitioned hash join sends every row of a key to ONE partition — a
    zipf-hot key (the north rule's 'popular entities/repos' case) turns that
    partition into the straggler.  This operator splits the plan:

    1. **Detect** the hot keys with the exact two-pass Misra-Gries
       heavy-hitter sketch over the left side (or take ``hot_keys``
       explicitly — e.g. from a previous run's metrics).
    2. **Hot path, shuffle-free**: the RIGHT side's hot-key rows are
       collected and broadcast (``ray.put`` once), and the left's hot rows
       join against them map-side.  Assumes dim-like right multiplicity on
       the hot keys (rows_right(hot) bounded) — the standard fact x dim
       skew shape; a hot key heavy on BOTH sides has a quadratic output and
       no join strategy saves it.
    3. **Cold path**: both sides filtered to NOT-hot take the normal
       hash-partitioned join; with the hot keys gone the partitions are
       balanced.

    The union of the two paths is exactly the inner join."""
    if hot_keys is None:
        from .sketch import heavy_hitters

        hot_keys = heavy_hitters(left, on, top_k).to_pandas()[on].tolist()
    hot_arr = pa.array(hot_keys)
    hot_ref = ray.put(hot_arr)

    def side_filter(keep_hot: bool):
        def fn(batch: pa.Table) -> pa.Table:
            hot = ray.get(hot_ref)
            mask = pc.is_in(batch.column(on), value_set=hot)
            return batch.filter(mask if keep_hot else pc.invert(mask))
        return fn

    cold_joined = hash_join(
        left.map_batches(side_filter(False), batch_format="pyarrow"),
        right.map_batches(side_filter(False), batch_format="pyarrow"),
        on=on, n_buckets=n_buckets)
    if not hot_keys:
        return cold_joined
    # broadcast side: ONLY the right rows of hot keys (bounded by dim shape)
    refs = (right.map_batches(side_filter(True), batch_format="pyarrow")
            .to_arrow_refs())
    tables = [t for t in (ray.get(r) for r in refs) if t.num_rows]
    if not tables:  # hot keys absent from the right side: inner join drops them
        return cold_joined
    hot_right = pa.concat_tables(tables, promote_options="default")
    hot_joined = broadcast_join(
        left.map_batches(side_filter(True), batch_format="pyarrow"),
        hot_right, on=on)
    return cold_joined.union(hot_joined)


def range_join(large: Dataset, intervals: pd.DataFrame, value_col: str,
               lo_col: str = "lo", hi_col: str = "hi") -> Dataset:
    """Interval join: each row of ``large`` matched to the interval row with
    ``lo <= value < hi`` (half-open, non-overlapping intervals).  The
    interval table is small by construction (bands/buckets), so the
    scale-correct shape is broadcast + per-batch vectorized ``searchsorted``
    — no shuffle at all; rows outside every interval are dropped (inner
    join).  For overlapping intervals use hash/sort strategies instead —
    this operator asserts non-overlap."""
    iv = intervals.sort_values(lo_col).reset_index(drop=True)
    lows = iv[lo_col].to_numpy()
    his = iv[hi_col].to_numpy()
    if (lows[1:] < his[:-1]).any():
        raise ValueError("range_join requires non-overlapping intervals")
    ref = ray.put((lows, his, pa.Table.from_pandas(iv, preserve_index=False)))

    def range_batch(batch: pa.Table) -> pa.Table:
        # stateless task; the broadcast intervals resolve once per worker
        # process via worker_cached (no actor-pool spin-up)
        lows_v, his_v, iv_t = worker_cached("rj" + ref.hex(),
                                            lambda: ray.get(ref))
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        idx = np.searchsorted(lows_v, v, side="right") - 1
        ok = (idx >= 0) & (v < his_v[np.clip(idx, 0, None)])
        kept = batch.filter(pa.array(ok))
        matched = iv_t.take(pa.array(idx[ok], pa.int64()))
        for name in matched.column_names:
            kept = kept.append_column(name, matched.column(name))
        return kept

    return large.map_batches(range_batch, batch_format="pyarrow")


def anti_join(large: Dataset, keys, on: str) -> Dataset:
    """Rows of ``large`` whose ``on`` value is NOT in ``keys`` (broadcast set)."""
    key_ref = ray.put(pa.array(list(keys)))

    def anti_batch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vals = worker_cached("aj" + key_ref.hex(),
                             lambda: pc.unique(ray.get(key_ref)))
        mask = pc.invert(pc.is_in(batch.column(on), value_set=vals))
        return batch.filter(mask)

    return large.map_batches(anti_batch, batch_format="pyarrow")


def map_combine_aggregate(ds: Dataset, keys: list[str],
                          sums: dict[str, str] | None = None,
                          count_alias: str = "n",
                          mins: dict[str, str] | None = None,
                          maxs: dict[str, str] | None = None,
                          final: str = "auto") -> Dataset:
    """Sum/count groupby with MAP-SIDE COMBINE: each block first collapses to
    one partial row per in-block key group (zero-copy Arrow ``group_by`` —
    C++ hash aggregation), so the all-to-all shuffle moves O(blocks × groups)
    partial rows instead of the full stream.  For low-cardinality keys over
    wide streams (the TPC-H-Q1 shape: 600k rows → 6 groups) this removes the
    sort-shuffle of the data entirely — the 100-TB groupby discipline from
    SURVEY.md §2.5 applied generically.

    ``sums`` / ``mins`` / ``maxs`` map source column → output alias (sum of
    partial sums, min of partial mins, max of partial maxes — all three
    commute, which is what makes two-phase exact); count of input rows lands
    in ``count_alias``.  Means are sums/count in the caller.

    ``final`` picks how the partials combine:

    - ``"narrow"``: two-level tree reduce — coalesce partials into ≤32
      tasks, combine, then one final combine task.  No all-to-all and no
      Ray ``Aggregate`` operator (whose fixed sort/actor machinery costs
      seconds even on tiny Arrow partials: measured 3.6-8 s vs 0.3-0.7 s
      narrow at 32 cpus).  Correct whenever one task can hold the distinct
      keys — bounded domains like event types, languages, return flags,
      calendar days; the fanout-32 middle level bounds the root task's
      input at 32 × k rows even with millions of input blocks.
    - ``"shuffle"``: hash-partitioned groupby of the partials — the only
      correct choice when the DISTINCT-KEY set itself is cluster-sized
      (per-document ids, n-gram vocabularies).
    - ``"auto"`` (default): materialize the partials (the aggregate is a
      barrier either way, so no pipelining is lost), count them, and pick:
      ≤ ``NARROW_FINAL_MAX`` (2M) partial rows → narrow,
      else shuffle.  Data-tied like the broadcast gates: small/medium key
      spaces never pay the shuffle fixed cost, vocabulary-sized key spaces
      never overload the root task."""
    from ray.data.aggregate import Max as _Max
    from ray.data.aggregate import Min as _Min
    from ray.data.aggregate import Sum as _Sum

    sums, mins, maxs = sums or {}, mins or {}, maxs or {}
    specs = ([(c, "sum", a) for c, a in sums.items()]
             + [(c, "min", a) for c, a in mins.items()]
             + [(c, "max", a) for c, a in maxs.items()])
    src_cols = sorted({c for c, _f, _a in specs})
    # a count_alias colliding with a named aggregate means the caller wants
    # only the named column — suppress the row count instead of emitting a
    # duplicate field (both final plans honor this identically)
    emit_count = count_alias not in {a for _c, _f, a in specs}

    ren = {f"{c}_{f}": a for c, f, a in specs}
    ren["count_all"] = "__pn"

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(keys).aggregate(
            [(c, f) for c, f, _a in specs] + [([], "count_all")])
        # rename by NAME, not position — group_by column order is not part
        # of the pyarrow API contract
        return g.rename_columns([ren.get(n, n) for n in g.column_names])

    partials = (ds.select_columns(keys + src_cols)
                .map_batches(partial, batch_format="pyarrow"))

    if final == "auto":
        partials = partials.materialize()
        final = ("narrow" if partials.count() <= NARROW_FINAL_MAX
                 else "shuffle")

    if final == "narrow":
        def combine(last: bool):
            ren2 = {f"{a}_{f}": a for _c, f, a in specs}
            ren2["__pn_sum"] = (
                (count_alias if emit_count else "__pn") if last else "__pn")

            def fn(b: pa.Table) -> pa.Table:
                g = b.group_by(keys).aggregate(
                    [(a, f) for _c, f, a in specs] + [("__pn", "sum")])
                g = g.rename_columns(
                    [ren2.get(n, n) for n in g.column_names])
                if last and not emit_count:
                    g = g.drop_columns(["__pn"])
                return g
            return fn

        return (partials
                .repartition(32)
                .map_batches(combine(False), batch_format="pyarrow",
                             batch_size=None)
                .repartition(1)
                .map_batches(combine(True), batch_format="pyarrow",
                             batch_size=None))

    final_aggs = ([_Sum(a, alias_name=a) for _c, f, a in specs if f == "sum"]
                  + [_Min(a, alias_name=a) for _c, f, a in specs if f == "min"]
                  + [_Max(a, alias_name=a) for _c, f, a in specs if f == "max"])
    if emit_count:
        final_aggs.append(_Sum("__pn", alias_name=count_alias))
    return (
        partials
        .groupby(keys if len(keys) > 1 else keys[0])
        .aggregate(*final_aggs)
    )


def salted_aggregate(ds: Dataset, key: str, value: str, n_salts: int = 16) -> Dataset:
    """Skew-safe sum/count: groupby((key, salt)) partials, then groupby(key).

    A hot key's rows spread over ``n_salts`` reducers in phase 1; phase 2
    combines n_salts tiny partials per key.  Returns (key, sum_value, n)."""

    def salt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        salts = np.arange(n, dtype=np.int64) % n_salts
        return batch.append_column("__salt", pa.array(salts, pa.int32()))

    phase1 = (
        ds.select_columns([key, value])
        .map_batches(salt, batch_format="pyarrow")
        .groupby([key, "__salt"])
        .aggregate(Sum(value, alias_name="__psum"), Count(alias_name="__pn"))
    )
    return phase1.groupby(key).aggregate(
        Sum("__psum", alias_name=f"sum_{value}"), Sum("__pn", alias_name="n")
    )


def _epoch_window_start(ts_col_arr, window_s: int):
    """Exact event-time window start (seconds, int64) from a timestamp
    column: floor(epoch_us / (window_s * 1e6)) * window_s in ONE int64
    floor division.  pc.divide on int64 truncates toward zero, which for
    pre-1970 (negative) timestamps rounds UP and lands events in the wrong
    window vs SQL's FLOOR(epoch/window); the negative-adjust trick
    (subtract d-1 before the truncating divide) makes it a true floor for
    both signs with no float round-trip."""
    import pyarrow.compute as pc

    us = pc.cast(pc.cast(ts_col_arr, pa.timestamp("us")), pa.int64())
    d = int(window_s) * 1_000_000
    adj = pc.if_else(pc.less(us, pa.scalar(0, pa.int64())),
                     pa.scalar(d - 1, pa.int64()),
                     pa.scalar(0, pa.int64()))
    q = pc.divide(pc.subtract(us, adj), pa.scalar(d, pa.int64()))
    return pc.multiply(q, pa.scalar(int(window_s), pa.int64()))


def tumbling_window(events: Dataset, ts_col: str, key_col: str,
                    value_col: str, window_s: int) -> Dataset:
    """Per-key tumbling event-time windows: (key, window_start, n, sum, mean).

    Ray Data has no watermark machinery (neither does the reference —
    SURVEY.md §2.10); semantics here are complete-batch windows, the shape a
    stream-replay job would use."""

    def assign(batch: pa.Table) -> pa.Table:
        # _epoch_window_start normalizes to us first: pandas-native ns
        # timestamps would otherwise yield millisecond-granularity
        # "seconds" and per-event windows
        win = _epoch_window_start(batch.column(ts_col), window_s)
        return batch.append_column("window_start", win)

    # (key, window) groupby via map-side combine: each block collapses to
    # one partial row per in-block group, and the data-tied auto gate picks
    # the narrow tree-reduce final when the distinct (key, window) domain is
    # bounded — skipping Ray's Aggregate sort/actor machinery (measured
    # seconds of fixed cost even on tiny partials).  Mean is sum/count on
    # the combined result (one vectorized divide).
    agg = map_combine_aggregate(
        events.select_columns([ts_col, key_col, value_col])
        .map_batches(assign, batch_format="pyarrow"),
        keys=[key_col, "window_start"],
        sums={value_col: f"sum_{value_col}"},
        count_alias="n_events",
    )

    def add_mean(b: pa.Table) -> pa.Table:
        mean = pc.divide(pc.cast(b.column(f"sum_{value_col}"), pa.float64()),
                         pc.cast(b.column("n_events"), pa.float64()))
        return b.append_column(f"mean_{value_col}", mean)

    return agg.map_batches(add_mean, batch_format="pyarrow")


def windowed_distinct(events: Dataset, ts_col: str, key_col: str,
                      window_s: int,
                      alias: str = "n_distinct") -> Dataset:
    """Exact COUNT(DISTINCT key) per tumbling event-time window — the
    unique-visitors shape.  Two map-side-combined phases: (window, key)
    pairs first collapse to one row per DISTINCT pair (each block emits
    in-block-distinct pairs, so the shuffle moves distinct pairs per block,
    never events), then a count per window.  Shuffle volume is bounded by
    the distinct-pair domain — the same discipline as exact_dedup; for
    cluster-sized key universes the auto gate picks the shuffle final.
    Output: (window_start, n_distinct)."""

    def assign(batch: pa.Table) -> pa.Table:
        win = _epoch_window_start(batch.column(ts_col), window_s)
        t = pa.table({"window_start": win,
                      key_col: batch.column(key_col)})
        return t.group_by(["window_start", key_col]).aggregate([])

    pairs = map_combine_aggregate(
        events.select_columns([ts_col, key_col])
        .map_batches(assign, batch_format="pyarrow"),
        keys=["window_start", key_col], count_alias="__n")
    return map_combine_aggregate(
        pairs.drop_columns(["__n"]), keys=["window_start"],
        count_alias=alias)


def sliding_window(events: Dataset, ts_col: str, key_col: str,
                   value_col: str, window_s: int, slide_s: int) -> Dataset:
    """Per-key sliding (hopping) event-time windows of width ``window_s``
    advancing every ``slide_s`` (must divide ``window_s``): each event lands
    in exactly ``window_s // slide_s`` windows — the expansion is one
    vectorized repeat per batch (no per-row loop, no flat_map), then the
    same groupby((key, window_start)) aggregate as tumbling windows.  Fan-out
    is the constant w/s factor, so the shuffle stays data-proportional."""
    if window_s % slide_s:
        raise ValueError("slide_s must divide window_s")
    fan = window_s // slide_s

    def assign(batch: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(batch.column(ts_col), pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        secs = us // 1_000_000  # numpy floor division: exact for pre-1970
        base = (secs // slide_s) * slide_s
        n = len(secs)
        idx = np.repeat(np.arange(n, dtype=np.int64), fan)
        starts = np.repeat(base, fan) - np.tile(
            np.arange(fan, dtype=np.int64) * slide_s, n)
        rep = batch.select([key_col, value_col]).take(pa.array(idx))
        return rep.append_column("window_start", pa.array(starts, pa.int64()))

    # same map-side-combine shape as tumbling_window: the w/s fan-out
    # multiplies rows, but each block still collapses to one partial per
    # in-block (key, window) group before anything shuffles
    return map_combine_aggregate(
        events.select_columns([ts_col, key_col, value_col])
        .map_batches(assign, batch_format="pyarrow"),
        keys=[key_col, "window_start"],
        sums={value_col: f"sum_{value_col}"},
        count_alias="n_events",
    )


def session_windows(events: Dataset, ts_col: str, key_col: str, id_col: str,
                    gap_s: int, chunk_s: int | None = None) -> Dataset:
    """Per-key session windows (gap-based): rows more than ``gap_s`` apart
    start a new session.  Returns (key, session_id, n_events, start_epoch,
    end_epoch); session_id numbers sessions 1..n per key in time order.

    ``chunk_s=None`` (small-data path): one shuffle keyed on ``key_col``;
    the per-group pandas body sorts by (ts, id) and runs the vectorized
    gaps-and-islands computation.  Assumes each key's full EVENT history
    fits one group — a hot-key hazard at scale.

    ``chunk_s=<seconds>`` (scale path, two-phase): events first sessionize
    within (key, secs // chunk_s) time chunks — the hot key's history is
    spread across chunks, so no group ever holds more than one chunk of one
    key — then a second, much smaller shuffle stitches chunk-boundary
    sessions per key (two adjacent sessions merge iff next.start - prev.end
    <= gap, which is exactly the event-level gap rule, so the output is
    IDENTICAL to the single-phase path — pytest-gated).  The stitch pass
    groups per-key SESSION summaries, smaller than the event stream by the
    average session size; a key whose events are all isolated singletons
    degenerates to the event count again (documented bound)."""
    import pandas as pd

    def _sessionize(g: pd.DataFrame, secs: pd.Series) -> pd.DataFrame:
        new_session = (secs - secs.shift(1)).fillna(gap_s + 1) > gap_s
        sid = new_session.cumsum()
        return (
            pd.DataFrame({key_col: g[key_col], "session_id": sid, "secs": secs})
            .groupby([key_col, "session_id"], sort=False)
            .agg(n_events=("secs", "size"), start_epoch=("secs", "min"),
                 end_epoch=("secs", "max"))
            .reset_index()
        )

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_col, id_col])
        # normalize to epoch seconds regardless of datetime64 resolution
        secs = g[ts_col].astype("datetime64[us]").astype("int64") // 1_000_000
        return _sessionize(g, secs)

    slim = events.select_columns([ts_col, key_col, id_col])
    if chunk_s is None:
        return slim.groupby(key_col).map_groups(per_key, batch_format="pandas")

    def assign_chunk(batch: pa.Table) -> pa.Table:
        # numpy floor division twice: pc.divide truncates toward zero, which
        # would put pre-1970 events one second/chunk late vs the per_key
        # path's ``// 1_000_000`` — the paths must stay bit-identical
        us = pc.cast(pc.cast(batch.column(ts_col), pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        secs = us // 1_000_000
        chunk = secs // int(chunk_s)
        out = batch.append_column("secs", pa.array(secs, pa.int64()))
        return out.append_column("chunk", pa.array(chunk, pa.int64()))

    # Both phases run ONE vectorized pandas body per hash BUCKET, never per
    # (key, chunk) group: at sf0.1 the per-group form paid ~180k Python
    # dispatches (1.5k keys x ~120 chunks) and ran 90+ s; bucketed it is
    # ~2 s (the ops/window.py tiny-group discipline).  Phase-1 buckets on
    # hash(key) ^ mix(chunk) so a hot key's history still SPREADS across
    # buckets (the whole point of chunking); phase 2 buckets on hash(key)
    # over session summaries, which are bounded by session count, not
    # event count.
    nb = 16
    try:
        nb = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    except Exception:
        pass

    MIX = np.uint64(0x9E3779B97F4A7C15)

    def bucket_kc(b: pa.Table) -> pa.Table:
        kh = pd.util.hash_array(
            b.column(key_col).to_pandas().to_numpy(), categorize=False)
        ch = b.column("chunk").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        buck = ((kh ^ (ch * MIX)) % np.uint64(nb)).astype(np.int32)
        return b.append_column("__b1", pa.array(buck, pa.int32()))

    def local_sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["__b1"]).sort_values(
            [key_col, "chunk", "secs", id_col], kind="mergesort")
        secs = g["secs"].astype("int64")
        same = (g[key_col] == g[key_col].shift(1)) & \
               (g["chunk"] == g["chunk"].shift(1))
        new_s = (~same) | ((secs - secs.shift(1)) > gap_s)
        sid = new_s.cumsum()
        return (g.assign(__sid=sid)
                .groupby([key_col, "__sid"], sort=False)
                .agg(n_events=("secs", "size"),
                     start_epoch=("secs", "min"),
                     end_epoch=("secs", "max"))
                .reset_index().drop(columns=["__sid"]))

    def bucket_k(b: pa.Table) -> pa.Table:
        kh = pd.util.hash_array(
            b.column(key_col).to_pandas().to_numpy(), categorize=False)
        return b.append_column(
            "__b2", pa.array((kh % np.uint64(nb)).astype(np.int32),
                             pa.int32()))

    def stitch_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["__b2"]).sort_values(
            [key_col, "start_epoch", "end_epoch"], kind="mergesort")
        same = g[key_col] == g[key_col].shift(1)
        new_s = (~same) | (
            (g["start_epoch"] - g["end_epoch"].shift(1)) > gap_s)
        sid = new_s.cumsum()
        first = sid.groupby(g[key_col].to_numpy(), sort=False) \
            .transform("min")
        session_id = (sid - first + 1).astype("int64")
        return (g.assign(session_id=session_id)
                .groupby([key_col, "session_id"], sort=False)
                .agg(n_events=("n_events", "sum"),
                     start_epoch=("start_epoch", "min"),
                     end_epoch=("end_epoch", "max"))
                .reset_index())

    return (
        slim.map_batches(assign_chunk, batch_format="pyarrow")
        .map_batches(bucket_kc, batch_format="pyarrow")
        .groupby("__b1")
        .map_groups(local_sessions_bucket, batch_format="pandas")
        .map_batches(bucket_k, batch_format="pyarrow")
        .groupby("__b2")
        .map_groups(stitch_bucket, batch_format="pandas")
    )


def distinct_count_by_key(ds: Dataset, key_col: str, value_col: str,
                          alias: str = "n_distinct") -> Dataset:
    """Exact ``COUNT(DISTINCT value)`` per key — the two-phase distinct
    discipline: phase 1 collapses to (key, value) pairs with MAP-SIDE
    combine (each block dedups locally first, so the shuffle moves distinct
    pairs, never the raw stream); phase 2 counts pairs per key.  Exact at
    any scale where the distinct-pair set itself is shuffleable — the same
    contract as SQL's COUNT(DISTINCT); use the HLL sketch
    (ops/sketch.hll_distinct_by_key) when even that is too wide."""
    pairs = map_combine_aggregate(
        ds.select_columns([key_col, value_col]),
        keys=[key_col, value_col], count_alias="__n")
    return map_combine_aggregate(
        pairs.select_columns([key_col]), keys=[key_col], count_alias=alias)


def table_diff(left: Dataset, right: Dataset, on: str,
               compare_cols: list[str],
               status_alias: str = "status") -> Dataset:
    """CDC-style snapshot diff: one row per key present in EITHER
    snapshot, labelled ``added`` (key only in ``right`` — the new
    snapshot), ``removed`` (only in ``left``), ``changed`` (both, any
    compare column differs — null-safe) or ``unchanged``.  The
    incremental-build primitive: diff a checkpoint against a rebuild to
    find exactly what moved (see pipelines/kg.build_kg_incremental for
    the consumer shape).

    Scale shape: ONE partitioned full-outer hash join on the key (rides
    hash_join's data-tied broadcast escape when one side is small); the
    status computation is a stateless vectorized scan of the joined
    stream."""

    def mark(name: str, renames: dict[str, str]):
        def fn(b: pa.Table) -> pa.Table:
            t = b.rename_columns([renames.get(c, c) for c in b.column_names])
            return t.append_column(
                name, pa.array(np.ones(t.num_rows, dtype=np.int8)))
        return fn

    l2 = left.select_columns([on] + compare_cols).map_batches(
        mark("__lp", {}), batch_format="pyarrow")
    r2 = right.select_columns([on] + compare_cols).map_batches(
        mark("__rp", {c: f"__r_{c}" for c in compare_cols}),
        batch_format="pyarrow")
    j = hash_join(l2, r2, on=on, how="full_outer")

    def status(b: pa.Table) -> pa.Table:
        lp = pc.is_valid(b.column("__lp"))
        rp = pc.is_valid(b.column("__rp"))
        changed = pa.array(np.zeros(b.num_rows, dtype=bool))
        for c in compare_cols:
            a, r = b.column(c), b.column(f"__r_{c}")
            null_mix = pc.xor(pc.is_null(a), pc.is_null(r))
            neq = pc.fill_null(pc.not_equal(a, r), False)
            changed = pc.or_(changed, pc.or_(null_mix, neq))
        st = np.where(
            ~lp.to_numpy(zero_copy_only=False), "added",
            np.where(~rp.to_numpy(zero_copy_only=False), "removed",
                     np.where(changed.to_numpy(zero_copy_only=False),
                              "changed", "unchanged")))
        return pa.table({on: b.column(on),
                         status_alias: pa.array(st, pa.string())})

    return j.map_batches(status, batch_format="pyarrow")


def _distinct_marker_join(left: Dataset, right: Dataset,
                          cols: list[str]) -> Dataset:
    """Shared body of except/intersect: distinct-collapse both sides with
    map-side combine (the shuffle moves distinct tuples, never the
    streams), mark the right side, ONE composite-key left-outer hash join.
    Callers filter on the ``__r`` marker validity."""

    def distinct(ds: Dataset) -> Dataset:
        return map_combine_aggregate(ds.select_columns(cols), keys=cols,
                                     count_alias="__c") \
            .drop_columns(["__c"])

    r = distinct(right).map_batches(
        lambda b: b.append_column(
            "__r", pa.array(np.ones(b.num_rows, dtype=np.int8))),
        batch_format="pyarrow")
    return hash_join(distinct(left), r, on=cols, how="left_outer")


def except_distinct(left: Dataset, right: Dataset,
                    cols: list[str]) -> Dataset:
    """SQL ``EXCEPT`` (distinct set difference): distinct ``cols`` tuples
    of ``left`` that never appear in ``right`` — no broadcast requirement
    on either side (see :func:`_distinct_marker_join`)."""
    j = _distinct_marker_join(left, right, cols)

    def only_left(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_null(b.column("__r"))).select(cols)

    return j.map_batches(only_left, batch_format="pyarrow")


def intersect_distinct(left: Dataset, right: Dataset,
                       cols: list[str]) -> Dataset:
    """SQL ``INTERSECT`` (distinct set intersection): distinct ``cols``
    tuples present on BOTH sides — except_distinct's complement, same
    scale shape (see :func:`_distinct_marker_join`)."""
    j = _distinct_marker_join(left, right, cols)

    def in_both(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b.column("__r"))).select(cols)

    return j.map_batches(in_both, batch_format="pyarrow")


def union_by_name(sides: list[Dataset]) -> Dataset:
    """Schema-evolution union (SQL ``UNION ALL BY NAME``): concatenate
    Datasets whose schemas only partially overlap — columns are matched by
    NAME, each side's missing columns are null-filled with the TYPE the
    column has where it exists, and the output column order is
    first-appearance order across sides.

    Zero shuffle: each side gets one stateless ``map_batches`` that appends
    typed-null columns and reorders, then Ray's plan-level ``union``
    concatenates block lists without moving data.  Type conflicts between
    sides (same name, different type) raise — silently casting is how
    schema drift corrupts 100-TB backfills.  This is the ingest-time
    operator for merging heterogeneous snapshots (old parquet without a
    column, new parquet with it)."""
    if not sides:
        raise ValueError("union_by_name needs at least one Dataset")
    types: dict[str, pa.DataType] = {}
    for s in sides:
        sch = s.schema()
        for name, typ in zip(sch.names, sch.types):
            if name in types and types[name] != typ:
                raise TypeError(
                    f"union_by_name: column {name!r} is {types[name]} on one "
                    f"side and {typ} on another — cast explicitly first")
            types.setdefault(name, typ)
    order = list(types)

    def align(b: pa.Table) -> pa.Table:
        cols = []
        for name in order:
            if name in b.column_names:
                cols.append(b.column(name))
            else:
                cols.append(pa.nulls(b.num_rows, types[name]))
        return pa.table(dict(zip(order, cols)))

    aligned = [s.map_batches(align, batch_format="pyarrow") for s in sides]
    out = aligned[0]
    for s in aligned[1:]:
        out = out.union(s)
    return out


def fk_violations(child: Dataset, fk_col: str, parent: Dataset, pk_col: str,
                  relation: str) -> Dataset:
    """Referential-integrity audit: ONE summary row ``(relation,
    n_orphan_rows, n_orphan_keys)`` counting child rows whose ``fk_col``
    has no match in the parent's ``pk_col`` — the ingest-gate data-quality
    check before a 100-TB join pipeline trusts its keys.

    Scale shape: both sides collapse to DISTINCT keys with map-side
    combine (the shuffle moves per-block distinct keys, never rows — child
    row counts ride along as an int per key), the probe is one
    ``hash_join`` left-outer (broadcast escape under the gate, partitioned
    beyond), and the summary is a narrow combine of per-block partials.
    Zero full-table materialization anywhere."""

    cc = map_combine_aggregate(child.select_columns([fk_col]),
                               keys=[fk_col], count_alias="__rows")

    def ren(b: pa.Table) -> pa.Table:
        return pa.table({fk_col: b.column(pk_col),
                         "__pk": pa.nulls(b.num_rows, pa.int8()).fill_null(1)})

    pk = map_combine_aggregate(parent.select_columns([pk_col]),
                               keys=[pk_col], count_alias="__p") \
        .map_batches(ren, batch_format="pyarrow")
    j = hash_join(cc, pk, on=fk_col, how="left_outer")

    def partial(b: pa.Table) -> pa.Table:
        miss = pc.is_null(b.column("__pk"))
        rows = pc.if_else(miss, b.column("__rows"),
                          pa.scalar(0, pa.int64()))
        keys = pc.cast(miss, pa.int64())
        return pa.table({
            "relation": pa.array([relation], pa.string()),
            "n_orphan_rows": pa.array(
                [pc.sum(rows).as_py() or 0], pa.int64()),
            "n_orphan_keys": pa.array(
                [pc.sum(keys).as_py() or 0], pa.int64()),
        })

    parts = j.map_batches(partial, batch_format="pyarrow")
    return map_combine_aggregate(
        parts, keys=["relation"],
        sums={"n_orphan_rows": "n_orphan_rows",
              "n_orphan_keys": "n_orphan_keys"},
        count_alias="__blocks").drop_columns(["__blocks"])


def explode_column(ds: Dataset, list_col: str, keep_cols: list[str],
                   alias: str = "item",
                   pos_alias: str = "pos") -> Dataset:
    """SQL ``UNNEST ... WITH ORDINALITY``: one output row per list element,
    carrying ``keep_cols`` and the element's 1-based position.  Empty and
    null lists emit no rows (UNNEST semantics).

    One stateless scan, fully vectorized: elements come from the Arrow
    list buffer (``flatten`` — zero-copy), row replication is one ``take``
    with numpy ``repeat`` indices, and ordinals are an arange minus each
    element's list start offset.  Output size is the total element count —
    the streaming executor spills as it goes; no per-row Python."""

    def fn(b: pa.Table) -> pa.Table:
        col = b.column(list_col)
        la = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        off = la.offsets.to_numpy().astype(np.int64)
        # null lists share their offsets with an empty span only when the
        # builder wrote them that way — mask explicitly to be safe
        valid = ~np.asarray(la.is_null())
        counts = np.where(valid, np.diff(off), 0)
        idx = np.repeat(np.arange(b.num_rows), counts)
        # flatten() concatenates the elements of non-null lists only, which
        # lines up with counts (null lists contribute 0)
        flat = la.flatten()
        # 1-based ordinal within each list
        pos = (np.arange(len(idx))
               - np.repeat(np.cumsum(np.r_[0, counts[:-1]]), counts) + 1)
        out = {c: b.column(c).take(pa.array(idx, pa.int64()))
               for c in keep_cols}
        out[alias] = flat
        out[pos_alias] = pa.array(pos, pa.int64())
        return pa.table(out)

    return ds.map_batches(fn, batch_format="pyarrow")


def global_row_number(ds: Dataset, order_cols: list[str],
                      descending: list[bool] | None = None,
                      alias: str = "rn", start: int = 1) -> Dataset:
    """Global contiguous row numbers in a TOTAL order (SQL ``row_number()
    OVER (ORDER BY ...)`` with no partition) — the zipWithIndex primitive
    Ray Data does not ship, needed for ordinal exports, deterministic
    pagination, and rank-based normalization.

    ``order_cols`` must define a total order (include a unique id) or the
    numbering of ties is block-layout-dependent.

    This is one of the few operators that genuinely needs raw Ray tasks
    (SURVEY.md's documented escape hatch): after the distributed sort, a
    block's numbering offset is the row count of every block before it —
    per-block metadata, not per-row data.  Plan: ONE distributed sort
    (range-partitioned, so block order IS the sort order), one metadata
    pass of per-block row counts (each count computed where the block
    lives — no block ships to the driver), a driver-side prefix sum over
    ~num_blocks ints, then a zero-shuffle per-block tag task.  Total data
    movement beyond the sort: one int per block each way."""
    import ray as _ray
    import ray.data as _rd

    desc = descending if descending is not None else [False] * len(order_cols)
    sorted_ds = ds.sort(order_cols, descending=desc).materialize()
    refs = sorted_ds.to_arrow_refs()

    @_ray.remote
    def _nrows(t: pa.Table) -> int:
        return t.num_rows

    @_ray.remote
    def _tag(t: pa.Table, off: int) -> pa.Table:
        return t.append_column(
            alias, pa.array(np.arange(off, off + t.num_rows,
                                      dtype=np.int64), pa.int64()))

    sizes = _ray.get([_nrows.remote(r) for r in refs])
    offs = np.cumsum([0] + sizes[:-1]) + start
    return _rd.from_arrow_refs(
        [_tag.remote(r, int(o)) for r, o in zip(refs, offs)])
