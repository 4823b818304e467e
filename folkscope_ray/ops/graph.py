"""Iterative distributed graph analytics over edge Datasets: PageRank.

KG post-processing the reference never had machinery for (its graphs live
in per-process igraph objects, `src/pattern/object.py`): entity-importance
ranking over the (subj -> obj) triple graph.  The implementation is the
honest distributed shape — per iteration one hash join (ranks onto edges)
plus one map-side-combined aggregate (contributions by destination) — so
it scales to edge sets that never fit one machine; the rank table (one row
per node) is the only thing materialized between iterations.

Bit-determinism across parallelism levels (what lets a committed golden
fixture gate it): ranks are FIXED-POINT int64 micro-units.  Per-edge
contributions use integer floor division by out-degree, damping is an
integer 85/100 multiply-then-floor, and all sums are integer sums —
order-independent, so the result is identical at any num_cpus/block
layout.  Dangling-node mass (nodes with no out-edges) is dropped rather
than redistributed (deterministic, documented PageRank variant)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..util import worker_cached

SCALE = 1_000_000_000  # 1e9 fixed-point units of rank mass per node

def pagerank(edges: Dataset, src_col: str = "src", dst_col: str = "dst",
             iterations: int = 10, damping_pct: int = 85,
             n_partitions: int | None = None,
             mode: str = "broadcast") -> Dataset:
    """Fixed-point PageRank over an edge Dataset.  Returns (node,
    rank_units) with rank_units int64 in SCALE units (initial rank =
    SCALE per node).  Parallel edges are legitimate (each carries its own
    contribution share).  ``iterations`` fixed (no convergence test — the
    deterministic contract).

    ``mode="broadcast"`` (default): the rank table (ONE ROW PER NODE — in
    real graphs orders of magnitude smaller than the edge stream) is
    broadcast via ``ray.put`` each iteration; per iteration one vectorized
    map over the static degree-annotated edges plus one map-side-combined
    aggregate.  Scale bound: node table must fit driver/worker memory.

    ``mode="shuffle"``: fully distributed — ranks stay a Dataset, each
    iteration hash-joins ranks onto edges and left-joins incoming mass onto
    the node universe.  No driver materialization of any table; use when
    even the node table is too large to broadcast.

    Both modes are bit-identical (integer arithmetic only; pytest-gated)."""
    import ray

    from .relational import hash_join, map_combine_aggregate

    if mode not in ("broadcast", "shuffle"):
        raise ValueError(mode)

    if n_partitions is None:
        try:
            n_partitions = max(2, int(ray.cluster_resources().get("CPU", 8)) // 4)
        except Exception:
            n_partitions = 8

    # ONE id type everywhere: node ids are carried as strings (the node
    # universe below casts anyway) — native int edges against a string rank
    # index silently produced base-only ranks in broadcast mode and crashed
    # the shuffle-mode join
    e = edges.map_batches(
        lambda b: pa.table({"src": b.column(src_col).cast(pa.string()),
                            "dst": b.column(dst_col).cast(pa.string())}),
        batch_format="pyarrow",
    ).materialize()

    # node universe: src union dst, distinct (one small shuffle, once)
    nodes = (
        e.map_batches(
            lambda b: pa.table(
                {"node": pa.chunked_array(
                    [*b.column("src").cast(pa.string()).chunks,
                     *b.column("dst").cast(pa.string()).chunks])}),
            batch_format="pyarrow")
        .groupby("node").count()
        .drop_columns(["count()"])
        .materialize()
    )

    # static out-degrees joined onto edges ONCE (reused every iteration)
    deg = map_combine_aggregate(
        e.map_batches(lambda b: b.append_column(
            "__one", pa.array([1] * b.num_rows, pa.int64())),
            batch_format="pyarrow"),
        keys=["src"], sums={"__one": "out_deg"}, count_alias="__n",
    ).drop_columns(["__n"])
    e_deg = hash_join(e, deg, on="src",
                      n_buckets=n_partitions).materialize()

    base = SCALE * (100 - damping_pct) // 100

    if mode == "broadcast":
        import numpy as np
        import pandas as pd

        # sorted node array + aligned rank vector: the per-batch probe is
        # one vectorized searchsorted (bfs_depths' neigh discipline), and
        # the broadcast state resolves once per worker via worker_cached
        node_list = nodes.to_pandas()["node"]  # one row per node (bound above)
        sorted_nodes = np.sort(np.asarray(node_list.to_numpy(),
                                          dtype=np.str_))
        rank_vals = np.full(len(sorted_nodes), SCALE, dtype=np.int64)
        for _ in range(iterations):
            rref = ray.put((sorted_nodes, rank_vals))

            def contrib_fn(b: pa.Table, _rref=rref) -> pa.Table:
                sn, rv = worker_cached("pr" + _rref.hex(),
                                       lambda: ray.get(_rref))
                src = np.asarray(b.column("src").to_pylist(), dtype=np.str_)
                c = (rv[np.searchsorted(sn, src)]
                     // b.column("out_deg").to_numpy(zero_copy_only=False))
                return pa.table({"dst": b.column("dst"),
                                 "c": pa.array(c, pa.int64())})

            incoming = map_combine_aggregate(
                e_deg.map_batches(contrib_fn, batch_format="pyarrow"),
                keys=["dst"], sums={"c": "in_sum"}, count_alias="__n",
            ).to_pandas()
            in_vals = np.zeros(len(sorted_nodes), dtype=np.int64)
            if len(incoming):
                dsts = np.asarray(incoming["dst"].to_numpy(), dtype=np.str_)
                in_vals[np.searchsorted(sorted_nodes, dsts)] = \
                    incoming["in_sum"].to_numpy(dtype="int64")
            rank_vals = base + (in_vals * damping_pct) // 100

        import ray.data as rd

        return rd.from_pandas(pd.DataFrame(
            {"node": sorted_nodes.astype(object),
             "rank_units": rank_vals}))

    ranks = nodes.map_batches(
        lambda b: b.append_column(
            "rank_units", pa.array([SCALE] * b.num_rows, pa.int64())),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iterations):
        r = ranks.map_batches(
            lambda b: pa.table({"src": b.column("node"),
                                "rank_units": b.column("rank_units")}),
            batch_format="pyarrow")
        contrib = hash_join(e_deg, r, on="src", n_buckets=n_partitions) \
            .map_batches(
                lambda b: pa.table({
                    "dst": b.column("dst"),
                    "c": pc.divide(b.column("rank_units"),
                                   b.column("out_deg")),  # int floor div
                }),
                batch_format="pyarrow")
        incoming = map_combine_aggregate(
            contrib, keys=["dst"], sums={"c": "in_sum"}, count_alias="__n",
        ).drop_columns(["__n"]).map_batches(
            # select by NAME — group_by column order is not part of the
            # pyarrow API contract (relational.py's own rename discipline)
            lambda b: pa.table({"node": b.column("dst"),
                                "in_sum": b.column("in_sum")}),
            batch_format="pyarrow")
        # left join: nodes with no in-edges keep base mass only
        joined = hash_join(nodes, incoming, on="node",
                           n_buckets=n_partitions, how="left_outer")
        ranks = joined.map_batches(
            lambda b: pa.table({
                "node": b.column("node"),
                "rank_units": pc.add(
                    pa.scalar(base, pa.int64()),
                    pc.divide(pc.multiply(
                        pc.fill_null(pc.cast(b.column("in_sum"), pa.int64()), 0),
                        damping_pct), 100)),
            }),
            batch_format="pyarrow",
        ).materialize()

    return ranks


# --------------------------------------------------------- co-occurrence

def cooccurrence_edges(ds: Dataset, group_col: str, item_col: str,
                       n_buckets: int | None = None) -> Dataset:
    """Market-basket projection: distinct item pairs (a < b) that co-occur in
    a group, with ``n`` = number of groups containing both (the co-purchase /
    co-mention graph construction a KG pipeline builds from transaction-like
    tables; the reference builds co-occurrence only in-process via igraph,
    src/pattern/object.py).

    Shape: one hash shuffle of the slim (group, item) projection bucketed on
    hash(group) (groups are co-located by construction), per-bucket
    vectorized self-merge per group — pair fan-out is O(group_size^2),
    bounded by the natural basket size, never by corpus size — then a
    map-side-combined (a, b) count of the per-bucket partials.  Skew note:
    a giant group produces a quadratic pair set; cap upstream (sample within
    group) if baskets are unbounded."""
    import numpy as np
    import pandas as pd
    import ray as _ray

    from .relational import map_combine_aggregate

    if n_buckets is None:
        try:
            n_buckets = max(4, 2 * int(_ray.cluster_resources().get("CPU", 8)))
        except Exception:
            n_buckets = 16

    def bucketize(batch: pa.Table) -> pa.Table:
        b = (pd.util.hash_array(
            batch.column(group_col).to_numpy(zero_copy_only=False))
            % n_buckets).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g[[group_col, item_col]].drop_duplicates()
        m = d.merge(d, on=group_col, suffixes=("_x", "_y"))
        ax = m[item_col + "_x"].to_numpy()
        bx = m[item_col + "_y"].to_numpy()
        keep = ax < bx
        out = pd.DataFrame({"a": ax[keep], "b": bx[keep]})
        # partial counts: same (a, b) from many groups in this bucket
        return (out.groupby(["a", "b"], sort=False).size()
                .rename("pn").reset_index())

    pairs = (ds.select_columns([group_col, item_col])
             .map_batches(bucketize, batch_format="pyarrow")
             .groupby("__b").map_groups(pairs_bucket, batch_format="pandas"))
    return map_combine_aggregate(pairs, keys=["a", "b"],
                                 sums={"pn": "n"}, count_alias="n")


def triangle_count(edges: Dataset, a_col: str = "a", b_col: str = "b",
                   n_buckets: int | None = None,
                   max_degree: int | None = None) -> pa.Table:
    """Exact global triangle count over an undirected edge list stored in
    canonical form (a < b, distinct).

    The distributed plan is the classic two-join shape: wedges = edges
    joined with edges on the shared middle vertex (canonical orientation
    a < mid < c means every triangle is generated exactly once), then the
    wedge's closing (a, c) key is joined against the edge-key set.  Both
    joins go through ``hash_join`` — broadcast escape when a side is small,
    hash-partitioned otherwise — so the wedge stream never lands on the
    driver.  Node ids must fit 31 bits (the composite (a, c) key packs two
    ids into one int64); raise to string keys beyond that.

    ``max_degree`` bounds the sum(deg^2) wedge cost by construction: each
    middle vertex keeps at most ``max_degree`` smallest-id rows per wedge
    role (deterministic ``cap_per_key`` truncation) before the wedge join,
    so the per-mid fan-out is <= max_degree^2.  The closing join always
    probes the FULL edge-key set.  Bit-identical to uncapped when no
    vertex exceeds the cap (pytest-pinned); a deterministic undercount of
    hub-centered triangles when it binds.

    Returns a one-row Arrow table {triangles: int64} (a scalar aggregate)."""
    from .relational import hash_join

    # materialize: three consumers (both wedge roles + the closing edge
    # keys) would otherwise each re-execute the upstream edge scan
    slim = edges.select_columns([a_col, b_col]).materialize()

    def ren(names: dict[str, str]):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(
                [names.get(n, n) for n in batch.column_names])
        return fn

    first = slim.map_batches(ren({a_col: "wa", b_col: "mid"}),
                             batch_format="pyarrow")
    second = slim.map_batches(ren({a_col: "mid", b_col: "wc"}),
                              batch_format="pyarrow")
    if max_degree is not None:
        from .split import cap_per_key

        first = cap_per_key(first, "mid", int(max_degree),
                            order_cols=["wa"])
        second = cap_per_key(second, "mid", int(max_degree),
                             order_cols=["wc"])
    wedges = hash_join(first, second, on="mid", n_buckets=n_buckets)

    def _check_ids(*cols: np.ndarray) -> None:
        # same precondition jaccard_selfjoin enforces: negative or >= 2^31
        # ids would silently corrupt the packed (a << 32 | b) keys
        for c in cols:
            if len(c) and (int(c.min()) < 0 or int(c.max()) >= 1 << 31):
                raise ValueError(
                    "triangle_count requires 0 <= node id < 2^31 (packed "
                    "wedge/edge keys); densify ids first")

    def wedge_key(batch: pa.Table) -> pa.Table:
        wa = batch.column("wa").to_numpy(zero_copy_only=False).astype("int64")
        wc = batch.column("wc").to_numpy(zero_copy_only=False).astype("int64")
        _check_ids(wa, wc)
        return pa.table({"k": pa.array((wa << 32) | wc, pa.int64())})

    def edge_key(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col).to_numpy(zero_copy_only=False).astype("int64")
        b = batch.column(b_col).to_numpy(zero_copy_only=False).astype("int64")
        _check_ids(a, b)
        return pa.table({"k": pa.array((a << 32) | b, pa.int64())})

    wk = wedges.map_batches(wedge_key, batch_format="pyarrow")
    ek = slim.map_batches(edge_key, batch_format="pyarrow")
    closed = hash_join(wk, ek, on="k", n_buckets=n_buckets)
    return pa.table({"triangles": pa.array([closed.count()], pa.int64())})


def bfs_depths(edges: Dataset, seeds: list[int], src_col: str = "src",
               dst_col: str = "dst", max_depth: int = 6,
               mode: str = "broadcast") -> Dataset:
    """BFS / k-hop reachability: shortest hop count from a seed set to
    every node reachable within ``max_depth`` hops (the neighborhood-
    expansion primitive behind entity-context harvesting and subgraph
    sampling).  Returns ``(node, depth)``, int64, seeds at depth 0.
    Directed along src -> dst; feed reversed duplicates for undirected
    graphs.

    ``mode="broadcast"``: the frontier (ONE node id per newly-reached
    node) broadcasts via ``ray.put`` each level; one vectorized edge scan
    per level emits block-distinct neighbors.  Driver state is
    node-bounded, never edge-bounded — same contract as pagerank's
    broadcast mode.

    ``mode="shuffle"``: fully distributed Bellman-Ford — the depth table
    stays a Dataset; each level hash-joins the current frontier onto the
    edge stream and min-combines candidate depths.  Use when even the
    node table outgrows the driver.

    Both modes are bit-identical (integer depths + min; pytest-gated)."""
    import ray
    import ray.data as rd

    from .relational import hash_join, map_combine_aggregate

    if mode not in ("broadcast", "shuffle"):
        raise ValueError(mode)
    if not seeds:
        # an upstream filter can legitimately match nothing; the broadcast
        # neigh probe would otherwise index an empty frontier array
        return rd.from_pandas(pd.DataFrame(
            {"node": pd.array([], dtype="int64"),
             "depth": pd.array([], dtype="int64")}))

    e = edges.map_batches(
        lambda b: pa.table({"src": pc.cast(b.column(src_col), pa.int64()),
                            "dst": pc.cast(b.column(dst_col), pa.int64())}),
        batch_format="pyarrow").materialize()

    if mode == "broadcast":
        visited: dict[int, int] = {int(s): 0 for s in seeds}
        frontier = np.array(sorted(visited), dtype=np.int64)
        for d in range(1, max_depth + 1):
            fref = ray.put(frontier)

            def neigh(b: pa.Table, _fref=fref) -> pa.Table:
                f = ray.get(_fref)
                s = b.column("src").to_numpy(zero_copy_only=False)
                hit = f[np.searchsorted(f, s).clip(max=len(f) - 1)] == s
                out = np.unique(
                    b.column("dst").to_numpy(zero_copy_only=False)[hit])
                return pa.table({"node": pa.array(out, pa.int64())})

            reached = (map_combine_aggregate(
                e.map_batches(neigh, batch_format="pyarrow"),
                keys=["node"], count_alias="__n")
                .to_pandas()["node"].to_numpy())
            new = np.array([n for n in reached if n not in visited],
                           dtype=np.int64)
            if len(new) == 0:
                break
            for n in new:
                visited[int(n)] = d
            frontier = np.sort(new)
        out = pd.DataFrame(sorted(visited.items()),
                           columns=["node", "depth"])
        return rd.from_pandas(out.astype({"node": "int64",
                                          "depth": "int64"}))

    depths = rd.from_pandas(pd.DataFrame({
        "node": np.array(sorted({int(s) for s in seeds}), dtype=np.int64),
        "d": np.zeros(len({int(s) for s in seeds}), dtype=np.int64),
    })).materialize()
    for d in range(1, max_depth + 1):
        def fr_batch(b: pa.Table, _d=d) -> pa.Table:
            m = pc.equal(b.column("d"), pa.scalar(_d - 1, pa.int64()))
            kept = b.filter(m)
            return pa.table({"src": kept.column("node"),
                             "d": kept.column("d")})

        fr = depths.map_batches(fr_batch, batch_format="pyarrow")
        cand = hash_join(fr, e, on="src").map_batches(
            lambda b: pa.table({
                "node": b.column("dst"),
                "d": pc.add(b.column("d"), pa.scalar(1, pa.int64()))}),
            batch_format="pyarrow")
        # count_alias="d" collides with the min alias on purpose: suppress
        # the row count so the depth table keeps its (node, d) schema
        depths = map_combine_aggregate(
            depths.union(cand), keys=["node"], mins={"d": "d"},
            count_alias="d").materialize()

        def lvl_count(b: pa.Table, _d=d) -> pa.Table:
            n = pc.sum(pc.cast(pc.equal(
                b.column("d"), pa.scalar(_d, pa.int64())), pa.int64()))
            return pa.table({"c": pa.array([n.as_py() or 0], pa.int64())})

        reached_lvl = depths.map_batches(
            lvl_count, batch_format="pyarrow").sum("c")
        if not reached_lvl:
            break
    return depths.map_batches(
        lambda b: pa.table({"node": pc.cast(b.column("node"), pa.int64()),
                            "depth": pc.cast(b.column("d"), pa.int64())}),
        batch_format="pyarrow")


def twohop_distinct_counts(edges: Dataset, a_col: str = "a",
                           b_col: str = "b",
                           node_alias: str = "node",
                           count_alias: str = "n_twohop",
                           max_degree: int | None = None) -> Dataset:
    """Strict 2-hop (friends-of-friends) distinct-neighbor counts on an
    undirected simple graph: for each node, how many distinct nodes are
    reachable in exactly two hops but are NOT direct neighbors (and not
    the node itself) — the candidate-generation primitive for link
    prediction and the recommenders' "customers also bought" fan-out.

    Plan: symmetrize the edge list (block-local, no shuffle), ONE
    partitioned hash join of the directed list with itself on the middle
    node, distinct-pair collapse via map-side-combined aggregate, then an
    anti-join against the direct edges expressed as a second map-combined
    aggregate (direct rows carry a flag; groups whose flag-sum is zero
    survive).  The join fan-out is sum(deg(mid)^2) — the standard wedge
    cost; skewed hubs dominate it.  ``max_degree`` makes that caveat
    enforceable BY CONSTRUCTION: each node's adjacency list is truncated
    to its ``max_degree`` smallest-id neighbors (deterministic — the
    ``cap_per_key`` map-side prune) before wedge generation, bounding the
    per-mid join fan-out at ``max_degree^2``.  Direct-edge exclusion
    always uses the FULL edge set, so capped output never reports a
    direct neighbor as a 2-hop.  When no node exceeds the cap the output
    is bit-identical to the uncapped run (pytest-pinned); when the cap
    binds the counts are a deterministic underestimate over the sampled
    neighborhoods — the standard hub-truncation trade."""
    from .relational import hash_join, map_combine_aggregate

    def sym(b: pa.Table) -> pa.Table:
        a = b.column(a_col)
        bb = b.column(b_col)
        return pa.table({
            "s": pa.concat_arrays([a.combine_chunks(), bb.combine_chunks()]),
            "d": pa.concat_arrays([bb.combine_chunks(), a.combine_chunks()]),
        })

    # materialize: up to three consumers (two wedge roles + the direct-edge
    # exclusion) read the symmetrized stream
    und = edges.select_columns([a_col, b_col]).map_batches(
        sym, batch_format="pyarrow").materialize()

    if max_degree is not None:
        from .split import cap_per_key

        # truncated adjacency: per node, its max_degree smallest-id
        # neighbors.  Both wedge roles read the SAME capped list (left is
        # its reversal), so the per-mid fan-out on each side is <=
        # max_degree and the join emits <= max_degree^2 rows per mid.
        adj = cap_per_key(und, "s", int(max_degree),
                          order_cols=["d"]).materialize()
        left = adj.map_batches(
            lambda b: pa.table({node_alias: b.column("d"),
                                "mid": b.column("s")}),
            batch_format="pyarrow")
        right = adj.map_batches(
            lambda b: pa.table({"mid": b.column("s"), "w": b.column("d")}),
            batch_format="pyarrow")
    else:
        left = und.map_batches(
            lambda b: pa.table({node_alias: b.column("s"),
                                "mid": b.column("d")}),
            batch_format="pyarrow")
        right = und.map_batches(
            lambda b: pa.table({"mid": b.column("s"), "w": b.column("d")}),
            batch_format="pyarrow")
    wedges = hash_join(left, right, on="mid")

    def ends(b: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(b.column(node_alias), b.column("w")))
        t = b.filter(keep)
        return pa.table({node_alias: t.column(node_alias), "w": t.column("w"),
                         "__direct": pa.array(
                             np.zeros(t.num_rows, np.int64), pa.int64())})

    hop2 = map_combine_aggregate(
        wedges.map_batches(ends, batch_format="pyarrow"),
        keys=[node_alias, "w"], sums={"__direct": "__nd"})

    direct = und.map_batches(
        lambda b: pa.table({node_alias: b.column("s"), "w": b.column("d"),
                            "__nd": pa.array(
                                np.ones(b.num_rows, np.int64), pa.int64())}),
        batch_format="pyarrow")

    merged = map_combine_aggregate(
        hop2.select_columns([node_alias, "w", "__nd"]).union(direct),
        keys=[node_alias, "w"], sums={"__nd": "__direct_n"})

    strict = merged.filter(expr="__direct_n == 0")
    return map_combine_aggregate(
        strict.select_columns([node_alias]),
        keys=[node_alias], count_alias=count_alias)
