"""The ``ops_mix`` query list and the DuckDB SQL each result is checked against.

About one registry query per ``folkscope_ray.ops`` module.  Each SQL string
computes the query's answer from the same parquet files with DuckDB; none
reads a stored result.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

TABLES = ("orders", "lineitem", "events", "documents", "part")

# query name -> DuckDB SQL; the comment names the ops module it exercises
QUERIES: dict[str, str] = {
    "hash_join_lineitem_orders":  # relational
        """
        SELECT o.o_orderpriority, count(*) AS n_items,
               round(sum(l.l_extendedprice) * 100)::BIGINT / 100 AS sum_price
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        GROUP BY o.o_orderpriority""",
    "skew_join_events":  # relational
        """
        WITH e AS (SELECT user_id, event_type,
                          floor(epoch(ts))::BIGINT AS secs FROM events),
             f AS (SELECT user_id, min(secs) AS first_secs FROM e GROUP BY user_id)
        SELECT e.event_type, sum(e.secs - f.first_secs)::BIGINT AS total_since,
               count(*)::BIGINT AS n
        FROM e JOIN f USING (user_id) GROUP BY e.event_type""",
    "sliding_window_events":  # relational
        """
        WITH e AS (SELECT user_id, floor(epoch(ts))::BIGINT AS secs, value
                   FROM events),
             x AS (SELECT user_id, value,
                          unnest(generate_series(((secs - 3600) // 900 + 1) * 900,
                                                 (secs // 900) * 900, 900))
                            AS window_start
                   FROM e)
        SELECT user_id, window_start, count(*) AS n_events,
               round(sum(value) * 100)::BIGINT / 100 AS sum_value
        FROM x GROUP BY user_id, window_start""",
    "jaccard_selfjoin_docs":  # setjoin
        """
        WITH toks AS (SELECT doc_id, unnest(regexp_split_to_array(
                                 lower(text), '[^a-z0-9]+')) AS term
                      FROM documents),
             d AS (SELECT DISTINCT doc_id, term FROM toks WHERE term <> ''),
             lens AS (SELECT doc_id, count(*)::BIGINT AS len FROM d GROUP BY doc_id),
             inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                              count(*)::BIGINT AS i
                       FROM d a JOIN d b ON a.term = b.term AND a.doc_id < b.doc_id
                       GROUP BY 1, 2)
        SELECT doc_a, doc_b, (i * 1000000) // (la.len + lb.len - i) AS jaccard_ppm
        FROM inter JOIN lens la ON la.doc_id = inter.doc_a
                   JOIN lens lb ON lb.doc_id = inter.doc_b
        WHERE i * 1000000 >= 900000 * (la.len + lb.len - i)""",
    "bfs_depths_lineitem":  # graph
        """
        WITH RECURSIVE e0 AS (SELECT DISTINCT l_suppkey::BIGINT AS s,
                                     (l_partkey + 1000000)::BIGINT AS p
                              FROM lineitem),
             edges AS (SELECT s AS src, p AS dst FROM e0
                       UNION ALL SELECT p, s FROM e0),
             bfs AS (SELECT 1::BIGINT AS node, 0::BIGINT AS d
                     UNION
                     SELECT e.dst, bfs.d + 1 FROM bfs JOIN edges e ON e.src = bfs.node
                     WHERE bfs.d < 4)
        SELECT node, min(d)::BIGINT AS depth FROM bfs GROUP BY node""",
    "quantiles_by_brand_parts":  # sketch
        """
        WITH cents AS (SELECT p_brand, round(p_retailprice * 100)::BIGINT AS c
                       FROM part)
        SELECT p_brand, 0.25 AS q, quantile_disc(c, 0.25)::BIGINT AS value
        FROM cents GROUP BY p_brand
        UNION ALL
        SELECT p_brand, 0.5, quantile_disc(c, 0.5)::BIGINT FROM cents GROUP BY p_brand
        UNION ALL
        SELECT p_brand, 0.75, quantile_disc(c, 0.75)::BIGINT FROM cents GROUP BY p_brand""",
    "interval_join_orders_lineitem":  # interval
        """
        SELECT o.o_orderkey, o.o_custkey, l.l_linenumber::BIGINT AS l_linenumber
        FROM orders o JOIN lineitem l
          ON l.l_orderkey = o.o_orderkey
         AND l.l_shipdate >= o.o_orderdate
         AND l.l_shipdate <= o.o_orderdate + INTERVAL 30 DAY""",
    "exact_dedup_docs":  # dedup
        """
        SELECT md5(text) AS content_hash, min(doc_id) AS keep_id, count(*) AS n_dupes
        FROM documents GROUP BY md5(text)""",
    "bloom_semi_join_lineitem":  # bloom
        """
        SELECT l_returnflag, count(*) AS n_items,
               sum(round(l_extendedprice * 100)::BIGINT)::BIGINT AS total_cents
        FROM lineitem
        WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                             WHERE o_totalprice > 449000.0)
        GROUP BY l_returnflag""",
}


def sql_answers(table_dir: str) -> dict[str, pd.DataFrame]:
    """Every query's answer, computed by DuckDB from the parquet files."""
    con = duckdb.connect()
    try:
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{table_dir}/{t}.parquet')")
        return {name: con.execute(sql).fetchdf()
                for name, sql in QUERIES.items()}
    finally:
        con.close()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare_frames(got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """Order-insensitive comparison: same columns, same rows; floats within
    1e-9 (relative and absolute), everything else exactly."""
    if sorted(got.columns) != sorted(want.columns):
        return [f"columns {sorted(got.columns)} != {sorted(want.columns)}"]
    if len(got) != len(want):
        return [f"{len(got)} rows != {len(want)}"]
    a, b = _canon(got), _canon(want)
    problems = []
    for col in a.columns:
        av, bv = a[col].to_numpy(), b[col].to_numpy()
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            ok = np.allclose(av.astype(float), bv.astype(float),
                             rtol=1e-9, atol=1e-9)
        elif av.dtype.kind in "iu" and bv.dtype.kind in "iu":
            ok = np.array_equal(av.astype(np.int64), bv.astype(np.int64))
        else:
            ok = all(x == y for x, y in zip(av, bv))
        if not ok:
            problems.append(f"column {col} differs")
    return problems
