"""Seeded input tables for the ``ops_mix`` workload.

The registry queries read ``{dir}/{table}.parquet`` with the schema of the
repo's seed-42 test tables (TESTDATA.md).  The benchmark writes its own copy
of the five tables its queries read, drawn from ``default_rng(seed)``, at
about the row counts of the sf0.01 tables, with the properties the
operators are built for:

- ``events.user_id`` is Zipf-skewed, so the skew join has hot keys;
- ``orders.o_totalprice`` is uniform up to 500,000, so the Bloom
  semi-join's ``> 449,000`` filter keeps about a tenth of the orders;
- ``lineitem.l_shipdate`` falls -10..80 days from its order's date, so the
  30-day interval join keeps some lines and drops others;
- ``documents`` holds exact copies and one-word edits of earlier documents,
  so exact dedup and the Jaccard self-join find pairs;
- prices are whole cents, so rounded sums do not depend on summation order.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_ORDERS = 15_000
N_LINEITEM = 60_000
N_EVENTS = 10_000
N_USERS = 150
N_DOCS = 500
N_PARTS = 2_000
N_SUPP = 100

DAY_US = 86_400 * 1_000_000
ORDER_EPOCH_US = 788_918_400 * 1_000_000      # 1995-01-01
EVENT_EPOCH_US = 1_704_067_200 * 1_000_000    # 2024-01-01
WORDS = tuple(
    f"{a}{b}" for a in ("scan", "join", "sort", "hash", "agg", "key", "row",
                        "page", "log", "map")
    for b in ("", "er", "ed", "ing", "s", "x", "y", "al"))


def _cents(rng, lo: int, hi: int, n: int) -> np.ndarray:
    return rng.integers(lo * 100, hi * 100, n) / 100.0


def _documents(rng) -> pa.Table:
    p = 1.0 / np.arange(1, len(WORDS) + 1)
    p /= p.sum()
    texts: list[str] = []
    for i in range(N_DOCS):
        u = rng.random()
        if i >= 10 and u < 0.08:
            texts.append(texts[int(rng.integers(i))])
        elif i >= 10 and u < 0.25:
            words = texts[int(rng.integers(i))].split()
            words[int(rng.integers(len(words)))] = WORDS[rng.integers(len(WORDS))]
            texts.append(" ".join(words))
        else:
            n = int(rng.integers(20, 80))
            texts.append(" ".join(WORDS[k] for k in rng.choice(len(WORDS), n, p=p)))
    return pa.table({
        "doc_id": pa.array(np.arange(N_DOCS), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([("en", "de", "fr", "es", "it")[k]
                          for k in rng.integers(5, size=N_DOCS)], pa.string()),
        "source": pa.array([f"src{k}" for k in rng.integers(20, size=N_DOCS)],
                           pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def build_tables(seed: int) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed)
    odate = ORDER_EPOCH_US + rng.integers(0, 2_400, N_ORDERS) * DAY_US
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(N_ORDERS), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, 1_500, N_ORDERS), pa.int64()),
        "o_orderstatus": pa.array([("F", "O", "P")[k] for k in
                                   rng.integers(3, size=N_ORDERS)], pa.string()),
        "o_totalprice": pa.array(_cents(rng, 1_000, 500_000, N_ORDERS),
                                 pa.float64()),
        "o_orderdate": pa.array(odate, pa.timestamp("us")),
        "o_orderpriority": pa.array(
            [("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")[k]
             for k in rng.integers(5, size=N_ORDERS)], pa.string()),
    })

    l_order = np.sort(rng.integers(0, N_ORDERS, N_LINEITEM))
    first = np.r_[True, l_order[1:] != l_order[:-1]]
    run_start = np.maximum.accumulate(np.where(first, np.arange(N_LINEITEM), 0))
    lineitem = pa.table({
        "l_orderkey": pa.array(l_order, pa.int64()),
        "l_partkey": pa.array(rng.integers(0, N_PARTS, N_LINEITEM), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, N_SUPP, N_LINEITEM), pa.int64()),
        "l_linenumber": pa.array(np.arange(N_LINEITEM) - run_start + 1, pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, N_LINEITEM).astype(float)),
        "l_extendedprice": pa.array(_cents(rng, 900, 105_000, N_LINEITEM)),
        "l_discount": pa.array(rng.integers(0, 11, N_LINEITEM) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, N_LINEITEM) / 100.0),
        "l_returnflag": pa.array([("A", "N", "R")[k] for k in
                                  rng.integers(3, size=N_LINEITEM)], pa.string()),
        "l_linestatus": pa.array([("F", "O")[k] for k in
                                  rng.integers(2, size=N_LINEITEM)], pa.string()),
        "l_shipdate": pa.array(odate[l_order] + rng.integers(-10, 80, N_LINEITEM)
                               * DAY_US, pa.timestamp("us")),
    })

    users = np.minimum(rng.zipf(1.3, N_EVENTS), N_USERS) - 1
    events = pa.table({
        "event_id": pa.array(np.arange(N_EVENTS), pa.int64()),
        "ts": pa.array(np.sort(EVENT_EPOCH_US + rng.integers(0, 30 * DAY_US,
                                                             N_EVENTS)),
                       pa.timestamp("us")),
        "user_id": pa.array(users, pa.int64()),
        "event_type": pa.array([("view", "click", "cart", "buy", "error")[k]
                                for k in rng.integers(5, size=N_EVENTS)],
                               pa.string()),
        "value": pa.array(_cents(rng, 0, 500, N_EVENTS)),
        "props": pa.array([json.dumps({"k": int(k)}) for k in
                           rng.integers(0, 100, N_EVENTS)], pa.string()),
    })

    part = pa.table({
        "p_partkey": pa.array(np.arange(N_PARTS), pa.int64()),
        "p_name": pa.array([f"part {k}" for k in range(N_PARTS)], pa.string()),
        "p_brand": pa.array([f"Brand#{k}" for k in
                             rng.integers(1, 26, N_PARTS)], pa.string()),
        "p_type": pa.array([("ECONOMY", "SMALL", "LARGE", "PROMO")[k] for k in
                            rng.integers(4, size=N_PARTS)], pa.string()),
        "p_size": pa.array(rng.integers(1, 51, N_PARTS), pa.int32()),
        "p_retailprice": pa.array(_cents(rng, 900, 1_000, N_PARTS)),
    })
    return {"orders": orders, "lineitem": lineitem, "events": events,
            "documents": _documents(rng), "part": part}


def write_tables(tables: dict[str, pa.Table], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    for name, table in tables.items():
        pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir
