"""Every benchmark check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest kgbench/tests -q        (from the repository root)
"""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from kgbench.checks import (  # noqa: E402
    check_against_oracle,
    check_properties,
    same_rows,
    source_sha256,
)
from kgbench.corpus import build_corpus, write_corpus  # noqa: E402
from kgbench.oracle import oracle_kg  # noqa: E402
from kgbench.queries import compare_frames, sql_answers  # noqa: E402
from kgbench.tables import build_tables, write_tables  # noqa: E402


@pytest.fixture(scope="module")
def ray_session():
    import ray
    from ray.data import DataContext

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=256 * 1024 ** 2)
    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="module")
def kg(ray_session, tmp_path_factory):
    """A real build on a small corpus: (corpus, triples df, events table)."""
    from folkscope_ray.pipelines.kg import build_kg
    from kgbench.run import read_all

    corpus = build_corpus(seed=7, n_files=40)
    src = write_corpus(corpus, str(tmp_path_factory.mktemp("corpus")))
    pipe = build_kg(src, run_dir=str(tmp_path_factory.mktemp("run")))
    tri, ev = read_all(pipe.triples()), read_all(pipe.eventualities())
    return corpus, tri, ev


def test_real_output_passes(kg):
    corpus, tri, ev = kg
    df = tri.to_pandas()
    assert check_properties(df, ev, source_sha256(corpus)) == []
    assert check_against_oracle(df, oracle_kg(corpus).triples) == []
    assert same_rows(tri, tri.take(list(range(tri.num_rows))[::-1]))
    # same_rows orders rows by the non-nested columns: they must be a key
    flat = [c for c in ev.column_names
            if not pa.types.is_nested(ev.schema.field(c).type)]
    assert not ev.select(flat).to_pandas().duplicated().any()


def test_dropped_triple_rejected(kg):
    corpus, tri, ev = kg
    df = tri.to_pandas().iloc[1:]
    assert check_properties(df, ev, source_sha256(corpus))
    assert not same_rows(tri.slice(1), tri)


def test_dropped_tenth_of_triples_fails_recall(kg):
    corpus, tri, _ev = kg
    df = tri.to_pandas()
    got = df.iloc[: int(len(df) * 0.9)]
    problems = check_against_oracle(got, oracle_kg(corpus).triples)
    assert any("recall" in p for p in problems)


def test_changed_support_rejected(kg):
    corpus, tri, ev = kg
    df = tri.to_pandas()
    df.loc[0, "support"] += 1
    assert any("support" in p for p in
               check_against_oracle(df, oracle_kg(corpus).triples))
    assert any("sum(support)" in p for p in
               check_properties(df, ev, source_sha256(corpus)))


def test_changed_plausibility_rejected(kg):
    corpus, tri, _ev = kg
    df = tri.to_pandas()
    df.loc[0, "plausibility"] += 1e-9
    assert any("plausibility" in p for p in
               check_against_oracle(df, oracle_kg(corpus).triples))


def test_wrong_content_sha256_rejected(kg):
    corpus, tri, ev = kg
    df = tri.to_pandas()
    df.loc[0, "content_sha256"] = "0" * 64
    assert any("content_sha256" in p for p in
               check_properties(df, ev, source_sha256(corpus)))


def test_changed_eventuality_rejected(kg):
    corpus, tri, ev = kg
    canon_a = ev.column("canon_a").to_pylist()
    canon_a[0] = canon_a[0] + "x"
    bad = ev.set_column(ev.schema.get_field_index("canon_a"), "canon_a",
                        [canon_a])
    assert any("eventualities" in p for p in
               check_properties(tri.to_pandas(), bad, source_sha256(corpus)))
    assert not same_rows(bad, ev)


def test_query_rows_checked_against_sql(ray_session, tmp_path):
    import __ray_entry__

    d = write_tables(build_tables(seed=3), str(tmp_path))
    want = sql_answers(d)["hash_join_lineitem_orders"]
    got = __ray_entry__.queries()["hash_join_lineitem_orders"](d).to_pandas()
    assert compare_frames(got, want) == []

    wrong = got.copy()
    wrong.loc[0, "n_items"] += 1
    assert compare_frames(wrong, want)
    assert compare_frames(got.iloc[1:], want)
    priced = got.copy()
    priced.loc[0, "sum_price"] *= 1 + 1e-7      # floats agree to 1e-9
    assert compare_frames(priced, want)
