"""Shared expectation for KG product tests: the triples are the
eventualities grouped by (item pair, relation, eventuality words)."""

from __future__ import annotations

KEY = ["subj", "pred", "obj"]
LINEAGE = ["repo", "path", "commit", "content_sha256"]


def assert_triples_group_eventualities(kg) -> None:
    """``kg.triples()`` equals ``kg.eventualities()`` grouped in pandas on
    ``(canon_a-canon_b, rel, " ".join(words))``: support is the row count,
    frequency the sum, plausibility and typicality the max, and the lineage
    the lexicographically smallest ``repo\\tpath\\tcommit\\tsha``.  Every
    column is compared exactly."""
    ev = kg.eventualities().to_pandas()
    got = kg.triples().to_pandas()
    assert len(ev) > 0
    ev = ev.assign(
        subj=ev["canon_a"] + "-" + ev["canon_b"], pred=ev["rel"],
        obj=[" ".join(w) for w in ev["words"]],
        lineage=ev[LINEAGE].agg("\t".join, axis=1))
    want = (ev.groupby(KEY, sort=True)
            .agg(support=("frequency", "size"),
                 frequency=("frequency", "sum"),
                 plausibility=("plausibility", "max"),
                 typicality=("typicality", "max"),
                 lineage=("lineage", "min"))
            .reset_index())
    want[LINEAGE] = want.pop("lineage").str.split("\t", expand=True)
    got = got.sort_values(KEY).reset_index(drop=True)
    assert sorted(got.columns) == sorted(want.columns)
    assert len(got) == len(want)
    assert int(got["support"].sum()) == len(ev)
    for col in want.columns:
        assert got[col].tolist() == want[col].tolist(), col
