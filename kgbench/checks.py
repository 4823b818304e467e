"""Output checks for the KG workloads.

Each check returns a list of problems; an empty list means the output
passed.  None of them compares against a stored copy of an earlier output:
triples are checked against the oracle and against properties that must
hold between the two products and the source rows.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

KEY = ["subj", "pred", "obj"]
MIN_PR = 0.95          # triple precision and recall against the oracle
PLAUS_TOL = 1e-12


def source_sha256(corpus: pa.Table) -> dict[tuple[str, str, str], str]:
    """``(repo, path, commit) -> sha256(content)`` of every source row."""
    cols = [corpus.column(c).to_pylist()
            for c in ("repo", "path", "commit", "content")]
    return {(r, p, c): hashlib.sha256(t.encode("utf-8")).hexdigest()
            for r, p, c, t in zip(*cols)}


def check_against_oracle(triples: pd.DataFrame, golden: pd.DataFrame) -> list[str]:
    """Triple P and R >= MIN_PR; equal ``support`` and ``plausibility``
    within PLAUS_TOL on the triples both hold."""
    got = set(zip(*(triples[c] for c in KEY)))
    want = set(zip(*(golden[c] for c in KEY)))
    if not got or not want:
        return [f"empty triples: {len(got)} built, {len(want)} expected"]
    inter = len(got & want)
    p, r = inter / len(got), inter / len(want)
    problems = []
    if p < MIN_PR or r < MIN_PR:
        problems.append(f"triple precision {p:.4f} / recall {r:.4f} < {MIN_PR}")
    both = triples.merge(golden, on=KEY, suffixes=("", "_oracle"))
    bad = (both["support"] != both["support_oracle"]).sum()
    if bad:
        problems.append(f"{bad} triples with support != oracle")
    bad = ((both["plausibility"] - both["plausibility_oracle"]).abs()
           > PLAUS_TOL).sum()
    if bad:
        problems.append(f"{bad} triples with plausibility off the oracle")
    return problems


def check_properties(triples: pd.DataFrame, events: pa.Table,
                     sha: dict[tuple[str, str, str], str]) -> list[str]:
    """Properties that tie the triples to the eventualities and the source."""
    problems = []
    if triples.duplicated(KEY).any():
        problems.append("duplicate (subj, pred, obj) keys in triples")
    lineage = zip(triples["repo"], triples["path"], triples["commit"],
                  triples["content_sha256"])
    bad = sum(sha.get((r, p, c)) != s for r, p, c, s in lineage)
    if bad:
        problems.append(f"{bad} triples whose content_sha256 is not the "
                        "sha256 of their source row")
    total = int(triples["support"].sum())
    if total != events.num_rows:
        problems.append(f"sum(support) {total} != {events.num_rows} "
                        "eventuality rows")
    subj = pc.binary_join_element_wise(events.column("canon_a"),
                                       events.column("canon_b"), "-")
    obj = pc.binary_join(events.column("words"), " ")
    ev_keys = set(zip(subj.to_pylist(), events.column("rel").to_pylist(),
                      obj.to_pylist()))
    if ev_keys != set(zip(*(triples[c] for c in KEY))):
        problems.append("triple keys != (canon_a-canon_b, rel, words) of "
                        "the eventualities")
    return problems


def _sorted(t: pa.Table) -> pa.Table:
    t = t.combine_chunks()
    flat = [c for c in t.column_names
            if not pa.types.is_nested(t.schema.field(c).type)]
    return t.sort_by([(c, "ascending") for c in flat])


def same_rows(got: pa.Table, want: pa.Table) -> bool:
    """Equal as row multisets (rows are ordered by every non-nested column;
    the eventualities' non-nested columns already identify a row)."""
    cols = sorted(got.column_names)
    if got.num_rows != want.num_rows or cols != sorted(want.column_names):
        return False
    got, want = got.select(cols), want.select(cols)
    try:
        want = want.cast(got.schema)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return False
    return _sorted(got).equals(_sorted(want))
