"""Pattern matching: parsed assertions × broadcast pattern set -> eventualities.

The reference's per-line VF2 match loop (src/pattern/pattern_match.py:70-172)
as a Ray Data stage: the (tiny) frequent-pattern list is put in the object
store ONCE (``ray.put``) and every match task reads it zero-copy — never
re-shipped per batch.  1 parsed row -> 0..k eventuality rows (flat explode
inside ``map_batches``).

Every matcher goes through :meth:`PatternMatcher.match`, which memoizes the
VF2 structural step per parse structure (``patterns.structure_key``) in a
memo that lives for one call (one distinct-assertion chunk, one batch):
distinct assertions share far fewer structures than texts.
"""

from __future__ import annotations

import pyarrow as pa
import ray

from ..patterns import Pattern, match_row
from ..util import worker_cached

EVENT_COLS = [
    "repo", "path", "commit", "content_sha256", "surf_a", "surf_b", "rel",
    "pair_key", "gen_idx", "plausibility", "typicality", "sid",
]


def events_table(evs: list[dict]) -> pa.Table:
    """Eventuality payloads as Arrow columns, one row per eventuality:
    ``eid, pattern, words, ev_pos_tags, ev_deps, skeleton_indices, ev_ners,
    ev_mentions, frequency``.  A row matched without NER tags gets ``O`` per
    word."""
    from .parse import MENTION_STRUCT, deps_array, list_string_array

    eids, pats_out, freqs = [], [], []
    w_off, w_flat = [0], []
    p_flat: list[str] = []
    ner_flat: list[str] = []
    d_off, d_gov, d_lab, d_dep = [0], [], [], []
    sk_off, sk_flat = [0], []
    men_off, men_s, men_e, men_t, men_n = [0], [], [], [], []
    for ev in evs:
        eids.append(ev["eid"])
        pats_out.append(ev["pattern"])
        freqs.append(ev["frequency"])
        w_flat.extend(ev["words"])
        p_flat.extend(ev["pos_tags"])
        ner_flat.extend(ev["ners"] or ["O"] * len(ev["words"]))
        w_off.append(len(w_flat))
        for g, lab, dp in ev["deps"]:
            d_gov.append(g)
            d_lab.append(lab)
            d_dep.append(dp)
        d_off.append(len(d_gov))
        sk_flat.extend(ev["skeleton_indices"])
        sk_off.append(len(sk_flat))
        for m in ev["mentions"]:
            men_s.append(m["start"])
            men_e.append(m["end"])
            men_t.append(m["text"])
            men_n.append(m["ner"])
        men_off.append(len(men_s))
    mention_struct = pa.StructArray.from_arrays(
        [pa.array(men_s, pa.int32()), pa.array(men_e, pa.int32()),
         pa.array(men_t, pa.string()), pa.array(men_n, pa.string())],
        fields=list(MENTION_STRUCT),
    )
    return pa.table({
        "eid": pa.array(eids, pa.string()),
        "pattern": pa.array(pats_out, pa.string()),
        "words": list_string_array(w_off, w_flat),
        "ev_pos_tags": list_string_array(w_off, p_flat),
        "ev_deps": deps_array(d_off, d_gov, d_lab, d_dep),
        "skeleton_indices": pa.ListArray.from_arrays(
            pa.array(sk_off, pa.int32()), pa.array(sk_flat, pa.int32())),
        "ev_ners": list_string_array(w_off, ner_flat),
        "ev_mentions": pa.ListArray.from_arrays(
            pa.array(men_off, pa.int32()), mention_struct),
        "frequency": pa.array(freqs, pa.float64()),
    })


@ray.remote
def match_events_chunk(pats: list, items: list[str]):
    """Parse + VF2-match one chunk of DISTINCT ``rel\\x1ftext`` keys and
    return the FULL eventuality payloads as ONE Arrow table (one row per
    eventuality, keys contiguous in ``items`` order), a per-key ev count
    array aligned with ``items``, and an 8-byte digest of each parse
    structure the chunk matched (for the ``n_match_structures`` counter).

    Every ev field is a pure function of (rel, text), so matching each
    distinct assertion ONCE cluster-wide and broadcasting the payload turns
    the per-occurrence stage into one vectorized Arrow ``take``.  Triples
    aggregate that eventuality stream, so this is the build's only
    distinct-assertion match."""
    import hashlib

    import numpy as np

    from .parse import cached_parse, extract_mentions, ner_tags

    matcher = PatternMatcher(pats)
    memo: dict = {}
    counts = []
    evs: list[dict] = []
    for key in items:
        rel, text = key.split("\x1f", 1)
        hit = cached_parse(rel, text) if rel in matcher.by_rel else (None,)
        if hit[0] is None:
            counts.append(0)
            continue
        t, l, p, d, _skel = hit
        ners = ner_tags(t, p)
        row = matcher.match(rel, t, l, p, d, ners=ners,
                            mentions=extract_mentions(t, ners), memo=memo)
        counts.append(len(row))
        evs.extend(row)
    return (events_table(evs), np.asarray(counts, dtype=np.int64),
            [hashlib.blake2b(repr(k).encode(), digest_size=8).digest()
             for k in memo])


def _memo_state(table_ref, keys_ref):
    """A worker's view of the broadcast memo: the payload table, a hash
    index over its distinct keys, and each key's ``(start, n)`` rows."""
    import pandas as pd

    keys = ray.get(keys_ref)
    return (ray.get(table_ref).combine_chunks(),
            pd.Index(keys.column("key").to_numpy(zero_copy_only=False)),
            keys.column("start").to_numpy(), keys.column("n").to_numpy())


def make_match_from_memo_fn(table_ref, keys_ref, canon_ref):
    """Memo join over the SCORED table: the distinct-level eventuality
    payloads live in ONE broadcast Arrow table (``table_ref``, read
    zero-copy from the object store); ``keys_ref`` is the relation
    ``(key, start, n)`` of every ``rel\x1ftext`` key that matched, its
    payload rows ``start .. start + n``.  Each worker builds one hash index
    over that key column; per block the distinct keys are looked up in it,
    the occurrence stream is exploded with the numpy repeat/arange trick
    and the ENTIRE nested payload (words/deps/ners/mentions lists) is
    materialized by one Arrow ``take`` — no per-key or per-occurrence
    Python.  Output is bit-identical to ``PatternMatcher`` over the parsed
    table (pytest-gated); ``canon_ref`` semantics mirror
    :func:`make_match_fn`."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from .canonicalize import apply_canonical

    def fn(batch: pa.Table) -> pa.Table:
        memo_tbl, index, starts, counts = worker_cached(
            "F" + table_ref.hex(), lambda: _memo_state(table_ref, keys_ref))
        n = batch.num_rows
        mk_np = pc.binary_join_element_wise(
            batch.column("rel"), batch.column("assertion"), "\x1f"
        ).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(mk_np)
        pos = index.get_indexer(uniq)
        hit = pos >= 0
        u_start = np.zeros(len(uniq), dtype=np.int64)
        u_cnt = np.zeros(len(uniq), dtype=np.int64)
        u_start[hit] = starts[pos[hit]]
        u_cnt[hit] = counts[pos[hit]]
        row_cnt = u_cnt[codes] if n else np.zeros(0, dtype=np.int64)
        total = int(row_cnt.sum())
        row_rep = np.repeat(np.arange(n, dtype=np.int64), row_cnt)
        flat_idx = (np.repeat(u_start[codes], row_cnt)
                    + np.arange(total, dtype=np.int64)
                    - np.repeat(np.cumsum(row_cnt) - row_cnt, row_cnt))
        # parse_batch's sid formula (generation_parser.py:137 parity): i is
        # the row index within the scored block — identical blocks feed both
        # paths (batch_size=None), so sids are bit-equal
        sid_row = pc.binary_join_element_wise(
            batch.column("surf_a"), batch.column("rel"),
            batch.column("surf_b"), "-")
        sid_row = pc.binary_join_element_wise(
            sid_row, pa.array(np.arange(n).astype(str), pa.string()), "|")
        rep_idx = pa.array(row_rep, pa.int64())
        out = batch.select(EVENT_COLS[:-1]).take(rep_idx)
        out = out.append_column("sid", sid_row.take(rep_idx))
        payload = memo_tbl.take(pa.array(flat_idx, pa.int64()))
        for name in ("eid", "pattern", "words", "ev_pos_tags", "ev_deps",
                     "skeleton_indices", "ev_ners", "ev_mentions",
                     "frequency"):
            out = out.append_column(name, payload.column(name))
        if canon_ref is None:
            return out
        return apply_canonical(out, worker_cached(
            "CM" + canon_ref.hex(), lambda: ray.get(canon_ref)))

    return fn


def make_match_fn(pat_ref, canon_ref):
    """Stateless-task matcher with broadcast pattern set + canonical map.

    Plain tasks beat an actor pool here: no pool spin-up, fully elastic, and
    the broadcast refs resolve once per worker process via ``worker_cached``.

    ``canon_ref=None`` skips canonical application (the web-scale path where
    the map exceeds broadcast size applies it afterwards with
    ``apply_canonical_join`` — a hash join, not a broadcast)."""
    from .canonicalize import apply_canonical

    def match_and_canonicalize(batch: pa.Table) -> pa.Table:
        matcher = worker_cached(
            "PM" + pat_ref.hex(), lambda: PatternMatcher(ray.get(pat_ref)))
        if canon_ref is None:
            return matcher(batch)
        return apply_canonical(matcher(batch), worker_cached(
            "CM" + canon_ref.hex(), lambda: ray.get(canon_ref)))

    return match_and_canonicalize


class PatternMatcher:
    """Callable for ``map_batches``; accepts the pattern list directly or as a
    ``ray.ObjectRef`` (broadcast — resolved once per worker, not per batch)."""

    def __init__(self, patterns):
        if isinstance(patterns, ray.ObjectRef):
            patterns = ray.get(patterns)
        self.patterns: list[Pattern] = sorted(patterns, key=Pattern.priority)
        self.by_rel: dict[str, list[Pattern]] = {}
        for p in self.patterns:
            self.by_rel.setdefault(p.rel, []).append(p)

    def match(self, rel: str, tokens, lemmas, pos_tags, deps, ners=None,
              mentions=None, memo: dict | None = None) -> list[dict]:
        """:func:`match_row` over this relation's patterns; ``memo`` (the
        caller's, one per call or batch, so it never outlives its input)
        caches the structural step."""
        pats = self.by_rel.get(rel)
        if not pats:
            return []
        return match_row(pats, rel, tokens, lemmas, pos_tags, deps, ners=ners,
                         mentions=mentions, memo=memo)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .parse import iter_deps, iter_strlists

        rels = batch.column("rel").to_pylist()
        toks = iter_strlists(batch.column("tokens"))
        lems = iter_strlists(batch.column("lemmas"))
        poss = iter_strlists(batch.column("pos_tags"))
        depss = iter_deps(batch.column("deps"))
        n = len(rels)
        nerss = (iter_strlists(batch.column("ners"))
                 if "ners" in batch.column_names else [None] * n)
        menss = (batch.column("mentions").to_pylist()
                 if "mentions" in batch.column_names else [None] * n)
        src_idx: list[int] = []
        evs: list[dict] = []
        memo: dict = {}
        for i, (rel, t, l, p, dd) in enumerate(zip(rels, toks, lems, poss, depss)):
            row = self.match(rel, t, l, p, dd, ners=nerss[i], mentions=menss[i],
                             memo=memo)
            src_idx.extend([i] * len(row))
            evs.extend(row)
        out = batch.select(EVENT_COLS).take(pa.array(src_idx, pa.int64()))
        payload = events_table(evs)
        for name in payload.column_names:
            out = out.append_column(name, payload.column(name))
        return out
