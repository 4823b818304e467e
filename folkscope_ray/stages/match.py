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
from ..util import broadcast_cache_put

EVENT_COLS = [
    "repo", "path", "commit", "content_sha256", "surf_a", "surf_b", "rel",
    "pair_key", "gen_idx", "plausibility", "typicality", "sid",
]


# per-worker cache: broadcast objects are fetched (zero-copy) once per worker
# process, then reused by every task scheduled there
_WORKER_CACHE: dict[str, object] = {}


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
    the per-occurrence stage into one vectorized Arrow ``take``.  The
    triples path's ``{key: [(obj, frequency)]}`` memo is a projection of
    the same table (ners and mentions never change which eventualities
    match), so this is the build's only distinct-assertion match."""
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


def make_match_from_memo_fn(table_ref, index_ref, canon_ref):
    """Memo-lookup matcher over the SCORED table: the distinct-level
    eventuality payloads live in ONE broadcast Arrow table (``table_ref``,
    read zero-copy from the object store) with ``index_ref`` mapping
    ``rel\\x1ftext -> (row_start, n_evs)``.  Per block the occurrence stream
    is exploded with the numpy repeat/arange trick and the ENTIRE nested
    payload (words/deps/ners/mentions lists) is materialized by one Arrow
    ``take`` — no per-occurrence Python at all.  Output is bit-identical to
    ``PatternMatcher`` over the parsed table (pytest-gated); ``canon_ref``
    semantics mirror :func:`make_match_fn`."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from .canonicalize import apply_canonical

    def fn(batch: pa.Table) -> pa.Table:
        mkey = "F" + table_ref.hex()
        cached = _WORKER_CACHE.get(mkey)
        if cached is None:
            cached = (ray.get(table_ref).combine_chunks(),
                      ray.get(index_ref))
            broadcast_cache_put(_WORKER_CACHE, mkey, cached)
        memo_tbl, index = cached
        n = batch.num_rows
        mk_np = pc.binary_join_element_wise(
            batch.column("rel"), batch.column("assertion"), "\x1f"
        ).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(mk_np)
        u_start = np.empty(len(uniq), dtype=np.int64)
        u_cnt = np.empty(len(uniq), dtype=np.int64)
        for ui, mk in enumerate(uniq):  # distinct keys only
            s, c = index.get(mk, (0, 0))
            u_start[ui] = s
            u_cnt[ui] = c
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
        ckey = canon_ref.hex()
        canon = _WORKER_CACHE.get(ckey)
        if canon is None:
            canon = ray.get(canon_ref)
            broadcast_cache_put(_WORKER_CACHE, ckey, canon)
        return apply_canonical(out, canon)

    return fn


def make_match_fn(pat_ref, canon_ref):
    """Stateless-task matcher with broadcast pattern set + canonical map.

    Plain tasks beat an actor pool here: no pool spin-up, fully elastic, and
    the broadcast refs resolve once per worker process via a module cache.

    ``canon_ref=None`` skips canonical application (the web-scale path where
    the map exceeds broadcast size applies it afterwards with
    ``apply_canonical_join`` — a hash join, not a broadcast)."""
    from .canonicalize import apply_canonical

    def match_and_canonicalize(batch: pa.Table) -> pa.Table:
        key = pat_ref.hex()
        matcher = _WORKER_CACHE.get(key)
        if matcher is None:
            matcher = PatternMatcher(ray.get(pat_ref))
            broadcast_cache_put(_WORKER_CACHE, key, matcher)
        if canon_ref is None:
            return matcher(batch)
        ckey = canon_ref.hex()
        canon = _WORKER_CACHE.get(ckey)
        if canon is None:
            canon = ray.get(canon_ref)
            broadcast_cache_put(_WORKER_CACHE, ckey, canon)
        return apply_canonical(matcher(batch), canon)

    return match_and_canonicalize


def make_triple_partials_fn(pat_ref, canon_ref, n_buckets: int, evs_ref=None,
                            lineage_ref=None):
    """Fused match -> per-block triple partials for the triples path.

    ``lineage_ref``: optional broadcast of the SORTED distinct lineage
    strings (``ray.put(pa.Array)``).  When present, ``lineage_p`` ships as
    the int64 index into that array instead of the ~150-byte
    ``repo\\tpath\\tcommit\\tsha`` string — ranks are assigned in
    lexicographic order, so ``min(rank) == min(string)`` bit-exactly while
    the triple shuffle moves less than half the bytes (lineage was 56% of
    the partial stream at sf0.1) and the reduce-side min becomes an int op.
    Bounded by ``FOLKSCOPE_LINEAGE_BROADCAST_MAX`` upstream; ``None`` falls
    back to the string path (identical output, pytest-gated).

    Consumes the SLIM scored table — no token/POS/dep list columns exist at
    all on this path.  Parses come from the per-worker ``cached_parse`` memo
    and match results from a (rel, assertion)-keyed memo: both are paid once
    per DISTINCT assertion, so per-row work is two dict lookups plus the
    partial-aggregation update.  The full per-event table remains available
    as its own product via :class:`PatternMatcher`.

    ``canon_ref=None`` (web-scale canonical map): partials key on the
    NORMALIZED surfaces and emit separate ``norm_a``/``norm_b`` columns with
    NO bucket — the caller hash-joins the canonical labels on, fuses the subj
    key, buckets, and re-combines (sum/max/min re-aggregate exactly)."""
    from ..util import stable_u64
    from .canonicalize import normalize_surface

    def fn(batch: pa.Table) -> pa.Table:
        from .parse import cached_parse

        key = "T" + pat_ref.hex()
        matcher = _WORKER_CACHE.get(key)
        if matcher is None:
            matcher = PatternMatcher(ray.get(pat_ref))
            broadcast_cache_put(_WORKER_CACHE, key, matcher)
        if canon_ref is None:
            canon = None
        else:
            ckey = "C" + canon_ref.hex()
            canon = _WORKER_CACHE.get(ckey)
            if canon is None:
                canon = ray.get(canon_ref)
                broadcast_cache_put(_WORKER_CACHE, ckey, canon)
        # keyed by the canon map's identity: the same worker may serve
        # pipelines with different canonical maps in one session
        surf_cache: dict[str, str] = _WORKER_CACHE.setdefault(
            "surf" + (canon_ref.hex() if canon_ref is not None else "_norm"), {}
        )

        def cid(surface: str) -> str:
            c = surf_cache.get(surface)
            if c is None:
                n = normalize_surface(surface)
                c = canon.get(n, n) if canon is not None else n
                if len(surf_cache) < 1_000_000:  # the mcache bound: a
                    # worker-lifetime memo over unbounded distinct surfaces
                    # must not grow without limit
                    surf_cache[surface] = c
            return c

        # global lineage rank map: one ray.get + dict build per worker
        lin_ranks = None
        if lineage_ref is not None:
            lkey = "L" + lineage_ref.hex()
            lin_ranks = _WORKER_CACHE.get(lkey)
            if lin_ranks is None:
                lin_arr = ray.get(lineage_ref)
                lin_ranks = {s: i for i, s in enumerate(lin_arr.to_pylist())}
                broadcast_cache_put(_WORKER_CACHE, lkey, lin_ranks)

        import numpy as np
        import pandas as pd
        import pyarrow.compute as pc

        # global match memo: the projection of the eventualities memo
        # (match_events_chunk, one match per distinct assertion), broadcast
        # once — workers just ray.get it (once per process).  evs_ref=None
        # (no eventualities memo): fall back to the lazy per-worker memo
        # below, which matches through the per-worker PatternMatcher with
        # a structure memo per batch.
        if evs_ref is not None:
            ekey = "E" + evs_ref.hex()
            evsmap = _WORKER_CACHE.get(ekey)
            if evsmap is None:
                evsmap = ray.get(evs_ref)
                broadcast_cache_put(_WORKER_CACHE, ekey, evsmap)
        else:
            evsmap = None
        mcache: dict = _WORKER_CACHE.setdefault("mc" + pat_ref.hex(), {})

        # VECTORIZED interior (bit-equal to the per-row dict loop it
        # replaced, fixture-gated): Python touches only the DISTINCT
        # assertions / surfaces per block; the 58×-repeated occurrence
        # stream stays in numpy/Arrow.  np.add.at accumulates the float
        # frequency in exploded-row order — the identical summation order to
        # the old `slot[1] += freq` — and pd.factorize's first-occurrence
        # unique order mirrors dict insertion order, so output row order,
        # values, and bits all match.
        n = batch.num_rows
        mk_np = pc.binary_join_element_wise(
            batch.column("rel"), batch.column("assertion"), "\x1f"
        ).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(mk_np)
        flat_obj: list[str] = []
        flat_freq: list[float] = []
        offs = np.empty(len(uniq) + 1, dtype=np.int64)
        offs[0] = 0
        memo: dict = {}
        for ui, mkey in enumerate(uniq):
            rel, text = mkey.split("\x1f", 1)
            if rel not in matcher.by_rel:
                evs = []
            else:
                evs = evsmap.get(mkey) if evsmap is not None else None
                if evs is None:
                    evs = mcache.get(mkey)
                if evs is None:
                    hit = cached_parse(rel, text)
                    evs = [] if hit[0] is None else [
                        (" ".join(ev["words"]), ev["frequency"])
                        for ev in matcher.match(rel, *hit[:4], memo=memo)]
                    if len(mcache) < 1_000_000:
                        mcache[mkey] = evs
            for o, f in evs:
                flat_obj.append(o)
                flat_freq.append(f)
            offs[ui + 1] = len(flat_obj)
        n_evs = np.diff(offs)
        row_cnt = n_evs[codes]
        total = int(row_cnt.sum())

        empty = {
            "support_p": pa.array([], pa.int64()),
            "frequency_p": pa.array([], pa.float64()),
            "plausibility_p": pa.array([], pa.float64()),
            "typicality_p": pa.array([], pa.float64()),
            "lineage_p": pa.array(
                [], pa.string() if lin_ranks is None else pa.int64()),
        }
        if total == 0:
            scols = (("norm_a", "norm_b") if canon is None
                     else ("subj",))
            t = {}
            if canon is not None:
                t["bucket"] = pa.array([], pa.int32())
            for c in scols:
                t[c] = pa.array([], pa.string())
            t["pred"] = pa.array([], pa.string())
            t["obj"] = pa.array([], pa.string())
            return pa.table({**t, **empty})

        # distinct surfaces -> canonical ids (memoized cid, distinct only)
        sa_codes, sa_uniq = pd.factorize(
            batch.column("surf_a").to_numpy(zero_copy_only=False))
        sb_codes, sb_uniq = pd.factorize(
            batch.column("surf_b").to_numpy(zero_copy_only=False))
        ca = np.array([cid(s) for s in sa_uniq], dtype=object)[sa_codes]
        cb = np.array([cid(s) for s in sb_uniq], dtype=object)[sb_codes]
        lin = pc.binary_join_element_wise(
            batch.column("repo"), batch.column("path"),
            batch.column("commit"), batch.column("content_sha256"), "\t"
        ).to_numpy(zero_copy_only=False)
        plaus = batch.column("plausibility").to_numpy(zero_copy_only=False)
        typic = batch.column("typicality").to_numpy(zero_copy_only=False)
        rels_np = batch.column("rel").to_numpy(zero_copy_only=False)

        # explode each row into its evs (flat_idx points into flat_obj/freq)
        row_rep = np.repeat(np.arange(n, dtype=np.int64), row_cnt)
        flat_idx = (np.repeat(offs[:-1][codes], row_cnt)
                    + np.arange(total, dtype=np.int64)
                    - np.repeat(np.cumsum(row_cnt) - row_cnt, row_cnt))
        obj_e = np.asarray(flat_obj, dtype=object)[flat_idx]
        freq_e = np.asarray(flat_freq, dtype=np.float64)[flat_idx]
        ca_e, cb_e = ca[row_rep], cb[row_rep]
        rel_e = rels_np[row_rep]

        gkey = pc.binary_join_element_wise(
            pa.array(ca_e, pa.string()), pa.array(cb_e, pa.string()),
            pa.array(rel_e, pa.string()), pa.array(obj_e, pa.string()),
            "\x1f").to_numpy(zero_copy_only=False)
        gcodes, _guniq = pd.factorize(gkey)
        g = len(_guniq)
        first = np.full(g, total, dtype=np.int64)
        np.minimum.at(first, gcodes, np.arange(total, dtype=np.int64))
        support = np.bincount(gcodes, minlength=g).astype(np.int64)
        freq_g = np.zeros(g, dtype=np.float64)
        np.add.at(freq_g, gcodes, freq_e)
        plaus_g = np.full(g, -np.inf)
        np.maximum.at(plaus_g, gcodes, plaus[row_rep])
        typic_g = np.full(g, -np.inf)
        np.maximum.at(typic_g, gcodes, typic[row_rep])
        # lexicographic min lineage per group WITHOUT object-dtype groupby
        # (pandas falls back to pure Python per group on strings): factorize
        # the per-row lineages, rank the distinct set by sort order, take the
        # integer min rank per group, map back — exact and order-free.
        # With the GLOBAL rank broadcast the per-block sort vanishes and the
        # int64 rank itself ships downstream (strings restored after the
        # final combine); ranks are lexicographic, so min commutes exactly.
        lin_codes, lin_uniq = pd.factorize(lin)
        if lin_ranks is not None:
            grank = np.fromiter((lin_ranks[s] for s in lin_uniq),
                                dtype=np.int64, count=len(lin_uniq))
            lin_min_rank = np.full(g, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(lin_min_rank, gcodes, grank[lin_codes][row_rep])
            lin_g = lin_min_rank
        else:
            order = np.argsort(lin_uniq)
            rank = np.empty(len(lin_uniq), dtype=np.int64)
            rank[order] = np.arange(len(lin_uniq), dtype=np.int64)
            lin_min_rank = np.full(g, len(lin_uniq), dtype=np.int64)
            np.minimum.at(lin_min_rank, gcodes, rank[lin_codes][row_rep])
            lin_g = lin_uniq[order][lin_min_rank]

        ca_g, cb_g = ca_e[first], cb_e[first]
        rel_g, obj_g = rel_e[first], obj_e[first]
        parts = {
            "support_p": pa.array(support, pa.int64()),
            "frequency_p": pa.array(freq_g, pa.float64()),
            "plausibility_p": pa.array(plaus_g, pa.float64()),
            "typicality_p": pa.array(typic_g, pa.float64()),
            "lineage_p": pa.array(
                lin_g, pa.int64() if lin_ranks is not None else pa.string()),
        }
        if canon is None:  # join path: norms stay separate, no bucket yet
            return pa.table(
                {
                    "norm_a": pa.array(ca_g, pa.string()),
                    "norm_b": pa.array(cb_g, pa.string()),
                    "pred": pa.array(rel_g, pa.string()),
                    "obj": pa.array(obj_g, pa.string()),
                    **parts,
                }
            )
        subjs = [f"{a}-{b}" for a, b in zip(ca_g, cb_g)]
        return pa.table(
            {
                "bucket": pa.array(
                    [stable_u64(s, p, o) % n_buckets
                     for s, p, o in zip(subjs, rel_g, obj_g)], pa.int32()
                ),
                "subj": pa.array(subjs, pa.string()),
                "pred": pa.array(rel_g, pa.string()),
                "obj": pa.array(obj_g, pa.string()),
                **parts,
            }
        )

    return fn


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
