"""Fuzzy (edit-distance) string self-join.

The approximate-join family member next to ops/setjoin (token-set Jaccard)
and ops/similarity (embedding cosine): all pairs of rows whose string
column is within Levenshtein distance ``k`` — entity resolution over
names/titles, near-identical record detection, label canonicalization.

Execution shape (sound and complete, FastSS / deletion-neighborhood):

0. EXACT PRE-DEDUP — identical strings collapse to one representative
   (min id per md5 group) BEFORE signature generation, and the verified
   representative pairs re-expand to member pairs afterwards (two
   partitioned joins; intra-group dist-0 pairs from a per-group
   triangular explode).  This bounds candidate volume by construction:
   a deletion-variant group holds at most the number of DISTINCT strings
   within distance k of that variant, so a hot value occupying 50% of the
   corpus contributes ONE row to candidate generation instead of an
   O(m^2) in-bucket blow-up (the r4-flagged FastSS residual).  The
   re-expansion emits exactly the output pairs — O(output), distributed.
1. SIGNATURES — every distinct string emits hashes of all variants
   obtained by deleting <= k characters (k=1: L+1 variants; k=2: O(L^2)).
   If lev(a, b) <= k the two deletion neighborhoods intersect (Bocek et
   al. 2007, "Fast Similarity Search in Large Dictionaries"), so bucketing
   by variant hash NEVER misses a true pair.  Variant hashes are computed
   in O(L) total per string from prefix/suffix rolling hashes (no variant
   string is ever materialized), double-modded into one int64 like
   ops/dedup dup-gram keys (~2^-62 pairwise collision odds).
2. CANDIDATES — variants co-locate by HASH BUCKET (not one group per
   variant — the tiny-group discipline); one vectorized body per bucket
   emits in-variant (a < b) id pairs via the repeat/arange explode, then
   pairs dedup with a map-side-combined groupby.
3. VERIFY — two data-tied paths sharing ONE batched kernel
   (:func:`_pair_dists`: k=1 is a DP-free vectorized check, k=2 a
   length-band prefilter plus the batched min-plus Levenshtein DP).
   Under ``EDITJOIN_BROADCAST_MAX`` distinct strings (2M) the id -> padded-char-matrix map broadcasts once via ``ray.put``
   and verify is pure numpy gathers; BEYOND the gate candidates join back
   to their strings through two partitioned ``hash_join``s (on ``a`` then
   ``b`` — the canonicalize/neardup beyond-broadcast discipline) and the
   same kernel runs per joined batch.  Both paths are bit-identical
   (forced-path ``*_BROADCAST_MAX=0`` pytest).

Reference analogue: none (the reference matches eventualities exactly);
this is the §2.4 approximate-join extension.  SQL oracle: DuckDB
``levenshtein`` cross join at sf0.01.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

# edit_distance_selfjoin verifies by a broadcast char matrix at most this many
# distinct strings, by partitioned string joins beyond it
EDITJOIN_BROADCAST_MAX = 2_000_000

_EJ_MOD1 = (1 << 31) - 1
_EJ_MOD2 = 2147483629
_EJ_B1, _EJ_B2 = 1000003, 999979


def _delk_hashes(text: str, k: int) -> np.ndarray:
    """int64 keys for every variant of ``text`` with <= k deletions
    (k in {1, 2}), computed from prefix/suffix rolling hashes without ever
    building a variant string: delete-i hashes as
    ``P[i] * B^(L-1-i) + S[i+1]``; delete-(i, j), i < j, as
    ``((P[i] * B^(j-i-1) + mid(i+1, j)) * B^(L-1-j) + S[j+1])`` where
    ``mid(a, b) = P[b] - P[a] * B^(b-a)`` is the substring hash.  The
    delete-2 set is vectorized over all ``triu`` (i, j) pairs."""
    arr = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32) \
        .astype(np.int64)
    L = len(arr)
    if L == 0:
        return np.zeros(1, dtype=np.int64)
    ks = []
    iu, ju = (np.triu_indices(L, 1) if (k >= 2 and L >= 2)
              else (np.empty(0, np.int64), np.empty(0, np.int64)))
    for mod, base in ((_EJ_MOD1, _EJ_B1), (_EJ_MOD2, _EJ_B2)):
        a = arr % mod
        pw = np.empty(L + 1, dtype=np.int64)   # pw[j] = B^j mod M
        pw[0] = 1
        for j in range(1, L + 1):
            pw[j] = (pw[j - 1] * base) % mod
        pref = np.zeros(L + 1, dtype=np.int64)  # hash of arr[:i]
        for i in range(L):
            pref[i + 1] = (pref[i] * base + a[i]) % mod
        suf = np.zeros(L + 1, dtype=np.int64)   # hash of arr[i:]
        for i in range(L - 1, -1, -1):
            suf[i] = (a[i] * pw[L - 1 - i] + suf[i + 1]) % mod
        # full string (0 deletions) then delete-i for each i
        h1 = np.empty(L + 1, dtype=np.int64)
        h1[0] = pref[L]
        idx = np.arange(L)
        h1[1:] = (pref[idx] * pw[L - 1 - idx] + suf[idx + 1]) % mod
        if len(iu):
            mid = (pref[ju] - pref[iu + 1] * pw[ju - iu - 1]) % mod
            h2 = ((pref[iu] * pw[ju - iu - 1] + mid) % mod
                  * pw[L - 1 - ju] + suf[ju + 1]) % mod
            ks.append(np.concatenate((h1, h2)))
        else:
            ks.append(h1)
    return ks[0] * np.int64(_EJ_MOD2) + ks[1]


def _del1_hashes(text: str) -> np.ndarray:
    return _delk_hashes(text, 1)


def _lev_mat(A: np.ndarray, la: np.ndarray, B: np.ndarray,
             lb: np.ndarray) -> np.ndarray:
    """Exact Levenshtein over padded char matrices (pad values never affect
    the result: dp[la, lb] only reads A[:, :la] / B[:, :lb])."""
    n = len(la)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    La, Lb = int(la.max()) if n else 0, B.shape[1]
    res = np.where(la == 0, lb, -1).astype(np.int64)
    prev = np.tile(np.arange(Lb + 1, dtype=np.int64), (n, 1))
    jj = np.arange(Lb + 1, dtype=np.int64)
    for i in range(1, La + 1):
        # candidates ignoring insertions: delete (up) and substitute (diag)
        cand = np.empty_like(prev)
        cand[:, 0] = i
        cand[:, 1:] = np.minimum(
            prev[:, 1:] + 1,
            prev[:, :-1] + (A[:, i - 1:i] != B).astype(np.int64))
        # fold insertions (cur[j-1] + 1) via min-plus prefix scan:
        # cur[j] = min_{j' <= j} (cand[j'] + (j - j'))
        cur = np.minimum.accumulate(cand - jj, axis=1) + jj
        hit = la == i
        if hit.any():
            res[hit] = cur[hit, lb[hit]]
        prev = cur
    return res


def batched_levenshtein(a_strs: list[str], b_strs: list[str]) -> np.ndarray:
    """Exact Levenshtein distance for n pairs at once: one unit-cost DP
    whose horizontal (insertion) dependency is resolved by the min-plus
    prefix trick, so every DP row is a handful of numpy ops over ALL
    pairs."""
    n = len(a_strs)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    la = np.fromiter((len(s) for s in a_strs), dtype=np.int64, count=n)
    lb = np.fromiter((len(s) for s in b_strs), dtype=np.int64, count=n)
    La, Lb = int(la.max()), int(lb.max())
    A = np.zeros((n, max(La, 1)), dtype=np.uint32)
    B = np.zeros((n, max(Lb, 1)), dtype=np.uint32)
    for i, s in enumerate(a_strs):
        if s:
            A[i, :len(s)] = np.frombuffer(s.encode("utf-32-le"),
                                          dtype=np.uint32)
    for i, s in enumerate(b_strs):
        if s:
            B[i, :len(s)] = np.frombuffer(s.encode("utf-32-le"),
                                          dtype=np.uint32)
    return _lev_mat(A, la, B, lb)


def _pair_dists(A: np.ndarray, la: np.ndarray, B: np.ndarray,
                lb: np.ndarray, k: int) -> np.ndarray:
    """Levenshtein distances (clamped to k+1 when > k) for n row-aligned
    pairs of EQUAL-WIDTH padded uint32 char matrices — the one verify
    kernel both the broadcast and the distributed paths call.

    k=1 is DP-free, all-numpy — after swapping rows so la <= lb:
      la == lb : dist <= 1  <=>  hamming <= 1 (a lone substitution);
      lb-la==1 : dist == 1  <=>  b is a one-char insertion into a,
                 i.e. chars match up to the first mismatch p and
                 a[p:] == b[p+1:]  (vectorized shifted comparison);
      else     : dist > 1.
    k=2: length-band prefilter, then the batched DP kernel."""
    n = len(la)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if A.shape[1] != B.shape[1]:
        raise ValueError("_pair_dists needs equal-width matrices")
    swap = la > lb
    if swap.any():
        sw = swap[:, None]
        A, B = np.where(sw, B, A), np.where(sw, A, B)
        la, lb = np.where(swap, lb, la), np.where(swap, la, lb)
    dist = np.full(n, k + 1, dtype=np.int64)
    dlen = lb - la
    if k == 1:
        W1 = A.shape[1]
        mism = A != B
        ham = mism.sum(axis=1)
        eq = dlen == 0
        dist[eq & (ham <= 1)] = ham[eq & (ham <= 1)]
        one = dlen == 1
        if one.any():
            cols = np.arange(W1)
            # first mismatch position (la if none — the insertion is
            # then the trailing char of b and the pair matches)
            p = np.where(mism[one].any(axis=1),
                         mism[one].argmax(axis=1), la[one])
            # a[p:la] must equal b[p+1:lb]  ==  no mismatch between
            # A[:, j] and B[:, j+1] for p <= j < la
            sh = A[one][:, :W1 - 1] != B[one][:, 1:]
            bad = (sh & (cols[:W1 - 1] >= p[:, None])
                   & (cols[:W1 - 1] < la[one][:, None])).any(axis=1)
            d1 = dist[one]
            d1[~bad] = 1
            dist[one] = d1
    else:
        cand = np.flatnonzero(dlen <= k)
        if len(cand):
            # clamp to the documented k+1 "too far" sentinel: _lev_mat
            # returns the true distance, which can exceed k+1
            dist[cand] = np.minimum(
                _lev_mat(A[cand], la[cand], B[cand], lb[cand]), k + 1)
    return dist


def _char_matrix(texts, W: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, W) uint32 padded char matrix + int64 lengths for a string
    sequence (NUL pad never occurs in real text)."""
    n = len(texts)
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
    mat = np.zeros((n, max(W, 1)), dtype=np.uint32)
    for r, t in enumerate(texts):
        if t:
            mat[r, :len(t)] = np.frombuffer(t.encode("utf-32-le"),
                                            dtype=np.uint32)
    return mat, lens


def _fastss_candidates(strings: Dataset, text_col: str, id_col: str,
                       k: int, n_buckets: int = 64) -> Dataset:
    """Stages 1+2: deletion-neighborhood signatures over ``strings``
    (assumed DISTINCT texts — the pre-dedup contract), bucketed by variant
    hash, one vectorized triangular explode per bucket -> (a < b) candidate
    id pairs.  Candidate volume is O(sum over variant groups of group^2)
    where a group holds only the distinct strings within distance k of one
    deletion variant — duplicates cannot inflate it."""

    def signatures(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        keys_l, ids_l = [], []
        for i, t in enumerate(b.column(text_col).to_pylist()):
            h = np.unique(_delk_hashes(t, k))  # dedup in-string variants
            keys_l.append(h)
            ids_l.append(np.full(len(h), ids[i], dtype=np.int64))
        if not keys_l:
            return pa.table({"vkey": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64())})
        return pa.table({
            "vkey": pa.array(np.concatenate(keys_l), pa.int64()),
            id_col: pa.array(np.concatenate(ids_l), pa.int64()),
        })

    def add_bucket(b: pa.Table) -> pa.Table:
        g = b.column("vkey").to_numpy(zero_copy_only=False)
        return b.append_column(
            "__b", pa.array((g % n_buckets).astype(np.int64), pa.int64()))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["vkey", id_col], kind="mergesort")
        v = g["vkey"].to_numpy()
        ids = g[id_col].to_numpy()
        starts = np.flatnonzero(np.concatenate(
            ([True], v[1:] != v[:-1])))
        sizes = np.diff(np.concatenate((starts, [len(v)])))
        # within each variant group of size m emit m(m-1)/2 (a < b) pairs
        # via the repeat/arange explode (ids are sorted within the group)
        m = sizes
        npairs = (m * (m - 1)) // 2
        tot = int(npairs.sum())
        if tot == 0:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        grp = np.repeat(np.arange(len(m)), npairs)
        off = np.arange(tot) - np.repeat(np.cumsum(npairs) - npairs, npairs)
        # map pair-offset within group -> (i, j) i<j: i = row of triangular
        mm = np.repeat(m, npairs)
        # i such that off < i*m - i(i+1)/2 boundaries: solve vectorized
        # cumulative row starts: row i covers (m-1-i) pairs
        # use the closed form: i = floor((2m-1 - sqrt((2m-1)^2 - 8*off))/2)
        tm = 2 * mm - 1
        i = np.floor((tm - np.sqrt(tm * tm - 8 * off)) / 2).astype(np.int64)
        i = np.clip(i, 0, mm - 2)
        # one-step fixup for float-sqrt boundary error in either direction
        rs = lambda x: x * (2 * mm - x - 1) // 2  # noqa: E731
        i = np.where(rs(i) > off, i - 1, i)
        i = np.where((i + 1 <= mm - 2) & (rs(i + 1) <= off), i + 1, i)
        row_start = rs(i)
        j = off - row_start + i + 1
        base = np.repeat(starts, npairs)
        return pd.DataFrame({"a": ids[base + i], "b": ids[base + j]})

    return (strings.select_columns([id_col, text_col])
            .map_batches(signatures, batch_format="pyarrow")
            .map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__b")
            .map_groups(bucket_pairs, batch_format="pandas"))


def edit_distance_selfjoin(ds: Dataset, text_col: str, id_col: str,
                           k: int = 1) -> Dataset:
    """All (a < b by id) row pairs with Levenshtein(text_a, text_b) <= k.
    Signatures are implemented for k in {1, 2} (the entity-resolution
    radii); k=1 verifies DP-free, k=2 through the batched DP kernel.
    Candidate volume grows with k (the <= k-deletion neighborhood is
    O(L^k) variants per string) — the standard FastSS trade.

    Exact duplicates are collapsed automatically before candidate
    generation and re-expanded after verification, so hot values cannot
    blow up in-bucket candidate work; the per-group intra expansion emits
    m(m-1)/2 dist-0 pairs for a duplicate group of size m — that is the
    operator's OUTPUT, inherent to its contract, not candidate waste."""
    if k not in (1, 2):
        raise NotImplementedError(
            "deletion-neighborhood signatures implemented for k in {1, 2}; "
            "compose with a coarser prefilter for larger radii")

    from .relational import hash_join, map_combine_aggregate
    from .split import md5_hex_array

    # ---- stage 0: exact pre-dedup (md5 text groups -> min-id rep)
    def add_gkey(b: pa.Table) -> pa.Table:
        return b.append_column("__g", md5_hex_array(b.column(text_col)))

    withg = (ds.select_columns([id_col, text_col])
             .map_batches(add_gkey, batch_format="pyarrow")).materialize()
    n_rows = withg.count()
    groups = map_combine_aggregate(
        withg.select_columns(["__g", id_col]),
        keys=["__g"], mins={id_col: "__rep"}, count_alias="__gn",
    ).materialize()
    n_reps = groups.count()

    if n_reps == n_rows:
        # no exact duplicates anywhere — every row is its own
        # representative, so the collapse join and the stage-4 re-expansion
        # would be identity work; skip both (data-tied, like the join gate)
        members = None
        reps = withg.map_batches(
            lambda b: pa.table({id_col: pc.cast(b.column(id_col),
                                                pa.int64()),
                                text_col: b.column(text_col)}),
            batch_format="pyarrow").materialize()
    else:
        # materialize: BOTH reps (below) and the stage-4 members_slim read
        # this join — without the pin the withg-by-groups join would
        # execute twice, once per consuming lineage
        members = hash_join(withg, groups, on="__g").materialize()

        def rep_rows(b: pa.Table) -> pa.Table:
            keep = pc.equal(b.column(id_col), b.column("__rep"))
            t = b.filter(keep)
            return pa.table({id_col: pc.cast(t.column(id_col), pa.int64()),
                             text_col: t.column(text_col)})

        reps = members.map_batches(rep_rows, batch_format="pyarrow") \
            .materialize()

    # ---- stages 1+2 over DISTINCT strings only
    cands = _fastss_candidates(reps, text_col, id_col, k)

    # ---- stage 3: verify — broadcast matrix under the gate, partitioned
    # string joins beyond it (bit-identical; forced-path pytest)
    if n_reps <= EDITJOIN_BROADCAST_MAX:
        strings = reps.to_pandas()
        order = np.argsort(strings[id_col].to_numpy(), kind="stable")
        sids = strings[id_col].to_numpy()[order].astype(np.int64)
        stxt = strings[text_col].to_numpy()[order]
        slen = np.fromiter((len(t) for t in stxt), dtype=np.int64,
                           count=len(stxt))
        W = int(slen.max()) if len(slen) else 1
        smat, _ = _char_matrix(stxt, W)
        corpus_ref = ray.put((sids, smat, slen))

        def verify(b: pa.Table) -> pa.Table:
            sids, smat, slen = ray.get(corpus_ref)
            aa = b.column("a").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            bb = b.column("b").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            ai = np.searchsorted(sids, aa)
            bi = np.searchsorted(sids, bb)
            dist = _pair_dists(smat[ai], slen[ai], smat[bi], slen[bi], k)
            keep = np.flatnonzero(dist <= k)
            out = b.select(["a", "b"]).take(pa.array(keep, pa.int64()))
            return out.append_column("dist",
                                     pa.array(dist[keep], pa.int64()))

        verified = cands.map_batches(verify, batch_format="pyarrow")
    else:
        def ren(old: str, new_id: str, new_txt: str):
            def fn(b: pa.Table) -> pa.Table:
                return pa.table({new_id: b.column(id_col),
                                 new_txt: b.column(text_col)})
            return fn

        sa = reps.map_batches(ren(id_col, "a", "__ta"),
                              batch_format="pyarrow")
        sb = reps.map_batches(ren(id_col, "b", "__tb"),
                              batch_format="pyarrow")
        joined = hash_join(hash_join(cands, sa, on="a"), sb, on="b")

        def verify_joined(b: pa.Table) -> pa.Table:
            ta = b.column("__ta").to_pylist()
            tb = b.column("__tb").to_pylist()
            if not ta:
                return pa.table({"a": pa.array([], pa.int64()),
                                 "b": pa.array([], pa.int64()),
                                 "dist": pa.array([], pa.int64())})
            W = max(max(len(t) for t in ta), max(len(t) for t in tb), 1)
            A, la = _char_matrix(ta, W)
            B, lb = _char_matrix(tb, W)
            dist = _pair_dists(A, la, B, lb, k)
            keep = np.flatnonzero(dist <= k)
            out = b.select(["a", "b"]).take(pa.array(keep, pa.int64()))
            return out.append_column("dist",
                                     pa.array(dist[keep], pa.int64()))

        verified = joined.map_batches(verify_joined, batch_format="pyarrow")

    # dedup AFTER verify: candidate multiplicity is small (a true pair is
    # found under each shared variant), and this keeps the only (a, b)
    # combine on the verified-pair stream instead of the candidate stream
    rep_pairs = map_combine_aggregate(
        verified, keys=["a", "b"], mins={"dist": "dist"}, count_alias="__c",
    ).select_columns(["a", "b", "dist"])

    if members is None:
        return rep_pairs

    # ---- stage 4: re-expand duplicates.  Inter-group: two partitioned
    # joins map each rep pair to the cross product of its member sets
    # (exactly the output pairs).  Intra-group: per-group triangular
    # explode of dist-0 pairs for groups of size >= 2.
    def mem(new_key: str, new_id: str):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table({
                new_key: pc.cast(b.column("__rep"), pa.int64()),
                new_id: pc.cast(b.column(id_col), pa.int64())})
        return fn

    members_slim = members.select_columns([id_col, "__rep", "__gn"]) \
        .materialize()
    ma = members_slim.map_batches(mem("a", "__ma"), batch_format="pyarrow")
    mb = members_slim.map_batches(mem("b", "__mb"), batch_format="pyarrow")
    expanded = hash_join(hash_join(rep_pairs, ma, on="a"), mb, on="b")

    def finish(b: pa.Table) -> pa.Table:
        x = b.column("__ma").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        y = b.column("__mb").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"a": pa.array(np.minimum(x, y), pa.int64()),
                         "b": pa.array(np.maximum(x, y), pa.int64()),
                         "dist": pc.cast(b.column("dist"), pa.int64())})

    inter = expanded.map_batches(finish, batch_format="pyarrow")

    dup_members = members_slim.filter(expr="__gn >= 2") \
        .select_columns([id_col, "__rep"])

    def intra_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g[id_col].to_numpy().astype(np.int64))
        m = len(ids)
        if m < 2:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64"),
                                 "dist": pd.Series([], dtype="int64")})
        iu, ju = np.triu_indices(m, 1)
        return pd.DataFrame({"a": ids[iu], "b": ids[ju],
                             "dist": np.zeros(len(iu), dtype=np.int64)})

    intra = dup_members.groupby("__rep").map_groups(
        intra_pairs, batch_format="pandas")
    return inter.union(intra)
