"""Deterministic parse: tokens / lemmas / POS / dependencies per assertion.

Replaces the reference's CoreNLP server stage (src/pattern/utils.py:217-299,
one server per worker, generation_parser.py:152-161) with an in-process
closed-world rule parser: the template prefix of each assertion is tagged from
the relation registry (template-anchored, like the reference's
``index_from`` anchor match, src/pattern/pattern_filter.py:74-92) and the
object phrase is tagged from the lexicon.  Dependency triples use the same
(governor, label, dependent) orientation as the reference parsed dicts.

Output contract (FIXTURES.md §5 ``parsed``):
    sid, tokens:list<str>, lemmas:list<str>, pos_tags:list<str>,
    deps:list<struct<gov:int32, rel:string, dep:int32>>,
    parse:string (constituency bracketing, utils.py:296-297 parity)
    + lineage columns.

``sid`` format "{a}-{rel}-{b}|{row}" follows generation_parser.py:137.
"""

from __future__ import annotations

import pyarrow as pa

from ..lexicon import lemma_of, tag_obj_word
from ..relations import REL_INDEX, Relation

DEP_STRUCT = pa.struct([("gov", pa.int32()), ("rel", pa.string()), ("dep", pa.int32())])
MENTION_STRUCT = pa.struct([
    ("start", pa.int32()), ("end", pa.int32()),
    ("text", pa.string()), ("ner", pa.string()),
])


def ner_tags(tokens, pos_tags) -> list[str]:
    """Per-token NER column (the reference's ``ners``, utils.py:292-299)."""
    from ..lexicon import ner_of

    return [ner_of(w, p) for w, p in zip(tokens, pos_tags)]


def extract_mentions(tokens, ners) -> list[dict]:
    """Contiguous same-type non-O spans -> mention dicts
    ({start, end, text, ner}, half-open token span) — the reference's
    ``entitymentions`` extraction filtered to typed tokens
    (utils.py:279-291)."""
    out = []
    i, n = 0, len(tokens)
    while i < n:
        t = ners[i]
        if t == "O":
            i += 1
            continue
        j = i
        while j + 1 < n and ners[j + 1] == t:
            j += 1
        out.append({"start": i, "end": j + 1,
                    "text": " ".join(tokens[i:j + 1]), "ner": t})
        i = j + 1
    return out


def slice_at_template(rel_name: str, generation: str) -> str | None:
    """Cut a raw generation at the relation's template prefix — the
    reference's assertion prefix slicer (generation_parser.py:128-138).
    Returns the template-anchored suffix sentence, or None when the template
    never occurs in the generation."""
    r = REL_INDEX.get(rel_name)
    if r is None or not r.tokens:
        return None
    prefix = " ".join(r.tokens)
    # token-anchored search (the reference matches on the token list,
    # pattern_filter.py:74-92): a bare str.find could anchor mid-word on
    # either side ("Matthey are both ..." or "they are bothering ..."
    # matching "they are both") and slice a fabricated assertion out of a
    # word fragment; punctuation after the prefix is a token boundary
    end = len(prefix)

    def bounded(i: int) -> bool:
        return ((i == 0 or generation[i - 1].isspace())
                and (i + end == len(generation)
                     or not generation[i + end].isalnum()))

    idx = generation.find(prefix)
    while idx >= 0 and not bounded(idx):
        idx = generation.find(prefix, idx + 1)
    if idx < 0:
        return None
    return generation[idx:].strip()


def parse_assertion(rel_name: str, sentence: str):
    """Parse one assertion; returns (tokens, lemmas, pos, deps) or None.

    Returns None when the sentence does not start with the relation's template
    anchor (the reference drops generations whose prefix slice fails,
    generation_parser.py:128-138) or has no object phrase, or for the
    template-less "open" relation (skipped from mining per
    pattern_filter.py:56-60).
    """
    r: Relation = REL_INDEX.get(rel_name)
    if r is None or not r.tokens:
        return None
    tokens = sentence.split()
    nt = len(r.tokens)
    if tuple(tokens[:nt]) != r.tokens or len(tokens) == nt:
        return None
    obj = tokens[nt:]
    pos = list(r.pos) + [tag_obj_word(w, i, r.obj_kind) for i, w in enumerate(obj)]
    lemmas = [lemma_of(w, p) for w, p in zip(tokens, pos)]
    deps = [list(d) for d in r.deps]

    if r.obj_kind == "verbal":
        v = nt  # object phrase is verb-led; its VB is the clause root
        if r.rel == "can":
            deps += [[v, "nsubj", 0], [v, "aux", 1], [v, "cc", 2]]
        elif r.rel == "effect":
            deps += [[v, "nsubj", 1], [1, "det", 0], [v, "aux", 2]]
        elif r.rel == "cause":
            deps += [[r.anchor, "xcomp", v], [v, "mark", 3]]
        else:  # pragma: no cover - no other verbal relations registered
            return None
        if len(obj) > 1:
            head = nt + len(obj) - 1
            for j in range(v + 1, head):
                deps.append([head, "amod" if pos[j] == "JJ" else "compound", j])
            deps.append([v, "obj", head])
    else:
        head = nt + len(obj) - 1
        for j in range(nt, head):
            deps.append([head, "amod" if pos[j] == "JJ" else "compound", j])
        if r.prep is not None:
            deps.append([head, "case", r.prep])
            deps.append([r.anchor, r.attach, head])
        else:
            deps.append([r.anchor, r.attach, head])
            if r.rel == "causeEffect":  # "... wants his <obj>": possessive joins the NP
                deps.append([head, "nmod:poss", 3])

    deps.sort(key=lambda t: (t[0], t[2], t[1]))
    return tokens, lemmas, pos, deps


def list_string_array(offsets: list[int], flat: list[str]) -> pa.ListArray:
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(flat, pa.string()))


def deps_array(offsets: list[int], govs: list[int], labels: list[str],
               deps: list[int]) -> pa.ListArray:
    struct = pa.StructArray.from_arrays(
        [pa.array(govs, pa.int32()), pa.array(labels, pa.string()), pa.array(deps, pa.int32())],
        fields=list(DEP_STRUCT),
    )
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)


def iter_deps(column) -> list[list[tuple[int, str, int]]]:
    """Fast list<struct> -> per-row (gov, rel, dep) triples (no dict churn)."""
    la = column.combine_chunks() if isinstance(column, pa.ChunkedArray) else column
    off = la.offsets.to_numpy()
    govs = la.values.field("gov").to_numpy()
    labs = la.values.field("rel").to_pylist()
    dds = la.values.field("dep").to_numpy()
    return [
        [(int(govs[j]), labs[j], int(dds[j])) for j in range(off[i], off[i + 1])]
        for i in range(len(la))
    ]


def iter_strlists(column) -> list[list[str]]:
    """Fast list<string> -> per-row python lists via one flat conversion."""
    la = column.combine_chunks() if isinstance(column, pa.ChunkedArray) else column
    off = la.offsets.to_numpy()
    flat = la.values.to_pylist()
    return [flat[off[i] : off[i + 1]] for i in range(len(la))]


def parse_batch(batch: pa.Table) -> pa.Table:
    """Vectorized-exterior parse: one tight loop per batch, Arrow in/out.

    List columns are built from flat arrays + offsets (ListArray.from_arrays)
    — an order of magnitude cheaper than pa.array on nested Python objects."""
    rels = batch.column("rel").to_pylist()
    texts = batch.column("assertion").to_pylist()
    surfs_a = batch.column("surf_a").to_pylist()
    surfs_b = batch.column("surf_b").to_pylist()
    keep, sids, skels, cparses = [], [], [], []
    tok_off, tok_flat = [0], []
    lem_flat, pos_flat, ner_flat = [], [], []
    dep_off, dep_gov, dep_lab, dep_dep = [0], [], [], []
    men_off, men_s, men_e, men_t, men_n = [0], [], [], [], []
    for i, (rel, text) in enumerate(zip(rels, texts)):
        hit = cached_parse(rel, text)
        if hit[0] is None:
            continue
        t, l, p, d, skel = hit
        keep.append(i)
        sids.append(f"{surfs_a[i]}-{rel}-{surfs_b[i]}|{i}")
        skels.append(skel)
        cparses.append(cached_constituency(rel, text, t, p))
        tok_flat.extend(t)
        lem_flat.extend(l)
        pos_flat.extend(p)
        ners, mentions = cached_ners_mentions(rel, text, t, p)
        ner_flat.extend(ners)
        tok_off.append(len(tok_flat))
        for g, lab, dp in d:
            dep_gov.append(g)
            dep_lab.append(lab)
            dep_dep.append(dp)
        dep_off.append(len(dep_gov))
        for start, end, mtext, ner in mentions:
            men_s.append(start)
            men_e.append(end)
            men_t.append(mtext)
            men_n.append(ner)
        men_off.append(len(men_s))
    out = batch.take(pa.array(keep, pa.int64()))
    out = out.append_column("sid", pa.array(sids, pa.string()))
    out = out.append_column("tokens", list_string_array(tok_off, tok_flat))
    out = out.append_column("lemmas", list_string_array(tok_off, lem_flat))
    out = out.append_column("pos_tags", list_string_array(tok_off, pos_flat))
    out = out.append_column("deps", deps_array(dep_off, dep_gov, dep_lab, dep_dep))
    out = out.append_column("ners", list_string_array(tok_off, ner_flat))
    mention_struct = pa.StructArray.from_arrays(
        [pa.array(men_s, pa.int32()), pa.array(men_e, pa.int32()),
         pa.array(men_t, pa.string()), pa.array(men_n, pa.string())],
        fields=list(MENTION_STRUCT),
    )
    out = out.append_column(
        "mentions",
        pa.ListArray.from_arrays(pa.array(men_off, pa.int32()), mention_struct),
    )
    # constituency bracketing string (reference parsed-dict parity,
    # utils.py:296-297); mining never consumes it, matching drops it
    out = out.append_column("parse", pa.array(cparses, pa.string()))
    # canonical skeleton-pattern key (mining consumes this column with a
    # vectorized value_counts instead of a second Python pass)
    out = out.append_column("skeleton_key", pa.array(skels, pa.string()))
    return out


_NP_TAGS = {"DT", "PRP$", "JJ", "NN", "NNS", "NNP", "NNPS", "CD", "PRP"}
_NOM_TAGS = {"NN", "NNS", "NNP", "NNPS", "PRP", "CD"}


def _is_verb(tag: str) -> bool:
    return tag.startswith("VB") or tag == "MD"


def constituency_parse(tokens: list[str], pos: list[str]) -> str:
    """Deterministic constituency bracketing from the template grammar.

    The reference carries CoreNLP's whitespace-normalized ``parse`` string in
    every parsed dict (src/pattern/utils.py:296-297: ``re.sub(r"\\s+", " ",
    sent["parse"])``); its mining/matching never consumes it (deps only), so
    this is format parity: a shallow right-branching bracketing derived
    purely from the POS sequence — NP chunks over determiner/adjective/
    nominal runs (ADJP when the run has no nominal head), PP = IN/TO + NP,
    nested VPs for auxiliary chains, everything under (ROOT (S ...)).
    Pure function of (tokens, pos) — bit-identical at any parallelism."""
    n = len(tokens)
    if n == 0:
        return "(ROOT)"
    chunks: list[tuple[str, str]] = []  # (label, bracket string)
    i = 0
    while i < n:
        if pos[i] in _NP_TAGS:
            j = i
            while j + 1 < n and pos[j + 1] in _NP_TAGS:
                j += 1
            body = " ".join(f"({pos[x]} {tokens[x]})" for x in range(i, j + 1))
            lab = ("NP" if any(pos[x] in _NOM_TAGS for x in range(i, j + 1))
                   else "ADJP")
            chunks.append((lab, f"({lab} {body})"))
            i = j + 1
        else:
            chunks.append((pos[i], f"({pos[i]} {tokens[i]})"))
            i += 1
    merged: list[tuple[str, str]] = []
    i = 0
    while i < len(chunks):
        lab, s = chunks[i]
        if lab in ("IN", "TO") and i + 1 < len(chunks) and chunks[i + 1][0] == "NP":
            merged.append(("PP", f"(PP {s} {chunks[i + 1][1]})"))
            i += 2
        else:
            merged.append((lab, s))
            i += 1
    chunks = merged

    def vp(k: int) -> str:  # chunks[k] is a verb leaf; right-branching body
        parts = [chunks[k][1]]
        m = k + 1
        while m < len(chunks) and not _is_verb(chunks[m][0]):
            parts.append(chunks[m][1])
            m += 1
        if m < len(chunks):
            parts.append(vp(m))
        return "(VP " + " ".join(parts) + ")"

    vi = next((k for k, (lab, _) in enumerate(chunks) if _is_verb(lab)), None)
    if vi is None:
        return "(ROOT (S " + " ".join(s for _, s in chunks) + "))"
    pre = " ".join(s for _, s in chunks[:vi])
    body = (pre + " " if pre else "") + vp(vi)
    return f"(ROOT (S {body}))"


_PARSE_CACHE: dict = {}
_NER_CACHE: dict = {}


def cached_ners_mentions(rel: str, text: str, tokens, pos_tags):
    """Memoized (ners, mentions) per distinct (rel, assertion) — pure
    functions of the memoized parse, so repeats must be dict lookups like
    the parse itself (each ner_of pays a blake2b per noun token).  Stored
    as tuples, like ``cached_parse``: the tags, and each mention as a
    ``(start, end, text, ner)`` tuple."""
    ck = (rel, text)
    hit = _NER_CACHE.get(ck)
    if hit is None:
        ners = tuple(ner_tags(tokens, pos_tags))
        hit = (ners, tuple((m["start"], m["end"], m["text"], m["ner"])
                           for m in extract_mentions(tokens, ners)))
        if len(_NER_CACHE) < 1_000_000:
            _NER_CACHE[ck] = hit
    return hit
_CPARSE_CACHE: dict = {}


def cached_constituency(rel: str, text: str, tokens, pos) -> str:
    """Memoized bracketing per distinct (rel, assertion) — same discipline
    as ``cached_parse`` (distinct texts repeat heavily)."""
    ck = (rel, text)
    hit = _CPARSE_CACHE.get(ck)
    if hit is None:
        hit = constituency_parse(tokens, pos)
        if len(_CPARSE_CACHE) < 1_000_000:
            _CPARSE_CACHE[ck] = hit
    return hit


def cached_parse(rel: str, text: str):
    """Memoized parse per (rel, assertion) within the worker process.

    Distinct assertion texts repeat heavily (closed phrase pools; real LLM
    generations repeat too), so every stage that needs a parse — the parse
    stage itself, the fused stats pass, the matcher — pays a dict lookup
    after the first occurrence.  Returns ``(None,)`` for unparseable rows or
    ``(tokens, lemmas, pos, deps, skeleton_key)``.

    Every value is a tuple of strings, ints and tuples (``deps`` a tuple of
    ``(gov, rel, dep)`` tuples).  The cyclic GC stops tracking a tuple once
    its items are untracked (an outer tuple one collection after its inner
    ones), so a memo value is untracked before it reaches the oldest
    generation and a worker's memo of a million parses adds nothing to each
    gen-2 pass.  Lists stay tracked: the pause of every full collection
    would grow with the memo."""
    ck = (rel, text)
    hit = _PARSE_CACHE.get(ck)
    if hit is None:
        from ..patterns import pattern_of_parsed

        parsed = parse_assertion(rel, text)
        if parsed is None:
            hit = (None,)
        else:
            t, l, p, d = parsed
            hit = (tuple(t), tuple(l), tuple(p), tuple(map(tuple, d)),
                   pattern_of_parsed(rel, p, d))
        if len(_PARSE_CACHE) < 1_000_000:
            _PARSE_CACHE[ck] = hit
    return hit


def _parse_stats_chunk(items: list[str]) -> list[tuple[str, str, int]]:
    out = []
    for key in items:
        rel, text = key.split("\x1f", 1)
        hit = cached_parse(rel, text)
        if hit[0] is None:
            continue
        out.append((key, hit[4], len(hit[0])))
    return out


def _get_parse_stats_chunk():
    """Lazy @ray.remote wrapper (keeps this module importable without ray)."""
    import ray

    return ray.remote(_parse_stats_chunk)


class _LazyRemote:
    """``parse_stats_chunk.remote(...)`` — the Ray remote function is built
    on first use so the module has no import-time ray dependency."""

    _fn = None

    def remote(self, *args):
        if _LazyRemote._fn is None:
            _LazyRemote._fn = _get_parse_stats_chunk()
        return _LazyRemote._fn.remote(*args)


#: chunked distributed parse over distinct ``rel\x1ftext`` keys ->
#: [(key, skeleton_key, n_tokens)] — each distinct parsed ONCE cluster-wide
parse_stats_chunk = _LazyRemote()


def parse_stats_batch(batch):
    """Dataset analogue of ``_parse_stats_chunk`` for the beyond-broadcast
    stats path: a block of distinct ``(k1=rel\\x1ftext, n)`` rows ->
    ``(skel, rel, n_tokens, n)`` rows, unparseable keys dropped.  Each
    distinct key sits in exactly one block after the distinct aggregation,
    so the cluster still parses every distinct assertion exactly once."""
    import pyarrow as pa

    skels: list[str] = []
    rels: list[str] = []
    ntoks: list[int] = []
    ns: list[int] = []
    for key, n in zip(batch.column("k1").to_pylist(),
                      batch.column("n").to_pylist()):
        rel, text = key.split("\x1f", 1)
        hit = cached_parse(rel, text)
        if hit[0] is None:
            continue
        skels.append(hit[4])
        rels.append(rel)
        ntoks.append(len(hit[0]))
        ns.append(n)
    return pa.table({
        "skel": pa.array(skels, pa.string()),
        "rel": pa.array(rels, pa.string()),
        "n_tokens": pa.array(ntoks, pa.int32()),
        "n": pa.array(ns, pa.int64()),
    })
