"""Unit tests for pure-Python operator semantics (SURVEY.md §5 strategy)."""

from __future__ import annotations

import pytest

from folkscope_ray.lexicon import assertion_text, obj_phrase
from folkscope_ray.patterns import (
    Pattern,
    decode_pattern,
    dedup_patterns,
    match_row,
    pattern_of_parsed,
    skeleton_of,
)
from folkscope_ray.relations import N_RELATIONS, REL_INDEX, REL_NAMES, RELATIONS
from folkscope_ray.stages.canonicalize import (
    band_hashes,
    is_near_duplicate,
    jaccard,
    normalize_surface,
)
from folkscope_ray.stages.conceptualize import TaxonomyIndex, conceptualize_words
from folkscope_ray.stages.critic import plausibility_score
from folkscope_ray.stages.ingest import extract_entities
from folkscope_ray.stages.parse import parse_assertion
from folkscope_ray.synth import build_corpus_table, file_row
from folkscope_ray.util import generate_eid, pair_key


def test_relation_registry_has_21_relations():
    assert N_RELATIONS == 21
    assert len(set(REL_NAMES)) == 21
    # the reference misspelling is corrected (SURVEY.md §7.5 decision)
    assert "propertyOf" in REL_NAMES and "propertOf" not in REL_NAMES
    for r in RELATIONS:
        if r.rel != "open":
            assert len(r.tokens) == len(r.pos) > 0


def test_pair_key_is_md5_of_a_b_rel():
    # format per reference src/generator/utils.py:42-49
    import hashlib

    assert pair_key("x", "y", "usedFor") == hashlib.md5(b"x-y-usedFor").hexdigest()


def test_corpus_determinism():
    t1 = build_corpus_table(50)
    t2 = build_corpus_table(50)
    assert t1.equals(t2)
    assert t1.column_names == ["repo", "path", "commit", "lang", "content"]


def test_wide_rows_exist():
    assert len(file_row(0)["content"]) > 100_000


def test_entity_extraction_roundtrip():
    row = file_row(7)
    ents = extract_entities(row["lang"], row["content"])
    assert len(ents) >= 2
    for e in ents:
        assert e in row["content"]


def test_generation_deterministic_and_templated():
    t1 = assertion_text("usedFor", "jsonParser", "lru_cache", 0)
    t2 = assertion_text("usedFor", "jsonParser", "lru_cache", 0)
    assert t1 == t2
    assert t1.startswith("they are both used for ")
    assert assertion_text("usedFor", "jsonParser", "lru_cache", 1) != t1 or True
    # verbal relations produce verb-led phrases
    assert obj_phrase("can", "a", "b", 0)[0] in __import__("folkscope_ray.synth", fromlist=["VERB"]).VERB


def test_parse_shapes():
    for rel in REL_NAMES:
        if rel == "open":
            assert parse_assertion(rel, "stable validation") is None
            continue
        text = assertion_text(rel, "json_parser", "lru_cache", 0)
        parsed = parse_assertion(rel, text)
        assert parsed is not None, rel
        toks, lems, pos, deps = parsed
        assert len(toks) == len(lems) == len(pos)
        n = len(toks)
        for g, lab, d in deps:
            assert 0 <= g < n and 0 <= d < n and g != d
    # non-template sentence rejected
    assert parse_assertion("usedFor", "completely different words") is None


def test_eid_formula_matches_reference_shape():
    # eid = sha1(json([deps, words, pos_tags])) — object.py:120-130
    import hashlib, json

    deps = [(1, "nsubj", 0)]
    words = ["they", "run"]
    pos = ["PRP", "VBP"]
    expect = hashlib.sha1(
        json.dumps([[[1, "nsubj", 0]], words, pos]).encode()
    ).hexdigest()
    assert generate_eid(deps, words, pos) == expect


def test_skeleton_drops_optional_outside_template():
    text = assertion_text("usedFor", "a", "b", 1)  # may contain JJ in obj
    parsed = parse_assertion("usedFor", text)
    toks, lems, pos, deps = parsed
    verts, edges, kept = skeleton_of("usedFor", pos, deps)
    n_template = len(REL_INDEX["usedFor"].tokens)
    assert all(i < n_template or pos[i] not in ("JJ", "DT") for i in kept)
    # template DT ("both") is retained even though DT is optional
    assert 2 in kept


def test_pattern_roundtrip_and_dedup():
    text = assertion_text("isA", "a", "b", 0)
    toks, lems, pos, deps = parse_assertion("isA", text)
    key = pattern_of_parsed("isA", pos, deps)
    p = decode_pattern(key, 5)
    assert p.key == key and p.support == 5
    # a strictly-contained pattern is merged into the larger one
    small = Pattern(p.rel, p.verts[:-1], tuple(e for e in p.edges if p.verts.__len__() - 1 not in (e[0], e[2])), 3)
    merged = dedup_patterns([p, small])
    assert len(merged) == 1 and merged[0].support == 8


def test_match_row_extracts_and_dedups():
    text = assertion_text("usedFor", "a", "b", 0)
    toks, lems, pos, deps = parse_assertion("usedFor", text)
    key = pattern_of_parsed("usedFor", pos, deps)
    p = decode_pattern(key, 10)
    evs = match_row([p], "usedFor", toks, lems, pos, deps)
    assert len(evs) == 1
    ev = evs[0]
    assert ev["words"][0] == "they"
    assert "be" in ev["words"]  # lemma of "are"
    assert len(ev["words"]) == len(ev["pos_tags"])
    # deps re-indexed into the eventuality's own 0..n-1 space
    n = len(ev["words"])
    for g, _lab, dp in ev["deps"]:
        assert 0 <= g < n and 0 <= dp < n
    # wrong relation -> no eventualities
    assert match_row([p], "isA", toks, lems, pos, deps) == []


def test_eventuality_forbidden_end():
    # a pattern matching a sentence ending in IN must be rejected
    toks = ["they", "are", "made", "of"]
    pos = ["PRP", "VBP", "VBN", "IN"]
    lems = ["they", "be", "make", "of"]
    deps = [(2, "nsubj", 0), (2, "aux", 1), (2, "case", 3)]
    key = pattern_of_parsed("madeOf", pos, deps)
    p = decode_pattern(key)
    assert match_row([p], "madeOf", toks, lems, pos, deps) == []


def test_normalize_surface_variants_collapse():
    assert normalize_surface("json_parser") == "jsonparser"
    assert normalize_surface("jsonParser") == "jsonparser"
    assert normalize_surface("JsonParser") == "jsonparser"
    assert normalize_surface("json-parser") == "jsonparser"


def test_near_duplicate_rules():
    assert is_near_duplicate("jsonparser", "jsonparserimpl")
    assert is_near_duplicate("jsonparser", "jsonparser2")
    assert not is_near_duplicate("jsonparser", "yamlparser")
    # long shared suffix must NOT merge distinct entities (over-merge guard)
    assert not is_near_duplicate("localallocator", "diskallocator")
    assert not is_near_duplicate("localallocator", "asyncallocator")


def test_lsh_bands_recall_candidates():
    # true near-dups must collide in >=1 band
    for a, b in [("jsonparser", "jsonparserimpl"), ("tcppool", "tcppoolimpl"),
                 ("configloader", "configloader2")]:
        ha, hb = band_hashes(a), band_hashes(b)
        assert any(x == y for x, y in zip(ha, hb)), (a, b)


def test_jaccard_bounds():
    assert jaccard("abcdef", "abcdef") == 1.0
    assert jaccard("abcdef", "uvwxyz") == 0.0


def test_taxonomy_likelihood_math():
    # likelihood = freq / instance_freq — conceptualizer.py:58-83
    idx = TaxonomyIndex([("tool", "parser", 30), ("service", "parser", 10)])
    cs = idx.conceptualize("parser")
    assert cs[0] == ("tool", 0.75) and cs[1] == ("service", 0.25)


def test_conceptualize_words_combinations():
    idx = TaxonomyIndex([("tool", "parser", 1), ("store", "cache", 1)])
    out = conceptualize_words(idx, ["the", "parser", "cache"], ["DT", "NN", "NN"])
    rewrites = {tuple(ws) for ws, _ in out}
    assert ("the", "tool", "cache") in rewrites
    assert ("the", "parser", "store") in rewrites
    assert ("the", "tool", "store") in rewrites
    # capitalised / non-NN words never abstracted
    assert conceptualize_words(idx, ["Parser"], ["NN"]) == []
    assert conceptualize_words(idx, ["parser"], ["VB"]) == []


def test_critic_scores_deterministic_bounded():
    s1 = plausibility_score("k", 0, "they are both used for data caching")
    s2 = plausibility_score("k", 0, "they are both used for data caching")
    assert s1 == s2 and 0.0 <= s1 <= 1.0


def test_subskeleton_growth_finds_planted_fragment():
    """A fragment frequent only as a subgraph of many individually-infrequent
    skeletons must be mined (reference gSpan growth, pattern_filter.py:103-200)
    and must then match sentences via the normal embedding machinery."""
    from folkscope_ray.patterns import (
        encode_pattern,
        enumerate_anchored_subgraphs,
        find_embedding,
        pos_family,
    )
    from folkscope_ray.relations import REL_INDEX
    from folkscope_ray.stages.mine import grow_subskeleton_patterns

    rel = "hasA"
    n = len(REL_INDEX[rel].tokens)  # 3 ('they','both','have')
    anchor_verts = ("PRP", "DT", "VBP")
    # 30 distinct size-6 skeletons: shared anchored core (anchor + NN at 3)
    # but each with a unique tail -> no full skeleton is frequent
    skeleton_counts = {}
    tails = [("NN", "NN"), ("NN", "JJ"), ("JJ", "NN"), ("JJ", "JJ"),
             ("NN", "RB"), ("RB", "NN"), ("JJ", "RB"), ("RB", "JJ"),
             ("RB", "RB"), ("NN", "VB")]
    for i, tail in enumerate(tails):
        verts = anchor_verts + ("NN",) + tail
        edges = ((2, "obj", 3), (0, "nsubj", 2), (1, "det", 0),
                 (3, "amod", 4), (4, "dep", 5))
        skeleton_counts[encode_pattern(rel, verts, edges)] = 200  # each rare
    # spread of token lengths (the CDF-adaptive floor needs non-empty buckets)
    length_counts = {rel: {4: 300, 5: 400, 6: 500, 7: 800}}
    grown = grow_subskeleton_patterns(skeleton_counts, length_counts)
    assert grown, "no fragments mined"
    core = encode_pattern(rel, anchor_verts + ("NN",),
                          ((0, "nsubj", 2), (1, "det", 0), (2, "obj", 3)))
    keys = {p.key for p in grown}
    assert core in keys, keys
    # the mined fragment embeds into a fresh sentence graph
    planted = next(p for p in grown if p.key == core)
    g_tags = [pos_family(t) for t in ("PRP", "DT", "VBP", "NNS", "JJ")]
    g_adj = {(0, 2): {"nsubj"}, (1, 0): {"det"}, (2, 3): {"obj"},
             (3, 4): {"amod"}}
    assert find_embedding(planted, g_tags, g_adj) == [0, 1, 2, 3]


def test_enumerate_anchored_subgraphs_connectivity_and_window():
    from folkscope_ray.patterns import enumerate_anchored_subgraphs

    verts = ("A", "B", "C", "D", "E")
    edges = ((0, "x", 1), (1, "y", 2), (3, "z", 4))  # {3,4} disconnected
    subs = enumerate_anchored_subgraphs(verts, edges, 2, 3, window=5)
    assert subs == [(("A", "B", "C"), ((0, "x", 1), (1, "y", 2)))]
    # window cuts off vertex 2
    assert enumerate_anchored_subgraphs(verts, edges, 2, 3, window=2) == []


def test_exclusive_support_attribution_reference_semantics():
    """A5 hierarchy-flag semantics (pattern_miner.py:506-597): patterns claim
    lines in priority order; a surviving parent keeps its lines away from its
    children; a below-floor parent RELEASES its lines to the child."""
    from folkscope_ray.patterns import (
        attribute_exclusive_support,
        encode_pattern,
    )

    rel = "hasA"
    big_verts = ("PRP", "DT", "VBP", "NN", "JJ")
    big_edges = ((0, "nsubj", 2), (1, "det", 0), (2, "obj", 3), (3, "amod", 4))
    small_verts = ("PRP", "DT", "VBP", "NN")
    small_edges = ((0, "nsubj", 2), (1, "det", 0), (2, "obj", 3))
    big = encode_pattern(rel, big_verts, big_edges)
    small = encode_pattern(rel, small_verts, small_edges)
    from folkscope_ray.patterns import decode_pattern

    cands = [decode_pattern(big), decode_pattern(small)]

    # case 1: both frequent.  Parent claims its 100 lines; the child pattern
    # gets ONLY the 40 small-skeleton lines (not 140 as container-merge would
    # attribute, and not 0 as child-drop would).
    kept = attribute_exclusive_support({big: 100, small: 40}, cands, floor=10)
    sup = {p.key: p.support for p in kept}
    assert sup == {big: 100, small: 40}

    # case 2: parent below floor -> releases its lines; the child (contained
    # in BOTH skeletons) claims all 140.
    kept = attribute_exclusive_support({big: 5, small: 40}, cands, floor=10)
    sup = {p.key: p.support for p in kept}
    assert sup == {small: 45}

    # case 3: child alone below floor even with released lines -> nothing kept
    kept = attribute_exclusive_support({big: 3, small: 4}, cands, floor=10)
    assert kept == []


def test_critic_inlined_scores_match_reference_functions():
    """The Critic's inlined hot loop must stay bit-identical to the public
    scoring functions (which the single-process oracle uses)."""
    import numpy as np
    import pyarrow as pa

    from folkscope_ray.lexicon import assertion_text
    from folkscope_ray.relations import RELATIONS
    from folkscope_ray.stages.critic import (Critic, plausibility_score,
                                             typicality_score)
    from folkscope_ray.util import pair_key

    rows = []
    for i, r in enumerate(RELATIONS[:7]):
        for g in range(3):
            a, b = f"alpha{i}", f"beta{i}"
            rows.append({"pair_key": pair_key(a, b, r.rel), "gen_idx": g,
                         "assertion": assertion_text(r.rel, a, b, g)})
    # irregular whitespace pins the word-count equivalence boundary: the
    # inlined loop must agree with plausibility_score (len(split())) on
    # leading/trailing/double spaces, tabs/newlines, empties and long texts
    for j, a in enumerate(["", " ", "  a  b  ", "\tx\ny z ", "a " * 40,
                           " lead", "trail ", "one", "a  b\t\tc"]):
        rows.append({"pair_key": f"ws{j}", "gen_idx": 0, "assertion": a})
    batch = pa.Table.from_pylist(rows)
    out = Critic(threshold=0.0)(batch)
    got_p = out.column("plausibility").to_pylist()
    got_t = out.column("typicality").to_pylist()
    want_p = [plausibility_score(r["pair_key"], r["gen_idx"], r["assertion"])
              for r in rows]
    want_t = [typicality_score(r["pair_key"], r["gen_idx"], r["assertion"])
              for r in rows]
    assert got_p == want_p and got_t == want_t


def test_generator_inlined_texts_match_reference_function():
    """MockGenerator's inlined text loop must emit byte-identical assertions
    to lexicon.assertion_text (used by the oracle)."""
    import pyarrow as pa

    from folkscope_ray.lexicon import assertion_text
    from folkscope_ray.relations import RELATIONS
    from folkscope_ray.stages.generate import MockGenerator
    from folkscope_ray.util import pair_key

    rows = []
    for i, r in enumerate(RELATIONS):
        a, b = f"entity alpha{i}", f"entity beta{i}"
        rows.append({"pair_key": pair_key(a, b, r.rel), "rel": r.rel,
                     "surf_a": a, "surf_b": b,
                     "prompt": f"{a} and {b} prompt text"})
    batch = pa.Table.from_pylist(rows)
    out = MockGenerator()(batch)
    got = out.column("assertion").to_pylist()
    want = [assertion_text(r, a, b, int(g)) for r, a, b, g in zip(
        out.column("rel").to_pylist(), out.column("surf_a").to_pylist(),
        out.column("surf_b").to_pylist(), out.column("gen_idx").to_pylist())]
    assert got == want
    assert len(got) == len(rows) * 3


def test_constituency_parse_bracketing():
    """The parsed-dict `parse` string (reference utils.py:296-297 parity):
    balanced brackets, leaves reproduce the token stream in order, single
    normalized whitespace, deterministic, and phrase labels follow the
    documented shallow grammar (NP/ADJP/PP/VP under ROOT/S)."""
    import re

    from folkscope_ray.lexicon import assertion_text
    from folkscope_ray.relations import RELATIONS
    from folkscope_ray.stages.parse import constituency_parse, parse_assertion

    seen_labels = set()
    n_checked = 0
    for r in RELATIONS:
        if not r.tokens:
            continue
        for g in range(3):
            text = assertion_text(r.rel, "alpha widget", "beta gizmo", g)
            hit = parse_assertion(r.rel, text)
            if hit is None:
                continue
            toks, _lems, pos, _deps = hit
            s = constituency_parse(toks, pos)
            assert s == constituency_parse(toks, pos)          # deterministic
            assert s.count("(") == s.count(")")                # balanced
            assert "  " not in s and s.startswith("(ROOT (S ")
            leaves = re.findall(r"\(([A-Z$:.,]+) ([^()]+)\)", s)
            assert [w for _t, w in leaves] == toks             # token order
            assert [t for t, _w in leaves] == pos              # tag parity
            seen_labels.update(re.findall(r"\((NP|ADJP|PP|VP)[ (]", s))
            n_checked += 1
    assert n_checked >= 20
    assert {"NP", "VP"} <= seen_labels                          # grammar used
    # degenerate inputs
    assert constituency_parse([], []) == "(ROOT)"
    assert constituency_parse(["good"], ["JJ"]) == "(ROOT (S (ADJP (JJ good))))"


def test_hex_string_array_parity_and_bounds():
    import numpy as np
    import pyarrow as pa
    import pytest as _pytest

    from folkscope_ray.util import hex_string_array

    raw = bytes(range(48))  # 3 rows x 16 bytes
    arr = hex_string_array(raw, 3, 16)
    assert arr.to_pylist() == [raw[i:i + 16].hex() for i in (0, 16, 32)]
    assert arr.type == pa.utf8()
    with _pytest.raises(ValueError, match="bytes"):
        hex_string_array(raw, 4, 16)  # wrong row count
    with _pytest.raises(ValueError, match="int32"):
        hex_string_array(b"", 2**28, 16)  # offsets would overflow int32


def _pairwise_canonical_ids(norms: list[str]) -> dict[str, str]:
    """Brute-force reference: verify EVERY pair, union-find with the
    lexicographically smallest root."""
    parent = {n: n for n in norms}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(norms):
        for b in norms[i + 1:]:
            if is_near_duplicate(a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    lo, hi = sorted((ra, rb))
                    parent[hi] = lo
    return {n: find(n) for n in norms}


def test_canonical_from_norms_equals_pairwise_union_find():
    """Banding + one verify per distinct candidate pair gives the same map
    as verifying every pair, on the 200-file corpus's surfaces plus planted
    cases: a prefix-extension chain that merges, and a shared suffix that
    must not."""
    from folkscope_ray.stages.canonicalize import canonical_from_norms

    table = build_corpus_table(200)
    norms = {normalize_surface(s)
             for lang, content in zip(table.column("lang").to_pylist(),
                                      table.column("content").to_pylist())
             for s in extract_entities(lang, content)}
    planted = ["jsonparser", "jsonparserimpl", "jsonparser2",
               "localallocator", "diskallocator"]
    norms = sorted(norms | set(planted))
    got = canonical_from_norms(norms)
    assert got == _pairwise_canonical_ids(norms)
    assert got["jsonparserimpl"] == got["jsonparser2"] == "jsonparser"
    assert got["localallocator"] != got["diskallocator"]


def test_parse_memo_values_are_invisible_to_the_cyclic_gc():
    """The worker parse memos store tuples of atoms and tuples, which the
    cyclic GC stops tracking, so a large memo adds nothing to each full
    collection.  A tuple is untracked once its items are: the outer one at
    the collection after its inner ones."""
    import gc

    from folkscope_ray.stages.parse import cached_ners_mentions, cached_parse

    text = assertion_text("usedFor", "a", "b", 2)
    hit = cached_parse("usedFor", text)
    tokens, lemmas, pos, deps, _skel = hit
    ners, mentions = nm = cached_ners_mentions("usedFor", text, tokens, pos)
    assert mentions and deps  # the nested parts are really there
    assert [list(d) for d in deps] == [list(d) for d in
                                       parse_assertion("usedFor", text)[3]]
    gc.collect()
    gc.collect()
    for value in (hit, tokens, lemmas, pos, deps, *deps, nm, ners, mentions,
                  *mentions):
        assert isinstance(value, tuple)
        assert not gc.is_tracked(value), value
