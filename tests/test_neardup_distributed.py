"""Distributed near-dup verification stages (round-2 rework): MinHash/LSH,
SimHash block-combination blocking, embedding cosine near-dup — all verified
against brute-force oracles; plus the vectorized unique_by_key upsert."""

import numpy as np
import pyarrow as pa
import pytest


def _doc_rows():
    base = "the quick brown fox jumps over the lazy dog tonight again"
    rows = []
    for i in range(40):
        words = base.split()
        words[i % len(words)] = f"w{i}"
        rows.append({"doc_id": i, "text": " ".join(words)})
    # exact duplicates
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    rows.append({"doc_id": 101, "text": rows[1]["text"]})
    # unrelated
    rows.append({"doc_id": 200, "text": "completely different subject matter entirely"})
    return rows


def _brute_jaccard_pairs(rows, threshold):
    from anserini_ray.stages.dedup import ngram_jaccard

    out = set()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            if ngram_jaccard(a["text"], b["text"]) >= threshold:
                out.add((min(a["doc_id"], b["doc_id"]), max(a["doc_id"], b["doc_id"])))
    return out


def test_minhash_verify_matches_bruteforce_at_full_recall(ray_session):
    import ray.data

    from anserini_ray.stages.dedup import minhash_lsh_dedup

    rows = _doc_rows()
    ds = ray.data.from_items(rows)
    # bands == num_perm -> per-pair recall ~1; verify removes false positives
    got = minhash_lsh_dedup(
        ds, num_perm=64, bands=64, threshold=0.6, verify=True
    ).take_all()
    got_pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    assert got_pairs == _brute_jaccard_pairs(rows, 0.6)
    # jaccard values are the exact ratios
    from anserini_ray.stages.dedup import ngram_jaccard

    by_pair = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in got}
    texts = {r["doc_id"]: r["text"] for r in rows}
    for (a, b), j in by_pair.items():
        assert j == ngram_jaccard(texts[a], texts[b])


@pytest.mark.parametrize("hot_shingles", [0, 4])
def test_ngram_jaccard_join_matches_bruteforce(ray_session, hot_shingles):
    """Prefix-filtering set-similarity join is EXACT (recall 1 by the prefix
    lemma) under any global order — pure hash order (hot_shingles=0) and
    hot-set-last order must both equal brute force, pairs AND values."""
    import ray.data

    from anserini_ray.stages.dedup import ngram_jaccard, ngram_jaccard_join

    rows = _doc_rows()
    ds = ray.data.from_items(rows)
    got = ngram_jaccard_join(
        ds, threshold=0.6, hot_shingles=hot_shingles
    ).take_all()
    got_pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    assert got_pairs == _brute_jaccard_pairs(rows, 0.6)
    texts = {r["doc_id"]: r["text"] for r in rows}
    for r in got:
        assert r["jaccard"] == ngram_jaccard(texts[r["doc_a"]], texts[r["doc_b"]])


def test_ngram_jaccard_join_edge_docs(ray_session):
    """Short docs (< n tokens -> one whole-doc shingle), empty docs (no
    shingles, excluded like the SQL oracle), threshold 1.0 (prefix length 1,
    exact-duplicate detection only)."""
    import ray.data

    from anserini_ray.stages.dedup import ngram_jaccard_join

    rows = [
        {"doc_id": 1, "text": "alpha beta"},       # short: 1 shingle
        {"doc_id": 2, "text": "alpha beta"},       # identical short
        {"doc_id": 3, "text": ""},                 # empty: no shingles
        {"doc_id": 4, "text": "x y z w x y z w"},  # normal
        {"doc_id": 5, "text": "x y z w x y z w"},  # exact duplicate of 4
        {"doc_id": 6, "text": "totally unrelated words here now"},
    ]
    got = ngram_jaccard_join(
        ray.data.from_items(rows), threshold=1.0
    ).take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    assert pairs == {(1, 2), (4, 5)}
    assert all(r["jaccard"] == 1.0 for r in got)


def test_simhash_batch_kernel_matches_scalar():
    import numpy as np

    from anserini_ray.stages.dedup import (
        _simhash_key,
        _simhash_keys_batch,
        _simhash_tables,
        simhash64,
        simhash64_batch,
    )

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        None,
        "Repeated repeated REPEATED tokens tokens",
        "unicode whitespace and\ttabs\nnewlines",
        "single",
        "  leading and trailing   ",
        "a b c d e f g h i j k l m n o p q r s t u v w x y z " * 40,
    ]
    fps = simhash64_batch(texts)
    for t, fp in zip(texts, fps):
        assert int(fp) == simhash64(((t or "").lower()).split())
    tables, ranges = _simhash_tables(d=3)
    vals = _simhash_keys_batch(fps, tables, ranges)
    for tid, combo in tables:
        for d in range(len(texts)):
            assert int(vals[tid, d]) == _simhash_key(
                int(fps[d]), combo, ranges
            )
    # all-empty batch
    assert np.array_equal(simhash64_batch(["", None]),
                          np.zeros(2, dtype=np.uint64))


def test_simhash_verify_matches_bruteforce(ray_session):
    import ray.data

    from anserini_ray.stages.dedup import simhash64, simhash_dedup

    rows = _doc_rows()
    ds = ray.data.from_items(rows)
    got = simhash_dedup(ds, verify=True, max_hamming=3).take_all()
    got_pairs = {(r["doc_a"], r["doc_b"]) for r in got}
    # brute force: hamming distance over full 64-bit fingerprints
    fps = {r["doc_id"]: simhash64(r["text"].lower().split()) for r in rows}
    expect = set()
    ids = sorted(fps)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = bin(fps[ids[i]] ^ fps[ids[j]]).count("1")
            if d <= 3:
                expect.add((ids[i], ids[j]))
    assert got_pairs == expect  # block-combination blocking is EXACT for d<=3
    for r in got:
        assert r["hamming"] <= 3


def test_embedding_near_dup_returns_verified_pairs(ray_session):
    import ray.data

    from anserini_ray.stages.ann import embedding_cosine_near_dup

    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((60, 16))
    # plant near-identical pairs
    vecs[50] = vecs[0] + 1e-6
    vecs[51] = vecs[1]
    rows = [
        {"vec_id": i, "embedding": vecs[i].tolist()} for i in range(len(vecs))
    ]
    ds = ray.data.from_items(rows)
    got = embedding_cosine_near_dup(ds, threshold=0.999).take_all()
    pairs = {(r["vec_a"], r["vec_b"]) for r in got}
    assert (0, 50) in pairs and (1, 51) in pairs
    # verified cosines are exact
    for r in got:
        a = vecs[r["vec_a"] % 100] / np.linalg.norm(vecs[r["vec_a"] % 100])
        b = vecs[r["vec_b"] % 100] / np.linalg.norm(vecs[r["vec_b"] % 100])
        assert abs(r["cosine"] - float(a @ b)) < 1e-12


def test_unique_by_key_vectorized(ray_session):
    import ray.data

    from anserini_ray.stages.dedup import unique_by_key

    rows = [
        {"k": "a", "t": 1, "v": 10},
        {"k": "a", "t": 3, "v": 30},
        {"k": "a", "t": 2, "v": 20},
        {"k": "b", "t": 5, "v": 50},
        {"k": "c", "t": 7, "v": 70},
        {"k": "c", "t": 7, "v": 71},  # exact order tie
    ]
    ds = ray.data.from_items(rows)
    out = unique_by_key(ds, ["k"], "t", keep="last").take_all()
    by_k = {r["k"]: r for r in out}
    assert len(out) == 3
    assert by_k["a"]["t"] == 3 and by_k["a"]["v"] == 30
    assert by_k["b"]["v"] == 50
    assert by_k["c"]["t"] == 7 and by_k["c"]["v"] in (70, 71)  # one of the tie
    first = unique_by_key(ds, ["k"], "t", keep="first").take_all()
    assert {r["k"]: r["t"] for r in first} == {"a": 1, "b": 5, "c": 7}


def _upsert_rows():
    """Rows keyed (conv_id, turn_idx) with 1-4 versions each, distinct ts
    per key, listed key by key in shuffled ts order so that over 8 blocks
    many key runs straddle a block boundary."""
    import random

    rng = random.Random(11)
    rows = []
    for c in range(20):
        for t in range(3):
            tss = rng.sample(range(1000), rng.randint(1, 4))
            for v, ts in enumerate(tss):
                rows.append({
                    "conv_id": f"c{c:02d}", "turn_idx": t, "ts": ts,
                    "text": f"alpha w{c}x{t}v{v} beta{v}",
                })
    return rows


def _upsert_oracle(rows, keep):
    best = {}
    for r in rows:
        k = (r["conv_id"], r["turn_idx"])
        if k not in best or (r["ts"] > best[k]["ts"]) == (keep == "last"):
            best[k] = r
    return best


@pytest.mark.parametrize("keep", ["last", "first"])
def test_unique_by_key_across_blocks(ray_session, keep):
    import ray.data

    from anserini_ray.stages.dedup import unique_by_key

    rows = _upsert_rows()
    ds = ray.data.from_items(rows, override_num_blocks=8)
    out = unique_by_key(
        ds, ["conv_id", "turn_idx"], "ts", keep=keep
    ).take_all()
    got = {(r["conv_id"], r["turn_idx"]): r for r in out}
    assert len(out) == len(got) == 60
    assert got == _upsert_oracle(rows, keep)


def test_dedup_docids_build_equals_oracle_build(ray_session, tmp_path):
    """build_index(dedup_docids=True) over the multi-block Dataset decodes
    equal to a plain build of the last-write-wins rows."""
    import ray.data

    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search.searcher import LocalSearcher

    rows = _upsert_rows()
    winners = sorted(
        _upsert_oracle(rows, "last").values(),
        key=lambda r: (r["conv_id"], r["turn_idx"]),
    )
    deduped, direct = str(tmp_path / "dedup"), str(tmp_path / "direct")
    m1 = build_index(ray.data.from_items(rows, override_num_blocks=8),
                     deduped, IndexConfig(seg_shift=4), dedup_docids=True)
    m2 = build_index(ray.data.from_items(winners), direct,
                     IndexConfig(seg_shift=4))
    assert m1.doc_count == m2.doc_count == 60
    assert m1.sum_total_tf == m2.sum_total_tf
    s1, s2 = LocalSearcher(deduped), LocalSearcher(direct)
    words = {w for r in rows for w in r["text"].split()}
    for q in sorted(words):
        r1, sc1 = s1.search(q, k=100)
        r2, sc2 = s2.search(q, k=100)
        assert r1 == r2, q
        assert list(map(float, sc1)) == list(map(float, sc2)), q


def test_distinct_pairs_star_cap(ray_session):
    import ray.data

    from anserini_ray.stages.dedup import distinct_pairs_from_groups

    groups = ray.data.from_items(
        [
            {"doc_ids": [1, 2, 3]},
            {"doc_ids": [10, 11, 12, 13, 14]},  # oversized at cap 4
            {"doc_ids": [2, 3]},  # duplicate pair across groups
        ]
    )
    pairs = distinct_pairs_from_groups(groups, "doc_ids", 4).take_all()
    got = {(r["doc_a"], r["doc_b"]) for r in pairs}
    assert (1, 2) in got and (2, 3) in got and (1, 3) in got
    # star: only rep-to-member edges for the oversized group
    star = {p for p in got if p[0] == 10}
    assert star == {(10, 11), (10, 12), (10, 13), (10, 14)}
    assert (11, 12) not in got
    # dedup across groups: (2,3) exactly once
    assert len([p for p in got if p == (2, 3)]) == 1


def test_verify_paths_agree_above_broadcast_cap(ray_session):
    """A template-heavy corpus (15 clusters of 10 near-identical docs or
    vectors, the shape that once crashed the verify): the verified pairs
    of minhash AND embedding near-dup equal brute force."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    import anserini_ray.stages.ann as A
    import anserini_ray.stages.dedup as D

    texts = [
        f"the quick brown fox jumps over dog number {i % 15} in the field"
        for i in range(150)
    ]
    ids = [f"d{i:04d}" for i in range(150)]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    )

    def pairs_set(res, a="doc_a", b="doc_b"):
        out = set()
        for batch in res.iter_batches(batch_format="pyarrow"):
            out |= set(zip(batch[a].to_pylist(), batch[b].to_pylist()))
        return out

    rows = [{"doc_id": i, "text": t} for i, t in zip(ids, texts)]
    want = _brute_jaccard_pairs(rows, 0.8)
    got = pairs_set(D.minhash_lsh_dedup(ds, threshold=0.8, verify=True))
    assert len(want) == 15 * 45 and got == want

    rng = np.random.default_rng(0)
    base = rng.normal(size=(15, 8))
    vecs = np.repeat(base, 10, axis=0) + rng.normal(scale=5e-4, size=(150, 8))
    eds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(150), type=pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float64())),
    }))
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cos = unit @ unit.T
    want_v = {
        (i, j) for i in range(150) for j in range(i + 1, 150)
        if cos[i, j] >= 0.999
    }
    got_v = pairs_set(
        A.embedding_cosine_near_dup(eds, threshold=0.999), "vec_a", "vec_b"
    )
    assert want_v and got_v == want_v


def test_duplicate_ngram_spans_semantics(ray_session):
    import ray.data

    from anserini_ray.stages.dedup import duplicate_ngram_spans

    shared = "alpha bravo charlie delta"  # 4 tokens, n=3 -> 2 grams
    rows = [
        # cross-doc duplicate phrase at different offsets
        {"doc_id": 1, "text": f"one two {shared} tail1 x y z"},
        {"doc_id": 2, "text": f"{shared} something entirely different here"},
        # within-doc repeat: the SAME doc contributes both occurrences
        {"doc_id": 3, "text": "p q r s t p q r s t"},
        # no duplicated grams at all
        {"doc_id": 4, "text": "unique tokens only appear once ever here"},
        # shorter than n: emits nothing
        {"doc_id": 5, "text": "tiny doc"},
        {"doc_id": 6, "text": ""},
    ]
    got = duplicate_ngram_spans(
        ray.data.from_items(rows), n=3
    ).to_pandas()
    spans = {
        (r.doc_id, r.start_tok, r.end_tok, r.n_grams)
        for r in got.itertuples()
    }
    # doc1: shared grams at token 2,3 -> merged span [2, 6), 2 grams
    # doc2: shared grams at token 0,1 -> span [0, 4)
    # doc3: tokens p q r s t p q r s t; duplicated 3-grams pqr/qrs/rst at
    #       positions 0,1,2 and 5,6,7 (stp/tpq unique). Window [2,5) ends
    #       where [5,8) starts -> they TOUCH, so everything merges into
    #       one span [0, 10) covering 6 grams
    assert spans == {
        (1, 2, 6, 2), (2, 0, 4, 2), (3, 0, 10, 6),
    }


def test_duplicate_ngram_spans_empty_and_adjacent_merge(ray_session):
    import ray.data

    from anserini_ray.stages.dedup import duplicate_ngram_spans

    # gap of exactly n merges (windows touch); gap of n+1 splits
    a = "c1 c2 c3 g1 g2 c1 c2 c3"          # dup grams at 0 and 5 (n=3)
    b = "c1 c2 c3 g1 g2 g3 c1 c2 c3"       # dup grams at 0 and 6
    got = duplicate_ngram_spans(
        ray.data.from_items(
            [{"doc_id": 10, "text": a}, {"doc_id": 11, "text": b},
             {"doc_id": 12, "text": a}, {"doc_id": 13, "text": b}]
        ),
        n=3,
    ).to_pandas()
    by_doc = {
        d: sorted(
            (r.start_tok, r.end_tok)
            for r in got[got.doc_id == d].itertuples()
        )
        for d in (10, 11)
    }
    # doc a: positions 0 and 5 (plus cross-doc full-text dup with doc 12
    # making EVERY gram duplicated): all 6 grams covered -> one span [0, 8)
    assert by_doc[10] == [(0, 8)]
    assert by_doc[11] == [(0, 9)]

    # all-unique corpus -> empty result (Ray drops schema on 0-row
    # datasets — same documented quirk as dup_bucket_groups)
    empty = duplicate_ngram_spans(
        ray.data.from_items(
            [{"doc_id": 1, "text": "a b c d e"},
             {"doc_id": 2, "text": "f g h i j"}]
        ),
        n=3,
    ).take_all()
    assert empty == []


def test_duplicate_ngram_spans_matches_bruteforce_random(ray_session):
    """Randomized corpora with a tiny vocab (forces rich duplicate
    structure) against an independent pure-Python oracle."""
    import ray.data

    from anserini_ray.stages.dedup import duplicate_ngram_spans

    rng = np.random.default_rng(17)
    for trial in range(4):
        n = int(rng.integers(2, 5))
        vocab = [f"v{j}" for j in range(int(rng.integers(3, 8)))]
        rows = []
        for d in range(12):
            ln = int(rng.integers(0, 14))
            rows.append({
                "doc_id": d,
                "text": " ".join(rng.choice(vocab, size=ln)),
            })
        # brute force: covered positions then merged islands
        from collections import Counter

        grams = Counter()
        doc_grams = {}
        for r in rows:
            toks = r["text"].lower().split()
            gs = [tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)]
            doc_grams[r["doc_id"]] = gs
            grams.update(gs)
        want = set()
        for d, gs in doc_grams.items():
            cov = [i for i, g in enumerate(gs) if grams[g] >= 2]
            if not cov:
                continue
            start = prev = cov[0]
            cnt = 1
            for p in cov[1:]:
                if p - prev <= n:
                    prev = p
                    cnt += 1
                else:
                    want.add((d, start, prev + n, cnt))
                    start = prev = p
                    cnt = 1
            want.add((d, start, prev + n, cnt))
        got = duplicate_ngram_spans(
            ray.data.from_items(rows), n=n
        ).take_all()
        got_set = {
            (r["doc_id"], r["start_tok"], r["end_tok"], r["n_grams"])
            for r in got
        }
        assert got_set == want, (trial, n, got_set ^ want)


def test_keyed_operators_use_no_ray_grouping(ray_session, monkeypatch):
    """Every keyed operator runs on the hash-partitioned exchange: with
    Ray Data's groupby, join and unique made to raise, each still finds
    the duplicates planted in its input."""
    import datetime

    import ray.data
    from ray.data import Dataset

    from anserini_ray.stages.ann import embedding_cosine_near_dup
    from anserini_ray.stages.dedup import (
        exact_dedup,
        minhash_lsh_dedup,
        simhash_dedup,
        unique_by_key,
    )
    from anserini_ray.stages.temporal import sessionize

    def forbidden(*_a, **_k):
        raise AssertionError("Ray Data grouping called")

    for name in ("groupby", "join", "unique"):
        monkeypatch.setattr(Dataset, name, forbidden)

    rows = _doc_rows()  # docs 100 and 101 copy docs 0 and 1
    docs = ray.data.from_items(rows, override_num_blocks=4)
    dups = {
        r["rep_doc_id"]: r["dup_count"] for r in exact_dedup(docs).take_all()
    }
    assert dups[0] == dups[1] == 2 and len(dups) == len(rows) - 2

    upserts = ray.data.from_items(_upsert_rows(), override_num_blocks=8)
    latest = unique_by_key(upserts, ["conv_id", "turn_idx"], "ts").take_all()
    assert len(latest) == 60

    t0 = datetime.datetime(2024, 1, 1)
    events = ray.data.from_items([
        {"event_id": i, "user_id": i % 2,
         "ts": t0 + datetime.timedelta(minutes=[0, 1, 2, 90, 91, 200][i // 2])}
        for i in range(12)
    ], override_num_blocks=3)
    sess = sessionize(events, gap_us=30 * 60 * 10**6).take_all()
    assert {(r["user_id"], r["session_idx"]) for r in sess} == {
        (u, s) for u in (0, 1) for s in (0, 1, 2)
    }

    mh = minhash_lsh_dedup(docs, threshold=0.9).take_all()
    assert {(0, 100), (1, 101)} <= {(r["doc_a"], r["doc_b"]) for r in mh}
    sh = simhash_dedup(docs, verify=True).take_all()
    assert {(0, 100), (1, 101)} <= {(r["doc_a"], r["doc_b"]) for r in sh}

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((20, 8))
    vecs[19] = vecs[0]
    emb = embedding_cosine_near_dup(ray.data.from_items(
        [{"vec_id": i, "embedding": v.tolist()} for i, v in enumerate(vecs)]
    ), threshold=0.999).take_all()
    assert (0, 19) in {(r["vec_a"], r["vec_b"]) for r in emb}
