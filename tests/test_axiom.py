"""Axiomatic query expansion vs an independent oracle implementation."""

import math
import random

import numpy as np
import pyarrow.parquet as pq
import pytest

from anserini_ray.sources import generate_transcripts
from oracle import BruteForceIndex

F = np.float32


def oracle_axiom(
    oracle: BruteForceIndex,
    ord_of_docid: dict,
    docid_of_ord: dict,
    query: str,
    k: int,
    r_top=20, n_factor=30, beta=0.4, m_terms=20, k_terms=1000, seed=42,
    cutoff=50,
):
    q_tokens = oracle.analyzer.analyze(query)
    first = oracle.search(query, k=cutoff)
    N_docs = oracle.N
    pool = {ord_of_docid[d] for d, _ in first[:r_top]}
    rng = random.Random(seed)
    target = r_top * n_factor
    while len(pool) < min(target, N_docs):
        pool.add(rng.randrange(N_docs))

    inv: dict[str, set] = {}
    for g in pool:
        docid = docid_of_ord[g]
        for term, postings in oracle.tf.items():
            if docid in postings:
                inv.setdefault(term, set()).add(g)
    all_docs = set().union(*inv.values()) if inv else set()
    total = len(all_docs)

    def mi(sx, sy):
        x1, y1 = len(sx), len(sy)
        x0, y0 = total - x1, total - y1
        if x1 == 0 or x0 == 0 or y1 == 0 or y0 == 0:
            return 0.0
        px0, px1 = np.float32(x0 / total), np.float32(x1 / total)
        py0, py1 = np.float32(y0 / total), np.float32(y1 / total)
        n11 = len(sx & sy)
        n10, n01 = x1 - n11, y1 - n11
        n00 = total - n11 - n10 - n01
        p = [np.float32(v / total) for v in (n00, n01, n10, n11)]
        out = 0.0
        for pv, (a, b) in zip(p, [(px0, py0), (px0, py1), (px1, py0), (px1, py1)]):
            if pv != 0:
                out += float(pv) * math.log(float(pv) / float(a * b))
        return out

    q_counts = {}
    for t in q_tokens:
        q_counts[t] = q_counts.get(t, 0) + 1
    agg = {}
    for q_term, qtf in q_counts.items():
        df = oracle.df(q_term)
        if df <= 0 or q_term not in inv:
            continue
        idf_q = float(np.float32(math.log((1 + N_docs) / df)))
        self_mi = mi(inv[q_term], inv[q_term])
        scored = []
        for term, s_ in inv.items():
            if term == q_term:
                score = idf_q * qtf
            else:
                score = (
                    idf_q * beta * qtf * mi(inv[q_term], s_) / self_mi
                    if self_mi != 0 else 0.0
                )
            scored.append((term, score))
        scored.sort(key=lambda ts: (-ts[1], ts[0].lower()))
        for term, score in scored[: max(m_terms, k_terms)]:
            if score > 1e-8:
                agg[term] = agg.get(term, 0.0) + score
    final = sorted(
        ((t, s / len(q_tokens)) for t, s in agg.items()),
        key=lambda ts: (-ts[1], ts[0].lower()),
    )[:m_terms]

    # weighted BM25 (lucene mode)
    from anserini_ray.search.norms import byte4_to_int, int_to_byte4

    k1f, bf = F(0.9), F(0.4)
    scores = {}
    for term, boost in final:
        postings = oracle.tf.get(term)
        if not postings:
            continue
        w = F(boost) * F(
            math.log(1 + (N_docs - len(postings) + 0.5) / (len(postings) + 0.5))
        )
        for docid, tf in postings.items():
            dl = byte4_to_int(int_to_byte4(oracle.dl[docid]))
            norm = k1f * ((F(1) - bf) + bf * F(dl) / oracle.avgdl)
            scores[docid] = scores.get(docid, F(0)) + w * F(
                float(tf) / (float(tf) + float(norm))
            )
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(d, float(s)) for d, s in ranked[:k]]


@pytest.fixture(scope="module")
def axiom_setup(ray_session, tmp_path_factory):
    import ray.data

    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher

    tmp = tmp_path_factory.mktemp("axiom")
    p = str(tmp / "c.parquet")
    table = generate_transcripts(600, seed=66)
    pq.write_table(table, p)
    idx = str(tmp / "idx")
    build_index(
        ray.data.read_parquet(p), idx,
        IndexConfig(seg_shift=8, store_docvecs=True), input_files=[p],
    )
    docs = [
        (f"{c}:{t}", x)
        for c, t, x in zip(
            table["conv_id"].to_pylist(),
            table["turn_idx"].to_pylist(),
            table["text"].to_pylist(),
        )
    ]
    oracle = BruteForceIndex(docs)
    # ordinal mapping: the existing docs numbered in order, the same space
    # search_axiom samples over (ordinal ASSIGNMENT is covered elsewhere)
    s = LocalSearcher(idx)
    ord_of, of_ord = {}, {}
    for r in s.readers:
        for d in r.doc_id_strings(r._raw_local):
            g = len(ord_of)
            ord_of[d] = g
            of_ord[g] = d
    return idx, oracle, ord_of, of_ord


def test_axiom_matches_oracle(axiom_setup):
    from anserini_ray.search import LocalSearcher

    idx, oracle, ord_of, of_ord = axiom_setup
    s = LocalSearcher(idx)
    for q in ["merge sort", "hash join pipeline"]:
        docids, scores = s.search_axiom(q, k=20, adjust_ties=False)
        expected = oracle_axiom(oracle, ord_of, of_ord, q, k=20)
        assert docids == [d for d, _ in expected], q
        np.testing.assert_allclose(
            np.asarray(scores, dtype=np.float32),
            np.asarray([sc for _, sc in expected], dtype=np.float32),
            rtol=2e-6, atol=2e-7,
        )


def test_axiom_deterministic(axiom_setup):
    from anserini_ray.search import LocalSearcher

    idx, *_ = axiom_setup
    s = LocalSearcher(idx)
    d1, s1 = s.search_axiom("merge sort", k=10)
    d2, s2 = s.search_axiom("merge sort", k=10)
    assert d1 == d2 and np.array_equal(np.asarray(s1), np.asarray(s2))
    d3, _ = s.search_axiom("merge sort", k=10, seed=7)
    # different seed -> different pool -> (very likely) different expansion
    assert d1 != d3 or True  # determinism is the hard requirement; allow equal
