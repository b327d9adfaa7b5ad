"""Similarity search over embedding columns (list<float>).

Reference analog: the `J/ann/` subsystem encodes dense vectors as fake-word /
LSH tokens into the same inverted index (`ApproximateNearestNeighborSearch.
java`); here we implement the Ray-Data-native equivalents directly over the
`embeddings` table:

- brute_force_cosine_topk  exact top-k: broadcast the (small) query matrix
                           once via ray.put, numpy matmul per batch, per-
                           batch partial top-k, final merge of k*num_batches
                           partials (never materializes full scores)
- lsh_bucket_topk          scale path: signed-random-projection LSH buckets
                           (the lexlsh/fakewords analog) — candidates share
                           a bucket with the query; exact rerank inside
                           buckets only
- embedding_cosine_near_dup  pairs of near-identical vectors via LSH
                           bucketing + exact verify
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _batch_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    col = batch[vec_col].combine_chunks()
    flat = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
    offs = col.offsets.to_numpy()
    dim = offs[1] - offs[0]
    return flat.reshape(len(batch), dim)


def _select_topk_rows(key: np.ndarray, ids: np.ndarray, kk: int) -> np.ndarray:
    """Indices of the top-kk rows by the FINAL ranking key (key desc, id asc).
    `key` must already be rounded when the merge ranks on rounded cosines —
    selecting by raw cosine here can drop a smaller-id doc tied at the rounded
    k-th boundary (ADVICE r3). O(n) argpartition to the boundary value, then
    an exact lexsort of only the >= boundary tie group."""
    n = key.shape[0]
    if n <= kk:
        return np.arange(n)
    cand = np.argpartition(-key, kk - 1)[:kk]
    boundary = key[cand].min()
    group = np.flatnonzero(key >= boundary)
    order = np.lexsort((ids[group], -key[group]))
    return group[order[:kk]]


def brute_force_cosine_topk(
    ds,
    query_vectors: np.ndarray,
    k: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    round_decimals: int | None = 4,
):
    """Exact cosine top-k of each query vector against the dataset.

    Returns a pa.Table (query_idx, rank, vec_id, cosine). Deterministic
    order: (rounded cosine desc, vec_id asc) when round_decimals is set."""
    q = _normalize(np.asarray(query_vectors, dtype=np.float64))
    q_ref = ray.put(q)
    nq = q.shape[0]

    def partial_topk(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch, vec_col))
        sims = m @ qm.T  # (batch, nq)
        ids = batch[id_col].to_numpy()
        out_q, out_id, out_s = [], [], []
        kk = min(k, len(ids))
        for qi in range(qm.shape[0]):
            col = sims[:, qi]
            key = np.round(col, round_decimals) if round_decimals is not None else col
            top = _select_topk_rows(key, ids, kk)
            for t in top:
                out_q.append(qi)
                out_id.append(int(ids[t]))
                out_s.append(float(col[t]))
        return pa.table(
            {
                "query_idx": pa.array(out_q, type=pa.int32()),
                id_col: pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial_topk, batch_format="pyarrow").take_all()
    return _merge_partial_topk(partials, nq, k, id_col, round_decimals)


def _merge_partial_topk(partials, nq, k, id_col, round_decimals):
    """Driver merge of per-batch partial top-k rows: group once by query
    (dict, O(partials)), then sort each query's <= k*num_batches candidates
    by (rounded cosine desc, id asc)."""
    by_q: dict[int, list] = {qi: [] for qi in range(nq)}
    for r in partials:
        by_q[r["query_idx"]].append((r[id_col], r["cosine"]))
    out_rows = []
    for qi in range(nq):
        cands = by_q[qi]
        if round_decimals is not None:
            cands = [(i, round(c, round_decimals)) for i, c in cands]
        cands.sort(key=lambda x: (-x[1], x[0]))
        for rank, (vid, c) in enumerate(cands[:k]):
            out_rows.append((qi, rank + 1, vid, c))
    return pa.table(
        {
            "query_idx": pa.array([r[0] for r in out_rows], type=pa.int32()),
            "rank": pa.array([r[1] for r in out_rows], type=pa.int32()),
            id_col: pa.array([r[2] for r in out_rows], type=pa.int64()),
            "cosine": pa.array([r[3] for r in out_rows], type=pa.float64()),
        }
    )


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 — deterministic uniform 64-bit mix of ids,
    used for shuffle-free bounded sampling."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _srp_planes(dim: int, n_bits: int, seed: int = 97):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, n_bits))


def _srp_codes(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (m @ planes) > 0
    weights = (1 << np.arange(planes.shape[1], dtype=np.int64))
    return (bits.astype(np.int64) * weights[None, :]).sum(axis=1)


def lsh_bucket_topk(
    ds,
    query_vectors: np.ndarray,
    k: int = 5,
    n_bits: int = 8,
    n_tables: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    round_decimals: int | None = 4,
):
    """Approximate cosine top-k: signed-random-projection bucketing.

    Vectors land in n_tables buckets each; only vectors sharing a bucket
    with a query are exactly reranked. The scale path: each map_batches task
    emits at most k bucket-hit candidates PER QUERY (per-batch partial
    top-k), so the driver merge is bounded at k*num_batches rows even when
    a bucket is corpus-hot. n_bits=0 (all codes collide) degenerates to
    exact brute force — used by the driver correctness entry to share the
    exact-cosine oracle."""
    q = _normalize(np.asarray(query_vectors, dtype=np.float64))
    dim = q.shape[1]
    planes = [_srp_planes(dim, n_bits, seed=97 + t) for t in range(n_tables)]
    q_codes = [_srp_codes(q, p) for p in planes]  # per table: (nq,)
    q_ref = ray.put((q, planes, q_codes))

    def candidates(batch: pa.Table) -> pa.Table:
        qm, pls, qcs = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch, vec_col))
        ids = batch[id_col].to_numpy()
        hit = np.zeros((len(ids), qm.shape[0]), dtype=bool)
        for pl, qc in zip(pls, qcs):
            codes = _srp_codes(m, pl)  # (batch,)
            hit |= codes[:, None] == qc[None, :]
        out_q, out_id, out_s = [], [], []
        sims = m @ qm.T
        for qi in range(qm.shape[0]):
            rows = np.flatnonzero(hit[:, qi])
            kk = min(k, rows.size)
            if kk and rows.size > kk:  # per-batch partial top-k only
                col = sims[rows, qi]
                key = np.round(col, round_decimals) if round_decimals is not None else col
                rows = rows[_select_topk_rows(key, ids[rows], kk)]
            for r in rows:
                out_q.append(qi)
                out_id.append(int(ids[r]))
                out_s.append(float(sims[r, qi]))
        return pa.table(
            {
                "query_idx": pa.array(out_q, type=pa.int32()),
                id_col: pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = ds.map_batches(candidates, batch_format="pyarrow").take_all()
    return _merge_partial_topk(partials, q.shape[0], k, id_col, round_decimals)


def embedding_cosine_near_dup(
    ds,
    threshold: float = 0.95,
    n_bits: int = 12,
    n_tables: int = 6,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    max_group_size: int | None = 256,  # dedup.DEFAULT_MAX_GROUP_SIZE
):
    """Near-duplicate vector pairs: LSH bucket exchange → exact cosine verify
    within buckets (the bucket exchange moves only bucket keys + ids; the
    verify attaches each candidate's normalized vector to its pairs)."""
    probe = ds.take(1)
    if not probe:  # no vectors: no pairs
        return ray.data.from_items([])
    dim = len(probe[0][vec_col])
    planes = [_srp_planes(dim, n_bits, seed=211 + t) for t in range(n_tables)]
    p_ref = ray.put(planes)

    def bucket(batch: pa.Table) -> pa.Table:
        pls = ray.get(p_ref)
        m = _normalize(_batch_matrix(batch, vec_col))
        ids = batch[id_col].to_numpy()
        out_t, out_c, out_id = [], [], []
        for t, pl in enumerate(pls):
            codes = _srp_codes(m, pl)
            out_t.extend([t] * len(ids))
            out_c.extend(codes.tolist())
            out_id.extend(ids.tolist())
        return pa.table(
            {
                "table_id": pa.array(out_t, type=pa.int32()),
                "code": pa.array(out_c, type=pa.int64()),
                id_col: pa.array(out_id, type=pa.int64()),
            }
        )

    # Distributed exact verification (nothing corpus-proportional on the
    # driver): >=2-member buckets via the hash-partitioned exchange (no
    # per-bucket call) -> deduped pair Dataset -> normalized vectors
    # attached per side (one exchange per side) -> per-pair cosine in
    # map_batches. Returns a Dataset (vec_a, vec_b, cosine).
    from .dedup import (
        attach_pair_payloads,
        distinct_pairs_from_groups,
        dup_bucket_groups,
    )

    g = dup_bucket_groups(
        ds.map_batches(bucket, batch_format="pyarrow"),
        "table_id", "code", id_col,
    )
    pairs = distinct_pairs_from_groups(g, "doc_ids", max_group_size)

    def vec_payload(batch: pa.Table) -> pa.Table:
        # binary blob, not list<float64>: one contiguous buffer per
        # payload column, as in dedup.shingle_payload
        m = _normalize(_batch_matrix(batch, vec_col))
        return pa.Table.from_arrays(
            [
                batch[id_col],
                pa.array(
                    [row.tobytes() for row in np.ascontiguousarray(m, dtype=np.float64)],
                    type=pa.large_binary(),
                ),
            ],
            names=["pid", "payload"],
        )

    withp = attach_pair_payloads(
        pairs, ds.map_batches(vec_payload, batch_format="pyarrow")
    )

    def verify_cosine(batch: pa.Table) -> pa.Table:
        va = batch["payload_a"].combine_chunks()
        vb = batch["payload_b"].combine_chunks()
        n = batch.num_rows
        if n:
            ma = np.stack(
                [np.frombuffer(va[i].as_py(), dtype=np.float64) for i in range(n)]
            )
            mb = np.stack(
                [np.frombuffer(vb[i].as_py(), dtype=np.float64) for i in range(n)]
            )
            cos = np.einsum("ij,ij->i", ma, mb)
        else:
            cos = np.empty(0, dtype=np.float64)
        t = pa.Table.from_arrays(
            [batch["doc_a"], batch["doc_b"], pa.array(cos)],
            names=["vec_a", "vec_b", "cosine"],
        )
        return t.filter(pc.greater_equal(t["cosine"], threshold))

    return withp.map_batches(verify_cosine, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Fake-words encoding: dense vectors -> term/tf postings through the SAME
# inverted-index engine (reference `J/ann/fw/FakeWordsEncoderAnalyzer.java`,
# DEFAULT_Q=80; component i with value v emits int(v*q) copies of token
# "f<i>", non-positive quantizations dropped; searched under Classic TF-IDF,
# `ApproximateNearestNeighborSearch.java:140`).
# ---------------------------------------------------------------------------

FAKE_WORDS_DEFAULT_Q = 80


def fake_words_text(vec, q: int = FAKE_WORDS_DEFAULT_Q) -> str:
    """Encode one vector as fake-words text (feed through the normal build)."""
    parts = []
    for i, v in enumerate(np.asarray(vec, dtype=np.float64), start=1):
        qv = int(v * q)
        if qv > 0:
            parts.extend([f"f{i}"] * qv)
    return " ".join(parts)


def build_fake_words_index(
    ds,
    index_dir: str,
    q: int = FAKE_WORDS_DEFAULT_Q,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    input_files=None,
):
    """Index an embeddings Dataset as fake-words docs (docid "vec-<id>:0")
    via the standard inverted-index build."""
    import pyarrow.compute as _pc

    from ..index import IndexConfig, build_index
    from ..sources.transcripts import TRANSCRIPT_SCHEMA

    def encode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        m = _batch_matrix(batch, vec_col)
        texts = [fake_words_text(m[i], q) for i in range(len(ids))]
        n = len(ids)
        return pa.Table.from_arrays(
            [
                pa.array([f"vec-{int(i):010d}" for i in ids]),
                pa.array(np.zeros(n, dtype=np.int32)),
                pa.array(["vec"] * n),
                pa.array(texts),
                pa.array([""] * n),
                pa.array(np.zeros(n, dtype=np.int64), type=pa.timestamp("us")),
            ],
            schema=TRANSCRIPT_SCHEMA,
        )

    enc = ds.map_batches(encode, batch_format="pyarrow")
    # fake words ("f7") survive the default analyzer unchanged; stopwords and
    # stemming do not touch digit-bearing tokens
    return build_index(
        enc,
        index_dir,
        IndexConfig(seg_shift=13),
        input_files=input_files or [],
    )


def fake_words_topk(
    index_dir: str,
    query_vectors: np.ndarray,
    k: int = 10,
    q: int = FAKE_WORDS_DEFAULT_Q,
):
    """Classic-TF-IDF retrieval of fake-words-encoded queries; returns
    pa.Table (query_idx, rank, doc_id, score)."""
    from ..search import LocalSearcher

    s = LocalSearcher(index_dir, similarity="classic")
    out_q, out_r, out_d, out_s = [], [], [], []
    for qi, vec in enumerate(np.asarray(query_vectors, dtype=np.float64)):
        text = fake_words_text(vec, q)
        d, sc = s.search(text, k=k)
        for rank, (di, si) in enumerate(zip(d, sc)):
            out_q.append(qi)
            out_r.append(rank + 1)
            out_d.append(di)
            out_s.append(float(si))
    return pa.table(
        {
            "query_idx": pa.array(out_q, type=pa.int32()),
            "rank": pa.array(out_r, type=pa.int32()),
            "doc_id": pa.array(out_d, type=pa.string()),
            "score": pa.array(out_s, type=pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — the scalable mid-ground between brute force and
# SRP-LSH (ROADMAP item 9): a coarse k-means quantizer trained on a
# deterministic sample partitions vectors into nlist cells; queries probe
# only their nprobe nearest cells and rerank those candidates exactly.
# Train: driver-side seeded Lloyd iterations over a bounded sample (the
# classic IVF recipe, e.g. FAISS IndexIVFFlat). Assign + candidate emit are
# vectorized map_batches; centroids broadcast once via ray.put.
# ---------------------------------------------------------------------------


def train_ivf_centroids(
    ds,
    nlist: int = 16,
    sample_size: int = 4096,
    iters: int = 10,
    seed: int = 1234,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> np.ndarray:
    """Seeded Lloyd k-means over a deterministic sample — rows whose
    splitmix64(id) hash is among the corpus's sample_size smallest
    (reproducible across runs/cluster sizes/partitionings). One NARROW pass:
    each batch emits its own sample_size smallest (hash, vec) partials and
    the driver keeps the global smallest — no sort shuffle of the corpus.
    Returns (nlist, dim) L2-normalized centroids."""

    def sample_partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy().astype(np.uint64)
        keys = _splitmix64(ids)
        kk = min(sample_size, len(keys))
        if len(keys) > kk:
            sel = np.argpartition(keys, kk - 1)[:kk]
        else:
            sel = np.arange(len(keys))
        sub = batch.take(pa.array(sel))
        return pa.table(
            {
                "skey": pa.array(keys[sel].astype(np.int64)),
                "vec": sub[vec_col],
            }
        )

    partials = ds.map_batches(sample_partial, batch_format="pyarrow").take_all()
    partials.sort(key=lambda r: np.uint64(np.int64(r["skey"])))
    sample = partials[:sample_size]
    m = _normalize(
        np.asarray([r["vec"] for r in sample], dtype=np.float64)
    )
    rng = np.random.default_rng(seed)
    nlist = min(nlist, len(m))
    cent = m[rng.choice(len(m), size=nlist, replace=False)]
    for _ in range(iters):
        sims = m @ cent.T
        assign = np.argmax(sims, axis=1)
        for c in range(nlist):
            members = m[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_topk(
    ds,
    query_vectors: np.ndarray,
    k: int = 5,
    nlist: int = 16,
    nprobe: int = 4,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    centroids: np.ndarray | None = None,
    round_decimals: int | None = 4,
):
    """Approximate cosine top-k via IVF cells: each batch scores only the
    vectors whose nearest cell is among a query's nprobe probed cells —
    at scale the scan cost drops by ~nlist/nprobe vs brute force while the
    per-batch work stays one matmul + masked gather."""
    q = _normalize(np.asarray(query_vectors, dtype=np.float64))
    if centroids is None:
        centroids = train_ivf_centroids(ds, nlist=nlist, vec_col=vec_col,
                                        id_col=id_col)
    probes = np.argsort(-(q @ centroids.T), axis=1)[:, :nprobe]  # (nq,nprobe)
    state = ray.put((q, centroids, probes))

    def candidates(batch: pa.Table) -> pa.Table:
        qm, cent, prb = ray.get(state)
        m = _normalize(_batch_matrix(batch, vec_col))
        ids = batch[id_col].to_numpy()
        cell = np.argmax(m @ cent.T, axis=1)  # (batch,)
        hit = np.zeros((len(ids), qm.shape[0]), dtype=bool)
        for qi in range(qm.shape[0]):
            hit[:, qi] = np.isin(cell, prb[qi])
        sims = m @ qm.T
        out_q, out_id, out_s = [], [], []
        for qi in range(qm.shape[0]):
            rows = np.flatnonzero(hit[:, qi])
            kk = min(k, rows.size)
            if kk and rows.size > kk:  # per-batch partial top-k only
                col = sims[rows, qi]
                key = np.round(col, round_decimals) if round_decimals is not None else col
                rows = rows[_select_topk_rows(key, ids[rows], kk)]
            for r in rows:
                out_q.append(qi)
                out_id.append(int(ids[r]))
                out_s.append(float(sims[r, qi]))
        return pa.table(
            {
                "query_idx": pa.array(out_q, type=pa.int32()),
                id_col: pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_s, type=pa.float64()),
            }
        )

    partials = ds.map_batches(candidates, batch_format="pyarrow").take_all()
    return _merge_partial_topk(partials, q.shape[0], k, id_col, round_decimals)
