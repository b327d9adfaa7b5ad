"""Independent checks of the engine's outputs.

Everything here is computed from the generated token ids in numpy: collection
statistics, a float64 brute-force BM25 (k1=0.9, b=0.4, Lucene's byte4
doc-length norm, Lucene 8's idf) and the reference's score-tie adjustment.
Nothing is imported from `anserini_ray`, so a library fault cannot hide
itself from the check.
"""

from __future__ import annotations

import math

import numpy as np

K1 = 0.9
B = 0.4


# --- Lucene SmallFloat byte4 doc-length norm -----------------------------

def _long_to_int4(i: int) -> int:
    nbits = i.bit_length()
    if nbits < 4:
        return i
    shift = nbits - 4
    return ((i >> shift) & 0x07) | ((shift + 1) << 3)


def _int4_to_long(i: int) -> int:
    bits, shift = i & 0x07, (i >> 3) - 1
    return bits if shift == -1 else (bits | 0x08) << shift


_FREE = 255 - _long_to_int4(2**31 - 1)


def byte4_length(dl: int) -> int:
    """The doc length Lucene's BM25 sees: intToByte4 then byte4ToInt."""
    if dl < _FREE:
        return dl
    return _FREE + _int4_to_long(_long_to_int4(dl - _FREE))


def byte4_lengths(dls: np.ndarray) -> np.ndarray:
    table = {}
    out = np.empty(dls.size, dtype=np.float64)
    for i, v in enumerate(dls.tolist()):
        q = table.get(v)
        if q is None:
            q = table[v] = byte4_length(v)
        out[i] = q
    return out


# --- score-tie adjustment (ScoreTiesAdjusterReranker semantics) ----------

def adjust_ties(scores: np.ndarray) -> np.ndarray:
    """Round each rank-ordered float32 score to 1e-4 (Java Math.round on
    float), then lower each successive tie (within 1e-4 of the previous
    adjusted score) by dup * 1e-6. float32 throughout, as the reference."""
    f = np.float32
    out = np.asarray(scores, dtype=np.float32).copy()
    dup = 0
    for i in range(out.size):
        out[i] = f(np.floor(out[i] * f(1e4) + f(0.5))) / f(1e4)
        if i > 0 and out[i - 1] - out[i] <= f(1e-4):
            dup += 1
            out[i] = out[i] - f(1e-6) * f(dup)
        else:
            dup = 0
    return out


# --- the collection as generated -----------------------------------------

class Collection:
    """Term -> (doc, tf) lists of one or more generated corpora, in the
    global ordinal order the index assigns (base first, then each append)."""

    def __init__(self):
        self.docids: list[str] = []
        self.dl = np.zeros(0, dtype=np.int64)
        self._parts: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        self._pos: dict[str, int] | None = None
        self._norm: np.ndarray | None = None

    def add(self, corpus) -> None:
        base = len(self.docids)
        offsets, tokens = corpus.offsets, corpus.tokens
        doc_of = np.repeat(np.arange(corpus.n_docs, dtype=np.int64),
                           np.diff(offsets))
        order = np.argsort(tokens, kind="stable")
        sorted_terms = tokens[order]
        uniq, starts = np.unique(sorted_terms, return_index=True)
        self._parts.append((base, doc_of[order], uniq,
                            np.append(starts, sorted_terms.size)))
        self.docids.extend(corpus.docids)
        self.dl = np.concatenate([self.dl, np.diff(offsets)])
        self._pos = None
        self._norm = None

    def copy(self) -> "Collection":
        """A collection that `add` can grow without changing this one."""
        c = Collection()
        c.docids = list(self.docids)
        c.dl = self.dl
        c._parts = list(self._parts)
        return c

    @property
    def n_docs(self) -> int:
        return len(self.docids)

    @property
    def sum_total_tf(self) -> int:
        return int(self.dl.sum())

    def position(self, docid: str) -> int | None:
        if self._pos is None:
            self._pos = {d: i for i, d in enumerate(self.docids)}
        return self._pos.get(docid)

    def postings(self, term_id: int) -> tuple[np.ndarray, np.ndarray]:
        docs, tfs = [], []
        for base, doc_sorted, uniq, bounds in self._parts:
            j = np.searchsorted(uniq, term_id)
            if j < uniq.size and uniq[j] == term_id:
                d, c = np.unique(doc_sorted[bounds[j]:bounds[j + 1]],
                                 return_counts=True)
                docs.append(d + base)
                tfs.append(c)
        if not docs:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.concatenate(docs), np.concatenate(tfs)

    def df_cf(self, term_id: int) -> tuple[int, int]:
        d, c = self.postings(term_id)
        return int(d.size), int(c.sum())

    def bm25(self, term_ids: list[int]) -> np.ndarray:
        """float64 BM25 of every doc for a bag of query term ids (a repeated
        id counts once per occurrence)."""
        n = self.n_docs
        if self._norm is None:
            avgdl = self.sum_total_tf / n
            self._norm = K1 * ((1 - B) + B * byte4_lengths(self.dl) / avgdl)
        norm = self._norm
        scores = np.zeros(n, dtype=np.float64)
        counts: dict[int, int] = {}
        for t in term_ids:
            counts[t] = counts.get(t, 0) + 1
        for t, cnt in counts.items():
            docs, tfs = self.postings(t)
            if docs.size == 0:
                continue
            idf = math.log(1 + (n - docs.size + 0.5) / (docs.size + 0.5))
            tf = tfs.astype(np.float64)
            scores[docs] += cnt * idf * tf / (tf + norm[docs])
        return scores


def check_ranking(coll: Collection, term_ids: list[int], docids: list[str],
                  scores, k: int) -> str | None:
    """None when (docids, unadjusted float32 scores) is a correct top-k for
    the query, else a reason. Scores must match the float64 oracle to float32
    accuracy; ranks may differ only inside groups whose oracle scores lie
    within that accuracy; equal float32 scores must be in docid order."""
    exact = coll.bm25(term_ids)
    matched = int((exact > 0).sum())
    if len(docids) != min(k, matched):
        return f"returned {len(docids)} hits, expected {min(k, matched)}"
    if not docids:
        return None
    pos = [coll.position(d) for d in docids]
    if None in pos or len(set(pos)) != len(pos):
        return "unknown or repeated docid"
    o = exact[pos]
    s = np.asarray(scores, dtype=np.float64)
    tol = 2e-6 * max(1.0, float(exact.max())) * len(set(term_ids))
    if np.any(np.abs(s - o) > tol):
        i = int(np.argmax(np.abs(s - o)))
        return f"score of {docids[i]}: {s[i]} vs oracle {o[i]}"
    if np.any(o[1:] > o[:-1] + 2 * tol):
        return "ranks out of score order"
    floor = o.min() + 2 * tol
    if int((exact > floor).sum()) > int((o > floor).sum()):
        return "a higher-scoring document is missing from the top-k"
    f32 = np.asarray(scores, dtype=np.float32)
    for i in range(len(docids) - 1):
        if f32[i] == f32[i + 1] and docids[i] > docids[i + 1]:
            return f"tie at rank {i + 1} not in docid order"
    return None
