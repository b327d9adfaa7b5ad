"""BM25 scoring with Lucene float32 arithmetic parity.

Two variants, matching the reference exactly:

- "lucene": stock Lucene 8 `BM25Similarity` (the reference default,
  `SearchCollection.java:284-290`, k1=0.9 b=0.4 per `SearchArgs.java:115-119`).
  Doc length is the lossy byte4-quantized norm (the reader's
  ``score_dl_lucene``); per posting, ``norm = k1 * ((1-b) + b * dl / avgdl)``
  in float32 — the value of Lucene's 256-entry cache entry for that byte —
  then ``score = weight * (float)(freq / (freq + (double) norm))``.
- "accurate": the reference's `AccurateBM25Similarity.java:120-148`
  (`-bm25.accurate`): exact integer dl;
  ``wf = weight*freq; denom = freq + k1*(1-b) + (k1*b/avgdl)*dl; wf/denom``
  — every op float32.

Shared: ``idf = (float) ln(1 + (N - df + 0.5)/(df + 0.5))`` with GLOBAL df
and docCount (`AccurateBM25Similarity.java:49-51`); ``weight = boost * idf``
(no (k1+1) factor — Lucene 8 removed it, witnessed by BM25ScorerFixed);
``avgdl = (float)(sumTotalTermFreq / (double) docCount)``. Duplicate query
tokens add one clause each (`BagOfWordsQueryGenerator.java:37-41`), i.e. the
per-term contribution is multiplied by its occurrence count.
"""

from __future__ import annotations

import math

import numpy as np

F = np.float32

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4


def idf(df: int, doc_count: int) -> np.float32:
    return F(math.log(1 + (doc_count - df + 0.5) / (df + 0.5)))


class BM25Params:
    def __init__(
        self,
        doc_count: int,
        sum_total_tf: int,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        mode: str = "lucene",
    ):
        self.doc_count = doc_count
        self.k1 = F(k1)
        self.b = F(b)
        self.mode = mode
        # no terms at all (zero docs, or only empty docs): Lucene's
        # fallback avgdl of 1, which no posting is ever scored with
        self.avgdl = F(sum_total_tf / doc_count) if sum_total_tf > 0 else F(1)
        if mode == "accurate":
            self.mult_k1_minus_b = self.k1 * (F(1) - self.b)
            self.mult_k1_b_inv_avgdl = self.k1 * self.b / max(F(1e-10), self.avgdl)
        elif mode != "lucene":
            raise ValueError(f"unknown BM25 mode {mode!r}")

    def score_postings(
        self, weight: np.float32, tfs: np.ndarray, dl_f32: np.ndarray
    ) -> np.ndarray:
        """Vectorized per-posting scores for one term clause.

        For mode "lucene", dl_f32 must be the byte4-QUANTIZED doc lengths
        (byte4 round-trip) of the posting docs; for "accurate", the
        exact lengths. Returns float32 contributions."""
        freq = tfs.astype(np.float32)
        if self.mode == "lucene":
            # norm = the float32 cache value of the doc's byte, op order of
            # BM25Similarity.scorer(); freq/(freq+norm) in double, cast f32
            norm = self.k1 * ((F(1) - self.b) + self.b * dl_f32 / self.avgdl)
            ratio = (freq.astype(np.float64) / (freq.astype(np.float64) + norm.astype(np.float64))).astype(np.float32)
            return weight * ratio
        else:
            wf = weight * freq
            denom = freq + self.mult_k1_minus_b + self.mult_k1_b_inv_avgdl * dl_f32
            return wf / denom
