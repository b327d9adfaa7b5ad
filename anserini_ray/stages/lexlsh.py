"""Lexical-LSH vector encoder — reference `J/ann/lexlsh/`
(`LexicalLshAnalyzer.java`): dense vectors serialized as feature-value text
are re-tokenized into LSH bucket tokens that flow through the NORMAL
inverted-index engine (searched under Classic TF-IDF,
`ApproximateNearestNeighborSearch.java` `-encoding lexlsh`).

Chain (each stage mirroring its reference filter):
  1. FeatureVectorsTokenizer     split the vector string on ',' and
                                 whitespace
  2. LexicalLshTruncateTokenFilter  keep `decimals` digits after the '.'
  3. LexicalLshFeaturePositionTokenFilter  prefix each token with its
                                 1-based feature index ("3_0.1")
  4. ShingleFilter(2)            adjacent-token shingles, ' ' separator,
                                 no unigrams
  5. MinHash bucketing           Lucene's MinHashFilter (hashCount=1,
                                 bucketCount=512, hashSetSize=1): one
                                 min-hash per bucket over the shingle set.
                                 SUBSTITUTED HASH: Lucene uses
                                 MurmurHash3-128; this port uses the first
                                 8 bytes of sha1 (no JVM here to verify
                                 murmur bit-parity; bucketing behavior —
                                 same shingles => same tokens, similar
                                 vectors => mostly-shared tokens — is
                                 preserved, which is the property the
                                 self-retrieval test in the reference
                                 checks)
  6. RemoveDuplicates            distinct tokens

Tokens are emitted as "b<bucket>_<minhash hex>".
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

_SPLIT = re.compile(r"[,\s]+")


class LexicalLshEncoder:
    def __init__(self, decimals: int = 1, ngrams: int = 2,
                 bucket_count: int = 512):
        if decimals < 1:
            raise ValueError("'decimals' must be a positive number")
        self.decimals = decimals
        self.ngrams = ngrams
        self.bucket_count = bucket_count

    def _truncate(self, tok: str) -> str:
        i = tok.find(".")
        threshold = i + 1 + self.decimals
        return tok[:threshold] if len(tok) > threshold else tok

    def tokens(self, text: str) -> list[str]:
        feats = [t for t in _SPLIT.split(text) if t]
        pos_toks = [
            f"{i}_{self._truncate(t)}" for i, t in enumerate(feats, start=1)
        ]
        if self.ngrams > 1 and len(pos_toks) >= self.ngrams:
            shingles = [
                " ".join(pos_toks[i : i + self.ngrams])
                for i in range(len(pos_toks) - self.ngrams + 1)
            ]
        else:
            shingles = pos_toks
        # per-bucket min-hash over the shingle set
        mins: dict[int, int] = {}
        for sh in shingles:
            h = int.from_bytes(
                hashlib.sha1(sh.encode()).digest()[:8], "big"
            )
            bucket = h % self.bucket_count
            if bucket not in mins or h < mins[bucket]:
                mins[bucket] = h
        out = [f"b{b}_{v:016x}" for b, v in sorted(mins.items())]
        return out

    # Analyzer interface (usable as an index/search analyzer config target)
    def analyze(self, text: str) -> list[str]:
        return self.tokens(text)

    def analyze_with_positions(self, text: str):
        toks = self.tokens(text)
        return toks, list(range(len(toks)))

    def config_fingerprint(self) -> str:
        return f"lexlsh+d{self.decimals}+n{self.ngrams}+b{self.bucket_count}"


def vector_to_feature_text(vec) -> str:
    """Serialize a vector the way ApproximateNearestNeighborSearch feeds
    LexicalLshAnalyzer (comma-separated feature values)."""
    return ",".join(str(float(v)) for v in np.asarray(vec, dtype=np.float64))


def build_lexlsh_index(ds, index_dir: str, vec_col: str = "embedding",
                       id_col: str = "vec_id", input_files=None,
                       decimals: int = 1):
    """Index an embeddings Dataset via lexlsh token encoding through the
    standard inverted-index build (docid "vec-<id>:0")."""
    from ..index import IndexConfig, build_index
    from ..sources.transcripts import TRANSCRIPT_SCHEMA
    from .ann import _batch_matrix

    enc = LexicalLshEncoder(decimals=decimals)

    def encode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        m = _batch_matrix(batch, vec_col)
        texts = [
            " ".join(enc.tokens(vector_to_feature_text(m[i])))
            for i in range(len(ids))
        ]
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

    # bucket tokens ("b12_ab34...") pass the whitespace path of the default
    # analyzer untouched: no stopword hits, digit-bearing tokens unstemmed
    return build_index(
        ds.map_batches(encode, batch_format="pyarrow"),
        index_dir,
        IndexConfig(seg_shift=13),
        input_files=input_files or [],
    )


def lexlsh_topk(index_dir: str, query_vectors: np.ndarray, k: int = 10,
                decimals: int = 1):
    """Classic-TF-IDF retrieval of lexlsh-encoded queries
    (ApproximateNearestNeighborSearch.java `-encoding lexlsh`)."""
    from ..search import LocalSearcher

    enc = LexicalLshEncoder(decimals=decimals)
    s = LocalSearcher(index_dir, similarity="classic")
    out_q, out_r, out_d, out_s = [], [], [], []
    for qi, vec in enumerate(np.asarray(query_vectors, dtype=np.float64)):
        text = " ".join(enc.tokens(vector_to_feature_text(vec)))
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
