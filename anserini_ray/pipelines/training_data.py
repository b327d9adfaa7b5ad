"""Training-data-pipeline queries over the driver tables (documents,
embeddings, events) with DuckDB oracle SQL where the semantics are
SQL-expressible."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..stages import ann as A
from ..stages import dedup as D
from ..stages import text_stats as T
from ..stages.hashagg import hash_aggregate


def _docs(sf_dir: str, columns=None):
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=columns
    )


def _embeddings(sf_dir: str, columns=None):
    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=columns
    )


# ----------------------------------------------------------- exact dedup
def exact_dedup(sf_dir: str):
    return D.exact_dedup(
        _docs(sf_dir, ["doc_id", "text"]), text_col="text", id_col="doc_id"
    )


EXACT_DEDUP_SQL = """
    SELECT min(doc_id) AS rep_doc_id, count(*) AS dup_count
    FROM documents GROUP BY text
"""


# --------------------------------------------------------- quality stats
def quality_stats(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        T.quality_batch, batch_format="pyarrow"
    )
    return ds.drop_columns(["text"])


QUALITY_STATS_SQL = """
    WITH toks AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         t -> t <> '') AS ts,
             length(text) AS n_chars
      FROM documents
    )
    SELECT doc_id, n_chars,
           CAST(len(ts) AS BIGINT) AS n_tokens,
           CAST(len(list_distinct(ts)) AS BIGINT) AS n_uniq_tokens,
           CASE WHEN len(ts) = 0 THEN 0.0
                ELSE list_sum(list_transform(ts, t -> length(t))) * 1.0 / len(ts)
           END AS mean_token_len,
           CASE WHEN len(ts) = 0 THEN 0.0
                ELSE len(list_filter(ts,
                     t -> t IN ('the','a','an','of','to','in','on','is','are','and')
                     )) * 1.0 / len(ts)
           END AS stop_ratio
    FROM toks
"""


# ------------------------------------------------------ repetition stats
def repetition_stats(sf_dir: str):
    """Gopher-style repetition features per doc (stages/text_stats.py)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        T.repetition_batch, batch_format="pyarrow"
    )


REPETITION_STATS_SQL = """
    WITH toks AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         t -> t <> '') AS ts
      FROM documents
    ),
    i2 AS (SELECT doc_id, ts, unnest(range(1, len(ts))) AS i FROM toks),
    b2 AS (SELECT doc_id, ts[i] || ' ' || ts[i+1] AS g FROM i2),
    a2 AS (
      SELECT doc_id, max(c) * 1.0 / sum(c) AS f
      FROM (SELECT doc_id, g, count(*) AS c FROM b2 GROUP BY doc_id, g)
      GROUP BY doc_id
    ),
    i3 AS (SELECT doc_id, ts, unnest(range(1, len(ts) - 1)) AS i FROM toks),
    b3 AS (
      SELECT doc_id, ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS g FROM i3
    ),
    a3 AS (
      SELECT doc_id, max(c) * 1.0 / sum(c) AS f
      FROM (SELECT doc_id, g, count(*) AS c FROM b3 GROUP BY doc_id, g)
      GROUP BY doc_id
    )
    SELECT t.doc_id,
           CASE WHEN len(ts) = 0 THEN 0.0
                ELSE 1.0 - len(list_distinct(ts)) * 1.0 / len(ts)
           END AS dup_token_frac,
           coalesce(a2.f, 0.0) AS top_bigram_frac,
           coalesce(a3.f, 0.0) AS top_trigram_frac
    FROM toks t LEFT JOIN a2 USING (doc_id) LEFT JOIN a3 USING (doc_id)
"""


# -------------------------------------------------------- PII redaction
def pii_redact(sf_dir: str):
    """Email/IPv4/phone redaction + counts (stages/text_stats.PiiRedact as
    a task map; patterns compile once per worker process)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        T.pii_redact_batch, batch_format="pyarrow"
    )


def _pii_sql() -> str:
    e, i, p = T.PII_EMAIL, T.PII_IPV4, T.PII_PHONE
    return f"""
    SELECT doc_id,
           regexp_replace(regexp_replace(regexp_replace(text,
               '{e}', '<EMAIL>', 'g'),
               '{i}', '<IP>', 'g'),
               '{p}', '<PHONE>', 'g') AS text_redacted,
           CAST(len(regexp_extract_all(text, '{e}')) AS BIGINT) AS n_emails,
           CAST(len(regexp_extract_all(text, '{i}')) AS BIGINT) AS n_ips,
           CAST(len(regexp_extract_all(text, '{p}')) AS BIGINT) AS n_phones
    FROM documents
    """


PII_REDACT_SQL = _pii_sql()


# ------------------------------------------------- composite quality filter
def quality_filter(sf_dir: str):
    """Gopher-style keep/drop verdict per doc with first-failing-rule reason
    (stages/text_stats.quality_filter_batch). Map-only."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        T.quality_filter_batch, batch_format="pyarrow"
    )


def _quality_filter_sql() -> str:
    stop = ",".join(f"'{w}'" for w in sorted(T._QF_STOPSET))
    return f"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         t -> t <> '') AS ts
      FROM documents
    ),
    m AS (
      SELECT doc_id, ts, len(ts) AS nt,
             CASE WHEN len(ts) = 0 THEN 0.0
                  ELSE list_sum(list_transform(ts, t -> length(t))) * 1.0 / len(ts)
             END AS mean_len,
             len(list_filter(ts, t -> t IN ({stop}))) AS n_stop,
             CASE WHEN len(ts) = 0 THEN 0.0
                  ELSE 1.0 - len(list_distinct(ts)) * 1.0 / len(ts)
             END AS dupf
      FROM toks
    ),
    bg AS (
      SELECT doc_id, max(c) AS maxc
      FROM (
        SELECT doc_id, g, count(*) AS c FROM (
          SELECT doc_id, ts[i] || ' ' || ts[i+1] AS g
          FROM (SELECT doc_id, ts, unnest(range(1, nt)) AS i FROM m)
        ) GROUP BY doc_id, g
      ) GROUP BY doc_id
    ),
    r AS (
      SELECT m.doc_id,
        CASE
          WHEN nt < {T.QF_MIN_TOKENS} THEN 'too_few_tokens'
          WHEN nt > {T.QF_MAX_TOKENS} THEN 'too_many_tokens'
          WHEN mean_len < {T.QF_MIN_MEAN_TOKEN_LEN}
            OR mean_len > {T.QF_MAX_MEAN_TOKEN_LEN} THEN 'mean_token_len'
          WHEN n_stop < {T.QF_MIN_STOPWORDS} THEN 'too_few_stopwords'
          WHEN dupf > {T.QF_MAX_DUP_TOKEN_FRAC} THEN 'dup_tokens'
          WHEN nt >= 2 AND coalesce(bg.maxc, 0) * 1.0 / (nt - 1)
               > {T.QF_MAX_TOP_BIGRAM_FRAC} THEN 'top_bigram'
          ELSE ''
        END AS reason
      FROM m LEFT JOIN bg ON m.doc_id = bg.doc_id
    )
    SELECT doc_id, reason = '' AS keep, reason FROM r
    """


QUALITY_FILTER_SQL = _quality_filter_sql()


# ------------------------------------------------- fixed-token chunking
CHUNK_TOKENS = 64
CHUNK_OVERLAP = 16


def chunk_documents(sf_dir: str):
    """Fixed-token chunks with overlap (stages/text_stats.chunk_batch)."""
    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        T.chunk_batch, batch_format="pyarrow",
        fn_kwargs={"chunk_tokens": CHUNK_TOKENS, "overlap": CHUNK_OVERLAP},
    )


_CH_STRIDE = CHUNK_TOKENS - CHUNK_OVERLAP
CHUNK_DOCUMENTS_SQL = f"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(text, '\\s+'),
                         t -> t <> '') AS ts
      FROM documents
    ),
    nz AS (SELECT doc_id, ts, len(ts) AS nt FROM toks WHERE len(ts) > 0),
    idx AS (
      SELECT doc_id, ts, nt,
             unnest(range(0, 1 + greatest(0, CAST(ceil(
                 (nt - {CHUNK_TOKENS}) * 1.0 / {_CH_STRIDE}) AS BIGINT)))) AS i
      FROM nz
    )
    SELECT doc_id, i AS chunk_idx,
           array_to_string(list_slice(ts, i * {_CH_STRIDE} + 1,
                                      i * {_CH_STRIDE} + {CHUNK_TOKENS}),
                           ' ') AS chunk_text,
           least(CAST({CHUNK_TOKENS} AS BIGINT),
                 nt - i * {_CH_STRIDE}) AS n_chunk_tokens
    FROM idx
"""


# -------------------------------------------------- corpus n-gram counts
def ngram_counts(sf_dir: str, n: int = 2, k: int = 100):
    """Corpus-level top-k word n-grams. The combiner pattern for a 100-TB
    corpus: each batch pre-aggregates its n-gram counts locally (a dict per
    batch, emitted as skinny (gram, n_partial) rows), so only the partial
    vocabulary — not the corpus — reaches the one wide hash aggregate; the
    final top-k is per-batch partial top-k + bounded driver merge."""

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for t in batch["text"].to_pylist():
            toks = (t or "").lower().split()
            for j in range(len(toks) - n + 1):
                g = " ".join(toks[j:j + n])
                counts[g] = counts.get(g, 0) + 1
        return pa.table(
            {
                "gram": pa.array(list(counts.keys()), type=pa.string()),
                "n_partial": pa.array(
                    list(counts.values()), type=pa.int64()),
            }
        )

    agg = hash_aggregate(
        _docs(sf_dir, ["text"]).map_batches(partial, batch_format="pyarrow"),
        keys=["gram"], aggs=[("sum", "n_partial")], out_names=["n"],
    )

    def batch_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        idx = pc.select_k_unstable(
            batch, k, [("n", "descending"), ("gram", "ascending")]
        )
        return batch.take(idx)

    parts = agg.map_batches(batch_topk, batch_format="pyarrow").take_all()
    t = pa.Table.from_pylist(parts, schema=pa.schema(
        [("gram", pa.string()), ("n", pa.int64())]))
    idx = pc.select_k_unstable(
        t, min(k, t.num_rows), [("n", "descending"), ("gram", "ascending")]
    )
    return t.take(idx)


NGRAM_COUNTS_SQL = """
    WITH toks AS (
      SELECT list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         t -> t <> '') AS ts
      FROM documents
    ),
    b2 AS (
      SELECT ts[i] || ' ' || ts[i+1] AS gram
      FROM (SELECT ts, unnest(range(1, len(ts))) AS i FROM toks)
    )
    SELECT gram, count(*) AS n FROM b2
    GROUP BY gram ORDER BY n DESC, gram ASC LIMIT 100
"""


# ----------------------------------------------------------- token counts
def token_counts(sf_dir: str):
    """Whitespace token counts (SQL-checkable)."""

    def fn(batch: pa.Table) -> pa.Table:
        ws = pa.array(
            [len((t or "").split()) for t in batch["text"].to_pylist()],
            type=pa.int64(),
        )
        return pa.Table.from_arrays(
            [batch["doc_id"], ws], names=["doc_id", "ws_tokens"]
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


TOKEN_COUNTS_SQL = """
    SELECT doc_id,
           CAST(len(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                t -> t <> '')) AS BIGINT) AS ws_tokens
    FROM documents
"""


def token_counts_analyzed(sf_dir: str):
    """Full-analyzer token counts. SQL-checkable on this corpus: the
    documents vocabulary is clean single-space lowercase words, where the
    UAX#29+possessive steps are identity, Porter stemming preserves counts,
    and stopword removal is an IN-list filter — so analyzed_tokens ==
    count of tokens outside Lucene's 33-word English stop set."""
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        T.token_count_batch, batch_format="pyarrow"
    )
    return ds.drop_columns(["text"])


_LUCENE_STOP_33_SQL = (
    "('a','an','and','are','as','at','be','but','by','for','if','in','into',"
    "'is','it','no','not','of','on','or','such','that','the','their','then',"
    "'there','these','they','this','to','was','will','with')"
)

TOKEN_COUNTS_ANALYZED_SQL = f"""
    WITH t AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         x -> x <> '') AS toks
      FROM documents
    )
    SELECT doc_id,
           CAST(len(toks) AS BIGINT) AS ws_tokens,
           CAST(len(list_filter(toks, x -> x NOT IN {_LUCENE_STOP_33_SQL}))
                AS BIGINT) AS analyzed_tokens
    FROM t
"""


# ------------------------------------------------------------- language id
def lang_id(sf_dir: str):
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        T.LanguageId(), batch_format="pyarrow"
    )
    return ds.drop_columns(["text"])


# SQL mirror of text_stats.detect_language over ASCII text: per-language
# stopword-marker hit ratios, argmax with first-wins ties in dict order
# (en, de, es, fr), 'en' when every score is zero. (The CJK branch cannot
# trigger on this corpus.)
LANG_ID_SQL = """
    WITH t AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         x -> x <> '') AS toks
      FROM documents
    ),
    s AS (
      SELECT doc_id,
        len(list_filter(toks, x -> x IN ('the','and','of','to','in','is','that','with','for','on'))) * 1.0 / len(toks) AS s_en,
        len(list_filter(toks, x -> x IN ('der','die','das','und','ist','nicht','mit','ein','zu','für'))) * 1.0 / len(toks) AS s_de,
        len(list_filter(toks, x -> x IN ('el','la','los','las','es','de','que','y','en','por'))) * 1.0 / len(toks) AS s_es,
        len(list_filter(toks, x -> x IN ('le','la','les','est','et','des','une','que','pour','dans'))) * 1.0 / len(toks) AS s_fr
      FROM t WHERE len(toks) > 0
    )
    SELECT doc_id,
           CASE WHEN greatest(s_en, s_de, s_es, s_fr) <= 0 THEN 'en'
                WHEN s_en >= s_de AND s_en >= s_es AND s_en >= s_fr THEN 'en'
                WHEN s_de >= s_es AND s_de >= s_fr THEN 'de'
                WHEN s_es >= s_fr THEN 'es'
                ELSE 'fr' END AS detected_lang
    FROM s
"""


def fingerprints(sf_dir: str):
    """64-bit md5-prefix content fingerprints (SQL-checkable; the FNV
    rolling 'fingerprint' int64 column is engine-internal and excluded
    here)."""
    ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        T.Fingerprint(), batch_format="pyarrow"
    )
    return ds.select_columns(["doc_id", "fingerprint_md5"])


FINGERPRINTS_SQL = """
    SELECT doc_id, substr(md5(text), 1, 16) AS fingerprint_md5 FROM documents
"""


# ------------------------------------------------------------ near-dup ops
def minhash_dedup(sf_dir: str):
    """Near-dup pairs (doc_a, doc_b, jaccard>=0.5) via MinHash-LSH blocking +
    distributed exact-Jaccard verification. bands == num_perm (one minhash
    value per band) drives per-pair recall to 1 - (1-j)^64 (~1-5e-20 at
    j=0.5), so the output equals the exact all-pairs SQL oracle; false bucket
    positives are removed by the exact verify stage."""
    return D.minhash_lsh_dedup(
        _docs(sf_dir, ["doc_id", "text"]),
        num_perm=64,
        bands=64,
        threshold=0.5,
        verify=True,
    )


def ngram_jaccard_pairs(sf_dir: str):
    """Near-dup pairs (doc_a, doc_b, jaccard>=0.5) via EXACT prefix-filtering
    set-similarity self-join (AllPairs/PPJoin blocking — recall 1 by the
    prefix lemma, deterministic, no MinHash probability) + the shared
    distributed exact-Jaccard verify. Same output contract as minhash_dedup,
    different blocking algorithm; both equal the all-pairs SQL oracle."""
    return D.ngram_jaccard_join(
        _docs(sf_dir, ["doc_id", "text"]), threshold=0.5
    )


def duplicate_spans(sf_dir: str, n: int = 8):
    """Exact duplicate-substring spans (Lee et al. ACL 2022 style):
    maximal per-doc token spans covered by n-grams occurring >= 2 times
    anywhere in the corpus. See stages/dedup.py duplicate_ngram_spans."""
    return D.duplicate_ngram_spans(_docs(sf_dir, ["doc_id", "text"]), n=n)


def _duplicate_spans_sql(n: int = 8) -> str:
    """DuckDB mirror of duplicate_ngram_spans: positions of duplicated
    n-grams (grouped on the gram STRING — the Ray side's 64-bit gram
    hash is equivalent modulo vanishing collisions), merged by the
    gaps-and-islands rule `pos - lag(pos) <= n`."""
    gram = " || ' ' || ".join(f"ts[i+{j}]" for j in range(n))
    return f"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         t -> t <> '') AS ts
      FROM documents
    ),
    g AS (
      SELECT doc_id, i - 1 AS pos, {gram} AS gram
      FROM (SELECT doc_id, ts, unnest(range(1, len(ts) - {n} + 2)) AS i
            FROM toks)
    ),
    dup AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= 2),
    cov AS (SELECT doc_id, pos FROM g
            WHERE gram IN (SELECT gram FROM dup)),
    isl AS (
      SELECT doc_id, pos,
             CASE WHEN pos - lag(pos) OVER (PARTITION BY doc_id
                                            ORDER BY pos) <= {n}
                  THEN 0 ELSE 1 END AS brk
      FROM cov
    ),
    isl2 AS (
      SELECT doc_id, pos,
             sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS island
      FROM isl
    )
    SELECT doc_id, min(pos) AS start_tok, max(pos) + {n} AS end_tok,
           count(*) AS n_grams
    FROM isl2 GROUP BY doc_id, island
    """


DUPLICATE_SPANS_SQL = _duplicate_spans_sql(8)


def media_probe(sf_dir: str, k: int = 60):
    """Media codec + header-probe round trip under the EXACT oracle gate:
    the first k doc_ids get a deterministic payload whose shape is pure
    doc_id arithmetic — doc_id%4==0 -> ANIMATED GIF (w=16+id%13,
    h=8+id%7, 1+id%3 frames),
    ==1 -> baseline JPEG (same dims), ==2 -> PCM WAV (8 kHz,
    1000+(id%5)*500 samples), ==3 -> MP4 (library muxer, same dims,
    3+id%5 samples at 40 ms) — ENCODED with the stdlib codecs
    (stages/gif.py, jpeg.py, codecs.py, media_meta.mux_mp4) and probed
    back header-only by the MediaMetadata actor-pool stage. Every output
    field is therefore SQL-predictable, so the driver's value hash
    checks the full encode->probe path."""
    import ray.data

    from anserini_ray.stages import codecs as C
    from anserini_ray.stages import jpeg as J
    from anserini_ray.stages.gif import encode_gif_frames
    from anserini_ray.stages.media_meta import MediaMetadata, mux_mp4

    docs = _docs(sf_dir, ["doc_id"]).sort("doc_id").limit(k)

    def build(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        payloads = []
        for d in ids:
            d = int(d)
            if d % 4 == 2:
                nsamp = 1000 + (d % 5) * 500
                payloads.append(
                    C.encode_wav(np.zeros(nsamp, dtype=np.int16), 8000)
                )
                continue
            w, h = 16 + d % 13, 8 + d % 7
            if d % 4 == 3:
                nsamp = 3 + d % 5
                payloads.append(mux_mp4(
                    [bytes([d % 251]) * (5 + j) for j in range(nsamp)],
                    width=w, height=h, sample_delta=40,
                ))
                continue
            img = (
                (np.arange(h)[:, None] * w + np.arange(w)[None, :])
                * (d + 1) % 256
            ).astype(np.uint8)
            if d % 4 == 0:
                # animated: frame count is doc_id arithmetic too
                nf = 1 + d % 3
                payloads.append(encode_gif_frames(
                    [((img.astype(np.int32) + 7 * j) % 256).astype(
                        np.uint8) for j in range(nf)]
                ))
            else:
                payloads.append(J.encode_jpeg(img))
        return pa.Table.from_arrays(
            [batch["doc_id"], pa.array(payloads, type=pa.large_binary())],
            names=["item_id", "payload"],
        )

    out = docs.map_batches(build, batch_format="pyarrow").map_batches(
        MediaMetadata(), batch_format="pyarrow"
    )

    def project(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t["item_id"], t["kind"], t["codec"], t["width"],
                t["height"], t["sample_rate"], t["n_units"],
                t["duration_s"],
            ],
            names=["doc_id", "kind", "codec", "width", "height",
                   "sample_rate", "n_units", "duration_s"],
        )

    return out.map_batches(project, batch_format="pyarrow")


MEDIA_PROBE_SQL = """
    WITH d AS (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 60)
    SELECT doc_id,
      CASE doc_id % 4 WHEN 2 THEN 'audio' WHEN 3 THEN 'video'
                      ELSE 'image' END AS kind,
      CASE doc_id % 4 WHEN 0 THEN 'gif' WHEN 1 THEN 'jpeg'
                      WHEN 2 THEN 'pcm' ELSE 'avc1' END AS codec,
      CAST(CASE WHEN doc_id % 4 IN (0, 1, 3)
                THEN 16 + doc_id % 13 END AS INTEGER) AS width,
      CAST(CASE WHEN doc_id % 4 IN (0, 1, 3)
                THEN 8 + doc_id % 7 END AS INTEGER) AS height,
      CAST(CASE WHEN doc_id % 4 = 2 THEN 8000 END AS INTEGER)
        AS sample_rate,
      CAST(CASE WHEN doc_id % 4 = 0 THEN 1 + doc_id % 3
                WHEN doc_id % 4 = 2 THEN 1000 + (doc_id % 5) * 500
                WHEN doc_id % 4 = 3 THEN 3 + doc_id % 5
           END AS BIGINT) AS n_units,
      CAST(CASE WHEN doc_id % 4 = 2
                THEN (1000 + (doc_id % 5) * 500) / 8000.0
                WHEN doc_id % 4 = 3
                THEN ((3 + doc_id % 5) * 40) / 1000.0
           END AS DOUBLE) AS duration_s
    FROM d
"""


# Exact 3-gram-shingle Jaccard over all pairs — the DuckDB mirror of
# word_shingles + ngram_jaccard (stages/dedup.py).
MINHASH_DEDUP_SQL = """
    WITH w AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         x -> x <> '') AS wl
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             CASE WHEN len(wl) < 3 THEN [array_to_string(wl, ' ')]
                  ELSE list_distinct(list_transform(
                         generate_series(1, len(wl) - 2),
                         i -> wl[i] || ' ' || wl[i+1] || ' ' || wl[i+2]))
             END AS s
      FROM w WHERE len(wl) > 0
    ),
    p AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             len(list_intersect(a.s, b.s)) AS inter,
             len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)) AS un
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    )
    SELECT doc_a, doc_b, CAST(inter AS DOUBLE) / un AS jaccard
    FROM p WHERE CAST(inter AS DOUBLE) / un >= 0.5
"""

# ngram_jaccard_pairs shares the exact all-pairs oracle: same shingle
# definition, same threshold — only the (exact-recall) blocking differs.
NGRAM_JACCARD_SQL = MINHASH_DEDUP_SQL


def simhash_groups(sf_dir: str):
    """SimHash candidate-group member rows (band_id, band_val, doc_id) —
    one row per member of each >=2-member block-combination bucket.
    SQL-checkable: the md5-based token hashes, per-bit majority vote and
    Manku block keys are all reproduced in DuckDB (SIMHASH_GROUPS_SQL)."""
    g = D.simhash_dedup(_docs(sf_dir, ["doc_id", "text"]))

    def explode_members(batch: pa.Table) -> pa.Table:
        mask = pc.greater(pc.list_value_length(batch["doc_ids"]), 0)
        b = batch.filter(mask)
        lens = pc.list_value_length(b["doc_ids"]).to_numpy()
        idx = pa.array(np.repeat(np.arange(len(b)), lens))
        ids = b["doc_ids"].combine_chunks()
        return pa.Table.from_arrays(
            [
                b["band_id"].take(idx),
                b["band_val"].take(idx),
                ids.flatten(),
            ],
            names=["band_id", "band_val", "doc_id"],
        )

    return g.map_batches(explode_members, batch_format="pyarrow")


def simhash_pairs(sf_dir: str):
    """Verified SimHash near-dup pairs (hamming <= 3 over the 64-bit
    fingerprint; exact by block-combination blocking + distributed verify).
    max_group_size=None: exact all-pairs contract to match the SQL oracle
    (buckets on this corpus are tiny; a 100-TB run would set the cap)."""
    return D.simhash_dedup(
        _docs(sf_dir, ["doc_id", "text"]), verify=True, max_group_size=None
    )


# --- DuckDB mirror of stages/dedup.py simhash64 + Manku blocking: token
# hash = first 8 bytes of md5 little-endian (bit b = bit b%8 of hex byte
# b//8), per-bit majority vote weighted by tf, fingerprint as signed int64.
_SIMHASH_FP_CTE = """
  toks AS (
    SELECT doc_id,
           unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                              x -> x <> '')) AS term
    FROM documents
  ),
  dtf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY 1, 2),
  tokbits AS (
    SELECT term,
           list_transform(generate_series(0, 63), b ->
             (CAST('0x' || substr(md5(term), (b // 8) * 2 + 1, 2) AS INTEGER)
              >> (b % 8)) & 1) AS bits
    FROM (SELECT DISTINCT term FROM dtf)
  ),
  bitsum AS (
    SELECT d.doc_id, bs.b, sum(d.tf * (2 * tb.bits[bs.b + 1] - 1)) AS v
    FROM dtf d JOIN tokbits tb ON d.term = tb.term
    CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) bs
    GROUP BY 1, 2
  ),
  fp AS (
    SELECT doc_id,
           CAST(bit_or(CASE WHEN v > 0 AND b < 63
                            THEN (1::BIGINT << b) ELSE 0 END) AS BIGINT)
           + CASE WHEN max(CASE WHEN b = 63 AND v > 0 THEN 1 ELSE 0 END) = 1
                  THEN -9223372036854775808 ELSE 0 END AS f
    FROM bitsum GROUP BY doc_id
  )
"""

SIMHASH_PAIRS_SQL = "WITH " + _SIMHASH_FP_CTE + """
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(bit_count(xor(a.f, b.f)) AS INTEGER) AS hamming
  FROM fp a JOIN fp b ON a.doc_id < b.doc_id
  WHERE bit_count(xor(a.f, b.f)) <= 3
"""


def _simhash_groups_sql() -> str:
    """Manku C(6,3) block-combination keys in SQL, generated from the same
    block layout as stages/dedup.py _simhash_tables (sizes 11*4 + 10*2)."""
    from itertools import combinations

    sizes = [11, 11, 11, 11, 10, 10]
    starts = [0, 11, 22, 33, 44, 54]
    blk_cols = ", ".join(
        f"CAST(bit_or(CASE WHEN v > 0 AND b >= {s} AND b < {s + w} "
        f"THEN (1::BIGINT << (b - {s})) ELSE 0 END) AS BIGINT) AS blk{j}"
        for j, (s, w) in enumerate(zip(starts, sizes))
    )
    arms = []
    for tid, (b1, b2, b3) in enumerate(combinations(range(6), 3)):
        m2 = 1 << sizes[b3]
        m1 = 1 << (sizes[b2] + sizes[b3])
        arms.append(
            f"SELECT {tid} AS band_id, "
            f"blk{b1}*{m1} + blk{b2}*{m2} + blk{b3} AS band_val, doc_id "
            "FROM blk"
        )
    return (
        "WITH " + _SIMHASH_FP_CTE
        + f""",
  blk AS (SELECT doc_id, {blk_cols} FROM bitsum GROUP BY doc_id),
  keys AS ({' UNION ALL '.join(arms)}),
  big AS (SELECT band_id, band_val FROM keys GROUP BY 1, 2
          HAVING count(*) >= 2)
  SELECT k.band_id, k.band_val, k.doc_id
  FROM keys k JOIN big USING (band_id, band_val)"""
    )


SIMHASH_GROUPS_SQL = _simhash_groups_sql()


# ------------------------------------------------------------------- ANN
ANN_QUERY_IDS = (0, 1, 2)
ANN_K = 5


def _query_vectors(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    vid = t["vec_id"].to_numpy()
    rows = []
    for q in ANN_QUERY_IDS:
        i = int(np.flatnonzero(vid == q)[0])
        rows.append(np.asarray(t["embedding"][i].as_py(), dtype=np.float64))
    return np.stack(rows)


def ann_cosine_topk(sf_dir: str):
    return A.brute_force_cosine_topk(
        _embeddings(sf_dir, ["vec_id", "embedding"]),
        _query_vectors(sf_dir),
        k=ANN_K,
    )


ANN_COSINE_SQL = f"""
    WITH q AS (
      SELECT vec_id AS qid, embedding AS qe FROM embeddings
      WHERE vec_id IN {ANN_QUERY_IDS}
    ),
    sims AS (
      SELECT q.qid, e.vec_id,
             round(list_cosine_similarity(
               CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])), 4
             ) AS cosine
      FROM embeddings e CROSS JOIN q
    ),
    ranked AS (
      SELECT qid, vec_id, cosine,
             row_number() OVER (PARTITION BY qid ORDER BY cosine DESC, vec_id)
               AS rank
      FROM sims
    )
    SELECT CAST(qid AS INTEGER) AS query_idx, CAST(rank AS INTEGER) AS rank,
           vec_id, cosine
    FROM ranked WHERE rank <= {ANN_K}
    ORDER BY query_idx, rank
"""


def ann_lsh_topk(sf_dir: str):
    """SRP-LSH top-k in the DEGENERATE-EXACT configuration (n_bits=0: every
    vector shares the single bucket, recall = 1) so the output provably
    equals brute-force cosine and shares the exact ANN_COSINE_SQL oracle.
    The approximate path (n_bits=8, n_tables=4) is recall-tested in
    tests/; the bucketing/candidate/cap machinery exercised here is the
    same code."""
    return A.lsh_bucket_topk(
        _embeddings(sf_dir, ["vec_id", "embedding"]),
        _query_vectors(sf_dir),
        k=ANN_K,
        n_bits=0,
        n_tables=1,
    )


def ann_ivf_topk(sf_dir: str):
    """IVF coarse-quantizer ANN in the DEGENERATE-EXACT configuration
    (nprobe == nlist: every cell probed, recall = 1) — provably equals
    brute-force cosine, sharing the exact ANN_COSINE_SQL oracle. The
    approximate path (nprobe=6) is recall-tested in tests/test_ivf.py; the
    trainer/assign/probe machinery exercised here is the same code."""
    return A.ivf_topk(
        _embeddings(sf_dir, ["vec_id", "embedding"]),
        _query_vectors(sf_dir),
        k=ANN_K,
        nlist=16,
        nprobe=16,
    )


def embedding_near_dup(sf_dir: str):
    """Near-duplicate vector pairs over the embeddings table AUGMENTED with
    planted exact duplicates (every vec_id % 10 == 0 vector re-appears as
    vec_id + 100000 — a pure rowwise derivation mirrored in SQL). The base
    table's max pairwise cosine is ~0.51, so at threshold 0.99 the verified
    result is exactly the planted pairs: SRP-LSH recall on identical vectors
    is 1 (identical codes in every table), making the LSH+verify output equal
    the exact SQL oracle."""

    def plant(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy()
        sel = np.flatnonzero(vid % 10 == 0)
        extra = batch.take(pa.array(sel))
        new_ids = pa.array(extra["vec_id"].to_numpy() + 100000)
        extra = extra.set_column(
            extra.column_names.index("vec_id"), "vec_id", new_ids
        )
        return pa.concat_tables([batch, extra])

    aug = _embeddings(sf_dir, ["vec_id", "embedding"]).map_batches(
        plant, batch_format="pyarrow"
    )
    pairs = A.embedding_cosine_near_dup(aug, threshold=0.99)

    def round4(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.column_names.index("cosine"),
            "cosine",
            pa.array(np.round(batch["cosine"].to_numpy(), 4)),
        )

    return pairs.map_batches(round4, batch_format="pyarrow")


EMBEDDING_NEAR_DUP_SQL = """
    WITH aug AS (
      SELECT vec_id, embedding FROM embeddings
      UNION ALL
      SELECT vec_id + 100000, embedding FROM embeddings WHERE vec_id % 10 = 0
    ),
    p AS (
      SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
             list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])) AS c
      FROM aug a JOIN aug b ON a.vec_id < b.vec_id
    )
    SELECT vec_a, vec_b, round(c, 4) AS cosine FROM p WHERE c >= 0.99
"""


# --- SLR (sparse latent retrieval) SQL mirror: the engine encodes each
# clipped embedding as '%.4f' activation strings; the SLR analyzer turns
# dimension i into term zfill(i,5) with tf = first 2 decimal digits
# (precision=2), and SlrDotProduct scores q_activation * tf / 100. DuckDB's
# printf('%.4f') is the same correctly-rounded decimal as Python's format,
# so the whole pipeline is reproducible in SQL.
SLR_TOPK_SQL = f"""
    WITH de AS (
      SELECT vec_id, i,
             printf('%.4f', greatest(CAST(embedding[i] AS DOUBLE), 0)) AS s
      FROM embeddings, unnest(generate_series(1, len(embedding))) AS t(i)
    ),
    doc AS (
      SELECT vec_id, i,
             CAST(substr(split_part(s, '.', 2), 1, 2) AS INTEGER) AS tf
      FROM de
      WHERE CAST(substr(split_part(s, '.', 2), 1, 2) AS INTEGER) >= 1
    ),
    q AS (
      SELECT vec_id AS qid, i, CAST(s AS DOUBLE) AS qv
      FROM de WHERE vec_id IN {ANN_QUERY_IDS} AND CAST(s AS DOUBLE) <> 0
    ),
    scores AS (
      SELECT q.qid, d.vec_id,
             round(sum(q.qv * d.tf / 100.0), 4) AS score
      FROM q JOIN doc d ON q.i = d.i
      GROUP BY 1, 2
    ),
    ranked AS (
      SELECT qid, vec_id, score,
             row_number() OVER (
               PARTITION BY qid ORDER BY score DESC, vec_id ASC) AS rank
      FROM scores
    )
    SELECT CAST(qid AS INTEGER) AS query_idx, CAST(rank AS INTEGER) AS rank,
           'vec-' || lpad(CAST(vec_id AS VARCHAR), 10, '0') || ':0' AS doc_id, score
    FROM ranked WHERE rank <= 5
    ORDER BY query_idx, rank
"""


# --- fake-words ANN SQL mirror: int(v*80) quantization (trunc toward zero,
# so negatives drop), analyzed dl = sum of quantized tfs, byte4-quantized
# norm, ClassicSimilarity sqrt(tf)*idf^2/sqrt(dl) with idf = 1+ln(N/(df+1)).
ANN_FAKE_WORDS_SQL = f"""
    WITH de AS (
      SELECT vec_id, i,
             CAST(trunc(CAST(embedding[i] AS DOUBLE) * 80) AS INTEGER) AS tf
      FROM embeddings, unnest(generate_series(1, len(embedding))) AS t(i)
    ),
    doc AS (SELECT vec_id, i, tf FROM de WHERE tf >= 1),
    dl AS (SELECT vec_id, CAST(sum(tf) AS BIGINT) AS dl FROM doc GROUP BY 1),
    qdl AS (
      SELECT vec_id, dl,
             CAST(CASE WHEN dl < 40 THEN dl
                       ELSE dl - ((dl - 24) %
                            CAST(pow(2, floor(log2(dl - 24)) - 3) AS BIGINT))
                  END AS DOUBLE) AS q
      FROM dl
    ),
    stats AS (SELECT count(*) AS n FROM dl),
    df AS (SELECT i, count(*) AS df FROM doc GROUP BY i),
    q AS (
      SELECT vec_id AS qid, i, tf AS qtf FROM doc
      WHERE vec_id IN {ANN_QUERY_IDS}
    ),
    scores AS (
      SELECT q.qid, d.vec_id,
             round(sum(q.qtf * sqrt(d.tf)
                       * pow(1 + ln(s.n / (df.df + 1.0)), 2)
                       / sqrt(greatest(qdl.q, 1.0))), 4) AS score
      FROM q
      JOIN doc d ON d.i = q.i
      JOIN df ON df.i = q.i
      JOIN qdl ON qdl.vec_id = d.vec_id
      CROSS JOIN stats s
      GROUP BY 1, 2
    ),
    ranked AS (
      SELECT qid, vec_id, score,
             row_number() OVER (
               PARTITION BY qid ORDER BY score DESC, vec_id ASC) AS rank
      FROM scores
    )
    SELECT CAST(qid AS INTEGER) AS query_idx, CAST(rank AS INTEGER) AS rank,
           'vec-' || lpad(CAST(vec_id AS VARCHAR), 10, '0') || ':0' AS doc_id,
           score
    FROM ranked WHERE rank <= 5
    ORDER BY query_idx, rank
"""


# -------------------------------------------------------- corpus operators
def decontaminate(sf_dir: str):
    """Benchmark decontamination over the documents table: the 'benchmark'
    is a deterministic slice of the corpus itself (every doc_id % 97 == 0),
    so contaminated == exact-duplicate-or-shingle-overlapping docs of that
    slice — fully SQL-mirrorable."""
    import pyarrow.parquet as pq

    from ..stages.corpus_ops import decontaminate as _dec

    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    mask = np.asarray(t["doc_id"].to_numpy() % 97 == 0)
    bench_texts = [
        x for x, m in zip(t["text"].to_pylist(), mask) if m
    ]
    return _dec(_docs(sf_dir, ["doc_id", "text"]), bench_texts, n=3)


DECONTAMINATE_SQL = """
    WITH w AS (
      SELECT doc_id,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         x -> x <> '') AS wl
      FROM documents
    ),
    sh AS (
      SELECT doc_id,
             CASE WHEN len(wl) < 3 THEN [array_to_string(wl, ' ')]
                  ELSE list_distinct(list_transform(
                         generate_series(1, len(wl) - 2),
                         i -> wl[i] || ' ' || wl[i+1] || ' ' || wl[i+2]))
             END AS s
      FROM w WHERE len(wl) > 0
    ),
    bench AS (
      SELECT DISTINCT unnest(s) AS g FROM sh WHERE doc_id % 97 = 0
    ),
    ov AS (
      SELECT t.doc_id, CAST(count(bench.g) AS BIGINT) AS n_overlap
      FROM (SELECT doc_id, unnest(s) AS g FROM sh) t
      LEFT JOIN bench ON t.g = bench.g
      GROUP BY t.doc_id
    )
    SELECT doc_id, n_overlap, n_overlap >= 1 AS contaminated FROM ov
"""


def hash_split(sf_dir: str):
    """Deterministic 80/10/10 split by md5(doc_id) byte (SQL-mirrorable)."""
    from ..stages.corpus_ops import hash_split as _split

    return _split(_docs(sf_dir, ["doc_id"]))


HASH_SPLIT_SQL = """
    WITH b AS (
      SELECT doc_id,
             CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4)
                  AS INTEGER) % 100 AS bucket
      FROM documents
    )
    SELECT doc_id, CAST(bucket AS BIGINT) AS bucket,
           CASE WHEN bucket < 80 THEN 'train'
                WHEN bucket < 90 THEN 'val'
                ELSE 'test' END AS split
    FROM b
"""


def pack_sequences(sf_dir: str):
    """Greedy 128-token sequence packing over the documents table (groups of
    256 ids; see stages/corpus_ops.pack_sequences for the deterministic
    distributed contract)."""
    from ..stages.corpus_ops import pack_sequences as _pack

    return _pack(
        _docs(sf_dir, ["doc_id", "text"]), budget=128, group_size=256
    )


def pack_sequences_sorted(sf_dir: str):
    """Shuffle-free pack_sequences over the id-sorted documents parquet:
    group-aligned units cut from footer statistics, no exchange or sort (see
    stages/corpus_ops.pack_sequences_sorted). Same output contract and SQL
    oracle as pack_sequences."""
    from ..stages.corpus_ops import pack_sequences_sorted as _pack

    return _pack(
        [f"{sf_dir}/documents.parquet"], budget=128, group_size=256
    )


# Mirror of the greedy scan: a recursive CTE walks each pack group in id
# order carrying (seq_idx, acc) — new sequence whenever acc + tokens would
# exceed the budget (oversized docs get their own sequence).
PACK_SEQUENCES_SQL = """
    WITH RECURSIVE t AS (
      SELECT doc_id, doc_id // 256 AS pack_group,
             CAST(len(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                  x -> x <> '')) AS BIGINT) AS n_tokens,
             row_number() OVER (PARTITION BY doc_id // 256 ORDER BY doc_id)
               AS rn
      FROM documents
    ),
    walk(pack_group, rn, doc_id, n_tokens, seq_idx, acc) AS (
      SELECT pack_group, rn, doc_id, n_tokens, CAST(0 AS BIGINT), n_tokens
      FROM t WHERE rn = 1
      UNION ALL
      SELECT t.pack_group, t.rn, t.doc_id, t.n_tokens,
             CASE WHEN w.acc + t.n_tokens > 128
                  THEN w.seq_idx + 1 ELSE w.seq_idx END,
             CASE WHEN w.acc + t.n_tokens > 128
                  THEN t.n_tokens ELSE w.acc + t.n_tokens END
      FROM walk w
      JOIN t ON t.pack_group = w.pack_group AND t.rn = w.rn + 1
    )
    SELECT doc_id, pack_group, seq_idx, n_tokens FROM walk
"""


# ------------------------------------------------- events windowed aggregate
def _count_and_sum(ds, keys: list[str]):
    """(keys, n_events, sum_value) per key through the hash aggregate, the
    sum rounded to 4 decimals."""

    def finish(batch: pa.Table) -> pa.Table:
        # float64 summation order differs between engines; round for the
        # order-insensitive value-hash comparison. numpy round canonicalizes
        # to the same double as DuckDB's round (pyarrow's pc.round does NOT —
        # it leaves near-boundary doubles untouched)
        rounded = pa.array(np.round(batch["sum_value"].to_numpy(), 4))
        return batch.set_column(len(keys) + 1, "sum_value", rounded)

    return hash_aggregate(
        ds, keys, [("count", None), ("sum", "value")], ["n_events", "sum_value"]
    ).map_batches(finish, batch_format="pyarrow")


def events_windowed(sf_dir: str):
    """Tumbling 1-hour window per event_type: count + sum(value) (the
    streaming-window operator expressed batch-side; reference has no
    streaming — SURVEY §1.1)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def window_key(batch: pa.Table) -> pa.Table:
        w = pc.floor_temporal(batch["ts"], unit="hour")
        return pa.Table.from_arrays(
            [w, batch["event_type"], batch["value"]],
            names=["window_start", "event_type", "value"],
        )

    return _count_and_sum(
        ds.map_batches(window_key, batch_format="pyarrow"),
        ["window_start", "event_type"],
    )


EVENTS_WINDOWED_SQL = """
    SELECT date_trunc('hour', ts) AS window_start, event_type,
           count(*) AS n_events, round(sum(value), 4) AS sum_value
    FROM events GROUP BY 1, 2
"""


# ------------------------------------------------ generic event aggregates
def events_by_type(sf_dir: str):
    """Count / sum / mean value per event_type (generic aggregate surface)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )
    return _count_and_sum(ds, ["event_type"])


EVENTS_BY_TYPE_SQL = """
    SELECT event_type, count(*) AS n_events, round(sum(value), 4) AS sum_value
    FROM events GROUP BY event_type
"""


def top_users_by_events(sf_dir: str, k: int = 20):
    """Top-k users by event count (count desc, user_id asc)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id"]
    )
    return (
        hash_aggregate(ds, ["user_id"], [("count", None)], ["n_events"])
        .sort(["n_events", "user_id"], descending=[True, False])
        .limit(k)
    )


TOP_USERS_SQL = """
    SELECT user_id, count(*) AS n_events
    FROM events GROUP BY user_id
    ORDER BY n_events DESC, user_id ASC LIMIT 20
"""


# --------------------------------------- exact distributed quantiles
_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99)


def length_quantiles(sf_dir: str):
    """Exact token-count quantiles (quantile_cont semantics: linear
    interpolation at q·(n−1)) WITHOUT a distributed sort or sampling: token
    counts are a bounded integer domain, so a (value → count) histogram via
    the Arrow hash aggregate + a driver-side cumulative walk gives exact
    order statistics. At 100 TB the histogram stays ≤ distinct-count rows
    (thousands) regardless of corpus size."""

    def counts(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_tokens": pc.cast(
                    pc.fill_null(
                        pc.count_substring_regex(batch["text"], r"\S+"), 0
                    ),
                    pa.int64(),
                )
            }
        )

    hist_rows = hash_aggregate(
        _docs(sf_dir, ["text"]).map_batches(counts, batch_format="pyarrow"),
        keys=["n_tokens"],
        aggs=[("count", None)],
        out_names=["cnt"],
    ).take_all()  # bounded by the distinct token-count domain, not by docs
    vals = np.array([r["n_tokens"] for r in hist_rows], dtype=np.int64)
    cnts = np.array([r["cnt"] for r in hist_rows], dtype=np.int64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1]) if len(cum) else 0

    def order_stat(i: int) -> float:
        return float(vals[np.searchsorted(cum, i, side="right")])

    if n == 0:
        # quantiles of nothing: all-null vals (mirrors quantile_cont's NULL)
        return pa.table(
            {
                "q": pa.array(list(_QUANTILES), type=pa.float64()),
                "val": pa.array([None] * len(_QUANTILES), type=pa.float64()),
            }
        )
    qs, out = [], []
    for q in _QUANTILES:
        pos = q * (n - 1)
        lo = int(np.floor(pos))
        frac = pos - lo
        v = order_stat(lo)
        if frac > 0:
            v += frac * (order_stat(lo + 1) - v)
        qs.append(q)
        out.append(round(v, 6))
    return pa.table(
        {
            "q": pa.array(qs, type=pa.float64()),
            "val": pa.array(out, type=pa.float64()),
        }
    )


_QLIST = ", ".join(str(q) for q in _QUANTILES)
LENGTH_QUANTILES_SQL = f"""
    WITH t AS (
      -- COALESCE to 0 on NULL text: the Ray side fill_null's the count, so
      -- the oracle must count null-text rows as 0 tokens, not skip them
      SELECT COALESCE(CAST(len(list_filter(
                 regexp_split_to_array(lower(text), '\\s+'),
                 x -> x <> '')) AS BIGINT), 0) AS n_tokens
      FROM documents
    )
    SELECT CAST(unnest([{_QLIST}]) AS DOUBLE) AS q,
           round(unnest(quantile_cont(n_tokens, [{_QLIST}])), 6) AS val
    FROM t
"""


# ------------------------------------------ heavy hitters (Misra–Gries sketch)

_MG_CAPACITY = 16_384  # >= the corpus's distinct bigrams (<=931 across sf
# tiers): no counter ever decrements, so the sketch is provably exact and
# shares the exact SQL oracle (same degenerate-exact pattern as the
# LSH/IVF ANN oracles); the approximate regime is property-tested in pytest


def heavy_hitters(sf_dir: str, k: int = 100):
    """Top-k corpus bigrams via the mergeable Misra–Gries summary —
    capacity-bounded intermediates instead of ngram_counts' full partial
    vocabulary (the 100-TB path). Columns: gram, est_count, max_count,
    n_total."""
    from ..stages.sketch import heavy_hitters as HH

    return HH(
        _docs(sf_dir, ["text"]), n=2, capacity=_MG_CAPACITY, k=k
    )


HEAVY_HITTERS_SQL = f"""
    WITH toks AS (
      SELECT list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         t -> t <> '') AS ts
      FROM documents
    ),
    b2 AS (
      SELECT ts[i] || ' ' || ts[i+1] AS gram
      FROM (SELECT ts, unnest(range(1, len(ts))) AS i FROM toks)
    ),
    tot AS (SELECT count(*) AS n_total FROM b2)
    SELECT gram, count(*) AS est_count,
           count(*) + (SELECT n_total FROM tot) // {_MG_CAPACITY + 1}
             AS max_count,
           (SELECT n_total FROM tot) AS n_total
    FROM b2
    GROUP BY gram ORDER BY est_count DESC, gram ASC LIMIT 100
"""


# -------------------------------------------- temporal operators (stages/temporal.py)
# Gap / window choices exercise real structure in the synthetic event log:
# per-user inter-event gaps have p10 ≈ 69 min and median ≈ 7.3 h, so a 4 h
# session gap yields a mix of multi-event and singleton sessions, a 6 h range
# window leaves most-but-not-all counts zero, and purchase→click as-of leaves
# ~7% of purchases unmatched (the -1 branch).

_SESSION_GAP_US = 4 * 3600 * 1_000_000
_RANGE_WINDOW_US = 6 * 3600 * 1_000_000

_EVENT_COLS = ["event_id", "ts", "user_id", "event_type", "value"]


def _events(sf_dir: str, columns):
    return ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def events_sessionized(sf_dir: str):
    """Per-event gap sessionization (4 h gap): event_id, user_id,
    session_idx, session_seq."""
    from ..stages import temporal as TP

    return TP.sessionize(
        _events(sf_dir, ["event_id", "ts", "user_id"]), _SESSION_GAP_US
    )


_SESSION_CTE = f"""
    o AS (
      SELECT event_id, user_id, ts, value,
             CASE WHEN lag(ts) OVER w IS NULL THEN 0
                  WHEN epoch_us(ts) - epoch_us(lag(ts) OVER w)
                       > {_SESSION_GAP_US} THEN 1
                  ELSE 0 END AS brk
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    ),
    s AS (
      SELECT event_id, user_id, ts, value,
             CAST(sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                 ROWS UNBOUNDED PRECEDING) AS BIGINT)
               AS session_idx
      FROM o
    )
"""

EVENTS_SESSIONIZED_SQL = f"""
    WITH {_SESSION_CTE}
    SELECT event_id, user_id, session_idx,
           CAST(row_number() OVER (PARTITION BY user_id, session_idx
                                   ORDER BY ts, event_id) - 1 AS BIGINT)
             AS session_seq
    FROM s
"""


def session_stats(sf_dir: str):
    """Per-session aggregates (same single shuffle as sessionize): user_id,
    session_idx, n_events, duration_us, sum_value."""
    from ..stages import temporal as TP

    return TP.session_stats(
        _events(sf_dir, ["event_id", "ts", "user_id", "value"]),
        _SESSION_GAP_US,
    )


SESSION_STATS_SQL = f"""
    WITH {_SESSION_CTE}
    SELECT user_id, session_idx, count(*) AS n_events,
           epoch_us(max(ts)) - epoch_us(min(ts)) AS duration_us,
           round(sum(value), 4) AS sum_value
    FROM s GROUP BY user_id, session_idx
"""


def events_asof(sf_dir: str):
    """As-of join: each purchase → latest same-user click with
    click.ts <= purchase.ts (ties → largest click event_id); -1 when no
    prior click exists."""
    from ..stages import temporal as TP

    return TP.asof_join(
        _events(sf_dir, _EVENT_COLS), "purchase", "click"
    )


EVENTS_ASOF_SQL = """
    WITH u AS (
      SELECT event_id, user_id, ts,
             CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS is_left,
             CASE WHEN event_type = 'click' THEN event_id END AS r_id,
             CASE WHEN event_type = 'click' THEN ts END AS r_ts
      FROM events WHERE event_type IN ('purchase', 'click')
    ),
    f AS (
      SELECT event_id, user_id, ts, is_left,
             last_value(r_id IGNORE NULLS) OVER w AS m_id,
             last_value(r_ts IGNORE NULLS) OVER w AS m_ts
      FROM u
      WINDOW w AS (PARTITION BY user_id ORDER BY ts, is_left, event_id
                   ROWS UNBOUNDED PRECEDING)
    )
    SELECT event_id, user_id,
           COALESCE(m_id, -1) AS matched_event_id,
           COALESCE(epoch_us(ts) - epoch_us(m_ts), -1) AS lag_us
    FROM f WHERE is_left = 1
"""


def events_range_join(sf_dir: str):
    """Range join: each error → count + sum(value) of same-user clicks in
    the preceding 6 h (inclusive both ends)."""
    from ..stages import temporal as TP

    return TP.range_count_join(
        _events(sf_dir, _EVENT_COLS), "error", "click", _RANGE_WINDOW_US
    )


EVENTS_RANGE_JOIN_SQL = """
    SELECT l.event_id, l.user_id,
           count(r.event_id) AS n_in_window,
           round(COALESCE(sum(r.value), 0), 4) AS sum_value_in_window
    FROM (SELECT * FROM events WHERE event_type = 'error') l
    LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') r
      ON r.user_id = l.user_id
     AND r.ts BETWEEN l.ts - INTERVAL 6 HOUR AND l.ts
    GROUP BY l.event_id, l.user_id
"""
