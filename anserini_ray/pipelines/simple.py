"""SQL-oracle-checkable corpus pipelines (whitespace tokenizer).

These mirror index-side aggregations of the engine (df/cf/doc-length/top-df,
`J/index/IndexReaderUtils.java:147-221`, `J/util/ExtractTopDfTerms.java`,
`ExtractDocumentLengths.java`) and the full BM25 batch-scoring semantics
(`SearchCollection.java` + `AccurateBM25Similarity.java`) — but use a plain
whitespace+lowercase tokenizer and float64 math so every pipeline has an
EXACT DuckDB SQL equivalent for the driver's correctness harness. The
Porter-analyzed float32 engine itself is verified separately against the
brute-force oracle in tests/.

All pipelines stream: read_parquet (pruned columns) → map_batches →
groupby/aggregate; driver-side materialization only of final small results.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..sources.transcripts import transcripts_from_documents
from ..stages.hashagg import hash_aggregate


def simple_tokens(text: str) -> list[str]:
    """Whitespace + lowercase tokenization — SQL mirror:
    ``unnest(regexp_split_to_array(lower(text), '\\s+'))`` filtered of ''. """
    return text.lower().split()


def _doc_id_col(batch: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(
        batch["conv_id"].combine_chunks(),
        pc.cast(batch["turn_idx"], pa.string()).combine_chunks(),
        ":",
    )


def _explode_simple(batch: pa.Table) -> pa.Table:
    """(conv_id, turn_idx, text) -> exploded (doc_id, term, tf, dl) rows
    (one row per distinct term per doc), non-empty docs only."""
    doc_ids = _doc_id_col(batch).to_pylist()
    texts = batch["text"].to_pylist()
    out_doc, out_term, out_tf, out_dl = [], [], [], []
    for did, text in zip(doc_ids, texts):
        if text is None or not text.strip():
            continue
        toks = simple_tokens(text)
        counts: dict[str, int] = {}
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
        dl = len(toks)
        for t, c in counts.items():
            out_doc.append(did)
            out_term.append(t)
            out_tf.append(c)
            out_dl.append(dl)
    return pa.Table.from_arrays(
        [
            pa.array(out_doc, type=pa.string()),
            pa.array(out_term, type=pa.string()),
            pa.array(out_tf, type=pa.int64()),
            pa.array(out_dl, type=pa.int64()),
        ],
        names=["doc_id", "term", "tf", "dl"],
    )


def exploded_terms(sf_dir: str):
    return transcripts_from_documents(sf_dir).map_batches(
        _explode_simple, batch_format="pyarrow"
    )


# ------------------------------------------------------------------ queries
def term_df_cf(sf_dir: str):
    """Per-term document frequency + collection frequency (Arrow-kernel
    hash aggregate — per-block combine, crc32 partition, per-partition
    merge; see stages/hashagg.py)."""
    ds = exploded_terms(sf_dir)
    return hash_aggregate(
        ds, ["term"], [("count", None), ("sum", "tf")], ["df", "cf"]
    )


def doc_lengths(sf_dir: str):
    """Per-doc token count (ExtractDocumentLengths analog); hash-aggregated
    (500K string keys at sf0.1 — the sort-based groupby shape Ray would
    otherwise use is the measured bottleneck)."""
    ds = exploded_terms(sf_dir)
    return hash_aggregate(ds, ["doc_id"], [("sum", "tf")], ["dl"])


def top_terms(sf_dir: str, k: int = 50):
    """Top-k terms by df (ExtractTopDfTerms analog); deterministic order."""
    stats = term_df_cf(sf_dir)
    out = stats.sort(["df", "term"], descending=[True, False]).limit(k)
    return out


def collection_stats(sf_dir: str):
    """Single-row doc_count / sum_dl / avgdl (collectionStatistics analog)."""
    # materialize once: count() and sum() would each execute the lazy
    # doc_lengths pipeline (the write_termstats double-execution lesson)
    dl = doc_lengths(sf_dir).materialize()
    n = dl.count()
    s = dl.sum("dl")
    return pa.Table.from_arrays(
        [
            pa.array([n], type=pa.int64()),
            pa.array([s], type=pa.int64()),
            pa.array([s / n], type=pa.float64()),
        ],
        names=["doc_count", "sum_dl", "avgdl"],
    )


# Fixed benchmark query set (vocabulary of the synthetic documents corpus).
# 'window window' exercises additive duplicate clauses
# (BagOfWordsQueryGenerator.java:37-41).
SIMPLE_QUERIES: list[tuple[int, str]] = [
    (1, "merge sort"),
    (2, "hash join"),
    (3, "window window"),
    (4, "the fast table scan"),
    (5, "spark streaming data"),
    (6, "customer line value"),
    (7, "vector"),
    (8, "slow query plan"),
    (9, "big batch group agg"),
    (10, "key order filter row"),
]

BM25_K1 = 0.9
BM25_B = 0.4
BM25_TOPK = 10


def _query_clauses(queries=SIMPLE_QUERIES) -> list[tuple[int, str, int]]:
    out = []
    for qid, text in queries:
        counts: dict[str, int] = {}
        for t in simple_tokens(text):
            counts[t] = counts.get(t, 0) + 1
        out.extend((qid, t, c) for t, c in counts.items())
    return out


def query_clauses_sql_values(queries=SIMPLE_QUERIES) -> str:
    return ", ".join(
        f"({qid}, '{term}', {cnt})" for qid, term, cnt in _query_clauses(queries)
    )


def _rank_topk(scored, k: int):
    """(qid, doc_id, score) Dataset -> per-qid top-k ranked table.
    Rows are unique per (qid, doc_id) after the hash aggregate, so each
    block emits its own top-k per qid (round4 desc, doc asc) and the
    driver merges k x nparts candidate rows — no qid sort shuffle."""

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_arrays(
                [
                    pa.array([], type=pa.int32()),
                    pa.array([], type=pa.string()),
                    pa.array([], type=pa.float64()),
                ],
                names=["qid", "doc_id", "score"],
            )
        qids = batch["qid"].to_numpy()
        docs = batch["doc_id"].to_pylist()
        sc = np.round(batch["score"].to_numpy(), 4)
        keep = []
        for q in np.unique(qids):
            rows = np.flatnonzero(qids == q)
            rows = sorted(rows, key=lambda i: (-sc[i], docs[i]))[:k]
            keep.extend(rows)
        keep_arr = pa.array(np.asarray(keep, dtype=np.int64))
        return pa.Table.from_arrays(
            [
                pc.cast(batch["qid"].take(keep_arr), pa.int32()),
                batch["doc_id"].take(keep_arr),
                pa.array(sc[keep], type=pa.float64()),
            ],
            names=["qid", "doc_id", "score"],
        )

    partials = scored.map_batches(block_topk, batch_format="pyarrow").take_all()
    by_q: dict[int, list] = {}
    for r in partials:
        by_q.setdefault(int(r["qid"]), []).append((r["doc_id"], r["score"]))
    out_q, out_r, out_d, out_s = [], [], [], []
    for q in sorted(by_q):
        cands = sorted(by_q[q], key=lambda x: (-x[1], x[0]))[:k]
        for rank, (d, scv) in enumerate(cands):
            out_q.append(q)
            out_r.append(rank + 1)
            out_d.append(d)
            out_s.append(scv)
    return pa.Table.from_arrays(
        [
            pa.array(out_q, type=pa.int32()),
            pa.array(out_r, type=pa.int32()),
            pa.array(out_d, type=pa.string()),
            pa.array(out_s, type=pa.float64()),
        ],
        names=["qid", "rank", "doc_id", "score"],
    )


def bm25_topk_simple(sf_dir: str, queries=SIMPLE_QUERIES, k: int = BM25_TOPK):
    """Distributed batch BM25 (float64, whitespace tokens, k1=0.9 b=0.4) —
    the SQL-checkable mirror of the engine's scoring semantics.

    Plan: exploded postings → [small] df aggregate broadcast via ray.put →
    map_batches partial scoring against the broadcast clause table →
    groupby(qid, doc_id) sum → per-qid top-k (round(1e-4) then
    (score desc, doc_id asc), mirroring ties-adjust determinism) → final
    ranked table. The only wide ops are one small groupby on the candidate
    set; postings never leave their batch unscored."""
    ds = exploded_terms(sf_dir).materialize()

    # collection stats via the Arrow hash aggregate (dl repeats per
    # exploded term row -> max per doc), then two tiny reductions
    per_doc = hash_aggregate(
        ds, ["doc_id"], [("max", "dl")], ["dl"]
    ).materialize()
    n_docs = per_doc.count()
    sum_dl = per_doc.sum("dl")
    avgdl = sum_dl / n_docs
    clauses = _query_clauses(queries)
    qterms = {t for _, t, _ in clauses}

    def df_partial(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["term"], pa.array(list(qterms)))
        sub = batch.filter(mask)
        uniq, counts = np.unique(
            np.asarray(sub["term"].to_pylist(), dtype=object), return_counts=True
        )
        return pa.Table.from_arrays(
            [pa.array(uniq.astype(str)), pa.array(counts, type=pa.int64())],
            names=["term", "pdf"],
        )

    df_rows = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("pdf"))
        .take_all()
    )
    df_map = {r["term"]: int(r["sum(pdf)"]) for r in df_rows}
    idf = {
        t: float(np.log(1 + (n_docs - df_map.get(t, 0) + 0.5) / (df_map.get(t, 0) + 0.5)))
        for t in qterms
    }
    clause_info = [
        (qid, t, cnt, idf[t]) for qid, t, cnt in clauses if df_map.get(t, 0) > 0
    ]
    broadcast = ray.put((clause_info, avgdl))

    def score_partial(batch: pa.Table) -> pa.Table:
        cinfo, avg = ray.get(broadcast)
        terms = batch["term"].to_pylist()
        tfs = batch["tf"].to_numpy().astype(np.float64)
        dls = batch["dl"].to_numpy().astype(np.float64)
        denom_base = BM25_K1 * (1 - BM25_B + BM25_B * dls / avg)
        qids_out, docs_out, contribs = [], [], []
        term_arr = np.asarray(terms, dtype=object)
        doc_arr = batch["doc_id"].to_pylist()
        for qid, t, cnt, w in cinfo:
            hit = np.flatnonzero(term_arr == t)
            if hit.size == 0:
                continue
            c = cnt * w * tfs[hit] / (tfs[hit] + denom_base[hit])
            for i, h in enumerate(hit):
                qids_out.append(qid)
                docs_out.append(doc_arr[h])
                contribs.append(float(c[i]))
        return pa.Table.from_arrays(
            [
                pa.array(qids_out, type=pa.int32()),
                pa.array(docs_out, type=pa.string()),
                pa.array(contribs, type=pa.float64()),
            ],
            names=["qid", "doc_id", "contrib"],
        )

    scored = hash_aggregate(
        ds.map_batches(score_partial, batch_format="pyarrow"),
        ["qid", "doc_id"],
        [("sum", "contrib")],
        ["score"],
    )
    return _rank_topk(scored, k)


# ------------------------------------------------------------- oracle SQL
_TOKS_CTE = """
  docs AS (
    SELECT conv_id || ':' || CAST(turn_idx AS VARCHAR) AS doc_id, text
    FROM transcripts WHERE trim(text) <> ''
  ),
  toks AS (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term
    FROM docs
  ),
  toks2 AS (SELECT doc_id, term FROM toks WHERE term <> ''),
  tf AS (SELECT doc_id, term, count(*) AS tf FROM toks2 GROUP BY 1, 2),
  dl AS (SELECT doc_id, count(*) AS dl FROM toks2 GROUP BY 1)
"""


def _with_transcripts(body: str) -> str:
    from ..sources.transcripts import TRANSCRIPTS_SQL

    return f"WITH transcripts AS ({TRANSCRIPTS_SQL}), {body}"


def term_df_cf_sql() -> str:
    return _with_transcripts(
        _TOKS_CTE
        + """
        SELECT term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS cf
        FROM tf GROUP BY term"""
    )


def doc_lengths_sql() -> str:
    return _with_transcripts(
        _TOKS_CTE + "\nSELECT doc_id, CAST(dl AS BIGINT) AS dl FROM dl"
    )


def top_terms_sql(k: int = 50) -> str:
    return _with_transcripts(
        _TOKS_CTE
        + f"""
        SELECT term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS cf
        FROM tf GROUP BY term
        ORDER BY df DESC, term ASC LIMIT {k}"""
    )


def collection_stats_sql() -> str:
    return _with_transcripts(
        _TOKS_CTE
        + """
        SELECT count(*) AS doc_count, CAST(sum(dl) AS BIGINT) AS sum_dl,
               sum(dl) / count(*) AS avgdl
        FROM dl"""
    )


def bm25_topk_simple_sql(queries=SIMPLE_QUERIES, k: int = BM25_TOPK) -> str:
    values = query_clauses_sql_values(queries)
    return _with_transcripts(
        _TOKS_CTE
        + f""",
  stats AS (SELECT count(*) AS n, sum(dl) * 1.0 / count(*) AS avgdl FROM dl),
  q(qid, term, cnt) AS (VALUES {values}),
  df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
  scores AS (
    SELECT q.qid, tf.doc_id,
           sum(q.cnt * ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
               * tf.tf / (tf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * dl.dl / s.avgdl))
           ) AS score
    FROM q
    JOIN tf ON q.term = tf.term
    JOIN df ON df.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id
    CROSS JOIN stats s
    GROUP BY q.qid, tf.doc_id
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM scores
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )


# ----------------------------------------------- analyzed-engine SQL mirror
# The synthetic transcript corpus has a FIXED 31-word vocabulary of clean
# lowercase [a-z]+ words (verified identical across sf0.001/0.01/0.1), so
# the full Porter-analyzed term space is expressible in SQL as a static
# (word -> stem) VALUES map; stopwords ('a', 'the') are simply absent from
# the map, mirroring the Lucene stop filter running before stemming. Built
# once at import from the repo's own analyzer — deterministic, no data
# dependency.
_CORPUS_VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join "
    "key line merge order part plan query row scan slow small sort spark "
    "stream streaming table the value vector window"
).split()


def _build_stem_map() -> dict[str, str]:
    from ..analysis.analyzer import make_analyzer

    an = make_analyzer()
    out = {}
    for w in _CORPUS_VOCAB:
        toks = an.analyze(w)
        if toks:  # stopwords analyze to []
            out[w] = toks[0]
    return out


STEM_MAP = _build_stem_map()

STEM_VALUES_SQL = ", ".join(
    f"('{w}', '{s}')" for w, s in sorted(STEM_MAP.items())
)

# Analyzed (term, doc) CTE over the transcripts: whitespace tokens joined to
# the static stem map (drops stopwords), per-doc tf + analyzed dl + the
# stock-Lucene byte4-quantized dl (closed form, verified 0..100000 against
# norms.quantize_lengths).
_ATOKS_CTE = f"""
  stem(word, term) AS (VALUES {STEM_VALUES_SQL}),
  docs AS (
    SELECT conv_id || ':' || CAST(turn_idx AS VARCHAR) AS doc_id, text
    FROM transcripts WHERE trim(text) <> ''
  ),
  rtoks AS (
    SELECT doc_id,
           unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                              x -> x <> '')) AS word
    FROM docs
  ),
  atoks AS (
    SELECT t.doc_id, s.term FROM rtoks t JOIN stem s ON t.word = s.word
  ),
  atf AS (SELECT doc_id, term, count(*) AS tf FROM atoks GROUP BY 1, 2),
  adl AS (SELECT doc_id, count(*) AS dl FROM atoks GROUP BY 1),
  aqdl AS (
    SELECT doc_id, dl,
           CAST(CASE WHEN dl < 40 THEN dl
                     ELSE dl - ((dl - 24) %
                          CAST(pow(2, floor(log2(dl - 24)) - 3) AS BIGINT))
                END AS DOUBLE) AS qdl
    FROM adl
  )
"""


def analyzed_query_clause_values(queries=SIMPLE_QUERIES) -> str:
    """(qid, analyzed term, clause count) VALUES for the benchmark queries —
    additive duplicate clauses like BagOfWordsQueryGenerator."""
    from ..analysis.analyzer import make_analyzer

    an = make_analyzer()
    rows = []
    for qid, text in queries:
        counts: dict[str, int] = {}
        for t in an.analyze(text):
            counts[t] = counts.get(t, 0) + 1
        rows.extend((qid, t, c) for t, c in counts.items())
    return ", ".join(f"({qid}, '{t}', {c})" for qid, t, c in rows)


def index_term_stats_sql() -> str:
    """df/cf per analyzed term — mirror of the built index's termstats."""
    return _with_transcripts(
        _ATOKS_CTE
        + """
        SELECT term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS cf
        FROM atf GROUP BY term"""
    )


def index_top_df_terms_sql(k: int = 100) -> str:
    return _with_transcripts(
        _ATOKS_CTE
        + f"""
        SELECT term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS cf
        FROM atf GROUP BY term
        ORDER BY df DESC, term ASC LIMIT {k}"""
    )


def bm25_topk_engine_sql(queries=SIMPLE_QUERIES, k: int = BM25_TOPK) -> str:
    """BM25 (k1=0.9 b=0.4) over ANALYZED terms with byte4-quantized doc
    lengths — the float64 mirror of the engine's scoring semantics
    (`search/bm25.py` "lucene" mode; see
    __ray_entry__._exhaustive_f64_topk for the float64 contract)."""
    values = analyzed_query_clause_values(queries)
    return _with_transcripts(
        _ATOKS_CTE
        + f""",
  stats AS (SELECT count(*) AS n, sum(dl) * 1.0 / count(*) AS avgdl FROM adl),
  q(qid, term, cnt) AS (VALUES {values}),
  gdf AS (SELECT term, count(*) AS df FROM atf GROUP BY term),
  scores AS (
    SELECT q.qid, atf.doc_id,
           sum(q.cnt * ln(1 + (s.n - gdf.df + 0.5) / (gdf.df + 0.5))
               * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           ) AS score
    FROM q
    JOIN atf ON q.term = atf.term
    JOIN gdf ON gdf.term = q.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY q.qid, atf.doc_id
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM scores
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )


def qld_topk_engine_sql(queries=SIMPLE_QUERIES, k: int = BM25_TOPK) -> str:
    """QL-Dirichlet (mu=1000) over ANALYZED terms with byte4-quantized doc
    lengths — float64 mirror of `similarities.QLDirichlet` on the built
    index."""
    values = analyzed_query_clause_values(queries)
    return _with_transcripts(
        _ATOKS_CTE
        + f""",
  stats AS (SELECT CAST(sum(tf) AS DOUBLE) AS c FROM atf),
  q(qid, term, cnt) AS (VALUES {values}),
  gcf AS (SELECT term, CAST(sum(tf) AS DOUBLE) AS cf FROM atf GROUP BY term),
  scores AS (
    SELECT q.qid, atf.doc_id,
           sum(q.cnt * greatest(
             ln(1 + atf.tf / ({QLD_MU} * ((gcf.cf + 1) / (s.c + 1))))
             + ln({QLD_MU} / (aqdl.qdl + {QLD_MU})), 0)
           ) AS score
    FROM q
    JOIN atf ON q.term = atf.term
    JOIN gcf ON gcf.term = q.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY q.qid, atf.doc_id
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM scores
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )


def phrase_topk_engine_sql(queries=SIMPLE_QUERIES, k: int = BM25_TOPK) -> str:
    """Exact-phrase retrieval mirror: docs whose ANALYZED terms occur at
    consecutive original-token positions (stopwords consume positions, like
    Lucene position increments), BM25-scored over the phrase terms (float64,
    byte4 dl) — the SQL twin of `LocalSearcher.phrase_search(slop=0)`."""
    from ..analysis.analyzer import make_analyzer

    an = make_analyzer()
    arms = []
    clause_rows = []
    for qid, text in queries:
        terms = an.analyze(text)
        if not terms:
            continue
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        clause_rows.extend((qid, t, c) for t, c in counts.items())
        joins = []
        for i, t in enumerate(terms[1:], start=1):
            joins.append(
                f"JOIN stoks s{i} ON s{i}.doc_id = s0.doc_id "
                f"AND s{i}.pos = s0.pos + {i} AND s{i}.term = '{t}'"
            )
        arms.append(
            f"SELECT DISTINCT {qid} AS qid, s0.doc_id FROM stoks s0 "
            + " ".join(joins)
            + f" WHERE s0.term = '{terms[0]}'"
        )
    values = ", ".join(f"({q}, '{t}', {c})" for q, t, c in clause_rows)
    return _with_transcripts(
        _ATOKS_CTE
        + f""",
  pwords AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(lower(text), '\\s+'),
                       x -> x <> '') AS wl
    FROM docs
  ),
  prtoks AS (
    SELECT doc_id, wl[i] AS word, i AS pos
    FROM pwords, unnest(generate_series(1, len(wl))) AS u(i)
  ),
  stoks AS (
    SELECT r.doc_id, s.term, r.pos FROM prtoks r JOIN stem s ON r.word = s.word
  ),
  matched AS ({' UNION ALL '.join(arms)}),
  stats AS (SELECT count(*) AS n, sum(dl) * 1.0 / count(*) AS avgdl FROM adl),
  q(qid, term, cnt) AS (VALUES {values}),
  gdf AS (SELECT term, count(*) AS df FROM atf GROUP BY term),
  scores AS (
    SELECT q.qid, atf.doc_id,
           sum(q.cnt * ln(1 + (s.n - gdf.df + 0.5) / (gdf.df + 0.5))
               * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           ) AS score
    FROM q
    JOIN atf ON q.term = atf.term
    JOIN matched m ON m.qid = q.qid AND m.doc_id = atf.doc_id
    JOIN gdf ON gdf.term = q.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY q.qid, atf.doc_id
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM scores
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )


def rm3_topk_engine_sql(
    queries=SIMPLE_QUERIES,
    k: int = BM25_TOPK,
    fb_terms: int = 10,
    fb_docs: int = 10,
    orig_weight: float = 0.5,
) -> str:
    """RM3 (deterministic-tie-break float64 variant, see
    __ray_entry__._rm3_topk) fully in SQL: raw first-pass BM25 → top-10
    feedback docs (score desc, docid asc) → per-doc term vectors filtered
    (len 2..20, alnum, df/N <= 0.1) and pruned to 10 (tf desc, term asc) →
    relevance-model weights Σ (tf/docnorm)·docscore → top-10 (w desc, term
    asc), unit-L1 → interpolate 0.5 with the unit-L1 query model → weighted
    second-pass BM25, round4 ranking."""
    values = analyzed_query_clause_values(queries)
    return _with_transcripts(
        _ATOKS_CTE
        + f""",
  stats AS (SELECT count(*) AS n, sum(dl) * 1.0 / count(*) AS avgdl FROM adl),
  q(qid, term, cnt) AS (VALUES {values}),
  gdf AS (SELECT term, count(*) AS df FROM atf GROUP BY term),
  first_pass AS (
    SELECT q.qid, atf.doc_id,
           sum(q.cnt * ln(1 + (s.n - gdf.df + 0.5) / (gdf.df + 0.5))
               * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           ) AS raw_score
    FROM q
    JOIN atf ON q.term = atf.term
    JOIN gdf ON gdf.term = q.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY q.qid, atf.doc_id
  ),
  first_r AS (SELECT qid, doc_id, round(raw_score, 4) AS score
              FROM first_pass),
  fb AS (
    SELECT qid, doc_id, score FROM (
      SELECT qid, doc_id, score,
             row_number() OVER (
               PARTITION BY qid ORDER BY score DESC, doc_id ASC) AS rn
      FROM first_r
    ) WHERE rn <= {fb_docs}
  ),
  dv AS (
    SELECT fb.qid, fb.doc_id, fb.score, atf.term, CAST(atf.tf AS DOUBLE) AS tf
    FROM fb
    JOIN atf ON atf.doc_id = fb.doc_id
    JOIN gdf ON gdf.term = atf.term
    CROSS JOIN stats s
    WHERE length(atf.term) BETWEEN 2 AND 20
      AND gdf.df * 1.0 / s.n <= 0.1
  ),
  dvp AS (
    SELECT qid, doc_id, score, term, tf FROM (
      SELECT qid, doc_id, score, term, tf,
             row_number() OVER (
               PARTITION BY qid, doc_id ORDER BY tf DESC, term ASC) AS rn
      FROM dv
    ) WHERE rn <= {fb_terms}
  ),
  dnorm AS (
    SELECT qid, doc_id, sum(tf) AS norm FROM dvp GROUP BY 1, 2
  ),
  rmw AS (
    SELECT d.qid, d.term,
           round(sum((d.tf / dn.norm) * d.score), 6) AS w
    FROM dvp d JOIN dnorm dn ON dn.qid = d.qid AND dn.doc_id = d.doc_id
    WHERE dn.norm > 0.001
    GROUP BY 1, 2
  ),
  rmtop AS (
    SELECT qid, term, w FROM (
      SELECT qid, term, w,
             row_number() OVER (
               PARTITION BY qid ORDER BY w DESC, term ASC) AS rn
      FROM rmw
    ) WHERE rn <= {fb_terms}
  ),
  rml1 AS (SELECT qid, sum(w) AS l1 FROM rmtop GROUP BY qid),
  qtot AS (SELECT qid, sum(cnt) * 1.0 AS tot FROM q GROUP BY qid),
  interp AS (
    SELECT COALESCE(a.qid, b.qid) AS qid,
           COALESCE(a.term, b.term) AS term,
           COALESCE({orig_weight} * a.cnt / qt.tot, 0)
           + COALESCE((1 - {orig_weight}) * b.w / rl.l1, 0) AS w
    FROM q a
    FULL OUTER JOIN rmtop b ON a.qid = b.qid AND a.term = b.term
    LEFT JOIN qtot qt ON qt.qid = COALESCE(a.qid, b.qid)
    LEFT JOIN rml1 rl ON rl.qid = COALESCE(a.qid, b.qid)
  ),
  second AS (
    SELECT i.qid, atf.doc_id,
           sum(i.w * ln(1 + (s.n - gdf.df + 0.5) / (gdf.df + 0.5))
               * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           ) AS score
    FROM interp i
    JOIN atf ON i.term = atf.term
    JOIN gdf ON gdf.term = i.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY i.qid, atf.doc_id
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM second
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )


def bm25prf_topk_engine_sql(
    queries=SIMPLE_QUERIES,
    k: int = BM25_TOPK,
    fb_terms: int = 20,
    fb_docs: int = 10,
    new_term_weight: float = 0.2,
) -> str:
    """BM25PRF (deterministic float64 variant, see
    __ray_entry__._bm25prf_topk) in SQL: round4 first pass → top-10
    feedback docs → Robertson offer weights over new terms (df_rel >= 2,
    len 2..20, not all-digits), round6 + term-asc tie-break, top-20 →
    second-pass BM25 with idf ≡ 1 and relevance-weight boosts."""
    values = analyzed_query_clause_values(queries)
    return _with_transcripts(
        _ATOKS_CTE
        + f""",
  stats AS (SELECT count(*) AS n, sum(dl) * 1.0 / count(*) AS avgdl FROM adl),
  q(qid, term, cnt) AS (VALUES {values}),
  gdf AS (SELECT term, count(*) AS df FROM atf GROUP BY term),
  first_pass AS (
    SELECT q.qid, atf.doc_id,
           round(sum(q.cnt * ln(1 + (s.n - gdf.df + 0.5) / (gdf.df + 0.5))
               * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           ), 4) AS score
    FROM q
    JOIN atf ON q.term = atf.term
    JOIN gdf ON gdf.term = q.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY q.qid, atf.doc_id
  ),
  fb AS (
    SELECT qid, doc_id FROM (
      SELECT qid, doc_id,
             row_number() OVER (
               PARTITION BY qid ORDER BY score DESC, doc_id ASC) AS rn
      FROM first_pass
    ) WHERE rn <= {fb_docs}
  ),
  numrel AS (SELECT qid, count(*) AS r FROM fb GROUP BY qid),
  dfrel AS (
    SELECT fb.qid, atf.term, count(DISTINCT atf.doc_id) AS df_rel
    FROM fb JOIN atf ON atf.doc_id = fb.doc_id
    GROUP BY 1, 2
  ),
  cand AS (
    SELECT d.qid, d.term, gdf.df, d.df_rel, nr.r,
           greatest(ln((d.df_rel + 0.5) * (s.n - gdf.df - nr.r + d.df_rel + 0.5)
                 / ((gdf.df - d.df_rel + 0.5) * (nr.r - d.df_rel + 0.5)))
                 * {new_term_weight}, 0.000001) AS rw
    FROM dfrel d
    JOIN gdf ON gdf.term = d.term
    JOIN numrel nr ON nr.qid = d.qid
    CROSS JOIN stats s
    WHERE d.df_rel >= 2
      AND length(d.term) BETWEEN 2 AND 20
      AND NOT regexp_matches(d.term, '^[0-9]+$')
      AND NOT EXISTS (SELECT 1 FROM q WHERE q.qid = d.qid AND q.term = d.term)
  ),
  new_kept AS (
    SELECT qid, term, rw FROM (
      SELECT qid, term, rw,
             row_number() OVER (
               PARTITION BY qid
               ORDER BY round(rw * ln(greatest(df_rel, 0.000001)), 6) DESC,
                        term ASC) AS rn
      FROM cand
    ) WHERE rn <= {fb_terms}
  ),
  orig_w AS (
    SELECT q.qid, q.term,
           greatest(ln((COALESCE(d.df_rel, 0) + 0.5)
                 * (s.n - gdf.df - nr.r + COALESCE(d.df_rel, 0) + 0.5)
                 / ((gdf.df - COALESCE(d.df_rel, 0) + 0.5)
                    * (nr.r - COALESCE(d.df_rel, 0) + 0.5))), 0.000001) AS rw
    FROM q
    JOIN gdf ON gdf.term = q.term
    JOIN numrel nr ON nr.qid = q.qid
    LEFT JOIN dfrel d ON d.qid = q.qid AND d.term = q.term
    CROSS JOIN stats s
  ),
  allw AS (
    SELECT qid, term, rw FROM new_kept
    UNION ALL
    SELECT qid, term, rw FROM orig_w
  ),
  second AS (
    SELECT w.qid, atf.doc_id,
           sum(w.rw * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           ) AS score
    FROM allw w
    JOIN atf ON w.term = atf.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY w.qid, atf.doc_id
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM second
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )


def axiom_topk_engine_sql(
    queries=SIMPLE_QUERIES,
    k: int = BM25_TOPK,
    beta: float = 0.4,
    m_terms: int = 20,
) -> str:
    """Axiomatic expansion (full-pool deterministic float64 variant, see
    __ray_entry__._axiom_topk) in SQL: pairwise mutual information over
    per-term doc sets (joint df via an atf self-join), expansion weight
    idf_q*beta*qtf*MI/selfMI (idf_q*qtf for the query term itself),
    aggregated, round6, top-20 per query, weighted second-pass BM25."""
    values = analyzed_query_clause_values(queries)
    return _with_transcripts(
        _ATOKS_CTE
        + f""",
  stats AS (SELECT count(*) AS n, sum(dl) * 1.0 / count(*) AS avgdl FROM adl),
  total AS (SELECT CAST(count(*) AS DOUBLE) AS t FROM adl),
  q(qid, term, cnt) AS (VALUES {values}),
  qlen AS (SELECT qid, CAST(sum(cnt) AS BIGINT) AS n_toks FROM q GROUP BY qid),
  gdf AS (SELECT term, count(*) AS df FROM atf GROUP BY term),
  joint AS (
    SELECT a.term AS qt, b.term AS t, count(*) AS n11
    FROM atf a JOIN atf b ON a.doc_id = b.doc_id
    WHERE a.term IN (SELECT DISTINCT term FROM q)
    GROUP BY 1, 2
  ),
  pairs AS (
    SELECT qq.qid, qq.term AS qt, qq.cnt AS qtf, v.term AS t,
           CAST(gx.df AS DOUBLE) AS x1, CAST(v.df AS DOUBLE) AS y1,
           CAST(COALESCE(j.n11, 0) AS DOUBLE) AS n11, tt.t AS tot
    FROM q qq
    JOIN gdf gx ON gx.term = qq.term
    CROSS JOIN gdf v
    LEFT JOIN joint j ON j.qt = qq.term AND j.t = v.term
    CROSS JOIN total tt
  ),
  mi AS (
    SELECT qid, qt, qtf, t, x1,
           CASE WHEN x1 = 0 OR x1 = tot OR y1 = 0 OR y1 = tot THEN 0.0
                ELSE
             (CASE WHEN (tot - n11 - (x1 - n11) - (y1 - n11)) = 0 THEN 0.0
                   ELSE ((tot - n11 - (x1 - n11) - (y1 - n11)) / tot)
                        * ln(((tot - n11 - (x1 - n11) - (y1 - n11)) / tot)
                             / (((tot - x1) / tot) * ((tot - y1) / tot))) END)
           + (CASE WHEN (y1 - n11) = 0 THEN 0.0
                   ELSE ((y1 - n11) / tot)
                        * ln(((y1 - n11) / tot)
                             / (((tot - x1) / tot) * (y1 / tot))) END)
           + (CASE WHEN (x1 - n11) = 0 THEN 0.0
                   ELSE ((x1 - n11) / tot)
                        * ln(((x1 - n11) / tot)
                             / ((x1 / tot) * ((tot - y1) / tot))) END)
           + (CASE WHEN n11 = 0 THEN 0.0
                   ELSE (n11 / tot)
                        * ln((n11 / tot)
                             / ((x1 / tot) * (y1 / tot))) END)
           END AS mi_v
    FROM pairs
  ),
  selfmi AS (SELECT qid, qt, mi_v AS smi FROM mi WHERE t = qt),
  scored AS (
    SELECT m.qid, m.t,
           CASE WHEN m.t = m.qt THEN ln((1 + s.n) / m.x1) * m.qtf
                WHEN sm.smi <> 0
                THEN ln((1 + s.n) / m.x1) * {beta} * m.qtf * m.mi_v / sm.smi
                ELSE 0.0 END AS score
    FROM mi m
    JOIN selfmi sm ON sm.qid = m.qid AND sm.qt = m.qt
    CROSS JOIN stats s
  ),
  agg AS (
    SELECT qid, t, sum(score) AS w
    FROM scored WHERE score > 1e-8 GROUP BY 1, 2
  ),
  finalw AS (
    SELECT qid, t AS term, w FROM (
      SELECT a.qid, a.t,
             round(a.w / ql.n_toks, 6) AS w,
             row_number() OVER (
               PARTITION BY a.qid
               ORDER BY round(a.w / ql.n_toks, 6) DESC, a.t ASC) AS rn
      FROM agg a JOIN qlen ql ON ql.qid = a.qid
    ) WHERE rn <= {m_terms}
  ),
  second AS (
    SELECT fw.qid, atf.doc_id,
           sum(fw.w * ln(1 + (s.n - gdf.df + 0.5) / (gdf.df + 0.5))
               * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           ) AS score
    FROM finalw fw
    JOIN atf ON fw.term = atf.term
    JOIN gdf ON gdf.term = fw.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY fw.qid, atf.doc_id
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM second
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )


def sdm_topk_engine_sql(
    queries=SIMPLE_QUERIES,
    k: int = BM25_TOPK,
    term_weight: float = 0.85,
    ordered_weight: float = 0.1,
    unordered_weight: float = 0.05,
) -> str:
    """SDM (deterministic float64 variant, see __ray_entry__._sdm_topk) in
    SQL: 0.85*unigram BM25 + per-adjacent-pair span clauses with Lucene
    sloppyFreq — the ordered span (first t2 >= p1+1, width <= 1) as a
    min-join, the unordered span's advance-the-minimum two-pointer walk as
    a RECURSIVE CTE over per-doc position lists. Single-term queries fall
    back to plain BM25 (the engine's own fallback)."""
    from ..analysis.analyzer import make_analyzer

    an = make_analyzer()
    uni_rows = []       # (qid, term, cnt, weight_mult) for the unigram part
    pair_rows = []      # (qid, pid, t1, t2, mult)
    pid = 0
    for qid, text in queries:
        terms = an.analyze(text)
        if not terms:
            continue
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        w_uni = term_weight if len(terms) >= 2 else 1.0
        uni_rows.extend((qid, t, c, w_uni) for t, c in counts.items())
        if len(terms) >= 2:
            pm: dict[tuple, int] = {}
            for p in zip(terms, terms[1:]):
                pm[p] = pm.get(p, 0) + 1
            for (t1, t2), m in pm.items():
                pair_rows.append((qid, pid, t1, t2, m))
                pid += 1
    uni_values = ", ".join(
        f"({q}, '{t}', {c}, {w})" for q, t, c, w in uni_rows
    )
    pair_values = ", ".join(
        f"({q}, {p}, '{t1}', '{t2}', {m})" for q, p, t1, t2, m in pair_rows
    )
    from ..sources.transcripts import TRANSCRIPTS_SQL

    return (
        f"WITH RECURSIVE transcripts AS ({TRANSCRIPTS_SQL}), "
        + _ATOKS_CTE
        + f""",
  stats AS (SELECT count(*) AS n, sum(dl) * 1.0 / count(*) AS avgdl FROM adl),
  gdf AS (SELECT term, count(*) AS df FROM atf GROUP BY term),
  pwords AS (
    SELECT doc_id,
           list_filter(regexp_split_to_array(lower(text), '\\s+'),
                       x -> x <> '') AS wl
    FROM docs
  ),
  prtoks AS (
    SELECT doc_id, wl[i] AS word, i AS pos
    FROM pwords, unnest(generate_series(1, len(wl))) AS u(i)
  ),
  stoks AS (
    SELECT r.doc_id, s.term, r.pos FROM prtoks r JOIN stem s ON r.word = s.word
  ),
  plists AS (
    SELECT doc_id, term, list(pos ORDER BY pos) AS pl
    FROM stoks GROUP BY 1, 2
  ),
  uq(qid, term, cnt, wm) AS (VALUES {uni_values}),
  pq(qid, pid, t1, t2, mult) AS (VALUES {pair_values}),
  pd AS (
    SELECT pq.qid, pq.pid, pq.mult, a.doc_id, a.pl AS l1, b.pl AS l2
    FROM pq
    JOIN plists a ON a.term = pq.t1
    JOIN plists b ON b.term = pq.t2 AND b.doc_id = a.doc_id
  ),
  ofreq AS (
    SELECT qid, pid, doc_id, sum(1.0 / (1 + w)) AS fo FROM (
      SELECT pq.qid, pq.pid, s1.doc_id, s1.pos AS p1,
             min(s2.pos) - s1.pos - 1 AS w
      FROM pq
      JOIN stoks s1 ON s1.term = pq.t1
      JOIN stoks s2 ON s2.doc_id = s1.doc_id AND s2.term = pq.t2
                    AND s2.pos >= s1.pos + 1
      GROUP BY pq.qid, pq.pid, s1.doc_id, s1.pos
    ) WHERE w <= 1 GROUP BY 1, 2, 3
  ),
  uwalk AS (
    SELECT qid, pid, doc_id, l1, l2, 1 AS x, 1 AS y,
           CAST(0 AS DOUBLE) AS acc
    FROM pd
    UNION ALL
    SELECT qid, pid, doc_id, l1, l2,
           CASE WHEN l1[x] <= l2[y] THEN x + 1 ELSE x END,
           CASE WHEN l1[x] <= l2[y] THEN y ELSE y + 1 END,
           acc + CASE WHEN abs(l1[x] - l2[y]) - 1 <= 8
                      THEN 1.0 / (1 + abs(l1[x] - l2[y])) ELSE 0.0 END
    FROM uwalk WHERE x <= len(l1) AND y <= len(l2)
  ),
  ufreq AS (
    SELECT qid, pid, doc_id, max(acc) AS fu
    FROM uwalk GROUP BY 1, 2, 3
  ),
  pidf AS (
    SELECT pq.qid, pq.pid, pq.mult,
           ln(1 + (s.n - g1.df + 0.5) / (g1.df + 0.5))
           + ln(1 + (s.n - g2.df + 0.5) / (g2.df + 0.5)) AS pair_idf
    FROM pq
    JOIN gdf g1 ON g1.term = pq.t1
    JOIN gdf g2 ON g2.term = pq.t2
    CROSS JOIN stats s
  ),
  contrib AS (
    SELECT uq.qid, atf.doc_id,
           uq.wm * uq.cnt * ln(1 + (s.n - gdf.df + 0.5) / (gdf.df + 0.5))
           * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           AS c
    FROM uq
    JOIN atf ON uq.term = atf.term
    JOIN gdf ON gdf.term = uq.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    UNION ALL
    SELECT o.qid, o.doc_id,
           pi.mult * {ordered_weight} * pi.pair_idf
           * o.fo / (o.fo + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl)) AS c
    FROM ofreq o
    JOIN pidf pi ON pi.qid = o.qid AND pi.pid = o.pid
    JOIN aqdl ON aqdl.doc_id = o.doc_id
    CROSS JOIN stats s
    WHERE o.fo > 0
    UNION ALL
    SELECT u.qid, u.doc_id,
           pi.mult * {unordered_weight} * pi.pair_idf
           * u.fu / (u.fu + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl)) AS c
    FROM ufreq u
    JOIN pidf pi ON pi.qid = u.qid AND pi.pid = u.pid
    JOIN aqdl ON aqdl.doc_id = u.doc_id
    CROSS JOIN stats s
    WHERE u.fu > 0
  ),
  second AS (
    SELECT qid, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM second
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )


def bglink_topk_engine_sql(
    query_docids: tuple = ("conv-000000:0", "conv-000010:3", "conv-000030:5"),
    k_terms: int = 20,
    hits: int = 10,
    dedup_threshold: float = 0.9,
) -> str:
    """Background linking (deterministic float64 whole-doc variant, see
    __ray_entry__._bglink_topk) in SQL: top-20 round6-tfidf query-doc terms
    → unweighted BM25 → rank scores hits-idx → greedy docvec-cosine dedup,
    with the keep-earlier survivor chain as a RECURSIVE CTE (per-candidate
    killer lists + list_intersect against the survivor list)."""
    from ..sources.transcripts import TRANSCRIPTS_SQL

    qd_values = ", ".join(f"('{d}')" for d in query_docids)
    return (
        f"WITH RECURSIVE transcripts AS ({TRANSCRIPTS_SQL}), "
        + _ATOKS_CTE
        + f""",
  stats AS (SELECT count(*) AS n, sum(dl) * 1.0 / count(*) AS avgdl FROM adl),
  gdf AS (SELECT term, count(*) AS df FROM atf GROUP BY term),
  qd(qdoc) AS (VALUES {qd_values}),
  qterms AS (
    SELECT qdoc, term FROM (
      SELECT qd.qdoc, a.term,
             row_number() OVER (
               PARTITION BY qd.qdoc
               ORDER BY round(a.tf * ln((1.0 + s.n) / gdf.df), 6) DESC,
                        a.term ASC) AS rn
      FROM qd
      JOIN atf a ON a.doc_id = qd.qdoc
      JOIN gdf ON gdf.term = a.term
      CROSS JOIN stats s
      WHERE length(a.term) >= 2 AND regexp_matches(a.term, '^[a-z]+$')
    ) WHERE rn <= {k_terms}
  ),
  fp AS (
    SELECT qt.qdoc, atf.doc_id,
           sum(ln(1 + (s.n - gdf.df + 0.5) / (gdf.df + 0.5))
               * atf.tf / (atf.tf + {BM25_K1} * (1 - {BM25_B} + {BM25_B} * aqdl.qdl / s.avgdl))
           ) AS score
    FROM qterms qt
    JOIN atf ON atf.term = qt.term
    JOIN gdf ON gdf.term = qt.term
    JOIN aqdl ON aqdl.doc_id = atf.doc_id
    CROSS JOIN stats s
    GROUP BY qt.qdoc, atf.doc_id
  ),
  branked AS (
    SELECT qdoc, doc_id, rn FROM (
      SELECT qdoc, doc_id,
             row_number() OVER (
               PARTITION BY qdoc
               ORDER BY round(score, 4) DESC, doc_id ASC) AS rn
      FROM fp
    ) WHERE rn <= {hits}
  ),
  norms AS (
    SELECT doc_id, sqrt(sum(CAST(tf AS DOUBLE) * tf)) AS nrm
    FROM atf GROUP BY doc_id
  ),
  cosq AS (
    SELECT b.qdoc, b.doc_id,
           round(COALESCE(sum(CAST(a.tf AS DOUBLE) * c.tf), 0)
                 / (nq.nrm * nc.nrm), 6) AS c
    FROM branked b
    JOIN norms nq ON nq.doc_id = b.qdoc
    JOIN norms nc ON nc.doc_id = b.doc_id
    LEFT JOIN atf a ON a.doc_id = b.qdoc
    LEFT JOIN atf c ON c.doc_id = b.doc_id AND c.term = a.term
    GROUP BY b.qdoc, b.doc_id, nq.nrm, nc.nrm
  ),
  cospair AS (
    SELECT x.qdoc, x.doc_id AS a, y.doc_id AS b,
           round(COALESCE(sum(CAST(ta.tf AS DOUBLE) * tb.tf), 0)
                 / (na.nrm * nb.nrm), 6) AS c
    FROM branked x
    JOIN branked y ON y.qdoc = x.qdoc AND x.rn < y.rn
    JOIN norms na ON na.doc_id = x.doc_id
    JOIN norms nb ON nb.doc_id = y.doc_id
    LEFT JOIN atf ta ON ta.doc_id = x.doc_id
    LEFT JOIN atf tb ON tb.doc_id = y.doc_id AND tb.term = ta.term
    GROUP BY x.qdoc, x.doc_id, y.doc_id, na.nrm, nb.nrm
  ),
  cand AS (
    SELECT b.qdoc, b.doc_id, b.rn,
           (cq.c >= {dedup_threshold}) AS selfbad,
           COALESCE(kl.klist, CAST([] AS VARCHAR[])) AS klist
    FROM branked b
    JOIN cosq cq ON cq.qdoc = b.qdoc AND cq.doc_id = b.doc_id
    LEFT JOIN (
      SELECT qdoc, b AS doc_id, list(a) AS klist
      FROM cospair WHERE c >= {dedup_threshold} GROUP BY 1, 2
    ) kl ON kl.qdoc = b.qdoc AND kl.doc_id = b.doc_id
  ),
  walk(qdoc, i, surv) AS (
    SELECT qdoc, 0, CAST([] AS VARCHAR[]) FROM qd
    UNION ALL
    SELECT w.qdoc, w.i + 1,
           CASE WHEN c.selfbad THEN w.surv
                WHEN len(list_intersect(w.surv, c.klist)) > 0 THEN w.surv
                ELSE list_append(w.surv, c.doc_id) END
    FROM walk w
    JOIN cand c ON c.qdoc = w.qdoc AND c.rn = w.i + 1
  ),
  final_surv AS (
    SELECT w.qdoc, w.surv
    FROM walk w
    JOIN (SELECT qdoc, max(rn) AS mx FROM cand GROUP BY qdoc) m
      ON m.qdoc = w.qdoc AND w.i = m.mx
  )
  SELECT c.qdoc AS query_docid,
         CAST(row_number() OVER (PARTITION BY c.qdoc ORDER BY c.rn)
              AS INTEGER) AS rank,
         c.doc_id,
         CAST({hits} + 1 - c.rn AS DOUBLE) AS score
  FROM cand c
  JOIN final_surv fs ON fs.qdoc = c.qdoc
  WHERE list_contains(fs.surv, c.doc_id)
  ORDER BY query_docid, rank"""
    )


# ------------------------------------------------- QL Dirichlet SQL mirror
QLD_MU = 1000.0


def qld_topk_simple(sf_dir: str, queries=SIMPLE_QUERIES, k: int = BM25_TOPK):
    """Distributed batch QL-Dirichlet (float64, whitespace tokens, mu=1000) —
    the SQL-checkable mirror of `similarities.QLDirichlet`:
    per (term, doc) contribution = qtf * max(ln(1 + tf/(mu*p_c)) +
    ln(mu/(dl+mu)), 0) with p_c = (cf+1)/(sum_total_tf+1), clamped per
    term-doc BEFORE summation (the Lucene LMDirichlet clamp). Same physical
    plan as bm25_topk_simple: broadcast clause table, per-batch partial
    scoring, one (qid, doc_id) groupby."""
    ds = exploded_terms(sf_dir).materialize()

    per_doc = hash_aggregate(
        ds, ["doc_id"], [("max", "dl")], ["dl"]
    ).materialize()
    n_docs = per_doc.count()
    sum_dl = per_doc.sum("dl")
    clauses = _query_clauses(queries)
    qterms = {t for _, t, _ in clauses}

    def cf_partial(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch["term"], pa.array(list(qterms)))
        sub = batch.filter(mask)
        return pa.Table.from_arrays(
            [sub["term"], sub["tf"]], names=["term", "tf"]
        )

    cf_rows = (
        ds.map_batches(cf_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("tf"))
        .take_all()
    )
    cf_map = {r["term"]: int(r["sum(tf)"]) for r in cf_rows}
    clause_info = [
        (qid, t, cnt, (cf_map.get(t, 0) + 1.0) / (sum_dl + 1.0))
        for qid, t, cnt in clauses
        if cf_map.get(t, 0) > 0
    ]
    broadcast = ray.put(clause_info)

    def score_partial(batch: pa.Table) -> pa.Table:
        cinfo = ray.get(broadcast)
        tfs = batch["tf"].to_numpy().astype(np.float64)
        dls = batch["dl"].to_numpy().astype(np.float64)
        dir_term = np.log(QLD_MU / (dls + QLD_MU))
        term_arr = np.asarray(batch["term"].to_pylist(), dtype=object)
        doc_arr = batch["doc_id"].to_pylist()
        qids_out, docs_out, contribs = [], [], []
        for qid, t, cnt, p_c in cinfo:
            hit = np.flatnonzero(term_arr == t)
            if hit.size == 0:
                continue
            s = np.log1p(tfs[hit] / (QLD_MU * p_c)) + dir_term[hit]
            c = cnt * np.maximum(s, 0.0)
            for i, h in enumerate(hit):
                qids_out.append(qid)
                docs_out.append(doc_arr[h])
                contribs.append(float(c[i]))
        return pa.Table.from_arrays(
            [
                pa.array(qids_out, type=pa.int32()),
                pa.array(docs_out, type=pa.string()),
                pa.array(contribs, type=pa.float64()),
            ],
            names=["qid", "doc_id", "contrib"],
        )

    scored = hash_aggregate(
        ds.map_batches(score_partial, batch_format="pyarrow"),
        ["qid", "doc_id"],
        [("sum", "contrib")],
        ["score"],
    )
    return _rank_topk(scored, k)


def qld_topk_simple_sql(queries=SIMPLE_QUERIES, k: int = BM25_TOPK) -> str:
    values = query_clauses_sql_values(queries)
    return _with_transcripts(
        _TOKS_CTE
        + f""",
  stats AS (SELECT CAST(sum(dl) AS DOUBLE) AS c FROM dl),
  q(qid, term, cnt) AS (VALUES {values}),
  cf AS (SELECT term, CAST(sum(tf) AS DOUBLE) AS cf FROM tf GROUP BY term),
  scores AS (
    SELECT q.qid, tf.doc_id,
           sum(q.cnt * greatest(
             ln(1 + tf.tf / ({QLD_MU} * ((cf.cf + 1) / (s.c + 1))))
             + ln({QLD_MU} / (dl.dl + {QLD_MU})), 0)
           ) AS score
    FROM q
    JOIN tf ON q.term = tf.term
    JOIN cf ON cf.term = q.term
    JOIN dl ON dl.doc_id = tf.doc_id
    CROSS JOIN stats s
    GROUP BY q.qid, tf.doc_id
  ),
  ranked AS (
    SELECT qid, doc_id, round(score, 4) AS score_r,
           row_number() OVER (
             PARTITION BY qid ORDER BY round(score, 4) DESC, doc_id ASC
           ) AS rank
    FROM scores
  )
  SELECT CAST(qid AS INTEGER) AS qid, CAST(rank AS INTEGER) AS rank,
         doc_id, score_r AS score
  FROM ranked WHERE rank <= {k}
  ORDER BY qid, rank"""
    )
