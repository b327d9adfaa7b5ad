"""Index inspection / dump utilities — reference analogs:
`-dumpAllDocids` (sorted) and raw-doc dumps (`J/index/IndexUtils.java:89-129,
354-473`), `ExtractDocumentLengths` / `ExtractAverageDocumentLength`
(`J/util/ExtractDocumentLengths.java`, `ExtractAverageDocumentLength.java`),
`ExtractTopDfTerms` (`J/util/ExtractTopDfTerms.java`)."""

from __future__ import annotations

import pyarrow as pa


def dump_docids_sorted(index_dir: str) -> pa.Table:
    """All docids in sorted order (IndexUtils -dumpAllDocids analog)."""
    from ..search import LocalSearcher

    s = LocalSearcher(index_dir)
    ids: list[str] = []
    for r in s.readers:
        ids.extend(r.doc_id_strings(r.all_local_ords()))
    ids.sort()
    return pa.table({"doc_id": ids})


def dump_doc_lengths(index_dir: str) -> pa.Table:
    """(doc_id, dl, dl_lossy) per doc — exact + byte4-quantized lengths
    (ExtractDocumentLengths prints both for stock-Lucene comparability)."""
    import numpy as np

    from ..search import LocalSearcher

    s = LocalSearcher(index_dir)
    out_id, out_dl, out_lossy = [], [], []
    for r in s.readers:
        out_id.extend(r.doc_id_strings(r.all_local_ords()))
        out_dl.extend(r.dl_raw.tolist())
        out_lossy.extend(r.dl_lucene.astype(int).tolist())
    return pa.table(
        {
            "doc_id": out_id,
            "dl": pa.array(out_dl, type=pa.int64()),
            "dl_lossy": pa.array(out_lossy, type=pa.int64()),
        }
    )


def top_df_terms(index_dir: str, k: int = 100) -> pa.Table:
    """Global top-k terms by df from the built index (ExtractTopDfTerms),
    ties by term."""
    from ..search.segment_reader import read_termstats
    from ..state import IndexManifest

    ts = read_termstats(index_dir, IndexManifest.read(index_dir))
    top = ts.sort_by([("gdf", "descending"), ("term", "ascending")])[:k]
    return pa.table({"term": top["term"], "df": top["gdf"], "cf": top["gcf"]})


def collection_stats_from_index(index_dir: str) -> pa.Table:
    """doc_count / sum_total_tf / avgdl straight from the manifest
    (ExtractAverageDocumentLength analog)."""
    from ..state import IndexManifest

    m = IndexManifest.read(index_dir)
    return pa.table(
        {
            "doc_count": pa.array([m.doc_count], type=pa.int64()),
            "sum_total_tf": pa.array([m.sum_total_tf], type=pa.int64()),
            "avgdl": pa.array([m.avgdl], type=pa.float64()),
        }
    )


# ---------------------------------------------------------------------------
# DuckDB oracle mirrors for the dump utilities over the transcript-derived
# index (docid = 'conv-%06d:%d' from documents.doc_id per TRANSCRIPTS_SQL;
# every document is non-empty, so all rows are indexed). The analyzed doc
# length is SQL-expressible on this corpus (clean single-space lowercase
# words: tokenization is identity, Porter preserves counts, stop removal is
# an IN-list), and the stock-Lucene byte4-quantized length has the closed
# form dl - ((dl-24) % 2^(floor(log2(dl-24))-3)) for dl >= 40 (exact below),
# verified against norms.quantize_lengths for 0..100000.
# ---------------------------------------------------------------------------

_STOP33 = (
    "('a','an','and','are','as','at','be','but','by','for','if','in','into',"
    "'is','it','no','not','of','on','or','such','that','the','their','then',"
    "'there','these','they','this','to','was','will','with')"
)

_DOCID_EXPR = (
    "'conv-' || lpad(CAST(doc_id // 8 AS VARCHAR), 6, '0') || ':' || "
    "CAST(doc_id % 8 AS VARCHAR)"
)

DUMP_DOCIDS_SQL = f"""
    SELECT {_DOCID_EXPR} AS doc_id FROM documents ORDER BY 1
"""

DUMP_DOC_LENGTHS_SQL = f"""
    WITH t AS (
      SELECT doc_id AS did,
             list_filter(regexp_split_to_array(lower(text), '\\s+'),
                         x -> x <> '') AS toks
      FROM documents
    ),
    d AS (
      SELECT did,
             CAST(len(list_filter(toks, x -> x NOT IN {_STOP33}))
                  AS BIGINT) AS dl
      FROM t
    )
    SELECT 'conv-' || lpad(CAST(did // 8 AS VARCHAR), 6, '0') || ':' ||
           CAST(did % 8 AS VARCHAR) AS doc_id,
           dl,
           CAST(CASE WHEN dl < 40 THEN dl
                     ELSE dl - ((dl - 24) %
                          CAST(pow(2, floor(log2(dl - 24)) - 3) AS BIGINT))
                END AS BIGINT) AS dl_lossy
    FROM d
"""
