"""Command-line entry points mirroring the reference's primary UX:

  python -m anserini_ray.cli index  -input <parquet|jsonl|trec|bib|core|acl|tweets> \\
      -collection {parquet,json,trec,bibtex,core,acl,tweets} -index <dir> \\
      [-storePositions] [-storeDocvectors] [-optimize] [-resume]
  python -m anserini_ray.cli search -index <dir> -topics <file> \\
      -topicreader {tsvint,tsvstring,trec,microblog} -output <run.txt> \\
      [-bm25 [-bm25.k1 K] [-bm25.b B] | -qld | -qljm | -inl2 | -spl | -f2exp | -f2log] \\
      [-rm3] [-bm25prf] [-sdm] [-hits N] [-skipexists]
  python -m anserini_ray.cli dedup  -input <parquet> -output <dir> \
      -method {exact,minhash,simhash,jaccard,spans} [-threshold J] [-n N]
  python -m anserini_ray.cli split  -input <parquet> -output <dir> \
      [-weights 80,10,10]
  python -m anserini_ray.cli transform -input <parquet|dir> -output <dir> \
      -op {pii_redact,quality,fingerprint,token_counts,lang_id}
      (resumable: one partition per input shard; re-run skips finished)
  python -m anserini_ray.cli optimize -index <dir> [-segments 0,3,7]
      (standalone force-merge of posting runs; bit-identical results)
  python -m anserini_ray.cli media -input <parquet|dir> -output <dir> \
      [-idCol item_id] [-payloadCol payload]
      (header-only metadata: kind/codec/dims/duration per payload)

(Reference analogs: `IndexCollection.main` args at IndexArgs.java,
`SearchCollection.main` args at SearchArgs.java.) The CLI owns the Ray
session (guarded init); library code never does.
"""

from __future__ import annotations

import argparse
import os
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
        )


def _input_files(path: str, suffix: str = "") -> list[str]:
    """The files under -input (the path itself when it is a file); in a
    directory only the names ending in `suffix`."""
    if not os.path.isdir(path):
        return [path]
    return sorted(
        os.path.join(r, f)
        for r, _, fs in os.walk(path)
        for f in fs
        if f.endswith(suffix)
    )


def _load_collection(path: str, kind: str, max_id):
    """Transcript-shaped Dataset of a non-Parquet collection."""
    if kind == "json":
        from .sources.json_collection import read_json_collection

        return read_json_collection(path)
    if kind == "trec":
        from .sources.trec_collection import read_trec_collection

        return read_trec_collection(path)
    if kind == "trecweb":
        from .sources.web_collections import read_trecweb_collection

        return read_trecweb_collection(path)
    if kind == "cleantrec":
        from .sources.web_collections import read_clean_trec_collection

        return read_clean_trec_collection(path)
    if kind == "wikipedia":
        from .sources.wikipedia_collection import read_wikipedia_collection

        return read_wikipedia_collection(path)
    if kind == "nyt":
        from .sources.nyt_collection import read_nyt_collection

        return read_nyt_collection(path)
    if kind == "wapo":
        from .sources.wapo_collection import read_wapo_collection

        return read_wapo_collection(path)
    if kind in ("cw09", "cw12"):
        from .sources.web_collections import read_clueweb_collection

        return read_clueweb_collection(
            path, version="WARC/1.0" if kind == "cw12" else "WARC/0.18"
        )
    if kind == "bibtex":
        from .sources.bibtex_collection import read_bibtex_collection

        return read_bibtex_collection(path)
    if kind == "core":
        from .sources.core_collection import read_core_collection

        return read_core_collection(path)
    if kind == "acl":
        from .sources.acl_anthology import read_acl_anthology

        return read_acl_anthology(path)
    if kind == "tweets":
        from .sources.tweet_collection import read_tweet_collection

        return read_tweet_collection(path, max_id=max_id)
    if kind == "html":
        from .sources.html_collection import read_html_collection

        return read_html_collection(path)
    if kind == "car":
        from .sources.car_collection import read_car_collection

        return read_car_collection(path)
    if kind.startswith("covid"):
        from .sources.covid_collections import read_covid_collection

        return read_covid_collection(path, kind)
    raise SystemExit(f"unknown collection kind {kind!r}")


def cmd_index(argv) -> int:
    p = argparse.ArgumentParser(prog="anserini_ray index")
    p.add_argument("-input", required=True)
    p.add_argument("-index", required=True)
    p.add_argument(
        "-collection",
        default="parquet",
        choices=["parquet", "json", "trec", "trecweb", "cleantrec", "cw09",
                 "cw12", "wapo", "nyt", "wikipedia", "bibtex", "core", "acl", "html", "car",
                 "covid", "covid_fulltext", "covid_paragraph",
                 "covid_trialstreamer",
                 "tweets"],
    )
    p.add_argument("-storePositions", action="store_true")
    p.add_argument("-storeDocvectors", action="store_true")
    p.add_argument("-stemmer", default="porter",
                   choices=["porter", "krovetz", "none"])
    p.add_argument("-keepStopwords", action="store_true")
    p.add_argument("-uniqueDocid", action="store_true")
    p.add_argument("-whitelist", default=None)
    p.add_argument("-tweet.maxId", dest="tweet_max_id", type=int, default=None)
    p.add_argument("-bm25.accurate", dest="accurate", action="store_true")
    p.add_argument("-optimize", action="store_true")
    p.add_argument("-resume", action="store_true")
    p.add_argument("-assumeSorted", action="store_true")
    p.add_argument("-segShift", type=int, default=17)
    p.add_argument("-shard.count", dest="shard_count", type=int, default=-1)
    p.add_argument("-shard.current", dest="shard_current", type=int, default=-1)
    p.add_argument("-threads", type=int, default=None, help="ray num_cpus")
    a = p.parse_args(argv)

    _init_ray(a.threads)
    from .index import IndexConfig, build_index

    analyzer = {"stemmer": a.stemmer}
    if a.keepStopwords:
        analyzer["stopwords"] = "none"
    if a.collection == "tweets":
        analyzer = {"type": "tweet"}
    wl = None
    if a.whitelist:
        with open(a.whitelist) as f:
            wl = {f"{line.strip()}:0" for line in f if line.strip()}
    cfg = IndexConfig(
        seg_shift=a.segShift,
        analyzer=analyzer,
        norm_mode="accurate" if a.accurate else "lucene",
        resume=a.resume,
        assume_sorted=a.assumeSorted,
        store_docvecs=a.storeDocvectors,
        store_positions=a.storePositions,
        shard_count=a.shard_count,
        shard_current=a.shard_current,
    )
    if a.collection == "parquet":
        m = build_index(
            index_dir=a.index,
            config=cfg,
            input_paths=_input_files(a.input, ".parquet"),
            whitelist=wl,
            dedup_docids=a.uniqueDocid,
        )
    else:
        m = build_index(
            _load_collection(a.input, a.collection, a.tweet_max_id),
            a.index,
            cfg,
            input_files=_input_files(a.input),
            whitelist=wl,
            dedup_docids=a.uniqueDocid,
        )
    if a.optimize:
        from .index import optimize_index

        optimize_index(a.index)
    print(
        f"indexed {m.doc_count} docs, {m.sum_total_tf} terms, "
        f"{len(m.segments)} segments -> {a.index}"
    )
    print(f"counters: {m.counters}")
    return 0


def cmd_search(argv) -> int:
    p = argparse.ArgumentParser(prog="anserini_ray search")
    p.add_argument("-index", required=True)
    p.add_argument("-topics", required=True)
    p.add_argument(
        "-topicreader",
        default="tsvint",
        choices=["tsvint", "tsvstring", "trec", "microblog"],
    )
    p.add_argument("-output", required=True)
    p.add_argument("-hits", type=int, default=1000)
    p.add_argument("-runtag", default="AnseriniRay")
    for sim in ("bm25", "qld", "qljm", "inl2", "spl", "f2exp", "f2log"):
        p.add_argument(f"-{sim}", action="store_true")
    p.add_argument("-bm25.k1", dest="k1", type=float, default=0.9)
    p.add_argument("-bm25.b", dest="b", type=float, default=0.4)
    p.add_argument("-rm3", action="store_true")
    p.add_argument("-bm25prf", action="store_true")
    p.add_argument("-sdm", action="store_true")
    p.add_argument("-searchtweets", action="store_true")
    p.add_argument("-skipexists", action="store_true")
    p.add_argument("-threads", type=int, default=None)
    a = p.parse_args(argv)

    from .search.runio import run_exists

    if a.skipexists and run_exists(a.output):
        print(f"run exists, skipping: {a.output}")
        return 0

    _init_ray(a.threads)
    from .search import LocalSearcher
    from .search.runio import write_run_file
    from .search.ties import format_trec_run
    from .sources import topics as T

    tweettimes = {}
    if a.topicreader == "tsvint":
        topics = T.read_tsv_topics(a.topics)
    elif a.topicreader == "tsvstring":
        topics = T.read_tsv_string_topics(a.topics)
    elif a.topicreader == "microblog":
        mb = T.read_microblog_topics(a.topics)
        topics = [(q, text) for q, text, _ in mb]
        tweettimes = {q: t for q, _, t in mb}
    else:
        topics = [
            (qid, t["title"]) for qid, t in T.read_trec_topics(a.topics).items()
        ]

    sim = next(
        (s for s in ("qld", "qljm", "inl2", "spl", "f2exp", "f2log") if getattr(a, s)),
        "bm25",
    )
    # -searchtweets: tweet analyzer, and score ties broken by tweet id
    # DESC (SearchCollection.searchTweets, BREAK_SCORE_TIES_BY_TWEETID)
    analyzer = {"type": "tweet"} if a.searchtweets else None
    s = LocalSearcher(
        a.index, k1=a.k1, b=a.b, similarity=sim, analyzer_config=analyzer,
        tie_break="tweetid" if a.searchtweets else "docid",
    )
    lines = []
    for qid, text in topics:
        if a.rm3:
            d, sc = s.search_rm3(text, k=a.hits)
        elif a.bm25prf:
            d, sc = s.search_bm25prf(text, k=a.hits)
        elif a.sdm:
            d, sc = s.search_sdm(text, k=a.hits)
        elif a.searchtweets and qid in tweettimes:
            d, sc = s.search(text, k=a.hits, ts_range=(0, tweettimes[qid]))
        else:
            d, sc = s.search(text, k=a.hits)
        lines.extend(format_trec_run(qid, d, sc, a.runtag))
    write_run_file(a.output, lines)
    print(f"wrote {len(lines)} lines for {len(topics)} topics -> {a.output}")
    return 0


def cmd_dedup(argv) -> int:
    """Training-data dedup over a parquet table of (id, text) documents."""
    p = argparse.ArgumentParser(prog="anserini_ray dedup")
    p.add_argument("-input", required=True, help="parquet file/dir")
    p.add_argument("-output", required=True, help="output parquet dir")
    p.add_argument("-method", default="exact",
                   choices=["exact", "minhash", "simhash", "jaccard",
                            "spans"])
    p.add_argument("-idCol", default="doc_id")
    p.add_argument("-textCol", default="text")
    p.add_argument("-threshold", type=float, default=0.7)
    p.add_argument("-n", type=int, default=8,
                   help="n-gram length for -method spans")
    p.add_argument("-threads", type=int, default=None)
    a = p.parse_args(argv)
    _init_ray(a.threads)
    import ray.data

    from .stages import dedup as D

    ds = ray.data.read_parquet(a.input, columns=[a.idCol, a.textCol])
    if a.method == "exact":
        out = D.exact_dedup(ds, text_col=a.textCol, id_col=a.idCol)
    elif a.method == "minhash":
        out = D.minhash_lsh_dedup(
            ds, text_col=a.textCol, id_col=a.idCol,
            threshold=a.threshold, verify=True,
        )
    elif a.method == "jaccard":
        out = D.ngram_jaccard_join(
            ds, text_col=a.textCol, id_col=a.idCol, threshold=a.threshold
        )
    elif a.method == "spans":
        out = D.duplicate_ngram_spans(
            ds, n=a.n, text_col=a.textCol, id_col=a.idCol
        )
    else:
        out = D.simhash_dedup(
            ds, text_col=a.textCol, id_col=a.idCol, verify=True
        )
    out.write_parquet(a.output)
    return 0


def cmd_split(argv) -> int:
    """Deterministic md5 train/val/test split assignment."""
    p = argparse.ArgumentParser(prog="anserini_ray split")
    p.add_argument("-input", required=True)
    p.add_argument("-output", required=True)
    p.add_argument("-idCol", default="doc_id")
    p.add_argument("-weights", default="80,10,10",
                   help="train,val,test percentages summing to 100")
    p.add_argument("-threads", type=int, default=None)
    a = p.parse_args(argv)
    _init_ray(a.threads)
    import ray.data

    from .stages.corpus_ops import hash_split

    w = tuple(int(x) for x in a.weights.split(","))
    ds = ray.data.read_parquet(a.input, columns=[a.idCol])
    hash_split(ds, id_col=a.idCol, weights=w).write_parquet(a.output)
    return 0


def cmd_optimize(argv) -> int:
    """Force-merge posting runs of an EXISTING index (the reference's
    -optimize as a standalone pass: run after heavy appends, or on bulk
    builds that predate auto-compaction). Results are bit-identical; only
    the file layout changes."""
    p = argparse.ArgumentParser(prog="anserini_ray optimize")
    p.add_argument("-index", required=True)
    p.add_argument("-segments", default=None,
                   help="comma-separated segment ids (default: whole index)")
    p.add_argument("-threads", type=int, default=None)
    a = p.parse_args(argv)
    _init_ray(a.threads)
    from .index.optimize import optimize_index

    segs = (
        [int(x) for x in a.segments.split(",")] if a.segments else None
    )
    optimize_index(a.index, segments=segs)
    print(f"optimized {a.index}" + (f" segments={segs}" if segs else ""))
    return 0


def cmd_transform(argv) -> int:
    """Resumable map-only corpus transform: one output partition per input
    shard; re-running skips finished partitions (see anserini_ray/sinks.py)."""
    p = argparse.ArgumentParser(prog="anserini_ray transform")
    p.add_argument("-input", required=True, help="parquet file or dir of shards")
    p.add_argument("-output", required=True, help="output partition dir")
    p.add_argument("-op", required=True,
                   choices=["pii_redact", "quality", "fingerprint",
                            "token_counts", "lang_id"])
    p.add_argument("-textCol", default="text")
    p.add_argument("-threads", type=int, default=None)
    a = p.parse_args(argv)
    _init_ray(a.threads)
    import glob as _glob

    from .sinks import resumable_transform_write

    paths = (
        sorted(_glob.glob(os.path.join(a.input, "*.parquet")))
        if os.path.isdir(a.input)
        else [a.input]
    )
    text_col = a.textCol
    op = a.op

    def factory():
        from .stages import text_stats as T

        if op == "pii_redact":
            return T.PiiRedact(text_col=text_col)
        if op == "quality":
            return lambda b: T.quality_batch(b, text_col=text_col)
        if op == "fingerprint":
            return T.Fingerprint(text_col=text_col)
        if op == "token_counts":
            return T.TokenCounter(text_col=text_col)
        return T.LanguageId(text_col=text_col)

    stats = resumable_transform_write(paths, factory, a.output)
    print(
        f"{stats['n_written']} partitions written, "
        f"{stats['n_skipped']} skipped (already done), "
        f"{stats['rows_out']} rows -> {a.output}"
    )
    return 0


def cmd_media(argv) -> int:
    """Header-only media metadata over a parquet table with an item id and
    a binary payload column (stages/media_meta.py MediaMetadata)."""
    p = argparse.ArgumentParser(prog="anserini_ray media")
    p.add_argument("-input", required=True, help="parquet file/dir")
    p.add_argument("-output", required=True, help="output parquet dir")
    p.add_argument("-idCol", default="item_id")
    p.add_argument("-payloadCol", default="payload")
    p.add_argument("-threads", type=int, default=None)
    a = p.parse_args(argv)
    _init_ray(a.threads)
    import pyarrow as _pa

    import ray.data

    from .stages.media_meta import MediaMetadata

    ds = ray.data.read_parquet(a.input, columns=[a.idCol, a.payloadCol])
    id_col, payload_col = a.idCol, a.payloadCol

    def normalize(t: _pa.Table) -> _pa.Table:
        return _pa.Table.from_arrays(
            [t[id_col], t[payload_col]], names=["item_id", "payload"]
        )

    (
        ds.map_batches(normalize, batch_format="pyarrow")
        .map_batches(MediaMetadata(), batch_format="pyarrow")
        .write_parquet(a.output)
    )
    return 0


_COMMANDS = {
    "index": None, "search": None, "dedup": None, "split": None,
    "transform": None, "optimize": None, "media": None,
}


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in _COMMANDS:
        print(__doc__)
        return 2
    if sys.argv[1] == "index":
        return cmd_index(sys.argv[2:])
    if sys.argv[1] == "dedup":
        return cmd_dedup(sys.argv[2:])
    if sys.argv[1] == "split":
        return cmd_split(sys.argv[2:])
    if sys.argv[1] == "transform":
        return cmd_transform(sys.argv[2:])
    if sys.argv[1] == "optimize":
        return cmd_optimize(sys.argv[2:])
    if sys.argv[1] == "media":
        return cmd_media(sys.argv[2:])
    return cmd_search(sys.argv[2:])


if __name__ == "__main__":
    import ray

    code = main()
    if ray.is_initialized():
        ray.shutdown()
    sys.exit(code)
