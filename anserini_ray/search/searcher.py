"""Top-k BM25 retrieval over the segmented index.

Execution shapes (reference analogs in parens):

- ``LocalSearcher`` — scores queries against segments loaded in-process
  (per-thread `IndexSearcher`, `SearchCollection.java:138-158`). Holds the
  readers; used directly in tests, inside actors, and inside the
  ``SearcherStage`` map_batches class.
- ``Searcher`` — the serving facade (`SimpleSearcher.java:119-365`): spawns
  one ``@ray.remote`` segment-group actor per group, broadcasts queries,
  and merges the actors' per-segment top-k through the same tail as
  ``LocalSearcher``. Raw actors (not Dataset) because a shared read-only
  serving index is exactly the state the Dataset API cannot express.
- ``SearcherStage`` — a callable class for
  ``queries_ds.map_batches(SearcherStage, concurrency=N, ...)``: the batch
  path for query *datasets* (reference analog: `SearchCollection.runTopics`
  thread pool, `SearchCollection.java:428-444`).

Every query mode scores on one path, as every reference query generator
feeds one `IndexSearcher.search(query, k, Sort)`:

1. ``_scorers`` builds the query's term scorers once from the global
   termstats: ``(term, fn)`` pairs, ``fn(tfs, dl)`` giving a posting list's
   float32 contributions (bag-of-words, weighted, SDM-unigram and BM25PRF
   weights; other similarities' ``term_scorer``).
2. ``_accumulate`` adds them term-at-a-time into a dense float32
   per-segment accumulator (segment-bounded memory). SDM then adds its span
   frequencies, phrase search scores only its positional matches, and the
   optional MaxScore/block-max pruning ("pruned" mode) decodes only impact
   blocks that can matter — score-exact for the top-k and verified against
   the exhaustive path.
3. ``_rank`` takes each segment's top-k by (score desc, docid tie key).
4. ``_ranked`` merges the segments, makes the float32 score array and
   applies the ties-adjust cascade, with (score desc, docid asc) order
   (`BREAK_SCORE_TIES_BY_DOCID`, `SearchCollection.java:115-116`) or the
   tweet-id order.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Sequence

import numpy as np
import pyarrow as pa

from ..analysis.analyzer import make_analyzer
from ..state.manifest import IndexManifest
from .bm25 import DEFAULT_B, DEFAULT_K1, BM25Params, F, idf
from .segment_reader import SegmentReader, load_termstats
from .ties import adjust_score_ties, format_trec_run

DEFAULT_K = 1000


def _merge_ranked(per_segment: list[list[tuple[str, float]]], k: int,
                  key=None):
    """k-way merge of per-segment (docid, score) lists by
    (score desc, docid asc) — or a custom docid tie key (tweet-id DESC)."""
    key = key or (lambda d: d)
    allhits = [h for seg in per_segment for h in seg]
    allhits.sort(key=lambda h: (-h[1], key(h[0])))
    return allhits[:k]


def _ranked(per_segment, k: int, adjust_ties: bool, key=None):
    """The result tail of every query mode: merge the per-segment top-k
    lists, make the float32 score array, apply the ties-adjust cascade."""
    hits = _merge_ranked(per_segment, k, key)
    docids = [h[0] for h in hits]
    scores = np.array([h[1] for h in hits], dtype=np.float32)
    if adjust_ties:
        scores = adjust_score_ties(scores)
    return docids, scores


class LocalSearcher:
    def __init__(
        self,
        index_dir: str,
        segment_ids: Sequence[int] | None = None,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        mode: str | None = None,
        analyzer_config: dict | None = None,
        prune: bool = False,
        similarity: str = "bm25",
        sim_params: dict | None = None,
        tie_break: str = "docid",
    ):
        self.manifest = IndexManifest.read(index_dir)
        if segment_ids is None:
            segment_ids = [s["segment_id"] for s in self.manifest.segments]
        termstats = load_termstats(index_dir, self.manifest)
        self.global_df, self.global_cf = termstats
        self.readers = [
            SegmentReader(index_dir, sid, self.manifest, termstats)
            for sid in segment_ids
        ]
        self.mode = mode or self.manifest.norm_mode
        self.params = BM25Params(
            self.manifest.doc_count, self.manifest.sum_total_tf, k1, b, self.mode
        )
        self.similarity = similarity
        if similarity != "bm25":
            from .similarities import CollectionStats, make_similarity

            self.sim = make_similarity(similarity, **(sim_params or {}))
            self.cstats = CollectionStats(
                self.manifest.doc_count, self.manifest.sum_total_tf
            )
        self.analyzer = make_analyzer(analyzer_config)
        # prune: False | True | "auto". Bounds are BM25-only. "auto" enables
        # block-max pruning per segment once it is big enough to win:
        # measured break-even at 1–8M docs/segment (the vectorized
        # exhaustive kernel stays memory-bandwidth-fast while postings are
        # cache-resident) and a 1.6–2.1× win at 16M docs (BASELINE.md
        # round-4 rows), so the threshold is 10M.
        self.prune = prune if similarity == "bm25" else False
        # score-tie ordering: "docid" (docid string ASC —
        # SearchCollection.BREAK_SCORE_TIES_BY_DOCID) or "tweetid"
        # (numeric tweet id DESC — BREAK_SCORE_TIES_BY_TWEETID,
        # SearchCollection.java:119-124; newest tweet first)
        if tie_break not in ("docid", "tweetid"):
            raise ValueError(f"tie_break must be docid|tweetid: {tie_break!r}")
        self.tie_break = tie_break

    # segments this large are past the exhaustive kernel's cache-resident
    # sweet spot; see the prune docstring above
    PRUNE_AUTO_MIN_DOCS = 10_000_000

    def _prune_for(self, reader) -> bool:
        """Per-segment pruning decision: explicit True/False wins; "auto"
        prunes only segments past PRUNE_AUTO_MIN_DOCS."""
        if self.prune == "auto":
            return reader.doc_count >= self.PRUNE_AUTO_MIN_DOCS
        return bool(self.prune)

    def _tie_key(self, docid: str):
        if self.tie_break == "tweetid":
            try:
                return -int(docid.split(":", 1)[0])
            except ValueError:
                return 0
        return docid

    # ---------------------------------------------------------------- query
    def _clauses(self, query_text: str) -> list[tuple[str, int]]:
        """Analyzed unique terms in first-occurrence order with occurrence
        counts (duplicate tokens add clauses: BagOfWordsQueryGenerator)."""
        return list(Counter(self.analyzer.analyze(query_text)).items())

    def _dl(self, reader: SegmentReader) -> np.ndarray:
        """The doc lengths this searcher's BM25 mode scores with."""
        return (reader.score_dl_lucene if self.mode == "lucene"
                else reader.score_dl_accurate)

    def _scorers(self, clauses, params: BM25Params | None = None,
                 with_idf: bool = True) -> list[tuple]:
        """The query's term scorers, built once from the global termstats:
        one (term, fn) per (term, count-or-boost) clause whose global df is
        > 0, in clause order; fn(tfs, dl) gives the float32 contributions of
        the term's postings. Under BM25 the term weight is
        ``F(boost) * idf(gdf, N)`` (``F(boost)`` alone without idf, as
        BM25PrfSimilarity); params forces BM25 under those parameters,
        otherwise the searcher's own similarity scores."""
        N = self.params.doc_count
        bm25 = params or (self.params if self.similarity == "bm25" else None)
        out = []
        for term, cnt in clauses:
            gdf = self.global_df.get(term, 0)
            if gdf <= 0:
                continue
            if bm25 is None:
                fn = self.sim.term_scorer(
                    cnt, gdf, self.global_cf.get(term, 0), self.cstats
                )
            else:
                w = F(cnt) * idf(gdf, N) if with_idf else F(cnt)
                fn = functools.partial(bm25.score_postings, w)
            out.append((term, fn))
        return out

    def _accumulate(self, reader: SegmentReader, scorers):
        """Add every scorer's posting contributions, term by term, into a
        dense float32 accumulator over the segment's local ordinals.
        Returns (acc, touched)."""
        dl = self._dl(reader)
        acc = np.zeros(reader.local_span, dtype=np.float32)
        touched = np.zeros(reader.local_span, dtype=bool)
        for term, fn in scorers:
            post = reader.postings(term)
            if post is None:
                continue
            ords, tfs = post
            acc[ords] += fn(tfs, dl[ords])
            touched[ords] = True
        return acc, touched

    def _segment_topk(
        self, reader: SegmentReader, scorers, k: int, ts_range: tuple | None = None
    ) -> list[tuple[str, float]]:
        acc, touched = self._accumulate(reader, scorers)
        cand = np.flatnonzero(touched)
        if ts_range is not None and cand.size:
            if reader.score_ts is None:
                raise ValueError(
                    "index docmap has no ts column — build from input that "
                    "includes ts to use ts_range filters"
                )
            lo, hi = ts_range
            tsv = reader.score_ts[cand]
            cand = cand[(tsv >= lo) & (tsv <= hi)]
        return self._rank(reader, cand, acc[cand], k)

    def _segment_topk_pruned(
        self, reader: SegmentReader, scorers, k: int
    ) -> list[tuple[str, float]]:
        """MaxScore-style two-phase scoring with block-max refinement.

        Phase 1 scores "essential" terms (those whose upper bounds are needed
        to reach the current top-k) exhaustively; non-essential terms are
        scored only for candidate docs, decoding only the impact blocks that
        contain candidates. Exact: a doc absent from every essential posting
        list cannot reach the top-k by the upper-bound argument, which needs
        non-negative term weights (negative boosts score exhaustively)."""
        dl = self._dl(reader)
        info = []
        for i, (term, fn) in enumerate(scorers):
            if not reader.has_term(term):
                continue
            # upper bound: max tf, minimal dl=0 → tf/(tf + k1(1-b)) * w
            ub = float(fn(np.array([reader.max_tf(term)]),
                          np.zeros(1, dtype=np.float32))[0])
            info.append((i, term, fn, ub))
        if not info:
            return []
        if min(x[3] for x in info) < 0:
            return self._segment_topk(reader, scorers, k)
        # essential = large upper bounds first; keep until the remaining
        # bounds could not by themselves produce a top-k doc. With no
        # threshold known up-front, a safe heuristic: terms are essential
        # unless rarely discriminative; we take essential = all terms whose
        # cumulative tail UB >= smallest... simplest exact choice: essential
        # = the ceil(len/2) highest-UB terms, then verify via bound check.
        by_ub = sorted(info, key=lambda x: -x[3])
        acc = np.zeros(reader.local_span, dtype=np.float32)
        touched = np.zeros(reader.local_span, dtype=bool)
        n_ess = max(1, len(by_ub) - _count_prunable(by_ub, k))
        essential, rest = by_ub[:n_ess], by_ub[n_ess:]
        term_data: dict[int, tuple] = {}
        for i, term, fn, ub in essential:
            ords, tfs = reader.postings(term)
            term_data[i] = (ords, tfs)
            acc[ords] += fn(tfs, dl[ords])
            touched[ords] = True
        cand = np.flatnonzero(touched)
        if cand.size == 0:
            return []
        if rest:
            rest_ub = F(0)
            for x in rest:
                rest_ub += F(x[3])
            # threshold: kth best partial; docs outside cand can score at
            # most rest_ub (their essential partial is 0). Pruning them is
            # exact only when rest_ub < kth — otherwise fall back to the
            # exhaustive path (which is also the float32-order reference).
            partial = acc[cand]
            if cand.size > k:
                kth = np.partition(partial, cand.size - k)[cand.size - k]
            else:
                kth = F(-np.inf)
            if not (rest_ub < kth):
                return self._segment_topk(reader, scorers, k)
            for i, term, fn, ub in rest:
                meta = reader.block_meta(term)
                bf = meta[0]
                # decode only blocks whose ord range contains a candidate
                lasts = np.empty(bf.size, dtype=np.int64)
                lasts[:-1] = bf[1:] - 1
                lasts[-1] = reader.local_span - 1
                chosen = np.flatnonzero(
                    _blocks_with_candidates(bf, lasts, cand)
                )
                if chosen.size == 0:
                    continue
                if chosen.size * 4 >= bf.size:
                    # candidates hit most blocks: one vectorized full-list
                    # decode beats per-block decoding (which goes block-by-
                    # block in Python) — measured 3x on Zipfian head terms
                    ords, tfs = reader.postings(term)
                else:
                    ords, tfs = reader.decode_blocks(term, chosen, meta)
                term_data[i] = (ords, tfs)
                mask = touched[ords]
                o2, t2 = ords[mask], tfs[mask]
                if o2.size:
                    acc[o2] += fn(t2, dl[o2])
        # Final-candidate selection on phase scores (which may differ from the
        # exhaustive float32 sums by a few ulps because accumulation order was
        # UB-sorted), with a tie-safe margin …
        phase_scores = acc[cand]
        if cand.size > k:
            kth = np.partition(phase_scores, cand.size - k)[cand.size - k]
            keep = phase_scores >= kth - F(1e-4)
            cand = cand[keep]
        # … then an exact clause-order float32 rescore of just those
        # candidates, bit-identical to the exhaustive path.
        acc2 = np.zeros(cand.size, dtype=np.float32)
        for i, (term, fn) in enumerate(scorers):
            data = term_data.get(i)
            if data is None:
                continue
            ords, tfs = data
            pos = np.searchsorted(ords, cand)
            pos_c = np.minimum(pos, ords.size - 1)
            hit = ords[pos_c] == cand
            if hit.any():
                sub = pos_c[hit]
                acc2[hit] += fn(tfs[sub], dl[cand[hit]])
        return self._rank(reader, cand, acc2, k)

    def _rank(self, reader, cand, scores, k):
        """Order candidates by (score desc, docid tie key), take k."""
        if cand.size == 0:
            return []
        if cand.size > k:
            part = np.argpartition(-scores, k - 1)
            # include the whole tie group at the boundary
            kth_score = scores[part[k - 1]]
            keep = scores >= kth_score
            cand, scores = cand[keep], scores[keep]
        docids = reader.doc_id_strings(cand)
        order = sorted(
            range(cand.size),
            key=lambda i: (-scores[i], self._tie_key(docids[i])),
        )
        return [(docids[i], float(scores[i])) for i in order[:k]]

    def _hits(self, clauses, k: int, ts_range: tuple | None = None):
        """Per-segment top-k (docid, score) lists of a bag of weighted
        clauses: the pre-adjustment hits of `search` and `search_weighted`,
        and what each serving actor returns. A ts_range filter scores
        exhaustively."""
        scorers = self._scorers(clauses)
        if not scorers:
            return []
        return [
            self._segment_topk_pruned(r, scorers, k)
            if ts_range is None and self._prune_for(r)
            else self._segment_topk(r, scorers, k, ts_range)
            for r in self.readers
        ]

    def search(
        self,
        query_text: str,
        k: int = DEFAULT_K,
        adjust_ties: bool = True,
        ts_range: tuple | None = None,
    ):
        """ts_range=(lo_us, hi_us) adds a non-scoring timestamp FILTER over
        doc metadata (reference analog: the tweet LongPoint range clause,
        SearchCollection.java:575-582); requires ts in the index docmap."""
        hits = self._hits(self._clauses(query_text), k, ts_range)
        return _ranked(hits, k, adjust_ties, self._tie_key)

    def search_weighted(
        self, term_weights, k: int = DEFAULT_K, adjust_ties: bool = True
    ):
        """Weighted bag-of-terms query: [(term, boost), ...] — each clause
        scored as boost * similarity(term) (the reference's BoostQuery
        clauses, Rm3Reranker.java:86-90)."""
        return _ranked(self._hits(term_weights, k), k, adjust_ties,
                       self._tie_key)

    def document_by_field(self, field: str, value) -> dict | None:
        """First document whose stored FIELD equals value — reference
        `IndexReaderUtils.documentByField` (IndexReaderUtils.java:423-440:
        TermQuery top-1; null on no hit). Fields are the docmap columns
        (conv_id, turn_idx, dl, ts); returns the doc record dict or None."""
        for r in self.readers:
            if field == "conv_id":
                conv_col, _ = r._identity_columns()
                col = conv_col.to_pylist()
                matches = [i for i, v in enumerate(col) if v == value]
            elif field == "turn_idx":
                _, turn_col = r._identity_columns()
                matches = np.flatnonzero(turn_col == value).tolist()
            elif field == "dl":
                matches = np.flatnonzero(r.dl_raw == value).tolist()
            elif field == "ts" and r.ts is not None:
                matches = np.flatnonzero(r.ts == value).tolist()
            else:
                matches = []
            if matches:
                i = matches[0]  # dense docmap row
                conv_col, turn_col = r._identity_columns()
                conv = conv_col[i].as_py()
                turn = int(turn_col[i])
                out = {
                    "doc_id": f"{conv}:{turn}",
                    "conv_id": conv,
                    "turn_idx": turn,
                    "dl": int(r.dl_raw[i]),
                }
                if r.ts is not None:
                    out["ts"] = int(r.ts[i])
                return out
        return None

    # ------------------------------------------------------------- RM3 PRF
    def doc_vector(self, docid: str) -> dict[str, int]:
        for r in self.readers:
            lo = r.docid_to_local(docid)
            if lo is not None:
                return r.doc_vector(lo)
        return {}

    def _global_df(self, term: str) -> int:
        return self.global_df.get(term, 0)

    def search_rm3(
        self,
        query_text: str,
        k: int = DEFAULT_K,
        fb_terms: int = 10,
        fb_docs: int = 10,
        original_query_weight: float = 0.5,
        rerank_cutoff: int = 50,
        adjust_ties: bool = True,
    ):
        """RM3 pseudo-relevance feedback (reference
        `Rm3Reranker.java:69-242`): first pass at rerank_cutoff depth →
        relevance model from the top fb_docs doc vectors (term filters:
        length 2..20, [a-z0-9]+, df-ratio <= 10%) → top fb_terms, unit-L1,
        interpolate with the unit-L1 query model at original_query_weight →
        weighted second pass. Requires an index built with
        store_docvecs=True."""
        import re

        from .feature_vector import FeatureVector

        qfv = FeatureVector.from_terms(
            self.analyzer.analyze(query_text)
        ).scale_to_unit_l1()

        docids, scores = self.search(
            query_text, k=rerank_cutoff, adjust_ties=False
        )
        numdocs = min(fb_docs, len(docids))
        N = self.manifest.doc_count
        alnum = re.compile(r"^[a-z0-9]+$")
        docvectors = []
        for i in range(numdocs):
            dv = FeatureVector()
            for term, tf in self.doc_vector(docids[i]).items():
                if len(term) < 2 or len(term) > 20:
                    continue
                if not alnum.match(term):
                    continue
                if self._global_df(term) / N > 0.1:
                    continue
                dv.add_feature_weight(term, float(tf))
            dv.prune_to_size(fb_terms)
            docvectors.append(dv)

        rm = FeatureVector()
        vocab = set()
        for dv in docvectors:
            vocab |= set(dv.features)
        norms = [dv.l1() for dv in docvectors]
        for term in sorted(vocab):
            fb_weight = np.float32(0)
            for i, dv in enumerate(docvectors):
                if norms[i] > 0.001:
                    fb_weight = np.float32(
                        fb_weight
                        + (float(dv.get_feature_weight(term)) / norms[i])
                        * scores[i]
                    )
            rm.add_feature_weight(term, fb_weight)
        rm.prune_to_size(fb_terms)
        rm.scale_to_unit_l1()
        rm = FeatureVector.interpolate(qfv, rm, original_query_weight)

        return self.search_weighted(
            list(rm.features.items()), k=k, adjust_ties=adjust_ties
        )

    def phrase_search(
        self,
        phrase_text: str,
        k: int = DEFAULT_K,
        slop: int = 0,
        adjust_ties: bool = True,
    ):
        """Exact-phrase (slop=0) / ordered-window (slop>0) retrieval over
        positional postings: candidate docs must contain every analyzed
        phrase term with positions p, p+1..(+slop per gap) in order; matches
        are BM25-ranked over the phrase terms (docid tie-break + ties-adjust
        as usual). Requires a store_positions=True index. (Positional
        machinery analog: the reference's SDM span queries,
        `SdmQueryGenerator.java:56-88`.)"""
        terms = self.analyzer.analyze(phrase_text)
        scorers = self._scorers(Counter(terms).items(), self.params)
        SHIFT = np.int64(32)  # (doc_ord, position) -> single int64 key
        per_seg = []
        for r in self.readers if terms else ():
            datas = []
            for t in terms:
                datas.append(r.positions(t))
                if datas[-1] is None:
                    break
            if datas[-1] is None:
                continue
            # vectorized phrase walk: keys = doc<<32 | position; advancing a
            # phrase step is ONE sorted intersect of (matched keys + delta)
            # with the next term's keys — no per-candidate Python loop
            def term_keys(data):
                ords, tfs, flat, offs = data
                docs = np.repeat(ords, tfs)
                return (docs << SHIFT) | flat.astype(np.int64)

            cur = term_keys(datas[0])
            for data in datas[1:]:
                nxt_keys = term_keys(data)
                if slop == 0:
                    cur = np.intersect1d(cur + 1, nxt_keys, assume_unique=True)
                else:
                    shifted = np.concatenate(
                        [cur + d for d in range(1, 2 + slop)]
                    )
                    cur = np.intersect1d(np.unique(shifted), nxt_keys)
                if cur.size == 0:
                    break
            m = np.unique(cur >> SHIFT)
            dl = self._dl(r)
            acc = np.zeros(m.size, dtype=np.float32)
            for t, fn in scorers:
                ords, tfs, _, _ = datas[terms.index(t)]
                acc += fn(tfs[np.searchsorted(ords, m)], dl[m])
            per_seg.append(self._rank(r, m, acc, k))
        return _ranked(per_seg, k, adjust_ties, self._tie_key)

    def search_background_linking(
        self,
        query_docid: str,
        k_terms: int = 100,
        hits: int = DEFAULT_K,
        weighted: bool = False,
        paragraph: bool = False,
        text_provider=None,
        exclude_docids=None,
        dedup_threshold: float = 0.9,
    ):
        """News background-linking search (reference
        `SearchCollection.searchBackgroundLinking`,
        SearchCollection.java:488-564 + `BackgroundLinkingTopicReader.
        generateQueryString`:130-188 + `NewsBackgroundLinkingReranker`):

        1. Query construction per paragraph (first 5, via text_provider and
           blank-line splitting — the reference re-parses stored WaPo JSON)
           or whole-doc (the doc's stored term vector): keep analyzed tokens
           matching `[a-z]{2,}`, score tfIdf = tf * ln((1+N)/df), take the
           top k_terms (score desc, term case-insensitive asc tie-break);
           `weighted` boosts each term clause by its tfIdf.
        2. Per-paragraph search with docid score-tie break; the reference's
           kicker MUST_NOT filter (Opinions / Letters to the Editor / The
           Post's View) generalizes to the exclude_docids set — our schema
           has no kicker column, so the caller materializes the exclusion
           from its own metadata.
        3. Round-robin merge across paragraph result lists with score =
           hits - idx (SearchCollection.java:534-559).
        4. Near-dup removal: drop results whose tf-vector cosine vs the
           query doc >= 0.9, then pairwise among survivors (keep earlier) —
           NewsBackgroundLinkingReranker.java:57-70. Requires
           store_docvecs=True.
        """
        import math as _math
        import re as _re

        N = self.manifest.doc_count
        word_re = _re.compile(r"[a-z]+$")
        qvec = self.doc_vector(query_docid)
        if paragraph:
            if text_provider is None:
                raise ValueError("paragraph mode needs a text_provider")
            paras = [
                p for p in _re.split(r"\n\s*\n", text_provider(query_docid))
                if p.strip()
            ][:5]
            token_maps = [Counter(self.analyzer.analyze(p)) for p in paras]
        else:
            token_maps = [qvec]

        exclude = frozenset(exclude_docids or ())
        per_para = []
        for counts in token_maps:
            scored = []
            for term, cnt in counts.items():
                if len(term) < 2 or not word_re.match(term):
                    continue
                df = self._global_df(term)
                tfidf = cnt * _math.log((1.0 + N) / df) if df > 0 else 0.0
                scored.append((term, tfidf))
            scored.sort(key=lambda p: (-p[1], p[0].lower()))
            top = scored[:k_terms]
            if not top:
                per_para.append([])
                continue
            weights = [(t, (w if weighted else 1.0)) for t, w in top]
            d, s = self.search_weighted(weights, k=hits + len(exclude),
                                        adjust_ties=False)
            pairs = [
                (di, float(si)) for di, si in zip(d, s) if di not in exclude
            ]
            per_para.append(pairs[:hits])

        # round-robin merge; rank score = hits - idx. Duplicate docs across
        # paragraph lists (and the query doc itself) are NOT skipped here —
        # the cosine reranker removes them, exactly like the reference
        # (identical docvecs -> cosine 1.0 >= 0.9).
        total = min(hits, sum(len(p) for p in per_para))
        merged: list[tuple[str, float]] = []
        row = 0
        while len(merged) < total:
            progressed = False
            for plist in per_para:
                if row < len(plist) and len(merged) < total:
                    progressed = True
                    merged.append((plist[row][0], float(hits - len(merged))))
            if not progressed:
                break
            row += 1

        # near-duplicate removal via docvec cosine
        def _cos(a: dict, b: dict) -> float:
            if not a or not b:
                return 0.0
            dot = sum(v * b[t] for t, v in a.items() if t in b)
            na = _math.sqrt(sum(v * v for v in a.values()))
            nb = _math.sqrt(sum(v * v for v in b.values()))
            return dot / (na * nb) if na and nb else 0.0

        vecs = [self.doc_vector(d) for d, _ in merged]
        removed: set[int] = set()
        for i in range(len(merged)):
            if i in removed:
                continue
            if _cos(qvec, vecs[i]) >= dedup_threshold:
                removed.add(i)
                continue
            for j in range(i + 1, len(merged)):
                if _cos(vecs[i], vecs[j]) >= dedup_threshold:
                    removed.add(j)
        out = [merged[i] for i in range(len(merged)) if i not in removed]
        docids = [d for d, _ in out]
        scores = np.array([s for _, s in out], dtype=np.float32)
        return docids, scores

    def doc_vector_by_ord(self, global_ord: int) -> dict[str, int]:
        seg = global_ord >> self.manifest.seg_shift
        for r in self.readers:
            if r.segment_id == seg:
                return r.doc_vector(global_ord - r.base_ord)
        return {}

    def search_axiom(
        self,
        query_text: str,
        k: int = DEFAULT_K,
        r_top: int = 20,
        n_factor: int = 30,
        beta: float = 0.4,
        m_terms: int = 20,
        k_terms: int = 1000,
        seed: int = 42,
        rerank_cutoff: int = 50,
        adjust_ties: bool = True,
    ):
        """Axiomatic semantic query expansion (reference
        `AxiomReranker.java:143-553`, defaults R=20 N=30 beta=0.4 M=20
        seed=42 deterministic): reranking pool = top-R first-pass docs +
        seeded-uniform sample of (N-1)*R docs (sampled over the dense
        deterministic doc ordinals — the analog of the reference's sorted
        docid cache); per-query-term mutual information over the pool's
        term-docid sets; expansion weight = idf * beta * qtf * MI/selfMI
        (idf*qtf for the query term itself); aggregate, keep top-M, rescore
        as weighted BM25. Requires store_docvecs=True."""
        import random as _random

        import math

        q_tokens = self.analyzer.analyze(query_text)
        if not q_tokens:
            return [], np.array([], dtype=np.float32)
        docids, _ = self.search(query_text, k=rerank_cutoff, adjust_ties=False)
        N_docs = self.manifest.doc_count

        # pool: top R + seeded random ordinals
        pool: set[int] = set()
        ord_by_docid = {}
        for d in docids[:r_top]:
            for rd in self.readers:
                lo = rd.docid_to_local(d)
                if lo is not None:
                    g = rd.base_ord + lo
                    pool.add(g)
                    ord_by_docid[d] = g
                    break
        target = r_top * n_factor
        rng = _random.Random(seed)
        # Sample uniformly over the N_docs EXISTING docs: j-th doc overall ->
        # (reader, dense local) via cumulative per-segment counts, then
        # g = base_ord + dense_local. On legacy hole-free indexes every
        # segment is full, so g == j — bit-identical to sampling ordinals
        # directly (golden parity preserved); on streaming (hole-y) indexes
        # it never lands on a nonexistent ordinal.
        cum = np.cumsum([r.doc_count for r in self.readers])
        n_avail = int(cum[-1]) if cum.size else 0
        while len(pool) < min(target, n_avail):
            j = rng.randrange(n_avail)
            si = int(np.searchsorted(cum, j, side="right"))
            local = j - (int(cum[si - 1]) if si else 0)
            r_ = self.readers[si]
            pool.add(r_.base_ord + int(r_._raw_local[local]))

        # small inverted list over the pool
        inv: dict[str, set[int]] = {}
        for g in pool:
            for term in self.doc_vector_by_ord(g):
                inv.setdefault(term, set()).add(g)
        all_pool_docs = set()
        for s_ in inv.values():
            all_pool_docs |= s_
        total = len(all_pool_docs)

        def mi(sx: set, sy: set) -> float:
            x1, y1 = len(sx), len(sy)
            x0, y0 = total - x1, total - y1
            if x1 == 0 or x0 == 0 or y1 == 0 or y0 == 0:
                return 0.0
            px0, px1 = np.float32(x0 / total), np.float32(x1 / total)
            py0, py1 = np.float32(y0 / total), np.float32(y1 / total)
            n11 = len(sx & sy)
            n10 = x1 - n11
            n01 = y1 - n11
            n00 = total - n11 - n10 - n01
            p11, p10 = np.float32(n11 / total), np.float32(n10 / total)
            p01, p00 = np.float32(n01 / total), np.float32(n00 / total)
            out = 0.0
            if p00 != 0:
                out += float(p00) * math.log(float(p00) / float(px0 * py0))
            if p01 != 0:
                out += float(p01) * math.log(float(p01) / float(px0 * py1))
            if p10 != 0:
                out += float(p10) * math.log(float(p10) / float(px1 * py0))
            if p11 != 0:
                out += float(p11) * math.log(float(p11) / float(px1 * py1))
            return out

        agg: dict[str, float] = {}
        for q_term, qtf in Counter(q_tokens).items():
            df = self._global_df(q_term)
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
                        if self_mi != 0
                        else 0.0
                    )
                scored.append((term, score))
            scored.sort(key=lambda ts: (-ts[1], ts[0].lower()))
            for term, score in scored[: max(m_terms, k_terms)]:
                if score > 1e-8:
                    agg[term] = agg.get(term, 0.0) + score
        if not agg:
            return self.search(query_text, k, adjust_ties)
        final = sorted(
            ((t, s_ / len(q_tokens)) for t, s_ in agg.items()),
            key=lambda ts: (-ts[1], ts[0].lower()),
        )[:m_terms]
        return self.search_weighted(final, k=k, adjust_ties=adjust_ties)

    def search_sdm(
        self,
        query_text: str,
        k: int = DEFAULT_K,
        term_weight: float = 0.85,
        ordered_weight: float = 0.1,
        unordered_weight: float = 0.05,
        window: int = 8,
        adjust_ties: bool = True,
    ):
        """Sequential Dependence Model (reference `SdmQueryGenerator.java:
        56-88`): 0.85*terms + 0.1*SpanNear([t1,t2], slop=1, ordered) +
        0.05*SpanNear([t1,t2], slop=8, unordered) per adjacent pair, each
        span clause scored as BM25 with Lucene's sloppy frequencies:

        - ordered (NearSpansOrdered): for each t1 occurrence i, j = the
          first t2 position >= i+1 (the lag pointer never rewinds); match
          width = j-i-1; if width <= slop(1): freq += 1/(1+width).
        - unordered (NearSpansUnordered): two-pointer advance-the-minimum
          enumeration over both position lists; a state (i, j) matches when
          |i-j| - 1 <= slop(8) and contributes 1/(1+|i-j|) (width() is
          start-to-start in Lucene).
        - clause weight = boost * (idf(t1)+idf(t2)) (SpanWeight sums the
          idfs of all terms under the span), freq accumulated in float32.

        This replicates SpanNearQuery.sloppyFreq semantics (round-1 shipped
        an integer window-count analog); parity is against an independent
        per-doc scalar oracle implementing the same published algorithm
        (no JVM exists here to produce Lucene goldens). Requires a
        store_positions=True index."""
        terms = self.analyzer.analyze(query_text)
        if len(terms) < 2:
            return self.search(query_text, k, adjust_ties)
        N = self.params.doc_count
        pairs = list(zip(terms, terms[1:]))

        SHIFT = np.int64(32)
        ORD_SLOP = 1
        UNORD_SLOP = 8
        seg_pair_counts: list[dict] = []  # per reader: {pair: (docs, fo, fu)}
        for r in self.readers:
            pc_map = {}
            for pair in dict.fromkeys(pairs):
                t1, t2 = pair
                p1 = r.positions(t1)
                p2 = r.positions(t2)
                if p1 is None or p2 is None:
                    continue
                o1, tf1, f1, off1 = p1
                o2, tf2, f2, off2 = p2
                k1 = (np.repeat(o1, tf1) << SHIFT) | f1.astype(np.int64)
                k2 = (np.repeat(o2, tf2) << SHIFT) | f2.astype(np.int64)

                # ordered, fully vectorized: first t2-key >= i+1 per t1-key
                idx = np.searchsorted(k2, k1 + 1, side="left")
                valid = idx < k2.size
                j_key = k2[np.minimum(idx, k2.size - 1)]
                same_doc = (j_key >> SHIFT) == (k1 >> SHIFT)
                width = j_key - (k1 + 1)  # position gap when same doc
                m = valid & same_doc & (width <= ORD_SLOP)
                freq_o: dict[int, np.float32] = {}
                if m.any():
                    docs_m = (k1[m] >> SHIFT).astype(np.int64)
                    fac = (1.0 / (1.0 + width[m])).astype(np.float32)
                    for d, f in zip(docs_m, fac):  # position order per doc
                        freq_o[int(d)] = np.float32(
                            freq_o.get(int(d), np.float32(0)) + f
                        )

                # unordered: two-pointer advance-min per common doc
                freq_u: dict[int, np.float32] = {}
                common, i1, i2 = np.intersect1d(
                    o1, o2, assume_unique=True, return_indices=True
                )
                for d, a, b in zip(common, i1, i2):
                    pl1 = f1[off1[a] : off1[a + 1]]
                    pl2 = f2[off2[b] : off2[b + 1]]
                    x = y = 0
                    acc_f = np.float32(0)
                    while True:
                        i, j = int(pl1[x]), int(pl2[y])
                        dd = abs(i - j)
                        if dd - 1 <= UNORD_SLOP:
                            acc_f = np.float32(acc_f + np.float32(1.0 / (1 + dd)))
                        if i <= j:  # tie: advance subSpans[0]
                            x += 1
                            if x >= pl1.size:
                                break
                        else:
                            y += 1
                            if y >= pl2.size:
                                break
                    if acc_f > 0:
                        freq_u[int(d)] = acc_f

                if not freq_o and not freq_u:
                    continue
                docs = np.array(
                    sorted(set(freq_o) | set(freq_u)), dtype=np.int64
                )
                fo = np.array(
                    [freq_o.get(int(d), 0.0) for d in docs], dtype=np.float32
                )
                fu = np.array(
                    [freq_u.get(int(d), 0.0) for d in docs], dtype=np.float32
                )
                pc_map[pair] = (docs, fo, fu)
            seg_pair_counts.append(pc_map)

        # phase 2: score
        w_t, w_o, w_u = F(term_weight), F(ordered_weight), F(unordered_weight)
        unigrams = self._scorers(
            [(t, w_t * F(c)) for t, c in Counter(terms).items()], self.params
        )
        per_seg = []
        for r, pc_map in zip(self.readers, seg_pair_counts):
            dl = self._dl(r)
            acc, touched = self._accumulate(r, unigrams)
            for pair in pairs:  # duplicates in the query add clauses
                data = pc_map.get(pair)
                if data is None:
                    continue
                t1, t2 = pair
                gdf1 = self._global_df(t1)
                gdf2 = self._global_df(t2)
                if gdf1 <= 0 or gdf2 <= 0:
                    continue
                pair_idf = idf(gdf1, N) + idf(gdf2, N)  # SpanWeight idf sum
                docs, fo, fu = data
                for weight, freqs in ((w_o, fo), (w_u, fu)):
                    hit = freqs > 0
                    if not hit.any():
                        continue
                    w = weight * pair_idf
                    sub = docs[hit]
                    acc[sub] += self.params.score_postings(
                        w, freqs[hit], dl[sub]
                    )
                    touched[sub] = True
            cand = np.flatnonzero(touched)
            per_seg.append(self._rank(r, cand, acc[cand], k))
        return _ranked(per_seg, k, adjust_ties, self._tie_key)

    def search_slr(
        self, query_text: str, k: int = DEFAULT_K, adjust_ties: bool = True
    ):
        """SLR retrieval (reference `SLRQueryGenerator.java:55-106`): the
        query is whitespace-separated activation values; dimension i becomes
        a weighted clause (zfill(i,5), activation); score = sparse dot
        product via the "slr" similarity. Construct the searcher with
        similarity="slr" (and sim_params={"precision": p} matching the
        build)."""
        if self.similarity != "slr":
            raise ValueError('search_slr requires LocalSearcher(similarity="slr")')
        clauses = []
        for i, raw in enumerate(query_text.split()):
            try:
                v = float(raw)
            except ValueError:
                continue
            if v != 0.0:
                clauses.append((str(i).zfill(5), v))
        return self.search_weighted(clauses, k, adjust_ties)

    def search_bm25prf(
        self,
        query_text: str,
        k: int = DEFAULT_K,
        fb_terms: int = 20,
        fb_docs: int = 10,
        prf_k1: float = 0.9,
        prf_b: float = 0.4,
        new_term_weight: float = 0.2,
        rerank_cutoff: int = 50,
        adjust_ties: bool = True,
    ):
        """BM25PRF query expansion (reference `BM25PrfReranker.java`):
        first pass → Robertson offer-weight term selection over the top
        fb_docs term sets (new-term filters: len 2..20, [a-z0-9]+, not
        all-digits, dfRel >= 2) → top fb_terms new terms (weight
        new_term_weight) + the original terms (weight 1) → second pass
        under BM25 with idf ≡ 1 (BM25PrfSimilarity) and clause boosts =
        Robertson relevance weights. Requires store_docvecs=True."""
        import math

        import re as _re

        orig_terms = self.analyzer.analyze(query_text)
        docids, _ = self.search(query_text, k=rerank_cutoff, adjust_ties=False)
        numrel = min(fb_docs, len(docids))
        term_sets = [
            set(self.doc_vector(docids[i])) for i in range(numrel)
        ]
        vocab = set().union(*term_sets) if term_sets else set()
        N = self.manifest.doc_count
        alnum = _re.compile(r"^[a-z0-9]+$")
        digits = _re.compile(r"^[0-9]+$")

        def rel_weight(df, df_rel, mult):
            rw = (
                math.log(
                    (df_rel + 0.5)
                    * (N - df - numrel + df_rel + 0.5)
                    / ((df - df_rel + 0.5) * (numrel - df_rel + 0.5))
                )
                * mult
            )
            return max(rw, 1e-6)

        def offer_weight(df, df_rel, mult):
            return rel_weight(df, df_rel, mult) * math.log(max(df_rel, 1e-6))

        orig_set = set(orig_terms)
        new_feats: dict[str, tuple[int, int, float]] = {}
        for term in sorted(vocab):
            if term in orig_set:
                continue
            if len(term) < 2 or len(term) > 20:
                continue
            if not alnum.match(term) or digits.match(term):
                continue
            df = self._global_df(term)
            df_rel = sum(1 for ts in term_sets if term in ts)
            if df_rel < 2:
                continue
            new_feats[term] = (df, df_rel, new_term_weight)
        pruned = dict(
            sorted(
                new_feats.items(),
                key=lambda kv: (-offer_weight(*kv[1]), kv[0]),
            )[:fb_terms]
        )
        for term in orig_terms:
            df = self._global_df(term)
            df_rel = sum(1 for ts in term_sets if term in ts)
            pruned[term] = (df, df_rel, 1.0)

        weights = [(t, rel_weight(*f)) for t, f in pruned.items()]

        # second pass: BM25 with idf == 1 at (prf_k1, prf_b)
        prf_params = BM25Params(
            self.manifest.doc_count, self.manifest.sum_total_tf,
            prf_k1, prf_b, self.mode,
        )
        scorers = self._scorers(weights, prf_params, with_idf=False)
        per_seg = [self._segment_topk(r, scorers, k) for r in self.readers]
        return _ranked(per_seg, k, adjust_ties, self._tie_key)

    def batch_search(self, queries: Sequence[tuple], k: int = DEFAULT_K):
        """[(qid, text), ...] -> {qid: (docids, scores)} (SimpleSearcher
        `batchSearch`, `SimpleSearcher.java:213-284`)."""
        return {qid: self.search(text, k) for qid, text in queries}


def _count_prunable(info, k: int) -> int:
    """How many lowest-UB terms can be deferred to phase B. Heuristic: defer
    terms while the number of essential terms stays >= 1. Correctness never
    depends on this choice — only on the phase-B bound logic."""
    return max(0, len(info) - max(1, (len(info) + 1) // 2))


def _blocks_with_candidates(bf, lasts, cand) -> np.ndarray:
    """Boolean mask of blocks whose [first, last] ord range contains at least
    one candidate ord (cand sorted ascending)."""
    left = np.searchsorted(cand, bf, side="left")
    right = np.searchsorted(cand, lasts, side="right")
    return right > left


# --------------------------------------------------------------------------
# Ray serving: one actor per segment group (scatter/gather)
# --------------------------------------------------------------------------

def _make_segment_actor():
    import ray

    @ray.remote
    class SegmentSearchActor:
        def __init__(
            self, index_dir, segment_ids, k1, b, mode, analyzer_config, prune,
            similarity="bm25", sim_params=None,
        ):
            self.local = LocalSearcher(
                index_dir, segment_ids, k1, b, mode, analyzer_config, prune,
                similarity=similarity, sim_params=sim_params,
            )

        def search_many(self, queries, k):
            """{qid: per-segment top-k lists}, merged by the caller."""
            return {qid: self.local._hits(self.local._clauses(text), k)
                    for qid, text in queries}

    return SegmentSearchActor


class Searcher:
    """Serving facade over segment-group actors (Python API parity with the
    reference's `SimpleSearcher`)."""

    def __init__(
        self,
        index_dir: str,
        num_actors: int | None = None,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        mode: str | None = None,
        analyzer_config: dict | None = None,
        prune: bool = False,
        similarity: str = "bm25",
        sim_params: dict | None = None,
    ):
        self.manifest = IndexManifest.read(index_dir)
        seg_ids = [s["segment_id"] for s in self.manifest.segments]
        n = min(num_actors or len(seg_ids), len(seg_ids)) or 1
        groups = [seg_ids[i::n] for i in range(n)]
        Actor = _make_segment_actor()
        self.actors = [
            Actor.remote(
                index_dir, g, k1, b, mode, analyzer_config, prune,
                similarity, sim_params,
            )
            for g in groups
            if g
        ]

    def search(self, query_text: str, k: int = DEFAULT_K, adjust_ties: bool = True):
        return self.batch_search([("q", query_text)], k, adjust_ties)["q"]

    def batch_search(
        self, queries: Sequence[tuple], k: int = DEFAULT_K, adjust_ties: bool = True
    ):
        import ray

        futures = [a.search_many.remote(list(queries), k) for a in self.actors]
        partials = ray.get(futures)
        return {
            qid: _ranked([seg for p in partials for seg in p[qid]], k,
                         adjust_ties)
            for qid, _ in queries
        }

    def run_to_trec(self, queries, k: int = DEFAULT_K, runtag: str = "AnseriniRay"):
        results = self.batch_search(queries, k)
        lines = []
        for qid, _ in queries:
            docids, scores = results[qid]
            lines.extend(format_trec_run(qid, docids, scores, runtag))
        return lines

    def run_to_file(
        self,
        queries,
        path: str,
        k: int = DEFAULT_K,
        runtag: str = "AnseriniRay",
        skip_existing: bool = True,
    ) -> str | None:
        """Write a TREC run file; with skip_existing, an existing non-empty
        run is left untouched (reference -skipexists resume,
        SearchCollection.java:438-441)."""
        from .runio import run_exists, write_run_file

        if skip_existing and run_exists(path):
            return None
        return write_run_file(path, self.run_to_trec(queries, k, runtag))


class SearcherStage:
    """map_batches callable-class for query Datasets:
    ``queries_ds.map_batches(SearcherStage, fn_constructor_args=(index_dir,),
    concurrency=N, batch_size=B, batch_format="pyarrow")``.
    Each actor loads the full segment set once (single-node batch path)."""

    def __init__(self, index_dir: str, k: int = DEFAULT_K, **kwargs):
        self.local = LocalSearcher(index_dir, **kwargs)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docids, scores = [], [], [], []
        for qid, text in zip(
            batch["qid"].to_pylist(), batch["text"].to_pylist()
        ):
            d, s = self.local.search(text, self.k)
            for r, (di, si) in enumerate(zip(d, s)):
                qids.append(qid)
                ranks.append(r + 1)
                docids.append(di)
                scores.append(float(si))
        return pa.Table.from_arrays(
            [
                pa.array(qids),
                pa.array(ranks, type=pa.int32()),
                pa.array(docids, type=pa.string()),
                pa.array(scores, type=pa.float32()),
            ],
            names=["qid", "rank", "doc_id", "score"],
        )
