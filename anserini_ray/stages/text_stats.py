"""Text-analysis stages for training-data pipelines: language ID, quality
scoring, token counting, document fingerprinting.

All are stateless/stateful map_batches transforms over the documents or
transcripts tables; quality/token metrics are defined to be SQL-mirrorable
for the driver oracle where feasible.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ------------------------------------------------------------- language ID
# Tiny deterministic n-gram/stopword-profile classifier (public heuristic
# technique; profiles hand-rolled, no external data). Scores = weighted
# count of language-marker hits per token.
_LANG_MARKERS: dict[str, set[str]] = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "with", "for", "on"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "zu", "für"},
    "es": {"el", "la", "los", "las", "es", "de", "que", "y", "en", "por"},
    "fr": {"le", "la", "les", "est", "et", "des", "une", "que", "pour", "dans"},
    "zh": set(),  # handled via CJK character ratio
}


def detect_language(text: str) -> str:
    """Deterministic heuristic language ID. Defaults to 'en' on ties/unknown."""
    if not text:
        return "und"
    n_cjk = sum(1 for ch in text if "一" <= ch <= "鿿")
    if n_cjk > 0.2 * len(text):
        return "zh"
    toks = text.lower().split()
    if not toks:
        return "und"
    best, best_score = "en", -1.0
    for lang, markers in _LANG_MARKERS.items():
        if not markers:
            continue
        score = sum(1 for t in toks if t in markers) / len(toks)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score > 0 else "en"


class LanguageId:
    """map_batches stage (stateless, vectorized per batch)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs = pa.array(
            [detect_language(t or "") for t in batch[self.text_col].to_pylist()]
        )
        return batch.append_column("detected_lang", langs)


# ---------------------------------------------------------- quality scores

_STOP10 = frozenset("the a an of to in on is are and".split())


def quality_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc quality features (SQL-mirrorable: pure counts/ratios):
    n_chars, n_tokens, n_uniq_tokens, mean_token_len, stop_ratio."""
    texts = batch[text_col].to_pylist()
    n_chars = np.empty(len(texts), dtype=np.int64)
    n_tokens = np.empty(len(texts), dtype=np.int64)
    n_uniq = np.empty(len(texts), dtype=np.int64)
    mean_len = np.empty(len(texts), dtype=np.float64)
    stop_ratio = np.empty(len(texts), dtype=np.float64)
    for i, t in enumerate(texts):
        t = t or ""
        toks = t.lower().split()
        n_chars[i] = len(t)
        n_tokens[i] = len(toks)
        n_uniq[i] = len(set(toks))
        mean_len[i] = (
            sum(len(x) for x in toks) / len(toks) if toks else 0.0
        )
        stop_ratio[i] = (
            sum(1 for x in toks if x in _STOP10) / len(toks) if toks else 0.0
        )
    cols = {
        "n_chars": pa.array(n_chars),
        "n_tokens": pa.array(n_tokens),
        "n_uniq_tokens": pa.array(n_uniq),
        "mean_token_len": pa.array(mean_len),
        "stop_ratio": pa.array(stop_ratio),
    }
    out = batch
    for name, arr in cols.items():
        out = out.append_column(name, arr)
    return out


# ----------------------------------------------------------- token counts

_PROCESS_STAGES: dict = {}


def _process_stage(cls):
    """Per-worker-process instance of a stateful stage class, so that a
    plain task map builds the state once per worker (the pattern of
    `build._process_analyzer`). Unlike an actor pool it cannot starve on
    one CPU: a pool's actors hold the CPUs the input read is waiting for."""
    st = _PROCESS_STAGES.get(cls)
    if st is None:
        st = _PROCESS_STAGES[cls] = cls()
    return st


def token_count_batch(batch: pa.Table) -> pa.Table:
    """`TokenCounter` as a task-map function (one analyzer per process)."""
    return _process_stage(TokenCounter)(batch)


def pii_redact_batch(batch: pa.Table) -> pa.Table:
    """`PiiRedact` as a task-map function (patterns compiled per process)."""
    return _process_stage(PiiRedact)(batch)


class TokenCounter:
    """Analyzer-equivalent token counting (the analyzer is compiled once
    per instance). Emits doc token counts under both
    the whitespace tokenizer and the full analysis chain.

    WHITESPACE CONTRACT (round-4 behavior change, documented per ADVICE):
    ws_tokens counts runs of non-ASCII-whitespace via Arrow's RE2 ``\\S+``
    — RE2's ``\\s`` is ASCII-only ([ \\t\\n\\r\\f\\v]). Earlier rounds used
    Python str.split(), whose definition of whitespace additionally covers
    Unicode separators (NBSP U+00A0, ideographic space U+3000, ...), so
    documents containing those now count DIFFERENTLY than pre-round-4
    derived data: "a\\u00a0b" is 1 ws_token under this contract, 2 under
    str.split(). The ASCII contract is intentional — it matches the DuckDB
    oracle's regexp_split_to_array('\\s+') exactly and stays fully
    vectorized; pipelines needing Unicode-whitespace parity with legacy
    output should recompute, not mix, the two generations."""

    def __init__(self, analyzer_config: dict | None = None, text_col: str = "text"):
        from ..analysis import make_analyzer

        self.analyzer = make_analyzer(analyzer_config)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        # RE2 \S+ run count == the SQL oracle's regexp_split \s+ contract
        # (both RE2, ASCII whitespace), vectorized — NOT Python str.split(),
        # which adds Unicode whitespace classes
        ws = pc.cast(
            pc.fill_null(
                pc.count_substring_regex(batch[self.text_col], r"\S+"), 0
            ),
            pa.int64(),
        )
        texts = batch[self.text_col].to_pylist()
        analyzed = np.fromiter(
            (len(self.analyzer.analyze(t or "")) for t in texts),
            dtype=np.int64,
            count=len(texts),
        )
        return batch.append_column("ws_tokens", ws).append_column(
            "analyzed_tokens", pa.array(analyzed)
        )


# -------------------------------------------------------- fingerprinting

_FP_BASE = np.uint64(1099511628211)   # FNV-ish rolling base
_FP_INIT = np.uint64(14695981039346656037)


def rolling_fingerprint(text: str) -> int:
    """Deterministic 64-bit rolling (FNV-1a) fingerprint of the text."""
    h = _FP_INIT
    for b in text.encode("utf-8"):
        h = (h ^ np.uint64(b)) * _FP_BASE
    return int(h & np.uint64(0x7FFFFFFFFFFFFFFF))


# Padded byte-matrix budget for the vectorized fingerprint kernel. Batches
# whose (n_docs x max_len) matrix would exceed this are split along the
# length-sorted order, so each sub-batch pads against a near-uniform length.
_FP_MATRIX_BUDGET = 64 << 20


def rolling_fingerprints_batch(texts: list) -> np.ndarray:
    """Vectorized FNV-1a over a batch: identical output to
    rolling_fingerprint per doc, but the sequential per-byte chain runs
    ACROSS docs — docs sorted by length desc into a column-major padded
    byte matrix, then one (xor, multiply) vector op per byte position over
    the shrinking still-active prefix. O(total_bytes) vector work +
    O(max_len) loop overhead instead of O(total_bytes) Python-object ops
    (~100x on normal documents)."""
    n = len(texts)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return (out & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
    enc = [(t or "").encode("utf-8") for t in texts]
    lens = np.fromiter((len(e) for e in enc), dtype=np.int64, count=n)
    order = np.argsort(-lens, kind="stable")
    start = 0
    while start < n:
        # grow the sub-batch until the padded matrix would blow the budget
        max_len = max(int(lens[order[start]]), 1)
        stop = min(n, start + max(1, _FP_MATRIX_BUDGET // max_len))
        idx = order[start:stop]
        m = len(idx)
        sub_lens = lens[idx]
        buf = np.zeros((m, max_len), dtype=np.uint8, order="F")
        for r, i in enumerate(idx):
            e = enc[i]
            if e:
                buf[r, : len(e)] = np.frombuffer(e, dtype=np.uint8)
        h = np.full(m, _FP_INIT, dtype=np.uint64)
        # descending lengths -> the active set at byte j is a prefix
        counts = np.searchsorted(-sub_lens, -np.arange(1, max_len + 1), side="right")
        for j in range(max_len):
            k = counts[j]
            if k == 0:
                break
            hk = h[:k]
            np.multiply(hk ^ buf[:k, j], _FP_BASE, out=hk)
        out[idx] = h
        start = stop
    return (out & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


class Fingerprint:
    """Content fingerprints per doc: a 64-bit md5 prefix (hex, the
    cross-engine-checkable content hash — C-speed via hashlib) plus the
    FNV-1a rolling fingerprint (engine-internal)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib
        import warnings

        texts = batch[self.text_col].to_pylist()
        md5s = pa.array(
            [hashlib.md5((t or "").encode()).hexdigest()[:16] for t in texts]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # uint64 overflow is the algorithm
            fps = pa.array(rolling_fingerprints_batch(texts), type=pa.int64())
        # 'fingerprint' keeps its original round-1 type/semantics (FNV-1a
        # int64); the md5 hex prefix is the separately-named cross-engine
        # content hash (round-2 briefly swapped these — a breaking schema
        # change for external consumers, reverted per review)
        return batch.append_column("fingerprint", fps).append_column(
            "fingerprint_md5", md5s
        )


# ----------------------------------------------- repetition stats (Gopher)

def repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition filters (Rae et al. 2021, Table A1) adapted
    to single-line documents: duplicate-token fraction and the fraction of
    all word n-grams taken by the single most frequent n-gram (n=2,3).
    High values flag boilerplate / degenerate repetition. Map-only,
    SQL-mirrorable (REPETITION_STATS_SQL)."""
    texts = batch[text_col].to_pylist()
    n = len(texts)
    dup_frac = np.zeros(n, dtype=np.float64)
    top2 = np.zeros(n, dtype=np.float64)
    top3 = np.zeros(n, dtype=np.float64)
    for i, t in enumerate(texts):
        toks = (t or "").lower().split()
        if not toks:
            continue
        dup_frac[i] = 1.0 - len(set(toks)) / len(toks)
        for nn, out in ((2, top2), (3, top3)):
            total = len(toks) - nn + 1
            if total < 1:
                continue
            counts: dict = {}
            for j in range(total):
                g = " ".join(toks[j:j + nn])
                counts[g] = counts.get(g, 0) + 1
            out[i] = max(counts.values()) / total
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "dup_token_frac": pa.array(dup_frac),
            "top_bigram_frac": pa.array(top2),
            "top_trigram_frac": pa.array(top3),
        }
    )


# ------------------------------------------------------- PII redaction

# RE2-compatible patterns (identical semantics in Python re and DuckDB's
# regexp_* so the op is exactly SQL-mirrorable). Redaction order:
# email -> ipv4 -> phone; counts are taken on the ORIGINAL text.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b"
PII_PHONE = r"\b[0-9]{3}[-.][0-9]{3}[-.][0-9]{4}\b"


class PiiRedact:
    """map_batches callable: redact emails/IPv4s/phone numbers from a text
    column (-> <EMAIL>/<IP>/<PHONE>) and count matches per doc. Stateful
    stage: patterns compile once per actor/worker."""

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.email = re.compile(PII_EMAIL)
        self.ip = re.compile(PII_IPV4)
        self.phone = re.compile(PII_PHONE)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        n = len(texts)
        red = []
        n_email = np.zeros(n, dtype=np.int64)
        n_ip = np.zeros(n, dtype=np.int64)
        n_phone = np.zeros(n, dtype=np.int64)
        for i, t in enumerate(texts):
            t = t or ""
            n_email[i] = len(self.email.findall(t))
            n_ip[i] = len(self.ip.findall(t))
            n_phone[i] = len(self.phone.findall(t))
            t = self.email.sub("<EMAIL>", t)
            t = self.ip.sub("<IP>", t)
            t = self.phone.sub("<PHONE>", t)
            red.append(t)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text_redacted": pa.array(red, type=pa.string()),
                "n_emails": pa.array(n_email),
                "n_ips": pa.array(n_ip),
                "n_phones": pa.array(n_phone),
            }
        )


# ------------------------------------------- composite quality filter
# Gopher-style document filter (Rae et al. 2021, Table A1 subset adapted to
# single-line documents): token-count bounds, mean-token-length bounds, a
# minimum stopword count, and repetition caps. `reason` is the FIRST failing
# rule in a fixed order so the output is deterministic and SQL-mirrorable
# (QUALITY_FILTER_SQL).
QF_MIN_TOKENS = 20
QF_MAX_TOKENS = 100_000
QF_MIN_MEAN_TOKEN_LEN = 3.0
QF_MAX_MEAN_TOKEN_LEN = 10.0
QF_MIN_STOPWORDS = 2
QF_MAX_DUP_TOKEN_FRAC = 0.6
QF_MAX_TOP_BIGRAM_FRAC = 0.30

_QF_STOPSET = frozenset(
    ("the", "a", "an", "of", "to", "in", "on", "is", "are", "and")
)


def quality_filter_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc keep/drop verdict + first-failing-rule reason. Map-only."""
    texts = batch[text_col].to_pylist()
    n = len(texts)
    keep = np.ones(n, dtype=bool)
    reasons = [""] * n
    for i, t in enumerate(texts):
        toks = (t or "").lower().split()
        nt = len(toks)
        if nt < QF_MIN_TOKENS:
            keep[i], reasons[i] = False, "too_few_tokens"
            continue
        if nt > QF_MAX_TOKENS:
            keep[i], reasons[i] = False, "too_many_tokens"
            continue
        mean_len = sum(len(x) for x in toks) / nt
        if not (QF_MIN_MEAN_TOKEN_LEN <= mean_len <= QF_MAX_MEAN_TOKEN_LEN):
            keep[i], reasons[i] = False, "mean_token_len"
            continue
        if sum(1 for x in toks if x in _QF_STOPSET) < QF_MIN_STOPWORDS:
            keep[i], reasons[i] = False, "too_few_stopwords"
            continue
        if 1.0 - len(set(toks)) / nt > QF_MAX_DUP_TOKEN_FRAC:
            keep[i], reasons[i] = False, "dup_tokens"
            continue
        if nt >= 2:
            counts: dict = {}
            for j in range(nt - 1):
                g = toks[j] + " " + toks[j + 1]
                counts[g] = counts.get(g, 0) + 1
            if max(counts.values()) / (nt - 1) > QF_MAX_TOP_BIGRAM_FRAC:
                keep[i], reasons[i] = False, "top_bigram"
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "keep": pa.array(keep),
            "reason": pa.array(reasons, type=pa.string()),
        }
    )


# ----------------------------------------------- fixed-token chunking
def chunk_batch(
    batch: pa.Table,
    text_col: str = "text",
    chunk_tokens: int = 64,
    overlap: int = 16,
) -> pa.Table:
    """Split each doc into whitespace-token chunks of `chunk_tokens` with
    `overlap` tokens shared between consecutive chunks (stride =
    chunk_tokens - overlap). Emits (doc_id, chunk_idx, chunk_text,
    n_chunk_tokens); docs with no tokens emit no rows. flat_map-style but
    vectorized per batch; canonical single-space joins keep it exactly
    SQL-mirrorable (CHUNK_DOCUMENTS_SQL)."""
    stride = chunk_tokens - overlap
    assert stride > 0, "overlap must be smaller than chunk_tokens"
    ids = batch["doc_id"].to_pylist()
    texts = batch[text_col].to_pylist()
    out_id, out_idx, out_text, out_n = [], [], [], []
    for d, t in zip(ids, texts):
        toks = (t or "").split()
        nt = len(toks)
        if nt == 0:
            continue
        # last start index: the smallest i*stride reaching the final token
        n_chunks = 1 + max(0, -(-(nt - chunk_tokens) // stride))
        for i in range(n_chunks):
            s = i * stride
            piece = toks[s:s + chunk_tokens]
            out_id.append(d)
            out_idx.append(i)
            out_text.append(" ".join(piece))
            out_n.append(len(piece))
    return pa.table(
        {
            "doc_id": pa.array(out_id, type=pa.int64()),
            "chunk_idx": pa.array(out_idx, type=pa.int64()),
            "chunk_text": pa.array(out_text, type=pa.string()),
            "n_chunk_tokens": pa.array(out_n, type=pa.int64()),
        }
    )
