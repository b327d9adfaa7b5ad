"""Seeded input generator for the benchmark.

Writes transcript Parquet files with the schema of the paper's corpus
(conv_id, turn_idx, role, text, tool, ts), sorted by (conv_id, turn_idx),
together with the token ids of every turn, which the checks in `oracle.py`
count on their own. Nothing here imports `anserini_ray`, so a library change
cannot change the inputs.

The corpus shape follows the repository's own Zipf corpus
(`anserini_ray.sources.transcripts.generate_zipf_transcripts`, the corpus of
`bench.py --zipf`): a 500,000-term vocabulary drawn with probability
proportional to rank^-1, eight turns per conversation, row groups of 8,192
rows and files of 100,000 rows. Turn lengths differ on purpose: that corpus
draws them uniformly from 3..60 (mean 31.5 tokens); here they are log-normal,
so that a few turns are much longer than the rest (see `perfbench/README.md`
for the parameters and why).

Words are built so that the default analyzer (UAX#29 tokenize, lowercase,
Lucene English stop set, Porter stemmer) leaves each one unchanged: five,
seven or nine lowercase ASCII letters over consonants `bdfgkmpvz` and vowels
`aou`, ending in a consonant. No Porter suffix rule matches such a word (every
rule's suffix ends in a vowel or holds one of c, e, i, l, n, r, s, t or y)
and none is a stop word. Planted terms start with `j`, a letter no
vocabulary word contains.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CONSONANTS = "bdfgkmpvz"
VOWELS = "aou"
# As `generate_zipf_transcripts` and `bench.py --zipf` (GRAFT_ZIPF_VOCAB).
VOCAB_SIZE = 500_000
ZIPF_S = 1.0
TURNS_PER_CONV = 8
ROW_GROUP_ROWS = 8_192
FILE_ROWS = 100_000  # rows per Parquet file


@functools.lru_cache(maxsize=1)
def vocabulary() -> np.ndarray:
    """The fixed word list: every CVCVC word, then every CVCVCVC word, then
    CVCVCVCVC words, in lexicographic order, cut at VOCAB_SIZE. The seed
    only permutes which word gets which Zipf rank."""
    syll = [c + v for c in CONSONANTS for v in VOWELS]
    words: list[str] = []
    stems = [""]
    while len(words) < VOCAB_SIZE:
        stems = [s + y for s in stems for y in syll]
        if len(stems[0]) < 4:
            continue
        words.extend(s + c for s in stems for c in CONSONANTS)
    return np.array(words[:VOCAB_SIZE], dtype=object)


@functools.lru_cache(maxsize=1)
def _word_lengths() -> np.ndarray:
    return np.fromiter((len(w) for w in vocabulary()), dtype=np.int64)


def planted_term(batch: int) -> str:
    """A term that occurs only in append batch `batch`."""
    out = []
    n = batch
    for _ in range(3):
        n, r = divmod(n, len(CONSONANTS) * len(VOWELS))
        out.append(CONSONANTS[r // len(VOWELS)] + VOWELS[r % len(VOWELS)])
    return "jo" + "".join(out) + "k"


def zipf_cdf(size: int = VOCAB_SIZE, s: float = ZIPF_S) -> np.ndarray:
    p = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** s
    return np.cumsum(p / p.sum())


def rank_to_word(seed: int) -> np.ndarray:
    """Seeded mapping from Zipf rank (0 = most frequent) to vocabulary id."""
    return np.random.default_rng([seed, 7]).permutation(VOCAB_SIZE)


class Corpus:
    """Token ids of every turn (CSR) plus the docids, in file order."""

    def __init__(self, docids: list[str], offsets: np.ndarray, tokens: np.ndarray,
                 paths: list[str]):
        self.docids = docids
        self.offsets = offsets  # int64, len = n_docs + 1
        self.tokens = tokens    # int32 vocabulary ids (planted ids >= VOCAB_SIZE)
        self.paths = paths

    @property
    def n_docs(self) -> int:
        return len(self.docids)

    @property
    def text_bytes(self) -> int:
        """UTF-8 bytes of the text column: every word is ASCII, joined by
        single spaces."""
        return int(self._word_len_sum() + (self.n_docs and
                                            (self.tokens.size - self.n_docs)))

    def _word_len_sum(self) -> int:
        lens = _word_lengths()
        pl = len(planted_term(0))
        ids = self.tokens
        in_vocab = ids < VOCAB_SIZE
        return int(lens[ids[in_vocab]].sum() + pl * int((~in_vocab).sum()))


def _turn_lengths(rng, n: int, median: float, sigma: float, cap: int) -> np.ndarray:
    """Heavy-tailed (log-normal) token counts, at least 1, at most cap."""
    x = rng.lognormal(np.log(median), sigma, n)
    return np.clip(np.rint(x), 1, cap).astype(np.int64)


def generate(out_dir: str, seed: int, stream: int, n_turns: int,
             median_len: float, sigma: float, cap: int,
             planted: int | None = None, prefix: str = "c") -> Corpus:
    """Write `n_turns` sorted turns as Parquet files under `out_dir`.

    `stream` separates independent draws from one seed (base corpus,
    append batch 1, 2, ...); `prefix` keeps their conversation ids apart.
    With `planted`, every turn of the batch gets the planted term
    (id VOCAB_SIZE + planted) once."""
    rng = np.random.default_rng([seed, stream])
    vocab = vocabulary()
    r2w = rank_to_word(seed)
    cdf = zipf_cdf()
    lens = _turn_lengths(rng, n_turns, median_len, sigma, cap)
    offsets = np.zeros(n_turns + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    ranks = np.searchsorted(cdf, rng.random(int(offsets[-1])), side="right")
    tokens = r2w[np.minimum(ranks, VOCAB_SIZE - 1)].astype(np.int32)
    if planted is not None:
        # the planted term replaces each turn's first token
        tokens[offsets[:-1]] = VOCAB_SIZE + planted
    conv_of = np.arange(n_turns) // TURNS_PER_CONV
    turn_idx = np.arange(n_turns) % TURNS_PER_CONV
    conv_ids = [f"{prefix}{seed:06d}-{c:08d}" for c in conv_of.tolist()]
    docids = [f"{c}:{t}" for c, t in zip(conv_ids, turn_idx.tolist())]

    words = np.concatenate([vocab, np.array([planted_term(planted or 0)],
                                            dtype=object)])
    word_ids = np.where(tokens >= VOCAB_SIZE, VOCAB_SIZE, tokens)
    flat = words[word_ids]
    texts = [" ".join(flat[offsets[i]:offsets[i + 1]]) for i in range(n_turns)]

    ts0 = 1_700_000_000_000_000 + seed * 1_000_000
    table = pa.table({
        "conv_id": pa.array(conv_ids, pa.string()),
        "turn_idx": pa.array(turn_idx.astype(np.int32), pa.int32()),
        "role": pa.array(np.where(turn_idx % 2 == 0, "user", "assistant"),
                         pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.nulls(n_turns, pa.string()),
        "ts": pa.array(ts0 + np.arange(n_turns, dtype=np.int64) * 1000,
                       pa.timestamp("us")),
    })
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for f, lo in enumerate(range(0, n_turns, FILE_ROWS)):
        path = os.path.join(out_dir, f"part-{f:04d}.parquet")
        pq.write_table(table.slice(lo, FILE_ROWS), path,
                       row_group_size=ROW_GROUP_ROWS)
        paths.append(path)
    np.save(os.path.join(out_dir, "offsets.npy"), offsets)
    np.save(os.path.join(out_dir, "tokens.npy"), tokens)
    with open(os.path.join(out_dir, "docids.txt"), "w") as f:
        f.write("\n".join(docids))
    return Corpus(docids, offsets, tokens, paths)


def _source_hash() -> str:
    with open(__file__, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def cached(cache_root: str, seed: int, stream: int, **params) -> Corpus:
    """`generate` behind a cache keyed by this file's source hash, the
    parameters and the seed. A half-written entry is never reused: the
    directory is renamed into place only when complete."""
    key = hashlib.sha256(repr((_source_hash(), seed, stream,
                               sorted(params.items()))).encode()).hexdigest()[:20]
    path = os.path.join(cache_root, key)
    if not os.path.isdir(path):
        tmp = path + f".tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(tmp, seed, stream, **params)
        try:
            os.replace(tmp, path)
        except OSError:  # another run finished the same entry first
            shutil.rmtree(tmp, ignore_errors=True)
    offsets = np.load(os.path.join(path, "offsets.npy"))
    tokens = np.load(os.path.join(path, "tokens.npy"))
    with open(os.path.join(path, "docids.txt")) as f:
        docids = f.read().split("\n")
    paths = sorted(os.path.join(path, p) for p in os.listdir(path)
                   if p.endswith(".parquet"))
    return Corpus(docids, offsets, tokens, paths)
