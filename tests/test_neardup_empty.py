"""Near-dup verification on inputs with nothing to verify: a corpus whose
docs share no candidate bucket, and a corpus without rows, both give an
empty pair result from every verifying near-dup entry point."""

import pyarrow as pa
import pytest


def _text_ds(texts):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    }))


def _vec_ds(vecs):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(len(vecs)), type=pa.int64()),
        "embedding": pa.array(vecs, type=pa.list_(pa.float64())),
    }))


def _minhash(ds):
    from anserini_ray.stages.dedup import minhash_lsh_dedup

    return minhash_lsh_dedup(ds, verify=True)


def _ngram_jaccard(ds):
    from anserini_ray.stages.dedup import ngram_jaccard_join

    return ngram_jaccard_join(ds, verify=True)


def _simhash(ds):
    from anserini_ray.stages.dedup import simhash_dedup

    return simhash_dedup(ds, verify=True)


def _embedding(ds):
    from anserini_ray.stages.ann import embedding_cosine_near_dup

    return embedding_cosine_near_dup(ds, threshold=0.999)


_UNIQUE_TEXTS = ["a b", "c"]
_UNIQUE_VECS = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("rows", ["unique", "none"])
@pytest.mark.parametrize(
    "entry,make_ds,unique",
    [
        (_minhash, _text_ds, _UNIQUE_TEXTS),
        (_ngram_jaccard, _text_ds, _UNIQUE_TEXTS),
        (_simhash, _text_ds, _UNIQUE_TEXTS),
        (_embedding, _vec_ds, _UNIQUE_VECS),
    ],
    ids=["minhash", "ngram_jaccard", "simhash", "embedding"],
)
def test_near_dup_verify_with_nothing_to_verify_is_empty(
    ray_session, entry, make_ds, unique, rows
):
    out = entry(make_ds(unique if rows == "unique" else []))
    assert out.take_all() == []
