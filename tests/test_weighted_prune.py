"""Weighted queries share the MaxScore path with bag-of-words queries. Its
upper-bound argument holds only for non-negative term weights, so a
negative boost must score exhaustively and rank exactly as prune=False."""

import numpy as np


def test_pruned_weighted_search_with_negative_boost(ray_session, tmp_path):
    import ray.data

    from anserini_ray.index import IndexConfig, build_index
    from anserini_ray.search import LocalSearcher
    from anserini_ray.sources import generate_transcripts

    idx = str(tmp_path / "idx")
    build_index(
        ray.data.from_arrow(generate_transcripts(6000, seed=11,
                                                 empty_frac=0.05)),
        idx,
        IndexConfig(seg_shift=11, assume_sorted=True),
        input_files=[],
    )
    exhaustive, pruned = LocalSearcher(idx), LocalSearcher(idx, prune=True)
    for q in (
        [("row", 0.5), ("kei", 1.0), ("stream", 0.9), ("join", -8.0)],
        [("stream", 1.3), ("window", 2.0), ("model", 1.8), ("join", -8.0)],
        [("merg", 2.0), ("sort", 1.5), ("scan", 1.0), ("window", 0.5)],
    ):
        for k in (10, 1000):
            a = exhaustive.search_weighted(q, k)
            b = pruned.search_weighted(q, k)
            assert a[0] == b[0], (q, k)
            assert np.array_equal(a[1], b[1]), (q, k)
