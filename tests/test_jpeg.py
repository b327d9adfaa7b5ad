"""JPEG codec (stages/jpeg.py): round trips across sampling / restart /
quality configurations, progressive-vs-baseline pixel identity (same
quantized coefficients through both entropy layouts), optimal-Huffman
table properties, spec-side checks of the DCT matrix and Huffman code
assignment (independent of the codec's own code paths), and rejection of
unsupported frame types."""

import numpy as np
import pytest

from anserini_ray.stages import jpeg as J


def _gradient(h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack(
        [(xx * 255 / max(w, 1)), (yy * 255 / max(h, 1)),
         ((xx + yy) * 255 / max(h + w, 1))],
        axis=2,
    ).astype(np.uint8)


# ------------------------------------------------------------- spec checks

def test_dct_matrix_matches_direct_definition():
    # independent O(N^2) cosine-sum evaluation of the DCT-II basis
    direct = np.empty((8, 8))
    for k in range(8):
        s = np.sqrt(1 / 8) if k == 0 else np.sqrt(2 / 8)
        for n in range(8):
            direct[k, n] = s * np.cos((2 * n + 1) * k * np.pi / 16)
    assert np.allclose(J._DCT, direct, atol=1e-12)
    # orthonormal: C @ C.T == I, so decode inverts encode exactly
    assert np.allclose(J._DCT @ J._DCT.T, np.eye(8), atol=1e-12)


def test_huffman_code_assignment_is_canonical_and_prefix_free():
    for bits, vals in (J.DC_LUM, J.DC_CHROM, J.AC_LUM, J.AC_CHROM):
        codes = J._huff_codes(bits, vals)
        assert len(codes) == sum(bits) == len(vals)
        by_len = {}
        for sym, (code, length) in codes.items():
            assert 0 <= code < (1 << length)
            by_len.setdefault(length, []).append(code)
        # canonical: codes of each length are consecutive, and the first
        # code of length L+1 is (last of L + 1) << 1  (Annex C)
        prev_last = None
        for length in sorted(by_len):
            cs = sorted(by_len[length])
            assert cs == list(range(cs[0], cs[0] + len(cs)))
            if prev_last is not None:
                expect = (prev_last[1] + 1) << (length - prev_last[0])
                assert cs[0] == expect
            prev_last = (length, cs[-1])
        # prefix-free across lengths
        all_codes = [
            (code, length) for code, length in codes.values()
        ]
        for c1, l1 in all_codes:
            for c2, l2 in all_codes:
                if l1 < l2:
                    assert (c2 >> (l2 - l1)) != c1


def test_magnitude_category_round_trips_through_extend():
    for v in [-255, -128, -2, -1, 1, 2, 37, 128, 1023]:
        size, bits = J._magnitude(v)
        assert J._extend(bits, size) == v
    assert J._magnitude(0) == (0, 0)


def test_bitwriter_stuffs_ff_and_destuff_reverses():
    w = J._BitWriter()
    w.write(0xFF, 8)
    w.write(0xAB, 8)
    raw = w.flush()
    assert raw == b"\xff\x00\xab"
    intervals, used = J._destuff(raw + b"\xff\xd9")
    assert intervals == [b"\xff\xab"] and used == len(raw)


# ------------------------------------------------------------- round trips

@pytest.mark.parametrize("sub", ["444", "420"])
@pytest.mark.parametrize("restart", [0, 3])
def test_round_trip_color(sub, restart):
    img = _gradient(37, 53)
    buf = J.encode_jpeg(img, quality=90, subsampling=sub,
                        restart_interval=restart)
    assert buf[:2] == b"\xff\xd8" and buf[-2:] == b"\xff\xd9"
    out = J.decode_jpeg(buf)
    assert out.shape == img.shape
    err = np.abs(out.astype(int) - img.astype(int))
    # 4:4:4 tracks closely; 4:2:0 pays chroma subsampling on the gradient
    assert err.mean() < (1.0 if sub == "444" else 3.0)
    assert err.max() <= (8 if sub == "444" else 20)


def test_round_trip_grayscale_and_flat():
    g = _gradient(24, 31)[:, :, 0]
    og = J.decode_jpeg(J.encode_jpeg(g, quality=95))
    assert og.shape == g.shape and og.ndim == 2
    assert np.abs(og.astype(int) - g.astype(int)).mean() < 0.5

    flat = np.full((16, 24, 3), [120, 40, 200], dtype=np.uint8)
    of = J.decode_jpeg(J.encode_jpeg(flat, quality=90))
    assert np.abs(of.astype(int) - flat.astype(int)).max() <= 1


def test_round_trip_odd_dims_and_single_block():
    for h, w in [(1, 1), (7, 9), (8, 8), (129, 77)]:
        img = _gradient(h, w)
        out = J.decode_jpeg(
            J.encode_jpeg(img, quality=85, subsampling="420",
                          restart_interval=2)
        )
        assert out.shape == img.shape


def test_quality_ladder_monotone_size_and_error():
    rng = np.random.default_rng(7)
    img = (
        _gradient(48, 64).astype(int)
        + rng.integers(-20, 20, (48, 64, 3))
    ).clip(0, 255).astype(np.uint8)
    sizes, errs = [], []
    for q in (30, 60, 90):
        buf = J.encode_jpeg(img, quality=q)
        out = J.decode_jpeg(buf)
        sizes.append(len(buf))
        errs.append(np.abs(out.astype(int) - img.astype(int)).mean())
    assert sizes[0] < sizes[1] < sizes[2]
    assert errs[0] > errs[1] > errs[2]


# ------------------------------------------------------------ progressive

@pytest.mark.parametrize("sub", ["444", "420"])
@pytest.mark.parametrize("restart", [0, 3])
def test_progressive_decodes_identical_to_baseline(sub, restart):
    # same quantized coefficients travel both entropy layouts, so the
    # decoded pixels must match bit-for-bit — the strongest oracle the
    # progressive path has without an external decoder in the sandbox
    rng = np.random.default_rng(11)
    imgs = [
        _gradient(37, 53),
        rng.integers(0, 256, (40, 56, 3)).astype(np.uint8),  # all symbols
    ]
    flat = np.full((64, 48, 3), 90, np.uint8)  # long EOB runs
    flat[5, 7] = [255, 0, 0]
    flat[50, 40] = [0, 255, 0]
    imgs.append(flat)
    for img in imgs:
        base = J.encode_jpeg(img, quality=90, subsampling=sub,
                             restart_interval=restart)
        prog = J.encode_jpeg(img, quality=90, subsampling=sub,
                             restart_interval=restart, progressive=True)
        assert prog[:2] == b"\xff\xd8" and b"\xff\xc2" in prog
        assert np.array_equal(J.decode_jpeg(base), J.decode_jpeg(prog))


def test_progressive_grayscale_and_custom_scripts():
    g = _gradient(24, 31)[:, :, 0]
    base = J.decode_jpeg(J.encode_jpeg(g, quality=95))
    assert np.array_equal(
        base, J.decode_jpeg(J.encode_jpeg(g, quality=95, progressive=True))
    )
    # spectral-selection-only script (no successive approximation)
    spectral = [((0,), 0, 0, 0, 0), ((0,), 1, 5, 0, 0), ((0,), 6, 63, 0, 0)]
    assert np.array_equal(
        base,
        J.decode_jpeg(J.encode_jpeg(g, quality=95, progressive=True,
                                    scan_script=spectral)),
    )
    # deep successive-approximation ladder exercises repeated refinement
    deep = [
        ((0,), 0, 0, 0, 3),
        ((0,), 1, 63, 0, 3),
        ((0,), 1, 63, 3, 2),
        ((0,), 0, 0, 3, 2),
        ((0,), 0, 0, 2, 1),
        ((0,), 1, 63, 2, 1),
        ((0,), 1, 63, 1, 0),
        ((0,), 0, 0, 1, 0),
    ]
    assert np.array_equal(
        base,
        J.decode_jpeg(J.encode_jpeg(g, quality=95, progressive=True,
                                    scan_script=deep)),
    )


def test_progressive_rejects_bad_scan_scripts():
    g = _gradient(16, 16)[:, :, 0]
    bad = [
        [((0,), 1, 63, 0, 0)],                         # AC before DC
        [((0,), 0, 0, 0, 0)],                          # AC never sent
        [((0,), 0, 0, 0, 1), ((0,), 1, 63, 0, 0)],     # DC never refined
        [((0,), 0, 63, 0, 0)],                         # mixes DC and AC
        [((0,), 0, 0, 0, 2), ((0,), 1, 63, 0, 0),
         ((0,), 0, 0, 2, 0)],                          # Ah skips a level
    ]
    for script in bad:
        with pytest.raises(ValueError):
            J.encode_jpeg(g, progressive=True, scan_script=script)


def test_optimal_huffman_tables_are_valid_and_decodable():
    rng = np.random.default_rng(5)
    for trial in range(20):
        nsym = int(rng.integers(1, 60))
        syms = rng.choice(256, size=nsym, replace=False)
        freqs = {int(s): int(rng.integers(1, 10_000)) for s in syms}
        bits, vals = J._optimal_huffman(freqs)
        assert sum(bits) == len(vals) == len(freqs)
        assert sorted(vals) == sorted(freqs)
        codes = J._huff_codes(bits, vals)
        # prefix-free with all lengths <= 16
        seen = set()
        for sym, (code, length) in codes.items():
            assert 1 <= length <= 16
            seen.add((code, length))
            for other, (c2, l2) in codes.items():
                if other != sym and l2 >= length:
                    assert (c2 >> (l2 - length)) != code
        assert len(seen) == len(codes)


# ---------------------------------------------------------------- rejects

def test_rejects_unsupported_frames_and_garbage():
    img = _gradient(16, 16)
    buf = bytearray(J.encode_jpeg(img))
    sof = buf.find(b"\xff\xc0")
    for sofn in (0xC3, 0xC9, 0xCB):  # lossless, arithmetic seq, arith prog
        bad = bytearray(buf)
        bad[sof + 1] = sofn
        with pytest.raises(NotImplementedError):
            J.decode_jpeg(bytes(bad))
    # SOF2 frame with a sequential-style (full-band) scan is invalid
    bad = bytearray(buf)
    bad[sof + 1] = 0xC2
    with pytest.raises(ValueError):
        J.decode_jpeg(bytes(bad))
    with pytest.raises(ValueError):
        J.decode_jpeg(b"\x89PNG not a jpeg")
    # truncated entropy stream
    good = J.encode_jpeg(img)
    with pytest.raises(ValueError):
        J.decode_jpeg(good[: len(good) // 2])


# ------------------------------------------------------- pipeline wiring

def test_media_feature_extract_and_resize_accept_jpeg(ray_session):
    import ray.data

    from anserini_ray.stages.multimodal import (
        ImageResize,
        MediaFeatureExtract,
    )

    img = _gradient(40, 56)
    ds = ray.data.from_items(
        [{"item_id": "j1", "payload": J.encode_jpeg(img, quality=90),
          "media_type": "image/jpeg", "meta": "{}"},
         {"item_id": "j2",
          "payload": J.encode_jpeg(img, quality=90, progressive=True),
          "media_type": "image/jpeg", "meta": "{}"}]
    )
    feats = ds.map_batches(
        MediaFeatureExtract(decoder="numpy"),
        batch_format="pyarrow",
        batch_size=8,
    ).take_all()
    v = np.asarray(feats[0]["features"])
    assert v.shape == (128,) and abs(v.sum() - 1.0) < 1e-5
    # identical pixels through either entropy layout -> identical features
    assert np.array_equal(v, np.asarray(feats[1]["features"]))

    resized = ds.map_batches(
        ImageResize(target_w=24, target_h=16, decoder="numpy"),
        batch_format="pyarrow",
        batch_size=8,
    ).take_all()
    out = J.decode_jpeg(resized[0]["payload"])
    assert out.shape == (16, 24, 3)


@pytest.mark.parametrize("restart", [0, 3])
def test_fill_bytes_before_markers_are_skipped(restart):
    # T.81 B.1.1.2: any marker may be preceded by any number of 0xFF fill
    # bytes — before a header segment, before SOS, before every RSTn inside
    # the scan and before EOI
    img = _gradient(40, 45)
    buf = J.encode_jpeg(img, quality=85, restart_interval=restart)
    sos = buf.index(b"\xff\xda")
    head, scan = buf[2:sos], buf[sos:-2]
    for m in range(0xD0, 0xD8):
        scan = scan.replace(bytes([0xFF, m]), bytes([0xFF, 0xFF, 0xFF, m]))
    if restart:
        assert scan.count(b"\xff\xff\xff") > 1
    filled = (b"\xff\xd8" + b"\xff" + head + b"\xff\xff" + scan
              + b"\xff\xff\xff\xd9")
    assert np.array_equal(J.decode_jpeg(filled), J.decode_jpeg(buf))
