"""GIF codec (stages/gif.py): lossless round trips across palette sizes
(LZW code-width growth through 512/1024/2048/4096 and the table-cap
clear-restart), interlace, grayscale, transparency compositing, header
walk (gif_info), and the multimodal / probe wiring."""

import struct

import numpy as np
import pytest

from anserini_ray.stages.gif import (
    _lzw_decode,
    _lzw_encode,
    decode_gif,
    encode_gif,
    gif_info,
)


def _pal_image(h, w, ncol, seed=0):
    rng = np.random.default_rng(seed)
    pal = rng.integers(0, 256, (ncol, 3)).astype(np.uint8)
    return pal[rng.integers(0, ncol, (h, w))]


@pytest.mark.parametrize("interlace", [False, True])
@pytest.mark.parametrize("hw_ncol", [(1, 1, 1), (7, 9, 2), (33, 47, 5),
                                     (64, 64, 200), (200, 173, 256)])
def test_round_trip_lossless(hw_ncol, interlace):
    h, w, ncol = hw_ncol
    img = _pal_image(h, w, ncol, seed=ncol)
    buf = encode_gif(img, interlace=interlace)
    assert buf[:6] == b"GIF89a" and buf[-1:] == b"\x3b"
    assert np.array_equal(decode_gif(buf), img)


def test_round_trip_grayscale_and_gradient():
    g = np.tile(np.arange(256, dtype=np.uint8), (30, 1))
    out = decode_gif(encode_gif(g))
    assert np.array_equal(out[:, :, 0], g)
    assert np.array_equal(out[:, :, 0], out[:, :, 1])


def test_lzw_table_cap_restart():
    # 256-color noise at 256x256 = 64K pixels forces the 4096-entry cap
    # and the encoder's clear-restart path
    img = _pal_image(256, 256, 256, seed=9)
    assert np.array_equal(decode_gif(encode_gif(img)), img)


def test_lzw_kernel_kwkwk_and_codes():
    # "ababab..." produces the KwKwK case immediately
    data = bytes([0, 1] * 50 + [0] * 30)
    enc = _lzw_encode(data, 2)
    assert bytes(_lzw_decode(enc, 2, len(data))) == data


def test_rejects_and_errors():
    with pytest.raises(ValueError):
        decode_gif(b"NOTAGIF0000000")
    with pytest.raises(ValueError):
        encode_gif(_pal_image(40, 40, 300, seed=1))  # >256 colors
    good = encode_gif(_pal_image(16, 16, 8))
    with pytest.raises(ValueError):
        decode_gif(good[: len(good) // 2])


def test_transparency_composites_background():
    # hand-build: 2-color global table, bg=1 (green), one 2x2 image where
    # index 0 is declared transparent -> those pixels keep the background
    gct = bytes([255, 0, 0, 0, 255, 0])  # red, green
    lzw = _lzw_encode(bytes([0, 1, 1, 0]), 2)
    buf = (
        b"GIF89a"
        + struct.pack("<HHBBB", 2, 2, 0x80, 1, 0)
        + gct
        + b"\x21\xf9\x04\x01\x00\x00\x00\x00"       # GCE: transparent idx 0
        + struct.pack("<BHHHHB", 0x2C, 0, 0, 2, 2, 0)
        + bytes([2, len(lzw)]) + lzw + b"\x00"
        + b"\x3b"
    )
    out = decode_gif(buf)
    green = np.array([0, 255, 0], dtype=np.uint8)
    # transparent (idx 0) pixels keep the background green; idx 1 pixels
    # are palette green — the whole screen ends up green
    assert np.array_equal(out, np.broadcast_to(green, (2, 2, 3)))


def test_gif_info_counts_frames():
    img = _pal_image(12, 15, 4)
    buf = bytearray(encode_gif(img))
    info = gif_info(bytes(buf))
    assert (info["width"], info["height"], info["frames"],
            info["version"]) == (15, 12, 1, "89a")
    # splice a second image block before the trailer
    single = bytes(buf)
    body = single[13 + 3 * 4 : -1]  # past header+gct, before trailer
    two = single[:-1] + body + b"\x3b"
    assert gif_info(two)["frames"] == 2


def test_multimodal_and_probe_wiring(ray_session):
    import ray.data

    from anserini_ray.stages.media_meta import probe_media
    from anserini_ray.stages.multimodal import (
        ImageResize,
        MediaFeatureExtract,
    )

    img = _pal_image(24, 31, 16, seed=3)
    buf = encode_gif(img)
    p = probe_media(buf)
    assert (p["kind"], p["codec"], p["width"], p["height"], p["n_units"]) \
        == ("image", "gif", 31, 24, 1)

    ds = ray.data.from_items(
        [{"item_id": "g1", "payload": buf, "media_type": "image/gif",
          "meta": "{}"}]
    )
    feats = ds.map_batches(
        MediaFeatureExtract(decoder="numpy"), batch_format="pyarrow",
        batch_size=4,
    ).take_all()
    v = np.asarray(feats[0]["features"])
    assert v.shape == (128,) and abs(v.sum() - 1.0) < 1e-5

    resized = ds.map_batches(
        ImageResize(target_w=16, target_h=12, decoder="numpy"),
        batch_format="pyarrow", batch_size=4,
    ).take_all()
    out_payload = resized[0]["payload"]
    from anserini_ray.stages import codecs as C

    out = (decode_gif(out_payload) if out_payload[:3] == b"GIF"
           else C.decode_png(out_payload))
    assert out.shape[:2] == (12, 16)


# ------------------------------------------------------------- animation

def test_animated_round_trip_and_first_frame_compat():
    from anserini_ray.stages.gif import decode_gif_frames, encode_gif_frames

    rng = np.random.default_rng(21)
    pal = rng.integers(0, 256, (20, 3)).astype(np.uint8)
    frames = [pal[rng.integers(0, 20, (18, 25))] for _ in range(5)]
    buf = encode_gif_frames(frames, delays_cs=[5, 10, 15, 20, 25])
    got, delays = decode_gif_frames(buf)
    assert delays == [5, 10, 15, 20, 25]
    assert all(np.array_equal(g, f) for g, f in zip(got, frames))
    # first-frame API and header walk agree
    assert np.array_equal(decode_gif(buf), frames[0])
    assert gif_info(buf)["frames"] == 5
    # max_frames truncation
    two, _ = decode_gif_frames(buf, max_frames=2)
    assert len(two) == 2
    with pytest.raises(ValueError):
        encode_gif_frames([])
    with pytest.raises(ValueError):
        encode_gif_frames([frames[0], frames[1][:4]])  # shape mismatch


def test_animated_disposal_restore_background():
    from anserini_ray.stages.gif import decode_gif_frames, _lzw_encode

    # 2 frames on a 2x2 screen with bg=green: frame 1 draws red in the
    # top-left 1x1 with disposal=2 (restore background); frame 2 draws
    # blue bottom-right. Frame 2's composite must show GREEN at (0,0).
    gct = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 0, 0, 0])  # r, g, b, pad
    lzw1 = _lzw_encode(bytes([0]), 2)           # 1x1 red
    lzw2 = _lzw_encode(bytes([2]), 2)           # 1x1 blue
    buf = (
        b"GIF89a"
        + struct.pack("<HHBBB", 2, 2, 0x81, 1, 0)  # gct 4 entries, bg=1
        + gct
        + struct.pack("<BBBBHBB", 0x21, 0xF9, 4, 2 << 2, 0, 0, 0)  # disp 2
        + struct.pack("<BHHHHB", 0x2C, 0, 0, 1, 1, 0)
        + bytes([2, len(lzw1)]) + lzw1 + b"\x00"
        + struct.pack("<BBBBHBB", 0x21, 0xF9, 4, 0, 0, 0, 0)
        + struct.pack("<BHHHHB", 0x2C, 1, 1, 1, 1, 0)
        + bytes([2, len(lzw2)]) + lzw2 + b"\x00"
        + b"\x3b"
    )
    frames, _ = decode_gif_frames(buf)
    assert len(frames) == 2
    red, green, blue = [255, 0, 0], [0, 255, 0], [0, 0, 255]
    assert frames[0][0, 0].tolist() == red
    # disposal 2 restored the red pixel to background green
    assert frames[1][0, 0].tolist() == green
    assert frames[1][1, 1].tolist() == blue
    # the first appended frame must NOT have been mutated by disposal
    assert frames[0][0, 0].tolist() == red


def test_video_frame_sample_demux_animated_gif(ray_session):
    import ray.data

    from anserini_ray.stages import codecs as C
    from anserini_ray.stages.gif import encode_gif_frames
    from anserini_ray.stages.multimodal import VideoFrameSample

    rng = np.random.default_rng(9)
    pal = rng.integers(0, 256, (10, 3)).astype(np.uint8)
    frames = [pal[rng.integers(0, 10, (12, 16))] for _ in range(6)]
    ds = ray.data.from_items(
        [{"item_id": 5, "payload": encode_gif_frames(frames),
          "media_type": "image/gif", "meta": "{}"}]
    )
    out = ds.map_batches(
        VideoFrameSample(stride=2, max_frames=3, decoder="demux"),
        batch_format="pyarrow", batch_size=4,
    ).take_all()
    assert [(r["item_id"], r["frame_idx"]) for r in out] == \
        [(5, 0), (5, 2), (5, 4)]
    assert all(r["media_type"] == "image/png" for r in out)
    for r in out:
        assert np.array_equal(C.decode_png(r["payload"]),
                              frames[r["frame_idx"]])


def test_transparent_index_past_color_table():
    # 2-color global table, transparent index 3 (past the table): pixels of
    # index 3 are never looked up and keep the background (green, index 1);
    # an opaque out-of-range index still raises
    gct = bytes([255, 0, 0, 0, 255, 0])  # red, green

    def gif(pixels, transparent):
        lzw = _lzw_encode(bytes(pixels), 2)
        return (
            b"GIF89a"
            + struct.pack("<HHBBB", 2, 2, 0x80, 1, 0)
            + gct
            + b"\x21\xf9\x04\x01\x00\x00" + bytes([transparent]) + b"\x00"
            + struct.pack("<BHHHHB", 0x2C, 0, 0, 2, 2, 0)
            + bytes([2, len(lzw)]) + lzw + b"\x00"
            + b"\x3b"
        )

    out = decode_gif(gif([0, 3, 3, 1], transparent=3))
    red, green = [255, 0, 0], [0, 255, 0]
    assert out.tolist() == [[red, green], [green, green]]
    with pytest.raises(ValueError, match="palette range"):
        decode_gif(gif([0, 3, 2, 1], transparent=3))


def test_image_resize_gif_falling_back_to_png_says_png(ray_session):
    import ray.data

    from anserini_ray.stages import codecs as C
    from anserini_ray.stages.multimodal import ImageResize

    many = encode_gif(_pal_image(16, 16, 200, seed=4))
    flat = encode_gif(np.full((8, 8, 3), 7, dtype=np.uint8))
    ds = ray.data.from_items([
        {"item_id": i, "payload": p, "media_type": "image/gif", "meta": "{}"}
        for i, p in enumerate([many, flat])
    ])
    out = {
        r["item_id"]: r
        for r in ds.map_batches(
            ImageResize(target_w=40, target_h=40, decoder="numpy"),
            batch_format="pyarrow", batch_size=4,
        ).take_all()
    }
    # bilinear blending of 200 colors yields more than 256: PNG, so says so
    assert out[0]["media_type"] == "image/png"
    assert C.decode_png(out[0]["payload"]).shape == (40, 40, 3)
    # a flat image stays within a GIF palette
    assert out[1]["media_type"] == "image/gif"
    assert out[1]["payload"][:6] == b"GIF89a"
