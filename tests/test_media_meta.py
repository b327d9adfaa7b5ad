"""Container metadata / demux (stages/media_meta.py): a spec-built MP4
with known sample layout round-trips through parse_mp4 and
mp4_sample_table (exact per-sample bytes back out of mdat), hand-built
MPEG audio frames through parse_mp3, and probe_media dispatches every
stdlib-covered format. No media libraries involved anywhere."""

import struct

import numpy as np
import pytest

from anserini_ray.stages import media_meta as M


# --------------------------------------------------------- MP4 builder

def _box(typ: bytes, payload: bytes) -> bytes:
    return struct.pack(">I4s", 8 + len(payload), typ) + payload


def _full(typ: bytes, payload: bytes, version: int = 0) -> bytes:
    return _box(typ, bytes([version, 0, 0, 0]) + payload)


def _build_mp4(samples, samples_per_chunk=(2, 3), timescale=1000,
               sample_delta=40, co64=False, width=320, height=180):
    """Minimal valid ISO-BMFF file: ftyp + mdat(samples) + moov with one
    avc1 video track. samples_per_chunk is the stsc pattern: first run
    applies to chunk 1, second to all later chunks."""
    mdat_payload = b"".join(samples)
    ftyp = _box(b"ftyp", b"isom\x00\x00\x02\x00isomiso2")
    mdat = _box(b"mdat", mdat_payload)
    mdat_base = len(ftyp) + 8  # absolute offset of the first sample

    # chunk layout: run1 = spc[0] samples in chunk 1, then spc[1]/chunk
    spc0, spc1 = samples_per_chunk
    chunks = []
    i = 0
    if i < len(samples):
        chunks.append(list(range(i, min(i + spc0, len(samples)))))
        i += spc0
    while i < len(samples):
        chunks.append(list(range(i, min(i + spc1, len(samples)))))
        i += spc1
    offs = []
    pos = mdat_base
    consumed = 0
    for ch in chunks:
        offs.append(pos)
        clen = sum(len(samples[s]) for s in ch)
        pos += clen
        consumed += clen

    n = len(samples)
    dur = n * sample_delta
    mvhd = _full(b"mvhd", struct.pack(">IIII", 0, 0, timescale, dur)
                 + b"\x00" * 80)
    tkhd = _full(b"tkhd", struct.pack(">IIIII", 0, 0, 1, 0, dur)
                 + b"\x00" * 52
                 + struct.pack(">II", width << 16, height << 16))
    mdhd = _full(b"mdhd", struct.pack(">IIII", 0, 0, timescale, dur)
                 + struct.pack(">HH", 0x55C4, 0))
    hdlr = _full(b"hdlr", b"\x00" * 4 + b"vide" + b"\x00" * 12
                 + b"VideoHandler\x00")
    avc1 = struct.pack(">I4s", 8 + 78, b"avc1") + (
        b"\x00" * 6 + struct.pack(">H", 1)          # reserved + dri
        + b"\x00" * 16                                # predefined/reserved
        + struct.pack(">HH", width, height)
        + struct.pack(">II", 0x00480000, 0x00480000)  # dpi
        + b"\x00" * 4 + struct.pack(">H", 1)          # frame count
        + b"\x00" * 32 + struct.pack(">H", 24)
        + struct.pack(">h", -1)
    )
    stsd = _full(b"stsd", struct.pack(">I", 1) + avc1)
    stts = _full(b"stts", struct.pack(">III", 1, n, sample_delta))
    stsc_runs = [(1, spc0, 1)]
    if len(chunks) > 1:
        stsc_runs.append((2, spc1, 1))
    stsc = _full(b"stsc", struct.pack(">I", len(stsc_runs)) + b"".join(
        struct.pack(">III", *r) for r in stsc_runs))
    stsz = _full(b"stsz", struct.pack(">II", 0, n) + b"".join(
        struct.pack(">I", len(s)) for s in samples))
    if co64:
        stco = _full(b"co64", struct.pack(">I", len(offs)) + b"".join(
            struct.pack(">Q", o) for o in offs))
    else:
        stco = _full(b"stco", struct.pack(">I", len(offs)) + b"".join(
            struct.pack(">I", o) for o in offs))
    stbl = _box(b"stbl", stsd + stts + stsc + stsz + stco)
    minf = _box(b"minf", stbl)
    mdia = _box(b"mdia", mdhd + hdlr + minf)
    trak = _box(b"trak", tkhd + mdia)
    moov = _box(b"moov", mvhd + trak)
    return ftyp + mdat + moov


def _samples(k=7, seed=3):
    rng = np.random.default_rng(seed)
    return [bytes(rng.integers(0, 256, int(rng.integers(5, 40))).astype(
        np.uint8).tobytes()) for _ in range(k)]


def test_mp4_parse_and_exact_demux():
    samples = _samples(7)
    buf = _build_mp4(samples, samples_per_chunk=(2, 3), timescale=1000,
                     sample_delta=40)
    info = M.parse_mp4(buf)
    assert info["brand"] == "isom"
    assert info["duration_s"] == pytest.approx(7 * 40 / 1000)
    (tr,) = info["tracks"]
    assert tr["kind"] == "video" and tr["codec"] == "avc1"
    assert (tr["width"], tr["height"]) == (320, 180)
    assert tr["n_samples"] == 7
    assert tr["duration_s"] == pytest.approx(0.28)

    offsets, sizes = M.mp4_sample_table(buf, kind="video")
    assert len(offsets) == len(sizes) == 7
    for i, s in enumerate(samples):
        assert M.mp4_extract_sample(buf, offsets, sizes, i) == s


@pytest.mark.parametrize("co64", [False, True])
@pytest.mark.parametrize("spc", [(1, 1), (3, 2), (7, 7)])
def test_mp4_demux_chunk_layouts(co64, spc):
    samples = _samples(7, seed=co64 + spc[0])
    buf = _build_mp4(samples, samples_per_chunk=spc, co64=co64)
    offsets, sizes = M.mp4_sample_table(buf)
    for i, s in enumerate(samples):
        assert M.mp4_extract_sample(buf, offsets, sizes, i) == s


@pytest.mark.parametrize("co64", [False, True])
@pytest.mark.parametrize("spc", [1, 3, 99])
def test_library_muxer_round_trips(co64, spc):
    # mux_mp4 (library writer) against the demuxer; the OTHER tests use
    # this file's independent spec-built fixture, so the two writers
    # cross-check each other
    samples = _samples(11, seed=spc + co64)
    buf = M.mux_mp4(samples, width=128, height=72,
                    samples_per_chunk=spc, co64=co64)
    info = M.parse_mp4(buf)
    (tr,) = info["tracks"]
    assert (tr["kind"], tr["codec"], tr["width"], tr["height"],
            tr["n_samples"]) == ("video", "avc1", 128, 72, 11)
    offsets, sizes = M.mp4_sample_table(buf, kind="video")
    for i, s in enumerate(samples):
        assert M.mp4_extract_sample(buf, offsets, sizes, i) == s
    with pytest.raises(ValueError):
        M.mux_mp4([])


def test_mp4_rejects_missing_tables():
    with pytest.raises(ValueError):
        M.mp4_sample_table(_box(b"ftyp", b"isom") + _box(b"moov", b""))


# --------------------------------------------------------------- MP3

def _mp3_frame_bytes(bitrate_kbps=128, sample_rate=44100, padding=0):
    """One valid MPEG-1 Layer III frame header + zero payload."""
    br_idx = [32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256,
              320].index(bitrate_kbps) + 1
    sr_idx = [44100, 48000, 32000].index(sample_rate)
    b1 = 0xE0 | (3 << 3) | (1 << 1) | 1     # sync, MPEG1, Layer III
    b2 = (br_idx << 4) | (sr_idx << 2) | (padding << 1)
    b3 = 0xC0                                # mono
    flen = 144 * bitrate_kbps * 1000 // sample_rate + padding
    return bytes([0xFF, b1, b2, b3]) + b"\x00" * (flen - 4)


def test_mp3_walk_cbr_vbr_and_id3():
    cbr = b"".join(_mp3_frame_bytes(128, 44100, p % 2) for p in range(5))
    id3 = b"ID3\x04\x00\x00\x00\x00\x00\x0a" + b"\x00" * 10
    info = M.parse_mp3(id3 + cbr)
    assert info["frames"] == 5
    assert info["sample_rate"] == 44100 and info["channels"] == 1
    assert info["duration_s"] == pytest.approx(5 * 1152 / 44100)
    assert info["bitrate_kbps"] == 128 and not info["vbr"]

    vbr = _mp3_frame_bytes(64) + _mp3_frame_bytes(192) + _mp3_frame_bytes(128)
    vinfo = M.parse_mp3(vbr)
    assert vinfo["frames"] == 3 and vinfo["vbr"]
    assert vinfo["bitrate_kbps"] == pytest.approx((64 + 192 + 128) / 3)

    with pytest.raises(ValueError):
        M.parse_mp3(b"\x00" * 64)


# ------------------------------------------------------------- probing

def test_probe_media_dispatches_all_formats():
    from anserini_ray.stages import codecs as C
    from anserini_ray.stages import jpeg as J

    img = np.zeros((17, 23, 3), dtype=np.uint8)
    img[:, :, 0] = np.arange(23, dtype=np.uint8)[None, :]

    p = M.probe_media(C.encode_png(img))
    assert (p["kind"], p["codec"], p["width"], p["height"]) == (
        "image", "png", 23, 17)
    p = M.probe_media(J.encode_jpeg(img))
    assert (p["codec"], p["width"], p["height"]) == ("jpeg", 23, 17)
    p = M.probe_media(J.encode_jpeg(img, progressive=True))
    assert p["codec"] == "jpeg-progressive" and p["width"] == 23
    p = M.probe_media(C.encode_bmp(img))
    assert (p["codec"], p["width"], p["height"]) == ("bmp", 23, 17)
    p = M.probe_media(C.encode_ppm(img))
    assert (p["codec"], p["width"], p["height"]) == ("ppm", 23, 17)

    wav = C.encode_wav(np.zeros(8000, dtype=np.int16), sample_rate=16000)
    p = M.probe_media(wav)
    assert (p["kind"], p["codec"], p["sample_rate"]) == ("audio", "pcm",
                                                         16000)
    assert p["duration_s"] == pytest.approx(0.5)

    p = M.probe_media(_build_mp4(_samples(4)))
    assert (p["kind"], p["codec"], p["width"], p["height"], p["n_units"]) \
        == ("video", "avc1", 320, 180, 4)

    p = M.probe_media(b"".join(_mp3_frame_bytes() for _ in range(2)))
    assert (p["kind"], p["codec"], p["n_units"]) == ("audio", "mp3", 2)

    assert M.probe_media(b"garbage!")["kind"] is None


# ------------------------------------------------------ pipeline wiring

def test_video_frame_sample_demux_returns_exact_sample_bytes(ray_session):
    import ray.data

    from anserini_ray.stages.multimodal import VideoFrameSample

    samples = _samples(9, seed=12)
    buf = _build_mp4(samples, samples_per_chunk=(4, 3))
    ds = ray.data.from_items(
        [{"item_id": 7, "payload": buf, "media_type": "video/mp4",
          "meta": "{}"}]
    )
    out = ds.map_batches(
        VideoFrameSample(stride=3, max_frames=2, decoder="demux"),
        batch_format="pyarrow", batch_size=4,
    ).take_all()
    assert [(r["item_id"], r["frame_idx"]) for r in out] == [(7, 0), (7, 3)]
    assert out[0]["payload"] == samples[0]
    assert out[1]["payload"] == samples[3]
    assert all(r["media_type"] == "video/sample" for r in out)

    with pytest.raises(NotImplementedError):
        VideoFrameSample(decoder="real")


def test_media_metadata_stage_over_mixed_batch(ray_session):
    import ray.data

    from anserini_ray.stages import codecs as C
    from anserini_ray.stages import jpeg as J

    img = np.zeros((9, 11, 3), dtype=np.uint8)
    rows = [
        {"item_id": 1, "payload": _build_mp4(_samples(3))},
        {"item_id": 2, "payload": C.encode_wav(
            np.zeros(4000, dtype=np.int16), sample_rate=8000)},
        {"item_id": 3, "payload": J.encode_jpeg(img)},
        {"item_id": 4, "payload": b"not media at all"},
    ]
    out = (
        ray.data.from_items(rows)
        .map_batches(M.MediaMetadata(), batch_format="pyarrow",
                     batch_size=2, concurrency=2)
        .take_all()
    )
    by_id = {r["item_id"]: r for r in out}
    assert by_id[1]["kind"] == "video" and by_id[1]["codec"] == "avc1"
    assert by_id[2]["kind"] == "audio" and by_id[2]["duration_s"] == \
        pytest.approx(0.5)
    assert by_id[3]["kind"] == "image" and by_id[3]["width"] == 11
    assert by_id[4]["kind"] is None


@pytest.mark.parametrize(
    "sampwidth,channels,rate,nframes",
    [(1, 1, 8000, 1234), (3, 2, 16000, 700)],
)
def test_probe_wav_sample_count_follows_block_align(
    tmp_path, sampwidth, channels, rate, nframes
):
    """8-bit mono and 24-bit stereo WAVs written by the stdlib wave module
    report their true frame count and duration; a fmt chunk with
    block_align 0 leaves both unset."""
    import wave

    path = tmp_path / "a.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(sampwidth)
        w.setframerate(rate)
        w.writeframes(b"\x00" * (nframes * channels * sampwidth))
    payload = path.read_bytes()
    p = M.probe_media(payload)
    assert (p["kind"], p["codec"], p["sample_rate"], p["channels"]) == (
        "audio", "pcm", rate, channels)
    assert p["n_units"] == nframes
    assert p["duration_s"] == pytest.approx(nframes / rate)

    fmt = payload.index(b"fmt ")
    zeroed = payload[: fmt + 20] + b"\x00\x00" + payload[fmt + 22 :]
    p = M.probe_media(zeroed)
    assert (p["sample_rate"], p["n_units"], p["duration_s"]) == (
        rate, None, None)
