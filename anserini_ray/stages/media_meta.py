"""Container-level media metadata and demux, pure stdlib + numpy.

Real multimodal pipelines need per-item media stats (duration, codec,
resolution, bitrate) and frame/sample ACCESS long before they need full
decode — and container parsing, unlike entropy decoding, needs no media
library:

- ``parse_mp4``: ISO base media (MP4/MOV, ISO/IEC 14496-12) box walker —
  brands, movie duration, per-track codec fourcc / dimensions / sample
  rate / channel count / sample and chunk counts.
- ``mp4_sample_table``: flattens the stbl sample tables (stsc x
  stco/co64 x stsz) into per-sample (offset, size) arrays — a real
  demuxer; the encoded sample bytes come straight out of mdat by offset.
  DECODING those samples (H.264/AAC) remains NotImplementedError
  territory in stages/multimodal.py (library-bound, declared).
- ``parse_mp3``: ID3v2 skip + MPEG audio frame-header walk (ISO/IEC
  11172-3 / 13818-3 header tables) — frame count, duration, average
  bitrate, CBR/VBR detection.
- ``probe_media``: magic-byte dispatch (MP4 / MP3 / WAV / PNG / JPEG /
  BMP / PPM-PGM) to one normalized metadata dict, header-only (no pixel
  or sample decode).
- ``MediaMetadata``: the actor-pool map_batches stage over (item_id,
  payload) rows -> one normalized metadata row per item.

Reference parity note: the reference engine has no media path — these
stages come from the LLM-pipeline brief; the formats are public ISO/IEC
/ W3C specs.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

# ----------------------------------------------------------------- MP4

_MP4_CONTAINERS = {
    "moov", "trak", "mdia", "minf", "stbl", "edts", "udta", "dinf",
    "mvex", "moof", "traf",
}


def _iter_boxes(buf: bytes, start: int, end: int):
    """Yield (type, payload_start, box_end) for the boxes in [start, end)."""
    i = start
    while i + 8 <= end:
        size, typ = struct.unpack_from(">I4s", buf, i)
        hdr = 8
        if size == 1:
            if i + 16 > end:
                break
            (size,) = struct.unpack_from(">Q", buf, i + 8)
            hdr = 16
        elif size == 0:  # to end of enclosing box
            size = end - i
        if size < hdr or i + size > end:
            break  # corrupt size: stop scanning this level
        yield typ.decode("latin1"), i + hdr, i + size
        i += size


def _fullbox(buf: bytes, off: int) -> tuple[int, int]:
    """(version, payload offset past version+flags)."""
    return buf[off], off + 4


def _parse_stsd(buf: bytes, lo: int, hi: int) -> dict:
    out: dict = {}
    if lo + 8 > hi:
        return out
    _, p = _fullbox(buf, lo)
    (count,) = struct.unpack_from(">I", buf, p)
    p += 4
    if count < 1 or p + 8 > hi:
        return out
    (esize,) = struct.unpack_from(">I", buf, p)
    fourcc = buf[p + 4 : p + 8].decode("latin1")
    out["codec"] = fourcc
    e = p  # entry start (size + fourcc at e, e+4)
    if esize >= 36 and e + 36 <= hi:
        # VisualSampleEntry: 8cc + 8 (reserved/dri) + 16 predefined,
        # then width(2) height(2) (14496-12 s12.1.3)
        w, h = struct.unpack_from(">HH", buf, e + 32)
        if 0 < w < 1 << 15 and 0 < h < 1 << 15:
            out["width"], out["height"] = w, h
        # AudioSampleEntry: channelcount(2)@+24 samplesize(2)
        # samplerate 16.16 fixed @+32 (s12.2.3)
        ch, _ss = struct.unpack_from(">HH", buf, e + 24)
        (sr_fixed,) = struct.unpack_from(">I", buf, e + 32)
        if 1 <= ch <= 64 and 0 < (sr_fixed >> 16) <= 384_000:
            out["channels"] = ch
            out["sample_rate"] = sr_fixed >> 16
    return out


def _parse_track(buf: bytes, lo: int, hi: int) -> dict:
    tr: dict = {"kind": None, "codec": None}
    for typ, p, q in _iter_boxes(buf, lo, hi):
        if typ == "tkhd":
            v, fp = _fullbox(buf, p)
            # width/height are the LAST 8 bytes, 16.16 fixed
            if q - 8 >= fp:
                w_fixed, h_fixed = struct.unpack_from(">II", buf, q - 8)
                if w_fixed and h_fixed:
                    tr.setdefault("width", w_fixed >> 16)
                    tr.setdefault("height", h_fixed >> 16)
        elif typ == "mdia":
            for t2, p2, q2 in _iter_boxes(buf, p, q):
                if t2 == "mdhd":
                    v, fp = _fullbox(buf, p2)
                    if v == 1:
                        ts, dur = struct.unpack_from(">IQ", buf, fp + 16)
                    else:
                        ts, dur = struct.unpack_from(">II", buf, fp + 8)
                    if ts:
                        tr["timescale"] = ts
                        tr["duration_s"] = dur / ts
                elif t2 == "hdlr":
                    handler = buf[p2 + 8 : p2 + 12].decode("latin1")
                    tr["kind"] = {"vide": "video", "soun": "audio"}.get(
                        handler, handler.strip() or None
                    )
                elif t2 == "minf":
                    for t3, p3, q3 in _iter_boxes(buf, p2, q2):
                        if t3 != "stbl":
                            continue
                        for t4, p4, q4 in _iter_boxes(buf, p3, q3):
                            if t4 == "stsd":
                                tr.update(_parse_stsd(buf, p4, q4))
                            elif t4 == "stts":
                                _, fp4 = _fullbox(buf, p4)
                                (n,) = struct.unpack_from(">I", buf, fp4)
                                ent = np.frombuffer(
                                    buf, dtype=">u4", count=2 * n,
                                    offset=fp4 + 4,
                                ).reshape(-1, 2)
                                tr["n_samples"] = int(ent[:, 0].sum())
                                tr["media_duration"] = int(
                                    (ent[:, 0].astype(np.int64)
                                     * ent[:, 1]).sum()
                                )
                            elif t4 in ("stsz", "stz2", "stsc", "stco",
                                        "co64"):
                                tr.setdefault("_stbl", {})[t4] = (p4, q4)
    if "media_duration" in tr and tr.get("timescale"):
        tr["duration_s"] = tr["media_duration"] / tr["timescale"]
    return tr


def parse_mp4(buf: bytes) -> dict:
    """Parse an ISO-BMFF container: brands, movie duration, tracks."""
    out: dict = {"container": "mp4", "tracks": []}
    for typ, p, q in _iter_boxes(buf, 0, len(buf)):
        if typ == "ftyp":
            out["brand"] = buf[p : p + 4].decode("latin1")
        elif typ == "moov":
            for t2, p2, q2 in _iter_boxes(buf, p, q):
                if t2 == "mvhd":
                    v, fp = _fullbox(buf, p2)
                    if v == 1:
                        ts, dur = struct.unpack_from(">IQ", buf, fp + 16)
                    else:
                        ts, dur = struct.unpack_from(">II", buf, fp + 8)
                    if ts:
                        out["duration_s"] = dur / ts
                elif t2 == "trak":
                    out["tracks"].append(_parse_track(buf, p2, q2))
    for tr in out["tracks"]:
        tr.pop("_stbl", None)
        tr.pop("media_duration", None)
    return out


def _track_stbl_spans(buf: bytes, kind: str | None = None) -> dict | None:
    """Locate the stbl sub-box spans of the first track (optionally of a
    given kind) — internal helper for mp4_sample_table."""
    for typ, p, q in _iter_boxes(buf, 0, len(buf)):
        if typ != "moov":
            continue
        for t2, p2, q2 in _iter_boxes(buf, p, q):
            if t2 != "trak":
                continue
            tr = _parse_track(buf, p2, q2)
            if kind is not None and tr.get("kind") != kind:
                continue
            if "_stbl" in tr:
                return tr["_stbl"]
    return None


def mp4_sample_table(buf: bytes, kind: str | None = None):
    """Flatten the sample tables of the first track (optionally filtered
    by kind: "video"/"audio") into per-sample absolute file offsets and
    sizes — (offsets int64[n], sizes int64[n]). This IS the demux step:
    ``buf[offsets[i] : offsets[i] + sizes[i]]`` is sample i's encoded
    bytes. Raises ValueError if the track or its tables are absent."""
    spans = _track_stbl_spans(buf, kind)
    if not spans or "stsc" not in spans or (
        "stco" not in spans and "co64" not in spans
    ) or "stsz" not in spans:
        raise ValueError("no complete sample table in container")

    p, q = spans["stsz"]
    _, fp = _fullbox(buf, p)
    fixed_size, n_samples = struct.unpack_from(">II", buf, fp)
    if n_samples > (1 << 28):  # corrupt count must not become a GB alloc
        raise ValueError("implausible MP4 sample count")
    if fixed_size:
        sizes = np.full(n_samples, fixed_size, dtype=np.int64)
    else:
        sizes = np.frombuffer(
            buf, dtype=">u4", count=n_samples, offset=fp + 8
        ).astype(np.int64)

    if "stco" in spans:
        p, q = spans["stco"]
        _, fp = _fullbox(buf, p)
        (n_chunks,) = struct.unpack_from(">I", buf, fp)
        chunk_off = np.frombuffer(
            buf, dtype=">u4", count=n_chunks, offset=fp + 4
        ).astype(np.int64)
    else:
        p, q = spans["co64"]
        _, fp = _fullbox(buf, p)
        (n_chunks,) = struct.unpack_from(">I", buf, fp)
        chunk_off = np.frombuffer(
            buf, dtype=">u8", count=n_chunks, offset=fp + 4
        ).astype(np.int64)

    p, q = spans["stsc"]
    _, fp = _fullbox(buf, p)
    (n_runs,) = struct.unpack_from(">I", buf, fp)
    runs = np.frombuffer(
        buf, dtype=">u4", count=3 * n_runs, offset=fp + 4
    ).reshape(-1, 3).astype(np.int64)  # (first_chunk 1-based, spc, desc)

    # expand stsc runs to a per-chunk samples-per-chunk vector (zeros, not
    # empty: a corrupt stsc that skips chunks must not read garbage)
    spc = np.zeros(n_chunks, dtype=np.int64)
    for i in range(n_runs):
        first = runs[i, 0] - 1
        last = runs[i + 1, 0] - 1 if i + 1 < n_runs else n_chunks
        spc[first:last] = runs[i, 1]
    if spc.min(initial=0) < 0 or int(spc.sum()) > (1 << 30):
        raise ValueError("implausible MP4 chunk layout")
    # the stsz sample count is authoritative; the final chunk may hold
    # fewer samples than its stsc run claims (14496-12 s8.7.4)
    n = min(sizes.size, int(spc.sum()))
    sizes = sizes[:n]
    sample_chunk = np.repeat(np.arange(n_chunks, dtype=np.int64), spc)[:n]
    csum = np.cumsum(sizes) - sizes  # global exclusive prefix
    chunk_first = np.concatenate([[0], np.cumsum(spc)])[:-1]
    first_in_chunk = np.minimum(chunk_first[sample_chunk], n - 1)
    offsets = chunk_off[sample_chunk] + (csum - csum[first_in_chunk])
    return offsets, sizes


def mp4_extract_sample(buf: bytes, offsets, sizes, i: int) -> bytes:
    return buf[int(offsets[i]) : int(offsets[i]) + int(sizes[i])]


# ------------------------------------------------------------ MP4 muxer


def _mp4_box(typ: bytes, payload: bytes) -> bytes:
    return struct.pack(">I4s", 8 + len(payload), typ) + payload


def _mp4_full(typ: bytes, payload: bytes, version: int = 0) -> bytes:
    return _mp4_box(typ, bytes([version, 0, 0, 0]) + payload)


def mux_mp4(samples, *, width: int = 320, height: int = 180,
            codec: bytes = b"avc1", timescale: int = 1000,
            sample_delta: int = 40, samples_per_chunk: int = 4,
            co64: bool = False) -> bytes:
    """Minimal single-track ISO-BMFF muxer: wrap already-encoded sample
    payloads (e.g. video access units) into a valid MP4 that parse_mp4 /
    mp4_sample_table read back byte-exactly. The encode-side complement
    of the demuxer — enough for synthetic corpora and round-trip tests;
    no B-frame reordering, edit lists or fragmented (moof) output."""
    samples = [bytes(s) for s in samples]
    n = len(samples)
    if n == 0:
        raise ValueError("mux_mp4 needs at least one sample")
    ftyp = _mp4_box(b"ftyp", b"isom\x00\x00\x02\x00isomiso2")
    mdat = _mp4_box(b"mdat", b"".join(samples))
    base = len(ftyp) + 8

    chunks = [samples[i : i + samples_per_chunk]
              for i in range(0, n, samples_per_chunk)]
    offs = []
    pos = base
    for ch in chunks:
        offs.append(pos)
        pos += sum(len(s) for s in ch)

    dur = n * sample_delta
    mvhd = _mp4_full(b"mvhd", struct.pack(">IIII", 0, 0, timescale, dur)
                     + b"\x00" * 80)
    tkhd = _mp4_full(b"tkhd", struct.pack(">IIIII", 0, 0, 1, 0, dur)
                     + b"\x00" * 52
                     + struct.pack(">II", width << 16, height << 16))
    mdhd = _mp4_full(b"mdhd", struct.pack(">IIII", 0, 0, timescale, dur)
                     + struct.pack(">HH", 0x55C4, 0))
    hdlr = _mp4_full(b"hdlr", b"\x00" * 4 + b"vide" + b"\x00" * 12
                     + b"VideoHandler\x00")
    entry = struct.pack(">I4s", 8 + 78, codec) + (
        b"\x00" * 6 + struct.pack(">H", 1)
        + b"\x00" * 16
        + struct.pack(">HH", width, height)
        + struct.pack(">II", 0x00480000, 0x00480000)
        + b"\x00" * 4 + struct.pack(">H", 1)
        + b"\x00" * 32 + struct.pack(">H", 24)
        + struct.pack(">h", -1)
    )
    stsd = _mp4_full(b"stsd", struct.pack(">I", 1) + entry)
    stts = _mp4_full(b"stts", struct.pack(">III", 1, n, sample_delta))
    stsc = _mp4_full(b"stsc", struct.pack(">IIII", 1, 1,
                                          samples_per_chunk, 1))
    stsz = _mp4_full(b"stsz", struct.pack(">II", 0, n) + b"".join(
        struct.pack(">I", len(s)) for s in samples))
    if co64:
        stco = _mp4_full(b"co64", struct.pack(">I", len(offs)) + b"".join(
            struct.pack(">Q", o) for o in offs))
    else:
        stco = _mp4_full(b"stco", struct.pack(">I", len(offs)) + b"".join(
            struct.pack(">I", o) for o in offs))
    stbl = _mp4_box(b"stbl", stsd + stts + stsc + stsz + stco)
    moov = _mp4_box(b"moov", mvhd + _mp4_box(
        b"trak", tkhd + _mp4_box(b"mdia", mdhd + hdlr + _mp4_box(
            b"minf", stbl))))
    return ftyp + mdat + moov


# ----------------------------------------------------------------- MP3

# header tables (ISO 11172-3 / 13818-3): bitrate kbps by [version][layer]
_MP3_BITRATE = {
    # (version_key, layer): index 1..14
    ("1", 3): [32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320],
    ("1", 2): [32, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384],
    ("1", 1): [32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384, 416,
               448],
    ("2", 3): [8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144, 160],
    ("2", 2): [8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144, 160],
    ("2", 1): [32, 48, 56, 64, 80, 96, 112, 128, 144, 160, 176, 192, 224,
               256],
}
_MP3_SAMPLERATE = {"1": [44100, 48000, 32000], "2": [22050, 24000, 16000],
                   "2.5": [11025, 12000, 8000]}


def _mp3_frame(buf: bytes, i: int):
    """Parse one MPEG audio frame header at i; returns (frame_len,
    samples_per_frame, sample_rate, bitrate_kbps, channels) or None."""
    if i + 4 > len(buf):
        return None
    b0, b1, b2, b3 = buf[i : i + 4]
    if b0 != 0xFF or (b1 & 0xE0) != 0xE0:
        return None
    ver_bits = (b1 >> 3) & 0x03
    version = {0: "2.5", 2: "2", 3: "1"}.get(ver_bits)
    layer = {1: 3, 2: 2, 3: 1}.get((b1 >> 1) & 0x03)
    if version is None or layer is None:
        return None
    br_idx = (b2 >> 4) & 0x0F
    sr_idx = (b2 >> 2) & 0x03
    if br_idx in (0, 15) or sr_idx == 3:
        return None
    vkey = "1" if version == "1" else "2"
    bitrate = _MP3_BITRATE[(vkey, layer)][br_idx - 1] * 1000
    sample_rate = _MP3_SAMPLERATE[version][sr_idx]
    padding = (b2 >> 1) & 1
    channels = 1 if ((b3 >> 6) & 0x03) == 3 else 2
    if layer == 1:
        spf = 384
        flen = (12 * bitrate // sample_rate + padding) * 4
    elif layer == 2:
        spf = 1152
        flen = 144 * bitrate // sample_rate + padding
    else:  # layer 3
        spf = 1152 if version == "1" else 576
        coef = 144 if version == "1" else 72
        flen = coef * bitrate // sample_rate + padding
    if flen < 4:
        return None
    return flen, spf, sample_rate, bitrate // 1000, channels


def parse_mp3(buf: bytes, max_resync: int = 1 << 16) -> dict:
    """Walk MPEG audio frames: ID3v2 skip, per-frame header decode,
    bounded resync on junk. Returns frames, duration_s, sample_rate,
    channels, avg/min/max bitrate and a vbr flag."""
    i = 0
    if buf[:3] == b"ID3" and len(buf) >= 10:
        sz = ((buf[6] & 0x7F) << 21) | ((buf[7] & 0x7F) << 14) | (
            (buf[8] & 0x7F) << 7) | (buf[9] & 0x7F)
        i = 10 + sz
    frames = 0
    dur = 0.0
    brs: list[int] = []
    sr = ch = None
    junk = 0
    n = len(buf)
    while i < n and junk <= max_resync:
        f = _mp3_frame(buf, i)
        if f is None:
            i += 1
            junk += 1
            continue
        junk = 0
        flen, spf, fsr, fbr, fch = f
        frames += 1
        dur += spf / fsr
        brs.append(fbr)
        sr = sr or fsr
        ch = ch or fch
        i += flen
    if not frames:
        raise ValueError("no MPEG audio frames found")
    return {
        "container": "mp3",
        "codec": "mp3",
        "frames": frames,
        "duration_s": dur,
        "sample_rate": sr,
        "channels": ch,
        "bitrate_kbps": sum(brs) / len(brs),
        "vbr": len(set(brs)) > 1,
    }


# ------------------------------------------------------------ probing


def _jpeg_dims(buf: bytes):
    """Header-only JPEG dimension scan (no entropy decode)."""
    i, n = 2, len(buf)
    while i + 4 <= n:
        if buf[i] != 0xFF:
            return None
        marker = buf[i + 1]
        i += 2
        if marker == 0xD9 or marker == 0xDA:
            return None
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue
        (seglen,) = struct.unpack_from(">H", buf, i)
        if marker in (0xC0, 0xC1, 0xC2):
            _, h, w = struct.unpack_from(">BHH", buf, i + 2)
            return w, h, marker == 0xC2
        i += seglen
    return None


def probe_media(payload: bytes) -> dict:
    """Magic-dispatch header-only metadata for one payload. Normalized
    keys: kind, container, codec, width, height, duration_s, sample_rate,
    channels, n_units (samples/frames), bitrate_kbps. NEVER raises:
    corrupt or truncated payloads (routine at corpus scale) return the
    all-null dict — a probe is best-effort by contract."""
    out = {
        "kind": None, "container": None, "codec": None, "width": None,
        "height": None, "duration_s": None, "sample_rate": None,
        "channels": None, "n_units": None, "bitrate_kbps": None,
    }
    try:
        return _probe_media(payload, out)
    except Exception:
        return out


def _probe_media(payload: bytes, out: dict) -> dict:
    if len(payload) < 8:
        return out
    if payload[4:8] == b"ftyp":
        info = parse_mp4(payload)
        out["container"] = "mp4"
        out["duration_s"] = info.get("duration_s")
        vids = [t for t in info["tracks"] if t.get("kind") == "video"]
        auds = [t for t in info["tracks"] if t.get("kind") == "audio"]
        if vids:
            t = vids[0]
            out.update(kind="video", codec=t.get("codec"),
                       width=t.get("width"), height=t.get("height"),
                       n_units=t.get("n_samples"))
        elif auds:
            t = auds[0]
            out.update(kind="audio", codec=t.get("codec"),
                       sample_rate=t.get("sample_rate"),
                       channels=t.get("channels"),
                       n_units=t.get("n_samples"))
        return out
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        i, n, align = 12, len(payload), 0
        while i + 8 <= n:
            cid = payload[i : i + 4]
            (clen,) = struct.unpack_from("<I", payload, i + 4)
            if cid == b"fmt ":
                # block_align = bytes per sample frame, all channels
                _, ch, sr, _, align = struct.unpack_from(
                    "<HHIIH", payload, i + 8
                )
                out.update(kind="audio", container="wav", codec="pcm",
                           sample_rate=sr, channels=ch)
            elif cid == b"data" and out["sample_rate"] and align:
                nsamp = clen // align
                out["n_units"] = nsamp
                out["duration_s"] = nsamp / out["sample_rate"]
            i += 8 + clen + (clen & 1)
        return out
    if payload[:3] == b"ID3" or (
        payload[0] == 0xFF and (payload[1] & 0xE0) == 0xE0
    ):
        try:
            info = parse_mp3(payload)
        except ValueError:
            return out
        out.update(kind="audio", container="mp3", codec="mp3",
                   duration_s=info["duration_s"],
                   sample_rate=info["sample_rate"],
                   channels=info["channels"], n_units=info["frames"],
                   bitrate_kbps=info["bitrate_kbps"])
        return out
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        from .gif import gif_info

        try:
            info = gif_info(payload)
        except ValueError:
            return out
        out.update(kind="image", container="gif", codec="gif",
                   width=info["width"], height=info["height"],
                   n_units=info["frames"])
        return out
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        w, h = struct.unpack_from(">II", payload, 16)
        out.update(kind="image", container="png", codec="png",
                   width=w, height=h)
        return out
    if payload[:2] == b"\xff\xd8":
        dims = _jpeg_dims(payload)
        if dims:
            w, h, prog = dims
            out.update(kind="image", container="jpeg",
                       codec="jpeg-progressive" if prog else "jpeg",
                       width=w, height=h)
        return out
    if payload[:2] == b"BM":
        w, h = struct.unpack_from("<ii", payload, 18)
        out.update(kind="image", container="bmp", codec="bmp",
                   width=w, height=abs(h))
        return out
    if payload[:2] in (b"P5", b"P6"):
        try:
            parts = payload[2:64].split()
            w, h = int(parts[0]), int(parts[1])
            out.update(kind="image", container="pnm",
                       codec="ppm" if payload[:2] == b"P6" else "pgm",
                       width=w, height=h)
        except (ValueError, IndexError):
            pass
        return out
    return out


class MediaMetadata:
    """Actor-pool map_batches stage: (item_id, payload) rows -> one
    normalized header-only metadata row per item. No pixel/sample decode
    — this is the cheap first pass a 100-TB media corpus runs to route,
    filter and size-budget items before any expensive decode stage."""

    _INT_COLS = ("width", "height", "sample_rate", "channels", "n_units")

    def __call__(self, batch: pa.Table) -> pa.Table:
        metas = [probe_media(p or b"") for p in batch["payload"].to_pylist()]
        cols: list[pa.Array] = [batch["item_id"]]
        names = ["item_id"]
        for key, typ in (
            ("kind", pa.string()), ("container", pa.string()),
            ("codec", pa.string()), ("width", pa.int32()),
            ("height", pa.int32()), ("duration_s", pa.float64()),
            ("sample_rate", pa.int32()), ("channels", pa.int32()),
            ("n_units", pa.int64()), ("bitrate_kbps", pa.float64()),
        ):
            cols.append(pa.array([m[key] for m in metas], type=typ))
            names.append(key)
        return pa.Table.from_arrays(cols, names=names)
