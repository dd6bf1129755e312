"""Synthetic input generators for the five benchmarks.

The paper's inputs (video streams, audio snippets, brain-simulation
signals, encrypted documents, compressed database tables) are not
shipped with it, so each generator synthesizes a realistic stand-in with
the properties the pipeline exercises: video frames with low-frequency
content that the codec actually compresses, audio with genre-dependent
spectral structure, EM channels with band-limited oscillations, text
with embedded PII at a controlled density, and join-able tables with
skewed keys. All generators are deterministic given a seed.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "make_nv12_frame",
    "make_video_bitstream",
    "make_audio_snippet",
    "make_em_recording",
    "make_pii_document",
    "encrypt_document",
    "make_table_rows",
    "make_compressed_table",
]


def make_nv12_frame(height: int, width: int, seed: int = 0) -> np.ndarray:
    """An NV12 frame image with smooth scene content plus sensor noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0 : 3 * height // 2, 0:width]
    scene = (
        128
        + 50 * np.sin(yy / 31.0 + rng.uniform(0, 6.28))
        + 40 * np.cos(xx / 41.0 + rng.uniform(0, 6.28))
    )
    noise = rng.normal(0, 3, scene.shape)
    return np.clip(scene + noise, 0, 255).astype(np.uint8)


def make_video_bitstream(height: int, width: int, n_frames: int = 1,
                         seed: int = 0) -> List[bytes]:
    """Encoded bitstreams for a short clip."""
    from ..accelerators.video import encode_frame

    return [
        encode_frame(make_nv12_frame(height, width, seed + i), height, width)
        for i in range(n_frames)
    ]


def make_audio_snippet(duration_s: float, sample_rate: float = 22_050.0,
                       genre: int = 0, seed: int = 0) -> np.ndarray:
    """A mono audio snippet whose harmonic stack depends on ``genre``."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * sample_rate)
    t = np.arange(n) / sample_rate
    fundamental = 110.0 * (1 + genre % 5)
    signal = np.zeros(n)
    for harmonic in range(1, 6):
        amp = 1.0 / harmonic
        signal += amp * np.sin(
            2 * np.pi * fundamental * harmonic * t + rng.uniform(0, 6.28)
        )
    signal += rng.normal(0, 0.05, n)
    return (signal / np.abs(signal).max()).astype(np.float32)


def make_em_recording(n_channels: int, n_samples: int, sample_rate: float,
                      seed: int = 0) -> np.ndarray:
    """Band-limited multi-channel electromagnetic recording."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sample_rate
    out = np.empty((n_channels, n_samples), dtype=np.float32)
    band_centers = (2.0, 6.0, 10.0, 20.0, 40.0)
    for channel in range(n_channels):
        signal = rng.normal(0, 0.1, n_samples)
        for center in band_centers:
            amp = rng.uniform(0.2, 1.0)
            freq = center * rng.uniform(0.8, 1.2)
            signal += amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 6.28))
        out[channel] = signal
    return out


_FIRST = ["alice", "bob", "carol", "dan", "erin", "frank", "grace", "heidi"]
_LAST = ["smith", "jones", "chen", "garcia", "patel", "kim", "mueller"]
_FILLER = (
    "the quarterly report indicates steady growth across all regions and "
    "the team will review projections at the next meeting"
).split()


def make_pii_document(n_lines: int, pii_density: float = 0.3,
                      seed: int = 0) -> bytes:
    """Plain-text document with PII (SSNs, emails, phones) sprinkled in."""
    if not 0 <= pii_density <= 1:
        raise ValueError("pii_density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lines):
        words = list(rng.choice(_FILLER, size=rng.integers(6, 14)))
        if rng.random() < pii_density:
            kind = rng.integers(0, 3)
            if kind == 0:
                pii = f"{rng.integers(100, 999)}-{rng.integers(10, 99)}-{rng.integers(1000, 9999)}"
            elif kind == 1:
                pii = (
                    f"{rng.choice(_FIRST)}.{rng.choice(_LAST)}"
                    f"@corp{rng.integers(1, 9)}.example.com"
                )
            else:
                pii = (
                    f"({rng.integers(200, 999)}) {rng.integers(200, 999)}-"
                    f"{rng.integers(1000, 9999)}"
                )
            position = rng.integers(0, len(words) + 1)
            words.insert(position, pii)
        lines.append(" ".join(words))
    return "\n".join(lines).encode()


def encrypt_document(document: bytes, key: bytes = b"dmx-repro-key-16",
                     iv: bytes = b"iv-12-bytes!") -> dict:
    """AES-GCM encrypt a document into the decrypt kernel's payload."""
    from ..accelerators.crypto import aes_gcm_encrypt

    ciphertext, tag = aes_gcm_encrypt(key, iv, document)
    return {"ciphertext": ciphertext, "iv": iv, "tag": tag}


def make_table_rows(n_rows: int, n_cols: int, key_range: int,
                    seed: int = 0) -> np.ndarray:
    """Row-major table image: ``n_cols`` little-endian int32 fields/row.

    Keys (column 0) are Zipf-ish skewed, like real join keys.
    """
    rng = np.random.default_rng(seed)
    raw = rng.zipf(1.3, size=n_rows)
    keys = np.minimum(raw, key_range).astype("<i4")
    payload = rng.integers(0, 1_000_000, (n_rows, n_cols - 1)).astype("<i4")
    table = np.column_stack([keys, payload])
    return table.view(np.uint8).reshape(n_rows, n_cols * 4)


def make_compressed_table(n_rows: int, n_cols: int, key_range: int = 1000,
                          seed: int = 0) -> bytes:
    """LZ77-compressed table image for the decompression kernel."""
    from ..accelerators.compression import lz77_compress

    return lz77_compress(make_table_rows(n_rows, n_cols, key_range, seed).tobytes())
