"""Domain accelerators: functional kernels + device timing models."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("Accelerator", "AcceleratorDevice", "AcceleratorSpec"),
    "compression": (
        "CorruptStreamError", "DecompressionAccelerator", "lz77_compress",
        "lz77_decompress",
    ),
    "crypto": (
        "AES128", "AesGcmAccelerator", "AuthenticationError",
        "aes_gcm_decrypt", "aes_gcm_encrypt",
    ),
    "detection": (
        "Detection", "ObjectDetectionAccelerator", "conv2d", "max_pool2d",
        "relu",
    ),
    "fftaccel": (
        "FFTAccelerator", "fft_radix2", "frame_signal", "hann_window",
        "rfft_frames",
    ),
    "hashjoin": ("HashJoinAccelerator", "hash_join"),
    "ner": (
        "NER_LABELS", "NERAccelerator", "TransformerEncoder", "gelu",
        "layer_norm", "softmax",
    ),
    "regexaccel": ("PII_PATTERNS", "Regex", "RegexAccelerator"),
    "rl": ("MLPPolicy", "RLPolicyAccelerator", "ppo_update"),
    "svm": ("LinearSVM", "SVMAccelerator"),
    "video": (
        "BitstreamError", "VideoDecodeAccelerator", "decode_frame",
        "encode_frame",
    ),
})
