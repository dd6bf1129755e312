"""Data-restructuring operation library (functional + work profiles)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("RestructuringOp", "RestructuringPipeline"),
    "audio": (
        "FeatureFlatten", "LogCompress", "MelScale", "PowerSpectrum",
        "SpectrogramAssembly", "hz_to_mel", "mel_filterbank", "mel_to_hz",
    ),
    "image": ("ImageToTensor", "Nv12ToRgb", "ResizeBilinear"),
    "ops": (
        "Crop", "Dequantize", "InterleaveToPlanar", "Normalize", "Pad",
        "PlanarToInterleave", "Quantize", "Reshape", "TransposeOp",
        "Typecast",
    ),
    "signal": (
        "EEG_BANDS", "BandPower", "SpatialFilter", "ObservationAssembly",
        "ZScoreNormalize",
    ),
    "table": ("DictionaryEncode", "HashPartition", "RowsToColumnar", "fnv1a32"),
    "text": ("BytesToRecords", "RecordsToBytes", "TokenizeForNER"),
})
