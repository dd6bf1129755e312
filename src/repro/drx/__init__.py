"""Data Restructuring Accelerator: ISA, simulator, compiler, timing."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "assembler": ("assemble", "disassemble"),
    "compiler.codegen": ("DRXCompiler", "choose_tile"),
    "compiler.ir": (
        "BufferDecl", "Cast", "Elementwise", "ElementwiseBinary", "IRError",
        "Kernel", "MatMul", "Primitive", "Statement", "Transpose2D",
    ),
    "compiler.library": (
        "columnar_pivot_kernel", "image_tensor_kernel", "log_compress_kernel",
        "mel_projection_kernel", "normalize_kernel", "power_spectrum_kernel",
        "quantize_kernel", "sound_motion_kernel", "transpose_kernel",
        "typecast_kernel",
    ),
    "functional": ("DRXMemory", "ExecutionStats", "FunctionalDRX"),
    "isa": ("AddressExpr", "Instruction", "Opcode", "Program", "ProgramError"),
    "microarch": ("DEFAULT_DRX", "DRXConfig", "DRXDevice", "DRXTimingModel"),
    "queues": (
        "DRX_MEMORY_BYTES", "MAX_ACCELERATORS", "QUEUE_BYTES", "DataQueue",
        "QueueFullError", "QueuePartition",
    ),
})
