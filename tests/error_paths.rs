//! Invalid inputs surface as typed errors through the `try_*` entry
//! points — no library crate panics on any of them.
//!
//! Each test drives a whole-stack failure the seed used to `assert!`,
//! `unwrap()` or index its way into, and pins the exact error variant
//! the workspace-level [`SdamError`] taxonomy assigns it.

use sdam::{pipeline, Experiment, SdamError, SdamSystem, SystemConfig};
use sdam_hbm::Geometry;
use sdam_mapping::{BitPermutation, Cmt, CmtError, MappingId};
use sdam_mem::{MemError, VirtAddr};
use sdam_sys::{CacheConfig, ConfigError, Machine, MachineConfig};
use sdam_trace::{Trace, VariableId};
use sdam_workloads::datacopy::DataCopy;
use sdam_workloads::{Scale, Workload};

/// A 16 KB device: 6 line + 2 col + 1 channel + 1 bank + 4 row = 14
/// address bits, two 8 KB chunks — small enough to exhaust in a test.
fn tiny_geometry() -> Geometry {
    Geometry::new(2, 1, 1, 4).expect("valid tiny geometry")
}

#[test]
fn out_of_physical_memory_is_an_error_not_a_panic() {
    let mut sys = SdamSystem::try_new(tiny_geometry(), 13).expect("13-bit chunks fit 14 bits");
    // Demand-page allocations until the two 8 KB chunks are exhausted.
    let mut last = Ok(());
    'outer: for _ in 0..64 {
        match sys.malloc(4096, None) {
            Ok(va) => {
                if let Err(e) = sys.touch(va) {
                    last = Err(e);
                    break 'outer;
                }
            }
            Err(e) => {
                last = Err(e);
                break 'outer;
            }
        }
    }
    assert!(
        matches!(last, Err(MemError::OutOfPhysicalMemory)),
        "expected OutOfPhysicalMemory, got {last:?}"
    );
}

#[test]
fn out_of_memory_reaches_the_pipeline_as_sdam_error() {
    // The full pipeline on a device far smaller than the workload's
    // footprint: the allocator's failure must travel up through the
    // staged pipeline as a typed error.
    let mut exp = Experiment::quick();
    exp.geometry = tiny_geometry();
    exp.chunk_bits = 13;
    let err = pipeline::try_run(&DataCopy::new(vec![1]), SystemConfig::BsDm, &exp);
    assert!(
        matches!(err, Err(SdamError::Mem(MemError::OutOfPhysicalMemory))),
        "expected Mem(OutOfPhysicalMemory), got {err:?}"
    );
}

#[test]
fn zero_and_oversized_mallocs_are_rejected() {
    let mut sys = SdamSystem::new(Geometry::hbm2_8gb(), 21);
    assert!(matches!(
        sys.malloc(0, None),
        Err(MemError::InvalidSize { size: 0 })
    ));
    let huge = sdam_mem::MAX_ALLOC_BYTES + 1;
    assert!(matches!(
        sys.malloc(huge, None),
        Err(MemError::InvalidSize { size }) if size == huge
    ));
}

#[test]
fn unknown_mapping_is_rejected_at_allocation_time() {
    let mut sys = SdamSystem::new(Geometry::hbm2_8gb(), 21);
    let err = sys.malloc(4096, Some(MappingId(123)));
    assert!(
        matches!(err, Err(MemError::UnknownMapping(MappingId(123)))),
        "expected UnknownMapping(123), got {err:?}"
    );
}

#[test]
fn mapping_ids_exhaust_with_a_typed_error() {
    let mut sys = SdamSystem::new(Geometry::hbm2_8gb(), 21);
    let identity = BitPermutation::identity(6, 15);
    let mut ok = 0u32;
    let exhausted = loop {
        match sys.try_add_mapping(&identity) {
            Ok(_) => ok += 1,
            Err(e) => break e,
        }
        assert!(ok <= 1024, "mapping ids never exhausted");
    };
    assert!(
        matches!(exhausted, SdamError::Mem(MemError::MappingIdsExhausted)),
        "expected MappingIdsExhausted, got {exhausted:?}"
    );
    assert!(ok > 0, "some mappings must register before exhaustion");
}

#[test]
fn invalid_chunk_bits_fail_validation_and_construction() {
    // Through Experiment validation (<= page bits).
    let mut exp = Experiment::quick();
    exp.chunk_bits = 12;
    assert!(matches!(
        exp.try_validate(),
        Err(ConfigError::ChunkBits { chunk_bits: 12, .. })
    ));
    // Beyond the CMT's 21-bit crossbar window.
    exp.chunk_bits = 30;
    assert!(matches!(
        exp.try_validate(),
        Err(ConfigError::ChunkBits { chunk_bits: 30, .. })
    ));
    // The same constraint enforced by the mapping hardware itself.
    assert!(matches!(
        Cmt::try_new(33, 30),
        Err(CmtError::InvalidChunkBits {
            chunk_bits: 30,
            phys_bits: 33
        })
    ));
    // And through the pipeline entry point.
    let err = pipeline::try_run(&DataCopy::new(vec![1]), SystemConfig::BsDm, &exp);
    assert!(matches!(
        err,
        Err(SdamError::Config(ConfigError::ChunkBits { .. }))
    ));
}

#[test]
fn invalid_machine_config_fails_through_every_entry_point() {
    let mut exp = Experiment::quick();
    exp.machine.num_cores = 0;
    assert!(matches!(
        exp.try_validate(),
        Err(ConfigError::Machine { .. })
    ));
    let w = DataCopy::new(vec![1]);
    assert!(matches!(
        pipeline::try_run(&w, SystemConfig::BsDm, &exp),
        Err(SdamError::Config(ConfigError::Machine { .. }))
    ));
    assert!(matches!(
        pipeline::try_compare(&w, &[SystemConfig::BsDm], &exp),
        Err(SdamError::Config(ConfigError::Machine { .. }))
    ));
    assert!(matches!(
        pipeline::try_run_corun(&[&w], SystemConfig::BsDm, &exp),
        Err(SdamError::Config(ConfigError::Machine { .. }))
    ));
}

#[test]
fn overflowing_cache_shape_is_a_typed_error() {
    // `line_bytes * ways` overflows u64: the shape must be rejected as
    // a cache error, not panic (debug) or wrap into a bogus set count
    // (release).
    let mut config = MachineConfig::cpu();
    config.l1 = Some(CacheConfig {
        ways: usize::MAX / 2,
        ..CacheConfig::boom_l1()
    });
    assert!(matches!(
        config.try_validate(),
        Err(ConfigError::Cache { .. })
    ));
    assert!(matches!(
        Machine::try_new(config, Geometry::hbm2_8gb()),
        Err(ConfigError::Cache { .. })
    ));
}

#[test]
fn unknown_process_is_a_typed_error() {
    let mut sys = SdamSystem::new(Geometry::hbm2_8gb(), 21);
    let ghost = sdam::ProcessId(42);
    assert!(matches!(
        sys.malloc_in(ghost, 4096, None),
        Err(MemError::UnknownProcess { pid: 42 })
    ));
    assert!(matches!(
        sys.touch_in(ghost, VirtAddr(0)),
        Err(MemError::UnknownProcess { pid: 42 })
    ));
}

#[test]
fn empty_profile_is_a_typed_error_for_learned_configs() {
    let exp = Experiment::quick();
    let empty = sdam::profiling::empty_profile(&exp);
    for config in [
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
        SystemConfig::SdmBsmDl { clusters: 4 },
    ] {
        let err = sdam::profiling::try_select_mappings(config, &empty, &exp);
        assert!(
            matches!(err, Err(SdamError::EmptyProfile)),
            "{config}: expected EmptyProfile, got {err:?}"
        );
    }
}

/// A workload whose variable ids are another's shifted by `offset`.
#[derive(Debug)]
struct Shifted {
    inner: DataCopy,
    offset: u32,
}

impl Workload for Shifted {
    fn name(&self) -> &str {
        "shifted"
    }

    fn generate(&self, scale: Scale) -> Trace {
        self.inner
            .generate(scale)
            .iter()
            .map(|a| sdam_trace::MemAccess {
                variable: VariableId(a.variable.0 + self.offset),
                ..*a
            })
            .collect()
    }
}

#[test]
fn corun_variable_ids_past_the_renumbering_stride_are_rejected() {
    // Co-run renumbers workload i's variable v to v + i * 100_000, so a
    // first workload emitting id 100_000 would silently share a variable
    // (and a mapping) with the second workload's id 0.
    const LIMIT: u32 = 100_000;
    let exp = Experiment::quick();
    let inner = || DataCopy::with_threads(vec![32], 1);
    let top = inner()
        .generate(exp.scale)
        .iter()
        .map(|a| a.variable.0)
        .max()
        .expect("non-empty trace");
    let other = DataCopy::with_threads(vec![1], 1);
    let config = SystemConfig::SdmBsmMl { clusters: 4 };

    let below = Shifted {
        inner: inner(),
        offset: LIMIT - 1 - top,
    };
    let r = pipeline::try_run_corun(&[&below, &other], config, &exp);
    assert!(r.is_ok(), "ids up to {} must co-run: {r:?}", LIMIT - 1);

    let at = Shifted {
        inner: inner(),
        offset: LIMIT - top,
    };
    let err = pipeline::try_run_corun(&[&at, &other], config, &exp);
    assert!(
        matches!(
            err,
            Err(SdamError::CorunVariableOutOfRange {
                workload: 0,
                variable: VariableId(LIMIT),
                limit: LIMIT,
            })
        ),
        "expected CorunVariableOutOfRange, got {err:?}"
    );
}
