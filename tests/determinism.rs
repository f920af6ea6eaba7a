//! Tier-1 guarantee of the parallel execution layer: every parallel
//! tier produces reports *bit-identical* to the serial reference —
//! cycles, per-core stats, and the full per-channel memory statistics —
//! and the machine driver's reports match committed golden fixtures.

use sdam::{pipeline, Experiment, Parallelism, SystemConfig};
use sdam_hbm::Geometry;
use sdam_mapping::descriptor::MappingDescriptor;
use sdam_mapping::{Cmt, MappingId};
use sdam_sys::{AdaptConfig, Machine, MachineConfig, MappingEngine};
use sdam_trace::ThreadId;
use sdam_workloads::datacopy::DataCopy;
use sdam_workloads::phased::{Phased, StrideLoop};
use sdam_workloads::{Scale, Workload};

fn serial_exp() -> Experiment {
    Experiment {
        parallelism: Parallelism::Serial,
        ..Experiment::quick()
    }
}

#[test]
fn compare_is_identical_serial_and_parallel() {
    // The DL configuration is the strongest case: under Threads(4) the
    // autoencoder's mini-batch forward/backward fans out across
    // workers, and the reduced gradients (fixed input order) must leave
    // the selection — and hence the whole report — bit-identical to the
    // serial run.
    let w = DataCopy::new(vec![1, 32]);
    let configs = [
        SystemConfig::BsBsm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
        SystemConfig::SdmBsmDl { clusters: 4 },
    ];
    let serial = pipeline::try_compare(&w, &configs, &serial_exp()).unwrap();
    let mut exp = serial_exp();
    exp.parallelism = Parallelism::Threads(4);
    let parallel = pipeline::try_compare(&w, &configs, &exp).unwrap();

    assert_eq!(serial.results.len(), parallel.results.len());
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(s.config, p.config, "lineup order must be preserved");
        assert_eq!(
            s.report, p.report,
            "{}: parallel report diverged from serial",
            s.config
        );
        assert_eq!(s.learning_time.is_some(), p.learning_time.is_some());
    }
}

#[test]
fn metrics_snapshot_identical_serial_and_threaded() {
    // The observability layer's determinism contract: the merged
    // stable snapshot — every counter, every histogram bucket, and the
    // event trace *in order* — is bit-identical between the serial
    // pipeline and the threaded one, for every thread count.
    let w = DataCopy::new(vec![1, 32]);
    let configs = [
        SystemConfig::BsBsm,
        SystemConfig::SdmBsm,
        SystemConfig::SdmBsmMl { clusters: 4 },
        SystemConfig::SdmBsmDl { clusters: 4 },
    ];
    let serial = pipeline::try_compare(&w, &configs, &serial_exp()).unwrap();
    let reference = serial.metrics.stable_json();
    for threads in [1usize, 2, 8] {
        let mut exp = serial_exp();
        exp.parallelism = Parallelism::Threads(threads);
        let parallel = pipeline::try_compare(&w, &configs, &exp).unwrap();
        assert_eq!(
            reference,
            parallel.metrics.stable_json(),
            "merged snapshot diverged at {threads} threads"
        );
        for (s, p) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(
                s.metrics.stable_json(),
                p.metrics.stable_json(),
                "{}: per-run snapshot diverged at {threads} threads",
                s.config
            );
        }
    }
}

#[test]
fn corun_is_identical_serial_and_parallel() {
    let a = DataCopy::with_threads(vec![1], 1);
    let b = DataCopy::with_threads(vec![32], 1);
    let workloads: [&dyn Workload; 2] = [&a, &b];
    let serial = pipeline::try_run_corun(&workloads, SystemConfig::SdmBsm, &serial_exp()).unwrap();
    let mut exp = serial_exp();
    exp.parallelism = Parallelism::Threads(4);
    let parallel = pipeline::try_run_corun(&workloads, SystemConfig::SdmBsm, &exp).unwrap();
    assert_eq!(serial.report, parallel.report);
}

#[test]
fn memoized_lut_translate_matches_bitwise_translate() {
    // The table-driven CMT/AMU datapath with memoized lookups must
    // agree with the bitwise translate for every address, over chunks
    // alternating between the identity and a non-identity permutation.
    use sdam_mapping::{BitPermutation, Cmt, CmtLookupCache, MappingId, PhysAddr};

    let geom = Geometry::hbm2_8gb();
    let mut cmt = Cmt::new(geom.addr_bits(), 22);
    let n = 16u32;
    cmt.register(MappingId(0), &BitPermutation::identity(6, n as usize));
    // Rotate-by-5: a non-trivial permutation whose LUT path must agree
    // with the bitwise reference for every address below.
    let rot: Vec<u32> = (0..n).map(|i| (i + 5) % n).collect();
    cmt.register(MappingId(1), &BitPermutation::new(6, rot).unwrap());
    for chunk in 0..8 {
        cmt.assign_chunk(chunk, MappingId((chunk % 2) as u8))
            .unwrap();
    }

    let mut cache = CmtLookupCache::default();
    for i in 0..20_000u64 {
        let pa = PhysAddr((i * 17 * 64) & ((1u64 << 25) - 1));
        let ha = cmt.translate_cached(pa, &mut cache);
        assert_eq!(ha, cmt.translate(pa), "memoized translate diverged");
    }
}

/// Golden-fixture check in the `SDAM_BLESS=1` pattern of
/// `tests/obs_snapshot.rs`: `got` holds one line per report, so a
/// divergence shows up as a per-report line diff.
/// Regenerate after an intentional change with
/// `SDAM_BLESS=1 cargo test --test determinism committed_fixture`.
fn check_fixture(file: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    if std::env::var("SDAM_BLESS").is_ok() {
        std::fs::write(&path, got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()));
    let (w, g): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    assert_eq!(w.len(), g.len(), "{file}: report count changed");
    for (i, (w, g)) in w.iter().zip(&g).enumerate() {
        assert_eq!(w, g, "{file}: line {} diverged", i + 1);
    }
}

/// `n_per_thread` accesses per thread, four threads striding their own
/// channel-aligned regions, interleaved round-robin.
fn mt_stride_trace(stride_lines: u64, n_per_thread: u64) -> sdam_trace::Trace {
    let streams = (0..4u16)
        .map(|t| {
            sdam_trace::gen::StrideGen::new((t as u64) << 30, stride_lines * 64, n_per_thread)
                .thread(ThreadId(t))
                .variable(sdam_trace::VariableId(t as u32))
                .into_trace()
        })
        .collect();
    sdam_trace::gen::interleave_round_robin(streams)
}

#[test]
fn machine_reports_match_committed_fixture() {
    // The machine driver's full report — cycles, per-core stats,
    // translation counters, and the per-channel memory statistics —
    // pinned over engines x machine shapes x traces, including traces
    // that straddle the 4096-access remap blocks.
    let geom = Geometry::hbm2_8gb();
    let mut cmt = Cmt::new(geom.addr_bits(), 21);
    let mut table: Vec<u32> = (0..15).collect();
    table.swap(0, 5);
    cmt.register(
        MappingId(1),
        &sdam_mapping::BitPermutation::new(6, table).unwrap(),
    );
    for chunk in 0..4 {
        cmt.assign_chunk(chunk, MappingId(1)).unwrap();
    }
    let engines = [
        MappingEngine::identity(),
        MappingEngine::Global(Box::new(sdam_mapping::select::shuffle_for_stride(32, geom))),
        MappingEngine::Chunked(cmt),
        MappingEngine::Global(Box::new(sdam_mapping::HashMapping::for_geometry(geom))),
    ];
    let mut slow_cfg = MachineConfig::cpu();
    slow_cfg.compute_cycles = 3;
    let configs = [
        MachineConfig::cpu(),
        MachineConfig::cpu_with_llc(),
        MachineConfig::accelerator(),
        slow_cfg,
    ];
    let traces = [
        sdam_trace::Trace::new(),
        mt_stride_trace(32, 700),
        mt_stride_trace(33, 3_000),
        mt_stride_trace(1, 3_000),
        mt_stride_trace(32, 4_000),
    ];
    // One line per report: the headline numbers, readable in a diff,
    // and an FNV-1a digest of the whole `Debug` rendering, which pins
    // every other field without committing 80 full reports.
    let mut got = String::new();
    for engine in &engines {
        for (c, config) in configs.into_iter().enumerate() {
            for (t, trace) in traces.iter().enumerate() {
                let r = Machine::new(config, geom).run(trace, engine);
                let digest = format!("{r:?}")
                    .bytes()
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                    });
                got.push_str(&format!(
                    "{} config {c} trace {t}: cycles {} requests {} l1_hits {} digest {digest:016x}\n",
                    r.mapping_name, r.cycles, r.memory_requests, r.l1_hits
                ));
            }
        }
    }
    check_fixture("machine_reports.txt", &got);
}

/// The phase-change scenario of `examples/adaptive.rs`, sized down for
/// a test: unit stride flipping to a 32-line stride mid-run over a 4 MB
/// wrapped footprint, on a CMT with the boot identity and a declared
/// stride-32 mapping registered.
fn adaptive_scenario() -> (sdam_trace::Trace, impl Fn() -> MappingEngine) {
    let geom = Geometry::hbm2_8gb();
    let w = Phased::new(
        Box::new(StrideLoop::new(1, 4 << 20, 4)),
        Box::new(StrideLoop::new(32, 4 << 20, 4)),
        0.5,
    );
    let trace = w.generate(Scale {
        n: 1 << 12,
        accesses: 60_000,
        seed: 1,
    });
    // The adaptive driver mutates the CMT (assign_chunk on migration),
    // so every run needs a fresh engine.
    let engine = move || {
        let mut cmt = Cmt::new(geom.addr_bits(), 21);
        let perm = MappingDescriptor::new(geom)
            .channel_bits([11, 12, 13, 14, 15])
            .compile_windowed(21)
            .unwrap();
        cmt.register(MappingId(1), &perm);
        MappingEngine::Chunked(cmt)
    };
    (trace, engine)
}

#[test]
fn adaptive_run_matches_committed_fixture() {
    // The full adaptive report — cycles, per-channel stats, and the
    // adapt section with its per-chunk attribution and migration
    // counters — pinned on the phase-change scenario.
    let geom = Geometry::hbm2_8gb();
    let (trace, engine) = adaptive_scenario();
    let mut m = Machine::new(MachineConfig::accelerator(), geom);
    let report = m.run_adaptive(&trace, &mut engine(), &AdaptConfig::default());
    assert!(
        report.adapt.migrations > 0,
        "the scenario must actually migrate, or the test proves nothing"
    );
    check_fixture("adaptive_report.txt", &format!("{report:?}\n"));
}

#[test]
fn adaptive_disabled_is_bit_identical_to_plain_run() {
    // `AdaptConfig::disabled()` must leave the driver untouched: the
    // report equals `Machine::run`'s bit for bit (adapt all-default),
    // and the engine is not mutated.
    let geom = Geometry::hbm2_8gb();
    let (trace, engine) = adaptive_scenario();
    let mut m = Machine::new(MachineConfig::accelerator(), geom);
    let plain_engine = engine();
    let plain = m.run(&trace, &plain_engine);
    let mut e = engine();
    let disabled = m.run_adaptive(&trace, &mut e, &AdaptConfig::disabled());
    assert_eq!(plain, disabled);
    assert!(!disabled.adapt.enabled);
    assert_eq!(disabled.adapt, Default::default());
}

#[test]
fn probe_recovery_identical_serial_and_threaded() {
    // The reverse-engineering agent's parallel executor calibrates once
    // up front and hands each worker a self-contained experiment, so a
    // probe session — recovered functions, probe counts, confidence,
    // the full JSON report — must be bit-identical between the serial
    // agent and any thread count.
    let suite = sdam::probing::seeded_suite().expect("suite definition must compile");
    for name in ["dm-identity", "hm-default", "sdam-reverse"] {
        let entry = suite
            .iter()
            .find(|e| e.name == name)
            .expect("seeded suite entry");
        let serial = entry.run(1).expect("serial recovery");
        for threads in [2usize, 8] {
            let par = entry.run(threads).expect("parallel recovery");
            assert_eq!(
                serial, par,
                "{name}: probe session diverged at {threads} threads"
            );
            assert_eq!(serial.to_json(), par.to_json());
        }
    }
}

#[test]
fn streamed_trace_replay_matches_one_shot_run() {
    // A trace serialized to the binary format and replayed off the
    // stream through the bounded-memory driver must reproduce the
    // in-memory windowed run bit-for-bit.
    use sdam_hbm::{HardwareAddr, Hbm, Timing};
    use sdam_trace::io::{write_trace, TraceReader};
    use sdam_trace::{MemAccess, Trace};

    let geom = Geometry::hbm2_8gb();
    let trace: Trace = (0..30_000u64)
        .map(|i| {
            let addr = if i % 5 == 0 {
                (i / 5) * 4096
            } else {
                (i * 0x9e37_79b9 * 64) & ((1u64 << 30) - 1)
            };
            MemAccess::read(addr, sdam_trace::VariableId((i % 3) as u32))
        })
        .collect();
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).unwrap();

    let decode = |a: u64| geom.decode(HardwareAddr(a));
    let window = 16usize;
    let mut hbm = Hbm::new(geom, Timing::hbm2());
    let one_shot = hbm.run_open_loop_windowed(trace.iter().map(|a| decode(a.addr)), window);

    for block in [257usize, 4096] {
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut hbm = Hbm::new(geom, Timing::hbm2());
        let streamed = hbm.run_open_loop_streaming(
            reader.map(|r| decode(r.expect("trace corrupt").addr)),
            window,
            block,
        );
        assert_eq!(
            one_shot, streamed,
            "streamed replay diverged at block {block}"
        );
    }
}

/// FNV-1a over 64-bit words: the digest of the allocation-path fixture.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Every field of every access, in trace order.
fn trace_words(t: &sdam_trace::Trace) -> impl Iterator<Item = u64> + '_ {
    t.iter().flat_map(|a| {
        [
            a.addr,
            a.pc,
            u64::from(a.thread.0),
            u64::from(a.variable.0),
            u64::from(a.is_write),
        ]
    })
}

#[test]
fn pipeline_artifacts_match_committed_fixture() {
    // The allocation path's outputs, pinned per benchmark of both
    // suites at tiny scale: the two-pass profile (major ids, aggregate
    // and per-variable BFRV rate bits, per-variable PA streams) and the
    // PA trace `AllocStage` materializes under BS+DM and SDM+BSM with
    // that system's fault and fragmentation counts. A co-run line covers
    // sparse (renumbered) variable ids and spawned processes.
    use sdam::stage::{AllocStage, ProfileStage, RunContext, SelectStage, Stage, StageCache};
    let exp = Experiment::quick();
    let mut got = String::new();
    let suite: Vec<_> = sdam_workloads::standard_suite()
        .into_iter()
        .chain(sdam_workloads::data_intensive_suite())
        .collect();
    for w in &suite {
        let p = sdam::profiling::try_profile_on_baseline(w.as_ref(), &exp).unwrap();
        let rates = |b: &sdam_mapping::BitFlipRateVector| {
            let mut v: Vec<u64> = b.rates().iter().map(|r| r.to_bits()).collect();
            v.push(b.samples());
            v
        };
        let mut words: Vec<u64> = p.major.iter().map(|v| u64::from(v.0)).collect();
        words.extend(rates(&p.aggregate));
        for (v, b) in &p.bfrvs {
            words.push(u64::from(v.0));
            words.extend(rates(b));
        }
        for (v, s) in &p.pa_streams {
            words.push(u64::from(v.0));
            words.push(s.len() as u64);
            words.extend(s.iter().copied());
        }
        got.push_str(&format!(
            "{}: major {} profile {:016x}",
            w.name(),
            p.major.len(),
            fnv_words(words)
        ));
        for config in [SystemConfig::BsDm, SystemConfig::SdmBsm] {
            let cache = StageCache::new();
            let mut ctx = RunContext::new(w.as_ref(), config, &exp, &cache);
            for stage in [&ProfileStage as &dyn Stage, &SelectStage, &AllocStage] {
                stage.run(&mut ctx).unwrap();
            }
            let (Some(sys), Some(pa)) = (&ctx.sys, &ctx.pa_trace) else {
                panic!("AllocStage did not materialize the trace");
            };
            got.push_str(&format!(
                " | {config}: pa {:016x} len {} faults {} frag {}",
                fnv_words(trace_words(pa)),
                pa.len(),
                sys.page_faults(),
                sys.fragmentation_pages()
            ));
        }
        got.push('\n');
    }
    let pair = [suite[19].as_ref(), suite[22].as_ref()];
    let r = pipeline::try_run_corun(&pair, SystemConfig::SdmBsm, &exp).unwrap();
    got.push_str(&format!(
        "corun {}+{} {}: cycles {} requests {} report {:016x}\n",
        pair[0].name(),
        pair[1].name(),
        r.config,
        r.report.cycles,
        r.report.memory_requests,
        fnv_words(format!("{:?}", r.report).bytes().map(u64::from))
    ));
    check_fixture("pipeline_artifacts.txt", &got);
}
