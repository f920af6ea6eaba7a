//! `adaptive_phased`: online remapping on a workload that changes its
//! access pattern. A stride-1 and a stride-32 `StrideLoop` alternate
//! over a multi-chunk footprint on the cacheless-in-practice
//! accelerator machine, so nearly every access reaches HBM. Each pass
//! runs `Machine::run_adaptive_with` (starting from the boot identity
//! mapping, with a stride-32 mapping registered to migrate to) and the
//! two static mappings of the same trace. The seed picks a
//! pseudo-random base chunk for the footprint.

use std::time::Instant;

use sdam::metrics::collect_run_metrics;
use sdam::{Experiment, Parallelism, PhaseTimes};
use sdam_mapping::descriptor::MappingDescriptor;
use sdam_mapping::{Cmt, MappingId};
use sdam_sys::{AdaptConfig, ExecutionReport, Machine, MachineConfig, MappingEngine};
use sdam_trace::{MemAccess, Trace};
use sdam_workloads::phased::{Phased, StrideLoop};
use sdam_workloads::{Scale, Workload};

use crate::spans::Tracer;
use crate::stack::{ms_since, sidecar, Outcome};
use crate::{Bench, SetupResult};

/// Footprint both phases wrap within: 8 chunks of 2 MB, as many as the
/// controller's default migration budget.
const CHUNKS: u64 = 8;
const REGION: u64 = CHUNKS << 21;
const LANES: u16 = 4;
const SCALE: Scale = Scale {
    n: 1 << 14,
    accesses: 2_000_000,
    seed: 1,
};
/// Phase boundaries: stride-1, stride-32, stride-1, stride-32.
const SWITCHES: [f64; 3] = [0.25, 0.5, 0.75];

const TUNED: MappingId = MappingId(1);

pub struct Inputs {
    exp: Experiment,
    trace: Trace,
    /// Identity on every chunk, the stride-32 mapping registered.
    fresh: Cmt,
    /// Every chunk statically on identity, then on the tuned mapping.
    statics: [MappingEngine; 2],
}

pub struct AdaptivePhased;

impl Bench for AdaptivePhased {
    type Inputs = Inputs;
    const NAME: &'static str = "adaptive_phased";
    const DIGEST: u64 = 0x39a6_2471_5ef2_cea4;
    /// Adaptive beats the best static mapping: 1.38–1.39× over seeds 31–50.
    const SPEEDUP: (f64, f64) = (1.25, 1.55);

    /// `Experiment::quick()` on the accelerator, run serially (see the
    /// crate docs).
    fn experiment(seed: u64) -> Experiment {
        let mut exp = Experiment::quick();
        exp.parallelism = Parallelism::Serial;
        exp.machine = MachineConfig::accelerator();
        exp.scale = SCALE.with_seed(seed);
        exp
    }

    fn setup(seed: u64) -> SetupResult<Inputs> {
        let exp = Self::experiment(seed);
        exp.try_validate()?;
        let geom = exp.geometry;
        let mut fresh = Cmt::try_new(geom.addr_bits(), exp.chunk_bits)?;
        let base = base_chunk(seed, fresh.num_chunks());
        let offset = base << exp.chunk_bits;
        let loops = Phased::alternating(
            Box::new(StrideLoop::new(1, REGION, LANES)),
            Box::new(StrideLoop::new(32, REGION, LANES)),
            SWITCHES.to_vec(),
        )
        .generate(exp.scale);
        let mut trace = Trace::with_capacity(loops.len());
        for a in loops.iter() {
            trace.push(MemAccess {
                addr: a.addr + offset,
                ..*a
            });
        }
        let perm = MappingDescriptor::new(geom)
            .channel_bits([11, 12, 13, 14, 15])
            .compile_windowed(exp.chunk_bits)?;
        fresh.try_register(TUNED, &perm)?;
        let fixed = |id: MappingId| -> SetupResult<MappingEngine> {
            let mut cmt = fresh.clone();
            for chunk in base..base + CHUNKS {
                cmt.assign_chunk(chunk, id)?;
            }
            Ok(MappingEngine::Chunked(cmt))
        };
        let statics = [fixed(MappingId(0))?, fixed(TUNED)?];
        Ok(Inputs {
            exp,
            trace,
            fresh,
            statics,
        })
    }

    fn pass(inputs: &Inputs, tracer: &mut Tracer) -> Outcome {
        let exp = &inputs.exp;
        let trace = &inputs.trace;
        let threads = exp.parallelism.threads();
        let machine = || Machine::new(exp.machine, exp.geometry).with_timing(exp.timing);
        let mut out = Outcome::default();
        let mut reports: Vec<ExecutionReport> = Vec::new();
        let mut secs = Vec::new();

        let mut engine = MappingEngine::Chunked(inputs.fresh.clone());
        let t0 = Instant::now();
        let adaptive = tracer.span("execute.adaptive", 0, || {
            machine().run_adaptive_with(trace, &mut engine, &AdaptConfig::default(), threads)
        });
        secs.push(t0.elapsed().as_secs_f64());
        out.record(ms_since(t0), trace.len(), Ok(&adaptive));
        reports.push(adaptive);

        for (i, engine) in inputs.statics.iter().enumerate() {
            let run = i as u64 + 1;
            let t0 = Instant::now();
            let res = tracer.span("execute", run, || {
                machine().try_run_with(trace, engine, threads)
            });
            secs.push(t0.elapsed().as_secs_f64());
            let ms = ms_since(t0);
            match res {
                Ok(r) => {
                    out.record(ms, trace.len(), Ok(&r));
                    reports.push(r);
                }
                Err(e) => out.record(ms, trace.len(), Err(e.to_string())),
            }
        }
        let metrics: Vec<_> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                tracer.span("obs.collect", i as u64, || {
                    collect_run_metrics(r, None, &PhaseTimes::default())
                })
            })
            .collect();
        tracer.span("obs.sidecar", 0, || sidecar(&metrics));

        if let [adaptive, identity, tuned] = reports.as_slice() {
            let best_static = identity.cycles.min(tuned.cycles);
            out.sim_speedup = best_static as f64 / adaptive.cycles.max(1) as f64;
            out.adapt_overhead_s = secs[0] - (secs[1] + secs[2]) / 2.0;
            out.notes.push(format!(
                "adaptive: adapt_speedup_vs_static {:.3}x (best static {best_static} cycles, \
                 adaptive {} cycles incl. {} migrations)",
                out.sim_speedup, adaptive.cycles, adaptive.adapt.migrations
            ));
        }
        out
    }

    fn isolation_cases<'a>(
        inputs: &'a Inputs,
        _: &'a Outcome,
    ) -> Vec<(&'a Trace, &'a MappingEngine)> {
        inputs.statics.iter().map(|e| (&inputs.trace, e)).collect()
    }
}

/// The chunk the footprint starts at: a pseudo-random chunk picked by
/// the seed (SplitMix64 of the seed).
fn base_chunk(seed: u64, num_chunks: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z % (num_chunks - CHUNKS)
}
