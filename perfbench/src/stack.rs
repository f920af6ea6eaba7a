//! What the three workloads share: the per-pass outcome, the tally of
//! simulated facts, and the layer calls more than one workload makes.

use std::hint::black_box;
use std::time::Instant;

use sdam::profiling::Selection;
use sdam::{Experiment, Parallelism, SdamSystem};
use sdam_hbm::sim::DEFAULT_REORDER_WINDOW;
use sdam_hbm::Hbm;
use sdam_obs::Registry;
use sdam_sys::{ExecutionReport, Machine, MappingEngine, TranslationCache};
use sdam_trace::Trace;
use sdam_workloads::Workload;

use crate::check::{check_report, Digest};
use crate::spans::Tracer;

/// Sums of the simulated facts of a pass, plus their digest.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub accesses: u64,
    pub cycles: u64,
    pub l1_hits: u64,
    /// Σ stall fraction × cycles, so stalls weigh by run length.
    pub stall_cycles: f64,
    pub memo_hits: u64,
    pub lookups: u64,
    pub requests: u64,
    pub row_hits: u64,
    pub row_conflicts: u64,
    pub bus_busy: u64,
    /// Σ channels × makespan: the bus cycles the device could have used.
    pub bus_capacity: u64,
    pub migrations: u64,
    pub migration_requests: u64,
    pub digest: Digest,
}

impl Tally {
    pub fn add(&mut self, r: &ExecutionReport) {
        self.accesses += r.accesses;
        self.cycles += r.cycles;
        self.l1_hits += r.l1_hits;
        self.stall_cycles += r.stall_fraction() * r.cycles as f64;
        self.memo_hits += r.translation.memo_hits;
        self.lookups += r.translation.lookups();
        self.requests += r.memory.requests;
        for c in &r.memory.per_channel {
            self.row_hits += c.row_hits;
            self.row_conflicts += c.row_conflicts;
            self.bus_busy += c.bus_busy_cycles;
        }
        self.bus_capacity += r.memory.per_channel.len() as u64 * r.memory.makespan;
        self.migrations += r.adapt.migrations;
        self.migration_requests += r.adapt.migration_requests;
        self.digest.report(r);
    }
}

/// What one pass produced.
#[derive(Default)]
pub struct Outcome {
    /// Host ms of each simulated run attempted, failed ones included.
    pub run_ms: Vec<f64>,
    pub failed: u64,
    pub tally: Tally,
    /// The workload's headline simulated speedup (see `BENCHMARK.json`).
    pub sim_speedup: f64,
    /// Σ `SelectionOutcome::learning_time` (traced lineup only).
    pub learning_s: f64,
    /// Host seconds of the DL configurations' select stage (traced
    /// lineup only).
    pub dl_select_s: f64,
    /// Host seconds of the adaptive run minus the mean static run.
    pub adapt_overhead_s: f64,
    /// Human-readable lines printed once per run.
    pub notes: Vec<String>,
    /// PA traces and engines kept for the isolated decode/drain timing.
    pub kept: Vec<(Trace, MappingEngine)>,
}

impl Outcome {
    /// Records one simulated run: its host time, and either its report
    /// (checked against the trace length) or its error.
    pub fn record(&mut self, ms: f64, trace_len: usize, res: Result<&ExecutionReport, String>) {
        self.run_ms.push(ms);
        let res = res.and_then(|r| {
            self.tally.add(r);
            check_report(r, trace_len)
        });
        if let Err(e) = res {
            self.failed += 1;
            eprintln!("run failed: {e}");
        }
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The mapping engine a selection runs under, as `sdam::stage`'s
/// `ExecuteStage` builds it.
pub fn engine_for(selection: &Selection, sys: &SdamSystem) -> MappingEngine {
    match selection {
        Selection::GlobalIdentity => MappingEngine::identity(),
        Selection::GlobalShuffle(m) => MappingEngine::Global(Box::new(m.clone())),
        Selection::GlobalHash(m) => MappingEngine::Global(Box::new(m.clone())),
        Selection::Sdam { .. } => MappingEngine::Chunked(sys.cmt_snapshot()),
    }
}

/// Folds per-run snapshots into one sidecar document, as the figure
/// binaries do, and returns its length.
pub fn sidecar<'a>(runs: impl IntoIterator<Item = &'a Registry>) -> usize {
    let mut reg = Registry::new();
    for r in runs {
        reg.merge(r);
    }
    black_box(reg.stable_json()).len()
}

/// Geometric mean of positive ratios; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Host time of single layer calls in isolation: the pass's
/// `Workload::generate` calls repeated; every kept PA trace decoded
/// through `MappingEngine::decode_block`, then the decoded stream drained
/// open-loop through `Hbm::run_open_loop_windowed`; and every kept PA
/// trace run through `Machine::try_run_with` serially and at the thread
/// count `Parallelism::Auto` resolves to, whose reports must be equal.
#[derive(Debug, Default, Clone, Copy)]
pub struct Isolation {
    pub generate_s: f64,
    pub decode_s: f64,
    pub addrs: u64,
    pub drain_s: f64,
    pub requests: u64,
    pub serial_s: f64,
    pub auto_s: f64,
    pub auto_accesses: u64,
    /// Cases whose `Auto` run erred or differed from the serial run.
    pub auto_mismatches: u64,
}

const DECODE_BLOCK: usize = 4096;

pub fn isolate<'a>(
    generate: &[&dyn Workload],
    cases: impl IntoIterator<Item = (&'a Trace, &'a MappingEngine)>,
    exp: &Experiment,
    tracer: &mut Tracer,
) -> Isolation {
    let mut iso = Isolation::default();
    for (i, w) in generate.iter().enumerate() {
        let t0 = Instant::now();
        let trace = tracer.span("workloads.generate", i as u64, || w.generate(exp.scale));
        iso.generate_s += t0.elapsed().as_secs_f64();
        black_box(trace);
    }
    for (i, (trace, engine)) in cases.into_iter().enumerate() {
        let mut pas: Vec<u64> = trace.addrs().collect();
        let mut decoded = Vec::with_capacity(pas.len());
        let mut cache = TranslationCache::default();
        let t0 = Instant::now();
        tracer.span("mapping.decode", i as u64, || {
            for block in pas.chunks_mut(DECODE_BLOCK) {
                engine.decode_block(block, exp.geometry, &mut cache, &mut decoded);
            }
        });
        iso.decode_s += t0.elapsed().as_secs_f64();
        iso.addrs += decoded.len() as u64;
        let mut hbm = Hbm::new(exp.geometry, exp.timing);
        let t0 = Instant::now();
        let stats = tracer.span("hbm.drain", i as u64, || {
            hbm.run_open_loop_windowed(decoded.iter().copied(), DEFAULT_REORDER_WINDOW)
        });
        iso.drain_s += t0.elapsed().as_secs_f64();
        iso.requests += black_box(stats).requests;

        let machine = || Machine::new(exp.machine, exp.geometry).with_timing(exp.timing);
        let t0 = Instant::now();
        let serial = tracer.span("execute.serial", i as u64, || {
            machine().try_run_with(trace, engine, 1)
        });
        iso.serial_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let auto = tracer.span("execute.auto", i as u64, || {
            machine().try_run_with(trace, engine, Parallelism::Auto.threads())
        });
        iso.auto_s += t0.elapsed().as_secs_f64();
        iso.auto_accesses += trace.len() as u64;
        match (serial, auto) {
            (Ok(s), Ok(a)) if s == a => {}
            _ => {
                eprintln!("isolation case {i}: the Auto run differs from the serial run");
                iso.auto_mismatches += 1;
            }
        }
    }
    iso
}
