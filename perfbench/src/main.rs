//! The SDAM stack's benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_lineup --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run builds its inputs from the seed (five times, timed as set-up),
//! runs one untimed warm-up pass through the library's public API, then
//! timed passes until `--seconds` is spent, and checks every simulated
//! report. It reports the median set-up, and the mean over timed passes
//! of the pass time, throughput and run-time quantiles. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the metrics and the layers they cover.
//!
//! Every workload takes the library's default `Experiment` but runs it
//! with `Parallelism::Serial`. At `Parallelism::Auto`, `Machine::run_with`
//! shards channels over one worker per core and spins its main thread on
//! their completions, so on a host with few cores a pass times the host
//! scheduler: on a 2-vCPU VM it ran 2-9x slower than serial and swung by
//! 60% between consecutive runs. The traced run still times `Auto`
//! against serial on the same PA traces (`execute.auto_ns_per_access`,
//! `execute.auto_over_serial`) and checks that both give the same report.

mod adaptive;
mod check;
mod lineup;
mod replay;
mod spans;
mod stack;

use std::error::Error;
use std::time::{Duration, Instant};

use sdam::{Experiment, Parallelism};
use sdam_sys::MappingEngine;
use sdam_trace::Trace;
use sdam_workloads::Workload;

use adaptive::AdaptivePhased;
use lineup::PaperLineup;
use replay::ExecuteReplay;
use spans::Tracer;
use stack::{isolate, Outcome};

/// The seed at which each workload records its digest (`Bench::DIGEST`).
const DEFAULT_SEED: u64 = 1;
/// Timed passes per run, at least: two, so repeated passes can be compared.
const MIN_PASSES: u32 = 2;
/// Set-ups per untraced run, for a median set-up time.
const SETUPS: usize = 5;

type SetupResult<T> = Result<T, Box<dyn Error>>;

/// One benchmark workload.
trait Bench {
    type Inputs;
    const NAME: &'static str;
    /// Digest of one pass's simulated reports at `DEFAULT_SEED`.
    const DIGEST: u64;
    /// Range the pass's `sim_speedup` must fall in, at every seed.
    const SPEEDUP: (f64, f64);
    fn experiment(seed: u64) -> Experiment;
    fn setup(seed: u64) -> SetupResult<Self::Inputs>;
    fn pass(inputs: &Self::Inputs, tracer: &mut Tracer) -> Outcome;
    /// The `Workload::generate` calls a pass makes, one entry per call,
    /// timed in isolation after a traced pass.
    fn generate_calls(_: &Self::Inputs) -> Vec<&dyn Workload> {
        Vec::new()
    }
    /// PA traces and engines the mapping and HBM layers are timed on in
    /// isolation after a traced pass.
    fn isolation_cases<'a>(
        inputs: &'a Self::Inputs,
        traced: &'a Outcome,
    ) -> Vec<(&'a Trace, &'a MappingEngine)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// High-water resident memory of this process so far, in MB (Linux
/// `/proc/self/status`; 0 where it is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Totals over all passes of a run.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    first_digest: Option<u64>,
    notes: Vec<String>,
}

impl Run {
    /// Counts a pass's runs and checks its digest and speedup: every pass
    /// of a run must agree, at the default seed match the recorded
    /// digest, and at every seed have its speedup in `Bench::SPEEDUP`.
    fn account<W: Bench>(&mut self, label: &str, seed: u64, out: &Outcome) -> String {
        let runs = out.run_ms.len() as u64;
        let digest = out.tally.digest.value();
        let mut failed = out.failed;
        let first = *self.first_digest.get_or_insert(digest);
        if digest != first {
            eprintln!(
                "{label}: digest {digest:#018x} differs from the run's first pass {first:#018x}"
            );
            failed = runs;
        } else if seed == DEFAULT_SEED && digest != W::DIGEST {
            eprintln!(
                "{label}: digest {digest:#018x} differs from the recorded {:#018x}",
                W::DIGEST
            );
            failed = runs;
        } else if !(W::SPEEDUP.0..=W::SPEEDUP.1).contains(&out.sim_speedup) {
            eprintln!(
                "{label}: sim_speedup {} outside the recorded range {:?}",
                out.sim_speedup,
                W::SPEEDUP
            );
            failed = runs;
        }
        self.attempted += runs;
        self.failed += failed;
        if self.notes.is_empty() {
            self.notes = out.notes.clone();
        }
        format!("runs {runs}, runs_failed {failed}, digest {digest:#018x}")
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Whether one more pass of `per_pass` would end within half a pass of
/// the budget: runs then last the budget on average.
fn another_fits(spent: Duration, per_pass: Duration, budget: Duration) -> bool {
    spent + per_pass / 2 <= budget
}

/// Untraced passes until the time budget is spent: the end-to-end
/// metrics. The inputs are set up `SETUPS` times (the last set-up is
/// kept), a warm-up pass runs untimed, and every pass is checked.
/// `wall_s` is the mean pass, `sim_accesses_per_s` the throughput over
/// all timed passes, and `run_ms_p50`/`p90` each pass's quantile over its
/// runs, mean over passes. Not medians over the run: the host's speed
/// flips between states every few seconds, and the median of such a
/// two-mode sample jumps between the modes where the mean moves with the
/// share of slow passes.
fn measure<W: Bench>(seed: u64, budget: Duration) -> SetupResult<(Run, Metrics)> {
    let start = Instant::now();
    let mut run = Run::default();
    let mut setup = Vec::new();
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        drop(W::setup(seed)?);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let inputs = W::setup(seed)?;
    setup.push(t0.elapsed().as_secs_f64());

    let warm = W::pass(&inputs, &mut Tracer::new(false));
    // The process is fresh, so this high-water mark is the workload's
    // own: one set-up's inputs and a pass.
    let peak_mb = peak_rss_mb();
    let summary = run.account::<W>("warm-up", seed, &warm);
    println!("warm-up: {summary}");

    let timed = Instant::now();
    let (mut passes, mut wall_s, mut accesses, mut runs) = (0, 0.0, 0, 0);
    let (mut p50, mut p90) = (0.0, 0.0);
    loop {
        let t0 = Instant::now();
        let out = W::pass(&inputs, &mut Tracer::new(false));
        let pass_s = t0.elapsed().as_secs_f64();
        passes += 1;
        let label = format!("pass {passes}");
        let summary = run.account::<W>(&label, seed, &out);
        println!("{label}: wall_s {pass_s:.3}, {summary}");
        wall_s += pass_s;
        accesses += out.tally.accesses;
        runs += out.run_ms.len();
        p50 += quantile(&out.run_ms, 0.5);
        p90 += quantile(&out.run_ms, 0.9);
        let per_pass = timed.elapsed() / passes;
        if passes >= MIN_PASSES && !another_fits(start.elapsed(), per_pass, budget) {
            break;
        }
    }
    println!(
        "setup_s: median of {} set-ups; wall_s, run_ms: mean of {passes} passes; \
         run_ms: {runs} runs ({} a pass)",
        setup.len(),
        warm.run_ms.len(),
    );
    let mean = |sum: f64| sum / f64::from(passes);
    Ok((
        run,
        vec![
            ("setup_s", median(&setup), "s"),
            ("wall_s", mean(wall_s), "s"),
            ("sim_accesses_per_s", accesses as f64 / wall_s, "1/s"),
            ("run_ms_p50", mean(p50), "ms"),
            ("run_ms_p90", mean(p90), "ms"),
            ("peak_rss_mb", peak_mb, "MB"),
            ("sim_cycles", warm.tally.cycles as f64, "cycles"),
            ("sim_speedup", warm.sim_speedup, "x"),
        ],
    ))
}

/// One untraced pass and its wall time.
fn plain_pass<W: Bench>(inputs: &W::Inputs) -> (Outcome, f64) {
    let t0 = Instant::now();
    let out = W::pass(inputs, &mut Tracer::new(false));
    (out, t0.elapsed().as_secs_f64())
}

/// Untraced and traced passes in turn: the per-layer metrics, the
/// unaccounted remainder of the traced pass and the tracing overhead.
fn traced<W: Bench>(
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> SetupResult<(Run, Metrics)> {
    let start = Instant::now();
    let mut run = Run::default();
    let mut rows: Vec<(&'static str, &'static str, Vec<f64>)> = Vec::new();
    let mut pass = 0u64;
    loop {
        pass += 1;
        let inputs = W::setup(seed)?;
        // The first pass after a set-up runs colder, so the untraced pass
        // goes first on odd passes and second on even ones.
        let early = (pass % 2 == 1).then(|| plain_pass::<W>(&inputs));
        let from = tracer.len();
        let t0 = Instant::now();
        let root = tracer.enter("pass", pass);
        let out = W::pass(&inputs, tracer);
        tracer.exit(root);
        let wall = t0.elapsed().as_secs_f64();
        let by_layer = tracer.self_seconds_by_layer(from, tracer.len());
        let summary = run.account::<W>("traced", seed, &out);
        println!("pass {pass} traced: wall_s {wall:.3}, {summary}");
        let order = if early.is_some() { "before" } else { "after" };
        let (plain, plain_wall) = early.unwrap_or_else(|| plain_pass::<W>(&inputs));
        let summary = run.account::<W>("untraced", seed, &plain);
        println!("pass {pass} untraced ({order} traced): wall_s {plain_wall:.3}, {summary}");

        let root = tracer.enter("isolation", pass);
        let iso = isolate(
            &W::generate_calls(&inputs),
            W::isolation_cases(&inputs, &out),
            &W::experiment(seed),
            tracer,
        );
        tracer.exit(root);
        run.failed += iso.auto_mismatches;

        let t = &out.tally;
        let layer = |name: &str| by_layer.get(name).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let unaccounted = layer("pass");
        let values = [
            ("workloads.generate_s", "s", iso.generate_s),
            ("profiling.profile_s", "s", layer("profiling")),
            ("select.s", "s", layer("select")),
            ("select.dl_s", "s", out.dl_select_s),
            ("select.learning_s", "s", out.learning_s),
            ("materialize.s", "s", layer("materialize")),
            ("execute.s", "s", layer("execute")),
            (
                "execute.ns_per_access",
                "ns",
                ratio(layer("execute") * 1e9, t.accesses as f64),
            ),
            (
                "execute.auto_ns_per_access",
                "ns",
                ratio(iso.auto_s * 1e9, iso.auto_accesses as f64),
            ),
            (
                "execute.auto_over_serial",
                "ratio",
                ratio(iso.auto_s, iso.serial_s),
            ),
            (
                "sys.l1_hit_rate",
                "ratio",
                ratio(t.l1_hits as f64, t.accesses as f64),
            ),
            (
                "sys.stall_fraction",
                "ratio",
                ratio(t.stall_cycles, t.cycles as f64),
            ),
            (
                "mapping.decode_ns_per_addr",
                "ns",
                ratio(iso.decode_s * 1e9, iso.addrs as f64),
            ),
            (
                "mapping.memo_hit_rate",
                "ratio",
                ratio(t.memo_hits as f64, t.lookups as f64),
            ),
            (
                "hbm.drain_ns_per_req",
                "ns",
                ratio(iso.drain_s * 1e9, iso.requests as f64),
            ),
            (
                "hbm.row_hit_rate",
                "ratio",
                ratio(t.row_hits as f64, t.requests as f64),
            ),
            (
                "hbm.row_conflict_rate",
                "ratio",
                ratio(t.row_conflicts as f64, t.requests as f64),
            ),
            (
                "hbm.bus_util",
                "ratio",
                ratio(t.bus_busy as f64, t.bus_capacity as f64),
            ),
            ("adapt.migrations", "count", t.migrations as f64),
            (
                "adapt.migration_share",
                "ratio",
                ratio(t.migration_requests as f64, t.requests as f64),
            ),
            ("adapt.overhead_s", "s", plain.adapt_overhead_s),
            ("obs.sidecar_s", "s", layer("obs")),
            ("trace.wall_s", "s", wall),
            ("trace.unaccounted_s", "s", unaccounted),
            (
                "trace.attributed_share",
                "ratio",
                1.0 - ratio(unaccounted, wall),
            ),
            ("trace.overhead_s", "s", wall - plain_wall),
        ];
        if rows.is_empty() {
            rows = values
                .iter()
                .map(|&(name, unit, _)| (name, unit, Vec::new()))
                .collect();
        }
        for (row, (_, _, v)) in rows.iter_mut().zip(values) {
            row.2.push(v);
        }
        if !another_fits(start.elapsed(), start.elapsed() / pass as u32, budget) {
            break;
        }
    }
    println!("per-layer (median of {pass} traced passes):");
    let metrics: Metrics = rows
        .into_iter()
        .map(|(name, unit, vs)| {
            let v = median(&vs);
            println!("  {name:<28} {v:>14.6} {unit}");
            (name, v, unit)
        })
        .collect();
    Ok((run, metrics))
}

fn host_line(args: &Args, exp: &Experiment) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let scale = exp.scale;
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"threads\": {}, \"auto_threads\": {}, \"rustc\": \"{}\", \
         \"scale\": {{\"n\": {}, \"accesses\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        exp.parallelism.threads(),
        Parallelism::Auto.threads(),
        env!("PERFBENCH_RUSTC"),
        scale.n,
        scale.accesses
    )
}

fn drive<W: Bench>(args: &Args) -> SetupResult<String> {
    let host = host_line(args, &W::experiment(args.seed));
    println!("host: {host}");
    println!("note: host timings compare only against runs on the same host (nproc, rustc)");
    let budget = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::new(true);
    let (run, metrics) = if args.trace {
        traced::<W>(args.seed, budget, &mut tracer)?
    } else {
        measure::<W>(args.seed, budget)?
    };
    for n in &run.notes {
        println!("{n}");
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            W::NAME,
            args.seed
        ));
        match tracer.write_jsonl(&path, &host) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted,
        run.failed,
        body.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <paper_lineup|execute_replay|adaptive_phased> --seed <n> --seconds <n> --trace <0|1>\n{e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        PaperLineup::NAME => drive::<PaperLineup>(&args),
        ExecuteReplay::NAME => drive::<ExecuteReplay>(&args),
        AdaptivePhased::NAME => drive::<AdaptivePhased>(&args),
        other => Err(format!("unknown workload {other}").into()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
