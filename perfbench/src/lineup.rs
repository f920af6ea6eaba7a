//! `paper_lineup`: the paper's Fig. 12 — both benchmark suites under
//! every configuration of `SystemConfig::paper_lineup()`, composed as
//! the `fig12_cpu_speedup` binary composes it: one profile per
//! benchmark, BS+BSM selected from the suite-mix BFRV, one pipeline run
//! per configuration.
//!
//! The untraced pass calls `pipeline::try_run_with_profile`. The traced
//! pass drives the same stages (`sdam::stage`) on the same kind of
//! context, each inside a span, and must reproduce the pipeline's
//! reports exactly.

use std::time::Instant;

use sdam::profiling::{self, ProfileData};
use sdam::report::{self, Comparison};
use sdam::stage::{self, ProfileHandle, RunContext, StageCache};
use sdam::{pipeline, Experiment, Parallelism, RunResult, SdamError, SystemConfig};
use sdam_mapping::BitFlipRateVector;
use sdam_obs::Registry;
use sdam_sys::MappingEngine;
use sdam_trace::Trace;
use sdam_workloads::{data_intensive_suite, standard_suite, Scale, Workload};

use crate::spans::Tracer;
use crate::stack::{ms_since, sidecar, Outcome};
use crate::{Bench, SetupResult};

/// Between `tiny` and `small`: large enough that the data-intensive
/// kernels overflow the 64 KB L1, so mapping matters on both suites.
const SCALE: Scale = Scale {
    n: 4096,
    accesses: 25_000,
    seed: 1,
};

const DL32: SystemConfig = SystemConfig::SdmBsmDl { clusters: 32 };

/// The paper's geomean DL(32) speedups over BS+DM (Fig. 12).
const PAPER_DL32: [(&str, f64); 2] = [("speedup_dl32_std", 1.43), ("speedup_dl32_di", 1.84)];

pub struct Inputs {
    exp: Experiment,
    suites: [Vec<Box<dyn Workload>>; 2],
    /// Evaluation-trace length per benchmark, per suite.
    trace_lens: [Vec<usize>; 2],
}

pub struct PaperLineup;

impl Bench for PaperLineup {
    type Inputs = Inputs;
    const NAME: &'static str = "paper_lineup";
    const DIGEST: u64 = 0x8c79_0244_cec3_c6c5;
    /// DL(32) beats BS+DM: 1.22–1.24× over seeds 31–50.
    const SPEEDUP: (f64, f64) = (1.1, 1.4);

    /// Library defaults (`Experiment::quick()`), run serially (see the
    /// crate docs), at the lineup scale; the seed picks the evaluation
    /// input and, six apart as in the defaults, the profiling input.
    fn experiment(seed: u64) -> Experiment {
        let mut exp = Experiment::quick();
        exp.parallelism = Parallelism::Serial;
        exp.scale = SCALE.with_seed(seed);
        exp.profile_seed = seed + 6;
        exp
    }

    fn setup(seed: u64) -> SetupResult<Inputs> {
        let exp = Self::experiment(seed);
        exp.try_validate()?;
        let suites = [standard_suite(), data_intensive_suite()];
        let trace_lens = suites
            .each_ref()
            .map(|s| s.iter().map(|w| w.generate(exp.scale).len()).collect());
        Ok(Inputs {
            exp,
            suites,
            trace_lens,
        })
    }

    fn pass(inputs: &Inputs, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut dl32 = Vec::new();
        let mut all = Vec::new();
        for (suite, lens) in inputs.suites.iter().zip(&inputs.trace_lens) {
            let comparisons = run_suite(suite, lens, &inputs.exp, tracer, &mut out);
            let metrics = comparisons
                .iter()
                .flat_map(|c| c.results.iter().map(|r| &r.metrics));
            tracer.span("obs.sidecar", 0, || sidecar(metrics));
            dl32.push(report::geomean_speedup(&comparisons, DL32).unwrap_or(0.0));
            all.extend(comparisons);
        }
        out.sim_speedup = report::geomean_speedup(&all, DL32).unwrap_or(0.0);
        let scale = &inputs.exp.scale;
        let mut line = String::from("accuracy:");
        for ((name, paper), ours) in PAPER_DL32.iter().zip(&dl32) {
            line += &format!(
                " {name} {ours:.3}x vs paper {paper:.2}x (rel err {:+.1}%);",
                (ours / paper - 1.0) * 100.0
            );
        }
        line += &format!(
            " the model is checked only for the paper's shapes, at n={} / {} accesses, \
             not EXPERIMENTS.md's `small` (n=16384 / 200000)",
            scale.n, scale.accesses
        );
        out.notes.push(line);
        out
    }

    /// `AllocStage` generates each benchmark's evaluation trace once per
    /// configuration.
    fn generate_calls(inputs: &Inputs) -> Vec<&dyn Workload> {
        let configs = SystemConfig::paper_lineup().len();
        let suites = inputs.suites.iter().flatten();
        suites
            .flat_map(|w| std::iter::repeat_n(w.as_ref(), configs))
            .collect()
    }

    fn isolation_cases<'a>(
        _: &'a Inputs,
        traced: &'a Outcome,
    ) -> Vec<(&'a Trace, &'a MappingEngine)> {
        traced.kept.iter().map(|(t, e)| (t, e)).collect()
    }
}

fn run_suite(
    suite: &[Box<dyn Workload>],
    lens: &[usize],
    exp: &Experiment,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Comparison> {
    let configs = SystemConfig::paper_lineup();
    let mut profiles = Vec::new();
    for (i, w) in suite.iter().enumerate() {
        let t0 = Instant::now();
        let profile = tracer.span("profiling.profile", i as u64, || {
            profiling::try_profile_on_baseline(w.as_ref(), exp)
        });
        if let Err(e) = &profile {
            for _ in &configs {
                out.record(ms_since(t0), 0, Err(format!("{}: profile: {e}", w.name())));
            }
        }
        profiles.push(profile.ok());
    }
    let mix = BitFlipRateVector::mean(profiles.iter().flatten().map(|p| &p.aggregate));

    let mut comparisons = Vec::new();
    for ((w, profile), &len) in suite.iter().zip(&profiles).zip(lens) {
        let Some(profile) = profile else { continue };
        let mut results = Vec::new();
        for &config in &configs {
            let data = if config == SystemConfig::BsBsm {
                // Global mapping from the suite mix, as the paper configures it.
                ProfileData {
                    aggregate: mix.clone(),
                    ..profile.clone()
                }
            } else {
                profile.clone()
            };
            let run = out.run_ms.len() as u64;
            let t0 = Instant::now();
            let res = if tracer.is_on() {
                run_stages_traced(w.as_ref(), config, exp, &data, tracer, run, out)
            } else {
                pipeline::try_run_with_profile(w.as_ref(), config, exp, Some(&data))
            };
            let ms = ms_since(t0);
            match res {
                Ok(r) => {
                    out.record(ms, len, Ok(&r.report));
                    out.learning_s += r.learning_time.map_or(0.0, |d| d.as_secs_f64());
                    results.push(r);
                }
                Err(e) => out.record(ms, len, Err(format!("{} {config}: {e}", w.name()))),
            }
        }
        if results.len() == configs.len() {
            comparisons.push(Comparison {
                workload: w.name().to_string(),
                results,
                metrics: Registry::new(),
            });
        }
    }
    comparisons
}

/// One lineup run through the library's own stages (`sdam::stage`),
/// driven as `pipeline::try_run_with_profile` drives them, each stage in
/// a span named after it.
fn run_stages_traced(
    w: &dyn Workload,
    config: SystemConfig,
    exp: &Experiment,
    data: &ProfileData,
    tracer: &mut Tracer,
    run: u64,
    out: &mut Outcome,
) -> Result<RunResult, SdamError> {
    exp.try_validate()?;
    let cache = StageCache::new();
    let mut ctx = RunContext::new(w, config, exp, &cache);
    ctx.profile = Some(ProfileHandle::Borrowed(data));
    for stage in stage::standard_stages() {
        let t0 = Instant::now();
        tracer.span(stage.name(), run, || stage.run(&mut ctx))?;
        if stage.name() == "select" && matches!(config, SystemConfig::SdmBsmDl { .. }) {
            out.dl_select_s += t0.elapsed().as_secs_f64();
        }
    }
    if config == DL32 {
        if let (Some(pa), Some(engine)) = (ctx.pa_trace.take(), ctx.engine.take()) {
            out.kept.push((pa, engine));
        }
    }
    let Some(result) = ctx.result.take() else {
        panic!("ReportStage did not produce a result");
    };
    Ok(result)
}
