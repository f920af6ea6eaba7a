//! `execute_replay`: the standard suite's PA traces, materialized in
//! set-up under SDAM's per-application mapping (SDM+BSM, a chunked CMT
//! engine) and under the global hash (BS+HM), then replayed through
//! `Machine::try_run_with`. Profiling, selection and allocation all happen
//! in set-up, so the pass is the execute, mapping and HBM layers alone.

use std::time::Instant;

use sdam::metrics::collect_run_metrics;
use sdam::stage::{AllocStage, ProfileStage, RunContext, SelectStage, Stage, StageCache};
use sdam::{Experiment, Parallelism, PhaseTimes, SdamError, SdamSystem, SystemConfig};
use sdam_sys::{Machine, MappingEngine};
use sdam_trace::Trace;
use sdam_workloads::{standard_suite, Scale};

use crate::spans::Tracer;
use crate::stack::{engine_for, geomean, ms_since, sidecar, Outcome};
use crate::{Bench, SetupResult};

const SCALE: Scale = Scale {
    n: 8192,
    accesses: 100_000,
    seed: 1,
};

/// Replayed configurations: the chunked engine first, the global one
/// second (their cycle ratio is the workload's speedup).
const CONFIGS: [SystemConfig; 2] = [SystemConfig::SdmBsm, SystemConfig::BsHm];

pub struct Case {
    pa: Trace,
    engine: MappingEngine,
    sys: SdamSystem,
}

pub struct Inputs {
    exp: Experiment,
    /// Per benchmark, one case per entry of `CONFIGS`.
    cases: Vec<[Case; 2]>,
}

pub struct ExecuteReplay;

impl Bench for ExecuteReplay {
    type Inputs = Inputs;
    const NAME: &'static str = "execute_replay";
    const DIGEST: u64 = 0xd4af_b0fc_2f01_d6cf;
    /// BS+HM beats SDM+BSM on replay: 0.89–0.90× over seeds 31–50.
    const SPEEDUP: (f64, f64) = (0.8, 1.0);

    /// `Experiment::bench()`, run serially (see the crate docs).
    fn experiment(seed: u64) -> Experiment {
        let mut exp = Experiment::bench();
        exp.parallelism = Parallelism::Serial;
        exp.scale = SCALE.with_seed(seed);
        exp.profile_seed = seed + 6;
        exp
    }

    /// Each case runs the library's own profile, select and alloc stages
    /// (`sdam::stage`), sharing one stage cache per benchmark.
    fn setup(seed: u64) -> SetupResult<Inputs> {
        let exp = Self::experiment(seed);
        exp.try_validate()?;
        let mut cases = Vec::new();
        for w in standard_suite() {
            let cache = StageCache::new();
            let case = |config: SystemConfig| -> Result<Case, SdamError> {
                let mut ctx = RunContext::new(w.as_ref(), config, &exp, &cache);
                for stage in [&ProfileStage as &dyn Stage, &SelectStage, &AllocStage] {
                    stage.run(&mut ctx)?;
                }
                let (Some(outcome), Some(sys), Some(pa)) = (ctx.selection, ctx.sys, ctx.pa_trace)
                else {
                    panic!("AllocStage did not materialize the trace");
                };
                let engine = engine_for(&outcome.selection, &sys);
                Ok(Case { pa, engine, sys })
            };
            cases.push([case(CONFIGS[0])?, case(CONFIGS[1])?]);
        }
        Ok(Inputs { exp, cases })
    }

    fn pass(inputs: &Inputs, tracer: &mut Tracer) -> Outcome {
        let exp = &inputs.exp;
        let mut out = Outcome::default();
        let mut metrics = Vec::new();
        let mut ratios = Vec::new();
        for pair in &inputs.cases {
            let mut cycles = [0u64; 2];
            for (case, c) in pair.iter().zip(&mut cycles) {
                let run = out.run_ms.len() as u64;
                let t0 = Instant::now();
                let res = tracer.span("execute", run, || {
                    Machine::new(exp.machine, exp.geometry)
                        .with_timing(exp.timing)
                        .try_run_with(&case.pa, &case.engine, exp.parallelism.threads())
                });
                let ms = ms_since(t0);
                match res {
                    Ok(r) => {
                        out.record(ms, case.pa.len(), Ok(&r));
                        *c = r.cycles;
                        metrics.push(tracer.span("obs.collect", run, || {
                            collect_run_metrics(&r, Some(&case.sys), &PhaseTimes::default())
                        }));
                    }
                    Err(e) => out.record(ms, case.pa.len(), Err(e.to_string())),
                }
            }
            if cycles.iter().all(|&c| c > 0) {
                ratios.push(cycles[1] as f64 / cycles[0] as f64);
            }
        }
        tracer.span("obs.sidecar", 0, || sidecar(&metrics));
        out.sim_speedup = geomean(&ratios);
        out
    }

    fn isolation_cases<'a>(
        inputs: &'a Inputs,
        _: &'a Outcome,
    ) -> Vec<(&'a Trace, &'a MappingEngine)> {
        inputs
            .cases
            .iter()
            .flatten()
            .map(|c| (&c.pa, &c.engine))
            .collect()
    }
}
