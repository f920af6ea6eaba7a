//! Database joins under SDAM: profile a hash join, inspect its major
//! variables and their bit-flip profiles, and compare mapping policies.
//!
//! This example walks the *introspection* side of the library: what the
//! profiler sees and what the selector does with it.
//!
//! ```text
//! cargo run --release --example database_join
//! ```

use sdam::{pipeline, profiling, Experiment, SystemConfig};
use sdam_workloads::analytics::{HashJoin, MergeSortJoin};
use sdam_workloads::{Scale, Workload};

fn main() -> Result<(), sdam::SdamError> {
    let mut exp = Experiment::bench();
    exp.scale = Scale::small();

    // 1. Profile the hash join on the training input.
    let join = HashJoin;
    let data = profiling::try_profile_on_baseline(&join, &exp)?;
    println!("hash-join major variables (of the 80% reference mass):");
    let names = ["build relation", "probe relation", "bucket table", "output"];
    for v in &data.major {
        let bfrv = &data.bfrvs[v];
        let hot: Vec<u32> = bfrv.bits_by_flip_rate(6).into_iter().take(5).collect();
        println!(
            "  {v} ({}) — hottest address bits {hot:?}",
            names.get(v.index()).unwrap_or(&"?")
        );
    }

    // 2. What the ML selector decides.
    let out = profiling::try_select_mappings(SystemConfig::SdmBsmMl { clusters: 2 }, &data, &exp)?;
    if let profiling::Selection::Sdam { perms, assignment } = &out.selection {
        println!(
            "\nK-Means(2) grouped the variables into {} mappings:",
            perms.len()
        );
        for (v, c) in assignment {
            println!("  {v} -> mapping {c}");
        }
    }

    // 3. End-to-end comparison for both joins.
    for w in [&HashJoin as &dyn Workload, &MergeSortJoin as &dyn Workload] {
        let cmp = pipeline::try_compare(
            w,
            &[SystemConfig::BsHm, SystemConfig::SdmBsmMl { clusters: 4 }],
            &exp,
        )?;
        print!("\n{cmp}");
    }
    Ok(())
}
