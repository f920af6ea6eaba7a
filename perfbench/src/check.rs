//! Output checks: conservation identities every simulated run must
//! satisfy, and a digest of the simulated facts of a pass.

use sdam_sys::ExecutionReport;

/// Checks one run's report against the trace it executed.
///
/// * row hits + misses + conflicts == HBM requests;
/// * Σ per-channel requests == HBM requests;
/// * accesses executed == trace length;
/// * workload requests + migration requests == HBM requests (the
///   migration term is zero outside adaptive runs).
pub fn check_report(r: &ExecutionReport, trace_len: usize) -> Result<(), String> {
    let m = &r.memory;
    let outcomes: u64 = m
        .per_channel
        .iter()
        .map(|c| c.row_hits + c.row_misses + c.row_conflicts)
        .sum();
    if outcomes != m.requests {
        return Err(format!(
            "row outcomes {outcomes} != HBM requests {}",
            m.requests
        ));
    }
    let per_channel: u64 = m.per_channel.iter().map(|c| c.requests).sum();
    if per_channel != m.requests {
        return Err(format!(
            "per-channel requests {per_channel} != HBM requests {}",
            m.requests
        ));
    }
    if r.accesses != trace_len as u64 {
        return Err(format!(
            "accesses {} != trace length {trace_len}",
            r.accesses
        ));
    }
    let issued = r.memory_requests + r.adapt.migration_requests;
    if issued != m.requests {
        return Err(format!(
            "workload {} + migration {} requests != HBM requests {}",
            r.memory_requests, r.adapt.migration_requests, m.requests
        ));
    }
    Ok(())
}

/// FNV-1a over the simulated facts of a sequence of reports: cycles,
/// counters, per-core, per-channel, translation and adaptation totals.
/// Host timings never enter it, so it is identical across thread
/// counts, hosts and repeated passes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn report(&mut self, r: &ExecutionReport) {
        for v in [r.cycles, r.accesses, r.memory_requests, r.l1_hits] {
            self.word(v);
        }
        self.word(r.memory.requests);
        self.word(r.memory.makespan);
        for c in &r.memory.per_channel {
            for v in [
                c.requests,
                c.row_hits,
                c.row_misses,
                c.row_conflicts,
                c.refresh_stalls,
                c.bus_busy_cycles,
                c.last_completion,
            ] {
                self.word(v);
            }
        }
        for c in &r.per_core {
            for v in [c.cycles, c.accesses, c.misses, c.window_stall_cycles] {
                self.word(v);
            }
        }
        self.word(r.translation.memo_hits);
        self.word(r.translation.memo_misses);
        let a = &r.adapt;
        for v in [
            a.windows,
            a.migrations,
            a.migrated_bytes,
            a.migration_requests,
            a.migration_clocks,
            a.migration_row_hits,
            a.migration_row_misses,
            a.migration_row_conflicts,
        ] {
            self.word(v);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
