//! Bounded deterministic checkpoint storage.
//!
//! The runtime periodically captures full simulator snapshots
//! ([`rtl_sim::Snapshot`]) into a [`CheckpointRing`]: a cycle-ordered,
//! byte-bounded ring that backs both crash recovery (restore the
//! last-known-good checkpoint after a panicked request) and reverse
//! debugging on forward-only backends (restore the nearest checkpoint
//! at or before the target cycle, then replay forward).
//!
//! Determinism is what makes a sparse ring sufficient: restoring a
//! snapshot and replaying the same stimulus is bit-identical to the
//! uninterrupted run (see `rtl_sim::Snapshot`), so any cycle between
//! two checkpoints is reachable by restore + replay. The ring can
//! therefore evict aggressively — it keeps recency, not density.

use std::collections::VecDeque;

use rtl_sim::Snapshot;

/// Checkpointing policy: how often the runtime auto-checkpoints and
/// how much memory the ring may hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Auto-checkpoint every `interval` cycles during forward
    /// execution (`0` disables auto-checkpointing; explicit
    /// checkpoints still work).
    pub interval: u64,
    /// Approximate byte budget for retained snapshots. When a push
    /// exceeds it, the oldest checkpoints are evicted — but at least
    /// one entry is always kept, so recovery never loses its last
    /// known-good state to the cap.
    pub max_bytes: usize,
}

impl Default for CheckpointConfig {
    fn default() -> CheckpointConfig {
        CheckpointConfig {
            // One checkpoint per service execution slice (2048 cycles).
            // A snapshot copies the simulator's word store (~66 KB for
            // the rv32 core), so the cadence is the overhead knob. At
            // 2048, capturing costs the executing rv32 core 0.09% of
            // its throughput: `checkpoint_overhead` in
            // BENCH_sim_throughput.json, from `sim_throughput
            // --checkpoint-every 2048`, median of 5 runs on a 2-vCPU
            // Xeon container. The price is replay: a rewind re-simulates
            // up to `interval` cycles, about 2.7 ms for rv32 at the
            // ~1.3 µs per cycle that hgdb-bench's `sim.step_ns` reads on
            // the same host.
            interval: 2048,
            max_bytes: 64 << 20,
        }
    }
}

impl CheckpointConfig {
    /// The default policy, overridable through the environment:
    /// `HGDB_CHECKPOINT_INTERVAL` (cycles, `0` disables) and
    /// `HGDB_CHECKPOINT_BYTES` (byte cap). Unparsable values fall back
    /// to the defaults.
    pub fn from_env() -> CheckpointConfig {
        let mut config = CheckpointConfig::default();
        if let Ok(v) = std::env::var("HGDB_CHECKPOINT_INTERVAL") {
            if let Ok(n) = v.trim().parse::<u64>() {
                config.interval = n;
            }
        }
        if let Ok(v) = std::env::var("HGDB_CHECKPOINT_BYTES") {
            if let Ok(n) = v.trim().parse::<usize>() {
                config.max_bytes = n;
            }
        }
        config
    }
}

/// One retained checkpoint: a simulator snapshot tagged with the cycle
/// it was captured at.
#[derive(Debug)]
pub struct Checkpoint {
    cycle: u64,
    bytes: usize,
    snap: Snapshot,
}

impl Checkpoint {
    /// The cycle this checkpoint was captured at.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The captured snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }
}

/// A cycle-ordered, byte-bounded store of checkpoints.
///
/// Entries are kept sorted by cycle. Pushing a checkpoint for a cycle
/// already present replaces it (re-running a deterministic replay
/// re-captures identical state); pushing over the byte budget evicts
/// from the oldest end, always keeping at least one entry.
#[derive(Debug)]
pub struct CheckpointRing {
    entries: VecDeque<Checkpoint>,
    bytes: usize,
    config: CheckpointConfig,
    /// The most recently evicted snapshot, kept as a recycled capture
    /// buffer: the runtime captures the next checkpoint into it
    /// (`SimControl::save_snapshot_into`), so steady-state
    /// auto-checkpointing under the byte cap is allocation-free.
    spare: Option<Snapshot>,
}

impl CheckpointRing {
    /// An empty ring with the given policy.
    pub fn new(config: CheckpointConfig) -> CheckpointRing {
        CheckpointRing {
            entries: VecDeque::new(),
            bytes: 0,
            config,
            spare: None,
        }
    }

    /// Takes the buffer recycled from the last eviction, if any, for
    /// the caller to capture the next snapshot into.
    pub fn take_spare(&mut self) -> Option<Snapshot> {
        self.spare.take()
    }

    /// The auto-checkpoint interval in cycles (`0` = disabled).
    pub fn interval(&self) -> u64 {
        self.config.interval
    }

    /// Replaces the policy. Takes effect on the next push; existing
    /// entries are not re-evicted until then.
    pub fn set_config(&mut self, config: CheckpointConfig) {
        self.config = config;
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no checkpoints are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate bytes held by retained snapshots.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Drops every checkpoint (recycling the newest as the spare
    /// capture buffer).
    pub fn clear(&mut self) {
        if let Some(old) = self.entries.pop_back() {
            self.spare = Some(old.snap);
        }
        self.entries.clear();
        self.bytes = 0;
    }

    /// Inserts a checkpoint in cycle order, replacing any existing
    /// entry for the same cycle, then evicts oldest entries while over
    /// the byte budget (keeping at least one).
    pub fn push(&mut self, cycle: u64, snap: Snapshot) {
        let bytes = snap.approx_bytes();
        if let Some(pos) = self.entries.iter().position(|c| c.cycle == cycle) {
            let old = self.entries.remove(pos).expect("position exists");
            self.bytes -= old.bytes;
            self.spare = Some(old.snap);
        }
        let pos = self.entries.partition_point(|c| c.cycle < cycle);
        self.entries.insert(pos, Checkpoint { cycle, bytes, snap });
        self.bytes += bytes;
        while self.bytes > self.config.max_bytes && self.entries.len() > 1 {
            if let Some(old) = self.entries.pop_front() {
                self.bytes -= old.bytes;
                self.spare = Some(old.snap);
            }
        }
    }

    /// The newest checkpoint at or before `cycle`, if any.
    pub fn nearest_at_or_before(&self, cycle: u64) -> Option<&Checkpoint> {
        let pos = self.entries.partition_point(|c| c.cycle <= cycle);
        pos.checked_sub(1).and_then(|i| self.entries.get(i))
    }

    /// The newest retained checkpoint.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.entries.back()
    }

    /// Retained checkpoint cycles, oldest first.
    pub fn cycles(&self) -> Vec<u64> {
        self.entries.iter().map(|c| c.cycle).collect()
    }

    /// Drops every checkpoint captured after `cycle` (used when an
    /// explicit restore rewrites history: a testbench may drive the
    /// replay differently, so later checkpoints no longer describe the
    /// future).
    pub fn truncate_after(&mut self, cycle: u64) {
        while self.entries.back().is_some_and(|c| c.cycle > cycle) {
            if let Some(old) = self.entries.pop_back() {
                self.bytes -= old.bytes;
                self.spare = Some(old.snap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_of(cycles: u64) -> Snapshot {
        // Build a tiny live simulator and advance it so snapshots carry
        // distinct times; the ring only cares about the opaque payload.
        let mut cb = hgf::CircuitBuilder::new();
        cb.module("t", |m| {
            let c = m.reg("c", 8, Some(0));
            m.assign(&c, c.sig() + m.lit(1, 8));
        });
        let circuit = cb.finish("t").expect("valid");
        let mut state = hgf_ir::CircuitState::new(circuit);
        hgf_ir::passes::compile(&mut state, false).expect("compiles");
        let mut sim = rtl_sim::Simulator::new(&state.circuit).expect("builds");
        use rtl_sim::SimControl;
        for _ in 0..cycles {
            sim.step_clock();
        }
        sim.snapshot()
    }

    #[test]
    fn ordered_insert_and_lookup() {
        let mut ring = CheckpointRing::new(CheckpointConfig::default());
        ring.push(10, snap_of(10));
        ring.push(30, snap_of(30));
        ring.push(20, snap_of(20)); // out-of-order insert lands sorted
        assert_eq!(ring.cycles(), vec![10, 20, 30]);
        assert_eq!(ring.nearest_at_or_before(25).unwrap().cycle(), 20);
        assert_eq!(ring.nearest_at_or_before(30).unwrap().cycle(), 30);
        assert!(ring.nearest_at_or_before(9).is_none());
        assert_eq!(ring.latest().unwrap().cycle(), 30);
    }

    #[test]
    fn same_cycle_push_replaces() {
        let mut ring = CheckpointRing::new(CheckpointConfig::default());
        ring.push(5, snap_of(5));
        let bytes = ring.approx_bytes();
        ring.push(5, snap_of(5));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.approx_bytes(), bytes);
    }

    #[test]
    fn byte_cap_evicts_oldest_but_keeps_one() {
        let mut ring = CheckpointRing::new(CheckpointConfig {
            interval: 1,
            max_bytes: 1, // below any real snapshot size
        });
        ring.push(1, snap_of(1));
        ring.push(2, snap_of(2));
        ring.push(3, snap_of(3));
        assert_eq!(ring.len(), 1, "cap keeps exactly the newest");
        assert_eq!(ring.latest().unwrap().cycle(), 3);
    }

    #[test]
    fn evictions_recycle_a_spare_capture_buffer() {
        let mut ring = CheckpointRing::new(CheckpointConfig {
            interval: 1,
            max_bytes: 1, // below any real snapshot size
        });
        assert!(ring.take_spare().is_none(), "fresh ring has no spare");
        ring.push(1, snap_of(1));
        assert!(ring.take_spare().is_none(), "no eviction yet");
        ring.push(2, snap_of(2)); // evicts cycle 1 under the cap
        let spare = ring.take_spare().expect("eviction leaves a spare");
        assert_eq!(spare.time(), 1, "spare is the evicted snapshot");
        assert!(ring.take_spare().is_none(), "spare is taken once");
        // Same-cycle replacement and truncation recycle too.
        ring.push(2, snap_of(2));
        assert!(ring.take_spare().is_some());
        ring.push(5, snap_of(5));
        ring.truncate_after(2);
        assert!(ring.take_spare().is_some());
    }

    #[test]
    fn truncate_after_drops_future() {
        let mut ring = CheckpointRing::new(CheckpointConfig::default());
        for c in [10, 20, 30, 40] {
            ring.push(c, snap_of(c));
        }
        ring.truncate_after(25);
        assert_eq!(ring.cycles(), vec![10, 20]);
        ring.truncate_after(0);
        assert!(ring.is_empty());
        assert_eq!(ring.approx_bytes(), 0);
    }
}
