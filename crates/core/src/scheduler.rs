//! Breakpoint scheduling — Figure 2 of the paper.
//!
//! Before simulation starts, the absolute ordering of every potential
//! breakpoint is computed from the symbol table (lexical order:
//! file, line, column, then instance id for the concurrent copies).
//! Breakpoints sharing a source location form a *group* — the
//! "concurrent hardware threads executing the same line" of Figure 4.
//!
//! At each rising clock edge the runtime walks the groups in order,
//! evaluating each group's breakpoints together; walking the same
//! order backwards yields intra-cycle reverse debugging (§3.2).

use symtab::{BreakpointInfo, SymbolTable};

/// One source location's breakpoints (all instances).
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Source file.
    pub filename: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Breakpoint ids in instance order.
    pub bp_ids: Vec<i64>,
}

/// The precomputed group ordering plus the in-cycle cursor.
///
/// The scheduler also tracks how many user insertions (across all
/// sessions) each group currently carries, so the continue-mode hot
/// loop can skip uninstrumented groups in O(1) instead of scanning
/// each group's breakpoint list. The runtime calls
/// [`Scheduler::note_inserted`]/[`Scheduler::note_removed`] as
/// sessions insert and remove breakpoints.
#[derive(Debug, Default)]
pub struct Scheduler {
    groups: Vec<Group>,
    /// Breakpoint id → index of its group, for insertion bookkeeping.
    group_index: std::collections::BTreeMap<i64, usize>,
    /// Per-group count of live user insertions, summed over sessions.
    insertions: Vec<usize>,
    /// Group index the runtime is currently stopped at, if any.
    current: Option<usize>,
}

impl Scheduler {
    /// Precomputes the absolute ordering from the symbol table.
    ///
    /// # Errors
    ///
    /// Propagates symbol-table query errors (as strings — the caller
    /// wraps them in its own error type).
    pub fn from_symbols(symbols: &SymbolTable) -> Result<Scheduler, String> {
        let bps = symbols.all_breakpoints().map_err(|e| e.to_string())?;
        Ok(Scheduler::from_breakpoints(&bps))
    }

    /// Precomputes the absolute ordering from breakpoint rows already
    /// read from the symbol table (the runtime reads them once at
    /// attach for both the scheduler and its breakpoint table).
    pub(crate) fn from_breakpoints(bps: &[BreakpointInfo]) -> Scheduler {
        let mut bps: Vec<&BreakpointInfo> = bps.iter().collect();
        // `all_breakpoints` returns id order. The walk order must be
        // the *lexical* order of Figure 2 — (file, line, col), then
        // instance id for the concurrent copies — and grouping below
        // relies on rows at the same location being adjacent, which id
        // order does not guarantee when the compiler numbers
        // breakpoints out of source order.
        bps.sort_by(|a, b| {
            (a.filename.as_str(), a.line, a.col, a.instance_id).cmp(&(
                b.filename.as_str(),
                b.line,
                b.col,
                b.instance_id,
            ))
        });
        let mut groups: Vec<Group> = Vec::new();
        for bp in bps {
            match groups.last_mut() {
                Some(g) if g.filename == bp.filename && g.line == bp.line && g.col == bp.col => {
                    g.bp_ids.push(bp.id);
                }
                _ => groups.push(Group {
                    filename: bp.filename.clone(),
                    line: bp.line,
                    col: bp.col,
                    bp_ids: vec![bp.id],
                }),
            }
        }
        let mut group_index = std::collections::BTreeMap::new();
        for (gi, g) in groups.iter().enumerate() {
            for id in &g.bp_ids {
                group_index.insert(*id, gi);
            }
        }
        let insertions = vec![0; groups.len()];
        Scheduler {
            groups,
            group_index,
            insertions,
            current: None,
        }
    }

    /// All groups in absolute order.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The group a breakpoint id belongs to, if any.
    pub fn group_of(&self, bp_id: i64) -> Option<usize> {
        self.group_index.get(&bp_id).copied()
    }

    /// Records one new session insertion of `bp_id`.
    pub fn note_inserted(&mut self, bp_id: i64) {
        if let Some(gi) = self.group_of(bp_id) {
            self.insertions[gi] += 1;
        }
    }

    /// Records the removal of one session insertion of `bp_id`.
    pub fn note_removed(&mut self, bp_id: i64) {
        if let Some(gi) = self.group_of(bp_id) {
            self.insertions[gi] = self.insertions[gi].saturating_sub(1);
        }
    }

    /// Whether any session currently has a breakpoint inserted in this
    /// group (the continue-mode fast skip).
    pub fn group_has_insertions(&self, group_index: usize) -> bool {
        self.insertions[group_index] > 0
    }

    /// Rebuilds the per-group insertion counters from scratch, given
    /// the authoritative per-breakpoint insertion counts. Used by the
    /// runtime's post-panic consistency repair: a request that
    /// panicked mid-insert may have updated one side but not the
    /// other, and the counters must agree with the insertion map or
    /// the continue-loop fast skip silently drops stops.
    pub fn rebuild_insertions(&mut self, counts: impl Iterator<Item = (i64, usize)>) {
        self.insertions.iter_mut().for_each(|c| *c = 0);
        for (bp_id, count) in counts {
            if let Some(gi) = self.group_of(bp_id) {
                self.insertions[gi] += count;
            }
        }
    }

    /// The group index currently stopped at.
    pub fn current(&self) -> Option<usize> {
        self.current
    }

    /// Forgets the cursor (new clock cycle).
    pub fn reset_cycle(&mut self) {
        self.current = None;
    }

    /// Moves the cursor to a specific group (used when a hit occurs).
    pub fn stop_at(&mut self, index: usize) {
        self.current = Some(index);
    }

    /// Group indices still to visit in this cycle, scanning forward
    /// from just after the current stop (or the start of the cycle).
    pub fn remaining_forward(&self) -> std::ops::Range<usize> {
        let start = match self.current {
            Some(i) => i + 1,
            None => 0,
        };
        start..self.groups.len()
    }

    /// Group indices to visit scanning backward from just before the
    /// current stop (or the end of the cycle, when entering a cycle in
    /// reverse mode). Allocation-free: this sits on the reverse-step
    /// hot loop, which may scan every group of every cycle of a long
    /// trace.
    pub fn remaining_backward(&self) -> std::iter::Rev<std::ops::Range<usize>> {
        let end = match self.current {
            Some(i) => i,
            None => self.groups.len(),
        };
        (0..end).rev()
    }

    /// Whether any group exists at all (fast path: "exit the loop
    /// immediately if there is no breakpoint inserted").
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbols() -> SymbolTable {
        let mut st = SymbolTable::new();
        st.add_instance(0, "top").unwrap();
        st.add_instance(1, "top.u0").unwrap();
        st.add_instance(2, "top.u1").unwrap();
        // Ordered ids across three locations; the middle one has two
        // instances.
        st.add_breakpoint(0, "a.rs", 3, 1, None, 0).unwrap();
        st.add_breakpoint(1, "a.rs", 5, 1, None, 1).unwrap();
        st.add_breakpoint(2, "a.rs", 5, 1, None, 2).unwrap();
        st.add_breakpoint(3, "b.rs", 2, 4, None, 0).unwrap();
        st
    }

    #[test]
    fn groups_by_location_in_order() {
        let s = Scheduler::from_symbols(&symbols()).unwrap();
        let g = s.groups();
        assert_eq!(g.len(), 3);
        assert_eq!(g[0].bp_ids, vec![0]);
        assert_eq!(g[1].bp_ids, vec![1, 2], "same line, two instances");
        assert_eq!(g[2].bp_ids, vec![3]);
        assert!(!s.is_empty());
    }

    #[test]
    fn forward_cursor() {
        let mut s = Scheduler::from_symbols(&symbols()).unwrap();
        assert_eq!(s.remaining_forward(), 0..3);
        s.stop_at(0);
        assert_eq!(s.remaining_forward(), 1..3);
        s.stop_at(2);
        assert_eq!(s.remaining_forward(), 3..3);
        s.reset_cycle();
        assert_eq!(s.remaining_forward(), 0..3);
    }

    #[test]
    fn backward_cursor() {
        let mut s = Scheduler::from_symbols(&symbols()).unwrap();
        // Entering a cycle in reverse visits groups from the end.
        assert_eq!(s.remaining_backward().collect::<Vec<_>>(), vec![2, 1, 0]);
        s.stop_at(2);
        assert_eq!(s.remaining_backward().collect::<Vec<_>>(), vec![1, 0]);
        s.stop_at(0);
        assert_eq!(s.remaining_backward().count(), 0);
    }

    /// Regression: breakpoint ids interleaved across files and
    /// locations. Grouping used to rely on id-order adjacency, which
    /// split one location into duplicate groups and walked groups in
    /// id order instead of the documented lexical order.
    #[test]
    fn groups_lexically_despite_interleaved_ids() {
        let mut st = SymbolTable::new();
        st.add_instance(0, "top").unwrap();
        st.add_instance(1, "top.u0").unwrap();
        // id order: b.rs:2, a.rs:5 (u0), a.rs:3, a.rs:5 (top) — the
        // two a.rs:5 rows are not adjacent by id.
        st.add_breakpoint(0, "b.rs", 2, 1, None, 0).unwrap();
        st.add_breakpoint(1, "a.rs", 5, 1, None, 1).unwrap();
        st.add_breakpoint(2, "a.rs", 3, 1, None, 0).unwrap();
        st.add_breakpoint(3, "a.rs", 5, 1, None, 0).unwrap();
        let s = Scheduler::from_symbols(&st).unwrap();
        let g = s.groups();
        assert_eq!(g.len(), 3, "one group per source location");
        assert_eq!((g[0].filename.as_str(), g[0].line), ("a.rs", 3));
        assert_eq!(g[0].bp_ids, vec![2]);
        assert_eq!((g[1].filename.as_str(), g[1].line), ("a.rs", 5));
        assert_eq!(g[1].bp_ids, vec![3, 1], "instance order within group");
        assert_eq!((g[2].filename.as_str(), g[2].line), ("b.rs", 2));
        assert_eq!(g[2].bp_ids, vec![0]);
    }

    #[test]
    fn insertion_counts_track_sessions() {
        let mut s = Scheduler::from_symbols(&symbols()).unwrap();
        assert!(!s.group_has_insertions(0));
        assert_eq!(s.group_of(1), Some(1));
        assert_eq!(s.group_of(99), None);
        // Two sessions insert the same breakpoint: the group stays
        // instrumented until both remove.
        s.note_inserted(1);
        s.note_inserted(1);
        assert!(s.group_has_insertions(1));
        s.note_removed(1);
        assert!(s.group_has_insertions(1), "one session still holds it");
        s.note_removed(1);
        assert!(!s.group_has_insertions(1));
        // Removing below zero is a no-op, not a panic.
        s.note_removed(1);
        assert!(!s.group_has_insertions(1));
    }

    #[test]
    fn empty_symbols_empty_scheduler() {
        let s = Scheduler::from_symbols(&SymbolTable::new()).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.remaining_forward(), 0..0);
    }
}
