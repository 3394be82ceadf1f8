//! The runtime's symbol index: what a stop, an `eval`, a `set_value`
//! and the breakpoint and watch expressions need from the symbol
//! table, read from it once at attach and resolved to interned
//! signals.
//!
//! The symbol table answers each of those questions with a relational
//! join (`scope_of`, `instance_variables`, `resolve_instance_variable`)
//! that hashes the whole `variable` table per call. The index reads
//! each relation once, at attach, so no `SymbolTable` query runs per
//! cycle, per stop, per `eval` or per watch evaluation.

use std::collections::HashMap;

use bits::Bits4;
use rtl_sim::{SignalId, SimControl};
use symtab::SymbolTable;

use crate::frame::{VarNode, VarTemplate};

/// One signal, resolved once: the backend's interned id when it has
/// one, with the RTL path as the fallback.
#[derive(Debug)]
pub(crate) struct SignalRef {
    id: Option<SignalId>,
    path: String,
}

impl SignalRef {
    /// Interns `path` against the backend.
    pub(crate) fn new<S: SimControl>(sim: &S, path: String) -> SignalRef {
        SignalRef {
            id: sim.signal_id(&path),
            path,
        }
    }

    /// The RTL path.
    pub(crate) fn path(&self) -> &str {
        &self.path
    }

    /// The current value: by id, then by path (for a backend that
    /// interns a path it cannot read by id). Four-state; fully known on
    /// two-state backends.
    pub(crate) fn read<S: SimControl>(&self, sim: &S) -> Option<Bits4> {
        if let Some(v) = self.id.and_then(|id| sim.get_value4_by_id(id)) {
            return Some(v);
        }
        sim.get_value4(&self.path)
    }
}

/// The signals a name in an enable or condition may denote, in the
/// order they are tried: `{instance}.{name}`, then `name` as an
/// absolute path. A candidate the backend could not intern is dropped
/// when a later one is interned: the interned one was always read
/// first, and the path lookup of the other would fail every cycle.
pub(crate) fn scoped_candidates<S: SimControl>(
    sim: &S,
    instance: &str,
    name: &str,
) -> Vec<SignalRef> {
    let mut candidates = vec![
        SignalRef::new(sim, format!("{instance}.{name}")),
        SignalRef::new(sim, name.to_owned()),
    ];
    if let Some(first) = candidates.iter().position(|c| c.id.is_some()) {
        candidates.drain(..first);
    }
    candidates
}

/// One instance's generator variables.
#[derive(Debug, Default)]
struct InstanceVars {
    /// The variables in structured form, each value sourced from its
    /// signal, shaped in the order of `SymbolTable::instance_variables`
    /// (name, then RTL path).
    tree: VarTemplate,
    /// Name → signal of the name's first binding, the one
    /// `SymbolTable::resolve_instance_variable` answers.
    by_name: HashMap<String, usize>,
}

/// The symbol table's variable mappings, resolved against one backend.
#[derive(Debug, Default)]
pub(crate) struct SymbolIndex {
    /// One entry per distinct RTL path a scope or generator variable
    /// maps to.
    signals: Vec<SignalRef>,
    /// Breakpoint id → its scope locals as `(source name, signal)`,
    /// sorted by name, then RTL path — the order of
    /// `SymbolTable::scope_of`.
    scopes: HashMap<i64, Vec<(String, usize)>>,
    /// Instance name → its slot in `instances` (the first row with that
    /// name, as `SymbolTable::instance_by_name` finds it).
    by_instance: HashMap<String, usize>,
    instances: Vec<InstanceVars>,
}

impl SymbolIndex {
    /// Builds the index from one read of each relation: instances,
    /// scope variables and generator variables.
    ///
    /// # Errors
    ///
    /// Propagates symbol-table query errors (as strings — the caller
    /// wraps them in its own error type).
    pub(crate) fn build<S: SimControl>(
        sim: &S,
        symbols: &SymbolTable,
    ) -> Result<SymbolIndex, String> {
        let mut index = SymbolIndex::default();
        let mut slot_of_id: HashMap<i64, usize> = HashMap::new();
        for (id, name) in symbols.instances().map_err(|e| e.to_string())? {
            let slot = index.instances.len();
            index.instances.push(InstanceVars::default());
            slot_of_id.insert(id, slot);
            index.by_instance.entry(name).or_insert(slot);
        }
        let mut by_path: HashMap<String, usize> = HashMap::new();
        let mut intern = |signals: &mut Vec<SignalRef>, path: &str| -> usize {
            if let Some(&signal) = by_path.get(path) {
                return signal;
            }
            signals.push(SignalRef::new(sim, path.to_owned()));
            by_path.insert(path.to_owned(), signals.len() - 1);
            signals.len() - 1
        };
        let mut scopes: HashMap<i64, Vec<(String, String, usize)>> = HashMap::new();
        for (bp, name, path) in symbols.all_scope_variables().map_err(|e| e.to_string())? {
            let signal = intern(&mut index.signals, &path);
            scopes.entry(bp).or_default().push((name, path, signal));
        }
        for (bp, mut locals) in scopes {
            sort_by_name_and_path(&mut locals);
            let locals = locals.into_iter().map(|(name, _, signal)| (name, signal));
            index.scopes.insert(bp, locals.collect());
        }
        let mut generator: HashMap<usize, Vec<(String, String, usize)>> = HashMap::new();
        for (instance, name, path) in symbols
            .all_generator_variables()
            .map_err(|e| e.to_string())?
        {
            let Some(&slot) = slot_of_id.get(&instance) else {
                continue;
            };
            let signal = intern(&mut index.signals, &path);
            index.instances[slot]
                .by_name
                .entry(name.clone())
                .or_insert(signal);
            generator
                .entry(slot)
                .or_default()
                .push((name, path, signal));
        }
        for (slot, mut vars) in generator {
            sort_by_name_and_path(&mut vars);
            let vars = vars
                .iter()
                .map(|(name, _, signal)| (name.as_str(), *signal));
            index.instances[slot].tree = VarTemplate::new(vars);
        }
        Ok(index)
    }

    /// The slot of the instance named `name`.
    pub(crate) fn instance(&self, name: &str) -> Option<usize> {
        self.by_instance.get(name).copied()
    }

    /// The signal the generator variable `name` of an instance maps to.
    pub(crate) fn generator_var(&self, instance: usize, name: &str) -> Option<&SignalRef> {
        let signal = *self.instances[instance].by_name.get(name)?;
        Some(&self.signals[signal])
    }

    /// [`SymbolIndex::generator_var`] of the instance named `instance`.
    pub(crate) fn generator_var_in(&self, instance: &str, name: &str) -> Option<&SignalRef> {
        self.generator_var(self.instance(instance)?, name)
    }

    /// A breakpoint's scope locals with their current values.
    pub(crate) fn locals<S: SimControl>(&self, sim: &S, bp: i64) -> Vec<(String, Option<Bits4>)> {
        let Some(locals) = self.scopes.get(&bp) else {
            return Vec::new();
        };
        locals
            .iter()
            .map(|(name, signal)| (name.clone(), self.signals[*signal].read(sim)))
            .collect()
    }

    /// An instance's generator variables with their current values, in
    /// structured form.
    pub(crate) fn generator<S: SimControl>(
        &self,
        sim: &S,
        instance: Option<usize>,
    ) -> Vec<VarNode> {
        match instance {
            Some(slot) => self.instances[slot]
                .tree
                .fill(&|signal| self.signals[signal].read(sim)),
            None => Vec::new(),
        }
    }
}

/// Sorts `(name, RTL path, signal)` rows by name, then path.
fn sort_by_name_and_path(rows: &mut [(String, String, usize)]) {
    rows.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
}
