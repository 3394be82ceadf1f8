//! Every per-key `SymbolTable` query against a brute-force filter of
//! the bulk reads, on the single- and dual-core rv32 debug tables.
//! The bulk reads (`all_breakpoints`, `all_scope_variables`,
//! `all_generator_variables`, `instances`) are the reference; each
//! keyed query must give the same rows in the same order.

use std::collections::BTreeSet;

use bench::{compile_core, compile_dual, symbols_for, CompiledCore};
use symtab::{BreakpointInfo, SymbolTable};

/// `(owner, name, RTL)` bindings of `owner`, sorted by (name, RTL).
fn bindings_of(all: &[(i64, String, String)], owner: i64) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = all
        .iter()
        .filter(|(o, _, _)| *o == owner)
        .map(|(_, name, rtl)| (name.clone(), rtl.clone()))
        .collect();
    out.sort();
    out
}

fn check_breakpoints(st: &SymbolTable, all: &[BreakpointInfo]) {
    let filter = |keep: &dyn Fn(&BreakpointInfo) -> bool| -> Vec<BreakpointInfo> {
        all.iter().filter(|b| keep(b)).cloned().collect()
    };
    let locations: BTreeSet<(&str, u32, u32)> = all
        .iter()
        .map(|b| (b.filename.as_str(), b.line, b.col))
        .collect();
    for &(file, line, col) in &locations {
        assert_eq!(
            st.breakpoints_at(file, None, None).unwrap(),
            filter(&|b| b.filename == file),
            "{file}"
        );
        assert_eq!(
            st.breakpoints_at(file, Some(line), None).unwrap(),
            filter(&|b| b.filename == file && b.line == line),
            "{file}:{line}"
        );
        assert_eq!(
            st.breakpoints_at(file, Some(line), Some(col)).unwrap(),
            filter(&|b| b.filename == file && b.line == line && b.col == col),
            "{file}:{line}:{col}"
        );
    }
    let (file, line, _) = *locations
        .iter()
        .next()
        .expect("debug build has breakpoints");
    assert!(st
        .breakpoints_at("absent.rs", None, None)
        .unwrap()
        .is_empty());
    assert!(st
        .breakpoints_at(file, Some(line), Some(u32::MAX))
        .unwrap()
        .is_empty());
    for bp in all {
        assert_eq!(st.breakpoint(bp.id).unwrap().as_ref(), Some(bp));
    }
    let past = all.iter().map(|b| b.id).max().unwrap() + 1;
    assert_eq!(st.breakpoint(past).unwrap(), None);
}

fn check_scopes(st: &SymbolTable, all: &[BreakpointInfo]) {
    let scopes = st.all_scope_variables().unwrap();
    for bp in all {
        let want = bindings_of(&scopes, bp.id);
        assert_eq!(st.scope_of(bp.id).unwrap(), want, "scope of {}", bp.id);
        for (name, _) in &want {
            // Among equal source names, the smallest RTL name.
            let rtl = scopes
                .iter()
                .filter(|(b, n, _)| *b == bp.id && n == name)
                .map(|(_, _, rtl)| rtl.clone())
                .min();
            assert_eq!(
                st.resolve_scoped_variable(bp.id, name).unwrap(),
                rtl,
                "breakpoint {} local {name}",
                bp.id
            );
        }
        assert_eq!(
            st.resolve_scoped_variable(bp.id, "no such local").unwrap(),
            None
        );
    }
}

fn check_instances(st: &SymbolTable) {
    let instances = st.instances().unwrap();
    let generators = st.all_generator_variables().unwrap();
    let names: BTreeSet<&str> = generators.iter().map(|(_, n, _)| n.as_str()).collect();
    for (id, path) in &instances {
        let first = instances.iter().find(|(_, p)| p == path).map(|(i, _)| *i);
        assert_eq!(st.instance_by_name(path).unwrap(), first, "{path}");
        assert_eq!(first, Some(*id), "{path} names one instance");
        assert_eq!(
            st.instance_variables(*id).unwrap(),
            bindings_of(&generators, *id),
            "{path}"
        );
        for &name in &names {
            // The first binding in row order.
            let rtl = generators
                .iter()
                .find(|(i, n, _)| i == id && n == name)
                .map(|(_, _, rtl)| rtl.clone());
            assert_eq!(
                st.resolve_instance_variable(*id, name).unwrap(),
                rtl,
                "{path}.{name}"
            );
        }
    }
    assert_eq!(st.instance_by_name("no.such.instance").unwrap(), None);
}

fn check_design(core: &CompiledCore) {
    let st = symbols_for(core);
    let all = st.all_breakpoints().unwrap();
    assert!(all.windows(2).all(|w| w[0].id < w[1].id), "id order");
    check_breakpoints(&st, &all);
    check_scopes(&st, &all);
    check_instances(&st);

    let files: BTreeSet<String> = all.iter().map(|b| b.filename.clone()).collect();
    assert_eq!(st.files().unwrap(), files.into_iter().collect::<Vec<_>>());
    // Every variable row is bound by a scope or generator variable.
    let paths: BTreeSet<String> = st
        .all_scope_variables()
        .unwrap()
        .into_iter()
        .chain(st.all_generator_variables().unwrap())
        .map(|(_, _, rtl)| rtl)
        .collect();
    assert_eq!(
        st.variable_paths().unwrap(),
        paths.into_iter().collect::<Vec<_>>()
    );
}

#[test]
fn single_core_keyed_queries_match_the_bulk_reads() {
    check_design(&compile_core(true));
}

#[test]
fn dual_core_keyed_queries_match_the_bulk_reads() {
    check_design(&compile_dual(true));
}
