//! Building the symbol table from the compiler's debug table.
//!
//! Expands module-level debug info to concrete per-instance rows: a
//! module instantiated N times yields N breakpoints per annotated
//! statement, all sharing the source location — these are the
//! "concurrent hardware threads executing the same line" the IDE shows
//! (Figure 4 B ).

use std::collections::HashMap;

use hgf_ir::passes::DebugTable;
use hgf_ir::Circuit;
use minidb::DbError;

use crate::SymbolTable;

/// Builds the relational symbol table from a lowered circuit and its
/// collected [`DebugTable`].
///
/// Breakpoint ids follow the precomputed absolute order of §3.2:
/// lexical source order first, then instance id for the concurrent
/// copies.
///
/// # Errors
///
/// Propagates database constraint violations (which would indicate a
/// compiler bug — the debug table must be consistent).
pub fn from_debug_table(circuit: &Circuit, table: &DebugTable) -> Result<SymbolTable, DbError> {
    let mut st = SymbolTable::new();

    // Instance tree: (path, module name), depth-first from the top.
    let mut instances: Vec<(String, String)> = Vec::new();
    fn walk(circuit: &Circuit, module: &str, path: String, out: &mut Vec<(String, String)>) {
        out.push((path.clone(), module.to_owned()));
        if let Some(m) = circuit.module(module) {
            for (inst, child) in m.instances() {
                walk(circuit, child, format!("{path}.{inst}"), out);
            }
        }
    }
    walk(circuit, &circuit.top, circuit.top.clone(), &mut instances);

    // An instance's id is its position in the walk.
    let mut of_module: HashMap<&str, Vec<(i64, &str)>> = HashMap::new();
    for (id, (path, module)) in instances.iter().enumerate() {
        st.add_instance(id as i64, path)?;
        of_module.entry(module).or_default().push((id as i64, path));
    }

    // Variables are deduplicated per full RTL name, ids in first-use
    // order.
    let mut variable_ids: HashMap<String, i64> = HashMap::new();
    let mut var_id = |st: &mut SymbolTable, rtl_full: String| -> Result<i64, DbError> {
        if let Some(&id) = variable_ids.get(&rtl_full) {
            return Ok(id);
        }
        let id = variable_ids.len() as i64;
        st.add_variable(id, &rtl_full)?;
        variable_ids.insert(rtl_full, id);
        Ok(id)
    };

    // Generator variables per instance.
    let mut gv_id: i64 = 0;
    for (iid, (path, module)) in instances.iter().enumerate() {
        for v in table.variables.iter().filter(|v| &v.module == module) {
            let vid = var_id(&mut st, format!("{path}.{}", v.rtl))?;
            st.add_generator_variable(gv_id, iid as i64, &v.name, vid)?;
            gv_id += 1;
        }
    }

    // Breakpoints: debug-table order (already lexically sorted) ×
    // instances of the defining module (instance-id order).
    let mut bp_id: i64 = 0;
    let mut sv_id: i64 = 0;
    for bp in &table.breakpoints {
        let enable = bp.enable.as_ref().map(|e| e.to_string());
        for &(iid, path) in of_module.get(bp.module.as_str()).into_iter().flatten() {
            st.add_breakpoint(
                bp_id,
                &bp.loc.file,
                bp.loc.line,
                bp.loc.col,
                enable.as_deref(),
                iid,
            )?;
            for (src_name, rtl_local) in &bp.scope {
                let vid = var_id(&mut st, format!("{path}.{rtl_local}"))?;
                st.add_scope_variable(sv_id, bp_id, src_name, vid)?;
                sv_id += 1;
            }
            bp_id += 1;
        }
    }

    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgf_ir::passes::{DebugVariable, SymBreakpoint};
    use hgf_ir::{Expr, Module, Port, PortDir, SourceLoc, Stmt, StmtId};

    fn loc(line: u32) -> SourceLoc {
        SourceLoc::new("gen.rs", line, 3)
    }

    /// Two instances of one module under top.
    fn twin_circuit() -> Circuit {
        let l = loc(1);
        let mut child = Module::new("acc", l.clone());
        child.ports = vec![
            Port {
                name: "x".into(),
                dir: PortDir::Input,
                width: 4,
                loc: l.clone(),
            },
            Port {
                name: "y".into(),
                dir: PortDir::Output,
                width: 4,
                loc: l.clone(),
            },
        ];
        child.stmts = vec![Stmt::Connect {
            id: StmtId(1),
            target: "y".into(),
            expr: Expr::var("x"),
            loc: l.clone(),
        }];
        let mut top = Module::new("top", l.clone());
        top.ports = vec![Port {
            name: "i".into(),
            dir: PortDir::Input,
            width: 4,
            loc: l.clone(),
        }];
        top.stmts = vec![
            Stmt::Instance {
                id: StmtId(2),
                name: "a0".into(),
                module: "acc".into(),
                loc: l.clone(),
            },
            Stmt::Instance {
                id: StmtId(3),
                name: "a1".into(),
                module: "acc".into(),
                loc: l.clone(),
            },
            Stmt::Connect {
                id: StmtId(4),
                target: "a0.x".into(),
                expr: Expr::var("i"),
                loc: l.clone(),
            },
            Stmt::Connect {
                id: StmtId(5),
                target: "a1.x".into(),
                expr: Expr::var("i"),
                loc: l,
            },
        ];
        Circuit::new("top", vec![top, child])
    }

    fn debug_table() -> DebugTable {
        DebugTable {
            breakpoints: vec![SymBreakpoint {
                module: "acc".into(),
                stmt: StmtId(1),
                loc: loc(7),
                enable: Some(Expr::var("_cond_0")),
                assigned: Some(("y".into(), "y".into())),
                scope: vec![("y".into(), "y".into())],
            }],
            variables: vec![DebugVariable {
                module: "acc".into(),
                name: "io.y".into(),
                rtl: "y".into(),
            }],
            dropped: 0,
        }
    }

    #[test]
    fn one_breakpoint_per_instance() {
        let st = from_debug_table(&twin_circuit(), &debug_table()).unwrap();
        let bps = st.breakpoints_at("gen.rs", Some(7), None).unwrap();
        // Module instantiated twice -> two concurrent breakpoints at
        // the same source line (the "threads" of Figure 4).
        assert_eq!(bps.len(), 2);
        let mut names: Vec<&str> = bps.iter().map(|b| b.instance_name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["top.a0", "top.a1"]);
        // Both carry the enable text.
        assert!(bps.iter().all(|b| b.enable.as_deref() == Some("_cond_0")));
    }

    #[test]
    fn scope_variables_are_instance_qualified() {
        let st = from_debug_table(&twin_circuit(), &debug_table()).unwrap();
        let bps = st.breakpoints_at("gen.rs", Some(7), None).unwrap();
        let scope0 = st.scope_of(bps[0].id).unwrap();
        let scope1 = st.scope_of(bps[1].id).unwrap();
        assert_eq!(scope0[0].0, "y");
        assert!(scope0[0].1 == "top.a0.y" || scope0[0].1 == "top.a1.y");
        assert_ne!(scope0[0].1, scope1[0].1, "distinct instances");
    }

    #[test]
    fn generator_variables_per_instance() {
        let st = from_debug_table(&twin_circuit(), &debug_table()).unwrap();
        let a0 = st.instance_by_name("top.a0").unwrap().unwrap();
        assert_eq!(
            st.resolve_instance_variable(a0, "io.y").unwrap().unwrap(),
            "top.a0.y"
        );
    }

    #[test]
    fn top_instance_registered() {
        let st = from_debug_table(&twin_circuit(), &debug_table()).unwrap();
        assert_eq!(st.instance_by_name("top").unwrap(), Some(0));
        assert_eq!(st.instances().unwrap().len(), 3);
    }
}
