//! The hgdb symbol table (§3.4, Figure 3).
//!
//! A relational store over [`minidb`] with the paper's schema:
//!
//! * `instance(id, name)` — hierarchical RTL instance paths
//! * `breakpoint(id, filename, line_num, col_num, enable, instance)`
//! * `variable(id, value)` — `value` is a full hierarchical RTL name
//! * `scope_variable(id, breakpoint, name, variable)`
//! * `generator_variable(id, instance, name, variable)`
//!
//! and the four query primitives hgdb requires:
//!
//! 1. breakpoints from a source location,
//! 2. scope information for each breakpoint,
//! 3. scoped variable name → RTL name,
//! 4. instance variable name → RTL name.
//!
//! Breakpoint ids are assigned in the precomputed absolute order of
//! §3.2 (file, line, column, then instance), so the scheduler can walk
//! ids directly.

mod build;
mod json;

pub use build::from_debug_table;
pub use json::{from_json, to_json, LoadError};

use minidb::{ColumnType, Database, DbError, Table, TableSchema, Value};

/// The `breakpoint` columns a [`BreakpointInfo`] is decoded from.
const BREAKPOINT_COLUMNS: [&str; 6] = [
    "id", "filename", "line_num", "col_num", "enable", "instance",
];

/// A breakpoint row joined with its instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakpointInfo {
    /// Breakpoint id (also its scheduling order).
    pub id: i64,
    /// Generator source file.
    pub filename: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Enable condition over instance-local signal names (§3.1), or
    /// `None` when unconditional.
    pub enable: Option<String>,
    /// Owning instance id.
    pub instance_id: i64,
    /// Owning instance's hierarchical path.
    pub instance_name: String,
}

/// The symbol table.
#[derive(Debug, Clone)]
pub struct SymbolTable {
    db: Database,
}

impl SymbolTable {
    /// Creates an empty symbol table with the Figure 3 schema.
    pub fn new() -> SymbolTable {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("instance")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("id")
                .index("name"),
        )
        .expect("static schema");
        db.create_table(
            TableSchema::new("variable")
                .column("id", ColumnType::Int)
                .column("value", ColumnType::Text)
                .primary_key("id"),
        )
        .expect("static schema");
        db.create_table(
            TableSchema::new("breakpoint")
                .column("id", ColumnType::Int)
                .column("filename", ColumnType::Text)
                .column("line_num", ColumnType::Int)
                .column("col_num", ColumnType::Int)
                .column("enable", ColumnType::Text)
                .nullable("enable")
                .column("instance", ColumnType::Int)
                .primary_key("id")
                .index("filename")
                .foreign_key("instance", "instance", "id"),
        )
        .expect("static schema");
        db.create_table(
            TableSchema::new("scope_variable")
                .column("id", ColumnType::Int)
                .column("breakpoint", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("variable", ColumnType::Int)
                .primary_key("id")
                .index("breakpoint")
                .foreign_key("breakpoint", "breakpoint", "id")
                .foreign_key("variable", "variable", "id"),
        )
        .expect("static schema");
        db.create_table(
            TableSchema::new("generator_variable")
                .column("id", ColumnType::Int)
                .column("instance", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("variable", ColumnType::Int)
                .primary_key("id")
                .index("instance")
                .foreign_key("instance", "instance", "id")
                .foreign_key("variable", "variable", "id"),
        )
        .expect("static schema");
        SymbolTable { db }
    }

    /// Direct access to the underlying database (read-oriented).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access for builders.
    pub(crate) fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Registers an instance; returns its id.
    ///
    /// # Errors
    ///
    /// Propagates constraint violations (duplicate ids).
    pub fn add_instance(&mut self, id: i64, name: &str) -> Result<i64, DbError> {
        self.db
            .insert("instance", vec![Value::Int(id), Value::text(name)])?;
        Ok(id)
    }

    /// Registers a variable (an RTL name); returns its id.
    ///
    /// # Errors
    ///
    /// Propagates constraint violations.
    pub fn add_variable(&mut self, id: i64, rtl_name: &str) -> Result<i64, DbError> {
        self.db
            .insert("variable", vec![Value::Int(id), Value::text(rtl_name)])?;
        Ok(id)
    }

    /// Registers a breakpoint.
    ///
    /// # Errors
    ///
    /// Propagates constraint violations (e.g. unknown instance).
    #[allow(clippy::too_many_arguments)]
    pub fn add_breakpoint(
        &mut self,
        id: i64,
        filename: &str,
        line: u32,
        col: u32,
        enable: Option<&str>,
        instance: i64,
    ) -> Result<i64, DbError> {
        self.db.insert(
            "breakpoint",
            vec![
                Value::Int(id),
                Value::text(filename),
                Value::Int(line as i64),
                Value::Int(col as i64),
                enable.map(Value::text).unwrap_or(Value::Null),
                Value::Int(instance),
            ],
        )?;
        Ok(id)
    }

    /// Registers a scope-variable binding for a breakpoint.
    ///
    /// # Errors
    ///
    /// Propagates constraint violations.
    pub fn add_scope_variable(
        &mut self,
        id: i64,
        breakpoint: i64,
        name: &str,
        variable: i64,
    ) -> Result<i64, DbError> {
        self.db.insert(
            "scope_variable",
            vec![
                Value::Int(id),
                Value::Int(breakpoint),
                Value::text(name),
                Value::Int(variable),
            ],
        )?;
        Ok(id)
    }

    /// Registers a generator-variable binding for an instance.
    ///
    /// # Errors
    ///
    /// Propagates constraint violations.
    pub fn add_generator_variable(
        &mut self,
        id: i64,
        instance: i64,
        name: &str,
        variable: i64,
    ) -> Result<i64, DbError> {
        self.db.insert(
            "generator_variable",
            vec![
                Value::Int(id),
                Value::Int(instance),
                Value::text(name),
                Value::Int(variable),
            ],
        )?;
        Ok(id)
    }

    /// Primitive 1 — breakpoints at a source location, in scheduling
    /// order. `col = None` matches any column on the line; `line =
    /// None` matches the whole file.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn breakpoints_at(
        &self,
        filename: &str,
        line: Option<u32>,
        col: Option<u32>,
    ) -> Result<Vec<BreakpointInfo>, DbError> {
        let (t, at) = self.scan("breakpoint", BREAKPOINT_COLUMNS)?;
        let [_, _, line_num, col_num, _, _] = at;
        let wanted =
            |v: &Value, want: Option<u32>| want.is_none_or(|w| v.as_int() == Some(w.into()));
        let rows = find(t, "filename", &Value::text(filename))?
            .filter(|row| wanted(&row[line_num], line) && wanted(&row[col_num], col));
        self.decode_breakpoints(rows, at)
    }

    /// All breakpoints in scheduling order (the precomputed "absolute
    /// ordering of every potential breakpoint", §3.2).
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn all_breakpoints(&self) -> Result<Vec<BreakpointInfo>, DbError> {
        let (t, at) = self.scan("breakpoint", BREAKPOINT_COLUMNS)?;
        self.decode_breakpoints(t.rows().iter().map(Vec::as_slice), at)
    }

    /// A single breakpoint by id.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn breakpoint(&self, id: i64) -> Result<Option<BreakpointInfo>, DbError> {
        let (t, at) = self.scan("breakpoint", BREAKPOINT_COLUMNS)?;
        Ok(self
            .decode_breakpoints(find(t, "id", &Value::Int(id))?, at)?
            .pop())
    }

    /// `breakpoint` rows (their [`BREAKPOINT_COLUMNS`] at `at`) joined
    /// with their instance through its primary key, sorted by id.
    fn decode_breakpoints<'a>(
        &self,
        rows: impl Iterator<Item = &'a [Value]>,
        [id, filename, line, col, enable, instance]: [usize; 6],
    ) -> Result<Vec<BreakpointInfo>, DbError> {
        let (instances, [name]) = self.scan("instance", ["name"])?;
        let mut out = Vec::new();
        for row in rows {
            let Some(instance_name) = find(instances, "id", &row[instance])?.next() else {
                continue;
            };
            out.push(BreakpointInfo {
                id: row[id].as_int().unwrap_or(0),
                filename: row[filename].as_str().unwrap_or_default().to_owned(),
                line: row[line].as_int().unwrap_or(0) as u32,
                col: row[col].as_int().unwrap_or(0) as u32,
                enable: row[enable].as_str().map(str::to_owned),
                instance_id: row[instance].as_int().unwrap_or(0),
                instance_name: instance_name[name].as_str().unwrap_or_default().to_owned(),
            });
        }
        out.sort_by_key(|b| b.id);
        Ok(out)
    }

    /// Primitive 2 — scope information for a breakpoint: source
    /// variable name → full hierarchical RTL name, sorted.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn scope_of(&self, breakpoint: i64) -> Result<Vec<(String, String)>, DbError> {
        self.bindings_of("scope_variable", "breakpoint", breakpoint)
    }

    /// Primitive 3 — resolve a scoped variable at a breakpoint to its
    /// full RTL name (the smallest, should two locals share a name).
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn resolve_scoped_variable(
        &self,
        breakpoint: i64,
        name: &str,
    ) -> Result<Option<String>, DbError> {
        Ok(self
            .scope_of(breakpoint)?
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, rtl)| rtl))
    }

    /// Primitive 4 — resolve an instance variable (generator variable)
    /// to its full RTL name: the first such binding in row order.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn resolve_instance_variable(
        &self,
        instance: i64,
        name: &str,
    ) -> Result<Option<String>, DbError> {
        let b = self.bindings("generator_variable", "instance")?;
        for row in find(b.table, "instance", &Value::Int(instance))? {
            if let Some((_, n, rtl)) = b.decode(row)? {
                if n == name {
                    return Ok(Some(rtl.to_owned()));
                }
            }
        }
        Ok(None)
    }

    /// All generator variables of an instance: name → full RTL name,
    /// sorted.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn instance_variables(&self, instance: i64) -> Result<Vec<(String, String)>, DbError> {
        self.bindings_of("generator_variable", "instance", instance)
    }

    /// Every scope-variable binding as `(breakpoint, source name, full
    /// RTL name)`, in row order: primitive 2 for all breakpoints at
    /// once, one scan where [`SymbolTable::scope_of`] looks up one
    /// breakpoint.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn all_scope_variables(&self) -> Result<Vec<(i64, String, String)>, DbError> {
        self.all_bindings("scope_variable", "breakpoint")
    }

    /// Every generator-variable binding as `(instance, name, full RTL
    /// name)`, in row order: [`SymbolTable::instance_variables`] for
    /// all instances at once, in one scan. The first row of an
    /// instance and name is the binding
    /// [`SymbolTable::resolve_instance_variable`] answers.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn all_generator_variables(&self) -> Result<Vec<(i64, String, String)>, DbError> {
        self.all_bindings("generator_variable", "instance")
    }

    /// Every row of a binding table as `(owner, name, full RTL name)`.
    fn all_bindings(
        &self,
        table: &str,
        owner_column: &str,
    ) -> Result<Vec<(i64, String, String)>, DbError> {
        let b = self.bindings(table, owner_column)?;
        let mut out = Vec::new();
        for row in b.table.rows() {
            if let Some((owner, name, rtl)) = b.decode(row)? {
                out.push((owner, name.to_owned(), rtl.to_owned()));
            }
        }
        Ok(out)
    }

    /// `(name, full RTL name)` of one owner's rows in a binding table,
    /// found through the owner column's index, sorted.
    fn bindings_of(
        &self,
        table: &str,
        owner_column: &str,
        owner: i64,
    ) -> Result<Vec<(String, String)>, DbError> {
        let b = self.bindings(table, owner_column)?;
        let mut out = Vec::new();
        for row in find(b.table, owner_column, &Value::Int(owner))? {
            if let Some((_, name, rtl)) = b.decode(row)? {
                out.push((name.to_owned(), rtl.to_owned()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// The binding `table`, its owner read from `owner_column`.
    fn bindings(&self, table: &str, owner_column: &str) -> Result<Bindings<'_>, DbError> {
        let (table, at) = self.scan(table, [owner_column, "name", "variable"])?;
        let (variables, [value]) = self.scan("variable", ["value"])?;
        Ok(Bindings {
            table,
            at,
            variables,
            value,
        })
    }

    /// A table and the positions of `columns` in its rows.
    fn scan<const N: usize>(
        &self,
        table: &str,
        columns: [&str; N],
    ) -> Result<(&Table, [usize; N]), DbError> {
        let t = self
            .db
            .table(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        let mut positions = [0; N];
        for (position, column) in positions.iter_mut().zip(columns) {
            *position = t
                .schema()
                .column_index(column)
                .ok_or_else(|| DbError::NoSuchColumn {
                    table: table.to_owned(),
                    column: column.to_owned(),
                })?;
        }
        Ok((t, positions))
    }

    /// All instances as `(id, hierarchical name)`, sorted by id.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn instances(&self) -> Result<Vec<(i64, String)>, DbError> {
        let (t, [id, name]) = self.scan("instance", ["id", "name"])?;
        let mut out: Vec<(i64, String)> = t
            .rows()
            .iter()
            .filter_map(|row| Some((row[id].as_int()?, row[name].as_str()?.to_owned())))
            .collect();
        out.sort();
        Ok(out)
    }

    /// Instance id by hierarchical name (the first such row).
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn instance_by_name(&self, name: &str) -> Result<Option<i64>, DbError> {
        let (t, [id]) = self.scan("instance", ["id"])?;
        Ok(find(t, "name", &Value::text(name))?
            .next()
            .and_then(|row| row[id].as_int()))
    }

    /// Every distinct RTL path in the variable table, sorted. The
    /// lint battery's live coverage check (L007) resolves each of
    /// these against the running simulator.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn variable_paths(&self) -> Result<Vec<String>, DbError> {
        self.distinct("variable", "value")
    }

    /// Distinct filenames with breakpoints.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn files(&self) -> Result<Vec<String>, DbError> {
        self.distinct("breakpoint", "filename")
    }

    /// The distinct text values of one column, sorted.
    fn distinct(&self, table: &str, column: &str) -> Result<Vec<String>, DbError> {
        let (t, [at]) = self.scan(table, [column])?;
        let mut out: Vec<String> = t
            .rows()
            .iter()
            .filter_map(|row| row[at].as_str().map(str::to_owned))
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Approximate size in bytes (the §4.1 "30% larger in debug mode"
    /// measurement).
    pub fn size_in_bytes(&self) -> usize {
        self.db.size_in_bytes()
    }

    /// Total rows across all tables.
    pub fn row_count(&self) -> usize {
        self.db.row_count()
    }
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable::new()
    }
}

/// The rows of `t` where `column == key`, in insertion order: a
/// lookup through `t`'s primary key or a declared index.
fn find<'t>(
    t: &'t Table,
    column: &str,
    key: &Value,
) -> Result<impl Iterator<Item = &'t [Value]>, DbError> {
    let ids = t.find_rows(column, key)?;
    Ok((0..ids.len()).map(move |i| t.rows()[ids[i]].as_slice()))
}

/// A binding table (`scope_variable` or `generator_variable`) whose
/// rows are read with their RTL names.
struct Bindings<'a> {
    table: &'a Table,
    /// Positions of the owner, `name` and `variable` columns.
    at: [usize; 3],
    variables: &'a Table,
    /// Position of `variable.value`.
    value: usize,
}

impl<'a> Bindings<'a> {
    /// `(owner, name, full RTL name)` of one row, the RTL name read
    /// through the `variable` primary key.
    fn decode(&self, row: &'a [Value]) -> Result<Option<(i64, &'a str, &'a str)>, DbError> {
        let [owner, name, variable] = self.at;
        let rtl = find(self.variables, "id", &row[variable])?
            .next()
            .and_then(|v| v[self.value].as_str());
        Ok(match (row[owner].as_int(), row[name].as_str(), rtl) {
            (Some(owner), Some(name), Some(rtl)) => Some((owner, name, rtl)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SymbolTable {
        let mut st = SymbolTable::new();
        st.add_instance(0, "top").unwrap();
        st.add_instance(1, "top.u0").unwrap();
        st.add_variable(0, "top.u0.sum_0").unwrap();
        st.add_variable(1, "top.u0.sum_1").unwrap();
        st.add_variable(2, "top.u0.io.out").unwrap();
        st.add_breakpoint(0, "acc.rs", 4, 9, Some("_cond_0"), 1)
            .unwrap();
        st.add_breakpoint(1, "acc.rs", 4, 9, Some("_cond_1"), 1)
            .unwrap();
        st.add_breakpoint(2, "acc.rs", 6, 5, None, 1).unwrap();
        st.add_scope_variable(0, 0, "sum", 0).unwrap();
        st.add_scope_variable(1, 1, "sum", 1).unwrap();
        st.add_generator_variable(0, 1, "io.out", 2).unwrap();
        st
    }

    #[test]
    fn breakpoints_from_source_location() {
        let st = sample();
        let bps = st.breakpoints_at("acc.rs", Some(4), None).unwrap();
        assert_eq!(bps.len(), 2);
        assert_eq!(bps[0].id, 0);
        assert_eq!(bps[0].enable.as_deref(), Some("_cond_0"));
        assert_eq!(bps[0].instance_name, "top.u0");
        let all_line = st.breakpoints_at("acc.rs", None, None).unwrap();
        assert_eq!(all_line.len(), 3);
        assert!(st
            .breakpoints_at("other.rs", Some(4), None)
            .unwrap()
            .is_empty());
        let with_col = st.breakpoints_at("acc.rs", Some(4), Some(9)).unwrap();
        assert_eq!(with_col.len(), 2);
        assert!(st
            .breakpoints_at("acc.rs", Some(4), Some(1))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scope_reconstruction() {
        let st = sample();
        // At the first breakpoint, `sum` maps to sum_0; at the second,
        // sum_1 — the paper's Listing 2 mapping.
        assert_eq!(
            st.resolve_scoped_variable(0, "sum").unwrap().unwrap(),
            "top.u0.sum_0"
        );
        assert_eq!(
            st.resolve_scoped_variable(1, "sum").unwrap().unwrap(),
            "top.u0.sum_1"
        );
        assert!(st.resolve_scoped_variable(0, "ghost").unwrap().is_none());
        assert_eq!(st.scope_of(2).unwrap(), vec![]);
    }

    #[test]
    fn instance_variable_resolution() {
        let st = sample();
        assert_eq!(
            st.resolve_instance_variable(1, "io.out").unwrap().unwrap(),
            "top.u0.io.out"
        );
        assert!(st.resolve_instance_variable(0, "io.out").unwrap().is_none());
        let vars = st.instance_variables(1).unwrap();
        assert_eq!(
            vars,
            vec![("io.out".to_owned(), "top.u0.io.out".to_owned())]
        );
    }

    #[test]
    fn bulk_reads_agree_with_per_key_queries() {
        let st = sample();
        let all = st.all_breakpoints().unwrap();
        assert_eq!(all.len(), 3);
        for bp in &all {
            assert_eq!(st.breakpoint(bp.id).unwrap().as_ref(), Some(bp));
        }
        assert_eq!(all, st.breakpoints_at("acc.rs", None, None).unwrap());
        let scopes = st.all_scope_variables().unwrap();
        assert_eq!(scopes.len(), 2);
        for bp in st.all_breakpoints().unwrap() {
            let mut from_bulk: Vec<(String, String)> = scopes
                .iter()
                .filter(|(b, _, _)| *b == bp.id)
                .map(|(_, name, rtl)| (name.clone(), rtl.clone()))
                .collect();
            from_bulk.sort();
            assert_eq!(
                from_bulk,
                st.scope_of(bp.id).unwrap(),
                "breakpoint {}",
                bp.id
            );
        }
        assert_eq!(
            st.all_generator_variables().unwrap(),
            vec![(1, "io.out".to_owned(), "top.u0.io.out".to_owned())]
        );
    }

    #[test]
    fn instances_and_files() {
        let st = sample();
        assert_eq!(
            st.instances().unwrap(),
            vec![(0, "top".to_owned()), (1, "top.u0".to_owned())]
        );
        assert_eq!(st.instance_by_name("top.u0").unwrap(), Some(1));
        assert_eq!(st.instance_by_name("nope").unwrap(), None);
        assert_eq!(st.files().unwrap(), vec!["acc.rs".to_owned()]);
    }

    #[test]
    fn referential_integrity_enforced() {
        let mut st = SymbolTable::new();
        // Breakpoint referencing a missing instance is rejected.
        assert!(st.add_breakpoint(0, "f.rs", 1, 1, None, 42).is_err());
        st.add_instance(0, "top").unwrap();
        st.add_breakpoint(0, "f.rs", 1, 1, None, 0).unwrap();
        // Scope var referencing missing variable rejected.
        assert!(st.add_scope_variable(0, 0, "x", 7).is_err());
    }

    #[test]
    fn size_accounting() {
        let st = sample();
        assert!(st.size_in_bytes() > 0);
        // 2 instances + 3 variables + 3 breakpoints + 2 scope vars +
        // 1 generator var.
        assert_eq!(st.row_count(), 11);
    }

    #[test]
    fn breakpoint_by_id() {
        let st = sample();
        let bp = st.breakpoint(2).unwrap().unwrap();
        assert_eq!(bp.line, 6);
        assert!(bp.enable.is_none());
        assert!(st.breakpoint(99).unwrap().is_none());
    }
}
