//! JSON (de)serialization of the symbol table.
//!
//! The paper's symbol table is queried "either through RPC or ABI
//! implemented via a native SQLite database" (§3.4). The JSON form is
//! our interchange format: generators can emit it to disk, debuggers
//! can ship it over the RPC protocol.

use microjson::{parse, Json, JsonError};
use minidb::Value;

use crate::SymbolTable;

/// Serializes the symbol table to a JSON document.
pub fn to_json(st: &SymbolTable) -> Json {
    let dump_table = |name: &str| -> Json {
        let table = st.db().table(name).expect("schema table");
        Json::array(table.rows().iter().map(|row| {
            Json::array(row.iter().map(|v| match v {
                Value::Null => Json::Null,
                Value::Int(i) => Json::Int(*i),
                Value::Text(s) => Json::Str(s.clone()),
            }))
        }))
    };
    Json::object([
        ("format", Json::from("hgdb-symbol-table")),
        ("version", Json::from(1i64)),
        ("instance", dump_table("instance")),
        ("variable", dump_table("variable")),
        ("breakpoint", dump_table("breakpoint")),
        ("scope_variable", dump_table("scope_variable")),
        ("generator_variable", dump_table("generator_variable")),
    ])
}

/// Error from deserializing a symbol table.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// Malformed JSON text.
    Json(JsonError),
    /// Structurally valid JSON with wrong content.
    Shape(String),
    /// The rows violate the schema's constraints.
    Constraint(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Json(e) => write!(f, "symbol table json: {e}"),
            LoadError::Shape(msg) => write!(f, "symbol table shape: {msg}"),
            LoadError::Constraint(msg) => write!(f, "symbol table constraints: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<JsonError> for LoadError {
    fn from(e: JsonError) -> Self {
        LoadError::Json(e)
    }
}

/// Deserializes a symbol table from JSON text, re-checking all
/// relational constraints.
///
/// # Errors
///
/// Returns [`LoadError`] on malformed input or constraint violations.
pub fn from_json(text: &str) -> Result<SymbolTable, LoadError> {
    let doc = parse(text)?;
    if doc["format"].as_str() != Some("hgdb-symbol-table") {
        return Err(LoadError::Shape("missing format marker".into()));
    }
    if doc["version"].as_i64() != Some(1) {
        return Err(LoadError::Shape(format!(
            "unsupported version {}",
            doc["version"]
        )));
    }
    let mut st = SymbolTable::new();
    // Insertion order respects foreign keys.
    for table in [
        "instance",
        "variable",
        "breakpoint",
        "scope_variable",
        "generator_variable",
    ] {
        let rows = doc[table]
            .as_array()
            .ok_or_else(|| LoadError::Shape(format!("missing table {table}")))?;
        for row in rows {
            let cells = row
                .as_array()
                .ok_or_else(|| LoadError::Shape(format!("{table} row not an array")))?;
            let values: Vec<Value> = cells
                .iter()
                .map(|c| match c {
                    Json::Null => Ok(Value::Null),
                    Json::Int(i) => Ok(Value::Int(*i)),
                    Json::Str(s) => Ok(Value::text(s.clone())),
                    other => Err(LoadError::Shape(format!(
                        "{table} cell has unsupported type: {other:?}"
                    ))),
                })
                .collect::<Result<_, _>>()?;
            st.db_mut()
                .insert(table, values)
                .map_err(|e| LoadError::Constraint(e.to_string()))?;
        }
    }
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SymbolTable {
        let mut st = SymbolTable::new();
        st.add_instance(0, "top").unwrap();
        st.add_variable(0, "top.sum_0").unwrap();
        st.add_breakpoint(0, "acc.rs", 4, 9, Some("(a & b)"), 0)
            .unwrap();
        st.add_breakpoint(1, "acc.rs", 6, 1, None, 0).unwrap();
        st.add_scope_variable(0, 0, "sum", 0).unwrap();
        st.add_generator_variable(0, 0, "io.sum", 0).unwrap();
        st
    }

    #[test]
    fn round_trip() {
        let st = sample();
        let text = to_json(&st).to_string();
        let back = from_json(&text).unwrap();
        assert_eq!(back.row_count(), st.row_count());
        let bps = back.breakpoints_at("acc.rs", Some(4), None).unwrap();
        assert_eq!(bps.len(), 1);
        assert_eq!(bps[0].enable.as_deref(), Some("(a & b)"));
        assert_eq!(
            back.resolve_scoped_variable(0, "sum").unwrap().unwrap(),
            "top.sum_0"
        );
        // Null enable survives.
        assert!(back.breakpoint(1).unwrap().unwrap().enable.is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_json("not json").is_err());
        assert!(from_json("{}").is_err());
        assert!(from_json(r#"{"format":"other"}"#).is_err());
        // Valid marker, another version (or none).
        for version in [r#","version":2"#, r#","version":"1""#, ""] {
            let doc = format!(
                r#"{{"format":"hgdb-symbol-table"{version},
                "instance":[], "variable":[], "breakpoint":[],
                "scope_variable":[], "generator_variable":[]}}"#
            );
            assert!(
                matches!(from_json(&doc), Err(LoadError::Shape(_))),
                "{version}"
            );
        }
        // Valid marker, bad rows (FK violation: breakpoint without
        // instance).
        let bad = r#"{"format":"hgdb-symbol-table","version":1,
            "instance":[], "variable":[],
            "breakpoint":[[0,"f.rs",1,1,null,5]],
            "scope_variable":[], "generator_variable":[]}"#;
        assert!(matches!(from_json(bad), Err(LoadError::Constraint(_))));
    }

    #[test]
    fn deterministic_output() {
        let st = sample();
        assert_eq!(to_json(&st).to_string(), to_json(&st).to_string());
    }
}
