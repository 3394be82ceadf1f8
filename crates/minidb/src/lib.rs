//! A tiny embedded relational store.
//!
//! The hgdb paper stores its symbol table in SQLite (§3.4, Fig. 3) and
//! leans on relational integrity ("arrows in the figure illustrate
//! relations, which can be used to improve search performance and
//! guarantee data integrity"). SQLite is outside this project's allowed
//! dependency set, so `minidb` provides the features the symbol table
//! actually uses:
//!
//! * typed columns (integer / text, optional nullability)
//! * primary-key uniqueness with a hash index
//! * secondary hash indices declared per column
//! * foreign-key enforcement on insert
//! * one equality lookup, [`Table::find_rows`], through the primary
//!   key or a declared index (other columns are scanned)
//!
//! Rows are append-only and kept in insertion order; readers scan
//! [`Table::rows`] or look rows up by key.
//!
//! # Examples
//!
//! ```
//! use minidb::{Database, TableSchema, ColumnType, Value};
//!
//! let mut db = Database::new();
//! db.create_table(
//!     TableSchema::new("instance")
//!         .column("id", ColumnType::Int)
//!         .column("name", ColumnType::Text)
//!         .primary_key("id")
//!         .index("name"),
//! )?;
//! db.insert("instance", vec![Value::Int(1), Value::text("top.fpu")])?;
//! let instances = db.table("instance").unwrap();
//! let found = instances.find_rows("name", &Value::text("top.fpu"))?;
//! assert_eq!(instances.rows()[found[0]][0], Value::Int(1));
//! # Ok::<(), minidb::DbError>(())
//! ```

mod schema;
mod table;

pub use schema::{Column, ColumnType, ForeignKey, TableSchema};
pub use table::Table;

use std::collections::BTreeMap;
use std::fmt;

/// A cell value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Text.
    Text(String),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// The integer content, if an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The text content, if text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub(crate) fn type_matches(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Int(_), ColumnType::Int) | (Value::Text(_), ColumnType::Text)
        )
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Text(s)
    }
}

/// Errors produced by database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Table does not exist.
    NoSuchTable(String),
    /// Table already exists.
    DuplicateTable(String),
    /// Column does not exist in the table.
    NoSuchColumn {
        /// Table that was queried.
        table: String,
        /// Missing column name.
        column: String,
    },
    /// Row arity does not match the schema.
    ArityMismatch {
        /// Table that was inserted into.
        table: String,
        /// Schema column count.
        expected: usize,
        /// Provided value count.
        got: usize,
    },
    /// A value's type does not match its column.
    TypeMismatch {
        /// Table that was inserted into.
        table: String,
        /// Offending column.
        column: String,
    },
    /// NULL in a non-nullable column.
    NullViolation {
        /// Table that was inserted into.
        table: String,
        /// Offending column.
        column: String,
    },
    /// Duplicate primary key.
    PrimaryKeyViolation {
        /// Table that was inserted into.
        table: String,
        /// Rendered key value.
        key: String,
    },
    /// Foreign-key target missing.
    ForeignKeyViolation {
        /// Table on which the violation was detected.
        table: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::DuplicateTable(t) => write!(f, "table already exists: {t}"),
            DbError::NoSuchColumn { table, column } => {
                write!(f, "no such column {column} in table {table}")
            }
            DbError::ArityMismatch {
                table,
                expected,
                got,
            } => {
                write!(f, "table {table} expects {expected} values, got {got}")
            }
            DbError::TypeMismatch { table, column } => {
                write!(f, "type mismatch for {table}.{column}")
            }
            DbError::NullViolation { table, column } => {
                write!(f, "null value in non-nullable column {table}.{column}")
            }
            DbError::PrimaryKeyViolation { table, key } => {
                write!(f, "duplicate primary key {key} in table {table}")
            }
            DbError::ForeignKeyViolation { table, detail } => {
                write!(f, "foreign key violation on table {table}: {detail}")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// An in-memory relational database: a set of named tables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table from a schema.
    ///
    /// # Errors
    ///
    /// Fails if a table with the same name exists, or the schema's
    /// primary key / foreign keys / indices reference unknown columns.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), DbError> {
        if self.tables.contains_key(schema.name()) {
            return Err(DbError::DuplicateTable(schema.name().to_owned()));
        }
        let table = Table::new(schema)?;
        self.tables.insert(table.schema().name().to_owned(), table);
        Ok(())
    }

    /// The table named `name`.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Inserts a row (values in schema column order).
    ///
    /// # Errors
    ///
    /// Fails on arity/type/nullability violations, duplicate primary
    /// keys, or foreign keys referencing missing rows.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<(), DbError> {
        // Validate foreign keys against the *current* state of the
        // referenced tables before mutating anything.
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| DbError::NoSuchTable(table.to_owned()))?;
        t.validate_row(&values)?;
        for fk in t.schema().foreign_keys() {
            let v = &values[fk.column];
            if v.is_null() {
                continue;
            }
            let target = self
                .tables
                .get(fk.ref_table)
                .ok_or_else(|| DbError::NoSuchTable(fk.ref_table.to_owned()))?;
            if target.find_rows(fk.ref_column, v)?.is_empty() {
                return Err(DbError::ForeignKeyViolation {
                    table: table.to_owned(),
                    detail: format!(
                        "value {v} not present in {}.{}",
                        fk.ref_table, fk.ref_column
                    ),
                });
            }
        }
        self.tables
            .get_mut(table)
            .expect("checked above")
            .insert_unchecked(values)
    }

    /// Total number of rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Approximate storage footprint in bytes (schema + rows).
    /// Used by the symbol-table size experiment (§4.1's 30% claim).
    pub fn size_in_bytes(&self) -> usize {
        self.tables.values().map(Table::size_in_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("instance")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("breakpoint")
                .column("id", ColumnType::Int)
                .column("filename", ColumnType::Text)
                .column("line_num", ColumnType::Int)
                .column("instance", ColumnType::Int)
                .primary_key("id")
                .index("filename")
                .foreign_key("instance", "instance", "id"),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let mut db = sample_db();
        db.insert("instance", vec![Value::Int(1), Value::text("top")])
            .unwrap();
        assert_eq!(db.table("instance").unwrap().len(), 1);
        assert_eq!(db.row_count(), 1);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = sample_db();
        let err = db
            .create_table(TableSchema::new("instance").column("id", ColumnType::Int))
            .unwrap_err();
        assert_eq!(err, DbError::DuplicateTable("instance".into()));
    }

    #[test]
    fn arity_and_type_checked() {
        let mut db = sample_db();
        assert!(matches!(
            db.insert("instance", vec![Value::Int(1)]).unwrap_err(),
            DbError::ArityMismatch { .. }
        ));
        assert!(matches!(
            db.insert("instance", vec![Value::text("x"), Value::text("y")])
                .unwrap_err(),
            DbError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn primary_key_enforced() {
        let mut db = sample_db();
        db.insert("instance", vec![Value::Int(1), Value::text("a")])
            .unwrap();
        let err = db
            .insert("instance", vec![Value::Int(1), Value::text("b")])
            .unwrap_err();
        assert!(matches!(err, DbError::PrimaryKeyViolation { .. }));
    }

    #[test]
    fn foreign_key_on_insert() {
        let mut db = sample_db();
        let err = db
            .insert(
                "breakpoint",
                vec![
                    Value::Int(1),
                    Value::text("alu.rs"),
                    Value::Int(10),
                    Value::Int(99),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::ForeignKeyViolation { .. }));
        db.insert("instance", vec![Value::Int(99), Value::text("top")])
            .unwrap();
        db.insert(
            "breakpoint",
            vec![
                Value::Int(1),
                Value::text("alu.rs"),
                Value::Int(10),
                Value::Int(99),
            ],
        )
        .unwrap();
    }

    #[test]
    fn null_fk_allowed() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new("a")
                .column("id", ColumnType::Int)
                .primary_key("id"),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("b")
                .column("id", ColumnType::Int)
                .column("a_id", ColumnType::Int)
                .nullable("a_id")
                .primary_key("id")
                .foreign_key("a_id", "a", "id"),
        )
        .unwrap();
        db.insert("b", vec![Value::Int(1), Value::Null]).unwrap();
    }

    #[test]
    fn size_in_bytes_grows() {
        let mut db = sample_db();
        let empty = db.size_in_bytes();
        db.insert("instance", vec![Value::Int(1), Value::text("topmodule")])
            .unwrap();
        assert!(db.size_in_bytes() > empty);
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::text("x").to_string(), "x");
    }
}
