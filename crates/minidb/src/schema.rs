//! Table schema definitions: columns, primary key, indices, foreign keys.

use crate::DbError;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// Text.
    Text,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within the table.
    pub name: String,
    /// Value type.
    pub ty: ColumnType,
    /// Whether NULL values are allowed.
    pub nullable: bool,
}

/// A foreign-key constraint: `column` must contain a value present in
/// `ref_table.ref_column` (or NULL if the column is nullable). Borrows
/// the names from its [`TableSchema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey<'a> {
    /// Index of the referencing column in this table.
    pub column: usize,
    /// Referenced table name.
    pub ref_table: &'a str,
    /// Referenced column name.
    pub ref_column: &'a str,
}

/// A table schema, built with a fluent API.
///
/// # Examples
///
/// ```
/// use minidb::{TableSchema, ColumnType};
///
/// let schema = TableSchema::new("scope_variable")
///     .column("id", ColumnType::Int)
///     .column("breakpoint", ColumnType::Int)
///     .column("name", ColumnType::Text)
///     .primary_key("id")
///     .index("breakpoint")
///     .foreign_key("breakpoint", "breakpoint", "id");
/// assert_eq!(schema.columns().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    name: String,
    columns: Vec<Column>,
    primary_key: Option<String>,
    indices: Vec<String>,
    foreign_keys: Vec<(String, String, String)>,
    nullable: Vec<String>,
}

impl TableSchema {
    /// Starts a schema for a table named `name`.
    pub fn new(name: impl Into<String>) -> TableSchema {
        TableSchema {
            name: name.into(),
            columns: Vec::new(),
            primary_key: None,
            indices: Vec::new(),
            foreign_keys: Vec::new(),
            nullable: Vec::new(),
        }
    }

    /// Appends a (non-nullable) column.
    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> TableSchema {
        self.columns.push(Column {
            name: name.into(),
            ty,
            nullable: false,
        });
        self
    }

    /// Marks a previously added column as nullable.
    pub fn nullable(mut self, name: impl Into<String>) -> TableSchema {
        let name = name.into();
        if let Some(i) = self.column_index(&name) {
            self.columns[i].nullable = true;
        }
        // Also recorded so validate() can flag unknown names.
        self.nullable.push(name);
        self
    }

    /// Declares the primary-key column (must already exist).
    pub fn primary_key(mut self, name: impl Into<String>) -> TableSchema {
        self.primary_key = Some(name.into());
        self
    }

    /// Adds a secondary equality index on a column.
    pub fn index(mut self, name: impl Into<String>) -> TableSchema {
        self.indices.push(name.into());
        self
    }

    /// Adds a foreign key `column -> ref_table.ref_column`.
    pub fn foreign_key(
        mut self,
        column: impl Into<String>,
        ref_table: impl Into<String>,
        ref_column: impl Into<String>,
    ) -> TableSchema {
        self.foreign_keys
            .push((column.into(), ref_table.into(), ref_column.into()));
        self
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The column definitions in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The index of the named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The primary-key column index, if declared.
    pub fn primary_key_index(&self) -> Option<usize> {
        self.primary_key
            .as_deref()
            .and_then(|n| self.column_index(n))
    }

    /// Column names with declared secondary indices.
    pub fn declared_indices(&self) -> &[String] {
        &self.indices
    }

    /// Resolved foreign keys, borrowed from the schema; only valid
    /// after `Table::new` validation.
    pub fn foreign_keys(&self) -> impl Iterator<Item = ForeignKey<'_>> {
        self.foreign_keys.iter().filter_map(|(col, rt, rc)| {
            self.column_index(col).map(|i| ForeignKey {
                column: i,
                ref_table: rt,
                ref_column: rc,
            })
        })
    }

    /// Validates internal consistency: all referenced columns exist and
    /// column names are unique.
    pub(crate) fn validate(&self) -> Result<(), DbError> {
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|o| o.name == c.name) {
                return Err(DbError::DuplicateTable(format!(
                    "{}.{} declared twice",
                    self.name, c.name
                )));
            }
        }
        let check = |col: &str| -> Result<(), DbError> {
            self.column_index(col)
                .map(|_| ())
                .ok_or_else(|| DbError::NoSuchColumn {
                    table: self.name.clone(),
                    column: col.to_owned(),
                })
        };
        if let Some(pk) = &self.primary_key {
            check(pk)?;
        }
        for idx in &self.indices {
            check(idx)?;
        }
        for n in &self.nullable {
            check(n)?;
        }
        for (col, _, _) in &self.foreign_keys {
            check(col)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let s = TableSchema::new("t")
            .column("id", ColumnType::Int)
            .column("x", ColumnType::Text)
            .primary_key("id")
            .index("x");
        assert_eq!(s.name(), "t");
        assert_eq!(s.columns().len(), 2);
        assert_eq!(s.primary_key_index(), Some(0));
        assert_eq!(s.column_index("x"), Some(1));
        assert_eq!(s.column_index("nope"), None);
    }

    #[test]
    fn validate_rejects_unknown_pk() {
        let s = TableSchema::new("t")
            .column("id", ColumnType::Int)
            .primary_key("nope");
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_columns() {
        let s = TableSchema::new("t")
            .column("id", ColumnType::Int)
            .column("id", ColumnType::Text);
        assert!(s.validate().is_err());
    }

    #[test]
    fn foreign_keys_resolve_indices() {
        let s = TableSchema::new("t")
            .column("id", ColumnType::Int)
            .column("parent", ColumnType::Int)
            .foreign_key("parent", "t", "id");
        let fks: Vec<ForeignKey<'_>> = s.foreign_keys().collect();
        assert_eq!(fks.len(), 1);
        assert_eq!(fks[0].column, 1);
        assert_eq!(fks[0].ref_table, "t");
    }
}
