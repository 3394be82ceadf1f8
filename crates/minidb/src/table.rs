//! Table storage: append-only rows plus primary/secondary hash indices.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::schema::TableSchema;
use crate::{DbError, Value};

/// A single table: schema, rows in insertion order, and indices.
///
/// A row's id is its position in [`Table::rows`]; rows are never
/// removed, so ids stay stable for the indices.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Vec<Value>>,
    /// Primary-key value -> row id.
    pk_index: Option<HashMap<Value, usize>>,
    /// Declared index's column -> (value -> row ids, ascending).
    sec_indices: HashMap<usize, HashMap<Value, Vec<usize>>>,
}

impl Table {
    /// Creates an empty table after validating the schema.
    pub(crate) fn new(schema: TableSchema) -> Result<Table, DbError> {
        schema.validate()?;
        let pk_index = schema.primary_key_index().map(|_| HashMap::new());
        let mut sec_indices = HashMap::new();
        for name in schema.declared_indices() {
            let col = schema.column_index(name).expect("validated");
            sec_indices.insert(col, HashMap::new());
        }
        Ok(Table {
            schema,
            rows: Vec::new(),
            pk_index,
            sec_indices,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows in insertion order, values in schema column order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Checks arity, types and nullability for a prospective row.
    pub(crate) fn validate_row(&self, values: &[Value]) -> Result<(), DbError> {
        let cols = self.schema.columns();
        if values.len() != cols.len() {
            return Err(DbError::ArityMismatch {
                table: self.schema.name().to_owned(),
                expected: cols.len(),
                got: values.len(),
            });
        }
        for (v, c) in values.iter().zip(cols) {
            if v.is_null() {
                if !c.nullable {
                    return Err(DbError::NullViolation {
                        table: self.schema.name().to_owned(),
                        column: c.name.clone(),
                    });
                }
            } else if !v.type_matches(c.ty) {
                return Err(DbError::TypeMismatch {
                    table: self.schema.name().to_owned(),
                    column: c.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Appends a row whose shape and foreign keys the caller has
    /// checked (`Database::insert` does both).
    ///
    /// Fails, changing nothing, on a duplicate primary key.
    pub(crate) fn insert_unchecked(&mut self, values: Vec<Value>) -> Result<(), DbError> {
        let id = self.rows.len();
        if let (Some(pk_col), Some(index)) =
            (self.schema.primary_key_index(), self.pk_index.as_mut())
        {
            match index.entry(values[pk_col].clone()) {
                Entry::Occupied(_) => {
                    return Err(DbError::PrimaryKeyViolation {
                        table: self.schema.name().to_owned(),
                        key: values[pk_col].to_string(),
                    })
                }
                Entry::Vacant(slot) => {
                    slot.insert(id);
                }
            }
        }
        for (&col, index) in &mut self.sec_indices {
            index.entry(values[col].clone()).or_default().push(id);
        }
        self.rows.push(values);
        Ok(())
    }

    /// Ids of the rows where `column == value`, ascending (insertion
    /// order). Through the primary key or a declared index the ids are
    /// borrowed from the index; any other column is scanned.
    ///
    /// # Errors
    ///
    /// Fails if the table has no such column.
    pub fn find_rows(&self, column: &str, value: &Value) -> Result<Cow<'_, [usize]>, DbError> {
        let col = self
            .schema
            .column_index(column)
            .ok_or_else(|| DbError::NoSuchColumn {
                table: self.schema.name().to_owned(),
                column: column.to_owned(),
            })?;
        if Some(col) == self.schema.primary_key_index() {
            if let Some(index) = &self.pk_index {
                return Ok(Cow::Borrowed(
                    index.get(value).map_or(&[], std::slice::from_ref),
                ));
            }
        }
        if let Some(index) = self.sec_indices.get(&col) {
            return Ok(Cow::Borrowed(index.get(value).map_or(&[], Vec::as_slice)));
        }
        Ok(Cow::Owned(
            self.rows
                .iter()
                .enumerate()
                .filter(|(_, row)| &row[col] == value)
                .map(|(i, _)| i)
                .collect(),
        ))
    }

    /// Approximate footprint in bytes.
    pub fn size_in_bytes(&self) -> usize {
        let mut total = self.schema.name().len();
        for c in self.schema.columns() {
            total += c.name.len() + 2;
        }
        for row in &self.rows {
            for v in row {
                total += match v {
                    Value::Null => 1,
                    Value::Int(_) => 8,
                    Value::Text(s) => s.len() + 1,
                };
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnType;

    fn table() -> Table {
        Table::new(
            TableSchema::new("t")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("id")
                .index("name"),
        )
        .unwrap()
    }

    #[test]
    fn insert_and_find_by_pk() {
        let mut t = table();
        t.insert_unchecked(vec![Value::Int(7), Value::text("a")])
            .unwrap();
        assert_eq!(t.find_rows("id", &Value::Int(7)).unwrap(), vec![0]);
        assert!(t.find_rows("id", &Value::Int(8)).unwrap().is_empty());
    }

    #[test]
    fn find_by_secondary_index() {
        let mut t = table();
        t.insert_unchecked(vec![Value::Int(1), Value::text("x")])
            .unwrap();
        t.insert_unchecked(vec![Value::Int(2), Value::text("x")])
            .unwrap();
        t.insert_unchecked(vec![Value::Int(3), Value::text("y")])
            .unwrap();
        assert_eq!(t.find_rows("name", &Value::text("x")).unwrap().len(), 2);
    }

    #[test]
    fn unindexed_scan_works() {
        let mut t = Table::new(
            TableSchema::new("t")
                .column("a", ColumnType::Int)
                .column("b", ColumnType::Int),
        )
        .unwrap();
        t.insert_unchecked(vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        t.insert_unchecked(vec![Value::Int(2), Value::Int(10)])
            .unwrap();
        assert_eq!(t.find_rows("b", &Value::Int(10)).unwrap().len(), 2);
    }
}
