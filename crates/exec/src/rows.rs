//! Materialized row sets flowing between (non-pipelined) operators.

use snowprune_storage::Schema;
use snowprune_types::Value;

/// A materialized intermediate result.
#[derive(Clone, Debug, PartialEq)]
pub struct RowSet {
    /// Column layout of the rows.
    pub schema: Schema,
    /// The rows, each `schema.len()` values wide.
    pub rows: Vec<Vec<Value>>,
}

impl RowSet {
    /// A row set with no rows.
    pub fn empty(schema: Schema) -> Self {
        RowSet {
            schema,
            rows: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the set holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column values by name.
    pub fn column(&self, name: &str) -> snowprune_types::Result<Vec<Value>> {
        let idx = self.schema.index_of(name)?;
        Ok(self.rows.iter().map(|r| r[idx].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowprune_storage::Field;
    use snowprune_types::ScalarType;

    #[test]
    fn column_extraction_and_sorting() {
        let schema = Schema::new(vec![Field::new("x", ScalarType::Int)]);
        let rs = RowSet {
            schema,
            rows: vec![
                vec![Value::Int(3)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        };
        assert_eq!(
            rs.column("x").unwrap(),
            vec![Value::Int(3), Value::Int(1), Value::Int(2)]
        );
        assert!(rs.column("missing").is_err());
    }
}
