//! Table schemas.

use snowprune_types::{Error, Result, ScalarType};

/// A named, typed column in a table schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ScalarType,
    /// Whether the column admits NULLs.
    pub nullable: bool,
}

impl Field {
    /// A nullable field.
    pub fn new(name: impl Into<String>, ty: ScalarType) -> Self {
        Field {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// An ordered list of fields.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// A schema from fields, in order.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields, in schema order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True for the zero-column schema.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> Result<&Field> {
        self.fields
            .get(idx)
            .ok_or_else(|| Error::UnknownColumn(format!("#{idx}")))
    }

    /// Resolve a column name to its index.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_owned()))
    }

    /// Names of the columns whose `mask` entry is set, in schema order
    /// (DML's changed-column set).
    pub fn names_where(&self, mask: &[bool]) -> Vec<String> {
        self.fields
            .iter()
            .zip(mask)
            .filter(|(_, set)| **set)
            .map(|(f, _)| f.name.clone())
            .collect()
    }

    /// True when a column with `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.fields.iter().any(|f| f.name == name)
    }

    /// Concatenate two schemas (used for join outputs), prefixing duplicate
    /// names from the right side with `right_prefix`.
    pub fn join(&self, other: &Schema, right_prefix: &str) -> Schema {
        let mut fields = self.fields.clone();
        for f in &other.fields {
            let name = if self.contains(&f.name) {
                format!("{right_prefix}{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field {
                name,
                ty: f.ty,
                nullable: f.nullable,
            });
        }
        Schema { fields }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = Schema::new(vec![
            Field::new("a", ScalarType::Int),
            Field::new("b", ScalarType::Str),
        ]);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn join_prefixes_duplicates() {
        let l = Schema::new(vec![Field::new("id", ScalarType::Int)]);
        let r = Schema::new(vec![
            Field::new("id", ScalarType::Int),
            Field::new("x", ScalarType::Float),
        ]);
        let j = l.join(&r, "r_");
        assert_eq!(j.fields()[1].name, "r_id");
        assert_eq!(j.fields()[2].name, "x");
    }
}
