//! Row schemas for datasets flowing between operators.

use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Scalar data types supported by the SCOPE-like engine. The width feeds the
/// average-row-length statistic, which in turn drives I/O costing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DataType {
    Int,
    Float,
    Bool,
    /// Variable-length; `avg_len` is the catalog's average byte length.
    String {
        avg_len: u16,
    },
    DateTime,
}

impl DataType {
    /// Average on-disk width in bytes, used for row-length estimation.
    #[must_use]
    pub fn avg_width(self) -> u32 {
        match self {
            DataType::Int | DataType::Float | DataType::DateTime => 8,
            DataType::Bool => 1,
            DataType::String { avg_len } => u32::from(avg_len),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Bool => write!(f, "bool"),
            DataType::String { avg_len } => write!(f, "string({avg_len})"),
            DataType::DateTime => write!(f, "datetime"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Column {
    pub name: Arc<str>,
    pub ty: DataType,
}

impl Column {
    pub fn new(name: impl Into<Arc<str>>, ty: DataType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.ty)
    }
}

/// An ordered list of columns. Cheap to clone (`Arc` column names).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    #[must_use]
    pub fn new(columns: Vec<Column>) -> Self {
        Self { columns }
    }

    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Look up a column index by name (first match).
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| &*c.name == name)
    }

    #[must_use]
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Average row width in bytes; the minimum of 1 keeps degenerate schemas
    /// (e.g. `COUNT(*)`-only outputs) from producing zero-byte rows.
    #[must_use]
    pub fn avg_row_len(&self) -> u32 {
        self.columns
            .iter()
            .map(|c| c.ty.avg_width())
            .sum::<u32>()
            .max(1)
    }

    /// Schema of `self ⧺ other`, as produced by a join.
    #[must_use]
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = Vec::with_capacity(self.len() + other.len());
        columns.extend_from_slice(&self.columns);
        columns.extend_from_slice(&other.columns);
        Schema { columns }
    }

    /// Keep only the columns at `indices`, in the given order.
    ///
    /// # Panics
    /// Panics if an index is out of range; plan validation guarantees the
    /// optimizer never constructs such a projection.
    #[must_use]
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::String { avg_len: 16 }),
            Column::new("c", DataType::Float),
        ])
    }

    #[test]
    fn index_of_finds_columns() {
        let s = abc();
        assert_eq!(s.index_of("a"), Some(0));
        assert_eq!(s.index_of("c"), Some(2));
        assert_eq!(s.index_of("z"), None);
    }

    #[test]
    fn avg_row_len_sums_widths() {
        assert_eq!(abc().avg_row_len(), 8 + 16 + 8);
        // Degenerate empty schema still reports 1 byte.
        assert_eq!(Schema::default().avg_row_len(), 1);
    }

    #[test]
    fn join_concatenates() {
        let s = abc().join(&abc());
        assert_eq!(s.len(), 6);
        assert_eq!(&*s.columns()[3].name, "a");
    }

    #[test]
    fn project_selects_and_reorders() {
        let s = abc().project(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(&*s.columns()[0].name, "c");
        assert_eq!(&*s.columns()[1].name, "a");
    }

    #[test]
    fn display_formats() {
        assert_eq!(abc().to_string(), "[a:int, b:string(16), c:float]");
    }
}
