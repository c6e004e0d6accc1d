//! Multi-column sort orders.
//!
//! A [`SortOrder`] names the columns (and directions) by which the tabular
//! view is currently sorted (paper §3.3: "Sort by a set of columns"). It
//! resolves against a table to extract comparable [`RowKey`]s, or to compare
//! a table row against a key in place ([`ResolvedSortOrder::cmp_row`]), so
//! scans materialize keys only for the rows they keep.

use crate::error::Result;
use crate::rows::RowKey;
use crate::table::Table;
use std::cmp::Ordering;
use std::sync::Arc;

/// One column of a sort order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortColumn {
    /// Column name.
    pub name: Arc<str>,
    /// True for descending order.
    pub descending: bool,
}

/// An ordered list of sort columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SortOrder {
    columns: Vec<SortColumn>,
}

impl SortOrder {
    /// Ascending sort on the given column names.
    pub fn ascending(names: &[&str]) -> Self {
        SortOrder {
            columns: names
                .iter()
                .map(|n| SortColumn {
                    name: Arc::from(*n),
                    descending: false,
                })
                .collect(),
        }
    }

    /// Build with explicit directions: `(name, descending)`.
    pub fn with_directions(cols: &[(&str, bool)]) -> Self {
        SortOrder {
            columns: cols
                .iter()
                .map(|(n, d)| SortColumn {
                    name: Arc::from(*n),
                    descending: *d,
                })
                .collect(),
        }
    }

    /// The sort columns.
    pub fn columns(&self) -> &[SortColumn] {
        &self.columns
    }

    /// Column names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_ref())
    }

    /// True if no sort columns are set.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolve column names to indexes within `table`, for fast key
    /// extraction during scans.
    pub fn resolve(&self, table: &Table) -> Result<ResolvedSortOrder> {
        let mut idx = Vec::with_capacity(self.columns.len());
        let mut desc = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            idx.push(table.schema().index_of(&c.name)?);
            desc.push(c.descending);
        }
        Ok(ResolvedSortOrder {
            indexes: idx,
            descending: desc,
        })
    }
}

/// A sort order bound to the column indexes of a specific table.
#[derive(Debug, Clone)]
pub struct ResolvedSortOrder {
    indexes: Vec<usize>,
    descending: Vec<bool>,
}

impl ResolvedSortOrder {
    /// Extract the sort key of `row` from `table`.
    pub fn key(&self, table: &Table, row: usize) -> RowKey {
        let values = self
            .indexes
            .iter()
            .map(|&c| table.column(c).value(row))
            .collect();
        RowKey::new(values, self.descending.clone())
    }

    /// Order row `row` of `table` against `key`: exactly
    /// `self.key(table, row).cmp(key)` (`Missing` first, each column's
    /// direction applied afterwards), but read from typed column storage in
    /// place without allocating.
    #[inline]
    pub fn cmp_row(&self, table: &Table, row: usize, key: &RowKey) -> Ordering {
        for ((&c, &desc), v) in self.indexes.iter().zip(&self.descending).zip(key.values()) {
            let ord = table.column(c).cmp_value(row, v);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// The resolved column indexes.
    pub fn indexes(&self) -> &[usize] {
        &self.indexes
    }

    /// The per-column descending flags.
    pub fn descending(&self) -> &[bool] {
        &self.descending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, DictColumn, F64Column, I64Column};
    use crate::schema::ColumnKind;
    use crate::table::Table;
    use crate::value::Value;

    fn table() -> Table {
        Table::builder()
            .column(
                "Carrier",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings([
                    Some("UA"),
                    Some("AA"),
                    Some("UA"),
                ])),
            )
            .column(
                "Delay",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([Some(10), Some(5), Some(-3)])),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn resolve_and_extract_keys() {
        let t = table();
        let order = SortOrder::ascending(&["Carrier", "Delay"]);
        let r = order.resolve(&t).unwrap();
        let k0 = r.key(&t, 0);
        let k1 = r.key(&t, 1);
        let k2 = r.key(&t, 2);
        assert!(k1 < k0, "AA before UA");
        assert!(k2 < k0, "UA,-3 before UA,10");
    }

    #[test]
    fn descending_direction_applied() {
        let t = table();
        let order = SortOrder::with_directions(&[("Delay", true)]);
        let r = order.resolve(&t).unwrap();
        assert!(r.key(&t, 0) < r.key(&t, 1), "10 before 5 when descending");
    }

    #[test]
    fn cmp_row_agrees_with_materialized_keys() {
        let t = Table::builder()
            .column(
                "S",
                ColumnKind::String,
                Column::Str(DictColumn::from_strings([
                    Some("b"),
                    None,
                    Some("a"),
                    Some("b"),
                ])),
            )
            .column(
                "D",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([
                    Some(-0.0),
                    Some(1.5),
                    None,
                    Some(0.0),
                ])),
            )
            .column(
                "T",
                ColumnKind::Date,
                Column::Date(I64Column::from_options([Some(5), None, Some(-5), Some(5)])),
            )
            .build()
            .unwrap();
        let cols = ["S", "D", "T"];
        for mask in 0..8u32 {
            let dirs: Vec<(&str, bool)> = cols
                .iter()
                .enumerate()
                .map(|(i, c)| (*c, mask >> i & 1 == 1))
                .collect();
            let r = SortOrder::with_directions(&dirs).resolve(&t).unwrap();
            for a in 0..t.num_rows() {
                for b in 0..t.num_rows() {
                    let kb = r.key(&t, b);
                    assert_eq!(r.cmp_row(&t, a, &kb), r.key(&t, a).cmp(&kb), "{a} vs {b}");
                }
            }
        }
        // Keys of another type still order by type rank, as Value::cmp does.
        let r = SortOrder::ascending(&["D"]).resolve(&t).unwrap();
        let keys = [
            Value::Missing,
            Value::Int(1),
            Value::Date(0),
            Value::str("x"),
        ];
        for v in keys {
            let k = RowKey::new(vec![v], vec![false]);
            for row in 0..t.num_rows() {
                assert_eq!(r.cmp_row(&t, row, &k), r.key(&t, row).cmp(&k));
            }
        }
    }

    #[test]
    fn unknown_column_fails_resolution() {
        let t = table();
        assert!(SortOrder::ascending(&["Nope"]).resolve(&t).is_err());
    }

    #[test]
    fn empty_order_yields_equal_keys() {
        let t = table();
        let r = SortOrder::default().resolve(&t).unwrap();
        assert_eq!(r.key(&t, 0), r.key(&t, 1));
    }
}
