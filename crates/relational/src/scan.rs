//! The Filter/Project chain over a base-table scan, shared by every engine.
//!
//! Both warehouses fuse a run of Filter and Project operators sitting
//! directly on a `Scan` into the scan itself. [`ScanChain`] owns every
//! decision that fusion makes:
//!
//! * which base columns the chain reads ([`ScanChain::columns`]) and how
//!   the ops are rewritten to address only those,
//! * the per-column [`Bounds`] a block-skipping reader can prune on,
//!   collected in base indices from the filters actually written in the
//!   chain — through bare-column projections, but not past a computed one,
//! * the output width,
//! * where a tracked key column (a bucket or distribution column) lands
//!   after the chain ([`ScanChain::key_after`], [`project_key`]),
//! * the op stack itself, run over full base rows, over rows holding only
//!   the read columns, or over a [`ColumnBatch`] of them.
//!
//! ```
//! use relational::expr::{col, lit_i64};
//! use relational::scan::ScanChain;
//! use relational::{LogicalPlan, Value};
//!
//! // SELECT c2, c0 + 1 FROM t WHERE c0 >= 2, over a 4-column table.
//! let plan = LogicalPlan::scan("t")
//!     .filter(col(0).ge(lit_i64(2)))
//!     .project(vec![(col(2), "c2"), (col(0).add(lit_i64(1)), "k")]);
//! let chain = ScanChain::match_plan(&plan, |_| 4).expect("a scan chain");
//! assert_eq!(chain.columns(), &[0, 2]);
//! assert_eq!(chain.width(), 2);
//! assert_eq!(chain.key_after(2), Some(0));
//! assert_eq!(chain.key_after(0), None);
//!
//! let base = vec![
//!     vec![Value::I64(1), Value::I64(0), Value::I64(10), Value::I64(0)],
//!     vec![Value::I64(3), Value::I64(0), Value::I64(30), Value::I64(0)],
//! ];
//! let want = vec![vec![Value::I64(30), Value::F64(4.0)]];
//! assert_eq!(chain.scan_rows(&base), want);
//! let pruned = base.iter().map(|r| vec![r[0].clone(), r[2].clone()]).collect();
//! assert_eq!(chain.apply_rows(pruned), want);
//! ```

use crate::batch::{self, ColumnBatch};
use crate::expr::{Bounds, Expr};
use crate::ops;
use crate::plan::LogicalPlan;
use crate::value::Row;
use std::collections::{BTreeMap, BTreeSet};

/// One fused operator of a [`ScanChain`].
#[derive(Clone, Debug)]
enum ScanOp {
    Filter(Expr),
    Project(Vec<(Expr, String)>),
}

impl ScanOp {
    fn remap_cols(&self, map: &BTreeMap<usize, usize>) -> ScanOp {
        match self {
            ScanOp::Filter(p) => ScanOp::Filter(p.remap_cols(map)),
            ScanOp::Project(exprs) => ScanOp::Project(
                exprs
                    .iter()
                    .map(|(e, n)| (e.remap_cols(map), n.clone()))
                    .collect(),
            ),
        }
    }
}

/// Where column `key` of a projection's input lands in its output: the
/// position of the first bare reference to it, or `None` when the
/// projection drops it or only computes from it.
pub fn project_key(exprs: &[(Expr, String)], key: usize) -> Option<usize> {
    exprs
        .iter()
        .position(|(e, _)| matches!(e, Expr::Col(i) if *i == key))
}

/// A run of Filter/Project operators directly over one base-table scan.
pub struct ScanChain<'a> {
    table: &'a str,
    /// Bottom-up (closest to the scan first), as written: references up to
    /// the first projection are base-schema indices.
    ops: Vec<ScanOp>,
    /// The same ops with every base-schema reference rewritten to its
    /// position in `columns`, for inputs that hold only those columns.
    pruned: Vec<ScanOp>,
    /// Base columns the chain reads, ascending.
    columns: Vec<usize>,
    /// Per-column pruning bounds in base-schema indices.
    bounds: BTreeMap<usize, Bounds>,
    width: usize,
}

impl<'a> ScanChain<'a> {
    /// Match a Filter/Project chain ending in a `Scan`; `None` for any
    /// other plan shape. `base_width` gives the scanned table's column
    /// count.
    pub fn match_plan(
        plan: &'a LogicalPlan,
        base_width: impl FnOnce(&str) -> usize,
    ) -> Option<ScanChain<'a>> {
        let mut ops = Vec::new();
        let mut cur = plan;
        let table = loop {
            match cur {
                LogicalPlan::Scan { table } => break table.as_str(),
                LogicalPlan::Filter { input, pred } => {
                    ops.push(ScanOp::Filter(pred.clone()));
                    cur = input;
                }
                LogicalPlan::Project { input, exprs } => {
                    ops.push(ScanOp::Project(exprs.clone()));
                    cur = input;
                }
                _ => return None,
            }
        };
        ops.reverse();
        let base_width = base_width(table);

        // Ops up to and including the first projection see base indices;
        // without a projection every column flows through.
        let first_project = ops.iter().position(|o| matches!(o, ScanOp::Project(_)));
        let (columns, pruned) = match first_project {
            None => ((0..base_width).collect(), ops.clone()),
            Some(p) => {
                let mut needed = BTreeSet::new();
                for op in &ops[..=p] {
                    match op {
                        ScanOp::Filter(pred) => pred.referenced_cols(&mut needed),
                        ScanOp::Project(exprs) => {
                            for (e, _) in exprs {
                                e.referenced_cols(&mut needed);
                            }
                        }
                    }
                }
                let columns: Vec<usize> = needed.into_iter().collect();
                let remap: BTreeMap<usize, usize> = columns
                    .iter()
                    .enumerate()
                    .map(|(new, &old)| (old, new))
                    .collect();
                let pruned = ops[..=p]
                    .iter()
                    .map(|op| op.remap_cols(&remap))
                    .chain(ops[p + 1..].iter().cloned())
                    .collect();
                (columns, pruned)
            }
        };

        // Bounds keep collecting above bare-column projections by mapping
        // filter columns back to base indices (Q19's implied part
        // predicate sits above the leaf's column-select projection); a
        // computed column has no base index, so collection stops there.
        let mut bounds: BTreeMap<usize, Bounds> = BTreeMap::new();
        let mut to_base: Option<Vec<usize>> = Some((0..base_width).collect());
        for op in &ops {
            let Some(map) = &to_base else { break };
            match op {
                ScanOp::Filter(pred) => {
                    for (c, b) in pred.column_bounds() {
                        if let Some(&base) = map.get(c) {
                            let merged = match bounds.remove(&base) {
                                Some(prev) => prev.intersect(b),
                                None => b,
                            };
                            bounds.insert(base, merged);
                        }
                    }
                }
                ScanOp::Project(exprs) => {
                    to_base = exprs
                        .iter()
                        .map(|(e, _)| match e {
                            Expr::Col(i) => map.get(*i).copied(),
                            _ => None,
                        })
                        .collect();
                }
            }
        }

        let width = ops
            .iter()
            .rev()
            .find_map(|o| match o {
                ScanOp::Project(exprs) => Some(exprs.len()),
                ScanOp::Filter(_) => None,
            })
            .unwrap_or(base_width);
        Some(ScanChain {
            table,
            ops,
            pruned,
            columns,
            bounds,
            width,
        })
    }

    /// The scanned base table.
    pub fn table(&self) -> &'a str {
        self.table
    }

    /// Base columns the chain reads, ascending: the layout
    /// [`ScanChain::apply_rows`] and [`ScanChain::apply_batch`] expect.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Per-column bounds (base-schema indices) every output row's source
    /// row satisfies: a block whose min/max statistics miss one holds no
    /// match.
    pub fn bounds(&self) -> &BTreeMap<usize, Bounds> {
        &self.bounds
    }

    /// Output column count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Filters below any projection, in base-schema indices.
    pub fn base_filters(&self) -> impl Iterator<Item = &Expr> {
        self.ops.iter().map_while(|op| match op {
            ScanOp::Filter(p) => Some(p),
            ScanOp::Project(_) => None,
        })
    }

    /// Where base column `key` lands in the chain's output; `None` once a
    /// projection drops it or only computes from it.
    pub fn key_after(&self, key: usize) -> Option<usize> {
        self.ops.iter().try_fold(key, |k, op| match op {
            ScanOp::Filter(_) => Some(k),
            ScanOp::Project(exprs) => project_key(exprs, k),
        })
    }

    /// Run the chain over borrowed full base rows. The leading filters
    /// test the base rows in place, so only their survivors are copied,
    /// and a projection right after them reads the borrowed rows directly;
    /// later ops run over the owned result.
    pub fn scan_rows(&self, base: &[Row]) -> Vec<Row> {
        let preds: Vec<&Expr> = self.base_filters().collect();
        let keep = |r: &&Row| preds.iter().all(|p| p.matches(r));
        let rest = &self.ops[preds.len()..];
        match rest.first() {
            Some(ScanOp::Project(exprs)) => {
                let rows = base
                    .iter()
                    .filter(keep)
                    .map(|r| ops::project_row(r, exprs))
                    .collect();
                run_rows(&rest[1..], rows)
            }
            _ => run_rows(rest, base.iter().filter(keep).cloned().collect()),
        }
    }

    /// Run the chain over owned rows holding only [`ScanChain::columns`],
    /// in that order.
    pub fn apply_rows(&self, rows: Vec<Row>) -> Vec<Row> {
        run_rows(&self.pruned, rows)
    }

    /// Run the chain vectorized over a batch holding only
    /// [`ScanChain::columns`], in that order.
    pub fn apply_batch(&self, mut b: ColumnBatch) -> ColumnBatch {
        for op in &self.pruned {
            b = match op {
                ScanOp::Filter(p) => batch::filter(&b, p),
                ScanOp::Project(exprs) => batch::project(&b, exprs),
            };
        }
        b
    }
}

fn run_rows(ops: &[ScanOp], mut rows: Vec<Row>) -> Vec<Row> {
    for op in ops {
        match op {
            ScanOp::Filter(p) => rows.retain(|r| p.matches(r)),
            ScanOp::Project(exprs) => rows = ops::project(&rows, exprs),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_i64};
    use crate::value::Value;

    /// Match `plan` over a four-column base table.
    fn chain(plan: &LogicalPlan) -> ScanChain<'_> {
        ScanChain::match_plan(plan, |t| {
            assert_eq!(t, "t");
            4
        })
        .expect("a Filter/Project chain over a scan")
    }

    fn lo(v: i64) -> Bounds {
        Bounds {
            lo: Some(Value::I64(v)),
            hi: None,
        }
    }

    #[test]
    fn other_plan_shapes_do_not_match() {
        let plan = LogicalPlan::scan("t")
            .limit(3)
            .filter(col(0).ge(lit_i64(1)));
        assert!(ScanChain::match_plan(&plan, |_| 4).is_none());
    }

    #[test]
    fn bounds_survive_bare_column_projections() {
        let plan = LogicalPlan::scan("t")
            .filter(col(2).ge(lit_i64(5)))
            .project(vec![(col(3), "d"), (col(2), "c")])
            .filter(col(1).ge(lit_i64(7)))
            .filter(col(0).ge(lit_i64(1)));
        let c = chain(&plan);
        // Output column 1 is base column 2; both of its lower bounds meet.
        let want = BTreeMap::from([(2, lo(7)), (3, lo(1))]);
        assert_eq!(c.bounds(), &want);
        assert_eq!(c.columns(), &[2, 3]);
    }

    #[test]
    fn bounds_stop_at_a_computed_projection() {
        let plan = LogicalPlan::scan("t")
            .filter(col(1).ge(lit_i64(5)))
            .project(vec![(col(0), "a"), (col(2).add(lit_i64(1)), "c1")])
            .filter(col(0).ge(lit_i64(7)))
            .filter(col(1).ge(lit_i64(9)));
        let c = chain(&plan);
        // Only the filter below the computed projection maps back; the
        // bare `col(0)` above it is dropped along with the computed one.
        assert_eq!(c.bounds(), &BTreeMap::from([(1, lo(5))]));
        assert_eq!(c.columns(), &[0, 1, 2]);
    }

    #[test]
    fn key_column_kept_reordered_dropped_or_computed() {
        let filtered = LogicalPlan::scan("t").filter(col(1).ge(lit_i64(0)));
        assert_eq!(chain(&filtered).key_after(2), Some(2), "kept");

        let reordered = LogicalPlan::scan("t")
            .project(vec![(col(3), "d"), (col(2), "c"), (col(0), "a")])
            .project(vec![(col(2), "a"), (col(1), "c")]);
        let c = chain(&reordered);
        assert_eq!(c.key_after(2), Some(1), "reordered twice");
        assert_eq!(c.key_after(0), Some(0), "reordered twice");
        assert_eq!(c.key_after(3), None, "dropped by the second projection");

        let dropped = LogicalPlan::scan("t").project(vec![(col(1), "b")]);
        assert_eq!(chain(&dropped).key_after(2), None, "projected away");

        let computed = LogicalPlan::scan("t").project(vec![(col(2).add(lit_i64(1)), "c1")]);
        assert_eq!(chain(&computed).key_after(2), None, "computed from");
    }

    #[test]
    fn width_of_filter_only_and_empty_chains() {
        let rows: Vec<Row> = (0..6)
            .map(|i| (0..4).map(|c| Value::I64(i * 10 + c)).collect())
            .collect();

        let filter_only = LogicalPlan::scan("t").filter(col(0).ge(lit_i64(30)));
        let c = chain(&filter_only);
        assert_eq!(c.width(), 4);
        assert_eq!(c.columns(), &[0, 1, 2, 3]);
        assert_eq!(c.scan_rows(&rows), rows[3..].to_vec());

        // Every row fails the filter: the width still comes from the last
        // projection, and the batch result keeps that many columns.
        let empty = LogicalPlan::scan("t")
            .project(vec![(col(3), "d"), (col(1), "b"), (col(0), "a")])
            .filter(col(2).lt(lit_i64(0)))
            .project(vec![(col(0), "d"), (col(1), "b")]);
        let c = chain(&empty);
        assert_eq!(c.width(), 2);
        assert!(c.scan_rows(&rows).is_empty());
        let pruned: Vec<Row> = rows
            .iter()
            .map(|r| c.columns().iter().map(|&i| r[i].clone()).collect())
            .collect();
        assert!(c.apply_rows(pruned.clone()).is_empty());
        let schema = crate::Schema::of(&[
            ("a", crate::DataType::I64),
            ("b", crate::DataType::I64),
            ("d", crate::DataType::I64),
        ]);
        let out = c.apply_batch(ColumnBatch::from_rows(&pruned, &schema));
        assert_eq!((out.len, out.width()), (0, 2));
    }
}
