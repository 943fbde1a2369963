//! Join-chain extraction, predicate implication, and cardinality
//! estimation — the cost-based-optimizer half of the engine.

use relational::expr::Expr;
use relational::{JoinKind, LogicalPlan, Row, Value};
// simlint: allow(no-unordered-iter) — HashSet is count-only (see `ndv`); ordered state uses the BTree types
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// An equi-join predicate between two chain leaves, in leaf-local
/// coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainPred {
    pub left: (usize, usize),
    pub right: (usize, usize),
}

/// A maximal chain of inner joins: `(((A ⋈ B) ⋈ C) ⋈ D)` flattened into
/// leaves + predicates, so the optimizer may pick any order. The original
/// column layout (leaves concatenated in source order) is restored by a
/// final projection.
pub struct JoinChain {
    pub leaves: Vec<LogicalPlan>,
    pub preds: Vec<ChainPred>,
    /// Non-equi residuals in *global* coordinates of the original layout.
    pub residuals: Vec<Expr>,
    /// Width of each leaf.
    pub widths: Vec<usize>,
}

impl JoinChain {
    /// Offset of leaf `i` in the original combined layout.
    pub fn offset(&self, leaf: usize) -> usize {
        self.widths[..leaf].iter().sum()
    }

    /// Map a global column index to `(leaf, local col)`.
    pub fn locate(&self, global: usize) -> (usize, usize) {
        let mut off = 0;
        for (i, w) in self.widths.iter().enumerate() {
            if global < off + w {
                return (i, global - off);
            }
            off += w;
        }
        panic!("global column {global} out of range");
    }

    /// Extract a chain from a plan. Returns `None` for anything that is not
    /// an inner join (those act as reordering barriers).
    pub fn extract(
        plan: &LogicalPlan,
        width_of: &mut dyn FnMut(&LogicalPlan) -> usize,
    ) -> Option<JoinChain> {
        match plan {
            LogicalPlan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                on,
                residual,
                ..
            } if !on.is_empty() => {
                let mut chain = match JoinChain::extract(left, width_of) {
                    Some(c) => c,
                    None => {
                        let w = width_of(left);
                        JoinChain {
                            leaves: vec![left.as_ref().clone()],
                            preds: Vec::new(),
                            residuals: Vec::new(),
                            widths: vec![w],
                        }
                    }
                };
                let left_width: usize = chain.widths.iter().sum();
                let rw = width_of(right);
                chain.leaves.push(right.as_ref().clone());
                chain.widths.push(rw);
                let right_leaf = chain.leaves.len() - 1;
                for &(l, r) in on {
                    let (ll, lc) = chain.locate(l);
                    chain.preds.push(ChainPred {
                        left: (ll, lc),
                        right: (right_leaf, r),
                    });
                }
                if let Some(res) = residual {
                    // Residual coordinates are already [left ++ right] =
                    // the chain's global layout (left's layout is original).
                    let _ = left_width;
                    chain.residuals.push(res.clone());
                }
                Some(chain)
            }
            _ => None,
        }
    }
}

/// Derive, from a residual predicate, the strongest predicate implied on a
/// single leaf's columns (Q19: the per-branch brand/container/size
/// conjuncts of the OR imply a `part`-only filter that PDW pushes below the
/// join before replicating). Returns the predicate in leaf-local
/// coordinates.
pub fn implied_pred(expr: &Expr, leaf_lo: usize, leaf_width: usize) -> Option<Expr> {
    let in_range = |e: &Expr| -> bool {
        let mut cols = BTreeSet::new();
        e.referenced_cols(&mut cols);
        !cols.is_empty()
            && cols
                .iter()
                .all(|&c| c >= leaf_lo && c < leaf_lo + leaf_width)
    };
    let remap = |e: &Expr| -> Expr {
        let mut cols = BTreeSet::new();
        e.referenced_cols(&mut cols);
        let map: BTreeMap<usize, usize> = cols.iter().map(|&c| (c, c - leaf_lo)).collect();
        e.remap_cols(&map)
    };
    match expr {
        Expr::Or(branches) => {
            let implied: Vec<Expr> = branches
                .iter()
                .map(|b| implied_pred(b, leaf_lo, leaf_width))
                .collect::<Option<Vec<_>>>()?;
            Some(Expr::Or(implied))
        }
        Expr::And(parts) => {
            let kept: Vec<Expr> = parts.iter().filter(|p| in_range(p)).map(&remap).collect();
            if kept.is_empty() {
                None
            } else {
                Some(Expr::And(kept))
            }
        }
        e if in_range(e) => Some(remap(e)),
        _ => None,
    }
}

/// Push filters below joins where a conjunct references only one side —
/// a standard optimizer rewrite Hive 0.7 lacked for several predicate
/// shapes (Q9's `p_name LIKE '%green%'` sits above the join in the Hive
/// script and stays there; PDW pushes it into the `part` scan).
/// Semantics-preserving: only side-local conjuncts move, and right-side
/// pushes happen for inner joins only.
pub fn pushdown_filters(plan: &LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, pred } => {
            let input = pushdown_filters(input);
            if let LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                residual,
                mapjoin_hint,
            } = input
            {
                let lw = count_width(&left);
                let conjuncts = split_conjuncts(pred);
                let mut push_left = Vec::new();
                let mut push_right = Vec::new();
                let mut keep = Vec::new();
                for c in conjuncts {
                    let mut cols = BTreeSet::new();
                    c.referenced_cols(&mut cols);
                    if !cols.is_empty() && cols.iter().all(|&i| i < lw) {
                        push_left.push(c);
                    } else if kind == JoinKind::Inner
                        && !cols.is_empty()
                        && cols.iter().all(|&i| i >= lw)
                    {
                        let map: BTreeMap<usize, usize> =
                            cols.iter().map(|&i| (i, i - lw)).collect();
                        push_right.push(c.remap_cols(&map));
                    } else {
                        keep.push(c);
                    }
                }
                let mut l = *left;
                if !push_left.is_empty() {
                    l = l.filter(combine(push_left));
                }
                let mut r = *right;
                if !push_right.is_empty() {
                    r = r.filter(combine(push_right));
                }
                let mut out = l.join_kind(r, kind, on, residual);
                if mapjoin_hint {
                    out = out.hint_mapjoin();
                }
                if !keep.is_empty() {
                    out = out.filter(combine(keep));
                }
                return out;
            }
            input.filter(pred.clone())
        }
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(pushdown_filters(input)),
            exprs: exprs.clone(),
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
            mapjoin_hint,
        } => {
            let mut out = pushdown_filters(left).join_kind(
                pushdown_filters(right),
                *kind,
                on.clone(),
                residual.clone(),
            );
            if *mapjoin_hint {
                out = out.hint_mapjoin();
            }
            out
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => LogicalPlan::Aggregate {
            input: Box::new(pushdown_filters(input)),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(pushdown_filters(input)),
            keys: keys.clone(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(pushdown_filters(input)),
            n: *n,
        },
        LogicalPlan::Materialize { input, label } => LogicalPlan::Materialize {
            input: Box::new(pushdown_filters(input)),
            label: label.clone(),
        },
        LogicalPlan::Scan { .. } => plan.clone(),
    }
}

fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::And(parts) => parts.iter().flat_map(split_conjuncts).collect(),
        other => vec![other.clone()],
    }
}

fn combine(mut parts: Vec<Expr>) -> Expr {
    if parts.len() == 1 {
        parts.pop().expect("non-empty")
    } else {
        Expr::And(parts)
    }
}

fn count_width(plan: &LogicalPlan) -> usize {
    // Width without a catalog: structural recursion (scans are never
    // direct children of a pushed-down filter's join in the TPC-H plans —
    // every leaf is projected — but handle the general shape defensively).
    match plan {
        LogicalPlan::Project { exprs, .. } => exprs.len(),
        LogicalPlan::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
        LogicalPlan::Join {
            left, right, kind, ..
        } => match kind {
            JoinKind::Inner | JoinKind::Left => count_width(left) + count_width(right),
            _ => count_width(left),
        },
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Materialize { input, .. } => count_width(input),
        LogicalPlan::Scan { table } => {
            panic!("cannot infer width of bare scan `{table}` without a catalog")
        }
    }
}

/// Exact distinct count of a key column over partitioned rows (the
/// "measured statistics" our idealized optimizer uses).
pub fn ndv(parts: &[Vec<Row>], col: usize) -> usize {
    // simlint: allow(no-unordered-iter) — the set is only counted (`len`), never iterated
    let mut set: HashSet<&Value> = HashSet::new();
    for p in parts {
        for r in p {
            set.insert(&r[col]);
        }
    }
    set.len().max(1)
}

/// Classic join-size estimate: |A ⋈ B| ≈ |A|·|B| / max(ndv(a), ndv(b)).
pub fn est_join_rows(la: usize, lb: usize, ndv_a: usize, ndv_b: usize) -> f64 {
    (la as f64) * (lb as f64) / (ndv_a.max(ndv_b).max(1) as f64)
}

/// Per-node I/O volume (bytes) and per-lane CPU seconds for a columnar
/// scan, derived from the shared per-format cost table
/// ([`cluster::Params::format_cost`]) and the measured pruning stats:
/// only the surviving blocks' compressed bytes hit the disks, and decode
/// CPU runs at the format's decode bandwidth on every lane, followed by
/// the ordinary row pipeline over the decoded rows.
pub fn colblock_scan_charge(
    p: &cluster::Params,
    stats: &storage::ScanStats,
    decoded_rows: usize,
    hot_fraction: f64,
    units: f64,
) -> (f64, f64) {
    let fc = p.format_cost(cluster::ScanFormat::ColBlock);
    let nodes = p.nodes as f64;
    let cold = 1.0 - hot_fraction;
    let node_bytes = stats.bytes_read as f64 * cold / nodes;
    let lane_cpu = (stats.bytes_read as f64 / fc.decode_bw
        + decoded_rows as f64 / p.pdw_scan_rows_per_sec)
        / (nodes * units);
    (node_bytes, lane_cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::expr::{and, col, lit_i64, lit_str, or};

    #[test]
    fn chain_extraction_flattens_left_deep_joins() {
        // (A ⋈ B on a0=b0) ⋈ C on b1=c0, widths 2/2/1
        let a = LogicalPlan::scan("a");
        let b = LogicalPlan::scan("b");
        let c = LogicalPlan::scan("c");
        let plan = a.join(b, vec![(0, 0)]).join(c, vec![(3, 0)]);
        let mut widths = |p: &LogicalPlan| match p {
            LogicalPlan::Scan { table } => match table.as_str() {
                "a" | "b" => 2,
                _ => 1,
            },
            _ => panic!("leaves are scans here"),
        };
        let chain = JoinChain::extract(&plan, &mut widths).unwrap();
        assert_eq!(chain.leaves.len(), 3);
        assert_eq!(
            chain.preds,
            vec![
                ChainPred {
                    left: (0, 0),
                    right: (1, 0)
                },
                ChainPred {
                    left: (1, 1),
                    right: (2, 0)
                },
            ]
        );
        assert_eq!(chain.locate(3), (1, 1));
        assert_eq!(chain.offset(2), 4);
    }

    #[test]
    fn semi_join_is_a_barrier() {
        let plan = LogicalPlan::scan("a").join_kind(
            LogicalPlan::scan("b"),
            JoinKind::LeftSemi,
            vec![(0, 0)],
            None,
        );
        let mut widths = |_: &LogicalPlan| 2;
        assert!(JoinChain::extract(&plan, &mut widths).is_none());
    }

    #[test]
    fn q19_style_or_implies_single_side_filter() {
        // OR of branches, each with a part-side (cols 6..10) conjunct and a
        // lineitem-side (cols 0..6) conjunct.
        let branch = |brand: &str, qty: i64| {
            and(vec![
                col(7).eq(lit_str(brand)), // part side
                col(1).ge(lit_i64(qty)),   // lineitem side
            ])
        };
        let pred = or(vec![branch("Brand#12", 1), branch("Brand#23", 10)]);
        let part_side = implied_pred(&pred, 6, 4).expect("part filter implied");
        // Implied filter in part-local coordinates accepts Brand#12 rows...
        let row = vec![
            Value::I64(0),
            Value::str("Brand#12"),
            Value::str("X"),
            Value::I64(1),
        ];
        assert!(part_side.matches(&row));
        // ...and rejects other brands.
        let row2 = vec![
            Value::I64(0),
            Value::str("Brand#99"),
            Value::str("X"),
            Value::I64(1),
        ];
        assert!(!part_side.matches(&row2));
        // The lineitem side is implied too.
        assert!(implied_pred(&pred, 0, 6).is_some());
    }

    #[test]
    fn no_implication_when_a_branch_lacks_side_conjuncts() {
        let pred = or(vec![
            col(7).eq(lit_str("Brand#12")),
            col(1).ge(lit_i64(10)), // this branch says nothing about part
        ]);
        assert!(implied_pred(&pred, 6, 4).is_none());
    }

    #[test]
    fn ndv_and_estimates() {
        let parts = vec![
            vec![vec![Value::I64(1)], vec![Value::I64(2)]],
            vec![vec![Value::I64(2)], vec![Value::I64(3)]],
        ];
        assert_eq!(ndv(&parts, 0), 3);
        // FK join: 1000 facts, 10 dims, ndv 10 each side → 1000 rows.
        assert!((est_join_rows(1000, 10, 10, 10) - 1000.0).abs() < 1e-9);
    }
}
