//! Property-based tests: operator kernels against naive reference
//! implementations, and the invariants distributed execution relies on.

use proptest::prelude::*;
use relational::expr::{col, like_match};
use relational::{ops, AggCall, JoinKind, Row, Value};

fn arb_row() -> impl Strategy<Value = Row> {
    (0i64..50, 0i64..20, -100i64..100)
        .prop_map(|(a, b, c)| vec![Value::I64(a), Value::I64(b), Value::I64(c)])
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(arb_row(), 0..max)
}

// ---- hash join vs nested loop ---------------------------------------------

fn nested_loop_inner(l: &[Row], r: &[Row], lc: usize, rc: usize) -> Vec<Row> {
    let mut out = Vec::new();
    for a in l {
        for b in r {
            if !a[lc].is_null() && a[lc] == b[rc] {
                let mut row = a.clone();
                row.extend(b.iter().cloned());
                out.push(row);
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn hash_join_matches_nested_loop(l in arb_rows(60), r in arb_rows(60)) {
        let mut got = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::Inner, None, 3);
        let mut want = nested_loop_inner(&l, &r, 0, 0);
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn semi_plus_anti_partition_the_left(l in arb_rows(60), r in arb_rows(60)) {
        let semi = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::LeftSemi, None, 3);
        let anti = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::LeftAnti, None, 3);
        prop_assert_eq!(semi.len() + anti.len(), l.len());
        let mut both = semi;
        both.extend(anti);
        both.sort();
        let mut left = l.clone();
        left.sort();
        prop_assert_eq!(both, left);
    }

    #[test]
    fn left_join_keeps_every_left_row(l in arb_rows(40), r in arb_rows(40)) {
        let out = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::Left, None, 3);
        // Each left row appears max(1, matches) times.
        prop_assert!(out.len() >= l.len());
        let inner = ops::hash_join(&l, &r, &[(0, 0)], JoinKind::Inner, None, 3);
        let unmatched = out.iter().filter(|row| row[3].is_null()).count();
        prop_assert_eq!(inner.len() + unmatched, out.len());
    }
}

// ---- distributed aggregation invariant --------------------------------------

proptest! {
    #[test]
    fn partial_merge_equals_oneshot_for_any_split(
        rows in arb_rows(120),
        split in 0usize..120,
    ) {
        let gb = [(col(0), "g".to_string())];
        let aggs = [
            AggCall::sum(col(2), "s"),
            AggCall::count_star("n"),
            AggCall::min(col(2), "lo"),
            AggCall::max(col(2), "hi"),
            AggCall::avg(col(2), "a"),
            AggCall::count_distinct(col(1), "d"),
        ];
        let split = split.min(rows.len());
        let p1 = ops::aggregate_partial(&rows[..split], &gb, &aggs);
        let p2 = ops::aggregate_partial(&rows[split..], &gb, &aggs);
        let mut merged = ops::aggregate_finish(ops::aggregate_merge(p1, p2));
        let mut oneshot = ops::hash_aggregate(&rows, &gb, &aggs);
        merged.sort();
        oneshot.sort();
        prop_assert!(relational::testing::rows_approx_eq(&merged, &oneshot, 1e-9));
    }

    #[test]
    fn hash_partition_is_a_partition(rows in arb_rows(150), n in 1usize..20) {
        let parts = ops::hash_partition(rows.clone(), &[0], n);
        prop_assert_eq!(parts.len(), n);
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, rows.len());
        // Same key never lands in two partitions.
        for (i, p) in parts.iter().enumerate() {
            for row in p {
                prop_assert_eq!(ops::bucket_of(row, &[0], n), i);
            }
        }
        // Co-partitioned join equals global join.
        let parts_b = ops::hash_partition(rows.clone(), &[0], n);
        let mut partitioned: Vec<Row> = Vec::new();
        for i in 0..n {
            partitioned.extend(ops::hash_join(
                &parts[i], &parts_b[i], &[(0, 0)], JoinKind::Inner, None, 3,
            ));
        }
        let mut global = ops::hash_join(&rows, &rows, &[(0, 0)], JoinKind::Inner, None, 3);
        partitioned.sort();
        global.sort();
        prop_assert_eq!(partitioned, global);
    }
}

// ---- LIKE matcher vs naive backtracking reference ----------------------------

fn naive_like(s: &[char], p: &[char]) -> bool {
    match (s.first(), p.first()) {
        (_, None) => s.is_empty(),
        (_, Some('%')) => naive_like(s, &p[1..]) || (!s.is_empty() && naive_like(&s[1..], p)),
        (Some(c), Some(pc)) if *pc == '_' || pc == c => naive_like(&s[1..], &p[1..]),
        _ => false,
    }
}

proptest! {
    #[test]
    fn like_matches_reference(s in "[abc]{0,12}", p in "[abc%_]{0,8}") {
        let sc: Vec<char> = s.chars().collect();
        let pc: Vec<char> = p.chars().collect();
        prop_assert_eq!(like_match(&s, &p), naive_like(&sc, &pc));
    }
}

// ---- value total order ---------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|v| Value::I64(v as i64)),
        (-1000i64..1000).prop_map(Value::Decimal),
        (-10000i32..10000).prop_map(Value::Date),
        any::<f32>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(|f| Value::F64(f as f64)),
        "[a-z]{0,6}".prop_map(Value::str),
    ]
}

proptest! {
    #[test]
    fn value_order_is_total_and_consistent(
        a in arb_value(), b in arb_value(), c in arb_value()
    ) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (of <=).
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
        // Eq ⇒ equal hashes.
        if a == b {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            a.hash(&mut ha);
            b.hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }
}

// ---- one build, many probes -------------------------------------------------

/// Rows whose join key (column 0) is NULL about one time in six.
fn arb_nullable_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let row = (0i64..6, 0i64..12, -20i64..20).prop_map(|(null, k, v)| {
        let key = if null == 0 {
            Value::Null
        } else {
            Value::I64(k)
        };
        vec![key, Value::I64(k % 3), Value::I64(v)]
    });
    proptest::collection::vec(row, 0..max)
}

/// Naive reference for every join kind: a nested loop over `right` in
/// order, with SQL NULL-key semantics and the residual over `[left ++ right]`.
fn nested_loop_join(
    l: &[Row],
    r: &[Row],
    on: &[(usize, usize)],
    kind: JoinKind,
    residual: Option<&relational::Expr>,
    right_width: usize,
) -> Vec<Row> {
    let mut out = Vec::new();
    for a in l {
        let matches: Vec<&Row> = r
            .iter()
            .filter(|b| {
                on.iter()
                    .all(|&(lc, rc)| !a[lc].is_null() && a[lc] == b[rc])
            })
            .filter(|b| {
                let mut both = a.clone();
                both.extend(b.iter().cloned());
                residual.is_none_or(|p| p.matches(&both))
            })
            .collect();
        match kind {
            JoinKind::Inner | JoinKind::Left => {
                for b in &matches {
                    let mut row = a.clone();
                    row.extend(b.iter().cloned());
                    out.push(row);
                }
                if matches.is_empty() && kind == JoinKind::Left {
                    let mut row = a.clone();
                    row.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(row);
                }
            }
            JoinKind::LeftSemi if !matches.is_empty() => out.push(a.clone()),
            JoinKind::LeftAnti if matches.is_empty() => out.push(a.clone()),
            _ => {}
        }
    }
    out
}

proptest! {
    #[test]
    fn one_build_probed_per_partition_equals_hash_join_per_partition(
        l in arb_nullable_rows(60),
        r in arb_nullable_rows(40),
        n in 1usize..6,
    ) {
        // Deal the left side round-robin into `n` partitions: a replicated
        // right side is probed once per left partition.
        let mut parts: Vec<Vec<Row>> = vec![Vec::new(); n];
        for (i, row) in l.into_iter().enumerate() {
            parts[i % n].push(row);
        }
        let residual = col(2).lt(col(5));
        for on in [vec![(0, 0)], vec![(0, 0), (1, 1)], vec![]] {
            let table = ops::JoinTable::build(&r, &on);
            for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::LeftSemi, JoinKind::LeftAnti] {
                for res in [None, Some(&residual)] {
                    for p in &parts {
                        let got = table.probe(p, kind, res, 3);
                        prop_assert_eq!(&got, &ops::hash_join(p, &r, &on, kind, res, 3));
                        // Exact rows in exact order: left-driven, matches
                        // in right-input order.
                        prop_assert_eq!(got, nested_loop_join(p, &r, &on, kind, res, 3));
                    }
                }
            }
        }
    }
}

// ---- the shared scan chain: rows, batches and the reference agree ----------

use relational::batch::ColumnBatch;
use relational::expr::{lit_i64, lit_str};
use relational::scan::ScanChain;
use relational::{Catalog, DataType, Expr, LogicalPlan, Schema, Table};

/// `t(i I64, d Decimal, s Str, dt Date)`, every column NULL about one time
/// in six; each row is drawn from one `u64`, 16 bits per column.
fn typed_row(bits: u64) -> Row {
    let cell = |k: u32, make: fn(i64) -> Value| {
        let f = ((bits >> (k * 16)) & 0xffff) as i64;
        if f % 6 == 0 {
            Value::Null
        } else {
            make((f >> 3) % 40 - 20)
        }
    };
    vec![
        cell(0, Value::I64),
        cell(1, Value::Decimal),
        cell(2, |x| {
            Value::str(["a", "b", "ab", ""][x.rem_euclid(4) as usize])
        }),
        cell(3, |x| Value::Date(x as i32)),
    ]
}

fn typed_schema() -> Schema {
    Schema::of(&[
        ("i", DataType::I64),
        ("d", DataType::Decimal),
        ("s", DataType::Str),
        ("dt", DataType::Date),
    ])
}

/// A well-typed predicate over a column of type `ty`, chosen by `c`.
fn arb_pred(c: u64, i: usize, ty: DataType) -> Expr {
    let x = (c >> 20) as i64 % 30 - 15;
    let lit = match ty {
        DataType::I64 => lit_i64(x),
        DataType::Decimal => Expr::Lit(Value::Decimal(x)),
        DataType::F64 => Expr::Lit(Value::F64(x as f64)),
        DataType::Date => Expr::Lit(Value::Date(x as i32)),
        _ => lit_str(["a", "b"][x.rem_euclid(2) as usize]),
    };
    let cmp = match (c >> 8) % 4 {
        0 => col(i).ge(lit),
        1 => col(i).lt(lit),
        2 => col(i).eq(lit),
        _ => col(i).ne(lit),
    };
    match (c >> 12) % 5 {
        0 => Expr::IsNull(Box::new(col(i))),
        1 => cmp.negate(),
        2 => relational::expr::or(vec![cmp, Expr::IsNull(Box::new(col(i)))]),
        3 if ty == DataType::Str => col(i).like("a%"),
        _ => cmp,
    }
}

/// A Filter/Project chain over `t`, one op per choice. Each level's column
/// types are tracked so every expression is well typed; numeric columns
/// are sometimes projected through arithmetic (a computed column).
fn arb_scan_chain(choices: &[u64]) -> LogicalPlan {
    let mut types: Vec<DataType> = typed_schema().fields().iter().map(|f| f.ty).collect();
    let mut plan = LogicalPlan::scan("t");
    for &c in choices {
        if c % 3 != 0 {
            let i = (c >> 4) as usize % types.len();
            plan = plan.filter(arb_pred(c, i, types[i]));
            continue;
        }
        let n = 1 + (c >> 2) as usize % 4;
        let mut exprs = Vec::with_capacity(n);
        let mut next = Vec::with_capacity(n);
        for j in 0..n {
            let src = (c >> (8 + 6 * j)) as usize % types.len();
            let numeric = matches!(
                types[src],
                DataType::I64 | DataType::Decimal | DataType::F64
            );
            if numeric && (c >> (40 + j)) & 1 == 1 {
                exprs.push((col(src).mul(lit_i64(3)).add(col(src)), "e"));
                next.push(DataType::F64);
            } else {
                exprs.push((col(src), "c"));
                next.push(types[src]);
            }
        }
        plan = plan.project(exprs);
        types = next;
    }
    plan
}

proptest! {
    #[test]
    fn scan_chain_on_rows_and_batches_matches_the_reference(
        bits in proptest::collection::vec(any::<u64>(), 0..40),
        choices in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let base: Vec<Row> = bits.into_iter().map(typed_row).collect();
        let schema = typed_schema();
        let mut cat = Catalog::new();
        cat.add("t", Table::new(schema.clone(), base.clone()));
        let plan = arb_scan_chain(&choices);
        let (_, want) = relational::execute(&plan, &cat);

        let chain = ScanChain::match_plan(&plan, |_| schema.len()).expect("scan chain");
        prop_assert_eq!(chain.width(), plan.schema(&cat).len());
        let cols = chain.columns();
        let pruned: Vec<Row> = base
            .iter()
            .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
            .collect();
        let batch = ColumnBatch::from_rows(&pruned, &schema.project(cols));
        prop_assert_eq!(&chain.apply_rows(pruned), &want);
        prop_assert_eq!(&chain.apply_batch(batch).to_rows(), &want);
        prop_assert_eq!(&chain.scan_rows(&base), &want);
    }
}
