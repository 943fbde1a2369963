//! Typed column vectors and the vectorized scan operators.
//!
//! A [`ColumnBatch`] holds a run of rows decomposed into per-column typed
//! vectors ([`Column`]) with an explicit validity mask — the in-memory
//! shape a columnar scan (the `storage::colblock` format) decodes into.
//! [`eval`], [`filter`] and [`project`] run a [`crate::scan::ScanChain`]'s
//! ops over a batch with the row interpreter's semantics (SQL three-valued
//! NULL logic, f64 arithmetic promotion); [`ColumnBatch::to_rows`] hands
//! the result to the row operators in [`crate::ops`], which run every
//! other plan node. [`ColumnBatch::from_rows`] builds a batch from rows.

use crate::date;
use crate::expr::{like_match, ArithOp, CmpOp, Expr};
use crate::schema::{DataType, Schema};
use crate::value::{Row, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// The typed data lane of a [`Column`]. Slots where the validity mask is
/// false hold an arbitrary default and must not be read.
#[derive(Clone, Debug)]
pub enum ColumnData {
    Bool(Vec<bool>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    /// Fixed-point hundredths, like [`Value::Decimal`].
    Decimal(Vec<i64>),
    /// Days since the epoch, like [`Value::Date`].
    Date(Vec<i32>),
    Str(Vec<Arc<str>>),
    /// Escape lane for mixed-type columns (possible after CASE or joins of
    /// heterogeneous sources); keeps the batch pipeline total.
    Val(Vec<Value>),
}

/// One typed column vector plus its validity (non-null) mask.
#[derive(Clone, Debug)]
pub struct Column {
    data: ColumnData,
    /// `valid[i]` is false where row `i` is NULL.
    valid: Vec<bool>,
}

fn lane_for(ty: DataType, n: usize) -> ColumnData {
    match ty {
        DataType::Bool => ColumnData::Bool(Vec::with_capacity(n)),
        DataType::I64 => ColumnData::I64(Vec::with_capacity(n)),
        DataType::F64 => ColumnData::F64(Vec::with_capacity(n)),
        DataType::Decimal => ColumnData::Decimal(Vec::with_capacity(n)),
        DataType::Date => ColumnData::Date(Vec::with_capacity(n)),
        DataType::Str => ColumnData::Str(Vec::with_capacity(n)),
    }
}

fn lane_of(v: &Value) -> Option<DataType> {
    match v {
        Value::Null => None,
        Value::Bool(_) => Some(DataType::Bool),
        Value::I64(_) => Some(DataType::I64),
        Value::F64(_) => Some(DataType::F64),
        Value::Decimal(_) => Some(DataType::Decimal),
        Value::Date(_) => Some(DataType::Date),
        Value::Str(_) => Some(DataType::Str),
    }
}

impl Column {
    /// Build a typed column from values known to inhabit `ty` (NULLs allowed).
    pub fn from_values_typed(vals: &[Value], ty: DataType) -> Column {
        let mut data = lane_for(ty, vals.len());
        let mut valid = Vec::with_capacity(vals.len());
        for v in vals {
            valid.push(!v.is_null());
            push_value(&mut data, v, ty);
        }
        Column { data, valid }
    }

    /// Build a column inferring the lane type from the first non-null
    /// value; falls back to the generic [`ColumnData::Val`] lane when the
    /// column mixes types.
    pub fn from_values(vals: &[Value]) -> Column {
        let ty = vals.iter().find_map(lane_of);
        let uniform = ty.is_some_and(|t| vals.iter().all(|v| lane_of(v).is_none_or(|l| l == t)));
        match (ty, uniform) {
            (Some(t), true) => Column::from_values_typed(vals, t),
            _ => Column {
                valid: vals.iter().map(|v| !v.is_null()).collect(),
                data: ColumnData::Val(vals.to_vec()),
            },
        }
    }

    /// A column repeating one value `len` times (literal broadcast).
    pub fn broadcast(v: &Value, len: usize) -> Column {
        Column::from_values(&vec![v.clone(); len])
    }

    pub fn len(&self) -> usize {
        self.valid.len()
    }

    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Count of NULL slots.
    pub fn n_nulls(&self) -> usize {
        self.valid.iter().filter(|v| !**v).count()
    }

    /// Materialize slot `i` as a [`Value`] (NULL where invalid).
    pub fn value_at(&self, i: usize) -> Value {
        if !self.valid[i] {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::I64(v) => Value::I64(v[i]),
            ColumnData::F64(v) => Value::F64(v[i]),
            ColumnData::Decimal(v) => Value::Decimal(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Val(v) => v[i].clone(),
        }
    }

    /// Select `idx` slots in order (the vectorized selection primitive).
    pub fn gather(&self, idx: &[usize]) -> Column {
        Column::from_values(&idx.iter().map(|&i| self.value_at(i)).collect::<Vec<_>>())
    }

    fn as_bool(&self, i: usize) -> Option<bool> {
        if !self.valid[i] {
            return None;
        }
        match &self.data {
            ColumnData::Bool(v) => Some(v[i]),
            other => panic!("boolean lane required, got {other:?}"),
        }
    }
}

fn push_value(data: &mut ColumnData, v: &Value, ty: DataType) {
    match (data, v) {
        (ColumnData::Bool(d), Value::Bool(b)) => d.push(*b),
        (ColumnData::I64(d), Value::I64(x)) => d.push(*x),
        (ColumnData::F64(d), Value::F64(x)) => d.push(*x),
        (ColumnData::Decimal(d), Value::Decimal(x)) => d.push(*x),
        (ColumnData::Date(d), Value::Date(x)) => d.push(*x),
        (ColumnData::Str(d), Value::Str(s)) => d.push(s.clone()),
        (ColumnData::Bool(d), Value::Null) => d.push(false),
        (ColumnData::I64(d), Value::Null) => d.push(0),
        (ColumnData::F64(d), Value::Null) => d.push(0.0),
        (ColumnData::Decimal(d), Value::Null) => d.push(0),
        (ColumnData::Date(d), Value::Null) => d.push(0),
        (ColumnData::Str(d), Value::Null) => d.push(Arc::from("")),
        (ColumnData::Val(d), v) => d.push(v.clone()),
        (_, v) => panic!("value {v:?} does not inhabit column type {ty:?}"),
    }
}

/// A batch of rows in columnar form. `len` is the row count; every column
/// has exactly `len` slots.
#[derive(Clone, Debug)]
pub struct ColumnBatch {
    pub columns: Vec<Column>,
    pub len: usize,
}

impl ColumnBatch {
    /// Row → column shim using the schema's declared types.
    pub fn from_rows(rows: &[Row], schema: &Schema) -> ColumnBatch {
        let columns = (0..schema.len())
            .map(|c| {
                let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                Column::from_values_typed(&vals, schema.field(c).ty)
            })
            .collect();
        ColumnBatch {
            columns,
            len: rows.len(),
        }
    }

    /// Column → row shim back to the materialized-row world.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len)
            .map(|i| self.columns.iter().map(|c| c.value_at(i)).collect())
            .collect()
    }

    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Select rows by index across every column.
    pub fn gather(&self, idx: &[usize]) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(|c| c.gather(idx)).collect(),
            len: idx.len(),
        }
    }
}

// ---- vectorized expression evaluation --------------------------------------

/// Evaluate an expression over a whole batch, producing one output column.
/// Semantics match [`Expr::eval`] row by row (SQL three-valued logic, f64
/// arithmetic promotion, date ± days); CASE evaluates all branches eagerly.
pub fn eval(expr: &Expr, batch: &ColumnBatch) -> Column {
    let n = batch.len;
    match expr {
        Expr::Col(i) => batch.columns[*i].clone(),
        Expr::Lit(v) => Column::broadcast(v, n),
        Expr::Cmp(op, a, b) => cmp_columns(*op, &eval(a, batch), &eval(b, batch)),
        Expr::And(parts) => fold_logic(parts, batch, true),
        Expr::Or(parts) => fold_logic(parts, batch, false),
        Expr::Not(e) => {
            let c = eval(e, batch);
            bool_column((0..n).map(|i| c.as_bool(i).map(|b| !b)))
        }
        Expr::Arith(op, a, b) => arith_columns(*op, &eval(a, batch), &eval(b, batch)),
        Expr::Like(e, pat) => {
            let c = eval(e, batch);
            bool_column((0..n).map(|i| str_at(&c, i, "LIKE").map(|s| like_match(s, pat))))
        }
        Expr::NotLike(e, pat) => {
            let c = eval(e, batch);
            bool_column((0..n).map(|i| str_at(&c, i, "NOT LIKE").map(|s| !like_match(s, pat))))
        }
        Expr::InList(e, list) => in_list_column(&eval(e, batch), list),
        Expr::Between(e, lo, hi) => {
            let c = eval(e, batch);
            bool_column((0..n).map(|i| {
                let v = c.value_at(i);
                if v.is_null() {
                    None
                } else {
                    Some(&v >= lo && &v <= hi)
                }
            }))
        }
        Expr::Case { whens, otherwise } => {
            let conds: Vec<Column> = whens.iter().map(|(c, _)| eval(c, batch)).collect();
            let outs: Vec<Column> = whens.iter().map(|(_, o)| eval(o, batch)).collect();
            let other = eval(otherwise, batch);
            let vals: Vec<Value> = (0..n)
                .map(|i| {
                    for (c, o) in conds.iter().zip(&outs) {
                        if c.as_bool(i) == Some(true) {
                            return o.value_at(i);
                        }
                    }
                    other.value_at(i)
                })
                .collect();
            Column::from_values(&vals)
        }
        Expr::Substr(e, start, len) => {
            let c = eval(e, batch);
            let vals: Vec<Value> = (0..n)
                .map(|i| match str_at(&c, i, "SUBSTRING") {
                    None => Value::Null,
                    Some(s) => {
                        let out: String =
                            s.chars().skip(start.saturating_sub(1)).take(*len).collect();
                        Value::str(out)
                    }
                })
                .collect();
            Column::from_values(&vals)
        }
        Expr::ExtractYear(e) => {
            let c = eval(e, batch);
            let vals: Vec<Value> = (0..n)
                .map(|i| match c.value_at(i) {
                    Value::Date(d) => Value::I64(date::year(d) as i64),
                    Value::Null => Value::Null,
                    other => panic!("EXTRACT YEAR over non-date {other:?}"),
                })
                .collect();
            Column::from_values(&vals)
        }
        Expr::IsNull(e) => {
            let c = eval(e, batch);
            bool_column((0..n).map(|i| Some(!c.valid[i])))
        }
    }
}

/// Build a boolean column from three-valued slots (`None` = NULL).
fn bool_column(slots: impl Iterator<Item = Option<bool>>) -> Column {
    let mut data = Vec::new();
    let mut valid = Vec::new();
    for s in slots {
        valid.push(s.is_some());
        data.push(s.unwrap_or(false));
    }
    Column {
        data: ColumnData::Bool(data),
        valid,
    }
}

fn str_at<'a>(c: &'a Column, i: usize, what: &str) -> Option<&'a str> {
    if !c.valid[i] {
        return None;
    }
    match &c.data {
        ColumnData::Str(v) => Some(&v[i]),
        ColumnData::Val(v) => match &v[i] {
            Value::Str(s) => Some(s),
            other => panic!("{what} over non-string {other:?}"),
        },
        other => panic!("{what} over non-string lane {other:?}"),
    }
}

fn cmp_to_bool(op: CmpOp, c: Ordering) -> bool {
    match op {
        CmpOp::Eq => c.is_eq(),
        CmpOp::Ne => c.is_ne(),
        CmpOp::Lt => c.is_lt(),
        CmpOp::Le => c.is_le(),
        CmpOp::Gt => c.is_gt(),
        CmpOp::Ge => c.is_ge(),
    }
}

fn cmp_columns(op: CmpOp, a: &Column, b: &Column) -> Column {
    let n = a.len();
    // Typed fast paths: compare primitive lanes without materializing
    // `Value`s. The orderings are the ones `Value::cmp` uses for the same
    // variant pair, so results are identical to the row interpreter.
    macro_rules! fast {
        ($x:expr, $y:expr, $cmp:expr) => {
            bool_column((0..n).map(|i| {
                if a.valid[i] && b.valid[i] {
                    Some(cmp_to_bool(op, $cmp(&$x[i], &$y[i])))
                } else {
                    None
                }
            }))
        };
    }
    match (&a.data, &b.data) {
        (ColumnData::I64(x), ColumnData::I64(y)) => fast!(x, y, |p: &i64, q: &i64| p.cmp(q)),
        (ColumnData::Date(x), ColumnData::Date(y)) => fast!(x, y, |p: &i32, q: &i32| p.cmp(q)),
        (ColumnData::Decimal(x), ColumnData::Decimal(y)) => {
            fast!(x, y, |p: &i64, q: &i64| p.cmp(q))
        }
        (ColumnData::F64(x), ColumnData::F64(y)) => fast!(x, y, |p: &f64, q: &f64| p.total_cmp(q)),
        (ColumnData::Str(x), ColumnData::Str(y)) => {
            fast!(x, y, |p: &Arc<str>, q: &Arc<str>| p
                .as_ref()
                .cmp(q.as_ref()))
        }
        _ => bool_column((0..n).map(|i| {
            let (va, vb) = (a.value_at(i), b.value_at(i));
            if va.is_null() || vb.is_null() {
                None
            } else {
                Some(cmp_to_bool(op, va.cmp(&vb)))
            }
        })),
    }
}

/// Three-valued AND (`conj = true`) / OR (`conj = false`) over the parts.
fn fold_logic(parts: &[Expr], batch: &ColumnBatch, conj: bool) -> Column {
    let cols: Vec<Column> = parts.iter().map(|p| eval(p, batch)).collect();
    bool_column((0..batch.len).map(|i| {
        let mut saw_null = false;
        for c in &cols {
            match c.as_bool(i) {
                Some(b) if b != conj => return Some(!conj),
                Some(_) => {}
                None => saw_null = true,
            }
        }
        if saw_null {
            None
        } else {
            Some(conj)
        }
    }))
}

fn arith_columns(op: ArithOp, a: &Column, b: &Column) -> Column {
    let n = a.len();
    // f64 fast path: both lanes numeric (and not the date ± days special
    // case), evaluated exactly as the row interpreter's promotion does.
    let f64_of = |d: &ColumnData, i: usize| -> Option<f64> {
        match d {
            ColumnData::I64(v) => Some(v[i] as f64),
            ColumnData::F64(v) => Some(v[i]),
            ColumnData::Decimal(v) => Some(v[i] as f64 / 100.0),
            _ => None,
        }
    };
    let numeric = |d: &ColumnData| {
        matches!(
            d,
            ColumnData::I64(_) | ColumnData::F64(_) | ColumnData::Decimal(_)
        )
    };
    if numeric(&a.data) && numeric(&b.data) {
        let mut out = Vec::with_capacity(n);
        let mut valid = Vec::with_capacity(n);
        for i in 0..n {
            if a.valid[i] && b.valid[i] {
                let (x, y) = (
                    f64_of(&a.data, i).expect("numeric lane"),
                    f64_of(&b.data, i).expect("numeric lane"),
                );
                out.push(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                });
                valid.push(true);
            } else {
                out.push(0.0);
                valid.push(false);
            }
        }
        return Column {
            data: ColumnData::F64(out),
            valid,
        };
    }
    // Generic path, mirroring `Expr::eval`'s Arith arm (date ± days).
    let vals: Vec<Value> = (0..n)
        .map(|i| {
            let (va, vb) = (a.value_at(i), b.value_at(i));
            if va.is_null() || vb.is_null() {
                return Value::Null;
            }
            if let (Value::Date(d), Some(days)) = (&va, vb.as_i64()) {
                match op {
                    ArithOp::Add => return Value::Date(d + days as i32),
                    ArithOp::Sub => return Value::Date(d - days as i32),
                    _ => {}
                }
            }
            let (x, y) = (
                va.as_f64().unwrap_or_else(|| panic!("non-numeric {va:?}")),
                vb.as_f64().unwrap_or_else(|| panic!("non-numeric {vb:?}")),
            );
            Value::F64(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            })
        })
        .collect();
    Column::from_values(&vals)
}

fn in_list_column(c: &Column, list: &[Value]) -> Column {
    let n = c.len();
    // Fast path: i64 lane against an all-i64 list (no cross-type numeric
    // equality to worry about).
    if let ColumnData::I64(v) = &c.data {
        let ints: Option<Vec<i64>> = list
            .iter()
            .map(|x| match x {
                Value::I64(i) => Some(*i),
                _ => None,
            })
            .collect();
        if let Some(ints) = ints {
            return bool_column((0..n).map(|i| {
                if c.valid[i] {
                    Some(ints.contains(&v[i]))
                } else {
                    None
                }
            }));
        }
    }
    bool_column((0..n).map(|i| {
        let v = c.value_at(i);
        if v.is_null() {
            None
        } else {
            Some(list.contains(&v))
        }
    }))
}

// ---- batch operators --------------------------------------------------------

/// WHERE over a batch: keep rows whose predicate is true (NULL = drop).
pub fn filter(batch: &ColumnBatch, pred: &Expr) -> ColumnBatch {
    let mask = eval(pred, batch);
    let sel: Vec<usize> = (0..batch.len)
        .filter(|&i| mask.as_bool(i) == Some(true))
        .collect();
    batch.gather(&sel)
}

/// SELECT list over a batch: each expression becomes one output column.
pub fn project(batch: &ColumnBatch, exprs: &[(Expr, String)]) -> ColumnBatch {
    ColumnBatch {
        columns: exprs.iter().map(|(e, _)| eval(e, batch)).collect(),
        len: batch.len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{and, col, lit_i64, lit_str, or};
    use crate::ops;

    fn sample() -> (Vec<Row>, Schema) {
        let schema = Schema::of(&[
            ("k", DataType::I64),
            ("s", DataType::Str),
            ("d", DataType::Decimal),
        ]);
        let rows = vec![
            vec![Value::I64(1), Value::str("a"), Value::Decimal(100)],
            vec![Value::I64(2), Value::Null, Value::Decimal(250)],
            vec![Value::Null, Value::str("c"), Value::Decimal(50)],
            vec![Value::I64(2), Value::str("d"), Value::Null],
        ];
        (rows, schema)
    }

    #[test]
    fn row_shims_round_trip() {
        let (rows, schema) = sample();
        let b = ColumnBatch::from_rows(&rows, &schema);
        assert_eq!(b.len, 4);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn filter_matches_row_kernel_incl_null_semantics() {
        let (rows, schema) = sample();
        let b = ColumnBatch::from_rows(&rows, &schema);
        for pred in [
            col(0).ge(lit_i64(2)),
            and(vec![col(0).ge(lit_i64(1)), col(1).eq(lit_str("a"))]),
            or(vec![col(1).eq(lit_str("c")), col(2).gt(lit_i64(0))]),
            Expr::IsNull(Box::new(col(2))),
            col(0).in_list(vec![Value::I64(2), Value::I64(7)]),
            col(2).between(Value::Decimal(60), Value::Decimal(260)),
            col(0).ge(lit_i64(2)).negate(),
        ] {
            let want = ops::filter(rows.clone(), &pred);
            let got = filter(&b, &pred).to_rows();
            assert_eq!(got, want, "pred {pred:?}");
        }
    }

    #[test]
    fn project_and_arith_match_row_kernel() {
        let (rows, schema) = sample();
        let b = ColumnBatch::from_rows(&rows, &schema);
        let exprs = vec![
            (col(2).mul(lit_i64(2)), "x".to_string()),
            (col(0).add(col(2)), "y".to_string()),
            (
                Expr::Case {
                    whens: vec![(col(0).eq(lit_i64(2)), lit_str("two"))],
                    otherwise: Box::new(lit_str("other")),
                },
                "c".to_string(),
            ),
        ];
        assert_eq!(project(&b, &exprs).to_rows(), ops::project(&rows, &exprs));
    }
}
