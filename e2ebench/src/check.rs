//! Output checks: every output is compared with its reference, and each
//! comparison counts as one attempted output.

use std::fmt::Debug;

/// Tally of compared outputs. A mismatch is reported on stderr.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("MISMATCH: {}", what());
        }
    }

    pub fn expect_eq<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.expect(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }
}

/// A committed artifact under `results/`, read from the checkout the
/// benchmark was built in.
pub fn artifact(name: &str) -> Result<String, String> {
    let path = format!("{}/../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The body rows of the markdown tables in `text`, cells trimmed; header
/// and separator rows are skipped.
pub fn table_rows(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in text.lines() {
        let Some(inner) = line.strip_prefix('|').and_then(|l| l.strip_suffix('|')) else {
            in_table = false;
            continue;
        };
        let cells: Vec<String> = inner.split('|').map(|c| c.trim().to_string()).collect();
        if !in_table {
            in_table = true; // the header row
        } else if !cells.iter().all(|c| c.starts_with("---")) {
            rows.push(cells);
        }
    }
    rows
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_skip_header_and_separator() {
        let text = "### T\n\n| A | B |\n|---|---|\n| 1 | x |\n| 2 |  |\n\ntail\n";
        assert_eq!(
            table_rows(text),
            vec![
                vec!["1".to_string(), "x".into()],
                vec!["2".into(), "".into()]
            ]
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn committed_artifacts_parse() {
        for name in ["repro_fig2.txt", "repro_fig4.txt", "compare_paper_250.txt"] {
            let rows = table_rows(&artifact(name).unwrap());
            assert!(rows.len() >= 18, "{name}: {} rows", rows.len());
        }
    }
}
