//! Label-matrix CSV I/O for the CLI.
//!
//! The input format is one row per object and one column per input
//! clustering; cells are arbitrary label tokens (interned per column) and
//! `?` (or an empty cell) marks a missing label. An optional header row is
//! auto-detected: if every cell of the first row is unique within its
//! column's remaining values... that is unreliable, so instead a header is
//! assumed when `--header` is passed by the caller.

use aggclust_core::clustering::{Clustering, PartialClustering};
use std::collections::HashMap;
use std::fmt;

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Ragged rows.
    Shape {
        /// 1-based line number.
        line: usize,
        /// 1-based column where the row diverges from the expected shape
        /// (the first missing or first surplus field).
        column: usize,
        /// Expected column count.
        expected: usize,
        /// Found column count.
        found: usize,
    },
    /// No data rows.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Shape {
                line,
                column,
                expected,
                found,
            } => write!(
                f,
                "line {line}, column {column}: expected {expected} columns, found {found}"
            ),
            CsvError::Empty => write!(f, "no data rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<CsvError> for aggclust_core::AggError {
    fn from(e: CsvError) -> Self {
        match e {
            CsvError::Shape {
                line,
                column,
                expected,
                found,
            } => aggclust_core::AggError::Parse {
                line,
                column: Some(column),
                reason: format!("expected {expected} columns, found {found}"),
            },
            CsvError::Empty => aggclust_core::AggError::Parse {
                line: 0,
                column: None,
                reason: "no data rows".to_string(),
            },
        }
    }
}

/// Parse a label matrix: columns become [`PartialClustering`]s.
///
/// `separator` is a single character (`,` for CSV, `\t` for TSV);
/// `skip_header` drops the first non-empty line. Each cell is interned
/// straight into its column's labels, so the only allocations that grow
/// with the row count are the output columns themselves.
pub fn parse_label_matrix(
    text: &str,
    separator: char,
    skip_header: bool,
) -> Result<Vec<PartialClustering>, CsvError> {
    // At most one row per line.
    let rows_hint = text.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut interns: Vec<HashMap<&str, u32>> = Vec::new();
    let mut columns: Vec<Vec<Option<u32>>> = Vec::new();
    let mut expected = None;
    let mut header = skip_header;
    let mut rows = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let found = line.split(separator).count();
        match expected {
            None => {
                expected = Some(found);
                interns = vec![HashMap::new(); found];
                columns = (0..found).map(|_| Vec::with_capacity(rows_hint)).collect();
            }
            Some(e) if e != found => {
                return Err(CsvError::Shape {
                    line: lineno + 1,
                    column: e.min(found) + 1,
                    expected: e,
                    found,
                })
            }
            _ => {}
        }
        if header {
            header = false;
            continue;
        }
        rows += 1;
        let cells = interns.iter_mut().zip(&mut columns);
        for ((intern, labels), cell) in cells.zip(line.split(separator)) {
            let cell = cell.trim();
            labels.push(if cell == "?" || cell.is_empty() {
                None
            } else {
                let next = intern.len() as u32;
                Some(*intern.entry(cell).or_insert(next))
            });
        }
    }
    if rows == 0 {
        return Err(CsvError::Empty);
    }
    Ok(columns
        .into_iter()
        .map(PartialClustering::from_labels)
        .collect())
}

/// Parse a single-column label file into a total clustering (for
/// `aggclust eval --candidate`). Missing markers are not allowed.
pub fn parse_single_clustering(
    text: &str,
    separator: char,
    skip_header: bool,
) -> Result<Clustering, CsvError> {
    let partials = parse_label_matrix(text, separator, skip_header)?;
    // Use the first column; complete would be wrong for a candidate, so
    // missing cells become singletons (documented).
    Ok(partials[0].complete_with_singletons())
}

/// Render a clustering as one label per line.
pub fn render_labels(c: &Clustering) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(c.len() * 4);
    for v in 0..c.len() {
        // Writing to a `String` cannot fail.
        let _ = writeln!(out, "{}", c.label(v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_columns_into_clusterings() {
        let text = "a,x\na,y\nb,x\nb,?\n";
        let cs = parse_label_matrix(text, ',', false).unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].num_clusters(), 2);
        assert_eq!(cs[0].label(0), cs[0].label(1));
        assert_ne!(cs[0].label(0), cs[0].label(2));
        assert_eq!(cs[1].label(3), None);
        assert_eq!(cs[1].num_missing(), 1);
    }

    #[test]
    fn header_skipping() {
        let text = "alg1,alg2\n0,0\n0,1\n";
        let cs = parse_label_matrix(text, ',', true).unwrap();
        assert_eq!(cs[0].len(), 2);
    }

    #[test]
    fn a_skipped_header_still_sets_the_column_count() {
        let err = parse_label_matrix("a,b,c\n0,1\n", ',', true).unwrap_err();
        assert!(matches!(
            err,
            CsvError::Shape {
                line: 2,
                expected: 3,
                found: 2,
                ..
            }
        ));
        let cs = parse_label_matrix("\n a , b \n\n x , ? \n y,z\n", ',', true).unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].len(), 2);
        assert_eq!(cs[1].label(0), None);
        assert_eq!(cs[1].label(1), Some(0));
    }

    #[test]
    fn tsv_separator() {
        let text = "0\t1\n0\t1\n1\t0\n";
        let cs = parse_label_matrix(text, '\t', false).unwrap();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].len(), 3);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = parse_label_matrix("0,1\n0\n", ',', false).unwrap_err();
        assert!(matches!(
            err,
            CsvError::Shape {
                line: 2,
                column: 2,
                ..
            }
        ));
        assert_eq!(
            err.to_string(),
            "line 2, column 2: expected 2 columns, found 1"
        );
        let long = parse_label_matrix("0,1\n0,1,2\n", ',', false).unwrap_err();
        assert!(matches!(
            long,
            CsvError::Shape {
                line: 2,
                column: 3,
                ..
            }
        ));
    }

    #[test]
    fn csv_errors_convert_to_agg_errors() {
        let err = parse_label_matrix("0,1\n0\n", ',', false).unwrap_err();
        let agg: aggclust_core::AggError = err.into();
        assert!(matches!(
            agg,
            aggclust_core::AggError::Parse {
                line: 2,
                column: Some(2),
                ..
            }
        ));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            parse_label_matrix("", ',', false),
            Err(CsvError::Empty)
        ));
        assert!(matches!(
            parse_label_matrix("h1,h2\n", ',', true),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn labels_round_trip() {
        let c = Clustering::from_labels(vec![0, 1, 0, 2]);
        let text = render_labels(&c);
        let parsed = parse_single_clustering(&text, ',', false).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn empty_cells_are_missing() {
        let text = "0,\n1,2\n";
        let cs = parse_label_matrix(text, ',', false).unwrap();
        assert_eq!(cs[1].label(0), None);
    }
}
