//! Matrix Market coordinate-format I/O.
//!
//! Supports the subset of the [Matrix Market exchange format] used by the
//! sparse-matrix collections the paper draws its test cases from:
//! `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` (pattern entries are
//! read with value `1.0`).
//!
//! [Matrix Market exchange format]: https://math.nist.gov/MatrixMarket/formats.html
//!
//! # Example
//!
//! ```
//! use sass_sparse::{CooMatrix, mmio};
//!
//! # fn main() -> Result<(), sass_sparse::SparseError> {
//! let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n2 2 2.0\n2 1 -1.0\n";
//! let a = mmio::read_str(text)?.to_csr();
//! assert_eq!(a.get(0, 1), -1.0); // symmetric storage is expanded
//! let round_trip = mmio::write_string(&a)?;
//! assert!(round_trip.starts_with("%%MatrixMarket"));
//! # Ok(())
//! # }
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::{CooMatrix, CsrMatrix, Result, SparseError};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Upper bound on the entries [`read`] reserves from the size line before
/// any entry is parsed.
const MAX_PREALLOC_ENTRIES: usize = 1 << 20;

fn parse_err(line: usize, message: impl Into<String>) -> SparseError {
    SparseError::ParseMatrixMarket {
        line,
        message: message.into(),
    }
}

/// Reads a Matrix Market matrix from any reader.
///
/// Symmetric files are expanded to full storage (both triangles) so the
/// result can be used directly with the CSR kernels in this crate.
///
/// # Errors
///
/// Returns [`SparseError::ParseMatrixMarket`] for malformed input and
/// [`SparseError::Io`] for read failures.
pub fn read<R: Read>(reader: R) -> Result<CooMatrix> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines().enumerate();

    // Header line.
    let (lineno, header) = match lines.next() {
        Some((i, l)) => (i + 1, l?),
        None => return Err(parse_err(1, "empty file")),
    };
    let toks: Vec<&str> = header.split_whitespace().collect();
    if toks.len() < 5 || !toks[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(parse_err(lineno, "missing %%MatrixMarket header"));
    }
    if !toks[1].eq_ignore_ascii_case("matrix") || !toks[2].eq_ignore_ascii_case("coordinate") {
        return Err(parse_err(
            lineno,
            "only `matrix coordinate` files are supported",
        ));
    }
    let field = match toks[3].to_ascii_lowercase().as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(parse_err(lineno, format!("unsupported field `{other}`"))),
    };
    let symmetry = match toks[4].to_ascii_lowercase().as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => return Err(parse_err(lineno, format!("unsupported symmetry `{other}`"))),
    };

    // Size line (skipping comments and blanks).
    let (mut nrows, mut ncols, mut nnz) = (0usize, 0usize, 0usize);
    let mut have_size = false;
    let mut size_line = 0usize;
    for (i, line) in &mut lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(parse_err(i + 1, "size line must have 3 fields"));
        }
        nrows = parts[0]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad row count"))?;
        ncols = parts[1]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad column count"))?;
        nnz = parts[2]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad nnz count"))?;
        have_size = true;
        size_line = i + 1;
        break;
    }
    if !have_size {
        return Err(parse_err(size_line + 1, "missing size line"));
    }

    // The header's entry count is untrusted: reserve at most
    // `MAX_PREALLOC_ENTRIES` up front and let the vectors grow, so a
    // lying header fails the entry-count check below instead of
    // overflowing or exhausting memory here.
    let expanded = match symmetry {
        Symmetry::Symmetric => nnz.saturating_mul(2),
        Symmetry::General => nnz,
    };
    let mut coo = CooMatrix::with_capacity(nrows, ncols, expanded.min(MAX_PREALLOC_ENTRIES));
    let mut read_entries = 0usize;
    for (i, line) in &mut lines {
        if read_entries == nnz {
            break;
        }
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = t.split_whitespace().collect();
        let expect = if field == Field::Pattern { 2 } else { 3 };
        if parts.len() < expect {
            return Err(parse_err(
                i + 1,
                format!("entry line needs {expect} fields"),
            ));
        }
        let r: usize = parts[0]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad row index"))?;
        let c: usize = parts[1]
            .parse()
            .map_err(|_| parse_err(i + 1, "bad column index"))?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(parse_err(i + 1, "index out of bounds (1-based)"));
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => parts[2]
                .parse::<f64>()
                .map_err(|_| parse_err(i + 1, "bad value"))?,
        };
        let (r, c) = (r - 1, c - 1);
        coo.push(r, c, v);
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c, r, v);
        }
        read_entries += 1;
    }
    if read_entries != nnz {
        return Err(parse_err(
            0,
            format!("expected {nnz} entries, found {read_entries}"),
        ));
    }
    Ok(coo)
}

/// Reads a Matrix Market matrix from a string.
///
/// # Errors
///
/// See [`read`].
pub fn read_str(text: &str) -> Result<CooMatrix> {
    read(text.as_bytes())
}

/// Reads a Matrix Market matrix from a file path.
///
/// # Errors
///
/// See [`read`]; additionally fails with [`SparseError::Io`] if the file
/// cannot be opened.
pub fn read_path<P: AsRef<Path>>(path: P) -> Result<CooMatrix> {
    let file = std::fs::File::open(path)?;
    read(file)
}

/// Writes a matrix in `coordinate real general` format.
///
/// # Errors
///
/// Returns [`SparseError::Io`] on write failure.
pub fn write<W: Write>(a: &CsrMatrix, mut writer: W) -> Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (c, v) in cols.iter().zip(vals) {
            writeln!(writer, "{} {} {:.17e}", i + 1, *c as usize + 1, v)?;
        }
    }
    Ok(())
}

/// Writes a symmetric matrix in `coordinate real symmetric` format (lower
/// triangle only — half the file size of [`write()`] for Laplacians).
///
/// # Errors
///
/// Returns [`SparseError::NotSymmetric`] if the matrix is not symmetric to
/// `1e-12` relative tolerance, or [`SparseError::Io`] on write failure.
pub fn write_symmetric<W: Write>(a: &CsrMatrix, mut writer: W) -> Result<()> {
    if !a.is_symmetric(1e-12) {
        return Err(SparseError::NotSymmetric);
    }
    let lower_nnz = (0..a.nrows())
        .map(|i| {
            let (cols, _) = a.row(i);
            cols.iter().filter(|&&c| (c as usize) <= i).count()
        })
        .sum::<usize>();
    writeln!(writer, "%%MatrixMarket matrix coordinate real symmetric")?;
    writeln!(writer, "{} {} {}", a.nrows(), a.ncols(), lower_nnz)?;
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (c, v) in cols.iter().zip(vals) {
            if (*c as usize) <= i {
                writeln!(writer, "{} {} {:.17e}", i + 1, *c as usize + 1, v)?;
            }
        }
    }
    Ok(())
}

/// Writes a matrix to a Matrix Market string.
///
/// # Errors
///
/// See [`write()`].
pub fn write_string(a: &CsrMatrix) -> Result<String> {
    let mut out = Vec::new();
    write(a, &mut out)?;
    match String::from_utf8(out) {
        Ok(s) => Ok(s),
        // `write` emits only ASCII digits, signs, exponents, and spaces.
        Err(_) => unreachable!("matrix market output is ASCII"),
    }
}

/// Writes a matrix to a file path.
///
/// # Errors
///
/// See [`write()`]; additionally fails if the file cannot be created.
pub fn write_path<P: AsRef<Path>>(a: &CsrMatrix, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write(a, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_symmetric_and_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    3 3 4\n\
                    1 1 2.0\n2 2 2.0\n3 3 2.0\n3 1 -1.5\n";
        let a = read_str(text).unwrap().to_csr();
        assert_eq!(a.get(2, 0), -1.5);
        assert_eq!(a.get(0, 2), -1.5);
        assert_eq!(a.nnz(), 5);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn reads_pattern_files() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let a = read_str(text).unwrap().to_csr();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
    }

    #[test]
    fn round_trip_preserves_matrix() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.25);
        coo.push(1, 2, -3.5);
        coo.push(2, 2, 0.0625);
        let a = coo.to_csr();
        let text = write_string(&a).unwrap();
        let b = read_str(&text).unwrap().to_csr();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_str("nonsense\n1 1 0\n").is_err());
        assert!(read_str("%%MatrixMarket matrix array real general\n1 1 0\n").is_err());
        assert!(read_str("").is_err());
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        let err = read_str(text).unwrap_err();
        assert!(matches!(err, SparseError::ParseMatrixMarket { .. }));
    }

    #[test]
    fn rejects_truncated_file() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_str(text).is_err());
    }

    /// A size line claiming far more entries than the file holds must be
    /// rejected by the entry-count check, not abort while preallocating.
    #[test]
    fn rejects_oversized_entry_count_headers() {
        for header in [
            "%%MatrixMarket matrix coordinate real general\n2 2 18446744073709551615\n",
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 100000000000\n",
        ] {
            let text = format!("{header}1 1 1.0\n");
            let err = read_str(&text).unwrap_err();
            assert!(
                matches!(err, SparseError::ParseMatrixMarket { .. }),
                "{header:?}: {err:?}"
            );
        }
    }

    #[test]
    fn integer_field_parses() {
        let text = "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n";
        let a = read_str(text).unwrap().to_csr();
        assert_eq!(a.get(0, 0), 7.0);
    }

    #[test]
    fn symmetric_write_round_trips() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 2, 4.0);
        coo.push_sym(0, 1, -1.0);
        coo.push_sym(1, 2, -2.0);
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_symmetric(&a, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("symmetric"));
        let b = read_str(&text).unwrap().to_csr();
        assert_eq!(a, b);
        // Half storage: 5 entries instead of 7.
        assert!(text.lines().count() == 2 + 5);
    }

    #[test]
    fn symmetric_write_rejects_asymmetric() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        let a = coo.to_csr();
        let mut buf = Vec::new();
        assert!(matches!(
            write_symmetric(&a, &mut buf),
            Err(SparseError::NotSymmetric)
        ));
    }
}
