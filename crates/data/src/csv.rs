//! Plain CSV I/O for point sets (`x,y,t` rows, optional header).

use crate::point::Point;
use crate::pointset::PointSet;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors raised while reading point CSV data.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed row (line number, description).
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Read `x,y,t` rows from a reader. A first line that does not parse as
/// numbers is treated as a header and skipped. Blank lines are ignored.
pub(crate) fn read_points<R: Read>(reader: R) -> Result<PointSet, CsvError> {
    let mut points = Vec::new();
    let buf = BufReader::new(reader);
    for (i, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match parse_row(trimmed) {
            Ok(p) => points.push(p),
            Err(msg) if i == 0 => {
                // Permit a header row.
                let looks_like_header =
                    trimmed.split(',').all(|f| f.trim().parse::<f64>().is_err());
                if !looks_like_header {
                    return Err(CsvError::Parse {
                        line: i + 1,
                        message: msg,
                    });
                }
            }
            Err(msg) => {
                return Err(CsvError::Parse {
                    line: i + 1,
                    message: msg,
                })
            }
        }
    }
    Ok(PointSet::from_vec(points))
}

fn parse_row(row: &str) -> Result<Point, String> {
    let mut it = row.split(',');
    let mut next = |name: &str| -> Result<f64, String> {
        it.next()
            .ok_or_else(|| format!("missing {name} column"))?
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("bad {name}: {e}"))
    };
    let x = next("x")?;
    let y = next("y")?;
    let t = next("t")?;
    if it.next().is_some() {
        return Err("too many columns (expected x,y,t)".to_string());
    }
    Ok(Point::new(x, y, t))
}

/// Write a point set as `x,y,t` rows with a header.
pub(crate) fn write_points<W: Write>(points: &PointSet, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(b"x,y,t\n")?;
    for p in points {
        writeln!(w, "{},{},{}", p.x, p.y, p.t)?;
    }
    w.flush()
}

/// Load a point set from a CSV file.
pub fn load(path: &Path) -> Result<PointSet, CsvError> {
    read_points(std::fs::File::open(path)?)
}

/// Save a point set to a CSV file.
pub fn save(points: &PointSet, path: &Path) -> io::Result<()> {
    write_points(points, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_memory() {
        let ps = PointSet::from_vec(vec![Point::new(1.5, -2.0, 3.25), Point::new(0.0, 0.0, 0.0)]);
        let mut buf = Vec::new();
        write_points(&ps, &mut buf).unwrap();
        let back = read_points(&buf[..]).unwrap();
        assert_eq!(back, ps);
    }

    #[test]
    fn header_is_skipped() {
        let data = "x,y,t\n1,2,3\n";
        let ps = read_points(data.as_bytes()).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps.as_slice()[0], Point::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn headerless_first_row_parses() {
        let ps = read_points("4,5,6\n7,8,9\n".as_bytes()).unwrap();
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn blank_lines_ignored() {
        let ps = read_points("1,2,3\n\n  \n4,5,6\n".as_bytes()).unwrap();
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn bad_row_reports_line_number() {
        let err = read_points("1,2,3\n1,oops,3\n".as_bytes()).unwrap_err();
        match err {
            CsvError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("bad y"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn wrong_arity_is_error() {
        assert!(read_points("1,2\n".as_bytes()).is_err());
        assert!(read_points("1,2,3,4\n".as_bytes()).is_err());
    }

    #[test]
    fn mixed_header_like_second_line_is_error() {
        assert!(read_points("1,2,3\nx,y,t\n".as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("stkde_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pts.csv");
        let ps = PointSet::from_vec(vec![Point::new(9.0, 8.0, 7.0)]);
        save(&ps, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, ps);
        std::fs::remove_file(path).ok();
    }
}
