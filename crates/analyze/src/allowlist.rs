//! The accepted-exceptions file: `stkde-lint.allow`.
//!
//! Every granted exception is one line:
//!
//! ```text
//! RULE_ID PATH :: LINE_SUBSTRING :: REASON
//! ```
//!
//! * `RULE_ID` — which rule the exception is for (`STK003`, ...).
//! * `PATH` — workspace-relative path the exception applies to, or `*`
//!   for any path the rule covers (used for idioms like
//!   `.lock().unwrap()` that are policy everywhere).
//! * `LINE_SUBSTRING` — matched against the raw source line; an entry
//!   may legitimately cover several sites (e.g. every stats counter in
//!   one file).
//! * `REASON` — mandatory; the written-down argument for why the rule
//!   does not apply. An entry without a reason is a parse error.
//!
//! Entries that match nothing are *stale* and fail the lint: when the
//! code a waiver covered is fixed or deleted, the waiver must go too.

use std::fmt;
use std::path::Path;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// 1-based line in the allowlist file (for diagnostics).
    pub line: usize,
    pub rule_id: String,
    /// `*` or a path prefix.
    pub path: String,
    pub needle: String,
    pub reason: String,
}

impl Entry {
    /// Does this entry waive `v`? Path `*` matches anywhere; otherwise
    /// prefix match, so a directory grants its whole subtree.
    pub(crate) fn matches(&self, rule_id: &str, rel_path: &str, raw_line: &str) -> bool {
        self.rule_id == rule_id
            && (self.path == "*" || rel_path.starts_with(&self.path))
            && raw_line.contains(&self.needle)
    }
}

impl fmt::Display for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} :: {} :: {}",
            self.rule_id, self.path, self.needle, self.reason
        )
    }
}

/// A malformed allowlist line.
#[derive(Debug)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "allowlist line {}: {}", self.line, self.message)
    }
}

/// Parse allowlist text. Blank lines and `#` comments are skipped.
pub(crate) fn parse(text: &str) -> Result<Vec<Entry>, ParseError> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.splitn(3, " :: ");
        let head = fields.next().unwrap_or("").trim();
        let needle = fields.next().map(str::trim).unwrap_or("");
        let reason = fields.next().map(str::trim).unwrap_or("");
        let (rule_id, path) = match head.split_once(char::is_whitespace) {
            Some((r, p)) => (r.trim(), p.trim()),
            None => {
                return Err(ParseError {
                    line,
                    message: "expected `RULE_ID PATH :: SUBSTRING :: REASON`".into(),
                })
            }
        };
        if crate::rules::rule_by_id(rule_id).is_none() {
            return Err(ParseError {
                line,
                message: format!("unknown rule id `{rule_id}`"),
            });
        }
        if needle.is_empty() {
            return Err(ParseError {
                line,
                message: "empty line-substring field".into(),
            });
        }
        if reason.is_empty() {
            return Err(ParseError {
                line,
                message: "an exception without a reason is not an exception".into(),
            });
        }
        entries.push(Entry {
            line,
            rule_id: rule_id.to_string(),
            path: path.to_string(),
            needle: needle.to_string(),
            reason: reason.to_string(),
        });
    }
    Ok(entries)
}

/// Load and parse an allowlist file; a missing file is an empty list.
pub fn load(path: &Path) -> Result<Vec<Entry>, ParseError> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(ParseError {
            line: 0,
            message: format!("reading {}: {e}", path.display()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_skips_comments() {
        let text = "# policy waivers\n\n\
                    STK003 * :: .lock().unwrap() :: poisoning is a crash-worthy bug\n\
                    STK002 crates/server/src/service.rs :: Ordering::Relaxed :: monotonic counters\n";
        let entries = parse(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule_id, "STK003");
        assert_eq!(entries[0].path, "*");
        assert!(entries[1].path.starts_with("crates/server"));
    }

    #[test]
    fn entry_matching() {
        let e = Entry {
            line: 1,
            rule_id: "STK003".into(),
            path: "crates/comm/".into(),
            needle: ".expect(".into(),
            reason: "r".into(),
        };
        assert!(e.matches("STK003", "crates/comm/src/world.rs", "x.expect(\"y\")"));
        assert!(!e.matches("STK003", "crates/core/src/a.rs", "x.expect(\"y\")"));
        assert!(!e.matches("STK002", "crates/comm/src/world.rs", "x.expect(\"y\")"));
        assert!(!e.matches("STK003", "crates/comm/src/world.rs", "x.unwrap()"));
    }

    #[test]
    fn reason_is_mandatory() {
        assert!(parse("STK003 * :: .unwrap() ::  \n").is_err());
        assert!(parse("STK003 * :: .unwrap()\n").is_err());
    }

    #[test]
    fn unknown_rule_is_an_error() {
        assert!(parse("STK999 * :: x :: y\n").is_err());
    }

    /// Allowlist parsing: reasons are mandatory, rule ids must exist.
    #[test]
    fn allowlist_grammar_is_strict() {
        assert!(parse("STK003 * :: .unwrap() :: poisoning propagation is deliberate").is_ok());
        let no_reason = parse("STK003 * :: .unwrap()");
        assert!(no_reason.is_err());
        assert!(
            no_reason.unwrap_err().to_string().contains("reason"),
            "error must say the reason is missing"
        );
        assert!(parse("STK042 * :: x :: bogus rule").is_err());
    }
}
