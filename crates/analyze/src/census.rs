//! STK006, the surface census: every `pub` item of a library crate must
//! be named by a caller outside that crate.
//!
//! Unlike STK001–005 this rule is not a per-line needle: it reads the
//! whole tree at once. Its inputs are the scanned files' code channels,
//! so comments, doc examples and string literals never count.
//!
//! * **Checked**: `pub fn|struct|enum|trait|const|static|type|mod`
//!   declarations outside test regions in `crates/*/src`, except bin
//!   targets (`crates/*/src/bin/`).
//! * **Callers**: every file outside the declaring crate's library
//!   source: other crates, binaries, examples, paper bins, integration
//!   tests, the facade, `benchmark/src`. A `pub use` statement is a
//!   re-export, not a caller.
//! * **Interface exemption**: a name that appears in the declaration of
//!   another kept item of the same crate (a signature, a `pub` field, an
//!   enum variant, a trait item) is that item's interface, and is kept
//!   with it. Kept means named, exempt, or waived; the exemption runs to
//!   a fixpoint.

use crate::rules::Violation;
use crate::scan::SourceFile;
use std::collections::{HashMap, HashSet};

/// The rule id this module reports under.
pub(crate) const ID: &str = "STK006";

/// Item keywords the census checks, as they follow `pub`.
const KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
];

/// Census totals, printed in the lint summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    /// `pub` declarations checked.
    pub checked: usize,
    /// Named by a caller outside the crate, or the interface of a kept item.
    pub kept: usize,
    /// Kept by a `stkde-lint.allow` entry.
    pub waived: usize,
}

/// One checked declaration.
struct Item<'a> {
    krate: &'a str,
    file: &'a SourceFile,
    /// 0-based line index of the `pub` keyword.
    line: usize,
    name: String,
    /// Identifiers of the declaration text (the item's interface).
    iface: HashSet<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Open,
    Kept,
    Waived,
}

/// The library crate whose source holds `rel_path`, if any: the `<name>`
/// of `crates/<name>/src/…`, bin targets excluded.
fn lib_crate(rel_path: &str) -> Option<&str> {
    let rest = rel_path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    let src = tail.strip_prefix("src/")?;
    (!src.starts_with("bin/")).then_some(name)
}

/// Identifier tokens of a code-channel string (numeric literals skipped).
fn idents(code: &str) -> impl Iterator<Item = &str> {
    let mut rest = code;
    std::iter::from_fn(move || loop {
        let start = rest.find(|c: char| c.is_alphanumeric() || c == '_')?;
        let tail = &rest[start..];
        let len = tail
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        let tok = &tail[..len];
        rest = &tail[len..];
        if !tok.starts_with(|c: char| c.is_ascii_digit()) {
            return Some(tok);
        }
    })
}

/// Does this code line open a `pub use` (or `pub(…) use`) statement?
fn opens_pub_use(code: &str) -> bool {
    let Some(rest) = code.trim_start().strip_prefix("pub") else {
        return false;
    };
    let rest = rest.trim_start();
    let rest = match rest.strip_prefix('(') {
        Some(r) => r.split_once(')').map_or("", |(_, after)| after),
        None => rest,
    };
    rest.trim_start().starts_with("use ")
}

/// `(kind, name)` of a `pub` item declared on this code line.
fn declaration(code: &str) -> Option<(&str, &str)> {
    let rest = code.trim_start().strip_prefix("pub")?;
    // `pub(crate)` and friends are not `pub`; nor is `publish`.
    if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let mut toks = idents(rest).peekable();
    let mut kind = toks.next()?;
    loop {
        let qualifier = match kind {
            "unsafe" | "async" | "extern" => true,
            "const" => matches!(toks.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))),
            _ => false,
        };
        if !qualifier {
            break;
        }
        kind = toks.next()?;
    }
    KINDS.contains(&kind).then_some(())?;
    toks.next().map(|name| (kind, name))
}

/// Brace depth at the start of every line of `file`.
fn depths(file: &SourceFile) -> Vec<isize> {
    let mut depth = 0;
    file.lines
        .iter()
        .map(|l| {
            let at = depth;
            depth += l.code.matches('{').count() as isize - l.code.matches('}').count() as isize;
            at
        })
        .collect()
}

/// The text of an item's declaration: what a caller of the item must
/// be able to name.
fn interface(file: &SourceFile, depth: &[isize], line: usize, kind: &str) -> String {
    let lines = &file.lines;
    let mut text = String::new();
    // The header: up to the first `{` or `;`.
    let mut j = line;
    let opened = loop {
        let code = lines[j].code.as_str();
        let code = if j == line {
            code.split_once("pub").map_or(code, |(_, a)| a)
        } else {
            code
        };
        if let Some(at) = code.find(['{', ';']) {
            let (head, tail) = code.split_at(at);
            let head = match kind {
                "const" | "static" => head.split_once('=').map_or(head, |(h, _)| h),
                _ => head,
            };
            text.push_str(head);
            text.push(' ');
            break tail.starts_with('{');
        }
        text.push_str(code);
        text.push(' ');
        j += 1;
        if j == lines.len() {
            return text;
        }
    };
    if !opened || !matches!(kind, "struct" | "enum" | "trait") {
        return text;
    }
    // The body of a struct, enum or trait, one level in.
    let base = depth[j];
    let inner = |k: usize| depth.get(k).is_some_and(|&d| d > base);
    if !inner(j + 1) {
        // Opened and closed on one line.
        text.push_str(&lines[j].code);
        return text;
    }
    let mut k = j + 1;
    while inner(k) {
        let code = lines[k].code.as_str();
        let top = depth[k] == base + 1;
        match kind {
            "struct" if top => {
                let field = code.trim_start();
                if field.starts_with("pub ") {
                    text.push_str(field.split_once(':').map_or("", |(_, ty)| ty));
                }
            }
            "enum" => text.push_str(code),
            "trait" if top => text.push_str(code.split('{').next().unwrap_or("")),
            _ => {}
        }
        text.push(' ');
        k += 1;
    }
    text
}

/// Run the census over every scanned file. `waive` is asked about each
/// item no caller keeps (`rel_path`, raw declaration line) and answers
/// whether an allowlist entry covers it. Returns the totals and one
/// violation per item left unkept.
pub(crate) fn census(
    files: &[SourceFile],
    waive: &mut dyn FnMut(&str, &str) -> bool,
) -> (Census, Vec<Violation>) {
    // Name → library crates naming it, and whether any other file does.
    let mut named: HashMap<&str, (HashSet<&str>, bool)> = HashMap::new();
    let mut items = Vec::new();
    for file in files {
        let krate = lib_crate(&file.rel_path);
        let depth = krate.map(|_| depths(file));
        let mut in_pub_use = false;
        for (idx, line) in file.lines.iter().enumerate() {
            let code = line.code.as_str();
            if !in_pub_use && opens_pub_use(code) {
                in_pub_use = true;
            }
            if in_pub_use {
                in_pub_use = !code.contains(';');
            } else {
                for tok in idents(code) {
                    let entry = named.entry(tok).or_default();
                    match krate {
                        Some(k) => {
                            entry.0.insert(k);
                        }
                        None => entry.1 = true,
                    }
                }
            }
            let (Some(krate), Some(depth)) = (krate, depth.as_deref()) else {
                continue;
            };
            if line.in_test {
                continue;
            }
            if let Some((kind, name)) = declaration(code) {
                let iface = interface(file, depth, idx, kind);
                items.push(Item {
                    krate,
                    file,
                    line: idx,
                    name: name.to_string(),
                    iface: idents(&iface).map(str::to_string).collect(),
                });
            }
        }
    }

    let named_outside = |item: &Item| {
        named
            .get(item.name.as_str())
            .is_some_and(|(crates, other)| *other || crates.iter().any(|k| *k != item.krate))
    };
    let mut status: Vec<Status> = items
        .iter()
        .map(|it| {
            if named_outside(it) {
                Status::Kept
            } else {
                Status::Open
            }
        })
        .collect();
    loop {
        // Interface exemption to a fixpoint, then waivers; waived items'
        // interfaces are kept too, so repeat until neither moves.
        loop {
            let mut moved = false;
            for i in 0..items.len() {
                if status[i] != Status::Open {
                    continue;
                }
                let exempt = items.iter().zip(&status).any(|(k, s)| {
                    *s != Status::Open
                        && k.krate == items[i].krate
                        && k.iface.contains(&items[i].name)
                });
                if exempt {
                    status[i] = Status::Kept;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        let mut waived_any = false;
        for (item, s) in items.iter().zip(status.iter_mut()) {
            if *s == Status::Open && waive(&item.file.rel_path, &item.file.lines[item.line].raw) {
                *s = Status::Waived;
                waived_any = true;
            }
        }
        if !waived_any {
            break;
        }
    }

    let count = |want: Status| status.iter().filter(|s| **s == want).count();
    let totals = Census {
        checked: items.len(),
        kept: count(Status::Kept),
        waived: count(Status::Waived),
    };
    let violations = items
        .iter()
        .zip(&status)
        .filter(|(_, s)| **s == Status::Open)
        .map(|(item, _)| Violation {
            rule_id: ID,
            rel_path: item.file.rel_path.clone(),
            line: item.line + 1,
            excerpt: item.file.lines[item.line].raw.trim().to_string(),
        })
        .collect();
    (totals, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_are_parsed() {
        assert_eq!(declaration("pub fn run() {"), Some(("fn", "run")));
        assert_eq!(
            declaration("    pub const fn new() -> Self {"),
            Some(("fn", "new"))
        );
        assert_eq!(
            declaration("pub unsafe fn raw(p: *const u8)"),
            Some(("fn", "raw"))
        );
        assert_eq!(
            declaration("pub const LIMIT: usize = 4;"),
            Some(("const", "LIMIT"))
        );
        assert_eq!(
            declaration("pub struct Grid3<S> {"),
            Some(("struct", "Grid3"))
        );
        assert_eq!(declaration("pub mod prelude {"), Some(("mod", "prelude")));
        assert_eq!(declaration("pub(crate) fn hidden() {}"), None);
        assert_eq!(declaration("    pub count: usize,"), None);
        assert_eq!(declaration("pub use inner::Thing;"), None);
    }

    #[test]
    fn library_crates_exclude_bins() {
        assert_eq!(lib_crate("crates/core/src/lib.rs"), Some("core"));
        assert_eq!(lib_crate("crates/bench/src/bin/table2.rs"), None);
        assert_eq!(lib_crate("crates/core/tests/x.rs"), None);
        assert_eq!(lib_crate("src/lib.rs"), None);
    }

    #[test]
    fn pub_use_statements_are_recognised() {
        assert!(opens_pub_use("pub use a::b;"));
        assert!(opens_pub_use("    pub(crate) use a::{"));
        assert!(!opens_pub_use("use a::b;"));
        assert!(!opens_pub_use("pub fn user() {}"));
    }
}
