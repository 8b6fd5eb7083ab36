//! The lint engine: walk a tree, run every rule, apply the allowlist.

use crate::allowlist::Entry;
use crate::census::{self, Census};
use crate::rules::{Violation, RULES};
use crate::scan;
use std::collections::HashMap;
use std::path::Path;

/// Result of linting a tree.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Violations not covered by any allowlist entry.
    pub violations: Vec<Violation>,
    /// Allowlist entries that matched nothing (stale waivers).
    pub stale_entries: Vec<Entry>,
    /// Violations waived by the allowlist.
    pub suppressed: usize,
    pub files_scanned: usize,
    /// STK006 totals over the library crates.
    pub census: Census,
}

impl LintOutcome {
    /// Clean = nothing to report: no live violations, no stale waivers.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_entries.is_empty()
    }

    /// Human-readable report, one diagnostic per line plus a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.render());
            out.push('\n');
            out.push_str(&format!("    {}\n", v.excerpt));
            if let Some(rule) = crate::rules::rule_by_id(v.rule_id) {
                out.push_str(&format!("    hint: {}\n", rule.fix_hint));
            }
        }
        for e in &self.stale_entries {
            out.push_str(&format!(
                "stkde-lint.allow:{}: stale waiver matches nothing: `{e}`\n",
                e.line
            ));
        }
        out.push_str(&format!(
            "stkde-lint: STK006 census: {} pub item(s) checked: {} kept by product callers, {} test support, {} waived\n",
            self.census.checked, self.census.kept, self.census.support, self.census.waived
        ));
        out.push_str(&format!(
            "stkde-lint: {} file(s), {} violation(s), {} waived, {} stale waiver(s)\n",
            self.files_scanned,
            self.violations.len(),
            self.suppressed,
            self.stale_entries.len()
        ));
        out
    }
}

/// Lint every `.rs` file under `root` against [`RULES`], waiving matches
/// through `entries`.
pub fn lint_tree(root: &Path, entries: &[Entry]) -> std::io::Result<LintOutcome> {
    let files = scan::collect_rust_files(root)?;
    let mut outcome = LintOutcome {
        files_scanned: files.len(),
        ..Default::default()
    };
    let mut used = vec![false; entries.len()];
    let mut scanned = Vec::with_capacity(files.len());
    for path in &files {
        let file = scan::scan_file(root, path)?;
        let mut raw_hits = Vec::new();
        for rule in RULES {
            rule.apply(&file, &mut raw_hits);
        }
        for v in raw_hits {
            let raw_line = file
                .lines
                .get(v.line - 1)
                .map(|l| l.raw.as_str())
                .unwrap_or("");
            let waived = entries
                .iter()
                .enumerate()
                .find(|(_, e)| e.matches(v.rule_id, &v.rel_path, raw_line));
            match waived {
                Some((i, _)) => {
                    used[i] = true;
                    outcome.suppressed += 1;
                }
                None => outcome.violations.push(v),
            }
        }
        scanned.push(file);
    }
    let packages = package_names(root);
    let (totals, unkept) = census::census(&scanned, &packages, &mut |rel_path, raw_line| {
        let hit = entries
            .iter()
            .position(|e| e.matches(census::ID, rel_path, raw_line));
        if let Some(i) = hit {
            used[i] = true;
        }
        hit.is_some()
    });
    outcome.census = totals;
    outcome.suppressed += totals.waived;
    outcome.violations.extend(unkept);
    outcome.stale_entries = entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e.clone())
        .collect();
    Ok(outcome)
}

/// The crate name of every package by directory (`""` for the root,
/// `crates/<dir>` for a member): its manifest's first `name`, `-` as `_`.
fn package_names(root: &Path) -> HashMap<String, String> {
    let members = std::fs::read_dir(root.join("crates")).into_iter().flatten();
    let dirs = members
        .flatten()
        .map(|m| format!("crates/{}", m.file_name().to_string_lossy()));
    std::iter::once(String::new())
        .chain(dirs)
        .filter_map(|dir| {
            let manifest = std::fs::read_to_string(root.join(&dir).join("Cargo.toml")).ok()?;
            let name = manifest.lines().find_map(|l| l.strip_prefix("name = \""))?;
            Some((dir, name.trim_end_matches('"').replace('-', "_")))
        })
        .collect()
}
