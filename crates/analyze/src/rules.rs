//! The rule catalog: repo-specific concurrency-hygiene rules as data.
//!
//! Each rule is a row in [`RULES`]: an id, the code-channel needles that
//! trigger it, the path set it applies to, an optional extra condition
//! (e.g. "a SAFETY comment must be nearby"), and a fix hint printed with
//! every diagnostic. Adding a rule is adding a row — the engine in
//! [`crate::lint`] is rule-agnostic. See `ANALYSIS.md` for the catalog
//! in prose and the policy for granting exceptions.

use crate::scan::SourceFile;

/// Extra condition a matched needle must *fail* to become a violation.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// The needle alone is the violation (allowlist-only exceptions).
    Always,
    /// Satisfied if a comment within the same or the `window` preceding
    /// lines contains one of the given markers (case-sensitive).
    NearbyCommentMarker {
        window: usize,
        markers: &'static [&'static str],
    },
    /// Not a per-line rule: the whole-tree census in [`crate::census`]
    /// reports it, and [`Rule::apply`] skips it.
    Census,
}

/// One lint rule.
#[derive(Debug)]
pub struct Rule {
    /// Stable id, e.g. `STK001`; allowlist entries reference it.
    pub id: &'static str,
    /// One-line statement of the rule.
    pub title: &'static str,
    /// Substrings matched against the code channel (strings/comments
    /// already blanked).
    pub needles: &'static [&'static str],
    /// Needles must match at word boundaries (for bare keywords).
    pub word_boundary: bool,
    /// Path prefixes the rule applies to; empty = the whole tree.
    pub include: &'static [&'static str],
    /// Path prefixes exempt from the rule.
    pub exclude: &'static [&'static str],
    /// Skip lines inside test regions / test targets.
    pub skip_test_code: bool,
    pub check: Check,
    /// Printed with each diagnostic.
    pub fix_hint: &'static str,
}

/// The workspace rule set.
pub const RULES: &[Rule] = &[
    Rule {
        id: "STK001",
        title: "`unsafe` without a SAFETY justification",
        needles: &["unsafe"],
        word_boundary: true,
        include: &[],
        exclude: &[],
        skip_test_code: false,
        check: Check::NearbyCommentMarker {
            window: 10,
            markers: &["SAFETY:", "# Safety", "Safety:"],
        },
        fix_hint: "add a `// SAFETY: <why the invariants hold>` comment directly above \
                   the unsafe block, or a `/// # Safety` section on an unsafe fn",
    },
    Rule {
        id: "STK002",
        title: "`Ordering::Relaxed` outside the audited allowlist",
        needles: &["Ordering::Relaxed"],
        word_boundary: false,
        include: &[],
        exclude: &[],
        skip_test_code: true,
        check: Check::Always,
        fix_hint: "use Acquire/Release/SeqCst, or record the site in stkde-lint.allow \
                   with the argument for why relaxed ordering is sufficient",
    },
    Rule {
        id: "STK003",
        title: "panic path (`unwrap`/`expect`/`panic!`) in hot-crate non-test code",
        needles: &[".unwrap()", ".expect(", "panic!("],
        word_boundary: false,
        include: &[
            "crates/core/src",
            "crates/grid/src",
            "crates/comm/src",
            "crates/server/src",
            "crates/obs/src",
        ],
        exclude: &[],
        skip_test_code: true,
        check: Check::Always,
        fix_hint: "return a typed error (StkdeError/ServeError) or handle the None; \
                   deliberate crash-on-corruption sites go in stkde-lint.allow with a reason",
    },
    Rule {
        id: "STK004",
        title: "raw thread spawn outside the sanctioned runtimes",
        needles: &["thread::spawn", "thread::Builder"],
        word_boundary: false,
        include: &[],
        exclude: &["shims/rayon/"],
        skip_test_code: true,
        check: Check::Always,
        fix_hint: "schedule work on the rayon pool (join/scope/install) or run ranks \
                   under comm::World; ad-hoc threads dodge the pool's \
                   panic propagation and shutdown story",
    },
    Rule {
        id: "STK005",
        title: "blocking `recv()` without a deadline in crates/comm",
        needles: &[".recv()"],
        word_boundary: false,
        include: &["crates/comm/"],
        exclude: &[],
        skip_test_code: true,
        check: Check::Always,
        fix_hint: "use recv_timeout with a per-operation deadline so a dead peer \
                   surfaces as a diagnosed failure instead of a hang",
    },
    Rule {
        id: crate::census::ID,
        title: "`pub` item named by no caller outside its crate",
        needles: &["pub "],
        word_boundary: false,
        include: &["crates/"],
        exclude: &[],
        skip_test_code: true,
        check: Check::Census,
        fix_hint: "make it `pub(crate)` or private (and delete what rustc then calls dead), \
                   or record the caller or invariant that keeps it `pub` in stkde-lint.allow",
    },
];

/// Look up a rule by id.
pub(crate) fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One diagnostic: a rule fired at a location.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule_id: &'static str,
    pub rel_path: String,
    pub line: usize,
    pub excerpt: String,
}

impl Violation {
    /// `file:line: [ID] title` — the stable diagnostic format the fixture
    /// tests assert on.
    pub fn render(&self) -> String {
        let title = rule_by_id(self.rule_id).map(|r| r.title).unwrap_or("");
        format!(
            "{}:{}: [{}] {}",
            self.rel_path, self.line, self.rule_id, title
        )
    }
}

impl Rule {
    /// Does this rule apply to `rel_path` at all?
    pub(crate) fn applies_to(&self, rel_path: &str) -> bool {
        if !self.include.is_empty() && !self.include.iter().any(|p| rel_path.starts_with(p)) {
            return false;
        }
        !self.exclude.iter().any(|p| rel_path.starts_with(p))
    }

    /// Run this rule over a scanned file, appending violations.
    pub(crate) fn apply(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        if matches!(self.check, Check::Census) || !self.applies_to(&file.rel_path) {
            return;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if self.skip_test_code && line.in_test {
                continue;
            }
            let hit = self.needles.iter().any(|n| {
                if self.word_boundary {
                    contains_word(&line.code, n)
                } else {
                    line.code.contains(n)
                }
            });
            if !hit {
                continue;
            }
            if let Check::NearbyCommentMarker { window, markers } = self.check {
                let lo = idx.saturating_sub(window);
                let justified = file.lines[lo..=idx]
                    .iter()
                    .any(|l| markers.iter().any(|m| l.comment.contains(m)));
                if justified {
                    continue;
                }
            }
            out.push(Violation {
                rule_id: self.id,
                rel_path: file.rel_path.clone(),
                line: line.number,
                excerpt: line.raw.trim().to_string(),
            });
        }
    }
}

/// `haystack` contains `needle` delimited by non-identifier chars.
fn contains_word(haystack: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre_ok = start == 0
            || !haystack[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let post_ok = !haystack[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    #[test]
    fn rule_ids_are_unique_and_hinted() {
        let mut ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len(), "duplicate rule id");
        for r in RULES {
            assert!(!r.fix_hint.is_empty(), "{} needs a fix hint", r.id);
            assert!(!r.needles.is_empty(), "{} needs needles", r.id);
        }
    }

    #[test]
    fn word_boundary_matching() {
        assert!(contains_word("let x = unsafe { y }", "unsafe"));
        assert!(!contains_word("let un_safe = 1;", "unsafe"));
        assert!(!contains_word("maybe_unsafe()", "unsafe"));
        assert!(contains_word("unsafe{}", "unsafe"));
    }

    #[test]
    fn safety_comment_window_suppresses_stk001() {
        let src = "// SAFETY: the buffer outlives the call.\nlet v = unsafe { read(p) };";
        let file = scan_source("crates/x/src/a.rs", src, false);
        let mut out = Vec::new();
        rule_by_id("STK001").unwrap().apply(&file, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn naked_unsafe_fires_stk001() {
        let file = scan_source("crates/x/src/a.rs", "let v = unsafe { read(p) };", false);
        let mut out = Vec::new();
        rule_by_id("STK001").unwrap().apply(&file, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn stk003_only_fires_in_hot_crates() {
        let src = "fn f() { x.unwrap(); }";
        let mut out = Vec::new();
        let rule = rule_by_id("STK003").unwrap();
        rule.apply(&scan_source("crates/core/src/a.rs", src, false), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        rule.apply(&scan_source("crates/obs/src/a.rs", src, false), &mut out);
        assert_eq!(out.len(), 1, "obs is a hot crate too");
        out.clear();
        rule.apply(&scan_source("crates/bench/src/a.rs", src, false), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stk004_excludes_the_runtimes() {
        let src = "std::thread::spawn(|| {});";
        let rule = rule_by_id("STK004").unwrap();
        let mut out = Vec::new();
        rule.apply(
            &scan_source("shims/rayon/src/registry.rs", src, false),
            &mut out,
        );
        assert!(out.is_empty());
        rule.apply(&scan_source("crates/data/src/x.rs", src, false), &mut out);
        assert_eq!(out.len(), 1);
    }
}
