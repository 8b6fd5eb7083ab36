//! Line/token-level Rust source scanner.
//!
//! `stkde-lint` cannot use `syn` (crates.io is unreachable from the build
//! environment), so rules match against a *lexed view* of each line
//! instead of raw text: string literals, char literals, and comments are
//! blanked out of the code channel, comment text is extracted into its
//! own channel, and `#[cfg(test)]` / `#[test]` regions are tracked by
//! brace depth. That is enough to keep needle matching honest — the word
//! `unsafe` inside a doc comment or a string literal never triggers a
//! rule, and rules that only apply to non-test code skip test modules.
//!
//! The scanner is conservative where Rust's grammar is genuinely hairy
//! (e.g. it distinguishes lifetimes from char literals with a two-char
//! lookahead); the unit tests in this module pin the cases the rule set
//! relies on.

use std::path::{Path, PathBuf};

/// One scanned source line, split into channels.
#[derive(Debug, Clone)]
pub(crate) struct Line {
    /// Line number, 1-based.
    pub number: usize,
    /// The raw line as written.
    pub raw: String,
    /// Code channel: the raw line with strings, chars, and comments
    /// blanked (replaced by spaces, preserving column positions).
    pub code: String,
    /// Comment channel: the concatenated text of every comment that
    /// overlaps this line (line, block, and doc comments).
    pub comment: String,
    /// True when the line sits inside a `#[cfg(test)]` or `#[test]`
    /// region, or the whole file is a test/bench target.
    pub in_test: bool,
    /// True when the line sits inside a region gated on a test-support
    /// feature ([`SUPPORT_FEATURES`]), such as
    /// `#[cfg(any(test, feature = "testkit"))]`: code the product builds
    /// without, that tests of other crates turn on.
    pub in_support: bool,
}

/// The features that gate test support: each crate's `testkit`, and the
/// model checker's `model` seam (stkde-grid's predates the test kits).
pub(crate) const SUPPORT_FEATURES: &[&str] = &["testkit", "model"];

/// A scanned file: path relative to the scan root plus its lines.
#[derive(Debug)]
pub(crate) struct SourceFile {
    pub rel_path: String,
    pub lines: Vec<Line>,
}

/// Lexer state that survives across lines.
#[derive(Default)]
struct LexState {
    /// Nesting depth of `/* */` block comments (they nest in Rust).
    block_comment: usize,
    /// Inside a regular `"..."` string (they may span lines).
    in_string: bool,
    /// Inside a raw string; the payload is the `#` count of its opener.
    raw_string: Option<usize>,
}

/// Region tracker: an attribute it `marks` arms it (for test regions a
/// `#[cfg(test)]`/`#[test]`), the next opening brace at the recorded
/// depth starts the region, and the region ends when brace depth returns
/// to its starting value. An attribute on a brace-less item (a field, a
/// `let`, a `mod x;`) covers only that item: a `;` or `,` outside
/// parentheses disarms it.
struct RegionTracker {
    /// Whether a line (code channel, raw text) carries an arming attribute.
    marks: fn(&str, &str) -> bool,
    depth: isize,
    /// An arming attribute was seen; the next braced item is a region.
    armed: bool,
    /// Parenthesis/bracket nesting since the tracker armed.
    parens: isize,
    /// Depth at which the active region was opened.
    region_floor: Option<isize>,
}

impl RegionTracker {
    fn new(marks: fn(&str, &str) -> bool) -> Self {
        RegionTracker {
            marks,
            depth: 0,
            armed: false,
            parens: 0,
            region_floor: None,
        }
    }

    fn observe(&mut self, code: &str, raw: &str) -> bool {
        if (self.marks)(code, raw) && self.region_floor.is_none() {
            self.armed = true;
            self.parens = 0;
        }
        let mut line_is_test = self.region_floor.is_some() || self.armed;
        for ch in code.chars() {
            match ch {
                '(' | '[' if self.armed => self.parens += 1,
                ')' | ']' if self.armed => self.parens -= 1,
                ';' | ',' if self.armed && self.parens == 0 => self.armed = false,
                '{' => {
                    if self.armed && self.region_floor.is_none() {
                        self.region_floor = Some(self.depth);
                        self.armed = false;
                    }
                    self.depth += 1;
                }
                '}' => {
                    self.depth -= 1;
                    if let Some(floor) = self.region_floor {
                        if self.depth <= floor {
                            self.region_floor = None;
                            // The closing line itself still counts as test.
                            line_is_test = true;
                        }
                    }
                }
                _ => {}
            }
        }
        line_is_test
    }
}

/// Scan one file's contents into lines. `whole_file_is_test` marks every
/// line as test code (used for `tests/` and `benches/` targets).
pub(crate) fn scan_source(rel_path: &str, contents: &str, whole_file_is_test: bool) -> SourceFile {
    let mut lex = LexState::default();
    let mut tests = RegionTracker::new(|code, _| {
        code.contains("#[cfg(test)]") || code.contains("#[test]") || code.contains("#[cfg(all(test")
    });
    // The feature name is a string literal, blanked in the code channel:
    // the code channel says it is an attribute, the raw line which one.
    let mut support = RegionTracker::new(|code, raw| {
        code.trim_start().starts_with("#[cfg(")
            && !code.contains("not(")
            && SUPPORT_FEATURES
                .iter()
                .any(|f| raw.contains(&format!("feature = \"{f}\"")))
    });
    let mut lines = Vec::new();
    for (idx, raw) in contents.lines().enumerate() {
        let (code, comment) = split_channels(raw, &mut lex);
        let in_test = tests.observe(&code, raw) || whole_file_is_test;
        let in_support = support.observe(&code, raw);
        lines.push(Line {
            number: idx + 1,
            raw: raw.to_string(),
            code,
            comment,
            in_test,
            in_support,
        });
    }
    SourceFile {
        rel_path: rel_path.to_string(),
        lines,
    }
}

/// Split one raw line into (code-with-blanks, comment-text), advancing
/// the cross-line lexer state.
fn split_channels(raw: &str, lex: &mut LexState) -> (String, String) {
    let bytes: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let mut i = 0;
    while i < bytes.len() {
        // Continuations of multi-line constructs first.
        if lex.block_comment > 0 {
            let ch = bytes[i];
            if ch == '/' && bytes.get(i + 1) == Some(&'*') {
                lex.block_comment += 1;
                code.push_str("  ");
                i += 2;
                continue;
            }
            if ch == '*' && bytes.get(i + 1) == Some(&'/') {
                lex.block_comment -= 1;
                code.push_str("  ");
                i += 2;
                continue;
            }
            comment.push(ch);
            code.push(' ');
            i += 1;
            continue;
        }
        if lex.in_string {
            let ch = bytes[i];
            if ch == '\\' {
                code.push_str("  ");
                i += 2;
                continue;
            }
            if ch == '"' {
                lex.in_string = false;
                code.push('"');
            } else {
                code.push(' ');
            }
            i += 1;
            continue;
        }
        if let Some(hashes) = lex.raw_string {
            // Look for `"###` with the right number of hashes.
            if bytes[i] == '"' && closes_raw(&bytes, i + 1, hashes) {
                lex.raw_string = None;
                code.push('"');
                for _ in 0..hashes {
                    code.push(' ');
                }
                i += 1 + hashes;
            } else {
                code.push(' ');
                i += 1;
            }
            continue;
        }

        let ch = bytes[i];
        match ch {
            '/' if bytes.get(i + 1) == Some(&'/') => {
                // Line comment (incl. /// and //!): rest of line.
                comment.push_str(&raw[char_offset(raw, i)..]);
                while code.len() < raw.len() {
                    code.push(' ');
                }
                break;
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                lex.block_comment += 1;
                code.push_str("  ");
                i += 2;
            }
            '"' => {
                lex.in_string = true;
                code.push('"');
                i += 1;
            }
            'r' | 'b' if starts_raw_string(&bytes, i) => {
                let (hashes, consumed) = raw_string_open(&bytes, i);
                lex.raw_string = Some(hashes);
                for _ in 0..consumed {
                    code.push(' ');
                }
                i += consumed;
            }
            'b' if bytes.get(i + 1) == Some(&'"') && !is_ident_tail(&bytes, i) => {
                lex.in_string = true;
                code.push_str(" \"");
                i += 2;
            }
            '\'' => {
                if let Some(end) = char_literal_end(&bytes, i) {
                    for _ in i..end {
                        code.push(' ');
                    }
                    i = end;
                } else {
                    // A lifetime: keep the tick out of the code channel,
                    // it cannot open anything.
                    code.push(' ');
                    i += 1;
                }
            }
            _ => {
                code.push(ch);
                i += 1;
            }
        }
    }
    (code, comment)
}

/// Does `bytes[i..]` start a raw (byte) string: `r"`, `r#"`, `br"`, ...?
fn starts_raw_string(bytes: &[char], i: usize) -> bool {
    if is_ident_tail(bytes, i) {
        return false;
    }
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
        if bytes.get(j) != Some(&'r') {
            return false;
        }
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// `(hash_count, chars_consumed)` of a raw-string opener at `i`.
fn raw_string_open(bytes: &[char], i: usize) -> (usize, usize) {
    let mut j = i;
    if bytes[j] == 'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // the opening quote
    (hashes, j - i)
}

fn closes_raw(bytes: &[char], from: usize, hashes: usize) -> bool {
    (0..hashes).all(|k| bytes.get(from + k) == Some(&'#'))
}

/// Is the char before `i` part of an identifier (so `bar"x"` is not a
/// raw string and `b` is just the end of an ident)?
fn is_ident_tail(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// If a char literal starts at `i` (which holds `'`), return the index
/// one past its closing quote; `None` means it is a lifetime.
fn char_literal_end(bytes: &[char], i: usize) -> Option<usize> {
    let next = bytes.get(i + 1)?;
    if *next == '\\' {
        // Escaped char: scan forward to the closing quote.
        let mut j = i + 2;
        while j < bytes.len() {
            if bytes[j] == '\\' {
                j += 2;
                continue;
            }
            if bytes[j] == '\'' {
                return Some(j + 1);
            }
            j += 1;
        }
        return None;
    }
    if bytes.get(i + 2) == Some(&'\'') && *next != '\'' {
        return Some(i + 3);
    }
    None
}

/// Byte offset of the `idx`-th char of `s`.
fn char_offset(s: &str, idx: usize) -> usize {
    s.char_indices().nth(idx).map(|(o, _)| o).unwrap_or(s.len())
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "node_modules"];

/// Path fragments that mark a whole file as test code.
const TEST_PATH_MARKS: &[&str] = &["/tests/", "/benches/"];

/// Recursively collect every `.rs` file under `root`, skipping build
/// output and fixture corpora. Paths come back sorted for deterministic
/// diagnostics.
pub(crate) fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scan a file from disk, classifying `tests/`/`benches/` targets as
/// all-test code.
pub(crate) fn scan_file(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let contents = std::fs::read_to_string(path)?;
    let slashed = format!("/{rel}");
    let whole_file_is_test = TEST_PATH_MARKS.iter().any(|m| slashed.contains(m));
    Ok(scan_source(&rel, &contents, whole_file_is_test))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> SourceFile {
        scan_source("x.rs", src, false)
    }

    #[test]
    fn strings_are_blanked() {
        let f = scan(r#"let x = "unsafe panic!()"; y();"#);
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(f.lines[0].code.contains("y();"));
    }

    #[test]
    fn line_comments_go_to_comment_channel() {
        let f = scan("foo(); // SAFETY: unsafe ok");
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(f.lines[0].comment.contains("SAFETY:"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = scan("a();\n/* unsafe\n still unsafe */ b();\nc();");
        assert!(!f.lines[1].code.contains("unsafe"));
        assert!(!f.lines[2].code.contains("unsafe"));
        assert!(f.lines[2].code.contains("b();"));
        assert!(f.lines[1].comment.contains("unsafe"));
    }

    #[test]
    fn nested_block_comments() {
        let f = scan("/* a /* b */ still */ code();");
        assert!(f.lines[0].code.contains("code();"));
        assert!(!f.lines[0].code.contains("still"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = scan(r###"let s = r#"unsafe " quote"# ; after();"###);
        assert!(!f.lines[0].code.contains("unsafe"));
        assert!(f.lines[0].code.contains("after();"));
    }

    #[test]
    fn multiline_strings_are_blanked() {
        let f = scan("let s = \"line one\nunsafe line two\"; done();");
        assert!(!f.lines[1].code.contains("unsafe"));
        assert!(f.lines[1].code.contains("done();"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = scan("fn f<'a>(x: &'a str) { g::<'static>(x) }");
        // The braces must survive so depth tracking works.
        assert!(f.lines[0].code.contains('{'));
        assert!(f.lines[0].code.contains('}'));
    }

    #[test]
    fn char_literals_with_braces_are_blanked() {
        let f = scan(r"let open = '{'; let uni = '\u{1F600}'; h();");
        assert!(!f.lines[0].code.contains('{'));
        assert!(f.lines[0].code.contains("h();"));
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn real2() {}";
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test, "attribute line counts as test");
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test, "closing brace still in region");
        assert!(!f.lines[5].in_test, "region ends after closing brace");
    }

    #[test]
    fn test_attr_fn_is_tracked() {
        let src = "#[test]\nfn check() {\n    boom();\n}\nfn real() {}";
        let f = scan(src);
        assert!(f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn attribute_on_a_braceless_item_covers_only_that_item() {
        let src = "struct S {\n    #[cfg(test)]\n    hook: AtomicBool,\n    real: u8,\n}\nfn real() { x(); }";
        let f = scan(src);
        assert!(f.lines[2].in_test);
        assert!(!f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn attribute_on_a_multi_argument_fn_still_covers_its_body() {
        let src = "#[cfg(test)]\nfn probe(a: u8, b: u8) {\n    boom();\n}\nfn real() {}";
        let f = scan(src);
        assert!(f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn whole_file_test_flag() {
        let f = scan_source("tests/t.rs", "fn f() {}", true);
        assert!(f.lines[0].in_test);
    }

    #[test]
    fn support_region_is_tracked() {
        let src = "#[cfg(any(test, feature = \"testkit\"))]\n\
                   impl Oracle {\n\
                   \x20   pub fn check() {}\n\
                   }\n\
                   #[cfg(feature = \"model\")]\n\
                   pub mod model;\n\
                   #[cfg(not(feature = \"model\"))]\n\
                   fn yield_point() {}\n\
                   pub fn real() {}\n";
        let f = scan(src);
        let support: Vec<bool> = f.lines.iter().map(|l| l.in_support).collect();
        assert_eq!(
            support,
            [true, true, true, true, true, true, false, false, false]
        );
        assert!(
            f.lines.iter().all(|l| !l.in_test),
            "support is not test code"
        );
        let f = scan("let s = \"#[cfg(feature = \\\"testkit\\\")]\";\npub fn real() {}");
        assert!(!f.lines[1].in_support);
    }

    #[test]
    fn cfg_test_in_string_does_not_arm() {
        let f = scan("let s = \"#[cfg(test)]\";\nfn real() { x(); }");
        assert!(!f.lines[1].in_test);
    }
}
