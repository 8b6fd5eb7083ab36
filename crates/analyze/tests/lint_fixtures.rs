//! Fixture tests for `stkde-lint`: exact diagnostics, allowlist
//! semantics, and the binary's exit-code contract.
//!
//! Each test materializes a tiny fake workspace in a scratch directory
//! (the scanner skips directories literally named `fixtures`, precisely
//! so corpora like these are never linted as product code) and asserts
//! the lint's output byte-for-byte where it matters: `file:line: [ID]`
//! prefixes, waiver accounting, stale-entry failures.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use stkde_analyze::{allowlist, lint_tree};

/// A scratch workspace that cleans up after itself.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("stkde-lint-fixture-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("creating fixture root");
        // The CLI refuses roots without a Cargo.toml.
        fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("writing manifest");
        Fixture { root }
    }

    fn write(&self, rel: &str, contents: &str) -> &Self {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("file paths have parents"))
            .expect("creating fixture dirs");
        fs::write(path, contents).expect("writing fixture file");
        self
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// One file per rule; every diagnostic checked against its exact
/// `file:line: [ID] title` rendering.
#[test]
fn each_rule_fires_with_exact_diagnostics() {
    let fx = Fixture::new("diag");
    fx.write(
        "crates/comm/src/hot.rs",
        "fn f(p: *const u8) -> u8 {\n\
         \x20   let v = unsafe { *p };\n\
         \x20   let n = channel_rx.recv();\n\
         \x20   n.unwrap()\n\
         }\n",
    );
    fx.write(
        "crates/grid/src/counters.rs",
        "fn bump(c: &AtomicUsize) {\n\
         \x20   c.fetch_add(1, Ordering::Relaxed);\n\
         }\n",
    );
    fx.write(
        "crates/data/src/loader.rs",
        "fn go() {\n\
         \x20   std::thread::spawn(|| {});\n\
         }\n",
    );

    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    let mut rendered: Vec<String> = outcome.violations.iter().map(|v| v.render()).collect();
    rendered.sort();
    assert_eq!(
        rendered,
        vec![
            "crates/comm/src/hot.rs:2: [STK001] `unsafe` without a SAFETY justification",
            "crates/comm/src/hot.rs:3: [STK005] blocking `recv()` without a deadline in crates/comm",
            "crates/comm/src/hot.rs:4: [STK003] panic path (`unwrap`/`expect`/`panic!`) in hot-crate non-test code",
            "crates/data/src/loader.rs:2: [STK004] raw thread spawn outside the sanctioned runtimes",
            "crates/grid/src/counters.rs:2: [STK002] `Ordering::Relaxed` outside the audited allowlist",
        ],
    );
    assert_eq!(outcome.suppressed, 0);
    assert!(outcome.stale_entries.is_empty());
    assert!(!outcome.is_clean());
}

/// A SAFETY comment within the lookback window waives STK001 without any
/// allowlist entry; `unsafe` in strings, comments, and identifiers never
/// fires at all.
#[test]
fn safety_comments_and_lexer_channels() {
    let fx = Fixture::new("channels");
    fx.write(
        "crates/core/src/ok.rs",
        "// SAFETY: slice bounds were checked by the caller.\n\
         let v = unsafe { slice.get_unchecked(i) };\n\
         let msg = \"unsafe panic!() .unwrap()\";\n\
         // this comment mentions unsafe and .unwrap() freely\n\
         let un_safe = 1;\n",
    );
    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    assert!(
        outcome.violations.is_empty(),
        "false positives: {}",
        outcome.render()
    );
    assert!(outcome.is_clean());
}

/// Rules with `skip_test_code` ignore `#[cfg(test)]` regions and whole
/// `tests/` targets; STK001 deliberately still applies there.
#[test]
fn test_code_is_exempt_except_safety() {
    let fx = Fixture::new("testcode");
    fx.write(
        "crates/core/src/lib.rs",
        "fn real() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn t() { x.unwrap(); }\n\
         }\n",
    );
    fx.write(
        "crates/core/tests/integration.rs",
        "fn t() {\n\
         \x20   y.expect(\"test code may panic\");\n\
         \x20   let v = unsafe { raw() };\n\
         }\n",
    );
    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    let rendered: Vec<String> = outcome.violations.iter().map(|v| v.render()).collect();
    assert_eq!(
        rendered,
        vec![
            "crates/core/tests/integration.rs:3: [STK001] `unsafe` without a SAFETY justification"
        ],
        "only the SAFETY rule follows into test code"
    );
}

/// Allowlist entries waive by (rule, path-prefix, line-substring); the
/// waiver is counted, and an entry matching nothing is stale and makes
/// the outcome dirty.
#[test]
fn allowlist_waives_and_detects_staleness() {
    let fx = Fixture::new("allow");
    fx.write(
        "crates/server/src/stats.rs",
        "fn bump(c: &AtomicUsize) {\n\
         \x20   c.fetch_add(1, Ordering::Relaxed);\n\
         }\n",
    );

    let live = allowlist::parse(
        "STK002 crates/server/src/stats.rs :: fetch_add(1, Ordering::Relaxed) :: monotonic stats counter, readers tolerate lag\n",
    )
    .expect("valid allowlist");
    let outcome = lint_tree(&fx.root, &live).expect("lint runs");
    assert!(outcome.is_clean(), "waived: {}", outcome.render());
    assert_eq!(outcome.suppressed, 1);

    let stale = allowlist::parse(
        "STK002 crates/server/src/stats.rs :: fetch_add(1, Ordering::Relaxed) :: monotonic stats counter, readers tolerate lag\n\
         STK003 crates/comm/src/gone.rs :: .unwrap() :: file was deleted last release\n",
    )
    .expect("valid allowlist");
    let outcome = lint_tree(&fx.root, &stale).expect("lint runs");
    assert!(!outcome.is_clean(), "stale waiver must fail the lint");
    assert_eq!(outcome.stale_entries.len(), 1);
    assert_eq!(outcome.stale_entries[0].rule_id, "STK003");
    assert!(
        outcome.render().contains("stale waiver matches nothing"),
        "{}",
        outcome.render()
    );
}

/// Allowlist parsing: reasons are mandatory, rule ids must exist.
#[test]
fn allowlist_grammar_is_strict() {
    assert!(
        allowlist::parse("STK003 * :: .unwrap() :: poisoning propagation is deliberate").is_ok()
    );
    let no_reason = allowlist::parse("STK003 * :: .unwrap()");
    assert!(no_reason.is_err());
    assert!(
        no_reason.unwrap_err().to_string().contains("reason"),
        "error must say the reason is missing"
    );
    assert!(allowlist::parse("STK042 * :: x :: bogus rule").is_err());
}

fn run_lint(args: &[&str], cwd: &Path) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_stkde-lint"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("running stkde-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The binary's exit-code contract: 0 clean, 1 violations/stale waivers,
/// 2 configuration errors.
#[test]
fn binary_exit_codes_and_output() {
    let fx = Fixture::new("bin");
    fx.write("crates/core/src/clean.rs", "fn fine() {}\n");
    let root = fx.root.to_string_lossy().into_owned();

    let (code, stdout, _) = run_lint(&[&root], &fx.root);
    assert_eq!(code, 0, "clean tree: {stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");

    fx.write("crates/core/src/dirty.rs", "fn f() { oops.unwrap(); }\n");
    let (code, stdout, _) = run_lint(&[&root], &fx.root);
    assert_eq!(code, 1, "violations must exit 1: {stdout}");
    assert!(
        stdout.contains("crates/core/src/dirty.rs:1: [STK003]"),
        "diagnostic must be file:line-addressed: {stdout}"
    );
    assert!(
        stdout.contains("hint:"),
        "diagnostics carry fix hints: {stdout}"
    );

    // A waiver flips it back to clean...
    fs::write(
        fx.root.join("stkde-lint.allow"),
        "STK003 crates/core/src/dirty.rs :: oops.unwrap() :: fixture waiver\n",
    )
    .expect("writing allowlist");
    let (code, stdout, _) = run_lint(&[&root], &fx.root);
    assert_eq!(code, 0, "waived tree must be clean: {stdout}");
    assert!(stdout.contains("1 waived"), "{stdout}");

    // ...and a malformed allowlist is a configuration error.
    fs::write(fx.root.join("stkde-lint.allow"), "STK003 * :: broken\n").expect("writing allowlist");
    let (code, _, stderr) = run_lint(&[&root], &fx.root);
    assert_eq!(code, 2, "bad allowlist must exit 2: {stderr}");

    // Non-workspace root: configuration error.
    let (code, _, stderr) = run_lint(&["/nonexistent-stkde-path"], &fx.root);
    assert_eq!(code, 2, "{stderr}");

    // --list-rules prints the whole catalog.
    let (code, stdout, _) = run_lint(&["--list-rules"], &fx.root);
    assert_eq!(code, 0);
    for id in ["STK001", "STK002", "STK003", "STK004", "STK005", "STK006"] {
        assert!(stdout.contains(id), "catalog missing {id}: {stdout}");
    }
}

/// A library crate whose `pub fn helper` is named only by its own
/// `#[cfg(test)]` code.
fn census_fixture(name: &str) -> Fixture {
    let fx = Fixture::new(name);
    fx.write(
        "crates/util/src/lib.rs",
        "pub fn helper() -> u8 {\n\
         \x20   1\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn t() { assert_eq!(super::helper(), 1); }\n\
         }\n",
    );
    fx
}

fn stk006(outcome: &stkde_analyze::LintOutcome) -> Vec<String> {
    outcome
        .violations
        .iter()
        .filter(|v| v.rule_id == "STK006")
        .map(|v| v.render())
        .collect()
}

/// STK006: a `pub` item named only by its own crate's tests is flagged.
#[test]
fn stk006_flags_an_item_named_only_by_its_own_tests() {
    let fx = census_fixture("census-own-tests");
    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    assert_eq!(
        stk006(&outcome),
        vec!["crates/util/src/lib.rs:1: [STK006] `pub` item named by no caller outside its crate"],
    );
    assert_eq!(outcome.census.checked, 1);
    assert_eq!(outcome.census.kept, 0);
    assert!(
        outcome
            .render()
            .contains("STK006 census: 1 pub item(s) checked, 0 kept, 0 waived"),
        "{}",
        outcome.render()
    );
}

/// Every kind of caller outside the crate keeps the item.
#[test]
fn stk006_counts_every_caller_outside_the_crate() {
    for (i, caller) in [
        "examples/demo.rs",
        "src/bin/tool.rs",
        "crates/util/src/bin/tool.rs",
        "benchmark/src/main.rs",
        "crates/other/src/lib.rs",
        "tests/it.rs",
        "crates/util/tests/it.rs",
    ]
    .into_iter()
    .enumerate()
    {
        let fx = census_fixture(&format!("census-caller-{i}"));
        fx.write(caller, "fn main() { let _ = util::helper(); }\n");
        let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
        assert!(
            stk006(&outcome).is_empty(),
            "{caller} must count as a caller: {}",
            outcome.render()
        );
        assert_eq!(outcome.census.kept, 1, "{caller}");
    }
}

/// A re-export and a doc-comment mention are not callers.
#[test]
fn stk006_ignores_reexports_and_comments() {
    let fx = census_fixture("census-not-callers");
    fx.write(
        "crates/facade/src/lib.rs",
        "pub use util::{\n\
         \x20   helper,\n\
         };\n\
         /// Calls [`helper`]:\n\
         /// ```\n\
         /// util::helper();\n\
         /// ```\n\
         pub fn doc() {} // helper\n",
    );
    fx.write("examples/uses_doc.rs", "fn main() { facade::doc(); }\n");
    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    assert_eq!(
        stk006(&outcome),
        vec!["crates/util/src/lib.rs:1: [STK006] `pub` item named by no caller outside its crate"],
    );
}

/// A type in the signature of a kept `pub fn` is that fn's interface.
#[test]
fn stk006_exempts_interface_types_of_kept_items() {
    let fx = Fixture::new("census-interface");
    fx.write(
        "crates/util/src/lib.rs",
        "pub struct Config {\n\
         \x20   pub limits: Limits,\n\
         }\n\
         pub struct Limits;\n\
         pub struct Orphan;\n\
         pub fn make(\n\
         \x20   seed: u8,\n\
         ) -> Config {\n\
         \x20   let _ = Orphan;\n\
         \x20   Config { limits: Limits }\n\
         }\n",
    );
    fx.write("examples/demo.rs", "fn main() { util::make(1); }\n");
    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    assert_eq!(
        stk006(&outcome),
        vec!["crates/util/src/lib.rs:5: [STK006] `pub` item named by no caller outside its crate"],
        "Config (return type) and Limits (its pub field) are interface; Orphan is only named in a body"
    );
    assert_eq!(outcome.census.kept, 3);
}

const UNNAMED: &str = "[STK006] `pub` item named by no caller outside its crate";

/// Two modules share a name: only the one named by path is kept. A
/// name match would keep both.
#[test]
fn stk006_keeps_only_the_item_named_by_path() {
    let fx = Fixture::new("census-path");
    fx.write("crates/algo/src/lib.rs", "pub mod fast;\npub mod slow;\n");
    fx.write("crates/algo/src/fast.rs", "pub fn run() {}\n");
    fx.write("crates/algo/src/slow.rs", "pub fn run() {}\n");
    fx.write("examples/demo.rs", "fn main() { algo::fast::run(); }\n");
    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    assert_eq!(
        stk006(&outcome),
        [
            format!("crates/algo/src/lib.rs:2: {UNNAMED}"),
            format!("crates/algo/src/slow.rs:1: {UNNAMED}"),
        ],
    );
}

/// Two types share a method name: a caller that names one type and
/// calls `.len(` keeps that type's `len` (and its `is_empty`) only.
#[test]
fn stk006_keeps_methods_of_the_type_the_caller_names() {
    let fx = Fixture::new("census-method");
    let len = "    pub fn len(&self) -> usize {\n        0\n    }\n\
               \x20   pub fn is_empty(&self) -> bool {\n        true\n    }\n";
    fx.write(
        "crates/shapes/src/lib.rs",
        &format!(
            "pub struct Ring;\nimpl Ring {{\n{len}}}\npub struct Path;\nimpl Path {{\n{len}}}\n"
        ),
    );
    fx.write(
        "examples/demo.rs",
        "fn main() {\n    let r = shapes::Ring;\n    let _ = r.len();\n}\n",
    );
    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    assert_eq!(
        stk006(&outcome),
        [
            format!("crates/shapes/src/lib.rs:10: {UNNAMED}"),
            format!("crates/shapes/src/lib.rs:12: {UNNAMED}"),
            format!("crates/shapes/src/lib.rs:15: {UNNAMED}"),
        ],
        "Path, Path::len and Path::is_empty",
    );
}

/// A crate-root re-export is a path: `krate::Name` reaches the item, and
/// so does a facade's alias of the crate (`o::m::f`).
#[test]
fn stk006_follows_reexports_and_crate_aliases() {
    let fx = Fixture::new("census-reexport");
    fx.write(
        "crates/util/src/lib.rs",
        "mod inner;\npub use inner::Helper;\n",
    );
    fx.write("crates/util/src/inner.rs", "pub struct Helper;\n");
    fx.write("crates/other/src/lib.rs", "pub mod m;\n");
    fx.write("crates/other/src/m.rs", "pub fn f() {}\n");
    fx.write("src/lib.rs", "pub use other as o;\n");
    fx.write(
        "tests/it.rs",
        "fn t() {\n    let _ = util::Helper;\n    facade::o::m::f();\n}\n",
    );
    let outcome = lint_tree(&fx.root, &[]).expect("lint runs");
    assert!(stk006(&outcome).is_empty(), "{}", outcome.render());
    assert_eq!(outcome.census.kept, 3);
}

/// STK006 waivers follow the STK001–005 rules: a live one waives, a
/// stale one fails.
#[test]
fn stk006_waivers_waive_and_go_stale() {
    let fx = census_fixture("census-waiver");
    let live = allowlist::parse(
        "STK006 crates/util/src/lib.rs :: pub fn helper :: named by the fixture's downstream tool\n",
    )
    .expect("valid allowlist");
    let outcome = lint_tree(&fx.root, &live).expect("lint runs");
    assert!(outcome.is_clean(), "{}", outcome.render());
    assert_eq!(outcome.census.waived, 1);
    assert_eq!(outcome.suppressed, 1);

    fx.write("examples/demo.rs", "fn main() { util::helper(); }\n");
    let outcome = lint_tree(&fx.root, &live).expect("lint runs");
    assert!(!outcome.is_clean(), "a waiver for a named item is stale");
    assert_eq!(outcome.stale_entries.len(), 1);
    assert_eq!(outcome.stale_entries[0].rule_id, "STK006");
}

/// The real workspace must lint clean with its checked-in allowlist —
/// the same gate CI runs, wired into `cargo test`.
#[test]
fn workspace_is_clean_under_checked_in_allowlist() {
    let ws_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels below the workspace root")
        .to_path_buf();
    let outcome = stkde_analyze::lint::lint_workspace(&ws_root).expect("lint runs");
    assert!(
        outcome.is_clean(),
        "workspace must lint clean:\n{}",
        outcome.render()
    );
    assert!(
        outcome.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        outcome.files_scanned
    );
}
