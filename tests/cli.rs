//! End-to-end runs of the `stkde` binary: synth → info → compute, the
//! sparse backend against dense PB-SYM, and the flags it must refuse.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("stkde-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating scratch dir");
        Scratch(dir)
    }

    fn path(&self, rel: &str) -> String {
        self.0.join(rel).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn stkde(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stkde"))
        .args(args)
        .output()
        .expect("running stkde")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stkde failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A synthetic event file shared by the compute runs.
fn synth(dir: &Scratch) -> String {
    let events = dir.path("events.csv");
    let out = stdout(&stkde(&[
        "synth",
        "--dataset",
        "dengue",
        "--n",
        "1000",
        "--out",
        &events,
    ]));
    assert!(out.contains("wrote 1000 synthetic"), "{out}");
    events
}

fn compute(events: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "compute",
        "--input",
        events,
        "--sres",
        "250",
        "--tres",
        "1",
        "--hs",
        "1000",
        "--ht",
        "7",
        "--threads",
        "2",
    ];
    args.extend_from_slice(extra);
    stkde(&args)
}

/// The `prefix_t<T>.<ext>` path a compute run reported writing.
fn written(out: &str) -> PathBuf {
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix("wrote "))
        .unwrap_or_else(|| panic!("no file written: {out}"));
    PathBuf::from(line)
}

/// The `density: …` summary line.
fn density_line(out: &str) -> &str {
    out.lines()
        .find(|l| l.starts_with("density:"))
        .unwrap_or_else(|| panic!("no density line: {out}"))
}

#[test]
fn synth_info_compute_write_slices() {
    let dir = Scratch::new("pipeline");
    let events = synth(&dir);

    let info = stdout(&stkde(&["info", "--input", &events]));
    assert!(
        info.contains("events:  1000 (0 non-finite rows dropped)"),
        "{info}"
    );

    let prefix = dir.path("out/density");
    let pgm = stdout(&compute(&events, &["--out-prefix", &prefix]));
    let pgm_path = written(&pgm);
    assert_eq!(pgm_path.extension().and_then(|e| e.to_str()), Some("pgm"));
    let bytes = std::fs::read(&pgm_path).expect("reading the pgm slice");
    assert!(bytes.starts_with(b"P"), "not a PGM file");

    let csv = stdout(&compute(
        &events,
        &["--out-prefix", &prefix, "--format", "csv", "--slices", "0"],
    ));
    let csv_path = written(&csv);
    assert_eq!(csv_path, Path::new(&format!("{prefix}_t0.csv")));
    let text = std::fs::read_to_string(&csv_path).expect("reading the csv slice");
    assert!(text.lines().count() > 1, "empty csv slice");
}

#[test]
fn sparse_and_pb_sym_report_the_same_peak_slice() {
    let dir = Scratch::new("sparse");
    let events = synth(&dir);
    let run = |alg: &str| {
        let prefix = dir.path(&format!("{alg}/density"));
        let out = stdout(&compute(
            &events,
            &["--algorithm", alg, "--out-prefix", &prefix],
        ));
        let file = written(&out);
        let slice = file.file_name().unwrap().to_string_lossy().into_owned();
        (slice, density_line(&out).to_string(), out)
    };
    let (dense_slice, dense_density, _) = run("pb-sym");
    let (sparse_slice, sparse_density, sparse_out) = run("sparse");
    assert!(sparse_out.contains("sparse backend:"), "{sparse_out}");
    assert_eq!(sparse_slice, dense_slice);
    assert_eq!(sparse_density, dense_density);
}

#[test]
fn retired_and_misspelled_flags_are_refused() {
    let dir = Scratch::new("flags");
    let events = synth(&dir);
    for extra in [
        &["--adaptive"][..],
        &["--sparse"][..],
        &["--algoritm", "pd"][..],
    ] {
        let out = compute(&events, extra);
        assert!(!out.status.success(), "{extra:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{extra:?}: {err}");
        assert!(
            err.contains("commands:"),
            "{extra:?} prints no usage: {err}"
        );
    }
}
