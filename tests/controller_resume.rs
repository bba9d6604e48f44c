//! Controller crash-and-resume: a distributed campaign whose *controller*
//! is killed mid-run (workers mid-range) must resume from its journal
//! alone — re-dispatching whatever was evaluated but never admitted — and
//! the resumed run's TSV and manifest (modulo the wall-clock `timing` and
//! scheduling-dependent `shards` sections, plus the resume tallies
//! themselves) must be byte-identical to an uninterrupted run's.
//!
//! The test drives the real `snake` binary end to end: a reference
//! campaign, a campaign killed at a fixed admission index through the
//! `SNAKE_CONTROLLER_EXIT_AT` kill-switch (exit code 23, right after the
//! Nth journal write — deterministic by construction, because admission
//! is strictly index-ordered), and a `--resume` run over the same journal.

use std::path::PathBuf;
use std::process::Command;

use snake_json::Value;

/// Exit code `SNAKE_CONTROLLER_EXIT_AT` terminates the controller with.
const KILL_EXIT_CODE: i32 = 23;

/// Admission index to kill at: with `--cap 10 --shards 2` every range is
/// dispatched within the first couple of admissions, so by the 4th both
/// workers are mid-range with buffered work — the interesting crash.
const KILL_AT: &str = "4";

fn snake_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_snake"))
}

/// A scratch directory unique to this test run.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "snake-controller-resume-{}-{label}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The six-profile matrix: every implementation under test plus one
/// impaired-link configuration, as extra `snake campaign` arguments.
fn profiles() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("linux-3.0.0", vec!["--impl", "linux-3.0.0"]),
        ("linux-3.13", vec!["--impl", "linux-3.13"]),
        ("windows-8.1", vec!["--impl", "windows-8.1"]),
        ("windows-95", vec!["--impl", "windows-95"]),
        ("dccp", vec!["--impl", "dccp"]),
        (
            "linux-3.13+lossy",
            vec!["--impl", "linux-3.13", "--impair", "lossy"],
        ),
    ]
}

struct RunFiles {
    journal: PathBuf,
    tsv: PathBuf,
    manifest: PathBuf,
}

impl RunFiles {
    fn new(dir: &std::path::Path, label: &str) -> RunFiles {
        RunFiles {
            journal: dir.join(format!("{label}.journal.jsonl")),
            tsv: dir.join(format!("{label}.tsv")),
            manifest: dir.join(format!("{label}.manifest.json")),
        }
    }

    fn args(&self) -> Vec<String> {
        vec![
            "--journal".into(),
            self.journal.display().to_string(),
            "--tsv".into(),
            self.tsv.display().to_string(),
            "--manifest".into(),
            self.manifest.display().to_string(),
        ]
    }
}

/// Runs `snake campaign --quick --shards 2 --cap 10` with the given
/// profile and per-run file arguments, returning the exit code.
fn campaign(profile: &[&str], files: &RunFiles, extra: &[&str], kill_at: Option<&str>) -> i32 {
    let mut cmd = Command::new(snake_bin());
    cmd.arg("campaign")
        .args(profile)
        .args(["--quick", "--shards", "2", "--cap", "10"])
        .args(files.args())
        .args(extra)
        .env_remove("SNAKE_CONTROLLER_EXIT_AT");
    if let Some(n) = kill_at {
        cmd.env("SNAKE_CONTROLLER_EXIT_AT", n);
    }
    let output = cmd.output().expect("snake campaign runs");
    output.status.code().unwrap_or_else(|| {
        panic!(
            "campaign terminated by signal: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

/// The manifest with its nondeterministic sections (`timing`, `shards`)
/// and the resume tallies (`run.resumed`, `run.journal_lines_skipped` —
/// legitimately nonzero only on the resumed run) removed: the bit-identity
/// surface between an uninterrupted run and a crash-resumed one.
fn stable_manifest(path: &std::path::Path) -> String {
    let raw =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading manifest {path:?}: {e}"));
    let Value::Obj(pairs) = snake_json::parse(raw.trim()).expect("manifest parses") else {
        panic!("manifest is not an object");
    };
    Value::Obj(
        pairs
            .into_iter()
            .filter(|(k, _)| k != "timing" && k != "shards")
            .map(|(k, v)| {
                if k != "run" {
                    return (k, v);
                }
                let Value::Obj(run) = v else { return (k, v) };
                (
                    k,
                    Value::Obj(
                        run.into_iter()
                            .filter(|(rk, _)| rk != "resumed" && rk != "journal_lines_skipped")
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
    .to_string_compact()
}

/// Pulls one numeric field out of the manifest's `shards` section.
fn shards_counter(path: &std::path::Path, field: &str) -> u64 {
    let raw = std::fs::read_to_string(path).expect("manifest readable");
    let parsed = snake_json::parse(raw.trim()).expect("manifest parses");
    let section = parsed
        .get("shards")
        .expect("sharded run has a shards section");
    section
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("shards.{field} missing from {path:?}"))
}

/// Every resume is a resume without segments: the journal is the only
/// crash record, so whatever was evaluated but never admitted is
/// re-dispatched, and the output still converges on every profile.
#[test]
fn a_resume_without_segments_still_completes_by_reevaluating() {
    for (name, profile) in profiles() {
        let dir = scratch(name);

        // Uninterrupted reference: 2 shards, straight through.
        let reference = RunFiles::new(&dir, "reference");
        assert_eq!(
            campaign(&profile, &reference, &[], None),
            0,
            "{name}: reference campaign must succeed"
        );

        // Crash: the controller exits right after the 4th admission's
        // journal write, while both workers hold undelivered work.
        let crashed = RunFiles::new(&dir, "crashed");
        assert_eq!(
            campaign(&profile, &crashed, &[], Some(KILL_AT)),
            KILL_EXIT_CODE,
            "{name}: the kill-switch must fire at admission {KILL_AT}"
        );
        // The journal is the only crash record: neither the controller
        // nor its workers leave anything else on disk.
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|file| file.starts_with("crashed"))
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["crashed.journal.jsonl"],
            "{name}: the killed run leaves its journal and nothing beside it"
        );

        // Resume over the journal: what it holds is reused, the
        // strategies still in flight at the kill are dispatched again.
        assert_eq!(
            campaign(&profile, &crashed, &["--resume"], None),
            0,
            "{name}: the resumed campaign must succeed"
        );

        assert_eq!(
            std::fs::read(&reference.tsv).unwrap(),
            std::fs::read(&crashed.tsv).unwrap(),
            "{name}: resumed TSV must be byte-identical to the uninterrupted run"
        );
        assert_eq!(
            stable_manifest(&reference.manifest),
            stable_manifest(&crashed.manifest),
            "{name}: manifests must agree outside timing/shards/resume tallies"
        );
        assert_eq!(
            shards_counter(&crashed.manifest, "workers"),
            2,
            "{name}: the resumed run must still run its worker pool"
        );
        assert!(
            shards_counter(&crashed.manifest, "ranges_dispatched") > 0,
            "{name}: the strategies in flight at the kill are re-evaluated"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
