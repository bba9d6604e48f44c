//! `snake-bench`: the benchmark's command line.
//!
//! ```text
//! snake-bench --workload NAME --seed N --seconds S --trace 0|1
//!     one run; the last stdout line is the JSON result
//! snake-bench all [--seed N]
//!     every workload in both modes, each in its own child process;
//!     prints every metric and writes <target>/bench/results.json
//! snake-bench compare A.json B.json
//!     before/after table over two results.json files; exit 1 on `worse`
//! ```

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use snake_json::{obj, Value};
use snake_perfbench::compare::{compare, render, Verdict};
use snake_perfbench::e2e::run_end_to_end;
use snake_perfbench::layers::run_per_layer;
use snake_perfbench::spec::Benchmark;
use snake_perfbench::stats::share_of_failures;
use snake_perfbench::workload::{Env, Sizing, Workload};

const USAGE: &str = "usage: snake-bench --workload NAME --seed N --seconds S --trace 0|1
       snake-bench all [--seed N]
       snake-bench compare A.json B.json";

/// The repo's scenario default seed.
const DEFAULT_SEED: u64 = 7;

/// `<target>/release/snake-bench` → the `snake` binary beside it and
/// `<target>/bench` for everything a run writes.
fn environment() -> Result<Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let release = exe.parent().ok_or("this binary has no parent directory")?;
    let snake = release.join(format!("snake{}", std::env::consts::EXE_SUFFIX));
    let out_dir = release.parent().unwrap_or(release).join("bench");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    Ok(Env {
        snake_bin: snake.exists().then_some(snake),
        out_dir,
    })
}

/// Value of `--flag` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    raw.parse()
        .map_err(|_| format!("{name} got `{raw}`, which does not parse"))
}

fn single_run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = parsed(args, "--seed")?;
    let seconds: f64 = parsed(args, "--seconds")?;
    let trace: u8 = parsed(args, "--trace")?;
    if !(seconds.is_finite() && seconds > 0.0) || trace > 1 {
        return Err("--seconds must be positive and --trace 0 or 1".to_owned());
    }
    let env = environment()?;
    if workload.shards() > 0 && env.snake_bin.is_none() {
        return Err("the sharded workload needs the `snake` binary beside snake-bench".to_owned());
    }
    let sizing = Sizing::full(seconds);
    let report = match trace {
        0 => run_end_to_end(workload, seed, &sizing, &env),
        _ => run_per_layer(workload, seed, &sizing, &env),
    };
    for failure in &report.gate_failures {
        eprintln!("snake-bench: gate failed on {name}: {failure}");
    }
    println!("detail: {}", report.detail.to_string_compact());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in one mode in a child process and returns its
/// result object with the `detail` line folded in.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: u8) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let mut result = snake_json::parse(last)
        .map_err(|e| format!("{workload} --trace {trace} printed no result ({e})"))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .and_then(|d| snake_json::parse(d).ok())
        .unwrap_or(Value::Null);
    if let Value::Obj(pairs) = &mut result {
        pairs.push(("detail".to_owned(), detail));
    }
    Ok(result)
}

fn print_metrics(benchmark: &Benchmark, workload: &str, e2e: &Value, layers: &Value) {
    let value = |run: &Value, name: &str| {
        run.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
    };
    let text = |v: Option<&Value>| v.and_then(Value::as_str).unwrap_or("?").to_owned();
    println!(
        "\n== {workload}  digest {}  correct e2e={} layers={}",
        text(e2e.get("detail").and_then(|d| d.get("digest"))),
        e2e.get("correct").and_then(Value::as_bool).unwrap_or(false),
        layers
            .get("correct")
            .and_then(Value::as_bool)
            .unwrap_or(false),
    );
    let samples = e2e.get("detail").and_then(|d| d.get("samples"));
    for def in &benchmark.end_to_end {
        let of: Vec<f64> = samples
            .and_then(|s| s.get(&def.name))
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default();
        let (min, max) = of
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        println!(
            "  {:<32} {:>16.4} {:<6} median of n={} (min {:.4}, max {:.4})",
            def.name,
            value(e2e, &def.name).unwrap_or(f64::NAN),
            def.unit,
            of.len(),
            min,
            max
        );
    }
    let attempted = e2e.get("attempted").and_then(Value::as_u64).unwrap_or(0);
    let failed = e2e.get("failed").and_then(Value::as_u64).unwrap_or(0);
    println!(
        "  {:<32} {:>16.4} ratio  ({failed} of {attempted} strategies)",
        "failed_share",
        share_of_failures(failed, attempted)
    );
    println!(
        "  {:<32} {:>16} count",
        "named_attacks_found",
        e2e.get("detail")
            .and_then(|d| d.get("named_attacks_found"))
            .and_then(Value::as_u64)
            .map_or("?".to_owned(), |n| n.to_string())
    );
    for def in &benchmark.per_layer {
        println!(
            "  {:<32} {:>16.4} {}",
            def.name,
            value(layers, &def.name).unwrap_or(f64::NAN),
            def.unit
        );
    }
}

fn all(args: &[String]) -> Result<ExitCode, String> {
    let seed = match flag(args, "--seed") {
        Some(_) => parsed(args, "--seed")?,
        None => DEFAULT_SEED,
    };
    let benchmark = Benchmark::load(&Benchmark::default_path())?;
    let env = environment()?;
    println!(
        "snake-bench: seed {seed}, {} s of timed reps per workload, parallelism 2 pinned \
         ({} core(s) available)",
        benchmark.run_seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "end-to-end timings are medians over the samples of one process (n beside each); \
         2-15 samples support no percentile beyond the median, so none is reported"
    );
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for (name, _) in &benchmark.workloads {
        let e2e = child_run(name, seed, benchmark.run_seconds, 0)?;
        let layers = child_run(name, seed, benchmark.run_seconds, 1)?;
        print_metrics(&benchmark, name, &e2e, &layers);
        for run in [&e2e, &layers] {
            all_correct &= run.get("correct").and_then(Value::as_bool) == Some(true);
        }
        workloads.push((
            name.clone(),
            obj([("end_to_end", e2e), ("per_layer", layers)]),
        ));
    }
    let results = obj([
        ("seed", Value::U64(seed)),
        ("run_seconds", Value::U64(benchmark.run_seconds)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let path = env.out_dir.join("results.json");
    std::fs::write(&path, format!("{}\n", results.to_string_compact()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "\nresults: {}   traces: {}/trace-<workload>.json",
        path.display(),
        env.out_dir.display()
    );
    if !all_correct {
        eprintln!("snake-bench: a correctness gate failed (see above)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results.json files".to_owned());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(Path::new(path))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        snake_json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let benchmark = Benchmark::load(&Benchmark::default_path())?;
    let rows = compare(&benchmark, &load(a)?, &load(b)?)?;
    print!("{}", render(&rows));
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(first) if first.starts_with("--") => single_run(&args),
        _ => Err("no command given".to_owned()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("snake-bench: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
