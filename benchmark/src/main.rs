//! `hcapp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` of measurement (closed loop:
//! each leg starts when the previous one finishes) and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The line before it is the full report: host and
//! provenance, workload parameters, and every metric's sample count,
//! median and quartiles. `--print-expected` also writes the run's digests
//! and exact counts to standard error in the format of `expected.txt`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hcapp_benchmark::harness::{peak_rss_mb, secs, text_digest, Ctx};
use hcapp_benchmark::metrics::{END_TO_END, PER_LAYER};
use hcapp_benchmark::stats::{Ledger, Samples, Summary};
use hcapp_benchmark::workload::{plan, Workload};
use hcapp_benchmark::{e2e, layers, replica};
use hcapp_telemetry::json::{push_str, Obj};

/// The seed the stored digests in `expected.txt` belong to, and the
/// default of `--seed`.
const DEFAULT_SEED: u64 = 1;
/// Digests and exact counts stored with the benchmark.
const EXPECTED: &str = include_str!("../expected.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_expected: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: hcapp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--print-expected]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut print_expected) =
        (None, DEFAULT_SEED, 10.0, false, false);
    while let Some(flag) = it.next() {
        if flag == "--print-expected" {
            print_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_expected,
    })
}

/// The stored values for one workload and seed (`<workload> <seed> <key>
/// <value>` lines; `#` starts a comment).
fn expected_for(workload: Workload, seed: u64) -> BTreeMap<String, String> {
    EXPECTED
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (w, s, k, v) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
            (w == workload.name() && s.parse::<u64>().ok()? == seed)
                .then(|| (k.to_string(), v.to_string()))
        })
        .collect()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// `git rev-parse HEAD` when the tree is a git checkout.
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unavailable (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string())
}

/// Digest of every source and manifest file the benchmark builds from, so
/// a result identifies its code even where git is absent.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name().to_string_lossy().to_string();
            if p.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&p, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("benchmark"), &mut files);
    files.sort();
    files.dedup();
    let mut text = String::new();
    for f in files {
        if let Ok(body) = std::fs::read_to_string(&f) {
            text.push_str(&f.strip_prefix(root).unwrap_or(&f).to_string_lossy());
            text.push('\n');
            text.push_str(&body);
        }
    }
    text_digest(&text)
}

fn with_summary(o: Obj, s: &Summary) -> Obj {
    o.int("n", s.n as u64)
        .num("median", s.median)
        .num("q1", s.q1)
        .num("q3", s.q3)
        .num("min", s.min)
        .num("max", s.max)
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    push_str(&mut out, s);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let work_root = cwd.join(".bench_work");
    let work_dir = work_root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }

    let expected = expected_for(args.workload, args.seed);
    let mut ctx = Ctx {
        plan: plan(args.workload, args.seed),
        workers,
        work_dir: work_dir.clone(),
        ledger: Ledger::new(expected),
        samples: Samples::default(),
        measure_until: None,
    };
    let clock_ns = replica::clock_pair_ns();

    // Closed loop for `--seconds`. The first iteration warms the pools,
    // page cache and allocator; its samples are discarded, its correctness
    // checks are kept.
    let start = Instant::now();
    let mut iterations = 0usize;
    let mut measured_from = Instant::now();
    let mut rss = 0.0;
    while iterations < 2 || secs(measured_from) < args.seconds {
        if args.trace {
            layers::iteration(&mut ctx, iterations, clock_ns);
        } else {
            e2e::iteration(&mut ctx, iterations);
        }
        if iterations == 0 {
            // Peak memory over the warm-up iteration, which ran every leg
            // exactly once: the reading depends neither on how long the run
            // lasts nor on host speed (repetition counts and retakes change
            // the allocation history; read at the end of 25-second runs the
            // peak varied by up to 25%).
            rss = peak_rss_mb();
            ctx.samples = Samples::default();
            measured_from = Instant::now();
            ctx.measure_until = Some(measured_from + Duration::from_secs_f64(args.seconds));
        }
        iterations += 1;
    }
    let total_s = secs(start);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(&work_root);

    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut metrics = Obj::new();
    let mut detail = Obj::new();
    for &(name, unit, better) in table {
        let summary = ctx.samples.summary(name);
        let value = match (name, summary) {
            ("peak_rss_mb", _) => rss,
            (_, Some(s)) => s.median,
            (_, None) => {
                ctx.ledger
                    .op(name, vec!["no sample was measured".to_string()]);
                0.0
            }
        };
        metrics = metrics.raw(
            name,
            &Obj::new().num("value", value).str("unit", unit).finish(),
        );
        let d = Obj::new().str("unit", unit).str("better", better.as_str());
        let d = match summary {
            Some(s) => with_summary(d, &s),
            None if name == "peak_rss_mb" => d.int("n", 1).num("median", rss),
            None => d,
        };
        detail = detail.raw(name, &d.finish());
    }
    // Everything else sampled: raw (unnormalized) end-to-end values, the
    // host-speed factor and steal readings.
    let mut other = Obj::new();
    for (name, s) in ctx.samples.summaries() {
        if !table.iter().any(|&(n, _, _)| n == name) {
            other = other.raw(&name, &with_summary(Obj::new(), &s).finish());
        }
    }

    let unattributed = ctx
        .samples
        .summary("replica.unattributed_share")
        .map(|s| s.median);
    let flagged = unattributed.is_some_and(|u| u > layers::UNATTRIBUTED_FLAG);
    if flagged {
        eprintln!(
            "warning: {:.1}% of the traced wall time is not attributed to a layer (flag above {:.0}%)",
            unattributed.unwrap_or(0.0) * 100.0,
            layers::UNATTRIBUTED_FLAG * 100.0
        );
    }
    let root = repo_root();
    let mut params = Obj::new();
    for (k, v) in ctx.plan.params() {
        params = params.str(k, &v);
    }
    let failures: Vec<String> = ctx.ledger.failures.iter().map(|f| json_str(f)).collect();
    let report = Obj::new()
        .str("workload", args.workload.name())
        .int("seed", args.seed)
        .str("mode", if args.trace { "traced" } else { "end-to-end" })
        .raw(
            "host",
            &Obj::new()
                .int("available_parallelism", workers as u64)
                .int("workers", workers as u64)
                .str("os", std::env::consts::OS)
                .str("arch", std::env::consts::ARCH)
                .finish(),
        )
        .raw(
            "build",
            &Obj::new()
                .str("profile", env!("BENCH_BUILD_PROFILE"))
                .str("rustc", env!("BENCH_RUSTC_VERSION"))
                .str("git_rev", &git_rev(&root))
                .str("source_digest", &source_digest(&root))
                .finish(),
        )
        .raw("params", &params.finish())
        .int("iterations", iterations as u64)
        .int("warmup_iterations_discarded", 1)
        .num("measured_s", total_s)
        .int("stored_values_checked", ctx.ledger.expected_len() as u64)
        .raw(
            "unattributed_flagged",
            if flagged { "true" } else { "false" },
        )
        .raw("metrics", &detail.finish())
        .raw("other_samples", &other.finish())
        .raw("failures", &format!("[{}]", failures.join(",")))
        .finish();
    println!("{}", Obj::new().raw("report", &report).finish());

    if args.print_expected {
        for (k, v) in ctx.ledger.seen() {
            eprintln!("{} {} {k} {v}", args.workload.name(), args.seed);
        }
    }
    for f in &ctx.ledger.failures {
        eprintln!("failed: {f}");
    }
    let correct = ctx.ledger.failed == 0 && ctx.ledger.attempted > 0;
    println!(
        "{}",
        Obj::new()
            .raw("correct", if correct { "true" } else { "false" })
            .int("attempted", ctx.ledger.attempted)
            .int("failed", ctx.ledger.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    );
    ExitCode::SUCCESS
}
