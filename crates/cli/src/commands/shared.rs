//! Flag decoding shared by the run-like commands, plus the small
//! file-interchange helpers (output paths under `results/`, phase-trace
//! JSONL) that more than one subcommand needs.

use hcapp::controller::thermal_guard::ThermalConfig;
use hcapp::coordinator::{RunConfig, SoftwareConfig};
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::software::ComponentKind;
use hcapp::system::SystemConfig;
use hcapp_pdn::RippleSpec;
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_sim_core::units::Watt;
use hcapp_workloads::benchmarks::Benchmark;
use hcapp_telemetry::json::{self, JsonValue, Obj};
use hcapp_workloads::combos::{combo_by_name, Combo};
use hcapp_workloads::phase::Phase;
use hcapp_workloads::trace::PhaseTrace;

use crate::args::{ArgError, Args};

fn bad(flag: &str, value: String, expected: &'static str) -> ArgError {
    ArgError::BadValue {
        flag: flag.to_string(),
        value,
        expected,
    }
}

/// Decode `--scheme` (`hcapp | rapl | sw | fixed[:volts] | custom:<us>`).
pub fn scheme(args: &Args) -> Result<ControlScheme, ArgError> {
    let s = args.string("scheme", "hcapp")?;
    let lower = s.to_ascii_lowercase();
    match lower.as_str() {
        "hcapp" => Ok(ControlScheme::Hcapp),
        "rapl" | "rapl-like" => Ok(ControlScheme::RaplLike),
        "sw" | "sw-like" | "software" => Ok(ControlScheme::SoftwareLike),
        "fixed" => Ok(ControlScheme::fixed_baseline()),
        other => {
            if let Some(v) = other.strip_prefix("fixed:") {
                let volts: f64 = v
                    .parse()
                    .map_err(|_| bad("scheme", s.clone(), "fixed:<volts>"))?;
                return Ok(ControlScheme::FixedVoltage(
                    hcapp_sim_core::units::Volt::new(volts),
                ));
            }
            if let Some(us) = other.strip_prefix("custom:") {
                let us: u64 = us
                    .parse()
                    .map_err(|_| bad("scheme", s.clone(), "custom:<microseconds>"))?;
                return Ok(ControlScheme::CustomPeriod(SimDuration::from_micros(
                    us.max(1),
                )));
            }
            Err(bad(
                "scheme",
                s,
                "hcapp, rapl, sw, fixed[:volts] or custom:<us>",
            ))
        }
    }
}

/// Decode `--combo` or the `--cpu`/`--gpu` pair.
pub fn combo(args: &Args) -> Result<Combo, ArgError> {
    let named = args.opt_string("combo")?;
    let cpu = args.opt_string("cpu")?;
    let gpu = args.opt_string("gpu")?;
    match (named, cpu, gpu) {
        (Some(name), None, None) => {
            combo_by_name(&name).ok_or_else(|| bad("combo", name, "a Table 3 combo name"))
        }
        (None, Some(c), Some(g)) => {
            let cpu = Benchmark::by_name(&c)
                .filter(|b| b.is_cpu())
                .ok_or_else(|| bad("cpu", c, "a CPU benchmark name"))?;
            let gpu = Benchmark::by_name(&g)
                .filter(|b| !b.is_cpu())
                .ok_or_else(|| bad("gpu", g, "a GPU benchmark name"))?;
            Ok(Combo::new("custom", cpu, gpu))
        }
        (None, None, None) => Ok(combo_by_name("Hi-Hi").expect("default combo")),
        _ => Err(bad(
            "combo",
            "(mixed)".to_string(),
            "either --combo NAME or both --cpu and --gpu",
        )),
    }
}

/// Decode the power limit flags.
pub fn limit(args: &Args) -> Result<PowerLimit, ArgError> {
    let budget = args.f64("budget", 100.0)?;
    let window_us = args.u64("window-us", 20)?;
    if budget <= 0.0 {
        return Err(bad("budget", budget.to_string(), "a positive wattage"));
    }
    Ok(PowerLimit::new(
        Watt::new(budget),
        SimDuration::from_micros(window_us.max(1)),
    ))
}

/// Decode the degraded-mode tuning flags (`--stale-after`,
/// `--stale-dwell`, `--faulted-after`, `--violation-window`,
/// `--safe-ratio`) over the default [`hcapp::DegradedConfig`].
/// Inconsistent values surface as a clean [`ArgError`] through
/// [`hcapp::DegradedConfig::try_validate`] — never as the panicking
/// internal `validate`.
pub fn degraded(args: &Args) -> Result<hcapp::DegradedConfig, ArgError> {
    let mut cfg = hcapp::DegradedConfig::default();
    cfg.stale_after = args.u64("stale-after", u64::from(cfg.stale_after))? as u32;
    cfg.stale_dwell = args.u64("stale-dwell", u64::from(cfg.stale_dwell))? as u32;
    cfg.faulted_after = args.u64("faulted-after", u64::from(cfg.faulted_after))? as u32;
    cfg.violation_window = args.u64("violation-window", u64::from(cfg.violation_window))? as u32;
    cfg.safe_ratio = args.f64("safe-ratio", cfg.safe_ratio)?;
    cfg.try_validate()
        .map_err(|msg| ArgError::Failed(format!("invalid degraded config: {msg}")))?;
    Ok(cfg)
}

/// Decode `--parallel N`: `None` (flag absent or `0`) selects the serial
/// coordinator, `Some(n)` the pooled executor on `n` threads, the calling
/// thread included (`n - 1` helpers). `--parallel 1` therefore runs every
/// domain inline on the pooled executor's path, spawning no thread —
/// useful for isolating executor overhead — and every subcommand decodes
/// the flag identically.
pub fn parallel_workers(args: &Args) -> Result<Option<usize>, ArgError> {
    Ok(match args.u64("parallel", 0)? as usize {
        0 => None,
        n => Some(n),
    })
}

/// Run a built simulation on the executor `--parallel` selected.
pub fn execute_sim(
    sim: hcapp::coordinator::Simulation,
    workers: Option<usize>,
) -> hcapp::outcome::RunOutcome {
    match workers {
        Some(n) => sim.run_parallel(n),
        None => sim.run(),
    }
}

/// Build the system + run configs from the shared flags.
pub fn build(args: &Args) -> Result<(SystemConfig, RunConfig, PowerLimit), ArgError> {
    let combo = combo(args)?;
    let scheme = scheme(args)?;
    let limit = limit(args)?;
    let ms = args.u64("ms", 50)?.max(1);
    let seed = args.u64("seed", 11)?;

    let mut sys = if args.switch("memory")? {
        SystemConfig::paper_system_with_memory(combo, seed)
    } else {
        SystemConfig::paper_system(combo, seed)
    };
    // Recorded-trace overrides for the compute sides. Both interchange
    // formats replay bit-exactly: the JSONL form `hcapp record` writes by
    // default (first byte `{`) and the legacy CSV.
    let load_trace = |flag: &str, path: &str| -> Result<std::sync::Arc<PhaseTrace>, ArgError> {
        let text = std::fs::read_to_string(path).map_err(|e| bad(
            flag,
            format!("{path}: {e}"),
            "a readable trace file (JSONL or CSV)",
        ))?;
        let parsed = if text.trim_start().starts_with('{') {
            phase_trace_from_jsonl(path, &text)
        } else {
            PhaseTrace::from_csv(path.to_string(), &text).map_err(|e| e.to_string())
        };
        parsed
            .map(std::sync::Arc::new)
            .map_err(|e| bad(flag, format!("{path}: {e}"), "a recorded phase trace"))
    };
    if let Some(path) = args.opt_string("cpu-trace")? {
        let trace = load_trace("cpu-trace", &path)?;
        for d in &mut sys.domains {
            if let hcapp::system::DomainSpec::Cpu { workload, .. } = d {
                *workload = trace.clone().into();
            }
        }
    }
    if let Some(path) = args.opt_string("gpu-trace")? {
        let trace = load_trace("gpu-trace", &path)?;
        for d in &mut sys.domains {
            if let hcapp::system::DomainSpec::Gpu { workload, .. } = d {
                *workload = trace.clone().into();
            }
        }
    }
    if args.switch("adversarial-accel")? {
        sys = sys.with_adversarial_accel();
    }
    match args.opt_string("ripple")?.as_deref() {
        None => {}
        Some("moderate") => sys.ripple = Some(RippleSpec::moderate()),
        Some("severe") => sys.ripple = Some(RippleSpec::severe()),
        Some(other) => {
            return Err(bad("ripple", other.to_string(), "moderate or severe"));
        }
    }
    if args.switch("thermal")? {
        sys.thermal = Some(ThermalConfig::default_package());
    }

    let mut run = RunConfig::new(
        SimDuration::from_millis(ms),
        scheme,
        limit.guardbanded_target(),
    )
    .with_degraded(degraded(args)?);
    run.track_windows = vec![
        limit.window,
        SimDuration::from_micros(20),
        SimDuration::from_millis(1),
    ];
    run.track_windows.dedup();
    match args.opt_string("priority")?.as_deref() {
        None => {}
        Some("cpu") => run.software = SoftwareConfig::StaticPriority(ComponentKind::Cpu),
        Some("gpu") => run.software = SoftwareConfig::StaticPriority(ComponentKind::Gpu),
        Some("sha") => run.software = SoftwareConfig::StaticPriority(ComponentKind::Sha),
        Some("dynamic") => run.software = SoftwareConfig::DynamicBacklog,
        Some(other) => {
            return Err(bad("priority", other.to_string(), "cpu, gpu, sha or dynamic"));
        }
    }
    // `--retarget MS:W[,MS:W...]`: schedule mid-run target changes (§5.2's
    // dynamically adjustable limit). Times are milliseconds from run start
    // (fractions allowed), values are raw watts — deliberately *not*
    // guardbanded, so the spec reads exactly as it will appear in the
    // trace's retarget events.
    if let Some(spec) = args.opt_string("retarget")? {
        let mut last: Option<SimTime> = None;
        for part in spec.split(',') {
            let Some((ms_s, w_s)) = part.split_once(':') else {
                return Err(bad("retarget", part.to_string(), "MS:WATTS[,MS:WATTS...]"));
            };
            let at_ms: f64 = ms_s
                .trim()
                .parse()
                .map_err(|_| bad("retarget", part.to_string(), "a numeric millisecond offset"))?;
            let watts: f64 = w_s
                .trim()
                .parse()
                .map_err(|_| bad("retarget", part.to_string(), "a numeric wattage"))?;
            if !(at_ms >= 0.0) || !(watts > 0.0) {
                return Err(bad(
                    "retarget",
                    part.to_string(),
                    "a non-negative time and positive wattage",
                ));
            }
            let at = SimTime::from_nanos((at_ms * 1e6) as u64);
            // Duplicate or rewound timestamps would make the analyzer's
            // epoch fold mis-bucket the run — reject the offending entry
            // by name rather than silently keeping last-writer-wins.
            if last.is_some_and(|prev| at <= prev) {
                return Err(bad(
                    "retarget",
                    part.to_string(),
                    "strictly increasing timestamps",
                ));
            }
            last = Some(at);
            run = run.with_retarget(at, Watt::new(watts));
        }
    }
    Ok((sys, run, limit))
}

/// Write a command's output file, creating parent directories (the CLI
/// defaults its artifacts to `results/`, which need not exist yet).
pub fn write_output(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

/// Schema tag for recorded phase traces in JSONL form.
pub const PHASE_TRACE_SCHEMA: &str = "hcapp.phase-trace";
/// Current phase-trace schema version.
pub const PHASE_TRACE_VERSION: u64 = 1;

/// Serialize a phase trace as self-describing JSONL: a header line naming
/// the schema, then one object per phase.
pub fn phase_trace_to_jsonl(trace: &PhaseTrace) -> String {
    let mut out = Obj::new()
        .str("schema", PHASE_TRACE_SCHEMA)
        .int("version", PHASE_TRACE_VERSION)
        .str("bench", trace.name())
        .int("phases", trace.phases().len() as u64)
        .finish();
    out.push('\n');
    for p in trace.phases() {
        out.push_str(
            &Obj::new()
                .num("activity", p.activity)
                .num("mem_intensity", p.mem_intensity)
                .num("work_ns", p.work_ns)
                .finish(),
        );
        out.push('\n');
    }
    out
}

/// Parse a phase trace from the JSONL form written by
/// [`phase_trace_to_jsonl`]. `name` labels the resulting trace.
pub fn phase_trace_from_jsonl(name: &str, text: &str) -> Result<PhaseTrace, String> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty phase trace")?;
    let head = json::parse(first).map_err(|e| format!("header: {e}"))?;
    match head.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == PHASE_TRACE_SCHEMA => {}
        Some(s) => return Err(format!("unknown schema {s:?} (expected {PHASE_TRACE_SCHEMA:?})")),
        None => return Err("header missing \"schema\"".into()),
    }
    match head.get("version").and_then(JsonValue::as_f64) {
        Some(v) if v == PHASE_TRACE_VERSION as f64 => {}
        other => return Err(format!("unsupported phase-trace version {other:?}")),
    }
    let mut phases = Vec::new();
    for (i, line) in lines {
        let row = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| {
            row.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("line {}: missing numeric {k:?}", i + 1))
        };
        let work_ns = field("work_ns")?;
        if !(work_ns > 0.0) {
            return Err(format!("line {}: non-positive work_ns {work_ns}", i + 1));
        }
        phases.push(Phase::new(field("activity")?, field("mem_intensity")?, work_ns));
    }
    if phases.is_empty() {
        return Err("phase trace has no phases".into());
    }
    Ok(PhaseTrace::new(name, phases))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(|t| t.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn scheme_decoding() {
        assert_eq!(scheme(&parse("--scheme hcapp")).unwrap(), ControlScheme::Hcapp);
        assert_eq!(scheme(&parse("--scheme rapl")).unwrap(), ControlScheme::RaplLike);
        assert_eq!(scheme(&parse("")).unwrap(), ControlScheme::Hcapp);
        assert_eq!(
            scheme(&parse("--scheme custom:10")).unwrap(),
            ControlScheme::CustomPeriod(SimDuration::from_micros(10))
        );
        assert!(scheme(&parse("--scheme warp")).is_err());
    }

    #[test]
    fn combo_decoding() {
        assert_eq!(combo(&parse("--combo hi-hi")).unwrap().name, "Hi-Hi");
        let custom = combo(&parse("--cpu ferret --gpu hotspot")).unwrap();
        assert_eq!(custom.cpu.name(), "ferret");
        assert_eq!(custom.gpu.name(), "hotspot");
        // Wrong side rejected.
        assert!(combo(&parse("--cpu bfs --gpu hotspot")).is_err());
        // Mixing forms rejected.
        assert!(combo(&parse("--combo Hi-Hi --cpu ferret --gpu bfs")).is_err());
    }

    #[test]
    fn limit_decoding() {
        let l = limit(&parse("--budget 120 --window-us 1000")).unwrap();
        assert_eq!(l.budget.value(), 120.0);
        assert_eq!(l.window, SimDuration::from_millis(1));
        assert!(limit(&parse("--budget -5")).is_err());
    }

    #[test]
    fn build_applies_toggles() {
        let (sys, run, _) = build(&parse(
            "--combo Low-Low --scheme rapl --ms 3 --memory --adversarial-accel --ripple severe --thermal --priority gpu",
        ))
        .unwrap();
        assert_eq!(sys.domains.len(), 4, "memory domain added");
        assert!(sys.ripple.is_some());
        assert!(sys.thermal.is_some());
        assert_eq!(run.scheme, ControlScheme::RaplLike);
        assert_eq!(
            run.software,
            SoftwareConfig::StaticPriority(ComponentKind::Gpu)
        );
    }

    #[test]
    fn retarget_decoding() {
        let (_, run, _) = build(&parse("--combo Low-Low --ms 4 --retarget 1:90,2.5:70")).unwrap();
        assert_eq!(
            run.retargets,
            vec![
                (SimTime::from_micros(1000), Watt::new(90.0)),
                (SimTime::from_micros(2500), Watt::new(70.0)),
            ]
        );
        // Malformed specs are flag errors, not panics.
        assert!(build(&parse("--combo Low-Low --retarget nonsense")).is_err());
        assert!(build(&parse("--combo Low-Low --retarget 1:-5")).is_err());
        assert!(build(&parse("--combo Low-Low --retarget 2:70,1:90")).is_err());
        // Duplicate timestamps are rejected too — last-writer-wins would
        // silently shadow the earlier entry and confuse the epoch fold —
        // and the error names the offending entry, not the whole spec.
        let e = build(&parse("--combo Low-Low --retarget 1:90,1:70"))
            .unwrap_err()
            .to_string();
        assert!(e.contains("1:70"), "{e}");
        assert!(e.contains("strictly increasing"), "{e}");
        let e = build(&parse("--combo Low-Low --retarget 2:70,1:90"))
            .unwrap_err()
            .to_string();
        assert!(e.contains("1:90"), "{e}");
        // A single entry at t=0 stays valid.
        assert!(build(&parse("--combo Low-Low --ms 2 --retarget 0:90")).is_ok());
    }

    #[test]
    fn degraded_flags_apply_and_invalid_values_are_arg_errors_not_panics() {
        let (_, run, _) = build(&parse(
            "--combo Low-Low --ms 2 --stale-after 3 --stale-dwell 5 --faulted-after 9 --violation-window 40 --safe-ratio 0.5",
        ))
        .unwrap();
        assert_eq!(run.degraded.stale_after, 3);
        assert_eq!(run.degraded.stale_dwell, 5);
        assert_eq!(run.degraded.faulted_after, 9);
        assert_eq!(run.degraded.violation_window, 40);
        assert_eq!(run.degraded.safe_ratio, 0.5);

        // `faulted_after < stale_after` is inconsistent: a clean ArgError
        // naming the field, not a panic from the internal validate().
        let e = build(&parse("--combo Low-Low --stale-after 9 --faulted-after 3"))
            .unwrap_err()
            .to_string();
        assert!(e.contains("faulted_after"), "{e}");
        let e = build(&parse("--combo Low-Low --safe-ratio 1.5"))
            .unwrap_err()
            .to_string();
        assert!(e.contains("safe_ratio"), "{e}");
    }

    #[test]
    fn phase_trace_jsonl_round_trips() {
        let trace = PhaseTrace::new(
            "rt",
            vec![Phase::new(0.8, 0.1, 1000.0), Phase::new(0.25, 0.9, 2500.5)],
        );
        let text = phase_trace_to_jsonl(&trace);
        assert!(text.starts_with('{'));
        assert!(text.contains(PHASE_TRACE_SCHEMA));
        let back = phase_trace_from_jsonl("rt", &text).unwrap();
        assert_eq!(back.phases(), trace.phases());
    }

    #[test]
    fn phase_trace_jsonl_rejects_bad_input() {
        assert!(phase_trace_from_jsonl("x", "").is_err());
        assert!(phase_trace_from_jsonl("x", "{\"schema\":\"other\"}\n").is_err());
        let no_rows = format!(
            "{{\"schema\":\"{PHASE_TRACE_SCHEMA}\",\"version\":1}}\n"
        );
        assert!(phase_trace_from_jsonl("x", &no_rows).is_err());
        let bad_work = format!(
            "{{\"schema\":\"{PHASE_TRACE_SCHEMA}\",\"version\":1}}\n{{\"activity\":1,\"mem_intensity\":0,\"work_ns\":0}}\n"
        );
        assert!(phase_trace_from_jsonl("x", &bad_work).is_err());
    }

    #[test]
    fn write_output_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("hcapp_shared_write_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.txt");
        write_output(path.to_str().unwrap(), "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
