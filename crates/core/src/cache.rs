//! Content-addressed memoization of simulation runs.
//!
//! The simulator is deterministic: a run's [`RunOutcome`] is a pure
//! function of its `(SystemConfig, RunConfig)` pair (the fault plan rides
//! inside `RunConfig`). This module derives a 128-bit content key for that
//! pair ([`job_key`]), round-trips outcomes through a bit-exact text codec
//! ([`encode_outcome`] / [`decode_outcome`]), and layers both over the
//! generic `hcapp-cache` file store so campaign code can skip cells that
//! have already been computed ([`run_all_cached`]).
//!
//! # What is hashed
//!
//! The key covers everything that feeds the run loop: the full
//! `SystemConfig` (via its derived `Debug` rendering — deterministic
//! because simlint rule L3 bans `HashMap`/`HashSet` from library crates,
//! and injective for floats because Rust's `f64` Debug is
//! shortest-roundtrip) plus every `RunConfig` field **except**
//! `batch_quanta` (an execution-strategy knob; the determinism tests pin
//! that it never changes results) and the `tracer`/`profiler` hooks.
//! Runs with a tracer or profiler attached are *uncacheable* ([`job_key`]
//! returns `None`): their value is the side-channel stream, which the
//! cache does not capture, so replaying them from disk would silently
//! drop it.
//!
//! # Invalidation
//!
//! Keys are salted with [`SCHEMA`]. Any change that alters simulation
//! results (a model fix, a controller change) must bump it — stale
//! entries then miss instead of resurrecting old physics. `hcapp sweep
//! --wipe-cache`, [`RunCache::wipe`], or simply deleting `results/cache/`
//! clears the store; every entry is derivable, so wiping is always safe.

use std::path::{Path, PathBuf};

use hcapp_cache::{CacheStore, ContentHash, Hasher};
use hcapp_sim_core::series::TimeSeries;
use hcapp_sim_core::state::{f64_hex, parse_f64_hex};
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;

use crate::coordinator::RunConfig;
use crate::outcome::{ResilienceCounters, RunOutcome};
use crate::scheme::ControlScheme;
use crate::software::ComponentKind;
use crate::system::SystemConfig;

/// Cache schema version, salted into every key and stamped on every entry.
/// Bump on any change that alters simulation results or the codec below.
pub const SCHEMA: &str = "hcapp-cache-v1";

/// The conventional on-disk location, relative to the working directory.
pub fn default_cache_dir() -> PathBuf {
    Path::new("results").join("cache")
}

/// The content key of one simulation job, or `None` when the job is
/// uncacheable (a tracer or profiler is attached — their side-channel
/// output is the point of the run and is not captured by the cache).
pub fn job_key(sys: &SystemConfig, run: &RunConfig) -> Option<ContentHash> {
    if run.tracer.is_some() || run.profiler.is_some() {
        return None;
    }
    let mut h = Hasher::new();
    h.write_str(SCHEMA);
    h.write_str(&format!("{sys:?}"));
    h.write_u64(run.duration.as_nanos());
    h.write_str(&format!("{:?}", run.scheme));
    h.write_f64(run.power_target.value());
    h.write_str(&format!("{:?}", run.retargets));
    h.write_str(&format!("{:?}", run.track_windows));
    h.write_bool(run.record_trace);
    h.write_bool(run.record_voltage_trace);
    h.write_u64(run.trace_interval.as_nanos());
    h.write_str(&format!("{:?}", run.software));
    h.write_str(&format!("{:?}", run.faults));
    h.write_str(&format!("{:?}", run.degraded));
    // run.batch_quanta deliberately omitted: execution strategy, not physics.
    Some(h.finish())
}

fn scheme_tag(s: ControlScheme) -> String {
    match s {
        ControlScheme::Hcapp => "hcapp".into(),
        ControlScheme::RaplLike => "rapl".into(),
        ControlScheme::SoftwareLike => "software".into(),
        ControlScheme::FixedVoltage(v) => format!("fixed {}", f64_hex(v.value())),
        ControlScheme::CustomPeriod(d) => format!("custom {}", d.as_nanos()),
    }
}

fn parse_scheme(tag: &str) -> Option<ControlScheme> {
    let mut parts = tag.split(' ');
    match (parts.next(), parts.next()) {
        (Some("hcapp"), None) => Some(ControlScheme::Hcapp),
        (Some("rapl"), None) => Some(ControlScheme::RaplLike),
        (Some("software"), None) => Some(ControlScheme::SoftwareLike),
        (Some("fixed"), Some(v)) => {
            Some(ControlScheme::FixedVoltage(hcapp_sim_core::units::Volt::new(parse_f64_hex(v)?)))
        }
        (Some("custom"), Some(ns)) => {
            Some(ControlScheme::CustomPeriod(SimDuration::from_nanos(ns.parse().ok()?)))
        }
        _ => None,
    }
}

fn parse_kind(name: &str) -> Option<ComponentKind> {
    [
        ComponentKind::Cpu,
        ComponentKind::Gpu,
        ComponentKind::Sha,
        ComponentKind::Memory,
    ]
    .into_iter()
    .find(|k| k.name() == name)
}

fn encode_series(out: &mut String, label: &str, series: Option<&TimeSeries>) {
    match series {
        None => out.push_str(&format!("{label} none\n")),
        Some(ts) => {
            out.push_str(&format!("{label} {} {}\n", ts.dt().as_nanos(), ts.len()));
            for &v in ts.values() {
                out.push_str(&f64_hex(v));
                out.push('\n');
            }
        }
    }
}

fn decode_series<'a>(
    label: &str,
    lines: &mut impl Iterator<Item = &'a str>,
) -> Option<Option<TimeSeries>> {
    let head = lines.next()?;
    let rest = head.strip_prefix(label)?.strip_prefix(' ')?;
    if rest == "none" {
        return Some(None);
    }
    let mut parts = rest.split(' ');
    let dt_ns: u64 = parts.next()?.parse().ok()?;
    let n: usize = parts.next()?.parse().ok()?;
    if dt_ns == 0 {
        return None;
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(parse_f64_hex(lines.next()?)?);
    }
    Some(Some(TimeSeries::from_values(
        SimDuration::from_nanos(dt_ns),
        values,
    )))
}

/// Serialize an outcome to the cache's line-oriented text form. Floats are
/// written as IEEE-754 bit patterns in hex, so decoding reproduces the
/// outcome *bit-exactly* — the cached result is byte-identical to the run
/// that produced it (pinned by the determinism tests).
pub fn encode_outcome(out: &RunOutcome) -> String {
    let mut s = String::new();
    s.push_str(SCHEMA);
    s.push('\n');
    s.push_str(&format!("scheme {}\n", scheme_tag(out.scheme)));
    s.push_str(&format!("duration_ns {}\n", out.duration.as_nanos()));
    s.push_str(&format!("avg_power {}\n", f64_hex(out.avg_power.value())));
    s.push_str(&format!("energy_j {}\n", f64_hex(out.energy_j)));
    s.push_str(&format!("mean_v {}\n", f64_hex(out.mean_global_voltage)));
    s.push_str(&format!("windowed_max {}\n", out.windowed_max.len()));
    for (w, p) in &out.windowed_max {
        s.push_str(&format!("wm {} {}\n", w.as_nanos(), f64_hex(p.value())));
    }
    s.push_str(&format!("work {}\n", out.work.len()));
    for (k, w) in &out.work {
        s.push_str(&format!("wk {} {}\n", k.name(), f64_hex(*w)));
    }
    let r = &out.resilience;
    s.push_str(&format!(
        "resilience {} {} {} {}\n",
        r.faults_injected, r.health_transitions, r.emergency_engagements, r.emergency_quanta
    ));
    encode_series(&mut s, "trace", out.trace.as_ref());
    encode_series(&mut s, "voltage_trace", out.voltage_trace.as_ref());
    s
}

fn field<'a>(lines: &mut impl Iterator<Item = &'a str>, label: &str) -> Option<String> {
    lines
        .next()?
        .strip_prefix(label)?
        .strip_prefix(' ')
        .map(str::to_string)
}

/// Parse a cache entry back into an outcome. Any malformed, truncated or
/// schema-mismatched body yields `None` — callers treat that as a miss and
/// recompute, so on-disk corruption can never poison a campaign.
pub fn decode_outcome(body: &str) -> Option<RunOutcome> {
    let mut lines = body.lines();
    if lines.next()? != SCHEMA {
        return None;
    }
    let scheme = parse_scheme(&field(&mut lines, "scheme")?)?;
    let duration = SimDuration::from_nanos(field(&mut lines, "duration_ns")?.parse().ok()?);
    let avg_power = Watt::new(parse_f64_hex(&field(&mut lines, "avg_power")?)?);
    let energy_j = parse_f64_hex(&field(&mut lines, "energy_j")?)?;
    let mean_global_voltage = parse_f64_hex(&field(&mut lines, "mean_v")?)?;

    let n_wm: usize = field(&mut lines, "windowed_max")?.parse().ok()?;
    let mut windowed_max = Vec::with_capacity(n_wm);
    for _ in 0..n_wm {
        let row = field(&mut lines, "wm")?;
        let mut parts = row.split(' ');
        let w = SimDuration::from_nanos(parts.next()?.parse().ok()?);
        let p = Watt::new(parse_f64_hex(parts.next()?)?);
        windowed_max.push((w, p));
    }

    let n_wk: usize = field(&mut lines, "work")?.parse().ok()?;
    let mut work = Vec::with_capacity(n_wk);
    for _ in 0..n_wk {
        let row = field(&mut lines, "wk")?;
        let mut parts = row.split(' ');
        let kind = parse_kind(parts.next()?)?;
        let w = parse_f64_hex(parts.next()?)?;
        work.push((kind, w));
    }

    let res = field(&mut lines, "resilience")?;
    let mut parts = res.split(' ');
    let resilience = ResilienceCounters {
        faults_injected: parts.next()?.parse().ok()?,
        health_transitions: parts.next()?.parse().ok()?,
        emergency_engagements: parts.next()?.parse().ok()?,
        emergency_quanta: parts.next()?.parse().ok()?,
    };

    let trace = decode_series("trace", &mut lines)?;
    let voltage_trace = decode_series("voltage_trace", &mut lines)?;
    if lines.next().is_some() {
        return None;
    }

    Some(RunOutcome {
        scheme,
        duration,
        avg_power,
        energy_j,
        windowed_max,
        work,
        mean_global_voltage,
        trace,
        voltage_trace,
        resilience,
    })
}

/// Statistics from one cached campaign dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs answered from disk.
    pub hits: usize,
    /// Cacheable jobs whose key was simply absent — the ordinary cold
    /// path. They ran and were then stored.
    pub misses: usize,
    /// Jobs that cannot be cached (tracer/profiler attached).
    pub uncacheable: usize,
    /// Cacheable jobs whose entry existed on disk but was unreadable or
    /// undecodable. The damaged entry is deleted, the job reruns, and the
    /// fresh outcome is re-stored — but the count is surfaced separately
    /// because persistent corruption is an operational signal (failing
    /// disk, schema drift, a concurrent writer misbehaving), not a cold
    /// cache.
    pub corrupt: usize,
}

impl CacheStats {
    /// `hits + misses + uncacheable + corrupt`.
    pub fn total(&self) -> usize {
        self.hits + self.misses + self.uncacheable + self.corrupt
    }
}

/// Outcome of a classified cache probe ([`RunCache::lookup_classified`]).
#[derive(Debug, Clone)]
pub enum Lookup {
    /// The entry existed and decoded bit-exactly.
    Hit(Box<RunOutcome>),
    /// No entry for this key — the ordinary miss.
    Absent,
    /// An entry file existed but was unreadable or failed to decode; it
    /// has been deleted so the follow-up insert repairs the store.
    Corrupt,
}

/// A [`CacheStore`] specialized to simulation outcomes.
#[derive(Debug, Clone)]
pub struct RunCache {
    store: CacheStore,
}

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first insert).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RunCache {
            store: CacheStore::new(dir),
        }
    }

    /// A cache at the conventional `results/cache/` location.
    pub fn at_default() -> Self {
        Self::new(default_cache_dir())
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Fetch a cached outcome; `None` on miss or undecodable entry.
    /// Campaign code that should distinguish (and clean up) damaged
    /// entries uses [`RunCache::lookup_classified`].
    pub fn lookup(&self, key: ContentHash) -> Option<RunOutcome> {
        match self.lookup_classified(key) {
            Lookup::Hit(out) => Some(*out),
            Lookup::Absent | Lookup::Corrupt => None,
        }
    }

    /// Fetch a cached outcome, telling a cold key apart from a damaged
    /// entry. "Damaged" covers both an unreadable file and a readable body
    /// that fails [`decode_outcome`] (truncated flush, foreign schema,
    /// bit rot); either way the entry is deleted on the spot so the
    /// recompute-and-insert that follows repairs the store instead of
    /// tripping over the same carcass every warm pass.
    pub fn lookup_classified(&self, key: ContentHash) -> Lookup {
        match self.store.load_classified(key) {
            hcapp_cache::Load::Hit(body) => match decode_outcome(&body) {
                Some(out) => Lookup::Hit(Box::new(out)),
                None => {
                    self.store.remove(key);
                    Lookup::Corrupt
                }
            },
            hcapp_cache::Load::Absent => Lookup::Absent,
            hcapp_cache::Load::Unreadable => {
                self.store.remove(key);
                Lookup::Corrupt
            }
        }
    }

    /// Store an outcome under `key`.
    pub fn insert(&self, key: ContentHash, outcome: &RunOutcome) -> bool {
        self.store.save(key, &encode_outcome(outcome))
    }

    /// Delete every entry; returns how many were removed.
    pub fn wipe(&self) -> usize {
        self.store.wipe()
    }

    /// Number of entries on disk.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

/// [`crate::parallel::run_all`] with memoization: cache hits are answered
/// from disk, only misses are dispatched to the worker pool, and every
/// cacheable miss is stored on the way out. Result order matches job
/// order, and each result is bit-identical to what an uncached run would
/// produce (the codec round-trips floats exactly).
pub fn run_all_cached(
    jobs: Vec<(SystemConfig, RunConfig)>,
    workers: usize,
    cache: &RunCache,
) -> (Vec<RunOutcome>, CacheStats) {
    let mut stats = CacheStats::default();
    let mut slots: Vec<Option<RunOutcome>> = Vec::with_capacity(jobs.len());
    let mut misses: Vec<(usize, Option<ContentHash>)> = Vec::new();
    let mut miss_jobs: Vec<(SystemConfig, RunConfig)> = Vec::new();
    for (i, (sys, run)) in jobs.into_iter().enumerate() {
        let key = job_key(&sys, &run);
        let probe = key.map(|k| cache.lookup_classified(k));
        if let Some(Lookup::Hit(hit)) = probe {
            stats.hits += 1;
            slots.push(Some(*hit));
        } else {
            match probe {
                Some(Lookup::Corrupt) => stats.corrupt += 1,
                Some(_) => stats.misses += 1,
                None => stats.uncacheable += 1,
            }
            slots.push(None);
            misses.push((i, key));
            miss_jobs.push((sys, run));
        }
    }
    let fresh = crate::parallel::run_all(miss_jobs, workers);
    for ((i, key), outcome) in misses.into_iter().zip(fresh) {
        if let Some(k) = key {
            cache.insert(k, &outcome);
        }
        slots[i] = Some(outcome);
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("invariant: every job slot is filled by a cache hit or a fresh run"))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::PowerLimit;
    use hcapp_sim_core::units::Volt;
    use hcapp_workloads::combos::combo_suite;

    fn temp_cache(tag: &str) -> RunCache {
        let dir = std::env::temp_dir().join(format!("hcapp_run_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunCache::new(dir)
    }

    fn job() -> (SystemConfig, RunConfig) {
        let sys = SystemConfig::paper_system(combo_suite()[0], 7);
        let run = RunConfig::new(
            SimDuration::from_micros(200),
            ControlScheme::Hcapp,
            PowerLimit::package_pin().guardbanded_target(),
        );
        (sys, run)
    }

    #[test]
    fn key_is_stable_and_config_sensitive() {
        let (sys, run) = job();
        assert_eq!(job_key(&sys, &run), job_key(&sys, &run));
        let mut sys2 = sys.clone();
        sys2.seed += 1;
        assert_ne!(job_key(&sys, &run), job_key(&sys2, &run));
        let mut run2 = run.clone();
        run2.duration = SimDuration::from_micros(300);
        assert_ne!(job_key(&sys, &run), job_key(&sys, &run2));
    }

    #[test]
    fn key_ignores_batch_quanta() {
        let (sys, run) = job();
        let rebatched = run.clone().with_batch_quanta(1);
        assert_eq!(job_key(&sys, &run), job_key(&sys, &rebatched));
    }

    #[test]
    fn codec_roundtrips_bit_exactly() {
        let (sys, run) = job();
        let out = crate::coordinator::Simulation::new(sys, run.with_trace()).run();
        let decoded = decode_outcome(&encode_outcome(&out)).expect("own encoding decodes");
        assert_eq!(decoded.scheme, out.scheme);
        assert_eq!(decoded.duration, out.duration);
        assert_eq!(decoded.avg_power.value().to_bits(), out.avg_power.value().to_bits());
        assert_eq!(decoded.energy_j.to_bits(), out.energy_j.to_bits());
        assert_eq!(decoded.windowed_max, out.windowed_max);
        assert_eq!(decoded.work, out.work);
        assert_eq!(
            decoded.mean_global_voltage.to_bits(),
            out.mean_global_voltage.to_bits()
        );
        assert_eq!(decoded.trace, out.trace);
        assert_eq!(decoded.voltage_trace, out.voltage_trace);
        assert_eq!(decoded.resilience, out.resilience);
        // And the re-encoding is byte-identical.
        assert_eq!(encode_outcome(&decoded), encode_outcome(&out));
    }

    #[test]
    fn corrupt_entries_decode_to_none() {
        assert!(decode_outcome("").is_none());
        assert!(decode_outcome("not-the-schema\n").is_none());
        let (sys, run) = job();
        let out = crate::coordinator::Simulation::new(sys, run).run();
        let body = encode_outcome(&out);
        let truncated = &body[..body.len() / 2];
        assert!(decode_outcome(truncated).is_none());
        let trailing = format!("{body}garbage\n");
        assert!(decode_outcome(&trailing).is_none());
    }

    #[test]
    fn short_float_hex_is_corrupt_not_a_hit() {
        // A float field one digit short is a damaged entry, not a small
        // subnormal: the shared bit-pattern parser requires all 16 digits.
        let cache = temp_cache("short_hex");
        let (sys, run) = job();
        let key = job_key(&sys, &run).expect("untraced job is cacheable");
        let out = crate::coordinator::Simulation::new(sys, run).run();
        let body = encode_outcome(&out);
        let hex = f64_hex(out.energy_j);
        let short = body.replace(&format!("energy_j {hex}\n"), &format!("energy_j {}\n", &hex[1..]));
        assert_ne!(short, body);
        assert!(decode_outcome(&short).is_none());
        assert!(cache.store.save(key, &short));
        assert!(matches!(cache.lookup_classified(key), Lookup::Corrupt));
        assert!(matches!(cache.lookup_classified(key), Lookup::Absent));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn scheme_tags_roundtrip() {
        for s in [
            ControlScheme::Hcapp,
            ControlScheme::RaplLike,
            ControlScheme::SoftwareLike,
            ControlScheme::FixedVoltage(Volt::new(0.9371)),
            ControlScheme::CustomPeriod(SimDuration::from_micros(37)),
        ] {
            assert_eq!(parse_scheme(&scheme_tag(s)), Some(s));
        }
        assert_eq!(parse_scheme("bogus"), None);
    }

    #[test]
    fn traced_jobs_are_uncacheable() {
        let (sys, mut run) = job();
        assert!(job_key(&sys, &run).is_some());
        run.tracer = Some(hcapp_telemetry::tracer::shared(hcapp_telemetry::NullTracer));
        assert!(job_key(&sys, &run).is_none());
    }

    #[test]
    fn warm_lookup_is_bit_identical_to_cold_run() {
        let cache = temp_cache("warm");
        let (sys, run) = job();
        let (cold, s1) = run_all_cached(vec![(sys.clone(), run.clone())], 2, &cache);
        assert_eq!((s1.hits, s1.misses, s1.corrupt), (0, 1, 0));
        let (warm, s2) = run_all_cached(vec![(sys, run)], 2, &cache);
        assert_eq!((s2.hits, s2.misses, s2.corrupt), (1, 0, 0));
        assert_eq!(encode_outcome(&warm[0]), encode_outcome(&cold[0]));
        assert_eq!(cache.wipe(), 1);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_is_counted_deleted_and_repaired() {
        let cache = temp_cache("corrupt");
        let (sys, run) = job();
        let key = job_key(&sys, &run).expect("untraced job is cacheable");
        let (cold, _) = run_all_cached(vec![(sys.clone(), run.clone())], 2, &cache);

        // Truncate the entry on disk: a readable file that no longer
        // decodes. The classified probe must call it corrupt (not a plain
        // miss) and evict it.
        let path = cache.dir().join(format!("{}.entry", key.to_hex()));
        let body = std::fs::read_to_string(&path).expect("entry written");
        std::fs::write(&path, &body[..body.len() / 2]).expect("writable cache dir");
        assert!(matches!(cache.lookup_classified(key), Lookup::Corrupt));
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert!(matches!(cache.lookup_classified(key), Lookup::Absent));

        // Same thing end-to-end through a campaign dispatch: the damaged
        // entry is counted as corrupt, rerun, and the store repaired —
        // so the next pass is a clean hit again.
        cache.insert(key, &cold[0]);
        std::fs::write(&path, "hcapp-cache-v1\ngarbage").expect("writable cache dir");
        let (again, s) = run_all_cached(vec![(sys.clone(), run.clone())], 2, &cache);
        assert_eq!((s.hits, s.misses, s.corrupt), (0, 0, 1));
        assert_eq!(s.total(), 1);
        assert_eq!(encode_outcome(&again[0]), encode_outcome(&cold[0]));
        let (_, s) = run_all_cached(vec![(sys, run)], 2, &cache);
        assert_eq!((s.hits, s.misses, s.corrupt), (1, 0, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
