//! One fuzz case and the committed `hcapp.fuzzcase` interchange format.
//!
//! A [`FuzzCase`] is the complete, self-contained description of one
//! oracle evaluation: the system/run configuration under test, the
//! executor knobs the differential legs exercise (batch size, worker
//! count, permutation seed, kill point, checkpoint cadence), and any
//! [`Plant`]ed defect. The text codec round-trips every field exactly
//! (floats travel as IEEE-754 bit patterns), so `hcapp fuzz --replay`
//! reruns a shrunk repro bit-for-bit — including reproducing a planted
//! divergence, which is how the plant → catch → shrink → replay pipeline
//! is verified end to end.

use hcapp::coordinator::{RunConfig, SoftwareConfig};
use hcapp::scheme::ControlScheme;
use hcapp::software::ComponentKind;
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_sim_core::state::{self, f64_hex};
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_workloads::combos::combo_suite;

/// Schema header of the interchange format; the version suffix gates
/// decoding, so a future field change cannot silently misparse old files.
pub const SCHEMA: &str = "hcapp.fuzzcase v1";

/// A deliberately-introduced defect carried by the case. `None` for real
/// fuzzing; the other variants perturb exactly one oracle leg so the
/// detection/shrinking/replay machinery can be exercised (and gated in CI)
/// without waiting for a genuine divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    /// No planted defect.
    None,
    /// Flip the lowest mantissa bit of the pooled leg's average power
    /// before comparison — the smallest possible executor divergence.
    PooledBitflip,
    /// Truncate the encoded outcome before the cache-roundtrip decode —
    /// a torn cache entry.
    CacheTruncate,
}

impl Plant {
    /// Stable tag used by the codec and the CLI `--plant` flag.
    pub fn tag(self) -> &'static str {
        match self {
            Plant::None => "none",
            Plant::PooledBitflip => "pooled-bitflip",
            Plant::CacheTruncate => "cache-truncate",
        }
    }

    /// Inverse of [`Plant::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "none" => Some(Plant::None),
            "pooled-bitflip" => Some(Plant::PooledBitflip),
            "cache-truncate" => Some(Plant::CacheTruncate),
            _ => None,
        }
    }
}

/// One point in the fuzzed configuration space.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// The case's own seed (identity in logs; also keys the metamorphic
    /// probe points).
    pub seed: u64,
    /// Index into the Table 3 combo suite (taken modulo its length).
    pub combo: usize,
    /// Use the 4-domain system with the memory domain.
    pub memory: bool,
    /// `SystemConfig` seed (workload phase alignment).
    pub sys_seed: u64,
    /// Control scheme under test.
    pub scheme: ControlScheme,
    /// Run duration in nanoseconds (whole microseconds, so every scheme's
    /// quantum stays tick-aligned).
    pub duration_ns: u64,
    /// Power target in watts (`P_SPEC`).
    pub target: f64,
    /// Software priority policy.
    pub software: SoftwareConfig,
    /// Fault plan as `(preset name, plan seed)`, if any.
    pub faults: Option<(String, u64)>,
    /// Scheduled mid-run retargets `(time ns, watts)`, strictly increasing
    /// in time. Only generated for dynamic schemes (the fixed baseline
    /// ignores them by construction).
    pub retargets: Vec<(u64, f64)>,
    /// Record the package power trace.
    pub record_trace: bool,
    /// Record the global voltage trace.
    pub record_vtrace: bool,
    /// `batch_quanta` for the batched leg.
    pub batch: usize,
    /// Worker count for the pooled/permuted legs.
    pub workers: usize,
    /// Adversarial schedule seed for the permuted leg.
    pub permute_seed: u64,
    /// Quantum to kill at in the kill-and-resume leg (clamped to the run's
    /// total; 0 skips the kill and resumes nothing).
    pub kill_at: u64,
    /// Checkpoint cadence for the kill-and-resume leg.
    pub checkpoint_every: u64,
    /// Planted defect, if any.
    pub plant: Plant,
}

impl FuzzCase {
    /// Materialize the `(SystemConfig, RunConfig)` pair this case
    /// describes. The returned run carries no tracer/profiler — the oracle
    /// legs attach their own hooks per executor.
    pub fn build(&self) -> (SystemConfig, RunConfig) {
        let suite = combo_suite();
        // simlint: allow(L6): the index is reduced modulo the suite length on this line
        let combo = suite[self.combo % suite.len()];
        let sys = if self.memory {
            SystemConfig::paper_system_with_memory(combo, self.sys_seed)
        } else {
            SystemConfig::paper_system(combo, self.sys_seed)
        };
        let mut run = RunConfig::new(
            SimDuration::from_nanos(self.duration_ns),
            self.scheme,
            Watt::new(self.target),
        )
        .with_software(self.software)
        .with_batch_quanta(self.batch.max(1));
        if self.record_trace {
            run = run.with_trace();
        }
        if self.record_vtrace {
            run = run.with_voltage_trace();
        }
        if let Some((name, fseed)) = &self.faults {
            if let Some(plan) = FaultPlan::preset(name, *fseed) {
                run = run.with_faults(plan);
            }
        }
        for &(ns, w) in &self.retargets {
            run = run.with_retarget(SimTime::from_nanos(ns), Watt::new(w));
        }
        (sys, run)
    }

    /// One-line summary for campaign logs (deterministic: nothing but the
    /// case's own fields).
    pub fn brief(&self) -> String {
        format!(
            "seed={:#018x} combo={} mem={} scheme={} dur={}us target={} sw={} faults={} rt={} batch={} workers={} kill@{} ckpt={} plant={}",
            self.seed,
            self.combo,
            u8::from(self.memory),
            scheme_tag(self.scheme),
            self.duration_ns / 1_000,
            self.target,
            software_tag(self.software),
            match &self.faults {
                None => "none".to_string(),
                Some((name, s)) => format!("{name}:{s}"),
            },
            self.retargets.len(),
            self.batch,
            self.workers,
            self.kill_at,
            self.checkpoint_every,
            self.plant.tag(),
        )
    }

    /// Serialize to the committed `hcapp.fuzzcase` text form.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        s.push_str(SCHEMA);
        s.push('\n');
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("combo {}\n", self.combo));
        s.push_str(&format!("memory {}\n", u8::from(self.memory)));
        s.push_str(&format!("sys_seed {}\n", self.sys_seed));
        s.push_str(&format!("scheme {}\n", scheme_tag(self.scheme)));
        s.push_str(&format!("duration_ns {}\n", self.duration_ns));
        s.push_str(&format!("target {}\n", f64_hex(self.target)));
        s.push_str(&format!("software {}\n", software_tag(self.software)));
        match &self.faults {
            None => s.push_str("faults none\n"),
            Some((name, fseed)) => s.push_str(&format!("faults {name} {fseed}\n")),
        }
        s.push_str(&format!("record_trace {}\n", u8::from(self.record_trace)));
        s.push_str(&format!("record_vtrace {}\n", u8::from(self.record_vtrace)));
        s.push_str(&format!("batch {}\n", self.batch));
        s.push_str(&format!("workers {}\n", self.workers));
        s.push_str(&format!("permute_seed {}\n", self.permute_seed));
        s.push_str(&format!("kill_at {}\n", self.kill_at));
        s.push_str(&format!("checkpoint_every {}\n", self.checkpoint_every));
        s.push_str(&format!("plant {}\n", self.plant.tag()));
        s.push_str(&format!("retargets {}\n", self.retargets.len()));
        for (ns, w) in &self.retargets {
            s.push_str(&format!("rt {ns} {}\n", f64_hex(*w)));
        }
        s
    }

    /// Parse the text form back, validating every field — a hand-edited
    /// file that would panic the simulator (unsorted retargets, zero
    /// duration, misaligned times) is rejected here with a message naming
    /// the offense instead.
    pub fn decode(text: &str) -> Result<FuzzCase, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let head = lines.next().ok_or("empty fuzzcase")?;
        if head != SCHEMA {
            return Err(format!("unknown schema {head:?} (expected {SCHEMA:?})"));
        }
        let seed = parse_u64(&field(&mut lines, "seed")?)?;
        let combo = parse_u64(&field(&mut lines, "combo")?)? as usize;
        let memory = parse_bool(&field(&mut lines, "memory")?)?;
        let sys_seed = parse_u64(&field(&mut lines, "sys_seed")?)?;
        let scheme = parse_scheme(&field(&mut lines, "scheme")?)?;
        let duration_ns = parse_u64(&field(&mut lines, "duration_ns")?)?;
        let target = parse_f64(&field(&mut lines, "target")?)?;
        let software = parse_software(&field(&mut lines, "software")?)?;
        let faults_field = field(&mut lines, "faults")?;
        let faults = if faults_field == "none" {
            None
        } else {
            let (name, fseed) = faults_field
                .split_once(' ')
                .ok_or("faults: expected `none` or `<preset> <seed>`")?;
            if FaultPlan::preset(name, 0).is_none() {
                return Err(format!("faults: unknown preset {name:?}"));
            }
            Some((name.to_string(), parse_u64(fseed)?))
        };
        let record_trace = parse_bool(&field(&mut lines, "record_trace")?)?;
        let record_vtrace = parse_bool(&field(&mut lines, "record_vtrace")?)?;
        let batch = parse_u64(&field(&mut lines, "batch")?)? as usize;
        let workers = parse_u64(&field(&mut lines, "workers")?)? as usize;
        let permute_seed = parse_u64(&field(&mut lines, "permute_seed")?)?;
        let kill_at = parse_u64(&field(&mut lines, "kill_at")?)?;
        let checkpoint_every = parse_u64(&field(&mut lines, "checkpoint_every")?)?;
        let plant = Plant::from_tag(&field(&mut lines, "plant")?)
            .ok_or("plant: unknown tag")?;
        let n_rt = parse_u64(&field(&mut lines, "retargets")?)? as usize;
        let mut retargets = Vec::with_capacity(n_rt);
        for _ in 0..n_rt {
            let row = field(&mut lines, "rt")?;
            let (ns, w) = row.split_once(' ').ok_or("rt: expected `<ns> <hex>`")?;
            retargets.push((parse_u64(ns)?, parse_f64(w)?));
        }
        if lines.next().is_some() {
            return Err("trailing lines after retarget list".into());
        }
        let case = FuzzCase {
            seed,
            combo,
            memory,
            sys_seed,
            scheme,
            duration_ns,
            target,
            software,
            faults,
            retargets,
            record_trace,
            record_vtrace,
            batch,
            workers,
            permute_seed,
            kill_at,
            checkpoint_every,
            plant,
        };
        case.validate()?;
        Ok(case)
    }

    /// Field-level sanity: everything the simulator would `assert!` on is
    /// rejected with an error instead, so replaying an edited file can
    /// never panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.duration_ns == 0 || self.duration_ns % 1_000 != 0 {
            return Err("duration_ns must be a positive whole microsecond".into());
        }
        if !(self.target.is_finite() && self.target > 0.0) {
            return Err("target must be a positive finite wattage".into());
        }
        if let ControlScheme::FixedVoltage(v) = self.scheme {
            if !(v.value().is_finite() && v.value() > 0.0) {
                return Err("fixed scheme voltage must be positive and finite".into());
            }
        }
        if self.batch == 0 {
            return Err("batch must be at least 1".into());
        }
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be at least 1".into());
        }
        let mut last: Option<u64> = None;
        for &(ns, w) in &self.retargets {
            if last.is_some_and(|prev| ns <= prev) {
                return Err(format!("retarget at {ns} ns is not strictly increasing"));
            }
            if !(w.is_finite() && w > 0.0) {
                return Err(format!("retarget at {ns} ns has a non-positive wattage"));
            }
            last = Some(ns);
        }
        Ok(())
    }
}

fn field<'a>(lines: &mut impl Iterator<Item = &'a str>, label: &str) -> Result<String, String> {
    let line = lines.next().ok_or_else(|| format!("missing field {label:?}"))?;
    line.strip_prefix(label)
        .and_then(|r| r.strip_prefix(' '))
        .map(str::to_string)
        .ok_or_else(|| format!("expected field {label:?}, found {line:?}"))
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.trim().parse().map_err(|_| format!("bad integer {s:?}"))
}

fn parse_bool(s: &str) -> Result<bool, String> {
    match s.trim() {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad flag {other:?} (expected 0 or 1)")),
    }
}

/// [`state::parse_f64_hex`] with the error message the decoder reports
/// (floats use the outcome codec's bit-pattern text, so a fuzzcase
/// survives the round trip bit-exactly).
fn parse_f64(s: &str) -> Result<f64, String> {
    state::parse_f64_hex(s.trim()).ok_or_else(|| format!("bad f64 bit pattern {s:?}"))
}

fn scheme_tag(s: ControlScheme) -> String {
    match s {
        ControlScheme::Hcapp => "hcapp".into(),
        ControlScheme::RaplLike => "rapl".into(),
        ControlScheme::SoftwareLike => "software".into(),
        ControlScheme::FixedVoltage(v) => format!("fixed:{}", f64_hex(v.value())),
        ControlScheme::CustomPeriod(d) => format!("custom:{}", d.as_nanos()),
    }
}

fn parse_scheme(tag: &str) -> Result<ControlScheme, String> {
    match tag {
        "hcapp" => return Ok(ControlScheme::Hcapp),
        "rapl" => return Ok(ControlScheme::RaplLike),
        "software" => return Ok(ControlScheme::SoftwareLike),
        _ => {}
    }
    if let Some(hex) = tag.strip_prefix("fixed:") {
        return Ok(ControlScheme::FixedVoltage(Volt::new(parse_f64(hex)?)));
    }
    if let Some(ns) = tag.strip_prefix("custom:") {
        let ns = parse_u64(ns)?;
        if ns == 0 || ns % 1_000 != 0 {
            return Err("custom period must be a positive whole microsecond".into());
        }
        return Ok(ControlScheme::CustomPeriod(SimDuration::from_nanos(ns)));
    }
    Err(format!("unknown scheme tag {tag:?}"))
}

fn software_tag(sw: SoftwareConfig) -> &'static str {
    match sw {
        SoftwareConfig::None => "none",
        SoftwareConfig::StaticPriority(ComponentKind::Cpu) => "cpu",
        SoftwareConfig::StaticPriority(ComponentKind::Gpu) => "gpu",
        SoftwareConfig::StaticPriority(ComponentKind::Sha) => "sha",
        SoftwareConfig::StaticPriority(ComponentKind::Memory) => "memory",
        SoftwareConfig::DynamicBacklog => "dynamic",
    }
}

fn parse_software(tag: &str) -> Result<SoftwareConfig, String> {
    match tag {
        "none" => Ok(SoftwareConfig::None),
        "cpu" => Ok(SoftwareConfig::StaticPriority(ComponentKind::Cpu)),
        "gpu" => Ok(SoftwareConfig::StaticPriority(ComponentKind::Gpu)),
        "sha" => Ok(SoftwareConfig::StaticPriority(ComponentKind::Sha)),
        "memory" => Ok(SoftwareConfig::StaticPriority(ComponentKind::Memory)),
        "dynamic" => Ok(SoftwareConfig::DynamicBacklog),
        _ => Err(format!("unknown software tag {tag:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FuzzCase {
        FuzzCase {
            seed: 0xDEAD_BEEF,
            combo: 3,
            memory: true,
            sys_seed: 17,
            scheme: ControlScheme::Hcapp,
            duration_ns: 200_000,
            target: 84.28,
            software: SoftwareConfig::StaticPriority(ComponentKind::Gpu),
            faults: Some(("light".into(), 9)),
            retargets: vec![(0, 90.0), (100_000, 70.5)],
            record_trace: true,
            record_vtrace: false,
            batch: 32,
            workers: 3,
            permute_seed: 0x5EED,
            kill_at: 77,
            checkpoint_every: 16,
            plant: Plant::None,
        }
    }

    #[test]
    fn codec_round_trips_every_field() {
        let case = sample();
        let text = case.encode();
        assert!(text.starts_with(SCHEMA));
        let back = FuzzCase::decode(&text).expect("own encoding decodes");
        assert_eq!(back, case);
        // Floats survive bit-exactly, including awkward values.
        let mut odd = case;
        odd.target = f64::from_bits(0x4055_1234_5678_9ABC);
        odd.plant = Plant::CacheTruncate;
        let back = FuzzCase::decode(&odd.encode()).expect("odd case decodes");
        assert_eq!(back.target.to_bits(), odd.target.to_bits());
        assert_eq!(back.plant, Plant::CacheTruncate);
    }

    #[test]
    fn decode_rejects_damage() {
        assert!(FuzzCase::decode("").is_err());
        assert!(FuzzCase::decode("not-a-fuzzcase\n").is_err());
        let good = sample().encode();
        // Truncation.
        assert!(FuzzCase::decode(&good[..good.len() / 2]).is_err());
        // Trailing junk.
        assert!(FuzzCase::decode(&format!("{good}extra\n")).is_err());
        // Unsorted retargets would panic `with_retarget`; rejected here.
        let mut bad = sample();
        bad.retargets = vec![(100_000, 90.0), (50_000, 70.0)];
        assert!(FuzzCase::decode(&bad.encode()).is_err());
        // Zero duration.
        let mut bad = sample();
        bad.duration_ns = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn build_produces_a_valid_simulation_config() {
        let (sys, run) = sample().build();
        assert_eq!(sys.domains.len(), 4, "memory case adds the 4th domain");
        run.validate(&sys);
        assert_eq!(run.retargets.len(), 2);
        assert!(run.faults.is_some());
    }

    #[test]
    fn plant_tags_round_trip() {
        for p in [Plant::None, Plant::PooledBitflip, Plant::CacheTruncate] {
            assert_eq!(Plant::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Plant::from_tag("bogus"), None);
    }
}
