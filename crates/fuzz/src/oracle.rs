//! The differential and metamorphic oracles.
//!
//! [`check_case`] runs one [`FuzzCase`] through every executor the repo
//! ships and diffs three artifacts against the serial reference: the
//! encoded outcome (`encode_outcome` bytes — every float as its IEEE-754
//! bit pattern), the JSONL telemetry trace, and the `hcapp.report` replayed
//! offline from that trace. Six differential legs:
//!
//! 1. **serial** — the traced reference run.
//! 2. **pooled** — `run_parallel(workers)`.
//! 3. **permuted** — `run_parallel_permuted(workers, seed)`, the
//!    adversarial shard assignment and start schedule.
//! 4. **batched** — untraced serial at `batch_quanta = 1` and at the case's
//!    batch size.
//! 5. **resume** — kill at the case's quantum, resume from the checkpoint,
//!    compare the outcome *and* the stitched trace-sink bytes.
//! 6. **cache** — `encode_outcome` → `decode_outcome` → re-encode, plus a
//!    disk roundtrip through `RunCache`.
//!
//! Then three metamorphic invariants derived from the paper, checked on the
//! reference outcome (no second opinion needed — the transformed run must
//! agree with the original bit for bit):
//!
//! * **meta-ppe** — Eq. 1–2/4 normalize by the provisioned power, so
//!   scaling the provisioned budget by a power of two must scale PPE by
//!   exactly its inverse (power-of-two float ops touch only the exponent).
//! * **meta-priority** — §5.3's priority register is last-write-wins:
//!   permuting all but the final write cannot change any domain voltage.
//! * **meta-retarget** — §5.2's dynamic limit applies at the next control
//!   quantum boundary, so ceiling every retarget time to its boundary is
//!   outcome-invariant for dynamic schemes.
//!
//! A [`Plant`] carried by the case perturbs exactly one leg, which is how
//! the catch → shrink → replay pipeline is exercised end to end.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hcapp::cache::{decode_outcome, encode_outcome, job_key};
use hcapp::{
    run_resumable, total_quanta, DomainController, ResumeEnd, ResumeOptions, RunCache,
    RunOutcome, Simulation,
};
use hcapp_analyze::StreamAnalyzer;
use hcapp_sim_core::state::f64_hex;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_telemetry::{jsonl, RingTracer, SharedTracer};

use crate::case::{FuzzCase, Plant};
use crate::rng::SplitMix64;

/// One oracle violation: which leg tripped, and a deterministic description
/// (no paths, no timings — campaign logs must be byte-stable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The oracle leg that tripped (`pooled`, `permuted`, `batched`,
    /// `resume`, `cache`, `meta-ppe`, `meta-priority`, `meta-retarget`).
    pub leg: &'static str,
    /// What diverged.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.leg, self.detail)
    }
}

/// Run every oracle leg over `case`. An empty vector means the case upheld
/// the determinism contract and all three metamorphic invariants.
pub fn check_case(case: &FuzzCase) -> Vec<Failure> {
    let mut fails = Vec::new();

    // Leg 1: the traced serial reference.
    let (out_s, trace_s) = run_traced(case, Exec::Serial);
    let enc_s = encode_outcome(&out_s);
    let report_s = replay(&trace_s, "serial", &mut fails);

    // Leg 2: pooled executor.
    let (mut out_p, trace_p) = run_traced(case, Exec::Pooled);
    if case.plant == Plant::PooledBitflip {
        let bits = out_p.avg_power.value().to_bits();
        let flipped = bits ^ 1;
        out_p.avg_power = Watt::new(f64::from_bits(flipped));
    }
    diff_leg(
        &mut fails, "pooled", &enc_s, &encode_outcome(&out_p), &trace_s, &trace_p, &report_s,
    );

    // Leg 3: adversarially permuted pooled executor.
    let (out_m, trace_m) = run_traced(case, Exec::Permuted);
    diff_leg(
        &mut fails, "permuted", &enc_s, &encode_outcome(&out_m), &trace_s, &trace_m, &report_s,
    );

    // Leg 4: untraced serial at batch 1 and at the case's batch size.
    for batch in [1usize, case.batch] {
        let (sys, run) = case.build();
        let out = Simulation::new(sys, run.with_batch_quanta(batch)).run();
        let enc = encode_outcome(&out);
        if enc != enc_s {
            fails.push(Failure {
                leg: "batched",
                detail: format!(
                    "outcome at batch_quanta={batch} diverges from the traced reference ({})",
                    first_divergence(&enc_s, &enc)
                ),
            });
        }
    }

    // Leg 5: kill-and-resume.
    check_resume(case, &enc_s, &trace_s, &mut fails);

    // Leg 6: cache roundtrip (in-memory codec + disk store).
    check_cache(case, &out_s, &enc_s, &mut fails);

    // Metamorphic invariants.
    check_meta_ppe(case, &out_s, &mut fails);
    check_meta_priority(case, &mut fails);
    check_meta_retarget(case, &enc_s, &mut fails);

    fails
}

enum Exec {
    Serial,
    Pooled,
    Permuted,
}

/// Run the case with a ring tracer attached and export the trace through
/// the stock JSONL path (same bytes a `--trace` CLI run would write).
fn run_traced(case: &FuzzCase, exec: Exec) -> (RunOutcome, String) {
    let (sys, run) = case.build();
    let ring = Arc::new(Mutex::new(RingTracer::new(1 << 20)));
    let handle: SharedTracer = ring.clone();
    let run = run.with_tracer(handle);
    let sim = Simulation::new(sys, run);
    let out = match exec {
        Exec::Serial => sim.run(),
        Exec::Pooled => sim.run_parallel(case.workers),
        Exec::Permuted => sim.run_parallel_permuted(case.workers, case.permute_seed),
    };
    let events = ring.lock().expect("ring tracer lock").drain();
    (out, jsonl::export(events.iter(), &[]))
}

/// Replay a JSONL trace into an offline `hcapp.report`.
fn replay(trace: &str, leg: &'static str, fails: &mut Vec<Failure>) -> Option<String> {
    let mut a = StreamAnalyzer::new();
    if let Err(e) = a.consume_jsonl(trace) {
        fails.push(Failure {
            leg,
            detail: format!("trace replay rejected the {leg} trace: {e}"),
        });
        return None;
    }
    Some(a.report().to_json())
}

/// Diff one executor leg's three artifacts against the serial reference.
fn diff_leg(
    fails: &mut Vec<Failure>,
    leg: &'static str,
    enc_s: &str,
    enc: &str,
    trace_s: &str,
    trace: &str,
    report_s: &Option<String>,
) {
    if enc != enc_s {
        fails.push(Failure {
            leg,
            detail: format!(
                "encoded outcome diverges from the serial reference ({})",
                first_divergence(enc_s, enc)
            ),
        });
    }
    if trace != trace_s {
        fails.push(Failure {
            leg,
            detail: format!(
                "JSONL trace diverges from the serial reference ({})",
                first_divergence(trace_s, trace)
            ),
        });
    }
    if let Some(report_s) = report_s {
        // Only replay the leg's trace when its report could differ — if the
        // traces are byte-identical the reports are too.
        if trace != trace_s {
            let mut fresh = Vec::new();
            if let Some(report) = replay(trace, leg, &mut fresh) {
                if &report != report_s {
                    fails.push(Failure {
                        leg,
                        detail: format!(
                            "replayed hcapp.report diverges ({})",
                            first_divergence(report_s, &report)
                        ),
                    });
                }
            }
            fails.append(&mut fresh);
        }
    }
}

/// Kill the run at the case's quantum, resume it from the checkpoint, and
/// compare both the final outcome and the stitched trace-sink bytes.
fn check_resume(case: &FuzzCase, enc_s: &str, trace_s: &str, fails: &mut Vec<Failure>) {
    let (sys, run) = case.build();
    let total = total_quanta(&sys, &run);
    let kill = case.kill_at.min(total.saturating_sub(1));
    let dir = tmp_dir("resume", case.seed);
    if std::fs::create_dir_all(&dir).is_err() {
        fails.push(Failure {
            leg: "resume",
            detail: "could not create the scratch directory".into(),
        });
        return;
    }
    let base = ResumeOptions::new(dir.join("hcapp.ckpt"))
        .with_checkpoint_every(case.checkpoint_every)
        .with_trace_sink(dir.join("hcapp.trace"));
    if kill >= 1 {
        let opts = base.clone().with_stop_at(kill);
        match run_resumable(sys.clone(), run.clone(), &opts) {
            Ok(s) => {
                if let ResumeEnd::Completed(_) = s.end {
                    fails.push(Failure {
                        leg: "resume",
                        detail: format!("link completed despite stop_at {kill} (total {total})"),
                    });
                }
            }
            Err(e) => fails.push(Failure {
                leg: "resume",
                detail: format!("killed link failed: {}", e.kind()),
            }),
        }
    }
    match run_resumable(sys, run, &base) {
        Ok(s) => match s.end {
            ResumeEnd::Completed(out) => {
                let enc = encode_outcome(&out);
                if enc != enc_s {
                    fails.push(Failure {
                        leg: "resume",
                        detail: format!(
                            "resumed outcome diverges from the serial reference ({})",
                            first_divergence(enc_s, &enc)
                        ),
                    });
                }
                match std::fs::read_to_string(dir.join("hcapp.trace")) {
                    Ok(sink) => {
                        if sink != trace_s {
                            fails.push(Failure {
                                leg: "resume",
                                detail: format!(
                                    "stitched trace sink diverges from the serial trace ({})",
                                    first_divergence(trace_s, &sink)
                                ),
                            });
                        }
                    }
                    Err(e) => fails.push(Failure {
                        leg: "resume",
                        detail: format!("trace sink unreadable: {}", e.kind()),
                    }),
                }
            }
            ResumeEnd::Stopped { quantum } => fails.push(Failure {
                leg: "resume",
                detail: format!("final link stopped at quantum {quantum} with no stop_at"),
            }),
        },
        Err(e) => fails.push(Failure {
            leg: "resume",
            detail: format!("resume link failed: {}", e.kind()),
        }),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Codec + disk roundtrip: decode must re-encode to the same bytes, and a
/// `RunCache` store/load cycle must return the identical outcome.
fn check_cache(case: &FuzzCase, out_s: &RunOutcome, enc_s: &str, fails: &mut Vec<Failure>) {
    let mut body = enc_s.to_string();
    if case.plant == Plant::CacheTruncate {
        body.truncate(body.len() / 2);
    }
    match decode_outcome(&body) {
        Some(out) => {
            let enc = encode_outcome(&out);
            if enc != enc_s {
                fails.push(Failure {
                    leg: "cache",
                    detail: format!(
                        "decode → re-encode is not a fixpoint ({})",
                        first_divergence(enc_s, &enc)
                    ),
                });
            }
        }
        None => fails.push(Failure {
            leg: "cache",
            detail: "encoded outcome failed to decode".into(),
        }),
    }
    let (sys, run) = case.build();
    if let Some(key) = job_key(&sys, &run) {
        let dir = tmp_dir("cache", case.seed);
        let cache = RunCache::new(&dir);
        cache.insert(key, out_s);
        match cache.lookup(key) {
            Some(got) => {
                let enc = encode_outcome(&got);
                if enc != enc_s {
                    fails.push(Failure {
                        leg: "cache",
                        detail: format!(
                            "disk roundtrip changed the outcome ({})",
                            first_divergence(enc_s, &enc)
                        ),
                    });
                }
            }
            None => fails.push(Failure {
                leg: "cache",
                detail: "stored entry did not load back".into(),
            }),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Eq. 1–2/4: PPE normalizes by the provisioned power, so a power-of-two
/// budget scale must invert exactly (exponent-only float arithmetic).
fn check_meta_ppe(case: &FuzzCase, out_s: &RunOutcome, fails: &mut Vec<Failure>) {
    let reference = out_s.ppe(Watt::new(case.target));
    for k in [2.0f64, 4.0, 8.0] {
        let rescaled = out_s.ppe(Watt::new(case.target * k)) * k;
        if rescaled.to_bits() != reference.to_bits() {
            fails.push(Failure {
                leg: "meta-ppe",
                detail: format!(
                    "ppe not invariant under provisioned-power scale {k}: {} vs {}",
                    f64_hex(reference),
                    f64_hex(rescaled)
                ),
            });
        }
    }
}

/// §5.3: the domain priority register is last-write-wins, so permuting all
/// but the final write in a register sequence cannot change any voltage.
fn check_meta_priority(case: &FuzzCase, fails: &mut Vec<Failure>) {
    let mut r = SplitMix64::new(case.seed ^ 0x9D0F_55AA_C3E1_7B24);
    let prefix: Vec<f64> = (0..4).map(|_| 0.5 + r.below(101) as f64 / 100.0).collect();
    let last = 0.5 + r.below(101) as f64 / 100.0;
    let grid = [0.7, 0.9, 1.1, 1.3];
    let volts_of = |writes: &[f64]| -> Vec<u64> {
        let mut dc = DomainController::scaled(1.0, Volt::new(0.7), Volt::new(1.3));
        for &p in writes {
            dc.set_priority(p);
        }
        grid.iter()
            .map(|&vg| dc.domain_voltage(Volt::new(vg)).value().to_bits())
            .collect()
    };
    let mut fwd = prefix.clone();
    fwd.push(last);
    let mut rev: Vec<f64> = prefix.iter().rev().copied().collect();
    rev.push(last);
    if volts_of(&fwd) != volts_of(&rev) {
        fails.push(Failure {
            leg: "meta-priority",
            detail: "permuting non-final priority writes changed a domain voltage".into(),
        });
    }
}

/// §5.2: a dynamic retarget takes effect at the next control-quantum
/// boundary, so ceiling every retarget time onto its boundary must leave
/// the outcome bit-identical.
fn check_meta_retarget(case: &FuzzCase, enc_s: &str, fails: &mut Vec<Failure>) {
    let Some(period) = case.scheme.control_period() else {
        return;
    };
    if case.retargets.is_empty() {
        return;
    }
    let p_ns = period.as_nanos();
    let mut alt = case.clone();
    alt.retargets = case
        .retargets
        .iter()
        .map(|&(t, w)| (t.div_ceil(p_ns) * p_ns, w))
        .collect();
    // Ceiled times may collide on one boundary; `build` tolerates the
    // resulting non-strict ordering, and last-write-wins matches the
    // original bucketed application order.
    let (sys, run) = alt.build();
    let out = Simulation::new(sys, run).run();
    let enc = encode_outcome(&out);
    if enc != enc_s {
        fails.push(Failure {
            leg: "meta-retarget",
            detail: format!(
                "boundary-ceiled retargets changed the outcome ({})",
                first_divergence(enc_s, &enc)
            ),
        });
    }
}

/// Deterministic one-line description of where two artifacts diverge.
fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("first divergence at line {}", i + 1);
        }
    }
    format!("lengths differ: {} vs {} bytes", a.len(), b.len())
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory unique to this process and call site. Under the OS
/// temp root, tagged so a crashed run's leftovers are identifiable.
fn tmp_dir(tag: &str, seed: u64) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hcapp_fuzz_{tag}_{}_{seed:016x}_{seq}",
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn clean_cases_pass_every_leg() {
        // A handful of generated seeds; each exercises all six legs plus
        // the metamorphic trio.
        for seed in [3u64, 11, 42] {
            let case = generate(seed);
            let fails = check_case(&case);
            assert!(fails.is_empty(), "seed {seed}: {fails:?}");
        }
    }

    #[test]
    fn planted_pooled_bitflip_is_caught_only_on_the_pooled_leg() {
        let mut case = generate(7);
        case.plant = Plant::PooledBitflip;
        let fails = check_case(&case);
        assert!(!fails.is_empty(), "plant went undetected");
        assert!(
            fails.iter().all(|f| f.leg == "pooled"),
            "plant leaked into other legs: {fails:?}"
        );
    }

    #[test]
    fn planted_cache_truncation_is_caught_on_the_cache_leg() {
        let mut case = generate(9);
        case.plant = Plant::CacheTruncate;
        let fails = check_case(&case);
        assert!(
            fails.iter().any(|f| f.leg == "cache"),
            "truncated cache body decoded cleanly: {fails:?}"
        );
    }
}
