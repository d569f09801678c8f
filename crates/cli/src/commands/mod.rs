//! CLI subcommands.

pub mod analyze;
pub mod bench;
pub mod compare;
pub mod faults;
pub mod fuzz;
pub mod hist;
pub mod record;
pub mod run;
pub mod sanitize;
pub mod shared;
pub mod soak;
pub mod sweep;
pub mod trace;
pub mod tune;

use hcapp::scheme::ControlScheme;
use hcapp_workloads::benchmarks::Benchmark;
use hcapp_workloads::combos::combo_suite;

/// `hcapp help`.
pub fn help() -> String {
    "\
hcapp — heterogeneous 2.5D power-capping simulator (HCAPP, ICPP'20)

USAGE:
    hcapp <command> [--flag value]...

COMMANDS:
    run     simulate one run
            --combo NAME | --cpu BENCH --gpu BENCH   workload selection
            --scheme hcapp|rapl|sw|fixed|custom:<us> control scheme
            --ms N (50)      --seed N (11)           duration / seed
            --budget W (100) --window-us N (20)      power limit
            --priority cpu|gpu|sha                   §5.3 static priority
            --cpu-trace PATH --gpu-trace PATH        replay recorded traces
            --memory                                 add a fixed-voltage HBM stack
            --adversarial-accel                      §3.3.3 adversarial accelerator
            --ripple moderate|severe                 dirty-rail injection
            --thermal                                §3.3 thermal guards
            --parallel N                             pooled executor on N threads,
                                                     caller included (0/absent = serial)
            --trace PATH --voltage-trace PATH        CSV traces
    sweep   run the Table 3 suite (results memoized in the sweep cache)
            --scheme LIST (hcapp,rapl,sw)  --ms N (50)  --budget/--window-us
            --parallel N (one per core)   worker threads
            --no-cache                    bypass the result cache
            --cache-dir PATH (results/cache)  relocate the cache
            --wipe-cache                  clear the cache before running
    compare two schemes side by side (run flags + --a SCHEME --b SCHEME)
    hist    power histogram of one run (run flags + --bins N)
    tune    §3.1 PID tuning recipe (--ms N (20) --seed N)
    trace   run with the structured tracer and export JSONL events
            (run flags) --out PATH (results/trace.jsonl)
            --events N (65536)    tracer ring capacity
            --check PATH          validate an existing trace instead
    record  record a benchmark's phase trace (JSONL; --legacy for CSV)
            --bench NAME --work-ms N (50) --seed N --out PATH --legacy
    analyze control-loop analytics: settling/overshoot/steady-state error,
            over-budget episodes, throttle residency (schema hcapp.report)
            (run flags) --retarget MS:W[,MS:W...]     live run (default mode)
            --trace PATH                              replay a recorded trace
            --format json|md      --out PATH          report rendering
            --diff OLD --against NEW --tolerance T (0.1)  exit nonzero on
                                                      per-metric regressions
            --assert CHECKS --report FILE             exit nonzero on failed
                                                      min/max bounds
    faults  run under a seeded fault plan, report resilience vs the clean run
            (run flags) --plan quiet|light|moderate|severe (moderate)
            --check               executor-determinism + cap-bound self-test
    sanitize schedule-permutation sanitizer: re-run the pooled executor under
            seeded adversarial shard assignments and start orders; every
            outcome must be byte-identical to the serial run
            (run flags) --orderings N (16)   permutation seeds per worker count
            --parallel N          single worker count (absent = 2 and 3)
    soak    chaos soak: kill a checkpointing run at seeded quanta, resume
            from hcapp.ckpt, gate the stitched outcome/trace/report against
            the uninterrupted oracle at tolerance zero
            (run flags) --plan quiet|light|moderate|severe|none (moderate)
            --kills N (3)         kill/resume links per campaign
            --every N (64)        checkpoint cadence in control quanta
            --dir PATH (results/soak)  checkpoint + trace directory
            --keep                retain hcapp.ckpt / hcapp.trace artifacts
            --worker [--stop-at Q]  single resumable link (scripts/soak.sh
                                  SIGKILLs these to soak real process death)
    bench   quantum-stepper scaling bench: quanta/sec per package size under
            the serial, pooled and batched executors (schema hcapp.bench-kernel)
            --points LIST (3,16,64,256)   domain counts to sweep
            --ms N (10)      simulated milliseconds per run
            --workers N (host cores)  --trials N (3)   pool size / best-of-N
            --out PATH (results/BENCH_kernel.json)
    fuzz    deterministic config-space fuzzer: differential legs (serial vs
            pooled vs permuted vs batched vs kill-and-resume vs cache) plus
            metamorphic paper invariants, with failing-case shrinking
            --seed N (0xC0FFEE)   --cases N (64)      campaign knobs
            --smoke               fixed-seed CI corpus (byte-stable log)
            --plant pooled|cache [--out PATH]  plant a defect, verify the
                                  catch -> shrink -> replay pipeline
            --replay PATH         rerun a committed hcapp.fuzzcase exactly
    list    available combos, benchmarks and schemes
    help    this text
"
    .to_string()
}

/// `hcapp list`.
pub fn list() -> String {
    let mut out = String::from("combos (Table 3):\n");
    for c in combo_suite() {
        out.push_str(&format!(
            "  {:12} cpu={} gpu={}\n",
            c.name,
            c.cpu.name(),
            c.gpu.name()
        ));
    }
    out.push_str("\nbenchmarks (paper subset + extended):\n");
    for b in Benchmark::all() {
        out.push_str(&format!(
            "  {:14} {} ({:?})\n",
            b.name(),
            if b.is_cpu() { "CPU" } else { "GPU" },
            b.class()
        ));
    }
    out.push_str("\nschemes:\n");
    for s in ControlScheme::all() {
        let period = s
            .control_period()
            .map(|p| format!("{p}"))
            .unwrap_or_else(|| "static".to_string());
        out.push_str(&format!("  {:18} period {}\n", s.name(), period));
    }
    out.push_str("  custom:<us>        HCAPP stack at an arbitrary period\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_mentions_commands() {
        let h = help();
        for needle in ["run", "sweep", "hist", "tune", "list"] {
            assert!(h.contains(needle));
        }
    }

    #[test]
    fn list_mentions_everything() {
        let l = list();
        assert!(l.contains("Hi-Hi"));
        assert!(l.contains("hotspot"));
        assert!(l.contains("RAPL-like"));
        assert!(l.contains("custom:<us>"));
    }
}
