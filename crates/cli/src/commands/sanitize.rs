//! `hcapp sanitize` — run the schedule-permutation sanitizer from the
//! command line.
//!
//! Builds one configuration from the shared run flags, then drives
//! [`hcapp::simsan::check_permutations`]: a serial reference run followed
//! by one pooled run per `(ordering seed, worker count)`, each with an
//! adversarially permuted shard assignment and start schedule. Exits with
//! an error (non-zero status via the dispatch layer) if any ordering's
//! outcome deviates from the serial bytes — that is a real executor bug,
//! not noise.

use hcapp::simsan::{check_permutations, default_seeds};

use crate::args::{ArgError, Args};
use crate::commands::shared;

/// Execute `hcapp sanitize`.
pub fn execute(args: &Args) -> Result<String, ArgError> {
    let (sys, run, _limit) = shared::build(args)?;
    let orderings = args.u64("orderings", 16)?.max(1) as usize;
    let workers = match shared::parallel_workers(args)? {
        Some(n) => vec![n],
        None => vec![2, 3],
    };
    args.finish()?;

    let report = check_permutations(&sys, &run, &workers, &default_seeds(orderings));

    let mut out = String::new();
    out.push_str(&format!(
        "sanitize: {} permuted ordering(s) ({} seed(s) x workers {:?})\n",
        report.orderings, orderings, report.worker_counts
    ));
    out.push_str(&format!(
        "reference: serial outcome, {} encoded bytes\n",
        report.reference_len
    ));
    if report.clean() {
        out.push_str("result: PASS — every permuted schedule matched the serial bytes\n");
        Ok(out)
    } else {
        for m in &report.mismatches {
            out.push_str(&format!(
                "MISMATCH: seed {} with {} worker(s) diverged from serial\n",
                m.seed, m.workers
            ));
        }
        out.push_str(&format!(
            "result: FAIL — {} of {} ordering(s) diverged; reproduce with \
             `hcapp sanitize --parallel <workers> --orderings <n>` on the same flags\n",
            report.mismatches.len(),
            report.orderings
        ));
        Err(ArgError::Failed(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(flags: &str) -> Result<String, ArgError> {
        let argv: Vec<String> = flags.split_whitespace().map(|t| t.to_string()).collect();
        execute(&Args::parse(&argv)?)
    }

    #[test]
    fn sanitize_passes_on_the_pinned_executor() {
        let out = run_cli("--combo Low-Low --ms 1 --orderings 4 --parallel 2").unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("4 permuted ordering(s)"), "{out}");
    }

    #[test]
    fn default_worker_counts_cover_two_and_three() {
        let out = run_cli("--combo Low-Low --ms 1 --orderings 2").unwrap();
        assert!(out.contains("workers [2, 3]"), "{out}");
    }
}
