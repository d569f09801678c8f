//! The metric names the benchmark reports, with their units and which way
//! is better. `BENCHMARK.json` lists the same names (a test pins it).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end host-time metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str, Better); 8] = [
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("sweep_cold_s", "s", Lower),
    ("sweep_warm_s", "s", Lower),
    ("quanta_per_s", "1/s", Higher),
    ("pooled_quanta_per_s", "1/s", Higher),
    ("resume_s", "s", Lower),
    ("traced_quanta_per_s", "1/s", Higher),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: [(&str, &str, Better); 44] = [
    ("global_pid.ns_per_quantum", "ns", Lower),
    ("vr_schedule.ns_per_quantum", "ns", Lower),
    ("aggregate.ns_per_tick", "ns", Lower),
    ("pdn_delivery.ns_per_domain_tick", "ns", Lower),
    ("cpu_step.ns_per_domain_tick", "ns", Lower),
    ("gpu_step.ns_per_domain_tick", "ns", Lower),
    ("sha_step.ns_per_domain_tick", "ns", Lower),
    ("local_update.ns_per_domain_quantum", "ns", Lower),
    ("domains.ns_per_domain_tick", "ns", Lower),
    ("faults.ns_per_quantum", "ns", Lower),
    ("health.ns_per_quantum", "ns", Lower),
    ("pool_overhead.ns_per_quantum", "ns", Lower),
    ("pool_speedup", "ratio", Higher),
    ("sweep_pool.efficiency", "ratio", Higher),
    ("sweep_pool.longest_job_s", "s", Lower),
    ("cache.job_key_us", "us", Lower),
    ("cache.lookup_us", "us", Lower),
    ("cache.decode_us", "us", Lower),
    ("cache.encode_us", "us", Lower),
    ("cache.insert_us", "us", Lower),
    ("cache.entry_bytes", "bytes", Lower),
    ("cache.hit_ratio", "ratio", Higher),
    ("cache.corrupt", "count", Lower),
    ("ckpt.per_checkpoint_ms", "ms", Lower),
    ("ckpt.encode_ms", "ms", Lower),
    ("ckpt.save_ms", "ms", Lower),
    ("ckpt.load_ms", "ms", Lower),
    ("ckpt.bytes", "bytes", Lower),
    ("ckpt.written", "count", Lower),
    ("trace.events", "count", Lower),
    ("trace.bytes", "bytes", Lower),
    ("trace.dropped", "count", Lower),
    ("trace.encode_ns_per_event", "ns", Lower),
    ("analyze.replay_ns_per_event", "ns", Lower),
    ("faults.injected", "count", Lower),
    ("health.transitions", "count", Lower),
    ("quanta", "count", Higher),
    ("domain_ticks", "count", Higher),
    ("replica.wall_s", "s", Lower),
    ("replica.base_wall_s", "s", Lower),
    ("replica.overhead_share", "ratio", Lower),
    ("replica.unattributed_share", "ratio", Lower),
    ("replay.coverage", "ratio", Lower),
    ("clock.pair_ns", "ns", Lower),
];
