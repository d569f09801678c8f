//! The traced replica must reproduce `Simulation::run` bit for bit on every
//! workload shape, and workload generation must be a pure function of the
//! seed.

use hcapp::coordinator::Simulation;
use hcapp::resume::outcome_digest;
use hcapp_benchmark::replica::{replay, traced_run};
use hcapp_benchmark::workload::{plan, plan_with, Workload};
use hcapp_sim_core::time::SimDuration;

fn short(w: Workload) -> SimDuration {
    match w {
        Workload::Scaled256 => SimDuration::from_micros(30),
        _ => SimDuration::from_micros(600),
    }
}

#[test]
fn replica_reproduces_every_workload_shape() {
    for w in Workload::ALL {
        let p = plan_with(w, 7, Some(short(w)));
        for job in &p.jobs {
            let want = outcome_digest(&Simulation::new(job.sys.clone(), job.run.clone()).run());
            let traced = traced_run(&job.sys, &job.run);
            assert_eq!(
                outcome_digest(&traced.outcome),
                want,
                "{} {}",
                w.name(),
                job.label
            );
            let r = replay(&traced.recording, job.sys.tick);
            assert_eq!(r.mismatches, 0, "{} {} replay", w.name(), job.label);
            assert_eq!(r.delivery_ticks, traced.times.domain_ticks);
        }
    }
}

#[test]
fn generation_is_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        let a = plan(w, 11);
        let b = plan(w, 11);
        let c = plan(w, 12);
        let render = |p: &hcapp_benchmark::workload::Plan| {
            p.jobs
                .iter()
                .map(|j| format!("{} {:?} {:?}", j.label, j.sys, j.run))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&a), render(&b), "{}", w.name());
        assert_eq!(a.params(), b.params());
        assert_ne!(
            render(&a),
            render(&c),
            "{}: the seed must reach the inputs",
            w.name()
        );
        assert_eq!(
            a.jobs.len(),
            c.jobs.len(),
            "the seed never changes the shape"
        );
    }
}
