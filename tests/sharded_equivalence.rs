//! Seeded determinism of the sharded executor.
//!
//! The lane count is an execution knob, never a model knob: a mixed
//! benign/attack workload on the enlarged eight-channel system must be
//! **byte-identical** across `Threads::{Seq, N(2)}` — and across
//! repeated runs of the same configuration. Any divergence means thread
//! scheduling leaked into results (a merge-order bug, a lookahead
//! violation, or nondeterminism in a shard), which would also silently
//! poison the run cache: sequential and sharded runs of one cell share a
//! single cache entry by design (see `tests/cache_keys.rs`).

use dapper_repro::sim::experiment::{AttackChoice, Experiment, TelemetrySpec};
use dapper_repro::sim::{parallel_map, Threads};

#[test]
fn seeded_eight_channel_runs_are_byte_identical_across_lane_counts() {
    // Three benign cores plus a tailored attacker, seeded, with every
    // window recorder attached so telemetry bytes are compared too.
    let base = Experiment::quick("mcf_like")
        .tracker("dapper-h")
        .attack(AttackChoice::Tailored)
        .eight_channel(2)
        .seed(0xDA99E5)
        .window_us(150.0)
        .with_telemetry(TelemetrySpec::all_recorders(50.0));

    // Each lane setting runs twice: repeats catch nondeterminism that a
    // single seq-vs-sharded comparison could miss (e.g. iteration over an
    // unordered container that happens to collide across settings).
    let mut jobs = Vec::new();
    for (name, threads) in [("seq", Threads::Seq), ("n2", Threads::N(2))] {
        for rep in 0..2 {
            jobs.push((format!("{name}/rep{rep}"), base.clone().threads(threads)));
        }
    }
    let outcomes: Vec<(String, String, String)> = parallel_map(jobs, |(label, e)| {
        let r = e.run();
        let stats = format!("{:?}", r.run);
        let telemetry = r.telemetry.map(|t| t.to_json().render()).unwrap_or_default();
        (label, stats, telemetry)
    })
    .into_iter()
    .map(|o| o.expect("sharded run must not panic"))
    .collect();

    let (ref_label, ref_stats, ref_telemetry) = &outcomes[0];
    assert!(!ref_telemetry.is_empty(), "{ref_label}: telemetry must be recorded");
    for (label, stats, telemetry) in &outcomes[1..] {
        assert_eq!(stats, ref_stats, "{label}: RunStats bytes diverged from {ref_label}");
        assert_eq!(telemetry, ref_telemetry, "{label}: telemetry diverged from {ref_label}");
    }
}
