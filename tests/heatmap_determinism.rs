//! Byte-identical sensitivity heatmaps across repeated profiles.
//!
//! The profile stage's warm-start and zero-simulation guarantees rest on
//! the heatmap being a pure function of the profile configuration: the
//! same grid must serialize byte-identically across repeated concurrent
//! profiles, and a profile interrupted mid-way must resume to the same
//! bytes. Any divergence would make a "warm" profile disagree with the
//! cold one it claims to reproduce. (That a scenario-genome cell and its
//! reference are the same on the dense loop is checked at the `System`
//! level, in `tests/engine_equivalence.rs`.)

use dapper_repro::redteam::{run_profile, Family, ProfileConfig};
use dapper_repro::sim::parallel_map;
use dapper_repro::sim_core::json::JsonCodec;

fn base_config() -> ProfileConfig {
    let mut cfg = ProfileConfig::new("hydra", "povray_like");
    cfg.arena.window_us = 25.0;
    cfg.bank_groups = 2;
    cfg.row_groups = 2;
    cfg.families = vec![Family::Hammer, Family::Thrash];
    cfg
}

#[test]
fn heatmap_is_byte_identical_across_repeats() {
    let jobs: Vec<_> = (0..2).map(|rep| (format!("rep{rep}"), base_config())).collect();
    let outcomes: Vec<(String, String)> = parallel_map(jobs, |(label, cfg)| {
        let (map, stats) = run_profile(&cfg, None, &mut |_| {});
        assert_eq!(stats.cells, 8, "{label}");
        (label, map.encode().render())
    })
    .into_iter()
    .map(|o| o.expect("profile must not panic"))
    .collect();

    // Every repeat must render the bytes of the first.
    let (ref_label, ref_bytes) = &outcomes[0];
    assert!(ref_bytes.contains("\"cells\""), "{ref_label}: heatmap must serialize cells");
    for (label, bytes) in &outcomes[1..] {
        assert_eq!(bytes, ref_bytes, "{label}: heatmap bytes diverged from {ref_label}");
    }
}

#[test]
fn interrupted_profile_keeps_every_settled_probe() {
    use dapper_repro::redteam::CampaignEvent;
    use dapper_repro::sim::RunCache;
    let dir = std::env::temp_dir().join(format!("dapper-heatmap-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = base_config();
    let (uninterrupted, _) = run_profile(&cfg, None, &mut |_| {});

    // Kill the profile the moment the first simulated probe is reported.
    // Probes are checkpointed as they settle, before anything is
    // reported, so all eight are already in the cache.
    let cache = RunCache::open(&dir).expect("open cache");
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_profile(&cfg, Some(&cache), &mut |e| {
            if matches!(e, CampaignEvent::ProbeDone { cached: false, .. }) {
                panic!("interrupted");
            }
        })
    }));
    std::panic::set_hook(prev);
    assert!(killed.is_err(), "the observer interrupts the cold profile");

    let cache = RunCache::open(&dir).expect("reopen cache");
    let (resumed, stats) = run_profile(&cfg, Some(&cache), &mut |_| {});
    assert_eq!((stats.hits, stats.simulations), (8, 0), "every settled probe survived");
    assert_eq!(resumed.encode().render(), uninterrupted.encode().render());
    let _ = std::fs::remove_dir_all(&dir);
}
