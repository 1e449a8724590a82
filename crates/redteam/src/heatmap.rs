//! Sensitivity heatmaps: where, structurally, a tracker is weak.
//!
//! The profile stage sweeps a deterministic grid of cheap probe scenarios —
//! pattern family × bank-spread bucket × intensity bucket — and scores each
//! probe by the benign slowdown it causes under the tracker being profiled.
//! The result is a [`SensitivityHeatmap`]: a serializable, byte-stable
//! document the evaluate stage ranks and the attack stage feeds into
//! [`search`](crate::search::search()) as warm-start priors.

use sim_core::addr::Geometry;
use sim_core::json::{DecodeError, Hex, Json, JsonCodec};

use crate::arena::Arena;
use crate::scenario::{ScenarioSpec, Shape};
use workloads::RESERVED_TOP_ROWS;

/// The parametric probe families, one per non-baseline [`Shape`] kind.
///
/// The spec layer validates `[profile] families = [...]` against
/// [`sim::spec::KNOWN_PROFILE_FAMILIES`]; a unit test pins the two lists
/// to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Fixed aggressor sets hammered round-robin ([`Shape::Hammer`]).
    Hammer,
    /// Strided row sweeps ([`Shape::Sweep`]).
    Sweep,
    /// Distinct row ID per activation ([`Shape::Diagonal`]).
    Diagonal,
    /// LLC pressure without row hammering ([`Shape::Thrash`]).
    Thrash,
}

impl Family {
    /// Every family, in canonical (serialization) order.
    pub(crate) const ALL: [Family; 4] =
        [Family::Hammer, Family::Sweep, Family::Diagonal, Family::Thrash];

    /// Stable lower-case key (what specs and JSON documents spell).
    pub(crate) fn key(self) -> &'static str {
        match self {
            Family::Hammer => "hammer",
            Family::Sweep => "sweep",
            Family::Diagonal => "diagonal",
            Family::Thrash => "thrash",
        }
    }

    /// Parses a family's lower-case key (`hammer`, `sweep`, `diagonal`,
    /// `thrash`).
    pub fn by_key(key: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.key() == key)
    }

    /// Parses a list of [`Self::key`] spellings, `all` standing for every
    /// family, deduplicated in listing order.
    pub(crate) fn parse_list<'a>(
        names: impl IntoIterator<Item = &'a str>,
    ) -> Result<Vec<Family>, String> {
        let mut families = Vec::new();
        for name in names {
            if name.eq_ignore_ascii_case("all") {
                return Ok(Family::ALL.to_vec());
            }
            let family = Family::by_key(name)
                .ok_or_else(|| format!("unknown family '{name}' (try 'all')"))?;
            if !families.contains(&family) {
                families.push(family);
            }
        }
        Ok(families)
    }

    /// Canonical index into [`Self::ALL`].
    pub(crate) fn index(self) -> usize {
        Family::ALL.iter().position(|f| *f == self).expect("family in ALL")
    }
}

/// Travels as its lower-case key.
impl JsonCodec for Family {
    fn encode(&self) -> Json {
        Json::str(self.key())
    }

    fn decode(j: &Json) -> Result<Self, DecodeError> {
        let key = String::decode(j)?;
        Family::by_key(&key).ok_or_else(|| DecodeError::new(format!("unknown family `{key}`")))
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Builds the deterministic probe genome for one heatmap cell.
///
/// The grid axes are structural, not positional: `bank_group` buckets the
/// *bank spread* (how many banks the probe touches, growing to the full
/// rank), and `row_group` buckets the *intensity* — aggressor rows per
/// bank for hammers, swept span for sweeps/diagonals, footprint for
/// thrashing. The cell coordinates are folded into `seed_salt`, so every
/// cell draws a distinct aggressor row set even when clamping collapses
/// its other parameters.
pub(crate) fn probe_spec(
    geom: Geometry,
    family: Family,
    bank_group: u32,
    bank_groups: u32,
    row_group: u32,
    row_groups: u32,
) -> ScenarioSpec {
    assert!(bank_groups >= 1 && row_groups >= 1, "grid axes must be >= 1");
    assert!(bank_group < bank_groups && row_group < row_groups, "cell out of grid");
    let max_banks = geom.banks_per_rank();
    let max_span = geom.rows_per_bank - RESERVED_TOP_ROWS;
    let banks = (max_banks * (bank_group + 1) / bank_groups).max(1);
    let shape = match family {
        // 2 rows/bank at the low end up to 512 at the top: spans the RCC /
        // RAT / group-counter pressure regimes the trackers differ on.
        Family::Hammer => Shape::Hammer { banks, per_bank: 2u32 << (row_group * 8 / row_groups) },
        Family::Sweep => Shape::Sweep {
            banks,
            stride: 64,
            span: (max_span as u64 * (row_group as u64 + 1) / row_groups as u64).max(1) as u32,
        },
        Family::Diagonal => Shape::Diagonal {
            banks,
            span: (max_span as u64 * (row_group as u64 + 1) / row_groups as u64).max(1) as u32,
        },
        // The thrash family has no bank axis; bank groups vary pacing
        // instead (bubbles), intensity varies the footprint.
        Family::Thrash => Shape::Thrash {
            mib: 4u32 << (row_group * 6 / row_groups),
            bubbles: bank_group * 8 / bank_groups,
        },
    };
    let mut spec = ScenarioSpec::baseline(workloads::Attack::CacheThrash);
    spec.shape = shape;
    spec.seed_salt = 0x9E0F_11E5
        ^ ((family.index() as u64) << 48)
        ^ ((bank_group as u64) << 32)
        ^ ((row_group as u64) << 16);
    spec
}

/// Intensity ramp shared by the heatmap grids and the warroom sparkline.
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// The ramp glyph for `value` within `lo..=hi` (the middle glyph when the
/// range is empty).
pub(crate) fn ramp(value: f64, lo: f64, hi: f64) -> char {
    if hi > lo {
        let t = (value - lo) / (hi - lo);
        RAMP[((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)]
    } else {
        RAMP[RAMP.len() / 2]
    }
}

/// One profiled grid cell: the probe genome and its measured effect.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HeatmapCell {
    /// Probe pattern family.
    pub(crate) family: Family,
    /// Bank-spread bucket (0-based).
    pub(crate) bank_group: u32,
    /// Intensity bucket (0-based).
    pub(crate) row_group: u32,
    /// The exact genome probed (rebuildable via [`ScenarioSpec::build`]).
    pub(crate) probe: ScenarioSpec,
    /// Mean benign slowdown vs. the insecure attack-free baseline.
    pub(crate) slowdown: f64,
    /// Worst single-window slowdown from the probe's
    /// [`SlowdownTrace`](sim_core::SlowdownTrace) (0 when no trace window
    /// completed).
    pub(crate) peak_slowdown: f64,
    /// Microseconds until the worst window.
    pub(crate) time_to_max_us: Option<f64>,
    /// Microseconds from the worst window to recovery.
    pub(crate) recovery_us: Option<f64>,
    /// Mitigation commands the probe provoked (VRR + RFM).
    pub(crate) mitigations: u64,
    /// Tracker counter reads + writes injected into DRAM.
    pub(crate) counter_ops: u64,
}

sim_core::json_record!(HeatmapCell {
    family,
    bank_group,
    row_group,
    probe,
    slowdown,
    peak_slowdown,
    time_to_max_us,
    recovery_us,
    mitigations,
    counter_ops,
});

impl HeatmapCell {
    /// Ranking score: the worst-window slowdown when the trace caught one
    /// (transients matter more than the mean under short probe windows),
    /// the mean slowdown otherwise.
    pub(crate) fn score(&self) -> f64 {
        if self.peak_slowdown > 0.0 {
            self.peak_slowdown
        } else {
            self.slowdown
        }
    }
}

/// A per-(tracker, workload) sensitivity heatmap: the profile stage's
/// output, the evaluate and attack stages' input.
///
/// Serialization is canonical — cells in family-major, then bank-group,
/// then row-group order — so two profiles of the same configuration render
/// byte-identical JSON regardless of thread count or cache warmth.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityHeatmap {
    /// Tracker display label (params included), for reports.
    pub(crate) tracker: String,
    /// Tracker registry key, so later stages can rebuild the selection.
    pub(crate) tracker_key: String,
    /// Benign workload sharing the machine.
    pub(crate) workload: String,
    /// Probe simulation window, microseconds.
    pub(crate) probe_window_us: f64,
    /// RowHammer threshold probed at.
    pub(crate) nrh: u32,
    /// Seed the probes ran under.
    pub(crate) seed: u64,
    /// Bank-spread buckets.
    pub(crate) bank_groups: u32,
    /// Intensity buckets.
    pub(crate) row_groups: u32,
    /// Families profiled, in [`Family::ALL`] order.
    pub(crate) families: Vec<Family>,
    /// Cells in canonical order (family-major, bank group, row group).
    pub(crate) cells: Vec<HeatmapCell>,
}

sim_core::json_record!(SensitivityHeatmap {
    tracker,
    tracker_key,
    workload,
    probe_window_us,
    nrh,
    seed as Hex,
    bank_groups,
    row_groups,
    families,
    cells,
});

impl SensitivityHeatmap {
    /// A deterministic synthetic 2×2 map over two families, no simulation
    /// involved: what `warroom --render-once` previews and the unit tests
    /// exercise. Sweep / bank group 1 / intensity 1 is its hottest cell.
    pub(crate) fn synthetic() -> SensitivityHeatmap {
        let geom = Geometry::paper_baseline();
        let families = vec![Family::Hammer, Family::Sweep];
        let mut cells = Vec::new();
        for (fi, family) in families.iter().enumerate() {
            for bg in 0..2 {
                for rg in 0..2 {
                    let slowdown = 1.0 + fi as f64 + bg as f64 * 0.25 + rg as f64 * 0.5;
                    cells.push(HeatmapCell {
                        family: *family,
                        bank_group: bg,
                        row_group: rg,
                        probe: probe_spec(geom, *family, bg, 2, rg, 2),
                        slowdown,
                        peak_slowdown: slowdown + 0.5,
                        time_to_max_us: Some(12.5),
                        recovery_us: if rg == 0 { None } else { Some(30.0) },
                        mitigations: 10 * (bg as u64 + 1),
                        counter_ops: 100,
                    });
                }
            }
        }
        SensitivityHeatmap {
            tracker: "Hydra".into(),
            tracker_key: "hydra".into(),
            workload: "povray_like".into(),
            probe_window_us: 60.0,
            nrh: 500,
            seed: 0xDA99E5,
            bank_groups: 2,
            row_groups: 2,
            families,
            cells,
        }
    }

    /// The cell at a grid coordinate, if that family was profiled.
    pub(crate) fn cell(
        &self,
        family: Family,
        bank_group: u32,
        row_group: u32,
    ) -> Option<&HeatmapCell> {
        self.cells
            .iter()
            .find(|c| c.family == family && c.bank_group == bank_group && c.row_group == row_group)
    }

    /// Cells ranked by [`HeatmapCell::score`] descending; ties break on
    /// canonical cell order so the ranking is deterministic.
    pub(crate) fn ranked(&self) -> Vec<&HeatmapCell> {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        order.sort_by(|&a, &b| {
            self.cells[b].score().total_cmp(&self.cells[a].score()).then(a.cmp(&b))
        });
        order.into_iter().map(|i| &self.cells[i]).collect()
    }

    /// The `k` strongest cells.
    pub(crate) fn top(&self, k: usize) -> Vec<&HeatmapCell> {
        self.ranked().into_iter().take(k).collect()
    }

    /// The arena the evaluate and attack stages work in: this heatmap's
    /// workload, threshold and seed at the campaign window
    /// (250 µs) rather than the probe window.
    pub(crate) fn arena(&self) -> Arena {
        let mut arena = Arena::new(&self.workload);
        arena.nrh = self.nrh;
        arena.seed = self.seed;
        arena
    }

    /// The `n` strongest probe genomes — what the attack stage feeds into
    /// [`search`](crate::search::search()) as warm-start priors.
    pub(crate) fn seed_genomes(&self, n: usize) -> Vec<ScenarioSpec> {
        self.top(n).into_iter().map(|c| c.probe.clone()).collect()
    }

    /// Renders per-family intensity grids with an ASCII ramp — rows are
    /// bank-spread buckets, columns intensity buckets, normalized over the
    /// whole map so families are comparable at a glance.
    pub(crate) fn render_ascii(&self) -> String {
        let lo = self.cells.iter().map(|c| c.score()).fold(f64::INFINITY, f64::min);
        let hi = self.cells.iter().map(|c| c.score()).fold(f64::NEG_INFINITY, f64::max);
        let mut out = String::new();
        out.push_str(&format!(
            "sensitivity heatmap — {} / {} (probe {} µs, N_RH {})\n",
            self.tracker, self.workload, self.probe_window_us, self.nrh
        ));
        if self.cells.is_empty() {
            out.push_str("  (no cells)\n");
            return out;
        }
        out.push_str(&format!(
            "  score range {:.2}x … {:.2}x   intensity →   ramp \"{}\"\n",
            lo,
            hi,
            RAMP.iter().collect::<String>()
        ));
        for family in &self.families {
            out.push_str(&format!("  {:<9}", family.key()));
            for bg in 0..self.bank_groups {
                if bg > 0 {
                    out.push_str(&" ".repeat(11));
                }
                out.push_str(&format!("b{bg} |"));
                for rg in 0..self.row_groups {
                    out.push(self.cell(*family, bg, rg).map_or('?', |c| ramp(c.score(), lo, hi)));
                }
                out.push_str("|\n");
            }
        }
        let ranked = self.ranked();
        if let Some(best) = ranked.first() {
            out.push_str(&format!(
                "  hottest: {} ({:.2}x peak, bank group {}, intensity {})\n",
                best.probe.name(),
                best.score(),
                best.bank_group,
                best.row_group
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_keys_agree_with_the_spec_layer() {
        // Every Family key must be a known spec spelling, and every known
        // spelling except the "all" expander must be a Family.
        for f in Family::ALL {
            assert!(sim::KNOWN_PROFILE_FAMILIES.contains(&f.key()), "{f}");
            assert_eq!(Family::by_key(f.key()), Some(f));
        }
        for key in sim::KNOWN_PROFILE_FAMILIES {
            if key != "all" {
                assert!(Family::by_key(key).is_some(), "{key}");
            }
        }
        assert!(Family::by_key("all").is_none(), "'all' is an expander, not a family");
    }

    #[test]
    fn json_round_trips_byte_identically() {
        // Seeded property: any heatmap (and any cell of it) decodes to
        // itself, re-renders byte-identically, and is rejected with the key
        // named when one is missing or wrong-typed.
        let mut rng = sim_core::rng::Xoshiro256::seed_from(0x4EA7);
        for _ in 0..10 {
            let mut map = SensitivityHeatmap::synthetic();
            map.seed = rng.next_u64();
            map.nrh = rng.next_u64() as u32;
            for cell in &mut map.cells {
                cell.probe = ScenarioSpec::random(&mut rng);
                cell.slowdown = 1.0 + rng.gen_f64();
                cell.time_to_max_us = rng.gen_bool(0.5).then(|| rng.gen_f64() * 60.0);
                cell.mitigations = rng.next_u64() >> 11;
                sim_core::json::assert_codec_laws(cell);
            }
            sim_core::json::assert_codec_laws(&map);
        }
    }

    #[test]
    fn integers_that_do_not_fit_are_rejected_not_truncated() {
        // Regression: `bank_group` and `nrh` were read as u64 and cast
        // down, so 2^32 + 1 loaded as 1.
        let doc = SensitivityHeatmap::synthetic().encode().render();
        for (field, bad) in [
            ("\"nrh\":500", "\"nrh\":4294967297"),
            ("\"nrh\":500", "\"nrh\":-500"),
            ("\"bank_group\":1", "\"bank_group\":4294967297"),
            ("\"row_group\":1", "\"row_group\":1.5"),
        ] {
            assert!(doc.contains(field), "{doc}");
            let broken = Json::parse(&doc.replacen(field, bad, 1)).unwrap();
            let err = SensitivityHeatmap::decode(&broken).expect_err(bad);
            assert!(bad.contains(err.path.rsplit('.').next().unwrap()), "{bad}: {err}");
        }
    }

    #[test]
    fn ranking_is_deterministic_and_score_ordered() {
        let map = SensitivityHeatmap::synthetic();
        let ranked = map.ranked();
        assert_eq!(ranked.len(), map.cells.len());
        for pair in ranked.windows(2) {
            assert!(pair[0].score() >= pair[1].score());
        }
        // The synthetic scores make sweep/b1/r1 the hottest cell.
        assert_eq!(ranked[0].family, Family::Sweep);
        assert_eq!((ranked[0].bank_group, ranked[0].row_group), (1, 1));
        let genomes = map.seed_genomes(3);
        assert_eq!(genomes.len(), 3);
        assert_eq!(genomes[0], ranked[0].probe);
    }

    #[test]
    fn probe_grid_is_deterministic_and_distinct() {
        let geom = Geometry::paper_baseline();
        let mut seen = std::collections::BTreeSet::new();
        for family in Family::ALL {
            for bg in 0..4 {
                for rg in 0..4 {
                    let a = probe_spec(geom, family, bg, 4, rg, 4);
                    let b = probe_spec(geom, family, bg, 4, rg, 4);
                    assert_eq!(a, b, "probe generation is pure");
                    assert!(
                        seen.insert(a.encode().render()),
                        "cells must have distinct genomes: {family} b{bg} r{rg}"
                    );
                    // Every probe must build under the geometry it was
                    // generated for.
                    let _ = a.build(geom, 1);
                }
            }
        }
    }

    #[test]
    fn ascii_render_names_the_workflow_parts() {
        let map = SensitivityHeatmap::synthetic();
        let art = map.render_ascii();
        assert!(art.contains("sensitivity heatmap"), "{art}");
        assert!(art.contains("hammer"), "{art}");
        assert!(art.contains("sweep"), "{art}");
        assert!(art.contains("hottest:"), "{art}");
        // The hottest cell renders the densest ramp glyph.
        assert!(art.contains('@'), "{art}");
    }
}
