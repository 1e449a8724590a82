//! The warroom: a live terminal dashboard for the campaign stages.
//!
//! A deliberately dependency-free, offline-friendly renderer: plain ASCII
//! panels plus two raw ANSI escapes (clear screen, cursor home) when ANSI
//! is enabled. The [`Dashboard`] consumes [`CampaignEvent`]s — the stream
//! every stage emits — and renders the campaign's state: probe progress,
//! the finished sensitivity heatmap, the search frontier, and run-cache
//! hit rates.

use std::collections::VecDeque;

use crate::heatmap::{ramp, Family, SensitivityHeatmap};

/// One live event of a running campaign — what the stages stream and the
/// dashboard renders.
#[derive(Debug, Clone)]
pub enum CampaignEvent {
    /// A stage began (`"profile"`, `"evaluate"`, `"attack"`).
    Stage(&'static str),
    /// One heatmap probe resolved.
    ProbeDone {
        /// Probe family.
        family: Family,
        /// Bank-spread bucket.
        bank_group: u32,
        /// Intensity bucket.
        row_group: u32,
        /// Mean slowdown the probe provoked.
        slowdown: f64,
        /// Whether the run cache answered it without simulating.
        cached: bool,
    },
    /// The search frontier advanced: best slowdown after `evaluation`
    /// candidate evaluations.
    Frontier {
        /// Candidate evaluations spent so far.
        evaluation: u32,
        /// Best slowdown found so far.
        best_slowdown: f64,
    },
    /// Run-cache counters for the stage so far.
    CacheStats {
        /// Cells answered from cache.
        hits: u64,
        /// Cells that simulated.
        misses: u64,
    },
    /// A free-form log line.
    Note(String),
}

/// Log lines retained.
const LOG_LINES: usize = 6;

/// Accumulated campaign state, renderable at any moment.
#[derive(Debug, Default)]
pub(crate) struct Dashboard {
    stage: String,
    probes_done: usize,
    probes_cached: usize,
    last_probe: Option<String>,
    heatmap_art: Option<String>,
    frontier: Vec<(u32, f64)>,
    cache: Option<(u64, u64)>,
    log: VecDeque<String>,
}

impl Dashboard {
    /// An empty dashboard.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Folds one campaign event into the state.
    pub(crate) fn handle(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::Stage(name) => {
                self.stage = name.to_string();
                self.push_log(format!("stage: {name}"));
            }
            CampaignEvent::ProbeDone { family, bank_group, row_group, slowdown, cached } => {
                self.probes_done += 1;
                if *cached {
                    self.probes_cached += 1;
                }
                self.last_probe = Some(format!(
                    "{family} b{bank_group} r{row_group} {slowdown:.2}x{}",
                    if *cached { " (cached)" } else { "" }
                ));
            }
            CampaignEvent::Frontier { evaluation, best_slowdown } => {
                self.frontier.push((*evaluation, *best_slowdown));
            }
            CampaignEvent::CacheStats { hits, misses } => self.cache = Some((*hits, *misses)),
            CampaignEvent::Note(line) => self.push_log(line.clone()),
        }
    }

    /// Installs the finished heatmap's ASCII rendering as a panel.
    pub(crate) fn set_heatmap_art(&mut self, art: &str) {
        self.heatmap_art = Some(art.trim_end().to_string());
    }

    fn push_log(&mut self, line: String) {
        if self.log.len() == LOG_LINES {
            self.log.pop_front();
        }
        self.log.push_back(line);
    }

    fn sparkline(values: &[f64]) -> String {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        values.iter().map(|v| ramp(*v, lo, hi)).collect()
    }

    /// Renders the full frame. With `ansi` the frame is prefixed by
    /// clear-screen + cursor-home so repeated renders animate in place;
    /// without it the frame is plain text (for logs, CI, and pipes).
    pub(crate) fn render(&self, ansi: bool) -> String {
        let mut out = String::new();
        if ansi {
            out.push_str("\x1b[2J\x1b[H");
        }
        out.push_str("== warroom — profile → evaluate → attack ==\n");
        out.push_str(&format!(
            "stage: {}\n",
            if self.stage.is_empty() { "(idle)" } else { &self.stage }
        ));
        if self.probes_done > 0 {
            out.push_str(&format!(
                "probes: {} done ({} cached){}\n",
                self.probes_done,
                self.probes_cached,
                self.last_probe.as_deref().map(|l| format!("  last: {l}")).unwrap_or_default()
            ));
        }
        if let Some(art) = &self.heatmap_art {
            for line in art.lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        if let Some((evaluation, best)) = self.frontier.last() {
            let climb: Vec<f64> = self.frontier.iter().map(|(_, b)| *b).collect();
            out.push_str(&format!(
                "search frontier |{}| eval {} best {:.2}x\n",
                Self::sparkline(&climb),
                evaluation,
                best
            ));
        }
        if let Some((hits, misses)) = self.cache {
            out.push_str(&format!("cache: {hits} hits / {misses} misses\n"));
        }
        for line in &self.log {
            out.push_str(&format!("  | {line}\n"));
        }
        out
    }

    /// A deterministic synthetic frame: what `redteam warroom
    /// --render-once` prints so headless environments (CI) can snapshot
    /// the renderer without running a campaign.
    pub(crate) fn render_once_sample(ansi: bool) -> String {
        let mut d = Dashboard::new();
        d.handle(&CampaignEvent::Stage("profile"));
        let map = SensitivityHeatmap::synthetic();
        for cell in &map.cells {
            d.handle(&CampaignEvent::ProbeDone {
                family: cell.family,
                bank_group: cell.bank_group,
                row_group: cell.row_group,
                slowdown: cell.slowdown,
                cached: (cell.bank_group + cell.row_group) % 2 == 0,
            });
        }
        d.set_heatmap_art(&map.render_ascii());
        for (e, b) in [(6u32, 2.1f64), (12, 2.1), (18, 2.9), (24, 3.4)] {
            d.handle(&CampaignEvent::Frontier { evaluation: e, best_slowdown: b });
        }
        d.handle(&CampaignEvent::CacheStats { hits: 6, misses: 10 });
        d.handle(&CampaignEvent::Note("attack: 4 priors from the heatmap, budget 48".into()));
        d.render(ansi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_frame_is_deterministic_and_names_every_panel() {
        let a = Dashboard::render_once_sample(false);
        let b = Dashboard::render_once_sample(false);
        assert_eq!(a, b, "sample frame must be snapshot-stable");
        for needle in [
            "warroom — profile → evaluate → attack",
            "probes:",
            "sensitivity heatmap",
            "search frontier",
            "cache: 6 hits / 10 misses",
        ] {
            assert!(a.contains(needle), "missing {needle:?} in:\n{a}");
        }
        assert!(!a.contains('\x1b'), "plain frame must be ANSI-free");
        let ansi = Dashboard::render_once_sample(true);
        assert!(ansi.starts_with("\x1b[2J\x1b[H"), "ANSI frame clears and homes");
        assert_eq!(&ansi["\x1b[2J\x1b[H".len()..], a, "same body either way");
    }

    #[test]
    fn dashboard_folds_events_and_caps_buffers() {
        let mut d = Dashboard::new();
        for i in 0..100u32 {
            d.handle(&CampaignEvent::Frontier { evaluation: i, best_slowdown: i as f64 });
            d.handle(&CampaignEvent::Note(format!("line {i}")));
        }
        assert_eq!(d.frontier.len(), 100, "the whole climb feeds the sparkline");
        assert_eq!(d.log.len(), LOG_LINES);
        let frame = d.render(false);
        assert!(frame.contains("line 99"), "{frame}");
        assert!(!frame.contains("line 1\n"), "old log lines scroll away");
    }
}
