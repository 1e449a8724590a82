//! Checkpoint journal for resumable sweeps.
//!
//! A [`SweepJournal`] is an append-only, checksummed, line-oriented log of
//! two records per sweep: `start`, pinning the sweep's identity (the
//! stable content hash of its canonical spec JSON — see
//! [`SweepJournal::sweep_hash`]), its cell count and the full spec, so a
//! restarted server can resurrect the sweep; and `end`, once every cell
//! finished cleanly. Each record is fsynced as it is appended; a `kill -9`
//! mid-append leaves a torn last line, which fails its checksum and is
//! skipped on load instead of poisoning the whole journal.
//!
//! There are no cell records: a cell is in the run cache exactly when its
//! save landed, so the cache already knows what a sweep finished. Resume
//! is then a subtraction: finished cells answer from the cache
//! (byte-identically — the cache's own invariant), and only the remainder
//! re-executes. The resumed report is identical to an uninterrupted run
//! because cell results are deterministic and the report is assembled in
//! expansion order, not execution order. The `cell` lines of older
//! journals are read and ignored.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use sim_core::cache::{checksum64, content_key};

use crate::spec::SweepSpec;

/// Journal-format magic, bumped if the line envelope changes.
const MAGIC: &str = "dapper-journal1";

/// Progress of one sweep, reconstructed from the journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepProgress {
    /// Total cells the sweep declared at start.
    pub cells_declared: u64,
    /// The canonical spec JSON, for resurrection after a restart.
    pub spec_json: Option<String>,
    /// Whether the sweep recorded a clean `end`.
    pub ended: bool,
}

impl SweepProgress {
    /// Whether this sweep was interrupted: started, never ended.
    pub fn unfinished(&self) -> bool {
        !self.ended
    }
}

/// Everything a journal file currently says, keyed by sweep hash.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    sweeps: BTreeMap<String, SweepProgress>,
    /// Lines that failed the checksum or shape checks (typically the torn
    /// tail of a `kill -9`).
    pub damaged_lines: u64,
}

impl JournalState {
    /// Progress for one sweep hash, if the journal has seen it.
    pub fn progress(&self, hash: &str) -> Option<&SweepProgress> {
        self.sweeps.get(hash)
    }

    /// Sweeps that started but never recorded an `end`, in hash order.
    pub fn unfinished(&self) -> impl Iterator<Item = (&String, &SweepProgress)> {
        self.sweeps.iter().filter(|(_, p)| p.unfinished())
    }

    /// All sweeps the journal knows about.
    pub fn sweeps(&self) -> impl Iterator<Item = (&String, &SweepProgress)> {
        self.sweeps.iter()
    }
}

/// The append-only sweep checkpoint log (see the module docs).
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl SweepJournal {
    /// Conventional journal filename inside a cache directory.
    pub const FILE_NAME: &'static str = "journal.log";

    /// Opens (creating if needed) the journal at `path` for appending.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<SweepJournal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        // Seal a torn tail (kill -9 mid-append): if the last line never
        // got its newline, terminate it now so fresh records start on
        // their own line. The sealed fragment then fails its checksum on
        // load and is skipped — it can never swallow a good record. Only
        // the file's last byte is read.
        if last_byte(&path).is_some_and(|b| b != b'\n') {
            file.write_all(b"\n")?;
            file.sync_data()?;
        }
        Ok(SweepJournal { path, file: Mutex::new(file) })
    }

    /// Opens the conventional journal inside a cache directory.
    pub fn in_cache_dir(cache_dir: impl AsRef<Path>) -> std::io::Result<SweepJournal> {
        SweepJournal::open(cache_dir.as_ref().join(SweepJournal::FILE_NAME))
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The stable identity of a sweep: the content hash of its canonical
    /// spec JSON. Two textually different spec files that canonicalize
    /// identically share one journal identity (and one cache footprint).
    pub fn sweep_hash(spec: &SweepSpec) -> String {
        SweepJournal::spec_json_hash(&spec.to_json().render())
    }

    /// [`SweepJournal::sweep_hash`] of a spec already rendered to its
    /// canonical JSON text.
    pub(crate) fn spec_json_hash(spec_json: &str) -> String {
        content_key(spec_json.as_bytes())
    }

    /// Records that a sweep began: its identity, size, and full spec (the
    /// canonical JSON text `hash` was taken from).
    pub fn record_start(&self, hash: &str, spec_json: &str, cells: u64) -> std::io::Result<()> {
        debug_assert!(!spec_json.contains('\n'), "compact JSON is single-line");
        self.append(&format!("start {hash} {cells} {spec_json}"))
    }

    /// Records that every cell of a sweep finished cleanly.
    pub fn record_end(&self, hash: &str) -> std::io::Result<()> {
        self.append(&format!("end {hash}"))
    }

    fn append(&self, payload: &str) -> std::io::Result<()> {
        let line = format!("{MAGIC} {:016x} {payload}\n", checksum64(payload.as_bytes()));
        let mut file = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        // Per-record durability: a `start` must survive the very crash
        // the journal exists to recover from.
        file.sync_data()
    }

    /// Replays the journal from disk into a [`JournalState`], skipping
    /// (and counting) damaged lines. The file is read as bytes: a line that
    /// is not UTF-8 is one damaged line, not a failed load.
    pub fn load(&self) -> std::io::Result<JournalState> {
        let mut state = JournalState::default();
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(state),
            Err(e) => return Err(e),
        };
        // Bytes that are not UTF-8 read as U+FFFD, never as a line break,
        // so they stay on their own line, which then fails its checksum:
        // the writer checksummed other bytes there.
        for line in String::from_utf8_lossy(&bytes).lines() {
            if line.is_empty() {
                continue;
            }
            let Some(payload) = decode_line(line) else {
                state.damaged_lines += 1;
                continue;
            };
            if !apply(&mut state, payload) {
                state.damaged_lines += 1;
            }
        }
        Ok(state)
    }
}

/// The last byte of the file at `path`; `None` when it is empty or cannot
/// be read.
fn last_byte(path: &Path) -> Option<u8> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = std::fs::File::open(path).ok()?;
    file.seek(SeekFrom::End(-1)).ok()?;
    let mut byte = [0];
    file.read_exact(&mut byte).ok()?;
    Some(byte[0])
}

/// Verifies one journal line's magic + checksum, returning the payload.
fn decode_line(line: &str) -> Option<&str> {
    let rest = line.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let (sum, payload) = rest.split_once(' ')?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    (checksum64(payload.as_bytes()) == sum).then_some(payload)
}

/// Applies one decoded payload to the state; `false` if malformed.
fn apply(state: &mut JournalState, payload: &str) -> bool {
    let mut parts = payload.splitn(2, ' ');
    let (Some(kind), Some(rest)) = (parts.next(), parts.next()) else {
        return false;
    };
    match kind {
        "start" => {
            let mut parts = rest.splitn(3, ' ');
            let (Some(hash), Some(cells), Some(spec_json)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return false;
            };
            let Ok(cells) = cells.parse::<u64>() else {
                return false;
            };
            let entry = state.sweeps.entry(hash.to_string()).or_default();
            entry.cells_declared = cells;
            entry.spec_json = Some(spec_json.to_string());
            true
        }
        // Per-cell records of older journals: the cache answers for them.
        "cell" => true,
        "end" => {
            state.sweeps.entry(rest.to_string()).or_default().ended = true;
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dapper-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join(SweepJournal::FILE_NAME)
    }

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("journal-test");
        spec.workloads = vec!["mcf_like".to_string()];
        spec.trackers = vec!["none".to_string()];
        spec.options.window_us = Some(20.0);
        spec.options.seed = Some(7);
        spec
    }

    #[test]
    fn journal_round_trips_progress() {
        let j = SweepJournal::open(scratch("roundtrip")).unwrap();
        let spec = tiny_spec();
        let hash = SweepJournal::sweep_hash(&spec);
        j.record_start(&hash, &spec.to_json().render(), 2).unwrap();
        let state = j.load().unwrap();
        let p = state.progress(&hash).unwrap();
        assert_eq!(p.cells_declared, 2);
        assert!(p.unfinished(), "no end record yet");
        assert_eq!(state.unfinished().count(), 1);
        j.record_end(&hash).unwrap();
        let state = j.load().unwrap();
        assert!(!state.progress(&hash).unwrap().unfinished());
        assert_eq!(state.damaged_lines, 0);
        // The embedded spec resurrects the sweep identically.
        let back =
            SweepSpec::from_json_str(state.progress(&hash).unwrap().spec_json.as_ref().unwrap())
                .unwrap();
        assert_eq!(SweepJournal::sweep_hash(&back), hash);
    }

    #[test]
    fn start_names_with_escapes_and_non_ascii_characters_read_back() {
        let j = SweepJournal::open(scratch("names")).unwrap();
        let names = ["quote \" back\\slash /", "line\nbreak\ttab \u{1}\u{1f}", "é 中 😀 \u{7f}"];
        for name in names {
            let mut spec = tiny_spec();
            spec.name = name.to_string();
            let json = spec.to_json().render();
            let hash = SweepJournal::spec_json_hash(&json);
            j.record_start(&hash, &json, 1).unwrap();
            let state = j.load().unwrap();
            let read = state.progress(&hash).unwrap().spec_json.as_deref().unwrap();
            assert_eq!(read, json);
            assert_eq!(SweepSpec::from_json_str(read).unwrap().name, name);
        }
    }

    #[test]
    fn warm_reruns_of_an_ended_sweep_append_nothing() {
        use crate::cache::RunCache;
        use crate::runner::RunnerConfig;
        let path = scratch("warm");
        let cache = RunCache::open(path.parent().unwrap()).unwrap();
        let j = SweepJournal::open(&path).unwrap();
        let spec = tiny_spec();
        let pass = || spec.run_cached_with(&cache, Some(&j), &RunnerConfig::default()).unwrap().1;
        assert_eq!(pass().misses, 1);
        let cold = std::fs::read_to_string(&path).unwrap();
        let kinds: Vec<&str> = cold.lines().map(|l| l.split(' ').nth(2).unwrap()).collect();
        assert_eq!(kinds, ["start", "end"]);
        for _ in 0..20 {
            assert_eq!(pass().hits, 1);
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                cold,
                "a warm pass appends nothing"
            );
        }
        // A cell the cache lost simulates again; the sweep stays ended.
        let key = RunCache::key_for(&spec.expand().unwrap()[0]).unwrap();
        cache.store().evict(&key.key);
        assert_eq!(pass().misses, 1);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), cold, "nor does one after an eviction");
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        // Simulate kill -9 mid-append: a half-written record at the tail,
        // cut after a space or inside a multi-byte character.
        let tails: [&[u8]; 2] = [b"dapper-journal1 0123456789abcdef end ", b"dapper-journal1 \xc3"];
        for (i, tail) in tails.into_iter().enumerate() {
            let path = scratch(&format!("torn-{i}"));
            let j = SweepJournal::open(&path).unwrap();
            let spec = tiny_spec();
            let hash = SweepJournal::sweep_hash(&spec);
            j.record_start(&hash, &spec.to_json().render(), 3).unwrap();
            drop(j);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes.extend_from_slice(tail);
            std::fs::write(&path, &bytes).unwrap();
            let j = SweepJournal::open(&path).unwrap();
            let state = j.load().unwrap();
            assert_eq!(state.damaged_lines, 1, "the torn line is counted, not fatal");
            let p = state.progress(&hash).unwrap();
            assert!(p.spec_json.is_some() && p.unfinished(), "the start survives the torn tail");
            // And appending after the torn tail keeps working: the journal
            // only ever appends whole lines, so a fresh record follows the
            // damage and still parses.
            j.record_end(&hash).unwrap();
            let state = j.load().unwrap();
            assert!(!state.progress(&hash).unwrap().unfinished());
            assert_eq!(state.damaged_lines, 1, "the sealed tail, and nothing else");
        }
    }

    #[test]
    fn foreign_garbage_lines_are_counted_as_damage() {
        let path = scratch("garbage");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "not a journal line\n").unwrap();
        let j = SweepJournal::open(&path).unwrap();
        let state = j.load().unwrap();
        assert_eq!(state.damaged_lines, 1);
        assert_eq!(state.sweeps().count(), 0);
    }

    /// A journal of `sweeps` sweeps, each a `start` record followed by an
    /// `end` record. Returns the file's lines and the sweep hashes: sweep
    /// `i` starts on line `2i` and ends on line `2i + 1`.
    fn written(path: &Path, sweeps: usize) -> (Vec<Vec<u8>>, Vec<String>) {
        let j = SweepJournal::open(path).unwrap();
        let hashes = (0..sweeps)
            .map(|i| {
                let mut spec = tiny_spec();
                spec.name = format!("sweep-{i}");
                let hash = SweepJournal::sweep_hash(&spec);
                j.record_start(&hash, &spec.to_json().render(), 1).unwrap();
                j.record_end(&hash).unwrap();
                hash
            })
            .collect();
        let bytes = std::fs::read(path).unwrap();
        (bytes.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec).collect(), hashes)
    }

    #[test]
    fn a_line_that_is_not_utf8_is_one_damaged_line() {
        let path = scratch("not-utf8");
        let (mut lines, hashes) = written(&path, 1);
        // One high bit flipped inside the `start` record.
        lines[0][30] ^= 0x80;
        std::fs::write(&path, lines.concat()).unwrap();
        let state = SweepJournal::open(&path).unwrap().load().unwrap();
        assert_eq!(state.damaged_lines, 1);
        let p = state.progress(&hashes[0]).expect("the end record names the sweep");
        assert!(p.ended && p.spec_json.is_none());
    }

    #[test]
    fn cell_records_of_older_journals_load_as_no_damage() {
        // What a journal with per-cell records holds: one sweep that
        // finished, and one killed after two of its cells.
        let path = scratch("cell-records");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let line = |payload: String| {
            format!("{MAGIC} {:016x} {payload}\n", checksum64(payload.as_bytes()))
        };
        let spec_json = tiny_spec().to_json().render();
        let (done, killed) = ("d0".repeat(16), "4b".repeat(16));
        let mut text = String::new();
        for hash in [&done, &killed] {
            text += &line(format!("start {hash} 3 {spec_json}"));
            for cell in 0..2 {
                text += &line(format!("cell {hash} {cell:032x}"));
            }
        }
        text += &line(format!("cell {done} {:032x}", 2));
        text += &line(format!("end {done}"));
        std::fs::write(&path, &text).unwrap();
        let state = SweepJournal::open(&path).unwrap().load().unwrap();
        assert_eq!(state.damaged_lines, 0, "cell records pass their checksum");
        assert!(!state.progress(&done).unwrap().unfinished());
        let p = state.progress(&killed).unwrap();
        assert!(p.unfinished());
        assert_eq!((p.spec_json.as_deref(), p.cells_declared), (Some(spec_json.as_str()), 3));
    }

    /// Damages `k` drawn lines of a written journal with one edit each that
    /// can never leave a line whole (a high-bit flip, a cut that keeps at
    /// least one byte, a byte flip or insertion in the checksummed payload
    /// that makes no line break), and sometimes tears the final newline.
    /// The load must count exactly `k` damaged lines and keep every other
    /// record. Returns how many lines were damaged.
    fn fuzz_journal(seed: u64, rounds: usize) -> usize {
        let mut rng = sim_core::rng::Xoshiro256::seed_from(seed);
        let path = scratch(&format!("fuzz-{seed}"));
        let (pristine, hashes) = written(&path, 6);
        // Where a line's checksummed payload starts.
        let payload_at = MAGIC.len() + 1 + 16 + 1;
        let mut damaged = 0;
        for _ in 0..rounds {
            let mut lines = pristine.clone();
            let mut hit = vec![false; lines.len()];
            for _ in 0..rng.gen_range(lines.len() as u64 + 1) {
                let i = rng.gen_range(lines.len() as u64) as usize;
                if hit[i] {
                    continue;
                }
                hit[i] = true;
                let line = &mut lines[i];
                let body = line.len() - 1;
                match rng.gen_range(4) {
                    0 => line[rng.gen_range(body as u64) as usize] ^= 0x80,
                    1 => {
                        line.truncate(1 + rng.gen_range(body as u64 - 1) as usize);
                        line.push(b'\n');
                    }
                    2 => {
                        let at = payload_at + rng.gen_range((body - payload_at) as u64) as usize;
                        let flipped = line[at] ^ (1 << rng.gen_range(8));
                        line[at] = if matches!(flipped, b'\n' | b'\r') {
                            line[at] ^ 0x80
                        } else {
                            flipped
                        };
                    }
                    _ => {
                        let at = payload_at + rng.gen_range((body - payload_at) as u64) as usize;
                        let byte = rng.next_u64() as u8;
                        line.insert(at, if byte == b'\n' { b' ' } else { byte });
                    }
                }
            }
            let mut bytes = lines.concat();
            let torn = rng.gen_bool(0.3);
            if torn {
                bytes.pop();
            }
            std::fs::write(&path, &bytes).unwrap();
            let state = SweepJournal::open(&path).unwrap().load().unwrap();
            let k = hit.iter().filter(|&&h| h).count();
            assert_eq!(state.damaged_lines as usize, k, "seed {seed}: {hit:?}");
            damaged += k;
            let kept = |i: usize| !hit[i];
            for (i, hash) in hashes.iter().enumerate() {
                let p = state.progress(hash);
                let (start, end) = (2 * i, 2 * i + 1);
                assert_eq!(p.is_some(), kept(start) || kept(end));
                assert_eq!(p.is_some_and(|p| p.spec_json.is_some()), kept(start));
                assert_eq!(p.is_some_and(|p| p.ended), kept(end));
            }
            // A torn final newline was sealed: the next record stands alone.
            if torn {
                assert_eq!(std::fs::read(&path).unwrap().last(), Some(&b'\n'));
            }
        }
        damaged
    }

    #[test]
    fn mutated_journals_keep_every_undamaged_record() {
        let damaged: usize = [1, 2, 0x10C].map(|seed| fuzz_journal(seed, 60)).iter().sum();
        assert!(damaged > 0);
    }

    #[test]
    #[ignore = "long journal fuzz; run with --ignored (CI campaignd-smoke)"]
    fn mutated_journals_keep_every_undamaged_record_long_sweep() {
        for seed in 0..100 {
            fuzz_journal(seed, 200);
        }
    }

    #[test]
    fn missing_journal_loads_empty() {
        let j = SweepJournal::open(scratch("missing")).unwrap();
        // open() creates the file; loading an empty file is empty state.
        let state = j.load().unwrap();
        assert_eq!(state.sweeps().count(), 0);
        assert_eq!(state.damaged_lines, 0);
    }
}
