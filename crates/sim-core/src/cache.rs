//! Content-addressed blob cache in two tiers: [`content_key`] names an
//! entry by a stable hash, and [`DiskStore`] holds it — checksummed, in a
//! sharded layout, written atomically. Nothing is kept in memory: a front
//! end that reads a key twice keeps the decoded value itself.
//!
//! This layer is deliberately generic — it maps hex string keys to string
//! payloads and knows nothing about experiments. The `sim` crate builds
//! the run cache on top of it (canonical cell descriptors hashed with
//! [`content_key`], simulation results as payloads), and `campaignd`
//! serves lookups from the same store.
//!
//! Guarantees:
//!
//! * **Stable keys.** [`content_key`] is a hand-rolled 128-bit FNV-1a
//!   variant with a splitmix64 finalizer — no `DefaultHasher`, whose
//!   output is explicitly unstable across releases. The same bytes hash
//!   to the same key on every platform and toolchain, which is what makes
//!   committed golden keys (and cross-machine cache sharing) sound.
//! * **Crash safety.** Entries are written to a temporary file and
//!   renamed into place, so a reader never observes a half-written
//!   entry under the final name. Every entry carries a checksum and
//!   length header; a truncated or bit-flipped entry fails decoding, is
//!   evicted from disk, and reads as a miss — corruption is never
//!   returned as a result.
//! * **Thread safety.** [`DiskStore`] takes `&self` everywhere and its
//!   counters are atomics, so one store can be shared across sweep
//!   workers and server connections.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::fault::{FaultAction, FaultSite, Injector};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64 finalizer: avalanches the weakly-mixed FNV state so nearby
/// inputs (one-character spec edits) land in unrelated shards.
fn mix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit content checksum (FNV-1a + finalizer). Used inside entry
/// headers to detect truncation and bit rot.
pub fn checksum64(bytes: &[u8]) -> u64 {
    mix(fnv1a(FNV_OFFSET, bytes))
}

/// Stable 128-bit content hash rendered as 32 lowercase hex characters —
/// the cache key for a canonical descriptor. Two independently-seeded
/// FNV-1a lanes (the second also folds in the length) make accidental
/// collisions across a sweep matrix vanishingly unlikely; the run-cache
/// layer additionally stores the full descriptor inside each entry and
/// compares it on read, so even a collision cannot alias results.
pub fn content_key(bytes: &[u8]) -> String {
    let (mut lane0, mut lane1) = (FNV_OFFSET, FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15);
    for &b in bytes {
        lane0 = (lane0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        lane1 = (lane1 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    let (lane0, lane1) = (mix(lane0), mix(lane1.wrapping_add(bytes.len() as u64)));
    format!("{lane0:016x}{lane1:016x}")
}

/// Entry-format magic, bumped if the envelope (not the payload) changes.
const MAGIC: &str = "dapper-cache1";

/// Wraps a payload in the checksummed entry envelope:
/// `dapper-cache1 <checksum-hex16> <payload-len>\n<payload>`.
pub fn encode_entry(payload: &str) -> String {
    format!("{MAGIC} {:016x} {}\n{payload}", checksum64(payload.as_bytes()), payload.len())
}

/// Unwraps an entry envelope, returning the payload only if the magic,
/// length, and checksum all verify. `None` means the entry is corrupt
/// (truncated, bit-flipped, or from a different envelope version).
pub fn decode_entry(text: &str) -> Option<&str> {
    let (header, payload) = text.split_once('\n')?;
    let mut parts = header.split(' ');
    if parts.next() != Some(MAGIC) {
        return None;
    }
    let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
    let len: usize = parts.next()?.parse().ok()?;
    if parts.next().is_some() || payload.len() != len {
        return None;
    }
    (checksum64(payload.as_bytes()) == checksum).then_some(payload)
}

/// Snapshot of a store's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Corrupt entries detected, evicted from disk, and reported as
    /// misses (each also counts under `misses`).
    pub corrupt: u64,
    /// IO errors on reads or writes (reads also count under `misses`;
    /// writes surface as `Err` to the caller, who recomputes next time).
    pub io_errors: u64,
}

// The shape `campaignd stats` reports under `"cache"`.
crate::json_record!(CacheStats { hits, misses, corrupt, io_errors });

/// Bytes the first read of an entry asks for. A plain sweep cell's entry
/// is smaller (the pinned sweep's are about 1.8 KB), so its hit is one
/// read that takes it all and one that finds the end.
const FIRST_READ: usize = 4096;

/// Reads a whole entry file: `open` and reads into a buffer that starts
/// at [`FIRST_READ`] bytes and doubles when full. Unlike `std::fs::read`
/// it never asks the file system for the size (`statx`) first.
fn read_entry(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut file = std::fs::File::open(path)?;
    let mut bytes = vec![0; FIRST_READ];
    let mut len = 0;
    loop {
        if len == bytes.len() {
            bytes.resize(2 * len, 0);
        }
        match file.read(&mut bytes[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    bytes.truncate(len);
    Ok(bytes)
}

/// A content-addressed key → payload store: sharded directory layout
/// (`<root>/<key[0..2]>/<key>.entry`), atomic writes, checksummed
/// entries, and hit/miss/corrupt/IO-error counters.
pub struct DiskStore {
    root: PathBuf,
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    io_errors: AtomicU64,
    faults: OnceLock<Arc<Injector>>,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            faults: OnceLock::new(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// On-disk path of a key's entry.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        let shard = if key.len() >= 2 { &key[..2] } else { "xx" };
        self.root.join(shard).join(format!("{key}.entry"))
    }

    /// Arms a fault [`Injector`] on this store's disk paths (chaos tests
    /// only; a store can be armed once). Unarmed stores pay a single
    /// `Option` branch per operation.
    pub fn arm_faults(&self, injector: Arc<Injector>) {
        let _ = self.faults.set(injector);
    }

    fn injected(&self, site: FaultSite) -> Option<FaultAction> {
        self.faults.get().and_then(|f| f.check(site))
    }

    /// Looks a key up. A corrupt entry (checksum or length mismatch, or
    /// bytes that are not UTF-8) is evicted and reported as a miss, counted
    /// under `corrupt` — never returned. An unreadable entry (IO error)
    /// likewise degrades to a miss, counted under `io_errors` and left on
    /// disk, so the caller recomputes instead of aborting.
    pub fn get(&self, key: &str) -> Option<String> {
        let path = self.entry_path(key);
        let damage = self.injected(FaultSite::CacheRead);
        if damage == Some(FaultAction::IoError) {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut text = match read_entry(&path) {
            // Bytes that are not UTF-8 are corrupt: read as an empty entry,
            // they fail decoding below and are evicted.
            Ok(bytes) => String::from_utf8(bytes).unwrap_or_default(),
            Err(e) => {
                if e.kind() != std::io::ErrorKind::NotFound {
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match damage {
            Some(FaultAction::BitFlip) => {
                text = self.faults.get().expect("damage implies armed").corrupt(&text);
            }
            Some(FaultAction::Truncate) => {
                let mut keep = text.len() / 2;
                while keep > 0 && !text.is_char_boundary(keep) {
                    keep -= 1;
                }
                text.truncate(keep);
            }
            _ => {}
        }
        match decode_entry(&text).map(|payload| text.len() - payload.len()) {
            Some(header) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                text.drain(..header);
                Some(text)
            }
            None => {
                // Quarantine by deletion: the entry can never be served,
                // so the next put recomputes and rewrites it.
                let _ = std::fs::remove_file(&path);
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Removes a key's entry (used by higher layers when an entry decodes
    /// at this layer but fails semantic validation).
    pub fn evict(&self, key: &str) {
        let _ = std::fs::remove_file(self.entry_path(key));
        self.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a payload under a key: temp file + fsync + rename, so
    /// concurrent readers see either the old entry or the new one, never
    /// a torn write, and a machine crash right after the rename cannot
    /// commit a name pointing at unflushed data. Last writer wins (all
    /// writers of one key hold the same deterministic payload, so the
    /// race is benign). An `Err` is recoverable: the caller keeps its
    /// computed result and simply recomputes on the next cold lookup.
    pub fn put(&self, key: &str, payload: &str) -> std::io::Result<()> {
        let fault = self.injected(FaultSite::CacheWrite);
        let path = self.entry_path(key);
        let dir = path.parent().expect("entry paths always have a shard dir");
        let result = (|| {
            if fault == Some(FaultAction::IoError) {
                return Err(std::io::Error::other("injected cache write error"));
            }
            std::fs::create_dir_all(dir)?;
            let tmp = self.tmp_path(dir, key);
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(encode_entry(payload).as_bytes())?;
            file.sync_all()?;
            drop(file);
            if fault == Some(FaultAction::CrashBeforeRename) {
                // Model the crash window the fsync defends: the temp file
                // is written (and flushed), but the rename never happens.
                return Err(std::io::Error::other("injected crash before rename"));
            }
            std::fs::rename(&tmp, &path)
        })();
        result.inspect_err(|_| {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        })
    }

    fn tmp_path(&self, dir: &Path, key: &str) -> PathBuf {
        dir.join(format!(
            ".tmp-{}-{}-{key}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dapper-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn content_key_is_stable_and_collision_resistant_enough() {
        // Golden value: this constant is the committed contract. If it
        // changes, every on-disk cache key changes — bump the run-cache
        // epoch rather than silently re-keying.
        assert_eq!(content_key(b"dapper-cache-probe"), "c4c9498e34d7d6ee4e4898247f7fa54a");
        assert_eq!(content_key(b""), content_key(b""));
        assert_ne!(content_key(b"a"), content_key(b"b"));
        // Nearby inputs land far apart (finalizer avalanche).
        let a = content_key(b"spec seed=1");
        let b = content_key(b"spec seed=2");
        assert_ne!(&a[..8], &b[..8], "shard prefixes must decorrelate: {a} vs {b}");
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn one_pass_content_key_matches_the_two_pass_lanes() {
        // The key as it was computed before both lanes shared one pass.
        let two_pass = |bytes: &[u8]| {
            let lane0 = mix(fnv1a(FNV_OFFSET, bytes));
            let lane1 =
                mix(fnv1a(FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15, bytes)
                    .wrapping_add(bytes.len() as u64));
            format!("{lane0:016x}{lane1:016x}")
        };
        let mut rng = crate::rng::Xoshiro256::seed_from(0xF1A);
        for _ in 0..500 {
            let bytes: Vec<u8> = (0..rng.gen_range(300)).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(content_key(&bytes), two_pass(&bytes));
        }
    }

    #[test]
    fn entry_envelope_round_trips_and_rejects_damage() {
        let entry = encode_entry("{\"x\":1}");
        assert_eq!(decode_entry(&entry), Some("{\"x\":1}"));
        // Truncation (the crash case): length check fails.
        assert_eq!(decode_entry(&entry[..entry.len() - 2]), None);
        // Bit flip in the payload: checksum fails.
        let flipped = entry.replace("{\"x\":1}", "{\"x\":2}");
        assert_eq!(decode_entry(&flipped), None);
        // Foreign format: magic fails.
        assert_eq!(decode_entry("other-format 00 7\n{\"x\":1}"), None);
        assert_eq!(decode_entry("no newline at all"), None);
    }

    #[test]
    fn store_round_trips_and_counts() {
        let store = DiskStore::open(scratch("roundtrip")).unwrap();
        assert_eq!(store.get("k1"), None);
        store.put("k1", "payload-one").unwrap();
        assert_eq!(store.get("k1").as_deref(), Some("payload-one"));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt), (1, 1, 0));
        // A second store over the same directory reads the entry cold.
        let reopened = DiskStore::open(store.root()).unwrap();
        assert_eq!(reopened.get("k1").as_deref(), Some("payload-one"));
        assert_eq!(reopened.stats().hits, 1);
    }

    #[test]
    fn entries_past_the_first_read_round_trip() {
        let store = DiskStore::open(scratch("long")).unwrap();
        // Multi-byte characters straddle every read boundary.
        for len in [FIRST_READ - 40, FIRST_READ, 3 * FIRST_READ + 7] {
            let payload: String = "aé€𝄞".chars().cycle().take(len).collect();
            store.put("big", &payload).unwrap();
            assert_eq!(store.get("big").as_deref(), Some(payload.as_str()), "{len} chars");
        }
        assert_eq!(store.stats(), CacheStats { hits: 3, ..CacheStats::default() });
    }

    #[test]
    fn unreadable_entry_is_an_io_error_left_on_disk() {
        // A directory under the entry's name opens, but does not read.
        let store = DiskStore::open(scratch("unreadable")).unwrap();
        std::fs::create_dir_all(store.entry_path("dir")).unwrap();
        assert_eq!(store.get("dir"), None);
        let s = store.stats();
        assert_eq!((s.io_errors, s.misses, s.corrupt, s.hits), (1, 1, 0, 0));
        assert!(store.entry_path("dir").exists(), "an IO error must not evict");
    }

    #[test]
    fn corrupt_entries_are_evicted_not_returned() {
        // Truncated mid-payload, as a crash between write and rename
        // cannot (rename is atomic) but a torn disk can; and one high bit
        // flipped, so that the entry is not UTF-8 any more.
        let damages: [fn(&mut Vec<u8>); 2] =
            [|bytes| bytes.truncate(bytes.len() - 4), |bytes| *bytes.last_mut().unwrap() ^= 0x80];
        for (i, damage) in damages.into_iter().enumerate() {
            let store = DiskStore::open(scratch(&format!("corrupt-{i}"))).unwrap();
            store.put("deadbeef", "the-truth").unwrap();
            let path = store.entry_path("deadbeef");
            let mut bytes = std::fs::read(&path).unwrap();
            damage(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(store.get("deadbeef"), None, "corruption must read as a miss");
            let s = store.stats();
            assert_eq!((s.corrupt, s.io_errors, s.misses), (1, 0, 1), "damage {i}");
            assert!(!path.exists(), "corrupt entry must be evicted from disk");
            // Recompute-and-store works again.
            store.put("deadbeef", "the-truth").unwrap();
            assert_eq!(store.get("deadbeef").as_deref(), Some("the-truth"));
        }
    }

    #[test]
    fn injected_read_io_error_degrades_to_miss_and_recovers() {
        use crate::fault::FaultPlan;
        let store = DiskStore::open(scratch("read-io")).unwrap();
        store.put("k", "truth").unwrap();
        store.arm_faults(FaultPlan::new(9).fail_cache_read_nth(0).arm());
        assert_eq!(store.get("k"), None, "injected IO error reads as a miss");
        assert_eq!(store.get("k").as_deref(), Some("truth"), "fault budget spent");
        let s = store.stats();
        assert_eq!((s.io_errors, s.misses, s.corrupt), (1, 1, 0));
        assert!(store.entry_path("k").exists(), "IO error must not evict the entry");
    }

    #[test]
    fn injected_write_io_error_is_reported_not_panicked() {
        use crate::fault::FaultPlan;
        let store = DiskStore::open(scratch("write-io")).unwrap();
        store.arm_faults(FaultPlan::new(9).fail_cache_write_nth(0).arm());
        assert!(store.put("k", "truth").is_err());
        assert_eq!(store.stats().io_errors, 1);
        assert!(!store.entry_path("k").exists());
        // The next put succeeds and the entry round-trips.
        store.put("k", "truth").unwrap();
        assert_eq!(store.get("k").as_deref(), Some("truth"));
    }

    #[test]
    fn injected_bit_flip_and_truncation_evict_and_recompute() {
        use crate::fault::FaultPlan;
        let store = DiskStore::open(scratch("flip")).unwrap();
        store.put("k", "the-truth").unwrap();
        store.arm_faults(FaultPlan::new(7).flip_cache_read_nth(0).truncate_cache_read_nth(1).arm());
        assert_eq!(store.get("k"), None, "bit-flipped entry must not be served");
        assert!(!store.entry_path("k").exists(), "corrupt entry evicted");
        store.put("k", "the-truth").unwrap();
        assert_eq!(store.get("k"), None, "truncated entry must not be served");
        let s = store.stats();
        assert_eq!((s.corrupt, s.io_errors), (2, 0));
        store.put("k", "the-truth").unwrap();
        assert_eq!(store.get("k").as_deref(), Some("the-truth"));
    }

    #[test]
    fn crash_before_rename_leaves_no_entry_and_no_corruption() {
        use crate::fault::FaultPlan;
        let store = DiskStore::open(scratch("crash")).unwrap();
        store.arm_faults(FaultPlan::new(3).crash_cache_write_nth(0).arm());
        assert!(store.put("k", "v1").is_err(), "the crashed write reports failure");
        assert!(!store.entry_path("k").exists(), "nothing committed under the final name");
        assert_eq!(store.get("k"), None);
        // The orphaned temp file never aliases the entry: a later put
        // commits cleanly and reads back intact.
        store.put("k", "v1").unwrap();
        assert_eq!(store.get("k").as_deref(), Some("v1"));
        assert_eq!(store.stats().corrupt, 0);
    }

    #[test]
    fn concurrent_writers_of_one_key_stay_consistent() {
        let store = DiskStore::open(scratch("concurrent")).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..20 {
                        store.put("shared", "same-deterministic-payload").unwrap();
                        assert_eq!(
                            store.get("shared").as_deref(),
                            Some("same-deterministic-payload")
                        );
                    }
                });
            }
        });
        assert_eq!(store.stats().corrupt, 0);
    }
}
