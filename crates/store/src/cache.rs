//! The deterministic result cache: a bounded in-memory LRU of finished
//! row streams with optional disk spill — a transposition table for
//! scenarios.
//!
//! Every cell-selection run is a pure function of its spec (the
//! workspace's CI-pinned determinism invariant), so a finished row stream
//! can be replayed to any later client *as the computation's result*, not
//! as an approximation of it. Entries are keyed by
//! [`crate::key::scenario_key`] content hashes and store the row lines
//! exactly as first streamed; a hit therefore reproduces the cold run
//! byte for byte.
//!
//! Bounds and policy, transposition-table style (bounded slots +
//! replacement): memory holds at most `mem_budget` bytes of rows, evicting
//! least-recently-used entries; the optional spill directory holds one
//! file per hash with no bound (it is the durable tier — an LRU sweep can
//! be layered on later without touching the interface). Spill commits are
//! write-to-temp + atomic rename, so a crash mid-write can never leave a
//! half-stream behind: a file either exists completely or not at all.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss accounting, readable at any time (the serving bench gates on
/// these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub mem_hits: u64,
    /// Lookups answered from the spill directory (and promoted to memory).
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident in memory.
    pub entries: usize,
    /// Row bytes currently resident in memory.
    pub bytes: usize,
}

#[derive(Debug)]
struct Entry {
    rows: Arc<Vec<String>>,
    bytes: usize,
    /// Monotonic LRU clock value of the last touch.
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Entry>,
    clock: u64,
    bytes: usize,
}

/// Bounded in-memory LRU of finished row streams, with optional disk
/// spill. Cheap to share: all methods take `&self`.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    mem_budget: usize,
    dir: Option<PathBuf>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    /// Distinguishes concurrent writers' temp files within one process.
    tmp_seq: AtomicU64,
}

impl ResultCache {
    /// A cache holding up to `mem_budget` bytes of rows in memory,
    /// spilling to `dir` when given (the directory is created if absent).
    /// A zero budget keeps nothing in memory — with a spill dir that is a
    /// disk-only cache; without one the cache stores nothing (but still
    /// counts lookups).
    ///
    /// Opening also sweeps temp files (`*.tmp.*`) orphaned by a crash
    /// between a spill's write and its rename: they are uncommitted by
    /// definition (the rename is the commit point), so deleting them can
    /// never lose a result — leaving them would grow the directory
    /// forever, one dead file per crashed writer.
    ///
    /// # Errors
    ///
    /// Propagates spill-directory creation failures.
    pub fn new(mem_budget: usize, dir: Option<PathBuf>) -> std::io::Result<ResultCache> {
        if let Some(d) = &dir {
            fs::create_dir_all(d)?;
            for entry in fs::read_dir(d)?.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().contains(".tmp.") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(ResultCache {
            inner: Mutex::new(Inner::default()),
            mem_budget,
            dir,
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Looks `key` up: memory first, then the spill directory (a disk hit
    /// is promoted back into memory). Returns the stored rows, or `None`
    /// on a miss.
    pub fn lookup(&self, key: &str) -> Option<Arc<Vec<String>>> {
        {
            let mut inner = self.inner.lock().expect("cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(key) {
                entry.last_used = clock;
                self.mem_hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(&entry.rows));
            }
        }
        if let Some(rows) = self.load_spilled(key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            let rows = Arc::new(rows);
            self.insert_mem(key, Arc::clone(&rows));
            return Some(rows);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores the finished rows of `key`: into memory (evicting LRU
    /// entries past the budget) and, when spill is enabled, durably onto
    /// disk via an atomic rename. Spill I/O failures are swallowed — the
    /// cache is an accelerator, never a correctness dependency.
    ///
    /// Rows must not contain `'\n'`: the spill file (like the wire
    /// protocol) is newline-framed, and an embedded newline would split
    /// one row into two on reload, silently breaking byte-identical
    /// replay.
    pub fn insert(&self, key: &str, rows: Vec<String>) {
        debug_assert!(
            rows.iter().all(|r| !r.contains('\n')),
            "cached rows must be newline-free (newline framing on disk and the wire)"
        );
        let rows = Arc::new(rows);
        self.spill(key, &rows);
        self.insert_mem(key, rows);
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    fn insert_mem(&self, key: &str, rows: Arc<Vec<String>>) {
        let bytes = entry_bytes(&rows);
        if bytes > self.mem_budget {
            // Larger than the whole budget: admitting it would evict
            // everything and then be evicted itself on the next insert.
            // (With spill enabled it is still served from disk.)
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.insert(
            key.to_owned(),
            Entry {
                rows,
                bytes,
                last_used: clock,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        // Evict least-recently-used entries until back under budget. The
        // linear min-scan is O(entries) per eviction — entries are whole
        // row streams (kilobytes to megabytes each), so the map stays
        // small; no ordering structure to keep coherent.
        while inner.bytes > self.mem_budget {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(old) = inner.map.remove(&victim) {
                inner.bytes -= old.bytes;
            }
        }
    }

    fn spill_path(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.rows")))
    }

    fn load_spilled(&self, key: &str) -> Option<Vec<String>> {
        let path = self.spill_path(key)?;
        if crate::fault_io("store.cache.load").is_some() {
            // An unreadable spill file is a miss, never an error: the
            // cache is an accelerator, the engine recomputes.
            return None;
        }
        let content = fs::read_to_string(path).ok()?;
        // Split strictly on '\n', mirroring the writer in `spill` —
        // str::lines would also strip a trailing '\r' and silently alter
        // the replayed bytes. The writer terminates every row (including
        // the last) with '\n', so drop the empty element after the final
        // separator.
        let mut rows: Vec<String> = content.split('\n').map(str::to_owned).collect();
        if rows.last().is_some_and(String::is_empty) {
            rows.pop();
        }
        Some(rows)
    }

    fn spill(&self, key: &str, rows: &[String]) {
        let Some(path) = self.spill_path(key) else {
            return;
        };
        if path.exists() {
            // Content-addressed: an existing file already holds these
            // exact bytes.
            return;
        }
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
        // Commit protocol: write everything to the temp file, then rename
        // onto the final name — rename within one directory is atomic, so
        // readers only ever see complete streams. Failures just skip the
        // spill (lookup falls back to recompute).
        let write = |tmp: &Path| -> std::io::Result<()> {
            if let Some(e) = crate::fault_io("store.cache.spill") {
                return Err(e);
            }
            let mut f = fs::File::create(tmp)?;
            for row in rows {
                f.write_all(row.as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.sync_all()?;
            Ok(())
        };
        if write(&tmp).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
        let _ = fs::remove_file(&tmp);
    }
}

fn entry_bytes(rows: &[String]) -> usize {
    // Row bytes plus the newline each costs on the wire; the per-String
    // allocator overhead is noise at row sizes (hundreds of bytes).
    rows.iter().map(|r| r.len() + 1).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(tag: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{{\"{tag}\":{i}}}")).collect()
    }

    #[test]
    fn mem_hit_returns_identical_rows_and_counts() {
        let cache = ResultCache::new(1 << 20, None).unwrap();
        assert!(cache.lookup("k1").is_none());
        cache.insert("k1", rows("a", 10));
        let got = cache.lookup("k1").expect("hit");
        assert_eq!(*got, rows("a", 10));
        let stats = cache.stats();
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn lru_evicts_oldest_within_budget() {
        let a = rows("a", 10);
        let budget = entry_bytes(&a) * 2 + 1; // fits two entries, not three
        let cache = ResultCache::new(budget, None).unwrap();
        cache.insert("a", rows("a", 10));
        cache.insert("b", rows("b", 10));
        assert!(cache.lookup("a").is_some()); // touch a: b is now LRU
        cache.insert("c", rows("c", 10));
        assert!(cache.lookup("a").is_some(), "recently used survives");
        assert!(cache.lookup("c").is_some(), "newest survives");
        assert!(cache.lookup("b").is_none(), "LRU entry evicted");
        assert!(cache.stats().bytes <= budget);
    }

    #[test]
    fn replacing_entries_never_drifts_the_byte_accounting() {
        // Regression pin for the LRU budget arithmetic on the overwrite
        // path: replacing an existing key must charge exactly the size
        // delta (subtract the displaced entry, add the new one), never
        // double-count, so repeated replacement under a tight budget can
        // neither inflate `bytes` until everything is spuriously evicted
        // nor deflate it until the budget stops binding.
        let budget = entry_bytes(&rows("steady", 6)) + entry_bytes(&rows("k", 12)) + 1;
        let cache = ResultCache::new(budget, None).unwrap();
        cache.insert("steady", rows("steady", 6));
        let mut expected = entry_bytes(&rows("steady", 6));
        // Replace the same key many times with varying sizes; any
        // systematic over- or under-count compounds across iterations.
        for n in [1usize, 12, 3, 12, 7, 1, 12, 5, 12, 2] {
            cache.insert("k", rows("k", n));
            let stats = cache.stats();
            assert_eq!(
                stats.bytes,
                expected + entry_bytes(&rows("k", n)),
                "byte accounting drifted after replacing with {n} rows"
            );
            assert_eq!(stats.entries, 2, "replacement must not change entry count");
        }
        // The budget never appeared exceeded, so the untouched co-resident
        // entry must still be live (a phantom overshoot would evict it).
        assert!(
            cache.lookup("steady").is_some(),
            "co-resident entry was evicted: accounting must have overshot"
        );
        // Shrink-replace, then confirm the freed headroom is real: a new
        // entry sized exactly to the remaining budget must be admitted
        // without evicting anyone.
        cache.insert("k", rows("k", 1));
        expected = cache.stats().bytes;
        let free = budget - expected;
        let filler: Vec<String> = vec!["x".repeat(free - 1)];
        assert_eq!(entry_bytes(&filler), free);
        cache.insert("filler", filler);
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.bytes, budget);
        assert!(cache.lookup("steady").is_some());
        assert!(cache.lookup("k").is_some());
    }

    #[test]
    fn oversized_entry_is_not_admitted_to_memory() {
        let cache = ResultCache::new(16, None).unwrap();
        cache.insert("big", rows("big", 10));
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.lookup("big").is_none());
    }

    #[test]
    fn disk_spill_survives_a_fresh_cache_and_promotes_to_memory() {
        let dir = std::env::temp_dir().join(format!("drcell-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::new(1 << 20, Some(dir.clone())).unwrap();
            cache.insert("k", rows("k", 25));
        }
        // A brand-new cache over the same directory: memory is empty, the
        // spill file answers — byte-identical — and promotes to memory.
        let cache = ResultCache::new(1 << 20, Some(dir.clone())).unwrap();
        let got = cache.lookup("k").expect("disk hit");
        assert_eq!(*got, rows("k", 25));
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(cache.stats().mem_hits + 1, {
            cache.lookup("k").unwrap();
            cache.stats().mem_hits
        });
        // No temp litter from the commit protocol.
        let litter: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| !e.file_name().to_string_lossy().ends_with(".rows"))
            .collect();
        assert!(litter.is_empty(), "temp files left behind: {litter:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_budget_with_spill_is_a_disk_cache() {
        let dir = std::env::temp_dir().join(format!(
            "drcell-store-test-disk-only-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(0, Some(dir.clone())).unwrap();
        cache.insert("k", rows("k", 5));
        assert_eq!(cache.stats().entries, 0, "nothing resident in memory");
        assert_eq!(*cache.lookup("k").expect("disk hit"), rows("k", 5));
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_with_carriage_returns_replay_byte_identically_from_disk() {
        let dir = std::env::temp_dir().join(format!("drcell-store-test-cr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let rows = vec![
            "{\"note\":\"trailing\"}\r".to_owned(),
            "{\"note\":\"embedded\rreturn\"}".to_owned(),
            String::new(),
        ];
        let cache = ResultCache::new(0, Some(dir.clone())).unwrap();
        cache.insert("cr", rows.clone());
        assert_eq!(
            *cache.lookup("cr").expect("disk hit"),
            rows,
            "strict newline framing must not strip or split on '\\r'"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_temp_files_are_swept_on_open_and_committed_files_kept() {
        let dir =
            std::env::temp_dir().join(format!("drcell-store-test-orphan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::new(0, Some(dir.clone())).unwrap();
            cache.insert("kept", rows("kept", 5));
        }
        // A crash between write and rename leaves exactly this artefact.
        let orphan = dir.join("deadbeef.tmp.12345.0");
        fs::write(&orphan, "{\"half\":").unwrap();
        let cache = ResultCache::new(0, Some(dir.clone())).unwrap();
        assert!(!orphan.exists(), "orphaned temp file must be swept on open");
        assert_eq!(
            *cache.lookup("kept").expect("committed file survives sweep"),
            rows("kept", 5)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_row_streams_round_trip_through_disk() {
        let dir =
            std::env::temp_dir().join(format!("drcell-store-test-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::new(0, Some(dir.clone())).unwrap();
        cache.insert("nil", Vec::new());
        assert_eq!(
            *cache.lookup("nil").expect("disk hit"),
            Vec::<String>::new()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
