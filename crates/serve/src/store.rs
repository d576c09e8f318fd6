//! One framed, append-mostly store for every per-stream segment format:
//! the evaluation cache ([`crate::CacheCodec`]) and the Pareto fronts
//! ([`crate::FrontCodec`]) differ only in the [`Codec`] they plug in.
//!
//! One file per evaluator stream, `<prefix>-<key>.seg` in the daemon's
//! cache directory (`key` is the profile's evaluation fingerprint, so a
//! physics change keys a different file and old state never leaks):
//!
//! ```text
//! <codec header line>
//! key 00000afc1d2e3f40
//! entry 89 1a2b3c4d
//! <payload>
//! ```
//!
//! Each `entry` line frames one payload by byte length and CRC-32-IEEE
//! over exactly the payload bytes. Appends are the settle path (cheap,
//! one `fsync` per batch); every `compact_threshold` appends, at drain,
//! and over a chaos-torn tail the file is rewritten whole through
//! [`durable::write_atomic`] so it never grows without bound.
//!
//! Loading distinguishes two failure modes precisely:
//!
//! * **Torn tail** — the file ends mid-line or mid-payload, exactly what
//!   a crash during an append leaves behind. The intact prefix is kept,
//!   the file rewritten without the tail, and a note reported. Data loss
//!   is bounded by one settle batch, and those items simply recompute.
//! * **Bit rot** — a structurally complete entry whose CRC disagrees,
//!   framing violated mid-file, a foreign/garbled header, or a key line
//!   naming another stream. No clean truncation explains these, so the
//!   whole file is quarantined (renamed `*.quarantine`) with a
//!   byte-precise diagnostic and the stream starts cold rather than
//!   trusting any of it.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hi_core::{crc32_ieee, durable, ChaosPolicy};

/// The `hi_trace` metric names one codec's store counts under.
#[derive(Debug, Clone, Copy)]
pub struct StoreMetrics {
    /// Items loaded back from disk at open.
    pub loaded: &'static str,
    /// Items written durably (appends + compaction folds).
    pub persisted: &'static str,
    /// Full-file compactions.
    pub compactions: &'static str,
    /// Files quarantined at open.
    pub quarantined: &'static str,
}

/// A payload grammar for [`FramedStore`]: everything that differs
/// between two segment formats.
pub trait Codec {
    /// One persisted item.
    type Item: std::fmt::Debug + PartialEq;
    /// The file's exact first line.
    const HEADER: &'static str;
    /// File-name prefix: files are `<PREFIX>-<key>.seg`.
    const PREFIX: &'static str;
    /// The format's name in not-ours diagnostics ("not a {LABEL}").
    const LABEL: &'static str;
    /// What recovered items are called in torn-tail notes.
    const ITEMS: &'static str;
    /// What starts cold after a quarantine.
    const COLD: &'static str;
    /// The metrics this format's store counts under.
    const METRICS: StoreMetrics;
    /// `true` when a drain-time flush may skip only if disk holds exactly
    /// the snapshot (no logged-but-displaced extras to fold out); `false`
    /// when any superset of the snapshot on disk is clean.
    const EXACT_FLUSH: bool;
    /// Renders one item's payload line (no framing, no newline).
    fn render(item: &Self::Item) -> String;
    /// Parses one payload line back into an item.
    fn parse(payload: &str) -> Result<Self::Item, String>;
    /// The item's dedup key within one file.
    fn fingerprint(item: &Self::Item) -> u64;
}

/// Frames a payload as `entry <len> <crc32>\n<payload>\n` bytes.
pub fn frame_entry(payload: &str) -> Vec<u8> {
    let mut out = format!(
        "entry {} {:08x}\n",
        payload.len(),
        crc32_ieee(payload.as_bytes())
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out.push(b'\n');
    out
}

/// The outcome of parsing one framed file.
#[derive(Debug, Clone, PartialEq)]
pub struct FramedLoad<T> {
    /// The stream key stated in the file's `key` line.
    pub key: u64,
    /// Intact items, in file (append) order.
    pub items: Vec<T>,
    /// `Some(note)` if a torn tail was found after the intact prefix —
    /// the caller should rewrite the file before appending.
    pub torn: Option<String>,
}

impl<T> FramedLoad<T> {
    fn torn_empty(note: &str) -> Self {
        Self {
            key: 0,
            items: Vec::new(),
            torn: Some(note.to_string()),
        }
    }

    /// `Some(diagnostic)` when the file holds items but its key line
    /// names a stream other than `key` — misplaced or renamed by hand.
    /// Serving it as `key`'s would hand out wrong physics.
    pub fn miskeyed(&self, key: u64) -> Option<String> {
        (!self.items.is_empty() && self.key != key).then(|| {
            format!(
                "key line says {:016x} but the file is named for {key:016x}",
                self.key
            )
        })
    }
}

/// Reads one newline-terminated line starting at `pos`. Returns the line
/// (newline excluded), the position after it, and whether the terminator
/// was present (`false` means the file ends mid-line — a torn tail).
fn read_line(bytes: &[u8], pos: usize) -> (&[u8], usize, bool) {
    match bytes[pos..].iter().position(|&b| b == b'\n') {
        Some(nl) => (&bytes[pos..pos + nl], pos + nl + 1, true),
        None => (&bytes[pos..], bytes.len(), false),
    }
}

/// What one `settle` call did, for logging and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SettleOutcome {
    /// Items newly persisted (appended or folded into a compaction).
    pub persisted: usize,
    /// True if the whole file was compacted (atomic rewrite).
    pub compacted: bool,
    /// True if chaos injection silently dropped this batch.
    pub chaos_dropped: bool,
    /// True if chaos injection tore the batch's final entry.
    pub chaos_torn: bool,
}

/// Cumulative [`FramedStore`] counters, mirrored into the codec's
/// [`StoreMetrics`] and printed by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Items loaded back from disk at open.
    pub loaded: u64,
    /// Items written durably (appends + compaction folds).
    pub persisted: u64,
    /// Full-file compactions performed.
    pub compactions: u64,
    /// Files quarantined for bit rot at open.
    pub quarantined: u64,
}

#[derive(Debug, Default)]
struct KeyState {
    /// Fingerprints known to be durably on disk.
    persisted: BTreeSet<u64>,
    /// Appends since the file was last fully rewritten.
    appends_since_compact: u32,
    /// Settle-batch counter: the chaos roll index, so injection is a
    /// pure function of `(key, batch)` and replays identically.
    sequence: u32,
    /// Set after a chaos-torn append: the file tail is garbage, so the
    /// next settle must compact (rewrite) instead of appending after it.
    needs_compact: bool,
}

/// One append-mostly framed file per evaluator stream, loaded and
/// verified at daemon start.
///
/// Writes happen on the scheduler thread (jobs run serially), reads at
/// startup; the mutexes are for the occasional STATS reader.
#[derive(Debug)]
pub struct FramedStore<C: Codec> {
    dir: PathBuf,
    compact_threshold: u32,
    chaos: Option<ChaosPolicy>,
    state: Mutex<BTreeMap<u64, KeyState>>,
    /// Items recovered at open, waiting for their stream to claim them.
    preloaded: Mutex<BTreeMap<u64, Vec<C::Item>>>,
    loaded: AtomicU64,
    persisted_total: AtomicU64,
    compactions: AtomicU64,
    quarantined: AtomicU64,
}

impl<C: Codec> FramedStore<C> {
    /// Opens (creating if needed) `dir`, loading and verifying every
    /// `<PREFIX>-*.seg` in it. Returns the store plus human-readable
    /// notes for anything abnormal: torn tails truncated, bit-rotted
    /// files quarantined. Notes are diagnostics, not errors — the daemon
    /// always starts; damaged streams just start cold.
    pub fn open(
        dir: PathBuf,
        compact_threshold: u32,
        chaos: Option<ChaosPolicy>,
    ) -> std::io::Result<(Self, Vec<String>)> {
        std::fs::create_dir_all(&dir)?;
        let store = Self {
            dir,
            compact_threshold: compact_threshold.max(1),
            chaos,
            state: Mutex::new(BTreeMap::new()),
            preloaded: Mutex::new(BTreeMap::new()),
            loaded: AtomicU64::new(0),
            persisted_total: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        };
        let notes = store.load_existing()?;
        Ok((store, notes))
    }

    /// The directory the store's files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file for stream `key` under `dir`.
    pub fn path(dir: &Path, key: u64) -> PathBuf {
        dir.join(format!("{}-{key:016x}.seg", C::PREFIX))
    }

    /// Renders a complete file (header, key line, framed items).
    pub fn render(key: u64, items: &[C::Item]) -> Vec<u8> {
        let mut out = format!("{}\nkey {key:016x}\n", C::HEADER).into_bytes();
        for item in items {
            out.extend_from_slice(&frame_entry(&C::render(item)));
        }
        out
    }

    /// Parses a file, separating torn tails from bit rot.
    ///
    /// `Ok` means the intact prefix is trustworthy: `items` carries it,
    /// and [`FramedLoad::torn`] notes a truncated tail if the file ends
    /// mid-entry (the crash-during-append signature). `Err` means bit rot
    /// — CRC mismatch, framing violated mid-file, a garbled header, or a
    /// payload the codec rejects — with a byte-precise diagnostic; the
    /// caller should quarantine the file.
    pub fn parse(bytes: &[u8]) -> Result<FramedLoad<C::Item>, String> {
        // Header line. A short unterminated prefix of the expected header
        // is a torn first write; anything else that differs is not ours.
        let (line, mut pos, terminated) = read_line(bytes, 0);
        if !terminated {
            return if C::HEADER.as_bytes().starts_with(line) {
                Ok(FramedLoad::torn_empty("file torn inside the header line"))
            } else {
                Err(format!("not a {} (garbled header)", C::LABEL))
            };
        }
        if line != C::HEADER.as_bytes() {
            return Err(format!(
                "not a {}: expected `{}`, found {} header bytes",
                C::LABEL,
                C::HEADER,
                line.len()
            ));
        }
        let (line, after_key, terminated) = read_line(bytes, pos);
        if !terminated {
            return if line.is_empty() || b"key ".starts_with(&line[..line.len().min(4)]) {
                Ok(FramedLoad::torn_empty("file torn inside the key line"))
            } else {
                Err(format!("garbled key line at byte {pos}"))
            };
        }
        let key = std::str::from_utf8(line)
            .ok()
            .and_then(|l| l.strip_prefix("key "))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(format!("malformed key line at byte {pos}"))?;
        pos = after_key;

        // Frames first, payload grammar second: a CRC fault anywhere is
        // reported as bit rot before any payload is interpreted.
        let mut payloads: Vec<(&str, usize)> = Vec::new();
        let mut torn = None;
        while pos < bytes.len() {
            let index = payloads.len();
            let entry_at = pos;
            let (line, payload_at, terminated) = read_line(bytes, pos);
            if !terminated {
                torn = Some(format!(
                    "entry {index} header torn at byte {entry_at} (end of file mid-line)"
                ));
                break;
            }
            let header = std::str::from_utf8(line)
                .map_err(|_| format!("entry {index} header at byte {entry_at} is not UTF-8"))?;
            let mut fields = header.split_ascii_whitespace();
            let (len, stated_crc) = match (
                fields.next(),
                fields.next().and_then(|t| t.parse::<usize>().ok()),
                fields.next().and_then(|t| u32::from_str_radix(t, 16).ok()),
                fields.next(),
            ) {
                (Some("entry"), Some(len), Some(crc), None) => (len, crc),
                _ => {
                    return Err(format!(
                        "malformed entry {index} header at byte {entry_at}: `{header}`"
                    ))
                }
            };
            if payload_at + len >= bytes.len() {
                // Payload (or its terminating newline) runs past the end
                // of the file: the append died partway through.
                torn = Some(format!(
                    "entry {index} payload torn at byte {payload_at} \
                     ({len} bytes declared, {} present)",
                    bytes.len().saturating_sub(payload_at)
                ));
                break;
            }
            let payload = &bytes[payload_at..payload_at + len];
            if bytes[payload_at + len] != b'\n' {
                return Err(format!(
                    "entry {index} framing violated at byte {}: \
                     declared length {len} does not end at a newline",
                    payload_at + len
                ));
            }
            let actual = crc32_ieee(payload);
            if actual != stated_crc {
                return Err(format!(
                    "entry {index} crc32 mismatch at byte {payload_at}: \
                     header says {stated_crc:08x}, payload hashes to {actual:08x} (bit rot?)"
                ));
            }
            let payload = std::str::from_utf8(payload)
                .map_err(|_| format!("entry {index} payload at byte {payload_at} is not UTF-8"))?;
            payloads.push((payload, entry_at));
            pos = payload_at + len + 1;
        }
        let items = payloads
            .into_iter()
            .enumerate()
            .map(|(index, (payload, entry_at))| {
                C::parse(payload).map_err(|e| format!("entry {index} at byte {entry_at}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(FramedLoad { key, items, torn })
    }

    /// Reads and parses the file at `path`. The outer `Err` is an I/O
    /// failure; the inner one is bit rot, as [`parse`](Self::parse)
    /// reports it. The caller judges [`FramedLoad::torn`] and
    /// [`FramedLoad::miskeyed`] against the key it expects.
    pub fn load_file(path: &Path) -> std::io::Result<Result<FramedLoad<C::Item>, String>> {
        Ok(Self::parse(&std::fs::read(path)?))
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, KeyState>> {
        self.state.lock().expect("framed store poisoned")
    }

    fn load_existing(&self) -> std::io::Result<Vec<String>> {
        let mut notes = Vec::new();
        let prefix = format!("{}-", C::PREFIX);
        let mut keys: Vec<u64> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let hex = name.to_str()?.strip_prefix(&prefix)?.strip_suffix(".seg")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let path = Self::path(&self.dir, key);
            let load = match Self::load_file(&path) {
                Err(e) => {
                    notes.push(format!("{}: unreadable: {e}", path.display()));
                    continue;
                }
                Ok(Err(diag)) => {
                    self.quarantine(&path, &mut notes, &diag);
                    continue;
                }
                Ok(Ok(load)) => load,
            };
            if let Some(diag) = load.miskeyed(key) {
                self.quarantine(&path, &mut notes, &diag);
                continue;
            }
            if let Some(torn) = &load.torn {
                // Repair in place: rewrite the intact prefix atomically
                // so future appends land on a clean tail.
                durable::write_atomic(&path, &Self::render(key, &load.items))?;
                notes.push(format!(
                    "{}: torn tail truncated ({torn}); {} {} recovered",
                    path.display(),
                    load.items.len(),
                    C::ITEMS
                ));
            }
            let count = load.items.len() as u64;
            hi_trace::counter(C::METRICS.loaded, count);
            self.loaded.fetch_add(count, Ordering::Relaxed);
            self.lock_state()
                .entry(key)
                .or_default()
                .persisted
                .extend(load.items.iter().map(C::fingerprint));
            if !load.items.is_empty() {
                self.preloaded
                    .lock()
                    .expect("framed store poisoned")
                    .insert(key, load.items);
            }
        }
        Ok(notes)
    }

    fn quarantine(&self, path: &Path, notes: &mut Vec<String>, diag: &str) {
        let mut target = path.as_os_str().to_os_string();
        target.push(".quarantine");
        let verdict = match std::fs::rename(path, &target) {
            Ok(()) => format!("quarantined as {}", PathBuf::from(&target).display()),
            Err(e) => format!("quarantine rename failed ({e}); file left in place, ignored"),
        };
        hi_trace::counter(C::METRICS.quarantined, 1);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        notes.push(format!(
            "{}: bit rot: {diag}; {verdict}; {} starts cold",
            path.display(),
            C::COLD
        ));
    }

    /// Claims the items recovered for `key` at open, if any. Intended
    /// for the stream's first build: seed each returned item before the
    /// first job touches the stream.
    pub fn hydrate(&self, key: u64) -> Vec<C::Item> {
        self.preloaded
            .lock()
            .expect("framed store poisoned")
            .remove(&key)
            .unwrap_or_default()
    }

    /// Rewrites `key`'s file whole from `items` and marks exactly them
    /// durable.
    fn compact(&self, entry: &mut KeyState, key: u64, items: &[C::Item]) -> std::io::Result<()> {
        durable::write_atomic(&Self::path(&self.dir, key), &Self::render(key, items))?;
        entry.persisted = items.iter().map(C::fingerprint).collect();
        entry.appends_since_compact = 0;
        entry.needs_compact = false;
        hi_trace::counter(C::METRICS.compactions, 1);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Persists whatever `snapshot` (the stream's full current state)
    /// holds that disk does not: the settle path, called after each job
    /// step. Items already persisted are skipped; fresh ones are appended
    /// (one fsync per batch), and every `compact_threshold` appends the
    /// file is rewritten atomically from the snapshot instead, folding
    /// the tail.
    pub fn settle(&self, key: u64, snapshot: &[C::Item]) -> std::io::Result<SettleOutcome> {
        let mut state = self.lock_state();
        let entry = state.entry(key).or_default();
        let fresh: Vec<&C::Item> = snapshot
            .iter()
            .filter(|item| !entry.persisted.contains(&C::fingerprint(item)))
            .collect();
        if fresh.is_empty() {
            return Ok(SettleOutcome::default());
        }
        let sequence = entry.sequence;
        entry.sequence += 1;
        if let Some(chaos) = &self.chaos {
            if chaos.drops_segment(key, sequence) {
                // The batch silently never reaches disk — the
                // crash-consistency story must absorb it. Not marked
                // persisted, so a later batch (different roll) retries.
                hi_trace::counter(hi_trace::wellknown::EXEC_CHAOS_EVENTS, 1);
                return Ok(SettleOutcome {
                    chaos_dropped: true,
                    ..SettleOutcome::default()
                });
            }
        }
        if entry.needs_compact || entry.appends_since_compact + 1 >= self.compact_threshold {
            self.compact(entry, key, snapshot)?;
            self.count_persisted(fresh.len());
            return Ok(SettleOutcome {
                persisted: fresh.len(),
                compacted: true,
                ..SettleOutcome::default()
            });
        }
        let mut batch = Vec::new();
        let mut complete = Vec::new();
        for item in &fresh {
            batch.extend_from_slice(&frame_entry(&C::render(item)));
            complete.push(C::fingerprint(item));
        }
        let mut chaos_torn = false;
        if let Some(chaos) = &self.chaos {
            if chaos.tears_segment(key, sequence) {
                // Simulate a crash mid-append: only a prefix of the last
                // frame reaches disk. The item is not marked persisted,
                // and the next settle compacts over the garbage tail —
                // exactly what restart recovery would do.
                let last = frame_entry(&C::render(fresh[fresh.len() - 1]));
                batch.truncate(batch.len() - last.len() + last.len() / 2);
                complete.pop();
                chaos_torn = true;
                hi_trace::counter(hi_trace::wellknown::EXEC_CHAOS_EVENTS, 1);
            }
        }
        {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(Self::path(&self.dir, key))?;
            if file.metadata()?.len() == 0 {
                file.write_all(format!("{}\nkey {key:016x}\n", C::HEADER).as_bytes())?;
            }
            file.write_all(&batch)?;
            file.sync_all()?;
        }
        let persisted = complete.len();
        entry.persisted.extend(complete);
        entry.appends_since_compact += 1;
        entry.needs_compact = chaos_torn;
        self.count_persisted(persisted);
        Ok(SettleOutcome {
            persisted,
            chaos_torn,
            ..SettleOutcome::default()
        })
    }

    fn count_persisted(&self, count: usize) {
        hi_trace::counter(C::METRICS.persisted, count as u64);
        self.persisted_total
            .fetch_add(count as u64, Ordering::Relaxed);
    }

    /// Drain-time flush: compacts `key`'s file from the stream's full
    /// snapshot, leaving one clean, tear-free file for the next process.
    /// Skipped when disk provably holds the snapshot already (exactly it,
    /// for an [`EXACT_FLUSH`](Codec::EXACT_FLUSH) codec) and no chaos
    /// tear is pending.
    pub fn flush(&self, key: u64, snapshot: &[C::Item]) -> std::io::Result<()> {
        if snapshot.is_empty() {
            return Ok(());
        }
        let mut state = self.lock_state();
        let entry = state.entry(key).or_default();
        let clean = !entry.needs_compact
            && Self::path(&self.dir, key).exists()
            && (!C::EXACT_FLUSH || entry.persisted.len() == snapshot.len())
            && snapshot
                .iter()
                .all(|item| entry.persisted.contains(&C::fingerprint(item)));
        if clean {
            return Ok(());
        }
        self.compact(entry, key, snapshot)
    }

    /// Cumulative counters since open.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            persisted: self.persisted_total.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Number of items known durable for `key`.
    pub fn persisted_len(&self, key: u64) -> usize {
        self.lock_state().get(&key).map_or(0, |s| s.persisted.len())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Store behaviour, written once and run against every codec by the
    //! codec modules' tests (`segment::tests`, `front::tests`).
    use super::*;
    use crate::FrontCodec;

    /// Sample items for one codec's store tests.
    pub(crate) trait Fixture: Codec {
        /// Distinct sample items; for a front, `item(2)` dominates
        /// `item(0)`.
        fn item(i: u8) -> Self::Item;
        /// Codec-specific checks on what a reopened store hydrates:
        /// `item(0)`, `item(1)`, `item(2)` in log order.
        fn check_hydrated(_logged: &[Self::Item]) {}
    }

    fn items<C: Fixture>(ids: &[u8]) -> Vec<C::Item> {
        ids.iter().map(|&i| C::item(i)).collect()
    }

    fn tmpdir<C: Codec>(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hi-store-{}-{tag}-{}",
            C::PREFIX,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read<C: Codec>(dir: &Path, key: u64) -> FramedLoad<C::Item> {
        let bytes = std::fs::read(FramedStore::<C>::path(dir, key)).unwrap();
        FramedStore::<C>::parse(&bytes).unwrap()
    }

    pub(crate) fn check_torn_prefix<C: Fixture>() {
        let entries = items::<C>(&[0, 1]);
        let bytes = FramedStore::<C>::render(7, &entries);
        let first_entry_end = FramedStore::<C>::render(7, &entries[..1]).len();
        // Any truncation point strictly inside the second entry must
        // recover exactly the first.
        for cut in (first_entry_end + 1)..bytes.len() {
            let load = FramedStore::<C>::parse(&bytes[..cut]).unwrap();
            assert_eq!(load.items, entries[..1], "cut at {cut}");
            assert!(load.torn.is_some(), "cut at {cut}");
        }
        // Truncation at the exact boundary is indistinguishable from a
        // shorter (clean) file.
        let load = FramedStore::<C>::parse(&bytes[..first_entry_end]).unwrap();
        assert_eq!(load.items, entries[..1]);
        assert_eq!(load.torn, None);
    }

    pub(crate) fn check_reopen<C: Fixture>() {
        let dir = tmpdir::<C>("reopen");
        let key = 0x51;
        {
            let (store, notes) = FramedStore::<C>::open(dir.clone(), 256, None).unwrap();
            assert!(notes.is_empty(), "{notes:?}");
            let out = store.settle(key, &items::<C>(&[0, 1])).unwrap();
            assert_eq!(out.persisted, 2);
            // Settling the same snapshot again is a no-op.
            let again = store.settle(key, &items::<C>(&[0, 1])).unwrap();
            assert_eq!(again.persisted, 0);
            // The snapshot evolves (for a front, item 2 displaces item
            // 0): settle appends only the delta, and the log keeps all.
            let out = store.settle(key, &items::<C>(&[2, 1])).unwrap();
            assert_eq!(out.persisted, 1);
            assert_eq!(store.persisted_len(key), 3);
        }
        let (store, notes) = FramedStore::<C>::open(dir.clone(), 256, None).unwrap();
        assert!(notes.is_empty(), "{notes:?}");
        let logged = store.hydrate(key);
        assert_eq!(logged, items::<C>(&[0, 1, 2]));
        C::check_hydrated(&logged);
        // Hydrate drains: a second call returns nothing.
        assert!(store.hydrate(key).is_empty());
        assert_eq!(store.persisted_len(key), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    pub(crate) fn check_repair<C: Fixture>() {
        let dir = tmpdir::<C>("repair");
        let torn_key = 0x60;
        let rotted_key = 0x61;
        let bytes = FramedStore::<C>::render(torn_key, &items::<C>(&[0, 1]));
        let torn_path = FramedStore::<C>::path(&dir, torn_key);
        std::fs::write(&torn_path, &bytes[..bytes.len() - 3]).unwrap();
        let mut rotted = FramedStore::<C>::render(rotted_key, &items::<C>(&[2]));
        let flip_at = rotted.len() - 10;
        rotted[flip_at] ^= 0x01;
        std::fs::write(FramedStore::<C>::path(&dir, rotted_key), &rotted).unwrap();
        let (store, notes) = FramedStore::<C>::open(dir.clone(), 256, None).unwrap();
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(
            notes.iter().any(|n| n.contains("torn tail truncated")),
            "{notes:?}"
        );
        assert!(notes.iter().any(|n| n.contains("bit rot")), "{notes:?}");
        assert_eq!(store.hydrate(torn_key), items::<C>(&[0]));
        assert!(store.hydrate(rotted_key).is_empty());
        assert!(FramedStore::<C>::path(&dir, rotted_key)
            .with_extension("seg.quarantine")
            .exists());
        assert_eq!(store.stats().quarantined, 1);
        // The repaired file parses clean on a third open.
        let load = read::<C>(&dir, torn_key);
        assert_eq!(load.torn, None);
        assert_eq!(load.items, items::<C>(&[0]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    pub(crate) fn check_compaction<C: Fixture>() {
        let dir = tmpdir::<C>("compact");
        let key = 0x70;
        let (store, _) = FramedStore::<C>::open(dir.clone(), 2, None).unwrap();
        store.settle(key, &items::<C>(&[0])).unwrap();
        // Second append hits the threshold: the file is rewritten whole.
        let out = store.settle(key, &items::<C>(&[0, 1])).unwrap();
        assert!(out.compacted);
        let out = store.settle(key, &items::<C>(&[0, 1, 2])).unwrap();
        assert!(!out.compacted);
        assert_eq!(read::<C>(&dir, key).items.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    pub(crate) fn check_chaos<C: Fixture>() {
        let dir = tmpdir::<C>("chaos");
        let key = 0x80;
        // torn=1 tears every batch; drops off.
        let chaos = ChaosPolicy::parse("seed=5,torn=1").unwrap();
        let (store, _) = FramedStore::<C>::open(dir.clone(), 256, Some(chaos)).unwrap();
        let out = store.settle(key, &items::<C>(&[0])).unwrap();
        assert!(out.chaos_torn);
        assert_eq!(out.persisted, 0);
        // The file now has a garbage tail; parse sees a torn entry.
        assert!(read::<C>(&dir, key).torn.is_some());
        // The next settle compacts over it (atomic rewrite is immune to
        // the append-tear injection), leaving a clean file.
        let out = store.settle(key, &items::<C>(&[0, 1])).unwrap();
        assert!(out.compacted);
        assert_eq!(out.persisted, 2);
        let load = read::<C>(&dir, key);
        assert_eq!(load.torn, None);
        assert_eq!(load.items.len(), 2);
        // A fully dropped batch leaves no file at all for a fresh key.
        let dropping = ChaosPolicy::parse("seed=5,segdrop=1").unwrap();
        let (store2, _) =
            FramedStore::<C>::open(tmpdir::<C>("chaos2"), 256, Some(dropping)).unwrap();
        let out = store2.settle(key, &items::<C>(&[0])).unwrap();
        assert!(out.chaos_dropped);
        assert!(!FramedStore::<C>::path(store2.dir(), key).exists());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(store2.dir()).unwrap();
    }

    pub(crate) fn check_flush<C: Fixture>() {
        let dir = tmpdir::<C>("flush");
        let key = 0x90;
        let (store, _) = FramedStore::<C>::open(dir.clone(), 256, None).unwrap();
        store.settle(key, &items::<C>(&[0])).unwrap();
        store.flush(key, &items::<C>(&[0, 1])).unwrap();
        let load = read::<C>(&dir, key);
        assert_eq!(load.items, items::<C>(&[0, 1]));
        assert_eq!(load.torn, None);
        // Item 2 has since displaced the rest: the flush folds them out.
        let current = items::<C>(&[2]);
        store.flush(key, &current).unwrap();
        assert_eq!(read::<C>(&dir, key).items, current);
        // Disk holding more than the snapshot counts as clean only for a
        // codec whose flush need not fold displaced items out.
        store.settle(key, &items::<C>(&[2, 0])).unwrap();
        store.flush(key, &current).unwrap();
        let expected = if C::EXACT_FLUSH {
            &[2][..]
        } else {
            &[2, 0][..]
        };
        assert_eq!(read::<C>(&dir, key).items, items::<C>(expected));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    pub(crate) fn check_miskeyed<C: Fixture>() {
        let dir = tmpdir::<C>("miskey");
        // A file named for key 0xAA whose key line says 0xBB.
        std::fs::write(
            FramedStore::<C>::path(&dir, 0xAA),
            FramedStore::<C>::render(0xBB, &items::<C>(&[0])),
        )
        .unwrap();
        let (store, notes) = FramedStore::<C>::open(dir.clone(), 256, None).unwrap();
        assert!(notes.iter().any(|n| n.contains("named for")), "{notes:?}");
        assert!(store.hydrate(0xAA).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn front_compactions_and_quarantines_count_as_pareto_metrics() {
        use hi_trace::wellknown as wk;
        let collector = hi_trace::Collector::metrics_only();
        let _guard = collector.install(0, 0);
        let dir = tmpdir::<FrontCodec>("metrics");
        std::fs::write(FramedStore::<FrontCodec>::path(&dir, 0xAA), "garbage\n").unwrap();
        let (store, notes) = FramedStore::<FrontCodec>::open(dir.clone(), 256, None).unwrap();
        assert_eq!(notes.len(), 1, "{notes:?}");
        store.flush(0x51, &[FrontCodec::item(0)]).unwrap();
        let registry = collector.registry().unwrap();
        assert_eq!(registry.counter_value(wk::SERVE_CACHE_COMPACTIONS), 0);
        assert_eq!(registry.counter_value(wk::SERVE_CACHE_QUARANTINED), 0);
        assert_eq!(registry.counter_value(wk::SERVE_PARETO_COMPACTIONS), 1);
        assert_eq!(registry.counter_value(wk::SERVE_PARETO_QUARANTINED), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
