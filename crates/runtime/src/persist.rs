//! Persistence for the fleet config store: versioned snapshot +
//! append-only journal, with a handwritten byte codec (the build is
//! offline — no serde).
//!
//! A fleet daemon must not lose its tuned-configuration capital when the
//! process dies: the ROADMAP calls for a store that "survives restarts".
//! The design is the classic snapshot/journal pair:
//!
//! * **Snapshot** (`store.snapshot`): the full store content, written
//!   atomically (temp file + rename) by [`DurableStore::checkpoint`].
//!   Entries are written shard 0 first, each shard oldest-to-newest in
//!   LRU order, so reloading into an equally-sharded store reproduces
//!   per-shard eviction order exactly.
//! * **Journal** (`store.journal`): every mutation since the last
//!   checkpoint, appended as a length-prefixed record. Recovery loads the
//!   snapshot, then replays the journal in order; a torn tail (crash
//!   mid-append) is detected by the length prefix and truncated away.
//!
//! Both files carry a 4-byte magic and a `u32` version; an unknown magic
//! or version fails recovery loudly rather than misparsing.
//!
//! # One path per step
//!
//! Each journal step has one implementation, shared by local mutations,
//! recovery and replication: `create_journal` writes a fresh journal
//! header (open and checkpoint), `JournalWriter::flush_buffered` is the
//! only code that writes records to the file, `decode_records` is the
//! only framed-record decoder (open's replay and
//! [`DurableStore::apply_ship`]), and `JournalRecord::apply` is the only
//! place a record becomes a store mutation.
//!
//! # Locking
//!
//! [`DurableStore`] wraps a [`ShardedStore`] plus one journal writer.
//! **Mutations take the journal lock first, then the shard lock** (via
//! the inner store), so record order in the journal always matches
//! mutation order in the store and replay converges to the same content.
//! Lookups never touch the journal — they contend only on their device's
//! shard, which is where fleet concurrency matters.
//!
//! What the journal does *not* record: LRU touches from lookups. After a
//! journal-only recovery the content is exact but recency order is
//! insertion order; a [`DurableStore::checkpoint`] (which snapshots
//! recency) restores it. The round-trip property — content equality
//! through save/reload — is pinned in `tests/fleet_store_props.rs`.

use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::cache::CacheMetrics;
use crate::store::{ShardMetrics, ShardedStore, StoreBackend};

/// Handwritten byte serialization: little-endian, length-prefixed where
/// variable. Implemented here for primitives and `String`; the concrete
/// fingerprint/value types implement it in the crate that owns them.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the front of `input`, advancing it.
    /// Returns `None` on malformed or truncated input.
    fn decode(input: &mut &[u8]) -> Option<Self>;
    /// Decodes one value written by a file of the given format
    /// `version` (see [`FORMAT_VERSION`]). The default delegates to
    /// [`Self::decode`] — the right behavior for every type whose
    /// encoding never changed. Types that gained a richer encoding in a
    /// later format (e.g. the core crate's `StoredChoice`, whose
    /// version-1 form was a bare untagged choice) override this to keep
    /// old snapshots and journals loadable.
    fn decode_versioned(input: &mut &[u8], version: u32) -> Option<Self> {
        let _ = version;
        Self::decode(input)
    }
}

/// Splits `n` bytes off the front of `input`.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i16);

impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(f64::from_bits(u64::decode(input)?))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// `usize` travels as `u64` so encodings are identical across word
/// sizes; decoding fails cleanly on a value the local word cannot hold.
impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        usize::try_from(u64::decode(input)?).ok()
    }
}

/// Presence-flagged: one tag byte (0 = `None`, 1 = `Some`) then the
/// value. Any other tag is corruption.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

/// `u32` element count then the elements, mirroring `String`. The count
/// is bounds-checked against the remaining input before reserving, so a
/// hostile length prefix cannot force a huge allocation.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let n = u32::decode(input)? as usize;
        // Every element consumes at least one byte in this codec family,
        // so a count beyond the remaining bytes is provably corrupt.
        if n > input.len() {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(input)?);
        }
        Some(out)
    }
}

const SNAPSHOT_MAGIC: [u8; 4] = *b"VQSN";
const JOURNAL_MAGIC: [u8; 4] = *b"VQJL";

/// The snapshot/journal format version new files are written at.
///
/// * **1** — the PR-3 format: bare per-window choice values.
/// * **2** — values are tagged `StoredChoice` encodings (per-window or
///   composed `(gs, dd, zne)`); fingerprints gained the `Zne`/`Composed`
///   mode tags (a superset encoding, readable by the same decoder).
///
/// Files at any version in
/// `MIN_SUPPORTED_VERSION..=FORMAT_VERSION` are readable: the header
/// version is threaded into every value decode via
/// [`Codec::decode_versioned`], so a fleet upgraded across the ZNE
/// change keeps its persisted tuning capital.
pub const FORMAT_VERSION: u32 = 2;

/// Oldest format version [`DurableStore::open`] still reads.
pub const MIN_SUPPORTED_VERSION: u32 = 1;

const SNAPSHOT_FILE: &str = "store.snapshot";
const JOURNAL_FILE: &str = "store.journal";

/// Journal record tags.
const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_INVALIDATE_BEFORE: u8 = 3;
const TAG_INVALIDATE_ALL_BEFORE: u8 = 4;

fn bad_data(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Validates a file header and returns the format version it declares
/// (any version in the supported range).
fn check_header(input: &mut &[u8], magic: [u8; 4], what: &str) -> io::Result<u32> {
    let head = take(input, 4).ok_or_else(|| bad_data(what))?;
    if head != magic {
        return Err(bad_data(what));
    }
    let version = u32::decode(input).ok_or_else(|| bad_data(what))?;
    if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{what}: unsupported version {version}"),
        ));
    }
    Ok(version)
}

/// Serializes a flat entry list (snapshot body).
fn encode_entries<F: Codec, V: Codec>(entries: &[(String, u64, F, V)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    FORMAT_VERSION.encode(&mut out);
    (entries.len() as u64).encode(&mut out);
    for (device, epoch, fp, value) in entries {
        device.encode(&mut out);
        epoch.encode(&mut out);
        fp.encode(&mut out);
        value.encode(&mut out);
    }
    out
}

fn decode_entries<F: Codec, V: Codec>(mut input: &[u8]) -> io::Result<Vec<(String, u64, F, V)>> {
    let input = &mut input;
    let version = check_header(input, SNAPSHOT_MAGIC, "snapshot header")?;
    let count = u64::decode(input).ok_or_else(|| bad_data("snapshot count"))?;
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let device = String::decode(input).ok_or_else(|| bad_data("snapshot entry"))?;
        let epoch = u64::decode(input).ok_or_else(|| bad_data("snapshot entry"))?;
        let fp = F::decode_versioned(input, version).ok_or_else(|| bad_data("snapshot entry"))?;
        let value =
            V::decode_versioned(input, version).ok_or_else(|| bad_data("snapshot entry"))?;
        entries.push((device, epoch, fp, value));
    }
    Ok(entries)
}

/// Inserts decoded snapshot entries in order, which reproduces each
/// shard's LRU order, and returns how many there were.
fn insert_entries<F: Hash + Eq + Clone, V>(
    store: &ShardedStore<F, V>,
    entries: Vec<(String, u64, F, V)>,
) -> usize {
    let count = entries.len();
    for (device, epoch, fp, value) in entries {
        store.insert(&device, epoch, fp, value);
    }
    count
}

/// One journaled mutation.
#[derive(Debug, Clone, PartialEq)]
enum JournalRecord<F, V> {
    Insert {
        device: String,
        epoch: u64,
        fingerprint: F,
        value: V,
    },
    Remove {
        device: String,
        epoch: u64,
        fingerprint: F,
    },
    InvalidateBefore {
        device: String,
        epoch: u64,
    },
    InvalidateAllBefore {
        epoch: u64,
    },
}

impl<F: Codec, V: Codec> JournalRecord<F, V> {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            JournalRecord::Insert {
                device,
                epoch,
                fingerprint,
                value,
            } => {
                out.push(TAG_INSERT);
                device.encode(&mut out);
                epoch.encode(&mut out);
                fingerprint.encode(&mut out);
                value.encode(&mut out);
            }
            JournalRecord::Remove {
                device,
                epoch,
                fingerprint,
            } => {
                out.push(TAG_REMOVE);
                device.encode(&mut out);
                epoch.encode(&mut out);
                fingerprint.encode(&mut out);
            }
            JournalRecord::InvalidateBefore { device, epoch } => {
                out.push(TAG_INVALIDATE_BEFORE);
                device.encode(&mut out);
                epoch.encode(&mut out);
            }
            JournalRecord::InvalidateAllBefore { epoch } => {
                out.push(TAG_INVALIDATE_ALL_BEFORE);
                epoch.encode(&mut out);
            }
        }
        out
    }

    fn decode_payload(mut payload: &[u8], version: u32) -> Option<Self> {
        let input = &mut payload;
        let record = match u8::decode(input)? {
            TAG_INSERT => JournalRecord::Insert {
                device: String::decode(input)?,
                epoch: u64::decode(input)?,
                fingerprint: F::decode_versioned(input, version)?,
                value: V::decode_versioned(input, version)?,
            },
            TAG_REMOVE => JournalRecord::Remove {
                device: String::decode(input)?,
                epoch: u64::decode(input)?,
                fingerprint: F::decode_versioned(input, version)?,
            },
            TAG_INVALIDATE_BEFORE => JournalRecord::InvalidateBefore {
                device: String::decode(input)?,
                epoch: u64::decode(input)?,
            },
            TAG_INVALIDATE_ALL_BEFORE => JournalRecord::InvalidateAllBefore {
                epoch: u64::decode(input)?,
            },
            _ => return None,
        };
        if input.is_empty() {
            Some(record)
        } else {
            None // trailing garbage inside a record is corruption
        }
    }
}

impl<F: Hash + Eq + Clone, V> JournalRecord<F, V> {
    /// Applies this mutation to `store` and returns how many entries it
    /// changed; `0` marks a no-op.
    fn apply(self, store: &ShardedStore<F, V>) -> usize {
        match self {
            JournalRecord::Insert {
                device,
                epoch,
                fingerprint,
                value,
            } => {
                store.insert(&device, epoch, fingerprint, value);
                1
            }
            JournalRecord::Remove {
                device,
                epoch,
                fingerprint,
            } => usize::from(store.remove(&device, epoch, &fingerprint)),
            JournalRecord::InvalidateBefore { device, epoch } => {
                store.invalidate_before(&device, epoch)
            }
            JournalRecord::InvalidateAllBefore { epoch } => store.invalidate_all_before(epoch),
        }
    }
}

/// Decodes `u32`-framed journal records off the front of `input`,
/// stopping at the first torn or malformed one: that record and
/// everything after it stay in `input`, so an empty `input` afterwards
/// means every byte was a well-formed record.
fn decode_records<F: Codec, V: Codec>(input: &mut &[u8], version: u32) -> Vec<JournalRecord<F, V>> {
    let mut records = Vec::new();
    loop {
        let mut rest = *input;
        let record = u32::decode(&mut rest)
            .and_then(|len| take(&mut rest, len as usize))
            .and_then(|payload| JournalRecord::decode_payload(payload, version));
        let Some(record) = record else {
            return records;
        };
        records.push(record);
        *input = rest;
    }
}

/// Length of the journal file header (magic + `u32` version).
const JOURNAL_HEADER_LEN: u64 = 8;

/// Creates (or truncates) the journal file at `path` holding only a
/// current-version header; records are written after it.
fn create_journal(path: &Path) -> io::Result<File> {
    let mut file = File::create(path)?;
    file.write_all(&JOURNAL_MAGIC)?;
    file.write_all(&FORMAT_VERSION.to_le_bytes())?;
    file.flush()?;
    Ok(file)
}

/// The append side of the journal.
///
/// Every journaled record is framed into `buf` and reaches the file
/// through [`JournalWriter::flush_buffered`], the only code that writes
/// journal records, in one write per flush. When it runs is the store's
/// commit discipline. A **per-record** store (the follower/standalone
/// default) flushes before each mutating call returns. Under **group
/// commit** the leader reactor flushes once per event-loop drain and
/// gates its replies on the flush, so *acknowledged ⇒ on disk* holds
/// with far fewer syscalls.
///
/// `bytes` is the **durable** file length and therefore the replication
/// ship offset: it advances only when bytes actually reach the file,
/// never while they sit in `buf` — `ship_since` reads the on-disk file
/// byte-exactly, so buffered bytes must never be claimable.
#[derive(Debug)]
struct JournalWriter {
    file: File,
    records: u64,
    /// Durable journal file length in bytes, header included — the
    /// replication shipping offset (see [`ShipCursor`]).
    bytes: u64,
    /// Framed records awaiting the next group-commit flush.
    buf: Vec<u8>,
    /// Records inside `buf`.
    buf_records: u64,
}

impl JournalWriter {
    /// A writer over `file`, which already holds `records` records in
    /// `bytes` bytes (header included).
    fn new(file: File, records: u64, bytes: u64) -> Self {
        JournalWriter {
            file,
            records,
            bytes,
            buf: Vec::new(),
            buf_records: 0,
        }
    }

    /// Queues one framed record for the next
    /// [`JournalWriter::flush_buffered`]; cannot fail — I/O errors
    /// surface at flush time.
    fn buffer(&mut self, payload: &[u8]) {
        (payload.len() as u32).encode(&mut self.buf);
        self.buf.extend_from_slice(payload);
        self.buf_records += 1;
    }

    /// Writes every buffered record in one syscall. On error the batch
    /// is dropped (the in-memory store stays ahead of the journal) and
    /// the durable length is left untouched.
    fn flush_buffered(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let result = self
            .file
            .write_all(&self.buf)
            .and_then(|()| self.file.flush());
        if result.is_ok() {
            self.records += self.buf_records;
            self.bytes += self.buf.len() as u64;
        }
        self.buf.clear();
        self.buf_records = 0;
        result
    }
}

/// A replication position in a leader's journal: which journal
/// *incarnation* (`generation` — bumped by every checkpoint, which
/// truncates and recreates the journal file) and how many bytes of it
/// (header included) a follower has durably applied.
///
/// Cursors order lexicographically — generation first, then offset — and
/// [`ShipCursor::covers`] is exactly that order: a follower sitting at a
/// *later* generation has applied a full snapshot taken at-or-after any
/// point in an earlier generation, so generation-crossing comparisons are
/// safe.
///
/// `ShipCursor::default()` — generation 0, offset 0 — matches no live
/// journal and therefore always provokes a snapshot bootstrap from
/// [`DurableStore::ship_since`]: the canonical "I have nothing" ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct ShipCursor {
    /// Journal incarnation: starts at 1 on open, +1 per checkpoint.
    pub generation: u64,
    /// Bytes of that incarnation's journal file applied (the 8-byte
    /// header counts, so a freshly-bootstrapped follower sits at 8).
    pub offset: u64,
}

impl ShipCursor {
    /// Whether this cursor has durably applied everything up to `point`.
    pub fn covers(&self, point: ShipCursor) -> bool {
        *self >= point
    }
}

/// One leader→follower shipment produced by [`DurableStore::ship_since`].
///
/// The payload is either a byte-exact slice of the on-disk journal
/// (`snapshot == false` — the same `u32`-framed records
/// [`DurableStore::open`] replays) or a full snapshot body
/// (`snapshot == true` — the same bytes [`DurableStore::checkpoint`]
/// writes). One serialization discipline for disk, wire, and
/// replication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipBatch {
    /// `true`: `payload` is a full snapshot body (magic + version +
    /// entries); `false`: `payload` is raw framed journal records.
    pub snapshot: bool,
    /// Where a follower stands after durably applying `payload`.
    pub cursor: ShipCursor,
    /// The bytes to apply — possibly empty (follower already caught up).
    pub payload: Vec<u8>,
}

/// When a [`DurableStore`] compacts its journal into a snapshot on its
/// own — the self-compacting durability policy.
///
/// An append-only journal grows without bound between explicit
/// checkpoints, and every record slows the next recovery replay. The
/// policy bounds that: once the journal holds more than
/// `max_journal_records` records, [`DurableStore::maybe_compact`]
/// checkpoints (snapshot written atomically, journal truncated). The
/// fleet reactor calls `maybe_compact` after every session, so a
/// long-lived daemon keeps recovery O(snapshot + bounded journal) with
/// no operator in the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Journal records beyond which the next compaction check
    /// checkpoints. `0` disables auto-compaction (explicit
    /// [`DurableStore::checkpoint`] calls only).
    pub max_journal_records: u64,
}

impl CompactionPolicy {
    /// Auto-compaction disabled: only explicit checkpoints compact.
    pub const fn disabled() -> Self {
        CompactionPolicy {
            max_journal_records: 0,
        }
    }

    /// Compact once the journal exceeds `max_journal_records` records.
    pub const fn after_records(max_journal_records: u64) -> Self {
        CompactionPolicy {
            max_journal_records,
        }
    }
}

impl Default for CompactionPolicy {
    /// Compact past 4096 journal records — roughly a few hundred fleet
    /// sessions' worth of mutations, small enough that recovery replay
    /// stays instant and large enough that snapshot writes stay rare.
    fn default() -> Self {
        CompactionPolicy::after_records(4096)
    }
}

/// Counters describing one [`DurableStore::open`] recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Entries loaded from the snapshot.
    pub snapshot_entries: usize,
    /// Journal records replayed on top of the snapshot.
    pub journal_records: usize,
    /// `true` when a torn record terminated journal replay early (the
    /// well-formed prefix was still applied).
    pub journal_truncated: bool,
}

/// A [`ShardedStore`] that survives restarts: every mutation is appended
/// to an on-disk journal, and [`Self::checkpoint`] compacts the journal
/// into a versioned snapshot.
///
/// All methods take `&self`; share the store across worker threads behind
/// an `Arc`. The warm-start tuner runs against `Arc<DurableStore>` via
/// [`StoreBackend`].
///
/// ```
/// use vaqem_runtime::persist::DurableStore;
///
/// let dir = std::env::temp_dir().join(format!("vaqem-doc-store-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// {
///     let store: DurableStore<u64, u64> = DurableStore::open(&dir, 4, 256)?;
///     store.insert("fleet-east", 0, 7, 42);
///     // Dropped without a checkpoint — like a process kill: the
///     // append-only journal is the only durable record.
/// }
/// let store: DurableStore<u64, u64> = DurableStore::open(&dir, 4, 256)?;
/// assert_eq!(store.recovery().journal_records, 1);
/// assert_eq!(store.lookup("fleet-east", 0, &7), Some(42));
/// store.checkpoint()?; // compact: snapshot written, journal truncated
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct DurableStore<F, V> {
    store: ShardedStore<F, V>,
    journal: Mutex<JournalWriter>,
    dir: PathBuf,
    recovery: RecoveryReport,
    journal_write_errors: AtomicU64,
    /// Journal incarnation counter for replication cursors; bumped by
    /// every checkpoint. Only ever written under the journal lock — the
    /// atomic is for lock-free reads in metrics paths.
    generation: AtomicU64,
    /// Group-commit mode: mutations leave their journal records buffered
    /// and a caller (the leader reactor) flushes once per batch via
    /// [`DurableStore::flush_journal`]. Off by default: each mutating
    /// call then flushes its own records before it returns.
    group_commit: AtomicBool,
}

impl<F, V> DurableStore<F, V>
where
    F: Codec + Hash + Eq + Clone,
    V: Codec + Clone,
{
    /// Opens (or creates) the store persisted under `dir`: loads the
    /// snapshot if present, replays the journal on top, and reopens the
    /// journal for appending. Cache metrics start at zero — recovery
    /// inserts are not client traffic.
    ///
    /// # Errors
    ///
    /// I/O failures, or a snapshot/journal header with the wrong magic or
    /// an unsupported version.
    pub fn open(dir: &Path, num_shards: usize, capacity_per_shard: usize) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let store = ShardedStore::new(num_shards, capacity_per_shard);
        let mut recovery = RecoveryReport::default();

        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            let bytes = std::fs::read(&snapshot_path)?;
            recovery.snapshot_entries = insert_entries(&store, decode_entries(&bytes)?);
        }

        let journal_path = dir.join(JOURNAL_FILE);
        let mut journal_upgraded = false;
        let journal = if journal_path.exists() {
            let bytes = std::fs::read(&journal_path)?;
            let mut input = bytes.as_slice();
            let version = check_header(&mut input, JOURNAL_MAGIC, "journal header")?;
            // An old-format journal is replayed, then rewritten at the
            // current version: records appended by this process use the
            // current encoding, which must never land behind a header
            // declaring the old one.
            journal_upgraded = version < FORMAT_VERSION;
            let records = decode_records::<F, V>(&mut input, version);
            recovery.journal_records = records.len();
            for record in records {
                record.apply(&store);
            }
            // What the decoder left is a torn tail from a crash
            // mid-append: the well-formed prefix is the durable history.
            // The tail is truncated away before reopening for append, so
            // post-recovery records never land behind garbage (which the
            // next open's replay would discard).
            let valid_len = (bytes.len() - input.len()) as u64;
            if !input.is_empty() {
                recovery.journal_truncated = true;
                let file = OpenOptions::new().write(true).open(&journal_path)?;
                file.set_len(valid_len)?;
                file.sync_all()?;
            }
            let file = OpenOptions::new().append(true).open(&journal_path)?;
            JournalWriter::new(file, recovery.journal_records as u64, valid_len)
        } else {
            JournalWriter::new(create_journal(&journal_path)?, 0, JOURNAL_HEADER_LEN)
        };

        store.reset_metrics();
        let opened = DurableStore {
            store,
            journal: Mutex::new(journal),
            dir: dir.to_path_buf(),
            recovery,
            journal_write_errors: AtomicU64::new(0),
            generation: AtomicU64::new(1),
            group_commit: AtomicBool::new(false),
        };
        if journal_upgraded {
            // Old-format journal: compact immediately so every on-disk
            // byte — snapshot and journal header alike — is at the
            // current format before any new record is appended.
            opened.checkpoint()?;
        }
        Ok(opened)
    }

    /// What [`Self::open`] recovered from disk.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Journal writes that failed with an I/O error since open. The
    /// in-memory store stays correct when this is non-zero, but
    /// durability of those mutations is lost; a daemon should checkpoint
    /// and alert.
    pub fn journal_write_errors(&self) -> u64 {
        self.journal_write_errors.load(Ordering::Relaxed)
    }

    /// Records durably appended to the journal since the last
    /// checkpoint (including replayed ones at open). Under group commit
    /// this excludes records still buffered toward the next flush.
    pub fn journal_records(&self) -> u64 {
        self.journal.lock().expect("journal lock").records
    }

    /// Switches between per-record flushing (`false`, the default) and
    /// group commit (`true`): mutations buffer their journal records
    /// until [`DurableStore::flush_journal`] writes the whole batch in
    /// one syscall. Callers enabling group commit own the durability
    /// contract — nothing may be acknowledged to a client before the
    /// flush covering it returns. Disabling flushes whatever is
    /// buffered.
    pub fn set_group_commit(&self, enabled: bool) {
        self.group_commit.store(enabled, Ordering::Relaxed);
        if !enabled {
            let _ = self.flush_journal();
        }
    }

    /// Writes every buffered journal record in one syscall (a no-op
    /// when nothing is buffered). The group-commit barrier: once this
    /// returns `Ok`, every mutation applied before the call is durable
    /// and [`DurableStore::ship_cursor`] covers it.
    ///
    /// # Errors
    ///
    /// Journal write failures (also counted in
    /// [`DurableStore::journal_write_errors`]; the batch is dropped).
    pub fn flush_journal(&self) -> io::Result<()> {
        let mut journal = self.journal.lock().expect("journal lock");
        let result = journal.flush_buffered();
        if result.is_err() {
            self.journal_write_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The replication position a reply must wait for: the durable
    /// cursor *plus* any records still buffered toward the next group
    /// commit. Gate replies on this point and release them once
    /// [`DurableStore::ship_cursor`] (after a flush) covers it —
    /// acknowledged ⇒ on disk.
    pub fn pending_cursor(&self) -> ShipCursor {
        let journal = self.journal.lock().expect("journal lock");
        ShipCursor {
            generation: self.generation.load(Ordering::Relaxed),
            offset: journal.bytes + journal.buf.len() as u64,
        }
    }

    /// Applies `record` to the store and buffers it in `journal`, but
    /// only when it changed something, so no-op removals/invalidations
    /// (a guard discarding an already-evicted seed, a fresh epoch with
    /// nothing stale) don't bloat the journal and slow every future
    /// replay. Returns the entries changed.
    ///
    /// The caller holds the journal lock and the store takes its shard
    /// lock inside: journal order always matches store mutation order.
    fn apply_locked(&self, journal: &mut JournalWriter, record: JournalRecord<F, V>) -> usize {
        let payload = record.encode_payload();
        let changed = record.apply(&self.store);
        if changed > 0 {
            journal.buffer(&payload);
        }
        changed
    }

    /// Ends a mutating call: a per-record store writes what
    /// [`Self::apply_locked`] buffered before the call returns; under
    /// group commit the bytes wait for [`Self::flush_journal`].
    fn settle(&self, journal: &mut JournalWriter) {
        if !self.group_commit.load(Ordering::Relaxed) && journal.flush_buffered().is_err() {
            self.journal_write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One journaled mutation under one journal-lock hold; returns the
    /// entries changed.
    fn journaled(&self, record: JournalRecord<F, V>) -> usize {
        let mut journal = self.journal.lock().expect("journal lock");
        let changed = self.apply_locked(&mut journal, record);
        self.settle(&mut journal);
        changed
    }

    /// Looks up a fingerprint — shard lock only, never journaled.
    pub fn lookup(&self, device: &str, epoch: u64, fingerprint: &F) -> Option<V> {
        self.store.lookup(device, epoch, fingerprint)
    }

    /// Inserts an entry and journals the mutation.
    pub fn insert(&self, device: &str, epoch: u64, fingerprint: F, value: V) {
        self.journaled(JournalRecord::Insert {
            device: device.to_string(),
            epoch,
            fingerprint,
            value,
        });
    }

    /// Removes one entry and journals the mutation.
    pub fn remove(&self, device: &str, epoch: u64, fingerprint: &F) -> bool {
        self.journaled(JournalRecord::Remove {
            device: device.to_string(),
            epoch,
            fingerprint: fingerprint.clone(),
        }) > 0
    }

    /// Drops a device's stale-epoch entries and journals the event.
    pub fn invalidate_before(&self, device: &str, epoch: u64) -> usize {
        self.journaled(JournalRecord::InvalidateBefore {
            device: device.to_string(),
            epoch,
        })
    }

    /// Fleet-wide drift broadcast: drops stale-epoch entries on every
    /// shard and journals the event.
    pub fn invalidate_all_before(&self, epoch: u64) -> usize {
        self.journaled(JournalRecord::InvalidateAllBefore { epoch })
    }

    /// Writes a fresh snapshot atomically (temp file + rename) and
    /// truncates the journal. Blocks mutations (journal lock) for the
    /// duration; lookups keep flowing.
    ///
    /// # Errors
    ///
    /// I/O failures; the previous snapshot and journal stay intact.
    pub fn checkpoint(&self) -> io::Result<()> {
        let mut journal = self.journal.lock().expect("journal lock");
        let bytes = encode_entries(&self.store.export_entries());
        let tmp = self.dir.join("store.snapshot.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        let file = create_journal(&self.dir.join(JOURNAL_FILE))?;
        // Replacing the writer also discards any group-commit buffer:
        // the buffered records were applied to the in-memory store
        // before they were buffered, so the snapshot just written
        // already covers them — their durability point only moves
        // *earlier*, and replies gated on a pre-checkpoint
        // `pending_cursor` release via the generation bump
        // (lexicographic `covers`).
        *journal = JournalWriter::new(file, 0, JOURNAL_HEADER_LEN);
        // New journal incarnation: replication cursors into the old file
        // are dead, so followers behind them get a snapshot bootstrap.
        self.generation.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The store's current replication position: everything a follower
    /// must durably hold to have applied every mutation so far.
    pub fn ship_cursor(&self) -> ShipCursor {
        let journal = self.journal.lock().expect("journal lock");
        ShipCursor {
            generation: self.generation.load(Ordering::Relaxed),
            offset: journal.bytes,
        }
    }

    /// Produces the next leader→follower shipment for a follower that
    /// has durably applied up to `acked`.
    ///
    /// When `acked` points into the live journal incarnation, the
    /// payload is the byte-exact on-disk journal slice from that offset
    /// to the current end (possibly empty — caught up). Any other
    /// cursor — the `(0, 0)` bootstrap ack, a cursor from a compacted
    /// generation, or an offset past the end (a foreign journal) — gets
    /// a full snapshot body instead.
    ///
    /// # Errors
    ///
    /// Journal file read failures.
    pub fn ship_since(&self, acked: ShipCursor) -> io::Result<ShipBatch> {
        use std::io::{Seek, SeekFrom};
        let journal = self.journal.lock().expect("journal lock");
        let cursor = ShipCursor {
            generation: self.generation.load(Ordering::Relaxed),
            offset: journal.bytes,
        };
        let live = acked.generation == cursor.generation
            && acked.offset >= JOURNAL_HEADER_LEN
            && acked.offset <= cursor.offset;
        if live {
            let mut file = File::open(self.dir.join(JOURNAL_FILE))?;
            file.seek(SeekFrom::Start(acked.offset))?;
            let mut payload = vec![0u8; (cursor.offset - acked.offset) as usize];
            file.read_exact(&mut payload)?;
            Ok(ShipBatch {
                snapshot: false,
                cursor,
                payload,
            })
        } else {
            // Journal lock is already held, so export_entries (shard
            // locks) follows the journal→shard order every mutation
            // path uses.
            Ok(ShipBatch {
                snapshot: true,
                cursor,
                payload: encode_entries(&self.store.export_entries()),
            })
        }
    }

    /// Applies one shipment to this (follower) store and returns the
    /// number of entries or records applied.
    ///
    /// Snapshot shipments replace the whole store contents and
    /// checkpoint immediately, so the follower's own on-disk state is a
    /// faithful restart point. Record shipments apply all-or-nothing:
    /// the whole payload is decoded first, then every record goes
    /// through the path local mutations take, under one journal-lock
    /// hold, and the batch reaches the follower's journal in one write.
    /// A follower's local journal therefore re-records everything it
    /// applies, and promotion is a plain [`DurableStore::open`] of the
    /// follower's directory.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the payload is torn or malformed, before any
    /// of it is applied (a follower should re-ack `ShipCursor::default()`
    /// to force a snapshot resync); checkpoint I/O errors on the
    /// snapshot path.
    pub fn apply_ship(&self, batch: &ShipBatch) -> io::Result<usize> {
        if batch.snapshot {
            let entries = decode_entries::<F, V>(&batch.payload)?;
            self.store.clear_all();
            let count = insert_entries(&self.store, entries);
            // Compact immediately: the follower's snapshot now equals
            // the leader's shipped state and its journal is empty.
            self.checkpoint()?;
            return Ok(count);
        }
        let mut input = batch.payload.as_slice();
        let records = decode_records::<F, V>(&mut input, FORMAT_VERSION);
        if !input.is_empty() {
            return Err(bad_data("torn or malformed shipped journal record"));
        }
        let applied = records.len();
        let mut journal = self.journal.lock().expect("journal lock");
        for record in records {
            self.apply_locked(&mut journal, record);
        }
        self.settle(&mut journal);
        Ok(applied)
    }

    /// Checkpoints if (and only if) `policy` says the journal has grown
    /// past its record bound, returning whether a compaction ran. The
    /// check is one journal-lock acquisition when it declines — cheap
    /// enough to call after every session the reactor completes.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O errors (the previous snapshot and journal stay
    /// intact, exactly as for [`Self::checkpoint`]).
    pub fn maybe_compact(&self, policy: CompactionPolicy) -> io::Result<bool> {
        if policy.max_journal_records == 0 || self.journal_records() <= policy.max_journal_records {
            return Ok(false);
        }
        self.checkpoint()?;
        Ok(true)
    }

    /// Total live entries.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Aggregate cache counters since open (recovery inserts excluded).
    pub fn metrics(&self) -> CacheMetrics {
        self.store.metrics()
    }

    /// Per-shard observability snapshots.
    pub fn shard_metrics(&self) -> Vec<ShardMetrics> {
        self.store.shard_metrics()
    }

    /// One shard's snapshot, touching only that shard's lock
    /// (see [`ShardedStore::shard_metrics_of`]).
    pub fn shard_metrics_of(&self, shard: usize) -> ShardMetrics {
        self.store.shard_metrics_of(shard)
    }

    /// Zeroes the cache counters on every shard.
    pub fn reset_metrics(&self) {
        self.store.reset_metrics()
    }

    /// The shard a device routes to (see [`ShardedStore::shard_of`]).
    pub fn shard_of(&self, device: &str) -> usize {
        self.store.shard_of(device)
    }

    /// Every live entry in snapshot order.
    pub fn export_entries(&self) -> Vec<(String, u64, F, V)> {
        self.store.export_entries()
    }
}

impl<F, V> Drop for DurableStore<F, V> {
    fn drop(&mut self) {
        // A graceful drop under group commit flushes the tail batch —
        // only a genuine crash (SIGKILL, power loss) can lose buffered,
        // *unacknowledged* records.
        if let Ok(mut journal) = self.journal.lock() {
            let _ = journal.flush_buffered();
        }
    }
}

impl<F, V> StoreBackend<F, V> for std::sync::Arc<DurableStore<F, V>>
where
    F: Codec + Hash + Eq + Clone,
    V: Codec + Clone,
{
    fn lookup(&mut self, device: &str, epoch: u64, fingerprint: &F) -> Option<V> {
        DurableStore::lookup(self, device, epoch, fingerprint)
    }

    fn publish(&mut self, device: &str, epoch: u64, fingerprint: F, value: V) {
        DurableStore::insert(self, device, epoch, fingerprint, value);
    }

    fn discard(&mut self, device: &str, epoch: u64, fingerprint: &F) -> bool {
        DurableStore::remove(self, device, epoch, fingerprint)
    }

    fn invalidate_device_before(&mut self, device: &str, epoch: u64) -> usize {
        DurableStore::invalidate_before(self, device, epoch)
    }

    fn metrics_snapshot(&self) -> CacheMetrics {
        self.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vaqem-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn primitive_codecs_round_trip() {
        let mut buf = Vec::new();
        42u8.encode(&mut buf);
        7u16.encode(&mut buf);
        9u32.encode(&mut buf);
        u64::MAX.encode(&mut buf);
        (-3i16).encode(&mut buf);
        1.5f64.encode(&mut buf);
        true.encode(&mut buf);
        "fleet-east".to_string().encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(u8::decode(&mut input), Some(42));
        assert_eq!(u16::decode(&mut input), Some(7));
        assert_eq!(u32::decode(&mut input), Some(9));
        assert_eq!(u64::decode(&mut input), Some(u64::MAX));
        assert_eq!(i16::decode(&mut input), Some(-3));
        assert_eq!(f64::decode(&mut input), Some(1.5));
        assert_eq!(bool::decode(&mut input), Some(true));
        assert_eq!(String::decode(&mut input), Some("fleet-east".into()));
        assert!(input.is_empty());
        assert_eq!(u8::decode(&mut input), None, "empty input fails cleanly");
    }

    #[test]
    fn journal_replay_restores_content() {
        let dir = temp_dir("journal");
        {
            let store: DurableStore<u64, u64> = DurableStore::open(&dir, 4, 64).unwrap();
            store.insert("a", 0, 1, 10);
            store.insert("a", 0, 2, 20);
            store.insert("b", 1, 1, 30);
            store.remove("a", 0, &2);
            store.invalidate_before("b", 1); // no-op: entry is at epoch 1
            assert!(!store.remove("a", 0, &2), "second removal is a no-op");
            assert_eq!(
                store.journal_records(),
                4,
                "no-op removals/invalidations are not journaled"
            );
            assert_eq!(store.journal_write_errors(), 0);
            // No checkpoint: the journal alone carries the state.
        }
        let reloaded: DurableStore<u64, u64> = DurableStore::open(&dir, 4, 64).unwrap();
        assert_eq!(reloaded.recovery().journal_records, 4);
        assert_eq!(reloaded.recovery().snapshot_entries, 0);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.lookup("a", 0, &1), Some(10));
        assert_eq!(reloaded.lookup("a", 0, &2), None);
        assert_eq!(reloaded.lookup("b", 1, &1), Some(30));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_preserves_lru_order() {
        let dir = temp_dir("checkpoint");
        let before;
        {
            let store: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
            for k in 0..16u64 {
                store.insert("dev", 0, k, k * 2);
            }
            store.lookup("dev", 0, &3); // refresh: 3 becomes newest
            store.checkpoint().unwrap();
            assert_eq!(store.journal_records(), 0, "checkpoint truncates");
            store.insert("dev", 0, 99, 198); // post-checkpoint journal tail
            before = store.export_entries();
        }
        let reloaded: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        assert_eq!(reloaded.recovery().snapshot_entries, 16);
        assert_eq!(reloaded.recovery().journal_records, 1);
        assert_eq!(
            reloaded.export_entries(),
            before,
            "content and order survive"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_shrinks_the_journal_and_round_trips() {
        let dir = temp_dir("autocompact");
        let policy = CompactionPolicy::after_records(8);
        let before;
        {
            let store: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
            for k in 0..6u64 {
                store.insert("dev", 0, k, k);
            }
            // Under the bound: the policy declines, the journal keeps
            // its records and the disk file keeps its bytes.
            let bytes_before = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
            assert!(!store.maybe_compact(policy).unwrap());
            assert_eq!(store.journal_records(), 6);
            assert_eq!(
                std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
                bytes_before
            );
            // Disabled policy never compacts, whatever the length.
            assert!(!store.maybe_compact(CompactionPolicy::disabled()).unwrap());

            // Past the bound: one check compacts — snapshot written,
            // journal truncated back to its bare header.
            for k in 6..12u64 {
                store.insert("dev", 0, k, k * 10);
            }
            assert!(store.journal_records() > policy.max_journal_records);
            assert!(store.maybe_compact(policy).unwrap());
            assert_eq!(store.journal_records(), 0, "journal truncated");
            let bytes_after = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
            assert!(
                bytes_after < bytes_before,
                "journal file shrank: {bytes_after} vs {bytes_before}"
            );
            assert!(dir.join(SNAPSHOT_FILE).exists());
            // Immediately after compacting, the policy has nothing to do.
            assert!(!store.maybe_compact(policy).unwrap());
            before = store.export_entries();
        }
        // Recovery after an auto-compaction round-trips content and
        // per-shard LRU order from the snapshot alone.
        let reloaded: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        assert_eq!(reloaded.recovery().snapshot_entries, 12);
        assert_eq!(reloaded.recovery().journal_records, 0);
        assert_eq!(reloaded.export_entries(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_tail_is_ignored() {
        let dir = temp_dir("torn");
        {
            let store: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
            store.insert("dev", 0, 1, 10);
            store.insert("dev", 0, 2, 20);
        }
        // Simulate a crash mid-append: a length prefix promising more
        // bytes than exist.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL_FILE))
                .unwrap();
            f.write_all(&[200, 0, 0, 0, TAG_INSERT, 1, 2]).unwrap();
        }
        let reloaded: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        assert!(reloaded.recovery().journal_truncated);
        assert_eq!(reloaded.recovery().journal_records, 2);
        assert_eq!(reloaded.len(), 2, "well-formed prefix still applied");
        // The torn bytes were truncated away, so post-recovery mutations
        // append cleanly and survive the *next* restart too.
        reloaded.insert("dev", 0, 3, 30);
        drop(reloaded);
        let again: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        assert!(!again.recovery().journal_truncated, "tail was repaired");
        assert_eq!(again.recovery().journal_records, 3);
        assert_eq!(
            again.lookup("dev", 0, &3),
            Some(30),
            "post-recovery record durable"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_snapshot_and_journal_still_load() {
        // Hand-craft version-1 files (the u64 codec is unchanged across
        // versions) and open them: the entries must load, and the journal
        // must be upgraded to the current format by an immediate
        // compaction so new records never land behind an old header.
        let dir = temp_dir("v1-compat");
        std::fs::create_dir_all(&dir).unwrap();
        let mut snap = Vec::new();
        snap.extend_from_slice(&SNAPSHOT_MAGIC);
        1u32.encode(&mut snap);
        1u64.encode(&mut snap); // one entry
        "dev-legacy".to_string().encode(&mut snap);
        3u64.encode(&mut snap); // epoch
        7u64.encode(&mut snap); // fingerprint
        70u64.encode(&mut snap); // value
        std::fs::write(dir.join(SNAPSHOT_FILE), &snap).unwrap();
        let mut journal = Vec::new();
        journal.extend_from_slice(&JOURNAL_MAGIC);
        1u32.encode(&mut journal);
        let payload = JournalRecord::<u64, u64>::Insert {
            device: "dev-legacy".into(),
            epoch: 3,
            fingerprint: 8,
            value: 80,
        }
        .encode_payload();
        (payload.len() as u32).encode(&mut journal);
        journal.extend_from_slice(&payload);
        std::fs::write(dir.join(JOURNAL_FILE), &journal).unwrap();

        let store: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        assert_eq!(store.recovery().snapshot_entries, 1);
        assert_eq!(store.recovery().journal_records, 1);
        assert_eq!(store.lookup("dev-legacy", 3, &7), Some(70));
        assert_eq!(store.lookup("dev-legacy", 3, &8), Some(80));
        // The upgrade compacted: the on-disk journal header is current.
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let mut input = &bytes[4..];
        assert_eq!(u32::decode(&mut input), Some(FORMAT_VERSION));
        // Post-upgrade mutations survive the next restart.
        store.insert("dev-legacy", 3, 9, 90);
        drop(store);
        let again: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        assert_eq!(again.len(), 3);
        assert_eq!(again.lookup("dev-legacy", 3, &9), Some(90));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_versions_fail_loudly() {
        let dir = temp_dir("future");
        std::fs::create_dir_all(&dir).unwrap();
        let mut snap = Vec::new();
        snap.extend_from_slice(&SNAPSHOT_MAGIC);
        (FORMAT_VERSION + 1).encode(&mut snap);
        0u64.encode(&mut snap);
        std::fs::write(dir.join(SNAPSHOT_FILE), &snap).unwrap();
        let err = DurableStore::<u64, u64>::open(&dir, 2, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_magic_fails_loudly() {
        let dir = temp_dir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), b"NOPE\x01\x00\x00\x00").unwrap();
        let err = DurableStore::<u64, u64>::open(&dir, 2, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalidate_all_before_is_journaled() {
        let dir = temp_dir("broadcast");
        {
            let store: DurableStore<u64, u64> = DurableStore::open(&dir, 4, 64).unwrap();
            store.insert("a", 0, 1, 1);
            store.insert("b", 0, 1, 2);
            store.insert("b", 3, 1, 3);
            assert_eq!(store.invalidate_all_before(2), 2);
        }
        let reloaded: DurableStore<u64, u64> = DurableStore::open(&dir, 4, 64).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.lookup("b", 3, &1), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_mutations_replay_consistently() {
        let dir = temp_dir("concurrent");
        {
            let store = std::sync::Arc::new(DurableStore::<u64, u64>::open(&dir, 4, 1024).unwrap());
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let store = std::sync::Arc::clone(&store);
                    std::thread::spawn(move || {
                        for k in 0..32u64 {
                            store.insert(&format!("dev-{t}"), 0, k, t * 100 + k);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(store.len(), 128);
            assert_eq!(store.journal_write_errors(), 0);
        }
        let reloaded: DurableStore<u64, u64> = DurableStore::open(&dir, 4, 1024).unwrap();
        assert_eq!(reloaded.len(), 128);
        for t in 0..4u64 {
            for k in 0..32u64 {
                assert_eq!(
                    reloaded.lookup(&format!("dev-{t}"), 0, &k),
                    Some(t * 100 + k)
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Copies the on-disk state of a live store to a fresh directory —
    /// what a crash leaves behind: the durable files only, never the
    /// group-commit buffer.
    fn crash_copy(from: &Path, tag: &str) -> PathBuf {
        let to = temp_dir(tag);
        std::fs::create_dir_all(&to).unwrap();
        for name in [SNAPSHOT_FILE, JOURNAL_FILE] {
            let src = from.join(name);
            if src.exists() {
                std::fs::copy(&src, to.join(name)).unwrap();
            }
        }
        to
    }

    #[test]
    fn group_commit_buffers_until_flush() {
        let dir = temp_dir("gc-buffer");
        let store: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        store.set_group_commit(true);
        store.insert("dev", 0, 1, 10);
        store.insert("dev", 0, 2, 20);
        store.insert("dev", 0, 3, 30);

        // Buffered records are applied in memory but not durable: the
        // ship cursor (the on-disk truth) must not advance, while the
        // pending cursor (the reply gate point) must.
        let shipped = store.ship_cursor();
        let pending = store.pending_cursor();
        assert_eq!(store.journal_records(), 0, "nothing durable yet");
        assert_eq!(shipped.offset, JOURNAL_HEADER_LEN);
        assert!(pending > shipped, "buffered bytes gate replies");
        assert!(!shipped.covers(pending));

        // A crash now (durable files only) loses the whole batch —
        // which is exactly why replies gate on the pending cursor.
        let crashed = crash_copy(&dir, "gc-buffer-crash1");
        let lost: DurableStore<u64, u64> = DurableStore::open(&crashed, 2, 64).unwrap();
        assert_eq!(lost.recovery().journal_records, 0);
        assert_eq!(lost.len(), 0);

        // The flush is the group-commit barrier: everything buffered
        // becomes durable at once and the cursors meet.
        store.flush_journal().unwrap();
        assert_eq!(store.journal_records(), 3);
        assert_eq!(store.ship_cursor(), pending);
        assert!(store.ship_cursor().covers(pending));
        let durable = crash_copy(&dir, "gc-buffer-crash2");
        let recovered: DurableStore<u64, u64> = DurableStore::open(&durable, 2, 64).unwrap();
        assert_eq!(recovered.recovery().journal_records, 3);
        assert_eq!(recovered.lookup("dev", 0, &2), Some(20));

        drop(store);
        for d in [dir, crashed, durable] {
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn group_commit_graceful_drop_flushes_tail() {
        let dir = temp_dir("gc-drop");
        {
            let store: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
            store.set_group_commit(true);
            store.insert("dev", 0, 7, 70);
            // No explicit flush: dropping the store (halt path) writes
            // the tail batch.
        }
        let reloaded: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        assert_eq!(reloaded.recovery().journal_records, 1);
        assert_eq!(reloaded.lookup("dev", 0, &7), Some(70));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_discards_buffer_because_snapshot_covers_it() {
        let dir = temp_dir("gc-checkpoint");
        let store: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        store.set_group_commit(true);
        store.insert("dev", 0, 1, 10);
        store.flush_journal().unwrap();
        store.insert("dev", 0, 2, 20); // buffered, unflushed
        let gated_point = store.pending_cursor();

        store.checkpoint().unwrap();
        assert_eq!(store.journal_records(), 0, "journal truncated");
        let after = store.ship_cursor();
        assert_eq!(
            after,
            store.pending_cursor(),
            "checkpoint leaves nothing buffered"
        );
        assert!(
            after.covers(gated_point),
            "generation bump releases pre-checkpoint gates: {after:?} vs {gated_point:?}"
        );

        // The buffered record rode the snapshot, not the journal.
        let crashed = crash_copy(&dir, "gc-checkpoint-crash");
        let recovered: DurableStore<u64, u64> = DurableStore::open(&crashed, 2, 64).unwrap();
        assert_eq!(recovered.recovery().snapshot_entries, 2);
        assert_eq!(recovered.lookup("dev", 0, &2), Some(20));

        drop(store);
        for d in [dir, crashed] {
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn ship_since_never_ships_buffered_bytes() {
        let dir = temp_dir("gc-ship");
        let store: DurableStore<u64, u64> = DurableStore::open(&dir, 2, 64).unwrap();
        store.set_group_commit(true);
        store.insert("dev", 0, 1, 10);
        store.flush_journal().unwrap();
        let durable = store.ship_cursor();
        store.insert("dev", 0, 2, 20); // buffered

        // A follower caught up to the durable cursor gets nothing: the
        // buffered record is not yet on disk, and shipping it early
        // would let a follower ack bytes a leader crash can still lose.
        let batch = store.ship_since(durable).unwrap();
        assert!(!batch.snapshot);
        assert!(batch.payload.is_empty(), "buffered bytes are unshippable");
        assert_eq!(batch.cursor, durable);

        store.flush_journal().unwrap();
        let batch = store.ship_since(durable).unwrap();
        assert!(!batch.payload.is_empty(), "flushed bytes ship");
        assert_eq!(batch.cursor, store.ship_cursor());

        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
