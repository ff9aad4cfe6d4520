//! Epoch-consistent checkpoint/restore of engine and system state
//! (`DESIGN.md §11`).
//!
//! A checkpoint is a versioned, length-prefixed little-endian image of the
//! *complete* mutable state behind [`BankEngine`] or [`MemorySystem`]:
//! every materialized scheme instance's counters, tree shape and PRNG
//! state (via the schemes' `save_state` word streams), the sparse slabs'
//! occupancy **and** their touch-order-dependent block-directory
//! capacities, the epoch position, and the batch grouping's high-water
//! marks. Restoring an image into a freshly built engine of the same
//! configuration therefore reproduces not just bit-identical stats for
//! the rest of the run but a bit-identical [`crate::EngineFootprint`] —
//! the kill-and-resume differential suite asserts both.
//!
//! Checkpoints are taken **only at epoch cuts** (positions in the global
//! access stream that are multiples of the epoch length, vacuously any
//! inter-batch position when no epoch clock is configured), with the
//! staging buffer empty. Worker threads hold engines only inside a batch
//! call, so between batches every engine is back in the system and a cut
//! image is consistent by construction, with no quiescing machinery.
//!
//! Decode shares the wire's bounds-checked byte codec: magic + version +
//! scope first, every count checked against the bytes remaining and a
//! hard cap *before* allocation, and a trailing FNV-1a integrity hash, so
//! torn or bit-flipped files are typed [`io::Error`]s, never panics.
//!
//! The on-disk recovery protocol of the `catd` front-end pairs the
//! checkpoint image with a bounded **trace log**: every merged batch is
//! appended (and synced) to the log *before* it is processed, and taking
//! a checkpoint rotates the log. Crash recovery
//! ([`resume_from_dir`]) restores the newest image, then replays the
//! log tail past the checkpoint position — the rename-then-reset window
//! is covered by skipping the records the image already contains.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use cat_core::{StateError, StateReader};

use crate::codec::{
    bad, put_geometry, put_header, put_str, put_u32, put_u64, read_array, ByteReader,
};
use crate::group::Grouping;
use crate::ingest::{IngestConsumer, IngestEvent};
use crate::wire::{pack_record, unpack_record, MAX_SPEC_LEN};
use crate::{BankEngine, BatchOutcome, MemorySystem};

/// Checkpoint image magic, the first four bytes of every image
/// ("CAT Checkpoint").
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"CATC";

/// Checkpoint format version. Bump on any incompatible layout change;
/// images of another version are refused instead of misparsed.
///
/// Version 2 added the owned [`crate::GeometrySlice`] (start bank + bank
/// count) to the system section, so a fleet backend's image is pinned to
/// its slice and cannot be restored into a backend serving a different
/// partition. Version 3 dropped the system section's activation-scratch
/// capacity: sharded batches no longer keep system-wide scratch, so the
/// image no longer depends on the shard count. Version 4 replaced the
/// engine section's four counting-sort scratch capacities with the five
/// capacities of the batch grouping (rows, runs, segments, keys, pairs),
/// which the system section now also carries for its own grouping.
/// Version 5 carries each CAT as its leaf-order counter ids instead of a
/// root table, intermediate nodes and an intermediate-node free list.
pub const CHECKPOINT_VERSION: u16 = 5;

/// Hard cap on a checkpoint image/file size — bounds what [`resume_from_dir`]
/// will read into memory.
pub const MAX_CHECKPOINT_BYTES: u64 = 1 << 30;

/// Checkpoint image filename inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Trace-log filename inside a checkpoint directory.
pub const TRACE_LOG_FILE: &str = "trace.log";

/// Scope byte: the image captures one [`BankEngine`].
const SCOPE_ENGINE: u8 = 1;
/// Scope byte: the image captures a whole [`MemorySystem`].
const SCOPE_SYSTEM: u8 = 2;

/// Hard cap on one bank's scheme-state word count — bounds the per-bank
/// allocation a forged length prefix can force.
const MAX_STATE_WORDS: u64 = 1 << 22;

/// Hard cap on a saved scratch-capacity high-water mark, in elements —
/// bounds the `reserve_exact` a forged capacity field can force.
const MAX_SCRATCH_CAP: u64 = 1 << 24;

/// Temporary filename a checkpoint is written to before the atomic rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// Trace-log magic ("CAT Log").
const LOG_MAGIC: [u8; 4] = *b"CATL";
/// Trace-log format version. Version 2 added the base epoch count to the
/// header and the in-stream cut marker word.
const LOG_VERSION: u16 = 2;
/// Log header bytes: magic + version + base access count + base epochs.
const LOG_HEADER_BYTES: usize = 4 + 2 + 8 + 8;
/// In-stream epoch-cut marker: a word whose bank half is `u32::MAX`,
/// which no validated record can carry (banks are bounded by the
/// geometry, itself capped well below `u32::MAX`). Clockless systems
/// driven by a router's epoch clock persist each wire-delivered cut as
/// one marker word, so log replay reproduces the epoch boundaries at the
/// exact stream positions they fired.
const CUT_MARKER: u64 = u32::MAX as u64;
/// Records per [`MemorySystem::process`] call during log replay.
const REPLAY_CHUNK: usize = 1 << 16;

fn state_err(e: StateError) -> io::Error {
    let kind = match e {
        StateError::Unsupported(_) => io::ErrorKind::Unsupported,
        StateError::Exhausted | StateError::Invalid(_) => io::ErrorKind::InvalidData,
    };
    io::Error::new(kind, format!("scheme state: {e}"))
}

/// `true` when `accesses` sits on an epoch cut (vacuously true without an
/// epoch clock — any inter-batch position is consistent then).
fn aligned(accesses: u64, epoch_len: Option<u64>) -> bool {
    match epoch_len {
        None => true,
        Some(n) => accesses.is_multiple_of(n),
    }
}

// ---------------------------------------------------------------------------
// Integrity seal
// ---------------------------------------------------------------------------

/// FNV-1a 64 over `bytes` — an *integrity* hash (torn writes, bit rot,
/// truncation), not an authentication code.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds a sealed image: header, the `scope` section `encode` appends,
/// then the integrity hash of everything before it.
fn sealed_image(
    scope: u8,
    encode: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    put_header(&mut out, CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
    out.push(scope);
    encode(&mut out)?;
    let hash = fnv1a(&out);
    put_u64(&mut out, hash);
    Ok(out)
}

/// Verifies the integrity hash and the header of a sealed image, returning
/// a reader over its `want_scope` section.
fn open_image(image: &[u8], want_scope: u8) -> io::Result<ByteReader<'_>> {
    if image.len() < 8 {
        return Err(bad(format!("{}-byte checkpoint image", image.len())));
    }
    if image.len() as u64 > MAX_CHECKPOINT_BYTES {
        return Err(bad(format!(
            "{}-byte checkpoint image exceeds the {MAX_CHECKPOINT_BYTES}-byte cap",
            image.len()
        )));
    }
    let (body, tail) = image.split_at(image.len() - 8);
    if fnv1a(body).to_le_bytes() != tail {
        return Err(bad("checkpoint integrity hash mismatch"));
    }
    let mut r = ByteReader::new(body);
    read_header(&mut r, want_scope)?;
    Ok(r)
}

// ---------------------------------------------------------------------------
// Header and epoch clock
// ---------------------------------------------------------------------------

fn read_header(r: &mut ByteReader<'_>, want_scope: u8) -> io::Result<()> {
    r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")?;
    let scope = r.u8("scope")?;
    if scope != want_scope {
        let describe = |s: u8| match s {
            SCOPE_ENGINE => "a BankEngine".to_string(),
            SCOPE_SYSTEM => "a MemorySystem".to_string(),
            other => format!("unknown scope {other}"),
        };
        return Err(bad(format!(
            "checkpoint captures {}, restore target is {}",
            describe(scope),
            describe(want_scope)
        )));
    }
    Ok(())
}

/// Refuses a stream position off an epoch cut: the only positions an
/// image may capture.
fn at_cut(accesses: u64, epoch_len: Option<u64>) -> io::Result<()> {
    if aligned(accesses, epoch_len) {
        Ok(())
    } else {
        Err(bad(format!(
            "position {accesses} is off the epoch cut of {epoch_len:?}-access epochs"
        )))
    }
}

/// Appends the epoch clock (flag byte + u64 length, zero without a clock)
/// and the stream position (accesses, epochs).
fn put_position(out: &mut Vec<u8>, epoch_len: Option<u64>, accesses: u64, epochs: u64) {
    out.push(u8::from(epoch_len.is_some()));
    put_u64(out, epoch_len.unwrap_or(0));
    put_u64(out, accesses);
    put_u64(out, epochs);
}

/// Reads a [`put_position`] block as `(accesses, epochs)`, refusing an
/// epoch clock other than the restore target's `own` and a position off
/// its epoch cut.
fn read_position(r: &mut ByteReader<'_>, own: Option<u64>) -> io::Result<(u64, u64)> {
    let epoch_len = match (r.u8("epoch flag")?, r.u64("epoch length")?) {
        (0, 0) => None,
        (0, _) => return Err(bad("epoch length set with a cleared epoch flag")),
        (1, 0) => return Err(bad("zero epoch length with a set epoch flag")),
        (1, n) => Some(n),
        (other, _) => return Err(bad(format!("epoch flag {other} is neither 0 nor 1"))),
    };
    if epoch_len != own {
        return Err(bad(format!(
            "checkpoint epoch length {epoch_len:?}, restore target configured with {own:?}"
        )));
    }
    let (accesses, epochs) = (r.u64("access count")?, r.u64("epoch count")?);
    at_cut(accesses, epoch_len)?;
    Ok((accesses, epochs))
}

// ---------------------------------------------------------------------------
// Engine section
// ---------------------------------------------------------------------------

/// Appends one engine's complete state. Layout (all little-endian):
///
/// ```text
/// u16 spec_len + spec string   canonical SchemeSpec form, validated on restore
/// u32 banks, rows, base        geometry, validated on restore
/// u8 flag + u64 epoch_len      epoch clock, validated on restore
/// u64 accesses, epochs
/// u64 act_block_cap            activation slab directory capacity (high-water)
/// u64 act_occupied             then that many (u64 bank, u64 count) ascending
/// u64 scheme_block_cap         scheme slab directory capacity (high-water)
/// u64 materialized             then per bank ascending:
///                                u64 bank, u64 nwords, nwords × u64 state
/// u64 × 5                      grouping capacities: rows, runs,
///                                segments, keys, pairs (high-water marks)
/// ```
fn encode_engine_section(e: &BankEngine, out: &mut Vec<u8>) -> io::Result<()> {
    put_str(
        out,
        &e.banks.spec().to_string(),
        MAX_SPEC_LEN,
        "spec string",
    )?;
    put_u32(out, e.banks.capacity() as u32);
    put_u32(out, e.banks.rows());
    put_u32(out, e.banks.base());
    put_position(out, e.epoch_len, e.accesses, e.epochs);

    put_u64(out, e.activations.block_capacity() as u64);
    put_u64(out, e.activations.occupied() as u64);
    for (bank, &count) in e.activations.iter() {
        put_u64(out, bank as u64);
        put_u64(out, count);
    }

    put_u64(out, e.banks.block_capacity() as u64);
    put_u64(out, e.banks.materialized() as u64);
    let mut words: Vec<u64> = Vec::new();
    for (bank, scheme) in e.banks.iter() {
        words.clear();
        scheme.save_state(&mut words).map_err(state_err)?;
        if words.len() as u64 > MAX_STATE_WORDS {
            return Err(bad(format!(
                "bank {bank} scheme state of {} words exceeds the {MAX_STATE_WORDS}-word cap",
                words.len()
            )));
        }
        put_u64(out, bank as u64);
        put_u64(out, words.len() as u64);
        for &w in &words {
            put_u64(out, w);
        }
    }

    put_grouping(out, &e.grouping);
    Ok(())
}

/// Appends a grouping's buffer capacities, in
/// [`Grouping::capacities`] order.
fn put_grouping(out: &mut Vec<u8>, grouping: &Grouping) {
    for cap in grouping.capacities() {
        put_u64(out, cap as u64);
    }
}

/// Reads a [`put_grouping`] block and reserves it on a fresh grouping:
/// the buffers are empty, so `reserve_exact` reproduces the saved
/// capacities exactly, and later fills grow them exactly as the original
/// run's would.
fn read_grouping(r: &mut ByteReader<'_>, grouping: &mut Grouping) -> io::Result<()> {
    let mut caps = [0usize; 5];
    for cap in &mut caps {
        *cap = r.bounded(MAX_SCRATCH_CAP, 0, "grouping capacity")?;
    }
    grouping.reserve_exact(caps);
    Ok(())
}

/// Reads a bank index that must be `< banks` and strictly above `prev`.
fn read_bank_index(
    r: &mut ByteReader<'_>,
    banks: usize,
    prev: Option<usize>,
    what: &str,
) -> io::Result<usize> {
    let bank = r.u64(what)?;
    if bank >= banks as u64 || prev.is_some_and(|p| bank <= p as u64) {
        return Err(bad(format!(
            "{what} {bank} out of range for {banks} banks or not above the previous {prev:?}"
        )));
    }
    Ok(bank as usize)
}

/// Restores one engine section onto a freshly built engine of the same
/// configuration. Validates config identity and every structural
/// invariant; on error the target may be partially mutated and must be
/// discarded.
fn decode_engine_section(e: &mut BankEngine, r: &mut ByteReader<'_>) -> io::Result<()> {
    if e.accesses != 0
        || e.epochs != 0
        || e.activations.occupied() != 0
        || e.banks.materialized() != 0
    {
        return Err(bad("restore target is not freshly built"));
    }
    let spec_len = r.str_len(MAX_SPEC_LEN, "spec string")?;
    let spec = r.str_body(spec_len, "spec string")?;
    let saved = (
        spec,
        r.u32("bank count")?,
        r.u32("row count")?,
        r.u32("bank base")?,
    );
    let own_spec = e.banks.spec().to_string();
    let own = (
        own_spec.as_str(),
        e.banks.capacity() as u32,
        e.banks.rows(),
        e.banks.base(),
    );
    if saved != own {
        return Err(bad(format!(
            "checkpoint (spec, banks, rows, bank base) {saved:?} does not match the engine's {own:?}"
        )));
    }
    let banks = e.banks.capacity();
    let (accesses, epochs) = read_position(r, e.epoch_len)?;

    // Activation counters: reserve the saved directory high-water mark,
    // then re-insert in ascending bank order — that reproduces the slab's
    // heap layout bit-for-bit (packed payload capacities depend only on
    // the final entry count, the directory only on the reserved cap).
    // The directory holds at most ceil(banks/64) blocks, but Vec growth
    // (doubling, minimum first allocation) can leave its capacity up to
    // 2× that — or 8 for tiny slabs — so bound forged values there.
    let cap_bound = banks.div_ceil(64).saturating_mul(2).max(8) as u64;
    let act_cap = r.bounded(cap_bound, 0, "activation block capacity")?;
    let occupied = r.bounded(banks as u64, 16, "activation entry count")?;
    e.activations.reserve_block_capacity(act_cap);
    let mut prev: Option<usize> = None;
    for _ in 0..occupied {
        let bank = read_bank_index(r, banks, prev, "activation bank")?;
        prev = Some(bank);
        let count = r.u64("activation count")?;
        if count == 0 {
            return Err(bad(format!("zero activation count for bank {bank}")));
        }
        e.activations.insert(bank, count);
    }

    // Scheme instances: same reserve-then-ascending-rebuild discipline;
    // each bank is materialized fresh from the (already validated) spec,
    // then its saved word stream is applied with full structural checks.
    let scheme_cap = r.bounded(cap_bound, 0, "scheme block capacity")?;
    let materialized = r.bounded(banks as u64, 16, "materialized bank count")?;
    e.banks.reserve_block_capacity(scheme_cap);
    let mut words: Vec<u64> = Vec::new();
    let mut prev: Option<usize> = None;
    for _ in 0..materialized {
        let bank = read_bank_index(r, banks, prev, "scheme bank")?;
        prev = Some(bank);
        r.u64s(MAX_STATE_WORDS, "scheme state", &mut words)?;
        let scheme = e
            .banks
            .scheme_mut(bank)
            .ok_or_else(|| bad("scheme state recorded for a schemeless engine"))?;
        let mut sr = StateReader::new(&words);
        scheme.restore_state(&mut sr).map_err(state_err)?;
        sr.finish().map_err(state_err)?;
    }

    read_grouping(r, &mut e.grouping)?;

    e.accesses = accesses;
    e.epochs = epochs;
    Ok(())
}

// ---------------------------------------------------------------------------
// System section
// ---------------------------------------------------------------------------

/// Appends one system's complete state: geometry + owned slice + epoch
/// clock + counters, the system-level scratch high-water marks (staging
/// buffer, then the grouping), then every engine's section in slice
/// order.
fn encode_system_section(s: &MemorySystem, out: &mut Vec<u8>) -> io::Result<()> {
    put_geometry(out, &s.geometry);
    put_u32(out, s.owned.start_bank());
    put_u32(out, s.owned.banks());
    put_position(out, s.epoch_len, s.accesses, s.epochs);
    put_u64(out, s.staged.capacity() as u64);
    put_grouping(out, &s.grouping);
    put_u32(out, s.engines.len() as u32);
    for engine in &s.engines {
        encode_engine_section(engine, out)?;
    }
    Ok(())
}

/// Restores one system section onto a freshly built system of the same
/// configuration. On error the target may be partially mutated and must
/// be discarded.
fn decode_system_section(s: &mut MemorySystem, r: &mut ByteReader<'_>) -> io::Result<()> {
    if s.accesses != 0 || s.epochs != 0 || !s.staged.is_empty() {
        return Err(bad("restore target is not freshly built"));
    }
    let saved = (r.geometry()?, r.u32("slice start")?, r.u32("slice banks")?);
    let own = (s.geometry, s.owned.start_bank(), s.owned.banks());
    if saved != own {
        return Err(bad(format!(
            "checkpoint (geometry, slice start, slice banks) {saved:?} does not match the system's {own:?}"
        )));
    }
    let (accesses, epochs) = read_position(r, s.epoch_len)?;
    let staged = r.bounded(MAX_SCRATCH_CAP, 0, "staging buffer capacity")?;
    s.staged.reserve_exact(staged);
    read_grouping(r, std::sync::Arc::make_mut(&mut s.grouping))?;
    let engines = r.u32("engine count")? as usize;
    if engines != s.engines.len() {
        return Err(bad(format!(
            "checkpoint has {engines} engines, system has {}",
            s.engines.len()
        )));
    }
    let mut engine_accesses = 0u64;
    for engine in &mut s.engines {
        decode_engine_section(engine, r)?;
        engine_accesses = engine_accesses.saturating_add(engine.accesses);
        if engine.epochs != epochs {
            return Err(bad(format!(
                "engine counted {} epochs, system counted {epochs}",
                engine.epochs
            )));
        }
    }
    if engine_accesses != accesses {
        return Err(bad(format!(
            "engines sum to {engine_accesses} accesses, system counted {accesses}"
        )));
    }
    s.accesses = accesses;
    s.epochs = epochs;
    Ok(())
}

impl BankEngine {
    /// Serializes this engine's complete state as a sealed checkpoint
    /// image (see the [module docs](self) for the format).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] if the engine is not at an epoch cut
    /// (with an epoch clock configured, `accesses` must be a multiple of
    /// the epoch length); [`io::ErrorKind::Unsupported`] if a bank holds a
    /// PRA scheme whose PRNG backend cannot capture its state.
    pub fn checkpoint(&self) -> io::Result<Vec<u8>> {
        at_cut(self.accesses, self.epoch_len)?;
        sealed_image(SCOPE_ENGINE, |out| encode_engine_section(self, out))
    }

    /// Restores a [`checkpoint`](Self::checkpoint) image onto this engine,
    /// which must be freshly built with the same spec, geometry and epoch
    /// configuration. After a successful restore the engine is bit-equal —
    /// stats, behaviour *and* [`crate::EngineFootprint`] — to the engine
    /// the image was taken from.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a corrupted or truncated image, a
    /// configuration mismatch, or a non-fresh target. On error the engine
    /// may hold partial state and must be discarded.
    pub fn restore(&mut self, image: &[u8]) -> io::Result<()> {
        let mut r = open_image(image, SCOPE_ENGINE)?;
        decode_engine_section(self, &mut r)?;
        r.finish()
    }
}

impl MemorySystem {
    /// Serializes this system's complete state as a sealed checkpoint
    /// image (see the [module docs](self) for the format).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] if accesses are still staged
    /// (call [`flush`](MemorySystem::flush) first) or the system is not at
    /// an epoch cut; [`io::ErrorKind::Unsupported`] if a bank holds a PRA
    /// scheme whose PRNG backend cannot capture its state.
    pub fn checkpoint(&self) -> io::Result<Vec<u8>> {
        if !self.staged.is_empty() {
            return Err(bad(format!(
                "{} staged accesses pending: flush() before checkpointing",
                self.staged.len()
            )));
        }
        at_cut(self.accesses, self.epoch_len)?;
        sealed_image(SCOPE_SYSTEM, |out| encode_system_section(self, out))
    }

    /// Restores a [`checkpoint`](Self::checkpoint) image onto this system,
    /// which must be freshly built with the same geometry, spec and epoch
    /// configuration. After a successful restore the system is bit-equal —
    /// stats, behaviour *and* footprint — to the system the image was
    /// taken from.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on a corrupted or truncated image, a
    /// configuration mismatch, or a non-fresh target. On error the system
    /// may hold partial state and must be discarded.
    pub fn restore(&mut self, image: &[u8]) -> io::Result<()> {
        let mut r = open_image(image, SCOPE_SYSTEM)?;
        decode_system_section(self, &mut r)?;
        r.finish()
    }
}

// ---------------------------------------------------------------------------
// On-disk recovery protocol (checkpoint directory + trace log)
// ---------------------------------------------------------------------------

/// Configuration of the `catd` checkpointing front-end: where images and
/// the trace log live, and how often a periodic checkpoint is taken.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding [`CHECKPOINT_FILE`] and [`TRACE_LOG_FILE`]
    /// (created if absent).
    pub dir: PathBuf,
    /// Take a periodic checkpoint at every epoch cut whose epoch count is
    /// a multiple of this (≥ 1). Without an epoch clock the cuts are the
    /// ones delivered in the stream.
    pub every_epochs: u64,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` at every epoch cut.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_epochs: 1,
        }
    }
}

/// What [`resume_from_dir`] reconstructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveredState {
    /// Accesses the system holds after recovery (image + replay).
    pub accesses: u64,
    /// Epoch boundaries the system has fired after recovery.
    pub epochs: u64,
    /// Whether a checkpoint image was found and restored.
    pub from_checkpoint: bool,
    /// Trace-log records replayed past the checkpoint position.
    pub replayed: u64,
}

/// Atomically publishes a checkpoint image into `dir`: write to a
/// temporary file, sync, rename over [`CHECKPOINT_FILE`]. A crash leaves
/// either the old image or the new one, never a torn file.
fn write_checkpoint_file(dir: &Path, image: &[u8]) -> io::Result<()> {
    let tmp = dir.join(CHECKPOINT_TMP);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(image)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(CHECKPOINT_FILE))
}

/// The append-only record log pairing a checkpoint image: `CATL` magic +
/// version + the global access and epoch position of the first record,
/// then raw packed records ([`pack_record`] layout) interleaved with
/// epoch-cut marker words. Batches are appended and synced *before* they
/// are processed, so after a crash the log always covers everything the
/// engine state could contain.
#[derive(Debug)]
pub(crate) struct TraceLog {
    file: fs::File,
    buf: Vec<u8>,
}

impl TraceLog {
    /// Opens `dir`'s trace log for appending, creating it (with
    /// `expected_end`/`expected_epochs` as its base) if absent. An
    /// existing log must line up: base + whole non-marker records ==
    /// `expected_end` (a torn trailing word from a crash is truncated
    /// away first; cut markers occupy a word but carry no access).
    pub(crate) fn open_for_append(
        dir: &Path,
        expected_end: u64,
        expected_epochs: u64,
    ) -> io::Result<TraceLog> {
        let path = dir.join(TRACE_LOG_FILE);
        let mut file = match fs::OpenOptions::new().read(true).write(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let mut log = TraceLog {
                    file: fs::File::create(&path)?,
                    buf: Vec::new(),
                };
                log.write_header(expected_end, expected_epochs)?;
                return Ok(log);
            }
            Err(e) => return Err(e),
        };
        let (base, base_epochs) = read_log_header(&mut file)?;
        if base_epochs > expected_epochs {
            return Err(bad(format!(
                "trace log starts at epoch {base_epochs}, after the system's epoch {expected_epochs}"
            )));
        }
        let header = LOG_HEADER_BYTES as u64;
        let len = file.metadata()?.len();
        // Drop a torn trailing word from a crash mid-append.
        let whole = header + (len - header) / 8 * 8;
        if whole != len {
            file.set_len(whole)?;
        }
        // Cut markers occupy words but carry no access, so the position
        // arithmetic counts only record words.
        file.seek(SeekFrom::Start(header))?;
        let mut records = 0u64;
        {
            let mut r = io::BufReader::new(&file);
            while let Some(word) = read_log_record(&mut r)? {
                if word != CUT_MARKER {
                    records += 1;
                }
            }
        }
        if base.saturating_add(records) != expected_end {
            return Err(bad(format!(
                "trace log covers accesses {base}..{}, system is at {expected_end}",
                base.saturating_add(records)
            )));
        }
        file.seek(SeekFrom::End(0))?;
        Ok(TraceLog {
            file,
            buf: Vec::new(),
        })
    }

    fn write_header(&mut self, base: u64, base_epochs: u64) -> io::Result<()> {
        self.buf.clear();
        put_header(&mut self.buf, LOG_MAGIC, LOG_VERSION);
        put_u64(&mut self.buf, base);
        put_u64(&mut self.buf, base_epochs);
        self.file.write_all(&self.buf)?;
        self.file.sync_data()
    }

    /// Appends one merged batch and syncs it to disk — called *before*
    /// the batch is processed, so the log never trails the engine state.
    pub(crate) fn append(&mut self, batch: &[(u32, u32)]) -> io::Result<()> {
        self.buf.clear();
        self.buf.reserve(batch.len() * 8);
        for &(bank, row) in batch {
            put_u64(&mut self.buf, pack_record(bank, row));
        }
        self.file.write_all(&self.buf)?;
        self.file.sync_data()
    }

    /// Appends one epoch-cut marker and syncs it — called *before* the
    /// cut is applied, mirroring [`append`](Self::append)'s write-ahead
    /// discipline, so replay fires the boundary at the same position.
    pub(crate) fn append_cut(&mut self) -> io::Result<()> {
        self.file.write_all(&CUT_MARKER.to_le_bytes())?;
        self.file.sync_data()
    }

    /// Rotates the log after a checkpoint was published: truncate and
    /// restart at `base`/`base_epochs` (the checkpoint's position). Runs
    /// *after* the image rename, so a crash between the two leaves a log
    /// that starts before the image — recovery skips the overlap.
    pub(crate) fn reset(&mut self, base: u64, base_epochs: u64) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.write_header(base, base_epochs)
    }
}

/// Reads and checks a trace-log header, returning its base access and
/// epoch counts. A short or foreign header is
/// [`io::ErrorKind::InvalidData`].
fn read_log_header(r: &mut impl Read) -> io::Result<(u64, u64)> {
    let header: [u8; LOG_HEADER_BYTES] =
        read_array(r).map_err(|e| bad(format!("trace log header: {e}")))?;
    let mut h = ByteReader::new(&header);
    h.header(LOG_MAGIC, LOG_VERSION, "trace log")?;
    Ok((h.u64("base access count")?, h.u64("base epoch count")?))
}

/// Reads one packed record; `Ok(None)` at a clean end **or** a torn
/// trailing record (a crash mid-append truncates to whole records).
fn read_log_record(r: &mut impl Read) -> io::Result<Option<u64>> {
    match read_array(r) {
        Ok(word) => Ok(Some(u64::from_le_bytes(word))),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e),
    }
}

/// Replays the trace log tail past the system's current position; returns
/// the number of records replayed (0 if no log exists).
fn replay_log(system: &mut MemorySystem, path: &Path) -> io::Result<u64> {
    let file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut r = io::BufReader::new(file);
    let (base, base_epochs) = read_log_header(&mut r)?;
    if base > system.accesses() {
        return Err(bad(format!(
            "trace log starts at access {base}, after the checkpoint position {}",
            system.accesses()
        )));
    }
    if base_epochs > system.epochs() {
        return Err(bad(format!(
            "trace log starts at epoch {base_epochs}, after the checkpoint epoch {}",
            system.epochs()
        )));
    }
    // Records (and cut markers) below the checkpoint position are already
    // inside the image (the log is appended before processing and rotated
    // after the image rename, so an overlap — never a gap — is the crash
    // window).
    let mut skip = system.accesses() - base;
    let mut skip_cuts = system.epochs() - base_epochs;
    let owned = *system.slice();
    let rows = system.geometry().rows_per_bank;
    let mut chunk: Vec<(u32, u32)> = Vec::with_capacity(REPLAY_CHUNK);
    let mut replayed = 0u64;
    while let Some(packed) = read_log_record(&mut r)? {
        if packed == CUT_MARKER {
            if skip_cuts > 0 {
                skip_cuts -= 1;
                continue;
            }
            if system.epoch_length().is_some() {
                return Err(bad(
                    "cut marker in the trace log of a system with its own epoch clock",
                ));
            }
            if !chunk.is_empty() {
                system.process(&chunk);
                chunk.clear();
            }
            system.end_epoch();
            continue;
        }
        if skip > 0 {
            skip -= 1;
            continue;
        }
        let (bank, row) = unpack_record(packed);
        if !owned.contains(bank) || row >= rows {
            return Err(bad(format!(
                "trace log record (bank {bank}, row {row}) out of range for a \
                 system owning {owned} with {rows}-row banks"
            )));
        }
        chunk.push((bank, row));
        replayed += 1;
        if chunk.len() == REPLAY_CHUNK {
            system.process(&chunk);
            chunk.clear();
        }
    }
    if skip > 0 {
        return Err(bad(format!(
            "trace log ends {skip} records before the checkpoint position"
        )));
    }
    if !chunk.is_empty() {
        system.process(&chunk);
    }
    Ok(replayed)
}

/// Recovers a `catd` session from a checkpoint directory: restores the
/// newest image (if any) into `system` — which must be freshly built with
/// the session's configuration — then replays the trace-log tail past the
/// image's position. An empty or absent directory recovers nothing and
/// returns a zeroed [`RecoveredState`]; the session then starts fresh.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on a corrupted image or log, a
/// configuration mismatch, or a log that does not cover the image's
/// position. On error `system` may hold partial state and must be
/// discarded.
pub fn resume_from_dir(system: &mut MemorySystem, dir: &Path) -> io::Result<RecoveredState> {
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let mut from_checkpoint = false;
    match fs::metadata(&ckpt_path) {
        Ok(meta) => {
            let len = meta.len();
            if len > MAX_CHECKPOINT_BYTES {
                return Err(bad(format!(
                    "{len}-byte checkpoint file exceeds the {MAX_CHECKPOINT_BYTES}-byte cap"
                )));
            }
            let image = fs::read(&ckpt_path)?;
            system.restore(&image)?;
            from_checkpoint = true;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let replayed = replay_log(system, &dir.join(TRACE_LOG_FILE))?;
    Ok(RecoveredState {
        accesses: system.accesses(),
        epochs: system.epochs(),
        from_checkpoint,
        replayed,
    })
}

/// The checkpointing drain loop behind [`crate::ingest::serve`]: every
/// merged batch is logged (and synced) before it is processed, batches
/// are split at epoch cuts, stream-delivered cuts (a router's epoch
/// clock driving a clockless backend) are persisted as log markers and
/// applied, and at each cut a checkpoint is published when one is due
/// ([`CheckpointConfig::every_epochs`]). If the stream ends on a cut a
/// final checkpoint is taken; otherwise the log tail carries the
/// remainder for [`resume_from_dir`].
pub(crate) fn drain_with_checkpoints(
    system: &mut MemorySystem,
    consumer: &mut IngestConsumer,
    cfg: &CheckpointConfig,
) -> io::Result<BatchOutcome> {
    if cfg.every_epochs == 0 {
        return Err(bad("checkpoint interval of zero epochs"));
    }
    fs::create_dir_all(&cfg.dir)?;
    let mut log = TraceLog::open_for_append(&cfg.dir, system.accesses(), system.epochs())?;
    let owned = *system.slice();
    let mut out = BatchOutcome::default();
    let mut batch: Vec<(u32, u32)> = Vec::new();
    let mut last_checkpoint: Option<(u64, u64)> = None;
    loop {
        batch.clear();
        match consumer.next_event_into(&mut batch) {
            None => break,
            Some(IngestEvent::EpochCut) => {
                if system.epoch_length().is_some() {
                    return Err(bad(
                        "stream epoch cut for a system with its own epoch clock",
                    ));
                }
                log.append_cut()?;
                system.end_epoch();
                out.epochs += 1;
                let position = (system.accesses(), system.epochs());
                if system.epochs().is_multiple_of(cfg.every_epochs)
                    && last_checkpoint != Some(position)
                {
                    publish_checkpoint(system, cfg, &mut log)?;
                    last_checkpoint = Some(position);
                }
            }
            Some(IngestEvent::Records(_)) => {
                if let Some(&(bank, _)) = batch.iter().find(|&&(bank, _)| !owned.contains(bank)) {
                    return Err(bad(format!(
                        "global bank {bank} out of range for a system owning {owned}"
                    )));
                }
                log.append(&batch)?;
                let mut start = 0usize;
                while start < batch.len() {
                    let stop = match system.epoch_length() {
                        None => batch.len(),
                        Some(n) => {
                            let to_cut = n - (system.accesses() % n);
                            start + to_cut.min((batch.len() - start) as u64) as usize
                        }
                    };
                    out.merge(&system.process(&batch[start..stop]));
                    start = stop;
                    // Only the system's own clock cuts a records batch.
                    let due = system
                        .epoch_length()
                        .is_some_and(|n| system.accesses().is_multiple_of(n))
                        && system.epochs() > 0
                        && system.epochs().is_multiple_of(cfg.every_epochs);
                    let position = (system.accesses(), system.epochs());
                    if due && last_checkpoint != Some(position) {
                        publish_checkpoint(system, cfg, &mut log)?;
                        // The rotation truncated the log at the cut, which
                        // also dropped this batch's still-unprocessed tail —
                        // re-append it so the write-ahead invariant (the log
                        // covers every record past the image) holds before
                        // processing resumes. A crash inside this small
                        // window recovers consistently at the cut; the
                        // in-flight tail is lost with the process, like any
                        // record still in a socket buffer at kill time.
                        if start < batch.len() {
                            log.append(&batch[start..])?;
                        }
                        last_checkpoint = Some(position);
                    }
                }
            }
        }
    }
    if aligned(system.accesses(), system.epoch_length())
        && last_checkpoint != Some((system.accesses(), system.epochs()))
    {
        publish_checkpoint(system, cfg, &mut log)?;
    }
    Ok(out)
}

/// Publishes one checkpoint: image → tmp file → sync → rename, then log
/// rotation. Order matters — see [`TraceLog::reset`].
fn publish_checkpoint(
    system: &MemorySystem,
    cfg: &CheckpointConfig,
    log: &mut TraceLog,
) -> io::Result<()> {
    let image = system.checkpoint()?;
    write_checkpoint_file(&cfg.dir, &image)?;
    log.reset(system.accesses(), system.epochs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemGeometry;
    use cat_core::SchemeSpec;

    fn geometry() -> MemGeometry {
        MemGeometry {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            rows_per_bank: 4096,
            lines_per_row: 16,
            line_bytes: 64,
        }
    }

    fn spec() -> SchemeSpec {
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        }
    }

    fn trace(n: u64) -> Vec<(u32, u32)> {
        (0..n)
            .map(|i| {
                let bank = (i % 16) as u32;
                let row = if i % 3 == 0 {
                    77
                } else {
                    (i.wrapping_mul(2_654_435_761) % 4096) as u32
                };
                (bank, row)
            })
            .collect()
    }

    fn fresh() -> MemorySystem {
        MemorySystem::new(geometry(), spec()).with_epoch_length(1000)
    }

    #[test]
    fn system_round_trip_is_bit_exact() {
        let trace = trace(7000);
        let mut original = fresh();
        original.process(&trace[..4000]);
        let image = original.checkpoint().unwrap();

        let mut restored = fresh();
        restored.restore(&image).unwrap();
        assert_eq!(restored.accesses(), original.accesses());
        assert_eq!(restored.epochs(), original.epochs());
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.footprint(), original.footprint());

        original.process(&trace[4000..]);
        restored.process(&trace[4000..]);
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.footprint(), original.footprint());
    }

    #[test]
    fn engine_round_trip_is_bit_exact() {
        let trace = trace(6000);
        let mut original = BankEngine::new(spec(), 16, 4096).with_epoch_length(1000);
        original.process(&trace[..3000]);
        let image = original.checkpoint().unwrap();

        let mut restored = BankEngine::new(spec(), 16, 4096).with_epoch_length(1000);
        restored.restore(&image).unwrap();
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.footprint(), original.footprint());

        original.process(&trace[3000..]);
        restored.process(&trace[3000..]);
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.footprint(), original.footprint());
    }

    #[test]
    fn checkpoint_refuses_misaligned_positions() {
        let trace = trace(1500);
        let mut system = fresh();
        system.process(&trace);
        let err = system.checkpoint().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("epoch cut"));

        let mut staged = fresh();
        staged.push_decoded(3, 7);
        let err = staged.checkpoint().unwrap_err();
        assert!(err.to_string().contains("staged"));
    }

    #[test]
    fn restore_refuses_mismatched_targets() {
        let trace = trace(2000);
        let mut original = fresh();
        original.process(&trace);
        let image = original.checkpoint().unwrap();

        // Non-fresh target.
        let mut used = fresh();
        used.process(&trace[..1000]);
        assert!(used
            .restore(&image)
            .unwrap_err()
            .to_string()
            .contains("fresh"));

        // Wrong spec.
        let mut other = MemorySystem::new(
            geometry(),
            SchemeSpec::Sca {
                counters: 64,
                threshold: 512,
            },
        )
        .with_epoch_length(1000);
        assert!(other
            .restore(&image)
            .unwrap_err()
            .to_string()
            .contains("spec"));

        // Wrong epoch clock.
        let mut clockless = MemorySystem::new(geometry(), spec());
        let err = clockless.restore(&image).unwrap_err();
        assert!(err.to_string().contains("epoch length"));

        // Wrong scope.
        let mut engine = BankEngine::new(spec(), 16, 4096).with_epoch_length(1000);
        let err = engine.restore(&image).unwrap_err();
        assert!(err.to_string().contains("MemorySystem"));
    }

    #[test]
    fn images_of_other_versions_are_refused() {
        // A version-4 image carried each tree as roots and inodes, a
        // version-3 one four counting-sort scratch capacities per engine
        // and none for the system grouping, and a version-2 one a system
        // act_scratch capacity: a version-5 reader would misparse any of
        // them. The header check refuses them with a typed error before
        // any field is read, even under a valid seal.
        let mut original = fresh();
        original.process(&trace(2000));
        let image = original.checkpoint().unwrap();
        assert_eq!(&image[4..6], &CHECKPOINT_VERSION.to_le_bytes());
        for version in [2u16, 3, 4] {
            let mut image = image.clone();
            image[4..6].copy_from_slice(&version.to_le_bytes());
            let body_len = image.len() - 8;
            let h = fnv1a(&image[..body_len]).to_le_bytes();
            image[body_len..].copy_from_slice(&h);
            let err = fresh().restore(&image).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains(&format!("checkpoint version {version}, this build reads 5")),
                "{err}"
            );
        }
    }

    /// Deterministic LCG for the corruption sweeps (no external RNG and no
    /// wall-clock seeding in tests either).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0
        }
    }

    #[test]
    fn truncated_images_never_restore() {
        let mut original = fresh();
        original.process(&trace(3000));
        let image = original.checkpoint().unwrap();
        // Every truncation length (stride keeps the sweep fast; 0..40 cover
        // the header byte-by-byte).
        let mut lengths: Vec<usize> = (0..40.min(image.len())).collect();
        lengths.extend((40..image.len()).step_by(41));
        for len in lengths {
            let mut target = fresh();
            let err = target.restore(&image[..len]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "length {len}");
        }
    }

    #[test]
    fn bit_flips_never_restore_and_resealed_flips_never_panic() {
        let mut original = fresh();
        original.process(&trace(3000));
        let image = original.checkpoint().unwrap();
        let mut rng = Lcg(0x5eed);
        for _ in 0..200 {
            let pos = (rng.next() as usize) % image.len();
            let bit = (rng.next() % 8) as u8;
            let mut corrupt = image.clone();
            corrupt[pos] ^= 1 << bit;

            // Without recomputing the seal, the integrity hash catches it.
            let mut target = fresh();
            let err = target.restore(&corrupt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);

            // With the seal recomputed the structural validation must
            // still yield a typed error or a semantically-validated
            // restore — never a panic or a runaway allocation.
            if pos < corrupt.len() - 8 {
                let body_len = corrupt.len() - 8;
                let h = fnv1a(&corrupt[..body_len]).to_le_bytes();
                corrupt[body_len..].copy_from_slice(&h);
                let mut target = fresh();
                let _ = target.restore(&corrupt);
            }
        }
    }

    #[test]
    fn forged_fields_never_panic_or_overallocate() {
        let mut original = fresh();
        original.process(&trace(2000));
        let image = original.checkpoint().unwrap();
        // Forge every byte offset in the body to a u64::MAX field and
        // reseal. Count and capacity fields must be refused by a bounds
        // check (count vs remaining bytes, hard caps) before anything is
        // allocated; payload words (counter values) may legally restore —
        // either way, never a panic and never a runaway allocation.
        let body_len = image.len() - 8;
        for off in 0..body_len.saturating_sub(8) {
            let mut corrupt = image.clone();
            corrupt[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let h = fnv1a(&corrupt[..body_len]).to_le_bytes();
            corrupt[body_len..].copy_from_slice(&h);
            let mut target = fresh();
            let _ = target.restore(&corrupt);
        }
    }

    #[test]
    fn forged_entry_counts_are_refused() {
        let mut original = fresh();
        original.process(&trace(2000));
        let image = original.checkpoint().unwrap();
        let body_len = image.len() - 8;
        // Walk a reader to the first channel's structural count fields so
        // the forged offsets stay correct if the layout ever shifts.
        let mut r = ByteReader::new(&image[..body_len]);
        read_header(&mut r, SCOPE_SYSTEM).unwrap();
        let sys_fixed = 6 * 4 + 8 + 9 + 8 + 8 + 8 + 5 * 8 + 4; // geometry..engine count
        r.take(sys_fixed, "system fields").unwrap();
        let spec_len = usize::from(r.u16("spec length").unwrap());
        let eng_fixed = spec_len + 12 + 9 + 16; // spec..epoch count
        r.take(eng_fixed, "engine fields").unwrap();
        let act_cap_off = body_len - r.remaining();
        let act_count_off = act_cap_off + 8;
        for off in [act_cap_off, act_count_off] {
            let mut corrupt = image.clone();
            corrupt[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let h = fnv1a(&corrupt[..body_len]).to_le_bytes();
            corrupt[body_len..].copy_from_slice(&h);
            let mut target = fresh();
            let err = target.restore(&corrupt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "offset {off}");
        }
    }

    #[test]
    fn forged_tree_tables_are_refused() {
        // Hammer row 77 of bank 0 until its first root is carved up, then,
        // in the next epoch, the last row until the last root splits, so
        // the leaf table ends in two sibling leaves below the roots. Bank 1 pads that epoch to its cut.
        let hammered = |last: usize| {
            let mut system = fresh();
            system.process(&vec![(0, 77); 4000]);
            let mut epoch = vec![(15, 0); 1000];
            epoch[..last].fill((0, 4095));
            system.process(&epoch);
            system
        };
        let splits = hammered(0).stats().splits;
        let original = (1..1000)
            .map(hammered)
            .find(|system| system.stats().splits > splits)
            .unwrap();
        let image = original.checkpoint().unwrap();
        let body_len = image.len() - 8;
        let mut r = ByteReader::new(&image[..body_len]);
        read_header(&mut r, SCOPE_SYSTEM).unwrap();
        let sys_fixed = 6 * 4 + 8 + 9 + 8 + 8 + 8 + 5 * 8 + 4; // geometry..engine count
        r.take(sys_fixed, "system fields").unwrap();
        let spec_len = usize::from(r.u16("spec length").unwrap());
        r.take(spec_len + 12 + 9 + 16 + 8, "engine fields").unwrap();
        assert_eq!(r.u64("activation entries").unwrap(), 1);
        r.take(16 + 8, "activation entry, scheme capacity").unwrap();
        assert_eq!(r.u64("materialized").unwrap(), 1);
        assert_eq!(r.u64("bank").unwrap(), 0);
        r.u64("state words").unwrap();
        // Scheme words: the scheme kind, then the tree's stats, growth
        // latch, counter count, counters (depth in bits 40..48, active flag
        // bit 48), leaf count and leaf ids.
        r.take(
            8 * (1 + cat_core::SchemeStats::FIELDS.len() + 1),
            "kind, stats, latch",
        )
        .unwrap();
        let m = r.u64("counter count").unwrap() as usize;
        let counters_at = body_len - r.remaining();
        r.take(8 * m, "counters").unwrap();
        let n = r.u64("leaf count").unwrap() as usize;
        let ids_at = body_len - r.remaining();
        let ids: Vec<u64> = (0..n).map(|_| r.u64("leaf id").unwrap()).collect();
        let counter_at = |c: u64| counters_at + 8 * c as usize;
        let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
        let depths: Vec<u64> = ids
            .iter()
            .map(|&c| word(counter_at(c)) >> 40 & 0xff)
            .collect();
        // Root 0 (depth 5 of L = 11) split down to row 77's one-cell leaf,
        // 30 untouched roots, and the last root's split.
        assert_eq!(depths[..6], [6, 9, 10, 10, 8, 7]);
        assert!(depths[6..n - 2].iter().all(|&d| d == 5));
        assert_eq!(depths[n - 2..], [6, 6]);
        let inactive = (0..m as u64).find(|c| !ids.contains(c)).unwrap();

        let one_level = 1u64 << 40;
        let forgeries = [
            (
                "a gap",
                vec![(
                    counter_at(ids[n - 1]),
                    word(counter_at(ids[n - 1])) + one_level,
                )],
                "tree leaves leave a gap",
            ),
            (
                "an overlap",
                vec![(
                    counter_at(ids[n - 2]),
                    word(counter_at(ids[n - 2])) - one_level,
                )],
                "tree leaves overrun the bank",
            ),
            (
                "a misaligned start",
                vec![(ids_at, ids[1]), (ids_at + 8, ids[0])],
                "tree leaf start misaligned to its depth",
            ),
            (
                "a start that disagrees with the counter's depth",
                vec![(counter_at(ids[6]), word(counter_at(ids[6])) + one_level)],
                "tree leaf start misaligned to its depth",
            ),
            (
                "a duplicate id",
                vec![(ids_at + 8, ids[0])],
                "tree leaf id listed twice",
            ),
            (
                "an inactive id",
                vec![(ids_at + 8, inactive)],
                "tree leaf id inactive",
            ),
            (
                "an id count other than the active count",
                vec![(counter_at(inactive), word(counter_at(inactive)) | 1 << 48)],
                "tree leaf count vs active flags",
            ),
        ];
        for (forgery, edits, why) in forgeries {
            let mut corrupt = image.clone();
            for (at, value) in edits {
                corrupt[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            let h = fnv1a(&corrupt[..body_len]).to_le_bytes();
            corrupt[body_len..].copy_from_slice(&h);
            let err = fresh().restore(&corrupt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{forgery}");
            assert!(err.to_string().contains(why), "{forgery}: {err}");
        }
        // The untouched image still restores.
        fresh().restore(&image).unwrap();
    }

    #[test]
    fn open_for_append_refuses_a_log_starting_past_the_epoch() {
        // A header whose base access count lines up but whose base epoch
        // count is past the system's: replay would refuse this log, so
        // appending a session to it must fail up front.
        let dir = temp_dir("forged-epochs");
        let mut header = Vec::new();
        put_header(&mut header, LOG_MAGIC, LOG_VERSION);
        put_u64(&mut header, 1000);
        put_u64(&mut header, 99);
        fs::write(dir.join(TRACE_LOG_FILE), &header).unwrap();
        let err = TraceLog::open_for_append(&dir, 1000, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("epoch 99"), "{err}");
        // The same header at the system's epoch opens.
        TraceLog::open_for_append(&dir, 1000, 99).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("catree-checkpoint-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trace_log_round_trips_with_rotation_and_torn_tail() {
        let dir = temp_dir("log");
        let trace = trace(5000);

        let mut log = TraceLog::open_for_append(&dir, 0, 0).unwrap();
        log.append(&trace[..2000]).unwrap();
        log.reset(1000, 1).unwrap(); // as if a checkpoint landed at access 1000
        log.append(&trace[1000..3000]).unwrap();
        drop(log);

        // Tear the final record, as a crash mid-append would.
        let path = dir.join(TRACE_LOG_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let torn = fs::OpenOptions::new().write(true).open(&path).unwrap();
        torn.set_len(len - 3).unwrap();
        drop(torn);

        // Replay from a fresh system standing at access 1000 worth of
        // state — here zero state, so feed the first 1000 by hand.
        let mut reference = fresh();
        reference.process(&trace[..2999]); // torn tail dropped the 3000th
        let mut resumed = fresh();
        resumed.process(&trace[..1000]);
        let replayed = replay_log(&mut resumed, &path).unwrap();
        assert_eq!(replayed, 1999);
        assert_eq!(resumed.accesses(), 2999);
        assert_eq!(resumed.stats(), reference.stats());

        // Reopening for append after the torn tail truncates and lines up.
        let log = TraceLog::open_for_append(&dir, 2999, 2).unwrap();
        drop(log);
        let err = TraceLog::open_for_append(&dir, 1234, 1).unwrap_err();
        assert!(err.to_string().contains("covers"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_dir_recovers_image_plus_log_tail() {
        let dir = temp_dir("resume");
        let trace = trace(5500);

        // A "session" that checkpoints at access 3000 and logs to 5500,
        // then crashes (we just stop).
        let mut session = fresh();
        session.process(&trace[..3000]);
        write_checkpoint_file(&dir, &session.checkpoint().unwrap()).unwrap();
        let mut log = TraceLog::open_for_append(&dir, 3000, 3).unwrap();
        log.append(&trace[3000..5500]).unwrap();
        drop(log);
        session.process(&trace[3000..5500]);

        let mut resumed = fresh();
        let state = resume_from_dir(&mut resumed, &dir).unwrap();
        assert!(state.from_checkpoint);
        assert_eq!(state.replayed, 2500);
        assert_eq!(state.accesses, 5500);
        assert_eq!(resumed.stats(), session.stats());

        // An empty directory recovers nothing.
        let empty = temp_dir("resume-empty");
        let mut blank = fresh();
        let state = resume_from_dir(&mut blank, &empty).unwrap();
        assert_eq!(
            state,
            RecoveredState {
                accesses: 0,
                epochs: 0,
                from_checkpoint: false,
                replayed: 0
            }
        );
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&empty).unwrap();
    }
}
