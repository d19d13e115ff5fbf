//! Persistent, crash-safe, content-addressed entry store.
//!
//! A [`DiskCache`] holds one file per controller shape under a cache
//! directory, named by the shape's [`CacheKey::digest`] hex (sixteen
//! lowercase hex digits), plus one merge log. Every file is framed by the
//! codec (see `codec.rs`): a header, `magic | FORMAT_VERSION u64`, then
//! checksummed records, `len u64 | fnv64(payload) u64 | payload`, all
//! little-endian. A shape entry (format v4) is:
//!
//! ```text
//! +------------+-----------------+----------+-------------+----------------------------+
//! | magic      | FORMAT_VERSION  | run_id   | produced_ns | record: len | fnv64 |      |
//! | "BMBECACH" | u64             | u64      | u64         | codec::encode_entry payload |
//! +------------+-----------------+----------+-------------+----------------------------+
//! ```
//!
//! with the payload the deterministic binary encoding of the full
//! [`CacheKey`] plus the [`SynthArtifact`]. Storing the *full* key in the
//! payload — not just the 64-bit digest that names the file — lets a load
//! verify that the entry really is the shape it asked for, so a digest
//! collision degrades to a miss instead of serving a wrong artifact.
//!
//! `run_id`/`produced_ns` are producer **provenance**: the
//! [`bmbe_obs::run_id`] of the process that synthesized the entry and the
//! wall-clock instant it was written. They sit outside the record, so the
//! payload bytes stay a pure function of the `(key, artifact)` pair — the
//! bit-identical determinism tests compare payloads across cold/warm/disk
//! paths. A warm fleet process emits the producer's run id on every hit
//! (the `cache.disk.producer_run` trace event), correlating its trace with
//! the cold producer's.
//!
//! One [`FORMAT_VERSION`](super::codec::FORMAT_VERSION) covers every file kind. Bump it whenever a
//! file's layout changes, or whenever the bytes stored for the same key
//! could change; a file of any other version is evicted.
//!
//! Durability rules:
//!
//! - **Writes are atomic.** A file is written to a process-unique `.tmp`
//!   file in the cache directory and `rename(2)`d into place, so a
//!   concurrent reader (or a second writer racing the same digest) sees
//!   either no entry or a complete one — never a torn write. Two racing
//!   writers both succeed; last rename wins, and both wrote identical
//!   bytes anyway because the codec is deterministic.
//! - **Bad entries are evicted, not served.** A wrong magic, another
//!   format version, a short file, a checksum mismatch, a payload that
//!   fails to decode, or a key mismatch all cause the entry file to be
//!   deleted and the load to report a miss; the shape is simply
//!   re-synthesized and re-stored. This mirrors the in-memory cache's
//!   poison-recovery policy: never serve state of unknown integrity.
//! - **I/O failures degrade.** A failed read is a miss, a failed write
//!   leaves the cache without the entry — synthesis results are never
//!   lost, only the warm-start is. The `cache_io` fault phase
//!   (`BMBE_FAULT=cache_io:<n>[:err]`, where `<n>` counts disk operations
//!   on the handle) injects exactly these failures for the tests.
//!
//! # The merge log
//!
//! Next to the shape entries the directory holds one append-only file,
//! [`MERGE_LOG`] (`merges.log`), that keeps clustering's merge memo
//! ([`bmbe_core::MergeMemo`]): the BM state count of every merged program
//! a flow over this directory compiled, keyed by its canonical text. It
//! is the header (magic `BMBEMRGS`) followed by one record per merge,
//! each payload [`super::codec::encode_merge`]'s `states u64 | text`. A
//! record holds its full key, so no digest collision can serve a wrong
//! count. The shape entries' durability rules carry over:
//!
//! - **Creation is atomic; appends are not synced.** The header is
//!   published through a temp file that is hard-linked into place (the
//!   link fails harmlessly when another writer published the log first),
//!   so no reader sees a log without its header. Each flow appends its
//!   records with one `write_all` on an `O_APPEND` handle and no fsync: a
//!   lost or torn tail costs recompiles, never a wrong count.
//! - **A bad log keeps its valid prefix.** A wrong magic, another
//!   version, a short record, a checksum mismatch, non-UTF-8 text or a
//!   zero state count is an incident, counted and dumped like an evicted
//!   entry; the records before the fault are served and republished
//!   (temp file plus rename) as the whole log, so later processes load
//!   them too.
//! - **The log holds each text once.** A process whose log read failed
//!   appends merges the log already holds, and two processes that start
//!   together append the same merges. A cache that opens over a log
//!   holding a text more than once rewrites it with each text once
//!   ([`DiskCache::rewrite_merges`]), so the log stops growing. An append
//!   racing a rewrite can land in the replaced file and be lost, which
//!   costs recompiles only.
//! - **I/O failures degrade** to a memo that starts empty, or to records
//!   left unpersisted. The log's read and each append are one `cache_io`
//!   operation each; a rewrite belongs to the read.

use super::codec::{
    decode_entry, decode_merge, encode_entry, encode_merge, CodecError, Reader, Writer,
};
use super::{CacheKey, SynthArtifact};
use crate::fault::{FaultKind, FaultPhase, FaultPlan};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// First eight bytes of every shape entry file.
pub const MAGIC: [u8; 8] = *b"BMBECACH";

/// Environment variable naming the cache directory the report binaries
/// (and [`super::ControllerCache::from_env`]) open.
pub const CACHE_DIR_ENV: &str = "BMBE_CACHE_DIR";

/// File name of the merge log in the cache directory. It is not a 16-hex
/// name, so [`DiskCache::len`] counts shape entries only.
pub const MERGE_LOG: &str = "merges.log";

/// First eight bytes of the merge log.
pub const MERGE_LOG_MAGIC: [u8; 8] = *b"BMBEMRGS";

/// Why a load did not return an artifact — used by the durability tests
/// to distinguish a clean miss from an evicted corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskMiss {
    /// No entry file for the digest.
    Absent,
    /// The entry existed but failed validation and was evicted.
    Evicted,
    /// Reading the entry failed at the I/O layer (entry left in place).
    ReadError,
}

/// A persistent entry store under one cache directory. Cheap to open;
/// every operation re-touches the filesystem, so two processes sharing a
/// directory see each other's completed writes immediately.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    fault: Option<FaultPlan>,
    ops: AtomicUsize,
}

/// Process-wide temp-file sequence: two handles over the same directory in
/// one process (two batch fleets, a test's writer race) must never pick
/// the same temp name — the pid in the name only separates *processes*.
static TMP_SEQ: AtomicUsize = AtomicUsize::new(0);

impl DiskCache {
    /// Opens (creating if needed) a cache directory. Picks up a `cache_io`
    /// [`FaultPlan`] from `BMBE_FAULT` so the report binaries inject disk
    /// faults with the same grammar as every other phase.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<DiskCache> {
        Self::with_fault(dir, FaultPlan::from_env())
    }

    /// [`DiskCache::open`] with an explicit fault plan (tests). Plans for
    /// phases other than `cache_io` are ignored.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be created.
    pub fn with_fault(dir: impl Into<PathBuf>, fault: Option<FaultPlan>) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let cache = DiskCache {
            dir,
            fault: fault.filter(|plan| plan.phase == FaultPhase::CacheIo),
            ops: AtomicUsize::new(0),
        };
        // Report the size already on disk, not just after writes: a traced
        // warm process that never stores anything still shows the true
        // cache size.
        bmbe_obs::event!("cache.disk.dir_bytes", cache.dir_bytes());
        Ok(cache)
    }

    /// Opens the directory named by `BMBE_CACHE_DIR`, if set and non-empty.
    /// An unusable directory is reported and ignored (a broken cache must
    /// never break the synthesis it accelerates).
    pub fn from_env() -> Option<DiskCache> {
        let dir = std::env::var(CACHE_DIR_ENV).ok()?;
        let dir = dir.trim();
        if dir.is_empty() {
            return None;
        }
        match DiskCache::open(dir) {
            Ok(cache) => Some(cache),
            Err(e) => {
                bmbe_obs::vlog!(0, "bmbe-flow: ignoring {CACHE_DIR_ENV}={dir}: {e}");
                None
            }
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file path for a key.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{:016x}", key.digest()))
    }

    /// The merge log's path.
    pub fn merge_log_path(&self) -> PathBuf {
        self.dir.join(MERGE_LOG)
    }

    /// Counts one disk operation and fires the armed `cache_io` fault if
    /// this is the targeted one. Reads and writes share the counter.
    fn io_op(&self) -> io::Result<()> {
        let index = self.ops.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = &self.fault {
            if plan.targets_job(index) {
                match plan.kind {
                    FaultKind::Panic => {
                        panic!("injected fault: panic at phase cache_io of op {index}")
                    }
                    FaultKind::Error => {
                        return Err(io::Error::other(format!(
                            "injected fault at cache_io op {index}"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Loads the entry for `key`, or explains the miss. Corrupt entries
    /// (bad magic/version/length/checksum, undecodable payload, key
    /// mismatch) are deleted; I/O errors leave the file alone.
    pub fn load(&self, key: &CacheKey) -> Result<Arc<SynthArtifact>, DiskMiss> {
        let path = self.entry_path(key);
        let bytes = match self.read_entry(&path) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => {
                bmbe_obs::trace_counter!("cache.disk.misses", 1);
                return Err(DiskMiss::Absent);
            }
            Err(e) => {
                bmbe_obs::trace_counter!("cache.disk.read_errors", 1);
                bmbe_obs::vlog!(
                    1,
                    "bmbe-flow: disk cache read failed ({}): {e}",
                    path.display()
                );
                return Err(DiskMiss::ReadError);
            }
        };
        match read_shape(&bytes) {
            Ok((run, (stored_key, artifact))) if stored_key == *key => {
                bmbe_obs::trace_counter!("cache.disk.hits", 1);
                bmbe_obs::trace_counter!("cache.disk.bytes_read", bytes.len() as u64);
                // Correlate this hit with the run that produced the entry
                // (the cold fleet process, usually a different trace).
                bmbe_obs::event!("cache.disk.producer_run", run as i64);
                Ok(Arc::new(artifact))
            }
            Ok(_) => {
                self.evict(&path, "digest collision: stored key differs");
                Err(DiskMiss::Evicted)
            }
            Err(e) => {
                self.evict(&path, &e.to_string());
                Err(DiskMiss::Evicted)
            }
        }
    }

    fn read_entry(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.io_op()?;
        let mut file = match fs::File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(Some(bytes))
    }

    fn evict(&self, path: &Path, why: &str) {
        // Best-effort delete: the entry is bad whether or not the unlink
        // succeeds, and a racing writer may already have replaced it.
        let _ = fs::remove_file(path);
        incident(path, why);
    }

    /// Reads the merge log once and returns its `(canonical text, states)`
    /// records in append order; no log is an empty list. A log that fails
    /// validation anywhere is an incident: the records before the fault
    /// are returned and republished as the whole log.
    ///
    /// # Errors
    ///
    /// Any I/O failure reading the log (including an injected `cache_io`
    /// fault); the log is left in place.
    pub fn load_merges(&self) -> io::Result<Vec<(String, usize)>> {
        let path = self.merge_log_path();
        let Some(bytes) = self.read_entry(&path)? else {
            return Ok(Vec::new());
        };
        let mut merges = Vec::new();
        let mut r = Reader::new(&bytes);
        let read = r.header(&MERGE_LOG_MAGIC).and_then(|()| {
            while !r.is_empty() {
                merges.push(decode_merge(r.record()?)?);
            }
            Ok(())
        });
        if let Err(e) = read {
            let kept = match self.rewrite_merges(&merges) {
                Ok(()) => format!("kept {} records", merges.len()),
                Err(e) => format!("republishing the valid prefix failed: {e}"),
            };
            incident(
                &path,
                &format!("merge record {}: {e}; {kept}", merges.len()),
            );
        }
        bmbe_obs::trace_counter!("cluster.memo.loaded", merges.len());
        Ok(merges)
    }

    /// Replaces the merge log with one holding exactly `merges`, published
    /// like a shape entry (temp file plus rename).
    ///
    /// # Errors
    ///
    /// Any I/O failure; the log is left as it was.
    pub(crate) fn rewrite_merges(&self, merges: &[(String, usize)]) -> io::Result<()> {
        let mut log = Writer::new();
        log.header(&MERGE_LOG_MAGIC);
        let bytes = merge_records(log, merges);
        self.publish(&self.merge_log_path(), &bytes, true)?;
        bmbe_obs::trace_counter!("cache.disk.bytes_written", bytes.len() as u64);
        Ok(())
    }

    /// Appends one batch of `(canonical text, states)` records to the
    /// merge log with one `write_all` on an `O_APPEND` handle, publishing
    /// the log's header first when there is no log.
    ///
    /// # Errors
    ///
    /// Any I/O failure (including an injected `cache_io` fault); the
    /// caller degrades to records left unpersisted.
    pub fn append_merges(&self, merges: &[(String, usize)]) -> io::Result<()> {
        self.io_op()?;
        let bytes = merge_records(Writer::new(), merges);
        let path = self.merge_log_path();
        let result = (|| {
            let mut log = match fs::OpenOptions::new().append(true).open(&path) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    let mut header = Writer::new();
                    header.header(&MERGE_LOG_MAGIC);
                    self.publish(&path, &header.into_bytes(), false)?;
                    fs::OpenOptions::new().append(true).open(&path)?
                }
                opened => opened?,
            };
            log.write_all(&bytes)
        })();
        if result.is_err() {
            bmbe_obs::trace_counter!("cache.disk.write_errors", 1);
        } else {
            bmbe_obs::trace_counter!("cluster.memo.persisted", merges.len());
            bmbe_obs::trace_counter!("cache.disk.bytes_written", bytes.len() as u64);
        }
        result
    }

    /// Writes the entry for `key` atomically (temp file + rename) and
    /// returns the entry size in bytes.
    ///
    /// # Errors
    ///
    /// Any I/O failure (including an injected `cache_io` fault); the
    /// caller degrades to an unpersisted artifact.
    pub fn store(&self, key: &CacheKey, artifact: &SynthArtifact) -> io::Result<u64> {
        self.io_op()?;
        let mut entry = Writer::new();
        entry.header(&MAGIC);
        entry.u64(bmbe_obs::run_id());
        entry.u64(bmbe_obs::wall_ns());
        entry.record(&encode_entry(key, artifact));
        let bytes = entry.into_bytes();
        let result = self.publish(&self.entry_path(key), &bytes, true);
        if result.is_err() {
            bmbe_obs::trace_counter!("cache.disk.write_errors", 1);
        } else {
            bmbe_obs::trace_counter!("cache.disk.bytes_written", bytes.len() as u64);
            bmbe_obs::event!("cache.disk.dir_bytes", self.dir_bytes());
        }
        result.map(|()| bytes.len() as u64)
    }

    /// Publishes `bytes` at `path` through a temp file in the cache
    /// directory, so no reader sees a partial file: by rename, replacing
    /// any file there, or, unless `replace`, by hard link, which leaves a
    /// file already there in place and succeeds.
    fn publish(&self, path: &Path, bytes: &[u8], replace: bool) -> io::Result<()> {
        // Unique per (process, call), so concurrent writers — separate
        // processes or separate handles in one process — never share a
        // temp file.
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let tmp = self.dir.join(format!(
            ".{name}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            if replace {
                return fs::rename(&tmp, path);
            }
            match fs::hard_link(&tmp, path) {
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(()),
                linked => linked,
            }
        })();
        if result.is_err() || !replace {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Number of committed entries in the directory (temp files excluded).
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether the directory holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes of the committed entries and the merge log.
    pub fn dir_bytes(&self) -> u64 {
        self.entries()
            .chain([self.merge_log_path()])
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    fn entries(&self) -> impl Iterator<Item = PathBuf> {
        fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.len() == 16 && n.bytes().all(|b| b.is_ascii_hexdigit()))
            })
    }
}

/// Reads a shape entry: its header, the producer's run id, and its one
/// record's key and artifact.
fn read_shape(bytes: &[u8]) -> Result<(u64, (CacheKey, SynthArtifact)), CodecError> {
    let mut r = Reader::new(bytes);
    r.header(&MAGIC)?;
    let run = r.u64("producer run")?;
    r.u64("produced_ns")?;
    let entry = decode_entry(r.record()?)?;
    r.finish()?;
    Ok((run, entry))
}

/// `log` followed by one merge-log record per `(canonical text, states)`.
fn merge_records(mut log: Writer, merges: &[(String, usize)]) -> Vec<u8> {
    for (text, states) in merges {
        log.record(&encode_merge(text, *states));
    }
    log.into_bytes()
}

/// A durability incident at `path` (a corrupt file): counted, logged, and
/// recorded by draining the flight recorder, so the corrupt file's story
/// survives (to a file, never stdout; skipped when no dump sink is
/// configured — see `bmbe_obs::recorder`).
fn incident(path: &Path, why: &str) {
    bmbe_obs::trace_counter!("cache.disk.evicted", 1);
    bmbe_obs::vlog!(
        1,
        "bmbe-flow: evicted corrupt cache entry {} ({why})",
        path.display()
    );
    bmbe_obs::recorder::note("cache.disk.evicted", || {
        format!("{} ({why})", path.display())
    });
    bmbe_obs::recorder::dump(
        "disk-evict",
        &[
            ("entry", path.display().to_string()),
            ("why", why.to_string()),
        ],
    );
}
