//! Persistent, crash-safe, content-addressed entry store.
//!
//! A [`DiskCache`] holds one file per controller shape under a cache
//! directory, named by the shape's [`CacheKey::digest`] hex (sixteen
//! lowercase hex digits). Each file is:
//!
//! ```text
//! +----------+---------+----------+-------------+-------------+----------+-----------------+
//! | magic    | version | run_id   | produced_ns | payload_len | checksum | payload         |
//! | 8 bytes  | u32 le  | u64 le   | u64 le      | u64 le      | u64 le   | codec::encode_* |
//! +----------+---------+----------+-------------+-------------+----------+-----------------+
//! ```
//!
//! with `checksum = fnv64(payload)` and the payload the deterministic
//! binary encoding of the full [`CacheKey`] plus the [`SynthArtifact`]
//! (see `codec.rs`). Storing the *full* key in the payload — not just the
//! 64-bit digest that names the file — lets a load verify that the entry
//! really is the shape it asked for, so a digest collision degrades to a
//! miss instead of serving a wrong artifact.
//!
//! `run_id`/`produced_ns` are producer **provenance** (format v2): the
//! [`bmbe_obs::run_id`] of the process that synthesized the entry and the
//! wall-clock instant it was written. They live in the *file header*, not
//! the codec payload, so the payload bytes stay a pure function of the
//! `(key, artifact)` pair — the bit-identical determinism tests compare
//! payloads across cold/warm/disk paths. A warm fleet process can thus
//! answer "who produced the entry I just hit" ([`DiskCache::provenance`],
//! surfaced as the `cache.disk.producer_run` trace event), correlating its
//! trace with the cold producer's.
//!
//! Durability rules:
//!
//! - **Writes are atomic.** An entry is encoded into a process-unique
//!   `.tmp` file in the cache directory and `rename(2)`d into place, so a
//!   concurrent reader (or a second writer racing the same digest) sees
//!   either no entry or a complete one — never a torn write. Two racing
//!   writers both succeed; last rename wins, and both wrote identical
//!   bytes anyway because the codec is deterministic.
//! - **Bad entries are evicted, not served.** A wrong magic, an unknown
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

use super::codec::{decode_entry, encode_entry, fnv64};
use super::{CacheKey, SynthArtifact};
use crate::fault::{FaultKind, FaultPhase, FaultPlan};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// First eight bytes of every entry file.
pub const MAGIC: [u8; 8] = *b"BMBECACH";

/// Current on-disk format version. Bump on any header or payload layout
/// change; entries with any other version are evicted on load (v1 and v2
/// entries from older builds self-heal by re-synthesis). v2 added producer
/// provenance (`run_id`, `produced_ns`) to the header; v3 dropped the
/// wall-clock profile and the minimizer stats from the payload.
pub const FORMAT_VERSION: u32 = 3;

/// Environment variable naming the cache directory the report binaries
/// (and [`super::ControllerCache::from_env`]) open.
pub const CACHE_DIR_ENV: &str = "BMBE_CACHE_DIR";

const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8;

/// Producer provenance stamped into every entry's header: which run wrote
/// it, and when (wall clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provenance {
    /// [`bmbe_obs::run_id`] of the producing process.
    pub run: u64,
    /// Wall-clock nanoseconds since the Unix epoch at store time.
    pub produced_ns: u64,
}

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
    pub fn with_fault(
        dir: impl Into<PathBuf>,
        fault: Option<FaultPlan>,
    ) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let cache = DiskCache {
            dir,
            fault: fault.filter(|plan| plan.phase == FaultPhase::CacheIo),
            ops: AtomicUsize::new(0),
        };
        // Recompute the size gauge from what is already on disk, not just
        // after writes — a warm process that never stores anything must
        // still report the true cache size.
        bmbe_obs::trace_gauge!("cache.disk.dir_bytes", cache.dir_bytes() as i64);
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

    /// Counts one disk operation and fires the armed `cache_io` fault if
    /// this is the targeted one. Reads and writes share the counter.
    fn io_op(&self) -> io::Result<()> {
        let index = self.ops.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = &self.fault {
            if plan.targets_job(index) {
                match plan.kind {
                    FaultKind::Panic => panic!(
                        "injected fault: panic at phase cache_io of op {index}"
                    ),
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
                bmbe_obs::vlog!(1, "bmbe-flow: disk cache read failed ({}): {e}", path.display());
                return Err(DiskMiss::ReadError);
            }
        };
        match validate(&bytes).and_then(|(payload, provenance)| {
            decode_entry(payload)
                .map(|entry| (entry, provenance))
                .map_err(|e| format!("payload: {e}"))
        }) {
            Ok(((stored_key, artifact), provenance)) if stored_key == *key => {
                bmbe_obs::trace_counter!("cache.disk.hits", 1);
                bmbe_obs::trace_counter!("cache.disk.bytes_read", bytes.len() as u64);
                // Correlate this hit with the run that produced the entry
                // (the cold fleet process, usually a different trace).
                bmbe_obs::event!("cache.disk.producer_run", provenance.run as i64);
                Ok(Arc::new(artifact))
            }
            Ok(_) => self.evict(&path, "digest collision: stored key differs"),
            Err(why) => self.evict(&path, &why),
        }
    }

    /// Reads only the provenance header of the entry for `key` (`None` on
    /// a missing, short, or foreign-format entry).
    pub fn provenance(&self, key: &CacheKey) -> Option<Provenance> {
        let bytes = self.read_entry(&self.entry_path(key)).ok().flatten()?;
        let (_, provenance) = validate(&bytes).ok()?;
        Some(provenance)
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

    fn evict(&self, path: &Path, why: &str) -> Result<Arc<SynthArtifact>, DiskMiss> {
        // Best-effort delete: the entry is bad whether or not the unlink
        // succeeds, and a racing writer may already have replaced it.
        let _ = fs::remove_file(path);
        bmbe_obs::trace_counter!("cache.disk.evicted", 1);
        bmbe_obs::vlog!(
            1,
            "bmbe-flow: evicted corrupt cache entry {} ({why})",
            path.display()
        );
        // An eviction is a durability incident: drain the flight recorder
        // so the corrupt entry's story survives (to a file, never stdout;
        // skipped when no dump sink is configured — see bmbe_obs::recorder).
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
        Err(DiskMiss::Evicted)
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
        let payload = encode_entry(key, artifact);
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&bmbe_obs::run_id().to_le_bytes());
        bytes.extend_from_slice(&bmbe_obs::wall_ns().to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        // Unique-per-(process, call) temp name so concurrent writers —
        // whether separate processes or separate handles in one process —
        // never share a temp file; the rename is what publishes.
        let tmp = self.dir.join(format!(
            ".{:016x}.{}.{}.tmp",
            key.digest(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
            fs::rename(&tmp, self.entry_path(key))
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
            bmbe_obs::trace_counter!("cache.disk.write_errors", 1);
        } else {
            bmbe_obs::trace_counter!("cache.disk.bytes_written", bytes.len() as u64);
            bmbe_obs::trace_gauge!("cache.disk.dir_bytes", self.dir_bytes() as i64);
        }
        result.map(|()| bytes.len() as u64)
    }

    /// Number of committed entries in the directory (temp files excluded).
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether the directory holds no committed entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes of the committed entries.
    pub fn dir_bytes(&self) -> u64 {
        self.entries()
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

/// Checks the header and returns the payload slice plus the producer
/// provenance.
fn validate(bytes: &[u8]) -> Result<(&[u8], Provenance), String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("short entry: {} bytes", bytes.len()));
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    if header[..8] != MAGIC {
        return Err("bad magic".to_string());
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let provenance = Provenance {
        run: u64::from_le_bytes(header[12..20].try_into().expect("8 bytes")),
        produced_ns: u64::from_le_bytes(header[20..28].try_into().expect("8 bytes")),
    };
    let payload_len = u64::from_le_bytes(header[28..36].try_into().expect("8 bytes"));
    if payload_len != payload.len() as u64 {
        return Err(format!(
            "truncated: header claims {payload_len} payload bytes, file has {}",
            payload.len()
        ));
    }
    let checksum = u64::from_le_bytes(header[36..44].try_into().expect("8 bytes"));
    let actual = fnv64(payload);
    if checksum != actual {
        return Err(format!(
            "checksum mismatch: header {checksum:#018x}, payload {actual:#018x}"
        ));
    }
    Ok((payload, provenance))
}
