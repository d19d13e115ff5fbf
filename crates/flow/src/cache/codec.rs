//! Binary codec for every file in a cache directory.
//!
//! [`super::disk::DiskCache`] stores one [`SynthArtifact`] per file and
//! one merge log; this module defines both the *framing* every such file
//! shares and the *payload* encodings. A file is a header
//! ([`Writer::header`]: an eight-byte magic naming the file kind, then
//! [`FORMAT_VERSION`]) followed by checksummed records ([`Writer::record`]:
//! `len u64 | fnv64 u64 | payload`), all little-endian. The payloads are a
//! compact, deterministic binary form of the cache key and the artifact's
//! results (controller covers, state assignment, function specs, mapped
//! netlist, subject graph), or of one merge-log record. The encoding is:
//!
//! - **self-contained** — no external schema; every variable-length field
//!   carries its length, every enum a one-byte tag;
//! - **deterministic** — encoding the same artifact twice yields identical
//!   bytes (hash maps are serialized in sorted key order, floats as IEEE
//!   bit patterns), and no wall-clock is stored: the controller's
//!   [`MinimizeStats`] are left out and decode as their defaults, and the
//!   artifact's field-less [`PhaseProfile`] holds nothing to store. Two
//!   syntheses of one shape thus encode to the same bytes, so a disk hit
//!   can be byte-compared against a fresh synthesis in the durability
//!   tests;
//! - **strict on decode** — a wrong magic, another format version, a
//!   checksum mismatch, any truncation, unknown tag, or length overrun is
//!   a typed [`CodecError`], never a panic or a partial value. So is a
//!   mapped netlist whose gates break the order the mapper emits and every
//!   evaluator relies on ([`check_gate_order`]). The disk layer treats
//!   every decode error as a corrupt file.

use super::{CacheKey, SynthArtifact};
use crate::profile::PhaseProfile;
use bmbe_bm::assign::StateAssignment;
use bmbe_bm::synth::{Controller, MinimizeMode};
use bmbe_gates::{
    check_gate_order, CellKind, GateOrderError, MapObjective, MapStyle, MappedGate, MappedNetlist,
    Module, SubjectGraph, SubjectNode,
};
use bmbe_logic::hfmin::{FunctionSpec, MinimizeBackend, MinimizeStats, SpecTransition};
use bmbe_logic::{Cover, Cube};
use std::fmt;

/// A payload decode failure. Each variant names what the reader was
/// looking at when the bytes ran out or stopped making sense — enough to
/// debug a corrupt entry without a hex dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field at `offset` was complete.
    Truncated {
        /// Byte offset of the incomplete field.
        offset: usize,
        /// What was being decoded.
        what: &'static str,
    },
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix was implausibly large (guards against a corrupt
    /// length causing a giant allocation before the checksum would have
    /// caught it).
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// Bytes remained after the payload decoded completely.
    TrailingBytes {
        /// Number of undecoded bytes.
        extra: usize,
    },
    /// The mapped netlist breaks the mapper's gate order.
    BadGate(GateOrderError),
    /// A file did not start with the magic of its kind.
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 8],
    },
    /// A file was written under another [`FORMAT_VERSION`].
    BadVersion {
        /// The version the file carries.
        version: u64,
    },
    /// A record's payload does not match its checksum.
    BadChecksum {
        /// The checksum the record carries.
        stored: u64,
        /// The checksum of the payload as read.
        actual: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, what } => {
                write!(f, "truncated while decoding {what} at byte {offset}")
            }
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            CodecError::BadLength { what, len } => write!(f, "implausible {what} length {len}"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the payload")
            }
            CodecError::BadGate(e) => write!(f, "mapped netlist: {e}"),
            CodecError::BadMagic { expected } => {
                write!(
                    f,
                    "bad magic (expected {:?})",
                    String::from_utf8_lossy(expected)
                )
            }
            CodecError::BadVersion { version } => {
                write!(
                    f,
                    "format version {version} (this build reads {FORMAT_VERSION})"
                )
            }
            CodecError::BadChecksum { stored, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#018x}, payload {actual:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// The format version of every cache file, written in its header. Bump it
/// whenever a file's layout changes, or whenever the bytes stored for the
/// same key could change (a synthesis or `compile_to_bm` change that
/// alters an artifact or a merged program's state count): a file of any
/// other version is evicted, and its contents are computed again. v2 added
/// producer provenance to shape entries; v3 dropped the wall-clock profile
/// and the minimizer stats from their payload; v4 gave shape entries and
/// the merge log this one header and record framing, and covers the
/// `ExactPrimes` artifacts of functions above 14 variables that changed
/// without a bump.
pub const FORMAT_VERSION: u64 = 4;

/// FNV-1a over a byte slice — the checksum of every record, and the same
/// construction [`CacheKey::digest`] uses.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Element-count ceiling for length-prefixed sequences. Far above any real
/// artifact (the largest benchmark subject graph has a few thousand
/// nodes), far below anything that could exhaust memory on decode.
const MAX_SEQ: u64 = 1 << 28;

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A file header: `magic`, then [`FORMAT_VERSION`].
    pub(crate) fn header(&mut self, magic: &[u8; 8]) {
        self.buf.extend_from_slice(magic);
        self.u64(FORMAT_VERSION);
    }

    /// A checksummed record: `len u64 | fnv64(payload) u64 | payload`.
    pub(crate) fn record(&mut self, payload: &[u8]) {
        self.usize(payload.len());
        self.u64(fnv64(payload));
        self.buf.extend_from_slice(payload);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u64`.
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a byte slice for decoding.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let out = &self.buf[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(CodecError::Truncated {
                offset: self.pos,
                what,
            }),
        }
    }

    /// Reads a file header written by [`Writer::header`] with `magic`.
    ///
    /// # Errors
    ///
    /// A short header, another magic or another format version.
    pub(crate) fn header(&mut self, magic: &[u8; 8]) -> Result<(), CodecError> {
        if self.take(8, "file magic")? != magic {
            return Err(CodecError::BadMagic { expected: *magic });
        }
        match self.u64("format version")? {
            FORMAT_VERSION => Ok(()),
            version => Err(CodecError::BadVersion { version }),
        }
    }

    /// Reads a record written by [`Writer::record`] and returns its
    /// payload.
    ///
    /// # Errors
    ///
    /// A short record or a checksum mismatch.
    pub(crate) fn record(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u64("record length")?;
        let stored = self.u64("record checksum")?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let payload = self.take(len, "record payload")?;
        let actual = fnv64(payload);
        if stored != actual {
            return Err(CodecError::BadChecksum { stored, actual });
        }
        Ok(payload)
    }

    /// Whether every byte has been read.
    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fewer than eight bytes are left.
    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut word = [0; 8];
        word.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(word))
    }

    fn len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(what)?;
        if v > MAX_SEQ {
            return Err(CodecError::BadLength { what, len: v });
        }
        Ok(v as usize)
    }

    fn usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        self.len(what)
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        Ok(self.u8(what)? != 0)
    }

    fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let n = self.len(what)?;
        let b = self.take(n, what)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::BadTag { what, tag: 0xff })
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// Bytes are left unread.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

// ---------------------------------------------------------------- enums

fn mode_tag(v: MinimizeMode) -> u8 {
    match v {
        MinimizeMode::Speed => 0,
        MinimizeMode::Area => 1,
    }
}

fn mode_untag(tag: u8) -> Result<MinimizeMode, CodecError> {
    match tag {
        0 => Ok(MinimizeMode::Speed),
        1 => Ok(MinimizeMode::Area),
        tag => Err(CodecError::BadTag {
            what: "MinimizeMode",
            tag,
        }),
    }
}

fn backend_tag(v: MinimizeBackend) -> u8 {
    match v {
        MinimizeBackend::ExactPrimes => 0,
        MinimizeBackend::CubeCofactor => 1,
        MinimizeBackend::Auto => 2,
    }
}

fn backend_untag(tag: u8) -> Result<MinimizeBackend, CodecError> {
    match tag {
        0 => Ok(MinimizeBackend::ExactPrimes),
        1 => Ok(MinimizeBackend::CubeCofactor),
        2 => Ok(MinimizeBackend::Auto),
        tag => Err(CodecError::BadTag {
            what: "MinimizeBackend",
            tag,
        }),
    }
}

fn objective_tag(v: MapObjective) -> u8 {
    match v {
        MapObjective::Area => 0,
        MapObjective::Delay => 1,
    }
}

fn objective_untag(tag: u8) -> Result<MapObjective, CodecError> {
    match tag {
        0 => Ok(MapObjective::Area),
        1 => Ok(MapObjective::Delay),
        tag => Err(CodecError::BadTag {
            what: "MapObjective",
            tag,
        }),
    }
}

fn style_tag(v: MapStyle) -> u8 {
    match v {
        MapStyle::SplitModules => 0,
        MapStyle::WholeController => 1,
    }
}

fn style_untag(tag: u8) -> Result<MapStyle, CodecError> {
    match tag {
        0 => Ok(MapStyle::SplitModules),
        1 => Ok(MapStyle::WholeController),
        tag => Err(CodecError::BadTag {
            what: "MapStyle",
            tag,
        }),
    }
}

/// Cell tags. Tags 1 and 10–12 are retired and stay unused, so every tag
/// an earlier build wrote keeps its meaning.
fn cell_tag(v: CellKind) -> u8 {
    match v {
        CellKind::Inv => 0,
        CellKind::Nand2 => 2,
        CellKind::Nand3 => 3,
        CellKind::Nand4 => 4,
        CellKind::And2 => 5,
        CellKind::Or2 => 6,
        CellKind::Nor2 => 7,
        CellKind::Ao21 => 8,
        CellKind::Ao22 => 9,
    }
}

fn cell_untag(tag: u8) -> Result<CellKind, CodecError> {
    Ok(match tag {
        0 => CellKind::Inv,
        2 => CellKind::Nand2,
        3 => CellKind::Nand3,
        4 => CellKind::Nand4,
        5 => CellKind::And2,
        6 => CellKind::Or2,
        7 => CellKind::Nor2,
        8 => CellKind::Ao21,
        9 => CellKind::Ao22,
        tag => {
            return Err(CodecError::BadTag {
                what: "CellKind",
                tag,
            })
        }
    })
}

// ----------------------------------------------------------- composites

fn put_cover(w: &mut Writer, cover: &Cover) {
    w.usize(cover.cubes().len());
    for cube in cover.cubes() {
        w.u8(cube.num_vars() as u8);
        w.u64(cube.care_mask());
        w.u64(cube.value_mask());
    }
}

fn get_cover(r: &mut Reader<'_>) -> Result<Cover, CodecError> {
    let n = r.len("cover")?;
    let mut cubes = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let vars = r.u8("cube vars")? as usize;
        if vars > 64 {
            return Err(CodecError::BadTag {
                what: "cube vars",
                tag: vars as u8,
            });
        }
        let care = r.u64("cube care")?;
        let value = r.u64("cube value")?;
        cubes.push(Cube::from_masks(vars, care, value));
    }
    Ok(Cover::from_cubes(cubes))
}

fn put_function_spec(w: &mut Writer, spec: &FunctionSpec) {
    w.usize(spec.num_vars());
    w.usize(spec.transitions().len());
    for t in spec.transitions() {
        w.u64(t.start);
        w.u64(t.end);
        w.bool(t.from);
        w.bool(t.to);
    }
}

fn get_function_spec(r: &mut Reader<'_>) -> Result<FunctionSpec, CodecError> {
    let vars = r.usize("spec vars")?;
    if vars > 64 {
        return Err(CodecError::BadLength {
            what: "spec vars",
            len: vars as u64,
        });
    }
    let n = r.len("spec transitions")?;
    let mut spec = FunctionSpec::new(vars);
    for _ in 0..n {
        let start = r.u64("transition start")?;
        let end = r.u64("transition end")?;
        let from = r.bool("transition from")?;
        let to = r.bool("transition to")?;
        spec.add_transition(SpecTransition {
            start,
            end,
            from,
            to,
        });
    }
    Ok(spec)
}

fn put_controller(w: &mut Writer, c: &Controller) {
    w.str(&c.name);
    w.usize(c.inputs.len());
    for s in &c.inputs {
        w.str(s);
    }
    w.usize(c.outputs.len());
    for s in &c.outputs {
        w.str(s);
    }
    w.usize(c.num_state_bits);
    w.usize(c.output_covers.len());
    for cover in &c.output_covers {
        put_cover(w, cover);
    }
    w.usize(c.next_state_covers.len());
    for cover in &c.next_state_covers {
        put_cover(w, cover);
    }
    w.usize(c.assignment.num_bits);
    w.usize(c.assignment.codes.len());
    for &code in &c.assignment.codes {
        w.u64(code);
    }
    w.u64(c.initial_inputs);
    w.u64(c.initial_outputs);
    w.u64(c.initial_code);
    w.bool(c.exact);
    w.usize(c.function_specs.len());
    for spec in &c.function_specs {
        put_function_spec(w, spec);
    }
}

fn get_controller(r: &mut Reader<'_>) -> Result<Controller, CodecError> {
    let name = r.str("controller name")?;
    let inputs = get_strings(r, "controller inputs")?;
    let outputs = get_strings(r, "controller outputs")?;
    let num_state_bits = r.usize("state bits")?;
    let output_covers = get_covers(r, "output covers")?;
    let next_state_covers = get_covers(r, "next-state covers")?;
    let num_bits = r.usize("assignment bits")?;
    let n_codes = r.len("assignment codes")?;
    let mut codes = Vec::with_capacity(n_codes.min(1024));
    for _ in 0..n_codes {
        codes.push(r.u64("assignment code")?);
    }
    let initial_inputs = r.u64("initial inputs")?;
    let initial_outputs = r.u64("initial outputs")?;
    let initial_code = r.u64("initial code")?;
    let exact = r.bool("exact flag")?;
    let n_specs = r.len("function specs")?;
    let mut function_specs = Vec::with_capacity(n_specs.min(1024));
    for _ in 0..n_specs {
        function_specs.push(get_function_spec(r)?);
    }
    Ok(Controller {
        name,
        inputs,
        outputs,
        num_state_bits,
        output_covers,
        next_state_covers,
        assignment: StateAssignment { num_bits, codes },
        initial_inputs,
        initial_outputs,
        initial_code,
        exact,
        minimize_stats: MinimizeStats::default(),
        function_specs,
    })
}

fn get_strings(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<String>, CodecError> {
    let n = r.len(what)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(r.str(what)?);
    }
    Ok(out)
}

fn get_covers(r: &mut Reader<'_>, what: &'static str) -> Result<Vec<Cover>, CodecError> {
    let n = r.len(what)?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_cover(r)?);
    }
    Ok(out)
}

fn put_subject(w: &mut Writer, g: &SubjectGraph) {
    w.usize(g.nodes.len());
    for node in &g.nodes {
        match *node {
            SubjectNode::Input(i) => {
                w.u8(0);
                w.usize(i);
            }
            SubjectNode::Zero => w.u8(1),
            SubjectNode::One => w.u8(2),
            SubjectNode::Inv(a) => {
                w.u8(3);
                w.usize(a);
            }
            SubjectNode::Nand2(a, b) => {
                w.u8(4);
                w.usize(a);
                w.usize(b);
            }
        }
    }
    w.usize(g.modules.len());
    for module in &g.modules {
        w.u8(match module {
            Module::Level1 => 0,
            Module::Level2 => 1,
        });
    }
    w.usize(g.roots.len());
    for (name, node) in &g.roots {
        w.str(name);
        w.usize(*node);
    }
    w.usize(g.num_inputs);
    w.usize(g.fanout.len());
    for &f in &g.fanout {
        w.usize(f);
    }
}

fn get_subject(r: &mut Reader<'_>) -> Result<SubjectGraph, CodecError> {
    let n_nodes = r.len("subject nodes")?;
    let mut nodes = Vec::with_capacity(n_nodes.min(4096));
    for _ in 0..n_nodes {
        let tag = r.u8("subject node tag")?;
        nodes.push(match tag {
            0 => SubjectNode::Input(r.usize("input index")?),
            1 => SubjectNode::Zero,
            2 => SubjectNode::One,
            3 => SubjectNode::Inv(r.usize("inv operand")?),
            4 => SubjectNode::Nand2(r.usize("nand a")?, r.usize("nand b")?),
            tag => {
                return Err(CodecError::BadTag {
                    what: "SubjectNode",
                    tag,
                })
            }
        });
    }
    let n_modules = r.len("subject modules")?;
    let mut modules = Vec::with_capacity(n_modules.min(4096));
    for _ in 0..n_modules {
        modules.push(match r.u8("module tag")? {
            0 => Module::Level1,
            1 => Module::Level2,
            tag => {
                return Err(CodecError::BadTag {
                    what: "Module",
                    tag,
                })
            }
        });
    }
    let n_roots = r.len("subject roots")?;
    let mut roots = Vec::with_capacity(n_roots.min(1024));
    for _ in 0..n_roots {
        let name = r.str("root name")?;
        let node = r.usize("root node")?;
        roots.push((name, node));
    }
    let num_inputs = r.usize("subject num_inputs")?;
    let n_fanout = r.len("subject fanout")?;
    let mut fanout = Vec::with_capacity(n_fanout.min(4096));
    for _ in 0..n_fanout {
        fanout.push(r.usize("fanout count")?);
    }
    Ok(SubjectGraph {
        nodes,
        modules,
        roots,
        num_inputs,
        fanout,
    })
}

fn put_mapped(w: &mut Writer, m: &MappedNetlist) {
    w.usize(m.gates.len());
    for gate in &m.gates {
        w.u8(cell_tag(gate.cell));
        w.usize(gate.inputs.len());
        for &input in &gate.inputs {
            w.usize(input);
        }
        w.usize(gate.output);
    }
    w.f64(m.area);
    // Deterministic bytes: delays in sorted key order.
    let mut delays: Vec<(&String, &f64)> = m.output_delays.iter().collect();
    delays.sort_by(|a, b| a.0.cmp(b.0));
    w.usize(delays.len());
    for (name, &delay) in delays {
        w.str(name);
        w.f64(delay);
    }
    put_subject(w, &m.subject);
}

fn get_mapped(r: &mut Reader<'_>) -> Result<MappedNetlist, CodecError> {
    let n_gates = r.len("mapped gates")?;
    let mut gates = Vec::with_capacity(n_gates.min(4096));
    for _ in 0..n_gates {
        let cell = cell_untag(r.u8("cell tag")?)?;
        let n_inputs = r.len("gate inputs")?;
        let mut inputs = Vec::with_capacity(n_inputs.min(4));
        for _ in 0..n_inputs {
            inputs.push(r.usize("gate input")?);
        }
        let output = r.usize("gate output")?;
        gates.push(MappedGate {
            cell,
            inputs,
            output,
        });
    }
    let area = r.f64("mapped area")?;
    let n_delays = r.len("output delays")?;
    let mut output_delays = std::collections::HashMap::with_capacity(n_delays.min(1024));
    for _ in 0..n_delays {
        let name = r.str("delay name")?;
        let delay = r.f64("delay value")?;
        output_delays.insert(name, delay);
    }
    let mapped = MappedNetlist {
        gates,
        area,
        output_delays,
        subject: get_subject(r)?,
    };
    check_gate_order(&mapped).map_err(CodecError::BadGate)?;
    Ok(mapped)
}

fn put_key(w: &mut Writer, key: &CacheKey) {
    w.str(&key.canonical);
    w.u8(mode_tag(key.minimize_mode));
    w.u8(backend_tag(key.minimize_backend));
    w.u8(objective_tag(key.map_objective));
    w.u8(style_tag(key.map_style));
}

fn get_key(r: &mut Reader<'_>) -> Result<CacheKey, CodecError> {
    Ok(CacheKey {
        canonical: r.str("key canonical")?,
        minimize_mode: mode_untag(r.u8("key mode")?)?,
        minimize_backend: backend_untag(r.u8("key backend")?)?,
        map_objective: objective_untag(r.u8("key objective")?)?,
        map_style: style_untag(r.u8("key style")?)?,
    })
}

/// Encodes a cache entry payload: the full content address followed by the
/// artifact, without its controller's minimizer stats.
/// Deterministic — identical inputs produce identical bytes.
pub fn encode_entry(key: &CacheKey, artifact: &SynthArtifact) -> Vec<u8> {
    let mut w = Writer::new();
    put_key(&mut w, key);
    w.usize(artifact.bm_states);
    put_controller(&mut w, &artifact.controller);
    put_mapped(&mut w, &artifact.mapped);
    w.into_bytes()
}

/// Decodes a cache entry payload produced by [`encode_entry`]. The
/// artifact's controller carries `MinimizeStats::default()`.
///
/// # Errors
///
/// Any structural problem — truncation, a bad tag, trailing bytes — is a
/// [`CodecError`]; the caller treats the entry as corrupt.
pub fn decode_entry(bytes: &[u8]) -> Result<(CacheKey, SynthArtifact), CodecError> {
    let mut r = Reader::new(bytes);
    let key = get_key(&mut r)?;
    let bm_states = r.usize("artifact bm_states")?;
    let controller = get_controller(&mut r)?;
    let mapped = get_mapped(&mut r)?;
    r.finish()?;
    Ok((
        key,
        SynthArtifact {
            bm_states,
            controller,
            mapped,
            profile: PhaseProfile,
        },
    ))
}

/// Encodes one merge-log record payload: a merged program's canonical
/// text and its BM state count.
pub(crate) fn encode_merge(text: &str, states: usize) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(states);
    w.str(text);
    w.into_bytes()
}

/// Decodes a merge-log record payload produced by [`encode_merge`].
///
/// # Errors
///
/// A truncated or overlong payload, non-UTF-8 text, or a zero state count.
pub(crate) fn decode_merge(bytes: &[u8]) -> Result<(String, usize), CodecError> {
    let mut r = Reader::new(bytes);
    let states = r.usize("merge states")?;
    if states == 0 {
        return Err(CodecError::BadLength {
            what: "merge states",
            len: 0,
        });
    }
    let text = r.str("merge text")?;
    r.finish()?;
    Ok((text, states))
}

#[cfg(test)]
mod codec_tests {
    use super::*;
    use crate::cache::{synthesize_shape_with_fault, KeyedProgram};
    use bmbe_core::components::sequencer;
    use bmbe_gates::Library;
    use std::time::Duration;

    fn sample() -> (CacheKey, SynthArtifact) {
        let program = sequencer("p", &["a".to_string(), "b".to_string(), "c".to_string()]);
        let keyed = KeyedProgram::new(
            &program,
            MinimizeMode::Speed,
            MinimizeBackend::default(),
            MapObjective::Delay,
            MapStyle::SplitModules,
        );
        let artifact = synthesize_shape_with_fault(
            "shape",
            &keyed.canonical,
            MinimizeMode::Speed,
            MinimizeBackend::default(),
            MapObjective::Delay,
            MapStyle::SplitModules,
            &Library::cmos035(),
            None,
        )
        .expect("shape synthesizes");
        (keyed.key, artifact)
    }

    #[test]
    fn round_trips_bit_identically() {
        let (key, artifact) = sample();
        let bytes = encode_entry(&key, &artifact);
        let (key2, artifact2) = decode_entry(&bytes).expect("decodes");
        assert_eq!(key, key2);
        // Re-encoding the decoded artifact must reproduce the bytes
        // exactly — the codec is deterministic and lossless.
        assert_eq!(bytes, encode_entry(&key2, &artifact2));
        assert_eq!(artifact.bm_states, artifact2.bm_states);
        assert_eq!(
            artifact.controller.output_covers,
            artifact2.controller.output_covers
        );
        assert_eq!(
            artifact.mapped.area.to_bits(),
            artifact2.mapped.area.to_bits()
        );
        assert_eq!(
            artifact.mapped.output_delays,
            artifact2.mapped.output_delays
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let (key, artifact) = sample();
        assert_eq!(encode_entry(&key, &artifact), encode_entry(&key, &artifact));
    }

    #[test]
    fn two_syntheses_of_one_shape_encode_identically() -> Result<(), CodecError> {
        // Each synthesis measures its own wall-clock, which the payload
        // must not carry.
        let (key, first) = sample();
        let (_, second) = sample();
        let bytes = encode_entry(&key, &first);
        assert_eq!(bytes, encode_entry(&key, &second));
        // What the payload leaves out decodes as the defaults.
        assert!(first.controller.minimize_stats.exact_funcs > 0);
        let (_, decoded) = decode_entry(&bytes)?;
        assert_eq!(decoded.controller.minimize_stats.exact_funcs, 0);
        assert_eq!(decoded.controller.minimize_stats.prime_gen, Duration::ZERO);
        Ok(())
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let (key, artifact) = sample();
        let bytes = encode_entry(&key, &artifact);
        // Chop the payload at a spread of prefixes (every length near the
        // start, then a coarse sweep): each must fail, never panic.
        for cut in (0..64.min(bytes.len())).chain((64..bytes.len()).step_by(97)) {
            assert!(
                decode_entry(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn corrupt_tags_are_typed_errors() {
        let (key, artifact) = sample();
        let mut bytes = encode_entry(&key, &artifact);
        // Flip a byte inside the key's option tags (right after the
        // canonical text), producing an undefined enum tag.
        let at = 8 + key.canonical.len();
        bytes[at] = 0x7f;
        match decode_entry(&bytes) {
            Err(CodecError::BadTag { .. }) => {}
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn retired_and_unknown_cell_tags_are_rejected() {
        for tag in [1, 10, 11, 12, 13, 0xff] {
            assert_eq!(
                cell_untag(tag),
                Err(CodecError::BadTag {
                    what: "CellKind",
                    tag
                })
            );
        }
        // Every cell keeps the number earlier builds wrote for it.
        let pinned = [
            (CellKind::Inv, 0),
            (CellKind::Nand2, 2),
            (CellKind::Nand3, 3),
            (CellKind::Nand4, 4),
            (CellKind::And2, 5),
            (CellKind::Or2, 6),
            (CellKind::Nor2, 7),
            (CellKind::Ao21, 8),
            (CellKind::Ao22, 9),
        ];
        for (cell, tag) in pinned {
            assert_eq!(cell_tag(cell), tag, "{cell}");
            assert_eq!(cell_untag(tag), Ok(cell));
        }
    }

    #[test]
    fn gates_out_of_the_mappers_order_do_not_decode() {
        // Applies `edit` to the sample's netlist and the index of its
        // second gate with two or more inputs; returns that index and the
        // decode error.
        let decode_edited = |edit: &dyn Fn(&mut MappedNetlist, usize)| {
            let (key, mut artifact) = sample();
            let gate = (artifact.mapped.gates.iter().enumerate())
                .filter(|(_, g)| g.inputs.len() >= 2)
                .nth(1)
                .map(|(i, _)| i)
                .expect("two gates with two inputs");
            edit(&mut artifact.mapped, gate);
            (gate, decode_entry(&encode_entry(&key, &artifact)).err())
        };
        let bad = |gate, what| Some(CodecError::BadGate(GateOrderError::Gate { gate, what }));
        // A gate that lost an input.
        let (gate, err) = decode_edited(&|m, g| {
            m.gates[g].inputs.pop();
        });
        assert_eq!(
            err,
            bad(gate, "input count differs from the cell's pin count")
        );
        // A gate that drives one node past the subject graph.
        let (gate, err) = decode_edited(&|m, g| m.gates[g].output = m.subject.nodes.len());
        assert_eq!(err, bad(gate, "output outside the subject graph"));
        // The edits below keep every node id inside the graph and break
        // only the order. A gate whose output does not exceed the
        // previous gate's.
        let (gate, err) = decode_edited(&|m, g| m.gates.swap(g - 1, g));
        assert_eq!(err, bad(gate, "output does not exceed the previous gate's"));
        // A gate reading a node at or above its own output.
        let (gate, err) = decode_edited(&|m, g| m.gates[g].inputs[1] = m.gates[g].output);
        assert_eq!(err, bad(gate, "pin not below the gate's output"));
        // A gate driving an input node, then one driving a constant.
        let (gate, err) = decode_edited(&|m, g| m.gates[g].output = 0);
        assert_eq!(err, bad(gate, "output is an input or constant node"));
        let (gate, err) = decode_edited(&|m, g| {
            m.subject.nodes[m.gates[g].output] = SubjectNode::One;
        });
        assert_eq!(err, bad(gate, "output is an input or constant node"));
        // A function root outside the subject graph.
        let (_, err) = decode_edited(&|m, _| m.subject.roots[0].1 = m.subject.nodes.len());
        assert_eq!(
            err,
            Some(CodecError::BadGate(GateOrderError::Root { root: 0 }))
        );
    }

    #[test]
    fn framing_faults_are_typed_errors() -> Result<(), CodecError> {
        let mut w = Writer::new();
        w.header(b"BMBETEST");
        w.record(b"payload");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.header(b"BMBETEST")?;
        assert_eq!(r.record()?, b"payload");
        r.finish()?;
        let other = Reader::new(&bytes).header(b"BMBEOTHR");
        assert_eq!(
            other,
            Err(CodecError::BadMagic {
                expected: *b"BMBEOTHR"
            })
        );
        let mut old = bytes.clone();
        old[8] = 3;
        let version = Reader::new(&old).header(b"BMBETEST");
        assert_eq!(version, Err(CodecError::BadVersion { version: 3 }));
        // A flipped payload byte, then a length past the end: a checksum
        // mismatch and a truncation, never a giant allocation.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        let mut long = bytes.clone();
        long[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let record_err = |bytes: &[u8]| -> Result<Option<CodecError>, CodecError> {
            let mut r = Reader::new(bytes);
            r.header(b"BMBETEST")?;
            Ok(r.record().err())
        };
        let checksum = record_err(&flipped)?;
        assert!(matches!(checksum, Some(CodecError::BadChecksum { .. })));
        let truncated = record_err(&long)?;
        assert!(matches!(truncated, Some(CodecError::Truncated { .. })));
        Ok(())
    }

    #[test]
    fn merge_records_round_trip_and_reject_a_zero_count() -> Result<(), CodecError> {
        let payload = encode_merge("(seq a b)", 7);
        assert_eq!(decode_merge(&payload)?, ("(seq a b)".to_string(), 7));
        assert!(decode_merge(&encode_merge("x", 0)).is_err());
        assert!(decode_merge(&payload[..payload.len() - 1]).is_err());
        Ok(())
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (key, artifact) = sample();
        let mut bytes = encode_entry(&key, &artifact);
        bytes.push(0);
        match decode_entry(&bytes) {
            Err(CodecError::TrailingBytes { extra: 1 }) => {}
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }
}
