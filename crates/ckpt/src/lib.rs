//! `streamline-ckpt-v1`: the checkpoint container format.
//!
//! A checkpoint is a sequence of independently CRC-guarded sections behind a
//! fixed magic, so a torn write, a truncated copy, or a flipped bit is always
//! detected before any payload is interpreted:
//!
//! ```text
//! "SLCKPT1\n"                                      8-byte magic
//! repeat:
//!   tag       4 bytes  ASCII section name
//!   len       8 bytes  u64 LE payload length
//!   crc32     4 bytes  u32 LE CRC-32 (IEEE) of the payload
//!   payload   len bytes (JSON via the vendored serde stack)
//! ```
//!
//! This crate owns only the *container*: framing, integrity, the `META`
//! header every file carries, and the serve warm-start manifest. What goes in
//! the per-algorithm sections is defined by `streamline-core`, which layers
//! its driver state DTOs on top — the same split as `streamline-trace-v1`
//! (schema in obs, producers elsewhere). Corruption is always a typed
//! [`CkptError`], never a panic: resuming from a bad file must degrade into
//! "start over", not take the process down.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Magic prefix of every checkpoint file (version baked in).
pub const MAGIC: &[u8; 8] = b"SLCKPT1\n";

/// Payload layout version recorded in [`Meta`]; a file of any other version
/// is refused. Version 2: every integrating rank's snapshot embeds the shared
/// rank core. Version 3: that core's detector is always the frontier ledger,
/// and the run config carries no detector choice.
pub const VERSION: u32 = 3;

/// Tag of the header section every file must start with.
pub const META_TAG: &str = "META";

/// Kind string for full mid-run driver checkpoints.
pub const KIND_RUN: &str = "run";

/// Kind string for serve warm-start manifests.
pub const KIND_WARM_START: &str = "warm-start";

/// Why a checkpoint file was rejected.
#[derive(Debug)]
pub enum CkptError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file ends mid-frame (torn write / truncated copy).
    Truncated {
        offset: usize,
    },
    /// A section tag is not 4 printable ASCII bytes.
    BadTag {
        offset: usize,
    },
    /// A section payload does not match its recorded CRC.
    CrcMismatch {
        tag: String,
        expected: u32,
        actual: u32,
    },
    /// A required section is absent.
    MissingSection {
        tag: String,
    },
    /// A section payload is not the expected JSON shape.
    Json {
        tag: String,
        msg: String,
    },
    /// The checkpoint is valid but describes a different run than the one
    /// being resumed (algorithm, rank count, seed count, ...).
    Mismatch(String),
    Io(std::io::Error),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a streamline-ckpt-v1 file (bad magic)"),
            CkptError::Truncated { offset } => {
                write!(f, "truncated checkpoint: file ends mid-frame at byte {offset}")
            }
            CkptError::BadTag { offset } => {
                write!(f, "malformed section tag at byte {offset}")
            }
            CkptError::CrcMismatch { tag, expected, actual } => write!(
                f,
                "section {tag}: CRC mismatch (recorded {expected:#010x}, computed {actual:#010x})"
            ),
            CkptError::MissingSection { tag } => write!(f, "missing required section {tag}"),
            CkptError::Json { tag, msg } => write!(f, "section {tag}: bad payload: {msg}"),
            CkptError::Mismatch(msg) => write!(f, "checkpoint does not match this run: {msg}"),
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the same
/// polynomial gzip and PNG use, computed from a lazily built 256-entry table.
pub fn crc32(data: &[u8]) -> u32 {
    const fn build_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    }
    const TABLE: [u32; 256] = build_table();
    let mut crc = !0u32;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The `META` header: enough to re-create the run a checkpoint belongs to and
/// to reject a resume against the wrong one. Written first in every file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Meta {
    /// Format version ([`VERSION`]).
    pub version: u32,
    /// [`KIND_RUN`] or [`KIND_WARM_START`].
    pub kind: String,
    /// Driver algorithm label (`static` / `load-on-demand` / `hybrid`);
    /// empty for warm-start manifests.
    #[serde(default)]
    pub algorithm: String,
    #[serde(default)]
    pub n_procs: usize,
    #[serde(default)]
    pub n_seeds: usize,
    /// Dataset and seeding identifiers as the CLI understands them, so
    /// `run --resume <file>` needs no other arguments.
    #[serde(default)]
    pub dataset: String,
    #[serde(default)]
    pub seeding: String,
    /// LRU capacity in blocks (per rank for runs, shared for manifests).
    #[serde(default)]
    pub cache_blocks: usize,
    /// Checkpoint cadence: virtual seconds for runs, wall seconds for serve.
    #[serde(default)]
    pub interval: f64,
    /// Ordinal of this snapshot within its run (1-based).
    #[serde(default)]
    pub snapshot_seq: u64,
    /// Virtual time (runs) or uptime (serve) at which the snapshot was cut.
    #[serde(default)]
    pub taken_at: f64,
}

impl Meta {
    pub fn new(kind: &str) -> Self {
        Meta {
            version: VERSION,
            kind: kind.to_string(),
            algorithm: String::new(),
            n_procs: 0,
            n_seeds: 0,
            dataset: String::new(),
            seeding: String::new(),
            cache_blocks: 0,
            interval: 0.0,
            snapshot_seq: 0,
            taken_at: 0.0,
        }
    }
}

/// Serve warm-start manifest payload (section `RESD`): the shared LRU's
/// resident set in recency order (coldest first, so replaying inserts in
/// order reproduces the recency ranking). Block ids are raw `u64`s — this
/// crate stays below `streamline-field` in the dependency order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStartManifest {
    pub capacity_blocks: usize,
    /// Resident block ids, least recently used first.
    pub resident: Vec<u64>,
}

/// Tag of the warm-start manifest section.
pub const RESD_TAG: &str = "RESD";

/// Streaming writer: append sections, then [`CkptWriter::finish`].
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    pub fn new() -> Self {
        CkptWriter { buf: MAGIC.to_vec() }
    }

    /// Append a raw section. `tag` must be exactly 4 printable ASCII bytes.
    pub fn section(&mut self, tag: &str, payload: &[u8]) {
        assert!(
            tag.len() == 4 && tag.bytes().all(|b| (0x20..0x7F).contains(&b)),
            "section tag must be 4 printable ASCII bytes, got {tag:?}"
        );
        self.buf.extend_from_slice(tag.as_bytes());
        self.buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Append `value` serialized as JSON.
    pub fn section_value<T: Serialize>(&mut self, tag: &str, value: &T) {
        let json = serde_json::to_string(value).expect("vendored serde_json is infallible");
        self.section(tag, json.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (including magic and frame headers).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        false // the magic is always present
    }
}

impl Default for CkptWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// A parsed checkpoint: every section's CRC has already been verified.
#[derive(Debug, Clone)]
pub struct CkptFile {
    sections: Vec<(String, Vec<u8>)>,
}

impl CkptFile {
    /// Parse and integrity-check `bytes`.
    pub fn parse(bytes: &[u8]) -> Result<CkptFile, CkptError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let mut sections = Vec::new();
        let mut at = MAGIC.len();
        while at < bytes.len() {
            if bytes.len() - at < 16 {
                return Err(CkptError::Truncated { offset: at });
            }
            let tag_bytes = &bytes[at..at + 4];
            if !tag_bytes.iter().all(|b| (0x20..0x7F).contains(b)) {
                return Err(CkptError::BadTag { offset: at });
            }
            let tag = String::from_utf8_lossy(tag_bytes).into_owned();
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8 bytes"));
            let expected = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().expect("4 bytes"));
            let start = at + 16;
            let Some(end) = (len as usize).checked_add(start).filter(|&e| e <= bytes.len()) else {
                return Err(CkptError::Truncated { offset: at });
            };
            let payload = &bytes[start..end];
            let actual = crc32(payload);
            if actual != expected {
                return Err(CkptError::CrcMismatch { tag, expected, actual });
            }
            sections.push((tag, payload.to_vec()));
            at = end;
        }
        Ok(CkptFile { sections })
    }

    pub fn read(path: &Path) -> Result<CkptFile, CkptError> {
        CkptFile::parse(&std::fs::read(path)?)
    }

    /// Section tags in file order.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(t, _)| t.as_str())
    }

    /// Raw payload of the first section named `tag`.
    pub fn section(&self, tag: &str) -> Option<&[u8]> {
        self.sections.iter().find(|(t, _)| t == tag).map(|(_, p)| p.as_slice())
    }

    pub fn require(&self, tag: &str) -> Result<&[u8], CkptError> {
        self.section(tag).ok_or_else(|| CkptError::MissingSection { tag: tag.to_string() })
    }

    /// Decode a JSON section into `T`.
    pub fn value<T: Deserialize>(&self, tag: &str) -> Result<T, CkptError> {
        let payload = self.require(tag)?;
        let text = std::str::from_utf8(payload)
            .map_err(|e| CkptError::Json { tag: tag.to_string(), msg: e.to_string() })?;
        serde_json::from_str(text)
            .map_err(|e| CkptError::Json { tag: tag.to_string(), msg: e.to_string() })
    }

    /// The `META` header.
    pub fn meta(&self) -> Result<Meta, CkptError> {
        let meta: Meta = self.value(META_TAG)?;
        if meta.version != VERSION {
            return Err(CkptError::Mismatch(format!(
                "unsupported checkpoint version {} (this build reads {VERSION})",
                meta.version
            )));
        }
        Ok(meta)
    }
}

/// Integrity summary produced by [`validate`], for `obs-check`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CkptSummary {
    pub meta: Meta,
    /// `(tag, payload bytes)` in file order.
    pub sections: Vec<(String, u64)>,
    pub file_bytes: u64,
}

/// Parse, CRC-check, and summarize a checkpoint file.
pub fn validate(path: &Path) -> Result<CkptSummary, CkptError> {
    let bytes = std::fs::read(path)?;
    let file = CkptFile::parse(&bytes)?;
    let meta = file.meta()?;
    let sections =
        file.sections.iter().map(|(tag, payload)| (tag.clone(), payload.len() as u64)).collect();
    Ok(CkptSummary { meta, sections, file_bytes: bytes.len() as u64 })
}

/// Write `bytes` to `path` crash-consistently: write a `.tmp` sibling, then
/// rename over the target, so a crash never leaves a half-written checkpoint
/// under the final name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CkptError> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_file() -> Vec<u8> {
        let mut w = CkptWriter::new();
        let mut meta = Meta::new(KIND_RUN);
        meta.algorithm = "static".into();
        meta.n_procs = 4;
        w.section_value(META_TAG, &meta);
        w.section("DATA", b"hello checkpoint");
        w.finish()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let bytes = roundtrip_file();
        let f = CkptFile::parse(&bytes).unwrap();
        assert_eq!(f.tags().collect::<Vec<_>>(), vec![META_TAG, "DATA"]);
        assert_eq!(f.section("DATA").unwrap(), b"hello checkpoint");
        let meta = f.meta().unwrap();
        assert_eq!(meta.algorithm, "static");
        assert_eq!(meta.n_procs, 4);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = roundtrip_file();
        bytes[0] ^= 0xFF;
        assert!(matches!(CkptFile::parse(&bytes), Err(CkptError::BadMagic)));
        assert!(matches!(CkptFile::parse(b"short"), Err(CkptError::BadMagic)));
    }

    #[test]
    fn flipped_payload_bit_is_crc_mismatch() {
        let mut bytes = roundtrip_file();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01; // inside the DATA payload
        match CkptFile::parse(&bytes) {
            Err(CkptError::CrcMismatch { tag, .. }) => assert_eq!(tag, "DATA"),
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = roundtrip_file();
        // A cut exactly on a section boundary is a valid (shorter) file; any
        // other cut must be detected as a torn frame or payload.
        let boundaries: Vec<usize> = {
            let f = CkptFile::parse(&bytes).unwrap();
            let mut at = MAGIC.len();
            let mut b = vec![at];
            for tag in f.tags() {
                at += 16 + f.section(tag).unwrap().len();
                b.push(at);
            }
            b
        };
        for cut in MAGIC.len() + 1..bytes.len() {
            let r = CkptFile::parse(&bytes[..cut]);
            if boundaries.contains(&cut) {
                assert!(r.is_ok(), "boundary cut at {cut} is a valid shorter file");
            } else {
                assert!(
                    matches!(
                        r,
                        Err(CkptError::Truncated { .. }) | Err(CkptError::CrcMismatch { .. })
                    ),
                    "cut at {cut} must fail, got {r:?}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_field_is_truncated_not_panic() {
        let mut w = CkptWriter::new();
        w.section("DATA", b"x");
        let mut bytes = w.finish();
        // Corrupt the length field to u64::MAX; the add must not overflow.
        let at = MAGIC.len() + 4;
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(CkptFile::parse(&bytes), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn missing_section_is_typed() {
        let f = CkptFile::parse(&roundtrip_file()).unwrap();
        assert!(matches!(
            f.require("NOPE"),
            Err(CkptError::MissingSection { tag }) if tag == "NOPE"
        ));
    }

    #[test]
    fn garbage_json_is_typed_error() {
        let mut w = CkptWriter::new();
        w.section(META_TAG, b"not json at all");
        let f = CkptFile::parse(&w.finish()).unwrap();
        assert!(matches!(f.meta(), Err(CkptError::Json { .. })));
    }

    #[test]
    fn future_version_rejected_with_mismatch() {
        // 1: the layout before the shared rank core; 2: the layout with a
        // choice of detector; 99: a future build.
        for version in [1, 2, 99] {
            let mut w = CkptWriter::new();
            let mut meta = Meta::new(KIND_RUN);
            meta.version = version;
            w.section_value(META_TAG, &meta);
            let f = CkptFile::parse(&w.finish()).unwrap();
            match f.meta() {
                Err(CkptError::Mismatch(msg)) => assert!(
                    msg.contains(&format!("version {version} ")),
                    "version {version}: {msg}"
                ),
                other => panic!("version {version} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn warm_start_manifest_roundtrips() {
        let m = WarmStartManifest { capacity_blocks: 8, resident: vec![3, 1, 4, 1, 5] };
        let mut w = CkptWriter::new();
        w.section_value(META_TAG, &Meta::new(KIND_WARM_START));
        w.section_value(RESD_TAG, &m);
        let f = CkptFile::parse(&w.finish()).unwrap();
        assert_eq!(f.meta().unwrap().kind, KIND_WARM_START);
        let back: WarmStartManifest = f.value(RESD_TAG).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn validate_summarizes_sections() {
        let dir = std::env::temp_dir().join(format!("slckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.ckpt");
        write_atomic(&path, &roundtrip_file()).unwrap();
        let s = validate(&path).unwrap();
        assert_eq!(s.meta.kind, KIND_RUN);
        assert_eq!(s.sections.len(), 2);
        assert_eq!(s.sections[1], ("DATA".to_string(), 16));
        assert!(!path.with_extension("tmp").exists(), "atomic write leaves no temp file");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
