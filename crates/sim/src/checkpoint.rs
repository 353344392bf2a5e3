//! Versioned, self-describing binary checkpoint codec.
//!
//! Every stateful component of the simulator serializes itself through
//! [`CkptWriter`] / [`CkptReader`], a deliberately tiny little-endian binary
//! codec with no external dependencies (the workspace `serde` shim can
//! serialize but not deserialize, so checkpoints carry their own format).
//! A complete checkpoint payload is framed by [`seal`] / [`unseal`]:
//!
//! ```text
//! magic "HTMCKPT\0" (8) | version u32 | payload length u64 | FNV-1a-64 checksum u64 | payload
//! ```
//!
//! The length and checksum make torn or bit-rotted files *detectable*: a
//! partial write fails the length check, a corrupted byte fails the
//! checksum, and a future format bumps the version — each case maps to its
//! own [`CkptError`] variant so callers can skip corrupt files loudly while
//! treating version mismatches as a dedicated, pre-run error.
//!
//! The exactness contract layered on top of this codec (a checkpoint-resumed
//! run is byte-for-byte identical to an uninterrupted one, on every engine)
//! is documented in `DESIGN.md` ("Checkpoint format & the cross-process
//! exactness contract").

use crate::Cycle;

/// File magic of every checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"HTMCKPT\0";

/// Current checkpoint format version (the "CheckpointV1" layout in DESIGN.md).
pub const CHECKPOINT_VERSION: u32 = 1;

/// Size of the [`seal`] header preceding the payload.
pub const HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// Errors produced while framing or decoding a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The blob does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The blob's format version is not the one this binary writes.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this binary reads and writes.
        expected: u32,
    },
    /// The blob (or a field inside it) is shorter than its header claims —
    /// the signature of a torn write.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The payload decoded structurally but its contents are inconsistent
    /// (wrong component count, config mismatch, invalid enum tag, …).
    Corrupt(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::UnsupportedVersion { found, expected } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads \
                 version {expected}); re-create the checkpoint with the current binary"
            ),
            CkptError::Truncated { needed, available } => write!(
                f,
                "checkpoint is truncated (needed {needed} bytes, found {available}) — \
                 likely a torn write"
            ),
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, computed \
                 {computed:#018x}) — the file is corrupt"
            ),
            CkptError::Corrupt(msg) => write!(f, "checkpoint is corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// FNV-1a 64-bit hash of `bytes` (the checkpoint checksum; also used for the
/// workload-trace fingerprint stored in every checkpoint).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    hash.write(bytes);
    hash.finish()
}

/// Incremental FNV-1a-64 hasher (for fingerprinting structured data without
/// materializing a byte buffer).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    /// `PRIME^k` for `k` in `0..=8`.
    const PRIME_POWERS: [u64; 9] = {
        let mut powers = [1u64; 9];
        let mut k = 1;
        while k < 9 {
            powers[k] = powers[k - 1].wrapping_mul(Self::PRIME);
            k += 1;
        }
        powers
    };

    /// Start a fresh hash.
    #[must_use]
    pub const fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Fold a `u64` (little-endian) into the hash.
    ///
    /// Equal to `write(&v.to_le_bytes())`. The bytes above the highest
    /// non-zero one are zeros, and XOR with a zero byte is the identity, so
    /// each of them only multiplies by `PRIME`: the `k` of them fold into
    /// one multiplication by `PRIME^k` (exact, since wrapping
    /// multiplication is associative).
    pub fn write_u64(&mut self, v: u64) {
        let significant = 8 - (v.leading_zeros() / 8) as usize;
        let mut hash = self.0;
        let mut rest = v;
        for _ in 0..significant {
            hash ^= rest & 0xff;
            hash = hash.wrapping_mul(Self::PRIME);
            rest >>= 8;
        }
        self.0 = hash.wrapping_mul(Self::PRIME_POWERS[8 - significant]);
    }

    /// The accumulated hash value.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

/// Frame `payload` with magic, the current version, its length and checksum.
#[must_use]
pub fn seal(payload: &[u8]) -> Vec<u8> {
    seal_with_version(CHECKPOINT_VERSION, payload)
}

/// [`seal`] with an explicit version (tests use this to fabricate
/// old-version checkpoints; production code always writes the current one).
#[must_use]
pub fn seal_with_version(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate the frame of `blob` and return `(version, payload)`.
///
/// Checks magic, declared length (a torn write shows up as
/// [`CkptError::Truncated`]) and checksum — but *not* the version, so that
/// callers can distinguish "old format" (a dedicated loud error) from
/// "corrupt file" (skipped while hunting for the newest valid checkpoint).
pub fn unseal(blob: &[u8]) -> Result<(u32, &[u8]), CkptError> {
    if blob.len() < HEADER_BYTES {
        return Err(CkptError::Truncated {
            needed: HEADER_BYTES,
            available: blob.len(),
        });
    }
    if blob[..8] != CHECKPOINT_MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = u32::from_le_bytes(blob[8..12].try_into().expect("4 bytes"));
    let len = u64::from_le_bytes(blob[12..20].try_into().expect("8 bytes")) as usize;
    let stored = u64::from_le_bytes(blob[20..28].try_into().expect("8 bytes"));
    let payload = &blob[HEADER_BYTES..];
    if payload.len() != len {
        return Err(CkptError::Truncated {
            needed: HEADER_BYTES + len,
            available: blob.len(),
        });
    }
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(CkptError::ChecksumMismatch { stored, computed });
    }
    Ok((version, payload))
}

/// [`unseal`] plus the version check against [`CHECKPOINT_VERSION`].
pub fn unseal_current(blob: &[u8]) -> Result<&[u8], CkptError> {
    let (version, payload) = unseal(blob)?;
    if version != CHECKPOINT_VERSION {
        return Err(CkptError::UnsupportedVersion {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    Ok(payload)
}

/// Peek at the frame of `blob` without hashing the payload: returns the
/// version if magic and length check out. Used to detect old-format files
/// cheaply before any cell runs.
pub fn peek_version(blob: &[u8]) -> Result<u32, CkptError> {
    if blob.len() < HEADER_BYTES {
        return Err(CkptError::Truncated {
            needed: HEADER_BYTES,
            available: blob.len(),
        });
    }
    if blob[..8] != CHECKPOINT_MAGIC {
        return Err(CkptError::BadMagic);
    }
    Ok(u32::from_le_bytes(blob[8..12].try_into().expect("4 bytes")))
}

/// Little-endian binary writer for checkpoint payloads.
#[derive(Debug, Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// Start an empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw payload written so far (frame it with [`seal`]).
    #[must_use]
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64` (also used for [`Cycle`]).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Write an `f64` by its IEEE-754 bit pattern (bit-exact round-trip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write an optional `u64` (presence byte + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// Write an optional `usize` (presence byte + value).
    pub fn put_opt_usize(&mut self, v: Option<usize>) {
        self.put_opt_u64(v.map(|v| v as u64));
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }
}

/// Little-endian binary reader over a checkpoint payload.
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// Read from the start of `payload`.
    #[must_use]
    pub fn new(payload: &'a [u8]) -> Self {
        Self {
            buf: payload,
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                needed: self.pos + n,
                available: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a [`Cycle`].
    pub fn get_cycle(&mut self) -> Result<Cycle, CkptError> {
        self.get_u64()
    }

    /// Read a `usize` stored as `u64`, guarding against absurd lengths (a
    /// corrupt length prefix must not drive a multi-gigabyte allocation).
    pub fn get_usize(&mut self) -> Result<usize, CkptError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .ok()
            .filter(|&v| v <= (1 << 40))
            .ok_or_else(|| CkptError::Corrupt(format!("implausible length {v}")))
    }

    /// Read a boolean (one byte, strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, CkptError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::Corrupt(format!("invalid boolean byte {b}"))),
        }
    }

    /// Read an `f64` stored as its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an optional `u64`.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, CkptError> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Read an optional `usize`.
    pub fn get_opt_usize(&mut self) -> Result<Option<usize>, CkptError> {
        self.get_opt_u64().map(|v| v.map(|v| v as usize))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CkptError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CkptError::Corrupt("non-UTF-8 string".into()))
    }

    /// Read a length-prefixed `u64` vector.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, CkptError> {
        let len = self.get_usize()?;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Assert that the payload is fully consumed (catches encoder/decoder
    /// drift: every byte written must be read back).
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }
}

// ----- codecs for the substrate's shared plain types ---------------------------

impl<const W: usize> crate::ProcBits<W> {
    /// Serialize as an ascending member list (compact for the sparse sets
    /// the protocol actually keeps, and width-independent: a set writes the
    /// same bytes at every `W` that can hold it).
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_usize(self.len());
        for p in self.iter() {
            w.put_usize(p);
        }
    }

    /// Inverse of [`Self::save_ckpt`]. A member the set cannot hold
    /// (`≥ W · 64`) is a corrupt payload, not a panic.
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        let n = r.get_usize()?;
        let mut set = Self::empty();
        for _ in 0..n {
            let p = r.get_usize()?;
            if p >= Self::CAPACITY {
                return Err(CkptError::Corrupt(format!("processor id {p} out of range")));
            }
            set.insert(p);
        }
        Ok(set)
    }
}

impl crate::config::SimConfig {
    /// Serialize the full machine description (the checkpoint's config echo:
    /// restore refuses to graft saved state onto a different machine).
    pub fn save_ckpt(&self, w: &mut CkptWriter) {
        w.put_usize(self.num_procs);
        w.put_usize(self.num_dirs);
        w.put_usize(self.l1_bytes);
        w.put_usize(self.l1_assoc);
        w.put_usize(self.line_bytes);
        w.put_usize(self.directory_segment_bytes);
        w.put_u64(self.l1_hit_latency);
        w.put_u64(self.directory_latency);
        w.put_u64(self.memory_latency);
        w.put_u64(self.memory_port_occupancy);
        w.put_u64(self.memory_bytes);
        w.put_usize(self.bus_width_bytes);
        w.put_u64(self.bus_arbitration_latency);
        w.put_u64(self.token_vendor_latency);
        w.put_u64(self.ungate_circuit_latency);
        w.put_u64(self.stop_clock_drain_latency);
        w.put_u64(self.wake_up_latency);
        w.put_u64(self.abort_rollback_latency);
        self.topology.save_ckpt(w);
    }

    /// Inverse of [`Self::save_ckpt`].
    pub fn load_ckpt(r: &mut CkptReader<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            num_procs: r.get_usize()?,
            num_dirs: r.get_usize()?,
            l1_bytes: r.get_usize()?,
            l1_assoc: r.get_usize()?,
            line_bytes: r.get_usize()?,
            directory_segment_bytes: r.get_usize()?,
            l1_hit_latency: r.get_u64()?,
            directory_latency: r.get_u64()?,
            memory_latency: r.get_u64()?,
            memory_port_occupancy: r.get_u64()?,
            memory_bytes: r.get_u64()?,
            bus_width_bytes: r.get_usize()?,
            bus_arbitration_latency: r.get_u64()?,
            token_vendor_latency: r.get_u64()?,
            ungate_circuit_latency: r.get_u64()?,
            stop_clock_drain_latency: r.get_u64()?,
            wake_up_latency: r.get_u64()?,
            abort_rollback_latency: r.get_u64()?,
            topology: crate::topology::TopologyConfig::load_ckpt(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_primitives() {
        let mut w = CkptWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_usize(12345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_opt_u64(Some(99));
        w.put_opt_u64(None);
        w.put_str("héllo");
        w.put_u64_slice(&[1, 2, 3]);
        let payload = w.into_payload();
        let mut r = CkptReader::new(&payload);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_opt_u64().unwrap(), Some(99));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let blob = seal(b"payload bytes");
        let (version, payload) = unseal(&blob).unwrap();
        assert_eq!(version, CHECKPOINT_VERSION);
        assert_eq!(payload, b"payload bytes");
        assert_eq!(unseal_current(&blob).unwrap(), b"payload bytes");
        assert_eq!(peek_version(&blob).unwrap(), CHECKPOINT_VERSION);
    }

    #[test]
    fn truncated_blob_is_detected_by_length() {
        let blob = seal(b"0123456789");
        let torn = &blob[..blob.len() - 3];
        assert!(matches!(unseal(torn), Err(CkptError::Truncated { .. })));
        assert!(matches!(
            unseal(&blob[..4]),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut blob = seal(b"0123456789");
        let last = blob.len() - 1;
        blob[last] ^= 0x40;
        assert!(matches!(
            unseal(&blob),
            Err(CkptError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut blob = seal(b"x");
        blob[0] = b'X';
        assert_eq!(unseal(&blob), Err(CkptError::BadMagic));
    }

    #[test]
    fn old_version_is_a_dedicated_error() {
        let blob = seal_with_version(0, b"legacy");
        // Frame-valid (unseal succeeds) …
        assert_eq!(unseal(&blob).unwrap().0, 0);
        assert_eq!(peek_version(&blob).unwrap(), 0);
        // … but the current-version gate refuses it loudly.
        assert_eq!(
            unseal_current(&blob),
            Err(CkptError::UnsupportedVersion {
                found: 0,
                expected: CHECKPOINT_VERSION
            })
        );
    }

    #[test]
    fn proc_set_codec_roundtrips_wide_sets() {
        let set: crate::ProcSet = [0usize, 63, 64, 511, 1023].into_iter().collect();
        let mut w = CkptWriter::new();
        set.save_ckpt(&mut w);
        let payload = w.into_payload();
        let mut r = CkptReader::new(&payload);
        assert_eq!(crate::ProcSet::load_ckpt(&mut r).unwrap(), set);
        r.expect_end().unwrap();
    }

    #[test]
    fn narrow_proc_set_codec_rejects_members_past_its_width() {
        let set: crate::ProcSet = [3usize, 100].into_iter().collect();
        let mut w = CkptWriter::new();
        set.save_ckpt(&mut w);
        let payload = w.into_payload();
        let mut r = CkptReader::new(&payload);
        assert!(matches!(
            crate::ProcBits::<1>::load_ckpt(&mut r),
            Err(CkptError::Corrupt(_))
        ));
        let mut r = CkptReader::new(&payload);
        let four = crate::ProcBits::<4>::load_ckpt(&mut r).unwrap();
        assert_eq!(four.widen::<16>(), set);
    }

    #[test]
    fn sim_config_codec_roundtrips_both_topologies() {
        for cfg in [
            crate::config::SimConfig::table2(8),
            crate::config::SimConfig::table2_with_topology(
                64,
                crate::topology::TopologyConfig::parse("sharded:8:mesh").unwrap(),
            ),
        ] {
            let mut w = CkptWriter::new();
            cfg.save_ckpt(&mut w);
            let payload = w.into_payload();
            let mut r = CkptReader::new(&payload);
            let back = crate::config::SimConfig::load_ckpt(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn fnv_write_u64_matches_the_byte_wise_fold() {
        let bytewise = |v: u64| {
            let mut h = Fnv64::new();
            h.write(&v.to_le_bytes());
            h.finish()
        };
        let folded = |v: u64| {
            let mut h = Fnv64::new();
            h.write_u64(v);
            h.finish()
        };
        // Every byte-length boundary: 0, 0xff, 0x100, 0xffff, 0x1_0000, …
        let mut values = vec![0, u64::MAX];
        for bytes in 1..8 {
            let top = 1u64 << (8 * bytes);
            values.extend([top - 1, top, top + 1]);
        }
        let mut rng = crate::rng::DeterministicRng::new(20);
        for _ in 0..10_000 {
            // Random values spread over every length.
            let len = rng.gen_range(65);
            values.push(rng.next_u64_raw().checked_shr(64 - len as u32).unwrap_or(0));
        }
        for v in values {
            assert_eq!(folded(v), bytewise(v), "{v:#x}");
        }
        // A running hash, not only a fresh one.
        let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
        for v in [7u64, 0, 0x1_0000, u64::MAX, 1 << 63, 300] {
            a.write_u64(v);
            b.write(&v.to_le_bytes());
            assert_eq!(a.finish(), b.finish());
        }
    }

    #[test]
    fn fnv_incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"abc");
        h.write(b"def");
        assert_eq!(h.finish(), fnv1a64(b"abcdef"));
    }
}
