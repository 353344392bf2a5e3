//! Byte addresses, line addresses and the line-to-directory home mapping.

use serde::{Deserialize, Serialize};

use htm_sim::DirId;

/// A byte address in the simulated physical address space.
pub type Addr = u64;

/// A cache-line address: the byte address divided by the line size.
///
/// Using the line index (rather than a masked byte address) makes the
/// interleaving and set-index arithmetic explicit and keeps the type distinct
/// from [`Addr`] so the two cannot be confused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The raw line index.
    #[must_use]
    pub fn index(self) -> u64 {
        self.0
    }

    /// First byte address covered by this line, given the line size.
    #[must_use]
    pub fn base_addr(self, line_bytes: usize) -> Addr {
        self.0 * line_bytes as u64
    }
}

/// Mapping from byte addresses to cache lines and from lines to their home
/// directory.
///
/// The paper's Scalable-TCC baseline distributes the physical memory over
/// multiple directories, each of which "maps different segments of the
/// physical memory". We therefore interleave at *segment* granularity
/// (default 4 KiB): consecutive segments are homed at consecutive
/// directories. This is what gives the protocol its characteristic
/// behaviour — a shared data structure lives in one (or a few) directories,
/// committers to it serialize there, younger transactions spin at their
/// commit instruction behind older ones, and the Fig. 2(e) renewal check can
/// find the aborter still present in the directory where the abort happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMap {
    line_bytes: usize,
    segment_bytes: usize,
    num_dirs: usize,
}

impl AddressMap {
    /// Create a mapping for `num_dirs` directories, `line_bytes`-byte cache
    /// lines and `segment_bytes`-byte directory segments.
    ///
    /// # Panics
    /// Panics if either size is not a power of two, if the segment is smaller
    /// than a line, or if `num_dirs` is zero.
    #[must_use]
    pub fn new(line_bytes: usize, segment_bytes: usize, num_dirs: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            segment_bytes.is_power_of_two(),
            "segment size must be a power of two"
        );
        assert!(
            segment_bytes >= line_bytes,
            "a segment must hold at least one line"
        );
        assert!(num_dirs > 0, "need at least one directory");
        Self {
            line_bytes,
            segment_bytes,
            num_dirs,
        }
    }

    /// Cache line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Directory segment size in bytes.
    #[must_use]
    pub fn segment_bytes(&self) -> usize {
        self.segment_bytes
    }

    /// Number of directories.
    #[must_use]
    pub fn num_dirs(&self) -> usize {
        self.num_dirs
    }

    /// Line containing the byte address `addr`.
    #[must_use]
    pub fn line_of(&self, addr: Addr) -> LineAddr {
        // Both sizes are powers of two (checked in `new`), so the divisions
        // on this per-operation path are shifts.
        LineAddr(addr >> self.line_bytes.trailing_zeros())
    }

    /// Home directory of a line (segment-interleaved).
    #[must_use]
    pub fn home_of(&self, line: LineAddr) -> DirId {
        let shift = self.segment_bytes.trailing_zeros() - self.line_bytes.trailing_zeros();
        let segment = line.0 >> shift;
        let dirs = self.num_dirs as u64;
        let home = if dirs.is_power_of_two() {
            segment & (dirs - 1)
        } else {
            segment % dirs
        };
        home as DirId
    }

    /// Home directory of the line containing `addr`.
    #[must_use]
    pub fn home_of_addr(&self, addr: Addr) -> DirId {
        self.home_of(self.line_of(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_divides_by_line_size() {
        let m = AddressMap::new(64, 4096, 4);
        assert_eq!(m.line_of(0), LineAddr(0));
        assert_eq!(m.line_of(63), LineAddr(0));
        assert_eq!(m.line_of(64), LineAddr(1));
        assert_eq!(m.line_of(6400), LineAddr(100));
    }

    #[test]
    fn same_line_same_home() {
        let m = AddressMap::new(64, 4096, 4);
        assert_eq!(m.home_of_addr(128), m.home_of_addr(128 + 63));
    }

    #[test]
    fn lines_within_a_segment_share_a_home() {
        let m = AddressMap::new(64, 4096, 4);
        // 4096/64 = 64 lines per segment.
        assert!((0..64).all(|i| m.home_of(LineAddr(i)) == 0));
        assert!((64..128).all(|i| m.home_of(LineAddr(i)) == 1));
    }

    #[test]
    fn segments_interleave_round_robin() {
        let m = AddressMap::new(64, 4096, 4);
        let homes: Vec<_> = (0..8).map(|s| m.home_of(LineAddr(s * 64))).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn shifts_agree_with_division_for_any_directory_count() {
        for (line, segment) in [(64usize, 4096usize), (32, 32), (128, 8192)] {
            for dirs in [1usize, 3, 4, 6, 16, 100, 1024] {
                let m = AddressMap::new(line, segment, dirs);
                for addr in (0..300_000u64).step_by(97) {
                    let l = addr / line as u64;
                    let home = (l / (segment / line) as u64) % dirs as u64;
                    assert_eq!(m.line_of(addr), LineAddr(l));
                    assert_eq!(
                        m.home_of_addr(addr),
                        home as DirId,
                        "{line}/{segment}/{dirs}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_directory_maps_everything_to_zero() {
        let m = AddressMap::new(64, 4096, 1);
        assert!((0..10_000).all(|i| m.home_of(LineAddr(i)) == 0));
    }

    #[test]
    fn base_addr_roundtrip() {
        let m = AddressMap::new(64, 4096, 4);
        let line = m.line_of(777);
        assert_eq!(line.base_addr(64), 768);
        assert_eq!(m.line_of(line.base_addr(64)), line);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        let _ = AddressMap::new(48, 4096, 4);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn rejects_segment_smaller_than_line() {
        let _ = AddressMap::new(64, 32, 4);
    }

    #[test]
    #[should_panic(expected = "at least one directory")]
    fn rejects_zero_dirs() {
        let _ = AddressMap::new(64, 4096, 0);
    }
}
