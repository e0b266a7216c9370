//! FNV-1a hashing: the one implementation behind every fingerprint,
//! cache key, checksum and completion digest in the workspace.
//!
//! Some of these values persist (serve snapshots record a body
//! checksum and the config fingerprint), so the bits are part of the
//! file format: changing a constant or the byte order here breaks every
//! saved snapshot. Words are fed little-endian, floats by their bits.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Basis of [`Fnv128`]'s second stream: a different odd offset, so the
/// two halves are not trivially correlated.
const OFFSET_B: u64 = 0x6c62_272e_07bb_0142 ^ 0x9e37_79b9_7f4a_7c15;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(OFFSET)
    }
}

impl Fnv64 {
    /// A hasher at the standard offset basis.
    pub fn new() -> Self {
        Fnv64::default()
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// Feeds a word, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float's exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 128-bit hash: a plain FNV-1a stream plus a second stream from
/// another basis that also rotates left by one after each multiply.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128 {
    a: Fnv64,
    b: u64,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128 {
            a: Fnv64::new(),
            b: OFFSET_B,
        }
    }
}

impl Fnv128 {
    /// A hasher at both streams' offset bases.
    pub fn new() -> Self {
        Fnv128::default()
    }

    /// Feeds raw bytes to both streams.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.a.bytes(bytes);
        for &b in bytes {
            self.b = (self.b ^ b as u64).wrapping_mul(PRIME).rotate_left(1);
        }
    }

    /// Feeds a word, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float's exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Both streams: (plain FNV-1a, rotated stream).
    pub fn finish(self) -> (u64, u64) {
        (self.a.finish(), self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv64::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }
}
