//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! This is the digest algorithm the paper's threat model assumes reliable
//! (§II-B); every journal, block, receipt and Merkle node hash in the
//! reproduction flows through here.

use crate::digest::Digest;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let (blocks, tail) = data.split_at(data.len() & !63);
        compress_blocks(&mut self.state, blocks);
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        finish(compress_blocks, self.state, &self.buf[..self.buf_len], self.total_len)
    }
}

/// Pad the final partial block (`tail`, under 64 bytes) of a
/// `total_len`-byte message, compress it and serialize the state. The
/// one place a digest is produced, so the one place it is counted.
#[inline]
fn finish(
    compress: impl Fn(&mut [u32; 8], &[u8]),
    mut state: [u32; 8],
    tail: &[u8],
    total_len: u64,
) -> [u8; 32] {
    crate::counters::count_sha256_finalize();
    // Padding: 0x80, zeros, 8-byte big-endian bit length — one block if
    // the tail leaves room for all nine bytes, else two.
    let mut last = [0u8; 128];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] = 0x80;
    let end = if tail.len() < 56 { 64 } else { 128 };
    last[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress(&mut state, &last[..end]);
    state_bytes(&state)
}

fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[inline]
fn digest_with(compress: impl Fn(&mut [u32; 8], &[u8]), data: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let (blocks, tail) = data.split_at(data.len() & !63);
    compress(&mut state, blocks);
    finish(compress, state, tail, data.len() as u64)
}

/// Digest of a message the caller has already laid out with its
/// FIPS 180-4 padding (`padded.len()` a multiple of 64). Fixed-shape
/// callers such as [`crate::hash_pair`] use it to skip buffering and
/// length bookkeeping entirely.
#[inline]
pub(crate) fn digest_padded(padded: &[u8]) -> [u8; 32] {
    crate::counters::count_sha256_finalize();
    let mut state = H0;
    compress_blocks(&mut state, padded);
    state_bytes(&state)
}

/// Which compress kernel this process runs: `"sha-ni"` when the CPU has
/// the x86 SHA extensions, else `"portable"`. Decided by CPU detection
/// alone; there is no switch.
pub fn implementation() -> &'static str {
    if accelerated() {
        "sha-ni"
    } else {
        "portable"
    }
}

#[inline]
fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compress whole 64-byte blocks into `state` with the best kernel the
/// CPU offers.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    if blocks.is_empty() {
        return; // short updates and short one-shots land here
    }
    #[cfg(target_arch = "x86_64")]
    if accelerated() {
        // SAFETY: `accelerated()` just confirmed `sha`, `sse4.1` and
        // `ssse3`; `sse2`, the fourth feature `shani::compress_blocks`
        // is compiled with, is part of the x86-64 baseline.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_blocks_portable(state, blocks);
}

fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("chunks_exact(64)"));
    }
}

/// The portable compress function, straight from FIPS 180-4 §6.2.2. It
/// is the only path on CPUs without SHA extensions and the oracle the
/// accelerated kernel is tested against.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The x86 SHA-extensions kernel: four rounds per `sha256rnds2` pair,
/// message schedule by `sha256msg1`/`sha256msg2`, any number of blocks
/// per call with the state held in registers across them.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Sixteen message bytes from anywhere in memory.
    #[inline]
    fn load(bytes: &[u8; 16]) -> __m128i {
        // SAFETY: the reference guarantees 16 readable bytes, and
        // `_mm_loadu_si128` — the only load this kernel uses — has no
        // alignment requirement (`prop_crypto` feeds every offset 0..16).
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// Compress `blocks` into `state`. Only whole 64-byte blocks are
    /// read (`chunks_exact`); callers pass nothing else.
    ///
    /// # Safety
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`. The one
    /// caller, `compress_blocks`, checks with `is_x86_feature_detected!`
    /// first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // The round instruction wants the state as (ABEF, CDGH), A in
        // the top lane.
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Big-endian message words from little-endian lanes.
        let flip = _mm_set_epi64x(0x0c0d0e0f08090a0b, 0x0405060700010203);
        let mut m = [_mm_setzero_si128(); 4];

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Rounds 4i..4i+4. `m[i % 4]` holds W[4i..4i+4]; the schedule
            // for the next group is finished (`msg2`) between the two
            // round instructions and the one after started (`msg1`)
            // behind them, as in Intel's reference flow. Every index and
            // condition is a literal, so this unrolls to straight-line
            // code with `m` in registers.
            macro_rules! rounds4 {
                ($($i:literal)*) => {$(
                    if $i < 4 {
                        let word = block[16 * $i..16 * $i + 16].try_into().expect("16 bytes");
                        m[$i % 4] = _mm_shuffle_epi8(load(word), flip);
                    }
                    let [k0, k1, k2, k3] = [0, 1, 2, 3].map(|j| K[4 * $i + j] as i32);
                    let wk = _mm_add_epi32(m[$i % 4], _mm_set_epi32(k3, k2, k1, k0));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    if $i >= 3 && $i < 15 {
                        let carry = _mm_alignr_epi8::<4>(m[$i % 4], m[($i + 3) % 4]);
                        m[($i + 1) % 4] = _mm_sha256msg2_epu32(
                            _mm_add_epi32(m[($i + 1) % 4], carry),
                            m[$i % 4],
                        );
                    }
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                    if $i >= 1 && $i < 13 {
                        m[($i + 3) % 4] = _mm_sha256msg1_epu32(m[($i + 3) % 4], m[$i % 4]);
                    }
                )*};
            }
            rounds4!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|word| word as u32);
    }
}

/// One-shot SHA-256 returning raw bytes.
pub fn sha256_raw(data: &[u8]) -> [u8; 32] {
    digest_with(compress_blocks, data)
}

/// One-shot SHA-256 through the portable kernel whatever the CPU —
/// the oracle side of the differential tests, not an option.
#[doc(hidden)]
pub fn sha256_portable(data: &[u8]) -> [u8; 32] {
    digest_with(compress_blocks_portable, data)
}

/// One-shot SHA-256 returning a [`Digest`].
pub fn sha256(data: &[u8]) -> Digest {
    Digest(sha256_raw(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        data.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256_raw(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256_raw(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_eq!(
            hex(&sha256_raw(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 100, 9_999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256_raw(&data), "split at {split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // Exercise messages near the 56-byte padding boundary.
        for len in 50..70usize {
            let data = vec![0xabu8; len];
            let d1 = sha256_raw(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
