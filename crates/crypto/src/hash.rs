//! SHA-256 and SHA-512 implemented from scratch following FIPS 180-4.
//!
//! Both hashers expose a streaming API (`update` / `finalize`) and one-shot
//! convenience functions ([`sha256`], [`sha512`]). The implementations are
//! allocation-free block compressors, measured by the `crypto` micro-bench in
//! `setchain-bench`.
//!
//! SHA-256 compression has two kernels. On x86_64 CPUs whose
//! `is_x86_feature_detected!` reports `sha`, `ssse3` and `sse4.1` it runs on
//! the SHA-NI instructions; elsewhere it runs the portable unrolled FIPS
//! 180-4 code, which also serves as the reference the SHA-NI kernel is tested
//! against. Detection runs once per process, nothing configures the choice,
//! and [`sha256_backend`] reports it. Both kernels produce byte-identical
//! digests, so every HMAC, Merkle root, epoch digest and simulated schedule
//! is the same on either.
//!
//! The SHA-NI kernel is a safe `#[target_feature]` function: its intrinsics
//! take and return values, never pointers. Calling it from code compiled
//! without those features is the crate's one `unsafe` block, placed right
//! after the detection that makes it sound.

use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest256(pub [u8; 32]);

/// A 64-byte SHA-512 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest512(pub [u8; 64]);

impl Digest256 {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Truncates the digest to a `u64` (first 8 bytes, big-endian). Useful as
    /// a compact map key in simulations.
    pub fn short(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl Digest512 {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Truncates the digest to a `u64` (first 8 bytes, big-endian).
    pub fn short(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl Default for Digest512 {
    fn default() -> Self {
        Digest512([0u8; 64])
    }
}

impl fmt::Debug for Digest256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest256({}…)", &self.to_hex()[..16])
    }
}

impl fmt::Debug for Digest512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest512({}…)", &self.to_hex()[..16])
    }
}

fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 {
            state: SHA256_INIT,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Restores the hasher to its freshly-constructed state so it can be
    /// reused for another input without re-allocating.
    pub fn reset(&mut self) {
        self.state = SHA256_INIT;
        self.buffer_len = 0;
        self.total_len = 0;
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                sha256_compress(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // One kernel call per run of whole blocks: the SHA-NI kernel moves
        // the state into SSE lanes once per call, not once per block.
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            sha256_compress(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(self) -> Digest256 {
        self.finalize_with(&[])
    }

    /// Digest of everything absorbed so far followed by `tail`, leaving the
    /// hasher untouched. When the buffered bytes plus `tail` fit in two
    /// padded blocks (at most 119 bytes; 55 for one), the padded message is
    /// built on the stack and compressed in one kernel call from a copy of
    /// the state, with no hasher clone and no `update` pass. This is HMAC's
    /// hot path: both of its finishing hashes start from a precomputed pad
    /// state, and every authenticator message in the workspace fits.
    pub(crate) fn finalize_with(&self, tail: &[u8]) -> Digest256 {
        let n = self.buffer_len;
        let len = n + tail.len();
        if len > 119 {
            let mut h = self.clone();
            h.update(tail);
            return h.finalize();
        }
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        let end = if len < 56 { 64 } else { 128 };
        let mut blocks = [0u8; 128];
        blocks[..n].copy_from_slice(&self.buffer[..n]);
        blocks[n..len].copy_from_slice(tail);
        blocks[len] = 0x80;
        let bit_len = self
            .total_len
            .wrapping_add(tail.len() as u64)
            .wrapping_mul(8);
        blocks[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        let mut state = self.state;
        sha256_compress(&mut state, &blocks[..end]);
        digest_from_state(&state)
    }

    /// Finishes the hash, returns the digest, and resets the hasher for the
    /// next input. This is the reuse primitive behind [`sha256_many`]: a
    /// single hasher streams through many inputs with zero per-input setup.
    pub fn finalize_reset(&mut self) -> Digest256 {
        let digest = self.finalize_with(&[]);
        self.reset();
        digest
    }
}

fn digest_from_state(state: &[u32; 8]) -> Digest256 {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest256(out)
}

/// The SHA-256 compression function over `blocks`, a whole number of
/// 64-byte blocks, on the SHA-NI kernel when this CPU has it and on
/// [`sha256_compress_portable`] otherwise. Both leave the same state bit
/// for bit.
///
/// # Panics
///
/// If `blocks.len()` is not a multiple of 64.
pub fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "whole 64-byte blocks only");
    if !sha_ni::compress_blocks(state, blocks) {
        sha256_compress_portable(state, blocks);
    }
}

/// [`sha256_compress`] on the portable kernel, whatever the CPU: the
/// fallback and the reference the SHA-NI kernel is tested against.
///
/// # Panics
///
/// If `blocks.len()` is not a multiple of 64.
pub fn sha256_compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "whole 64-byte blocks only");
    for block in blocks.chunks_exact(64) {
        compress_portable(state, block.try_into().expect("64 bytes"));
    }
}

/// Name of the SHA-256 compression kernel this process runs: `"sha-ni"`
/// when the CPU has the SHA extensions (with SSSE3 and SSE4.1), else
/// `"portable"`. Host-time hashing figures are only comparable between
/// runs that report the same backend.
pub fn sha256_backend() -> &'static str {
    if sha_ni::available() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// The portable FIPS 180-4 compression of one block.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    // Fully unrolled: the message schedule lives in a 16-word ring extended
    // in place, and the eight working variables rotate *roles* through the
    // macro's argument order instead of being shuffled through eight moves
    // per round. Both keep everything in registers.
    let mut w = [0u32; 16];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    macro_rules! rnd {
        ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident,$k:expr,$w:expr) => {{
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add($k)
                .wrapping_add($w);
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        }};
    }
    macro_rules! extend {
        ($i:expr) => {{
            let s0 = w[($i + 1) & 15].rotate_right(7)
                ^ w[($i + 1) & 15].rotate_right(18)
                ^ (w[($i + 1) & 15] >> 3);
            let s1 = w[($i + 14) & 15].rotate_right(17)
                ^ w[($i + 14) & 15].rotate_right(19)
                ^ (w[($i + 14) & 15] >> 10);
            w[$i] = w[$i]
                .wrapping_add(s0)
                .wrapping_add(w[($i + 9) & 15])
                .wrapping_add(s1);
        }};
    }
    macro_rules! sixteen {
        ($base:expr) => {{
            rnd!(a, b, c, d, e, f, g, h, SHA256_K[$base], w[0]);
            rnd!(h, a, b, c, d, e, f, g, SHA256_K[$base + 1], w[1]);
            rnd!(g, h, a, b, c, d, e, f, SHA256_K[$base + 2], w[2]);
            rnd!(f, g, h, a, b, c, d, e, SHA256_K[$base + 3], w[3]);
            rnd!(e, f, g, h, a, b, c, d, SHA256_K[$base + 4], w[4]);
            rnd!(d, e, f, g, h, a, b, c, SHA256_K[$base + 5], w[5]);
            rnd!(c, d, e, f, g, h, a, b, SHA256_K[$base + 6], w[6]);
            rnd!(b, c, d, e, f, g, h, a, SHA256_K[$base + 7], w[7]);
            rnd!(a, b, c, d, e, f, g, h, SHA256_K[$base + 8], w[8]);
            rnd!(h, a, b, c, d, e, f, g, SHA256_K[$base + 9], w[9]);
            rnd!(g, h, a, b, c, d, e, f, SHA256_K[$base + 10], w[10]);
            rnd!(f, g, h, a, b, c, d, e, SHA256_K[$base + 11], w[11]);
            rnd!(e, f, g, h, a, b, c, d, SHA256_K[$base + 12], w[12]);
            rnd!(d, e, f, g, h, a, b, c, SHA256_K[$base + 13], w[13]);
            rnd!(c, d, e, f, g, h, a, b, SHA256_K[$base + 14], w[14]);
            rnd!(b, c, d, e, f, g, h, a, SHA256_K[$base + 15], w[15]);
        }};
    }
    macro_rules! extend_sixteen {
        () => {{
            extend!(0);
            extend!(1);
            extend!(2);
            extend!(3);
            extend!(4);
            extend!(5);
            extend!(6);
            extend!(7);
            extend!(8);
            extend!(9);
            extend!(10);
            extend!(11);
            extend!(12);
            extend!(13);
            extend!(14);
            extend!(15);
        }};
    }

    sixteen!(0);
    extend_sixteen!();
    sixteen!(16);
    extend_sixteen!();
    sixteen!(32);
    extend_sixteen!();
    sixteen!(48);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-NI compression kernel (Intel SHA extensions), selected at run
/// time by [`sha_ni::available`].
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::SHA256_K;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// True when this CPU can run [`kernel`]. Detected once per process.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Compresses `blocks` into `state` on the SHA-NI kernel and returns
    /// true, or leaves `state` untouched and returns false when this CPU
    /// lacks the instructions.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `kernel` is a safe function whose only precondition is the
        // CPU support for the target features it enables. `available()` has
        // just confirmed `sha`, `ssse3` and `sse4.1`, and `sse2` is part of
        // the x86_64 baseline.
        #[allow(unsafe_code)]
        unsafe {
            kernel(state, blocks)
        };
        true
    }

    /// SHA-256 over whole 64-byte blocks with `sha256rnds2` (two rounds per
    /// instruction) and `sha256msg1`/`sha256msg2` (message schedule). The
    /// eight working variables live in two lanes, ABEF and CDGH (highest
    /// lane first), for the whole run of blocks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        let lanes =
            |w: [u32; 4]| _mm_setr_epi32(w[0] as i32, w[1] as i32, w[2] as i32, w[3] as i32);
        let mut abef = lanes([state[5], state[4], state[1], state[0]]);
        let mut cdgh = lanes([state[7], state[6], state[3], state[2]]);

        // Four rounds: add the round constants to the four schedule words,
        // then two `sha256rnds2`, each consuming the low two words.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {{
                let k = [
                    SHA256_K[4 * $i],
                    SHA256_K[4 * $i + 1],
                    SHA256_K[4 * $i + 2],
                    SHA256_K[4 * $i + 3],
                ];
                let wk = _mm_add_epi32($w, lanes(k));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        // W[t..t+4] from the previous sixteen words, held in four lanes.
        macro_rules! schedule {
            ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
                _mm_sha256msg2_epu32(
                    _mm_add_epi32(
                        _mm_sha256msg1_epu32($w0, $w1),
                        _mm_alignr_epi8::<4>($w3, $w2),
                    ),
                    $w3,
                )
            };
        }

        for block in blocks.chunks_exact(64) {
            let word =
                |i: usize| u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
            let mut w0 = lanes([word(0), word(1), word(2), word(3)]);
            let mut w1 = lanes([word(4), word(5), word(6), word(7)]);
            let mut w2 = lanes([word(8), word(9), word(10), word(11)]);
            let mut w3 = lanes([word(12), word(13), word(14), word(15)]);
            let (abef_in, cdgh_in) = (abef, cdgh);

            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            // Rounds 16..64: the schedule rotates through the same four
            // registers, each refilled from the four before it.
            for i in 1..4 {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(w0, 4 * i);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(w1, 4 * i + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(w2, 4 * i + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(w3, 4 * i + 3);
            }

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }
}

/// Stand-in on targets without the x86 SHA extensions: the portable
/// compression always runs.
#[cfg(not(target_arch = "x86_64"))]
mod sha_ni {
    pub(super) fn available() -> bool {
        false
    }

    pub(super) fn compress_blocks(_state: &mut [u32; 8], _blocks: &[u8]) -> bool {
        false
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

// ---------------------------------------------------------------------------
// SHA-512
// ---------------------------------------------------------------------------

const SHA512_K: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

const SHA512_INIT: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Streaming SHA-512 hasher.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; 128],
    buffer_len: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a hasher with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha512 {
            state: SHA512_INIT,
            buffer: [0u8; 128],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Restores the hasher to its freshly-constructed state so it can be
    /// reused for another input without re-allocating.
    pub fn reset(&mut self) {
        self.state = SHA512_INIT;
        self.buffer_len = 0;
        self.total_len = 0;
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (128 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 128 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 128 {
            let block: [u8; 128] = data[..128].try_into().expect("128 bytes");
            self.compress(&block);
            data = &data[128..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest512 {
        self.finalize_digest()
    }

    /// Finishes the hash, returns the digest, and resets the hasher for the
    /// next input (see [`Sha256::finalize_reset`]).
    pub fn finalize_reset(&mut self) -> Digest512 {
        let digest = self.finalize_digest();
        self.reset();
        digest
    }

    fn finalize_digest(&mut self) -> Digest512 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding written straight into the block buffer (0x80, zeros,
        // 128-bit big-endian length), skipping the per-byte update path.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        if n + 1 > 112 {
            self.buffer[n + 1..].fill(0);
            let block = self.buffer;
            self.compress(&block);
            self.buffer[..112].fill(0);
        } else {
            self.buffer[n + 1..112].fill(0);
        }
        self.buffer[112..128].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 64];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
        Digest512(out)
    }

    fn compress(&mut self, block: &[u8; 128]) {
        // Same fully unrolled shape as `Sha256::compress` (rotating register
        // roles, 16-word ring schedule); SHA-512 runs 80 rounds in five
        // blocks of 16. Batch/epoch hashing and every signature in the
        // workspace land here.
        let mut w = [0u64; 16];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(8)) {
            *wi = u64::from_be_bytes(chunk.try_into().expect("8 bytes"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        macro_rules! rnd {
            ($a:ident,$b:ident,$c:ident,$d:ident,$e:ident,$f:ident,$g:ident,$h:ident,$k:expr,$w:expr) => {{
                let t1 = $h
                    .wrapping_add($e.rotate_right(14) ^ $e.rotate_right(18) ^ $e.rotate_right(41))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add($k)
                    .wrapping_add($w);
                let t2 = ($a.rotate_right(28) ^ $a.rotate_right(34) ^ $a.rotate_right(39))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            }};
        }
        macro_rules! extend {
            ($i:expr) => {{
                let s0 = w[($i + 1) & 15].rotate_right(1)
                    ^ w[($i + 1) & 15].rotate_right(8)
                    ^ (w[($i + 1) & 15] >> 7);
                let s1 = w[($i + 14) & 15].rotate_right(19)
                    ^ w[($i + 14) & 15].rotate_right(61)
                    ^ (w[($i + 14) & 15] >> 6);
                w[$i] = w[$i]
                    .wrapping_add(s0)
                    .wrapping_add(w[($i + 9) & 15])
                    .wrapping_add(s1);
            }};
        }
        macro_rules! sixteen {
            ($base:expr) => {{
                rnd!(a, b, c, d, e, f, g, h, SHA512_K[$base], w[0]);
                rnd!(h, a, b, c, d, e, f, g, SHA512_K[$base + 1], w[1]);
                rnd!(g, h, a, b, c, d, e, f, SHA512_K[$base + 2], w[2]);
                rnd!(f, g, h, a, b, c, d, e, SHA512_K[$base + 3], w[3]);
                rnd!(e, f, g, h, a, b, c, d, SHA512_K[$base + 4], w[4]);
                rnd!(d, e, f, g, h, a, b, c, SHA512_K[$base + 5], w[5]);
                rnd!(c, d, e, f, g, h, a, b, SHA512_K[$base + 6], w[6]);
                rnd!(b, c, d, e, f, g, h, a, SHA512_K[$base + 7], w[7]);
                rnd!(a, b, c, d, e, f, g, h, SHA512_K[$base + 8], w[8]);
                rnd!(h, a, b, c, d, e, f, g, SHA512_K[$base + 9], w[9]);
                rnd!(g, h, a, b, c, d, e, f, SHA512_K[$base + 10], w[10]);
                rnd!(f, g, h, a, b, c, d, e, SHA512_K[$base + 11], w[11]);
                rnd!(e, f, g, h, a, b, c, d, SHA512_K[$base + 12], w[12]);
                rnd!(d, e, f, g, h, a, b, c, SHA512_K[$base + 13], w[13]);
                rnd!(c, d, e, f, g, h, a, b, SHA512_K[$base + 14], w[14]);
                rnd!(b, c, d, e, f, g, h, a, SHA512_K[$base + 15], w[15]);
            }};
        }
        macro_rules! extend_sixteen {
            () => {{
                extend!(0);
                extend!(1);
                extend!(2);
                extend!(3);
                extend!(4);
                extend!(5);
                extend!(6);
                extend!(7);
                extend!(8);
                extend!(9);
                extend!(10);
                extend!(11);
                extend!(12);
                extend!(13);
                extend!(14);
                extend!(15);
            }};
        }

        sixteen!(0);
        extend_sixteen!();
        sixteen!(16);
        extend_sixteen!();
        sixteen!(32);
        extend_sixteen!();
        sixteen!(48);
        extend_sixteen!();
        sixteen!(64);

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-512 of `data`.
pub fn sha512(data: &[u8]) -> Digest512 {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of many independent inputs through one reused hasher.
///
/// Equivalent to `inputs.map(sha256)` but allocation-free on the hashing
/// side: a single hasher is reset between inputs instead of being
/// constructed per input, and the output vector is the only allocation.
/// The PKI bootstrap derives every key seed of a deployment through one
/// pass of this function.
pub fn sha256_many<'a, I>(inputs: I) -> Vec<Digest256>
where
    I: IntoIterator<Item = &'a [u8]>,
{
    let inputs = inputs.into_iter();
    let mut out = Vec::with_capacity(inputs.size_hint().0);
    let mut h = Sha256::new();
    for input in inputs {
        h.update(input);
        out.push(h.finalize_reset());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    type Compress = fn(&mut [u32; 8], &[u8]);

    fn hardware(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(sha_ni::compress_blocks(state, blocks), "SHA-NI absent");
    }

    /// Every compression this CPU can run, each called directly. The
    /// hardware half is absent on a CPU without SHA-NI.
    fn backends() -> Vec<(&'static str, Compress)> {
        let mut all: Vec<(&'static str, Compress)> = vec![("portable", sha256_compress_portable)];
        if sha_ni::available() {
            all.push(("sha-ni", hardware));
        }
        all
    }

    /// One-shot SHA-256 padded here, independently of [`Sha256`], with every
    /// block compressed by `compress`.
    fn sha256_via(compress: Compress, data: &[u8]) -> Digest256 {
        let mut msg = data.to_vec();
        msg.push(0x80);
        msg.resize(msg.len().next_multiple_of(64).max(64), 0);
        if msg.len() - data.len() < 9 {
            msg.resize(msg.len() + 64, 0);
        }
        let at = msg.len() - 8;
        msg[at..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = SHA256_INIT;
        compress(&mut state, &msg);
        digest_from_state(&state)
    }

    /// Checks a known SHA-256 digest on the dispatched hasher and on every
    /// backend directly.
    fn assert_sha256(data: &[u8], hex: &str) {
        assert_eq!(sha256(data).to_hex(), hex, "dispatched");
        for (name, compress) in backends() {
            assert_eq!(sha256_via(compress, data).to_hex(), hex, "{name}");
        }
    }

    // NIST / well-known test vectors.
    #[test]
    fn sha256_empty() {
        assert_sha256(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn sha256_abc() {
        assert_sha256(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_sha256(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn sha256_million_a() {
        assert_sha256(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// Textbook RFC 2104 HMAC over `sha256_via`, sharing no code with
    /// [`crate::HmacSha256Key`].
    fn hmac_via(compress: Compress, key: &[u8], message: &[u8]) -> Digest256 {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(sha256_via(compress, key).as_bytes());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| block.iter().map(|b| b ^ byte).collect::<Vec<u8>>();
        let inner = sha256_via(compress, &[pad(0x36), message.to_vec()].concat());
        sha256_via(compress, &[pad(0x5c), inner.as_bytes().to_vec()].concat())
    }

    #[test]
    fn rfc4231_hmac_sha256_on_every_backend() {
        let cases: [(&[u8], &[u8], &str); 5] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, message, hex) in cases {
            assert_eq!(crate::hmac_sha256(key, message).to_hex(), hex, "dispatched");
            for (name, compress) in backends() {
                assert_eq!(hmac_via(compress, key, message).to_hex(), hex, "{name}");
            }
        }
    }

    #[test]
    fn finalize_with_matches_update_then_finalize() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        // Prefixes leave the buffer empty, partly full and nearly full; tails
        // straddle the one-block (55-byte) and two-block (119-byte) limits.
        for prefix in [0usize, 1, 20, 55, 56, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            h.update(&data[..prefix]);
            for tail in [0usize, 1, 30, 35, 36, 54, 55, 56, 64, 99, 119, 120, 180] {
                let tail = &data[prefix..prefix + tail];
                let mut expected = h.clone();
                expected.update(tail);
                assert_eq!(
                    h.finalize_with(tail),
                    expected.finalize(),
                    "prefix={prefix} tail={}",
                    tail.len()
                );
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn sha_ni_compression_matches_portable(
                s in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(),
                      any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
                bytes in proptest::collection::vec(any::<u8>(), 64..400),
            ) {
                if !sha_ni::available() {
                    return;
                }
                let blocks = &bytes[..bytes.len() / 64 * 64];
                let mut expected = [s.0, s.1, s.2, s.3, s.4, s.5, s.6, s.7];
                let mut actual = expected;
                sha256_compress_portable(&mut expected, blocks);
                hardware(&mut actual, blocks);
                prop_assert_eq!(actual, expected);
            }

            #[test]
            fn split_updates_match_one_shot_on_every_backend(
                data in proptest::collection::vec(any::<u8>(), 0..300),
                cuts in (0usize..300, 0usize..300),
            ) {
                let (a, b) = (cuts.0.min(data.len()), cuts.1.min(data.len()));
                let (a, b) = (a.min(b), a.max(b));
                let mut h = Sha256::new();
                h.update(&data[..a]);
                h.update(&data[a..b]);
                h.update(&data[b..]);
                let streamed = h.finalize();
                for (name, compress) in backends() {
                    prop_assert_eq!(streamed, sha256_via(compress, &data), "{}", name);
                }
            }
        }
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            sha512(b"").to_hex(),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            sha512(b"abc").to_hex(),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_two_block_message() {
        assert_eq!(
            sha512(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
                    .iter()
                    .copied()
                    .filter(|b| !b.is_ascii_whitespace())
                    .collect::<Vec<u8>>()
                    .as_slice()
            )
            .to_hex(),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha512(&data).to_hex(),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb\
             de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        // Feed in irregular chunk sizes.
        let mut h256 = Sha256::new();
        let mut h512 = Sha512::new();
        let mut off = 0usize;
        let mut step = 1usize;
        while off < data.len() {
            let end = (off + step).min(data.len());
            h256.update(&data[off..end]);
            h512.update(&data[off..end]);
            off = end;
            step = (step * 7 + 3) % 257 + 1;
        }
        assert_eq!(h256.finalize(), sha256(&data));
        assert_eq!(h512.finalize(), sha512(&data));
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"hello");
        assert_eq!(d.as_bytes().len(), 32);
        assert_eq!(d.to_hex().len(), 64);
        let d2 = sha512(b"hello");
        assert_eq!(d2.as_bytes().len(), 64);
        assert_eq!(d2.to_hex().len(), 128);
        assert_ne!(d.short(), 0);
        assert_ne!(d2.short(), 0);
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha512(b"a"), sha512(b"b"));
    }

    #[test]
    fn reset_and_finalize_reset_match_fresh_hashers() {
        let mut h = Sha256::new();
        h.update(b"first input");
        assert_eq!(h.finalize_reset(), sha256(b"first input"));
        // The same hasher, reused, matches a fresh one.
        h.update(b"second");
        h.update(b" input");
        assert_eq!(h.finalize_reset(), sha256(b"second input"));
        // An explicit reset discards partial input.
        h.update(b"to be discarded");
        h.reset();
        h.update(b"abc");
        assert_eq!(
            h.finalize_reset().to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );

        let mut h512 = Sha512::new();
        h512.update(b"x");
        assert_eq!(h512.finalize_reset(), sha512(b"x"));
        h512.update(b"to be discarded");
        h512.reset();
        h512.update(b"y");
        assert_eq!(h512.finalize_reset(), sha512(b"y"));
    }

    #[test]
    fn sha256_many_matches_one_shots() {
        let inputs: Vec<Vec<u8>> = (0..50u32)
            .map(|i| (0..i * 13).map(|j| (j % 251) as u8).collect())
            .collect();
        let digests = sha256_many(inputs.iter().map(|v| v.as_slice()));
        assert_eq!(digests.len(), inputs.len());
        for (input, digest) in inputs.iter().zip(&digests) {
            assert_eq!(*digest, sha256(input));
        }
        assert!(sha256_many(std::iter::empty()).is_empty());
    }
}
