//! A minimal, self-contained SHA-256 implementation exposing the subset of
//! the `sha2` crate API this workspace uses (`Sha256`, the `Digest` trait
//! with `new`/`update`/`finalize`).
//!
//! The container this workspace builds in has no access to crates.io, so the
//! real `sha2` crate cannot be fetched; this shim implements FIPS 180-4
//! SHA-256 faithfully (the workspace's known-answer tests check it against
//! published vectors).
//!
//! Like the real crate, it picks its compression kernel at run time: on
//! x86-64 CPUs with the SHA extensions it uses the SHA-NI instructions,
//! everywhere else the portable scalar code. The choice is made once per
//! process from CPU feature detection alone, and the tests check the two
//! kernels against each other.

use std::sync::OnceLock;

/// Streaming digest interface matching the subset of `sha2::Digest` in use.
pub trait Digest {
    /// Creates a fresh hasher.
    fn new() -> Self;
    /// Feeds bytes into the hasher.
    fn update(&mut self, data: impl AsRef<[u8]>);
    /// Consumes the hasher and returns the digest bytes.
    fn finalize(self) -> [u8; 32];
}

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A compression kernel: folds every 64-byte block of `blocks` (whose
/// length is a multiple of 64) into `state`, in order.
type Kernel = fn(&mut [u32; 8], &[u8]);

/// The fastest kernel this CPU supports, detected on first use.
fn detected_kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = shani::kernel() {
            return kernel;
        }
        compress_scalar
    })
}

/// SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::with_kernel(detected_kernel())
    }
}

impl Sha256 {
    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
            kernel,
        }
    }
}

/// The portable FIPS 180-4 compression function, one block at a time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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
            let ch = (e & f) ^ (!e & g);
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
}

/// The SHA-NI kernel (Intel SHA extensions, x86-64 only).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{Kernel, K};
    use std::arch::x86_64::*;

    /// The SHA-NI kernel, if this CPU has every feature it needs.
    pub(super) fn kernel() -> Option<Kernel> {
        let supported = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        supported.then_some(compress_detected as Kernel)
    }

    /// Safe entry point; private, and only handed out by [`kernel`].
    fn compress_detected(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `kernel` returns this function only after detecting every
        // CPU feature `compress` enables.
        unsafe { compress(state, blocks) }
    }

    /// Message schedule for the next four words, from the previous sixteen
    /// (`w0` oldest).
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Rounds 4g..4g+4 over the schedule words `w` (words 4g..4g+4).
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
        let k = &K[4 * g..4 * g + 4];
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// Compresses every 64-byte block of `blocks` into `state`, loading and
    /// storing the state once for the whole run of blocks.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
    /// features.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Byte shuffle turning each little-endian lane into a big-endian word.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is eight u32s, i.e. two 16-byte unaligned loads.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        // The round instructions take the state as (a, b, e, f) and
        // (c, d, g, h).
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 bytes, i.e. four 16-byte unaligned loads.
            let [mut w0, mut w1, mut w2, mut w3] = unsafe {
                [0, 16, 32, 48].map(|at| {
                    _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(at).cast()), bswap)
                })
            };
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for group in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, group);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, group + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, group + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is eight u32s, i.e. two 16-byte unaligned stores.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
        }
    }
}

impl Digest for Sha256 {
    fn new() -> Self {
        Sha256::default()
    }

    fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut input = data.as_ref();
        self.length_bytes = self.length_bytes.wrapping_add(input.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                (self.kernel)(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
            if input.is_empty() {
                // The partial block stays buffered for the next update.
                return;
            }
        }
        // Every full block of this update goes to the kernel in one call.
        let full = input.len() - input.len() % 64;
        let (blocks, rest) = input.split_at(full);
        if !blocks.is_empty() {
            (self.kernel)(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
        let mut pad = [0u8; 128];
        pad[0] = 0x80;
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            120 - self.buffered
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string_vector() {
        let h = Sha256::new();
        assert_eq!(
            hex(&h.finalize()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        let mut h = Sha256::new();
        h.update(b"abc");
        assert_eq!(
            hex(&h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        let mut h = Sha256::new();
        h.update(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        assert_eq!(
            hex(&h.finalize()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn split_updates_match_single_update() {
        let mut a = Sha256::new();
        a.update(b"hello ");
        a.update(b"world");
        let mut b = Sha256::new();
        b.update(b"hello world");
        assert_eq!(a.finalize(), b.finalize());
    }

    /// Every kernel this CPU can run, scalar first. Says so on stderr
    /// (past the test harness's output capture) when the SHA-NI kernel is
    /// missing, so a scalar-only run never passes as a cross-check.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels = vec![("scalar", compress_scalar as Kernel)];
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = shani::kernel() {
            kernels.push(("sha-ni", kernel));
        }
        if kernels.len() == 1 {
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "sha2: no SHA-NI on this CPU; the scalar/SHA-NI cross-check did not run"
            );
        }
        kernels
    }

    /// SplitMix64: a seeded stream for test messages and split points.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn digest_parts(kernel: Kernel, parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    #[test]
    fn million_a_vector() {
        let expected = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let chunk = [b'a'; 1000];
        for (name, kernel) in kernels() {
            // 1000-byte updates cross block boundaries through the buffer;
            // one 10^6-byte update feeds the kernel 15 625 blocks at once.
            let mut h = Sha256::with_kernel(kernel);
            for _ in 0..1000 {
                h.update(chunk);
            }
            assert_eq!(hex(&h.finalize()), expected, "{name}, streamed");
            let whole = vec![b'a'; 1_000_000];
            assert_eq!(
                hex(&digest_parts(kernel, &[&whole])),
                expected,
                "{name}, one update"
            );
        }
    }

    #[test]
    fn kernels_agree_on_every_length_single_and_split() {
        let kernels = kernels();
        let mut rng = 0x5eed_u64;
        for len in 0..=1024usize {
            let msg: Vec<u8> = (0..len).map(|_| splitmix(&mut rng) as u8).collect();
            // Random split points, including empty parts and repeats.
            let mut cuts: Vec<usize> = (0..splitmix(&mut rng) % 6)
                .map(|_| (splitmix(&mut rng) % (len as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                parts.push(&msg[from..cut]);
                from = cut;
            }
            let reference = digest_parts(compress_scalar, &[&msg]);
            for &(name, kernel) in &kernels {
                assert_eq!(
                    digest_parts(kernel, &[&msg]),
                    reference,
                    "{name}, len {len}, one update"
                );
                assert_eq!(
                    digest_parts(kernel, &parts),
                    reference,
                    "{name}, len {len}, split {:?}",
                    parts.iter().map(|p| p.len()).collect::<Vec<_>>()
                );
            }
        }
    }
}
