//! Seeded input composer.
//!
//! `sunder_workloads::Benchmark::build` fixes its own RNG seed, so the
//! bytes it returns are the same on every call. The benchmark therefore
//! builds one *pool* per workload and derives the seed-dependent streams
//! itself: a stream is a `--seed`-driven shuffle of the pool's 4 KiB
//! blocks. Shuffling whole blocks keeps the pool's symbol statistics and
//! (up to the patterns cut at block edges) its report density, while the
//! program under test sees different bytes for every seed.

/// Block granularity of the shuffle.
pub const BLOCK_BYTES: usize = 4096;

/// The splitmix64 generator (Steele, Lea & Flood): tiny, seedable, and
/// good enough to drive a Fisher–Yates shuffle.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁵⁰ for the
    /// block counts used here.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Composes stream number `stream` of `len` bytes from `pool`.
///
/// The stream is a concatenation of independent permutations of the
/// pool's blocks, cut to `len`; a stream shorter than the pool is the
/// head of one permutation. `len` and `pool.len()` must be multiples of
/// [`BLOCK_BYTES`].
pub fn compose_stream(pool: &[u8], seed: u64, stream: usize, len: usize) -> Vec<u8> {
    assert!(
        !pool.is_empty() && pool.len().is_multiple_of(BLOCK_BYTES),
        "pool must be whole blocks"
    );
    assert!(
        len.is_multiple_of(BLOCK_BYTES),
        "stream must be whole blocks"
    );
    let blocks = pool.len() / BLOCK_BYTES;
    // Decorrelate the streams of one seed from each other and from the
    // neighbouring seeds' streams.
    let mut rng = SplitMix64::new(seed ^ (stream as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut order: Vec<usize> = (0..blocks).collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        for i in (1..blocks).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &b in &order {
            if out.len() == len {
                break;
            }
            out.extend_from_slice(&pool[b * BLOCK_BYTES..(b + 1) * BLOCK_BYTES]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Expected;
    use sunder_oracle::ReferenceOracle;
    use sunder_workloads::{Benchmark, Scale};

    fn pool() -> (sunder_automata::Nfa, Vec<u8>) {
        // Brill reports about once per byte, so density is a stable
        // statistic even on a small pool.
        let w = Benchmark::Brill.build(Scale {
            state_fraction: 0.02,
            input_len: 64 * BLOCK_BYTES,
        });
        (w.nfa, w.input)
    }

    fn reports(nfa: &sunder_automata::Nfa, bytes: &[u8]) -> u64 {
        Expected::compute(&mut ReferenceOracle::new(nfa).unwrap(), bytes, bytes.len())
            .unwrap()
            .reports_in(bytes.len() as u64)
    }

    #[test]
    fn same_seed_gives_identical_bytes_and_digests() {
        let (nfa, pool) = pool();
        let a = compose_stream(&pool, 7, 0, 96 * BLOCK_BYTES);
        let b = compose_stream(&pool, 7, 0, 96 * BLOCK_BYTES);
        assert_eq!(a, b);
        assert_eq!(reports(&nfa, &a), reports(&nfa, &b));
    }

    #[test]
    fn streams_and_seeds_differ_but_keep_report_density() {
        let (nfa, pool) = pool();
        let len = pool.len();
        let a = compose_stream(&pool, 7, 0, len);
        let other_stream = compose_stream(&pool, 7, 1, len);
        let other_seed = compose_stream(&pool, 8, 0, len);
        assert_ne!(a, other_stream);
        assert_ne!(a, other_seed);
        let density = |bytes: &[u8]| reports(&nfa, bytes) as f64 / bytes.len() as f64;
        let (da, db) = (density(&a), density(&other_seed));
        assert!(da > 0.1, "pool must report: {da}");
        assert!((da - db).abs() / da < 0.05, "density {da} vs {db}");
    }

    #[test]
    fn a_full_length_stream_is_a_permutation_of_the_pool() {
        let (_, pool) = pool();
        let s = compose_stream(&pool, 3, 0, pool.len());
        let mut want: Vec<&[u8]> = pool.chunks(BLOCK_BYTES).collect();
        let mut got: Vec<&[u8]> = s.chunks(BLOCK_BYTES).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got);
    }
}
