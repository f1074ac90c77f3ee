//! Deterministic key streams and their exact truth.
//!
//! The stream is cut into fixed-size frames, and frame `i` is drawn
//! from its own RNG seeded by `(seed, i)`. Any frame can therefore be
//! regenerated on its own: the load threads draw open-loop frames on the
//! fly, and the checker replays the whole stream after a run instead of
//! keeping it in memory.

use std::collections::HashMap;

use cots_core::MulHash;
use cots_datagen::AliasTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Keys per `INGEST` frame.
pub const FRAME_KEYS: usize = 8192;

/// A Zipf key stream over ranks `1..=alphabet`, scrambled into `u64`
/// ids so that rank is uncorrelated with key value and shard placement.
///
/// The rank-to-id map is the same for every seed: the seed picks the
/// draws, not which ids are hot. Otherwise the shard that receives the
/// hottest key, and with it the shard imbalance, would change from seed
/// to seed and dominate the spread between runs.
pub struct KeyStream {
    table: AliasTable,
    seed: u64,
    alphabet: usize,
}

/// Offset of the fixed rank-to-id scramble.
const ID_SCRAMBLE: u64 = 0x436f_5453_6b65_7973;

impl KeyStream {
    /// A stream of Zipf(`alpha`) draws over `alphabet` keys.
    pub fn new(alphabet: usize, alpha: f64, seed: u64) -> Self {
        Self {
            table: AliasTable::zipf(alphabet, alpha),
            seed,
            alphabet,
        }
    }

    /// Number of distinct keys the stream can draw.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// The wire id of a rank (a bijection, so distinct ranks never
    /// collide).
    pub fn id_of_rank(&self, rank: u32) -> u64 {
        MulHash::finalize(u64::from(rank).wrapping_add(ID_SCRAMBLE))
    }

    /// Draw one rank from the stream's law with an external RNG (used
    /// for point-query keys).
    pub fn sample_rank(&self, rng: &mut StdRng) -> u32 {
        self.table.sample_rank(rng) as u32
    }

    /// Frame `index`: its ranks and wire ids (both buffers are cleared
    /// first).
    pub fn frame(&self, index: u64, ranks: &mut Vec<u32>, keys: &mut Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(MulHash::finalize(
            self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        ranks.clear();
        keys.clear();
        for _ in 0..FRAME_KEYS {
            let rank = self.table.sample_rank(&mut rng) as u32;
            ranks.push(rank);
            keys.push(self.id_of_rank(rank));
        }
    }

    /// The given frames, in order, as one flat id vector.
    pub fn materialize(&self, frames: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(frames.len() * FRAME_KEYS);
        let (mut ranks, mut keys) = (Vec::new(), Vec::new());
        for &i in frames {
            self.frame(i, &mut ranks, &mut keys);
            out.extend_from_slice(&keys);
        }
        out
    }

    /// Map from wire id back to rank, for every key of the alphabet.
    pub fn rank_index(&self) -> HashMap<u64, u32> {
        (1..=self.alphabet as u32)
            .map(|r| (self.id_of_rank(r), r))
            .collect()
    }
}

/// Exact per-rank counts of a stream prefix.
#[derive(Clone)]
pub struct Truth {
    /// `counts[rank]`; index 0 is unused.
    pub counts: Vec<u32>,
    /// Keys counted.
    pub total: u64,
}

impl Truth {
    /// Empty counts for an alphabet of `alphabet` ranks.
    pub fn new(alphabet: usize) -> Self {
        Self {
            counts: vec![0; alphabet + 1],
            total: 0,
        }
    }

    /// Count one frame's ranks.
    pub fn add(&mut self, ranks: &[u32]) {
        for &r in ranks {
            self.counts[r as usize] += 1;
        }
        self.total += ranks.len() as u64;
    }
}
