//! Seeded input generation. Everything the program receives during a run
//! is a pure function of the workload seed: the study's ecosystem seeds
//! and the stream's ecosystem, titles and sample pool.

use wideleak::bmff::types::Subsample;
use wideleak::cdm::oemcrypto::SampleCrypto;

/// splitmix64: small, fast, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    pub fn array<const N: usize>(&mut self) -> [u8; N] {
        self.bytes(N).try_into().expect("bytes returns exactly N")
    }
}

/// An independent sub-seed for stream `stream` of run seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Sub-seed streams, one per independent input of a run.
pub mod stream {
    pub const ECOSYSTEM: u64 = 1;
    pub const POOL: u64 = 4;
    pub const PLAYERS: u64 = 5;
    /// Study passes use `PASS + i`.
    pub const PASS: u64 = 1 << 20;
}

/// What a stream sample is, which decides the key it is encrypted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    Video,
    Audio,
}

/// One plaintext sample of the decrypt stream with its encryption
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSample {
    pub track: Track,
    pub crypto: SampleCrypto,
    pub subsamples: Vec<Subsample>,
    pub plaintext: Vec<u8>,
}

/// Audio sample size of the program's content model (`synth_samples`);
/// each pool audio sample is this plus up to 128 bytes.
pub const AUDIO_BYTES: usize = 960;

/// Full-sample `cenc` video sizes in KiB: one sample of each per cycle.
pub const CENC_VIDEO_KIB: [usize; 6] = [32, 64, 128, 256, 512, 1024];
/// `cbcs` 1:9 video sizes in KiB, each with a clear leading subsample.
pub const CBCS_VIDEO_KIB: [usize; 3] = [64, 256, 1024];

/// A player's sample pool, in play order: each video sample is followed
/// by one audio sample, the program's own mix (`synth_samples` makes
/// `SAMPLES_PER_SEGMENT` samples for every track of a segment, audio
/// and video alike). The composition and the order of sizes are fixed,
/// so every cycle carries the same bytes (within 1/32) and the same mix
/// of large and small calls at every seed; the seed picks each sample's
/// exact size, content, IVs and subsample layout.
pub fn stream_pool(seed: u64, player: u64) -> Vec<PoolSample> {
    let mut rng = Rng::new(derive(derive(seed, stream::POOL), player));
    let jittered =
        |rng: &mut Rng, kib: usize| kib * 1024 - rng.below((kib * 1024 / 32) as u64) as usize;
    let mut video = Vec::new();
    for kib in CENC_VIDEO_KIB {
        let len = jittered(&mut rng, kib);
        video.push(PoolSample {
            track: Track::Video,
            crypto: SampleCrypto::Cenc { iv: rng.array() },
            subsamples: Vec::new(),
            plaintext: rng.bytes(len),
        });
    }
    for kib in CBCS_VIDEO_KIB {
        let len = jittered(&mut rng, kib);
        let clear = 16 + rng.below(240) as usize;
        video.push(PoolSample {
            track: Track::Video,
            crypto: SampleCrypto::Cbcs {
                constant_iv: rng.array(),
                crypt_blocks: 1,
                skip_blocks: 9,
            },
            subsamples: vec![subsample(clear, len - clear)],
            plaintext: rng.bytes(len),
        });
    }
    // Large and small video alternate: cenc 1 MiB, cbcs 64 KiB, cenc
    // 512 KiB, cenc 32 KiB, cbcs 1 MiB, cenc 64 KiB, cenc 256 KiB, cbcs
    // 256 KiB, cenc 128 KiB.
    let order = [5, 6, 4, 0, 8, 1, 3, 7, 2];
    let mut pool = Vec::new();
    for &v in &order {
        pool.push(video[v].clone());
        let len = AUDIO_BYTES + rng.below(129) as usize;
        let header = 7 + rng.below(9) as usize;
        let split = header + 64 + rng.below(512) as usize;
        let trailer = 2 + rng.below(6) as usize;
        pool.push(PoolSample {
            track: Track::Audio,
            crypto: SampleCrypto::Cenc { iv: rng.array() },
            subsamples: vec![
                subsample(header, split - header),
                subsample(trailer, len - split - trailer),
            ],
            plaintext: rng.bytes(len),
        });
    }
    pool
}

fn subsample(clear: usize, encrypted: usize) -> Subsample {
    Subsample {
        clear_bytes: u16::try_from(clear).expect("clear prefixes are < 64 KiB"),
        encrypted_bytes: u32::try_from(encrypted).expect("samples are < 4 GiB"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_a_pure_function_of_the_seed_with_a_fixed_composition() {
        let a = stream_pool(21, 0);
        assert_eq!(a, stream_pool(21, 0));
        assert_ne!(a, stream_pool(22, 0));
        assert_ne!(a, stream_pool(21, 1));
        let bytes = |p: &[PoolSample]| p.iter().map(|s| s.plaintext.len()).sum::<usize>();
        let nominal =
            (CENC_VIDEO_KIB.iter().sum::<usize>() + CBCS_VIDEO_KIB.iter().sum::<usize>()) * 1024;
        for seed in 0..20 {
            let pool = stream_pool(seed, 0);
            assert_eq!(pool.len(), 2 * (CENC_VIDEO_KIB.len() + CBCS_VIDEO_KIB.len()));
            let audio = pool.iter().filter(|s| s.track == Track::Audio).count();
            assert_eq!(audio * 2, pool.len());
            let b = bytes(&pool);
            assert!(b <= nominal + 9 * (AUDIO_BYTES + 128) && b >= nominal * 31 / 32, "{b}");
            for s in &pool {
                let covered: usize = s
                    .subsamples
                    .iter()
                    .map(|x| x.clear_bytes as usize + x.encrypted_bytes as usize)
                    .sum();
                assert!(s.subsamples.is_empty() || covered == s.plaintext.len());
            }
        }
    }
}
