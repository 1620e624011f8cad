//! Seeded input generation: every payload, clue, jsn and op choice the
//! benchmark sends comes from here, and the server sees only the result.
//! The same `--seed` gives byte-identical inputs on every run.

use ledgerdb_core::TxRequest;
use ledgerdb_crypto::KeyPair;

/// Payload bytes per journal (the paper's Fig 8 default).
pub const PAYLOAD_BYTES: usize = 256;
/// Telemetry profile: many clues, shallow lineages.
pub const UNIFORM_CLUES: u32 = 4096;
/// Audit-trail profile: few clues, Zipf-deep lineages.
pub const ZIPF_CLUES: u32 = 256;

/// splitmix64: tiny, seedable, and good enough to draw workloads from.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream of its own for each `(seed, stream)` pair, so adding a
    /// draw to one client never shifts another client's inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below one part in 2^40.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn payload(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PAYLOAD_BYTES);
        while out.len() < PAYLOAD_BYTES {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(PAYLOAD_BYTES);
        out
    }
}

/// Zipf over ranks `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Probability of `rank` (0 is the hottest).
    pub fn share(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    /// `count` ranks, each rank as often as its share says: the floor of
    /// its expected count, the remainder going to the hottest ranks.
    pub fn quotas(&self, count: usize) -> Vec<u32> {
        let mut ranks = Vec::with_capacity(count);
        for rank in 0..self.cdf.len() {
            let quota = (self.share(rank) * count as f64).floor() as usize;
            ranks.extend(std::iter::repeat_n(rank as u32, quota));
        }
        let short = count - ranks.len();
        ranks.extend((0..short).map(|i| (i % self.cdf.len()) as u32));
        ranks
    }
}

/// How a pool of appends spreads over clues.
pub enum ClueMix {
    /// Telemetry profile: each append draws one of `n` clues uniformly.
    Uniform(u32),
    /// Audit-trail profile: clue `r` gets its exact Zipf share of the pool
    /// and the seed only shuffles the order, so lineage depths (and with
    /// them proof sizes and verify times) are the same for every seed.
    Zipf(Zipf),
}

impl ClueMix {
    pub fn uniform() -> ClueMix {
        ClueMix::Uniform(UNIFORM_CLUES)
    }

    pub fn zipf() -> ClueMix {
        ClueMix::Zipf(Zipf::new(ZIPF_CLUES, 1.0))
    }

    /// The clue of each of `count` appends.
    fn assign(&self, count: usize, rng: &mut Rng) -> Vec<u32> {
        match self {
            ClueMix::Uniform(n) => (0..count).map(|_| rng.below(*n as u64) as u32).collect(),
            ClueMix::Zipf(zipf) => {
                let mut clues = zipf.quotas(count);
                // Fisher-Yates.
                for i in (1..clues.len()).rev() {
                    clues.swap(i, rng.below(i as u64 + 1) as usize);
                }
                clues
            }
        }
    }
}

pub fn clue_name(id: u32) -> String {
    format!("clue-{id:05}")
}

/// One pre-signed append and the clue it carries.
#[derive(Clone)]
pub struct SignedAppend {
    pub request: TxRequest,
    pub clue: u32,
}

/// `count` signed 256-byte appends, one clue each. `stream` keeps the
/// nonces and the random draws of different pools apart.
pub fn signed_appends(
    keys: &KeyPair,
    seed: u64,
    stream: u64,
    count: usize,
    mix: &ClueMix,
) -> Vec<SignedAppend> {
    let mut rng = Rng::new(seed, stream);
    let clues = mix.assign(count, &mut rng);
    clues
        .into_iter()
        .zip(0u64..)
        .map(|(clue, i)| {
            let nonce = (stream << 40) | i;
            let request = TxRequest::signed(keys, rng.payload(), vec![clue_name(clue)], nonce);
            SignedAppend { request, clue }
        })
        .collect()
}

/// Sign `count` appends on two threads (signing is the slow part of input
/// generation and this box has two cores); the result is the same as
/// `signed_appends(.., stream, ..)` followed by `(.., stream + 1, ..)`.
pub fn signed_appends_pair(
    keys: &KeyPair,
    seed: u64,
    stream: u64,
    count: usize,
    mix: &ClueMix,
) -> Vec<SignedAppend> {
    let first = count / 2;
    std::thread::scope(|scope| {
        let tail = scope.spawn(|| signed_appends(keys, seed, stream + 1, count - first, mix));
        let mut all = signed_appends(keys, seed, stream, first, mix);
        all.extend(tail.join().expect("signing thread panicked"));
        all
    })
}

/// A read the benchmark issues. Indices point into the preloaded acks (or,
/// on `mixed`, into the reader's synced prefix), never at raw jsns, so the
/// stream is fixed by the seed alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOp {
    Prove(u64),
    GetTx(u64),
    ProveClue(u64),
    ProveState(u64),
}

/// The read mix of one workload.
#[derive(Clone, Copy)]
pub enum ReadMix {
    /// `verify-read`, and the reader of `mixed`: 75% prove, 25% get_tx.
    VerifyRead,
    /// `lineage`: 80% prove_clue, 20% prove_state.
    Lineage,
}

impl ReadMix {
    /// The next read over `population` indexable journals.
    pub fn draw(self, rng: &mut Rng, population: u64) -> ReadOp {
        let pct = rng.below(100);
        let index = rng.below(population);
        match self {
            ReadMix::VerifyRead if pct < 75 => ReadOp::Prove(index),
            ReadMix::VerifyRead => ReadOp::GetTx(index),
            ReadMix::Lineage if pct < 80 => ReadOp::ProveClue(index),
            ReadMix::Lineage => ReadOp::ProveState(index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerdb_crypto::sha256::Sha256;
    use ledgerdb_crypto::Digest;

    /// Fingerprint of an op stream, for the determinism tests: sha256 over
    /// every request hash and every read op, in order.
    struct StreamHash(Sha256);

    impl StreamHash {
        fn new() -> StreamHash {
            StreamHash(Sha256::new())
        }

        fn append(&mut self, signed: &SignedAppend) {
            self.0.update(&signed.request.hash().0);
            self.0.update(&signed.request.signature.to_bytes());
        }

        fn read(&mut self, op: ReadOp) {
            let (tag, index) = match op {
                ReadOp::Prove(i) => (0u8, i),
                ReadOp::GetTx(i) => (1, i),
                ReadOp::ProveClue(i) => (2, i),
                ReadOp::ProveState(i) => (3, i),
            };
            self.0.update(&[tag]);
            self.0.update(&index.to_be_bytes());
        }

        fn finish(self) -> Digest {
            Digest(self.0.finalize())
        }
    }

    fn stream_hash(seed: u64) -> Digest {
        let keys = KeyPair::from_seed(b"bench-alice");
        let mut hash = StreamHash::new();
        for signed in signed_appends_pair(&keys, seed, 1, 48, &ClueMix::zipf()) {
            hash.append(&signed);
        }
        let mut rng = Rng::new(seed, 9);
        for mix in [ReadMix::VerifyRead, ReadMix::Lineage] {
            for _ in 0..500 {
                hash.read(mix.draw(&mut rng, 8192));
            }
        }
        hash.finish()
    }

    #[test]
    fn same_seed_gives_the_same_op_stream() {
        assert_eq!(stream_hash(7), stream_hash(7));
        assert_ne!(stream_hash(7), stream_hash(8));
    }

    #[test]
    fn paired_signing_equals_two_serial_streams() {
        let keys = KeyPair::from_seed(b"bench-alice");
        let mix = ClueMix::uniform();
        let paired = signed_appends_pair(&keys, 3, 4, 9, &mix);
        let mut serial = signed_appends(&keys, 3, 4, 4, &mix);
        serial.extend(signed_appends(&keys, 3, 5, 5, &mix));
        let digest = |pool: &[SignedAppend]| {
            let mut hash = StreamHash::new();
            pool.iter().for_each(|s| hash.append(s));
            hash.finish()
        };
        assert_eq!(digest(&paired), digest(&serial));
    }

    #[test]
    fn zipf_sizes_the_audit_trail_profile() {
        // s = 1 over 256 clues: the hottest clue holds 1/H(256) = 16.3% of
        // the journals, the coldest 1/256 of that.
        let zipf = Zipf::new(ZIPF_CLUES, 1.0);
        assert!((zipf.share(0) - 0.1633).abs() < 0.001, "{}", zipf.share(0));
        assert!((zipf.share(0) / zipf.share(255) - 256.0).abs() < 0.01);
        let quotas = zipf.quotas(10_000);
        assert_eq!(quotas.len(), 10_000);
        let count = |rank: u32| quotas.iter().filter(|&&r| r == rank).count();
        assert_eq!(count(0), 1633);
        assert_eq!(count(1), 817);
        assert!(
            (6..=7).contains(&count(255)),
            "coldest clue: {}",
            count(255)
        );
        // The seed shuffles the order and nothing else.
        let depths = |seed| {
            let mut clues = ClueMix::zipf().assign(10_000, &mut Rng::new(seed, 1));
            let head: Vec<u32> = clues[..8].to_vec();
            clues.sort_unstable();
            (head, clues)
        };
        let (head_a, sorted_a) = depths(1);
        let (head_b, sorted_b) = depths(2);
        assert_eq!(sorted_a, sorted_b);
        assert_ne!(head_a, head_b);
    }

    #[test]
    fn read_mix_shares_hold() {
        let mut rng = Rng::new(5, 5);
        let proves = (0..10_000)
            .filter(|_| matches!(ReadMix::VerifyRead.draw(&mut rng, 100), ReadOp::Prove(_)))
            .count();
        assert!((7300..7700).contains(&proves), "{proves}");
    }
}
