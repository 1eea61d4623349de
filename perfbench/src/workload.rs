//! The three workloads and the inputs they are generated from.
//!
//! A workload is a tenant population (which market kinds, how many, at
//! which feature dimension), a service sizing (shards, resident cap, WAL),
//! a traffic shape (which tenants send in each wave) and a persistence
//! cadence (checkpoint and scrape every so many waves).  Every input the
//! service sees is drawn from pools generated once from the workload seed:
//! round `k` of tenant `t` always uses the same pool entry, so the serial
//! replay can regenerate any tenant's stream without storing it.

use pdm_auction::{AuctionMarket, AuctionMarketConfig, AuctionRound, ValuationDistribution};
use pdm_linalg::Vector;
use pdm_service::{
    AuctionPolicy, AuctionRequest, PrivacyParams, QueryRequest, Request, TenantConfig, TenantId,
};

/// Reserve prices are this fraction of the hidden market value, as in
/// `bench serve`.
pub const RESERVE_FRACTION: f64 = 0.6;

/// Entries per input pool.  Large enough that consecutive rounds of one
/// tenant do not repeat, small enough to generate in milliseconds.
const POOL: usize = 4096;

/// Owner-weight decay of privacy queries: owner `i` carries weight
/// proportional to `PRIVACY_DECAY^i`, so owners leak (and retire) one after
/// another instead of all at once, and the lightest owners never run out
/// within a run — the supply shrinks but never vanishes.
const PRIVACY_DECAY: f64 = 0.6;

/// The market a tenant trades in, by id range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's posted-price loop.
    Posted,
    /// Posted price over budgeted data owners with privacy ledgers.
    Privacy,
    /// Second-price auction, reserve quoted by the pricing session.
    AuctionSession,
    /// Second-price auction, reserve from the empirical bid window.
    AuctionEmpirical,
}

/// Benchmark scale: the full workloads, or a tiny version of each for the
/// benchmark's own tests and for the durable probe of the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload as measured.
    Full,
    /// The same shape with a handful of tenants.
    Tiny,
}

/// One workload's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Service shards.
    pub shards: usize,
    /// Posted-price tenants and their feature dimension.
    pub posted: usize,
    /// Feature dimension of posted-price tenants.
    pub posted_dim: usize,
    /// Privacy tenants; their dimension is their owner count.
    pub privacy: usize,
    /// Owners per privacy tenant.
    pub privacy_dim: usize,
    /// Auction tenants under the session reserve policy.
    pub auction_session: usize,
    /// Auction tenants under the empirical reserve policy.
    pub auction_empirical: usize,
    /// Feature dimension of auction tenants.
    pub auction_dim: usize,
    /// Bidders per auction round.
    pub bidders: usize,
    /// Mechanism horizon every tenant is configured with.
    pub horizon: usize,
    /// Every `hot_every`-th tenant sends in every wave (1 = all tenants).
    pub hot_every: usize,
    /// The cold rest rotates: each cold tenant sends once per
    /// `cold_stride` waves.
    pub cold_stride: usize,
    /// Service-wide resident cap (`None` = no paging).
    pub resident_cap: Option<usize>,
    /// WAL records per segment (`None` = WAL off).
    pub wal_segment: Option<usize>,
    /// A checkpoint barrier every this many waves (0 = never).
    pub checkpoint_every: usize,
    /// A metrics scrape every this many waves.
    pub scrape_every: usize,
    /// Open-loop arrival rate, quotes per second.
    pub open_rate: f64,
    /// Regret is accounted over quotes issued in the first this many waves
    /// of the closed loop, so it is exact for a seed.
    pub regret_waves: usize,
    /// Waves served between the restore base snapshot and the restore,
    /// checkpointing on the workload's cadence.
    pub tail_waves: usize,
    /// Waves both the original and the restored service serve in lockstep.
    pub lockstep_waves: usize,
}

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["posted-hd", "posted-fanout", "mixed-durable"];

impl Spec {
    /// The named workload at the given scale, or `None` for an unknown name.
    #[must_use]
    pub fn get(name: &str, scale: Scale) -> Option<Self> {
        let full = match name {
            // Kernel-bound: 16 tenants at the paper's largest noisy-linear
            // dimension, every tenant in every wave.  Their knowledge sets
            // (16 × 83 KB) fit in L2, so drain time is the quote kernel and
            // the ellipsoid cut.
            "posted-hd" => Self {
                name: "posted-hd",
                shards: 16,
                posted: 16,
                posted_dim: 100,
                horizon: 100_000,
                hot_every: 1,
                cold_stride: 1,
                scrape_every: 64,
                open_rate: 12_000.0,
                regret_waves: 400,
                lockstep_waves: 16,
                ..Self::empty("posted-hd")
            },
            // Dispatch-bound: 65,536 tiny tenants whose state (≈165 MB)
            // overflows L3, a hot sixteenth sending every wave and the cold
            // rest rotating, so routing, dispatch and tenant-state access
            // dominate while pricing work is small.
            "posted-fanout" => Self {
                name: "posted-fanout",
                shards: 16,
                posted: 65_536,
                posted_dim: 4,
                horizon: 2_000,
                hot_every: 16,
                cold_stride: 16,
                scrape_every: 8,
                open_rate: 75_000.0,
                regret_waves: 32,
                lockstep_waves: 2,
                ..Self::empty("posted-fanout")
            },
            // Write-heavy: every market kind in one service, the WAL on with
            // checkpoint barriers, and a resident cap below the rotation's
            // active set, so cold tenants page out and back in.  Hot half
            // every wave keeps paging and checkpoints a minority of the
            // drain next to the auction and ledger work.  Posted tenants
            // send two thirds of the quotes, so the median latency falls
            // inside one market's latencies instead of between two.
            "mixed-durable" => Self {
                name: "mixed-durable",
                shards: 8,
                posted: 512,
                posted_dim: 8,
                privacy: 128,
                privacy_dim: 16,
                auction_session: 64,
                auction_empirical: 64,
                auction_dim: 8,
                bidders: 8,
                horizon: 20_000,
                hot_every: 2,
                cold_stride: 64,
                resident_cap: Some(448),
                wal_segment: Some(64),
                checkpoint_every: 64,
                scrape_every: 64,
                open_rate: 30_000.0,
                regret_waves: 200,
                tail_waves: 64,
                lockstep_waves: 16,
            },
            _ => return None,
        };
        Some(match scale {
            Scale::Full => full,
            Scale::Tiny => full.tiny(),
        })
    }

    fn empty(name: &'static str) -> Self {
        Self {
            name,
            shards: 1,
            posted: 0,
            posted_dim: 1,
            privacy: 0,
            privacy_dim: 1,
            auction_session: 0,
            auction_empirical: 0,
            auction_dim: 1,
            bidders: 2,
            horizon: 1_000,
            hot_every: 1,
            cold_stride: 1,
            resident_cap: None,
            wal_segment: None,
            checkpoint_every: 0,
            scrape_every: 64,
            open_rate: 1_000.0,
            regret_waves: 1,
            tail_waves: 0,
            lockstep_waves: 1,
        }
    }

    /// The same workload shape with a handful of tenants and short phases.
    fn tiny(self) -> Self {
        let shrink = |count: usize| {
            if count == 0 {
                0
            } else {
                (count / 64).clamp(2, 16)
            }
        };
        let cold_per_wave = |spec: &Self| {
            let total = spec.tenants();
            (total - total.div_ceil(spec.hot_every)).div_ceil(spec.cold_stride)
        };
        let mut tiny = Self {
            shards: self.shards.min(4),
            posted: shrink(self.posted),
            posted_dim: self.posted_dim.min(8),
            privacy: shrink(self.privacy),
            auction_session: shrink(self.auction_session),
            auction_empirical: shrink(self.auction_empirical),
            cold_stride: self.cold_stride.min(4),
            scrape_every: 4,
            open_rate: 2_000.0,
            regret_waves: 4,
            tail_waves: if self.checkpoint_every > 0 { 8 } else { 0 },
            checkpoint_every: self.checkpoint_every.min(4),
            lockstep_waves: 2,
            ..self
        };
        if tiny.resident_cap.is_some() {
            let hot = tiny.tenants().div_ceil(tiny.hot_every);
            tiny.resident_cap = Some(hot + cold_per_wave(&tiny));
        }
        tiny
    }

    /// Waves after which every periodic barrier (checkpoint, scrape) has
    /// fallen due a whole number of times.
    #[must_use]
    pub fn barrier_period(&self) -> u64 {
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let scrape = self.scrape_every as u64;
        match self.checkpoint_every as u64 {
            0 => scrape,
            checkpoint => checkpoint / gcd(checkpoint, scrape) * scrape,
        }
    }

    /// Total registered tenants.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.posted + self.privacy + self.auction_session + self.auction_empirical
    }

    /// The market of tenant `id`.
    #[must_use]
    pub fn kind(&self, id: usize) -> Kind {
        if id < self.posted {
            Kind::Posted
        } else if id < self.posted + self.privacy {
            Kind::Privacy
        } else if id < self.posted + self.privacy + self.auction_session {
            Kind::AuctionSession
        } else {
            Kind::AuctionEmpirical
        }
    }

    /// The registration config of a tenant of the given market.
    #[must_use]
    pub fn tenant_config(&self, kind: Kind) -> TenantConfig {
        match kind {
            Kind::Posted => TenantConfig::standard(self.posted_dim, self.horizon),
            Kind::Privacy => {
                TenantConfig::privacy(self.privacy_dim, self.horizon, self.privacy_params())
            }
            Kind::AuctionSession => {
                TenantConfig::auction(self.auction_dim, self.horizon, AuctionPolicy::Session)
            }
            Kind::AuctionEmpirical => TenantConfig::auction(
                self.auction_dim,
                self.horizon,
                AuctionPolicy::Empirical {
                    window: 64,
                    welfare_weight: 0.0,
                },
            ),
        }
    }

    /// Privacy parameters: the heaviest owner (weight ≈ 0.8 per query)
    /// retires after about 250 sales, each lighter owner
    /// `1 / PRIVACY_DECAY` times later, and the lightest never within a
    /// run.  A small compensation base keeps payouts below the reserve.
    #[must_use]
    pub fn privacy_params(&self) -> PrivacyParams {
        PrivacyParams {
            epsilon_budget: 200.0,
            compensation_base: 0.01,
            ..PrivacyParams::default()
        }
    }

    /// Whether tenant `id` sends a request in `wave`.
    #[must_use]
    pub fn sends(&self, id: usize, wave: u64) -> bool {
        id.is_multiple_of(self.hot_every)
            || (id / self.hot_every + wave as usize).is_multiple_of(self.cold_stride)
    }

    /// The tenants sending in each wave phase (`wave % cold_stride`), in id
    /// order — the precomputed traffic schedule.
    #[must_use]
    pub fn schedule(&self) -> Vec<Vec<u32>> {
        (0..self.cold_stride as u64)
            .map(|phase| {
                (0..self.tenants())
                    .filter(|&id| self.sends(id, phase))
                    .map(|id| u32::try_from(id).expect("tenant ids fit in u32"))
                    .collect()
            })
            .collect()
    }
}

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// The SplitMix64 finaliser.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A non-negative unit vector with coordinate `i` scaled by `scale(i)`.
fn feature_vector(rng: &mut SplitMix, dim: usize, scale: impl Fn(usize) -> f64) -> Vector {
    let raw = Vector::from_fn(dim, |i| (rng.normal().abs() + 1e-3) * scale(i));
    raw.normalized()
}

/// One generated request plus the ground truth the buyer decides with.
pub struct Generated {
    /// The request to ingest.
    pub request: Request,
    /// Hidden market value (posted and privacy tenants; 0 for auctions).
    pub value: f64,
    /// The reserve (posted, privacy) or floor (auction) of the request.
    pub reserve: f64,
}

/// Every input pool of one workload and seed.
#[derive(Debug)]
pub struct Inputs {
    seed: u64,
    posted_pool: Vec<Vector>,
    privacy_pool: Vec<Vector>,
    auction_pool: Vec<AuctionRound>,
    /// Hidden weight vector `θ*` of each posted and privacy tenant.
    thetas: Vec<Vector>,
}

impl Inputs {
    /// Generates every pool of `spec` from `seed`.
    #[must_use]
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let mut rng = SplitMix::new(mix(seed ^ 0x5EED_0FBE));
        let posted_pool = if spec.posted > 0 {
            (0..POOL)
                .map(|_| feature_vector(&mut rng, spec.posted_dim, |_| 1.0))
                .collect()
        } else {
            Vec::new()
        };
        let privacy_pool = if spec.privacy > 0 {
            (0..POOL)
                .map(|_| {
                    feature_vector(&mut rng, spec.privacy_dim, |i| {
                        PRIVACY_DECAY.powi(i32::try_from(i).unwrap_or(i32::MAX))
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let auction_pool = if spec.auction_session + spec.auction_empirical > 0 {
            let mut market = AuctionMarket::new(AuctionMarketConfig {
                bidders: spec.bidders,
                dim: spec.auction_dim,
                distribution: ValuationDistribution::LogNormal { sigma: 0.5 },
                floor_fraction: 0.3,
                seed: rng.next_u64(),
                drift: None,
            });
            (0..POOL).map(|_| market.next_round()).collect()
        } else {
            Vec::new()
        };
        let thetas = (0..spec.posted + spec.privacy)
            .map(|id| {
                let dim = if id < spec.posted {
                    spec.posted_dim
                } else {
                    spec.privacy_dim
                };
                feature_vector(&mut rng, dim, |_| 1.0)
            })
            .collect();
        Self {
            seed,
            posted_pool,
            privacy_pool,
            auction_pool,
            thetas,
        }
    }

    /// The pool entry round `round` of tenant `id` draws.
    fn entry(&self, id: usize, round: u64) -> usize {
        let key = mix(self.seed ^ mix((id as u64) << 32 ^ round));
        (key % POOL as u64) as usize
    }

    /// Round `round` of tenant `id`: a quote (posted, privacy) or an
    /// auction round.
    #[must_use]
    pub fn request(&self, spec: &Spec, id: usize, round: u64) -> Generated {
        let entry = self.entry(id, round);
        let tenant = TenantId(id as u64);
        let quote = |features: &Vector| {
            let value = self.thetas[id]
                .dot(features)
                .expect("pool vectors match their tenant's dimension");
            let reserve = RESERVE_FRACTION * value;
            Generated {
                request: Request::Quote(QueryRequest {
                    tenant,
                    features: features.clone(),
                    reserve_price: reserve,
                }),
                value,
                reserve,
            }
        };
        match spec.kind(id) {
            Kind::Posted => quote(&self.posted_pool[entry]),
            Kind::Privacy => quote(&self.privacy_pool[entry]),
            Kind::AuctionSession | Kind::AuctionEmpirical => {
                let round = &self.auction_pool[entry];
                Generated {
                    request: Request::Auction(AuctionRequest {
                        tenant,
                        features: round.features.clone(),
                        floor: round.floor,
                        bids: round.bids.clone(),
                    }),
                    value: 0.0,
                    reserve: round.floor,
                }
            }
        }
    }
}
