//! The three workloads: their hierarchy, plan, engine configuration and
//! seeded search stream.

use std::path::Path;
use std::sync::Arc;

use aigs_core::{CompiledConfig, NodeWeights, SearchContext};
use aigs_data::distributions::prefix_sums;
use aigs_data::{amazon_like, imagenet_like, Scale};
use aigs_graph::{Dag, NodeId, ReachClosure, ReachIndex};
use aigs_service::{
    CompiledTier, DurabilityConfig, EngineConfig, PlanSpec, PolicyKind, DEFAULT_MAX_SESSIONS,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seed of the generated hierarchies. It is fixed, so every run of a
/// workload serves the same catalogue and `--seed` varies only the traffic:
/// targets, policy kinds and session fates.
const HIERARCHY_SEED: u64 = 11;

/// Engine shards. Fixed rather than auto so `AIGS_SHARDS` and the host's
/// core count cannot change what a workload measures.
pub const SHARDS: usize = 2;

/// Warm policy instances kept per (plan, kind), the engine default.
pub const POOL_CAP: usize = 64;

/// One search in this many records its transcript for the bit-identity
/// check against the inline `run_session` loop.
const VERIFY_ONE_IN: u32 = 64;

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["live-dag", "compiled-tree", "wire-durable"];

/// What happens to a search after it is opened (`wire-durable` only; the
/// in-process workloads complete every search). The shares follow
/// `examples/loadgen.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Driven to resolution and finished.
    Complete,
    /// Cancelled at its first visit, with its first question pending.
    Cancel,
    /// First question answered, then left for idle eviction.
    Abandon,
    /// One question answered, then the connection is dropped and a fresh
    /// one drives the same id to resolution.
    Reconnect,
}

/// One search of the stream.
#[derive(Clone, Copy, Debug)]
pub struct Search {
    /// The object's true category, drawn from the plan's distribution.
    pub target: NodeId,
    /// The policy serving it.
    pub kind: PolicyKind,
    /// What the client does with it.
    pub fate: Fate,
    /// Whether its transcript is recorded and checked against the inline
    /// loop.
    pub verify: bool,
}

/// A workload: one plan, one engine configuration and one seeded stream
/// of searches, served through a window of suspended sessions.
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The hierarchy.
    pub dag: Arc<Dag>,
    /// The empirical target distribution of the generated object set.
    pub weights: Arc<NodeWeights>,
    /// The benchmark's own truthful oracle: an O(1) closure lookup, so no
    /// graph traversal is charged to any layer.
    pub oracle: ReachIndex,
    /// The policy kinds searches are drawn from.
    pub kinds: Vec<PolicyKind>,
    /// Whether the plan opts into the compiled tier (untruncated).
    pub compiled: bool,
    /// Whether the measured engine logs to a WAL.
    pub durable: bool,
    /// Whether clients reach the engine over the loopback wire.
    pub wire: bool,
    /// Suspended sessions the client advances round-robin.
    pub window: usize,
    /// Searches in one pass.
    pub pass: usize,
    /// Searches the traced run replays down each rung of the ladder (a
    /// prefix of the stream, at most `pass`).
    pub traced: usize,
    /// Idle-eviction threshold in engine ticks (one tick per engine
    /// operation). Each window session is touched about every
    /// `2 × window` ticks, well inside it.
    pub idle_ticks: u64,
    /// The seeded search stream (`pass` searches).
    pub stream: Vec<Search>,
}

impl Workload {
    /// Builds workload `name` with its traffic drawn from `seed`.
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        let (dataset, kinds, compiled, durable, wire) = match name {
            "live-dag" => (
                imagenet_like(Scale::Small, HIERARCHY_SEED),
                vec![PolicyKind::GreedyDag],
                false,
                false,
                false,
            ),
            "compiled-tree" => (
                amazon_like(Scale::Small, HIERARCHY_SEED),
                vec![PolicyKind::GreedyTree],
                true,
                false,
                false,
            ),
            "wire-durable" => (
                imagenet_like(Scale::Small, HIERARCHY_SEED),
                vec![
                    PolicyKind::TopDown,
                    PolicyKind::GreedyDag,
                    PolicyKind::Wigs,
                    PolicyKind::CostSensitive,
                ],
                false,
                true,
                true,
            ),
            other => return Err(format!("unknown workload {other:?}")),
        };
        // A pass takes one to six seconds on a 2-vCPU host. Each pass
        // starts by filling the window, and most of those opens miss the pool;
        // live-dag's pass is ten windows, so they are a tenth of its opens
        // and the first-question percentiles describe the steady churn.
        // live-dag holds 2 000 greedy-dag sessions (~380 MiB, far
        // beyond any cache) rather than 10 000 (~1.7 GiB), to stay small on
        // a shared host. compiled-tree holds 1 000 compiled sessions, which
        // stay in cache: with 10 000, other tenants' cache and memory
        // traffic moved its step time by up to 29% between runs, and it is
        // meant to measure the engine's own instructions.
        let (window, pass, traced, idle_ticks) = match name {
            "live-dag" => (2_000, 20_000, 4_000, 65_536),
            "compiled-tree" => (1_000, 40_000, 15_000, 65_536),
            _ => (256, 1_000, 1_000, 8_192),
        };
        let weights = Arc::new(dataset.empirical_weights());
        let dag = Arc::new(dataset.dag);
        let oracle = ReachIndex::closure_for(&dag);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let stream = draw_stream(&weights, &kinds, pass, wire, &mut rng);
        Ok(Workload {
            name: NAMES
                .into_iter()
                .find(|n| *n == name)
                .expect("matched above"),
            dag,
            weights,
            oracle,
            kinds,
            compiled,
            durable,
            wire,
            window,
            pass,
            traced,
            idle_ticks,
            stream,
        })
    }

    /// The truthful oracle's closure.
    pub fn closure(&self) -> &ReachClosure {
        self.oracle
            .as_closure()
            .expect("the oracle is built as a closure")
    }

    /// The plan this workload registers.
    pub fn spec(&self) -> PlanSpec {
        let spec = PlanSpec::new(Arc::clone(&self.dag), Arc::clone(&self.weights));
        if self.compiled {
            spec.with_compiled(CompiledConfig::new())
        } else {
            spec
        }
    }

    /// The context the inline reference loop and the bare rung run on: the
    /// plan's artifacts with the same reachability backend the engine
    /// picks (`ReachIndex::auto` on DAGs, none on trees).
    pub fn context<'a>(&'a self, reach: Option<&'a ReachIndex>) -> SearchContext<'a> {
        let ctx = SearchContext::new(&self.dag, &self.weights)
            .with_cache_token(aigs_core::fresh_cache_token());
        match reach {
            Some(r) => ctx.with_reach(r),
            None => ctx,
        }
    }

    /// The engine configuration, every knob set explicitly so no
    /// environment variable (`AIGS_SHARDS`, `AIGS_COMPILED`,
    /// `AIGS_TELEMETRY`) changes what is measured. `wal` is the log
    /// directory, `None` for no durability.
    pub fn config(&self, wal: Option<&Path>, telemetry: bool) -> EngineConfig {
        // Every field is listed; the update only fills fields added to
        // `EngineConfig` after this benchmark was written.
        #[allow(clippy::needless_update)]
        EngineConfig {
            max_sessions: DEFAULT_MAX_SESSIONS,
            idle_ticks: Some(self.idle_ticks),
            max_queries: None,
            pool_cap: POOL_CAP,
            shards: SHARDS,
            durability: wal.map(DurabilityConfig::new),
            compiled: CompiledTier::PerPlan,
            telemetry: Some(telemetry),
            ..EngineConfig::default()
        }
    }

    /// The serving tier, as printed with the results.
    pub fn tier(&self) -> &'static str {
        if self.compiled {
            "compiled"
        } else {
            "live"
        }
    }
}

/// Draws a pass's searches. Each kind gets an equal share, and within it a
/// systematic sample of the target distribution: the CDF's quantiles at
/// `(j + u) / m` for one seeded offset `u`. With `churn`, the fates cycle
/// over the quantile points (cancelled, abandoned, reconnected, then seven
/// completed), so the completed searches are a systematic sample too.
/// Every seed thus serves each kind nearly the same target mix, and a
/// pass's mean query count moves far less between seeds than i.i.d. draws
/// would let it; the offset, the order of the searches and which ones are
/// checked against the inline loop still come from the seed.
fn draw_stream(
    weights: &NodeWeights,
    kinds: &[PolicyKind],
    pass: usize,
    churn: bool,
    rng: &mut ChaCha8Rng,
) -> Vec<Search> {
    let cdf = prefix_sums(weights);
    let total = *cdf.last().expect("non-empty distribution");
    let mut stream = Vec::with_capacity(pass);
    for (k, &kind) in kinds.iter().enumerate() {
        let m = pass / kinds.len() + usize::from(k < pass % kinds.len());
        let u: f64 = rng.gen();
        for j in 0..m {
            let x = (j as f64 + u) / m as f64 * total;
            let t = cdf.partition_point(|&c| c <= x).min(cdf.len() - 1);
            let fate = match (churn, j % 10) {
                (true, 0) => Fate::Cancel,
                (true, 1) => Fate::Abandon,
                (true, 2) => Fate::Reconnect,
                _ => Fate::Complete,
            };
            stream.push(Search {
                target: NodeId::new(t),
                kind,
                fate,
                verify: false,
            });
        }
    }
    stream.shuffle(rng);
    for s in &mut stream {
        s.verify = rng.gen_range(0..VERIFY_ONE_IN) == 0;
    }
    stream
}
