//! Telemetry integration: histogram laws (property-tested), exact
//! reconciliation between [`TelemetrySnapshot`] and [`EngineStats`] under
//! mixed traffic, per-shard stats summing to the aggregate, the
//! realized-vs-predicted cost differential against
//! [`aigs_core::evaluate_exhaustive`], and the disabled-telemetry and
//! slow-op-journal paths.

mod common;

use std::sync::Arc;

use aigs_core::{evaluate_exhaustive, CompiledConfig, NodeWeights, SearchContext};
use aigs_graph::NodeId;
use aigs_service::telemetry::{
    bucket_bound, bucket_index, HistSnapshot, Op, TelemetrySnapshot, Tier, HIST_BUCKETS, OPS,
    SAMPLE_EVERY, TIERS,
};
use aigs_service::{CompiledTier, EngineConfig, PlanSpec, PolicyKind, SearchEngine};
use aigs_testutil::{dag_from_seed, generic_weights};
use common::{drive_to_end, env_reach_choice, scratch_dir};
use proptest::prelude::*;

/// Builds a [`HistSnapshot`] the way the atomic histogram would, from a
/// list of recorded values.
fn hist_of(values: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::default();
    for &v in values {
        h.buckets[bucket_index(v)] += 1;
        h.sum = h.sum.wrapping_add(v);
    }
    h
}

fn merged(a: &HistSnapshot, b: &HistSnapshot) -> HistSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every value lands in the bucket whose bounds contain it:
    /// `bound(b-1) < v <= bound(b)`.
    #[test]
    fn bucket_index_respects_bucket_bounds(v in 0u64..u64::MAX) {
        let b = bucket_index(v);
        prop_assert!(b < HIST_BUCKETS);
        prop_assert!(v <= bucket_bound(b), "v={v} above bound of bucket {b}");
        if b > 0 {
            prop_assert!(
                v > bucket_bound(b - 1),
                "v={v} not above bound of bucket {}",
                b - 1
            );
        }
    }

    /// Merge is associative and commutative, count/sum are additive, and
    /// `minus` inverts a merge — the laws per-shard aggregation and delta
    /// snapshots rely on.
    #[test]
    fn histogram_merge_laws(
        xs in prop::collection::vec(0u64..(1u64 << 48), 0..40),
        ys in prop::collection::vec(0u64..(1u64 << 48), 0..40),
        zs in prop::collection::vec(0u64..(1u64 << 48), 0..40),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(&left, &right, "merge is not associative");
        prop_assert_eq!(merged(&a, &b), merged(&b, &a), "merge is not commutative");
        prop_assert_eq!(left.count(), (xs.len() + ys.len() + zs.len()) as u64);
        prop_assert_eq!(
            merged(&a, &b).minus(&a),
            b.clone(),
            "minus does not invert merge"
        );
    }
}

/// Mixed traffic — finished, cancelled, errored, and evicted sessions on
/// live and compiled tiers across shards — reconciles *exactly* with the
/// engine's counters: telemetry is the same events, just richer.
#[test]
fn telemetry_reconciles_with_engine_stats() {
    let n = 18;
    let seed = 0x7e1e;
    let dag = Arc::new(dag_from_seed(n, 0.3, seed));
    let weights = Arc::new(generic_weights(n, seed));
    let engine = SearchEngine::new(EngineConfig {
        shards: 4,
        idle_ticks: Some(32),
        telemetry: Some(true),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(Arc::clone(&dag), weights).with_reach(env_reach_choice()))
        .unwrap();

    // Finished sessions, every target once (greedy-dag; compiled or live
    // depending on the plan's compiled tier — telemetry must agree either
    // way).
    for v in dag.nodes() {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        drive_to_end(&engine, id, &dag, v);
    }
    // A few seeded-random sessions, finished and cancelled.
    for s in 0..6u64 {
        let id = engine
            .open_session(plan, PolicyKind::Random { seed: s })
            .unwrap()
            .id();
        if s % 2 == 0 {
            drive_to_end(&engine, id, &dag, NodeId::new(((s as usize) * 3) % n));
        } else {
            engine.cancel(id).unwrap();
        }
    }
    // An errored session: GreedyTree on a DAG plan fails (at open or at
    // its first step, depending on where the policy validates shape).
    if let Ok(handle) = engine.open_session(plan, PolicyKind::GreedyTree) {
        assert!(engine.next_question(handle.id()).is_err());
    }
    // Idle-evicted sessions: abandon three, age them past the TTL by
    // stepping a fourth, then sweep.
    let _abandoned: Vec<_> = (0..3)
        .map(|_| engine.open_session(plan, PolicyKind::TopDown).unwrap().id())
        .collect();
    let active = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
    for _ in 0..40 {
        let _ = engine.next_question(active).unwrap();
    }
    let swept = engine.sweep_idle();
    assert!(swept >= 3, "expected the abandoned sessions to be evicted");

    let stats = engine.stats();
    let snap = engine.telemetry();
    assert!(snap.enabled);
    assert_eq!(snap.shards as usize, stats.shards);

    // Event-for-event reconciliation.
    assert_eq!(snap.op_total(Op::Open), stats.opened, "opens");
    assert_eq!(snap.op_total(Op::Finish), stats.finished, "finishes");
    assert_eq!(snap.op_total(Op::Cancel), stats.cancelled, "cancels");
    assert_eq!(snap.op_total(Op::Evict), stats.evicted, "evictions");
    assert_eq!(
        snap.op_total(Op::Next) + snap.op_total(Op::Answer),
        stats.steps,
        "steps"
    );
    assert_eq!(
        snap.op_tier(Op::Next, Tier::Compiled).count()
            + snap.op_tier(Op::Answer, Tier::Compiled).count(),
        stats.compiled_hits,
        "compiled-tier hits"
    );
    // Histogram counts equal per-op counter totals (every duration cell
    // pairs with a kind-count cell), except Evict which records one drain
    // duration per sweep, and Recover which never fired here.
    for op in OPS {
        if matches!(op, Op::Evict | Op::Recover) {
            continue;
        }
        let hist: u64 = [Tier::Live, Tier::Compiled, Tier::Fallback]
            .iter()
            .map(|&t| snap.op_tier(op, t).count())
            .sum();
        assert_eq!(
            hist,
            snap.op_total(op),
            "duration/count mismatch for {op:?}"
        );
    }

    // Per-shard stats sum to the aggregate, field by field.
    let shards = engine.stats_per_shard();
    assert_eq!(shards.len(), stats.shards);
    let sum = |f: fn(&aigs_service::ShardStats) -> u64| shards.iter().map(f).sum::<u64>();
    assert_eq!(sum(|s| s.live) as usize, stats.live);
    assert_eq!(sum(|s| s.opened), stats.opened);
    assert_eq!(sum(|s| s.finished), stats.finished);
    assert_eq!(sum(|s| s.cancelled), stats.cancelled);
    assert_eq!(sum(|s| s.evicted), stats.evicted);
    assert_eq!(sum(|s| s.errored), stats.errored);
    assert_eq!(sum(|s| s.panicked), stats.panicked);
    assert_eq!(sum(|s| s.steps), stats.steps);
    assert_eq!(sum(|s| s.pool_hits), stats.pool_hits);
    assert_eq!(sum(|s| s.compiled_hits), stats.compiled_hits);
    assert_eq!(sum(|s| s.compiled_fallbacks), stats.compiled_fallbacks);
    assert_eq!(sum(|s| s.wal_records), stats.wal_records);

    // The Prometheus rendering carries the same totals.
    let text = engine.prometheus_text();
    assert!(text.contains("aigs_live_sessions"), "{text}");
    assert!(
        text.contains("aigs_ops_total{op=\"finish\",kind=\"greedy-dag\"}"),
        "missing finish row:\n{text}"
    );
    assert!(text.contains("aigs_op_duration_ns_bucket"), "{text}");
}

/// With telemetry disabled the snapshot stays empty (and the hot path
/// records nothing), while the engine counters still work.
#[test]
fn disabled_telemetry_records_nothing() {
    let n = 12;
    let dag = Arc::new(dag_from_seed(n, 0.3, 0xd15));
    let weights = Arc::new(generic_weights(n, 0xd15));
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        telemetry: Some(false),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(Arc::clone(&dag), weights))
        .unwrap();
    for v in dag.nodes().take(4) {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        drive_to_end(&engine, id, &dag, v);
    }
    let stats = engine.stats();
    assert_eq!(stats.opened, 4);
    let snap = engine.telemetry();
    assert!(!snap.enabled);
    for op in OPS {
        assert_eq!(snap.op_total(op), 0, "{op:?} recorded while disabled");
    }
    assert_eq!(snap.wal.append_bytes, 0);
    assert!(snap.plans.is_empty());
    assert!(engine.drain_slow_ops().is_empty());
}

/// The realized-cost histogram matches the policy's *predicted* expected
/// cost on a uniform-prior roster: driving every target once makes the
/// empirical mean equal the paper's `Σ p(v)·cost(v)` exactly, and the
/// prediction itself is bit-compatible with [`evaluate_exhaustive`].
#[test]
fn realized_cost_matches_predicted_on_uniform_prior() {
    let n = 16;
    let seed = 0xc057;
    let dag = Arc::new(dag_from_seed(n, 0.3, seed));
    let weights = Arc::new(NodeWeights::uniform(n));
    let kind = PolicyKind::GreedyDag;
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        telemetry: Some(true),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(
            PlanSpec::new(Arc::clone(&dag), Arc::clone(&weights)).with_reach(env_reach_choice()),
        )
        .unwrap();

    let predicted = engine
        .predict_expected_cost(plan, kind)
        .unwrap()
        .expect("greedy-dag is predictable");

    // Differential reference: the same evaluation, run directly on core.
    let ctx = SearchContext::new(&dag, &weights);
    let report = evaluate_exhaustive(kind.build().as_mut(), &ctx).unwrap();
    assert!(
        (predicted.expected_queries - report.expected_cost).abs() < 1e-9,
        "predicted {} vs evaluate_exhaustive {}",
        predicted.expected_queries,
        report.expected_cost
    );
    assert!((predicted.expected_price - report.expected_price).abs() < 1e-9);

    // Drive every target once; under a uniform prior the realized mean is
    // the expected cost, with no sampling error.
    let mut total_queries = 0u64;
    let mut total_price = 0.0f64;
    for v in dag.nodes() {
        let id = engine.open_session(plan, kind).unwrap().id();
        let (_, outcome) = drive_to_end(&engine, id, &dag, v);
        total_queries += u64::from(outcome.queries);
        total_price += outcome.price;
    }

    let snap = engine.telemetry();
    let row = snap
        .plans
        .iter()
        .find(|p| p.plan == plan.index())
        .and_then(|p| p.kinds.iter().find(|k| k.kind == kind.name()))
        .expect("realized row for greedy-dag");
    assert_eq!(row.queries.count(), n as u64);
    assert_eq!(row.queries.sum, total_queries);
    // Price is accumulated in integer micros: exact to n µ-units.
    assert!((row.price_sum - total_price).abs() < n as f64 * 1e-6);
    let realized_mean = row.queries.sum as f64 / row.queries.count() as f64;
    assert!(
        (realized_mean - predicted.expected_queries).abs() < 1e-9,
        "realized mean {} vs predicted {}",
        realized_mean,
        predicted.expected_queries
    );
    let gauge = row.predicted.expect("snapshot carries the prediction");
    assert!((gauge.expected_queries - predicted.expected_queries).abs() < 1e-12);
}

/// Durable traffic populates the WAL metric family: appended bytes,
/// fsync batch/latency histograms, and zero degraded transitions on the
/// happy path.
#[test]
fn wal_metrics_populate_under_durability() {
    let dir = scratch_dir("telemetry-wal");
    let n = 12;
    let dag = Arc::new(dag_from_seed(n, 0.3, 0xa1));
    let weights = Arc::new(generic_weights(n, 0xa1));
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        telemetry: Some(true),
        durability: Some(
            aigs_service::DurabilityConfig::new(&dir).with_fsync(aigs_service::FsyncPolicy::Always),
        ),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(PlanSpec::new(Arc::clone(&dag), weights))
        .unwrap();
    for v in dag.nodes().take(6) {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        drive_to_end(&engine, id, &dag, v);
    }
    let stats = engine.stats();
    assert!(stats.wal_records > 0);
    assert!(!stats.degraded);
    assert_eq!(stats.degraded_since, None);
    assert_eq!(stats.degraded_reason, None);
    let snap = engine.telemetry();
    assert!(snap.wal.append_bytes > 0, "no WAL bytes recorded");
    assert!(snap.wal.fsync_ns.count() > 0, "no fsyncs timed");
    assert_eq!(snap.wal.degraded_transitions, 0);
    // Each fsync batch drains at least one record; batch totals cannot
    // exceed appended records.
    assert!(snap.wal.fsync_batch.sum <= stats.wal_records);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A threshold of 1 ns makes every operation "slow": the journal fills,
/// stays bounded, and drains destructively.
#[test]
fn slow_op_journal_captures_and_bounds() {
    std::env::set_var("AIGS_SLOW_OP_NS", "1");
    let n = 12;
    let dag = Arc::new(dag_from_seed(n, 0.3, 0x510));
    let weights = Arc::new(generic_weights(n, 0x510));
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        telemetry: Some(true),
        ..EngineConfig::default()
    });
    std::env::remove_var("AIGS_SLOW_OP_NS");
    let plan = engine
        .register_plan(PlanSpec::new(Arc::clone(&dag), weights))
        .unwrap();
    for v in dag.nodes().take(5) {
        let id = engine
            .open_session(plan, PolicyKind::GreedyDag)
            .unwrap()
            .id();
        drive_to_end(&engine, id, &dag, v);
    }
    let slow = engine.drain_slow_ops();
    assert!(!slow.is_empty(), "1 ns threshold should flag everything");
    // Bounded: at most one ring per shard.
    assert!(slow.len() <= 2 * 64, "journal exceeded its ring bound");
    for entry in &slow {
        assert!(entry.duration_ns >= 1);
        assert!((entry.shard as usize) < 2);
    }
    // Draining is destructive; an idle engine has nothing new.
    assert!(engine.drain_slow_ops().is_empty());
}

/// Checks the sampled-duration invariants of one snapshot (or delta):
/// every sampled op's histograms count exactly its op total, and the
/// compiled-tier step histograms count exactly `compiled`.
fn assert_counts_agree(snap: &TelemetrySnapshot, compiled: Option<u64>, what: &str) {
    for op in [Op::Open, Op::Next, Op::Answer, Op::Finish, Op::Cancel] {
        let hist: u64 = TIERS.iter().map(|&t| snap.op_tier(op, t).count()).sum();
        assert_eq!(hist, snap.op_total(op), "{what}: {op:?} histogram vs total");
        for t in TIERS {
            let h = snap.op_tier(op, t);
            assert_eq!(
                h.count() > 0,
                h.sum > 0,
                "{what}: {op:?}/{t:?} has counts without durations or vice versa"
            );
        }
    }
    if let Some(compiled) = compiled {
        assert_eq!(
            snap.op_tier(Op::Next, Tier::Compiled).count()
                + snap.op_tier(Op::Answer, Tier::Compiled).count(),
            compiled,
            "{what}: compiled-tier steps"
        );
    }
}

/// Four threads on two shards, over a compiled, a truncated (fallback)
/// and a live plan: with most ops untimed, the histogram counts, the op
/// totals and the engine's counters still agree exactly — at the end,
/// in every snapshot taken mid-traffic, and in every delta between them.
#[test]
fn sampled_counts_stay_exact_under_concurrency() {
    let n = 24;
    let seed = 0xc0c0;
    let dag = Arc::new(dag_from_seed(n, 0.3, seed));
    let weights = Arc::new(generic_weights(n, seed));
    let engine = SearchEngine::new(EngineConfig {
        shards: 2,
        compiled: CompiledTier::PerPlan,
        telemetry: Some(true),
        ..EngineConfig::default()
    });
    let spec = PlanSpec::new(Arc::clone(&dag), weights).with_reach(env_reach_choice());
    let plans = [
        engine
            .register_plan(spec.clone().with_compiled(CompiledConfig::new()))
            .unwrap(),
        engine
            .register_plan(
                spec.clone()
                    .with_compiled(CompiledConfig::new().with_max_depth(2)),
            )
            .unwrap(),
        engine.register_plan(spec).unwrap(),
    ];
    let kinds = [PolicyKind::TopDown, PolicyKind::GreedyDag];
    let done = std::sync::atomic::AtomicUsize::new(0);
    let mut snaps = vec![engine.telemetry()];
    std::thread::scope(|scope| {
        for thread in 0..4usize {
            let (engine, dag, done) = (&engine, &dag, &done);
            scope.spawn(move || {
                for i in 0..150usize {
                    let plan = plans[(thread + i) % plans.len()];
                    let kind = kinds[i % kinds.len()];
                    let id = engine.open_session(plan, kind).unwrap().id();
                    if i % 7 == 3 {
                        engine.cancel(id).unwrap();
                    } else {
                        let target = NodeId::new((thread * 5 + i * 3) % dag.node_count());
                        drive_to_end(engine, id, dag, target);
                    }
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        while done.load(std::sync::atomic::Ordering::Relaxed) < 4 {
            snaps.push(engine.telemetry());
            std::thread::yield_now();
        }
    });
    let stats = engine.stats();
    let last = engine.telemetry();
    snaps.push(last.clone());

    assert_counts_agree(&last, Some(stats.compiled_hits), "final");
    assert_eq!(last.op_total(Op::Open), stats.opened);
    assert_eq!(last.op_total(Op::Finish), stats.finished);
    assert_eq!(last.op_total(Op::Cancel), stats.cancelled);
    assert_eq!(
        last.op_total(Op::Next) + last.op_total(Op::Answer),
        stats.steps
    );
    assert!(stats.compiled_hits > 0, "no compiled traffic");
    assert!(stats.compiled_fallbacks > 0, "no fallback traffic");
    assert!(
        last.op_tier(Op::Next, Tier::Live).count() > 0,
        "no live traffic"
    );
    assert!(
        stats.steps > 64 * 8,
        "too few steps to exercise sampling: {}",
        stats.steps
    );
    for (i, pair) in snaps.windows(2).enumerate() {
        assert_counts_agree(&pair[1], None, &format!("snapshot {}", i + 1));
        assert_counts_agree(&pair[1].minus(&pair[0]), None, &format!("delta {i}"));
    }
}

/// An op that ran once is a cell of count one whose single observation
/// sits in a real duration bucket — neither the zero bucket nor the
/// overflow bucket.
#[test]
fn singleton_cells_hold_a_real_duration() {
    let n = 16;
    let seed = 0x5161;
    let dag = Arc::new(dag_from_seed(n, 0.3, seed));
    let weights = Arc::new(generic_weights(n, seed));
    let engine = SearchEngine::new(EngineConfig {
        shards: 1,
        compiled: CompiledTier::PerPlan,
        telemetry: Some(true),
        ..EngineConfig::default()
    });
    let plan = engine
        .register_plan(
            PlanSpec::new(Arc::clone(&dag), weights)
                .with_reach(env_reach_choice())
                .with_compiled(CompiledConfig::new().with_max_depth(1)),
        )
        .unwrap();
    // The first answer crosses the depth-1 frontier: the one fallback.
    let target = dag
        .nodes()
        .find(|&z| {
            let id = engine
                .open_session(plan, PolicyKind::GreedyDag)
                .unwrap()
                .id();
            let (transcript, _) = drive_to_end(&engine, id, &dag, z);
            transcript.len() >= 2
        })
        .expect("some target needs two questions");
    let before = engine.telemetry();
    let fallbacks = engine.stats().compiled_fallbacks;
    let id = engine
        .open_session(plan, PolicyKind::GreedyDag)
        .unwrap()
        .id();
    drive_to_end(&engine, id, &dag, target);
    let cancelled = engine
        .open_session(plan, PolicyKind::GreedyDag)
        .unwrap()
        .id();
    engine.cancel(cancelled).unwrap();

    assert_eq!(engine.stats().compiled_fallbacks, fallbacks + 1);
    let snap = engine.telemetry();
    let delta = snap.minus(&before);
    for (what, h) in [
        ("cancel", snap.op_tier(Op::Cancel, Tier::Compiled)),
        ("fallback answer", delta.op_tier(Op::Answer, Tier::Fallback)),
    ] {
        assert_eq!(h.count(), 1, "{what}: {h:?}");
        let b = h.buckets.iter().position(|&c| c > 0).unwrap();
        assert!(
            b != 0 && b != HIST_BUCKETS - 1,
            "{what}: lone observation in bucket {b}"
        );
    }
    assert_eq!(snap.op_total(Op::Cancel), 1);
}

/// Only one in `SAMPLE_EVERY` ops (plus each kind's first on each shard)
/// reads the clock: with a 1 ns slow-op threshold every timed op is
/// journaled, so the journal counts the timed ops.
#[test]
fn durations_are_sampled_one_in_n() {
    let n = 16;
    let seed = 0x5a3;
    let dag = Arc::new(dag_from_seed(n, 0.3, seed));
    let weights = Arc::new(generic_weights(n, seed));
    let shards = 2;
    let min_ops = 10_000u64;
    let rate = u64::from(SAMPLE_EVERY);
    // The threshold is read from the environment at construction.
    // `slow_op_journal_captures_and_bounds` sets the same value and then
    // clears it, so this test never clears it (which could race that
    // test's construction) and retries the rare run that constructed
    // while it was cleared (its journal stays near empty).
    let mut attempts = 0;
    let (ops, journaled) = loop {
        attempts += 1;
        std::env::set_var("AIGS_SLOW_OP_NS", "1");
        let engine = SearchEngine::new(EngineConfig {
            shards,
            telemetry: Some(true),
            ..EngineConfig::default()
        });
        let plan = engine
            .register_plan(PlanSpec::new(Arc::clone(&dag), Arc::clone(&weights)))
            .unwrap();
        let mut ops = 0;
        for i in 0.. {
            if ops >= min_ops {
                break;
            }
            let id = engine.open_session(plan, PolicyKind::TopDown).unwrap().id();
            let (transcript, _) = drive_to_end(&engine, id, &dag, NodeId::new(i % n));
            // open, a next and an answer per question, the final next, finish
            ops += 2 * transcript.len() as u64 + 3;
        }
        let snap = engine.telemetry();
        assert_eq!(OPS.iter().map(|&op| snap.op_total(op)).sum::<u64>(), ops);
        let journaled = engine.drain_slow_ops().len() as u64 + snap.slow_dropped;
        if journaled + OPS.len() as u64 >= ops / rate || attempts == 8 {
            break (ops, journaled);
        }
    };
    assert!(ops >= min_ops);
    assert!(journaled >= 1, "nothing was timed");
    let bound = ops / rate + (shards * OPS.len()) as u64;
    assert!(
        journaled <= bound,
        "{journaled} of {ops} ops timed; sampling allows at most {bound}"
    );
}
