//! The traced run (`--trace 1`): the workload's search stream replayed,
//! op for op, down a ladder of rungs, each adding one serving layer:
//!
//! 1. bare `SessionStepper`s over pooled policies, or bare
//!    `CompiledCursor`s (the workload's tier);
//! 2. the engine, telemetry off;
//! 3. the engine, telemetry on;
//! 4. the engine, telemetry and WAL on;
//! 5. the wire, in front of rung 4's stack.
//!
//! A layer's self time is its rung's figure minus the rung below. The
//! other tier's bare rung runs alongside rung 1, so every workload reports
//! both policy and cursor costs.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use aigs_core::SessionStep;
use aigs_graph::{NodeId, ReachIndex};
use aigs_service::telemetry::{Op, Tier};

use crate::backend::{Backend, Bare, Engine, Wire};
use crate::check::{self, Crashed};
use crate::closed_loop::{drive, Outcome, SpanOp, Trace};
use crate::e2e::Served;
use crate::stats::{median, quantile, Report};
use crate::workload::Workload;

/// Repetitions of each set-up step timed for the per-layer set-up metrics.
const SETUP_REPS: usize = 5;
/// Connections opened and dropped to sample `wire.connect_us`.
const CONNECT_SAMPLES: usize = 9;

/// Span durations of one rung by operation, ascending, plus the question
/// gaps (answer sent → next question or target in hand).
struct Rung {
    name: &'static str,
    ops: HashMap<SpanOp, Vec<u64>>,
    steps: Vec<u64>,
    spans: u64,
    wall_ns: u64,
    clock_reads: u64,
    resolved: (u64, u64),
}

impl Rung {
    fn new<Id>(name: &'static str, trace: Trace, out: &Outcome<Id>) -> Rung {
        let mut ops: HashMap<SpanOp, Vec<u64>> = HashMap::new();
        let mut steps = Vec::new();
        for (i, s) in trace.spans.iter().enumerate() {
            ops.entry(s.op).or_default().push(s.end - s.start);
            if s.op == SpanOp::Answer {
                if let Some(n) = trace.spans.get(i + 1) {
                    if n.parent == s.parent && matches!(n.op, SpanOp::Next | SpanOp::Resolve) {
                        steps.push(n.end - s.start);
                    }
                }
            }
        }
        ops.values_mut().for_each(|v| v.sort_unstable());
        steps.sort_unstable();
        Rung {
            name,
            ops,
            steps,
            spans: trace.spans.len() as u64,
            wall_ns: out.wall_ns,
            clock_reads: out.clock_reads,
            resolved: (out.resolved, out.queries),
        }
    }

    /// The `p`-quantile of `op`'s span durations, ns.
    fn op(&self, op: SpanOp, p: f64) -> f64 {
        self.ops.get(&op).map_or(f64::NAN, |v| quantile(v, p))
    }

    fn step(&self, p: f64) -> f64 {
        quantile(&self.steps, p)
    }
}

/// Runs `backend` over the traced stream twice: once draining and
/// unrecorded, so pools, caches and the allocator are warm on every rung
/// alike, then with spans on, stopping with the window suspended. The
/// returned outcome's counts, abandoned sessions and transcripts cover both
/// runs; its timings and spans only the second.
fn traced<B: Backend>(
    w: &Workload,
    name: &'static str,
    backend: B,
) -> Result<(B, Rung, Outcome<B::Id>), String> {
    let order: Vec<u32> = (0..w.traced as u32).collect();
    let (backend, warm) = drive(backend, w, &order, w.window, true, w.wire, None)?;
    let mut trace = Trace::new();
    let (backend, mut out) = drive(
        backend,
        w,
        &order,
        w.window,
        false,
        w.wire,
        Some(&mut trace),
    )?;
    let rung = Rung::new(name, trace, &out);
    out.counts.add(&warm.counts);
    out.abandoned.extend(warm.abandoned);
    out.transcripts.extend(warm.transcripts);
    Ok((backend, rung, out))
}

/// Median over `reps` timings of `f`, in ns.
fn time_ns(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut v = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        v.push(t.elapsed().as_nanos() as f64);
    }
    Ok(median(&v))
}

/// Cost of one `Instant::now()`, ns.
fn clock_ns() -> f64 {
    const N: u32 = 200_000;
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                black_box(Instant::now());
            }
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    median(&reps)
}

/// Cost of one truthful-oracle lookup, ns, over the recorded questions.
fn oracle_ns(w: &Workload, pairs: &[(NodeId, NodeId)]) -> f64 {
    let closure = w.closure();
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u64;
            while calls < 1_000_000 {
                for &(q, target) in pairs {
                    black_box(closure.reaches(black_box(q), black_box(target)));
                }
                calls += pairs.len() as u64;
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&reps)
}

/// One compiled cursor step (question fetched and answered), ns, replaying
/// the recorded transcripts through the compiled trees with no clock read
/// per step.
fn cursor_step_ns(
    w: &Workload,
    bare: &Bare<'_>,
    recorded: &[(u32, Vec<(NodeId, bool)>)],
) -> Result<f64, String> {
    let trees: HashMap<_, _> = bare.trees().collect();
    let reach = (!w.dag.is_tree()).then(|| ReachIndex::auto(&w.dag));
    let ctx = w.context(reach.as_ref());
    let mut reps = Vec::new();
    for _ in 0..5 {
        let (mut steps, t) = (0u64, Instant::now());
        while steps < 2_000_000 {
            for (search, qa) in recorded {
                let s = w.stream[*search as usize];
                let tree = trees.get(&s.kind).ok_or("kind not compiled")?;
                let mut cursor = tree.cursor(&ctx, None);
                for &(q, yes) in qa {
                    if cursor.next_question(tree) != Ok(SessionStep::Ask(q)) {
                        return Err(format!("compiled cursor diverged on search {search}"));
                    }
                    cursor
                        .answer(tree, &ctx, black_box(yes))
                        .map_err(|e| e.to_string())?;
                }
                if cursor.next_question(tree) != Ok(SessionStep::Resolved(s.target)) {
                    return Err(format!(
                        "compiled cursor missed the target of search {search}"
                    ));
                }
                steps += qa.len() as u64;
            }
        }
        reps.push(t.elapsed().as_nanos() as f64 / steps as f64);
    }
    Ok(median(&reps))
}

/// The traced run.
pub fn run(w: &Workload, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let clock = clock_ns();

    // Set-up layers, each timed alone.
    let reach_build = time_ns(SETUP_REPS, || {
        black_box(ReachIndex::closure_for(&w.dag));
        Ok(())
    })?;
    let mut register = Vec::new();
    for _ in 0..SETUP_REPS {
        let engine = aigs_service::SearchEngine::try_new(w.config(None, true))
            .map_err(|e| format!("engine: {e}"))?;
        let t = Instant::now();
        engine
            .register_plan(w.spec())
            .map_err(|e| format!("register_plan: {e}"))?;
        register.push(t.elapsed().as_nanos() as f64);
    }

    // Rung 1 and the other tier's bare rung.
    let reach = (!w.dag.is_tree()).then(|| ReachIndex::auto(&w.dag));
    let ctx = w.context(reach.as_ref());
    let (bare, compile_a) = Bare::new(ctx, &w.kinds, w.compiled)?;
    let (bare, rung1, out1) = traced(w, "bare", bare)?;
    let bare_hits = bare.pool_hits;
    let (side, compile_b) = Bare::new(ctx, &w.kinds, !w.compiled)?;
    let (side, side_rung, side_out) = traced(w, "bare-other-tier", side)?;
    let (live, compiled_bare) = if w.compiled {
        (&side_rung, &bare)
    } else {
        (&rung1, &side)
    };
    let recorded: Vec<(u32, Vec<(NodeId, bool)>)> = out1
        .transcripts
        .iter()
        .map(|t| (t.search, t.qa.clone()))
        .collect();
    let cursor_step = cursor_step_ns(w, compiled_bare, &recorded)?;
    let pairs: Vec<(NodeId, NodeId)> = recorded
        .iter()
        .flat_map(|(s, qa)| {
            let target = w.stream[*s as usize].target;
            qa.iter().map(move |&(q, _)| (q, target))
        })
        .collect();
    let oracle = oracle_ns(w, &pairs);
    let mut checked = check::transcripts(w, &out1.transcripts)?;
    checked += check::transcripts(w, &side_out.transcripts)?;

    // Rungs 2-4: the in-process engine, adding telemetry, then the WAL.
    let mut rungs = Vec::new();
    let mut engine_counts = Vec::new();
    let mut rung3_stats = None;
    let mut wal = (0.0, 0.0, 0.0);
    let mut recover = (0.0, 0.0);
    for (name, telemetry, durable) in [
        ("engine", false, false),
        ("engine+telemetry", true, false),
        ("engine+telemetry+wal", true, true),
    ] {
        let dir = durable.then(|| tmp.join("ladder-wal"));
        let (served, _, mut counts) = Served::set_up(w, dir, telemetry, false)?;
        let backend = Engine {
            engine: &served.engine,
            plan: served.plan,
        };
        let (_, rung, out) = traced(w, name, backend)?;
        counts.add(&out.counts);
        check::reconcile(&served.engine, &counts)?;
        checked += check::transcripts(w, &out.transcripts)?;
        let stats = served.engine.stats();
        let tele = served.engine.telemetry();
        if name == "engine+telemetry" {
            rung3_stats = Some((stats, tele.op_tier(Op::Open, Tier::Live).count()));
        } else if durable {
            check::not_degraded(&served.engine)?;
            let opened = out.counts.opened as f64;
            wal = (
                stats.wal_records as f64 / opened,
                tele.wal.append_bytes as f64 / opened,
                tele.wal.fsync_batch.mean(),
            );
            let crashed = Crashed {
                dir: served.crash()?.expect("durable rung"),
                in_flight: out.in_flight,
                abandoned: out.abandoned,
                evicted: counts.evicted,
            };
            let (secs, restored) = check::recover(w, &crashed)?;
            recover = (secs, restored as f64 / secs);
            std::fs::remove_dir_all(&crashed.dir).map_err(|e| e.to_string())?;
        }
        engine_counts.push(counts);
        rungs.push(rung);
    }

    // Rung 5: the wire in front of the full stack.
    let (served, _, mut counts) = Served::set_up(w, Some(tmp.join("ladder-wire")), true, true)?;
    let addr = served.server.as_ref().expect("wire set up").local_addr();
    let mut connects = Vec::new();
    for _ in 0..CONNECT_SAMPLES {
        let t = Instant::now();
        let client = aigs_service::wire::WireClient::connect(addr).map_err(|e| e.to_string())?;
        connects.push(t.elapsed().as_nanos() as f64);
        drop(client);
    }
    let backend = Wire::connect(&served.engine, addr, served.plan)?;
    let (backend, rung5, out5) = traced(w, "wire", backend)?;
    drop(backend);
    counts.add(&out5.counts);
    check::reconcile(&served.engine, &counts)?;
    check::not_degraded(&served.engine)?;
    checked += check::transcripts(w, &out5.transcripts)?;
    engine_counts.push(counts);
    if let Some(dir) = served.crash()? {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    rungs.push(rung5);

    // Every rung replays the same stream: the same searches resolve with
    // the same queries, and every engine rung counts the same operations.
    for r in rungs.iter().chain([&side_rung]) {
        if r.resolved != rung1.resolved {
            return Err(format!(
                "rung {} resolved {:?} (searches, queries); the bare rung {:?}",
                r.name, r.resolved, rung1.resolved
            ));
        }
    }
    if engine_counts[1..].iter().any(|c| *c != engine_counts[0]) {
        return Err(format!(
            "engine rungs counted different operations: {engine_counts:?}"
        ));
    }

    let [r2, r3, r4, r5] = [&rungs[0], &rungs[1], &rungs[2], &rungs[3]];
    let (stats3, live_opens) = rung3_stats.expect("rung 3 ran");
    let telemetry_self = r3.step(0.5) - r2.step(0.5);
    let harness = out5.oracle_calls as f64 * oracle + (r5.clock_reads - r5.spans) as f64 * clock;
    let m = &mut report;
    m.metric("graph.reach_build_ms", reach_build / 1e6, "ms");
    m.metric("plan.register_ms", median(&register) / 1e6, "ms");
    m.metric(
        "compiled.compile_ms",
        (compile_a + compile_b) as f64 / 1e6,
        "ms",
    );
    m.metric("policy.select_ns_p50", live.op(SpanOp::Next, 0.5), "ns");
    m.metric("policy.select_ns_p99", live.op(SpanOp::Next, 0.99), "ns");
    m.metric("policy.observe_ns_p50", live.op(SpanOp::Answer, 0.5), "ns");
    m.metric("policy.observe_ns_p99", live.op(SpanOp::Answer, 0.99), "ns");
    m.metric("compiled.cursor_step_ns", cursor_step, "ns");
    m.metric("plan.open_ns_p50", rung1.op(SpanOp::Open, 0.5), "ns");
    m.metric("plan.open_ns_p99", rung1.op(SpanOp::Open, 0.99), "ns");
    m.metric(
        "plan.pool_hit_ratio",
        if live_opens == 0 {
            0.0
        } else {
            stats3.pool_hits as f64 / live_opens as f64
        },
        "ratio",
    );
    m.metric("engine.step_self_ns", r2.step(0.5) - rung1.step(0.5), "ns");
    m.metric(
        "engine.open_self_ns",
        r2.op(SpanOp::Open, 0.5) - rung1.op(SpanOp::Open, 0.5),
        "ns",
    );
    m.metric(
        "engine.finish_self_ns",
        r2.op(SpanOp::Finish, 0.5) - rung1.op(SpanOp::Finish, 0.5),
        "ns",
    );
    m.metric("telemetry.step_self_ns", telemetry_self, "ns");
    m.metric("telemetry.share", telemetry_self / r3.step(0.5), "ratio");
    m.metric(
        "wal.append_self_ns",
        r4.op(SpanOp::Answer, 0.5) - r3.op(SpanOp::Answer, 0.5),
        "ns",
    );
    m.metric("wal.records_per_search", wal.0, "count");
    m.metric("wal.bytes_per_search", wal.1, "B");
    m.metric("wal.fsync_batch_mean", wal.2, "count");
    m.metric("recover_s", recover.0, "s");
    m.metric("durability.recover_sessions_per_s", recover.1, "1/s");
    for (op, name50, name99) in [
        (
            SpanOp::Open,
            "wire.rtt_self_us_open_p50",
            "wire.rtt_self_us_open_p99",
        ),
        (
            SpanOp::Next,
            "wire.rtt_self_us_next_p50",
            "wire.rtt_self_us_next_p99",
        ),
        (
            SpanOp::Answer,
            "wire.rtt_self_us_answer_p50",
            "wire.rtt_self_us_answer_p99",
        ),
        (
            SpanOp::Finish,
            "wire.rtt_self_us_finish_p50",
            "wire.rtt_self_us_finish_p99",
        ),
    ] {
        m.metric(name50, (r5.op(op, 0.5) - r4.op(op, 0.5)) / 1e3, "us");
        m.metric(name99, (r5.op(op, 0.99) - r4.op(op, 0.99)) / 1e3, "us");
    }
    m.metric("wire.connect_us", median(&connects) / 1e3, "us");
    m.metric("engine.steps", stats3.steps as f64, "count");
    m.metric("engine.evicted", stats3.evicted as f64, "count");
    m.metric("engine.compiled_hits", stats3.compiled_hits as f64, "count");
    m.metric(
        "engine.compiled_fallbacks",
        stats3.compiled_fallbacks as f64,
        "count",
    );
    m.metric("bench.oracle_ns", oracle, "ns");
    m.metric("bench.clock_ns", clock, "ns");
    // The top rung rebuilt from the ladder: each op's count times its bare
    // median plus every layer's self median. Self medians are differences
    // of rung medians, so that sum is rung 5's median of the op. What the
    // ladder leaves unexplained is the tail beyond the medians (stalls,
    // fsync waits, slow round trips) and any time outside a span.
    let explained = r5
        .ops
        .values()
        .map(|spans| spans.len() as f64 * quantile(spans, 0.5))
        .sum::<f64>()
        + harness;
    m.metric(
        "ladder.unexplained_share",
        1.0 - explained / r5.wall_ns as f64,
        "ratio",
    );

    for r in [&rung1, &side_rung].into_iter().chain(&rungs) {
        report.note(format!(
            "rung {:<22} wall {:>8.1} ms  step p50 {:>9.0} ns  open p50 {:>9.0} ns  finish p50 {:>9.0} ns",
            r.name,
            r.wall_ns as f64 / 1e6,
            r.step(0.5),
            r.op(SpanOp::Open, 0.5),
            r.op(SpanOp::Finish, 0.5)
        ));
    }
    report.note(format!(
        "{} searches replayed per rung, window {}; bare pool hits {bare_hits}; \
         {checked} transcripts bit-identical to the inline loop; op counts reconcile \
         on every engine rung",
        w.traced, w.window
    ));
    let total = engine_counts[0];
    report.attempted = total.attempted;
    report.failed = total.refused;
    Ok(report)
}
