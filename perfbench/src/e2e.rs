//! The end-to-end run (`--trace 0`): set-up, then repeated passes of the
//! workload's search stream for the run length, then (on the durable
//! workload) a crash and a checked recovery.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use aigs_service::wire::WireServer;
use aigs_service::{PlanId, SearchEngine, SessionId};

use crate::backend::{Engine, Wire};
use crate::check::{self, Crashed};
use crate::closed_loop::{drive, Counts, Outcome};
use crate::stats::{rss_peak_mib, Blocks, Report, BLOCK};
use crate::workload::Workload;

/// Set-up is repeated this many times before the passes and as many
/// times after them, and in bursts of [`SETUP_BURST`] between passes at
/// least [`SETUP_EVERY_S`] apart; `setup_s` is the fastest of all. A
/// shared host has spells in which set-up runs up to half as fast while
/// the passes keep their speed. The fastest set-up needs one quiet
/// moment; bursts through the run give it more chances than both ends
/// alone. They come in bursts because a lone set-up between passes runs
/// cold.
const SETUP_REPS: usize = 16;
const SETUP_BURST: usize = 8;
const SETUP_EVERY_S: f64 = 4.0;
/// Passes measured at least, however long they take.
const MIN_PASSES: usize = 3;

/// An engine set up for serving, with its wire server when the workload
/// has one.
pub struct Served {
    pub engine: Arc<SearchEngine>,
    pub plan: PlanId,
    pub server: Option<WireServer>,
    pub wal: Option<PathBuf>,
}

impl Served {
    /// Builds engine, plan and (with `wire`) server, and opens one probe
    /// session per policy kind so the lazy compile and warm prototypes are
    /// built. The probes are cancelled after the clock stops. Returns the
    /// served stack, its set-up time in seconds and the probes' op counts.
    pub fn set_up(
        w: &Workload,
        wal: Option<PathBuf>,
        telemetry: bool,
        wire: bool,
    ) -> Result<(Served, f64, Counts), String> {
        let t = Instant::now();
        let engine = SearchEngine::try_new(w.config(wal.as_deref(), telemetry))
            .map_err(|e| format!("engine: {e}"))?;
        let engine = Arc::new(engine);
        let plan = engine
            .register_plan(w.spec())
            .map_err(|e| format!("register_plan: {e}"))?;
        let mut probes = Vec::new();
        for &kind in &w.kinds {
            let id = engine
                .open_session(plan, kind)
                .map_err(|e| format!("first open of {}: {e}", kind.name()))?
                .id();
            probes.push(id);
        }
        let server = if wire {
            let server = WireServer::bind(Arc::clone(&engine), "127.0.0.1:0", 1)
                .map_err(|e| format!("bind: {e}"))?;
            Some(server)
        } else {
            None
        };
        let secs = t.elapsed().as_secs_f64();
        let mut counts = Counts::default();
        for id in probes {
            engine
                .cancel(id)
                .map_err(|e| format!("cancel probe: {e}"))?;
            counts.opened += 1;
            counts.cancelled += 1;
            counts.attempted += 2;
        }
        let served = Served {
            engine,
            plan,
            server,
            wal,
        };
        Ok((served, secs, counts))
    }

    /// Stops the server and drops the engine, returning its log directory.
    /// With sessions still suspended this is the crash a recovery drill
    /// recovers from: nothing is cancelled or finished first.
    pub fn crash(self) -> Result<Option<PathBuf>, String> {
        if let Some(server) = self.server {
            server.shutdown();
        }
        Arc::into_inner(self.engine).ok_or("the engine is still shared after shutdown")?;
        Ok(self.wal)
    }
}

/// Sets up `reps` times, appending each set-up time to `times`. Every
/// stack but the last is torn down at once; the last is returned.
fn set_up_reps(
    w: &Workload,
    tmp: &Path,
    times: &mut Vec<f64>,
    reps: usize,
) -> Result<(Served, Counts), String> {
    let mut kept: Option<(Served, Counts)> = None;
    for _ in 0..reps {
        let wal = w.durable.then(|| tmp.join(format!("wal-{}", times.len())));
        let (served, secs, counts) = Served::set_up(w, wal, true, w.wire)?;
        times.push(secs);
        if let Some((old, _)) = kept.replace((served, counts)) {
            tear_down(old)?;
        }
    }
    Ok(kept.expect("at least one set-up"))
}

/// Drops a served stack and removes its log directory.
fn tear_down(served: Served) -> Result<(), String> {
    if let Some(dir) = served.crash()? {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
    }
    Ok(())
}

/// Runs the searches at positions `order` of the stream through the
/// workload's client, in process or over one connection to the server.
/// A single client thread keeps the run to the host's two vCPUs: a
/// second connection (and its server thread) on a 2-vCPU host made the
/// run measure the scheduler, and per-pass rates within one run moved by 2×.
fn pass(
    w: &Workload,
    served: &Served,
    order: &[u32],
    drain: bool,
) -> Result<Outcome<SessionId>, String> {
    let out = match &served.server {
        None => {
            let backend = Engine {
                engine: &served.engine,
                plan: served.plan,
            };
            drive(backend, w, order, w.window, drain, false, None)?.1
        }
        Some(server) => {
            let backend = Wire::connect(&served.engine, server.local_addr(), served.plan)?;
            drive(backend, w, order, w.window, drain, true, None)?.1
        }
    };
    Ok(out)
}

/// The end-to-end run.
pub fn run(w: &Workload, seconds: f64, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::default();

    // Set-up, repeated; the last one serves the run.
    let mut setup = Vec::new();
    let (served, mut counts) = set_up_reps(w, tmp, &mut setup, SETUP_REPS)?;

    // Passes: the first warms pools and caches and is not measured.
    let order: Vec<u32> = (0..w.pass as u32).collect();
    let mut rates = Vec::new();
    let (mut measured, mut measured_ns) = (0u64, 0u64);
    let mut first_question = Blocks::new();
    let mut gaps = Blocks::new();
    let mut checked = 0;
    let mut abandoned = Vec::new();
    let mut per_pass: Option<(u64, u64)> = None;
    let (mut resolved, mut queries) = (0u64, 0u64);
    let mut measured_from = Instant::now();
    let mut burst_at = Instant::now();
    for i in 0.. {
        if i == 1 {
            measured_from = Instant::now();
        }
        if i > MIN_PASSES && measured_from.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let out = pass(w, &served, &order, true)?;
        let (r, q, wall) = (out.resolved, out.queries, out.wall_ns);
        counts.add(&out.counts);
        checked += check::transcripts(w, &out.transcripts)?;
        abandoned.extend(out.abandoned);
        if i > 0 {
            first_question.append(out.first_question);
            gaps.append(out.gaps);
        }
        // Each pass replays the same stream, so it resolves the same
        // searches with the same queries.
        if *per_pass.get_or_insert((r, q)) != (r, q) {
            return Err(format!(
                "pass {i} resolved {r} searches with {q} queries; pass 0 resolved {:?}",
                per_pass
            ));
        }
        resolved += r;
        queries += q;
        if i > 0 {
            rates.push(r as f64 / (wall as f64 / 1e9));
            measured += r;
            measured_ns += wall;
        }
        if burst_at.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            let (s, _) = set_up_reps(w, tmp, &mut setup, SETUP_BURST)?;
            tear_down(s)?;
            burst_at = Instant::now();
        }
    }
    let fq = first_question.p50_p99();
    let gap = gaps.p50_p99();
    // Over all measured passes together. The host alternates between fast and slow spells of tens of seconds; a
    // median over passes jumps with whichever spell dominates a run, the
    // pooled rate moves with the share of each.
    report.metric(
        "searches_per_s",
        measured as f64 / (measured_ns as f64 / 1e9),
        "1/s",
    );
    report.metric("first_question_p50_us", fq.0 / 1e3, "us");
    report.metric("first_question_p99_us", fq.1 / 1e3, "us");
    report.metric("question_gap_p50_us", gap.0 / 1e3, "us");
    report.metric("question_gap_p99_us", gap.1 / 1e3, "us");
    report.metric(
        "queries_per_search",
        queries as f64 / resolved as f64,
        "count",
    );

    report.metric("rss_peak_mib", rss_peak_mib()?, "MiB");

    // The compiled workload must serve compiled and never fall back.
    let stats = served.engine.stats();
    if w.compiled && (stats.compiled_hits == 0 || stats.compiled_fallbacks != 0) {
        return Err(format!(
            "compiled tier not serving: {} hits, {} fallbacks",
            stats.compiled_hits, stats.compiled_fallbacks
        ));
    }
    report.note(format!(
        "{} measured passes of {} searches (+1 warm-up); first_question samples {} \
         in {} blocks, question_gap samples {} in {} blocks (percentiles: median over \
         blocks of {BLOCK})",
        rates.len(),
        w.pass,
        first_question.seen(),
        first_question.blocks(),
        gaps.seen(),
        gaps.blocks()
    ));
    report.note(format!(
        "per-pass searches/s: {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    report.note(format!(
        "engine: {} shards, {} tier, telemetry on, WAL {}; one client {}; host parallelism {}",
        stats.shards,
        w.tier(),
        if w.durable { "on" } else { "off" },
        if w.wire { "connection" } else { "thread" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));

    // Crash drill on the durable workload: half a pass more, then the
    // server is stopped and the engine dropped with its window and the
    // abandoned sessions suspended. Every suspended session must be
    // restored, resume and reach its target.
    if w.durable {
        let out = pass(w, &served, &order[..w.pass / 2], false)?;
        counts.add(&out.counts);
        checked += check::transcripts(w, &out.transcripts)?;
        abandoned.extend(out.abandoned);
        check::reconcile(&served.engine, &counts)?;
        check::not_degraded(&served.engine)?;
        let crashed = Crashed {
            dir: served.crash()?.expect("the durable workload has a WAL"),
            in_flight: out.in_flight,
            abandoned,
            evicted: counts.evicted,
        };
        let (_, restored) = check::recover(w, &crashed)?;
        report.note(format!(
            "crash drill: {restored} sessions recovered and resumed to their targets"
        ));
    } else {
        check::reconcile(&served.engine, &counts)?;
        tear_down(served)?;
    }
    let (last, _) = set_up_reps(w, tmp, &mut setup, SETUP_REPS)?;
    tear_down(last)?;
    report.note(format!("setup_s: fastest of {} set-ups", setup.len()));
    report.metric(
        "setup_s",
        setup.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    report.attempted = counts.attempted;
    report.failed = counts.refused;
    report.metric(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    report.note(format!(
        "checked: {checked} transcripts bit-identical to the inline loop; op counts reconcile"
    ));
    Ok(report)
}
