//! Correctness gates: transcripts against the inline loop, the
//! benchmark's op counts against the engine's counters, and crash
//! recovery.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use aigs_core::{run_session, SessionStep, TargetOracle, TranscriptOracle};
use aigs_graph::ReachIndex;
use aigs_service::telemetry::Op;
use aigs_service::{SearchEngine, ServiceError, SessionId};

use crate::closed_loop::{Counts, Suspended, Transcript};
use crate::workload::Workload;

/// Checks every recorded transcript bit for bit against the inline
/// [`run_session`] loop on the same plan: questions, answers, query count
/// and price bits. Returns how many were checked.
pub fn transcripts(w: &Workload, recorded: &[Transcript]) -> Result<usize, String> {
    let reach = (!w.dag.is_tree()).then(|| ReachIndex::auto(&w.dag));
    let ctx = w.context(reach.as_ref());
    let mut policies = HashMap::new();
    for t in recorded {
        let s = w.stream[t.search as usize];
        let policy = policies.entry(s.kind).or_insert_with(|| s.kind.build());
        let mut oracle = TranscriptOracle::new(TargetOracle::new(&w.dag, s.target));
        let want = run_session(policy.as_mut(), &ctx, &mut oracle, None)
            .map_err(|e| format!("inline run of search {}: {e}", t.search))?;
        if t.qa != oracle.transcript {
            return Err(format!(
                "search {} ({}): served transcript diverged from the inline loop",
                t.search,
                s.kind.name()
            ));
        }
        if t.outcome.target != want.target
            || t.outcome.queries != want.queries
            || t.outcome.price.to_bits() != want.price.to_bits()
        {
            return Err(format!(
                "search {} ({}): served outcome {:?} differs from inline {:?}",
                t.search,
                s.kind.name(),
                t.outcome,
                want
            ));
        }
    }
    Ok(recorded.len())
}

/// Reconciles the benchmark's own op counts with [`SearchEngine::stats`]
/// and, when telemetry records, with the telemetry op totals.
pub fn reconcile(engine: &SearchEngine, c: &Counts) -> Result<(), String> {
    let s = engine.stats();
    let mut bad = Vec::new();
    let mut cmp = |what: &str, bench: u64, engine: u64| {
        if bench != engine {
            bad.push(format!("{what}: benchmark {bench}, engine {engine}"));
        }
    };
    cmp("stats.opened", c.opened, s.opened);
    cmp("stats.finished", c.finished, s.finished);
    cmp("stats.cancelled", c.cancelled, s.cancelled);
    cmp("stats.evicted", c.evicted, s.evicted);
    cmp("stats.steps", c.steps, s.steps);
    cmp("stats.errored", 0, s.errored);
    cmp("stats.panicked", 0, s.panicked);
    cmp(
        "stats.live",
        c.opened - c.finished - c.cancelled - c.evicted,
        s.live as u64,
    );
    let t = engine.telemetry();
    if t.enabled {
        cmp("telemetry.open", c.opened, t.op_total(Op::Open));
        cmp("telemetry.finish", c.finished, t.op_total(Op::Finish));
        cmp("telemetry.cancel", c.cancelled, t.op_total(Op::Cancel));
        cmp("telemetry.evict", c.evicted, t.op_total(Op::Evict));
        cmp(
            "telemetry.next+answer",
            c.steps,
            t.op_total(Op::Next) + t.op_total(Op::Answer),
        );
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("op counts do not reconcile: {}", bad.join("; ")))
    }
}

/// Fails when the engine's WAL has degraded.
pub fn not_degraded(engine: &SearchEngine) -> Result<(), String> {
    let s = engine.stats();
    if s.degraded || engine.telemetry().wal.degraded_transitions != 0 {
        return Err(format!(
            "the WAL degraded: {}",
            s.degraded_reason.unwrap_or_default()
        ));
    }
    Ok(())
}

/// The sessions suspended in a crashed engine's log.
pub struct Crashed {
    pub dir: PathBuf,
    /// Window sessions suspended at the crash.
    pub in_flight: Vec<Suspended<SessionId>>,
    /// Every session abandoned over the engine's life.
    pub abandoned: Vec<Suspended<SessionId>>,
    /// Sessions the idle sweeps evicted over the engine's life.
    pub evicted: u64,
}

/// Recovers the crashed log in place, timing
/// [`SearchEngine::recover_with`]; then every suspended session must be
/// restored, resume, and reach its target. Returns the recovery time in
/// seconds and the sessions restored.
pub fn recover(w: &Workload, crashed: &Crashed) -> Result<(f64, usize), String> {
    let t = Instant::now();
    let (engine, report) = SearchEngine::recover_with(w.config(Some(&crashed.dir), true))
        .map_err(|e| format!("recovery: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if report.sessions_failed != 0 || !report.anomalies.is_empty() {
        return Err(format!("recovery lost sessions: {report:?}"));
    }
    resume_all(w, &engine, crashed, report.sessions)?;
    Ok((secs, report.sessions))
}

/// Drives every session the crash left suspended to its target on the
/// recovered engine.
fn resume_all(
    w: &Workload,
    engine: &SearchEngine,
    crashed: &Crashed,
    restored: usize,
) -> Result<(), String> {
    for s in &crashed.in_flight {
        resume(w, engine, s)?;
    }
    let mut gone = 0;
    for s in &crashed.abandoned {
        match engine.next_question(s.id) {
            Err(ServiceError::UnknownSession(_)) => gone += 1,
            Err(e) => return Err(format!("abandoned session after recovery: {e}")),
            Ok(_) => resume(w, engine, s)?,
        }
    }
    let expected = crashed.in_flight.len() + crashed.abandoned.len() - gone;
    if gone as u64 != crashed.evicted || restored != expected {
        return Err(format!(
            "recovery restored {restored} sessions and {gone} abandoned ones are gone; \
             expected {expected} restored and {} evicted",
            crashed.evicted
        ));
    }
    Ok(())
}

fn resume(w: &Workload, engine: &SearchEngine, s: &Suspended<SessionId>) -> Result<(), String> {
    let target = w.stream[s.search as usize].target;
    let mut answered = s.answered;
    loop {
        match engine
            .next_question(s.id)
            .map_err(|e| format!("recovered session {}: {e}", s.search))?
        {
            SessionStep::Ask(q) => {
                engine
                    .answer(s.id, w.closure().reaches(q, target))
                    .map_err(|e| format!("recovered session {}: {e}", s.search))?;
                answered += 1;
            }
            SessionStep::Resolved(found) => {
                let out = engine
                    .finish(s.id)
                    .map_err(|e| format!("recovered session {}: {e}", s.search))?;
                if found != target || out.target != target || out.queries != answered {
                    return Err(format!(
                        "recovered search {} resolved to {:?} after {} queries; \
                         expected {target:?} after {answered}",
                        s.search, out.target, out.queries
                    ));
                }
                return Ok(());
            }
        }
    }
}
