//! The closed loop: one client thread advances a window of suspended
//! sessions round-robin, answering each question truthfully, finishing
//! each resolved search and opening the next search of the stream in its
//! place.

use std::time::Instant;

use aigs_core::{SearchOutcome, SessionStep};
use aigs_graph::NodeId;

use crate::backend::{Backend, OpenError};
use crate::stats::Blocks;
use crate::workload::{Fate, Workload};

/// Sweep the idle heap once per this many opens (workloads with
/// abandoned sessions only).
const SWEEP_EVERY: u64 = 256;

/// A traced call into the layer under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanOp {
    Open,
    /// `next_question` that returned a question.
    Next,
    /// `next_question` that returned the resolved target.
    Resolve,
    Answer,
    Finish,
    Cancel,
    Connect,
}

/// One span: a call's name, start and end (ns since the trace origin) and
/// its parent, the position of its search in the stream.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: SpanOp,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

/// In-memory span recorder of a traced run.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn push(&mut self, op: SpanOp, start: Instant, end: Instant, parent: u32) {
        self.spans.push(Span {
            op,
            start: start.duration_since(self.origin).as_nanos() as u64,
            end: end.duration_since(self.origin).as_nanos() as u64,
            parent,
        });
    }
}

/// Operation counts, kept by the benchmark itself and reconciled against
/// the engine's own counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub opened: u64,
    pub finished: u64,
    pub cancelled: u64,
    pub evicted: u64,
    /// `next_question` plus `answer` calls.
    pub steps: u64,
    /// Opens the server refused.
    pub refused: u64,
    /// Every operation attempted.
    pub attempted: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.opened += o.opened;
        self.finished += o.finished;
        self.cancelled += o.cancelled;
        self.evicted += o.evicted;
        self.steps += o.steps;
        self.refused += o.refused;
        self.attempted += o.attempted;
    }
}

/// A recorded transcript: the search's position, its questions with their
/// answers, and the outcome the serving path returned.
pub struct Transcript {
    pub search: u32,
    pub qa: Vec<(NodeId, bool)>,
    pub outcome: SearchOutcome,
}

/// A session left suspended when a run stops: its id, its search and how
/// many questions it has had answered.
#[derive(Clone, Copy)]
pub struct Suspended<Id> {
    pub id: Id,
    pub search: u32,
    pub answered: u32,
}

/// What one run of the closed loop measured and saw.
pub struct Outcome<Id> {
    pub wall_ns: u64,
    /// Searches driven to resolution, and their summed query count.
    pub resolved: u64,
    pub queries: u64,
    /// Open call → first question in hand, ns.
    pub first_question: Blocks,
    /// Answer submitted → next question or resolved target in hand, ns.
    pub gaps: Blocks,
    pub counts: Counts,
    pub transcripts: Vec<Transcript>,
    /// Window sessions still suspended when a non-draining run stopped.
    pub in_flight: Vec<Suspended<Id>>,
    /// Sessions abandoned to idle eviction.
    pub abandoned: Vec<Suspended<Id>>,
    pub oracle_calls: u64,
    pub clock_reads: u64,
}

struct Active<Id> {
    id: Id,
    search: u32,
    question: NodeId,
    answered: u32,
    visited: bool,
    qa: Option<Vec<(NodeId, bool)>>,
}

struct ClosedLoop<'w, 't, B: Backend> {
    backend: B,
    w: &'w Workload,
    order: &'w [u32],
    cursor: usize,
    sweeps: bool,
    trace: Option<&'t mut Trace>,
    out: Outcome<B::Id>,
}

/// Drives the searches at positions `order` of the workload's stream
/// through `backend` with `window` sessions in flight. With `drain` the run
/// ends when every search is done; without it, it stops as soon as the
/// stream is exhausted and leaves the window suspended (the crash point of
/// a recovery drill). Every resolved search is checked against its target.
/// With `trace`, a span is recorded around every call into the backend.
pub fn drive<B: Backend>(
    backend: B,
    w: &Workload,
    order: &[u32],
    window: usize,
    drain: bool,
    sweeps: bool,
    trace: Option<&mut Trace>,
) -> Result<(B, Outcome<B::Id>), String> {
    let mut d = ClosedLoop {
        backend,
        w,
        order,
        cursor: 0,
        sweeps,
        trace,
        out: Outcome {
            wall_ns: 0,
            resolved: 0,
            queries: 0,
            first_question: Blocks::new(),
            gaps: Blocks::new(),
            counts: Counts::default(),
            transcripts: Vec::new(),
            in_flight: Vec::new(),
            abandoned: Vec::new(),
            oracle_calls: 0,
            clock_reads: 0,
        },
    };
    let start = Instant::now();
    let mut slots: Vec<Option<Active<B::Id>>> = Vec::with_capacity(window);
    for _ in 0..window {
        slots.push(d.open_next()?);
    }
    'rounds: loop {
        let mut any = false;
        for slot in slots.iter_mut() {
            let Some(active) = slot.as_mut() else {
                continue;
            };
            any = true;
            if !d.visit(active)? {
                *slot = None;
                if !drain && d.cursor == order.len() {
                    break 'rounds;
                }
                *slot = d.open_next()?;
            }
        }
        if !any {
            break;
        }
    }
    d.out.wall_ns = start.elapsed().as_nanos() as u64;
    d.out.in_flight = slots
        .into_iter()
        .flatten()
        .map(|a| Suspended {
            id: a.id,
            search: a.search,
            answered: a.answered,
        })
        .collect();
    Ok((d.backend, d.out))
}

impl<B: Backend> ClosedLoop<'_, '_, B> {
    fn now(&mut self) -> Instant {
        self.out.clock_reads += 1;
        Instant::now()
    }

    fn span(&mut self, op: SpanOp, start: Instant, end: Instant, parent: u32) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(op, start, end, parent);
        }
    }

    /// Opens the next search of the stream (skipping refused ones) and
    /// fetches its first question; `None` once the stream is exhausted.
    fn open_next(&mut self) -> Result<Option<Active<B::Id>>, String> {
        while self.cursor < self.order.len() {
            let search = self.order[self.cursor];
            self.cursor += 1;
            if self.sweeps && (self.cursor as u64).is_multiple_of(SWEEP_EVERY) {
                self.out.counts.evicted += self.backend.sweep() as u64;
            }
            let s = self.w.stream[search as usize];
            self.out.counts.attempted += 1;
            let t0 = self.now();
            let id = match self.backend.open(s.kind) {
                Ok(id) => id,
                Err(OpenError::Refused) => {
                    self.out.counts.refused += 1;
                    continue;
                }
                Err(OpenError::Broken(e)) => return Err(e),
            };
            let t1 = self.now();
            self.out.counts.opened += 1;
            self.out.counts.attempted += 1;
            self.out.counts.steps += 1;
            let step = self.backend.next(id)?;
            let t2 = self.now();
            self.out.first_question.push((t2 - t0).as_nanos() as u64);
            self.span(SpanOp::Open, t0, t1, search);
            let mut active = Active {
                id,
                search,
                question: NodeId::new(0),
                answered: 0,
                visited: false,
                qa: s.verify.then(Vec::new),
            };
            match step {
                SessionStep::Ask(q) => {
                    self.span(SpanOp::Next, t1, t2, search);
                    active.question = q;
                    return Ok(Some(active));
                }
                SessionStep::Resolved(found) => {
                    // A search that needs no question (a one-node plan).
                    self.span(SpanOp::Resolve, t1, t2, search);
                    self.complete(&mut active, found)?;
                }
            }
        }
        Ok(None)
    }

    /// Advances one session by one question. Returns `false` when the
    /// session left the window (finished, cancelled or abandoned).
    fn visit(&mut self, a: &mut Active<B::Id>) -> Result<bool, String> {
        let s = self.w.stream[a.search as usize];
        let first = !a.visited;
        a.visited = true;
        if first && s.fate == Fate::Cancel {
            self.out.counts.attempted += 1;
            let t0 = self.now();
            self.backend.cancel(a.id)?;
            let t1 = self.now();
            self.span(SpanOp::Cancel, t0, t1, a.search);
            self.out.counts.cancelled += 1;
            return Ok(false);
        }
        self.out.oracle_calls += 1;
        let yes = self.w.closure().reaches(a.question, s.target);
        if let Some(qa) = a.qa.as_mut() {
            qa.push((a.question, yes));
        }
        self.out.counts.attempted += 1;
        let t0 = self.now();
        self.backend.answer(a.id, yes)?;
        let t1 = self.now();
        self.span(SpanOp::Answer, t0, t1, a.search);
        self.out.counts.steps += 1;
        a.answered += 1;
        if first && s.fate == Fate::Abandon {
            self.backend.abandon(a.id);
            self.out.abandoned.push(Suspended {
                id: a.id,
                search: a.search,
                answered: a.answered,
            });
            return Ok(false);
        }
        self.out.counts.attempted += 1;
        let step = self.backend.next(a.id)?;
        let t2 = self.now();
        self.out.counts.steps += 1;
        self.out.gaps.push((t2 - t0).as_nanos() as u64);
        match step {
            SessionStep::Ask(q) => {
                self.span(SpanOp::Next, t1, t2, a.search);
                a.question = q;
            }
            SessionStep::Resolved(found) => {
                self.span(SpanOp::Resolve, t1, t2, a.search);
                self.complete(a, found)?;
                return Ok(false);
            }
        }
        if first && s.fate == Fate::Reconnect {
            let t0 = self.now();
            self.backend.reconnect()?;
            let t1 = self.now();
            self.span(SpanOp::Connect, t0, t1, a.search);
        }
        Ok(true)
    }

    /// Finishes a resolved session and checks it found its target.
    fn complete(&mut self, a: &mut Active<B::Id>, found: NodeId) -> Result<(), String> {
        let target = self.w.stream[a.search as usize].target;
        if found != target {
            return Err(format!(
                "search {} resolved to {found:?}, its target is {target:?}",
                a.search
            ));
        }
        self.out.counts.attempted += 1;
        let t0 = self.now();
        let outcome = self.backend.finish(a.id)?;
        let t1 = self.now();
        self.span(SpanOp::Finish, t0, t1, a.search);
        self.out.counts.finished += 1;
        if outcome.target != target || outcome.queries != a.answered {
            return Err(format!(
                "search {} finished as {:?} after {} queries; expected {target:?} after {}",
                a.search, outcome.target, outcome.queries, a.answered
            ));
        }
        self.out.resolved += 1;
        self.out.queries += u64::from(outcome.queries);
        if let Some(qa) = a.qa.take() {
            self.out.transcripts.push(Transcript {
                search: a.search,
                qa,
                outcome,
            });
        }
        Ok(())
    }
}
