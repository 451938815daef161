//! The rungs a search stream can be driven through: the bare session state
//! machines, the in-process engine, and the engine behind the wire.

use std::net::SocketAddr;

use aigs_core::{
    CompiledCursor, CompiledPlan, Policy, SearchContext, SearchOutcome, SessionStep, SessionStepper,
};
use aigs_service::wire::{WireClient, WireError, WireFault};
use aigs_service::{PlanId, PolicyKind, SearchEngine, ServiceError, SessionId};

use crate::workload::POOL_CAP;

/// Why an open did not produce a session.
pub enum OpenError {
    /// The server refused it (at its admission limit). Counted as a failed
    /// operation; the search is skipped.
    Refused,
    /// Anything else: the run is broken.
    Broken(String),
}

/// One serving surface, driven by [`crate::closed_loop::drive`].
pub trait Backend {
    /// A session handle.
    type Id: Copy;
    /// Opens a session of `kind`.
    fn open(&mut self, kind: PolicyKind) -> Result<Self::Id, OpenError>;
    /// The session's pending question or resolved target.
    fn next(&mut self, id: Self::Id) -> Result<SessionStep, String>;
    /// Answers the pending question.
    fn answer(&mut self, id: Self::Id, yes: bool) -> Result<(), String>;
    /// Completes a resolved session.
    fn finish(&mut self, id: Self::Id) -> Result<SearchOutcome, String>;
    /// Discards a session.
    fn cancel(&mut self, id: Self::Id) -> Result<(), String>;
    /// Forgets a session without telling the server; a server reclaims it
    /// by idle eviction, the bare rung drops it here.
    fn abandon(&mut self, _id: Self::Id) {}
    /// Drops the connection and opens a fresh one (wire only).
    fn reconnect(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Runs the server's idle sweep, returning the sessions it evicted.
    fn sweep(&mut self) -> usize {
        0
    }
}

/// The in-process engine.
pub struct Engine<'e> {
    pub engine: &'e SearchEngine,
    pub plan: PlanId,
}

fn open_error(e: ServiceError) -> OpenError {
    match e {
        ServiceError::AtCapacity { .. } => OpenError::Refused,
        e => OpenError::Broken(format!("open: {e}")),
    }
}

impl Backend for Engine<'_> {
    type Id = SessionId;

    fn open(&mut self, kind: PolicyKind) -> Result<SessionId, OpenError> {
        self.engine
            .open_session(self.plan, kind)
            .map(|h| h.id())
            .map_err(open_error)
    }

    fn next(&mut self, id: SessionId) -> Result<SessionStep, String> {
        self.engine
            .next_question(id)
            .map_err(|e| format!("next_question: {e}"))
    }

    fn answer(&mut self, id: SessionId, yes: bool) -> Result<(), String> {
        self.engine
            .answer(id, yes)
            .map_err(|e| format!("answer: {e}"))
    }

    fn finish(&mut self, id: SessionId) -> Result<SearchOutcome, String> {
        self.engine.finish(id).map_err(|e| format!("finish: {e}"))
    }

    fn cancel(&mut self, id: SessionId) -> Result<(), String> {
        self.engine.cancel(id).map_err(|e| format!("cancel: {e}"))
    }

    fn sweep(&mut self) -> usize {
        self.engine.sweep_idle()
    }
}

/// One wire connection to a loopback server. Idle sweeps go to the
/// in-process engine behind the server, as an operator's janitor would.
pub struct Wire<'e> {
    engine: &'e SearchEngine,
    addr: SocketAddr,
    client: Option<WireClient>,
    plan: PlanId,
}

impl<'e> Wire<'e> {
    /// Connects to the server at `addr`.
    pub fn connect(
        engine: &'e SearchEngine,
        addr: SocketAddr,
        plan: PlanId,
    ) -> Result<Self, String> {
        let client = WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Wire {
            engine,
            addr,
            client: Some(client),
            plan,
        })
    }

    fn client(&mut self) -> &mut WireClient {
        self.client.as_mut().expect("connected between calls")
    }
}

fn wire_err(op: &str, e: WireError) -> String {
    format!("{op} over the wire: {e}")
}

impl Backend for Wire<'_> {
    type Id = SessionId;

    fn open(&mut self, kind: PolicyKind) -> Result<SessionId, OpenError> {
        let plan = self.plan;
        self.client().open(plan, kind).map_err(|e| match e {
            WireError::Fault(WireFault::AtCapacity { .. }) => OpenError::Refused,
            e => OpenError::Broken(wire_err("open", e)),
        })
    }

    fn next(&mut self, id: SessionId) -> Result<SessionStep, String> {
        self.client()
            .next_question(id)
            .map_err(|e| wire_err("next_question", e))
    }

    fn answer(&mut self, id: SessionId, yes: bool) -> Result<(), String> {
        self.client()
            .answer(id, yes)
            .map_err(|e| wire_err("answer", e))
    }

    fn finish(&mut self, id: SessionId) -> Result<SearchOutcome, String> {
        self.client().finish(id).map_err(|e| wire_err("finish", e))
    }

    fn cancel(&mut self, id: SessionId) -> Result<(), String> {
        self.client().cancel(id).map_err(|e| wire_err("cancel", e))
    }

    fn reconnect(&mut self) -> Result<(), String> {
        // Close first: a serve thread is freed only when its peer hangs up.
        self.client = None;
        self.client = Some(WireClient::connect(self.addr).map_err(|e| format!("reconnect: {e}"))?);
        Ok(())
    }

    fn sweep(&mut self) -> usize {
        self.engine.sweep_idle()
    }
}

/// Per-kind state of the bare rung: a compiled tree, or a pool of warm
/// policy instances managed the way the engine's plan pools are (LIFO, at
/// most [`POOL_CAP`], reset when released, misses cloned from a warm
/// prototype).
struct KindState {
    kind: PolicyKind,
    tree: Option<CompiledPlan>,
    pool: Vec<Box<dyn Policy + Send>>,
    warm: Option<Box<dyn Policy + Send>>,
}

enum BareSession {
    Live {
        k: usize,
        policy: Box<dyn Policy + Send>,
        stepper: SessionStepper,
    },
    Compiled {
        k: usize,
        cursor: CompiledCursor,
    },
}

/// The bottom rung: bare [`SessionStepper`]s over pooled policies, or bare
/// [`CompiledCursor`]s, with no engine around them.
pub struct Bare<'a> {
    ctx: SearchContext<'a>,
    kinds: Vec<KindState>,
    sessions: Vec<Option<BareSession>>,
    free: Vec<usize>,
    /// Opens served from a pooled instance.
    pub pool_hits: u64,
}

impl<'a> Bare<'a> {
    /// A bare rung for `kinds` on `ctx`, compiling each kind's decision
    /// tree when `compiled`. Also returns the total compile time in ns.
    pub fn new(
        ctx: SearchContext<'a>,
        kinds: &[PolicyKind],
        compiled: bool,
    ) -> Result<(Self, u64), String> {
        let mut compile_ns = 0;
        let mut states = Vec::new();
        for &kind in kinds {
            let tree = if compiled {
                let mut policy = kind.build();
                let t = std::time::Instant::now();
                let tree = CompiledPlan::compile(policy.as_mut(), &ctx, &Default::default())
                    .map_err(|e| format!("compile {}: {e}", kind.name()))?;
                compile_ns += t.elapsed().as_nanos() as u64;
                Some(tree)
            } else {
                None
            };
            states.push(KindState {
                kind,
                tree,
                pool: Vec::new(),
                warm: None,
            });
        }
        let bare = Bare {
            ctx,
            kinds: states,
            sessions: Vec::new(),
            free: Vec::new(),
            pool_hits: 0,
        };
        Ok((bare, compile_ns))
    }

    fn acquire(&mut self, k: usize) -> Result<Box<dyn Policy + Send>, String> {
        let state = &mut self.kinds[k];
        if let Some(p) = state.pool.pop() {
            self.pool_hits += 1;
            return Ok(p);
        }
        if state.warm.is_none() {
            let mut p = state.kind.build();
            p.try_reset(&self.ctx)
                .map_err(|e| format!("warm {}: {e}", state.kind.name()))?;
            if p.resolved().is_none() {
                let _ = p.select(&self.ctx);
            }
            state.warm = Some(p);
        }
        Ok(state.warm.as_ref().expect("built above").clone_box())
    }

    fn release(&mut self, id: usize) -> Result<(), String> {
        let session = self.sessions[id]
            .take()
            .ok_or("bare session released twice")?;
        self.free.push(id);
        if let BareSession::Live { k, mut policy, .. } = session {
            if self.kinds[k].pool.len() < POOL_CAP {
                policy
                    .try_reset(&self.ctx)
                    .map_err(|e| format!("reset: {e}"))?;
                self.kinds[k].pool.push(policy);
            }
        }
        Ok(())
    }

    /// The compiled trees, for the bulk cursor-step measurement.
    pub fn trees(&self) -> impl Iterator<Item = (PolicyKind, &CompiledPlan)> {
        self.kinds
            .iter()
            .filter_map(|s| s.tree.as_ref().map(|t| (s.kind, t)))
    }
}

impl Backend for Bare<'_> {
    type Id = usize;

    fn open(&mut self, kind: PolicyKind) -> Result<usize, OpenError> {
        let k = self
            .kinds
            .iter()
            .position(|s| s.kind == kind)
            .ok_or_else(|| OpenError::Broken(format!("kind {} not prepared", kind.name())))?;
        let session = match &self.kinds[k].tree {
            Some(tree) => BareSession::Compiled {
                k,
                cursor: tree.cursor(&self.ctx, None),
            },
            None => {
                let mut policy = self.acquire(k).map_err(OpenError::Broken)?;
                let stepper = SessionStepper::start(policy.as_mut(), &self.ctx, None)
                    .map_err(|e| OpenError::Broken(format!("start: {e}")))?;
                BareSession::Live { k, policy, stepper }
            }
        };
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.sessions.push(None);
                self.sessions.len() - 1
            }
        };
        self.sessions[id] = Some(session);
        Ok(id)
    }

    fn next(&mut self, id: usize) -> Result<SessionStep, String> {
        let ctx = self.ctx;
        let kinds = &self.kinds;
        let session = self.sessions[id].as_mut().ok_or("unknown bare session")?;
        match session {
            BareSession::Live {
                policy, stepper, ..
            } => stepper.next_question(policy.as_mut(), &ctx),
            BareSession::Compiled { k, cursor } => {
                cursor.next_question(kinds[*k].tree.as_ref().expect("compiled kind"))
            }
        }
        .map_err(|e| format!("next_question: {e}"))
    }

    fn answer(&mut self, id: usize, yes: bool) -> Result<(), String> {
        let ctx = self.ctx;
        let kinds = &self.kinds;
        let session = self.sessions[id].as_mut().ok_or("unknown bare session")?;
        match session {
            BareSession::Live {
                policy, stepper, ..
            } => stepper.answer(policy.as_mut(), &ctx, yes),
            BareSession::Compiled { k, cursor } => {
                cursor.answer(kinds[*k].tree.as_ref().expect("compiled kind"), &ctx, yes)
            }
        }
        .map_err(|e| format!("answer: {e}"))
    }

    fn finish(&mut self, id: usize) -> Result<SearchOutcome, String> {
        let session = self.sessions[id].as_ref().ok_or("unknown bare session")?;
        let outcome = match session {
            BareSession::Live {
                policy, stepper, ..
            } => stepper.finish(policy.as_ref()),
            BareSession::Compiled { cursor, .. } => cursor.finish(),
        }
        .map_err(|e| format!("finish: {e}"))?;
        self.release(id)?;
        Ok(outcome)
    }

    fn cancel(&mut self, id: usize) -> Result<(), String> {
        self.release(id)
    }

    fn abandon(&mut self, id: usize) {
        // The bare rung has no eviction; dropping the session at once is
        // its equivalent. A failed reset only loses a pooled instance.
        let _ = self.release(id);
    }
}
