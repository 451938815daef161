//! First-class serving telemetry: cache-padded per-shard metric cells,
//! log-bucketed latency histograms, WAL/fsync internals, per-plan
//! realized-vs-predicted cost tracking, and a slow-op journal.
//!
//! ## Design
//!
//! Every shard owns one `ShardTelemetry` cell, `#[repr(align(64))]` so
//! cells never share a cache line with a neighbour's hot counters.
//!
//! **Counts are exact; durations are sampled.** Every engine operation
//! bumps one relaxed counter in its shard's (op × tier × kind) count
//! grid. That grid is the single source of the per-kind op totals, the
//! per-tier histogram counts, and [`crate::EngineStats::steps`],
//! `compiled_hits` and the answer-time share of `compiled_fallbacks`, so
//! they all agree exactly. The grid counts even with telemetry disabled
//! (the engine's stats read it); a disabled engine's snapshots still
//! report zeros.
//!
//! Reading the clock is what costs: an `Instant::now()` + `elapsed()`
//! pair is ~90 ns on a 2-vCPU VM, an order of magnitude more than a
//! compiled step. So each thread times only one in [`SAMPLE_EVERY`] of
//! the operations of each kind it runs, plus every operation of a kind
//! until that kind has been timed once on the shard (for `open`, whose
//! shard is picked mid-operation: on every shard). A timed operation
//! stands in for the untimed ones of its (op, tier) cell that follow it
//! (sample and hold): a histogram's count is the grid's exact count,
//! while its bucket mix, `_sum` and quantiles come from the timed
//! operations. Until a cell has a timed operation of its own, its
//! untimed operations take the duration of the first timed operation of
//! their kind on the shard. Evict drains and `recover_with` are always
//! timed. The timed side of a cell sits behind one mutex that only timed
//! operations and snapshots take; an untimed operation is the one
//! relaxed add.
//!
//! Holding is applied when the next timed operation of the cell is
//! recorded, and provisionally by snapshots in between, always to the
//! same bucket — so every bucket only grows, and
//! [`TelemetrySnapshot::minus`] of two snapshots is again a snapshot whose
//! histogram counts equal its op totals.
//!
//! Latency histograms are **log₂-bucketed**: bucket 0 holds the value 0,
//! bucket `b` (1 ≤ b < 63) holds values in `[2^(b-1), 2^b)`, and bucket 63
//! absorbs everything from `2^62` up. Sixty-four fixed buckets cover the
//! full `u64` nanosecond range with ≤ 2× relative quantile error, snapshots
//! are plain `u64` arrays that **merge** (and subtract, for deltas) by
//! element-wise addition, and the bucket function is a `leading_zeros` —
//! no floats, no search.
//!
//! Recording is gated by [`crate::EngineConfig::telemetry`] (default: the
//! `AIGS_TELEMETRY` environment variable, on unless `0`). Disabled
//! telemetry skips the clock reads entirely; the cells still exist so
//! snapshots are empty, not absent.
//!
//! ## What is recorded
//!
//! * Per **operation × serving tier** latency histograms and per
//!   **operation × policy kind** counters, for open / next-question /
//!   answer / finish / cancel / evict / recover. Counter totals reconcile
//!   exactly with [`crate::EngineStats`] on an engine that has not been
//!   through recovery (recovery restores the durable lifecycle counters
//!   from the log; telemetry, like `steps`, restarts from zero).
//! * WAL internals: appended bytes, fsync batch sizes and latencies (the
//!   group-commit thread and explicit syncs; [`aigs_data::wal::FsyncPolicy::Always`]
//!   syncs inside the writer and is not separately timed), group-commit
//!   flush signals (vs. actual fsyncs — the gap is coalescing), snapshot
//!   compactions, and degraded-mode transitions.
//! * Per **plan × policy kind** realized cost: a histogram of oracle
//!   queries per finished session plus the summed price, next to the
//!   policy's *predicted* expected cost
//!   ([`crate::SearchEngine::predict_expected_cost`]) so drift between
//!   the paper's objective and production reality is a first-class metric.
//! * A bounded per-shard ring of [`SlowOp`] records for **timed**
//!   operations slower than the `AIGS_SLOW_OP_NS` threshold (default
//!   1 ms), drained with [`crate::SearchEngine::drain_slow_ops`]. Untimed
//!   operations have no duration, so the journal sees about one in
//!   [`SAMPLE_EVERY`] of the slow ones.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use aigs_testutil::failpoints::{self, FaultAction};

use crate::PolicyKind;

/// Each thread times one in this many of the operations of each kind it
/// runs (see the module docs); the rest are counted, not timed.
pub const SAMPLE_EVERY: u32 = 64;

/// Number of log₂ buckets in a latency histogram ([`HistSnapshot::buckets`]).
pub const HIST_BUCKETS: usize = 64;

/// Slots per shard in the slow-op ring journal.
const SLOW_RING: usize = 64;

/// Default slow-op threshold (1 ms) when `AIGS_SLOW_OP_NS` is unset.
const DEFAULT_SLOW_OP_NS: u64 = 1_000_000;

/// The bucket index `value` lands in: 0 for 0, else
/// `min(64 − leading_zeros, 63)` — so bucket `b` covers `[2^(b-1), 2^b)`
/// and bucket 63 is the overflow bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize
}

/// Inclusive upper bound of bucket `b` for quantile estimation
/// (`u64::MAX` for the overflow bucket).
#[inline]
pub fn bucket_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A fixed-size, mergeable, lock-free log₂ histogram. Recording is two
/// relaxed atomic adds; reading produces a [`HistSnapshot`].
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation: one bucket `fetch_add` + one sum
    /// `fetch_add`, both relaxed.
    #[inline]
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one atomic histogram: plain numbers that merge and
/// subtract element-wise, so per-shard histograms aggregate — and
/// consecutive snapshots difference into deltas — without touching the
/// live cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Observation counts per log₂ bucket (see [`bucket_index`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Sum of all recorded values (mean = `sum / count`).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; HIST_BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Adds `n` observations of `value`.
    fn record_n(&mut self, value: u64, n: u64) {
        self.buckets[bucket_index(value)] += n;
        self.sum = self.sum.wrapping_add(value.wrapping_mul(n));
    }

    /// Total observations across all buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Element-wise accumulation of `other` into `self`. Associative and
    /// commutative, so shard cells merge in any order.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
    }

    /// Element-wise saturating difference (`self − earlier`), the delta
    /// between two snapshots of one monotone histogram.
    pub fn minus(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the
    /// bound of the first bucket whose cumulative count reaches
    /// `q · count`. Returns 0 for an empty histogram. Log₂ buckets bound
    /// the overestimate at 2×.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_bound(b);
            }
        }
        u64::MAX
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

// ---- dimensions --------------------------------------------------------

/// The instrumented engine operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `open_session`.
    Open,
    /// `next_question`.
    Next,
    /// `answer`.
    Answer,
    /// `finish`.
    Finish,
    /// `cancel`.
    Cancel,
    /// One idle-eviction drain of a shard (the latency histogram times the
    /// whole drain; the per-kind counters count individual evictions).
    Evict,
    /// One full `recover_with` (recorded once, on shard 0).
    Recover,
}

/// All [`Op`] variants, in wire/index order.
pub const OPS: [Op; 7] = [
    Op::Open,
    Op::Next,
    Op::Answer,
    Op::Finish,
    Op::Cancel,
    Op::Evict,
    Op::Recover,
];

impl Op {
    pub(crate) fn index(self) -> usize {
        match self {
            Op::Open => 0,
            Op::Next => 1,
            Op::Answer => 2,
            Op::Finish => 3,
            Op::Cancel => 4,
            Op::Evict => 5,
            Op::Recover => 6,
        }
    }

    /// Whether this op's durations are sampled against its exact counts.
    /// Evict drains and recoveries are always timed, and their histograms
    /// count drains and recoveries, not the per-kind evictions the count
    /// grid holds.
    fn is_sampled(self) -> bool {
        !matches!(self, Op::Evict | Op::Recover)
    }

    /// Stable lowercase label (Prometheus `op` label value).
    pub fn name(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Next => "next",
            Op::Answer => "answer",
            Op::Finish => "finish",
            Op::Cancel => "cancel",
            Op::Evict => "evict",
            Op::Recover => "recover",
        }
    }
}

/// The serving tier a recorded operation ran on. Operations that error
/// before the tier is known record as [`Tier::Live`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Live policy stepping.
    Live,
    /// Compiled flat-array stepping.
    Compiled,
    /// The answer that crossed a truncated tree's frontier and
    /// materialised the live policy.
    Fallback,
}

/// All [`Tier`] variants, in wire/index order.
pub const TIERS: [Tier; 3] = [Tier::Live, Tier::Compiled, Tier::Fallback];

impl Tier {
    pub(crate) fn index(self) -> usize {
        match self {
            Tier::Live => 0,
            Tier::Compiled => 1,
            Tier::Fallback => 2,
        }
    }

    /// Stable lowercase label (Prometheus `tier` label value).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Live => "live",
            Tier::Compiled => "compiled",
            Tier::Fallback => "fallback",
        }
    }
}

/// Policy-kind slots: the eight poolable kinds at their pool index, plus
/// `Random` (every seed) at slot 8.
pub(crate) const KIND_SLOTS: usize = 9;

/// The telemetry slot of `kind` (pool index, or 8 for `Random`).
pub(crate) fn kind_slot(kind: PolicyKind) -> usize {
    kind.pool_index().unwrap_or(KIND_SLOTS - 1)
}

/// Stable label of telemetry kind slot `i` (matches
/// [`PolicyKind::name`]).
pub(crate) fn kind_slot_name(i: usize) -> &'static str {
    match i {
        0 => "top-down",
        1 => "migs",
        2 => "wigs",
        3 => "greedy-tree",
        4 => "greedy-dag",
        5 => "greedy-naive",
        6 => "cost-sensitive-greedy",
        7 => "optimal-expected",
        _ => "random",
    }
}

// ---- per-shard cells ---------------------------------------------------

/// WAL-internals metrics for one shard's log.
#[derive(Debug)]
pub(crate) struct WalTelemetry {
    /// Bytes handed to the OS by acknowledged tail appends.
    pub(crate) append_bytes: AtomicU64,
    /// Records appended since the last observed fsync (swapped to zero by
    /// each fsync and recorded into `fsync_batch`).
    pub(crate) since_fsync: AtomicU64,
    /// Batch sizes (records per fsync) of group-commit and explicit syncs.
    pub(crate) fsync_batch: Histogram,
    /// Fsync latencies in nanoseconds (same population as `fsync_batch`).
    pub(crate) fsync_ns: Histogram,
    /// Group-commit flush signals raised at batch boundaries. The gap
    /// between this and `fsync_batch.count()` is coalescing: signals that
    /// folded into an already-pending flush.
    pub(crate) flush_signals: AtomicU64,
    /// Snapshot compactions completed on this shard.
    pub(crate) compactions: AtomicU64,
    /// Degraded-mode transitions attributed to this shard's log (at most
    /// one per engine lifetime today — the flag latches).
    pub(crate) degraded_transitions: AtomicU64,
}

impl WalTelemetry {
    fn new() -> WalTelemetry {
        WalTelemetry {
            append_bytes: AtomicU64::new(0),
            since_fsync: AtomicU64::new(0),
            fsync_batch: Histogram::new(),
            fsync_ns: Histogram::new(),
            flush_signals: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            degraded_transitions: AtomicU64::new(0),
        }
    }

    /// Records one observed fsync: its latency and the batch it made
    /// durable.
    pub(crate) fn record_fsync(&self, ns: u64) {
        let batch = self.since_fsync.swap(0, Ordering::Relaxed);
        self.fsync_batch.record(batch);
        self.fsync_ns.record(ns);
    }
}

/// One slow operation that crossed the threshold, captured for tail
/// diagnosis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowOp {
    /// Shard the operation ran on.
    pub shard: u32,
    /// Which operation.
    pub op: Op,
    /// Which serving tier.
    pub tier: Tier,
    /// The session's policy kind.
    pub kind: PolicyKind,
    /// Wall time of the operation in nanoseconds.
    pub duration_ns: u64,
    /// The engine's logical clock when the operation finished.
    pub at: u64,
}

/// Bounded ring of [`SlowOp`]s. The mutex is off the hot path: it is
/// taken only for timed operations that exceeded the threshold. Each
/// critical section is one push (plus, when full, one pop) or one take,
/// so the ring is consistent at every point a panic could leave it, and
/// a poisoned guard is recovered, never propagated.
#[derive(Debug)]
struct SlowJournal {
    ring: Mutex<VecDeque<SlowOp>>,
    /// Records overwritten before being drained.
    dropped: AtomicU64,
}

impl SlowJournal {
    fn new() -> SlowJournal {
        SlowJournal {
            ring: Mutex::new(VecDeque::with_capacity(SLOW_RING)),
            dropped: AtomicU64::new(0),
        }
    }

    fn ring(&self) -> MutexGuard<'_, VecDeque<SlowOp>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, entry: SlowOp) {
        let mut ring = self.ring();
        if matches!(failpoints::hit("telemetry.slow"), Some(FaultAction::Panic)) {
            panic!("injected slow-journal panic");
        }
        if ring.len() >= SLOW_RING {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(entry);
    }

    fn drain(&self) -> Vec<SlowOp> {
        std::mem::take(&mut *self.ring()).into()
    }
}

thread_local! {
    /// Per op: how many of this thread's operations of that kind ran
    /// since its last sampled one.
    static SINCE_SAMPLED: [Cell<u32>; OPS.len()] = const { [const { Cell::new(0) }; OPS.len()] };
}

/// Counts one `op` on this thread and says whether it is the thread's
/// every-[`SAMPLE_EVERY`]-th of that kind — an op to time. Per-kind
/// counters keep a kind from never being sampled when a workload's
/// operation mix repeats with a period that divides the rate.
#[inline]
pub(crate) fn sample_tick(op: Op) -> bool {
    SINCE_SAMPLED.with(|ticks| {
        let tick = &ticks[op.index()];
        let n = tick.get() + 1;
        let due = n == SAMPLE_EVERY;
        tick.set(if due { 0 } else { n });
        due
    })
}

/// The bit of `op` in an op set.
#[inline]
pub(crate) fn op_bit(op: Op) -> u8 {
    1 << op.index()
}

/// Exact op counts of one shard, indexed `[op][tier][kind slot]`.
type CountGrid = [[[AtomicU64; KIND_SLOTS]; TIERS.len()]; OPS.len()];

/// The timed side of one shard's (op, tier) cells.
#[derive(Debug)]
struct Samples {
    /// Per cell: the durations of the ops accounted for so far — timed
    /// ops at their own value, untimed ones at the value held when they
    /// ran.
    hist: [[HistSnapshot; TIERS.len()]; OPS.len()],
    /// Per cell: how many of the cell's counted ops `hist` accounts for.
    covered: [[u64; TIERS.len()]; OPS.len()],
    /// Per cell: the duration that stands in for its untimed ops — the
    /// cell's latest timed op, or before it has one, the first timed op
    /// of its kind on this shard.
    held: [[u64; TIERS.len()]; OPS.len()],
}

/// One shard's metric cell. `#[repr(align(64))]` keeps each shard's hot
/// counters on their own cache lines, so concurrent recording on
/// different shards never false-shares.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct ShardTelemetry {
    /// Whether this cell records durations and shows in snapshots
    /// (resolved once at engine construction). The count grid counts
    /// either way.
    enabled: bool,
    /// The ops timed at least once on this shard (one bit per op).
    timed_once: AtomicU8,
    counts: CountGrid,
    samples: Mutex<Samples>,
    wal: WalTelemetry,
    slow: SlowJournal,
}

impl ShardTelemetry {
    pub(crate) fn new(enabled: bool) -> ShardTelemetry {
        ShardTelemetry {
            enabled,
            timed_once: AtomicU8::new(0),
            counts: std::array::from_fn(|_| {
                std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            }),
            samples: Mutex::new(Samples {
                hist: std::array::from_fn(|_| std::array::from_fn(|_| HistSnapshot::default())),
                covered: [[0; TIERS.len()]; OPS.len()],
                held: [[0; TIERS.len()]; OPS.len()],
            }),
            wal: WalTelemetry::new(),
            slow: SlowJournal::new(),
        }
    }

    /// Whether this cell records (callers gate their `Instant::now()`
    /// reads on this so disabled telemetry costs nothing).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether an `op` has been timed on this shard yet. `Acquire`
    /// pairs with the `Release` that sets the bit, so an op that sees it
    /// counts after the held durations of its kind exist.
    #[inline]
    pub(crate) fn timed_once(&self, op: Op) -> bool {
        self.timed_once.load(Ordering::Acquire) & op_bit(op) != 0
    }

    /// The timed side. Every critical section is straight-line
    /// arithmetic on plain arrays, so a poisoned guard is recovered.
    fn samples(&self) -> MutexGuard<'_, Samples> {
        self.samples.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one untimed operation: one relaxed add, on or off.
    #[inline]
    pub(crate) fn count(&self, op: Op, tier: Tier, kind: PolicyKind) {
        self.counts[op.index()][tier.index()][kind_slot(kind)].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts and records one timed operation that took `ns`: the cell's
    /// untimed ops since its last timed one take the held duration, this
    /// op its own, which becomes the held one.
    pub(crate) fn record_timed(&self, op: Op, tier: Tier, kind: PolicyKind, ns: u64) {
        let (o, t) = (op.index(), tier.index());
        let mut guard = self.samples();
        let s = &mut *guard;
        // Counted under the lock, so no other timed op can account for
        // this one before its own duration lands.
        self.counts[o][t][kind_slot(kind)].fetch_add(1, Ordering::Relaxed);
        let first = !self.timed_once(op);
        if first {
            s.held[o] = [ns; TIERS.len()];
        }
        let count = self.cell_count(op, tier);
        let untimed = count.saturating_sub(s.covered[o][t] + 1);
        s.hist[o][t].record_n(s.held[o][t], untimed);
        s.hist[o][t].record_n(ns, 1);
        s.covered[o][t] = count;
        s.held[o][t] = ns;
        if first {
            self.timed_once.fetch_or(op_bit(op), Ordering::Release);
        }
    }

    /// Records one evict drain's or recovery's duration (always timed;
    /// no per-kind attribution).
    pub(crate) fn record_duration(&self, op: Op, tier: Tier, ns: u64) {
        if self.enabled {
            self.samples().hist[op.index()][tier.index()].record_n(ns, 1);
        }
    }

    /// The count of one (op, tier) cell, over all kinds.
    fn cell_count(&self, op: Op, tier: Tier) -> u64 {
        self.counts[op.index()][tier.index()]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// `(steps, compiled hits, fallback answers)`: the `next_question`
    /// plus `answer` counts, all and compiled-tier, and the answers that
    /// crossed a truncated tree's frontier (the only fallback-tier
    /// steps).
    pub(crate) fn step_counts(&self) -> (u64, u64, u64) {
        let [live, compiled, fallback] =
            TIERS.map(|t| self.cell_count(Op::Next, t) + self.cell_count(Op::Answer, t));
        (live + compiled + fallback, compiled, fallback)
    }

    /// Journals `entry` if it crossed `threshold_ns`.
    #[inline]
    pub(crate) fn note_slow(&self, threshold_ns: u64, entry: SlowOp) {
        if self.enabled && entry.duration_ns >= threshold_ns {
            self.slow.push(entry);
        }
    }

    /// One acknowledged tail append of `bytes` encoded bytes.
    #[inline]
    pub(crate) fn wal_append(&self, bytes: u64) {
        if self.enabled {
            self.wal.append_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.wal.since_fsync.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One group-commit flush signal raised at a batch boundary.
    #[inline]
    pub(crate) fn wal_flush_signal(&self) {
        if self.enabled {
            self.wal.flush_signals.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One observed fsync that took `ns`.
    #[inline]
    pub(crate) fn wal_fsync(&self, ns: u64) {
        if self.enabled {
            self.wal.record_fsync(ns);
        }
    }

    /// One completed snapshot compaction.
    pub(crate) fn wal_compaction(&self) {
        if self.enabled {
            self.wal.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One degraded-mode transition attributed to this shard's log.
    pub(crate) fn wal_degraded(&self) {
        if self.enabled {
            self.wal
                .degraded_transitions
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn drain_slow(&self) -> Vec<SlowOp> {
        self.slow.drain()
    }

    pub(crate) fn slow_dropped(&self) -> u64 {
        self.slow.dropped.load(Ordering::Relaxed)
    }
}

// ---- plan cost cells ---------------------------------------------------

/// A policy's predicted expected cost on a plan, from an exhaustive
/// evaluation over the plan's prior
/// ([`aigs_core::evaluate_exhaustive`] — paper Definitions 7–8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedCost {
    /// Expected oracle queries per session.
    pub expected_queries: f64,
    /// Expected price per session (equals `expected_queries` under
    /// uniform costs).
    pub expected_price: f64,
}

/// Realized-cost accumulator for one (plan, kind): queries per finished
/// session as a histogram, price as a micro-unit sum (prices are `f64`;
/// the hot path stays a single integer `fetch_add`).
#[derive(Debug)]
pub(crate) struct RealizedCell {
    pub(crate) queries: Histogram,
    pub(crate) price_micros: AtomicU64,
}

/// Per-plan realized-cost cells, one per kind slot.
#[derive(Debug)]
pub(crate) struct PlanTelemetry {
    pub(crate) realized: [RealizedCell; KIND_SLOTS],
}

impl PlanTelemetry {
    pub(crate) fn new() -> PlanTelemetry {
        PlanTelemetry {
            realized: std::array::from_fn(|_| RealizedCell {
                queries: Histogram::new(),
                price_micros: AtomicU64::new(0),
            }),
        }
    }

    /// Records one finished session's realized cost.
    #[inline]
    pub(crate) fn record_finish(&self, kind: PolicyKind, queries: u32, price: f64) {
        let cell = &self.realized[kind_slot(kind)];
        cell.queries.record(u64::from(queries));
        cell.price_micros
            .fetch_add(price_to_micros(price), Ordering::Relaxed);
    }
}

/// Price → integer micro-units for the lock-free accumulator.
pub(crate) fn price_to_micros(price: f64) -> u64 {
    (price.max(0.0) * 1e6).round() as u64
}

/// Micro-units → price.
pub(crate) fn micros_to_price(micros: u64) -> f64 {
    micros as f64 / 1e6
}

// ---- snapshots ---------------------------------------------------------

/// Realized + predicted cost for one (plan, kind) pair with traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanKindCost {
    /// Telemetry kind slot (see [`PolicyKind::name`] labels).
    pub kind: String,
    /// Queries per finished session (count = finished sessions).
    pub queries: HistSnapshot,
    /// Total realized price across those sessions.
    pub price_sum: f64,
    /// The policy's predicted expected cost, when it has been computed
    /// (snapshots never force the exhaustive evaluation themselves).
    pub predicted: Option<PredictedCost>,
}

/// Realized-cost rows of one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCostSnapshot {
    /// The plan's registration index.
    pub plan: u32,
    /// One row per kind slot that finished at least one session (or has a
    /// computed prediction).
    pub kinds: Vec<PlanKindCost>,
}

/// Aggregated WAL metrics across shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalMetrics {
    /// Bytes appended to acknowledged tails.
    pub append_bytes: u64,
    /// Records per observed fsync.
    pub fsync_batch: HistSnapshot,
    /// Fsync latency (ns).
    pub fsync_ns: HistSnapshot,
    /// Group-commit flush signals (≥ `fsync_batch.count()`; the surplus
    /// coalesced).
    pub flush_signals: u64,
    /// Snapshot compactions completed.
    pub compactions: u64,
    /// Degraded-mode transitions recorded at WAL failure sites.
    pub degraded_transitions: u64,
}

impl WalMetrics {
    fn merge(&mut self, other: &WalMetrics) {
        self.append_bytes += other.append_bytes;
        self.fsync_batch.merge(&other.fsync_batch);
        self.fsync_ns.merge(&other.fsync_ns);
        self.flush_signals += other.flush_signals;
        self.compactions += other.compactions;
        self.degraded_transitions += other.degraded_transitions;
    }

    fn minus(&self, earlier: &WalMetrics) -> WalMetrics {
        WalMetrics {
            append_bytes: self.append_bytes.saturating_sub(earlier.append_bytes),
            fsync_batch: self.fsync_batch.minus(&earlier.fsync_batch),
            fsync_ns: self.fsync_ns.minus(&earlier.fsync_ns),
            flush_signals: self.flush_signals.saturating_sub(earlier.flush_signals),
            compactions: self.compactions.saturating_sub(earlier.compactions),
            degraded_transitions: self
                .degraded_transitions
                .saturating_sub(earlier.degraded_transitions),
        }
    }
}

/// A point-in-time, cross-shard aggregation of the engine's telemetry —
/// the payload behind the `metrics` wire opcode and the Prometheus
/// exposition. All counters are cumulative since engine construction;
/// [`TelemetrySnapshot::minus`] differences two snapshots into a delta.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Whether recording was enabled (a disabled engine snapshots zeros).
    pub enabled: bool,
    /// The engine's logical clock at snapshot time.
    pub clock: u64,
    /// Shard count the cells were aggregated over.
    pub shards: u32,
    /// Latency histograms (ns), indexed `[op][tier]` in [`OPS`] ×
    /// [`TIERS`] order. Counts are exact; for the sampled ops (all but
    /// evict and recover) the bucket mix and `sum` come from the timed
    /// one in [`SAMPLE_EVERY`].
    pub op_tier_ns: Vec<Vec<HistSnapshot>>,
    /// Operation counts, indexed `[op][kind slot]` ([`OPS`] order × the
    /// nine kind slots).
    pub op_kind: Vec<Vec<u64>>,
    /// WAL internals, summed across shards.
    pub wal: WalMetrics,
    /// Per-plan realized/predicted cost rows.
    pub plans: Vec<PlanCostSnapshot>,
    /// Slow-op journal records overwritten before being drained.
    pub slow_dropped: u64,
}

impl TelemetrySnapshot {
    /// An all-zero snapshot (the shape deltas subtract against).
    pub fn empty(enabled: bool, shards: u32) -> TelemetrySnapshot {
        TelemetrySnapshot {
            enabled,
            clock: 0,
            shards,
            op_tier_ns: vec![vec![HistSnapshot::default(); TIERS.len()]; OPS.len()],
            op_kind: vec![vec![0; KIND_SLOTS]; OPS.len()],
            wal: WalMetrics::default(),
            plans: Vec::new(),
            slow_dropped: 0,
        }
    }

    pub(crate) fn absorb_shard(&mut self, cell: &ShardTelemetry) {
        if !cell.enabled {
            return;
        }
        // Lock first: every count read below is then at least what the
        // samples account for.
        let samples = cell.samples();
        for (o, op) in OPS.iter().enumerate() {
            for t in 0..TIERS.len() {
                let mut count = 0;
                for (k, c) in cell.counts[o][t].iter().enumerate() {
                    let c = c.load(Ordering::Relaxed);
                    self.op_kind[o][k] += c;
                    count += c;
                }
                let mut h = samples.hist[o][t].clone();
                if op.is_sampled() {
                    // The untimed ops since the cell's last timed one, at
                    // the duration the next timed one will give them.
                    h.record_n(
                        samples.held[o][t],
                        count.saturating_sub(samples.covered[o][t]),
                    );
                }
                self.op_tier_ns[o][t].merge(&h);
            }
        }
        drop(samples);
        self.wal.merge(&WalMetrics {
            append_bytes: cell.wal.append_bytes.load(Ordering::Relaxed),
            fsync_batch: cell.wal.fsync_batch.snapshot(),
            fsync_ns: cell.wal.fsync_ns.snapshot(),
            flush_signals: cell.wal.flush_signals.load(Ordering::Relaxed),
            compactions: cell.wal.compactions.load(Ordering::Relaxed),
            degraded_transitions: cell.wal.degraded_transitions.load(Ordering::Relaxed),
        });
        self.slow_dropped += cell.slow_dropped();
    }

    /// The (op, tier) histogram, by dimension value.
    pub fn op_tier(&self, op: Op, tier: Tier) -> &HistSnapshot {
        &self.op_tier_ns[op.index()][tier.index()]
    }

    /// Total recorded count of `op` across kinds (reconciles with the
    /// matching [`crate::EngineStats`] counter).
    pub fn op_total(&self, op: Op) -> u64 {
        self.op_kind[op.index()].iter().sum()
    }

    /// The delta `self − earlier` between two snapshots of one engine:
    /// element-wise saturating subtraction of every counter and bucket.
    /// Plan rows are differenced by plan index; `predicted` keeps the
    /// newer value (it is a gauge, not a counter).
    pub fn minus(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let mut out = self.clone();
        for (o, row) in out.op_tier_ns.iter_mut().enumerate() {
            for (t, h) in row.iter_mut().enumerate() {
                if let Some(e) = earlier.op_tier_ns.get(o).and_then(|r| r.get(t)) {
                    *h = h.minus(e);
                }
            }
        }
        for (o, row) in out.op_kind.iter_mut().enumerate() {
            for (k, c) in row.iter_mut().enumerate() {
                if let Some(e) = earlier.op_kind.get(o).and_then(|r| r.get(k)) {
                    *c = c.saturating_sub(*e);
                }
            }
        }
        out.wal = self.wal.minus(&earlier.wal);
        out.slow_dropped = self.slow_dropped.saturating_sub(earlier.slow_dropped);
        for plan in &mut out.plans {
            let Some(eplan) = earlier.plans.iter().find(|p| p.plan == plan.plan) else {
                continue;
            };
            for row in &mut plan.kinds {
                let Some(erow) = eplan.kinds.iter().find(|r| r.kind == row.kind) else {
                    continue;
                };
                row.queries = row.queries.minus(&erow.queries);
                row.price_sum = (row.price_sum - erow.price_sum).max(0.0);
            }
        }
        out
    }
}

/// Resolves whether telemetry records: the explicit config, else the
/// `AIGS_TELEMETRY` environment variable (on unless `0`).
pub(crate) fn resolve_enabled(requested: Option<bool>) -> bool {
    requested.unwrap_or_else(|| {
        !matches!(
            std::env::var("AIGS_TELEMETRY").as_deref().map(str::trim),
            Ok("0")
        )
    })
}

/// Resolves the slow-op journal threshold from `AIGS_SLOW_OP_NS`
/// (nanoseconds; default 1 ms, `0` journals everything).
pub(crate) fn resolve_slow_threshold() -> u64 {
    std::env::var("AIGS_SLOW_OP_NS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_SLOW_OP_NS)
}

// ---- Prometheus exposition ---------------------------------------------

/// Appends one histogram as Prometheus `_bucket`/`_sum`/`_count` series
/// with `labels` (e.g. `op="open",tier="live"`). Buckets are cumulative;
/// trailing empty buckets collapse into the mandatory `+Inf` line.
pub(crate) fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistSnapshot) {
    use std::fmt::Write;
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    let last = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .unwrap_or(0)
        .min(HIST_BUCKETS - 2);
    for (b, &c) in h.buckets.iter().enumerate().take(last + 1) {
        cum += c;
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}",
            bucket_bound(b)
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
    let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for b in 1..HIST_BUCKETS - 1 {
            let lo = 1u64 << (b - 1);
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index((1u64 << b) - 1), b, "upper edge of bucket {b}");
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = Histogram::new();
        for v in [0, 1, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1_001_101);
        assert!(s.quantile(0.5) >= 100);
        assert!(s.quantile(1.0) >= 1_000_000);
        assert_eq!(HistSnapshot::default().quantile(0.9), 0);
    }

    #[test]
    fn snapshot_merge_and_minus_roundtrip() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        a.record(900);
        b.record(7);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.minus(&sb), sa);
        assert_eq!(merged.minus(&sa), sb);
    }

    #[test]
    fn slow_journal_is_bounded() {
        let j = SlowJournal::new();
        let entry = SlowOp {
            shard: 0,
            op: Op::Answer,
            tier: Tier::Live,
            kind: PolicyKind::GreedyDag,
            duration_ns: 1,
            at: 0,
        };
        for i in 0..SLOW_RING as u64 + 10 {
            j.push(SlowOp {
                duration_ns: i,
                ..entry
            });
        }
        assert_eq!(j.dropped.load(Ordering::Relaxed), 10);
        let drained = j.drain();
        assert_eq!(drained.len(), SLOW_RING);
        assert_eq!(drained.last().unwrap().duration_ns, SLOW_RING as u64 + 9);
        assert!(j.drain().is_empty());
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf() {
        let h = Histogram::new();
        h.record(1);
        h.record(3);
        let mut out = String::new();
        render_histogram(&mut out, "x", "op=\"a\"", &h.snapshot());
        assert!(out.contains("x_bucket{op=\"a\",le=\"+Inf\"} 2"));
        assert!(out.contains("x_count{op=\"a\"} 2"));
        assert!(out.contains("x_sum{op=\"a\"} 4"));
    }
}
