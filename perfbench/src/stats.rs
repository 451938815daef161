//! Order statistics and the result line.

/// The `p`-quantile of ascending `sorted`, interpolating linearly between
/// order statistics.
pub fn quantile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let x = p * (sorted.len() - 1) as f64;
    let lo = x.floor() as usize;
    let hi = x.ceil() as usize;
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * (x - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Consecutive latency samples per percentile block: ten beyond each
/// block's p99, and several blocks of first questions in every run.
pub const BLOCK: usize = 1_000;

/// Percentiles of a stream taken block by block: the p50 and p99 of each
/// run of [`BLOCK`] consecutive samples, reported as their medians over
/// all blocks. A shared host has slow spells; pooled over a whole run, a
/// spell's worst samples make up most of the top percent and the p99
/// moves with how much of the run the spell covered. A median over blocks
/// moves only once slow blocks are the majority. Samples are folded in as
/// they come, so the benchmark holds one block plus two numbers per block
/// and its own buffers add little to `rss_peak_mib`.
pub struct Blocks {
    seen: u64,
    buf: Vec<u64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Blocks {
    pub fn new() -> Blocks {
        Blocks {
            seen: 0,
            buf: Vec::with_capacity(BLOCK),
            p50: Vec::new(),
            p99: Vec::new(),
        }
    }

    pub fn push(&mut self, x: u64) {
        self.seen += 1;
        self.buf.push(x);
        if self.buf.len() == BLOCK {
            self.close_block();
        }
    }

    /// Takes over `other`'s closed blocks and continues its open block
    /// in this one's.
    pub fn append(&mut self, other: Blocks) {
        self.p50.extend(other.p50);
        self.p99.extend(other.p99);
        self.seen += other.seen - other.buf.len() as u64;
        for x in other.buf {
            self.push(x);
        }
    }

    fn close_block(&mut self) {
        self.buf.sort_unstable();
        self.p50.push(quantile(&self.buf, 0.50));
        self.p99.push(quantile(&self.buf, 0.99));
        self.buf.clear();
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Whole blocks so far.
    pub fn blocks(&self) -> usize {
        self.p99.len()
    }

    /// The medians over blocks of the p50 and the p99. A trailing partial
    /// block counts only when there is no whole one.
    pub fn p50_p99(&mut self) -> (f64, f64) {
        if self.p99.is_empty() && !self.buf.is_empty() {
            self.close_block();
        }
        (median(&self.p50), median(&self.p99))
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One run's result: the metrics by name and unit, the operations
/// attempted and failed, and notes for the human-readable summary.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The result line: one JSON object. Fails on a non-finite value,
    /// which JSON cannot carry and which would mean a broken measurement.
    pub fn json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
