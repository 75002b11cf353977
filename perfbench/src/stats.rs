//! Order statistics with the benchmark's sample-count rule (a
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, and always together with the sample count), and the
//! quiet-quarter selection the end-to-end latency metrics are taken over.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample set, with the count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// How many samples the percentile was taken from.
    pub samples: usize,
    /// How many samples lie above the percentile's rank.
    pub beyond: usize,
}

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct { value: sorted[rank - 1], samples: n, beyond })
}

/// The median (mean of the two middle values for even counts); `NaN`
/// for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; `NaN` for an empty set.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One answered request of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index into the workload's templates.
    pub template: usize,
    /// Seconds from the phase start to the response.
    pub done_s: f64,
    /// Request latency.
    pub latency_ms: f64,
    /// How late the writer sent it: after its scheduled time (open
    /// loop) or after the response that freed its slot (closed loop).
    pub late_ms: f64,
}

/// The quietest quarter of a phase: see [`quiet_quarter`].
#[derive(Debug, Clone, PartialEq)]
pub struct Quiet {
    /// The samples of the kept windows.
    pub samples: Vec<Sample>,
    /// Windows kept and windows in the phase.
    pub windows: (usize, usize),
}

impl Quiet {
    /// Latencies of the kept samples (ms).
    pub fn latency_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }
}

/// Split `samples` (in completion order) into consecutive windows of
/// about `secs` seconds each, holding a whole number of `block`s of
/// completions; rank the windows by mean latency and keep the fastest
/// quarter (at least one). Host speed on a shared machine swings in
/// bursts of seconds to minutes; a quarter chosen this way measures the
/// program rather than its neighbours, while a change that slows every
/// request still moves every window. It is the program's best case: a
/// change that slows only some windows can be dropped with them, which
/// is why throughput is gated on [`rate`] over every sample instead.
pub fn quiet_quarter(samples: &[Sample], secs: f64, block: usize) -> Quiet {
    let span = samples.last().map_or(0.0, |s| s.done_s);
    let per = if span > 0.0 { (samples.len() as f64 * secs / span) as usize } else { 0 };
    let window = (per - per % block.max(1)).max(block.max(1));
    let mut spans: Vec<(f64, &[Sample])> = samples
        .chunks_exact(window)
        .map(|w| (w.iter().map(|s| s.latency_ms).sum::<f64>() / w.len() as f64, w))
        .collect();
    let total = spans.len();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    spans.truncate((total / 4).max(1));
    Quiet {
        samples: spans.iter().flat_map(|(_, w)| w.iter().copied()).collect(),
        windows: (spans.len(), total),
    }
}

/// Completions per second over a whole phase, every sample counted.
pub fn rate(samples: &[Sample]) -> f64 {
    samples.len() as f64 / samples.last().map_or(f64::NAN, |s| s.done_s)
}
