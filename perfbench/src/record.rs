//! In-memory span recorder, order statistics and the trace writer.
//!
//! A [`Recorder`] that is off never reads the clock: `span` just calls
//! its closure, so the untraced run pays nothing for the instrumentation.
//! A recorder that is on keeps one [`Span`] per call it wraps, nested by
//! call order, so a layer's *self time* is its span minus its children.

use std::fmt::Write as _;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.forward`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round (one training run or one sweep pass) the span belongs to.
    pub round: usize,
    /// Start, seconds since process start.
    pub start: f64,
    /// End, seconds since process start.
    pub end: f64,
}

/// Records spans around public calls when switched on.
#[derive(Debug, Default)]
pub struct Recorder {
    on: bool,
    round: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Heap bytes and calls allocated by each counted round.
    allocations: Vec<(u64, u64)>,
}

impl Recorder {
    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off for the next calls (the trace run
    /// alternates traced and untraced rounds).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the following spans with round `round`.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Opens a span; pair with [`Recorder::close`].
    pub fn open(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            round: self.round,
            start: crate::now(),
            end: f64::NAN,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        if let Some(idx) = self.stack.pop() {
            self.spans[idx].end = crate::now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Records the heap allocations of one round.
    pub fn add_allocations(&mut self, bytes: u64, calls: u64) {
        self.allocations.push((bytes, calls));
    }

    /// Median over the counted rounds of the bytes and calls allocated
    /// in a round; zeros when no round was counted.
    pub fn median_allocations(&self) -> (f64, f64) {
        if self.allocations.is_empty() {
            return (0.0, 0.0);
        }
        let bytes: Vec<f64> = self.allocations.iter().map(|a| a.0 as f64).collect();
        let calls: Vec<f64> = self.allocations.iter().map(|a| a.1 as f64).collect();
        (median(&bytes), median(&calls))
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median over the recorded rounds of the per-round summed self time
    /// (span minus its direct children) of spans named `name`; 0 when
    /// nothing was recorded.
    pub fn median_self_s(&self, name: &str) -> f64 {
        let selfs = self.self_seconds();
        let mut per_round: Vec<(usize, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            if per_round.last().is_none_or(|&(r, _)| r != s.round) {
                per_round.push((s.round, 0.0));
            }
            if s.name == name {
                if let Some((_, sum)) = per_round.last_mut() {
                    *sum += t;
                }
            }
        }
        if per_round.is_empty() {
            0.0
        } else {
            median(&per_round.iter().map(|&(_, t)| t).collect::<Vec<_>>())
        }
    }

    fn self_seconds(&self) -> Vec<f64> {
        let mut selfs: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                selfs[p] -= s.end - s.start;
            }
        }
        selfs
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, with its self time in `args.self_us`.
    pub fn to_chrome_trace(&self) -> String {
        let selfs = self.self_seconds();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"round\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.round,
                selfs[i] * 1e6
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
