//! Host-time benchmark of the gnn-dm training loop and system sweep.
//!
//! ```text
//! perfbench --workload <train-minibatch|train-fullbatch|config-sweep>
//!           --seed <n> --seconds <s> --trace <0|1> [--small]
//! ```
//!
//! Each run builds its inputs from `--seed`, repeats whole rounds of its
//! workload for `--seconds`, checks every output, and prints one JSON
//! object as its last line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). It exits non-zero when a check fails. `--small` runs
//! every check on small inputs in seconds. See README.md.

mod alloc;
mod record;
mod reference;
mod sweep;
mod train;

use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use crate::record::Recorder;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Seconds since the process started timing. The benchmark's only clock:
/// every boundary timestamp and span endpoint is read here.
pub(crate) fn now() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Metrics printed by an untraced run, with their units.
pub(crate) const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("time_to_target_s", "s"),
    ("epoch_ms_p50", "ms"),
    ("step_ms_p50", "ms"),
    ("seeds_per_s", "1/s"),
    ("configs_per_s", "1/s"),
];

/// Metrics printed by a traced run, with their units. A layer a workload
/// does not exercise reads 0.
pub(crate) const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("sampling.batches_s", "s"),
    ("sampling.sampled_edges", "count"),
    ("nn.gather_s", "s"),
    ("nn.gather_bytes", "bytes"),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.loss_s", "s"),
    ("nn.optim_s", "s"),
    ("nn.evaluate_s", "s"),
    ("nn.aggregate_edges", "count"),
    ("tensor.gemm_gflop", "GFLOP"),
    ("nn.step_ms_p98", "ms"),
    ("partition.build_s.hash", "s"),
    ("partition.build_s.metis-v", "s"),
    ("partition.build_s.metis-ve", "s"),
    ("partition.build_s.metis-vet", "s"),
    ("partition.build_s.stream-v", "s"),
    ("partition.build_s.stream-b", "s"),
    ("partition.edge_cut.hash", "count"),
    ("partition.edge_cut.metis-v", "count"),
    ("partition.edge_cut.metis-ve", "count"),
    ("partition.edge_cut.metis-vet", "count"),
    ("partition.edge_cut.stream-v", "count"),
    ("partition.edge_cut.stream-b", "count"),
    ("cluster.simulate_s", "s"),
    ("cluster.nic_bytes", "bytes"),
    ("cluster.replay_s", "s"),
    ("trace.spans", "count"),
    ("device.build_s", "s"),
    ("device.epoch_s", "s"),
    ("device.pcie_bytes", "bytes"),
    ("device.cache_hit_rate", "ratio"),
    ("cluster.modelled_epoch_s", "s"),
    ("device.modelled_makespan_s", "s"),
    ("alloc.bytes", "bytes"),
    ("alloc.calls", "count"),
    ("bench.tracing_overhead_s", "s"),
];

/// Workload names, in the order the steadiness command runs them.
pub(crate) const WORKLOADS: &[&str] = &["train-minibatch", "train-fullbatch", "config-sweep"];

/// Parsed command line.
pub(crate) struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub small: bool,
}

/// One measured value.
pub(crate) struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub(crate) struct Outcome {
    /// Operations (epochs or configs) attempted. None can fail without
    /// aborting the run, so the result line reports 0 failed.
    pub attempted: u64,
    pub metrics: Vec<Metric>,
    /// Failed checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Human-readable facts printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, what: &str) {
        self.failures.push(what.to_string());
    }

    pub fn note(&mut self, what: &str) {
        self.notes.push(what.to_string());
    }

    /// Writes the traced run's spans as a Chrome trace under `.perfbench/`
    /// in the working directory.
    pub fn write_trace(&mut self, rec: &Recorder, args: &Args, workload: &str) {
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!("{workload}-seed{}.trace.json", args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, rec.to_chrome_trace()))
        {
            Ok(()) => self.note(&format!(
                "{} spans written to {}",
                rec.spans().len(),
                path.display()
            )),
            Err(e) => self.fail(&format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// The timed part: whole rounds until `args.seconds` are spent (one round
/// in small mode). A traced run alternates untraced and traced rounds and
/// runs at least one of each; it counts the heap allocations of its
/// untraced rounds. Between rounds, every [`SETUP_EVERY_S`] seconds, it
/// times one more set-up (`setup`), so that set-ups spread over the run
/// as the rounds do. Returns the rounds and the peak RSS read after the
/// first round, before a set-up holds a second graph beside the first.
pub(crate) fn run_rounds<R>(
    args: &Args,
    rec: &mut Recorder,
    mut round: impl FnMut(&mut Recorder) -> R,
    mut setup: impl FnMut(),
) -> (Vec<R>, f64) {
    let start = now();
    let mut last_setup = start;
    let mut peak_rss = f64::NAN;
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut rounds = Vec::new();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        let counted = args.trace && !traced;
        rec.set_on(traced);
        rec.set_round(rounds.len());
        let (bytes0, calls0) = alloc::totals();
        alloc::set_on(counted);
        rounds.push(round(rec));
        alloc::set_on(false);
        if counted {
            let (bytes1, calls1) = alloc::totals();
            rec.add_allocations(bytes1 - bytes0, calls1 - calls0);
        }
        if rounds.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        if rounds.len() >= min_rounds && (args.small || now() - start >= args.seconds) {
            return (rounds, peak_rss);
        }
        if now() - last_setup >= SETUP_EVERY_S {
            setup();
            last_setup = now();
        }
    }
}

/// The fastest quarter (at least one) of `rounds` by wall time. Rounds
/// all do the same work, so the slow ones are those the host slowed —
/// other tenants taking the shared CPUs — and the end-to-end metrics are
/// medians over the rounds kept.
pub(crate) fn fastest_quarter<'a, R>(rounds: &[&'a R], wall_s: impl Fn(&R) -> f64) -> Vec<&'a R> {
    let mut sorted = rounds.to_vec();
    sorted.sort_by(|a, b| wall_s(a).total_cmp(&wall_s(b)));
    sorted.truncate(rounds.len().div_ceil(4).max(1));
    sorted
}

/// Seconds of the timed part between two set-ups timed inside it.
pub(crate) const SETUP_EVERY_S: f64 = 2.0;

/// Wall times of repeated set-ups.
#[derive(Default)]
pub(crate) struct Setups {
    /// Graph generation plus system build, seconds.
    pub total_s: Vec<f64>,
    /// Graph generation alone, seconds.
    pub generate_s: Vec<f64>,
}

impl Setups {
    /// `setup_s`: the median of the fastest quarter of the set-ups, the
    /// rule the rounds follow.
    pub fn setup_s(&self) -> f64 {
        let all: Vec<&f64> = self.total_s.iter().collect();
        let kept: Vec<f64> = fastest_quarter(&all, |s| *s).into_iter().copied().collect();
        record::median(&kept)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut small = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        small,
    })
}

/// Peak resident set size of this process, in MB (`getrusage`). Read
/// after the first round, before the checks or a second set-up allocate.
pub(crate) fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (four longs), then
    // fourteen longs starting with `ru_maxrss` in kilobytes.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size of `struct rusage`,
    // and RUSAGE_SELF (0) only reads this process's counters.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.0[4] as f64 / 1024.0
    } else {
        f64::NAN
    }
}

/// Fixes glibc's allocator thresholds for the whole run: blocks up to
/// 32 MiB come from the heap and up to 256 MiB of freed heap stays in the
/// process. By default glibc moves both thresholds as blocks are freed,
/// so whether a freed block goes back to the kernel, to be faulted in
/// again on the next allocation, depends on the order and sizes of
/// earlier frees and so on the seed. Those page faults took over 40% of
/// a full-batch round and spread its time over six seeds by 0.21 (0.09
/// with the thresholds fixed); see README.md. Returns whether both
/// thresholds were set.
fn pin_allocator() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only sets allocator parameters; it is called
        // before any thread is started.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 256 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    now();
    let pinned = pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--small]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = gnn_dm_par::with_threads(threads, || match args.workload.as_str() {
        "train-minibatch" => train::run(&args, false),
        "train-fullbatch" => train::run(&args, true),
        _ => sweep::run(&args),
    });

    // Print exactly the declared metric set, in declaration order; a
    // traced run reads 0 for layers its workload does not exercise.
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match out.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => m.value,
            Some(m) => {
                out.fail(&format!(
                    "metric {name} measured in {}, declared in {unit}",
                    m.unit
                ));
                f64::NAN
            }
            None if args.trace => 0.0,
            None => {
                out.fail(&format!("metric {name} was not measured"));
                f64::NAN
            }
        };
        if !value.is_finite() {
            out.fail(&format!("metric {name} is not a finite number"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let undeclared: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !declared.iter().any(|&(n, _)| n == m.name))
        .map(|m| m.name.clone())
        .collect();
    for name in undeclared {
        out.fail(&format!("metric {name} is not declared"));
    }

    for note in &out.notes {
        println!("# {note}");
    }
    for f in &out.failures {
        println!("# CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "# workload {} seed {} trace {}: {} operations attempted, 0 failed; host CPUs {threads}, threads {}, allocator thresholds pinned: {pinned}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        gnn_dm_par::with_threads(threads, gnn_dm_par::thread_count)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        out.attempted,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
