//! `config-sweep`: a harness `Grid` over the registered system axes with
//! no NN training — partitioning, cluster epoch simulation, resilient
//! timeline replay, cache construction and hetero epochs.
//!
//! A *round* evaluates the whole grid once: every registered partitioner
//! under `cluster(4)` crossed with every registered fault plan and
//! resilience policy, then every transfer × cache value under `single`.
//! Configs that differ only in faults or resilience share one
//! partitioning and one simulated epoch, as those axes only change the
//! replayed timelines.

use gnn_dm_device::cache::CachePolicy as DevCachePolicy;
use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::Graph;
use gnn_dm_harness::{Axis, ClusterExperiment, ClusterRun, Grid, GridSpec, Registry, SystemConfig};

use crate::record::{median, Recorder};
use crate::{now, run_rounds, Args, Outcome, Setups};

struct Scale {
    vertices: usize,
    /// Resilient epoch timelines replayed per cluster config.
    replay_epochs: usize,
}

fn scale(small: bool) -> Scale {
    if small {
        Scale {
            vertices: 1_500,
            replay_epochs: 4,
        }
    } else {
        Scale {
            vertices: 8_000,
            replay_epochs: 32,
        }
    }
}

/// The two grids, resolved through the builtin registry: cluster configs
/// (partitioner × faults × resilience under `cluster(4)`) and single-node
/// configs (transfer × cache under `single`).
fn grids(reg: &Registry) -> Result<Configs, String> {
    let err = |e: gnn_dm_harness::HarnessError| e.to_string();
    let base = GridSpec {
        parallel: "cluster(4)".to_string(),
        ..GridSpec::default()
    };
    let cluster = Grid::over(base)
        .vary(Axis::Partitioner, reg.specs(Axis::Partitioner))
        .and_then(|g| g.vary(Axis::Faults, reg.specs(Axis::Faults)))
        .and_then(|g| g.vary(Axis::Resilience, reg.specs(Axis::Resilience)))
        .and_then(|g| g.configs(reg))
        .map_err(err)?;
    let base = GridSpec {
        parallel: "single".to_string(),
        ..GridSpec::default()
    };
    let single = Grid::over(base)
        .vary(Axis::Transfer, reg.specs(Axis::Transfer))
        .and_then(|g| g.vary(Axis::Cache, reg.specs(Axis::Cache)))
        .and_then(|g| g.configs(reg))
        .map_err(err)?;
    Ok((cluster, single))
}

/// Resolved cluster and single-node configs.
type Configs = (Vec<SystemConfig>, Vec<SystemConfig>);

/// One timed set-up: graph generation plus registry and grid resolution.
fn set_up(sc: &Scale, seed: u64, times: &mut Setups) -> (Graph, Result<Configs, String>) {
    let t0 = now();
    let graph = DatasetSpec::get(DatasetId::OgbProducts).generate_scaled(sc.vertices, seed);
    let t1 = now();
    let reg = Registry::builtin();
    let configs = grids(&reg);
    times.total_s.push(now() - t0);
    times.generate_s.push(t1 - t0);
    (graph, configs)
}

/// Modelled outputs of one cluster config.
struct ClusterOut {
    run: usize,
    faults: String,
    resilience: String,
    /// Resilient epoch time of each replayed epoch.
    epoch_s: Vec<f64>,
    spans: usize,
}

/// Modelled outputs of one single-node config.
struct SingleOut {
    transfer: String,
    cache: String,
    makespan: f64,
    pcie_bytes: u64,
    hit_rate: f64,
    num_batches: usize,
    spans: usize,
}

struct RoundOut {
    traced: bool,
    wall_s: f64,
    config_ms: Vec<f64>,
    epoch_ms: Vec<f64>,
    seeds: usize,
    /// Each partitioner's run. Rounds after the first drop them once their
    /// digest is compared, so the rounds' memory does not grow with their
    /// number.
    runs: Vec<(String, ClusterRun)>,
    /// Whether the round's modelled outputs equal the first round's.
    same_as_first: bool,
    cluster: Vec<ClusterOut>,
    single: Vec<SingleOut>,
}

impl RoundOut {
    /// Every modelled number of the round, as bits: the determinism
    /// digest compared across rounds and between traced and untraced runs.
    fn digest(&self) -> Vec<u64> {
        let mut d = Vec::new();
        for (_, run) in &self.runs {
            d.extend(run.part.assignment.iter().map(|&a| u64::from(a)));
            d.push(run.report.comm.total_volume());
            d.extend(run.report.num_batches.iter().map(|&b| b as u64));
        }
        for c in &self.cluster {
            d.extend(c.epoch_s.iter().map(|t| t.to_bits()));
            d.push(c.spans as u64);
        }
        for s in &self.single {
            d.extend([s.makespan.to_bits(), s.pcie_bytes, s.hit_rate.to_bits()]);
            d.extend([s.num_batches as u64, s.spans as u64]);
        }
        d
    }
}

fn run_round(
    rec: &mut Recorder,
    graph: &Graph,
    cluster: &[SystemConfig],
    single: &[SystemConfig],
    replay_epochs: usize,
) -> RoundOut {
    let traced = rec.is_on();
    let t0 = now();
    rec.open("round");
    let exp = ClusterExperiment::paper(graph);
    let train = graph.train_vertices().len();
    let mut out = RoundOut {
        traced,
        wall_s: 0.0,
        config_ms: Vec::new(),
        epoch_ms: Vec::new(),
        seeds: 0,
        same_as_first: true,
        runs: Vec::new(),
        cluster: Vec::new(),
        single: Vec::new(),
    };
    for cfg in cluster {
        let tc = now();
        rec.open("config");
        let spec = cfg.partitioner.spec();
        if out.runs.last().is_none_or(|(s, _)| *s != spec) {
            let part = rec.span(&format!("partition.build.{spec}"), || exp.partition(cfg));
            let sampler = cfg.batch_prep.sampler(graph);
            let batch_size = cfg.batch_prep.batch_size(exp.epoch);
            let te = now();
            let report = rec.span("cluster.simulate", || {
                exp.sim_with(&part, batch_size)
                    .simulate_epoch(&*sampler, exp.epoch)
            });
            out.epoch_ms.push((now() - te) * 1e3);
            out.seeds += train;
            out.runs.push((
                spec,
                ClusterRun {
                    part,
                    report,
                    batch_size,
                },
            ));
        }
        let run = out.runs.len() - 1;
        let (epoch_s, spans) = rec.span("cluster.replay", || {
            let mut spans = 0;
            let times: Vec<f64> = (0..replay_epochs)
                .map(|e| {
                    let tl = exp.timeline_resilient_at(&out.runs[run].1, cfg, e);
                    spans += tl.len();
                    tl.makespan()
                })
                .collect();
            (times, spans)
        });
        out.cluster.push(ClusterOut {
            run,
            faults: cfg.faults.spec(),
            resilience: cfg.resilience.spec(),
            epoch_s,
            spans,
        });
        rec.close();
        out.config_ms.push((now() - tc) * 1e3);
    }
    for cfg in single {
        let tc = now();
        rec.open("config");
        let mut trainer = rec.span("device.build", || cfg.hetero_trainer(graph));
        let te = now();
        let (tim, tl) = rec.span("device.epoch", || {
            trainer.run_epoch_faulted(0, &cfg.faults.plan())
        });
        out.epoch_ms.push((now() - te) * 1e3);
        let profiling = match cfg.cache.device_policy() {
            Some(DevCachePolicy::PreSample) => cfg.cache.presample_epochs().max(1),
            _ => 0,
        };
        out.seeds += train * (1 + profiling);
        out.single.push(SingleOut {
            transfer: cfg.transfer.spec(),
            cache: cfg.cache.spec(),
            makespan: tim.makespan,
            pcie_bytes: tim.pcie_bytes,
            hit_rate: tim.cache_hit_rate,
            num_batches: tim.num_batches,
            spans: tl.len(),
        });
        rec.close();
        out.config_ms.push((now() - tc) * 1e3);
    }
    rec.close();
    out.wall_s = now() - t0;
    out
}

/// Runs `config-sweep`.
pub fn run(args: &Args) -> Outcome {
    let sc = scale(args.small);
    let mut out = Outcome::default();

    let mut setups = Setups::default();
    let (graph, Ok((cluster, single))) = set_up(&sc, args.seed, &mut setups) else {
        out.fail("grid resolution failed");
        return out;
    };

    let mut rec = Recorder::default();
    let mut first_digest = None;
    let (rounds, peak_rss) = run_rounds(
        args,
        &mut rec,
        |rec| {
            let mut r = run_round(rec, &graph, &cluster, &single, sc.replay_epochs);
            let digest = r.digest();
            match &first_digest {
                None => first_digest = Some(digest),
                Some(first) => {
                    r.same_as_first = digest == *first;
                    r.runs = Vec::new();
                }
            }
            r
        },
        || drop(set_up(&sc, args.seed, &mut setups)),
    );
    let per_round = cluster.len() + single.len();
    out.attempted = (rounds.len() * per_round) as u64;

    for (i, r) in rounds.iter().enumerate() {
        if !r.same_as_first {
            out.fail(&format!("round {i} modelled outputs differ from round 0"));
        }
    }
    let cuts = check_round(&mut out, &graph, &rounds[0]);

    let plain: Vec<&RoundOut> = rounds.iter().filter(|r| !r.traced).collect();
    let wall = |rs: &[&RoundOut]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    if args.trace {
        let traced: Vec<&RoundOut> = rounds.iter().filter(|r| r.traced).collect();
        let r = &rounds[0];
        check_entry_points(&mut out, &graph, &cluster, r);
        out.metric("graph.generate_s", median(&setups.generate_s), "s");
        for (spec, cut) in &cuts {
            out.metric(
                &format!("partition.build_s.{spec}"),
                rec.median_self_s(&format!("partition.build.{spec}")),
                "s",
            );
            out.metric(&format!("partition.edge_cut.{spec}"), *cut as f64, "count");
        }
        out.metric(
            "cluster.simulate_s",
            rec.median_self_s("cluster.simulate"),
            "s",
        );
        let nic: u64 = r
            .runs
            .iter()
            .map(|(_, run)| run.report.comm.total_volume())
            .sum();
        out.metric("cluster.nic_bytes", nic as f64, "bytes");
        out.metric("cluster.replay_s", rec.median_self_s("cluster.replay"), "s");
        let spans: usize = r.cluster.iter().map(|c| c.spans).sum::<usize>()
            + r.single.iter().map(|s| s.spans).sum::<usize>();
        out.metric("trace.spans", spans as f64, "count");
        out.metric("device.build_s", rec.median_self_s("device.build"), "s");
        out.metric("device.epoch_s", rec.median_self_s("device.epoch"), "s");
        let pcie: u64 = r.single.iter().map(|s| s.pcie_bytes).sum();
        out.metric("device.pcie_bytes", pcie as f64, "bytes");
        let cached: Vec<f64> = r
            .single
            .iter()
            .filter(|s| s.cache != "none")
            .map(|s| s.hit_rate)
            .collect();
        out.metric(
            "device.cache_hit_rate",
            cached.iter().sum::<f64>() / cached.len().max(1) as f64,
            "ratio",
        );
        let modelled: f64 = r.cluster.iter().flat_map(|c| &c.epoch_s).sum();
        out.metric("cluster.modelled_epoch_s", modelled, "s");
        out.metric(
            "device.modelled_makespan_s",
            r.single.iter().map(|s| s.makespan).sum::<f64>(),
            "s",
        );
        let (bytes, calls) = rec.median_allocations();
        out.metric("alloc.bytes", bytes, "bytes");
        out.metric("alloc.calls", calls, "count");
        out.metric(
            "bench.tracing_overhead_s",
            wall(&traced) - wall(&plain),
            "s",
        );
        out.write_trace(&rec, args, "config-sweep");
    } else {
        // A round is ~1.7 s, so a run has too few rounds for the
        // fastest-quarter rule to find a calm stretch of the host; each
        // config (and each simulated epoch) instead takes its fastest time
        // over the run's rounds, and the round is rebuilt from those.
        let configs = fastest_each(&plain, |r| &r.config_ms);
        let epochs = fastest_each(&plain, |r| &r.epoch_ms);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let run_s = configs.iter().sum::<f64>() / 1e3;
        let ranking_s = configs[..cluster.len()].iter().sum::<f64>() / 1e3;
        let seeds = plain.first().map_or(0, |r| r.seeds) as f64;
        out.metric("setup_s", setups.setup_s(), "s");
        out.metric("run_s", run_s, "s");
        out.metric("peak_rss_mb", peak_rss, "MB");
        out.metric("time_to_target_s", ranking_s, "s");
        out.metric("epoch_ms_p50", mean(&epochs), "ms");
        out.metric("step_ms_p50", mean(&configs), "ms");
        out.metric("seeds_per_s", seeds / run_s, "1/s");
        out.metric("configs_per_s", per_round as f64 / run_s, "1/s");
    }
    out
}

/// The round's shared runs and replayed epochs against the harness entry
/// points: `ClusterExperiment::run` for each partitioner must rebuild the
/// same assignment, communication volume and batch counts, and
/// `epoch_time_resilient` must give every cluster config's replayed epoch
/// `exp.epoch` bit for bit.
fn check_entry_points(out: &mut Outcome, graph: &Graph, cluster: &[SystemConfig], r: &RoundOut) {
    let exp = ClusterExperiment::paper(graph);
    for (spec, run) in &r.runs {
        let Some(cfg) = cluster.iter().find(|c| c.partitioner.spec() == *spec) else {
            out.fail(&format!("{spec}: no config uses this partitioner"));
            continue;
        };
        let entry = exp.run(cfg);
        if entry.part.assignment != run.part.assignment
            || entry.report.comm.total_volume() != run.report.comm.total_volume()
            || entry.report.num_batches != run.report.num_batches
            || entry.batch_size != run.batch_size
        {
            out.fail(&format!(
                "{spec}: the sweep's run differs from ClusterExperiment::run"
            ));
        }
    }
    for (c, cfg) in r.cluster.iter().zip(cluster) {
        let (spec, run) = &r.runs[c.run];
        let entry = exp.epoch_time_resilient(run, cfg);
        if c.epoch_s.get(exp.epoch).map(|t| t.to_bits()) != Some(entry.to_bits()) {
            out.fail(&format!(
                "{spec}/{}/{}: replayed epoch {} differs from epoch_time_resilient",
                c.faults, c.resilience, exp.epoch
            ));
        }
    }
    out.note(&format!(
        "{} partitionings and {} cluster configs equal the harness entry points",
        r.runs.len(),
        r.cluster.len()
    ));
}

/// Property checks on one round's outputs. Returns each partitioner's
/// edge cut as counted from the CSR.
fn check_round(out: &mut Outcome, graph: &Graph, r: &RoundOut) -> Vec<(String, usize)> {
    let n = graph.num_vertices();
    let exp = ClusterExperiment::paper(graph);
    let mut cuts = Vec::new();
    for (spec, run) in &r.runs {
        let part = &run.part;
        let k = part.k;
        let mut sizes = vec![0usize; k];
        let mut local_train = vec![0usize; k];
        let mut in_range = part.assignment.len() == n;
        for (v, &p) in part.assignment.iter().enumerate() {
            match sizes.get_mut(p as usize) {
                Some(s) => *s += 1,
                None => in_range = false,
            }
            if graph.split.is_train(v as u32) && (p as usize) < k {
                local_train[p as usize] += 1;
            }
        }
        if !in_range || sizes.iter().sum::<usize>() != n || sizes != part.sizes() {
            out.fail(&format!(
                "{spec}: vertices are not each in exactly one of {k} parts"
            ));
        }
        let offsets = graph.out.offsets();
        let targets = graph.out.targets();
        let mut cut = 0usize;
        for u in 0..n {
            for &v in &targets[offsets[u]..offsets[u + 1]] {
                cut += usize::from(part.assignment[u] != part.assignment[v as usize]);
            }
        }
        if cut != gnn_dm_partition::metrics::edge_cut(graph, part) {
            out.fail(&format!(
                "{spec}: edge cut {cut} from the CSR differs from metrics::edge_cut"
            ));
        }
        if spec == "hash" {
            let expected = (1.0 - 1.0 / k as f64) * graph.num_edges() as f64;
            if (cut as f64 - expected).abs() > 0.02 * expected {
                out.fail(&format!(
                    "hash cut {cut} is not near (1 - 1/k)|E| = {expected:.0}"
                ));
            }
        }
        let expected: Vec<usize> = local_train
            .iter()
            .map(|t| t.div_ceil(run.batch_size))
            .collect();
        if run.report.num_batches != expected {
            out.fail(&format!(
                "{spec}: per-worker batches {:?}, expected {expected:?}",
                run.report.num_batches
            ));
        }
        cuts.push((spec.clone(), cut));
    }

    for c in &r.cluster {
        let (spec, run) = &r.runs[c.run];
        if c.faults == "none" && c.resilience == "none" {
            let healthy = exp.epoch_time(run);
            if c.epoch_s.iter().any(|t| t.to_bits() != healthy.to_bits()) {
                out.fail(&format!(
                    "{spec}: resilient epoch time under the none plan differs from healthy"
                ));
            }
        }
        if c.resilience != "none" {
            let base = r
                .cluster
                .iter()
                .find(|b| b.run == c.run && b.faults == c.faults && b.resilience == "none");
            let lengthened =
                base.is_none_or(|b| b.epoch_s.iter().zip(&c.epoch_s).any(|(x, y)| y > x));
            if lengthened {
                out.fail(&format!(
                    "{spec}: {} lengthens an epoch under {}",
                    c.resilience, c.faults
                ));
            }
        }
    }

    for s in &r.single {
        if !(0.0..=1.0).contains(&s.hit_rate) || (s.cache == "none" && s.hit_rate != 0.0) {
            out.fail(&format!(
                "{}/{}: cache hit rate {}",
                s.transfer, s.cache, s.hit_rate
            ));
        }
        let same = |t: &str, c: &str| r.single.iter().find(|x| x.transfer == t && x.cache == c);
        if same(&s.transfer, "none").is_none_or(|b| s.pcie_bytes > b.pcie_bytes) {
            out.fail(&format!(
                "{}/{}: cache adds PCIe bytes",
                s.transfer, s.cache
            ));
        }
        if s.transfer.starts_with("zero-copy+pipe")
            && same("zero-copy", &s.cache).is_none_or(|b| s.makespan > b.makespan)
        {
            out.fail(&format!(
                "{}/{}: pipelined makespan exceeds unpipelined",
                s.transfer, s.cache
            ));
        }
    }
    out.note(&format!(
        "{} partitionings, {} cluster and {} single-node configs checked",
        r.runs.len(),
        r.cluster.len(),
        r.single.len()
    ));
    cuts
}

/// Position by position, the fastest of `times` over `rounds` (every round
/// times the same configs or epochs in the same order).
fn fastest_each(rounds: &[&RoundOut], times: impl Fn(&RoundOut) -> &[f64]) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for r in rounds {
        let t = times(r);
        if best.is_empty() {
            best = t.to_vec();
        }
        for (b, &x) in best.iter_mut().zip(t) {
            *b = b.min(x);
        }
    }
    best
}
