//! `train-minibatch` and `train-fullbatch`: the training loops behind
//! `TrainExperiment::run` (`train_single`) and `train_full_batch`, driven
//! through the same public per-epoch calls with the clock read only at
//! epoch and step boundaries.
//!
//! A *round* is one training run from a freshly initialised model: a
//! fixed number of epochs, each followed by full-graph validation, then
//! the test evaluation. The timed part repeats rounds until the run's
//! seconds are spent; every round must reproduce the first bit for bit.

use gnn_dm_core::config::ModelKind;
use gnn_dm_core::convergence::{
    modeled_epoch_seconds, train_full_batch, ConvergenceResult, CurvePoint,
};
use gnn_dm_graph::csr::VId;
use gnn_dm_graph::datasets::{DatasetId, DatasetSpec};
use gnn_dm_graph::Graph;
use gnn_dm_harness::{GridSpec, Registry, SystemConfig, TrainExperiment};
use gnn_dm_nn::loss::softmax_cross_entropy;
use gnn_dm_nn::metrics;
use gnn_dm_nn::optim::Optimizer;
use gnn_dm_nn::train::{
    evaluate, full_batch_step, gather_input_features, seed_labels, train_step, StepResult,
};
use gnn_dm_nn::{Adam, GnnModel};
use gnn_dm_sampling::epoch::EpochPlan;
use gnn_dm_sampling::{BatchSelection, BatchSizeSchedule, MiniBatch, NeighborSampler};
use gnn_dm_tensor::{ops, Matrix};

use crate::record::{median, quantile, Recorder};
use crate::reference::{check_batch, compare_accuracy, reference_logits};
use crate::{fastest_quarter, now, run_rounds, Args, Outcome, Setups};

/// Size, epoch budget and accuracy target of one training workload.
struct Scale {
    vertices: usize,
    epochs: usize,
    target: f64,
}

fn scale(full: bool, small: bool) -> Scale {
    match (full, small) {
        (false, false) => Scale {
            vertices: 20_000,
            epochs: 4,
            target: 0.70,
        },
        (false, true) => Scale {
            vertices: 3_000,
            epochs: 3,
            target: 0.60,
        },
        (true, false) => Scale {
            vertices: 16_000,
            epochs: 10,
            target: 0.30,
        },
        (true, true) => Scale {
            vertices: 3_000,
            epochs: 10,
            target: 0.25,
        },
    }
}

/// Hard-regime graph: Reddit-class for mini-batch, OGB-Products-class for
/// full-batch training. The regime is the convergence experiments' (the
/// overrides of `gnn_dm_bench::hard_config`): 64 features, at most 16
/// classes, average degree at most 15, homophily 0.6 and feature noise 10,
/// so the learning curves rise over several epochs instead of saturating
/// in the first.
fn generate(full: bool, vertices: usize, seed: u64) -> Graph {
    let id = if full {
        DatasetId::OgbProducts
    } else {
        DatasetId::Reddit
    };
    let mut cfg = DatasetSpec::get(id).scaled_config(vertices, seed);
    cfg.feat_dim = 64;
    cfg.num_classes = cfg.num_classes.min(16);
    cfg.avg_degree = cfg.avg_degree.min(15.0);
    cfg.homophily = 0.60;
    cfg.feat_noise = 10.0;
    gnn_dm_graph::generate::planted_partition(&cfg)
}

/// Everything a round needs besides the graph.
struct System {
    cfg: SystemConfig,
    sampler: Box<dyn NeighborSampler + Sync>,
    selection: BatchSelection,
    schedule: BatchSizeSchedule,
    train: Vec<VId>,
    val: Vec<VId>,
    test: Vec<VId>,
}

/// One timed set-up: graph generation plus system build.
fn set_up(
    full: bool,
    sc: &Scale,
    seed: u64,
    times: &mut Setups,
) -> (Graph, Result<System, String>) {
    let t0 = now();
    let graph = generate(full, sc.vertices, seed);
    let t1 = now();
    let sys = build_system(&graph);
    times.total_s.push(now() - t0);
    times.generate_s.push(t1 - t0);
    (graph, sys)
}

fn build_system(graph: &Graph) -> Result<System, String> {
    let reg = Registry::builtin();
    let cfg = SystemConfig::from_spec(&reg, &GridSpec::default()).map_err(|e| e.to_string())?;
    Ok(System {
        sampler: cfg.batch_prep.sampler(graph),
        selection: cfg.batch_prep.selection(graph),
        schedule: cfg.batch_prep.schedule(),
        cfg,
        train: graph.train_vertices(),
        val: graph.val_vertices(),
        test: graph.test_vertices(),
    })
}

/// The harness's convergence setup (`TrainExperiment::paper`: hidden 64,
/// Adam lr 0.01, seed 5), GCN for mini-batch and GraphSAGE for full-batch
/// training.
fn experiment(graph: &Graph, full: bool, epochs: usize) -> TrainExperiment<'_> {
    let paper = TrainExperiment::paper(graph, epochs);
    TrainExperiment {
        model: if full { ModelKind::Sage } else { paper.model },
        ..paper
    }
}

/// The freshly initialised model every round starts from.
fn init_model(exp: &TrainExperiment<'_>) -> GnnModel {
    let g = exp.graph;
    GnnModel::new(
        exp.model.agg(),
        &[g.feat_dim(), exp.hidden, g.num_classes],
        exp.seed,
    )
}

/// Per-round work counts, derived from batch and operand shapes.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    sampled_edges: u64,
    gather_bytes: u64,
    aggregate_edges: u64,
    gemm_flop: f64,
}

impl Counts {
    /// GEMM FLOPs and aggregation edges of one forward + backward pass
    /// over layer row counts `rows[l]` and aggregated edges `edges[l]`.
    fn add_pass(&mut self, model: &GnnModel, rows: &[usize], edges: &[usize], backward: bool) {
        let dims = model.dims();
        for (l, (&r, &e)) in rows.iter().zip(edges).enumerate() {
            let a = model.layers[l].w.rows() as f64;
            let o = dims[l + 1] as f64;
            let gemm = 2.0 * r as f64 * a * o;
            self.gemm_flop += gemm;
            self.aggregate_edges += e as u64;
            if backward {
                // dW = aggᵀ·d, plus d_agg = d·Wᵀ and the aggregation
                // adjoint below the output layer.
                self.gemm_flop += gemm;
                if l > 0 {
                    self.gemm_flop += gemm;
                    self.aggregate_edges += e as u64;
                }
            }
        }
    }

    fn add_full_pass(&mut self, model: &GnnModel, graph: &Graph, backward: bool) {
        let layers = model.num_layers();
        let rows = vec![graph.num_vertices(); layers];
        let edges = vec![graph.num_edges(); layers];
        self.add_pass(model, &rows, &edges, backward);
    }
}

/// One epoch as the round saw it.
struct EpochOut {
    /// Training phase (sampling + steps), seconds.
    train_s: f64,
    /// Training plus validation, seconds.
    epoch_s: f64,
    /// End of this epoch's validation, seconds since round start.
    at_s: f64,
}

struct RoundOut {
    traced: bool,
    wall_s: f64,
    epochs: Vec<EpochOut>,
    step_ms: Vec<f64>,
    result: ConvergenceResult,
    counts: Counts,
}

/// The mini-batch step of `train_step`, with a span around each public
/// call it makes.
fn traced_step(
    rec: &mut Recorder,
    model: &mut GnnModel,
    opt: &mut Adam,
    graph: &Graph,
    mb: &MiniBatch,
) -> StepResult {
    let (x, labels) = rec.span("nn.gather", || {
        (gather_input_features(graph, mb), seed_labels(graph, mb))
    });
    let (logits, cache) = rec.span("nn.forward", || model.forward_minibatch(mb, &x));
    let (batch_accuracy, (loss, d_logits)) = rec.span("nn.loss", || {
        (
            metrics::batch_accuracy(&logits, &labels),
            softmax_cross_entropy(&logits, &labels),
        )
    });
    let grads = rec.span("nn.backward", || {
        model.backward_minibatch(mb, &cache, d_logits)
    });
    let grad_norm = rec.span("nn.optim", || {
        let norm = grads.l2_norm();
        let gv: Vec<&[f32]> = grads.flat_views();
        opt.step(model.param_views_mut(), gv);
        norm
    });
    StepResult {
        loss,
        grad_norm,
        batch_accuracy,
    }
}

/// The full-batch step of `full_batch_step`, with a span around each
/// public call it makes (the feature copy counts as the gather).
fn traced_full_step(
    rec: &mut Recorder,
    model: &mut GnnModel,
    opt: &mut Adam,
    graph: &Graph,
) -> StepResult {
    let n = graph.num_vertices();
    let feats = rec.span("nn.gather", || {
        Matrix::from_vec(n, graph.feat_dim(), graph.features.as_slice().to_vec())
    });
    let (logits, cache) = rec.span("nn.forward", || {
        model.forward_full_cached(&graph.inn, &feats)
    });
    let (batch_accuracy, loss, d_logits) = rec.span("nn.loss", || {
        let train = graph.train_vertices();
        let train_logits = logits.gather_rows(&train);
        let labels: Vec<u32> = train.iter().map(|&v| graph.labels[v as usize]).collect();
        let acc = metrics::batch_accuracy(&train_logits, &labels);
        let (loss, d_train) = softmax_cross_entropy(&train_logits, &labels);
        let mut d_logits = Matrix::zeros(n, logits.cols());
        ops::scatter_add_rows(&mut d_logits, &d_train, &train);
        (acc, loss, d_logits)
    });
    let grads = rec.span("nn.backward", || {
        let in_degrees: Vec<usize> = (0..n).map(|v| graph.inn.degree(v as VId)).collect();
        model.backward_full(&graph.out, &in_degrees, &cache, d_logits)
    });
    let grad_norm = rec.span("nn.optim", || {
        let norm = grads.l2_norm();
        let gv: Vec<&[f32]> = grads.flat_views();
        opt.step(model.param_views_mut(), gv);
        norm
    });
    StepResult {
        loss,
        grad_norm,
        batch_accuracy,
    }
}

/// One round, and the model it trained.
fn run_round(
    rec: &mut Recorder,
    exp: &TrainExperiment<'_>,
    sys: &System,
    full: bool,
) -> (RoundOut, GnnModel) {
    let (graph, epochs) = (exp.graph, exp.epochs);
    let traced = rec.is_on();
    let t0 = now();
    rec.open("round");
    let mut model = rec.span("nn.init", || init_model(exp));
    let mut opt = Adam::new(exp.lr);
    let plan = EpochPlan {
        in_csr: &graph.inn,
        train: &sys.train,
        selection: &sys.selection,
        schedule: &sys.schedule,
        sampler: &*sys.sampler,
        seed: exp.seed,
    };
    let mut counts = Counts::default();
    let mut out_epochs = Vec::with_capacity(epochs);
    let mut step_ms = Vec::new();
    let mut curve = Vec::with_capacity(epochs);
    let mut best_acc = 0.0f64;
    let mut sim_time = 0.0f64;
    for epoch in 0..epochs {
        let te = now();
        rec.open("epoch");
        let train_loss = if full {
            let ts = now();
            let step = if traced {
                rec.open("step");
                let s = traced_full_step(rec, &mut model, &mut opt, graph);
                rec.close();
                counts.gather_bytes += graph.features.as_slice().len() as u64 * 4;
                counts.add_full_pass(&model, graph, true);
                s
            } else {
                full_batch_step(&mut model, &mut opt, graph)
            };
            step_ms.push((now() - ts) * 1e3);
            step.loss
        } else {
            let batches = rec.span("sampling.batches", || plan.batches(epoch));
            let mut loss_sum = 0.0f32;
            let (mut inv_v, mut inv_e) = (0usize, 0usize);
            for mb in &batches {
                inv_v += mb.involved_vertices();
                inv_e += mb.involved_edges();
                let ts = now();
                let step = if traced {
                    rec.open("step");
                    let s = traced_step(rec, &mut model, &mut opt, graph, mb);
                    rec.close();
                    s
                } else {
                    train_step(&mut model, &mut opt, graph, mb)
                };
                step_ms.push((now() - ts) * 1e3);
                loss_sum += step.loss;
                if traced {
                    counts.sampled_edges += mb.involved_edges() as u64;
                    counts.gather_bytes +=
                        mb.input_ids().len() as u64 * graph.feat_dim() as u64 * 4;
                    let rows: Vec<usize> = mb.blocks.iter().map(|b| b.num_dst()).collect();
                    let edges: Vec<usize> = mb.blocks.iter().map(|b| b.num_edges()).collect();
                    counts.add_pass(&model, &rows, &edges, true);
                }
            }
            sim_time += modeled_epoch_seconds(graph, inv_v, inv_e, exp.hidden);
            if batches.is_empty() {
                0.0
            } else {
                loss_sum / batches.len() as f32
            }
        };
        let train_s = now() - te;
        let val_acc = rec.span("nn.evaluate", || evaluate(&model, graph, &sys.val));
        if traced {
            counts.add_full_pass(&model, graph, false);
        }
        rec.close();
        best_acc = best_acc.max(val_acc);
        curve.push(CurvePoint {
            epoch,
            sim_time,
            val_acc,
            train_loss,
        });
        let t = now();
        out_epochs.push(EpochOut {
            train_s,
            epoch_s: t - te,
            at_s: t - t0,
        });
    }
    let test_acc = rec.span("nn.evaluate", || evaluate(&model, graph, &sys.test));
    if traced {
        counts.add_full_pass(&model, graph, false);
    }
    rec.close();
    let round = RoundOut {
        traced,
        wall_s: now() - t0,
        epochs: out_epochs,
        step_ms,
        result: ConvergenceResult {
            curve,
            best_acc,
            test_acc,
        },
        counts,
    };
    (round, model)
}

/// Host seconds from round start until validation accuracy reaches
/// `target`, interpolated linearly between the two validations that
/// straddle it (the untrained model's accuracy sits at time 0).
fn time_to_target(r: &RoundOut, init_acc: f64, target: f64) -> Option<f64> {
    let (mut t_prev, mut a_prev) = (0.0, init_acc);
    for (e, p) in r.epochs.iter().zip(&r.result.curve) {
        if p.val_acc >= target {
            let frac = (target - a_prev) / (p.val_acc - a_prev);
            return Some(t_prev + (e.at_s - t_prev) * frac);
        }
        (t_prev, a_prev) = (e.at_s, p.val_acc);
    }
    None
}

/// Median wall time of `rounds`.
fn wall(rounds: &[&RoundOut]) -> f64 {
    median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>())
}

/// Bitwise equality of the parts of two training results a user sees:
/// per-epoch loss and validation accuracy, best and test accuracy.
fn same_bits(a: &ConvergenceResult, b: &ConvergenceResult) -> bool {
    a.curve.len() == b.curve.len()
        && a.curve.iter().zip(&b.curve).all(|(x, y)| {
            x.epoch == y.epoch
                && x.val_acc.to_bits() == y.val_acc.to_bits()
                && x.train_loss.to_bits() == y.train_loss.to_bits()
        })
        && a.best_acc.to_bits() == b.best_acc.to_bits()
        && a.test_acc.to_bits() == b.test_acc.to_bits()
}

/// Runs `train-minibatch` (`full = false`) or `train-fullbatch`.
pub fn run(args: &Args, full: bool) -> Outcome {
    let sc = scale(full, args.small);
    let mut out = Outcome::default();

    let mut setups = Setups::default();
    let (graph, Ok(sys)) = set_up(full, &sc, args.seed, &mut setups) else {
        out.fail("system build failed");
        return out;
    };
    let exp = experiment(&graph, full, sc.epochs);
    let init_acc = evaluate(&init_model(&exp), &graph, &sys.val);
    if init_acc >= sc.target {
        out.fail(&format!(
            "untrained accuracy {init_acc} already meets target {}",
            sc.target
        ));
    }

    let mut rec = Recorder::default();
    // Only the last round's model is kept, so the rounds' memory does not
    // grow with their number.
    let mut last_model = None;
    let (rounds, peak_rss) = run_rounds(
        args,
        &mut rec,
        |rec| {
            let (round, model) = run_round(rec, &exp, &sys, full);
            last_model = Some(model);
            round
        },
        || drop(set_up(full, &sc, args.seed, &mut setups)),
    );
    out.attempted = (rounds.len() * sc.epochs) as u64;

    // Checks.
    let first = &rounds[0].result;
    for (i, r) in rounds.iter().enumerate() {
        if !same_bits(&r.result, first) {
            out.fail(&format!("round {i} curve differs from round 0"));
        }
    }
    let ttt: Vec<f64> = rounds
        .iter()
        .filter_map(|r| time_to_target(r, init_acc, sc.target))
        .collect();
    if ttt.len() != rounds.len() {
        out.fail(&format!(
            "validation accuracy never reached {} in {} epochs",
            sc.target, sc.epochs
        ));
    }
    if let Some(model) = &last_model {
        check_reference(&mut out, &graph, &sys, model, first);
    }
    if !full {
        check_sampling(&mut out, &exp, &sys);
    }
    let crossing = first
        .curve
        .iter()
        .position(|p| p.val_acc >= sc.target)
        .map_or(0, |e| e + 1);
    out.note(&format!(
        "target {} crossed after epoch {crossing}; final val {:.4}, best {:.4}, test {:.4}",
        sc.target,
        first.curve.last().map_or(0.0, |p| p.val_acc),
        first.best_acc,
        first.test_acc
    ));

    let plain: Vec<&RoundOut> = rounds.iter().filter(|r| !r.traced).collect();
    if args.trace {
        let entry = if full {
            train_full_batch(&graph, exp.model, exp.hidden, exp.lr, exp.epochs, exp.seed)
        } else {
            exp.run(&sys.cfg)
        };
        if !same_bits(&entry, first) {
            out.fail("benchmark loop differs from the harness entry point");
        }
        let traced: Vec<&RoundOut> = rounds.iter().filter(|r| r.traced).collect();
        per_layer(&mut out, &rec, &traced, &plain, &setups.generate_s);
        out.write_trace(
            &rec,
            args,
            if full {
                "train-fullbatch"
            } else {
                "train-minibatch"
            },
        );
    } else {
        let kept = fastest_quarter(&plain, |r| r.wall_s);
        let epochs: Vec<&EpochOut> = kept.iter().flat_map(|r| &r.epochs).collect();
        let steps: Vec<f64> = kept
            .iter()
            .flat_map(|r| r.step_ms.iter().copied())
            .collect();
        let seeds = sys.train.len() as f64;
        out.metric("setup_s", setups.setup_s(), "s");
        out.metric("run_s", wall(&kept), "s");
        out.metric("peak_rss_mb", peak_rss, "MB");
        let kept_ttt: Vec<f64> = kept
            .iter()
            .filter_map(|r| time_to_target(r, init_acc, sc.target))
            .collect();
        out.metric("time_to_target_s", median(&kept_ttt), "s");
        out.metric(
            "epoch_ms_p50",
            median(&epochs.iter().map(|e| e.epoch_s * 1e3).collect::<Vec<_>>()),
            "ms",
        );
        out.metric("step_ms_p50", median(&steps), "ms");
        out.metric(
            "seeds_per_s",
            median(&epochs.iter().map(|e| seeds / e.train_s).collect::<Vec<_>>()),
            "1/s",
        );
        // One round trains one config.
        out.metric("configs_per_s", 1.0 / wall(&kept), "1/s");
    }
    out
}

/// The final model's validation accuracy against the f64 reference.
fn check_reference(
    out: &mut Outcome,
    graph: &Graph,
    sys: &System,
    model: &GnnModel,
    first: &ConvergenceResult,
) {
    let feats = Matrix::from_vec(
        graph.num_vertices(),
        graph.feat_dim(),
        graph.features.as_slice().to_vec(),
    );
    let pred = model.full_forward(&graph.inn, &feats).argmax_rows();
    let reference = reference_logits(model, graph);
    let c = compare_accuracy(&reference, &pred, &graph.labels, &sys.val);
    let final_acc = first.curve.last().map_or(f64::NAN, |p| p.val_acc);
    let all_rows = sys
        .val
        .iter()
        .filter(|&&v| pred[v as usize] == graph.labels[v as usize] as usize)
        .count() as f64
        / sys.val.len().max(1) as f64;
    if c.disagreements > 0 || c.model_acc.to_bits() != c.reference_acc.to_bits() {
        out.fail(&format!(
            "f64 reference: {} of the decided validation rows disagree (model {} vs reference {})",
            c.disagreements, c.model_acc, c.reference_acc
        ));
    }
    if all_rows.to_bits() != final_acc.to_bits() {
        out.fail(&format!(
            "evaluate() reported {final_acc}, the model's predictions give {all_rows}"
        ));
    }
    if 2 * c.near_ties > sys.val.len() {
        out.fail(&format!(
            "{} of {} validation rows are near ties",
            c.near_ties,
            sys.val.len()
        ));
    }
    out.note(&format!(
        "f64 reference agrees on {} validation rows ({} near ties excepted)",
        sys.val.len() - c.near_ties,
        c.near_ties
    ));
}

/// Every sampled block of every epoch's batches, regenerated after the
/// timed part (batch construction is deterministic per epoch).
fn check_sampling(out: &mut Outcome, exp: &TrainExperiment<'_>, sys: &System) {
    let graph = exp.graph;
    let Some(fanouts) = sys.cfg.batch_prep.fanouts() else {
        out.fail("baseline batch prep has no fanouts");
        return;
    };
    let plan = EpochPlan {
        in_csr: &graph.inn,
        train: &sys.train,
        selection: &sys.selection,
        schedule: &sys.schedule,
        sampler: &*sys.sampler,
        seed: exp.seed,
    };
    let mut edges = 0;
    for epoch in 0..exp.epochs {
        let batches = plan.batches(epoch);
        let seeds: usize = batches.iter().map(|mb| mb.seeds.len()).sum();
        if seeds != sys.train.len() {
            out.fail(&format!(
                "epoch {epoch} batches cover {seeds} of {} training vertices",
                sys.train.len()
            ));
        }
        for mb in &batches {
            match check_batch(graph, mb, &fanouts) {
                Ok(e) => edges += e,
                Err(e) => {
                    out.fail(&format!("epoch {epoch}: {e}"));
                    return;
                }
            }
        }
    }
    out.note(&format!(
        "{edges} sampled block edges checked against the graph and fanouts"
    ));
}

fn per_layer(
    out: &mut Outcome,
    rec: &Recorder,
    traced: &[&RoundOut],
    plain: &[&RoundOut],
    generate_s: &[f64],
) {
    let layer = |name: &str| rec.median_self_s(name);
    out.metric("graph.generate_s", median(generate_s), "s");
    out.metric("sampling.batches_s", layer("sampling.batches"), "s");
    out.metric("nn.gather_s", layer("nn.gather"), "s");
    out.metric("nn.forward_s", layer("nn.forward"), "s");
    out.metric("nn.backward_s", layer("nn.backward"), "s");
    out.metric("nn.loss_s", layer("nn.loss"), "s");
    out.metric("nn.optim_s", layer("nn.optim"), "s");
    out.metric("nn.evaluate_s", layer("nn.evaluate"), "s");
    let c = traced.first().map(|r| r.counts).unwrap_or_default();
    out.metric("sampling.sampled_edges", c.sampled_edges as f64, "count");
    out.metric("nn.gather_bytes", c.gather_bytes as f64, "bytes");
    out.metric("nn.aggregate_edges", c.aggregate_edges as f64, "count");
    out.metric("tensor.gemm_gflop", c.gemm_flop / 1e9, "GFLOP");
    let steps: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    out.metric("nn.step_ms_p98", quantile(&steps, 0.98), "ms");
    let (bytes, calls) = rec.median_allocations();
    out.metric("alloc.bytes", bytes, "bytes");
    out.metric("alloc.calls", calls, "count");
    out.metric("bench.tracing_overhead_s", wall(traced) - wall(plain), "s");
}
