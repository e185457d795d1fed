//! Output checks computed apart from the code under test: an f64 forward
//! pass written from the aggregation definitions in `gnn_dm_nn::agg`, and
//! the structural properties every sampled block must have.

use gnn_dm_graph::csr::VId;
use gnn_dm_graph::Graph;
use gnn_dm_nn::{AggKind, GnnModel};
use gnn_dm_sampling::MiniBatch;

/// Relative gap between a row's top two f64 logits below which the row's
/// prediction is too close to call across f32 and f64 arithmetic.
pub const TIE_TOLERANCE: f64 = 1e-4;

/// f64 logits of every vertex under `model`, from the definitions:
/// GCN `out[v] = (h[v] + Σ_{u→v} h[u]) / (1 + indeg(v))`; GraphSAGE-mean
/// `out[v] = [h[v] ‖ mean_{u→v} h[u]]` (zero mean without in-neighbours);
/// then `agg · W + b`, with ReLU on every layer but the last.
pub fn reference_logits(model: &GnnModel, graph: &Graph) -> Vec<Vec<f64>> {
    let n = graph.num_vertices();
    let mut h: Vec<Vec<f64>> = (0..n)
        .map(|v| {
            graph
                .features
                .row(v as VId)
                .iter()
                .map(|&x| f64::from(x))
                .collect()
        })
        .collect();
    let last = model.layers.len().saturating_sub(1);
    for (l, layer) in model.layers.iter().enumerate() {
        let mut next = Vec::with_capacity(n);
        for v in 0..n {
            let nbrs = graph.inn.neighbors(v as VId);
            let dim = h[v].len();
            let mut sum = vec![0.0f64; dim];
            for &u in nbrs {
                for (s, &x) in sum.iter_mut().zip(&h[u as usize]) {
                    *s += x;
                }
            }
            let agg: Vec<f64> = match model.kind {
                AggKind::Gcn => {
                    let inv = 1.0 / (1.0 + nbrs.len() as f64);
                    h[v].iter()
                        .zip(&sum)
                        .map(|(&a, &b)| (a + b) * inv)
                        .collect()
                }
                AggKind::SageMean => {
                    let inv = if nbrs.is_empty() {
                        0.0
                    } else {
                        1.0 / nbrs.len() as f64
                    };
                    h[v].iter()
                        .copied()
                        .chain(sum.iter().map(|&b| b * inv))
                        .collect()
                }
            };
            let mut z: Vec<f64> = layer.b.iter().map(|&b| f64::from(b)).collect();
            for (r, &a) in agg.iter().enumerate() {
                for (c, zc) in z.iter_mut().enumerate() {
                    *zc += a * f64::from(layer.w.get(r, c));
                }
            }
            if l < last {
                for zc in &mut z {
                    *zc = zc.max(0.0);
                }
            }
            next.push(z);
        }
        h = next;
    }
    h
}

/// Outcome of comparing the model's validation accuracy with the f64
/// reference.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyCheck {
    /// Rows whose f64 top-two gap is within [`TIE_TOLERANCE`].
    pub near_ties: usize,
    /// Decided rows where the model's f32 prediction differs from f64.
    pub disagreements: usize,
    /// Accuracy over the decided rows, from the f32 model.
    pub model_acc: f64,
    /// Accuracy over the decided rows, from the f64 reference.
    pub reference_acc: f64,
}

/// Compares `evaluate`'s per-row predictions (`f32_pred`, the argmax of
/// the model's full forward pass) with the f64 reference over `subset`.
pub fn compare_accuracy(
    reference: &[Vec<f64>],
    f32_pred: &[usize],
    labels: &[u32],
    subset: &[VId],
) -> AccuracyCheck {
    let mut near_ties = 0;
    let mut disagreements = 0;
    let mut decided = 0usize;
    let mut model_ok = 0usize;
    let mut ref_ok = 0usize;
    for &v in subset {
        let row = &reference[v as usize];
        let (best, gap) = top_two(row);
        let scale = row.iter().fold(1.0f64, |m, x| m.max(x.abs()));
        if gap <= TIE_TOLERANCE * scale {
            near_ties += 1;
            continue;
        }
        decided += 1;
        let label = labels[v as usize] as usize;
        let p = f32_pred[v as usize];
        disagreements += usize::from(p != best);
        model_ok += usize::from(p == label);
        ref_ok += usize::from(best == label);
    }
    let frac = |k: usize| {
        if decided == 0 {
            0.0
        } else {
            k as f64 / decided as f64
        }
    };
    AccuracyCheck {
        near_ties,
        disagreements,
        model_acc: frac(model_ok),
        reference_acc: frac(ref_ok),
    }
}

/// Index of the largest entry (first on ties) and its gap to the runner-up.
fn top_two(row: &[f64]) -> (usize, f64) {
    let mut best = 0usize;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    let second = row
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best)
        .map(|(_, &x)| x)
        .fold(f64::NEG_INFINITY, f64::max);
    (best, row[best] - second)
}

/// Checks that every block edge of `mb` is a graph edge `src → dst` and
/// that no destination has more sampled in-edges than its layer's fanout
/// (`fanouts[0]` is the output layer, i.e. the last block). Returns the
/// number of block edges checked.
pub fn check_batch(graph: &Graph, mb: &MiniBatch, fanouts: &[usize]) -> Result<usize, String> {
    mb.validate()?;
    if mb.blocks.len() != fanouts.len() {
        return Err(format!(
            "{} blocks for {} fanouts",
            mb.blocks.len(),
            fanouts.len()
        ));
    }
    let layers = mb.blocks.len();
    let mut edges = 0;
    for (l, block) in mb.blocks.iter().enumerate() {
        let fanout = fanouts[layers - 1 - l];
        let mut per_dst = vec![0usize; block.num_dst()];
        for &(s, d) in &block.edges {
            let src = block.src_ids[s as usize];
            let dst = block.dst_ids[d as usize];
            if !graph.out.neighbors(src).contains(&dst) {
                return Err(format!("block {l} edge {src}->{dst} is not a graph edge"));
            }
            per_dst[d as usize] += 1;
        }
        if let Some((d, &c)) = per_dst.iter().enumerate().find(|&(_, &c)| c > fanout) {
            return Err(format!(
                "block {l} destination {} has {c} sampled in-edges, fanout {fanout}",
                block.dst_ids[d]
            ));
        }
        edges += block.num_edges();
    }
    Ok(edges)
}
