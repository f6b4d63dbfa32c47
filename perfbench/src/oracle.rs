//! Independent output oracle: a naive reference evaluator over
//! `tvm_graph::Graph`.
//!
//! It walks the graph node by node in construction (topological) order and
//! computes every operator with plain nested loops in `f64`, straight from
//! the operator's definition. It shares no code with the compiler, the
//! lowered IR or the interpreter, so a wrong schedule, a fusion bug or an
//! interpreter fault shows up as a disagreement with it. Parameters are
//! seeded exactly as `GraphExecutor::from_arc_with_weights` seeds them.

use tvm_graph::{Graph, Node, OpType};
use tvm_runtime::NDArray;

/// Relative tolerance of [`agrees`], on each element.
pub const RTOL: f64 = 1e-3;
/// Absolute tolerance of [`agrees`], as a share of the largest reference
/// magnitude in the tensor (at least 1).
pub const ATOL: f64 = 1e-4;

/// The seed of a parameter node's stream: the node id and the weight-set
/// seed, mixed the way the graph executor mixes them.
fn param_seed(node: &Node, weights: u64) -> u64 {
    (node.id.0 as u64 + 1).wrapping_add(weights.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn numel(shape: &[i64]) -> usize {
    shape.iter().product::<i64>().max(0) as usize
}

/// Evaluates `graph` on the named `inputs` with weight set `weights` and
/// returns every graph output, in order.
pub fn evaluate(
    graph: &Graph,
    inputs: &[(String, NDArray)],
    weights: u64,
) -> Result<Vec<Vec<f32>>, String> {
    let mut vals: Vec<Vec<f64>> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let arg = |i: usize| -> &[f64] { &vals[node.inputs[i].0] };
        let shape_of = |i: usize| -> &[i64] { &graph.node(node.inputs[i]).shape };
        let out = match &node.op {
            OpType::Input => {
                let (_, x) = inputs
                    .iter()
                    .find(|(n, _)| *n == node.name)
                    .ok_or_else(|| format!("input `{}` not bound", node.name))?;
                if x.shape != node.shape {
                    return Err(format!("input `{}` has the wrong shape", node.name));
                }
                x.data.iter().map(|&v| v as f64).collect()
            }
            OpType::Param => NDArray::seeded(&node.shape, param_seed(node, weights))
                .data
                .iter()
                .map(|&v| v as f64)
                .collect(),
            OpType::Conv2d(w) => {
                let (x, xs) = (arg(0), shape_of(0));
                let wt = arg(1);
                let (ic, h, wd) = (xs[1], xs[2], xs[3]);
                let (oc, o, k) = (w.out_c, node.shape[2], w.kernel);
                let mut out = vec![0.0; numel(&node.shape)];
                for b in 0..w.batch {
                    for f in 0..oc {
                        for y in 0..o {
                            for xo in 0..o {
                                let mut acc = 0.0;
                                for c in 0..ic {
                                    for ky in 0..k {
                                        let iy = y * w.stride + ky - w.pad;
                                        if iy < 0 || iy >= h {
                                            continue;
                                        }
                                        for kx in 0..k {
                                            let ix = xo * w.stride + kx - w.pad;
                                            if ix < 0 || ix >= wd {
                                                continue;
                                            }
                                            acc += x[(((b * ic + c) * h + iy) * wd + ix) as usize]
                                                * wt[(((f * ic + c) * k + ky) * k + kx) as usize];
                                        }
                                    }
                                }
                                out[(((b * oc + f) * o + y) * o + xo) as usize] = acc;
                            }
                        }
                    }
                }
                out
            }
            OpType::DepthwiseConv2d(w) => {
                let (x, xs) = (arg(0), shape_of(0));
                let wt = arg(1);
                let (ch, h, wd) = (xs[1], xs[2], xs[3]);
                let (o, k) = (node.shape[2], w.kernel);
                let mut out = vec![0.0; numel(&node.shape)];
                for b in 0..w.batch {
                    for c in 0..ch {
                        for y in 0..o {
                            for xo in 0..o {
                                let mut acc = 0.0;
                                for ky in 0..k {
                                    let iy = y * w.stride + ky - w.pad;
                                    if iy < 0 || iy >= h {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = xo * w.stride + kx - w.pad;
                                        if ix < 0 || ix >= wd {
                                            continue;
                                        }
                                        acc += x[(((b * ch + c) * h + iy) * wd + ix) as usize]
                                            * wt[((c * k + ky) * k + kx) as usize];
                                    }
                                }
                                out[(((b * ch + c) * o + y) * o + xo) as usize] = acc;
                            }
                        }
                    }
                }
                out
            }
            OpType::Dense(w) => {
                let (x, wt) = (arg(0), arg(1));
                let (m, n, k) = (w.m as usize, w.n as usize, w.k as usize);
                let mut out = vec![0.0; m * n];
                for i in 0..m {
                    for j in 0..n {
                        out[i * n + j] = (0..k).map(|r| x[i * k + r] * wt[j * k + r]).sum();
                    }
                }
                out
            }
            OpType::Relu => arg(0).iter().map(|&v| v.max(0.0)).collect(),
            OpType::Tanh => arg(0).iter().map(|&v| v.tanh()).collect(),
            OpType::Sigmoid => arg(0).iter().map(|&v| 1.0 / (1.0 + (-v).exp())).collect(),
            OpType::Add => arg(0).iter().zip(arg(1)).map(|(a, b)| a + b).collect(),
            OpType::Multiply => arg(0).iter().zip(arg(1)).map(|(a, b)| a * b).collect(),
            OpType::BiasAdd | OpType::BatchNorm => {
                // Per-channel affine map over axis 1.
                let xs = &node.shape;
                let inner = numel(&xs[2..]);
                let ch = xs[1] as usize;
                let x = arg(0);
                let (scale, shift): (Option<&[f64]>, &[f64]) = match node.op {
                    OpType::BiasAdd => (None, arg(1)),
                    _ => (Some(arg(1)), arg(2)),
                };
                (0..x.len())
                    .map(|i| {
                        let c = (i / inner) % ch;
                        x[i] * scale.map_or(1.0, |s| s[c]) + shift[c]
                    })
                    .collect()
            }
            OpType::Softmax => {
                let (m, n) = (node.shape[0] as usize, node.shape[1] as usize);
                let x = arg(0);
                let mut out = vec![0.0; m * n];
                for i in 0..m {
                    let row = &x[i * n..(i + 1) * n];
                    let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let sum: f64 = row.iter().map(|v| (v - mx).exp()).sum();
                    for j in 0..n {
                        out[i * n + j] = (row[j] - mx).exp() / sum;
                    }
                }
                out
            }
            OpType::MaxPool2d {
                window,
                stride,
                pad,
            } => {
                let (x, xs) = (arg(0), shape_of(0));
                let (n, c, h, wd) = (xs[0], xs[1], xs[2], xs[3]);
                let o = node.shape[2];
                let mut out = vec![0.0; numel(&node.shape)];
                for b in 0..n * c {
                    for y in 0..o {
                        for xo in 0..o {
                            let mut m = f64::NEG_INFINITY;
                            for ky in 0..*window {
                                for kx in 0..*window {
                                    let (iy, ix) = (y * stride + ky - pad, xo * stride + kx - pad);
                                    if iy >= 0 && iy < h && ix >= 0 && ix < wd {
                                        m = m.max(x[((b * h + iy) * wd + ix) as usize]);
                                    }
                                }
                            }
                            out[((b * o + y) * o + xo) as usize] = m;
                        }
                    }
                }
                out
            }
            OpType::GlobalAvgPool => {
                let (x, xs) = (arg(0), shape_of(0));
                let plane = numel(&xs[2..]);
                x.chunks(plane.max(1))
                    .map(|p| p.iter().sum::<f64>() / plane as f64)
                    .collect()
            }
            OpType::Flatten | OpType::Reshape | OpType::LayoutTransform { .. } => arg(0).to_vec(),
            other => return Err(format!("oracle has no rule for `{}`", other.name())),
        };
        if out.len() != numel(&node.shape) {
            return Err(format!(
                "node `{}` produced {} values for shape {:?}",
                node.name,
                out.len(),
                node.shape
            ));
        }
        vals.push(out);
    }
    Ok(graph
        .outputs
        .iter()
        .map(|o| vals[o.0].iter().map(|&v| v as f32).collect())
        .collect())
}

/// Whether `got` matches the reference `want` within the stated
/// tolerance: `|got - want| <= ATOL * max(1, max|want|) + RTOL * |want|`
/// for every element, and the lengths agree.
pub fn agrees(got: &[f32], want: &[f32]) -> bool {
    let scale = want.iter().fold(1.0f64, |m, v| m.max((*v as f64).abs()));
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            let (g, w) = (*g as f64, *w as f64);
            (g - w).abs() <= ATOL * scale + RTOL * w.abs()
        })
}

/// Seeded input tensors for every `Input` node of a graph.
pub fn seeded_inputs(graph: &Graph, seed: u64) -> Vec<(String, NDArray)> {
    graph
        .nodes
        .iter()
        .filter(|n| matches!(n.op, OpType::Input))
        .map(|n| {
            let s = seed.wrapping_mul(0x100_0000_01B3) ^ n.id.0 as u64;
            (n.name.clone(), NDArray::seeded(&n.shape, s))
        })
        .collect()
}

/// Multiply-accumulates of a graph, counted from its operator shapes.
pub fn graph_macs(graph: &Graph) -> f64 {
    graph
        .nodes
        .iter()
        .map(|n| match &n.op {
            OpType::Conv2d(w) => numel(&n.shape) as f64 * (w.in_c * w.kernel * w.kernel) as f64,
            OpType::DepthwiseConv2d(w) => numel(&n.shape) as f64 * (w.kernel * w.kernel) as f64,
            OpType::Dense(w) => (w.m * w.n * w.k) as f64,
            _ => 0.0,
        })
        .sum()
}
