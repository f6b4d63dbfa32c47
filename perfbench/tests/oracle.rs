//! The reference evaluator agrees with no-fusion builds of small graphs
//! that together use every operator the `infer` and `serve` models use,
//! and it rejects a perturbed output.

use perfbench::oracle;
use tvm::BuildOptions;
use tvm_graph::{Graph, NodeId, OpType};
use tvm_runtime::GraphExecutor;
use tvm_topi::{Conv2dWorkload, DenseWorkload, DepthwiseConv2dWorkload};

fn dense(m: i64, n: i64, k: i64) -> DenseWorkload {
    DenseWorkload {
        m,
        n,
        k,
        dtype: tvm_ir::DType::float32(),
    }
}

fn unary(g: &mut Graph, op: OpType, x: NodeId, name: &str) -> NodeId {
    let shape = g.node(x).shape.clone();
    g.add(op, vec![x], shape, name)
}

/// conv (stride 2, pad) → bn → relu → max-pool (padded) → depthwise →
/// bias → residual add → global average pool → dense → softmax.
fn cnn() -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 3, 9, 9], "data");
    let c = g.conv2d(
        x,
        Conv2dWorkload {
            batch: 1,
            size: 9,
            in_c: 3,
            out_c: 4,
            kernel: 3,
            stride: 2,
            pad: 1,
        },
        "conv",
    );
    let b = g.batch_norm(c, "bn");
    let r = g.relu(b, "relu");
    let p = g.add(
        OpType::MaxPool2d {
            window: 3,
            stride: 1,
            pad: 1,
        },
        vec![r],
        vec![1, 4, 5, 5],
        "pool",
    );
    let d = g.depthwise_conv2d(
        p,
        DepthwiseConv2dWorkload {
            batch: 1,
            size: 5,
            channels: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        "dw",
    );
    let bias = g.param(&[4], "bias");
    let shape = g.node(d).shape.clone();
    let ba = g.add(OpType::BiasAdd, vec![d, bias], shape, "bias_add");
    let res = g.add_op(ba, p, "res");
    let gap = g.add(OpType::GlobalAvgPool, vec![res], vec![1, 4], "gap");
    let fc = g.dense(gap, dense(1, 6, 4), "fc");
    let sm = unary(&mut g, OpType::Softmax, fc, "softmax");
    g.outputs.push(sm);
    g
}

/// flatten → dense → tanh / sigmoid → multiply → reshape.
fn gates() -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[2, 2, 2, 2], "data");
    let f = g.add(OpType::Flatten, vec![x], vec![2, 8], "flat");
    let a = g.dense(f, dense(2, 6, 8), "a");
    let b = g.dense(f, dense(2, 6, 8), "b");
    let ta = unary(&mut g, OpType::Tanh, a, "tanh");
    let sb = unary(&mut g, OpType::Sigmoid, b, "sigmoid");
    let m = g.add(OpType::Multiply, vec![ta, sb], vec![2, 6], "mul");
    let r = g.add(OpType::Reshape, vec![m], vec![3, 4], "reshape");
    g.outputs.push(r);
    g
}

fn check(g: &Graph, target: &tvm_sim::Target, weights: u64) {
    let opts = BuildOptions {
        no_fusion: true,
        ..BuildOptions::default()
    };
    let module = tvm::build(g, target, &opts).expect("builds");
    let mut ex = GraphExecutor::from_arc_with_weights(std::sync::Arc::new(module), weights);
    let inputs = oracle::seeded_inputs(g, 7);
    for (name, x) in &inputs {
        ex.set_input(name, x.clone()).expect("binds");
    }
    ex.run().expect("runs");
    let got = ex.get_output(0).expect("output").data.clone();
    let want = oracle::evaluate(g, &inputs, weights)
        .expect("oracle")
        .remove(0);
    assert!(oracle::agrees(&got, &want), "got {got:?}\nwant {want:?}");

    // A single flipped mantissa bit is caught.
    let mut bad = got.clone();
    let i = bad.len() / 2;
    bad[i] = f32::from_bits(bad[i].to_bits() ^ 0x0040_0000);
    assert!(!oracle::agrees(&bad, &want), "a corrupted output passed");
}

#[test]
fn oracle_matches_unfused_builds_on_cpu_and_gpu() {
    for target in [tvm_sim::arm_a53(), tvm_sim::titanx()] {
        check(&cnn(), &target, 0);
        check(&gates(), &target, 0);
    }
}

#[test]
fn oracle_matches_the_serving_models_and_the_lstm() {
    let a53 = tvm_sim::arm_a53();
    for model in tvm_serve::ALL_MODELS {
        // Weight sets other than 0 are seeded the executor's way too.
        check(&model.build_graph(2), &a53, 3);
    }
    check(&tvm_models::lstm_lm(8, 2), &a53, 0);
}

#[test]
fn macs_follow_operator_shapes() {
    // conv 4x5x5 outputs x 27, depthwise 4x5x5 x 9, dense 6x4.
    assert_eq!(oracle::graph_macs(&cnn()), 2700.0 + 900.0 + 24.0);
}
