//! Host-speed reference for `infer`'s wall-clock throughput.
//!
//! On a host shared with other tenants, the speed of one core changes by
//! up to a third within seconds and drifts over minutes; the thread's CPU
//! time tracks its wall time, so this is not time spent descheduled. A
//! run of `infer` (one thread, about 40 s) averages the fast changes but
//! not the drift, so runs minutes apart disagree by more than the
//! metric's bound. The reference measures that drift: a small tree-walking
//! evaluator (boxed expression nodes, variables in a `HashMap`, loads from
//! a buffer) that slows down with the core the way `ir::interp` does. It
//! is written in this file and calls nothing in the repository, so no
//! change under test can make it faster or slower.
//!
//! The workload samples it on its own thread between timed calls and
//! scales each call's wall time by [`NOMINAL_S`] over the mean of the
//! samples on either side: the result is the time the call would take at
//! the speed where the reference takes [`NOMINAL_S`]. Only ratios between
//! runs matter; the constant keeps scaled figures near the raw ones.
//! `tune` and `serve` are not scaled: they run on every core, and a
//! reference on one thread tracked them worse than no scaling at all.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference time at nominal speed, in seconds: about the median of
/// [`sample_s`] on one core of a shared 2.1 GHz Xeon host.
pub const NOMINAL_S: f64 = 0.045;

/// Outer iterations of the reference loop nest.
const OUTER: u32 = 900;

enum Expr {
    Const(f32),
    Var(u32),
    Add(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Load(Box<Expr>),
}

fn eval(e: &Expr, env: &HashMap<u32, f32>, buf: &[f32]) -> f32 {
    match e {
        Expr::Const(c) => *c,
        Expr::Var(v) => env[v],
        Expr::Add(a, b) => eval(a, env, buf) + eval(b, env, buf),
        Expr::Mul(a, b) => eval(a, env, buf) * eval(b, env, buf),
        Expr::Load(i) => buf[eval(i, env, buf) as usize % buf.len()],
    }
}

/// `out[j][k] = (buf[16 i + j] * buf[16 i + j + k] + out[j][k]) / 2`,
/// as an expression tree.
fn body() -> Expr {
    use Expr::*;
    let index = || {
        Add(
            Box::new(Mul(Box::new(Var(0)), Box::new(Const(16.0)))),
            Box::new(Var(1)),
        )
    };
    let lhs = Load(Box::new(index()));
    let rhs = Load(Box::new(Add(Box::new(index()), Box::new(Var(2)))));
    Mul(
        Box::new(Add(
            Box::new(Mul(Box::new(lhs), Box::new(rhs))),
            Box::new(Var(3)),
        )),
        Box::new(Const(0.5)),
    )
}

/// Runs the reference once; returns its wall time in seconds.
pub fn sample_s() -> f64 {
    let start = Instant::now();
    let e = body();
    let buf: Vec<f32> = (0..4096).map(|i| (i % 7) as f32).collect();
    let mut out = vec![0.0f32; 256];
    let mut env = HashMap::new();
    for i in 0..OUTER {
        for j in 0..16u32 {
            for k in 0..16u32 {
                let o = (j * 16 + k) as usize;
                env.insert(0, i as f32);
                env.insert(1, j as f32);
                env.insert(2, k as f32);
                env.insert(3, out[o]);
                out[o] = eval(&e, &env, &buf);
            }
        }
    }
    black_box(&out);
    start.elapsed().as_secs_f64()
}

/// Scales wall times by the reference sampled between them.
pub struct Scaler {
    last_s: f64,
}

impl Scaler {
    /// Samples the reference once, before the first timed call.
    pub fn start() -> Scaler {
        Scaler { last_s: sample_s() }
    }

    /// Samples the reference after a timed call that took `wall_s` and
    /// returns that time at nominal speed, judged by the mean of the
    /// samples before and after the call.
    pub fn scale(&mut self, wall_s: f64) -> f64 {
        let before = self.last_s;
        self.last_s = sample_s();
        wall_s * NOMINAL_S / ((before + self.last_s) / 2.0)
    }
}
