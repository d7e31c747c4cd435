//! The three closed-loop, single-caller workloads, timed with tracing off.
//!
//! Every call runs under `catch_unwind`; its outputs are checked against
//! the sequential oracle, and its exact counts against the paper's
//! predictions, outside the timed region. A call that panics or fails a
//! check counts as failed and contributes no latency sample.

use crate::api::{self, Host, Predictions, SymTensor3};
use crate::host::{self, peak_rss_mb, HostInfo};
use crate::report::{Metric, Outcome};
use crate::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// One `parallel_sttsv_planned` call per fresh vector.
    Oneshot,
    /// One `parallel_shifted_hopm_planned` solve of exactly `iters`
    /// iterations per call.
    Solve { iters: usize },
    /// One `parallel_sttsv_serve` burst of `burst` requests, `cap` per
    /// batch, per call.
    Serve { burst: usize, cap: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub q: usize,
    pub n: usize,
    pub kind: Kind,
}

/// All workloads use q = 2 (P = 10 rank threads): at q = 3 the 30 rank
/// threads on a small host mostly measure the OS scheduler.
pub const WORKLOADS: [Workload; 3] = [
    // Set-up dominates: extraction and plan compilation on every call.
    Workload { name: "oneshot", q: 2, n: 240, kind: Kind::Oneshot },
    // The kernel dominates: every iteration streams all ten 1.9 MB rank
    // arenas, 19 MB in all, through the one CPU's 2 MB L2; set-up is a few
    // percent of a solve. At n = 360 (6.5 MB arenas) a solve took ~1.8 s on one CPU,
    // too few calls for a tail, and its medians drifted by a third between
    // sets of runs as the host's memory bandwidth varied.
    // The tensor carries a planted dominant eigenpair (see `Inputs::new`).
    Workload { name: "solve", q: 2, n: 240, kind: Kind::Solve { iters: 100 } },
    // Batched: 8 vectors per tensor pass, one spawn/extract/compile per
    // burst, messages per vector cut 8-fold. Not timed in BENCHMARK.json:
    // its wall time doubles when the shared host slows by half (see README).
    Workload { name: "serve", q: 2, n: 240, kind: Kind::Serve { burst: 64, cap: 8 } },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Vectors one call applies the tensor to.
    pub fn vectors_per_call(&self) -> usize {
        match self.kind {
            Kind::Oneshot => 1,
            Kind::Solve { iters } => iters,
            Kind::Serve { burst, .. } => burst,
        }
    }

    /// Input vectors one call takes: a solve takes only its start vector.
    pub fn inputs_per_call(&self) -> usize {
        match self.kind {
            Kind::Solve { .. } => 1,
            _ => self.vectors_per_call(),
        }
    }

    /// Vectors per tensor pass (one exchange-phase pair).
    pub fn batch(&self) -> usize {
        match self.kind {
            Kind::Serve { cap, .. } => cap,
            _ => 1,
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Untimed calls before the timed loop, until this much time has passed:
/// page faults, allocator growth and clock ramp-up happen here.
const WARMUP: Duration = Duration::from_secs(3);
/// Calls a run makes at least, so the tail has ten samples beyond it.
const MIN_CALLS: usize = stats::TAIL_BEYOND + 1;

/// Strength of the planted eigenpair of the `solve` tensor, per unit of
/// `n`: far above the random part's largest eigenvalues (about `2√n`), so
/// S-HOPM converges within a few iterations from any start.
const PLANTED_PER_N: f64 = 10.0;

/// A workload's inputs, all drawn from one seeded stream: the tensor
/// first, then the vectors of each call in order.
pub struct Inputs {
    pub tensor: SymTensor3,
    rng: StdRng,
    n: usize,
}

impl Inputs {
    /// For `solve`, the random tensor gets a planted eigenpair `(10n, v)`:
    /// a solve that has converged returns `λ` and a residual that one
    /// oracle call on the returned `x` can check. The kernel does the same
    /// work whatever the entries are.
    pub fn new(w: &Workload, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tensor = api::random_tensor(w.n, &mut rng);
        if let Kind::Solve { .. } = w.kind {
            let v = api::random_vector(w.n, &mut rng);
            let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            let v: Vec<f64> = v.iter().map(|a| a / norm).collect();
            api::plant(&mut tensor, PLANTED_PER_N * w.n as f64, &v);
        }
        Inputs { tensor, rng, n: w.n }
    }

    /// The vectors of the next call.
    pub fn next_call(&mut self, count: usize) -> Vec<Vec<f64>> {
        (0..count).map(|_| api::random_vector(self.n, &mut self.rng)).collect()
    }
}

/// The exact counts of one call, per vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exact {
    pub words_per_vec: f64,
    pub msgs_per_vec: f64,
    pub rounds_per_pass: u64,
    /// The busiest rank's ternary products per vector; a solve's driver
    /// reports only the total, so the traced run measures it there.
    pub ternary_max_per_vec: Option<u64>,
    pub iters: u64,
}

impl Exact {
    /// Mismatches against the paper's predictions.
    pub fn check(&self, w: &Workload, pred: &Predictions) -> Vec<String> {
        let mut bad = Vec::new();
        let rounds = 2 * pred.steps;
        if self.words_per_vec != pred.words_per_vec as f64 {
            bad.push(format!("words/vec {} != {}", self.words_per_vec, pred.words_per_vec));
        }
        if self.msgs_per_vec != rounds as f64 / w.batch() as f64 {
            bad.push(format!("msgs/vec {} != {rounds}/{}", self.msgs_per_vec, w.batch()));
        }
        if self.rounds_per_pass != rounds {
            bad.push(format!("rounds/pass {} != {rounds}", self.rounds_per_pass));
        }
        if let Some(t) = self.ternary_max_per_vec.filter(|&t| t != pred.ternary_max) {
            bad.push(format!("ternary max {t} != {}", pred.ternary_max));
        }
        if let Kind::Solve { iters } = w.kind {
            if self.iters != iters as u64 {
                bad.push(format!("iters {} != {iters}", self.iters));
            }
        }
        bad
    }
}

/// Exact counts of a run of `vectors` vectors in `passes` tensor passes.
fn exact_counts(
    report: &api::CostReport,
    ternary_per_rank: &[u64],
    vectors: usize,
    passes: usize,
    iters: u64,
) -> Exact {
    Exact {
        words_per_vec: report.bandwidth_cost() as f64 / vectors as f64,
        msgs_per_vec: report.max_msgs_sent() as f64 / vectors as f64,
        rounds_per_pass: report.max_rounds() / passes as u64,
        ternary_max_per_vec: ternary_per_rank.iter().max().map(|t| t / vectors as u64),
        iters,
    }
}

/// `‖a − b‖∞ ≤ 1e-9 · max(1, ‖b‖∞)`.
pub fn close(a: &[f64], b: &[f64]) -> bool {
    let scale = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-9 * scale)
}

/// One call's checked result.
struct Checked {
    exact: Exact,
    /// Problems found; empty when the call is correct.
    errors: Vec<String>,
    /// Scalar all-reduce words and messages of a solve, reported apart.
    allreduce: Option<(u64, u64)>,
}

/// Runs one call of `w` on `xs`, returning its wall time and checked result.
fn call(
    w: &Workload,
    pred: &Predictions,
    t: &SymTensor3,
    host: &Host,
    xs: &[Vec<f64>],
) -> (Duration, Result<Checked, String>) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| match w.kind {
        Kind::Oneshot => Ok(Out::Run(api::oneshot(t, host, &xs[0]))),
        Kind::Solve { iters } => Ok(Out::Solve(api::solve(t, host, &xs[0], iters))),
        Kind::Serve { cap, .. } => api::serve(t, host, xs, cap).map(|s| Out::Run(s.run)),
    }));
    let elapsed = t0.elapsed();
    let checked = match out {
        Err(_) => Err("call panicked".to_string()),
        Ok(Err(e)) => Err(e),
        Ok(Ok(out)) => Ok(check(w, pred, t, host, xs, &out)),
    };
    (elapsed, checked)
}

enum Out {
    Run(api::Run),
    Solve(api::Solve),
}

fn check(
    w: &Workload,
    pred: &Predictions,
    t: &SymTensor3,
    host: &Host,
    xs: &[Vec<f64>],
    out: &Out,
) -> Checked {
    let mut errors = Vec::new();
    let (exact, allreduce) = match out {
        Out::Run(run) => {
            if run.ys.len() != xs.len() {
                errors.push(format!("{} outputs for {} inputs", run.ys.len(), xs.len()));
            }
            for (i, (y, x)) in run.ys.iter().zip(xs).enumerate() {
                if !close(y, &api::oracle(t, x)) {
                    errors.push(format!("output {i} differs from the oracle"));
                }
            }
            let passes = xs.len().div_ceil(w.batch());
            (exact_counts(&run.report, &run.ternary_per_rank, xs.len(), passes, 0), None)
        }
        Out::Solve(s) => {
            let y = api::oracle(t, &s.x);
            let lambda: f64 = s.x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let residual =
                y.iter().zip(&s.x).map(|(a, b)| (a - lambda * b).powi(2)).sum::<f64>().sqrt();
            // After convergence the returned x is the last iterate's input
            // to rounding, so both agree with the oracle to a small
            // multiple of λ·1e-6 (the driver's residual carries the
            // cancellation error of √(‖y‖² − λ²)).
            let scale = lambda.abs().max(1.0);
            if (s.lambda - lambda).abs() > 1e-6 * scale {
                errors.push(format!("lambda {} but x^T A x x = {lambda}", s.lambda));
            }
            if (s.residual - residual).abs() > 1e-6 * scale {
                errors.push(format!("residual {} but oracle gives {residual}", s.residual));
            }
            // The solve's report holds its STTSVs plus the scalar
            // all-reduces; subtract the latter rank by rank.
            let ar = api::allreduce_report(host.procs(), s.iters);
            let mut sttsv = s.report.clone();
            for (r, a) in sttsv.per_rank.iter_mut().zip(&ar.per_rank) {
                *r = r.delta_since(a);
            }
            let passes = s.iters.max(1);
            let e = exact_counts(&sttsv, &[], passes, passes, s.iters as u64);
            (e, Some((ar.bandwidth_cost(), ar.max_msgs_sent())))
        }
    };
    errors.extend(exact.check(w, pred));
    Checked { exact, errors, allreduce }
}

/// Times set-up, then calls `w` in a closed loop for `seconds` (and at
/// least [`MIN_CALLS`] times).
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut inputs = Inputs::new(w, seed);
    let pred = api::predictions(w.q, w.n);

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_probe = Vec::with_capacity(SETUP_REPS);
    let mut host = None;
    let mut arena_max = 0;
    for _ in 0..SETUP_REPS {
        setup_probe.push(host::speed_probe_ms());
        let t0 = Instant::now();
        let (h, _) = Host::build(w.q, w.n);
        let arena = api::rank_setup(&inputs.tensor, &h);
        setup.push(t0.elapsed().as_secs_f64());
        arena_max = arena.into_iter().max().unwrap_or(0);
        host = Some(h);
    }
    let host = host.expect("at least one set-up");

    let mut out = Outcome::default();
    out.notes.push(HostInfo::probe().describe(host.procs(), arena_max));
    let mut call_ms = Vec::new();
    let mut call_probe = Vec::new();
    let mut busy = Duration::ZERO;
    let mut vectors = 0usize;
    let mut exact: Option<Exact> = None;
    let mut allreduce = None;
    let warm_until = Instant::now() + WARMUP;
    while Instant::now() < warm_until {
        let xs = inputs.next_call(w.inputs_per_call());
        match call(w, &pred, &inputs.tensor, &host, &xs).1 {
            Ok(c) if c.errors.is_empty() => {}
            Ok(c) => out.error(format!("warm-up call: {}", c.errors.join("; "))),
            Err(e) => out.error(format!("warm-up call: {e}")),
        }
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || call_ms.len() < MIN_CALLS {
        let xs = inputs.next_call(w.inputs_per_call());
        let probe = host::speed_probe_ms();
        out.attempted += 1;
        let (elapsed, checked) = call(w, &pred, &inputs.tensor, &host, &xs);
        match checked {
            Ok(c) if c.errors.is_empty() => {
                call_ms.push(api::ms(elapsed));
                call_probe.push(probe);
                busy += elapsed;
                vectors += w.vectors_per_call();
                if exact.is_some_and(|e| e != c.exact) {
                    out.fail(format!(
                        "exact counts changed between calls: {exact:?} vs {:?}",
                        c.exact
                    ));
                }
                exact = Some(c.exact);
                allreduce = c.allreduce.or(allreduce);
            }
            Ok(c) => out.fail(format!("call {}: {}", out.attempted, c.errors.join("; "))),
            Err(e) => out.fail(format!("call {}: {e}", out.attempted)),
        }
        if out.failed > out.attempted / 2 && out.attempted >= MIN_CALLS as u64 {
            break;
        }
    }

    let exact = exact.unwrap_or(Exact {
        words_per_vec: f64::NAN,
        msgs_per_vec: f64::NAN,
        rounds_per_pass: 0,
        ternary_max_per_vec: None,
        iters: 0,
    });
    let ok = out.attempted - out.failed;
    // Timed metrics are scaled to the reference host speed, each sample
    // by the probes taken around it.
    out.notes.push(format!(
        "speed probe: median {:.4} ms over set-up, {:.4} ms over calls; times below are \
         wall times x {} ms / probe time around each sample",
        stats::median(&setup_probe),
        stats::median(&call_probe),
        host::PROBE_REF_MS
    ));
    let setup_s = stats::median(&setup);
    let scaled_setup = host::scale_to_reference(&setup, &setup_probe);
    out.metric(Metric::new("setup_s", stats::median(&scaled_setup), "s").detail(format!(
        "median of {SETUP_REPS}, wall {setup_s:.6} s: spherical + partition + schedule \
         + one universe of extract + compile"
    )));
    let scaled_ms = host::scale_to_reference(&call_ms, &call_probe);
    let p50 = stats::median(&call_ms);
    out.metric(
        Metric::new("call_ms_p50", stats::median(&scaled_ms), "ms")
            .detail(format!("median of {} calls, wall {p50:.4} ms", call_ms.len())),
    );
    match (stats::tail(&scaled_ms), stats::tail(&call_ms)) {
        (Some((pct, v)), Some((_, wall))) => {
            out.metric(Metric::new("call_ms_tail", v, "ms").detail(format!(
                "p{pct:.2} of {} calls, {} beyond it, wall {wall:.4} ms",
                call_ms.len(),
                stats::TAIL_BEYOND
            )))
        }
        _ => {
            out.fail(format!("only {} successful calls: no tail", call_ms.len()));
            out.metric(Metric::new("call_ms_tail", f64::NAN, "ms"));
        }
    }
    let rate = vectors as f64 / busy.as_secs_f64();
    let scaled_busy_s = scaled_ms.iter().sum::<f64>() / 1e3;
    out.metric(Metric::new("vec_per_s", vectors as f64 / scaled_busy_s, "1/s").detail(format!(
        "{vectors} vectors at n={} over {:.3} s of calls, wall {rate:.3}/s",
        w.n,
        busy.as_secs_f64()
    )));
    out.metric(
        Metric::new("words_per_vec", exact.words_per_vec, "words")
            .detail(format!("predicted {} = 2(n(q+1)/(q^2+1) - n/P)", pred.words_per_vec)),
    );
    out.metric(Metric::new("msgs_per_vec", exact.msgs_per_vec, "msgs").detail(format!(
        "predicted 2(q^3/2+3q^2/2-1)/batch = {}/{}; rounds per pass {}",
        2 * pred.steps,
        w.batch(),
        exact.rounds_per_pass
    )));
    if let Some((words, msgs)) = allreduce {
        out.notes.push(format!(
            "solve scalar all-reduces (not in words/msgs_per_vec): {words} words, {msgs} msgs per solve on the busiest rank"
        ));
    }
    out.metric(Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"));
    out.metric(
        Metric::new("ok_frac", ok as f64 / out.attempted as f64, "ratio")
            .detail(format!("{ok} of {} calls passed every check", out.attempted)),
    );
    out
}
