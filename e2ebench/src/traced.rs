//! The traced run: per-layer metrics.
//!
//! Every run probes the host set-up, `mpsim` and the sequential kernel at
//! the workload's `n`, then composes each of the three call shapes from
//! the public pieces (`api::compose`) with spans around every layer. The
//! workload's own shape runs for the whole `--seconds`; the other two run
//! once, so every layer is measured on every workload. Each composed call
//! is paired with the untraced driver on the same inputs; their outputs
//! and `CostReport`s must be bit-identical, and the driver's outputs must
//! match the oracle.

use crate::api::{self, Composed, Host, Predictions, Shape, SymTensor3};
use crate::host::{self, HostInfo};
use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile, slope};
use crate::trace::Trace;
use crate::workloads::{close, Inputs, Kind, Workload, WORKLOADS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

const HOST_REPS: usize = 7;
const SPAWN_REPS: usize = 30;
const PINGPONG_REPS: usize = 200;
const SWEEP_WORDS: [usize; 4] = [1, 4096, 32768, 131072];
const SEQ_REPS: usize = 5;
const SPEED_PROBES: usize = 9;
/// Pairs of the workload's own shape a run makes at least.
const MIN_PAIRS: usize = 3;

/// Per-layer samples gathered from the composed calls.
#[derive(Default)]
struct Layers {
    extract_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    kernel_b1_ms: Vec<f64>,
    kernel_batch_ms: Vec<f64>,
    wait_max_ms: Vec<f64>,
    wait_mean_ms: Vec<f64>,
    straggler: Vec<f64>,
    iter_ms: Vec<f64>,
    copied_mb: f64,
    arena_bytes: usize,
    /// The busiest rank's probe ternary count, per composed call.
    ternary_max: Vec<u64>,
}

/// What a shape's driver returns, for the bit-identity check.
enum Driver {
    Run(api::Run, Vec<api::RequestRecord>),
    Solve(api::Solve),
}

struct Pair {
    driver_ms: f64,
    composed_ms: f64,
    driver: Driver,
    composed: Composed,
}

fn bits(v: &[Vec<f64>]) -> Vec<Vec<u64>> {
    v.iter().map(|y| y.iter().map(|x| x.to_bits()).collect()).collect()
}

/// The shape `w` calls, at dimension `n` of the traced workload.
fn shape_of<'x>(w: &Workload, xs: &'x [Vec<f64>]) -> Shape<'x> {
    match w.kind {
        Kind::Oneshot => Shape::Oneshot(&xs[0]),
        Kind::Solve { iters } => Shape::Solve { x0: &xs[0], iters },
        Kind::Serve { cap, .. } => Shape::Serve { xs, cap },
    }
}

/// One driver call and one composed call on the same inputs, in the given
/// order, with the composed call's spans adopted into `trace`.
fn pair(
    t: &SymTensor3,
    host: &Host,
    shape: Shape<'_>,
    call: u32,
    driver_first: bool,
    trace: &mut Trace,
) -> Result<Pair, String> {
    let run_driver = || {
        let t0 = Instant::now();
        let d = match shape {
            Shape::Oneshot(x) => Driver::Run(api::oneshot(t, host, x), Vec::new()),
            Shape::Solve { x0, iters } => Driver::Solve(api::solve(t, host, x0, iters)),
            Shape::Serve { xs, cap } => {
                let s = api::serve(t, host, xs, cap).expect("batch cap is positive");
                Driver::Run(s.run, s.records)
            }
        };
        (api::ms(t0.elapsed()), d)
    };
    let run_composed = |trace: &mut Trace| {
        let span = trace.begin_host("compose.call", call);
        let t0 = Instant::now();
        let c = api::compose(t, host, shape, call);
        let returned = Instant::now();
        trace.end_host(span);
        // The call's wall time without the kernel probe: up to the last
        // rank's end of call, then from the last probe's end to return
        // (teardown, join and assembly, as in the driver).
        let ready = c.ranks.iter().map(|r| r.ready).max().expect("at least one rank");
        let probed = c.ranks.iter().map(|r| r.probed).max().expect("at least one rank");
        for r in &c.ranks {
            trace.adopt(&r.trace, span);
        }
        (
            api::ms(
                ready.saturating_duration_since(t0) + returned.saturating_duration_since(probed),
            ),
            c,
        )
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        if driver_first {
            let d = run_driver();
            (d, run_composed(trace))
        } else {
            let c = run_composed(trace);
            (run_driver(), c)
        }
    }));
    let ((driver_ms, driver), (composed_ms, composed)) =
        result.map_err(|_| format!("call {call} panicked"))?;
    Ok(Pair { driver_ms, composed_ms, driver, composed })
}

/// Checks a pair: bit-identity between driver and composition, the
/// driver's outputs against the oracle, and the exact counts.
fn check_pair(t: &SymTensor3, shape: Shape<'_>, p: &Pair, pred: &Predictions) -> Vec<String> {
    let mut bad = Vec::new();
    let c = &p.composed;
    match (&p.driver, shape) {
        (Driver::Run(run, _), Shape::Oneshot(x)) => {
            check_run(run, c, std::slice::from_ref(&x.to_vec()), t, &mut bad)
        }
        (Driver::Run(run, _), Shape::Serve { xs, .. }) => check_run(run, c, xs, t, &mut bad),
        (Driver::Solve(s), Shape::Solve { iters, .. }) => {
            if bits(std::slice::from_ref(&s.x)) != bits(&c.ys)
                || s.lambda.to_bits() != c.lambda.to_bits()
                || s.residual.to_bits() != c.residual.to_bits()
            {
                bad.push("composed solve is not bit-identical to the driver".into());
            }
            if s.report != c.report {
                bad.push("composed solve CostReport differs from the driver's".into());
            }
            if s.ternary != c.ternary_per_rank.iter().sum::<u64>() {
                bad.push("composed solve ternary count differs from the driver's".into());
            }
            if s.iters != iters {
                bad.push(format!("solve ran {} iterations, not {iters}", s.iters));
            }
        }
        _ => unreachable!("driver and shape come from the same match"),
    }
    for r in &c.ranks {
        if r.probe_ternary_per_vec > pred.ternary_max {
            bad.push(format!("rank probe ternary {} above the bound", r.probe_ternary_per_vec));
        }
    }
    bad
}

fn check_run(run: &api::Run, c: &Composed, xs: &[Vec<f64>], t: &SymTensor3, bad: &mut Vec<String>) {
    if bits(&run.ys) != bits(&c.ys) {
        bad.push("composed outputs are not bit-identical to the driver's".into());
    }
    if run.report != c.report {
        bad.push("composed CostReport differs from the driver's".into());
    }
    if run.ternary_per_rank != c.ternary_per_rank {
        bad.push("composed ternary counts differ from the driver's".into());
    }
    for (i, (y, x)) in run.ys.iter().zip(xs).enumerate() {
        if !close(y, &api::oracle(t, x)) {
            bad.push(format!("driver output {i} differs from the oracle"));
        }
    }
}

/// Folds a composed call's spans into per-layer samples; the exchange
/// samples come from the workload's own shape only.
fn collect(c: &Composed, layers: &mut Layers, own: bool) {
    let max = |f: &dyn Fn(&api::RankOut) -> f64| c.ranks.iter().map(f).fold(f64::MIN, f64::max);
    layers.extract_ms.push(max(&|r| r.trace.total_ms("blocks.extract")));
    layers.compile_ms.push(max(&|r| r.trace.total_ms("plan.compile")));
    let batch = c.ranks[0].probe_batch;
    let kernel = max(&|r| r.trace.total_ms("kernel.compute"));
    if batch == 1 {
        layers.kernel_b1_ms.push(kernel);
    } else {
        layers.kernel_batch_ms.push(kernel / batch as f64);
    }
    layers.copied_mb = c.ranks.iter().map(|r| r.owned_words * 8).sum::<usize>() as f64 / 1e6;
    layers.arena_bytes = c.ranks.iter().map(|r| r.arena_bytes).max().unwrap_or(0);
    layers.ternary_max.extend(c.ranks.iter().map(|r| r.probe_ternary_per_vec).max());

    // Exchange: each rank's STTSV call minus its kernel time.
    if own {
        exchange(c, layers);
    }

    // HOPM: each iteration as slow as its slowest rank.
    let per_rank: Vec<Vec<f64>> = c.ranks.iter().map(|r| r.trace.ms_of("hopm.iter")).collect();
    for k in 0..per_rank[0].len() {
        layers.iter_ms.push(per_rank.iter().map(|v| v[k]).fold(f64::MIN, f64::max));
    }
}

fn exchange(c: &Composed, layers: &mut Layers) {
    let calls: Vec<f64> = c.ranks.iter().map(|r| median(&r.trace.ms_of("exchange.call"))).collect();
    let waits: Vec<f64> = c
        .ranks
        .iter()
        .zip(&calls)
        .map(|(r, call)| call - r.trace.total_ms("kernel.compute"))
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    layers.wait_max_ms.push(waits.iter().copied().fold(f64::MIN, f64::max));
    layers.wait_mean_ms.push(mean(&waits));
    layers.straggler.push(calls.iter().copied().fold(f64::MIN, f64::max) / mean(&calls));
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut inputs = Inputs::new(w, seed);
    let pred = api::predictions(w.q, w.n);
    let mut out = Outcome::default();
    let mut trace = Trace::default();

    // Host set-up layers.
    let mut host_times = Vec::with_capacity(HOST_REPS);
    let mut host = None;
    for _ in 0..HOST_REPS {
        let (h, times) = Host::build(w.q, w.n);
        host_times.push(times);
        host = Some(h);
    }
    let host = host.expect("at least one build");
    let med = |f: fn(&api::HostTimes) -> f64| median(&host_times.iter().map(f).collect::<Vec<_>>());
    if host.schedule_rounds() as u64 != pred.steps {
        out.error(format!(
            "schedule has {} rounds, predicted {}",
            host.schedule_rounds(),
            pred.steps
        ));
    }

    // mpsim: spawn, ping-pong, and per-word cost.
    let spawn: Vec<f64> =
        (0..SPAWN_REPS).map(|_| api::ms(api::spawn_empty(host.procs()))).collect();
    let pingpong_us = median(&api::pingpong(1, PINGPONG_REPS)) / 1e3;
    let one_way: Vec<f64> = SWEEP_WORDS
        .iter()
        .map(|&words| median(&api::pingpong(words, PINGPONG_REPS / 4)) / 2.0)
        .collect();
    let words: Vec<f64> = SWEEP_WORDS.iter().map(|&w| w as f64).collect();
    let ns_per_word = slope(&words, &one_way);

    // The sequential kernel at the same n.
    let seq_ms: Vec<f64> = (0..SEQ_REPS)
        .map(|_| {
            let x = inputs.next_call(1).pop().expect("one vector");
            let t0 = Instant::now();
            std::hint::black_box(api::oracle(&inputs.tensor, &x));
            api::ms(t0.elapsed())
        })
        .collect();

    // The three shapes: the workload's own for `seconds`, the others once.
    let mut layers = Layers::default();
    let mut own_driver_ms = Vec::new();
    let mut own_composed_ms = Vec::new();
    let mut exact_rounds: Option<f64> = None;
    let mut exact_words: Option<f64> = None;
    let mut records = Vec::new();
    let mut serve_msgs_per_batch = f64::NAN;
    let mut hopm_iters = f64::NAN;
    let mut call = 0u32;
    let others = WORKLOADS.iter().filter(|o| o.kind != w.kind);
    let own = std::iter::repeat(w);
    let mut deadline = None;
    for (i, sw) in others.chain(own).enumerate() {
        let is_own = sw.kind == w.kind;
        if is_own && deadline.is_none() {
            deadline = Some(Instant::now() + Duration::from_secs_f64(seconds));
        }
        if is_own
            && own_driver_ms.len() >= MIN_PAIRS
            && deadline.is_some_and(|d| Instant::now() >= d)
        {
            break;
        }
        let xs = inputs.next_call(sw.inputs_per_call());
        let shape = shape_of(sw, &xs);
        out.attempted += 1;
        call += 1;
        let p = match pair(&inputs.tensor, &host, shape, call, i % 2 == 0, &mut trace) {
            Ok(p) => p,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let bad = check_pair(&inputs.tensor, shape, &p, &pred);
        if !bad.is_empty() {
            out.fail(format!("{} call {call}: {}", sw.name, bad.join("; ")));
            continue;
        }
        collect(&p.composed, &mut layers, is_own);

        // Exact counts of the composed call, per vector and per pass.
        let mut report = p.composed.report.clone();
        if let Kind::Solve { iters } = sw.kind {
            let ar = api::allreduce_report(host.procs(), iters);
            for (r, a) in report.per_rank.iter_mut().zip(&ar.per_rank) {
                *r = r.delta_since(a);
            }
        }
        let vectors = sw.vectors_per_call() as f64;
        let rounds = report.max_rounds() as f64 / vectors;
        if rounds != (2 * pred.steps) as f64 / sw.batch() as f64 {
            out.error(format!(
                "{}: {rounds} rounds per vector, predicted 2*{}/{}",
                sw.name,
                pred.steps,
                sw.batch()
            ));
        }
        let words = report.bandwidth_cost() as f64 / vectors;
        if words != pred.words_per_vec as f64 {
            out.error(format!(
                "{}: {words} words per vector, predicted {}",
                sw.name, pred.words_per_vec
            ));
        }
        match &p.driver {
            Driver::Run(run, recs) if !recs.is_empty() => {
                let batches = recs.iter().map(|r| r.batch).max().map_or(0, |b| b + 1);
                serve_msgs_per_batch = run.report.max_msgs_sent() as f64 / batches as f64;
                records.extend_from_slice(recs);
            }
            Driver::Solve(s) => hopm_iters = s.iters as f64,
            Driver::Run(..) => {}
        }
        if is_own {
            own_driver_ms.push(p.driver_ms);
            own_composed_ms.push(p.composed_ms);
            exact_rounds = Some(rounds);
            exact_words = Some(words);
        }
    }

    let ternary_max = if !layers.ternary_max.is_empty()
        && layers.ternary_max.iter().all(|&t| t == pred.ternary_max)
    {
        pred.ternary_max as f64
    } else {
        out.error(format!(
            "kernel ternary max {:?}, predicted {}",
            layers.ternary_max, pred.ternary_max
        ));
        f64::NAN
    };
    let kernel_ms = median(&layers.kernel_b1_ms);
    let ms_of = |ns: &dyn Fn(&api::RequestRecord) -> u64| -> Vec<f64> {
        records.iter().map(|r| ns(r) as f64 / 1e6).collect()
    };
    let e2e = ms_of(&|r| r.e2e_ns);

    out.notes.push(HostInfo::probe().describe(host.procs(), layers.arena_bytes));
    let probes: Vec<f64> = (0..SPEED_PROBES).map(|_| host::speed_probe_ms()).collect();
    out.notes.push(format!(
        "speed probe: median {:.4} ms of {SPEED_PROBES} (reference {} ms); the per-layer \
         times are wall times",
        median(&probes),
        host::PROBE_REF_MS
    ));
    out.notes.push(format!(
        "traced {}: q={} n={} P={}; {} composed calls, {} spans written",
        w.name,
        w.q,
        w.n,
        host.procs(),
        call,
        trace.len()
    ));
    let m = |name, value, unit| Metric::new(name, value, unit);
    out.metric(m("steiner.build_ms", med(|t| t.steiner_ms), "ms"));
    out.metric(m("partition.build_ms", med(|t| t.partition_ms), "ms"));
    out.metric(m("schedule.build_ms", med(|t| t.schedule_ms), "ms"));
    out.metric(
        m("mpsim.spawn_ms", median(&spawn), "ms")
            .detail(format!("empty Universe::run over {} ranks", host.procs())),
    );
    out.metric(m("mpsim.pingpong_us", pingpong_us, "us").detail("1-word round trip".into()));
    out.metric(
        m("mpsim.ns_per_word", ns_per_word, "ns/word")
            .detail(format!("one-way slope over {SWEEP_WORDS:?} words")),
    );
    out.metric(
        m("blocks.extract_ms", median(&layers.extract_ms), "ms")
            .detail("busiest rank, RankContext::new".into()),
    );
    out.metric(
        m("blocks.copied_mb", layers.copied_mb, "MB")
            .detail("owned blocks copied, all ranks".into()),
    );
    out.metric(
        m("plan.compile_ms", median(&layers.compile_ms), "ms").detail("busiest rank".into()),
    );
    out.metric(
        m("plan.arena_mb", layers.arena_bytes as f64 / 1e6, "MB")
            .detail("largest rank arena".into()),
    );
    out.metric(
        m("kernel.ms_per_vec", kernel_ms, "ms")
            .detail("busiest rank, in-universe RankPlan::compute, batch 1".into()),
    );
    out.metric(
        m("kernel.ms_per_vec_b8", median(&layers.kernel_batch_ms), "ms")
            .detail("busiest rank, batch 8, per vector".into()),
    );
    out.metric(
        m("kernel.ternary_max", ternary_max, "count")
            .detail(format!("predicted {}", pred.ternary_max)),
    );
    out.metric(
        m("kernel.gb_per_s_computed", layers.arena_bytes as f64 / (kernel_ms * 1e-3) / 1e9, "GB/s")
            .detail("largest arena streamed once per vector".into()),
    );
    out.metric(
        m("kernel.seq_ms", median(&seq_ms), "ms")
            .detail(format!("sttsv_sym at n={}, one thread", w.n)),
    );
    out.metric(
        m("exchange.wait_ms_max", median(&layers.wait_max_ms), "ms")
            .detail("rank STTSV call span minus its kernel span".into()),
    );
    out.metric(m("exchange.wait_ms_mean", median(&layers.wait_mean_ms), "ms"));
    out.metric(
        m("exchange.straggler_lambda", median(&layers.straggler), "ratio")
            .detail("max/mean rank STTSV call span".into()),
    );
    out.metric(
        m("exchange.rounds_per_vec", exact_rounds.unwrap_or(f64::NAN), "count").detail(format!(
            "predicted 2*{}/{}",
            pred.steps,
            w.batch()
        )),
    );
    out.metric(
        m(
            "exchange.words_over_bound",
            exact_words.unwrap_or(f64::NAN) / pred.lower_bound_words,
            "ratio",
        )
        .detail(format!("words per vector over Theorem 5.2's {:.3}", pred.lower_bound_words)),
    );
    out.metric(
        m("serve.batch_form_ms", median(&ms_of(&|r| r.batch_form_ns)), "ms")
            .detail(format!("median of {} requests", records.len())),
    );
    out.metric(m("serve.queue_wait_ms_p50", median(&ms_of(&|r| r.queue_wait_ns)), "ms"));
    out.metric(m("serve.req_e2e_ms_p50", median(&e2e), "ms"));
    out.metric(
        m("serve.req_e2e_ms_p99", percentile(&e2e, 99.0), "ms")
            .detail(format!("nearest rank of {} requests", e2e.len())),
    );
    out.metric(m("serve.msgs_per_batch", serve_msgs_per_batch, "msgs"));
    out.metric(
        m("hopm.ms_per_iter", median(&layers.iter_ms), "ms")
            .detail("slowest rank per iteration".into()),
    );
    out.metric(m("hopm.iters", hopm_iters, "count"));
    let driver = median(&own_driver_ms);
    let composed = median(&own_composed_ms);
    out.metric(m("trace.overhead_pct", (composed / driver - 1.0) * 100.0, "%").detail(format!(
        "composed traced call p50 {composed:.3} ms vs driver p50 {driver:.3} ms over {} pairs; \
         the composed time leaves out the probe and any teardown it overlaps",
        own_driver_ms.len()
    )));

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", w.name));
    match trace.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!("spans: {}", path.display())),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
    out
}
