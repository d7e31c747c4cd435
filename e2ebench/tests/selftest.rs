//! Self-tests of the benchmark: seeded inputs, repeatable exact counts, and
//! metric names that match `BENCHMARK.json`. They run the real workloads
//! and the traced run at a small `n` (q = 2, n = 30).

use std::collections::BTreeSet;
use symtensor_e2ebench::api;
use symtensor_e2ebench::report::Outcome;
use symtensor_e2ebench::workloads::{Inputs, Kind, Workload, WORKLOADS};
use symtensor_e2ebench::{traced, workloads};
use symtensor_obs::json::{self, Value};

/// `w` shrunk to n = 30, the smallest q = 2 size with q(q+1) | b.
fn small(w: &Workload) -> Workload {
    Workload { n: 30, ..*w }
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in WORKLOADS.iter().map(small) {
        let mut a = Inputs::new(&w, 7);
        let mut b = Inputs::new(&w, 7);
        let mut c = Inputs::new(&w, 8);
        assert_eq!(api::tensor_entries(&a.tensor), api::tensor_entries(&b.tensor), "{}", w.name);
        assert_ne!(api::tensor_entries(&a.tensor), api::tensor_entries(&c.tensor), "{}", w.name);
        for _ in 0..3 {
            let (xa, xb, xc) = (a.next_call(2), b.next_call(2), c.next_call(2));
            assert_eq!(xa, xb, "{}", w.name);
            assert_ne!(xa, xc, "{}", w.name);
        }
    }
}

#[test]
fn exact_counts_repeat_and_match_the_paper() {
    for w in WORKLOADS.iter().map(small) {
        let pred = api::predictions(w.q, w.n);
        let runs: Vec<Outcome> = (0..2).map(|_| workloads::run(&w, 3, 0.01)).collect();
        for o in &runs {
            assert!(o.correct(), "{}: {:?}", w.name, o.errors);
            assert_eq!(value(o, "words_per_vec"), pred.words_per_vec as f64, "{}", w.name);
            let msgs = (2 * pred.steps) as f64 / w.batch() as f64;
            assert_eq!(value(o, "msgs_per_vec"), msgs, "{}", w.name);
        }
        let other = workloads::run(&w, 4, 0.01);
        for name in ["words_per_vec", "msgs_per_vec"] {
            assert_eq!(value(&runs[0], name), value(&runs[1], name), "{}: {name}", w.name);
            assert_eq!(value(&runs[0], name), value(&other, name), "{}: {name}", w.name);
        }
    }
}

#[test]
fn traced_run_is_bit_identical_and_its_counts_repeat() {
    let w = small(&WORKLOADS[0]);
    let pred = api::predictions(w.q, w.n);
    let runs: Vec<Outcome> = [5, 5, 6].iter().map(|&s| traced::run(&w, s, 0.01)).collect();
    for o in &runs {
        assert!(o.correct(), "{:?}", o.errors);
        assert_eq!(value(o, "kernel.ternary_max"), pred.ternary_max as f64);
        assert_eq!(value(o, "exchange.rounds_per_vec"), (2 * pred.steps) as f64);
        let Kind::Solve { iters } = WORKLOADS[1].kind else { unreachable!() };
        assert_eq!(value(o, "hopm.iters"), iters as f64);
    }
    for name in
        ["kernel.ternary_max", "exchange.rounds_per_vec", "hopm.iters", "serve.msgs_per_batch"]
    {
        assert_eq!(value(&runs[0], name), value(&runs[1], name), "{name}");
        assert_eq!(value(&runs[0], name), value(&runs[2], name), "{name}");
    }
}

/// The `"name"` values of one list in `BENCHMARK.json`.
fn declared(bench: &Value, list: &str) -> BTreeSet<String> {
    let items = bench.get(list).and_then(Value::as_array).unwrap_or_else(|| panic!("no {list}"));
    items
        .iter()
        .map(|item| item.get("name").and_then(Value::as_str).expect("a name").to_string())
        .collect()
}

#[test]
fn every_metric_name_is_well_formed_and_declared() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = json::parse(&text).expect("BENCHMARK.json parses");
    let well_formed = |n: &str| {
        !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let names = |o: &Outcome| -> BTreeSet<String> {
        o.metrics.iter().map(|m| m.name.to_string()).collect()
    };

    let w = small(&WORKLOADS[2]);
    let e2e = names(&workloads::run(&w, 1, 0.01));
    let layers = names(&traced::run(&w, 1, 0.01));
    for n in e2e.iter().chain(&layers) {
        assert!(well_formed(n), "{n}");
    }
    assert_eq!(e2e, declared(&bench, "end_to_end"));
    assert_eq!(layers, declared(&bench, "per_layer"));
    // Every declared workload runs; `serve` runs but is not declared (see
    // README), and its shape is still composed by every traced run.
    let workloads: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let timed = declared(&bench, "workloads");
    assert!(timed.is_subset(&workloads), "{timed:?}");
    assert_eq!(workloads.difference(&timed).collect::<Vec<_>>(), ["serve"]);
}
