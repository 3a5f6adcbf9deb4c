//! The benchmark's own tests: every workload runs end to end at tiny `n`
//! and reports exactly the metrics `BENCHMARK.json` declares, and the
//! checker catches corrupted paths and bit counts.

use pipebench::check::{check_full_table_bits, check_path, check_six_n, Topo};
use pipebench::pipeline::{self, Spec, WORKLOADS};

/// Metric names of one list (`end_to_end` or `per_layer`) in
/// `BENCHMARK.json`, in file order.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let start = text.find(&format!("\"{list}\"")).expect("list is declared");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name is quoted")].to_string())
        .collect()
}

#[test]
fn every_workload_runs_at_tiny_n_and_reports_the_declared_metrics() {
    for name in WORKLOADS {
        let spec = Spec::named(name).expect("listed workload exists").tiny();
        for trace in [false, true] {
            let out = pipeline::run(&spec, 7, 0.0, trace).expect("tiny set-up succeeds");
            assert!(out.correct && out.failed == 0, "{name}: {:?}", out.errors);
            assert!(out.attempted > 0);
            let (metrics, list) = if trace {
                (&out.per_layer, "per_layer")
            } else {
                (&out.end_to_end, "end_to_end")
            };
            let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, declared(list), "{name}: metric names");
            for m in metrics {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
            if !trace {
                assert!(
                    metrics.iter().all(|m| m.value > 0.0),
                    "{name}: an end-to-end metric read 0"
                );
            }
        }
    }
}

#[test]
fn a_seed_gives_the_same_inputs() {
    let spec = Spec::named("churn-flap").expect("exists").tiny();
    let a = pipeline::generate(spec.family, spec.n, 3);
    let b = pipeline::generate(spec.family, spec.n, 3);
    let c = pipeline::generate(spec.family, spec.n, 4);
    let edges = |g: &optimal_routing_tables::graphs::Graph| g.edges().collect::<Vec<_>>();
    assert_eq!(edges(&a), edges(&b));
    assert_ne!(edges(&a), edges(&c));
}

/// A 4-cycle 0-1-2-3-0 with the chord 0-2.
fn diamond() -> Topo {
    Topo::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
}

#[test]
fn checker_accepts_a_shortest_path() {
    let t = diamond();
    assert_eq!(t.bfs(1)[3], 2);
    assert_eq!(check_path(&t, 1, 3, &[1, 0, 3], 2, 2), Ok(2));
}

#[test]
fn checker_catches_a_step_that_is_not_an_edge() {
    let t = diamond();
    let err = check_path(&t, 1, 3, &[1, 3], 2, 2).unwrap_err();
    assert!(err.contains("not an edge"), "{err}");
}

#[test]
fn checker_catches_one_hop_too_many() {
    let t = diamond();
    let err = check_path(&t, 1, 3, &[1, 2, 0, 3], 2, 2).unwrap_err();
    assert!(err.contains("3 hops"), "{err}");
    // The same walk passes under a stretch cap that allows it.
    assert_eq!(check_path(&t, 1, 3, &[1, 2, 0, 3], 2, 3), Ok(3));
}

#[test]
fn checker_catches_wrong_endpoints() {
    let t = diamond();
    assert!(check_path(&t, 1, 3, &[1, 0], 2, 2).is_err());
    assert!(check_path(&t, 1, 3, &[2, 3], 2, 2).is_err());
    assert!(check_path(&t, 1, 3, &[], 2, 2).is_err());
}

#[test]
fn checker_catches_a_corrupted_bit_count() {
    let t = diamond();
    // Degrees 3, 2, 3, 2: (n−1)·(2 + 1 + 2 + 1) = 18 bits.
    assert_eq!(t.full_table_bits(), 18);
    assert_eq!(check_full_table_bits(&t, 18), Ok(()));
    assert!(check_full_table_bits(&t, 19).is_err());
    assert!(check_full_table_bits(&t, 17).is_err());
}

#[test]
fn checker_catches_a_node_over_six_n_bits() {
    assert_eq!(check_six_n(10, [60, 12, 0]), Ok(()));
    assert!(check_six_n(10, [60, 61]).is_err());
}
