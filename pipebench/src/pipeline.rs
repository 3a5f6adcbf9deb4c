//! The two workloads and the pipeline each one drives through the
//! library's public functions: graph → distances → scheme construction →
//! snapshot save/load → routing → simulation → verification → repair.
//!
//! A run has two parts. Set-up is repeated three times and reported as its
//! median. The measured window of `--seconds` then runs
//! whole rounds, each of which serves closed-loop route queries, sends the
//! same pairs through the simulator, runs a sampled verification over the
//! loaded tables, and absorbs one link flap (a link event and its inverse,
//! each repaired in place and followed by a burst of route queries on the
//! repaired tables). Rates and latencies are medians over rounds, so every
//! metric samples the whole window. Every correctness check runs outside
//! the timed calls.

use std::time::{Duration, Instant};

use optimal_routing_tables::conformance::registry::SchemeId;
use optimal_routing_tables::graphs::oracle::{BandedOracle, Distances};
use optimal_routing_tables::graphs::paths::{self, Apsp};
use optimal_routing_tables::graphs::{generators, Graph};
use optimal_routing_tables::routing::repair::{PatchReport, RepairableScheme};
use optimal_routing_tables::routing::scheme::RoutingScheme;
use optimal_routing_tables::routing::schemes::full_table::FullTableScheme;
use optimal_routing_tables::routing::snapshot;
use optimal_routing_tables::routing::verify;
use optimal_routing_tables::simnet::churn::{ChurnConfig, ChurnEvent, ChurnPlan};
use optimal_routing_tables::simnet::Network;
use optimal_routing_tables::telemetry::alloc as talloc;

use crate::check::{self, Rng, Topo, UNREACHED};
use crate::trace::{median, quantile, Tracer};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// Distinct sources in the route-query pool.
const SOURCES: usize = 64;
/// Rounds before the route-query pool repeats.
const POOL_ROUNDS: usize = 8;
/// Rounds every run completes, whatever `--seconds`. The per-layer counts
/// cover these rounds, so they repeat exactly for a seed.
const REF_ROUNDS: usize = 4;
/// Sources × targets of the query burst after each link event.
const EVENT_QUERIES: (usize, usize) = (4, 16);
/// Node count of the roster pass (traced runs only).
const ROSTER_N: usize = 256;
/// Sources × targets routed per roster scheme.
const ROSTER_QUERIES: (usize, usize) = (16, 16);

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["dense-paper", "churn-flap"];

/// Random graph family of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `G(n, 1/2)`: the paper's Kolmogorov-random regime (diameter 2).
    DenseHalf,
    /// `G(n, ⌈n ln n⌉)`: sparse, connected, diameter about `ln n / ln ln n`.
    SparseLog,
}

/// Distance layer the served tables are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dists {
    /// One full all-pairs matrix.
    Apsp,
    /// A streaming oracle holding `rows` matrix rows at a time.
    Banded(usize),
}

/// What one workload runs and at what size.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Node count.
    pub n: usize,
    /// Graph family.
    pub family: Family,
    /// Distance layer for the served tables.
    pub dists: Dists,
    /// Whether Theorem 1 is served beside the full table.
    pub theorem1: bool,
    /// Route queries per served scheme per round.
    pub burst: usize,
    /// Verification routes every pair `(s, t)` with `(s + t) % stride == 0`.
    pub verify_stride: usize,
}

impl Spec {
    /// The full-size workload called `name`.
    #[must_use]
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            n: 0,
            family: Family::DenseHalf,
            dists: Dists::Apsp,
            theorem1: false,
            burst: 1024,
            verify_stride: 256,
        };
        Some(match name {
            "dense-paper" => Spec {
                name: "dense-paper",
                n: 1024,
                theorem1: true,
                burst: 512,
                ..base
            },
            "churn-flap" => Spec {
                name: "churn-flap",
                n: 2048,
                family: Family::SparseLog,
                dists: Dists::Banded(64),
                ..base
            },
            _ => return None,
        })
    }

    /// The same workload shrunk to a few dozen nodes, for tests.
    #[must_use]
    pub fn tiny(self) -> Spec {
        Spec {
            n: if self.family == Family::DenseHalf {
                48
            } else {
                64
            },
            dists: match self.dists {
                Dists::Banded(_) => Dists::Banded(8),
                Dists::Apsp => Dists::Apsp,
            },
            burst: 16,
            verify_stride: 4,
            ..self
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every check on the operations that succeeded passed.
    pub correct: bool,
    /// Operations attempted (builds, saves, loads, queries, sends,
    /// verifications, repairs).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// One line per failed operation or check.
    pub errors: Vec<String>,
}

/// Operation and check bookkeeping of one run.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    check_failures: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn note(&mut self, line: String) {
        if self.errors.len() < 20 {
            self.errors.push(line);
        }
    }

    /// Counts one operation and returns its value if it succeeded.
    fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.note(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a correctness check.
    fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.check_failures += 1;
                self.note(e);
                None
            }
        }
    }
}

/// A fatal failure: set-up could not produce servable tables.
pub type Fatal = String;

fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed, stream).next_u64()
}

/// The workload's graph for `seed`: redrawn from a derived seed until
/// connected (the routing problem needs connectivity).
#[must_use]
pub fn generate(family: Family, n: usize, seed: u64) -> Graph {
    (0u64..)
        .map(|attempt| {
            let s = sub_seed(seed, 1 + attempt);
            match family {
                Family::DenseHalf => generators::gnp_half(n, s),
                Family::SparseLog => {
                    let m = ((n as f64) * (n as f64).ln()).ceil() as usize;
                    generators::gnm_seeded(n, m, s)
                }
            }
        })
        .find(paths::is_connected)
        .expect("an endless stream of seeds yields a connected graph")
}

fn topo_of(g: &Graph) -> Topo {
    Topo::from_edges(g.node_count(), g.edges())
}

/// A route query with its true distance from the benchmark's own BFS.
#[derive(Debug, Clone, Copy)]
struct Query {
    s: usize,
    t: usize,
    dist: u32,
}

/// `count` queries from `sources` random sources to random targets at
/// distance ≥ 2 (adjacent pairs are one table lookup, and in `G(n, 1/2)`
/// they make half of all pairs, which would put the median latency on the
/// boundary between two modes). A source adjacent to every node is redrawn;
/// the generated families are never complete graphs.
fn query_pool(topo: &Topo, rng: &mut Rng, sources: usize, count: usize) -> Vec<Query> {
    let n = topo.node_count();
    let far = |d: &u32| *d >= 2 && *d != UNREACHED;
    let rows: Vec<(usize, Vec<u32>)> = (0..sources)
        .map(|_| loop {
            let s = rng.below(n);
            let dist = topo.bfs(s);
            if dist.iter().any(far) {
                break (s, dist);
            }
        })
        .collect();
    (0..count)
        .map(|i| {
            let (s, dist) = &rows[i % rows.len()];
            loop {
                let t = rng.below(n);
                if far(&dist[t]) {
                    return Query {
                        s: *s,
                        t,
                        dist: dist[t],
                    };
                }
            }
        })
        .collect()
}

enum DistLayer {
    Apsp(Apsp),
    Banded(BandedOracle),
}

impl DistLayer {
    fn as_dyn(&self) -> &dyn Distances {
        match self {
            DistLayer::Apsp(a) => a,
            DistLayer::Banded(b) => b,
        }
    }
}

/// A table loaded from its snapshot and served.
struct Served {
    id: SchemeId,
    scheme: Box<dyn RoutingScheme>,
}

/// What one call into a layer cost.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    time: Duration,
    allocs: u64,
}

/// Runs `f` inside span `name`, timing it and counting its allocation
/// calls; the span's own bookkeeping stays outside both.
fn measured<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, Cost) {
    let sp = tr.enter(name);
    let a0 = talloc::total_allocations();
    let t = Instant::now();
    let out = f();
    let time = t.elapsed();
    let allocs = talloc::total_allocations() - a0;
    tr.exit(sp);
    (out, Cost { time, allocs })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Timings of one set-up, each summed over the served schemes.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    seconds: f64,
    build_ms: f64,
    save_ms: f64,
    load_ms: f64,
}

/// One completed set-up: the served tables, the repairable copy and what
/// the set-up measured.
struct Setup {
    served: Vec<Served>,
    repairable: RepairableScheme,
    times: SetupTimes,
    build_allocs: u64,
    build_peak_bytes: u64,
    snapshot_bits: u64,
    bands_computed: u64,
}

/// Topology to loaded, servable tables plus the repairable copy: distances,
/// construction, snapshot save and load. Only the library calls are timed.
fn set_up(
    spec: &Spec,
    g: &Graph,
    topo: &Topo,
    tr: &mut Tracer,
    led: &mut Ledger,
) -> Result<Setup, Fatal> {
    let (dists, cost) = measured(tr, "distances", || match spec.dists {
        Dists::Apsp => DistLayer::Apsp(Apsp::compute(g)),
        Dists::Banded(rows) => DistLayer::Banded(BandedOracle::new(g.clone(), rows)),
    });
    let mut timed = cost.time;

    let ids: &[SchemeId] = if spec.theorem1 {
        &[SchemeId::FullTable, SchemeId::Theorem1]
    } else {
        &[SchemeId::FullTable]
    };
    let mut served = Vec::new();
    let (mut build, mut save, mut load) = (Cost::default(), Cost::default(), Cost::default());
    let (mut build_peak_bytes, mut snapshot_bits) = (0, 0);
    for &id in ids {
        let kind = id
            .snapshot_kind()
            .expect("served schemes have a snapshot kind");
        let mem = talloc::mem_span("pipebench.build");
        let (built, b) = measured(tr, "schemes.build", || {
            id.build_with_dists(g, dists.as_dyn())
        });
        build_peak_bytes = build_peak_bytes.max(mem.finish().region_peak_bytes);
        let built = led
            .op(id.name(), built)
            .ok_or_else(|| format!("{} build failed", id.name()))?;
        let (saved, sv) = measured(tr, "snapshot.save", || snapshot::save(kind, built.as_ref()));
        let saved = led
            .op("snapshot save", saved)
            .ok_or("snapshot save failed")?;
        let (loaded, ld) = measured(tr, "snapshot.load", || snapshot::load(&saved));
        let loaded = led
            .op("snapshot load", loaded)
            .ok_or("snapshot load failed")?;

        for (sum, c) in [(&mut build, b), (&mut save, sv), (&mut load, ld)] {
            sum.time += c.time;
            sum.allocs += c.allocs;
        }
        snapshot_bits += saved.len() as u64;
        led.check(same_bits(built.as_ref(), loaded.as_ref(), "snapshot load"));
        led.check(check_size(id, topo, loaded.as_ref()));
        served.push(Served { id, scheme: loaded });
    }
    let bands_computed = match &dists {
        DistLayer::Banded(b) => b.bands_computed(),
        DistLayer::Apsp(_) => 0,
    };
    drop(dists);

    let (repairable, rb) = measured(tr, "repair.build", || {
        RepairableScheme::full_table(g.clone())
    });
    let repairable = led
        .op("repairable build", repairable)
        .ok_or("repairable build failed")?;
    led.check(same_bits(
        served[0].scheme.as_ref(),
        repairable.scheme(),
        "repairable table",
    ));
    timed += build.time + save.time + load.time + rb.time;

    Ok(Setup {
        served,
        repairable,
        times: SetupTimes {
            seconds: timed.as_secs_f64(),
            build_ms: ms(build.time),
            save_ms: ms(save.time),
            load_ms: ms(load.time),
        },
        build_allocs: build.allocs,
        build_peak_bytes,
        snapshot_bits,
        bands_computed,
    })
}

/// Checks that two schemes store identical bits at every node.
fn same_bits(a: &dyn RoutingScheme, b: &dyn RoutingScheme, what: &str) -> Result<(), String> {
    if a.node_count() != b.node_count() {
        return Err(format!(
            "{what}: {} nodes, expected {}",
            b.node_count(),
            a.node_count()
        ));
    }
    match (0..a.node_count()).find(|&u| a.node_bits(u) != b.node_bits(u)) {
        Some(u) => Err(format!("{what}: node {u} bits differ")),
        None => Ok(()),
    }
}

/// The space checks of the served schemes.
fn check_size(id: SchemeId, topo: &Topo, s: &dyn RoutingScheme) -> Result<(), String> {
    match id {
        SchemeId::FullTable => check::check_full_table_bits(topo, s.total_size_bits() as u64),
        SchemeId::Theorem1 => check::check_six_n(
            s.node_count(),
            (0..s.node_count()).map(|u| s.node_size_bits(u)),
        ),
        _ => Ok(()),
    }
}

/// Sums of the repair reports over the reference rounds.
#[derive(Debug, Default, Clone, Copy)]
struct RepairCounts {
    dirty_nodes: u64,
    rows_recomputed: u64,
    oracle_rebuilds: u64,
    entries_patched: u64,
    scheme_rebuilds: u64,
}

impl RepairCounts {
    fn add(&mut self, r: &PatchReport) {
        self.dirty_nodes += r.dirty_nodes as u64;
        self.rows_recomputed += r.rows_recomputed as u64;
        self.oracle_rebuilds += r.oracle_rebuilds as u64;
        self.entries_patched += r.entries_patched as u64;
        self.scheme_rebuilds += u64::from(r.scheme_rebuilt);
    }
}

/// Per-round samples of the measured window.
#[derive(Debug, Default)]
struct Samples {
    /// Route queries per second of busy time, per round.
    route_rate: Vec<f64>,
    /// Median and 99th-percentile query latency (µs), per round.
    route_p50: Vec<f64>,
    route_p99: Vec<f64>,
    /// Simulated sends per second, per round, and the round's simnet time.
    sim_rate: Vec<f64>,
    sim_ms: Vec<f64>,
    /// Verified pairs per second, per round, and the round's verify time.
    verify_rate: Vec<f64>,
    verify_ms: Vec<f64>,
    /// Repairs per second, per round, and every repair's time (ms).
    repair_rate: Vec<f64>,
    repair_ms: Vec<f64>,
    /// Time in route bursts and hops of every delivered query.
    route_time: Duration,
    route_hops: u64,
}

/// Counts over the reference rounds, which every run completes; they
/// repeat exactly for a seed.
#[derive(Debug, Default)]
struct Reference {
    route_hops: u64,
    route_allocs: u64,
    sim_hops: u64,
    sim_allocs: u64,
    /// Allocation calls of every library call in the reference rounds.
    allocs: u64,
    repair: RepairCounts,
}

/// A link flap: the event, then its inverse, so the topology is the
/// generated graph again after every round.
#[derive(Debug, Clone, Copy)]
struct Flap {
    u: usize,
    v: usize,
    /// Whether the first event brings the link up (else takes it down).
    up_first: bool,
}

/// The link flap of round `round`: the event of a one-step link-only
/// [`ChurnPlan`] drawn on `g` from a seed derived from `seed` and `round`
/// (a draw with no viable event moves on to the next derived seed).
fn flap(g: &Graph, seed: u64, round: usize) -> Flap {
    let config = ChurnConfig {
        steps: 1,
        join_weight: 0,
        leave_weight: 0,
        ..ChurnConfig::default()
    };
    (0u64..)
        .find_map(|attempt| {
            let stream = (1 << 32) + ((round as u64) << 8) + attempt;
            let plan = ChurnPlan::generate(g, &config, sub_seed(seed, stream));
            plan.events().first().map(|e| match e.event {
                ChurnEvent::AddLink(u, v) => Flap {
                    u,
                    v,
                    up_first: true,
                },
                ChurnEvent::RemoveLink(u, v) => Flap {
                    u,
                    v,
                    up_first: false,
                },
                _ => unreachable!("join and leave weights are zero"),
            })
        })
        .expect("a connected graph with two or more nodes has a viable link event")
}

/// Runs workload `spec` on the inputs of `seed` for a measured window of
/// `seconds`; `trace` records spans and adds the per-layer metrics.
///
/// # Errors
///
/// A [`Fatal`] message when set-up cannot produce servable tables.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, Fatal> {
    let mut tr = Tracer::new(trace);
    let mut led = Ledger::default();

    let (g, gen) = measured(&mut tr, "generators.gen", || {
        generate(spec.family, spec.n, seed)
    });
    let mut topo = topo_of(&g);

    // Set-up, repeated; the last one serves.
    let mut times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take()); // free the previous tables before building again
        let s = set_up(spec, &g, &topo, &mut tr, &mut led)?;
        times.push(s.times);
        setup = Some(s);
    }
    let Setup {
        served,
        mut repairable,
        build_allocs,
        build_peak_bytes,
        snapshot_bits,
        bands_computed,
        ..
    } = setup.expect("at least one set-up ran");
    let setup_median = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());

    // Distances for verification: the sampled verifier takes a full matrix.
    let (apsp, apsp_cost) = measured(&mut tr, "paths.apsp", || Apsp::compute(&g));
    let oracle = apsp.into_oracle();
    let mut rng = Rng::new(seed, 100);
    let pool = query_pool(&topo, &mut rng, SOURCES, spec.burst * POOL_ROUNDS);
    let verify_expect = expected_verify(&topo, spec.verify_stride);

    // The measured window: whole rounds, each serving queries, simulating,
    // verifying and absorbing one link flap.
    let mut nets: Vec<Network<'_>> = served
        .iter()
        .map(|s| Network::new(s.scheme.as_ref()))
        .collect();
    let limit = verify::default_hop_limit(spec.n);
    let mut smp = Samples::default();
    let mut refc = Reference::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut round = 0usize;
    while round < REF_ROUNDS || Instant::now() < deadline {
        let reference = round < REF_ROUNDS;
        let at = (round % POOL_ROUNDS) * spec.burst;
        let queries = &pool[at..at + spec.burst];

        let mut lat_us = Vec::with_capacity(queries.len() * served.len());
        for sv in &served {
            // An untimed pass over the same burst first: a node serving a
            // stream keeps its table hot, while the previous round's repair
            // and verification would leave it cold here.
            let warm = queries
                .iter()
                .map(|q| verify::route_pair(sv.scheme.as_ref(), q.s, q.t, limit))
                .collect();
            check_routes(&mut led, sv.id, &topo, queries, warm);
            let mut lat = Vec::with_capacity(queries.len());
            let mut paths = Vec::with_capacity(queries.len());
            let ((), cost) = measured(&mut tr, "route.burst", || {
                for q in queries {
                    let t = Instant::now();
                    let r = verify::route_pair(sv.scheme.as_ref(), q.s, q.t, limit);
                    lat.push(t.elapsed());
                    paths.push(r);
                }
            });
            let hops = check_routes(&mut led, sv.id, &topo, queries, paths);
            smp.route_time += cost.time;
            smp.route_hops += hops;
            if reference {
                refc.route_hops += hops;
                refc.route_allocs += cost.allocs;
                refc.allocs += cost.allocs;
            }
            lat_us.extend(lat.iter().map(|d| d.as_secs_f64() * 1e6));
        }
        smp.route_rate
            .push(lat_us.len() as f64 / (lat_us.iter().sum::<f64>() / 1e6));
        smp.route_p50.push(median(&lat_us));
        smp.route_p99.push(quantile(&lat_us, 0.99));

        let mut sim_time = Duration::ZERO;
        for (sv, net) in served.iter().zip(&mut nets) {
            let warm = queries
                .iter()
                .map(|q| net.send(q.s, q.t).map(|d| d.path))
                .collect();
            check_routes(&mut led, sv.id, &topo, queries, warm);
            let mut paths = Vec::with_capacity(queries.len());
            let ((), cost) = measured(&mut tr, "simnet.burst", || {
                for q in queries {
                    paths.push(net.send(q.s, q.t).map(|d| d.path));
                }
            });
            let hops = check_routes(&mut led, sv.id, &topo, queries, paths);
            sim_time += cost.time;
            if reference {
                refc.sim_hops += hops;
                refc.sim_allocs += cost.allocs;
                refc.allocs += cost.allocs;
            }
        }
        smp.sim_rate
            .push((queries.len() * served.len()) as f64 / sim_time.as_secs_f64());
        smp.sim_ms.push(ms(sim_time));

        let (mut verify_time, mut pairs) = (Duration::ZERO, 0);
        for sv in &served {
            let (r, cost) = measured(&mut tr, "verify", || {
                verify::verify_scheme_sampled_with_oracle(
                    &g,
                    sv.scheme.as_ref(),
                    &oracle,
                    spec.verify_stride,
                )
            });
            verify_time += cost.time;
            if reference {
                refc.allocs += cost.allocs;
            }
            if let Some(rep) = led.op("verify", r) {
                pairs += rep.delivered + rep.failures.len();
                led.check(check_verify(sv.id, &rep, verify_expect));
            }
        }
        smp.verify_rate
            .push(pairs as f64 / verify_time.as_secs_f64());
        smp.verify_ms.push(ms(verify_time));

        let Flap { u, v, up_first } = flap(&g, seed, round);
        let mut repair_time = Duration::ZERO;
        for up in [up_first, !up_first] {
            let (r, cost) = measured(&mut tr, "repair.event", || {
                if up {
                    repairable.add_link(u, v)
                } else {
                    repairable.remove_link(u, v)
                }
            });
            repair_time += cost.time;
            smp.repair_ms.push(ms(cost.time));
            let Some(report) = led.op("repair", r) else {
                continue;
            };
            let mirrored = if up {
                topo.add_edge(u, v)
            } else {
                topo.remove_edge(u, v)
            };
            if !mirrored {
                led.check::<()>(Err(format!(
                    "link event {u}-{v} does not match the topology"
                )));
            }
            if reference {
                refc.repair.add(&report);
                refc.allocs += cost.allocs;
            }
            if round == 0 && up == up_first {
                // Mid-flap the graph differs from the generated one.
                check_against_cold_build(&mut led, &repairable);
            }
            // Reads after every write: a burst of queries on the repaired tables.
            let mut burst_rng = Rng::new(seed, 2000 + 2 * round as u64 + u64::from(up));
            let (k, per) = EVENT_QUERIES;
            let qs = query_pool(&topo, &mut burst_rng, k, k * per);
            let paths: Vec<_> = qs
                .iter()
                .map(|q| verify::route_pair(repairable.scheme(), q.s, q.t, limit))
                .collect();
            check_routes(&mut led, SchemeId::FullTable, &topo, &qs, paths);
        }
        smp.repair_rate.push(2.0 / repair_time.as_secs_f64());
        round += 1;
    }
    drop(nets);

    // After the last event: the repaired tables equal a cold build.
    check_against_cold_build(&mut led, &repairable);
    if topo_of(repairable.graph()) != topo {
        led.check::<()>(Err(
            "repaired graph differs from the benchmark's copy".into()
        ));
    }

    let table_bits: usize = served.iter().map(|s| s.scheme.total_size_bits()).sum();
    let end_to_end = vec![
        metric("setup_s", setup_median(|t| t.seconds), "s"),
        metric("routes_per_s", median(&smp.route_rate), "1/s"),
        metric("route_p50_us", median(&smp.route_p50), "us"),
        metric("route_p99_us", median(&smp.route_p99), "us"),
        metric("sim_routes_per_s", median(&smp.sim_rate), "1/s"),
        metric("verify_pairs_per_s", median(&smp.verify_rate), "1/s"),
        metric("repairs_per_s", median(&smp.repair_rate), "1/s"),
        metric("repair_p50_ms", median(&smp.repair_ms), "ms"),
        metric("repair_p90_ms", quantile(&smp.repair_ms, 0.9), "ms"),
        metric("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
        metric("table_bits", table_bits as f64, "bits"),
    ];

    let mut per_layer = Vec::new();
    if trace {
        let c = &refc.repair;
        per_layer = vec![
            metric("generators.gen_ms", ms(gen.time), "ms"),
            metric("paths.apsp_ms", ms(apsp_cost.time), "ms"),
            metric("oracle.bands_computed", bands_computed as f64, "count"),
            metric("schemes.build_ms", setup_median(|t| t.build_ms), "ms"),
            metric("schemes.build_allocs", build_allocs as f64, "count"),
            metric("schemes.build_peak_bytes", build_peak_bytes as f64, "bytes"),
            metric("snapshot.save_ms", setup_median(|t| t.save_ms), "ms"),
            metric("snapshot.load_ms", setup_median(|t| t.load_ms), "ms"),
            metric("snapshot.bytes", (snapshot_bits / 8) as f64, "bytes"),
            metric("route.hops", refc.route_hops as f64, "count"),
            metric(
                "route.ns_per_hop",
                smp.route_time.as_nanos() as f64 / smp.route_hops as f64,
                "ns",
            ),
            metric(
                "route.allocs_per_hop",
                refc.route_allocs as f64 / refc.route_hops as f64,
                "count",
            ),
            metric("simnet.ms", median(&smp.sim_ms), "ms"),
            metric("simnet.hops", refc.sim_hops as f64, "count"),
            metric(
                "simnet.allocs_per_hop",
                refc.sim_allocs as f64 / refc.sim_hops as f64,
                "count",
            ),
            metric("verify.ms", median(&smp.verify_ms), "ms"),
            metric(
                "verify.pairs",
                verify_expect.0 as f64 * served.len() as f64,
                "count",
            ),
            metric(
                "verify.hops",
                verify_expect.1 as f64 * served.len() as f64,
                "count",
            ),
            metric("delta.dirty_nodes", c.dirty_nodes as f64, "count"),
            metric("delta.rows_recomputed", c.rows_recomputed as f64, "count"),
            metric("delta.oracle_rebuilds", c.oracle_rebuilds as f64, "count"),
            metric("repair.entries_patched", c.entries_patched as f64, "count"),
            metric("repair.scheme_rebuilds", c.scheme_rebuilds as f64, "count"),
            metric("repair.ms", median(&tr.durations_ms("repair.event")), "ms"),
            metric("telemetry.alloc_calls", refc.allocs as f64, "count"),
        ];
        per_layer.extend(roster(seed, &mut tr, &mut led));
    }

    Ok(Outcome {
        correct: led.check_failures == 0,
        attempted: led.attempted,
        failed: led.failed,
        end_to_end,
        per_layer,
        errors: led.errors,
    })
}

/// Compares the repaired tables with a cold build of the current graph.
fn check_against_cold_build(led: &mut Ledger, repairable: &RepairableScheme) {
    if let Some(cold) = led.op("cold build", FullTableScheme::build(repairable.graph())) {
        led.check(same_bits(
            &cold,
            repairable.scheme(),
            "repaired vs cold build",
        ));
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Checks routed paths against the benchmark's own distances and returns
/// the total hop count of the delivered ones.
fn check_routes<E: std::fmt::Display>(
    led: &mut Ledger,
    id: SchemeId,
    topo: &Topo,
    queries: &[Query],
    paths: Vec<Result<Vec<usize>, E>>,
) -> u64 {
    let mut hops = 0;
    for (q, r) in queries.iter().zip(paths) {
        let Some(path) = led.op(id.name(), r) else {
            continue;
        };
        let cap = id.hop_cap(topo.node_count(), q.dist).unwrap_or(u32::MAX);
        if let Some(h) = led.check(check::check_path(topo, q.s, q.t, &path, q.dist, cap)) {
            hops += u64::from(h);
        }
    }
    hops
}

/// Pair count and total true distance of the pairs a sampled verification
/// with `stride` routes, from the benchmark's own BFS.
fn expected_verify(topo: &Topo, stride: usize) -> (u64, u64) {
    let n = topo.node_count();
    let (mut pairs, mut hops) = (0, 0);
    for s in 0..n {
        let dist = topo.bfs(s);
        for (t, &d) in dist.iter().enumerate() {
            if s != t && (s + t) % stride == 0 {
                pairs += 1;
                hops += u64::from(d);
            }
        }
    }
    (pairs, hops)
}

fn check_verify(
    id: SchemeId,
    rep: &verify::VerifyReport,
    (pairs, hops): (u64, u64),
) -> Result<(), String> {
    if !rep.failures.is_empty() || rep.delivered as u64 != pairs || rep.total_hops != hops {
        return Err(format!(
            "verify {}: {} of {pairs} pairs delivered in {} hops (true total {hops}), {} failures",
            id.name(),
            rep.delivered,
            rep.total_hops,
            rep.failures.len()
        ));
    }
    Ok(())
}

/// Builds and routes every registered scheme on a small `G(n, 1/2)`:
/// hop-path and size counts for schemes outside the timed stream.
fn roster(seed: u64, tr: &mut Tracer, led: &mut Ledger) -> Vec<Metric> {
    let g = generate(Family::DenseHalf, ROSTER_N, sub_seed(seed, 3000));
    let topo = topo_of(&g);
    let mut rng = Rng::new(seed, 3001);
    let (k, per) = ROSTER_QUERIES;
    let queries = query_pool(&topo, &mut rng, k, k * per);
    let limit = verify::default_hop_limit(ROSTER_N);
    let mut out = Vec::new();
    for id in SchemeId::ALL {
        let (built, build) = measured(tr, "roster.build", || id.build(&g));
        let (mut allocs_per_hop, mut bits) = (f64::NAN, 0);
        if let Some(scheme) = led.op(id.name(), built) {
            let (paths, cost) = measured(tr, "roster.route", || {
                queries
                    .iter()
                    .map(|q| verify::route_pair(scheme.as_ref(), q.s, q.t, limit))
                    .collect::<Vec<_>>()
            });
            let hops = check_routes(led, id, &topo, &queries, paths);
            allocs_per_hop = cost.allocs as f64 / hops as f64;
            bits = scheme.total_size_bits();
        }
        out.push(metric(
            &format!("roster.allocs_per_hop.{}", id.name()),
            allocs_per_hop,
            "count",
        ));
        out.push(metric(
            &format!("roster.table_bits.{}", id.name()),
            bits as f64,
            "bits",
        ));
        out.push(metric(
            &format!("roster.build_ms.{}", id.name()),
            ms(build.time),
            "ms",
        ));
    }
    out
}

/// The process's peak resident set (VmHWM) in MiB.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
