//! Deterministic multi-threaded experiment sweeps.
//!
//! The paper's evaluation is a grid: topology × algorithm × repetition
//! (× loss/retry configuration for the robustness ablations). A
//! [`SweepSpec`] names such a grid; [`run`] executes every cell across a
//! `std::thread::scope` worker pool and merges the results **by cell
//! index**, with each cell's RNG seed derived from the spec alone — so
//! the output (and therefore the rendered JSON/CSV) is byte-identical
//! for any `--jobs` value, including 1.
//!
//! The figure generators (`experiments::fig6`, and `fig9` through it)
//! are built on this module; the `asi-fabric-sim sweep` CLI mode exposes
//! the same grids from the command line.

use crate::churn::{churn_experiment, default_churn_exempt};
use crate::json::Json;
use crate::scenario::{change_experiment, sharded_discovery, summarize_traffic, Bench, Scenario};
use asi_core::{snapshot_db, Algorithm, DiscoveryRun, RetryPolicy};
use asi_fabric::{ChurnPlan, FaultPlan, LossModel, TrafficPlan};
use asi_sim::{OnlineStats, SimDuration};
use asi_topo::Table1;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What each cell does after the initial bring-up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChangeMode {
    /// Measure the initial discovery only (Figs. 4–5 style).
    Initial,
    /// Remove a random switch and measure the assimilation run.
    Remove,
    /// Hot-add a previously absent switch and measure the assimilation.
    Add,
    /// Alternate per repetition: even reps remove, odd reps add — the
    /// paper's Fig. 6 change experiment.
    Alternate,
}

impl ChangeMode {
    /// Keyword used by the CLI and reports.
    pub fn name(self) -> &'static str {
        match self {
            ChangeMode::Initial => "initial",
            ChangeMode::Remove => "remove",
            ChangeMode::Add => "add",
            ChangeMode::Alternate => "alternate",
        }
    }
}

/// A full sweep grid: the cartesian product of `algorithms` ×
/// `topologies` × `reps` repetitions, plus shared scenario knobs.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Grid name (used in reports).
    pub name: String,
    /// Topologies to sweep (rows of the paper's Table 1).
    pub topologies: Vec<Table1>,
    /// Discovery algorithms to compare.
    pub algorithms: Vec<Algorithm>,
    /// Repetitions per (topology, algorithm) pair.
    pub reps: usize,
    /// Per-cell seed = `seed_base + rep * seed_stride`
    /// (+ the topology's switch count when `salt_by_switches`).
    pub seed_base: u64,
    /// Seed increment per repetition.
    pub seed_stride: u64,
    /// Mix the topology's switch count into the seed, so each topology
    /// sees different victims/arrival processes (the Fig. 6 convention).
    pub salt_by_switches: bool,
    /// What each cell measures.
    pub change: ChangeMode,
    /// FM processing-speed factor (Figs. 8–9).
    pub fm_factor: f64,
    /// Device processing-speed factor (Figs. 8–9).
    pub device_factor: f64,
    /// Fault-injection plan applied to every cell (inert = the paper's
    /// loss-free model). Non-inert plans measure the initial discovery
    /// through [`Scenario::initial_discovery`].
    pub faults: FaultPlan,
    /// FM retry/backoff policy (meaningful with a non-inert plan).
    pub retry: RetryPolicy,
    /// FM base request timeout for fault cells.
    pub request_timeout: SimDuration,
    /// Adds a warm-start axis: every `(algorithm, topology, rep)` point
    /// runs twice, cold and warm. The warm twin first runs an unmeasured
    /// cold discovery to produce a snapshot, then measures the
    /// warm-start verification pass seeded from it, with the **same**
    /// cell seed as its cold twin so the pair is directly comparable.
    /// Warm cells always measure the initial run (the change modes stay
    /// cold-only).
    pub warm_axis: bool,
    /// Fabric-manager counts to sweep. `1` runs the classic single-FM
    /// bench; larger values run an election-based sharded discovery
    /// ([`sharded_discovery`]) and fill the `fms`, `boundary_conflicts`,
    /// `failovers` and `merge_time_s` columns. The default `[1]` leaves
    /// every grid exactly as before.
    pub fm_counts: Vec<usize>,
    /// Continuous-churn plan applied to every cell. An inert plan (the
    /// default) leaves the grid untouched; a live plan switches each
    /// cell to the [`churn_experiment`] runner, which enables partial
    /// assimilation, re-seeds the plan from the cell seed, exempts the
    /// manager's corner per topology, and fills the `churn_events`,
    /// `events_per_sec`, `convergence_lag_s`, `divergence_windows` and
    /// `divergence_s` columns.
    pub churn: ChurnPlan,
    /// Offered-load axis: every `(algorithm, topology)` point runs once
    /// per value, with the [`SweepSpec::traffic`] template's unicast
    /// load overridden per cell. The default `[0.0]` leaves every grid
    /// exactly as before — zero-load cells carry no plan at all, so
    /// they stay byte-identical to traffic-free runs.
    pub loads: Vec<f64>,
    /// Traffic-plan template for the load axis: payload size, arrival
    /// process, window and flow mix. Each non-zero load cell clones it,
    /// overrides the unicast load with the cell's axis value and mixes
    /// the cell seed into the plan seed.
    pub traffic: TrafficPlan,
}

impl SweepSpec {
    /// A grid with the paper-default knobs.
    pub fn new(name: impl Into<String>, topologies: Vec<Table1>) -> SweepSpec {
        SweepSpec {
            name: name.into(),
            topologies,
            algorithms: Algorithm::all().to_vec(),
            reps: 1,
            seed_base: 0xA51,
            seed_stride: 7919,
            salt_by_switches: false,
            change: ChangeMode::Initial,
            fm_factor: 1.0,
            device_factor: 1.0,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            request_timeout: SimDuration::from_ms(5),
            warm_axis: false,
            fm_counts: vec![1],
            churn: ChurnPlan::none(),
            loads: vec![0.0],
            traffic: TrafficPlan::none(),
        }
    }

    /// The Fig. 5 grid: initial discovery on the two fabrics the paper
    /// renders (6×6 mesh, 4-port 3-tree).
    pub fn fig5(quick: bool) -> SweepSpec {
        let mut spec = SweepSpec::new("fig5", vec![Table1::Mesh(6), Table1::FatTree(4, 3)]);
        spec.reps = if quick { 1 } else { 3 };
        spec
    }

    /// The Fig. 6 grid: random change assimilation over Table 1, with
    /// the exact per-repetition seeding the figure generator uses.
    /// Fig. 9 reuses it with non-default processing factors.
    pub fn fig6(quick: bool, fm_factor: f64, device_factor: f64) -> SweepSpec {
        let mut spec = SweepSpec::new(
            "fig6",
            if quick {
                Table1::quick()
            } else {
                Table1::all()
            },
        );
        spec.reps = if quick { 2 } else { 6 };
        spec.seed_base = 0xF16_6000;
        spec.salt_by_switches = true;
        spec.change = ChangeMode::Alternate;
        spec.fm_factor = fm_factor;
        spec.device_factor = device_factor;
        spec
    }

    /// A small smoke grid for CI end-to-end runs: one quick topology,
    /// all three algorithms, initial discovery only.
    pub fn smoke() -> SweepSpec {
        SweepSpec::new("smoke", vec![Table1::Mesh(3)])
    }

    /// The warm-vs-cold grid: Parallel initial discovery over the Table 1
    /// quick set (the full set when not `quick`), every point run both
    /// cold and snapshot-seeded, so the report quantifies what a cached
    /// topology buys on unchanged fabrics.
    pub fn warmstart(quick: bool) -> SweepSpec {
        let mut spec = SweepSpec::new(
            "warmstart",
            if quick {
                Table1::quick()
            } else {
                Table1::all()
            },
        );
        spec.algorithms = vec![Algorithm::Parallel];
        spec.reps = if quick { 1 } else { 3 };
        spec.seed_base = 0x5AF_0000;
        spec.warm_axis = true;
        spec
    }

    /// The large-fabric scale grid: Parallel initial discovery over the
    /// [`Table1::scale`] set (a three-topology subset when `quick`).
    /// The per-cell `peak_outstanding` and `sim_events` columns are its
    /// headline metrics; both are deterministic, so the rendered
    /// JSON/CSV stays byte-identical across `--jobs` values. Wall-clock
    /// throughput (events/sec) is reported by the CLI on stderr,
    /// outside the byte-compared output.
    pub fn scale(quick: bool) -> SweepSpec {
        let mut spec = SweepSpec::new(
            "scale",
            if quick {
                vec![
                    Table1::Mesh(16),
                    Table1::FatTree(8, 3),
                    Table1::Irregular(256),
                    Table1::Dragonfly(2, 3),
                    Table1::Designed(256),
                ]
            } else {
                Table1::scale()
            },
        );
        spec.algorithms = vec![Algorithm::Parallel];
        spec.seed_base = 0x5CA_1E00;
        // The distributed-discovery speedup curve: every scale topology
        // measured single-FM and sharded across 2 and 4 managers.
        spec.fm_counts = vec![1, 2, 4];
        spec
    }

    /// The robustness grid: initial discovery under 5% bursty
    /// (Gilbert–Elliott) loss with exponential backoff, for every
    /// algorithm. All cells must converge to the full topology; the
    /// retry/abandon columns quantify the degradation on the way there.
    pub fn faults(quick: bool) -> SweepSpec {
        let mut spec = SweepSpec::new(
            "faults",
            if quick {
                Table1::quick()
            } else {
                Table1::all()
            },
        );
        spec.reps = if quick { 1 } else { 3 };
        spec.seed_base = 0xFA_0175;
        spec.salt_by_switches = true;
        spec.faults = FaultPlan::none().with_loss(LossModel::bursty(0.05));
        spec.retry = RetryPolicy::exponential(10);
        spec.request_timeout = SimDuration::from_us(800);
        spec
    }

    /// The continuous-churn grid: Parallel partial assimilation under a
    /// combined Poisson link-flap and device remove/re-add stream, over
    /// the Table 1 quick set (one mesh when `quick`). Each cell runs the
    /// [`churn_experiment`] steady-state loop; the headline columns are
    /// events absorbed per second, convergence lag after the last churn
    /// event, and the DB-vs-fabric divergence windows. The churn window
    /// opens well after the initial discovery settles (see the
    /// [`churn_experiment`] placement note) and every cell re-seeds the
    /// plan from its own cell seed, so the grid stays byte-identical
    /// across `--jobs` values.
    pub fn churn(quick: bool) -> SweepSpec {
        let mut spec = SweepSpec::new(
            "churn",
            if quick {
                vec![Table1::Mesh(3)]
            } else {
                Table1::quick()
            },
        );
        spec.algorithms = vec![Algorithm::Parallel];
        spec.reps = if quick { 1 } else { 2 };
        spec.seed_base = 0xC4_0700;
        spec.salt_by_switches = true;
        spec.churn = ChurnPlan::none()
            .with_link_flaps(1_500.0, SimDuration::from_us(200))
            .with_device_churn(300.0, SimDuration::from_ms(1))
            .with_window(SimDuration::from_ms(16), SimDuration::from_ms(8));
        spec
    }

    /// The offered-load grid: initial discovery for every algorithm
    /// under data-plane traffic at 0 / 20 / 40 / 80 % of link capacity
    /// per source endpoint (Poisson arrivals, 512-byte payloads). The
    /// headline columns are discovery time vs load, delivered goodput,
    /// tail latency and the queue/credit pressure counters. Zero-load
    /// cells carry no plan, so they are byte-identical to the plain
    /// grids; every non-zero cell re-seeds the plan from its cell seed.
    pub fn load(quick: bool) -> SweepSpec {
        let mut spec = SweepSpec::new(
            "load",
            if quick {
                vec![Table1::Mesh(3)]
            } else {
                vec![Table1::Mesh(3), Table1::Mesh(6)]
            },
        );
        spec.seed_base = 0x010A_D000;
        spec.loads = vec![0.0, 0.2, 0.4, 0.8];
        // The template's unicast load is a placeholder; each cell
        // overrides it with its axis value. The window comfortably
        // covers the slowest (Serial Packet) discovery on these meshes.
        spec.traffic = TrafficPlan::none().with_unicast(1.0, 512).with_window(
            SimDuration::ZERO,
            SimDuration::from_ms(if quick { 8 } else { 24 }),
        );
        spec
    }

    /// The RNG seed of cell `(topology, rep)`.
    pub fn cell_seed(&self, topo: Table1, rep: usize) -> u64 {
        let salt = if self.salt_by_switches {
            topo.switches() as u64
        } else {
            0
        };
        self.seed_base + rep as u64 * self.seed_stride + salt
    }

    /// The warm-axis values this grid sweeps (cold only by default).
    fn warm_modes(&self) -> &'static [bool] {
        if self.warm_axis {
            &[false, true]
        } else {
            &[false]
        }
    }

    /// Materialises the grid in its canonical order: algorithms outer,
    /// then topologies, then cold-before-warm, then manager counts,
    /// then offered loads, then repetitions. Everything downstream
    /// (worker scheduling, result merging, aggregation) keys off this
    /// order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::with_capacity(
            self.algorithms.len()
                * self.topologies.len()
                * self.warm_modes().len()
                * self.fm_counts.len()
                * self.loads.len()
                * self.reps,
        );
        for &algorithm in &self.algorithms {
            for &topology in &self.topologies {
                for &warm in self.warm_modes() {
                    for &fms in &self.fm_counts {
                        for &load in &self.loads {
                            for rep in 0..self.reps {
                                cells.push(Cell {
                                    topology,
                                    algorithm,
                                    warm,
                                    fms,
                                    load,
                                    rep,
                                    seed: self.cell_seed(topology, rep),
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// One point of the grid.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// The fabric under test.
    pub topology: Table1,
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// Whether this cell measures the snapshot-seeded warm start.
    pub warm: bool,
    /// Fabric managers running the discovery (1 = classic bench).
    pub fms: usize,
    /// Offered unicast load per source endpoint (0.0 = no traffic).
    pub load: f64,
    /// Repetition ordinal within the (topology, algorithm) pair.
    pub rep: usize,
    /// Derived RNG seed (see [`SweepSpec::cell_seed`]).
    pub seed: u64,
}

/// Measurements of one executed cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Topology display name.
    pub topology: String,
    /// Total devices in the (intact) topology.
    pub total_devices: usize,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// True for the warm-start twin of a cold cell.
    pub warm: bool,
    /// Repetition ordinal.
    pub rep: usize,
    /// The seed the cell ran with.
    pub seed: u64,
    /// Whether the measured run completed (lossy runs may exhaust their
    /// retry budget and never drain the pending table).
    pub completed: bool,
    /// Active reachable devices when the measured run finished.
    pub active_nodes: usize,
    /// The paper's headline metric, in seconds.
    pub discovery_time_s: f64,
    /// Devices in the FM database at the end of the run.
    pub devices_found: usize,
    /// Links in the FM database at the end of the run.
    pub links_found: usize,
    /// PI-4 requests injected.
    pub requests: u64,
    /// Completions processed.
    pub responses: u64,
    /// Request attempts that timed out.
    pub timeouts: u64,
    /// Timed-out requests the retry policy re-issued.
    pub retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Peak pending-table occupancy during the measured run (1 for the
    /// serial algorithms by construction; the scale grid's headline
    /// memory metric).
    pub peak_outstanding: usize,
    /// Simulator events processed over the whole cell (bring-up plus
    /// measured run). A pure function of the cell seed, so it is safe
    /// for byte-compared reports; the CLI divides the grid total by
    /// wall time for a throughput figure. Zero for fault and change
    /// cells, which run their fabric internally without surfacing it.
    pub sim_events: u64,
    /// Management bytes sent by the FM.
    pub bytes_sent: u64,
    /// Management bytes received by the FM.
    pub bytes_received: u64,
    /// Mean per-packet FM processing time (µs).
    pub mean_fm_processing_us: f64,
    /// Fraction of the run the FM was busy.
    pub fm_utilization: f64,
    /// Warm runs: snapshotted devices a verification probe confirmed.
    pub probes_verified: u64,
    /// Warm runs: snapshotted devices that failed verification.
    pub verify_mismatches: u64,
    /// Warm runs: whether the run fell back to a full cold discovery.
    pub warm_fallback: bool,
    /// Fabric managers that ran the discovery (1 = classic bench).
    pub fms: usize,
    /// Sharded runs: boundary devices ceded to a rival, summed over
    /// every manager.
    pub boundary_conflicts: u64,
    /// Sharded runs: primary failovers during the cell.
    pub failovers: u32,
    /// Sharded runs: the primary's merge tail (seconds).
    pub merge_time_s: f64,
    /// Churn runs: scheduled churn-plan events that fired.
    pub churn_events: u64,
    /// Simulated-event throughput. Bench and sharded cells report
    /// simulator events per simulated second of discovery (both terms
    /// are simulated quantities, so the value is `--jobs`-invariant);
    /// churn cells report PI-5 events absorbed per simulated second of
    /// churn; cells that run inside scenario helpers report 0.
    pub events_per_sec: f64,
    /// Churn runs: lag from the last churn event to the instant the
    /// database last caught up with the fabric (seconds).
    pub convergence_lag_s: f64,
    /// Churn runs: distinct DB-vs-fabric divergence windows.
    pub divergence_windows: usize,
    /// Churn runs: total simulated time the database disagreed with
    /// the fabric (seconds).
    pub divergence_s: f64,
    /// Offered unicast load per source endpoint (the load axis; 0.0
    /// for grids without one).
    pub load: f64,
    /// Load cells: delivered data-plane goodput in Mb/s over the
    /// traffic window.
    pub goodput_mbps: f64,
    /// Load cells: traffic-plan packets delivered end-to-end.
    pub flow_delivered: u64,
    /// Load cells: median end-to-end flow latency (µs).
    pub latency_p50_us: f64,
    /// Load cells: 99th-percentile end-to-end flow latency (µs).
    pub latency_p99_us: f64,
    /// Load cells: transmissions that waited for credits.
    pub credit_stalls: u64,
    /// Load cells: peak data-VC output-queue depth on any port.
    pub data_queue_peak: u64,
}

/// Per-(topology, algorithm) summary over the repetitions.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// Topology display name.
    pub topology: String,
    /// Total devices in the intact topology.
    pub total_devices: usize,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// True for the warm-start row of a warm-axis grid.
    pub warm: bool,
    /// Fabric-manager count of this row (1 = classic bench).
    pub fms: usize,
    /// Offered-load value of this row (0.0 without a load axis).
    pub load: f64,
    /// Completed repetitions aggregated.
    pub completed: usize,
    /// Mean discovery time over completed reps (seconds).
    pub mean_time_s: f64,
    /// Fastest completed rep (seconds).
    pub min_time_s: f64,
    /// Slowest completed rep (seconds).
    pub max_time_s: f64,
    /// Mean requests per completed rep.
    pub mean_requests: f64,
    /// Mean timeouts per completed rep.
    pub mean_timeouts: f64,
    /// Mean retries per completed rep (degradation under faults).
    pub mean_retries: f64,
    /// Reps that found every device of the (intact) topology.
    pub full_topology: usize,
}

/// A finished sweep: every cell result in canonical order, plus the
/// per-(topology, algorithm) aggregates.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Grid name.
    pub name: String,
    /// Change mode keyword.
    pub change: &'static str,
    /// All cell results, in [`SweepSpec::cells`] order.
    pub cells: Vec<CellResult>,
    /// Aggregates, algorithms outer then topologies (canonical order).
    pub aggregates: Vec<Aggregate>,
}

/// Executes one cell. Runs on a worker thread; must derive everything
/// from the cell + spec so results are placement-independent.
fn run_cell(spec: &SweepSpec, cell: &Cell) -> CellResult {
    let topo = cell.topology.build();
    let mut scenario = Scenario::new(cell.algorithm)
        .with_factors(spec.fm_factor, spec.device_factor)
        .with_faults(spec.faults.clone())
        .with_retry(spec.retry)
        .with_request_timeout(spec.request_timeout)
        .with_seed(cell.seed);
    if cell.load > 0.0 {
        // Non-zero load: clone the grid's traffic template, override the
        // unicast load with the axis value and re-seed per cell. A zero
        // load installs no plan at all, keeping those cells on the exact
        // traffic-free code path (byte-identity with the plain grids).
        let mut plan = spec.traffic.clone();
        plan.load = cell.load;
        plan.seed ^= cell.seed;
        scenario = scenario.with_traffic_plan(plan);
    }
    if !spec.churn.is_inert() {
        return run_churn_cell(spec, cell, &topo, &scenario);
    }
    if cell.fms > 1 {
        return run_sharded_cell(cell, &topo, &scenario);
    }
    // Fault and change cells run their fabric inside the scenario
    // helpers without surfacing it, so their simulator event count
    // reports as zero.
    let no_events = |(run, active): (DiscoveryRun, usize)| (run, active, 0u64);
    let outcome = if cell.warm {
        // Warm twin: an unmeasured cold bench produces the snapshot the
        // measured warm-start verification run is seeded from.
        let snapshot = snapshot_db(Bench::start(&topo, &scenario, &[]).db());
        let warm = scenario.clone().with_snapshot(snapshot);
        if !spec.faults.is_inert() {
            warm.initial_discovery(&topo).map(no_events)
        } else {
            let bench = Bench::start(&topo, &warm, &[]);
            let active = bench.active_nodes();
            Some((bench.last_run(), active, bench.fabric.events_processed()))
        }
    } else if !spec.faults.is_inert() {
        scenario.initial_discovery(&topo).map(no_events)
    } else {
        match spec.change {
            ChangeMode::Initial => {
                let bench = Bench::start(&topo, &scenario, &[]);
                let active = bench.active_nodes();
                let mut run = bench.last_run();
                run.traffic = summarize_traffic(&bench.fabric, &scenario.traffic);
                Some((run, active, bench.fabric.events_processed()))
            }
            ChangeMode::Remove => Some(no_events(change_experiment(&topo, &scenario, true))),
            ChangeMode::Add => Some(no_events(change_experiment(&topo, &scenario, false))),
            ChangeMode::Alternate => Some(no_events(change_experiment(
                &topo,
                &scenario,
                cell.rep.is_multiple_of(2),
            ))),
        }
    };
    match outcome {
        Some((run, active, sim_events)) => {
            let discovery_time_s = run.discovery_time().as_secs_f64();
            CellResult {
                topology: cell.topology.name(),
                total_devices: cell.topology.total_devices(),
                algorithm: cell.algorithm.name(),
                warm: cell.warm,
                rep: cell.rep,
                seed: cell.seed,
                completed: true,
                active_nodes: active,
                discovery_time_s,
                devices_found: run.devices_found,
                links_found: run.links_found,
                requests: run.requests_sent,
                responses: run.responses_received,
                timeouts: run.timeouts,
                retries: run.retries,
                abandoned: run.abandoned,
                peak_outstanding: run.peak_outstanding,
                sim_events,
                bytes_sent: run.bytes_sent,
                bytes_received: run.bytes_received,
                mean_fm_processing_us: run.mean_fm_processing().as_micros_f64(),
                fm_utilization: run.fm_utilization(),
                probes_verified: run.probes_verified,
                verify_mismatches: run.verify_mismatches,
                warm_fallback: run.warm_fallback,
                fms: 1,
                boundary_conflicts: 0,
                failovers: 0,
                merge_time_s: 0.0,
                churn_events: 0,
                // Simulated-event throughput per simulated second: fully
                // deterministic (both terms are simulated quantities), so the
                // grid stays byte-identical for every --jobs value. Cells
                // that run inside scenario helpers report sim_events = 0 and
                // leave the column empty.
                events_per_sec: if sim_events > 0 && discovery_time_s > 0.0 {
                    sim_events as f64 / discovery_time_s
                } else {
                    0.0
                },
                convergence_lag_s: 0.0,
                divergence_windows: 0,
                divergence_s: 0.0,
                load: cell.load,
                goodput_mbps: run.traffic.goodput_bps / 1e6,
                flow_delivered: run.traffic.flow_delivered,
                latency_p50_us: run.traffic.latency_p50_us,
                latency_p99_us: run.traffic.latency_p99_us,
                credit_stalls: run.traffic.credit_stalls,
                data_queue_peak: run.traffic.data_queue_peak,
            }
        }
        None => CellResult {
            topology: cell.topology.name(),
            total_devices: cell.topology.total_devices(),
            algorithm: cell.algorithm.name(),
            warm: cell.warm,
            rep: cell.rep,
            seed: cell.seed,
            completed: false,
            active_nodes: 0,
            discovery_time_s: 0.0,
            devices_found: 0,
            links_found: 0,
            requests: 0,
            responses: 0,
            timeouts: 0,
            retries: 0,
            abandoned: 0,
            peak_outstanding: 0,
            sim_events: 0,
            bytes_sent: 0,
            bytes_received: 0,
            mean_fm_processing_us: 0.0,
            fm_utilization: 0.0,
            probes_verified: 0,
            verify_mismatches: 0,
            warm_fallback: false,
            fms: 1,
            boundary_conflicts: 0,
            failovers: 0,
            merge_time_s: 0.0,
            churn_events: 0,
            events_per_sec: 0.0,
            convergence_lag_s: 0.0,
            divergence_windows: 0,
            divergence_s: 0.0,
            load: cell.load,
            goodput_mbps: 0.0,
            flow_delivered: 0,
            latency_p50_us: 0.0,
            latency_p99_us: 0.0,
            credit_stalls: 0,
            data_queue_peak: 0,
        },
    }
}

/// Executes one continuous-churn cell. The cell's scenario gains
/// partial assimilation and a per-cell re-seeded copy of the grid's
/// churn plan (exempting the manager's corner of this topology), then
/// runs the [`churn_experiment`] steady-state loop. `completed` means
/// the run ended converged: full topology, no divergence at
/// quiescence, and the churned database byte-equal to a cold
/// re-discovery of the end-state fabric. `discovery_time_s` reports
/// the convergence lag so the aggregate time columns stay meaningful.
fn run_churn_cell(
    spec: &SweepSpec,
    cell: &Cell,
    topo: &asi_topo::Topology,
    scenario: &Scenario,
) -> CellResult {
    let plan = spec
        .churn
        .clone()
        .with_seed(spec.churn.seed ^ cell.seed)
        .with_exempt(default_churn_exempt(topo));
    let scenario = scenario
        .clone()
        .with_partial_assimilation(true)
        .with_churn(plan);
    let out = churn_experiment(topo, &scenario);
    CellResult {
        topology: cell.topology.name(),
        total_devices: cell.topology.total_devices(),
        algorithm: cell.algorithm.name(),
        warm: cell.warm,
        rep: cell.rep,
        seed: cell.seed,
        completed: out.full_topology && !out.diverged_at_end && out.cold_db_matches,
        active_nodes: topo.node_count(),
        discovery_time_s: out.convergence_lag.as_secs_f64(),
        devices_found: out.final_devices,
        links_found: out.final_links,
        requests: 0,
        responses: 0,
        timeouts: 0,
        retries: 0,
        abandoned: 0,
        peak_outstanding: 0,
        sim_events: 0,
        bytes_sent: 0,
        bytes_received: 0,
        mean_fm_processing_us: 0.0,
        fm_utilization: 0.0,
        probes_verified: 0,
        verify_mismatches: 0,
        warm_fallback: false,
        fms: 1,
        boundary_conflicts: 0,
        failovers: 0,
        merge_time_s: 0.0,
        churn_events: out.churn_events,
        events_per_sec: out.events_per_sec,
        convergence_lag_s: out.convergence_lag.as_secs_f64(),
        divergence_windows: out.divergence_windows,
        divergence_s: out.divergence_total.as_secs_f64(),
        load: cell.load,
        goodput_mbps: 0.0,
        flow_delivered: 0,
        latency_p50_us: 0.0,
        latency_p99_us: 0.0,
        credit_stalls: 0,
        data_queue_peak: 0,
    }
}

/// Executes one sharded (multi-manager) cell: an election-based
/// distributed discovery whose headline time is the interval from the
/// election kick-off to the certified merged database. The request and
/// byte columns describe the elected primary's own exploration; the
/// device/link counts describe the merged view.
fn run_sharded_cell(cell: &Cell, topo: &asi_topo::Topology, scenario: &Scenario) -> CellResult {
    let (fabric, primary, out) = sharded_discovery(topo, cell.fms, scenario);
    let active = fabric.active_reachable(primary).len();
    let run = fabric
        .agent_as::<asi_core::FmAgent>(primary)
        .and_then(|a| a.last_run())
        .cloned();
    let run = run.expect("sharded primary recorded a run");
    CellResult {
        topology: cell.topology.name(),
        total_devices: cell.topology.total_devices(),
        algorithm: cell.algorithm.name(),
        warm: cell.warm,
        rep: cell.rep,
        seed: cell.seed,
        completed: true,
        active_nodes: active,
        discovery_time_s: out.merged_time.as_secs_f64(),
        devices_found: out.devices,
        links_found: out.links,
        requests: run.requests_sent,
        responses: run.responses_received,
        timeouts: run.timeouts,
        retries: run.retries,
        abandoned: run.abandoned,
        peak_outstanding: run.peak_outstanding,
        sim_events: fabric.events_processed(),
        bytes_sent: run.bytes_sent,
        bytes_received: run.bytes_received,
        mean_fm_processing_us: run.mean_fm_processing().as_micros_f64(),
        fm_utilization: run.fm_utilization(),
        probes_verified: run.probes_verified,
        verify_mismatches: run.verify_mismatches,
        warm_fallback: run.warm_fallback,
        fms: cell.fms,
        boundary_conflicts: out.boundary_conflicts,
        failovers: out.failovers,
        merge_time_s: out.merge_time.as_secs_f64(),
        churn_events: 0,
        events_per_sec: if out.merged_time > SimDuration::ZERO {
            fabric.events_processed() as f64 / out.merged_time.as_secs_f64()
        } else {
            0.0
        },
        convergence_lag_s: 0.0,
        divergence_windows: 0,
        divergence_s: 0.0,
        load: cell.load,
        goodput_mbps: 0.0,
        flow_delivered: 0,
        latency_p50_us: 0.0,
        latency_p99_us: 0.0,
        credit_stalls: 0,
        data_queue_peak: 0,
    }
}

/// Runs the whole grid on `jobs` worker threads (clamped to at least 1
/// and at most the cell count) and returns the results in canonical
/// order. The worker pool pulls cell indices from a shared atomic
/// counter; because every cell is self-seeding and results are merged
/// by index, the returned [`SweepResult`] — and any JSON/CSV rendered
/// from it — is byte-identical for every `jobs` value.
pub fn run(spec: &SweepSpec, jobs: usize) -> SweepResult {
    let cells = spec.cells();
    let jobs = jobs.max(1).min(cells.len().max(1));
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<CellResult>> = Vec::new();
    results.resize_with(cells.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let next = &next;
            let cells = &cells;
            handles.push(scope.spawn(move || {
                let mut mine: Vec<(usize, CellResult)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(idx) else { break };
                    mine.push((idx, run_cell(spec, cell)));
                }
                mine
            }));
        }
        for handle in handles {
            for (idx, result) in handle.join().expect("sweep worker panicked") {
                results[idx] = Some(result);
            }
        }
    });
    let cells: Vec<CellResult> = results
        .into_iter()
        .map(|r| r.expect("every cell executed"))
        .collect();
    let aggregates = aggregate(spec, &cells);
    SweepResult {
        name: spec.name.clone(),
        change: spec.change.name(),
        cells,
        aggregates,
    }
}

/// Folds cell results into per-(topology, algorithm) aggregates, in
/// canonical order. Pure function of the cell list, so it cannot
/// reintroduce thread-count dependence.
fn aggregate(spec: &SweepSpec, cells: &[CellResult]) -> Vec<Aggregate> {
    let mut out = Vec::new();
    for &algorithm in &spec.algorithms {
        for &topology in &spec.topologies {
            for &warm in spec.warm_modes() {
                for &fms in &spec.fm_counts {
                    for &load in &spec.loads {
                        let name = topology.name();
                        let mut stats = OnlineStats::new();
                        let mut requests = 0u64;
                        let mut timeouts = 0u64;
                        let mut retries = 0u64;
                        let mut completed = 0usize;
                        let mut full_topology = 0usize;
                        for c in cells {
                            if c.algorithm == algorithm.name()
                                && c.topology == name
                                && c.warm == warm
                                && c.fms == fms
                                && c.load == load
                                && c.completed
                            {
                                stats.push(c.discovery_time_s);
                                requests += c.requests;
                                timeouts += c.timeouts;
                                retries += c.retries;
                                completed += 1;
                                if c.devices_found == c.total_devices {
                                    full_topology += 1;
                                }
                            }
                        }
                        out.push(Aggregate {
                            topology: name,
                            total_devices: topology.total_devices(),
                            algorithm: algorithm.name(),
                            warm,
                            fms,
                            load,
                            completed,
                            mean_time_s: if completed == 0 { 0.0 } else { stats.mean() },
                            min_time_s: if completed == 0 { 0.0 } else { stats.min() },
                            max_time_s: if completed == 0 { 0.0 } else { stats.max() },
                            mean_requests: if completed == 0 {
                                0.0
                            } else {
                                requests as f64 / completed as f64
                            },
                            mean_timeouts: if completed == 0 {
                                0.0
                            } else {
                                timeouts as f64 / completed as f64
                            },
                            mean_retries: if completed == 0 {
                                0.0
                            } else {
                                retries as f64 / completed as f64
                            },
                            full_topology,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Escapes one CSV field per RFC 4180: fields containing a comma, a
/// double quote, or a line break are wrapped in double quotes, with
/// embedded quotes doubled. Anything else passes through untouched.
pub fn csv_field(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

impl CellResult {
    /// JSON object for one cell.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("topology", self.topology.as_str())
            .with("total_devices", self.total_devices)
            .with("algorithm", self.algorithm)
            .with("warm", self.warm)
            .with("rep", self.rep)
            .with("seed", self.seed)
            .with("completed", self.completed)
            .with("active_nodes", self.active_nodes)
            .with("discovery_time_s", self.discovery_time_s)
            .with("devices_found", self.devices_found)
            .with("links_found", self.links_found)
            .with("requests", self.requests)
            .with("responses", self.responses)
            .with("timeouts", self.timeouts)
            .with("retries", self.retries)
            .with("abandoned", self.abandoned)
            .with("peak_outstanding", self.peak_outstanding)
            .with("sim_events", self.sim_events)
            .with("bytes_sent", self.bytes_sent)
            .with("bytes_received", self.bytes_received)
            .with("mean_fm_processing_us", self.mean_fm_processing_us)
            .with("fm_utilization", self.fm_utilization)
            .with("probes_verified", self.probes_verified)
            .with("verify_mismatches", self.verify_mismatches)
            .with("warm_fallback", self.warm_fallback)
            .with("fms", self.fms)
            .with("boundary_conflicts", self.boundary_conflicts)
            .with("failovers", self.failovers)
            .with("merge_time_s", self.merge_time_s)
            .with("churn_events", self.churn_events)
            .with("events_per_sec", self.events_per_sec)
            .with("convergence_lag_s", self.convergence_lag_s)
            .with("divergence_windows", self.divergence_windows)
            .with("divergence_s", self.divergence_s)
            .with("load", self.load)
            .with("goodput_mbps", self.goodput_mbps)
            .with("flow_delivered", self.flow_delivered)
            .with("latency_p50_us", self.latency_p50_us)
            .with("latency_p99_us", self.latency_p99_us)
            .with("credit_stalls", self.credit_stalls)
            .with("data_queue_peak", self.data_queue_peak)
    }
}

impl Aggregate {
    /// JSON object for one aggregate row.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("topology", self.topology.as_str())
            .with("total_devices", self.total_devices)
            .with("algorithm", self.algorithm)
            .with("warm", self.warm)
            .with("fms", self.fms)
            .with("load", self.load)
            .with("completed", self.completed)
            .with("mean_time_s", self.mean_time_s)
            .with("min_time_s", self.min_time_s)
            .with("max_time_s", self.max_time_s)
            .with("mean_requests", self.mean_requests)
            .with("mean_timeouts", self.mean_timeouts)
            .with("mean_retries", self.mean_retries)
            .with("full_topology", self.full_topology)
    }
}

impl SweepResult {
    /// The whole sweep as one JSON document. Deliberately excludes
    /// anything execution-dependent (thread count, wall-clock time) so
    /// two runs of the same spec compare byte-for-byte.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("sweep", self.name.as_str())
            .with("change", self.change)
            .with(
                "aggregates",
                Json::Arr(self.aggregates.iter().map(Aggregate::to_json).collect()),
            )
            .with(
                "cells",
                Json::Arr(self.cells.iter().map(CellResult::to_json).collect()),
            )
    }

    /// Cell results as CSV (one row per cell, canonical order). Fields
    /// containing commas, quotes or newlines are quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "topology,total_devices,algorithm,warm,rep,seed,completed,active_nodes,\
             discovery_time_s,devices_found,links_found,requests,responses,\
             timeouts,retries,abandoned,peak_outstanding,sim_events,\
             bytes_sent,bytes_received,\
             mean_fm_processing_us,fm_utilization,probes_verified,\
             verify_mismatches,warm_fallback,fms,boundary_conflicts,\
             failovers,merge_time_s,churn_events,events_per_sec,\
             convergence_lag_s,divergence_windows,divergence_s,\
             load,goodput_mbps,flow_delivered,latency_p50_us,\
             latency_p99_us,credit_stalls,data_queue_peak\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                csv_field(&c.topology),
                c.total_devices,
                csv_field(c.algorithm),
                c.warm,
                c.rep,
                c.seed,
                c.completed,
                c.active_nodes,
                c.discovery_time_s,
                c.devices_found,
                c.links_found,
                c.requests,
                c.responses,
                c.timeouts,
                c.retries,
                c.abandoned,
                c.peak_outstanding,
                c.sim_events,
                c.bytes_sent,
                c.bytes_received,
                c.mean_fm_processing_us,
                c.fm_utilization,
                c.probes_verified,
                c.verify_mismatches,
                c.warm_fallback,
                c.fms,
                c.boundary_conflicts,
                c.failovers,
                c.merge_time_s,
                c.churn_events,
                c.events_per_sec,
                c.convergence_lag_s,
                c.divergence_windows,
                c.divergence_s,
                c.load,
                c.goodput_mbps,
                c.flow_delivered,
                c.latency_p50_us,
                c.latency_p99_us,
                c.credit_stalls,
                c.data_queue_peak
            ));
        }
        out
    }

    /// Aggregates as a human-readable text table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "sweep {} ({} cells, change={})\n{:<16} {:<16} {:<5} {:>3} {:>5} {:>5} {:>14} {:>14} {:>12}\n",
            self.name,
            self.cells.len(),
            self.change,
            "topology",
            "algorithm",
            "mode",
            "fms",
            "load",
            "reps",
            "mean",
            "max",
            "requests"
        );
        for a in &self.aggregates {
            out.push_str(&format!(
                "{:<16} {:<16} {:<5} {:>3} {:>5.2} {:>5} {:>12.3}ms {:>12.3}ms {:>12.1}\n",
                a.topology,
                a.algorithm,
                if a.warm { "warm" } else { "cold" },
                a.fms,
                a.load,
                a.completed,
                a.mean_time_s * 1e3,
                a.max_time_s * 1e3,
                a.mean_requests
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("tiny", vec![Table1::Mesh(3)]);
        spec.algorithms = vec![Algorithm::Parallel];
        spec.reps = 2;
        spec.change = ChangeMode::Alternate;
        spec.salt_by_switches = true;
        spec.seed_base = 0xF16_6000;
        spec
    }

    #[test]
    fn cells_enumerate_canonical_order_with_fig6_seeds() {
        let spec = SweepSpec::fig6(true, 1.0, 1.0);
        let cells = spec.cells();
        assert_eq!(cells.len(), 3 * Table1::quick().len() * 2);
        // First block: first algorithm, first topology, reps in order.
        assert_eq!(cells[0].algorithm, Algorithm::SerialPacket);
        assert_eq!(cells[0].rep, 0);
        assert_eq!(cells[1].rep, 1);
        // Fig. 6 seed formula preserved exactly.
        let topo = Table1::quick()[0];
        assert_eq!(cells[0].seed, 0xF16_6000 + topo.switches() as u64);
        assert_eq!(cells[1].seed, 0xF16_6000 + 7919 + topo.switches() as u64);
    }

    #[test]
    fn sweep_runs_and_aggregates() {
        let result = run(&tiny_spec(), 2);
        assert_eq!(result.cells.len(), 2);
        assert!(result.cells.iter().all(|c| c.completed));
        assert_eq!(result.aggregates.len(), 1);
        let agg = &result.aggregates[0];
        assert_eq!(agg.completed, 2);
        assert!(agg.mean_time_s > 0.0);
        assert!(agg.min_time_s <= agg.max_time_s);
    }

    #[test]
    fn json_aggregates_identical_for_one_and_many_jobs() {
        // The tentpole determinism guarantee, at unit scope (the CLI
        // integration test covers the full fig5/fig6 grids).
        let spec = tiny_spec();
        let sequential = run(&spec, 1).to_json().to_string_pretty();
        let parallel = run(&spec, 8).to_json().to_string_pretty();
        assert_eq!(sequential, parallel);
        let csv_seq = run(&spec, 1).to_csv();
        let csv_par = run(&spec, 8).to_csv();
        assert_eq!(csv_seq, csv_par);
    }

    #[test]
    fn fault_sweep_is_deterministic_across_jobs_and_converges() {
        // Same (seed, FaultPlan), different worker counts: byte-equal
        // output. One Table 1 topology keeps the unit test cheap; the
        // CLI integration test covers the whole quick grid.
        let mut spec = SweepSpec::faults(true);
        spec.topologies = vec![Table1::Mesh(3)];
        let sequential = run(&spec, 1);
        let parallel = run(&spec, 4);
        assert_eq!(
            sequential.to_json().to_string_pretty(),
            parallel.to_json().to_string_pretty()
        );
        assert_eq!(sequential.to_csv(), parallel.to_csv());
        // Convergence under the grid's bursty loss + exponential
        // backoff: full topology everywhere, with real degradation.
        for agg in &sequential.aggregates {
            assert_eq!(agg.full_topology, agg.completed, "{}", agg.algorithm);
            assert!(agg.mean_retries > 0.0, "{}", agg.algorithm);
        }
    }

    #[test]
    fn initial_cells_report_peak_occupancy_and_events() {
        let mut spec = SweepSpec::new("peak", vec![Table1::Mesh(3)]);
        spec.algorithms = vec![Algorithm::SerialPacket, Algorithm::Parallel];
        let result = run(&spec, 1);
        let serial = &result.cells[0];
        let parallel = &result.cells[1];
        assert_eq!(serial.peak_outstanding, 1, "serial keeps one in flight");
        assert!(
            parallel.peak_outstanding > 1,
            "parallel peak {}",
            parallel.peak_outstanding
        );
        assert!(serial.sim_events > 0);
        assert!(parallel.sim_events > 0);
    }

    #[test]
    fn scale_grid_is_parallel_only_over_the_scale_set() {
        let spec = SweepSpec::scale(false);
        assert_eq!(spec.algorithms, vec![Algorithm::Parallel]);
        assert_eq!(spec.topologies, Table1::scale());
        assert_eq!(spec.fm_counts, vec![1, 2, 4]);
        assert_eq!(spec.cells().len(), Table1::scale().len() * 3);
        let quick = SweepSpec::scale(true);
        assert_eq!(quick.cells().len(), 15);
        for t in &quick.topologies {
            assert!(
                Table1::scale().contains(t)
                    || matches!(
                        t,
                        Table1::Irregular(256) | Table1::Dragonfly(2, 3) | Table1::Designed(256)
                    ),
                "{}",
                t.name()
            );
        }
    }

    #[test]
    fn fm_axis_shards_speed_up_and_stay_deterministic() {
        let mut spec = SweepSpec::new("fm-axis", vec![Table1::Mesh(8)]);
        spec.algorithms = vec![Algorithm::Parallel];
        spec.fm_counts = vec![1, 2];
        let sequential = run(&spec, 1);
        assert_eq!(sequential.cells.len(), 2);
        let (solo, duo) = (&sequential.cells[0], &sequential.cells[1]);
        assert_eq!(solo.fms, 1);
        assert_eq!(duo.fms, 2);
        // Both find the whole fabric; the sharded cell carries the
        // distributed columns.
        assert_eq!(solo.devices_found, solo.total_devices);
        assert_eq!(duo.devices_found, duo.total_devices);
        assert_eq!(solo.merge_time_s, 0.0);
        assert!(duo.merge_time_s > 0.0, "primary merged a report stream");
        assert_eq!(duo.failovers, 0);
        // The speedup gate: two managers beat one on a 128-device mesh.
        assert!(
            duo.discovery_time_s < solo.discovery_time_s,
            "sharded {} vs solo {}",
            duo.discovery_time_s,
            solo.discovery_time_s
        );
        // One aggregate row per manager count, byte-identical at any
        // worker count.
        assert_eq!(sequential.aggregates.len(), 2);
        assert_eq!(sequential.aggregates[1].fms, 2);
        assert_eq!(sequential.aggregates[1].full_topology, 1);
        let parallel = run(&spec, 4);
        assert_eq!(
            sequential.to_json().to_string_pretty(),
            parallel.to_json().to_string_pretty()
        );
        assert_eq!(sequential.to_csv(), parallel.to_csv());
    }

    #[test]
    fn churn_grid_reports_absorption_and_stays_deterministic() {
        let spec = SweepSpec::churn(true);
        assert_eq!(spec.algorithms, vec![Algorithm::Parallel]);
        assert!(!spec.churn.is_inert());
        let sequential = run(&spec, 1);
        assert_eq!(sequential.cells.len(), 1);
        let cell = &sequential.cells[0];
        // The steady-state columns carry the churn story: events fired
        // and were absorbed, and the run ended converged.
        assert!(cell.completed, "churn cell ended converged");
        assert!(cell.churn_events > 0, "plan fired events");
        assert!(cell.events_per_sec > 0.0, "FM absorbed PI-5 events");
        assert!(cell.divergence_windows > 0, "churn opened divergence");
        assert!(cell.divergence_s > 0.0);
        assert_eq!(cell.devices_found, cell.total_devices);
        // Byte-identical across worker counts, like every other grid.
        let parallel = run(&spec, 4);
        assert_eq!(
            sequential.to_json().to_string_pretty(),
            parallel.to_json().to_string_pretty()
        );
        assert_eq!(sequential.to_csv(), parallel.to_csv());
    }

    #[test]
    fn load_grid_reports_traffic_and_degrades_gently() {
        let mut spec = SweepSpec::load(true);
        spec.algorithms = vec![Algorithm::Parallel];
        let sequential = run(&spec, 1);
        assert_eq!(sequential.cells.len(), 4, "one cell per offered load");
        let by_load = |l: f64| {
            sequential
                .cells
                .iter()
                .find(|c| c.load == l)
                .unwrap_or_else(|| panic!("no cell at load {l}"))
        };
        // The zero-load cell carries no traffic columns and must match
        // the same seed run with no plan at all (sweep-level byte
        // identity with the plain grids).
        let quiet = by_load(0.0);
        assert_eq!(quiet.flow_delivered, 0);
        assert_eq!(quiet.goodput_mbps, 0.0);
        let mut plain = SweepSpec::new("load", vec![Table1::Mesh(3)]);
        plain.algorithms = vec![Algorithm::Parallel];
        plain.seed_base = spec.seed_base;
        let baseline = run(&plain, 1);
        assert_eq!(quiet.discovery_time_s, baseline.cells[0].discovery_time_s);
        assert_eq!(quiet.requests, baseline.cells[0].requests);
        // Delivered goodput grows with offered load, and every loaded
        // cell measured real latency and queue pressure.
        let (low, mid, high) = (by_load(0.2), by_load(0.4), by_load(0.8));
        assert!(low.goodput_mbps > 0.0);
        assert!(low.goodput_mbps < mid.goodput_mbps);
        assert!(mid.goodput_mbps < high.goodput_mbps);
        for c in [low, mid, high] {
            assert!(c.flow_delivered > 0, "load {}", c.load);
            assert!(c.latency_p99_us >= c.latency_p50_us, "load {}", c.load);
            assert!(c.latency_p50_us > 0.0, "load {}", c.load);
            assert!(c.data_queue_peak > 0, "load {}", c.load);
        }
        // The paper's headline survives saturation pressure: discovery
        // under 80 % offered load stays under twice the quiet time.
        assert!(
            high.discovery_time_s < 2.0 * quiet.discovery_time_s,
            "80% load {} vs quiet {}",
            high.discovery_time_s,
            quiet.discovery_time_s
        );
        // One aggregate row per load, byte-identical at any job count.
        assert_eq!(sequential.aggregates.len(), 4);
        let loads: Vec<f64> = sequential.aggregates.iter().map(|a| a.load).collect();
        assert_eq!(loads, vec![0.0, 0.2, 0.4, 0.8]);
        let parallel = run(&spec, 4);
        assert_eq!(
            sequential.to_json().to_string_pretty(),
            parallel.to_json().to_string_pretty()
        );
        assert_eq!(sequential.to_csv(), parallel.to_csv());
    }

    #[test]
    fn csv_has_one_row_per_cell_plus_header() {
        let result = run(&tiny_spec(), 1);
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 1 + result.cells.len());
        assert!(csv.starts_with("topology,"));
    }

    /// Minimal RFC 4180 row parser, for the quoting round-trip test.
    fn parse_csv_row(row: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = row.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if cur.is_empty() => quoted = true,
                ',' if !quoted => fields.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    #[test]
    fn csv_fields_with_metacharacters_round_trip() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        let nasty = "mesh, 3x3 \"wide\"";
        let mut result = run(&tiny_spec(), 1);
        result.cells[0].topology = nasty.to_string();
        let csv = result.to_csv();
        let row = csv.lines().nth(1).unwrap();
        let fields = parse_csv_row(row);
        assert_eq!(fields[0], nasty, "row: {row}");
        // Every row still has exactly one field per header column.
        let columns = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(parse_csv_row(line).len(), columns, "{line}");
        }
    }

    #[test]
    fn warm_axis_doubles_the_grid_and_beats_cold() {
        let mut spec = SweepSpec::warmstart(true);
        spec.topologies = vec![Table1::Mesh(3)];
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert!(!cells[0].warm && cells[1].warm, "cold twin first");
        assert_eq!(cells[0].seed, cells[1].seed, "twins share the seed");
        let result = run(&spec, 2);
        let cold = &result.cells[0];
        let warm = &result.cells[1];
        assert!(!cold.warm && warm.warm);
        assert_eq!(cold.probes_verified, 0);
        assert_eq!(warm.probes_verified, warm.total_devices as u64 - 1);
        assert_eq!(warm.verify_mismatches, 0);
        assert!(!warm.warm_fallback);
        assert_eq!(warm.devices_found, cold.devices_found);
        assert!(
            warm.discovery_time_s < cold.discovery_time_s,
            "warm {} vs cold {}",
            warm.discovery_time_s,
            cold.discovery_time_s
        );
        // One aggregate row per mode.
        assert_eq!(result.aggregates.len(), 2);
        assert!(!result.aggregates[0].warm && result.aggregates[1].warm);
    }

    #[test]
    fn warm_sweep_is_byte_identical_across_jobs() {
        let mut spec = SweepSpec::warmstart(true);
        spec.topologies = vec![Table1::Mesh(3)];
        let sequential = run(&spec, 1);
        let parallel = run(&spec, 4);
        assert_eq!(
            sequential.to_json().to_string_pretty(),
            parallel.to_json().to_string_pretty()
        );
        assert_eq!(sequential.to_csv(), parallel.to_csv());
    }

    #[test]
    fn identical_runs_render_byte_identical_reports() {
        // Determinism regression: two fresh executions of the same spec
        // (not just two renderings of one result) must agree on every
        // byte of JSON, CSV and text output.
        let spec = tiny_spec();
        let a = run(&spec, 2);
        let b = run(&spec, 2);
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_text(), b.to_text());
    }
}
