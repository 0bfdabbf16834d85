//! Benchmark workloads for the ASI fabric discovery simulator.
//!
//! Each workload is one discovery through one of the program's own
//! entry points: [`Bench::start`] (fabric build, bring-up, discovery,
//! settle, PI-5 routes) or [`Scenario::initial_discovery`] (the path the
//! CLI's `faults` mode runs). [`Workload::run`] calls that entry point
//! untouched. [`Workload::run_traced`] repeats the same public steps one
//! by one and times each call into a layer from outside, so the program
//! itself carries no instrumentation; the crate's tests pin the traced
//! replica to the real entry point's deterministic outputs.

use std::any::Any;
use std::cell::Cell;
use std::fmt::{self, Write as _};
use std::rc::Rc;
use std::time::Instant;

use asi_core::{Algorithm, DiscoveryRun};
use asi_core::{FmAgent, FmConfig, FmTiming, RetryPolicy, TOKEN_START_DISCOVERY};
use asi_fabric::{
    AgentCtx, DevId, Fabric, FabricAgent, FabricConfig, FabricCounters, FaultPlan, FmRoute,
    LossModel, TrafficPlan,
};
use asi_harness::{dev_of_dsn, summarize_traffic, Bench, Json, Scenario};
use asi_proto::{Packet, PortEvent, MAX_POOL_BITS};
use asi_sim::{SimDuration, SimTime};
use asi_topo::{dragonfly, mesh, Attachment, NodeId, Topology};

/// Workload names, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 4] = ["df_cold", "mesh_serial", "df_lossy", "mesh_loaded"];

/// The CLI's default seed.
pub const DEFAULT_SEED: u64 = 0xA51;

/// Largest share of the traced run's wall time that the timed phases may
/// leave unexplained before the trace is reported as broken.
pub const MAX_UNACCOUNTED_SHARE: f64 = 0.05;

/// `Fabric::step` calls per timed batch in the traced run (one clock
/// read per batch keeps the probe off the per-event path).
const STEP_BATCH: u32 = 4096;

/// Queue-depth sampling period the harness passes to `Fabric::set_trace`
/// (inert here: the trace handle is disabled).
const QUEUE_SAMPLE_PERIOD: SimDuration = SimDuration::from_us(20);

/// The fabric a workload discovers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Swapped Dragonfly `dragonfly:K,M`.
    Dragonfly(usize, usize),
    /// `mesh:WxH`.
    Mesh(usize, usize),
}

impl Shape {
    /// Calls the topology generator.
    pub fn build(self) -> Topology {
        match self {
            Shape::Dragonfly(k, m) => {
                dragonfly(k, m)
                    .expect("benchmark dragonfly parameters are valid")
                    .topology
            }
            Shape::Mesh(w, h) => {
                mesh(w, h)
                    .expect("benchmark mesh dimensions are valid")
                    .topology
            }
        }
    }
}

/// What a workload exercises; fixes the scenario and the entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Parallel discovery of a clean fabric through `Bench::start`.
    Cold,
    /// Serial Packet discovery of a clean fabric through `Bench::start`.
    Serial,
    /// Parallel discovery under 1% uniform loss with exponential retry
    /// through `Scenario::initial_discovery` (the `faults` mode run).
    Lossy,
    /// Parallel discovery under Poisson unicast load through
    /// `Bench::start` (the `traffic` mode's loaded run).
    Loaded,
}

/// One benchmark workload: a scenario kind on a fabric shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Scenario kind.
    pub kind: Kind,
    /// Fabric shape.
    pub shape: Shape,
}

impl Workload {
    /// The named benchmark workload at its full size.
    pub fn named(name: &str) -> Option<Workload> {
        let (kind, shape) = match name {
            "df_cold" => (Kind::Cold, Shape::Dragonfly(8, 64)),
            "mesh_serial" => (Kind::Serial, Shape::Mesh(64, 64)),
            "df_lossy" => (Kind::Lossy, Shape::Dragonfly(8, 32)),
            "mesh_loaded" => (Kind::Loaded, Shape::Mesh(16, 16)),
            _ => return None,
        };
        Some(Workload { kind, shape })
    }

    /// True when the workload runs through `Scenario::initial_discovery`
    /// rather than `Bench::start`.
    pub fn is_initial_discovery(&self) -> bool {
        self.kind == Kind::Lossy
    }

    /// The scenario the matching CLI mode builds with its defaults.
    pub fn scenario(&self, seed: u64) -> Scenario {
        match self.kind {
            Kind::Cold => Scenario::new(Algorithm::Parallel).with_seed(seed),
            Kind::Serial => Scenario::new(Algorithm::SerialPacket).with_seed(seed),
            Kind::Lossy => Scenario::new(Algorithm::Parallel)
                .with_seed(seed)
                .with_faults(
                    FaultPlan::none()
                        .with_loss(LossModel::uniform(0.01))
                        .with_corruption(0.0)
                        .with_duplication(0.0),
                )
                .with_retry(RetryPolicy::exponential(4))
                .with_request_timeout(SimDuration::from_us(800)),
            Kind::Loaded => Scenario::new(Algorithm::Parallel)
                .with_seed(seed)
                .with_traffic_plan(
                    TrafficPlan::none()
                        .with_unicast(0.2, 512)
                        .with_flows(1)
                        .with_switch_sourced(0.0)
                        .with_window(SimDuration::ZERO, SimDuration::from_us(8_000))
                        .with_seed(seed ^ 0x7AF1C),
                ),
        }
    }

    /// Set-up: the topology generator call, then `Topology::validate`.
    /// Returns the topology and the two phases' host seconds.
    pub fn setup(&self) -> (Topology, f64, f64) {
        let t = Instant::now();
        let topo = self.shape.build();
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        topo.validate().expect("generated topology validates");
        (topo, build_s, t.elapsed().as_secs_f64())
    }

    /// Calls the program's entry point for this workload, unmodified.
    pub fn run(&self, topo: &Topology, scenario: &Scenario) -> Ran {
        if self.is_initial_discovery() {
            let (run, active) = scenario
                .initial_discovery(topo)
                .expect("the FM completed a discovery run");
            Ran::Initial(Box::new(run), active)
        } else {
            Ran::Bench(Box::new(Bench::start(topo, scenario, &[])))
        }
    }

    /// Repeats the entry point's public steps with each layer timed from
    /// outside. Deterministic outputs equal [`Workload::run`]'s. The
    /// fabric is handed back so the caller chooses when to free it.
    pub fn run_traced(&self, topo: &Topology, scenario: &Scenario) -> (Outcome, Trace, Fabric) {
        assert!(
            scenario.snapshot.is_none() && scenario.churn.is_inert(),
            "the traced replica covers cold, churn-free scenarios only"
        );
        let mut trace = Trace::new();
        let root = trace.open("run", None);
        let fm_node = asi_topo::default_fm_endpoint(topo).expect("topology has endpoints");
        let fm = DevId(fm_node.0);
        let initial = self.is_initial_discovery();

        trace.rss_start_kib = reset_peak_rss();
        let span = trace.open("fabric.new", Some(root));
        let mut config = fabric_config(topo, scenario);
        if !initial {
            config.turn_pool_capacity = MAX_POOL_BITS;
        }
        let mut fabric = Fabric::new(topo, config);
        fabric.set_event_limit(2_000_000_000);
        fabric.set_trace(scenario.trace.clone(), QUEUE_SAMPLE_PERIOD);
        trace.close(span, 0);

        let span = trace.open("fabric.bringup", Some(root));
        if initial {
            fabric.activate_all(SimDuration::ZERO);
        } else {
            for (id, _) in topo.nodes() {
                fabric.schedule_activate(DevId(id.0), SimDuration::ZERO);
            }
        }
        run_bringup(&mut fabric, scenario);
        trace.close(span, 0);
        trace.bringup_events = fabric.events_processed();
        trace.rss_fabric_kib = vm_kib("VmRSS:");
        trace.hwm_fabric_kib = vm_kib("VmHWM:");

        trace.rss_discovery_start_kib = reset_peak_rss();
        let clock = Rc::new(FmClock::default());
        let agent = FmAgent::new(fm_config(scenario, topo.node_count()));
        fabric.set_agent(
            fm,
            Box::new(TimedAgent {
                inner: agent,
                clock: Rc::clone(&clock),
            }),
        );
        let start = if initial {
            SimDuration::ZERO
        } else {
            SimDuration::from_us(1)
        };
        fabric.schedule_agent_timer(fm, start, TOKEN_START_DISCOVERY);
        // `Bench` keeps its own copy of the topology.
        let _bench_topo = (!initial).then(|| topo.clone());
        let span = trace.open("discovery", Some(root));
        trace.steps = if initial {
            run_to_idle(&mut fabric, &mut trace, &clock, span)
        } else {
            settle(&mut fabric, fm, topo, &mut trace, &clock, span)
        };
        trace.close(span, clock.ns.get());

        // `initial_discovery` reads its outputs before returning; the
        // `Bench` outputs are read after `Bench::start` returns.
        let initial_outcome = initial.then(|| Outcome {
            active: fabric.active_reachable(fm).len(),
            run: fabric
                .agent_as::<FmAgent>(fm)
                .and_then(FmAgent::last_run)
                .expect("the FM completed a discovery run")
                .clone(),
            fabric: None,
        });
        if !initial {
            let span = trace.open("harness.pi5_routes", Some(root));
            configure_pi5_routes(&mut fabric, fm);
            trace.close(span, 0);
        }
        trace.close(root, 0);
        trace.hwm_discovery_kib = vm_kib("VmHWM:");
        let outcome = initial_outcome.unwrap_or_else(|| Outcome::of_fabric(&fabric, fm, topo));
        trace.fm_ns = clock.ns.get();
        trace.fm_calls = clock.calls.get();
        trace.events_total = fabric.events_processed();
        trace.counters = *fabric.counters();
        trace.flow_latency_p99_us = summarize_traffic(&fabric, &scenario.traffic).latency_p99_us;
        (outcome, trace, fabric)
    }
}

/// What an entry point returned.
pub enum Ran {
    /// `Bench::start`'s bench, fabric and FM still live.
    Bench(Box<Bench>),
    /// `Scenario::initial_discovery`'s run and active-node count.
    Initial(Box<DiscoveryRun>, usize),
}

impl Ran {
    /// The run's deterministic outputs.
    pub fn outcome(&self, topo: &Topology) -> Outcome {
        match self {
            Ran::Bench(bench) => Outcome::of_fabric(&bench.fabric, bench.fm, topo),
            Ran::Initial(run, active) => Outcome {
                run: (**run).clone(),
                active: *active,
                fabric: None,
            },
        }
    }
}

/// Deterministic outputs of one discovery.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The FM's completed run.
    pub run: DiscoveryRun,
    /// Active devices reachable from the FM.
    pub active: usize,
    /// Fabric-side outputs, visible only through `Bench::start`.
    pub fabric: Option<FabricOutputs>,
}

/// Outputs read from a live fabric after `Bench::start`.
#[derive(Clone, Debug)]
pub struct FabricOutputs {
    /// Events processed over the whole run (`stress --json`'s
    /// `sim_events`).
    pub events: u64,
    /// Fabric counters.
    pub counters: FabricCounters,
    /// Devices in the FM's final database.
    pub db_devices: usize,
    /// Checksum of the canonical snapshot of the FM's database.
    pub db_checksum: u64,
    /// Database links that are not links of the topology.
    pub stray_links: usize,
}

impl Outcome {
    fn of_fabric(fabric: &Fabric, fm: DevId, topo: &Topology) -> Outcome {
        let agent = fabric.agent_as::<FmAgent>(fm).expect("FM installed");
        let run = agent.last_run().expect("a discovery completed").clone();
        let db = agent.db().expect("discovery completed");
        let stray_links = db
            .links()
            .filter(|&((a, pa), (b, pb))| {
                let peer = Attachment {
                    node: NodeId(dev_of_dsn(b).0),
                    port: pb,
                };
                topo.peer(NodeId(dev_of_dsn(a).0), pa) != Some(peer)
            })
            .count();
        Outcome {
            run,
            active: fabric.active_reachable(fm).len(),
            fabric: Some(FabricOutputs {
                events: fabric.events_processed(),
                counters: *fabric.counters(),
                db_devices: db.device_count(),
                db_checksum: asi_state::checksum_of(&asi_core::snapshot_db(db)),
                stray_links,
            }),
        }
    }

    /// Share of the topology's devices in the FM's final database.
    pub fn found_share(&self, topo: &Topology) -> f64 {
        self.run.devices_found as f64 / topo.node_count() as f64
    }

    /// Output checks: every device and link of the topology found (at
    /// most, under loss), every device activated, and a database that
    /// matches the run's counts and holds no link the topology lacks.
    pub fn check(&self, topo: &Topology, lossy: bool) -> Vec<String> {
        let mut errors = Vec::new();
        let (devices, links) = (topo.node_count(), topo.links().len());
        let (found, links_found) = (self.run.devices_found, self.run.links_found);
        let complete = found == devices && links_found == links;
        let bounded = found <= devices && links_found <= links;
        if !(complete || lossy && bounded) {
            errors.push(format!(
                "found {found} of {devices} devices and {links_found} of {links} links"
            ));
        }
        if self.active != devices {
            errors.push(format!("{} of {devices} devices active", self.active));
        }
        if let Some(f) = &self.fabric {
            if f.db_devices != found {
                errors.push(format!(
                    "database holds {} devices, run says {found}",
                    f.db_devices
                ));
            }
            if f.stray_links != 0 {
                errors.push(format!(
                    "{} database links are not in the topology",
                    f.stray_links
                ));
            }
        }
        errors
    }

    /// The deterministic outputs as JSON: counts, simulated times in
    /// picoseconds and digests of the full run and counter records.
    /// Equal signatures mean byte-identical outputs.
    pub fn signature(&self) -> Json {
        let r = &self.run;
        let mut sig = Json::object()
            .with("discovery_time_ps", r.discovery_time().as_ps())
            .with("requests", r.requests_sent)
            .with("responses", r.responses_received)
            .with("timeouts", r.timeouts)
            .with("retries", r.retries)
            .with("abandoned", r.abandoned)
            .with("peak_outstanding", r.peak_outstanding as u64)
            .with("devices_found", r.devices_found as u64)
            .with("links_found", r.links_found as u64)
            .with("active", self.active as u64)
            .with("run_digest", format!("{:016x}", digest(r)));
        if let Some(f) = &self.fabric {
            sig.set("events_total", f.events);
            sig.set("counters_digest", format!("{:016x}", digest(&f.counters)));
            sig.set("db_checksum", format!("{:016x}", f.db_checksum));
        }
        sig
    }
}

/// FNV-1a over a value's `Debug` rendering, streamed without building
/// the string.
pub fn digest(value: &impl fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

/// One traced interval: host nanoseconds since the trace began, the
/// enclosing span, and the time inside it spent in FM callbacks.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Part of the interval spent inside FM agent callbacks.
    pub fm_ns: u64,
}

/// Spans and counts of one traced run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    /// Spans in opening order.
    pub spans: Vec<Span>,
    /// Events processed by bring-up.
    pub bringup_events: u64,
    /// `Fabric::step` calls that processed an event during discovery.
    pub steps: u64,
    /// Whole-run events.
    pub events_total: u64,
    /// Host ns inside FM callbacks.
    pub fm_ns: u64,
    /// FM callbacks made.
    pub fm_calls: u64,
    /// Fabric counters at the end of the run.
    pub counters: FabricCounters,
    /// Simulated p99 data-packet latency, µs (0 without traffic).
    pub flow_latency_p99_us: f64,
    /// Resident KiB before `Fabric::new`.
    pub rss_start_kib: u64,
    /// Resident KiB after bring-up.
    pub rss_fabric_kib: u64,
    /// Peak resident KiB from `Fabric::new` through bring-up.
    pub hwm_fabric_kib: u64,
    /// Resident KiB when discovery starts.
    pub rss_discovery_start_kib: u64,
    /// Peak resident KiB from discovery start to the end of the run.
    pub hwm_discovery_kib: u64,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            bringup_events: 0,
            steps: 0,
            events_total: 0,
            fm_ns: 0,
            fm_calls: 0,
            counters: FabricCounters::default(),
            flow_latency_p99_us: 0.0,
            rss_start_kib: 0,
            rss_fabric_kib: 0,
            hwm_fabric_kib: 0,
            rss_discovery_start_kib: 0,
            hwm_discovery_kib: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            fm_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `i`, recording `fm_ns` host ns of FM callbacks inside it.
    fn close(&mut self, i: usize, fm_ns: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        span.fm_ns = fm_ns;
    }

    fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Host seconds in `Fabric::step` outside FM callbacks.
    pub fn step_self_s(&self) -> f64 {
        let (total, fm) = self
            .spans
            .iter()
            .filter(|s| s.name == "fabric.step")
            .fold((0, 0), |(t, f), s| (t + s.end_ns - s.start_ns, f + s.fm_ns));
        (total - fm) as f64 / 1e9
    }

    /// Share of the run's wall time that no timed phase covers.
    pub fn unaccounted_share(&self) -> f64 {
        let total = self.total_s("run");
        let phases = self.total_s("fabric.new")
            + self.total_s("fabric.bringup")
            + self.step_self_s()
            + self.fm_ns as f64 / 1e9
            + self.total_s("harness.pi5_routes");
        (total - phases) / total
    }

    /// Per-layer metrics, by name. `run` is the traced run's outcome.
    pub fn metrics(&self, run: &DiscoveryRun, devices: usize) -> Vec<(&'static str, f64)> {
        let c = &self.counters;
        let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mib = |kib: u64| kib as f64 / 1024.0;
        let peak_kib = self.hwm_fabric_kib.max(self.hwm_discovery_kib);
        vec![
            ("fabric.new_s", self.total_s("fabric.new")),
            ("fabric.bringup_s", self.total_s("fabric.bringup")),
            ("fabric.bringup_events", self.bringup_events as f64),
            ("fabric.step_self_s", self.step_self_s()),
            (
                "fabric.ns_per_event",
                per(self.step_self_s() * 1e9, self.steps as f64),
            ),
            ("fabric.injected", c.injected as f64),
            ("fabric.forwarded", c.forwarded as f64),
            ("fabric.delivered", c.delivered as f64),
            ("fabric.dropped", c.total_dropped() as f64),
            ("fabric.credit_stalls", c.credit_stalls as f64),
            ("fabric.data_queue_peak", c.data_queue_peak as f64),
            ("fabric.mgmt_queue_peak", c.mgmt_queue_peak as f64),
            (
                "fabric.flow_delivered_share",
                if c.flow_injected == 0 {
                    1.0
                } else {
                    per(c.flow_delivered as f64, c.flow_injected as f64)
                },
            ),
            ("fabric.flow_latency_p99_us", self.flow_latency_p99_us),
            ("sim.events", self.steps as f64),
            ("sim.events_total", self.events_total as f64),
            (
                "sim.events_per_request",
                per(self.steps as f64, run.requests_sent as f64),
            ),
            ("core.fm_self_s", self.fm_ns as f64 / 1e9),
            ("core.fm_calls", self.fm_calls as f64),
            (
                "core.fm_ns_per_call",
                per(self.fm_ns as f64, self.fm_calls as f64),
            ),
            ("core.requests", run.requests_sent as f64),
            ("core.responses", run.responses_received as f64),
            (
                "core.response_share",
                per(run.responses_received as f64, run.requests_sent as f64),
            ),
            ("core.timeouts", run.timeouts as f64),
            ("core.retries", run.retries as f64),
            ("core.abandoned", run.abandoned as f64),
            ("core.peak_outstanding", run.peak_outstanding as f64),
            ("core.fm_busy_share", run.fm_utilization()),
            ("harness.pi5_routes_s", self.total_s("harness.pi5_routes")),
            (
                "mem.fabric_mb",
                mib(self.rss_fabric_kib.saturating_sub(self.rss_start_kib)),
            ),
            (
                "mem.discovery_mb",
                mib(self
                    .hwm_discovery_kib
                    .saturating_sub(self.rss_discovery_start_kib)),
            ),
            ("mem.kb_per_device", per(peak_kib as f64, devices as f64)),
            ("trace.total_s", self.total_s("run")),
            ("trace.unaccounted_share", self.unaccounted_share()),
        ]
    }

    /// The spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut line = Json::object()
                .with("id", i as u64)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("fm_ns", s.fm_ns);
            if let Some(p) = s.parent {
                line.set("parent", p as u64);
            }
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }
}

/// Host time and calls inside the FM agent's callbacks.
#[derive(Default)]
struct FmClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl FmClock {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }
}

/// The FM agent behind a callback timer. `as_any` hands out the inner
/// agent, so `Fabric::agent_as::<FmAgent>` still finds it.
struct TimedAgent {
    inner: FmAgent,
    clock: Rc<FmClock>,
}

impl FabricAgent for TimedAgent {
    fn processing_time(&mut self, packet: &Packet) -> SimDuration {
        self.clock.time(|| self.inner.processing_time(packet))
    }

    fn on_packet(&mut self, ctx: &mut AgentCtx, packet: Packet) {
        self.clock.time(|| self.inner.on_packet(ctx, packet))
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
        self.clock.time(|| self.inner.on_timer(ctx, token))
    }

    fn on_port_event(&mut self, ctx: &mut AgentCtx, port: u8, event: PortEvent) {
        self.clock
            .time(|| self.inner.on_port_event(ctx, port, event))
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Times `Fabric::step` calls in batches of [`STEP_BATCH`] under
/// `parent`, one `fabric.step` span per batch.
struct StepBatches {
    span: usize,
    fm_at_open: u64,
    steps: u32,
    parent: usize,
}

impl StepBatches {
    fn open(trace: &mut Trace, clock: &FmClock, parent: usize) -> StepBatches {
        StepBatches {
            span: trace.open("fabric.step", Some(parent)),
            fm_at_open: clock.ns.get(),
            steps: 0,
            parent,
        }
    }

    fn stepped(&mut self, trace: &mut Trace, clock: &FmClock) {
        self.steps += 1;
        if self.steps == STEP_BATCH {
            self.close(trace, clock);
            *self = StepBatches::open(trace, clock, self.parent);
        }
    }

    fn close(&self, trace: &mut Trace, clock: &FmClock) {
        trace.close(self.span, clock.ns.get() - self.fm_at_open);
    }
}

/// `Scenario::initial_discovery`'s `run_until_idle`, batched.
fn run_to_idle(fabric: &mut Fabric, trace: &mut Trace, clock: &FmClock, parent: usize) -> u64 {
    let mut batches = StepBatches::open(trace, clock, parent);
    let mut steps = 0;
    while fabric.step() {
        steps += 1;
        batches.stepped(trace, clock);
    }
    batches.close(trace, clock);
    steps
}

/// `Bench::start`'s settle loop for one run, batched.
fn settle(
    fabric: &mut Fabric,
    fm: DevId,
    topo: &Topology,
    trace: &mut Trace,
    clock: &FmClock,
    parent: usize,
) -> u64 {
    let budget = SimDuration::from_ms(30_000 + 5 * topo.node_count() as u64);
    let deadline = fabric.now() + budget;
    let quiet = SimDuration::from_us(500);
    let mut quiet_since: Option<SimTime> = None;
    let mut batches = StepBatches::open(trace, clock, parent);
    let mut steps = 0;
    loop {
        let ready = fabric
            .agent_as::<FmAgent>(fm)
            .is_some_and(|a| !a.runs.is_empty() && !a.discovering());
        if ready {
            let since = *quiet_since.get_or_insert(fabric.now());
            if fabric.now().saturating_since(since) >= quiet {
                break;
            }
        } else {
            quiet_since = None;
        }
        if !fabric.step() {
            assert!(ready, "fabric went idle before discovery finished");
            break;
        }
        steps += 1;
        batches.stepped(trace, clock);
        assert!(
            fabric.now() < deadline,
            "scenario did not settle within the deadline"
        );
    }
    batches.close(trace, clock);
    steps
}

/// `Bench::configure_pi5_routes`: one reversed-tree BFS from the FM's
/// database, then a PI-5 route per device.
fn configure_pi5_routes(fabric: &mut Fabric, fm: DevId) {
    let routes: Vec<(u64, u8, asi_proto::TurnPool)> = {
        let db = fabric
            .agent_as::<FmAgent>(fm)
            .and_then(FmAgent::db)
            .expect("discovery completed");
        let host = db.host_dsn();
        let mut to_host = db.routes_to(host, MAX_POOL_BITS);
        db.devices()
            .filter(|d| d.info.dsn != host)
            .filter_map(|d| {
                to_host
                    .remove(&d.info.dsn)
                    .and_then(Result::ok)
                    .map(|r| (d.info.dsn, r.egress, r.pool))
            })
            .collect()
    };
    for (dsn, egress, pool) in routes {
        fabric.set_fm_route(dev_of_dsn(dsn), FmRoute { egress, pool });
    }
}

/// The fabric configuration `Scenario` derives for `topo`: the FM's
/// endpoint is exempt from a live traffic plan.
fn fabric_config(topo: &Topology, s: &Scenario) -> FabricConfig {
    let mut traffic = s.traffic.clone();
    if !traffic.is_inert() {
        if let Some(fm) = asi_topo::default_fm_endpoint(topo) {
            if !traffic.exempt.contains(&fm.0) {
                traffic.exempt.push(fm.0);
            }
        }
    }
    FabricConfig {
        device_factor: s.device_factor,
        flow_control: s.flow_control,
        faults: s.faults.clone(),
        churn: s.churn.clone(),
        traffic,
        seed: s.seed,
        kernel: s.kernel,
        ..FabricConfig::default()
    }
}

/// The FM configuration `Scenario` derives for `devices` nodes, with
/// the base request timeout scaled per 128 devices.
fn fm_config(s: &Scenario, devices: usize) -> FmConfig {
    FmConfig::new(s.algorithm)
        .with_timing(FmTiming::default().with_factor(s.fm_factor))
        .with_partial_assimilation(s.partial_assimilation)
        .with_retry(s.retry)
        .with_request_timeout(s.request_timeout * (devices as u64).div_ceil(128).max(1))
        .with_trace(s.trace.clone())
}

/// The harness's bring-up drain: stop at the first scheduled fault or
/// at half the traffic window's start, else run until idle.
fn run_bringup(fabric: &mut Fabric, s: &Scenario) {
    let first_fault = s.faults.events.iter().map(|e| e.at).min();
    let first_traffic = (!s.traffic.is_inert()).then_some(s.traffic.start / 2);
    match first_fault.into_iter().chain(first_traffic).min() {
        Some(first) => fabric.run_until(SimTime::ZERO + first),
        None => fabric.run_until_idle(),
    }
}

/// A `/proc/self/status` field in KiB (0 where unavailable).
pub fn vm_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Resets the process's peak resident size to its current size, so a
/// later `VmHWM` belongs to what runs after this call. Returns the
/// current resident KiB.
pub fn reset_peak_rss() -> u64 {
    // Linux: writing 5 to clear_refs resets VmHWM. Where that is not
    // possible the peak keeps covering the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    vm_kib("VmRSS:")
}
