//! The traced replica must be the program: on a small instance of each
//! workload's shape it reproduces the real entry point's deterministic
//! outputs byte for byte, and its trace accounts for every event.

use asi_fabric::{FaultPlan, LossModel};
use asi_harness::Scenario;
use perfbench::{Kind, Outcome, Shape, Trace, Workload, DEFAULT_SEED};

fn assert_replica(kind: Kind, shape: Shape, seed: u64) -> Trace {
    let workload = Workload { kind, shape };
    assert_scenario_replica(workload, &workload.scenario(seed)).1
}

fn assert_scenario_replica(workload: Workload, scenario: &Scenario) -> (Outcome, Trace) {
    let scenario = scenario.clone();
    let (topo, _, _) = workload.setup();
    let real = workload.run(&topo, &scenario).outcome(&topo);
    let (traced, trace, _) = workload.run_traced(&topo, &scenario);

    assert_eq!(format!("{real:#?}"), format!("{traced:#?}"), "{workload:?}");
    assert_eq!(
        real.signature().to_string_compact(),
        traced.signature().to_string_compact()
    );
    let lossy = workload.is_initial_discovery();
    assert_eq!(real.check(&topo, lossy), Vec::<String>::new());
    assert_eq!(trace.bringup_events + trace.steps, trace.events_total);
    if let Some(f) = &real.fabric {
        assert_eq!(f.events, trace.events_total);
        assert_eq!(f.counters, trace.counters);
    }
    assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(trace.unaccounted_share() < 1.0);
    (traced, trace)
}

#[test]
fn clean_parallel_dragonfly_replica() {
    assert_replica(Kind::Cold, Shape::Dragonfly(2, 3), DEFAULT_SEED);
}

#[test]
fn serial_packet_mesh_replica() {
    let trace = assert_replica(Kind::Serial, Shape::Mesh(4, 4), DEFAULT_SEED);
    assert!(trace.spans.iter().any(|s| s.name == "harness.pi5_routes"));
}

#[test]
fn lossy_dragonfly_replica() {
    for seed in [DEFAULT_SEED, 1, 2] {
        let trace = assert_replica(Kind::Lossy, Shape::Dragonfly(2, 3), seed);
        assert!(
            trace.counters.total_dropped() > 0,
            "seed {seed} lost nothing"
        );
    }
}

#[test]
fn heavy_loss_replica_exhausts_retries() {
    let workload = Workload {
        kind: Kind::Lossy,
        shape: Shape::Dragonfly(2, 3),
    };
    let mut scenario = workload.scenario(DEFAULT_SEED);
    scenario.faults = FaultPlan::none().with_loss(LossModel::uniform(0.2));
    let (outcome, trace) = assert_scenario_replica(workload, &scenario);
    assert!(trace.counters.total_dropped() > 0);
    assert!(outcome.run.abandoned > 0, "no request ran out of retries");
}

#[test]
fn loaded_mesh_replica() {
    let trace = assert_replica(Kind::Loaded, Shape::Mesh(4, 4), DEFAULT_SEED);
    assert!(trace.counters.flow_injected > 0);
    assert!(trace.flow_latency_p99_us > 0.0);
}

#[test]
fn check_rejects_a_run_of_another_fabric() {
    let small = Workload {
        kind: Kind::Cold,
        shape: Shape::Mesh(4, 4),
    };
    let (topo, _, _) = small.setup();
    let outcome = small
        .run(&topo, &small.scenario(DEFAULT_SEED))
        .outcome(&topo);
    let (larger, _, _) = Workload {
        shape: Shape::Mesh(4, 5),
        ..small
    }
    .setup();
    assert!(!outcome.check(&larger, false).is_empty());
    assert!(!outcome.check(&larger, true).is_empty());
}

#[test]
fn workloads_resolve_by_name() {
    for name in perfbench::WORKLOADS {
        assert!(Workload::named(name).is_some(), "{name}");
    }
    assert!(Workload::named("nope").is_none());
}
