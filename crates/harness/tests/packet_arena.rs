//! Property test for the packet-arena leak gate: every packet payload
//! the fabric allocates is freed at its single consumption point, so
//! once a run drains `Fabric::packet_arena_live()` is back to 0 — for
//! any seed and algorithm, on clean, lossy (drop, corrupt, duplicate)
//! and churned plans.

use asi_harness::prelude::*;
use asi_sim::SimDuration;
use asi_topo::mesh;
use proptest::prelude::*;

/// A fault plan that drops, corrupts and duplicates live packets.
fn lossy_plan() -> FaultPlan {
    FaultPlan::none()
        .with_loss(LossModel::uniform(0.02))
        .with_corruption(0.05)
        .with_duplication(0.05)
}

/// A live churn plan: link flaps plus device remove/re-add streams.
fn churny_plan(seed: u64) -> ChurnPlan {
    ChurnPlan::none()
        .with_link_flaps(1_500.0, SimDuration::from_us(200))
        .with_device_churn(300.0, SimDuration::from_ms(1))
        .with_window(SimDuration::from_ms(6), SimDuration::from_ms(4))
        .with_seed(seed)
        .with_exempt(default_churn_exempt(&mesh(3, 3).unwrap().topology))
}

/// Brings up the 3x3 mesh under the given plans, drains the fabric and
/// returns how many packet payloads are still live.
fn live_after_drain(seed: u64, algorithm: Algorithm, faults: FaultPlan, churn: ChurnPlan) -> usize {
    let scenario = Scenario::new(algorithm)
        .with_seed(seed)
        .with_faults(faults)
        .with_churn(churn);
    let mut bench = Bench::start(&mesh(3, 3).unwrap().topology, &scenario, &[]);
    bench.fabric.run_until_idle();
    bench.fabric.packet_arena_live()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn drained_runs_leave_no_live_packets(
        seed in 0u64..1_000_000,
        alg_idx in 0usize..3,
    ) {
        let algorithm = Algorithm::all()[alg_idx];
        for (plan, faults, churn) in [
            ("clean", FaultPlan::none(), ChurnPlan::none()),
            ("lossy", lossy_plan(), ChurnPlan::none()),
            ("churned", FaultPlan::none(), churny_plan(seed)),
        ] {
            prop_assert_eq!(
                live_after_drain(seed, algorithm, faults, churn),
                0,
                "packet arena leaked: {} plan, {}", plan, algorithm.name()
            );
        }
    }
}
