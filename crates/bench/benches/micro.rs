//! Micro-benchmarks of the substrate hot paths: timing wheel, simulator, RNG, turn
//! pool, header/packet codecs, topology generation, path computation
//! and the data-plane traffic machinery.

use asi_core::Algorithm;
use asi_fabric::TrafficPlan;
use asi_harness::{Bench, Scenario};
use asi_proto::{
    turn_for, turn_width, CapabilityAddr, Packet, Payload, Pi4, ProtocolInterface, RouteHeader,
    TurnCursor, TurnPool, MANAGEMENT_TC, MAX_POOL_BITS,
};
use asi_sim::{
    wheel::TimingWheel, Arena, EventKey, SimDuration, SimRng, SimTime, Simulator, EXTERNAL_RANK,
};
use asi_topo::{mesh, routes_from, Table1};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

fn bench_wheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/wheel");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("push_pop_10k", |b| {
        let mut rng = SimRng::new(3);
        let keys: Vec<EventKey> = (0..10_000u32)
            .map(|seq| EventKey {
                time: SimTime::from_ps(rng.gen_below(1_000_000)),
                origin: EXTERNAL_RANK,
                seq,
            })
            .collect();
        b.iter(|| {
            let mut w = TimingWheel::new();
            for &k in &keys {
                w.push(k, k.seq);
            }
            let mut acc = 0u32;
            while let Some((_, v)) = w.pop() {
                acc = acc.wrapping_add(v);
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

fn bench_arena(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/arena");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("alloc_free_10k", |b| {
        b.iter(|| {
            let mut a = Arena::with_capacity(64);
            let mut handles = Vec::with_capacity(64);
            let mut acc = 0u64;
            // In-flight window of 64 payloads, recycled through the free
            // list — the fabric's packet traffic pattern.
            for i in 0..10_000u64 {
                handles.push(a.alloc([i; 8]));
                if handles.len() == 64 {
                    for h in handles.drain(..) {
                        acc = acc.wrapping_add(a.take(h)[0]);
                    }
                }
            }
            std::hint::black_box((acc, a.live()))
        })
    });
    group.finish();
}

/// Drives the simulator through the fabric's dispatch pattern: 16 ranks,
/// each dispatch scheduling a follow-on for the next rank one propagation
/// delay (40 ps) ahead, until 10 000 events have fired.
fn kernel_cascade_10k() -> u64 {
    let mut sim = Simulator::new();
    for r in 0..16u32 {
        sim.schedule_event(SimTime::from_ps(u64::from(r) + 1), r, r);
    }
    let mut n = 0u64;
    while let Some(f) = sim.next_event() {
        n += 1;
        if n < 10_000 {
            let next = (f.event + 1) % 16;
            let at = sim.now() + SimDuration::from_ps(40);
            sim.schedule_event(at, next, next);
        }
        sim.finish_dispatch();
    }
    n
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/kernel");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("serial_cascade_10k", |b| {
        b.iter(|| std::hint::black_box(kernel_cascade_10k()))
    });
    group.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/rng");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("next_u64_1k", |b| {
        let mut rng = SimRng::new(2);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

fn bench_turn_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/turn_pool");
    group.bench_function("encode_walk_14_hops", |b| {
        b.iter(|| {
            let mut pool = TurnPool::with_capacity(MAX_POOL_BITS);
            for i in 0..14u8 {
                pool.push_turn(turn_for(i % 16, (i + 5) % 16, 16), turn_width(16))
                    .unwrap();
            }
            let mut cursor = TurnCursor::start(&pool, asi_proto::Direction::Forward);
            let mut acc = 0u32;
            while !cursor.exhausted(&pool) {
                let (t, next) = cursor.take_turn(&pool, 4).unwrap();
                acc += u32::from(t);
                cursor = next;
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let mut pool = TurnPool::with_capacity(MAX_POOL_BITS);
    for i in 0..10u8 {
        pool.push_turn(i % 16, 4).unwrap();
    }
    let header = RouteHeader::forward(ProtocolInterface::DeviceManagement, MANAGEMENT_TC, pool);
    let packet = Packet::new(
        header,
        Payload::Pi4(Pi4::ReadCompletion {
            req_id: 7,
            data: vec![0xDEAD_BEEF; 8],
        }),
    );
    let bytes = packet.encode();
    let mut group = c.benchmark_group("micro/codec");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("packet_encode", |b| {
        b.iter(|| std::hint::black_box(packet.encode()))
    });
    group.bench_function("packet_decode", |b| {
        b.iter(|| std::hint::black_box(Packet::decode(&bytes).unwrap()))
    });
    group.bench_function("read_request_encode", |b| {
        let req = Pi4::ReadRequest {
            req_id: 1,
            addr: CapabilityAddr::baseline(6),
            dwords: 8,
        };
        b.iter(|| {
            let mut out = Vec::with_capacity(16);
            req.encode(&mut out);
            std::hint::black_box(out)
        })
    });
    group.finish();
}

fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/topology");
    group.bench_function("build_8x8_mesh", |b| {
        b.iter(|| std::hint::black_box(mesh(8, 8).unwrap().topology.node_count()))
    });
    group.bench_function("build_4port_4tree", |b| {
        b.iter(|| std::hint::black_box(Table1::FatTree(4, 4).build().node_count()))
    });
    group.bench_function("build_dragonfly_2_3", |b| {
        b.iter(|| std::hint::black_box(Table1::Dragonfly(2, 3).build().node_count()))
    });
    group.bench_function("build_designed_1024ep", |b| {
        b.iter(|| std::hint::black_box(Table1::Designed(1024).build().node_count()))
    });
    let g = mesh(8, 8).unwrap();
    let src = g.endpoint_at(0, 0);
    group.bench_function("bfs_routes_8x8_mesh", |b| {
        b.iter(|| std::hint::black_box(routes_from(&g.topology, src).len()))
    });
    group.finish();
}

fn bench_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/traffic");
    let g = mesh(3, 3).unwrap();
    let plan = TrafficPlan::none()
        .with_unicast(0.4, 512)
        .with_multicast(4, 0.05)
        .with_window(SimDuration::ZERO, SimDuration::from_ms(4));
    // Schedule generation: flow selection, spanning-tree group masks,
    // and the sorted Poisson shot schedule.
    group.bench_function("materialize_3x3_mesh", |b| {
        b.iter(|| {
            std::hint::black_box(
                plan.materialize(&g.topology, SimDuration::from_ns(4))
                    .shots
                    .len(),
            )
        })
    });
    // The injection/delivery hot path end to end: a full discovery on
    // the loaded 3x3 mesh, data packets contending with management.
    group.bench_function("loaded_discovery_3x3_mesh", |b| {
        let scenario = Scenario::new(Algorithm::Parallel).with_traffic_plan(plan.clone());
        b.iter(|| {
            let bench = Bench::start(&g.topology, &scenario, &[]);
            std::hint::black_box(bench.fabric.counters().flow_delivered)
        })
    });
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = bench_wheel, bench_arena, bench_kernel, bench_rng,
        bench_turn_pool, bench_codecs, bench_topology, bench_traffic
}
criterion_main!(micro);
