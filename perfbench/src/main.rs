//! One repetition of a benchmark workload, in a fresh process so its
//! peak resident size belongs to it alone.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--traced] [--spans <path>]
//! ```
//!
//! Prints one JSON object: every set-up's time, the entry point's host
//! seconds and peak resident MiB (untraced) or the per-layer metrics
//! (`--traced`), the deterministic output signature and any output-check
//! errors. Exits 1 when a check fails, 2 on bad arguments.

use std::any::Any;
use std::time::Instant;

use asi_harness::Json;
use perfbench::{reset_peak_rss, vm_kib, Workload, DEFAULT_SEED, MAX_UNACCOUNTED_SHARE, WORKLOADS};

/// After the run, set-up is repeated until it has taken this long (and
/// at least [`MIN_SETUPS`] times in all), so its median is steady on
/// small fabrics.
const SETUP_BUDGET_S: f64 = 0.1;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed <n>] [--traced] [--spans <path>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| fail(&format!("{name} needs a value")))
    })
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = arg_value(&args, "--workload").unwrap_or_else(|| fail("--workload is required"));
    let workload =
        Workload::named(&name).unwrap_or_else(|| fail(&format!("unknown workload {name:?}")));
    let seed = match arg_value(&args, "--seed") {
        Some(s) => {
            parse_seed(&s).unwrap_or_else(|| fail(&format!("--seed {s:?} is not an integer")))
        }
        None => DEFAULT_SEED,
    };
    let traced = args.iter().any(|a| a == "--traced");
    let spans_path = arg_value(&args, "--spans");

    let (topo, build_s, validate_s) = workload.setup();
    let (mut builds, mut validates) = (vec![build_s], vec![validate_s]);
    let scenario = workload.scenario(seed);
    let lossy = workload.is_initial_discovery();

    let mut out = Json::object()
        .with("workload", name.as_str())
        .with("seed", seed)
        .with("devices", topo.node_count() as u64);
    // The run's state stays alive to the end, so the set-ups after it
    // build on fresh pages like the first one did.
    let (outcome, errors, layers, _live) = if traced {
        let (outcome, trace, fabric) = workload.run_traced(&topo, &scenario);
        if let Some(path) = spans_path {
            std::fs::write(&path, trace.spans_jsonl())
                .unwrap_or_else(|e| fail(&format!("cannot write spans to {path}: {e}")));
        }
        let mut errors = outcome.check(&topo, lossy);
        let unaccounted = trace.unaccounted_share();
        if unaccounted.abs() > MAX_UNACCOUNTED_SHARE {
            errors.push(format!(
                "timed phases leave {:.1}% of the traced run unaccounted (limit {:.0}%)",
                unaccounted * 100.0,
                MAX_UNACCOUNTED_SHARE * 100.0
            ));
        }
        let layers = trace.metrics(&outcome.run, topo.node_count());
        (
            outcome,
            errors,
            Some(layers),
            Box::new(fabric) as Box<dyn Any>,
        )
    } else {
        reset_peak_rss();
        let t = Instant::now();
        let ran = workload.run(&topo, &scenario);
        let run_s = t.elapsed().as_secs_f64();
        out.set("run_s", run_s);
        out.set("peak_rss_mb", vm_kib("VmHWM:") as f64 / 1024.0);
        let outcome = ran.outcome(&topo);
        let errors = outcome.check(&topo, lossy);
        (outcome, errors, None, Box::new(ran) as Box<dyn Any>)
    };

    // More set-ups, every topology kept, so each one is a cold build.
    let mut kept = Vec::new();
    let started = Instant::now();
    while builds.len() < MIN_SETUPS
        || builds.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S
    {
        let (topo, build_s, validate_s) = workload.setup();
        builds.push(build_s);
        validates.push(validate_s);
        kept.push(topo);
    }
    let setups: Vec<Json> = builds
        .iter()
        .zip(&validates)
        .map(|(b, v)| Json::from(b + v))
        .collect();
    out.set("setup_s", setups);
    if let Some(metrics) = layers {
        let mut layers = Json::object()
            .with("topo.build_s", median(&mut builds))
            .with("topo.validate_s", median(&mut validates));
        for (metric, value) in metrics {
            layers.set(metric, value);
        }
        out.set("layers", layers);
    }
    out.set(
        "sim_discovery_s",
        outcome.run.discovery_time().as_secs_f64(),
    );
    out.set("device_found_share", outcome.found_share(&topo));
    out.set("signature", outcome.signature());
    out.set(
        "errors",
        errors
            .iter()
            .map(|e| Json::from(e.as_str()))
            .collect::<Vec<_>>(),
    );
    println!("{}", out.to_string_compact());
    for e in &errors {
        eprintln!("perfbench {name}: {e}");
    }
    // Exit without tearing the fabric down: the OS reclaims it faster.
    std::process::exit(i32::from(!errors.is_empty()));
}
