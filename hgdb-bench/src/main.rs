//! The hgdb benchmark: three workloads on the rv32 core compiled in
//! debug mode — `suite_run`, `ide_session` and `trace_replay` — with
//! every output checked against the ISS, per-operation failure counts,
//! and a traced run that splits the time by layer. See README.md.
//!
//! ```text
//! hgdb-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced).

mod check;
mod dbg;
mod design;
mod ide;
mod inputs;
mod live;
mod oracle;
mod replay;
mod round;
mod stats;
mod trace;

use std::path::Path;
use std::time::{Duration, Instant};

use check::{Check, Checker};
use inputs::{Inputs, Workload};
use round::{round, Plan, Tally};
use stats::{median, tail, Ops};
use trace::{Analysis, Plain, Traced};

/// Settings that change the engine, the checkpoint cadence, or inject
/// panics: a run with any of them set would not measure the defaults.
const PINNED: [&str; 4] = [
    "SIM_WORKERS",
    "HGDB_CHECKPOINT_INTERVAL",
    "HGDB_CHECKPOINT_BYTES",
    "HGDB_FAULT_PLAN",
];

const USAGE: &str = "usage: hgdb-bench --workload <suite_run|ide_session|trace_replay> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 120)),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hgdb-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(var) = PINNED.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "hgdb-bench: refusing to run with {var} set: it changes the engine, the \
             checkpoint cadence or injects faults; unset it to measure the defaults"
        );
        std::process::exit(2);
    }
    let sim = rtl_sim::SimConfig::default();
    let ring = hgdb::CheckpointConfig::from_env();
    println!(
        "defaults in force: sim workers {}, checkpoint interval {} cycles, checkpoint byte cap {}",
        sim.workers, ring.interval, ring.max_bytes
    );
    if pin_mmap_threshold() {
        println!("malloc mmap threshold pinned at {MMAP_THRESHOLD} bytes");
    } else {
        println!("malloc mmap threshold could not be pinned: peak_rss_mb may vary from run to run");
    }
    run(&args);
}

/// glibc's initial mmap threshold.
const MMAP_THRESHOLD: i32 = 128 * 1024;

/// Pins the allocator's mmap threshold at glibc's initial default, so
/// that `peak_rss_mb` does not depend on thread scheduling. Left to
/// itself, glibc raises the threshold the first time a block above it is
/// freed; blocks that size (the ~265 KB checkpoint snapshots, trace
/// buffers) then stay in the arena of whichever thread allocated them,
/// and the same ide_session seed peaked at 8.3 MB in one run and 10 MB
/// in the next. Called before any other thread exists.
fn pin_mmap_threshold() -> bool {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two ints and only sets allocator
    // parameters; no other thread is allocating yet.
    unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 }
}

/// Feeds the checker one wrong expectation per check kind, through a
/// full miniature round, and confirms that each is caught; a clean
/// round must pass every check.
fn self_test() -> Result<(), String> {
    let mini = |kind: Option<Check>| {
        check::sabotage(kind);
        let plan = Plan::new(Inputs::self_test());
        let ck = Checker::default();
        let mut ops = Ops::default();
        round::<Plain>(&plan, &ck, &mut ops, &mut Tally::default(), false);
        let consumed = check::sabotage_consumed();
        check::sabotage(None);
        (ck, ops, consumed)
    };
    let (clean, clean_ops, _) = mini(None);
    if let Some((kind, what)) = clean.failures().first() {
        return Err(format!("clean round fails {kind:?}: {what}"));
    }
    let base_failed = clean_ops.totals().1;
    for kind in Check::ALL {
        let (ck, ops, consumed) = mini(Some(kind));
        if !consumed {
            return Err(format!(
                "{kind:?}: the round formed no expectation of this kind"
            ));
        }
        // A wrong landing counts the operation as failed, not the run
        // as wrong.
        let caught = if kind == Check::ReverseLands {
            ops.totals().1 > base_failed
        } else {
            ck.failures().iter().any(|(k, _)| *k == kind)
        };
        if !caught {
            return Err(format!("{kind:?}: a wrong expectation went unnoticed"));
        }
    }
    Ok(())
}

fn run(args: &Args) {
    let plan = Plan::new(Inputs::new(args.workload, args.seed));
    // Resident before the first round: the binary's code, and as
    // anonymous memory the plan with its ISS expectations, a share of
    // `peak_rss_mb` that is not the program's.
    let own_mb = (status_mb("VmRSS"), status_mb("RssAnon"));
    println!(
        "workload {} seed {} seconds {} traced {}: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.traced,
        plan.describe()
    );
    let ck = Checker::default();
    let mut ops = Ops::default();
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let deadline = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while plain.rounds == 0 || started.elapsed() < deadline {
        round::<Plain>(&plan, &ck, &mut ops, &mut plain, false);
        if args.traced {
            trace::set_enabled(true);
            round::<Traced>(&plan, &ck, &mut ops, &mut traced, true);
            trace::set_enabled(false);
        }
    }
    print!("{}", ops.table());
    let failures = ck.failures();
    for (kind, what) in failures.iter().take(20) {
        println!("CHECK FAILED {kind:?}: {what}");
    }
    println!(
        "checks: {} passed, {} failed; rounds {}",
        ck.passed(),
        failures.len(),
        plain.rounds
    );
    let metrics = if args.traced {
        layer_metrics(&plan, args, &plain, &traced)
    } else {
        end_to_end(args.workload, &plain, own_mb)
    };
    // The self-test runs once the workload's peak memory has been read,
    // so its own designs and expectations do not count in it.
    let self_test = self_test();
    match &self_test {
        Ok(()) => println!(
            "self-test: each of the {} check kinds fails on a wrong expectation",
            Check::ALL.len()
        ),
        Err(e) => println!("self-test FAILED: {e}"),
    }
    for m in &metrics {
        println!("{:<28} {:>16.6} {:<9} {}", m.name, m.value, m.unit, m.note);
    }
    let (attempted, failed) = ops.totals();
    let json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        self_test.is_ok() && failures.is_empty(),
        json.join(", ")
    );
}

/// A finite JSON number (a metric that could not be measured reads 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: String::new(),
    }
}

/// A latency: its median, with the tail and sample count beside it.
fn latency(name: &'static str, samples: &[f64]) -> Metric {
    let note = match tail(samples) {
        Some((p, v)) => format!("p{p} {v:.4} ms, n={}", samples.len()),
        None => format!("n={}", samples.len()),
    };
    Metric {
        name,
        unit: "ms",
        value: median(samples),
        note,
    }
}

fn end_to_end(workload: Workload, t: &Tally, own_mb: (f64, f64)) -> Vec<Metric> {
    // The trace workload's reverse operations are the trace's; the
    // others' are the live session's.
    let (rs, rc) = if workload == Workload::TraceReplay {
        (&t.trace.reverse_step_ms, &t.trace.reverse_continue_ms)
    } else {
        (&t.ide.reverse_step_ms, &t.ide.reverse_continue_ms)
    };
    let mut setup = metric("setup_s", "s", median(&t.setup_s));
    setup.note = format!("n={}", t.setup_s.len());
    let mut peak = metric("peak_rss_mb", "MB", status_mb("VmHWM"));
    peak.note = format!(
        "{:.1} MB resident before the first round, {:.1} MB of it anonymous",
        own_mb.0, own_mb.1
    );
    vec![
        setup,
        peak,
        metric("sim_cycles_per_s", "cycles/s", median(&t.sim_rate)),
        metric("armed_cycles_per_s", "cycles/s", median(&t.armed_rate)),
        latency("continue_ms", &t.ide.continue_ms),
        latency("step_ms", &t.ide.step_ms),
        latency("reverse_step_ms", rs),
        latency("reverse_continue_ms", rc),
        latency("eval_ms", &t.ide.eval_ms),
        latency("frames_ms", &t.ide.frames_ms),
        metric(
            "inspect_requests_per_s",
            "req/s",
            median(&t.ide.inspect_rate),
        ),
        metric("record_cycles_per_s", "cycles/s", median(&t.record_rate)),
        metric("parse_mb_per_s", "MB/s", median(&t.parse_rate)),
        metric("replay_cycles_per_s", "cycles/s", median(&t.replay_rate)),
    ]
}

/// Per-layer self times and counts from the traced rounds' spans.
fn layer_metrics(plan: &Plan, args: &Args, plain: &Tally, traced: &Tally) -> Vec<Metric> {
    let an = Analysis::new(trace::take_spans());
    let rounds = traced.rounds.max(1) as f64;
    let ms = |name| median(&an.dur_ns(name)) / 1e6;
    let us_self = |name| median(&an.self_ns(name)) / 1e3;
    let per = |(count, ns): (u64, u64)| ns as f64 / count.max(1) as f64;
    let everywhere = |child| an.children(ALL_PARENTS, child);
    let armed = ["runtime.armed_continue"];
    let reverse = ["runtime.reverse_step", "runtime.reverse_continue"];
    let (armed_steps, _) = an.children(&armed, "sim.step");
    let (bare_steps, _) = an.children(&["runtime.bare_run"], "sim.step");
    let (reverse_steps, _) = an.children(&reverse, "sim.step");
    let moved_back: f64 = reverse.iter().flat_map(|n| an.counts(n)).sum();
    let stop_bearing =
        |names: [&str; 2]| -> Vec<f64> { names.iter().flat_map(|n| an.dur_ns(n)).collect() };
    let encode = stop_bearing(["protocol.encode_stop", "protocol.encode_frames"]);
    let decode = stop_bearing(["protocol.decode_stop", "protocol.decode_frames"]);
    let overhead = (median(&traced.round_s) / median(&plain.round_s) - 1.0) * 100.0;
    let metrics = vec![
        metric("hgf.elaborate_ms", "ms", ms("hgf.elaborate")),
        metric("ir.compile_ms", "ms", ms("ir.compile")),
        metric("symtab.build_ms", "ms", ms("symtab.build")),
        metric("sim.build_ms", "ms", ms("sim.build")),
        metric("runtime.attach_ms", "ms", ms("runtime.attach")),
        metric("symtab.bytes", "bytes", plan.symtab_bytes as f64),
        metric("sim.step_ns", "ns", per(everywhere("sim.step"))),
        metric(
            "sim.defs_per_cycle",
            "count",
            traced.defs as f64 / traced.defs_cycles.max(1) as f64,
        ),
        metric(
            "sim.reads_per_cycle",
            "count",
            an.children(&armed, "sim.read").0 as f64 / armed_steps.max(1) as f64,
        ),
        metric("sim.read_ns", "ns", per(everywhere("sim.read"))),
        metric(
            "sim.snapshots",
            "count",
            everywhere("sim.snapshot").0 as f64 / rounds,
        ),
        metric(
            "sim.snapshot_us",
            "us",
            per(everywhere("sim.snapshot")) / 1e3,
        ),
        metric(
            "sim.restores",
            "count",
            everywhere("sim.restore").0 as f64 / rounds,
        ),
        metric("sim.restore_us", "us", per(everywhere("sim.restore")) / 1e3),
        metric(
            "runtime.cycle_ns",
            "ns",
            an.total_self_ns("runtime.armed_continue") / armed_steps.max(1) as f64,
        ),
        metric(
            "runtime.bare_cycle_ns",
            "ns",
            an.total_self_ns("runtime.bare_run") / bare_steps.max(1) as f64,
        ),
        metric("runtime.continue_us", "us", us_self("runtime.continue")),
        metric("runtime.step_us", "us", us_self("runtime.step")),
        metric(
            "runtime.reverse_step_us",
            "us",
            us_self("runtime.reverse_step"),
        ),
        metric(
            "runtime.reverse_continue_us",
            "us",
            us_self("runtime.reverse_continue"),
        ),
        metric("runtime.eval_us", "us", us_self("runtime.eval")),
        metric("runtime.frames_us", "us", us_self("runtime.frames")),
        metric(
            "checkpoint.replay_ratio",
            "ratio",
            reverse_steps as f64 / moved_back.max(1.0),
        ),
        metric(
            "checkpoint.ring_bytes",
            "bytes",
            median(&traced.layers.ring_bytes),
        ),
        metric(
            "symtab.query_us",
            "us",
            median(&an.dur_ns("symtab.query")) / 1e3,
        ),
        metric("protocol.encode_us", "us", median(&encode) / 1e3),
        metric("protocol.decode_us", "us", median(&decode) / 1e3),
        metric(
            "protocol.stop_bytes",
            "bytes",
            median(&an.counts("protocol.encode_stop")),
        ),
        metric(
            "protocol.frames_bytes",
            "bytes",
            median(&an.counts("protocol.encode_frames")),
        ),
        metric(
            "service.overhead_us",
            "us",
            median(&traced.layers.service_overhead_ns) / 1e3,
        ),
        metric(
            "server.overhead_us",
            "us",
            median(&traced.layers.server_overhead_ns) / 1e3,
        ),
        metric(
            "vcd.sample_ns",
            "ns",
            per(an.children(&["vcd.record"], "vcd.sample")),
        ),
        metric(
            "vcd.bytes_per_cycle",
            "bytes",
            traced.trace.vcd_bytes as f64 / traced.trace.record_cycles.max(1) as f64,
        ),
        metric("vcd.step_ns", "ns", per(everywhere("vcd.step"))),
        metric("vcd.read_ns", "ns", per(everywhere("vcd.read"))),
        metric(
            "vcd.set_time_us",
            "us",
            per(everywhere("vcd.set_time")) / 1e3,
        ),
        metric("trace.overhead_pct", "%", overhead),
    ];
    write_trace_outputs(args, &an, &metrics, plain, traced);
    metrics
}

/// Every span name that carries backend child spans.
const ALL_PARENTS: &[&str] = &[
    "runtime.bare_run",
    "runtime.armed_continue",
    "runtime.continue",
    "runtime.step",
    "runtime.reverse_step",
    "runtime.reverse_continue",
    "runtime.eval",
    "runtime.frames",
    "runtime.other",
    "runtime.replay_continue",
    "runtime.replay_reverse_step",
    "runtime.replay_reverse_continue",
    "runtime.replay_restore",
    "vcd.record",
];

/// The span file and the per-layer table, under `out/` beside this
/// package's manifest.
fn write_trace_outputs(
    args: &Args,
    an: &Analysis,
    metrics: &[Metric],
    plain: &Tally,
    traced: &Tally,
) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = args.workload.name();
    let spans = dir.join(format!("{name}.spans.jsonl"));
    let table = dir.join(format!("{name}.layers.txt"));
    let mut text = format!(
        "{name} seed {} traced for {} s: {} untraced and {} traced rounds, median round {:.1} ms untraced, {:.1} ms traced\n\n",
        args.seed,
        args.seconds,
        plain.rounds,
        traced.rounds,
        median(&plain.round_s) * 1e3,
        median(&traced.round_s) * 1e3,
    );
    text.push_str(&format!(
        "{:<28} {:>16} {}\n",
        "layer metric", "value", "unit"
    ));
    for m in metrics {
        text.push_str(&format!("{:<28} {:>16.4} {}\n", m.name, m.value, m.unit));
    }
    text.push_str("\nself time by span name (all traced rounds)\n");
    let mut names: Vec<&str> = an.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for n in names {
        let selfs = an.self_ns(n);
        text.push_str(&format!(
            "{n:<34} spans {:>8} self total {:>12.3} ms median {:>10.3} us\n",
            selfs.len(),
            selfs.iter().sum::<f64>() / 1e6,
            median(&selfs) / 1e3
        ));
    }
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| trace::write_spans(&spans, an.spans()))
        .and_then(|()| std::fs::write(&table, text));
    match written {
        Ok(()) => println!("wrote {} and {}", spans.display(), table.display()),
        Err(e) => println!("could not write the trace outputs: {e}"),
    }
}

/// A memory figure of this process from `/proc/self/status`, in MB:
/// `VmHWM`, the peak resident set of its address space (which starts
/// afresh at exec, so `cargo run`'s own does not count), `VmRSS`, the
/// resident set now, or `RssAnon`, its anonymous (heap and stack) part.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
