//! The repository benchmark: the campaign engines in-process plus one
//! serve traffic regime against a real `repro serve` child.
//!
//! ```text
//! wsn-perfbench --workload serve-hot|serve-overload --seed N
//!               --seconds S --trace 0|1 --repro PATH --root DIR --work DIR
//!               [--server-cpu N] [--commit ID]
//! ```
//!
//! Every run first checks the golden engine against the committed
//! fixtures and analytic cold answers against memo hits. With
//! `--trace 0` it times, without per-call instrumentation, the campaign
//! phase (golden, fast and cold-memo analytic passes over a stratified
//! slice of the paper grid and a 64-link network run, interleaved in
//! 20 ms turns for 0.4·S seconds, one thread) and then 0.6·S seconds of
//! open-loop serve traffic in one-second blocks, and prints the
//! end-to-end metrics. Every turn, block and set-up is paired with the
//! host-speed probe timed just before and after it (see `probe`), and
//! the metrics that host speed sets are reported at the reference
//! speed; the run record carries them as measured too. With
//! `--trace 1` it runs the same serve phase, scrapes the server, and
//! times each layer's public calls in-process as spans, printing the
//! per-layer metrics. The last stdout line is the result object; the
//! line before it is the run record.

mod client;
mod engines;
mod layers;
mod mix;
mod probe;
mod procfs;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use layers::Metrics;
use mix::{Class, Keys, Request};
use stats::{median, quantile_sorted};

/// The serve regimes. Offered rates are fixed constants, never
/// calibrated per run, so every run offers the same load.
///
/// A third regime, the miss mix at ~40 % of one worker's capacity, is
/// left out: at that load the server idles between requests, and the
/// latency of waking idle vCPUs on a shared 2-CPU host made its median
/// latency spread by a fifth to a third of its value between runs.
/// The overload regime runs the same miss mix, disk tier included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Every answer a memory-cache splice.
    Hot,
    /// Keys that never repeat, disk tier on, at ~2× one worker's miss
    /// capacity: engines, store appends, queue, admission and deadline
    /// handling at work.
    Overload,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "serve-hot" => Workload::Hot,
            "serve-overload" => Workload::Overload,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Hot => "serve-hot",
            Workload::Overload => "serve-overload",
        }
    }

    /// Offered requests per second.
    fn rate(self) -> f64 {
        match self {
            Workload::Hot => 8000.0,
            Workload::Overload => 6500.0,
        }
    }

    fn keys(self) -> Keys {
        match self {
            Workload::Hot => Keys::Hot,
            Workload::Overload => Keys::Miss,
        }
    }

    /// How long the server takes to finish a block's backlog: none on
    /// hot traffic, a full 256-slot queue of misses in overload.
    fn drain(self) -> Duration {
        match self {
            Workload::Hot => Duration::from_millis(20),
            Workload::Overload => Duration::from_millis(150),
        }
    }

    /// Whether the server runs with `--store`.
    fn store(self) -> bool {
        self != Workload::Hot
    }
}

/// End-to-end metrics, in output order, with units.
const END_TO_END: [(&str, &str); 9] = [
    ("golden_cfg_per_s", "cfg/s"),
    ("fast_cfg_per_s", "cfg/s"),
    ("analytic_cold_cfg_per_s", "cfg/s"),
    ("network_runs_per_s", "runs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_us", "us"),
    ("cpu_us_per_req", "us"),
    ("goodput_rps", "1/s"),
];

/// Per-layer metrics of the traced run, with units.
const PER_LAYER: [(&str, &str); 47] = [
    ("radio.budget_hit_ns", "ns"),
    ("radio.budget_cold_ns", "ns"),
    ("radio.per_ns", "ns"),
    ("mac.txn_ns", "ns"),
    ("sim_engine.events_per_cfg", "count"),
    ("sim_engine.ns_per_event", "ns"),
    ("link_sim.golden_run_us", "us"),
    ("link_sim.fast_run_us", "us"),
    ("link_sim.network_run_ms", "ms"),
    ("analytic.cold_eval_us", "us"),
    ("analytic.memo_hit_ns", "ns"),
    ("analytic.memo_hit_ratio", "ratio"),
    ("core.predict_ns", "ns"),
    ("core.scan_us_per_candidate", "us"),
    ("campaign.overhead_share", "ratio"),
    ("campaign.peak_rss_mb", "MB"),
    ("protocol.parse_ns", "ns"),
    ("protocol.cache_key_ns", "ns"),
    ("protocol.envelope_ns", "ns"),
    ("cache.mem_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("engine.hit_ns", "ns"),
    ("engine.predict_analytic_us", "us"),
    ("engine.predict_golden_us", "us"),
    ("engine.simulate_golden_us", "us"),
    ("engine.simulate_fast_us", "us"),
    ("engine.scenario_us", "us"),
    ("engine.tune_us", "us"),
    ("engine.explore_us", "us"),
    ("store.append_us", "us"),
    ("store.get_us", "us"),
    ("store.bytes_per_miss", "B"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("worker.exec_p50_us", "us"),
    ("worker.exec_p99_us", "us"),
    ("serve.overloaded_share", "ratio"),
    ("serve.deadline_share", "ratio"),
    ("server.stime_share", "ratio"),
    ("server.ctx_switches_per_req", "count"),
    ("reactor.residual_us", "us"),
    ("client.lat_p99_us", "us"),
    ("client.lat_p999_us", "us"),
    ("client.samples", "count"),
    ("client.send_lag_p99_us", "us"),
    ("client.failed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Setup repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;

/// The generator measures itself when its median lateness reaches this
/// share of the median latency it reports. (Its tail lateness follows
/// host stalls, which stop the server too; it is reported, not gated.)
const SEND_LAG_P50_SHARE_LIMIT: f64 = 0.25;

/// The open-loop phase runs in blocks of this length, between gaps where
/// the probe is timed. Serve metrics are medians over blocks, so a host
/// stall of a second or two does not move them.
const WINDOW: Duration = Duration::from_secs(1);

/// Campaign-phase turns and host-speed probe slices last this long.
const PROBE_SLICE: Duration = Duration::from_millis(20);

/// Probe slices in each gap of the open-loop phase.
const PROBE_SLICES: usize = 4;

/// The share of `--seconds` given to the open-loop phase; the campaign
/// phase has the rest. Its blocks are fewer than the campaign phase's
/// turns and vary more, so it gets the larger share.
const SERVE_SHARE: f64 = 0.6;

/// Slack at the end of each gap, after the probe, before the next block.
const GAP_MARGIN: Duration = Duration::from_millis(10);

/// How long stragglers may take after the last scheduled send.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    /// The CPU the server and the serve-phase probe run on, if pinned.
    server_cpu: Option<usize>,
    root: PathBuf,
    work: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut repro, mut root, mut work, mut commit) = (None, None, None, "unknown".to_string());
    let mut server_cpu = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--repro" => repro = Some(PathBuf::from(value)),
            "--server-cpu" => {
                server_cpu = Some(
                    value
                        .parse()
                        .map_err(|_| "--server-cpu needs a CPU number")?,
                )
            }
            "--root" => root = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        repro: repro.ok_or("--repro is required")?,
        server_cpu,
        root: root.ok_or("--root is required")?,
        work: work.ok_or("--work is required")?,
        commit,
    })
}

/// Named pass/fail checks of one run.
#[derive(Default)]
struct Checks(Vec<(String, bool, String)>);

impl Checks {
    fn add(&mut self, name: &str, pass: bool, detail: String) {
        self.0.push((name.to_string(), pass, detail));
    }

    fn result<T>(&mut self, name: &str, result: Result<T, String>) {
        let detail = result.err().unwrap_or_default();
        self.add(name, detail.is_empty(), detail);
    }

    fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, pass, _)| *pass)
    }
}

/// What the live serve phase measured.
struct Live {
    requests: Vec<Request>,
    prelude: Vec<Request>,
    phase: client::Phase,
    before: client::Scrape,
    after: client::Scrape,
    schedule: client::Schedule,
}

/// Spawns the server, warms it, runs the open-loop phase, scrapes it and
/// shuts it down.
fn live_phase(args: &Args, seconds: f64, checks: &mut Checks) -> Result<Live, String> {
    let w = args.workload;
    let store = if w.store() {
        Some(client::fresh_dir(&args.work, "store-live")?)
    } else {
        None
    };
    let (server, _) = client::start(&args.repro, args.server_cpu, store.as_deref())?;

    let schedule = client::Schedule {
        rate: w.rate(),
        per_block: (w.rate() * WINDOW.as_secs_f64()).round() as usize,
        gap: w.drain() + PROBE_SLICE * PROBE_SLICES as u32 + GAP_MARGIN,
        drain: w.drain(),
        probe_slices: PROBE_SLICES,
        probe_slice: PROBE_SLICE,
    };
    let blocks = (seconds / (WINDOW + schedule.gap).as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let count = blocks * schedule.per_block;
    let mut generator = mix::Generator::new(w.keys(), args.seed);
    // Hot: every question of the pool is computed before timing.
    // Miss: a few fresh questions load code and data, drawn from the
    // same generator as the stream so they never repeat its keys.
    let prelude = match w.keys() {
        Keys::Hot => mix::hot_keys(1_000_000),
        Keys::Miss => (0..64).map(|i| generator.next(1_000_000 + i)).collect(),
    };
    let warmed = client::warm(&server.addr, &prelude)?;
    checks.add(
        "warm-up answered ok",
        warmed == prelude.len(),
        format!("{warmed}/{}", prelude.len()),
    );
    let requests: Vec<Request> = (0..count as u64).map(|i| generator.next(i)).collect();

    let keep = sample_indices(&requests);
    let mut server_probe = client::ProbeHelper::spawn(args.server_cpu)?;
    let before = client::scrape(&server)?;
    let phase = client::run_phase(
        &server,
        schedule,
        &mut server_probe,
        &requests,
        DRAIN_GRACE,
        w == Workload::Overload,
        &keep,
    )?;
    let after = client::scrape(&server)?;
    let stopped = server.shutdown();
    checks.add(
        "server drains and exits 0",
        stopped.is_ok(),
        stopped.err().unwrap_or_default(),
    );
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Live {
        requests,
        prelude,
        phase,
        before,
        after,
        schedule,
    })
}

/// Indices whose full answers are kept: the first three of each op
/// class, and about 24 more spread over the stream.
fn sample_indices(requests: &[Request]) -> Vec<usize> {
    let mut keep = Vec::new();
    for class in Class::ALL {
        keep.extend(
            requests
                .iter()
                .enumerate()
                .filter(|(_, r)| r.class == class)
                .take(3)
                .map(|(i, _)| i),
        );
    }
    let step = (requests.len() / 24).max(1);
    keep.extend((0..requests.len()).step_by(step));
    keep.sort_unstable();
    keep.dedup();
    keep
}

/// Re-executes every kept `ok` answer in-process on a fresh engine and
/// compares the result bodies byte for byte.
fn check_samples(live: &Live) -> Result<usize, String> {
    if live.phase.samples.is_empty() {
        return Err("no ok answer was sampled".into());
    }
    let engine = layers::server_engine(None)?;
    for (i, line) in &live.phase.samples {
        let request = &live.requests[*i];
        let parsed = wsn_serve::protocol::parse_request(&request.line).map_err(|e| e.error)?;
        let answer = engine.execute(&parsed.body).map_err(|e| e.message)?;
        let served = client::result_body(line).ok_or("ok answer without a result")?;
        if served != answer.body.as_str() {
            return Err(format!(
                "served body differs from in-process execution: {}",
                request.line
            ));
        }
    }
    Ok(live.phase.samples.len())
}

/// Client-side tallies of the live phase.
struct Tally {
    attempted: usize,
    good: usize,
    late_ok: usize,
    unanswered: usize,
    malformed: usize,
    refused: std::collections::BTreeMap<String, usize>,
    failed: std::collections::BTreeMap<String, usize>,
    good_latency_ns: Vec<u64>,
}

fn tally(phase: &client::Phase) -> Tally {
    let mut t = Tally {
        attempted: phase.answers.len(),
        good: 0,
        late_ok: 0,
        unanswered: 0,
        malformed: phase.strays as usize,
        refused: Default::default(),
        failed: Default::default(),
        good_latency_ns: Vec::new(),
    };
    for answer in &phase.answers {
        let Some(a) = answer else {
            t.unanswered += 1;
            continue;
        };
        match &a.verdict {
            client::Verdict::Good => {
                t.good += 1;
                t.good_latency_ns.push(a.latency_ns);
            }
            client::Verdict::LateOk => t.late_ok += 1,
            client::Verdict::Malformed => t.malformed += 1,
            client::Verdict::Refused(code) => *t.refused.entry(code.clone()).or_default() += 1,
            client::Verdict::Failed(code) => *t.failed.entry(code.clone()).or_default() += 1,
        }
    }
    t.good_latency_ns.sort_unstable();
    t
}

impl Tally {
    /// Requests that failed: late `ok`s, unanswered requests, and error
    /// codes other than the refusals an overload workload expects.
    /// (Malformed answers are a correctness failure of their own.)
    fn failures(&self) -> usize {
        self.late_ok + self.unanswered + self.failed.values().sum::<usize>()
    }

    /// Requests that failed by the strict rule: anything but an `ok`
    /// within its deadline.
    fn strict_failures(&self) -> usize {
        self.failures() + self.malformed + self.refused.values().sum::<usize>()
    }

    fn answered(&self) -> usize {
        self.attempted - self.unanswered
    }
}

fn delta(after: &serde_json::Value, before: &serde_json::Value, path: &[&str]) -> f64 {
    stat(after, path) - stat(before, path)
}

/// One block of the live phase, with the gap after it: the requests
/// scheduled in the block and the server CPU time from the end of the
/// probe before it to the end of the probe after it.
#[derive(Debug, Default, PartialEq)]
struct Window {
    /// Server CPU time, ns.
    cpu_ns: u64,
    /// Requests of the block answered.
    answered: u64,
    /// Requests of the block answered `ok` within their deadline.
    good: u64,
    /// Latencies (ns) of the good answers, sorted.
    latency_ns: Vec<u64>,
    /// Host speed against the reference: the mean of the probe rates of
    /// the gaps on either side.
    speed: f64,
}

fn windows(phase: &client::Phase, schedule: &client::Schedule) -> Vec<Window> {
    let mut out: Vec<Window> = phase
        .cpu_ns
        .windows(2)
        .zip(phase.gap_steps.windows(2))
        .map(|(cpu, steps)| Window {
            cpu_ns: cpu[1] - cpu[0],
            speed: probe::speed((steps[0] + steps[1]) / 2.0),
            ..Window::default()
        })
        .collect();
    for (i, answer) in phase.answers.iter().enumerate() {
        let (Some(a), Some(w)) = (answer, out.get_mut(schedule.block(i))) else {
            continue;
        };
        w.answered += 1;
        if a.verdict == client::Verdict::Good {
            w.good += 1;
            w.latency_ns.push(a.latency_ns);
        }
    }
    for w in &mut out {
        w.latency_ns.sort_unstable();
    }
    out
}

/// Median over windows of `f`, skipping windows where it is undefined.
fn window_median(windows: &[Window], f: impl Fn(&Window) -> Option<f64>) -> f64 {
    let values: Vec<f64> = windows.iter().filter_map(f).collect();
    median(&values).unwrap_or(f64::NAN)
}

fn stat(v: &serde_json::Value, path: &[&str]) -> f64 {
    path.iter()
        .fold(v, |v, name| v.field(name))
        .as_f64()
        .unwrap_or(f64::NAN)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s).unwrap_or_else(|_| "\"?\"".into())
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("work dir: {e}"))?;
    let w = args.workload;
    let loadavg = procfs::loadavg_1m();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let campaign_s = args.seconds * (1.0 - SERVE_SHARE);
    let mut checks = Checks::default();
    let mut metrics = Metrics::new();
    let mut samples: Vec<(&str, usize)> = Vec::new();
    // End-to-end metrics as measured, before scaling to reference speed.
    let mut raw: Vec<(&str, f64)> = Vec::new();
    // Median host speed against the reference in each phase.
    let mut host_speed: Vec<(&str, f64)> = Vec::new();
    // How steeply each engine's rate followed host speed in this run.
    let mut slopes: Vec<(&str, f64)> = Vec::new();
    // Per block of the open-loop phase: host speed, then latency p50 (µs),
    // CPU per request (µs) and goodput (1/s) as measured.
    let mut blocks: Vec<String> = Vec::new();
    let put = |m: &mut Metrics, name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    checks.result(
        "golden engine reproduces tests/golden fixtures",
        engines::check_golden_fixtures(&args.root),
    );
    let setup = engines::Setup::new(args.seed);
    checks.add(
        "campaign slice covers every axis value",
        engines::covers_every_axis(&wsn_params::grid::ParamGrid::paper(), &setup.configs),
        String::new(),
    );
    checks.result(
        "analytic cold answers equal memo hits",
        engines::check_analytic_cold_equals_warm(&setup.configs),
    );

    let mut operations = 0u64;
    let mut rec = trace::Recorder::default();
    // Set-up times (s), each with the host speed around it.
    let (mut engine_setup, mut server_setup) = (Vec::new(), Vec::new());
    if args.trace {
        layers::campaign_ledger(&setup.configs, args.seed, &mut rec, &mut metrics);
        put(
            &mut metrics,
            "campaign.peak_rss_mb",
            procfs::own_peak_rss_mb(),
        );
    } else {
        // Each set-up is paired with the probe slices on either side.
        let mut own_probe = probe::Probe::new();
        let mut before = own_probe.rate(PROBE_SLICE);
        let mut timed = |seconds: f64, into: &mut Vec<(f64, f64)>| {
            let after = own_probe.rate(PROBE_SLICE);
            into.push((seconds, probe::speed((before + after) / 2.0)));
            before = after;
        };
        for k in 0..SETUP_REPS {
            let t0 = Instant::now();
            std::hint::black_box(engines::Setup::new(args.seed));
            timed(t0.elapsed().as_secs_f64(), &mut engine_setup);
            let store = w
                .store()
                .then(|| client::fresh_dir(&args.work, &format!("store-setup-{k}")))
                .transpose()?;
            let (server, seconds) = client::start(&args.repro, args.server_cpu, store.as_deref())?;
            server.shutdown()?;
            timed(seconds, &mut server_setup);
            if let Some(dir) = store {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let rates = engines::measure(
            &setup,
            &mut own_probe,
            Duration::from_secs_f64(campaign_s),
            PROBE_SLICE,
        );
        checks.add(
            "cold analytic passes see zero memo hits",
            rates.analytic_memo_hits == 0,
            format!("{} hits", rates.analytic_memo_hits),
        );
        operations += rates.operations;
        let speeds: Vec<f64> = rates.golden.iter().map(|t| t.speed).collect();
        host_speed.push(("campaign", median(&speeds).unwrap_or(f64::NAN)));
        for (name, turns) in [
            ("golden_cfg_per_s", &rates.golden),
            ("fast_cfg_per_s", &rates.fast),
            ("analytic_cold_cfg_per_s", &rates.analytic_cold),
            ("network_runs_per_s", &rates.network),
        ] {
            put(&mut metrics, name, engines::at_reference(turns));
            raw.push((name, engines::as_measured(turns)));
            slopes.push((name, engines::slope(turns)));
            samples.push((name, turns.len()));
        }
    }

    let live = live_phase(args, args.seconds * SERVE_SHARE, &mut checks)?;
    checks.result(
        "sampled ok bodies equal in-process execution",
        check_samples(&live),
    );
    let t = tally(&live.phase);
    operations += t.attempted as u64;
    let (before, after) = (&live.before, &live.after);

    // Validity guards: the run measured the regime it names.
    let hits = delta(&after.cache, &before.cache, &["mem", "hits"]);
    let misses = delta(&after.cache, &before.cache, &["mem", "misses"]);
    let hit_ratio = hits / (hits + misses).max(1.0);
    match w {
        Workload::Hot => checks.add(
            "memory-cache hit ratio >= 0.99",
            hit_ratio >= 0.99,
            format!("{hit_ratio}"),
        ),
        Workload::Overload => checks.add(
            "memory-cache hit ratio <= 0.05",
            hit_ratio <= 0.05,
            format!("{hit_ratio}"),
        ),
    }
    let overloaded = t.refused.get("overloaded").copied().unwrap_or(0);
    let deadline = t.refused.get("deadline").copied().unwrap_or(0)
        + t.failed.get("deadline").copied().unwrap_or(0);
    if w == Workload::Overload {
        checks.add(
            "overload regime refuses at least a tenth of the requests",
            overloaded + deadline >= t.attempted / 10,
            format!("{overloaded} overloaded, {deadline} deadline"),
        );
    }
    checks.add(
        "every answer is a proto-first envelope for its request",
        t.malformed == 0,
        format!("{} malformed or stray answers", t.malformed),
    );
    let mut lag = live.phase.send_lag_us.clone();
    lag.sort_unstable();
    let lag_p50 = quantile_sorted(&lag, 0.5).unwrap_or(0);
    let lag_p99 = quantile_sorted(&lag, 0.99).unwrap_or(0);
    let lat = |q: f64| quantile_sorted(&t.good_latency_ns, q).map_or(f64::NAN, |v| v as f64 / 1e3);
    checks.add(
        "generator send lag is small against the latency it measures",
        (lag_p50 as f64) <= SEND_LAG_P50_SHARE_LIMIT * lat(0.5),
        format!(
            "lag p50 {lag_p50} us, p99 {lag_p99} us; latency p50 {} us",
            lat(0.5)
        ),
    );
    let cpu = after.cpu.since(before.cpu);
    let answered = t.answered().max(1) as f64;
    samples.push(("latency (ok within deadline)", t.good_latency_ns.len()));
    samples.push(("send lag", lag.len()));
    if args.trace {
        put(&mut metrics, "cache.mem_hit_ratio", hit_ratio);
        put(
            &mut metrics,
            "cache.evictions",
            delta(&after.cache, &before.cache, &["mem", "evictions"]),
        );
        let stats = &after.stats;
        let queue_p50 = stat(stats, &["queue_wait_us", "p50"]);
        let exec_p50 = stat(stats, &["exec_us", "p50"]);
        put(&mut metrics, "queue.wait_p50_us", queue_p50);
        put(
            &mut metrics,
            "queue.wait_p99_us",
            stat(stats, &["queue_wait_us", "p99"]),
        );
        put(&mut metrics, "worker.exec_p50_us", exec_p50);
        put(
            &mut metrics,
            "worker.exec_p99_us",
            stat(stats, &["exec_us", "p99"]),
        );
        samples.push((
            "server queue_wait_us",
            stat(stats, &["queue_wait_us", "count"]) as usize,
        ));
        samples.push((
            "server exec_us",
            stat(stats, &["exec_us", "count"]) as usize,
        ));
        let attempted = t.attempted.max(1) as f64;
        put(
            &mut metrics,
            "serve.overloaded_share",
            overloaded as f64 / attempted,
        );
        put(
            &mut metrics,
            "serve.deadline_share",
            deadline as f64 / attempted,
        );
        put(
            &mut metrics,
            "server.stime_share",
            cpu.system as f64 / (cpu.user + cpu.system).max(1) as f64,
        );
        let switches = |s: &procfs::Status| (s.voluntary + s.nonvoluntary) as f64;
        put(
            &mut metrics,
            "server.ctx_switches_per_req",
            (switches(&after.status) - switches(&before.status)) / answered,
        );
        put(
            &mut metrics,
            "reactor.residual_us",
            lat(0.5) - queue_p50 - exec_p50,
        );
        put(&mut metrics, "client.lat_p99_us", lat(0.99));
        put(&mut metrics, "client.lat_p999_us", lat(0.999));
        put(
            &mut metrics,
            "client.samples",
            t.good_latency_ns.len() as f64,
        );
        put(&mut metrics, "client.send_lag_p99_us", lag_p99 as f64);
        put(
            &mut metrics,
            "client.failed_share",
            t.strict_failures() as f64 / attempted,
        );
        put(
            &mut metrics,
            "analytic.memo_hit_ratio",
            layers::analytic_memo_hit_ratio(&live.prelude, &live.requests),
        );
        let ledger = layers::serve_ledger(
            if w == Workload::Hot {
                &live.prelude
            } else {
                &[]
            },
            &live.requests,
            w.keys(),
            args.seed,
            &args.work,
            w.store(),
            Duration::from_secs_f64(1.5),
            &mut rec,
            &mut metrics,
        );
        checks.result("in-process replay answers every request", ledger);
        let spans = args
            .work
            .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
        rec.write(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    } else {
        let windows = windows(&live.phase, &live.schedule);
        let block_s = live.schedule.block_len().as_secs_f64();
        let lat_p50_us = |w: &Window| quantile_sorted(&w.latency_ns, 0.5).map(|ns| ns as f64 / 1e3);
        let cpu_us_per_req =
            |w: &Window| (w.answered > 0).then(|| w.cpu_ns as f64 / 1e3 / w.answered as f64);
        let goodput_rps = |w: &Window| Some(w.good as f64 / block_s);
        // Times shrink as host speed grows and rates grow with it, where
        // host speed sets them. The probe runs in user mode, so only the
        // server's user-mode share of its CPU time is scaled; the
        // kernel-mode share (sockets, wake-ups: about half of it on hot
        // traffic) is left as measured. On hot traffic the offered rate
        // sets goodput, and in overload the one worker is busy all the
        // time, so the offered rate sets its CPU time per request too.
        let user_share = cpu.user as f64 / (cpu.user + cpu.system).max(1) as f64;
        let scaled = |f: &dyn Fn(&Window) -> Option<f64>, scale: &dyn Fn(&Window) -> f64| {
            window_median(&windows, |w| f(w).map(|v| v * scale(w)))
        };
        let as_measured = |_: &Window| 1.0;
        let time = |w: &Window| w.speed;
        let cpu_time = |w: &Window| user_share * w.speed + (1.0 - user_share);
        let rate = |w: &Window| 1.0 / w.speed;
        put(&mut metrics, "lat_p50_us", scaled(&lat_p50_us, &time));
        put(
            &mut metrics,
            "cpu_us_per_req",
            match w {
                Workload::Hot => scaled(&cpu_us_per_req, &cpu_time),
                Workload::Overload => scaled(&cpu_us_per_req, &as_measured),
            },
        );
        put(
            &mut metrics,
            "goodput_rps",
            match w {
                Workload::Hot => scaled(&goodput_rps, &as_measured),
                Workload::Overload => scaled(&goodput_rps, &rate),
            },
        );
        let setup_s = |s: &[(f64, f64)]| {
            median(&s.iter().map(|(t, speed)| t * speed).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        put(
            &mut metrics,
            "setup_s",
            setup_s(&engine_setup) + setup_s(&server_setup),
        );
        let measured = |s: &[(f64, f64)]| {
            median(&s.iter().map(|(t, _)| *t).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        raw.extend([
            ("setup_s", measured(&engine_setup) + measured(&server_setup)),
            ("lat_p50_us", scaled(&lat_p50_us, &as_measured)),
            ("cpu_us_per_req", scaled(&cpu_us_per_req, &as_measured)),
            ("goodput_rps", scaled(&goodput_rps, &as_measured)),
        ]);
        let num = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.3}"));
        blocks = windows
            .iter()
            .map(|w| {
                format!(
                    "[{:.4},{},{},{}]",
                    w.speed,
                    num(lat_p50_us(w)),
                    num(cpu_us_per_req(w)),
                    num(goodput_rps(w))
                )
            })
            .collect();
        let speeds = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
        host_speed.extend([
            ("setup", speeds(engine_setup.iter().map(|s| s.1).collect())),
            ("serve", speeds(windows.iter().map(|w| w.speed).collect())),
        ]);
        put(
            &mut metrics,
            "peak_rss_mb",
            after.status.vm_hwm_kb as f64 / 1024.0,
        );
        samples.push(("serve windows", windows.len()));
        samples.push(("setup_s engine set-ups", engine_setup.len()));
        samples.push(("setup_s server spawns", server_setup.len()));
    }

    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut body = Vec::new();
    for (name, unit) in expected {
        let value = metrics.get(*name).copied().unwrap_or(f64::NAN);
        checks.add(
            &format!("metric {name} is a finite number"),
            value.is_finite(),
            format!("{value}"),
        );
        if value.is_finite() {
            body.push(format!(
                r#"{}:{{"value":{value:?},"unit":{}}}"#,
                json_str(name),
                json_str(unit)
            ));
        }
    }
    let correct = checks.all_pass();

    // The run record.
    let list = |items: Vec<String>| items.join(",");
    let record = format!(
        r#"{{"record":{{"workload":"{}","seed":{},"seconds":{},"trace":{},"commit":{},"nproc":{nproc},"server_cpu":{},"loadavg_1m_at_start":{},"offered_rps":{},"attempted":{},"ok":{},"late_ok":{},"unanswered":{},"malformed":{},"refused_by_code":{{{}}},"failed_by_code":{{{}}},"send_lag_p50_us":{lag_p50},"send_lag_p99_us":{lag_p99},"server_cpu_us":{},"send_lag_max_us":{},"host_speed":{{{}}},"speed_slope":{{{}}},"raw_metrics":{{{}}},"blocks":[{}],"samples":{{{}}},"checks":[{}]}}}}"#,
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&args.commit),
        args.server_cpu
            .map_or("null".to_string(), |c| c.to_string()),
        loadavg.map_or("null".to_string(), |l| l.to_string()),
        w.rate(),
        t.attempted,
        t.good,
        t.late_ok,
        t.unanswered,
        t.malformed,
        list(
            t.refused
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect()
        ),
        list(
            t.failed
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect()
        ),
        (after.cpu_ns - before.cpu_ns) as f64 / 1e3,
        lag.last().copied().unwrap_or(0),
        list(
            host_speed
                .iter()
                .map(|(k, v)| format!("{}:{v:?}", json_str(k)))
                .collect()
        ),
        list(
            slopes
                .iter()
                .map(|(k, v)| format!("{}:{v:?}", json_str(k)))
                .collect()
        ),
        list(
            raw.iter()
                .map(|(k, v)| format!("{}:{v:?}", json_str(k)))
                .collect()
        ),
        list(blocks),
        list(
            samples
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect()
        ),
        list(
            checks
                .0
                .iter()
                .map(|(name, pass, detail)| format!(
                    r#"{{"check":{},"pass":{pass},"detail":{}}}"#,
                    json_str(name),
                    json_str(detail)
                ))
                .collect()
        ),
    );
    println!("{record}");
    for (name, pass, detail) in &checks.0 {
        if !pass {
            eprintln!("wsn-perfbench: FAILED {name}: {detail}");
        }
    }
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        operations.max(1),
        t.failures(),
        body.join(",")
    );
    Ok(correct)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--probe-helper") {
        if let Err(e) = client::serve_probe() {
            eprintln!("wsn-perfbench probe helper: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wsn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("wsn-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use client::{Answer, Phase, Verdict};

    #[test]
    fn benchmark_json_names_exactly_the_printed_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = serde_json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let entries = spec.field(key).as_array().expect("a metric list");
            entries
                .iter()
                .map(|m| {
                    let text = |f: &str| m.field(f).as_str().expect("a string").to_string();
                    (text("name"), text("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads = spec.field("workloads").as_array().expect("workloads");
        assert_eq!(workloads.len(), 2);
        for w in workloads {
            let name = w.field("name").as_str().expect("a name");
            assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
        }
    }

    #[test]
    fn tally_counts_every_attempt_once() {
        let answer = |latency_ns, verdict| {
            Some(Answer {
                latency_ns,
                verdict,
            })
        };
        let phase = Phase {
            answers: vec![
                answer(5_000, Verdict::Good),
                answer(3_000, Verdict::Good),
                answer(2_000_000_000, Verdict::LateOk),
                answer(100, Verdict::Refused("overloaded".into())),
                answer(100, Verdict::Failed("internal".into())),
                None,
            ],
            send_lag_us: vec![1; 6],
            samples: Vec::new(),
            strays: 1,
            cpu_ns: Vec::new(),
            gap_steps: Vec::new(),
        };
        let t = tally(&phase);
        assert_eq!((t.attempted, t.good, t.late_ok, t.unanswered), (6, 2, 1, 1));
        assert_eq!(t.good_latency_ns, vec![3_000, 5_000]);
        // Late ok, unanswered and internal fail; the stray and the
        // refusal count only under the strict rule.
        assert_eq!(t.failures(), 3);
        assert_eq!(t.strict_failures(), 5);
        assert_eq!(t.answered(), 5);
    }

    #[test]
    fn windows_are_blocks_at_the_host_speed_around_them() {
        let answer = |latency_ns, verdict| {
            Some(Answer {
                latency_ns,
                verdict,
            })
        };
        let schedule = client::Schedule {
            rate: 2.0,
            per_block: 2,
            gap: Duration::from_millis(100),
            drain: Duration::from_millis(50),
            probe_slices: 1,
            probe_slice: Duration::from_millis(20),
        };
        let reference = probe::REFERENCE_STEPS_PER_S;
        // Two blocks of two requests: CPU reads and probe rates at the
        // three gaps.
        let phase = Phase {
            answers: vec![
                answer(100_000, Verdict::Good),
                answer(300_000, Verdict::Good),
                answer(200_000, Verdict::Refused("overloaded".into())),
                answer(600_000, Verdict::Good),
            ],
            send_lag_us: vec![0; 4],
            samples: Vec::new(),
            strays: 0,
            cpu_ns: vec![1_000, 6_000, 10_000],
            gap_steps: vec![reference, reference, reference / 2.0],
        };
        let w = windows(&phase, &schedule);
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].cpu_ns, w[0].answered, w[0].good, w[0].speed),
            (5_000, 2, 2, 1.0)
        );
        assert_eq!(w[0].latency_ns, vec![100_000, 300_000]);
        assert_eq!((w[1].answered, w[1].good, w[1].speed), (2, 1, 0.75));
        assert_eq!(w[1].latency_ns, vec![600_000]);
        let cpu = window_median(&w, |w| {
            (w.answered > 0).then(|| (w.cpu_ns / w.answered) as f64)
        });
        assert_eq!(cpu, (2_500.0 + 2_000.0) / 2.0);
    }

    #[test]
    fn samples_cover_every_class_and_the_whole_stream() {
        let mut generator = mix::Generator::new(Keys::Miss, 9);
        let requests: Vec<Request> = (0..5_000).map(|i| generator.next(i)).collect();
        let keep = sample_indices(&requests);
        for class in Class::ALL {
            assert!(keep.iter().any(|&i| requests[i].class == class));
        }
        assert!(keep.windows(2).all(|w| w[0] < w[1]));
        assert!(*keep.last().unwrap() >= 4_500);
    }
}
