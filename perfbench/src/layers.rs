//! The traced run's per-layer ledger: spans around the public calls of
//! each layer, replaying the run's campaign slice and request stream.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wsn_analytic::table::AnalyticTable;
use wsn_analytic::AnalyticLinkSimulation;
use wsn_experiments::campaign::Scale;
use wsn_link_sim::fast::FastLinkSimulation;
use wsn_link_sim::network::NetworkSimulation;
use wsn_link_sim::simulation::{LinkSimulation, SimOptions};
use wsn_link_sim::sink::NullSink;
use wsn_mac::transaction::{Action, Transaction};
use wsn_models::explore::explore_grid;
use wsn_models::optimize::{Metric, Optimizer};
use wsn_models::predict::Predictor;
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_radio::budget::{LinkBudget, LinkBudgetTable};
use wsn_radio::channel::ChannelConfig;
use wsn_radio::per::{PerBackend, PerCache};
use wsn_serve::engine::Engine;
use wsn_serve::protocol::{cache_key, envelope_ok, parse_request, RequestBody};
use wsn_serve::store::Store;
use wsn_sim_engine::executor::{ExecStats, ExecutorObserver};
use wsn_sim_engine::mode::EngineMode;

use crate::engines;
use crate::mix::{Class, Generator, Keys, Request};
use crate::stats::median;
use crate::trace::Recorder;

/// Metric name → value (units live with the metric lists in `main`).
pub type Metrics = BTreeMap<String, f64>;

/// Repetitions of the sub-microsecond batched timings.
const REPS: usize = 40;

fn put(out: &mut Metrics, name: &str, value: f64) {
    out.insert(name.to_string(), value);
}

/// Duration of the most recent span, ns.
fn last_ns(rec: &Recorder) -> f64 {
    rec.spans.last().map_or(0.0, |s| s.duration_ns() as f64)
}

/// Keeps the executor's run statistics.
#[derive(Default)]
struct KeepStats(Option<ExecStats>);

impl ExecutorObserver for KeepStats {
    fn on_run_end(&mut self, stats: &ExecStats) {
        self.0 = Some(*stats);
    }
}

/// Times each engine-side layer over the campaign slice `configs`.
pub fn campaign_ledger(configs: &[StackConfig], seed: u64, rec: &mut Recorder, out: &mut Metrics) {
    let channel = ChannelConfig::paper_hallway();
    let n = configs.len() as u64;
    let batch = REPS as u64 * n;
    let base = SimOptions {
        record_packets: false,
        seed: 0x5EED,
        ..SimOptions::quick(Scale::Bench.packets())
    };
    let budgets = Arc::new(LinkBudgetTable::new(channel));
    // Untimed passes load code and data, as before the campaign phase.
    for engine in [EngineMode::Golden, EngineMode::Fast, EngineMode::Analytic] {
        engines::pass(&engines::campaign(engine), configs);
    }

    // radio
    for c in configs {
        budgets.budget(c.power, c.distance);
    }
    let per_call = |rec: &Recorder| last_ns(rec) / batch as f64;
    rec.time("radio.budget_hit", 0, None, batch, || {
        for _ in 0..REPS {
            for c in configs {
                black_box(budgets.budget(black_box(c.power), black_box(c.distance)));
            }
        }
    });
    put(out, "radio.budget_hit_ns", per_call(rec));
    rec.time("radio.budget_cold", 0, None, batch, || {
        for _ in 0..REPS {
            for c in configs {
                black_box(LinkBudget::compute(
                    &channel,
                    black_box(c.power),
                    c.distance,
                ));
            }
        }
    });
    put(out, "radio.budget_cold_ns", per_call(rec));
    // Every call sees a new SNR, so the one-entry PER memo recomputes,
    // as it does for each shadowed attempt of a simulation.
    let snrs: Vec<f64> = configs
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let b = budgets.budget(c.power, c.distance);
            b.mean_rssi_dbm - b.noise_mean_dbm + i as f64 * 1e-6
        })
        .collect();
    let per = PerBackend::paper();
    let cache = PerCache::new();
    rec.time("radio.per", 0, None, batch, || {
        for r in 0..REPS {
            for (snr, c) in snrs.iter().zip(configs) {
                black_box(per.per_cached(&cache, snr + r as f64 * 1e-3, c.payload));
            }
        }
    });
    put(out, "radio.per_ns", per_call(rec));

    // mac: one packet's CSMA-CA transaction, 70 % of attempts acked.
    let mut rng = StdRng::seed_from_u64(seed);
    rec.time("mac.txn", 0, None, batch, || {
        for _ in 0..REPS {
            for c in configs {
                let mut txn =
                    Transaction::new(c.payload, c.max_tries, wsn_mac::timing::retry_delay(c));
                loop {
                    match txn.advance(&mut rng) {
                        Action::Wait { .. } => {}
                        Action::Transmit { .. } => txn.on_tx_result(rng.gen_bool(0.7)),
                        Action::Complete(outcome) => {
                            black_box(outcome);
                            break;
                        }
                    }
                }
            }
        }
    });
    put(out, "mac.txn_ns", per_call(rec));

    // sim-engine and link-sim: one golden and one fast run per config.
    let (mut events, mut event_wall) = (0u64, Duration::ZERO);
    let golden_root = rec.open("link_sim.golden_pass", 0, None);
    for (i, c) in configs.iter().enumerate() {
        let mut stats = KeepStats::default();
        let options = base.clone().with_seed(seed.wrapping_add(i as u64));
        rec.time(
            "link_sim.golden_run",
            i as u64,
            Some(golden_root),
            1,
            || {
                LinkSimulation::new(*c, options)
                    .with_budget_table(Arc::clone(&budgets))
                    .run_observed(&mut NullSink, &mut stats)
            },
        );
        let stats = stats.0.expect("a finished run reports its statistics");
        events += stats.events_handled;
        event_wall += stats.wall_elapsed;
    }
    rec.close(golden_root);
    let golden_ns: f64 = rec.spans[golden_root + 1..]
        .iter()
        .filter(|s| s.name == "link_sim.golden_run")
        .map(|s| s.duration_ns() as f64)
        .sum();
    put(out, "link_sim.golden_run_us", golden_ns / n as f64 / 1e3);
    put(out, "sim_engine.events_per_cfg", events as f64 / n as f64);
    put(
        out,
        "sim_engine.ns_per_event",
        event_wall.as_nanos() as f64 / events.max(1) as f64,
    );
    rec.time("link_sim.fast_pass", 0, None, n, || {
        for c in configs {
            black_box(
                FastLinkSimulation::new(*c, base.clone())
                    .with_budget_table(Arc::clone(&budgets))
                    .run(),
            );
        }
    });
    put(out, "link_sim.fast_run_us", last_ns(rec) / n as f64 / 1e3);
    let (scenario, options) = engines::network();
    let runs = 3;
    rec.time("link_sim.network_run", 0, None, runs, || {
        for _ in 0..runs {
            black_box(NetworkSimulation::new(scenario.clone(), options.clone()).run());
        }
    });
    put(
        out,
        "link_sim.network_run_ms",
        last_ns(rec) / runs as f64 / 1e6,
    );

    // analytic: cold evaluations, then memo hits on a warm table.
    rec.time("analytic.cold_eval", 0, None, n, || {
        for c in configs {
            black_box(
                AnalyticLinkSimulation::new(*c, base.clone())
                    .with_cache(Arc::new(AnalyticTable::new(channel)))
                    .run(),
            );
        }
    });
    put(out, "analytic.cold_eval_us", last_ns(rec) / n as f64 / 1e3);
    let table = AnalyticTable::new(channel);
    for c in configs {
        table.lookup_or_eval(c, &base, || budgets.budget(c.power, c.distance));
    }
    rec.time("analytic.memo_hit", 0, None, batch, || {
        for _ in 0..REPS {
            for c in configs {
                black_box(table.lookup_or_eval(c, &base, || unreachable!("warm table")));
            }
        }
    });
    put(out, "analytic.memo_hit_ns", per_call(rec));

    // core: the fitted predictor and the two grid scans over one distance.
    let predictor = Predictor::paper();
    rec.time("core.predict", 0, None, batch, || {
        for _ in 0..REPS {
            for c in configs {
                black_box(predictor.evaluate(black_box(c)));
            }
        }
    });
    put(out, "core.predict_ns", per_call(rec));
    let mut grid = ParamGrid::paper();
    grid.distances_m = vec![10.0 + (seed % 2501) as f64 / 100.0];
    let candidates = grid.len() as u64;
    rec.time("core.epsilon_scan", 0, None, candidates, || {
        black_box(Optimizer::paper().epsilon_constraint(
            &grid,
            Metric::Energy,
            &[(Metric::Loss, 0.05)],
        ))
    });
    let scan_ns = last_ns(rec);
    let outcome = rec.time("core.explore_scan", 0, None, 256, || {
        explore_grid(&grid, 256, |_, c| {
            Ok::<_, ()>(Some(Metric::Energy.value(&predictor.evaluate(c))))
        })
    });
    let evaluations = outcome.ok().flatten().map_or(256, |o| o.evaluations);
    put(
        out,
        "core.scan_us_per_candidate",
        (scan_ns + last_ns(rec)) / (candidates + evaluations) as f64 / 1e3,
    );

    // experiments::campaign: wall of a cold analytic pass against a bare
    // loop of the engine calls it makes (same options, same memo
    // discipline), in alternating order so neither side always runs
    // first.
    let campaign_options = SimOptions {
        seed: 0x5EED,
        ..base.clone()
    };
    let (mut walls, mut calls) = (Vec::new(), Vec::new());
    for r in 0..6 {
        let campaign_pass = |rec: &mut Recorder| {
            let fresh = engines::campaign(EngineMode::Analytic);
            rec.time("campaign.analytic_pass", r, None, n, || {
                engines::pass(&fresh, configs)
            });
            last_ns(rec)
        };
        let engine_calls = |rec: &mut Recorder| {
            let table = AnalyticTable::new(channel);
            let budgets = LinkBudgetTable::new(channel);
            rec.time("analytic.lookup_or_eval", r, None, n, || {
                for c in configs {
                    black_box(table.lookup_or_eval(c, &campaign_options, || {
                        budgets.budget(c.power, c.distance)
                    }));
                }
            });
            last_ns(rec)
        };
        if r % 2 == 0 {
            walls.push(campaign_pass(rec));
            calls.push(engine_calls(rec));
        } else {
            calls.push(engine_calls(rec));
            walls.push(campaign_pass(rec));
        }
    }
    let share = 1.0 - median(&calls).unwrap_or(0.0) / median(&walls).unwrap_or(1.0);
    put(out, "campaign.overhead_share", share);
}

/// The span name of an engine miss of `class`.
fn miss_span(class: Class) -> &'static str {
    match class {
        Class::PredictAnalytic => "engine.predict_analytic",
        Class::PredictGolden => "engine.predict_golden",
        Class::SimulateGolden => "engine.simulate_golden",
        Class::SimulateFast => "engine.simulate_fast",
        Class::Scenario => "engine.scenario",
        Class::Tune => "engine.tune",
        Class::Explore => "engine.explore",
    }
}

/// An engine configured like the benchmarked server.
pub fn server_engine(store: Option<&Path>) -> Result<Engine, String> {
    let engine = Engine::new(16);
    match store {
        Some(dir) => {
            let store = Store::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
            Ok(engine.with_store(store))
        }
        None => Ok(engine),
    }
}

/// One request through parse → cache key → execute → envelope, with a
/// span around each call. Returns the cache key and the answer body of a
/// miss.
fn replay_one(
    engine: &Engine,
    i: u64,
    request: &Request,
    rec: &mut Recorder,
) -> Result<Option<(String, Arc<String>)>, String> {
    let deadline = Some(Instant::now() + Duration::from_millis(crate::mix::DEADLINE_MS));
    let root = rec.open("request", i, None);
    let parsed = rec
        .time("protocol.parse", i, Some(root), 1, || {
            parse_request(&request.line)
        })
        .map_err(|e| e.error)?;
    let key = rec.time("protocol.cache_key", i, Some(root), 1, || {
        cache_key(&parsed.body)
    });
    let exec = rec.open("engine.execute", i, Some(root));
    let answer = engine
        .execute_with_deadline(&parsed.body, deadline)
        .map_err(|e| e.message)?;
    rec.close(exec);
    let layer = if answer.cached {
        "engine.hit"
    } else {
        miss_span(request.class)
    };
    rec.rename(exec, layer);
    rec.time("protocol.envelope", i, Some(root), 1, || {
        black_box(envelope_ok(
            &parsed.id,
            parsed.op,
            answer.cached,
            1,
            "0",
            &answer.body,
        ))
    });
    rec.close(root);
    Ok(key.filter(|_| !answer.cached).map(|k| (k, answer.body)))
}

/// Most requests one replay pass covers, which bounds the span file.
const MAX_REPLAY: usize = 20_000;

/// Replays the run's requests in-process: first untraced for `budget`,
/// then the same prefix traced on a fresh engine, then a traced re-run
/// of its first 256 requests (cache hits). `prelude` (the hot warm set)
/// runs first in every pass; with `with_store` the engines get a disk
/// tier under `work`, as the server does.
#[allow(clippy::too_many_arguments)]
pub fn serve_ledger(
    prelude: &[Request],
    stream: &[Request],
    keys: Keys,
    seed: u64,
    work: &Path,
    with_store: bool,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Metrics,
) -> Result<(), String> {
    // Every op class must appear at least once; the miss mix only
    // guarantees that statistically, so fill gaps with fresh requests.
    let mut requests: Vec<Request> = prelude.to_vec();
    let mut extra = Generator::new(keys, seed ^ 0xE87A);
    for class in Class::ALL {
        if !prelude.iter().any(|r| r.class == class) {
            requests.push(extra.request(class, 2_000_000 + class as u64));
        }
    }
    let fixed = requests.len();
    requests.extend_from_slice(stream);

    let fresh_store = |name: &str| -> Result<Option<std::path::PathBuf>, String> {
        with_store
            .then(|| crate::client::fresh_dir(work, name))
            .transpose()
    };
    // Untraced, traced, untraced again, each on a fresh engine: the
    // traced pass is compared with the mean of the two around it, so
    // warm-up and drift do not count as tracing overhead.
    // Each pass returns its seconds per request.
    let untraced_pass = |count: usize| -> Result<(usize, f64), String> {
        let engine = server_engine(fresh_store("replay-untraced")?.as_deref())?;
        let mut off = Recorder::off();
        let t0 = Instant::now();
        let mut replayed = 0;
        for (i, r) in requests.iter().enumerate().take(count) {
            replay_one(&engine, i as u64, r, &mut off)?;
            replayed += 1;
            if replayed > fixed && (t0.elapsed() >= budget || replayed >= MAX_REPLAY) {
                break;
            }
        }
        Ok((replayed, t0.elapsed().as_secs_f64() / replayed as f64))
    };
    let (replayed, first_s) = untraced_pass(requests.len())?;

    let engine = server_engine(fresh_store("replay-traced")?.as_deref())?;
    let t0 = Instant::now();
    let mut misses = Vec::new();
    for (i, r) in requests[..replayed].iter().enumerate() {
        if let Some(miss) = replay_one(&engine, i as u64, r, rec)? {
            misses.push(miss);
        }
    }
    let traced_s = t0.elapsed().as_secs_f64() / replayed as f64;
    for (i, r) in requests[..replayed.min(256)].iter().enumerate() {
        replay_one(&engine, i as u64, r, rec)?;
    }
    drop(engine);
    // The second pass replays the same prefix, or as much of it as fits
    // the same budget.
    let (_, second_s) = untraced_pass(replayed)?;
    for dir in ["replay-untraced", "replay-traced"] {
        let _ = std::fs::remove_dir_all(work.join(dir));
    }
    let untraced_s = (first_s + second_s) / 2.0;
    put(out, "trace.overhead_share", traced_s / untraced_s - 1.0);

    let totals = rec.totals();
    let per_call = |name: &str| totals.get(name).map_or(f64::NAN, |t| t.ns_per_call());
    put(out, "protocol.parse_ns", per_call("protocol.parse"));
    put(out, "protocol.cache_key_ns", per_call("protocol.cache_key"));
    put(out, "protocol.envelope_ns", per_call("protocol.envelope"));
    put(out, "engine.hit_ns", per_call("engine.hit"));
    for class in Class::ALL {
        put(
            out,
            &format!("engine.{}_us", class.name()),
            per_call(miss_span(class)) / 1e3,
        );
    }

    // serve::store: the answers of the replay's misses through a fresh
    // store, appended then read back.
    let dir = crate::client::fresh_dir(work, "replay-store")?;
    let store_ledger = (|| -> Result<(), String> {
        let store = Store::open(&dir).map_err(|e| e.to_string())?;
        let records = &misses[..misses.len().min(2000)];
        let root = rec.open("store.pass", 0, None);
        for (i, (key, body)) in records.iter().enumerate() {
            rec.time("store.append", i as u64, Some(root), 1, || {
                store.append(key, body)
            })
            .map_err(|e| e.to_string())?;
        }
        for (i, (key, body)) in records.iter().enumerate() {
            let got = rec.time("store.get", i as u64, Some(root), 1, || store.get(key));
            if got.as_deref() != Some(body.as_str()) {
                return Err(format!("store returned another body for {key}"));
            }
        }
        rec.close(root);
        let totals = rec.totals();
        put(
            out,
            "store.append_us",
            totals["store.append"].ns_per_call() / 1e3,
        );
        put(out, "store.get_us", totals["store.get"].ns_per_call() / 1e3);
        let stats = store.stats();
        put(
            out,
            "store.bytes_per_miss",
            stats.bytes as f64 / stats.appends.max(1) as f64,
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    store_ledger
}

/// Share of the analytic `predict` questions in `prelude` + `stream`
/// answered from an analytic memo warmed by `prelude` — the server's
/// memo sees exactly this sequence of configurations.
pub fn analytic_memo_hit_ratio(prelude: &[Request], stream: &[Request]) -> f64 {
    let channel = ChannelConfig::paper_hallway();
    let table = AnalyticTable::new(channel);
    let options = SimOptions {
        record_packets: false,
        ..SimOptions::quick(wsn_serve::protocol::DEFAULT_PACKETS)
    };
    let mut lookup = |r: &Request| -> Option<bool> {
        let parsed = parse_request(&r.line).ok()?;
        let RequestBody::Predict {
            config,
            engine: EngineMode::Analytic,
        } = parsed.body
        else {
            return None;
        };
        let before = table.len();
        table.lookup_or_eval(&config, &options, || {
            LinkBudget::compute(&channel, config.power, config.distance)
        });
        Some(table.len() == before)
    };
    for r in prelude {
        lookup(r);
    }
    let outcomes: Vec<bool> = stream.iter().filter_map(&mut lookup).collect();
    outcomes.iter().filter(|&&hit| hit).count() as f64 / outcomes.len().max(1) as f64
}
