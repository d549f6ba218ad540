//! The in-process campaign phase: a stratified slice of the paper grid
//! through the golden, fast and analytic engines on one thread, beside a
//! sparse 64-link network simulation, in interleaved time slices.

use std::path::Path;
use std::time::{Duration, Instant};

use wsn_experiments::campaign::{Campaign, ConfigResult, Scale};
use wsn_experiments::stream::SinkFn;
use wsn_link_sim::network::{NetOptions, NetworkSimulation};
use wsn_params::config::StackConfig;
use wsn_params::grid::ParamGrid;
use wsn_params::scenario::Scenario;
use wsn_radio::channel::ChannelConfig;
use wsn_radio::per::{DsssPer, PerBackend};
use wsn_sim_engine::mode::EngineMode;

use crate::probe::{self, Probe};
use crate::stats::median;

/// Every `STRIDE`-th configuration of the 48,384-config paper grid.
pub const STRIDE: usize = 97;

/// The campaign slice of one run: grid indices `seed % STRIDE`,
/// `+ STRIDE`, … (498 or 499 configurations).
pub fn slice(seed: u64) -> Vec<StackConfig> {
    let grid = ParamGrid::paper();
    let offset = (seed % STRIDE as u64) as usize;
    (offset..grid.len())
        .step_by(STRIDE)
        .map(|i| grid.config_at(i))
        .collect()
}

/// Whether `configs` hold every value of every axis of `grid`.
pub fn covers_every_axis(grid: &ParamGrid, configs: &[StackConfig]) -> bool {
    let has = |pred: &dyn Fn(&StackConfig) -> bool| configs.iter().any(pred);
    let ms = |s: f64| (s * 1000.0).round() as u32;
    grid.distances_m
        .iter()
        .all(|&d| has(&|c| c.distance.meters() == d))
        && grid
            .power_levels
            .iter()
            .all(|&p| has(&|c| c.power.level() == p))
        && grid
            .max_tries
            .iter()
            .all(|&n| has(&|c| c.max_tries.get() == n))
        && grid
            .retry_delays_ms
            .iter()
            .all(|&r| has(&|c| ms(c.retry_delay.as_secs_f64()) == r))
        && grid
            .queue_caps
            .iter()
            .all(|&q| has(&|c| c.queue_cap.get() == q))
        && grid
            .packet_intervals_ms
            .iter()
            .all(|&t| has(&|c| ms(c.packet_interval.as_secs_f64()) == t))
        && grid
            .payloads
            .iter()
            .all(|&b| has(&|c| c.payload.bytes() == b))
}

/// The fixed sparse network of the density ladder: 64 links of 10 m at PA
/// level 5 on 25 m cells, −85 dBm pruning, `Scale::Bench` packets.
pub fn network() -> (Scenario, NetOptions) {
    let config = StackConfig::builder()
        .distance_m(10.0)
        .power_level(5)
        .payload_bytes(50)
        .max_tries(3)
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(50)
        .build()
        .expect("valid constants");
    let options = NetOptions {
        seed: 0x5EED,
        ..NetOptions::quick(Scale::Bench.packets())
    }
    .with_prune_floor_dbm(-85.0);
    (Scenario::grid(config, 64, 25.0), options)
}

/// A one-thread `Scale::Bench` campaign on `engine` (fresh analytic memo).
pub fn campaign(engine: EngineMode) -> Campaign {
    Campaign {
        threads: 1,
        ..Campaign::new(Scale::Bench)
    }
    .with_engine(engine)
}

/// Runs `campaign` over `configs`, discarding the results.
pub fn pass(campaign: &Campaign, configs: &[StackConfig]) {
    let mut sink = SinkFn::new(|_i: usize, r: &ConfigResult| {
        std::hint::black_box(r.metrics.goodput_bps);
    });
    campaign.run_streamed(configs, &mut sink);
}

/// The state the campaign phase sets up before timing.
pub struct Setup {
    /// The stratified slice.
    pub configs: Vec<StackConfig>,
    /// The golden campaign.
    pub golden: Campaign,
    /// The fast campaign.
    pub fast: Campaign,
    /// The 64-link network and its options.
    pub network: (Scenario, NetOptions),
}

impl Setup {
    /// Builds the slice, the campaigns and the network.
    pub fn new(seed: u64) -> Setup {
        Setup {
            configs: slice(seed),
            golden: campaign(EngineMode::Golden),
            fast: campaign(EngineMode::Fast),
            network: network(),
        }
    }
}

/// One engine turn: its rate as measured, and the host speed the probe
/// measured around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Turn {
    /// Work units per second.
    pub rate: f64,
    /// Host speed against the reference (see [`probe::speed`]).
    pub speed: f64,
}

/// Turns of the campaign phase.
#[derive(Debug, Clone, Default)]
pub struct Rates {
    /// Golden configurations per second.
    pub golden: Vec<Turn>,
    /// Fast configurations per second.
    pub fast: Vec<Turn>,
    /// Analytic configurations per second, each pass on a cold memo.
    pub analytic_cold: Vec<Turn>,
    /// 64-link network runs per second.
    pub network: Vec<Turn>,
    /// Analytic memo hits seen in the timed passes (must be 0).
    pub analytic_memo_hits: u64,
    /// Configurations and network runs completed.
    pub operations: u64,
}

/// An engine's rate at the reference host speed: the median over its
/// turns of the turn's rate divided by the host speed around it raised to
/// the engine's [`slope`] in this run.
pub fn at_reference(turns: &[Turn]) -> f64 {
    let slope = slope(turns);
    let scaled: Vec<f64> = turns.iter().map(|t| t.rate / t.speed.powf(slope)).collect();
    median(&scaled).unwrap_or(f64::NAN)
}

/// How steeply an engine's rate follows host speed: the least-squares
/// slope of ln rate on ln speed over its turns, within [0, 3] (1 when
/// there are fewer than three turns or the speed never varied). The
/// engines follow it more steeply than the probe does — on a shared
/// 2-vCPU host, 1.1 (analytic) to 1.8 (fast) both within runs and
/// between runs in which the host's speed flipped — so dividing by speed
/// alone would leave part of the host's drift in their rates.
pub fn slope(turns: &[Turn]) -> f64 {
    if turns.len() < 3 {
        return 1.0;
    }
    let n = turns.len() as f64;
    let x: Vec<f64> = turns.iter().map(|t| t.speed.ln()).collect();
    let y: Vec<f64> = turns.iter().map(|t| t.rate.ln()).collect();
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let sxx: f64 = x.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = x.iter().zip(&y).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx > 0.0 {
        (sxy / sxx).clamp(0.0, 3.0)
    } else {
        1.0
    }
}

/// The median measured rate of `turns`, host speed as it was.
pub fn as_measured(turns: &[Turn]) -> f64 {
    let rates: Vec<f64> = turns.iter().map(|t| t.rate).collect();
    median(&rates).unwrap_or(f64::NAN)
}

/// Repeats `unit` (which returns the work units it did) until `slice`
/// has elapsed; returns units per second.
fn timed_slice(slice: Duration, mut unit: impl FnMut() -> u64) -> (f64, u64) {
    let t0 = Instant::now();
    let mut done = 0;
    loop {
        done += unit();
        let elapsed = t0.elapsed();
        if elapsed >= slice {
            return (done as f64 / elapsed.as_secs_f64(), done);
        }
    }
}

/// Runs the four engines in turn, each turn `slice` long, for `total`,
/// with a probe slice between every two turns. Host speed drifts by a
/// tenth within a second, but two slices a few tens of milliseconds
/// apart see nearly the same speed, so each turn is paired with the mean
/// of the probe slices on either side of it.
pub fn measure(setup: &Setup, probe: &mut Probe, total: Duration, slice: Duration) -> Rates {
    let mut rates = Rates::default();
    let configs = &setup.configs;
    let n = configs.len() as u64;
    let (scenario, options) = &setup.network;
    // One untimed round loads code and data.
    pass(&setup.golden, configs);
    pass(&setup.fast, configs);
    pass(&campaign(EngineMode::Analytic), configs);
    NetworkSimulation::new(scenario.clone(), options.clone()).run();

    let mut before = probe.rate(slice);
    let mut turn = |rates: &mut Rates, engine: usize, rate: f64, done: u64| {
        let after = probe.rate(slice);
        let t = Turn {
            rate,
            speed: probe::speed((before + after) / 2.0),
        };
        before = after;
        rates.operations += done;
        match engine {
            0 => rates.golden.push(t),
            1 => rates.fast.push(t),
            2 => rates.analytic_cold.push(t),
            _ => rates.network.push(t),
        }
    };
    let t0 = Instant::now();
    while t0.elapsed() < total {
        let (r, d) = timed_slice(slice, || {
            pass(&setup.golden, configs);
            n
        });
        turn(&mut rates, 0, r, d);
        let (r, d) = timed_slice(slice, || {
            pass(&setup.fast, configs);
            n
        });
        turn(&mut rates, 1, r, d);
        let mut hits = 0;
        let (r, d) = timed_slice(slice, || {
            let cold = campaign(EngineMode::Analytic);
            pass(&cold, configs);
            hits += n - cold.analytic.len() as u64;
            n
        });
        rates.analytic_memo_hits += hits;
        turn(&mut rates, 2, r, d);
        let (r, d) = timed_slice(slice, || {
            let outcome = NetworkSimulation::new(scenario.clone(), options.clone()).run();
            std::hint::black_box(outcome.goodput_bps());
            1
        });
        turn(&mut rates, 3, r, d);
    }
    rates
}

/// Checks the golden engine against the committed fixtures of the
/// golden-metrics test (its 36-config mini-grid on the empirical and the
/// DSSS PER backends). Returns the configurations compared.
pub fn check_golden_fixtures(root: &Path) -> Result<usize, String> {
    let grid = ParamGrid {
        distances_m: vec![10.0, 20.0, 35.0],
        power_levels: vec![3, 11, 31],
        max_tries: vec![1, 3],
        retry_delays_ms: vec![0],
        queue_caps: vec![30],
        packet_intervals_ms: vec![50],
        payloads: vec![50, 110],
    };
    let configs: Vec<StackConfig> = grid.iter().collect();
    let mut dsss_channel = ChannelConfig::paper_hallway();
    dsss_channel.per_backend = PerBackend::Dsss(DsssPer);
    let runs = [
        ("empirical", campaign(EngineMode::Golden)),
        (
            "dsss",
            campaign(EngineMode::Golden).with_channel(dsss_channel),
        ),
    ];
    let mut compared = 0;
    for (name, campaign) in runs {
        let path = root.join("tests/golden").join(format!("{name}.jsonl"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let pinned: Vec<ConfigResult> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str(l).map_err(|e| format!("{name} fixture: {e}")))
            .collect::<Result<_, _>>()?;
        let results = campaign.run_configs(&configs);
        if pinned != results {
            return Err(format!(
                "golden results differ from tests/golden/{name}.jsonl"
            ));
        }
        compared += results.len();
    }
    Ok(compared)
}

/// Checks that a cold analytic evaluation and a memo hit of the same
/// configuration serialize to identical bytes, over `configs`.
pub fn check_analytic_cold_equals_warm(configs: &[StackConfig]) -> Result<usize, String> {
    let cold = campaign(EngineMode::Analytic).run_configs(configs);
    let table = campaign(EngineMode::Analytic);
    table.run_configs(configs);
    let warm = table.run_configs(configs);
    if table.analytic.len() != configs.len() {
        return Err("analytic memo did not hold the slice".into());
    }
    for (c, w) in cold.iter().zip(&warm) {
        let c = serde_json::to_string(c).map_err(|e| e.to_string())?;
        let w = serde_json::to_string(w).map_err(|e| e.to_string())?;
        if c != w {
            return Err(format!("analytic cold and warm answers differ: {c} vs {w}"));
        }
    }
    Ok(configs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_slice_covers_every_axis_value() {
        let grid = ParamGrid::paper();
        for seed in [0, 1, 96, 97, 12345] {
            let configs = slice(seed);
            assert!(configs.len() == 498 || configs.len() == 499);
            assert!(covers_every_axis(&grid, &configs), "seed {seed}");
        }
        assert_ne!(slice(1)[0], slice(2)[0]);
        assert_eq!(slice(5)[0], slice(5 + STRIDE as u64)[0]);
    }

    #[test]
    fn rates_at_reference_speed_divide_each_turn_by_its_host_speed() {
        let turn = |rate, speed| Turn { rate, speed };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b;
        // Turns on a host at full, half and double speed: the same
        // program speed each time.
        let turns = [turn(100.0, 1.0), turn(50.0, 0.5), turn(200.0, 2.0)];
        assert!(close(slope(&turns), 1.0));
        assert!(close(at_reference(&turns), 100.0));
        assert_eq!(as_measured(&turns), 100.0);
        // An engine whose rate follows speed to the power 1.5.
        let turns: Vec<Turn> = [0.8, 1.0, 1.1, 1.25]
            .iter()
            .map(|&s: &f64| turn(100.0 * s.powf(1.5), s))
            .collect();
        assert!(close(slope(&turns), 1.5));
        assert!(close(at_reference(&turns), 100.0));
        // Too few turns, or a speed that never varied: slope 1.
        assert_eq!(slope(&[turn(100.0, 1.0), turn(60.0, 0.5)]), 1.0);
        assert_eq!(
            slope(&[turn(1.0, 2.0), turn(2.0, 2.0), turn(3.0, 2.0)]),
            1.0
        );
        assert!(at_reference(&[]).is_nan());
    }

    #[test]
    fn the_fixture_root_is_this_repository() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        assert_eq!(check_golden_fixtures(&root), Ok(72));
        assert_eq!(check_analytic_cold_equals_warm(&slice(3)[..40]), Ok(40));
    }
}
