//! The serve request streams: the `repro loadgen` op mix over a hot key
//! pool or over a key space that never repeats.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-request budget, the same as `repro loadgen`'s mix.
pub const DEADLINE_MS: u64 = 1000;

/// The 4×4×4 configuration pool of `repro loadgen` (64 configs).
const DISTANCES_M: [f64; 4] = [10.0, 15.0, 20.0, 25.0];
const POWER_LEVELS: [u8; 4] = [15, 23, 27, 31];
const PAYLOAD_BYTES: [u16; 4] = [30, 50, 80, 110];

/// One op class of the mix, with its weight in percent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    PredictAnalytic,
    PredictGolden,
    SimulateGolden,
    SimulateFast,
    Scenario,
    Tune,
    Explore,
}

impl Class {
    /// Every class, in mix order.
    pub const ALL: [Class; 7] = [
        Class::PredictAnalytic,
        Class::PredictGolden,
        Class::SimulateGolden,
        Class::SimulateFast,
        Class::Scenario,
        Class::Tune,
        Class::Explore,
    ];

    /// The metric-name stem (`engine.<name>_us`).
    pub fn name(self) -> &'static str {
        match self {
            Class::PredictAnalytic => "predict_analytic",
            Class::PredictGolden => "predict_golden",
            Class::SimulateGolden => "simulate_golden",
            Class::SimulateFast => "simulate_fast",
            Class::Scenario => "scenario",
            Class::Tune => "tune",
            Class::Explore => "explore",
        }
    }

    /// The wire op name.
    pub fn op(self) -> &'static str {
        match self {
            Class::PredictAnalytic | Class::PredictGolden => "predict",
            Class::SimulateGolden | Class::SimulateFast => "simulate",
            Class::Scenario => "scenario",
            Class::Tune => "tune",
            Class::Explore => "explore",
        }
    }

    /// Picks a class by the mix weights 40/20/15/15/5/3/2.
    fn roll(rng: &mut StdRng) -> Class {
        match rng.gen_range(0..100u32) {
            0..=39 => Class::PredictAnalytic,
            40..=59 => Class::PredictGolden,
            60..=74 => Class::SimulateGolden,
            75..=89 => Class::SimulateFast,
            90..=94 => Class::Scenario,
            95..=97 => Class::Tune,
            _ => Class::Explore,
        }
    }
}

/// Which keys the stream draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keys {
    /// The 64-config pool with the default seed: 265 distinct questions,
    /// all warmed before timing.
    Hot,
    /// Fresh seeds for simulate and scenario, fresh continuous
    /// off-grid distances for predict, tune and explore: no key repeats.
    Miss,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request line, without the trailing newline.
    pub line: String,
    /// Its op class.
    pub class: Class,
}

/// A seeded request generator.
pub struct Generator {
    rng: StdRng,
    keys: Keys,
    used_distances: HashSet<u64>,
    used_seeds: HashSet<u64>,
}

impl Generator {
    /// A generator for `keys`, its choices fixed by `seed`.
    pub fn new(keys: Keys, seed: u64) -> Self {
        Generator {
            rng: StdRng::seed_from_u64(seed),
            keys,
            used_distances: HashSet::new(),
            used_seeds: HashSet::new(),
        }
    }

    /// The next request of the mix, with numeric id `id`.
    pub fn next(&mut self, id: u64) -> Request {
        let class = Class::roll(&mut self.rng);
        self.request(class, id)
    }

    /// A request of `class` with numeric id `id`.
    pub fn request(&mut self, class: Class, id: u64) -> Request {
        let pool = (
            DISTANCES_M[self.rng.gen_range(0..4usize)],
            POWER_LEVELS[self.rng.gen_range(0..4usize)],
            PAYLOAD_BYTES[self.rng.gen_range(0..4usize)],
        );
        let line = match self.keys {
            Keys::Hot => hot_line(class, id, pool, DISTANCES_M[self.rng.gen_range(0..4usize)]),
            Keys::Miss => {
                let (_, p, b) = pool;
                match class {
                    Class::PredictAnalytic | Class::PredictGolden => {
                        let d = self.fresh_distance();
                        body(class, id, (d, p, b), 0, 0.0)
                    }
                    Class::SimulateGolden | Class::SimulateFast | Class::Scenario => {
                        let seed = self.fresh_seed();
                        body(class, id, pool, seed, 0.0)
                    }
                    Class::Tune | Class::Explore => {
                        let d = self.fresh_distance();
                        body(class, id, pool, 0, d)
                    }
                }
            }
        };
        Request { line, class }
    }

    /// A distance in the 10–35 m range never drawn before in this run.
    fn fresh_distance(&mut self) -> f64 {
        loop {
            let d = 10.0 + 25.0 * self.rng.gen::<f64>();
            if self.used_distances.insert(d.to_bits()) {
                return d;
            }
        }
    }

    /// A simulation seed never drawn before in this run (and never the
    /// protocol's default seed, which the hot pool uses).
    fn fresh_seed(&mut self) -> u64 {
        loop {
            let s = self.rng.gen::<u64>();
            if s != wsn_serve::protocol::DEFAULT_SEED && self.used_seeds.insert(s) {
                return s;
            }
        }
    }
}

/// A hot-pool request: default seeds, grid distances.
fn hot_line(class: Class, id: u64, pool: (f64, u8, u16), d: f64) -> String {
    body(class, id, pool, wsn_serve::protocol::DEFAULT_SEED, d)
}

/// Renders one request line. `seed` feeds simulate/scenario, `scan_d`
/// the tune/explore distance; f64s print in shortest round-trip form, so
/// the server parses back the exact bits drawn here.
fn body(class: Class, id: u64, (d, p, b): (f64, u8, u16), seed: u64, scan_d: f64) -> String {
    let cfg = format!(r#"{{"distance_m":{d:?},"power_level":{p},"payload_bytes":{b}}}"#);
    let head = format!(
        r#"{{"id":{id},"op":"{}","deadline_ms":{DEADLINE_MS}"#,
        class.op()
    );
    match class {
        Class::PredictAnalytic => format!(r#"{head},"engine":"analytic","config":{cfg}}}"#),
        Class::PredictGolden => format!(r#"{head},"config":{cfg}}}"#),
        Class::SimulateGolden => format!(r#"{head},"packets":60,"seed":{seed},"config":{cfg}}}"#),
        Class::SimulateFast => {
            format!(r#"{head},"packets":60,"seed":{seed},"engine":"fast","config":{cfg}}}"#)
        }
        Class::Scenario => {
            format!(r#"{head},"scenario":"hidden-pair","packets":40,"seed":{seed}}}"#)
        }
        Class::Tune => format!(
            r#"{head},"objective":"energy","constraints":[{{"metric":"loss","max":0.05}}],"distance_m":{scan_d:?}}}"#
        ),
        Class::Explore => format!(
            r#"{head},"objective":"energy","budget":256,"engine":"analytic","distance_m":{scan_d:?}}}"#
        ),
    }
}

/// Every distinct question of the hot pool (265 of them), ids from
/// `first_id` on: the warm-up set.
pub fn hot_keys(first_id: u64) -> Vec<Request> {
    let mut out = Vec::new();
    let mut id = first_id;
    let mut push = |class: Class, pool: (f64, u8, u16), d: f64| {
        out.push(Request {
            line: hot_line(class, id, pool, d),
            class,
        });
        id += 1;
    };
    for &d in &DISTANCES_M {
        for &p in &POWER_LEVELS {
            for &b in &PAYLOAD_BYTES {
                for class in [
                    Class::PredictAnalytic,
                    Class::PredictGolden,
                    Class::SimulateGolden,
                    Class::SimulateFast,
                ] {
                    push(class, (d, p, b), 0.0);
                }
            }
        }
        push(Class::Tune, (10.0, 15, 30), d);
        push(Class::Explore, (10.0, 15, 30), d);
    }
    push(Class::Scenario, (10.0, 15, 30), 0.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wsn_serve::protocol::{cache_key, parse_request};

    fn stream(keys: Keys, seed: u64, count: usize) -> Vec<Request> {
        let mut generator = Generator::new(keys, seed);
        (0..count as u64).map(|id| generator.next(id)).collect()
    }

    fn key_of(line: &str) -> String {
        let request = parse_request(line).unwrap_or_else(|e| panic!("{line}: {}", e.error));
        cache_key(&request.body).expect("mix ops are cacheable")
    }

    #[test]
    fn a_miss_stream_never_repeats_a_key() {
        let requests = stream(Keys::Miss, 7, 20_000);
        let keys: HashSet<String> = requests.iter().map(|r| key_of(&r.line)).collect();
        assert_eq!(keys.len(), requests.len());
    }

    #[test]
    fn the_hot_stream_stays_inside_the_warm_set() {
        let warm: HashSet<String> = hot_keys(0).iter().map(|r| key_of(&r.line)).collect();
        assert_eq!(warm.len(), 265);
        for r in stream(Keys::Hot, 3, 5_000) {
            assert!(warm.contains(&key_of(&r.line)), "{}", r.line);
        }
    }

    #[test]
    fn streams_follow_the_mix_weights_and_the_seed() {
        let requests = stream(Keys::Miss, 11, 20_000);
        let mut counts = BTreeMap::new();
        for r in &requests {
            *counts.entry(r.class).or_insert(0usize) += 1;
        }
        let share = |c: Class| counts[&c] as f64 / requests.len() as f64;
        assert!((share(Class::PredictAnalytic) - 0.40).abs() < 0.02);
        assert!((share(Class::Explore) - 0.02).abs() < 0.01);
        let again = stream(Keys::Miss, 11, 50);
        assert!(again.iter().zip(&requests).all(|(a, b)| a.line == b.line));
        let other = stream(Keys::Miss, 12, 50);
        assert!(other.iter().zip(&requests).any(|(a, b)| a.line != b.line));
    }

    #[test]
    fn ids_and_ops_are_echoable() {
        for (i, r) in stream(Keys::Hot, 1, 100).iter().enumerate() {
            let request = parse_request(&r.line).expect("parses");
            assert_eq!(request.id, i.to_string());
            assert_eq!(request.op.name(), r.class.op());
            assert_eq!(request.deadline_ms, Some(DEADLINE_MS));
        }
    }
}
