//! The `repro serve` child process and the open-loop generator that
//! drives it over one connection from one busy-polling thread, which
//! also times the host-speed probe between blocks of traffic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::mix::Request;
use crate::probe::Probe;
use crate::procfs;
use crate::stats::median;

/// `program args…`, under `taskset` on `cpu` alone when one is given.
fn pinned(program: &Path, cpu: Option<usize>) -> Command {
    match cpu {
        Some(cpu) => {
            let mut taskset = Command::new("taskset");
            taskset.arg("-c").arg(cpu.to_string()).arg(program);
            taskset
        }
        None => Command::new(program),
    }
}

/// A running `repro serve --threads 1`, killed on drop if still alive.
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The announced `host:port`.
    pub addr: String,
}

impl Server {
    /// Spawns the server (on `cpu` alone, if given) and waits for its
    /// `listening on` line.
    pub fn spawn(repro: &Path, cpu: Option<usize>, store: Option<&Path>) -> Result<Server, String> {
        let mut command = pinned(repro, cpu);
        command.args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"]);
        if let Some(dir) = store {
            command.arg("--store").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not announce its address: {line:?}"));
            }
        };
        Ok(Server {
            child,
            stdout,
            addr,
        })
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = oneshot(&self.addr, r#"{"id":"bye","op":"shutdown"}"#)?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("shutdown refused: {reply}"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    let mut rest = String::new();
                    let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
                    return Ok(());
                }
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // One request per write: Nagle would batch them on timer ticks.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One request on a fresh connection, one line back.
pub fn oneshot(addr: &str, line: &str) -> Result<String, String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    Ok(reply)
}

/// Spawns the server and waits for its first `ok` answer; returns it
/// with the seconds that took, the server's set-up time.
pub fn start(
    repro: &Path,
    cpu: Option<usize>,
    store: Option<&Path>,
) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = Server::spawn(repro, cpu, store)?;
    let reply = oneshot(
        &server.addr,
        r#"{"id":0,"op":"predict","config":{"distance_m":20.0}}"#,
    )?;
    let elapsed = t0.elapsed().as_secs_f64();
    if !reply.contains(r#""ok":true"#) {
        return Err(format!("first answer not ok: {reply}"));
    }
    Ok((server, elapsed))
}

/// The leading fields of a response envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// The echoed numeric id.
    pub id: u64,
    /// The op name.
    pub op: &'a str,
    /// `"ok":true`.
    pub ok: bool,
    /// `"cached":true` (ok answers only).
    pub cached: bool,
    /// The error code (error answers only).
    pub code: Option<&'a str>,
}

/// Parses the proto-first envelope layout `{"proto":1,"id":N,"op":"…",
/// "ok":…`; anything else is malformed.
pub fn parse_envelope(line: &str) -> Option<Envelope<'_>> {
    let rest = line.strip_prefix(r#"{"proto":1,"id":"#)?;
    let comma = rest.find(',')?;
    let id = rest[..comma].parse().ok()?;
    let rest = rest[comma..].strip_prefix(r#","op":""#)?;
    let quote = rest.find('"')?;
    let op = &rest[..quote];
    let rest = &rest[quote..];
    if let Some(rest) = rest.strip_prefix(r#"","ok":true,"cached":"#) {
        return Some(Envelope {
            id,
            op,
            ok: true,
            cached: rest.starts_with("true"),
            code: None,
        });
    }
    rest.strip_prefix(r#"","ok":false,"#)?;
    let at = line.find(r#""code":""#)? + 8;
    let end = line[at..].find('"')?;
    Some(Envelope {
        id,
        op,
        ok: false,
        cached: false,
        code: Some(&line[at..at + end]),
    })
}

/// The `result` body of an ok envelope, byte for byte.
pub fn result_body(line: &str) -> Option<&str> {
    let at = line.find(r#","result":"#)? + 10;
    line.trim_end().strip_suffix('}').map(|l| &l[at..])
}

/// How one request ended, under the failure rules of the benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// `ok`, within its deadline from the scheduled send.
    Good,
    /// `ok`, but after its deadline.
    LateOk,
    /// A typed `overloaded`/`deadline` refusal where the workload is
    /// overloaded on purpose.
    Refused(String),
    /// Any other error code.
    Failed(String),
    /// Not an envelope for this request.
    Malformed,
}

/// Classifies a response to request `id` of op `op`.
pub fn classify(
    line: &str,
    id: u64,
    op: &str,
    latency_us: u64,
    deadline_us: u64,
    refusals_expected: bool,
) -> Verdict {
    let Some(env) = parse_envelope(line) else {
        return Verdict::Malformed;
    };
    if env.id != id || env.op != op {
        return Verdict::Malformed;
    }
    match (env.ok, env.code) {
        (true, _) if latency_us <= deadline_us => Verdict::Good,
        (true, _) => Verdict::LateOk,
        (false, Some(code @ ("overloaded" | "deadline"))) if refusals_expected => {
            Verdict::Refused(code.to_string())
        }
        (false, code) => Verdict::Failed(code.unwrap_or("none").to_string()),
    }
}

/// What the generator saw for one request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Receive time minus scheduled send time, ns.
    pub latency_ns: u64,
    /// The verdict.
    pub verdict: Verdict,
}

/// An open-loop schedule cut into blocks: a gap, a block of requests at
/// `rate`, a gap, the next block, …, a closing gap. In each gap the
/// server finishes the block before it, then the generator times the
/// host-speed probe, so that every block lies between two measurements
/// of the host's speed taken a few tens of milliseconds from it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Requests per second within a block.
    pub rate: f64,
    /// Requests per block.
    pub per_block: usize,
    /// The gap between blocks.
    pub gap: Duration,
    /// The part of the gap left for the block before it to finish.
    pub drain: Duration,
    /// Probe slices timed in each gap.
    pub probe_slices: usize,
    /// Length of one probe slice.
    pub probe_slice: Duration,
}

impl Schedule {
    /// The block of request `i`.
    pub fn block(&self, i: usize) -> usize {
        i / self.per_block
    }

    /// The length of one block.
    pub fn block_len(&self) -> Duration {
        Duration::from_secs_f64(self.per_block as f64 / self.rate)
    }

    /// When gap `k` starts (gap `k` precedes block `k`), from the phase
    /// start.
    pub fn gap_start(&self, k: usize) -> Duration {
        (self.gap + self.block_len()) * k as u32
    }

    /// When request `i` is due, from the phase start.
    pub fn due(&self, i: usize) -> Duration {
        let block = self.block(i);
        let within = (i % self.per_block) as f64 / self.rate;
        self.gap_start(block) + self.gap + Duration::from_secs_f64(within)
    }
}

/// The outcome of one open-loop phase.
pub struct Phase {
    /// Per request, its answer (`None`: unanswered after the drain).
    pub answers: Vec<Option<Answer>>,
    /// Per request, how late the sender wrote it, µs.
    pub send_lag_us: Vec<u64>,
    /// Full response lines kept for the byte-identity check, by index.
    pub samples: Vec<(usize, String)>,
    /// Answers whose id was unknown or repeated.
    pub strays: u64,
    /// Server CPU time (ns) at the end of every gap, after the probe: gap
    /// `k`'s read opens block `k`'s window.
    pub cpu_ns: Vec<u64>,
    /// Median host-speed probe rate (steps/s) of every gap.
    pub gap_steps: Vec<f64>,
}

/// A child copy of this benchmark that times the host-speed probe on the
/// server's CPU on request: each line written to it asks for one gap's
/// probe slices, and it answers with their median rate. Between requests
/// it sleeps on its input. Killed on drop if still alive.
pub struct ProbeHelper {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl ProbeHelper {
    /// Starts the helper (on `cpu` alone, if given).
    pub fn spawn(cpu: Option<usize>) -> Result<ProbeHelper, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut child = pinned(&exe, cpu)
            .arg("--probe-helper")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the probe helper: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(ProbeHelper { child, stdout })
    }

    /// The median probe rate (steps/s) of `slices` slices of `slice`.
    pub fn rate(&mut self, slices: usize, slice: Duration) -> Result<f64, String> {
        let stdin = self.child.stdin.as_mut().expect("stdin is piped");
        writeln!(stdin, "{slices} {}", slice.as_micros())
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("probe helper: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("probe helper: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("probe helper answered {line:?}"))
    }
}

impl Drop for ProbeHelper {
    fn drop(&mut self) {
        // Closing its input ends it.
        drop(self.child.stdin.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
        }
    }
}

/// The helper's side: answers each request line on stdin with the median
/// rate of the probe slices it asks for.
pub fn serve_probe() -> Result<(), String> {
    let mut probe = Probe::new();
    // One untimed slice loads code and data.
    probe.rate(Duration::from_millis(20));
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut fields = line.split_whitespace().map(str::parse::<u64>);
        let (Some(Ok(slices)), Some(Ok(micros))) = (fields.next(), fields.next()) else {
            return Err(format!("bad probe request {line:?}"));
        };
        let rates: Vec<f64> = (0..slices)
            .map(|_| probe.rate(Duration::from_micros(micros)))
            .collect();
        writeln!(out, "{:?}", median(&rates).unwrap_or(f64::NAN))
            .and_then(|_| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The receiving side of an open-loop phase.
struct Receiver<'a> {
    requests: &'a [Request],
    schedule: Schedule,
    start: Instant,
    refusals_expected: bool,
    keep: Vec<bool>,
    answers: Vec<Option<Answer>>,
    samples: Vec<(usize, String)>,
    strays: u64,
    answered: usize,
    /// Bytes read but not yet ended by a newline.
    pending: Vec<u8>,
    /// The server closed the connection.
    closed: bool,
}

impl Receiver<'_> {
    /// Reads what the socket holds without waiting and takes in every
    /// complete line; returns whether it read anything.
    fn poll(&mut self, stream: &mut TcpStream) -> Result<bool, String> {
        let mut chunk = [0u8; 16 * 1024];
        let mut read = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(read);
                }
                Ok(k) => {
                    read = true;
                    let now = Instant::now();
                    self.pending.extend_from_slice(&chunk[..k]);
                    while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = self.pending.drain(..=end).collect();
                        self.take(std::str::from_utf8(&line).unwrap_or(""), now);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(read),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
    }

    /// Records one answer line, received at `now`.
    fn take(&mut self, line: &str, now: Instant) {
        let Some(env) = parse_envelope(line) else {
            self.strays += 1;
            return;
        };
        let i = env.id as usize;
        if i >= self.answers.len() || self.answers[i].is_some() {
            self.strays += 1;
            return;
        }
        let latency_ns = now
            .saturating_duration_since(self.start + self.schedule.due(i))
            .as_nanos() as u64;
        let verdict = classify(
            line,
            env.id,
            self.requests[i].class.op(),
            latency_ns / 1000,
            crate::mix::DEADLINE_MS * 1000,
            self.refusals_expected,
        );
        if self.keep[i] && verdict == Verdict::Good {
            self.samples.push((i, line.trim_end().to_string()));
        }
        self.answers[i] = Some(Answer {
            latency_ns,
            verdict,
        });
        self.answered += 1;
    }
}

/// Drives `requests` on one connection by `schedule`, from this thread
/// alone: it busy-polls the clock and the socket, so that it writes each
/// request when it is due and reads each answer when it arrives, without
/// the wake-up delays of a sleeping thread in either figure, and yields
/// its CPU whenever a server thread waits for it. In the gaps it has
/// `probe` time the host-speed probe on the server's CPU and reads the
/// server's CPU time. It stops when
/// every request is answered after the closing gap, or `grace` after
/// that gap. Responses of the indices in `keep` are kept whole.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    server: &Server,
    schedule: Schedule,
    probe: &mut ProbeHelper,
    requests: &[Request],
    grace: Duration,
    refusals_expected: bool,
    keep: &[usize],
) -> Result<Phase, String> {
    let mut stream = connect(&server.addr)?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let n = requests.len();
    let blocks = n.div_ceil(schedule.per_block);
    let lines: Vec<String> = requests.iter().map(|r| format!("{}\n", r.line)).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + schedule.gap_start(blocks) + schedule.gap + grace;
    let mut rx = Receiver {
        requests,
        schedule,
        start,
        refusals_expected,
        keep: vec![false; n],
        answers: vec![None; n],
        samples: Vec::new(),
        strays: 0,
        answered: 0,
        pending: Vec::new(),
        closed: false,
    };
    for &i in keep {
        rx.keep[i] = true;
    }
    let pid = server.pid();
    let mut lag = Vec::with_capacity(n);
    let (mut cpu_ns, mut gap_steps) = (Vec::new(), Vec::new());
    // Requests written, and gaps done (gap k precedes block k; gap
    // `blocks` closes the phase).
    let (mut sent, mut gaps) = (0, 0);
    while !rx.closed && (gaps <= blocks || rx.answered < n) {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if gaps <= blocks
            && sent == (gaps * schedule.per_block).min(n)
            && now >= start + schedule.gap_start(gaps) + schedule.drain
        {
            rx.poll(&mut stream)?;
            gap_steps.push(probe.rate(schedule.probe_slices, schedule.probe_slice)?);
            cpu_ns.push(procfs::cpu_ns(pid).ok_or("cannot read server CPU time")?);
            gaps += 1;
            continue;
        }
        if sent < n && gaps > schedule.block(sent) && now >= start + schedule.due(sent) {
            lag.push(now.duration_since(start + schedule.due(sent)).as_micros() as u64);
            let bytes = lines[sent].as_bytes();
            let mut written = 0;
            while written < bytes.len() {
                match stream.write(&bytes[written..]) {
                    Ok(k) => written += k,
                    // The server is not reading: take its answers in
                    // while waiting.
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        rx.poll(&mut stream)?;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
            sent += 1;
            continue;
        }
        // Nothing due and nothing read: let a server thread that shares
        // this CPU run first.
        if !rx.poll(&mut stream)? {
            std::thread::yield_now();
        }
    }
    if gaps <= blocks {
        return Err(format!(
            "the phase ended after {gaps} of {} gaps",
            blocks + 1
        ));
    }
    Ok(Phase {
        answers: rx.answers,
        send_lag_us: lag,
        samples: rx.samples,
        strays: rx.strays,
        cpu_ns,
        gap_steps,
    })
}

/// Sends `requests` pipelined (closed loop over the whole batch) and
/// waits for every answer; returns how many were `ok`.
pub fn warm(addr: &str, requests: &[Request]) -> Result<usize, String> {
    let mut stream = connect(addr)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut ok = 0;
    // Batches of 64 stay far below the server's 256-slot queue.
    for batch in requests.chunks(64) {
        let text: String = batch.iter().map(|r| format!("{}\n", r.line)).collect();
        stream
            .write_all(text.as_bytes())
            .map_err(|e| format!("warm send: {e}"))?;
        for _ in batch {
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("warm receive: {e}"))?;
            if parse_envelope(&line).is_some_and(|e| e.ok) {
                ok += 1;
            }
        }
    }
    Ok(ok)
}

/// A scrape of the server's own counters at one instant.
#[derive(Debug, Clone)]
pub struct Scrape {
    /// The `cache` op's `result`.
    pub cache: serde_json::Value,
    /// The `stats` op's `result`.
    pub stats: serde_json::Value,
    /// Process CPU ticks.
    pub cpu: procfs::CpuTicks,
    /// Process CPU time summed over its threads, ns.
    pub cpu_ns: u64,
    /// Process status (peak RSS, context switches over all threads).
    pub status: procfs::Status,
}

/// Reads the `cache` and `stats` ops and `/proc` for `server`.
pub fn scrape(server: &Server) -> Result<Scrape, String> {
    let op = |line: &str| -> Result<serde_json::Value, String> {
        let reply = oneshot(&server.addr, line)?;
        let body = result_body(&reply).ok_or_else(|| format!("scrape failed: {reply}"))?;
        serde_json::parse(body).map_err(|e| e.to_string())
    };
    let pid = server.pid();
    Ok(Scrape {
        cache: op(r#"{"id":"scrape","op":"cache"}"#)?,
        stats: op(r#"{"id":"scrape","op":"stats"}"#)?,
        cpu: procfs::cpu(pid).ok_or("cannot read server /proc stat")?,
        cpu_ns: procfs::cpu_ns(pid).ok_or("cannot read server /proc schedstat")?,
        status: procfs::status(pid).ok_or("cannot read server /proc status")?,
    })
}

/// A fresh, empty scratch directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = r#"{"proto":1,"id":17,"op":"predict","ok":true,"cached":true,"service_us":3,"trace":"00ff","result":{"a":[1,{"b":2}]}}"#;
    const OVERLOADED: &str = r#"{"proto":1,"id":18,"op":"tune","ok":false,"trace":"0a","code":"overloaded","error":"server busy: request queue is full"}"#;
    const INTERNAL: &str =
        r#"{"proto":1,"id":19,"op":"tune","ok":false,"trace":"0b","code":"internal","error":"x"}"#;

    #[test]
    fn envelopes_parse_in_their_proto_first_layout() {
        let ok = parse_envelope(OK).expect("ok envelope");
        assert_eq!(
            (ok.id, ok.op, ok.ok, ok.cached, ok.code),
            (17, "predict", true, true, None)
        );
        let err = parse_envelope(OVERLOADED).expect("error envelope");
        assert_eq!((err.id, err.ok, err.code), (18, false, Some("overloaded")));
        assert_eq!(result_body(OK), Some(r#"{"a":[1,{"b":2}]}"#));
        // Not proto-first, or a non-numeric id: malformed.
        assert!(parse_envelope(r#"{"id":17,"proto":1,"op":"predict","ok":true}"#).is_none());
        assert!(parse_envelope(r#"{"proto":1,"id":"x","op":"predict","ok":true}"#).is_none());
    }

    #[test]
    fn schedules_put_a_gap_before_every_block() {
        let s = Schedule {
            rate: 10.0,
            per_block: 5,
            gap: Duration::from_millis(100),
            drain: Duration::from_millis(50),
            probe_slices: 2,
            probe_slice: Duration::from_millis(20),
        };
        assert_eq!(s.block_len(), Duration::from_millis(500));
        assert_eq!(s.due(0), Duration::from_millis(100));
        assert_eq!(s.due(4), Duration::from_millis(500));
        // Block 1 opens after block 0 and gap 1.
        assert_eq!(s.gap_start(1), Duration::from_millis(600));
        assert_eq!(s.due(5), Duration::from_millis(700));
        assert_eq!((s.block(4), s.block(5), s.block(10)), (0, 1, 2));
    }

    #[test]
    fn answers_are_timed_from_their_schedule_and_strays_are_counted() {
        let schedule = Schedule {
            rate: 1000.0,
            per_block: 2,
            gap: Duration::from_millis(10),
            drain: Duration::from_millis(5),
            probe_slices: 1,
            probe_slice: Duration::from_millis(1),
        };
        let request = |id: u64| Request {
            line: format!(r#"{{"id":{id},"op":"predict"}}"#),
            class: crate::mix::Class::PredictAnalytic,
        };
        let requests = [request(0), request(1)];
        let start = Instant::now();
        let mut rx = Receiver {
            requests: &requests,
            schedule,
            start,
            refusals_expected: false,
            keep: vec![true, false],
            answers: vec![None; 2],
            samples: Vec::new(),
            strays: 0,
            answered: 0,
            pending: Vec::new(),
            closed: false,
        };
        let ok = |id: u64| {
            format!(
                r#"{{"proto":1,"id":{id},"op":"predict","ok":true,"cached":true,"result":{{}}}}"#
            )
        };
        // Request 1 is due 1 ms after request 0, both after the first gap.
        let at = start + Duration::from_micros(11_250);
        rx.take(&ok(1), at);
        rx.take(&ok(0), at);
        let latency = |i: usize| rx.answers[i].as_ref().map(|a| a.latency_ns);
        assert_eq!((latency(0), latency(1)), (Some(1_250_000), Some(250_000)));
        // A repeated id, an unknown id and a line that is no envelope.
        rx.take(&ok(0), at);
        rx.take(&ok(7), at);
        rx.take("garbage", at);
        assert_eq!((rx.answered, rx.strays), (2, 3));
        // Only kept indices keep their line.
        assert_eq!(rx.samples, vec![(0, ok(0))]);
    }

    #[test]
    fn failure_classification_follows_the_rules() {
        let d = 1_000_000;
        assert_eq!(classify(OK, 17, "predict", 900, d, false), Verdict::Good);
        assert_eq!(
            classify(OK, 17, "predict", d + 1, d, false),
            Verdict::LateOk
        );
        assert_eq!(
            classify(OK, 16, "predict", 900, d, false),
            Verdict::Malformed
        );
        assert_eq!(classify(OK, 17, "tune", 900, d, false), Verdict::Malformed);
        assert_eq!(
            classify(OVERLOADED, 18, "tune", 5, d, false),
            Verdict::Failed("overloaded".into())
        );
        assert_eq!(
            classify(OVERLOADED, 18, "tune", 5, d, true),
            Verdict::Refused("overloaded".into())
        );
        assert_eq!(
            classify(INTERNAL, 19, "tune", 5, d, true),
            Verdict::Failed("internal".into())
        );
    }
}
