//! The serve phases: a closed loop of `Server::handle_line` calls with
//! nothing else queued, then an open loop through `serve_stream` over an
//! in-process pipe.
//!
//! Open loop: one generator thread writes request lines on a fixed-rate
//! schedule, one reader thread timestamps each response line as it
//! arrives. Latency runs from a request's scheduled send time, so a
//! stalled generator or server charges every request that waits behind
//! it. Cold requests carry a netlist the cache has never seen (a corpus
//! netlist plus a unique trailing comment: new bytes, same design); warm
//! requests repeat the exact bytes of a netlist cached in the closed
//! loop.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use drd_check::Rng;
use drd_netlist::hash::content_hash128;
use drd_serve::{json, serve_stream, Server};

use crate::inputs::{Design, LADDER, STEPS, WARM_SHARE};
use crate::trace::Tracer;

/// Shares of the open-loop time given to the unreported warm-up at the
/// base rate and to the base step; the other steps share what is left.
const WARMUP_SHARE: f64 = 0.05;
const BASE_STEP_SHARE: f64 = 0.45;

/// Longest wait for a step's responses before the next step starts.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(15);

/// One parsed-enough response line (full JSON parsing stays off the
/// reader's path).
struct Response {
    id: String,
    at: Instant,
    ok: bool,
    cached: bool,
    /// Hash of the artifact part (`"report":` onwards), which is the same
    /// for a cold run and its cache replay.
    artifacts: Option<u128>,
    bytes: usize,
    line: Option<String>,
}

/// One open-loop request.
struct Request {
    step: usize,
    design: usize,
    warm: bool,
    line: String,
}

/// Outcome of one open-loop rate step.
pub struct Step {
    pub rate: f64,
    pub sent: usize,
    /// Generator lateness (ns) of every send.
    pub late_ns: Vec<f64>,
    /// Latency (ns) of every answered request, and split by class, in
    /// send order.
    pub all_ns: Vec<f64>,
    pub cold_ns: Vec<f64>,
    pub warm_ns: Vec<f64>,
    /// Requests sent but unanswered when the step's schedule ended.
    pub in_flight_end: usize,
    /// Wait (ns) beyond the closed-loop service median of the request's
    /// design and class.
    pub wait_ns: Vec<f64>,
}

/// Everything the serve phases measured.
pub struct ServeOut {
    /// Closed-loop service times (ns) per design.
    pub cold_service: Vec<Vec<f64>>,
    pub warm_service: Vec<Vec<f64>>,
    /// Reference artifact hash per design (from its first, cold run).
    pub reference: Vec<u128>,
    pub steps: Vec<Step>,
    pub stats: Option<json::Value>,
    pub response_bytes: Vec<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn parse_response(line: &str, at: Instant) -> Response {
    let bytes = line.trim_end().as_bytes();
    let head = &bytes[..bytes.len().min(256)];
    let id = head
        .strip_prefix(b"{\"id\":\"")
        .and_then(|rest| rest.iter().position(|&b| b == b'"').map(|end| &rest[..end]))
        .map(|id| String::from_utf8_lossy(id).into_owned())
        .unwrap_or_default();
    let artifacts = find(bytes, b",\"report\":").map(|p| content_hash128(&bytes[p..]));
    Response {
        ok: find(head, b"\"status\":\"ok\"").is_some(),
        cached: find(head, b"\"cached\":true").is_some(),
        line: (id == "stats").then(|| line.trim_end().to_owned()),
        id,
        at,
        artifacts,
        bytes: bytes.len(),
    }
}

fn desync_line(id: &str, verilog: &str) -> String {
    let mut line = format!("{{\"id\":\"{id}\",\"kind\":\"desync\",\"verilog\":");
    json::escape_into(&mut line, verilog);
    line.push_str("}\n");
    line
}

/// A netlist the cache has not seen: the design plus a unique comment.
fn cold_text(d: &Design, serial: usize) -> String {
    format!("{}\n// perfbench cold request {serial}\n", d.text)
}

/// The serve phases against one server: closed-loop requests in chunks
/// ([`Serve::closed`]), then the open-loop ladder ([`Serve::open`]).
pub struct Serve<'s, 'a> {
    server: &'s Server<'a>,
    designs: &'s [Design],
    /// The exact request line of every design (warm repeats resend it).
    pool: Vec<String>,
    /// Cold variants sent so far; each gets a unique trailing comment.
    serial: usize,
    /// Closed-loop steps made: step `k` serves design `k % n` in round
    /// `k / n`.
    steps: usize,
    out: ServeOut,
}

impl<'s, 'a> Serve<'s, 'a> {
    pub fn new(server: &'s Server<'a>, designs: &'s [Design]) -> Self {
        Serve {
            server,
            designs,
            pool: designs
                .iter()
                .enumerate()
                .map(|(i, d)| desync_line(&format!("w{i}"), &d.text))
                .collect(),
            serial: 0,
            steps: 0,
            out: ServeOut {
                cold_service: vec![Vec::new(); designs.len()],
                warm_service: vec![Vec::new(); designs.len()],
                reference: vec![0; designs.len()],
                steps: Vec::new(),
                stats: None,
                response_bytes: Vec::new(),
                attempted: 0,
                failures: Vec::new(),
            },
        }
    }

    fn call(
        &self,
        line: &str,
        name: &'static str,
        tr: &mut Tracer,
        job: &mut u32,
    ) -> (f64, Response) {
        let t0 = Instant::now();
        let response = self.server.handle_line(line.trim_end());
        let t1 = Instant::now();
        tr.record(name, *job, None, t0, t1);
        *job += 1;
        ((t1 - t0).as_nanos() as f64, parse_response(&response, t1))
    }

    /// One closed-loop step. In round 0 a design's first request fills
    /// the cache (and is a cold sample); later rounds send a cold variant
    /// and then a warm repeat.
    fn step(&mut self, tr: &mut Tracer, next_job: &mut u32) {
        let (i, round) = (
            self.steps % self.designs.len(),
            self.steps / self.designs.len(),
        );
        self.steps += 1;
        let d = &self.designs[i];
        self.out.attempted += 1;
        let (ns, r) = if round == 0 {
            self.call(&self.pool[i], "serve.handle_line.cold", tr, next_job)
        } else {
            self.serial += 1;
            let line = desync_line(&format!("c{}", self.serial), &cold_text(d, self.serial));
            self.call(&line, "serve.handle_line.cold", tr, next_job)
        };
        match (r.ok, r.cached, r.artifacts) {
            (true, false, Some(h)) if round == 0 => self.out.reference[i] = h,
            (true, false, Some(h)) if h == self.out.reference[i] => {}
            _ => self.out.failures.push(format!(
                "serve closed loop: cold {} answered wrongly",
                d.name
            )),
        }
        self.out.cold_service[i].push(ns);
        if round > 0 {
            self.out.attempted += 1;
            let (ns, r) = self.call(&self.pool[i], "serve.handle_line.warm", tr, next_job);
            if !(r.ok && r.cached && r.artifacts == Some(self.out.reference[i])) {
                self.out.failures.push(format!(
                    "serve closed loop: warm {} answered wrongly",
                    d.name
                ));
            }
            self.out.warm_service[i].push(ns);
        }
    }

    /// Closed-loop steps until `budget` is spent, at least one; `between`
    /// runs after each.
    pub fn closed(
        &mut self,
        budget: Duration,
        between: &mut dyn FnMut(),
        tr: &mut Tracer,
        next_job: &mut u32,
    ) {
        let deadline = Instant::now() + budget;
        loop {
            self.step(tr, next_job);
            between();
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// The open-loop ladder over `open_s` seconds, its requests drawn from
    /// `seed`; returns everything both loops measured.
    pub fn open(mut self, seed: u64, open_s: f64, tr: &mut Tracer, next_job: &mut u32) -> ServeOut {
        // Warm requests need every design cached.
        while self.steps < self.designs.len() {
            self.step(tr, next_job);
        }
        let Serve {
            server,
            designs,
            mut serial,
            mut out,
            ..
        } = self;
        // Open loop: build every request line before the clock starts.
        let mut rng = Rng::new(seed ^ 0x0BE2_5E2E);
        let durations: Vec<f64> = (0..STEPS)
            .map(|k| {
                open_s
                    * if k == 0 {
                        BASE_STEP_SHARE
                    } else {
                        (1.0 - BASE_STEP_SHARE - WARMUP_SHARE) / (STEPS - 1) as f64
                    }
            })
            .collect();
        let mut requests = Vec::new();
        let mut plan = Vec::new();
        // A short unreported warm-up at the base rate comes first, so thread
        // and pipe start-up costs stay out of step 0.
        let warmup = (
            LADDER[0],
            ((LADDER[0] * WARMUP_SHARE * open_s).round() as usize).max(2),
        );
        let steps = std::iter::once(warmup).chain(
            LADDER
                .iter()
                .zip(&durations)
                .map(|(&rate, &dur)| (rate, ((rate * dur).round() as usize).max(4))),
        );
        for (k, (rate, n)) in steps.enumerate() {
            plan.push((rate, n));
            for _ in 0..n {
                let design = rng.range(0, designs.len());
                let warm = rng.next_f64() < WARM_SHARE;
                let id = format!("o{}", requests.len());
                let line = if warm {
                    desync_line(&id, &designs[design].text)
                } else {
                    serial += 1;
                    desync_line(&id, &cold_text(&designs[design], serial))
                };
                requests.push(Request {
                    step: k,
                    design,
                    warm,
                    line,
                });
            }
        }
        out.attempted += requests.len();

        let stop = AtomicBool::new(false);
        let received = AtomicUsize::new(0);
        let (pipe_result, gen, responses) = std::thread::scope(|s| {
            let (req_r, mut req_w) = match std::io::pipe() {
                Ok(p) => p,
                Err(e) => return (Err(e), None, Vec::new()),
            };
            let (resp_r, resp_w) = match std::io::pipe() {
                Ok(p) => p,
                Err(e) => return (Err(e), None, Vec::new()),
            };
            let stop = &stop;
            let received = &received;
            let srv = s.spawn(move || serve_stream(server, BufReader::new(req_r), resp_w, stop));
            let reader = s.spawn(move || {
                let mut r = BufReader::new(resp_r);
                let mut got = Vec::new();
                let mut line = String::new();
                while let Ok(n) = r.read_line(&mut line) {
                    if n == 0 {
                        break;
                    }
                    got.push(parse_response(&line, Instant::now()));
                    received.fetch_add(1, Ordering::SeqCst);
                    line.clear();
                }
                got
            });
            let requests = &requests;
            let plan = &plan;
            let generator = s.spawn(move || -> std::io::Result<(Vec<Instant>, Vec<Step>)> {
                let mut due_at = Vec::with_capacity(requests.len());
                let mut steps = Vec::new();
                let mut idx = 0;
                for &(rate, n) in plan {
                    let start = Instant::now() + Duration::from_millis(2);
                    let mut late_ns = Vec::with_capacity(n);
                    for i in 0..n {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        req_w.write_all(requests[idx].line.as_bytes())?;
                        late_ns.push(sent.saturating_duration_since(due).as_nanos() as f64);
                        due_at.push(due);
                        idx += 1;
                    }
                    let end = start + Duration::from_secs_f64(n as f64 / rate);
                    let now = Instant::now();
                    if end > now {
                        std::thread::sleep(end - now);
                    }
                    let in_flight_end = idx.saturating_sub(received.load(Ordering::SeqCst));
                    let drain = Instant::now() + DRAIN_TIMEOUT;
                    while received.load(Ordering::SeqCst) < idx && Instant::now() < drain {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    steps.push(Step {
                        rate,
                        sent: n,
                        late_ns,
                        all_ns: Vec::new(),
                        cold_ns: Vec::new(),
                        warm_ns: Vec::new(),
                        in_flight_end,
                        wait_ns: Vec::new(),
                    });
                }
                req_w.write_all(b"{\"id\":\"stats\",\"kind\":\"stats\"}\n")?;
                req_w.flush()?;
                drop(req_w);
                Ok((due_at, steps))
            });
            let gen = generator.join().expect("generator thread");
            let served = srv.join().expect("server thread");
            let got = reader.join().expect("reader thread");
            (served.map(|_| ()), Some(gen), got)
        });
        if let Err(e) = pipe_result {
            out.failures.push(format!("serve_stream: {e}"));
        }
        let (due_at, mut steps) = match gen {
            Some(Ok(g)) => g,
            Some(Err(e)) => {
                out.failures.push(format!("generator: {e}"));
                return out;
            }
            None => return out,
        };

        // Off the clock: match responses to requests and check them.
        let service_median = |v: &Vec<f64>| crate::stats::median(v);
        let cold_med: Vec<f64> = out.cold_service.iter().map(service_median).collect();
        let warm_med: Vec<f64> = out.warm_service.iter().map(service_median).collect();
        let mut answered = vec![false; requests.len()];
        let mut latency: Vec<Option<f64>> = vec![None; requests.len()];
        for r in &responses {
            if r.id == "stats" {
                out.stats = r.line.as_deref().and_then(|l| json::parse(l).ok());
                continue;
            }
            let Some(i) = r.id.strip_prefix('o').and_then(|n| n.parse::<usize>().ok()) else {
                out.failures
                    .push(format!("unexpected response id `{}`", r.id));
                continue;
            };
            let (Some(req), Some(&due)) = (requests.get(i), due_at.get(i)) else {
                out.failures
                    .push(format!("response for unsent request {i}"));
                continue;
            };
            answered[i] = true;
            if !(r.ok && r.cached == req.warm && r.artifacts == Some(out.reference[req.design])) {
                out.failures.push(format!(
                    "open loop: {} request {i} ({}) answered wrongly",
                    if req.warm { "warm" } else { "cold" },
                    designs[req.design].name
                ));
            }
            out.response_bytes.push(r.bytes as f64);
            latency[i] = Some(r.at.saturating_duration_since(due).as_nanos() as f64);
        }
        // Per-step samples in send order, so windows of a step are contiguous.
        for (req, lat) in requests.iter().zip(&latency) {
            let Some(lat) = *lat else { continue };
            let step = &mut steps[req.step];
            step.all_ns.push(lat);
            let service = if req.warm {
                step.warm_ns.push(lat);
                warm_med[req.design]
            } else {
                step.cold_ns.push(lat);
                cold_med[req.design]
            };
            step.wait_ns.push(lat - service);
        }
        let missing = answered.iter().filter(|a| !**a).count();
        if missing > 0 {
            out.failures
                .push(format!("open loop: {missing} request(s) never answered"));
        }
        if out.stats.is_none() {
            out.failures.push("open loop: no stats response".into());
        }
        steps.remove(0);
        out.steps = steps;
        out
    }
}
