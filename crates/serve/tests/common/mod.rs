//! What the live-socket tests share: the `serve` binary's bootstrap
//! substrate, and closed-loop and open-loop traffic written as plain
//! `wire::write_message` / `read_message` calls over `TcpStream`s.

// Each test binary uses a subset of these helpers.
#![allow(dead_code)]

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use lc_core::{FeatureMode, TrainConfig};
use lc_engine::{count_star, Database, SampleSet};
use lc_eval::metrics::qerror;
use lc_imdb::ImdbConfig;
use lc_obs::{Histogram, HistogramSnapshot};
use lc_query::{workloads, GeneratorConfig, LabeledQuery, QueryGenerator};
use lc_serve::wire::{read_message, write_message, Message, CAPABILITIES, PROTOCOL_VERSION};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Sample size of every served model, as in the `serve` binary.
pub const SAMPLE_SIZE: usize = 64;

/// The `serve` binary's bootstrap substrate: the tiny snapshot, its
/// samples, and `queries` synthetic training queries of up to 2 joins.
pub fn substrate(queries: usize) -> (Database, SampleSet, Vec<LabeledQuery>) {
    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let samples = SampleSet::draw(&db, SAMPLE_SIZE, &mut SmallRng::seed_from_u64(1));
    let data = workloads::synthetic(&db, &samples, queries, 2, 7).queries;
    (db, samples, data)
}

/// The `serve` binary's bootstrap training config (`--epochs`, `--hidden`).
pub fn bootstrap_config(epochs: usize, hidden: usize) -> TrainConfig {
    TrainConfig { epochs, hidden, mode: FeatureMode::Bitmaps, ..TrainConfig::default() }
}

/// A connection that negotiated protocol v2 with every capability, so
/// shed requests come back as `Busy` frames.
pub fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let hello = Message::Hello { id: 0, version: PROTOCOL_VERSION, capabilities: CAPABILITIES };
    write_message(&mut writer, &hello).unwrap();
    writer.flush().unwrap();
    match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
        Some(Message::HelloAck { version: PROTOCOL_VERSION, .. }) => (reader, writer),
        other => panic!("hello negotiation failed: {other:?}"),
    }
}

/// A workload shift: after the fraction `at` of each connection's
/// requests, every query has exactly `joins` joins (the paper's §4.3
/// generalization cliff), and each estimate is followed by a feedback
/// frame carrying the true cardinality.
#[derive(Clone, Copy)]
pub struct Shift {
    pub at: f64,
    pub joins: usize,
}

/// What the client side of a run saw.
#[derive(Default)]
pub struct Run {
    /// Requests answered with a finite estimate ≥ 1.
    pub answered: u64,
    /// Requests or feedback frames answered with anything else.
    pub errors: u64,
    /// Requests shed with a `Busy` frame.
    pub shed: u64,
    /// Feedback acks whose model version went backwards.
    pub regressions: u64,
    /// Per-request latency, write to reply.
    pub latency: HistogramSnapshot,
    /// q-error sum and count per phase: before the shift, the first half
    /// after it (the spike), the second half (the tail).
    qerrors: [(f64, u64); 3],
}

impl Run {
    /// Mean q-error of `phase` (0 pre-shift, 1 spike, 2 tail).
    pub fn qerror(&self, phase: usize) -> f64 {
        let (sum, n) = self.qerrors[phase];
        sum / n.max(1) as f64
    }

    fn merge(&mut self, other: Run) {
        self.answered += other.answered;
        self.errors += other.errors;
        self.shed += other.shed;
        self.regressions += other.regressions;
        self.latency.merge(&other.latency);
        for phase in 0..3 {
            self.qerrors[phase].0 += other.qerrors[phase].0;
            self.qerrors[phase].1 += other.qerrors[phase].1;
        }
    }

    /// Count one reply to an estimate request; returns the estimate if
    /// it was a valid answer.
    fn count(&mut self, reply: Option<Message>) -> Option<f64> {
        match reply {
            Some(Message::EstimateResponse { estimate, .. })
                if estimate.is_finite() && estimate >= 1.0 =>
            {
                self.answered += 1;
                Some(estimate)
            }
            Some(Message::Busy { .. }) => {
                self.shed += 1;
                None
            }
            _ => {
                self.errors += 1;
                None
            }
        }
    }
}

/// `requests` estimate requests spread over `connections` threads, each
/// driving its own connection closed-loop (send, wait for the reply,
/// repeat) with random queries of up to 2 joins from the paper's §3.3
/// generator, seeded `seed + thread`. With `shift`, queries switch to
/// the shifted join count mid-run and every estimate is followed by
/// feedback: the true cardinality, counted on `db`, which is the
/// server's own snapshot.
pub fn closed_loop(
    addr: SocketAddr,
    db: &Database,
    connections: usize,
    requests: usize,
    seed: u64,
    shift: Option<Shift>,
) -> Run {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|w| {
                let share = requests / connections + usize::from(w < requests % connections);
                s.spawn(move || closed_loop_worker(addr, db, share, seed + w as u64, shift))
            })
            .collect();
        let mut run = Run::default();
        for worker in workers {
            run.merge(worker.join().expect("client thread panicked"));
        }
        run
    })
}

fn closed_loop_worker(
    addr: SocketAddr,
    db: &Database,
    requests: usize,
    seed: u64,
    shift: Option<Shift>,
) -> Run {
    let mut generator = QueryGenerator::new(db, GeneratorConfig { max_joins: 2, seed });
    let (mut reader, mut writer) = connect(addr);
    let shift_point = shift.map_or(requests, |s| (requests as f64 * s.at) as usize);
    let latency = Histogram::new();
    let mut run = Run::default();
    let mut last_version = 0;
    for i in 0..requests {
        let id = i as u64;
        let query = match shift {
            Some(s) if i >= shift_point => generator.generate_with_joins(s.joins),
            _ => generator.generate(),
        };
        let start = Instant::now();
        write_message(&mut writer, &Message::EstimateRequest { id, query: query.clone() }).unwrap();
        writer.flush().unwrap();
        let reply = read_message(&mut reader, PROTOCOL_VERSION).unwrap();
        latency.record_duration(start.elapsed());
        let Some(estimate) = run.count(reply) else { continue };
        if shift.is_none() {
            continue;
        }
        let actual = count_star(db, &query.spec());
        let phase = if i < shift_point {
            0
        } else if i - shift_point < (requests - shift_point) / 2 {
            1
        } else {
            2
        };
        run.qerrors[phase].0 += qerror(estimate, actual as f64);
        run.qerrors[phase].1 += 1;
        write_message(&mut writer, &Message::Feedback { id, query, actual_card: actual }).unwrap();
        writer.flush().unwrap();
        match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
            Some(Message::FeedbackAck { id: rid, model_version }) if rid == id => {
                run.regressions += u64::from(model_version < last_version);
                last_version = model_version;
            }
            _ => run.errors += 1,
        }
    }
    run.latency = latency.snapshot();
    run
}

/// Open-loop traffic: up to 8 injector threads share `connections`,
/// all opened before the first request so most sit idle, and push
/// `requests` in bursts of `burst` per injector, spread round-robin over
/// its connections, at `rate` requests per second in total (0 =
/// unthrottled). Bursts are paced against absolute tick deadlines, so a
/// slow server delays replies, never arrivals: over the admission
/// budget the surplus comes back as `Busy` frames.
pub fn open_loop(
    addr: SocketAddr,
    db: &Database,
    connections: usize,
    requests: usize,
    rate: f64,
    burst: usize,
    seed: u64,
) -> Run {
    let threads = connections.min(8);
    std::thread::scope(|s| {
        let injectors: Vec<_> = (0..threads)
            .map(|t| {
                let share = requests / threads + usize::from(t < requests % threads);
                let conns = connections / threads + usize::from(t < connections % threads);
                let interval = if rate > 0.0 {
                    Duration::from_secs_f64(burst as f64 * threads as f64 / rate)
                } else {
                    Duration::ZERO
                };
                let seed = seed + t as u64;
                s.spawn(move || open_loop_injector(addr, db, share, conns, interval, burst, seed))
            })
            .collect();
        let mut run = Run::default();
        for injector in injectors {
            run.merge(injector.join().expect("injector thread panicked"));
        }
        run
    })
}

fn open_loop_injector(
    addr: SocketAddr,
    db: &Database,
    requests: usize,
    connections: usize,
    interval: Duration,
    burst: usize,
    seed: u64,
) -> Run {
    let mut generator = QueryGenerator::new(db, GeneratorConfig { max_joins: 2, seed });
    let mut conns: Vec<_> = (0..connections).map(|_| connect(addr)).collect();
    let latency = Histogram::new();
    let mut run = Run::default();
    let start = Instant::now();
    let (mut sent, mut tick) = (0, 0);
    let mut inflight: HashMap<(usize, u64), Instant> = HashMap::with_capacity(burst);
    let mut targets = Vec::with_capacity(burst);
    while sent < requests {
        if let Some(wait) = (start + interval * tick).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        tick += 1;
        targets.clear();
        for _ in 0..burst.min(requests - sent) {
            let (conn, id) = (sent % conns.len(), sent as u64);
            let query = generator.generate();
            write_message(&mut conns[conn].1, &Message::EstimateRequest { id, query }).unwrap();
            inflight.insert((conn, id), Instant::now());
            targets.push(conn);
            sent += 1;
        }
        for &conn in &targets {
            conns[conn].1.flush().unwrap();
        }
        // A connection answers its own requests, in whatever order its
        // shard resolves them: match each reply to its request by id.
        for &conn in &targets {
            let reply = read_message(&mut conns[conn].0, PROTOCOL_VERSION).unwrap();
            let id = match &reply {
                Some(
                    Message::EstimateResponse { id, .. }
                    | Message::Busy { id, .. }
                    | Message::Error { id, .. },
                ) => *id,
                _ => u64::MAX,
            };
            match inflight.remove(&(conn, id)) {
                Some(sent_at) => {
                    latency.record_duration(sent_at.elapsed());
                    run.count(reply);
                }
                None => run.errors += 1,
            }
        }
    }
    run.latency = latency.snapshot();
    run
}
