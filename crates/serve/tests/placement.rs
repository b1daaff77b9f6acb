//! Thread placement seen from `/proc/self/task`: a retrain tripped by
//! feedback on a pinned reactor shard runs beside the shard, not on it.
//!
//! ONE `#[test]` only: the checks find threads by name (`lc-shard-0`,
//! `lc-retrain`), and a second test in this binary would start a server
//! whose threads carry the same names.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use lc_core::{train, TrainConfig};
use lc_engine::SampleSet;
use lc_imdb::{generate, ImdbConfig};
use lc_query::workloads;
use lc_serve::wire::{read_message, write_message, PROTOCOL_VERSION};
use lc_serve::{
    serve, DriftConfig, EstimationService, FrontConfig, Message, ModelRegistry, ServeConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A CPU list as the kernel prints it (`0-2,5`), expanded.
fn cpu_list(list: &str) -> Vec<usize> {
    let range = |part: &str| {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        lo.parse::<usize>().unwrap()..=hi.parse::<usize>().unwrap()
    };
    list.trim().split(',').flat_map(range).collect()
}

/// Allowed CPUs of every live task of this process named `name`.
fn task_cpus(name: &str) -> Vec<Vec<usize>> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    tasks
        .flatten()
        .filter_map(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let status = std::fs::read_to_string(task.path().join("status")).ok()?;
            let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            (comm.trim() == name).then(|| cpu_list(list))
        })
        .collect()
}

/// A retrain tripped by feedback on a pinned shard inherits the shard's
/// one-CPU mask at spawn; placement must move it off that CPU while it
/// trains.
#[test]
fn a_retrain_tripped_on_a_pinned_shard_runs_beside_it() {
    if lc_nn::process_cpus().len() < 2
        || !lc_nn::RuntimeConfig::global().pin_workers
        || !cfg!(all(target_os = "linux", target_arch = "x86_64"))
    {
        return; // one CPU, pinning off, or no affinity syscall
    }
    let db = generate(&ImdbConfig::tiny());
    let samples = SampleSet::draw(&db, 24, &mut SmallRng::seed_from_u64(13));
    let data = workloads::synthetic(&db, &samples, 120, 2, 91).queries;
    let cfg = TrainConfig { epochs: 2, hidden: 16, ..TrainConfig::default() };
    let registry = Arc::new(ModelRegistry::new(train(&db, 24, &data, cfg).estimator));
    let drift = DriftConfig {
        window: 16,
        min_samples: 8,
        qerror_threshold: 2.0,
        min_corpus: 8,
        retrain: TrainConfig { epochs: 1000, ..DriftConfig::default().retrain },
        ..DriftConfig::default()
    };
    let front = FrontConfig { shards: 1, ..FrontConfig::default() };
    let config = ServeConfig { drift, front, ..Default::default() };
    let service = Arc::new(EstimationService::new(db, samples, registry, config));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let shard_cpus = service.serving_cpus();
    assert_eq!(shard_cpus, vec![lc_nn::core_for(0)], "the shard claimed its CPU");
    assert_eq!(task_cpus("lc-shard-0"), vec![shard_cpus.clone()]);

    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    // Wildly wrong actuals: every observation is a large q-error, so the
    // first template to reach `min_samples` trips on the shard.
    let mut id = 0;
    while !service.retrain_in_flight() && service.drift().retrains() == 0 {
        assert!(id < 400, "feedback never tripped a retrain");
        let query = data[id % 5].query.clone();
        write_message(
            &mut writer,
            &Message::Feedback { id: id as u64, query, actual_card: 1_000_000 },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::FeedbackAck { .. })
        ));
        id += 1;
    }
    // Until it places itself the retrainer carries the shard's mask.
    let mut seen = None;
    while seen.is_none() && service.retrain_in_flight() {
        seen = task_cpus("lc-retrain").into_iter().find(|cpus| !cpus.contains(&shard_cpus[0]));
        std::thread::yield_now();
    }
    assert_eq!(
        seen,
        Some(lc_nn::cpus_beside(lc_nn::process_cpus(), &shard_cpus).0),
        "the retrainer never left the shard's CPU {shard_cpus:?}"
    );
    handle.shutdown();
    service.shutdown();
}
