//! Tuner parity oracle: a transcript of every executor job and every
//! store operation the `WindowTuner` entry points issue on a small
//! fixture, pinned against `tests/golden/tuner_oracle.golden`.
//!
//! The other determinism suites compare one build with itself (warm ==
//! cold, batched == sequential), so a change that shifts a job-index
//! stream or reorders store traffic the same way on both sides passes
//! them. This transcript does not depend on the build: it holds each
//! job's seed, shot count and an FNV-1a hash of its scheduled circuit,
//! each store lookup, publish and discard with its fingerprint and value,
//! and each tuner result rendered with `{:?}` (exact for `f64`).
//!
//! The fixture scans machine seeds until the warm phases discard at
//! least one cache-seeded entry of every kind (GS, DD, ZNE and the
//! composed key), so the guard-rejection paths are pinned too.
//!
//! On a mismatch the test prints the actual transcript. It should change
//! only when tuning behaviour changes on purpose.

use std::sync::{Arc, Mutex};

use vaqem_suite::ansatz::su2::{EfficientSu2, Entanglement};
use vaqem_suite::circuit::schedule::ScheduledCircuit;
use vaqem_suite::device::noise::NoiseParameters;
use vaqem_suite::mathkit::rng::SeedStream;
use vaqem_suite::mitigation::dd::DdSequence;
use vaqem_suite::mitigation::zne::{Extrapolation, ZneConfig};
use vaqem_suite::pauli::models::tfim_paper;
use vaqem_suite::runtime::cache::CacheMetrics;
use vaqem_suite::runtime::store::{fnv1a, StoreBackend};
use vaqem_suite::sim::counts::Counts;
use vaqem_suite::sim::machine::MachineExecutor;
use vaqem_suite::vaqem::backend::QuantumBackend;
use vaqem_suite::vaqem::executor::{Executor, Job};
use vaqem_suite::vaqem::pipeline::{run_pipeline_with_cache, PipelineConfig, Strategy};
use vaqem_suite::vaqem::vqe::VqeProblem;
use vaqem_suite::vaqem::window_tuner::{
    CachedChoice, FleetCacheSession, MitigationConfigStore, StoredChoice, WindowFingerprint,
    WindowTuner, WindowTunerConfig,
};

const GOLDEN: &str = include_str!("golden/tuner_oracle.golden");

/// Offset of the second machine's trajectory seed: the warm phases run
/// there, under the same calibration snapshot, so their guards can
/// disagree with the cold phase's and reject cache-seeded entries.
const SECOND_MACHINE: u64 = 1_000;

/// Shots per job: few enough that the two machines' guards disagree
/// often, which keeps the seed scan short.
const SHOTS: u64 = 32;

type Log = Arc<Mutex<Vec<String>>>;

fn note(log: &Log, line: String) {
    log.lock().expect("log lock").push(line);
}

fn circuit_hash(scheduled: &ScheduledCircuit) -> u64 {
    fnv1a(format!("{scheduled:?}").as_bytes())
}

/// Wraps an executor and logs every `run` and `run_batch` call.
struct RecordingExecutor<E> {
    inner: E,
    log: Log,
}

impl<E: Executor> Executor for RecordingExecutor<E> {
    fn substrate(&self) -> &'static str {
        self.inner.substrate()
    }

    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }

    fn run(&self, scheduled: &ScheduledCircuit, shots: u64, seed: u64) -> Counts {
        let hash = circuit_hash(scheduled);
        note(&self.log, format!("run ({seed}, {shots}, {hash:#018x})"));
        self.inner.run(scheduled, shots, seed)
    }

    fn run_batch(&self, jobs: &[Job]) -> Vec<Counts> {
        let entries: Vec<String> = jobs
            .iter()
            .map(|j| {
                let hash = circuit_hash(&j.scheduled);
                format!("({}, {}, {hash:#018x})", j.seed, j.shots)
            })
            .collect();
        note(&self.log, format!("batch [{}]", entries.join(", ")));
        self.inner.run_batch(jobs)
    }
}

/// Wraps the single-owner store and logs every lookup, publish and
/// discard. It also keeps the fingerprints looked up since the last
/// `take_lookups`.
struct RecordingStore {
    inner: MitigationConfigStore,
    log: Log,
    looked_up: Vec<WindowFingerprint>,
}

impl StoreBackend<WindowFingerprint, StoredChoice> for RecordingStore {
    fn lookup(&mut self, device: &str, epoch: u64, fp: &WindowFingerprint) -> Option<StoredChoice> {
        let found = self.inner.lookup(device, epoch, fp);
        note(
            &self.log,
            format!("lookup {device}@{epoch} {fp:?} -> {found:?}"),
        );
        self.looked_up.push(*fp);
        found
    }

    fn publish(&mut self, device: &str, epoch: u64, fp: WindowFingerprint, value: StoredChoice) {
        note(
            &self.log,
            format!("publish {device}@{epoch} {fp:?} = {value:?}"),
        );
        self.inner.publish(device, epoch, fp, value);
    }

    fn discard(&mut self, device: &str, epoch: u64, fp: &WindowFingerprint) -> bool {
        let existed = self.inner.discard(device, epoch, fp);
        note(
            &self.log,
            format!("discard {device}@{epoch} {fp:?} -> {existed}"),
        );
        existed
    }

    fn invalidate_device_before(&mut self, device: &str, epoch: u64) -> usize {
        self.inner.invalidate_device_before(device, epoch)
    }

    fn metrics_snapshot(&self) -> CacheMetrics {
        self.inner.metrics_snapshot()
    }
}

impl RecordingStore {
    fn new(log: &Log) -> Self {
        RecordingStore {
            inner: MitigationConfigStore::new(256),
            log: Arc::clone(log),
            looked_up: Vec::new(),
        }
    }

    fn take_lookups(&mut self) -> Vec<WindowFingerprint> {
        std::mem::take(&mut self.looked_up)
    }
}

/// The 3-qubit fixture of the tuner's unit tests: linear entanglement
/// staggers the CX chain, so the outer qubits idle. It has one DD window
/// and one movable window.
fn small_problem() -> VqeProblem {
    let ansatz = EfficientSu2::new(3, 1, Entanglement::Linear)
        .circuit()
        .unwrap();
    VqeProblem::new("tiny", tfim_paper(3), ansatz).unwrap()
}

/// A 4-qubit, two-layer fixture with several windows per stage. Its
/// trailing CX pair leaves qubit 0 idle for two pulses, a window XY4
/// (four pulses per repetition) cannot fill.
fn wide_problem() -> VqeProblem {
    let mut ansatz = EfficientSu2::new(4, 2, Entanglement::Linear)
        .circuit()
        .unwrap();
    ansatz.cx(0, 1).unwrap().sx(1).unwrap().sx(1).unwrap();
    ansatz.cx(0, 1).unwrap();
    VqeProblem::new("wide", tfim_paper(4), ansatz).unwrap()
}

fn tiny_config(dd_sequence: DdSequence) -> WindowTunerConfig {
    WindowTunerConfig {
        sweep_resolution: 3,
        dd_sequence,
        max_repetitions: 4,
        guard_repeats: 2,
        zne_candidates: vec![
            ZneConfig::new(vec![0, 1], Extrapolation::Richardson { order: 1 }),
            ZneConfig::standard(),
        ],
    }
}

type Machine = QuantumBackend<RecordingExecutor<MachineExecutor>>;
type Tuner<'a> = WindowTuner<'a, RecordingExecutor<MachineExecutor>>;

fn machine(qubits: usize, seed: u64, log: &Log) -> Machine {
    QuantumBackend::from_executor(RecordingExecutor {
        inner: MachineExecutor::new(NoiseParameters::uniform(qubits), SeedStream::new(seed)),
        log: Arc::clone(log),
    })
    .with_shots(SHOTS)
}

/// Every cold entry point on machine `seed`, DD with both XX and XY4.
fn cold_section(seed: u64, log: &Log) {
    let problem = small_problem();
    let params = vec![0.3; problem.num_params()];
    let backend = machine(3, seed, log);
    let entries = [
        ("tune_dd", DdSequence::Xx),
        ("tune_dd", DdSequence::Xy4),
        ("tune_gs", DdSequence::Xx),
        ("tune_combined", DdSequence::Xx),
        ("tune_zne", DdSequence::Xx),
        ("tune_combined_zne", DdSequence::Xx),
        ("tune_dd_best_sequence", DdSequence::Xx),
    ];
    for (name, seq) in entries {
        note(log, format!("== {name} {seq:?}"));
        let t = WindowTuner::new(&problem, &backend, tiny_config(seq));
        let p = &params;
        let r = match name {
            "tune_dd" => format!("{:?}", t.tune_dd(p).unwrap()),
            "tune_gs" => format!("{:?}", t.tune_gs(p).unwrap()),
            "tune_combined" => format!("{:?}", t.tune_combined(p).unwrap()),
            "tune_zne" => format!("{:?}", t.tune_zne(p).unwrap()),
            "tune_combined_zne" => format!("{:?}", t.tune_combined_zne(p).unwrap()),
            _ => {
                let r = t.tune_dd_best_sequence(p, &[DdSequence::Xx, DdSequence::Xy4]);
                format!("{:?}", r.unwrap())
            }
        };
        note(log, format!("result {r}"));
    }
}

/// The warm entry points in order, each through a cold phase (machine
/// `seed`, epoch 0), a warm phase (the second machine, epoch 0) and the
/// next epoch (the second machine, epoch 1), all over one shared store.
fn warm_section(seed: u64, log: &Log) {
    let problem = small_problem();
    let params = vec![0.3; problem.num_params()];
    let calibration = NoiseParameters::uniform(3);
    let first = machine(3, seed, log);
    let second = machine(3, seed + SECOND_MACHINE, log);
    let mut store = RecordingStore::new(log);
    let entries = [
        ("tune_gs_warm", DdSequence::Xx),
        ("tune_dd_warm", DdSequence::Xx),
        ("tune_dd_warm", DdSequence::Xy4),
        ("tune_combined_warm", DdSequence::Xx),
        ("tune_zne_warm", DdSequence::Xx),
        ("tune_combined_zne_warm", DdSequence::Xx),
    ];
    for (name, seq) in entries {
        for (phase, backend, epoch) in [
            ("cold", &first, 0),
            ("warm", &second, 0),
            ("next epoch", &second, 1),
        ] {
            note(log, format!("== {name} {seq:?} {phase}"));
            let tuner = WindowTuner::new(&problem, backend, tiny_config(seq));
            warm_call(name, &tuner, &params, &mut store, epoch, &calibration);
        }
    }
}

/// Runs the warm entry point `name` against `store` at `epoch` and logs
/// its report.
fn warm_call(
    name: &str,
    tuner: &Tuner<'_>,
    params: &[f64],
    store: &mut RecordingStore,
    epoch: u64,
    calibration: &NoiseParameters,
) {
    let log = Arc::clone(&store.log);
    let s = &mut FleetCacheSession {
        store,
        device: "oracle-dev",
        epoch,
        calibration,
    };
    let r = match name {
        "tune_gs_warm" => tuner.tune_gs_warm(params, s),
        "tune_dd_warm" => tuner.tune_dd_warm(params, s),
        "tune_combined_warm" => tuner.tune_combined_warm(params, s),
        "tune_zne_warm" => tuner.tune_zne_warm(params, s),
        _ => tuner.tune_combined_zne_warm(params, s),
    };
    note(&log, format!("report {:?}", r.unwrap()));
}

/// Partial warm starts on the wide fixture. After a cold pass, every
/// other window it looked up is seeded by hand at epoch 1 (a DD count
/// above any window's cap, a GS position outside `[0, 1]`), so the next
/// pass mixes hits and sweeps within one stage, rescales DD counts and
/// clamps GS positions. GS+DD then runs over what those passes left.
fn partial_section(seed: u64, log: &Log) {
    let problem = wide_problem();
    let params = vec![0.3; problem.num_params()];
    let calibration = NoiseParameters::uniform(4);
    let backend = machine(4, seed, log);
    let tuner = WindowTuner::new(&problem, &backend, tiny_config(DdSequence::Xy4));
    let mut store = RecordingStore::new(log);
    for (name, value) in [("tune_dd_warm", 99.0), ("tune_gs_warm", 1.5)] {
        note(log, format!("== {name} Xy4 wide cold"));
        store.take_lookups();
        warm_call(name, &tuner, &params, &mut store, 0, &calibration);
        for fp in store.take_lookups().into_iter().step_by(2) {
            let choice = StoredChoice::Window(CachedChoice {
                fraction_of_max: 0.5,
                value,
                objective: -1.0,
            });
            note(log, format!("seed oracle-dev@1 {fp:?} = {choice:?}"));
            store.inner.publish("oracle-dev", 1, fp, choice);
        }
        note(log, format!("== {name} Xy4 wide partial"));
        warm_call(name, &tuner, &params, &mut store, 1, &calibration);
    }
    note(log, "== tune_combined_warm Xy4 wide".into());
    warm_call(
        "tune_combined_warm",
        &tuner,
        &params,
        &mut store,
        1,
        &calibration,
    );
}

/// `run_pipeline_with_cache` over every strategy, without and then with
/// a session. The pipeline builds its own backend, so only its
/// `BenchmarkRun` and the session's store traffic are recorded.
fn pipeline_section(log: &Log) {
    let problem = small_problem();
    let noise = NoiseParameters::uniform(3);
    let config = PipelineConfig::quick();
    note(log, "== run_pipeline_with_cache without a session".into());
    let run = run_pipeline_with_cache::<MitigationConfigStore>(
        &problem,
        &noise,
        &config,
        &Strategy::WITH_ZNE,
        None,
    )
    .unwrap();
    note(log, format!("run {run:?}"));
    note(log, "== run_pipeline_with_cache with a session".into());
    let mut store = RecordingStore::new(log);
    let mut session = FleetCacheSession {
        store: &mut store,
        device: "oracle-dev",
        epoch: 0,
        calibration: &noise,
    };
    let run = run_pipeline_with_cache(
        &problem,
        &noise,
        &config,
        &Strategy::WITH_ZNE,
        Some(&mut session),
    )
    .unwrap();
    note(log, format!("run {run:?}"));
}

/// Whether `lines` discard a cache-seeded entry of every kind.
fn discards_every_kind(lines: &[String]) -> bool {
    ["mode: Gs,", "mode: Dd(", "mode: Zne,", "mode: Composed("]
        .iter()
        .all(|mode| {
            lines
                .iter()
                .any(|l| l.starts_with("discard ") && l.contains(mode) && l.ends_with("-> true"))
        })
}

fn take(log: &Log) -> Vec<String> {
    std::mem::take(&mut *log.lock().expect("log lock"))
}

#[test]
fn tuner_transcript_matches_golden() {
    let log: Log = Arc::default();
    let (seed, warm) = (21..61)
        .map(|seed| {
            warm_section(seed, &log);
            (seed, take(&log))
        })
        .find(|(_, warm)| discards_every_kind(warm))
        .expect("some machine seed in 21..61 discards every kind of entry");
    note(&log, format!("== machine seed {seed}"));
    cold_section(seed, &log);
    log.lock().expect("log lock").extend(warm);
    partial_section(seed, &log);
    pipeline_section(&log);
    let mut actual = take(&log).join("\n");
    actual.push('\n');
    assert!(
        actual == GOLDEN,
        "the tuner transcript differs from tests/golden/tuner_oracle.golden; \
         actual transcript:\n{actual}<<< end of transcript"
    );
}
