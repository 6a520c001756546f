//! The independent per-window error-mitigation tuner (paper §VI-C).
//!
//! The paper's feasible flow tunes each idle window *independently*: sweep
//! the window's mitigation parameter (DD repetition count, or gate
//! position) while all other windows stay at baseline, measure the VQA
//! objective on the machine for every sweep point, keep the best value, and
//! finally combine the per-window optima. Independence is justified because
//! the techniques only add/move single-qubit gates, whose crosstalk is
//! minimal (§VI-C). The tuner also implements the coordinated "GS+DD" mode
//! of §VIII-A: gate positions are tuned first, then DD fills the re-derived
//! windows.
//!
//! Every knob is a stage of one loop: gate positions and DD repetition
//! counts per window, and the ZNE protocol (§IX) with the whole circuit as
//! its unit. A single driver runs any sequence of stages — sweep each
//! unit, keep the best candidate, let the §IX-C guard accept or revert the
//! result — and the public `tune_*` methods only name the sequence.
//!
//! Execution is batched: every machine interaction goes through the
//! [`crate::executor::Executor::run_batch`] path. The measurement-group
//! base circuits are ALAP-scheduled **once per tuning stage** (the
//! [`GroupSchedules`] cache) instead of once per sweep point, each window's
//! whole candidate sweep is dispatched as one parallel batch, and the
//! acceptance guard's four evaluations go out as a single batch too. Job
//! indices are allocated exactly as the sequential tuner always did, so
//! the batched tuner is seed-deterministic and chooses identical
//! configurations.
//!
//! # Fleet-scale warm starts
//!
//! The paper's transfer result (Fig. 8, §IX) shows tuned choices carry
//! across runs, so re-sweeping every window of every client from scratch
//! wastes the dominant machine-time cost of the flow (Fig. 15). The
//! warm-start path amortizes it: each window is summarized by a canonical
//! [`WindowFingerprint`] (idle-duration bucket, qubit noise class,
//! neighbor-activity signature), and a shared
//! [`MitigationConfigStore`] — keyed by `(device, calibration epoch,
//! fingerprint)` — carries tuned per-window choices between clients.
//! [`WindowTuner::tune_dd_warm`] / [`WindowTuner::tune_gs_warm`] adopt the
//! cached choice for every fingerprint hit (skipping that window's sweep
//! entirely) and sweep only the misses. The §IX-C acceptance guard stays
//! the correctness gate: it always runs on the assembled configuration,
//! choices enter the store only when the guard accepts, and a guard
//! rejection of a cache-seeded configuration evicts the offending entries
//! (stale-within-epoch drift). Fingerprints are pure functions of the
//! schedule and the calibration snapshot — never of job indices, sweep
//! labels, or execution order — so warm replays are seed-deterministic.

use crate::backend::QuantumBackend;
use crate::error::VaqemError;
use crate::executor::Executor;
use crate::vqe::{GroupSchedules, VqeProblem};
use vaqem_circuit::gate::Gate;
use vaqem_circuit::schedule::{IdleWindow, ScheduledCircuit};
use vaqem_device::noise::{NoiseParameters, QubitNoise};
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_mitigation::dd::{DdPass, DdSequence};
use vaqem_mitigation::scheduling::GsPass;
use vaqem_mitigation::zne::{Extrapolation, ZneConfig};
use vaqem_optim::sweep::{integer_candidates, position_candidates, sweep_minimize};
use vaqem_runtime::cache::ConfigStore;
use vaqem_runtime::persist::Codec;
use vaqem_runtime::store::StoreBackend;
use vaqem_sim::machine::MachineExecutor;

/// Configuration of the per-window tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowTunerConfig {
    /// Sweep points per window (paper §VI-C: resolution is resource-bound).
    pub sweep_resolution: usize,
    /// DD sequence to insert.
    pub dd_sequence: DdSequence,
    /// Cap on repetitions per window, bounding tuning cost.
    pub max_repetitions: usize,
    /// Fresh evaluations averaged per side of the acceptance guard. The
    /// guard's whole comparison ships as one `run_batch`, so raising this
    /// costs almost no wall-clock while sharply reducing the chance that
    /// shot noise lets a worse-than-baseline configuration through
    /// (paper §IX-C).
    pub guard_repeats: usize,
    /// Candidate ZNE protocols [`WindowTuner::tune_zne`] sweeps (paper
    /// §IX: scale-factor set and extrapolation model as variational
    /// knobs). The default is [`ZneConfig::tuned_candidates`], which
    /// always contains [`ZneConfig::standard`] — so a tuned sweep can
    /// never measure worse than the fixed protocol within its own batch.
    pub zne_candidates: Vec<ZneConfig>,
}

impl Default for WindowTunerConfig {
    fn default() -> Self {
        WindowTunerConfig {
            sweep_resolution: 6,
            dd_sequence: DdSequence::Xy4,
            max_repetitions: 24,
            guard_repeats: 4,
            zne_candidates: ZneConfig::tuned_candidates(),
        }
    }
}

/// One window's tuning outcome — the data behind the paper's Fig. 14.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowChoice {
    /// Window index in canonical order.
    pub window: usize,
    /// Qubit the window sits on.
    pub qubit: usize,
    /// Chosen value as a fraction of the window's maximum (DD: reps/max,
    /// GS: the position fraction itself).
    pub fraction_of_max: f64,
    /// The chosen raw value (repetition count or position).
    pub value: f64,
    /// Objective at the chosen value.
    pub objective: f64,
}

/// Result of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedMitigation {
    /// The combined best configuration.
    pub config: MitigationConfig,
    /// Gate-position choices (empty unless GS was tuned).
    pub gs_choices: Vec<WindowChoice>,
    /// DD repetition choices (empty unless DD was tuned).
    pub dd_choices: Vec<WindowChoice>,
    /// Machine objective evaluations spent.
    pub evaluations: usize,
    /// Of [`Self::evaluations`], how many executed **folded** (ZNE)
    /// circuits — the candidate sweep plus the guard's tuned side of a
    /// ZNE stage. Cost accounting prices these with the folded-circuit
    /// shot multiplier and the rest at plain rates (0 for DD/GS-only
    /// tuning).
    pub zne_evaluations: usize,
}

/// Which tuning family a cached choice belongs to. Part of the
/// fingerprint: a DD repetition count must never warm-start a gate
/// position (and XX counts must not seed XY4 windows). The per-window
/// families ([`TuningMode::Dd`], [`TuningMode::Gs`]) key per-window
/// choices; the circuit-level families ([`TuningMode::Zne`],
/// [`TuningMode::Composed`]) key whole-circuit
/// [`StoredChoice::Composed`] entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningMode {
    /// DD repetition tuning with a specific sequence type.
    Dd(DdSequence),
    /// Gate-position tuning.
    Gs,
    /// Circuit-level ZNE protocol tuning (scale-factor set +
    /// extrapolation model).
    Zne,
    /// The fully composed `(gs, dd, zne)` configuration of one circuit,
    /// tuned with the given DD sequence type.
    Composed(DdSequence),
}

/// Half-octave equivalence class of one qubit's calibration data.
///
/// Two qubits in the same class are "the same qubit" as far as tuned
/// mitigation transfer is concerned: their coherence, quasi-static
/// detuning, telegraph rate, and readout asymmetry agree to within half a
/// factor of two. Classes are quantized log2 buckets, so they are stable
/// under the small intra-epoch wander of `vaqem_device::drift` but split
/// at genuine recalibration jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NoiseClass {
    /// T1 bucket (half-octaves of nanoseconds).
    pub t1: i16,
    /// T2 bucket.
    pub t2: i16,
    /// Quasi-static detuning sigma bucket.
    pub detuning: i16,
    /// Telegraph switching-rate bucket.
    pub telegraph: i16,
    /// Readout asymmetry bucket (`p01 + p10`).
    pub readout: i16,
}

/// Half-octave log2 bucket; non-positive values collapse to a sentinel
/// (noiseless channels all land in one class).
fn log2_class(x: f64) -> i16 {
    if x <= 0.0 {
        i16::MIN
    } else {
        (x.log2() * 2.0).round() as i16
    }
}

/// Classifies one qubit's calibration data into its [`NoiseClass`].
pub fn classify_qubit_noise(q: &QubitNoise) -> NoiseClass {
    NoiseClass {
        t1: log2_class(q.t1_ns),
        t2: log2_class(q.t2_ns),
        detuning: log2_class(q.quasi_static_sigma_rad_ns),
        telegraph: log2_class(q.telegraph_rate_per_ns),
        readout: log2_class(q.readout_p01 + q.readout_p10),
    }
}

/// Canonical fingerprint of one idle window — the fleet cache key
/// component computed from the schedule and the calibration snapshot.
///
/// Everything in here is a pure function of `(scheduled circuit,
/// calibration noise, tuner configuration)`: job indices, sweep-point
/// labels, and batched-vs-sequential execution cannot influence it, which
/// is what makes cached choices replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowFingerprint {
    /// Tuning family (and DD sequence type) the cached choice applies to.
    pub mode: TuningMode,
    /// Idle duration bucket: window length in single-qubit slots.
    pub duration_slots: u32,
    /// The window's physical qubit. Tuned optima are qubit-dependent
    /// (paper Fig. 14), and anchoring the fingerprint to the qubit makes
    /// `(qubit, ordinal)` unique within a circuit — so a warm replay can
    /// never mix up two same-shaped windows. Transfer therefore happens
    /// across circuits, clients, and time, not across qubits.
    pub qubit: u16,
    /// Ordinal of this window on its qubit's timeline (0 = earliest).
    /// Early and late windows see different crosstalk environments even
    /// when equally long.
    pub ordinal: u32,
    /// Calibration class of the window's qubit.
    pub noise_class: NoiseClass,
    /// Number of *other* qubits with gates overlapping the window.
    pub neighbors_active: u8,
    /// Of those, the number ZZ-coupled to the window's qubit.
    pub coupled_active: u8,
    /// Sweep resolution the choice was tuned at.
    pub sweep_resolution: u8,
    /// Repetition cap the choice was tuned under.
    pub max_repetitions: u8,
}

/// Active-neighbor signature of `window`: `(qubits with overlapping ops,
/// of which ZZ-coupled to the window's qubit)`.
fn neighbor_activity(
    window: &IdleWindow,
    scheduled: &ScheduledCircuit,
    noise: &NoiseParameters,
) -> (u8, u8) {
    let mut active: Vec<usize> = Vec::new();
    for op in scheduled.ops() {
        if matches!(op.gate, Gate::Barrier) {
            continue;
        }
        if op.start_ns < window.end_ns && op.end_ns() > window.start_ns {
            for &q in &op.qubits {
                if q != window.qubit && !active.contains(&q) {
                    active.push(q);
                }
            }
        }
    }
    let coupled = active
        .iter()
        .filter(|&&q| {
            noise
                .zz_couplings()
                .any(|((a, b), _)| (a == window.qubit && b == q) || (b == window.qubit && a == q))
        })
        .count();
    (active.len().min(255) as u8, coupled.min(255) as u8)
}

/// Computes the canonical fingerprint of one idle window.
///
/// `ordinal` is the window's index among its qubit's windows (callers
/// enumerate windows in the tuner's canonical `(qubit, start)` order);
/// `calibration` is the epoch's calibration snapshot — *not* the
/// instantaneous drifted noise — so fingerprints stay stable within a
/// calibration epoch.
pub fn window_fingerprint(
    mode: TuningMode,
    window: &IdleWindow,
    ordinal: usize,
    scheduled: &ScheduledCircuit,
    calibration: &NoiseParameters,
    pulse_ns: f64,
    config: &WindowTunerConfig,
) -> WindowFingerprint {
    let (neighbors_active, coupled_active) = neighbor_activity(window, scheduled, calibration);
    WindowFingerprint {
        mode,
        duration_slots: (window.duration_ns() / pulse_ns).round().max(0.0) as u32,
        qubit: window.qubit.min(u16::MAX as usize) as u16,
        ordinal: ordinal.min(u32::MAX as usize) as u32,
        noise_class: classify_qubit_noise(calibration.qubit(window.qubit)),
        neighbors_active,
        coupled_active,
        sweep_resolution: config.sweep_resolution.min(255) as u8,
        max_repetitions: config.max_repetitions.min(255) as u8,
    }
}

/// Computes the canonical **circuit-level** fingerprint of a scheduled
/// circuit — the cache key for whole-circuit choices ([`TuningMode::Zne`]
/// protocols and [`TuningMode::Composed`] configurations).
///
/// The per-window fields are reinterpreted at circuit granularity:
/// `duration_slots` is the schedule makespan, `qubit` the circuit width,
/// `ordinal` the idle-window count, `noise_class` the element-wise
/// worst-case class over every qubit (so a recalibration jump on *any*
/// qubit splits the class), and the activity pair is `(width, ZZ-coupled
/// pair count)`. Like window fingerprints it is a pure function of
/// `(baseline schedule, calibration snapshot, tuner configuration)` —
/// callers always fingerprint the *unmitigated* canonical schedule, so
/// the key never depends on which composition is being tuned on top.
pub fn circuit_fingerprint(
    mode: TuningMode,
    scheduled: &ScheduledCircuit,
    calibration: &NoiseParameters,
    pulse_ns: f64,
    config: &WindowTunerConfig,
) -> WindowFingerprint {
    let mut worst = classify_qubit_noise(calibration.qubit(0));
    for q in 1..scheduled.num_qubits() {
        let c = classify_qubit_noise(calibration.qubit(q));
        worst.t1 = worst.t1.min(c.t1);
        worst.t2 = worst.t2.min(c.t2);
        worst.detuning = worst.detuning.min(c.detuning);
        worst.telegraph = worst.telegraph.min(c.telegraph);
        worst.readout = worst.readout.min(c.readout);
    }
    let coupled = calibration.zz_couplings().count();
    WindowFingerprint {
        mode,
        duration_slots: (scheduled.total_ns() / pulse_ns).round().max(0.0) as u32,
        qubit: scheduled.num_qubits().min(u16::MAX as usize) as u16,
        ordinal: scheduled
            .idle_windows(pulse_ns)
            .len()
            .min(u32::MAX as usize) as u32,
        noise_class: worst,
        neighbors_active: scheduled.num_qubits().min(255) as u8,
        coupled_active: coupled.min(255) as u8,
        sweep_resolution: config.sweep_resolution.min(255) as u8,
        max_repetitions: config.max_repetitions.min(255) as u8,
    }
}

/// One guard-validated per-window choice, as stored in the fleet cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedChoice {
    /// Chosen value as a fraction of the window's maximum (DD) or the
    /// position fraction itself (GS).
    pub fraction_of_max: f64,
    /// The chosen raw value (repetition count or position).
    pub value: f64,
    /// Objective measured at the choice when it was tuned.
    pub objective: f64,
}

/// A guard-validated **whole-circuit** configuration, as stored in the
/// fleet cache under a circuit-level fingerprint ([`TuningMode::Zne`],
/// [`TuningMode::Composed`]) — the ROADMAP's "cache composed configs, not
/// just per-stage picks" follow-on. It is the persistable mirror of a
/// [`MitigationConfig`] plus the objective it was tuned at.
#[derive(Debug, Clone, PartialEq)]
pub struct ComposedChoice {
    /// Per-movable-window gate positions (empty = ALAP baseline).
    pub gate_positions: Vec<f64>,
    /// DD sequence type, when DD is part of the composition.
    pub dd_sequence: Option<DdSequence>,
    /// Per-window DD repetition counts (empty = no DD).
    pub dd_repetitions: Vec<u32>,
    /// ZNE protocol, when ZNE is part of the composition.
    pub zne: Option<ZneConfig>,
    /// Objective measured when the composition was tuned (`NaN` when the
    /// final stage adopted a guard-reverted partial composition).
    pub objective: f64,
}

impl ComposedChoice {
    /// Captures a tuned configuration for the cache.
    pub fn from_config(config: &MitigationConfig, objective: f64) -> Self {
        ComposedChoice {
            gate_positions: config.gate_positions.clone(),
            dd_sequence: config.dd_sequence,
            dd_repetitions: config
                .dd_repetitions
                .iter()
                .map(|&r| r.min(u32::MAX as usize) as u32)
                .collect(),
            zne: config.zne.clone(),
            objective,
        }
    }

    /// Reassembles the executable configuration.
    pub fn to_config(&self) -> MitigationConfig {
        MitigationConfig {
            gate_positions: self.gate_positions.clone(),
            dd_repetitions: self.dd_repetitions.iter().map(|&r| r as usize).collect(),
            dd_sequence: self.dd_sequence,
            zne: self.zne.clone(),
        }
    }
}

/// What the fleet store maps a fingerprint to: per-window fingerprints
/// carry [`StoredChoice::Window`] entries, circuit-level fingerprints
/// carry [`StoredChoice::Composed`] entries. The fingerprint's
/// [`TuningMode`] decides which variant a publisher writes; readers treat
/// a variant mismatch as a miss.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredChoice {
    /// A per-window DD/GS choice.
    Window(CachedChoice),
    /// A whole-circuit composed `(gs, dd, zne)` configuration.
    Composed(ComposedChoice),
}

// --- persistence codec -------------------------------------------------
//
// The byte encodings that let `vaqem_runtime::persist::DurableStore`
// carry fingerprints and choices across process restarts. They live here
// (not in the runtime crate) because of the orphan rule: core owns the
// types. `DdSequence` and `ZneConfig` belong to vaqem-mitigation, so
// they are encoded by the four public functions below rather than by
// foreign `Codec` impls; the fleet's RPC wire encodes them through the
// same functions.

/// The one byte encoding of a [`DdSequence`], shared by the config
/// store and the RPC wire: `Xx = 0`, `Yy = 1`, `Xy4 = 2`, `Xy8 = 3`.
pub fn dd_sequence_tag(seq: DdSequence) -> u8 {
    match seq {
        DdSequence::Xx => 0,
        DdSequence::Yy => 1,
        DdSequence::Xy4 => 2,
        DdSequence::Xy8 => 3,
    }
}

/// Inverse of [`dd_sequence_tag`]; `None` for an unknown tag.
pub fn dd_sequence_from_tag(tag: u8) -> Option<DdSequence> {
    Some(match tag {
        0 => DdSequence::Xx,
        1 => DdSequence::Yy,
        2 => DdSequence::Xy4,
        3 => DdSequence::Xy8,
        _ => return None,
    })
}

impl Codec for TuningMode {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TuningMode::Gs => out.push(0),
            TuningMode::Dd(seq) => {
                out.push(1);
                out.push(dd_sequence_tag(*seq));
            }
            TuningMode::Zne => out.push(2),
            TuningMode::Composed(seq) => {
                out.push(3);
                out.push(dd_sequence_tag(*seq));
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(TuningMode::Gs),
            1 => Some(TuningMode::Dd(dd_sequence_from_tag(u8::decode(input)?)?)),
            2 => Some(TuningMode::Zne),
            3 => Some(TuningMode::Composed(dd_sequence_from_tag(u8::decode(
                input,
            )?)?)),
            _ => None,
        }
    }
}

/// The one byte encoding of a [`ZneConfig`], shared by the config store
/// and the RPC wire: the fold counts as a `u32`-counted `Vec<u8>`, then
/// an extrapolation tag byte (`0` = Richardson, `1` = exponential) and
/// an order byte (the Richardson order; `0` after the exponential tag).
pub fn encode_zne(zne: &ZneConfig, out: &mut Vec<u8>) {
    zne.folds.encode(out);
    let (tag, order) = match zne.extrapolation {
        Extrapolation::Richardson { order } => (0, order),
        Extrapolation::Exponential => (1, 0),
    };
    out.push(tag);
    out.push(order);
}

/// Inverse of [`encode_zne`]. `None` on truncated input, an unknown tag,
/// or folds that break the [`ZneConfig::new`] invariant (at least two,
/// all distinct), so corrupt or hostile bytes fail the decode instead of
/// yielding a protocol that panics at extrapolation time.
pub fn decode_zne(input: &mut &[u8]) -> Option<ZneConfig> {
    let folds = Vec::<u8>::decode(input)?;
    let extrapolation = match (u8::decode(input)?, u8::decode(input)?) {
        (0, order) => Extrapolation::Richardson { order },
        (1, _) => Extrapolation::Exponential,
        _ => return None,
    };
    if folds.len() < 2 || (1..folds.len()).any(|i| folds[..i].contains(&folds[i])) {
        return None;
    }
    Some(ZneConfig {
        folds,
        extrapolation,
    })
}

impl Codec for ComposedChoice {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gate_positions.encode(out);
        self.dd_sequence.map(dd_sequence_tag).encode(out);
        self.dd_repetitions.encode(out);
        match &self.zne {
            None => out.push(0),
            Some(z) => {
                out.push(1);
                encode_zne(z, out);
            }
        }
        self.objective.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let gate_positions = Vec::<f64>::decode(input)?;
        let dd_sequence = match Option::<u8>::decode(input)? {
            None => None,
            Some(tag) => Some(dd_sequence_from_tag(tag)?),
        };
        let dd_repetitions = Vec::<u32>::decode(input)?;
        let zne = match u8::decode(input)? {
            0 => None,
            1 => Some(decode_zne(input)?),
            _ => return None,
        };
        Some(ComposedChoice {
            gate_positions,
            dd_sequence,
            dd_repetitions,
            zne,
            objective: f64::decode(input)?,
        })
    }
}

const STORED_WINDOW_TAG: u8 = 0;
const STORED_COMPOSED_TAG: u8 = 1;

impl Codec for StoredChoice {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StoredChoice::Window(c) => {
                out.push(STORED_WINDOW_TAG);
                c.encode(out);
            }
            StoredChoice::Composed(c) => {
                out.push(STORED_COMPOSED_TAG);
                c.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            STORED_WINDOW_TAG => Some(StoredChoice::Window(CachedChoice::decode(input)?)),
            STORED_COMPOSED_TAG => Some(StoredChoice::Composed(ComposedChoice::decode(input)?)),
            _ => None,
        }
    }

    /// Format-version-1 snapshots and journals (pre-ZNE) stored bare,
    /// untagged [`CachedChoice`] bytes: decode those as
    /// [`StoredChoice::Window`] so a fleet's persisted tuning capital
    /// survives the upgrade.
    fn decode_versioned(input: &mut &[u8], version: u32) -> Option<Self> {
        if version <= 1 {
            CachedChoice::decode(input).map(StoredChoice::Window)
        } else {
            Self::decode(input)
        }
    }
}

impl Codec for NoiseClass {
    fn encode(&self, out: &mut Vec<u8>) {
        self.t1.encode(out);
        self.t2.encode(out);
        self.detuning.encode(out);
        self.telegraph.encode(out);
        self.readout.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(NoiseClass {
            t1: i16::decode(input)?,
            t2: i16::decode(input)?,
            detuning: i16::decode(input)?,
            telegraph: i16::decode(input)?,
            readout: i16::decode(input)?,
        })
    }
}

impl Codec for WindowFingerprint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.mode.encode(out);
        self.duration_slots.encode(out);
        self.qubit.encode(out);
        self.ordinal.encode(out);
        self.noise_class.encode(out);
        self.neighbors_active.encode(out);
        self.coupled_active.encode(out);
        self.sweep_resolution.encode(out);
        self.max_repetitions.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(WindowFingerprint {
            mode: TuningMode::decode(input)?,
            duration_slots: u32::decode(input)?,
            qubit: u16::decode(input)?,
            ordinal: u32::decode(input)?,
            noise_class: NoiseClass::decode(input)?,
            neighbors_active: u8::decode(input)?,
            coupled_active: u8::decode(input)?,
            sweep_resolution: u8::decode(input)?,
            max_repetitions: u8::decode(input)?,
        })
    }
}

impl Codec for CachedChoice {
    fn encode(&self, out: &mut Vec<u8>) {
        self.fraction_of_max.encode(out);
        self.value.encode(out);
        self.objective.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CachedChoice {
            fraction_of_max: f64::decode(input)?,
            value: f64::decode(input)?,
            objective: f64::decode(input)?,
        })
    }
}

/// The concrete fleet store: fingerprints to guard-validated
/// [`StoredChoice`]s — per-window picks and whole-circuit composed
/// configs side by side — keyed by `(device, calibration epoch,
/// fingerprint)` with LRU eviction and hit/miss metrics (see
/// `vaqem_runtime::cache`).
pub type MitigationConfigStore = ConfigStore<WindowFingerprint, StoredChoice>;

/// The store interface a warm-started tuning session requires — any
/// `vaqem_runtime::store::StoreBackend` over window fingerprints and
/// stored choices: the single-owner [`MitigationConfigStore`], a
/// `ShardedStore` (or an `Arc` of one) shared by concurrent clients, or
/// an `Arc<DurableStore>` that survives restarts.
pub trait MitigationStoreBackend: StoreBackend<WindowFingerprint, StoredChoice> {}
impl<S: StoreBackend<WindowFingerprint, StoredChoice>> MitigationStoreBackend for S {}

/// One client's view of the shared fleet cache during a tuning run: the
/// store, the device identity, the calibration epoch, and the epoch's
/// calibration snapshot used to classify qubits.
///
/// Generic over the store backend `S` (default: the single-owner
/// [`MitigationConfigStore`], so deterministic replays read as before).
/// Fleet daemons hand each worker an `Arc` of a shared sharded or
/// durable store instead.
#[derive(Debug)]
pub struct FleetCacheSession<'a, S: MitigationStoreBackend = MitigationConfigStore> {
    /// The shared config store.
    pub store: &'a mut S,
    /// Device the client is tuning on (cache key component).
    pub device: &'a str,
    /// Calibration epoch (cache key component; see
    /// `vaqem_device::drift::DriftModel::epoch_at`).
    pub epoch: u64,
    /// The epoch's calibration snapshot, used for noise classification.
    pub calibration: &'a NoiseParameters,
}

/// A stage of the variational loop (paper §VI-C): one mitigation knob,
/// swept unit by unit against the VQA objective, then gated by the §IX-C
/// guard against the configuration the previous stage kept — so a
/// composition can only improve, stage by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Gate positions, one unit per movable window of the baseline
    /// schedule ("VAQEM: GS").
    Gs,
    /// DD repetition counts, one unit per window of the schedule with the
    /// base configuration applied ("VAQEM: XX" / "VAQEM: XY").
    Dd,
    /// The ZNE protocol, with the whole circuit as its one unit (§IX).
    Zne,
}

/// GS, then DD, then ZNE. With a cache session the result is also cached
/// whole, under a [`TuningMode::Composed`] fingerprint.
pub(crate) const GS_DD_ZNE: [Stage; 3] = [Stage::Gs, Stage::Dd, Stage::Zne];

/// First job index of the composed cache entry's re-validation guard.
const COMPOSED_GUARD_JOB: u64 = 6_000_000;

/// First job index of [`WindowTuner::tune_dd_best_sequence`]'s scores.
const SEQUENCE_SCORE_JOB: u64 = 4_000_000;

/// One unit a stage tunes: a window on `qubit` with room for `max` DD
/// repetitions, or the whole circuit (ZNE, which ignores both).
struct Unit {
    qubit: usize,
    max: usize,
    /// The unit's cache key, when tuning against a session.
    fingerprint: Option<WindowFingerprint>,
}

impl Stage {
    /// First job indices of the stage's sweeps and of its guard. Sweep
    /// indices rise by one per candidate across the stage's units.
    fn jobs(self) -> (u64, u64) {
        match self {
            Stage::Gs => (2, 2_000_000),
            Stage::Dd => (1_000_001, 3_000_000),
            Stage::Zne => (5_000_000, 5_500_000),
        }
    }

    /// The stage's units on top of `base`, keyed for the cache when a
    /// calibration snapshot is given, and `base` with the knob untuned on
    /// every unit (ALAP positions, no DD repetitions).
    fn units<E: Executor>(
        self,
        tuner: &WindowTuner<'_, E>,
        cache: &GroupSchedules,
        base: &MitigationConfig,
        calibration: Option<&NoiseParameters>,
    ) -> Result<(Vec<Unit>, MitigationConfig), VaqemError> {
        let (cfg, pulse) = (&tuner.config, tuner.backend.durations().single_qubit_ns());
        let seq = cfg.dd_sequence;
        let mut untuned = base.clone();
        let (mode, scheduled, windows) = match self {
            Stage::Gs => {
                let s = tuner.canonical_schedule(cache, &MitigationConfig::baseline())?;
                let windows = GsPass::new(pulse).movable_windows(&s);
                untuned.gate_positions = vec![1.0; windows.len()];
                (TuningMode::Gs, s, windows)
            }
            Stage::Dd => {
                let s = tuner.canonical_schedule(cache, base)?;
                let windows = DdPass::new(seq, pulse).windows(&s);
                untuned.dd_repetitions = vec![0; windows.len()];
                untuned.dd_sequence = Some(seq);
                (TuningMode::Dd(seq), s, windows)
            }
            Stage::Zne => {
                let key = |c| tuner.circuit_key(TuningMode::Zne, cache, c);
                let unit = Unit {
                    qubit: 0,
                    max: 0,
                    fingerprint: calibration.map(key).transpose()?,
                };
                return Ok((vec![unit], untuned));
            }
        };
        let units = windows.iter().enumerate().map(|(i, w)| {
            let ordinal = windows[..i].iter().filter(|v| v.qubit == w.qubit).count();
            Unit {
                qubit: w.qubit,
                max: seq.max_repetitions(w, pulse).min(cfg.max_repetitions),
                fingerprint: calibration
                    .map(|c| window_fingerprint(mode, w, ordinal, &scheduled, c, pulse, cfg)),
            }
        });
        Ok((units.collect(), untuned))
    }

    /// Lands a cached value on unit `i` of `config` and returns its
    /// objective; `None` (a miss) when the variant is not the stage's.
    fn adopt(
        self,
        unit: &Unit,
        i: usize,
        stored: StoredChoice,
        config: &mut MitigationConfig,
    ) -> Option<f64> {
        match (self, stored) {
            (Stage::Gs, StoredChoice::Window(c)) => {
                config.gate_positions[i] = c.value.clamp(0.0, 1.0);
                Some(c.objective)
            }
            (Stage::Dd, StoredChoice::Window(c)) => {
                // An identical window replays the exact repetition count;
                // a same-class window with a different cap rescales by
                // the cached fraction.
                let replay = c.value.round().max(0.0) as usize;
                config.dd_repetitions[i] = if replay <= unit.max {
                    replay
                } else {
                    ((c.fraction_of_max * unit.max as f64).round() as usize).min(unit.max)
                };
                Some(c.objective)
            }
            (Stage::Zne, StoredChoice::Composed(c)) => {
                config.zne = Some(c.zne?);
                Some(c.objective)
            }
            _ => None,
        }
    }

    /// Unit `i`'s sweep: `config` with each candidate landed on the unit.
    /// Refuses a sweep resolution below 2 and an empty ZNE candidate list.
    fn trials<E: Executor>(
        self,
        tuner: &WindowTuner<'_, E>,
        unit: &Unit,
        i: usize,
        config: &MitigationConfig,
    ) -> Result<Vec<MitigationConfig>, VaqemError> {
        let cfg = &tuner.config;
        let (resolution, protocols) = (cfg.sweep_resolution, cfg.zne_candidates.len());
        if (self == Stage::Zne && protocols == 0) || (self != Stage::Zne && resolution < 2) {
            return Err(VaqemError::Config {
                message: format!(
                    "{self:?} cannot sweep: sweep_resolution {resolution}, {protocols} ZNE candidates"
                ),
            });
        }
        let with = |land: &dyn Fn(&mut MitigationConfig)| {
            let mut trial = config.clone();
            land(&mut trial);
            trial
        };
        Ok(match self {
            Stage::Gs => position_candidates(resolution)
                .into_iter()
                .map(|p| with(&|t| t.gate_positions[i] = p))
                .collect(),
            Stage::Dd => integer_candidates(unit.max, resolution)
                .into_iter()
                .map(|r| with(&|t| t.dd_repetitions[i] = r))
                .collect(),
            Stage::Zne => cfg
                .zne_candidates
                .iter()
                .map(|z| with(&|t| t.zne = Some(z.clone())))
                .collect(),
        })
    }

    /// Unit `i`'s Fig. 14 record once `config` holds its setting; none
    /// for the whole circuit.
    fn choice(
        self,
        unit: &Unit,
        i: usize,
        config: &MitigationConfig,
        objective: f64,
    ) -> Option<WindowChoice> {
        let (fraction_of_max, value) = match self {
            Stage::Gs => (config.gate_positions[i], config.gate_positions[i]),
            Stage::Dd => {
                let reps = config.dd_repetitions[i] as f64;
                (reps / unit.max.max(1) as f64, reps)
            }
            Stage::Zne => return None,
        };
        Some(WindowChoice {
            window: i,
            qubit: unit.qubit,
            fraction_of_max,
            value,
            objective,
        })
    }
}

/// The store value of a freshly swept unit: its window choice, or, for
/// the whole circuit, the configuration it was tuned in.
fn stored(
    choice: Option<&WindowChoice>,
    config: &MitigationConfig,
    objective: f64,
) -> StoredChoice {
    match choice {
        Some(c) => StoredChoice::Window(CachedChoice {
            fraction_of_max: c.fraction_of_max,
            value: c.value,
            objective: c.objective,
        }),
        None => StoredChoice::Composed(ComposedChoice::from_config(config, objective)),
    }
}

/// A run that has tuned nothing yet: the baseline configuration.
fn untuned() -> WarmTuneReport {
    WarmTuneReport {
        tuned: TunedMitigation {
            config: MitigationConfig::baseline(),
            gs_choices: Vec::new(),
            dd_choices: Vec::new(),
            evaluations: 0,
            zne_evaluations: 0,
        },
        stats: WarmStats::default(),
    }
}

/// Cache interaction counters of one warm-started tuning stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Windows whose sweep was skipped in favour of a cached choice.
    pub hits: usize,
    /// Windows swept in full (and offered to the store on acceptance).
    pub misses: usize,
    /// Whether the acceptance guard rejected the assembled configuration
    /// (the tuner then reverts to the base config and evicts the cache
    /// entries that seeded it). For multi-stage runs
    /// ([`WindowTuner::tune_combined_warm`]) this is `true` when *any*
    /// stage's guard rejected.
    pub guard_rejected: bool,
}

/// Result of a warm-started tuning run: the tuned mitigation plus the
/// cache interaction counters.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmTuneReport {
    /// The tuning outcome (guard-validated, like the cold path's).
    pub tuned: TunedMitigation,
    /// Hit/miss/guard counters for this run.
    pub stats: WarmStats,
}

/// The VAQEM per-window tuner.
#[derive(Debug)]
pub struct WindowTuner<'a, E: Executor = MachineExecutor> {
    problem: &'a VqeProblem,
    backend: &'a QuantumBackend<E>,
    config: WindowTunerConfig,
}

impl<'a, E: Executor> WindowTuner<'a, E> {
    /// Creates a tuner for a problem on a backend.
    pub fn new(
        problem: &'a VqeProblem,
        backend: &'a QuantumBackend<E>,
        config: WindowTunerConfig,
    ) -> Self {
        WindowTuner {
            problem,
            backend,
            config,
        }
    }

    /// Canonical scheduled circuit used for window enumeration: the first
    /// measurement group's cached base schedule with `base` applied.
    fn canonical_schedule(
        &self,
        cache: &GroupSchedules,
        base: &MitigationConfig,
    ) -> Result<vaqem_circuit::schedule::ScheduledCircuit, VaqemError> {
        let first = cache
            .schedules()
            .first()
            .ok_or_else(|| VaqemError::Config {
                message: "hamiltonian has no measurement groups".into(),
            })?;
        Ok(base.apply(first, self.backend.durations()))
    }

    /// The circuit-level cache key, read off the unmitigated schedule.
    fn circuit_key(
        &self,
        mode: TuningMode,
        cache: &GroupSchedules,
        calibration: &NoiseParameters,
    ) -> Result<WindowFingerprint, VaqemError> {
        let scheduled = self.canonical_schedule(cache, &MitigationConfig::baseline())?;
        let pulse = self.backend.durations().single_qubit_ns();
        Ok(circuit_fingerprint(
            mode,
            &scheduled,
            calibration,
            pulse,
            &self.config,
        ))
    }

    /// The guard's measurement: `r = guard_repeats` fresh evaluations per
    /// side in one batch, side `s` at jobs `job + s·r ..`, averaged.
    fn guard_means(
        &self,
        cache: &GroupSchedules,
        sides: &[&MitigationConfig],
        job: u64,
    ) -> Vec<f64> {
        let r = self.config.guard_repeats.max(1);
        let evals: Vec<(MitigationConfig, u64)> = sides
            .iter()
            .flat_map(|cfg| std::iter::repeat_n(*cfg, r).cloned())
            .zip(job..)
            .collect();
        let energies = self
            .problem
            .machine_energy_batch(self.backend, cache, &evals);
        energies
            .chunks(r)
            .map(|side| side.iter().sum::<f64>() / r as f64)
            .collect()
    }

    /// Acceptance guard (paper §IX-C: destructive interference is "weeded
    /// out by the tuning logic"): keeps `tuned.config` only if it measures
    /// at least as well as `base` on fresh evaluations, and reverts it to
    /// `base` otherwise. Both sides' `guard_repeats` evaluations go out as
    /// one batch and count towards `tuned.evaluations`. Returns whether
    /// the tuned configuration was kept.
    fn guard(
        &self,
        cache: &GroupSchedules,
        base: &MitigationConfig,
        tuned: &mut TunedMitigation,
        job: u64,
    ) -> bool {
        let means = self.guard_means(cache, &[&tuned.config, base], job);
        tuned.evaluations += 2 * self.config.guard_repeats.max(1);
        let accepted = means[0] <= means[1];
        if !accepted {
            tuned.config = base.clone();
        }
        accepted
    }

    /// Tunes DD repetition counts per window (the paper's "VAQEM: XY/XX").
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_dd(&self, params: &[f64]) -> Result<TunedMitigation, VaqemError> {
        self.tune_cold(params, &[Stage::Dd])
    }

    /// Tunes gate positions per movable window (the paper's "VAQEM: GS").
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_gs(&self, params: &[f64]) -> Result<TunedMitigation, VaqemError> {
        self.tune_cold(params, &[Stage::Gs])
    }

    /// Tunes GS first, then DD on the GS-adjusted schedule — the paper's
    /// coordinated "VAQEM: GS+XY" mode.
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_combined(&self, params: &[f64]) -> Result<TunedMitigation, VaqemError> {
        self.tune_cold(params, &[Stage::Gs, Stage::Dd])
    }

    /// Extension (paper §IX-B): selects the best DD sequence *type* within
    /// the variational framework. Each candidate sequence is fully
    /// per-window tuned, then the guard-evaluated best is kept — "different
    /// DD sequence types can be employed in conjunction" with tuning.
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_dd_best_sequence(
        &self,
        params: &[f64],
        candidates: &[DdSequence],
    ) -> Result<(DdSequence, TunedMitigation), VaqemError> {
        let cache = self.problem.schedule_groups(self.backend, params)?;
        self.best_sequence(&cache, candidates)
    }

    /// Warm-started DD tuning against the fleet cache: fingerprint hits
    /// adopt the cached repetition count without sweeping, misses sweep in
    /// full, and the §IX-C acceptance guard gates the assembled
    /// configuration exactly as in [`Self::tune_dd`]. Guard-accepted swept
    /// choices are published to the store; a rejection evicts the entries
    /// that seeded the run.
    ///
    /// With every window hitting entries recorded by a cold run under the
    /// same root seed, the warm result is identical to the cold result —
    /// the guard evaluations consume the same job indices — while spending
    /// only the guard's evaluations.
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_dd_warm<S: MitigationStoreBackend>(
        &self,
        params: &[f64],
        session: &mut FleetCacheSession<'_, S>,
    ) -> Result<WarmTuneReport, VaqemError> {
        self.tune(params, &[Stage::Dd], Some(session))
    }

    /// Warm-started GS tuning — the gate-position counterpart of
    /// [`Self::tune_dd_warm`].
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_gs_warm<S: MitigationStoreBackend>(
        &self,
        params: &[f64],
        session: &mut FleetCacheSession<'_, S>,
    ) -> Result<WarmTuneReport, VaqemError> {
        self.tune(params, &[Stage::Gs], Some(session))
    }

    /// Warm-started GS-then-DD tuning — the coordinated "VAQEM: GS+XY"
    /// mode of [`Self::tune_combined`] against the fleet cache. Both
    /// stages share the session; stats are summed.
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_combined_warm<S: MitigationStoreBackend>(
        &self,
        params: &[f64],
        session: &mut FleetCacheSession<'_, S>,
    ) -> Result<WarmTuneReport, VaqemError> {
        self.tune(params, &[Stage::Gs, Stage::Dd], Some(session))
    }

    /// Tunes the ZNE protocol on the untuned baseline (paper §IX): every
    /// candidate in [`WindowTunerConfig::zne_candidates`] is evaluated in
    /// one batch, the best extrapolated objective wins, and the §IX-C
    /// acceptance guard keeps the winner only if it measures at least as
    /// well as the un-extrapolated baseline on fresh evaluations.
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_zne(&self, params: &[f64]) -> Result<TunedMitigation, VaqemError> {
        self.tune_cold(params, &[Stage::Zne])
    }

    /// Warm-started ZNE tuning against the fleet cache: the circuit-level
    /// [`TuningMode::Zne`] fingerprint hitting a cached protocol skips the
    /// candidate sweep entirely; the guard always re-validates, swept
    /// winners publish on acceptance, and a rejected seed is evicted —
    /// the same contract as the per-window warm paths.
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_zne_warm<S: MitigationStoreBackend>(
        &self,
        params: &[f64],
        session: &mut FleetCacheSession<'_, S>,
    ) -> Result<WarmTuneReport, VaqemError> {
        self.tune(params, &[Stage::Zne], Some(session))
    }

    /// The full composed pipeline: GS, then DD on the GS-adjusted
    /// schedule, then the ZNE protocol over the mitigated circuit — the
    /// "VAQEM: GS+XY+ZNE" configuration.
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_combined_zne(&self, params: &[f64]) -> Result<TunedMitigation, VaqemError> {
        self.tune_cold(params, &GS_DD_ZNE)
    }

    /// Warm-started GS+DD+ZNE tuning that caches the **composed** choice:
    /// the circuit-level [`TuningMode::Composed`] fingerprint maps to the
    /// whole `(gs, dd, zne)` configuration as one unit (the ROADMAP's
    /// composed-config cache follow-on).
    ///
    /// * **Hit:** the cached composition is re-validated by a single
    ///   guard batch against the baseline; acceptance adopts it outright
    ///   — no per-stage sweeps, no per-window lookups — and rejection
    ///   evicts the entry and falls through to a full re-tune.
    /// * **Miss:** the three stages tune as in [`Self::tune_combined_zne`]
    ///   (sharing the session's per-window cache), and the final
    ///   composition is published under the composed fingerprint.
    ///
    /// # Errors
    ///
    /// Propagates objective-evaluation and configuration errors.
    pub fn tune_combined_zne_warm<S: MitigationStoreBackend>(
        &self,
        params: &[f64],
        session: &mut FleetCacheSession<'_, S>,
    ) -> Result<WarmTuneReport, VaqemError> {
        self.tune(params, &GS_DD_ZNE, Some(session))
    }

    /// The tuning driver: runs `stages` in order on the schedule cache of
    /// `params`, each on top of the configuration the previous one kept,
    /// warm-started from `session` when one is given. With a session,
    /// [`GS_DD_ZNE`] consults its composed cache entry first.
    pub(crate) fn tune<S: MitigationStoreBackend>(
        &self,
        params: &[f64],
        stages: &[Stage],
        session: Option<&mut FleetCacheSession<'_, S>>,
    ) -> Result<WarmTuneReport, VaqemError> {
        let cache = self.problem.schedule_groups(self.backend, params)?;
        match session {
            Some(s) if stages == GS_DD_ZNE => self.tune_composed(&cache, s),
            mut session => {
                let mut report = untuned();
                for &stage in stages {
                    self.run_stage(stage, &cache, &mut report, session.as_deref_mut())?;
                }
                Ok(report)
            }
        }
    }

    /// [`Self::tune`] without a cache session.
    fn tune_cold(&self, params: &[f64], stages: &[Stage]) -> Result<TunedMitigation, VaqemError> {
        Ok(self
            .tune::<MitigationConfigStore>(params, stages, None)?
            .tuned)
    }

    /// Runs one stage on top of `report.tuned.config` and folds its
    /// outcome into `report`.
    ///
    /// Per unit, a cache hit adopts the stored value and a miss sweeps the
    /// unit's candidates as one batch. The guard then keeps the assembled
    /// configuration only if it measures no worse than the base. With a
    /// session, an accepted run publishes its swept choices and a rejected
    /// one discards the entries that seeded it. Returns the objective of
    /// the kept setting (`NaN` when the guard reverted).
    fn run_stage<S: MitigationStoreBackend>(
        &self,
        stage: Stage,
        cache: &GroupSchedules,
        report: &mut WarmTuneReport,
        mut session: Option<&mut FleetCacheSession<'_, S>>,
    ) -> Result<f64, VaqemError> {
        let (tuned, stats) = (&mut report.tuned, &mut report.stats);
        let base = std::mem::take(&mut tuned.config);
        let calibration = session.as_deref().map(|s| s.calibration);
        let (units, mut config) = stage.units(self, cache, &base, calibration)?;
        let (first_job, guard_job) = stage.jobs();
        let mut job = first_job;
        let mut choices = Vec::with_capacity(units.len());
        let (mut pending, mut seeded) = (Vec::new(), Vec::new());
        let mut objective = f64::NAN;
        for (i, unit) in units.iter().enumerate() {
            if stage == Stage::Dd && unit.max == 0 {
                // No room for one repetition: recorded, never tuned.
                choices.extend(stage.choice(unit, i, &config, f64::NAN));
                continue;
            }
            if let (Some(fp), Some(s)) = (unit.fingerprint, session.as_deref_mut()) {
                let stored = s.store.lookup(s.device, s.epoch, &fp);
                if let Some(o) = stored.and_then(|v| stage.adopt(unit, i, v, &mut config)) {
                    stats.hits += 1;
                    seeded.push(fp);
                    objective = o;
                    choices.extend(stage.choice(unit, i, &config, o));
                    continue;
                }
                stats.misses += 1;
            }
            // The unit's whole sweep goes out as one parallel batch.
            let trials = stage.trials(self, unit, i, &config)?;
            let evals: Vec<(MitigationConfig, u64)> = trials.into_iter().zip(job..).collect();
            job += evals.len() as u64;
            tuned.evaluations += evals.len();
            let energies = self
                .problem
                .machine_energy_batch(self.backend, cache, &evals);
            let mut energy = energies.iter();
            let best = sweep_minimize(&evals, |_| {
                *energy.next().expect("one energy per candidate")
            });
            (config, _) = best.best_candidate;
            objective = best.best_value;
            let choice = stage.choice(unit, i, &config, objective);
            if let Some(fp) = unit.fingerprint {
                pending.push((fp, stored(choice.as_ref(), &config, objective)));
            }
            choices.extend(choice);
        }
        tuned.config = config;
        let accepted = self.guard(cache, &base, tuned, guard_job);
        stats.guard_rejected |= !accepted;
        if let Some(s) = session {
            if accepted {
                for (fp, value) in pending {
                    s.store.publish(s.device, s.epoch, fp, value);
                }
            } else {
                for fp in &seeded {
                    s.store.discard(s.device, s.epoch, fp);
                }
            }
        }
        match stage {
            Stage::Gs => tuned.gs_choices = choices,
            Stage::Dd => tuned.dd_choices = choices,
            // The sweeps and the guard's tuned side ran folded circuits.
            Stage::Zne => {
                tuned.zne_evaluations +=
                    (job - first_job) as usize + self.config.guard_repeats.max(1)
            }
        }
        Ok(if accepted { objective } else { f64::NAN })
    }

    /// [`GS_DD_ZNE`] through the session's composed cache entry (see
    /// [`Self::tune_combined_zne_warm`]).
    fn tune_composed<S: MitigationStoreBackend>(
        &self,
        cache: &GroupSchedules,
        s: &mut FleetCacheSession<'_, S>,
    ) -> Result<WarmTuneReport, VaqemError> {
        let mode = TuningMode::Composed(self.config.dd_sequence);
        let fp = self.circuit_key(mode, cache, s.calibration)?;
        let mut report = untuned();
        if let Some(StoredChoice::Composed(c)) = s.store.lookup(s.device, s.epoch, &fp) {
            let mut hit = untuned();
            hit.tuned.config = c.to_config();
            if self.guard(
                cache,
                &report.tuned.config,
                &mut hit.tuned,
                COMPOSED_GUARD_JOB,
            ) {
                if hit.tuned.config.zne.is_some() {
                    hit.tuned.zne_evaluations = self.config.guard_repeats.max(1);
                }
                hit.stats.hits = 1;
                return Ok(hit);
            }
            s.store.discard(s.device, s.epoch, &fp);
            report.stats.guard_rejected = true;
        }
        let mut objective = f64::NAN;
        for stage in GS_DD_ZNE {
            objective = self.run_stage(stage, cache, &mut report, Some(&mut *s))?;
        }
        report.stats.misses += 1; // the composed lookup itself missed
        let composed = stored(None, &report.tuned.config, objective);
        s.store.publish(s.device, s.epoch, fp, composed);
        Ok(report)
    }

    /// Tunes DD once per candidate sequence on `cache` and keeps the one
    /// with the best fresh score (see [`Self::tune_dd_best_sequence`]).
    fn best_sequence(
        &self,
        cache: &GroupSchedules,
        candidates: &[DdSequence],
    ) -> Result<(DdSequence, TunedMitigation), VaqemError> {
        let r = self.config.guard_repeats.max(1);
        // Candidate score streams must never overlap: stride by at least
        // the guard width, and never less than the historical 10.
        let stride = (r as u64).max(10);
        let mut best: Option<(DdSequence, TunedMitigation, f64)> = None;
        for (i, &seq) in candidates.iter().enumerate() {
            let config = WindowTunerConfig {
                dd_sequence: seq,
                ..self.config.clone()
            };
            let mut run = untuned();
            WindowTuner::new(self.problem, self.backend, config)
                .run_stage::<MitigationConfigStore>(Stage::Dd, cache, &mut run, None)?;
            let job = SEQUENCE_SCORE_JOB + stride * i as u64;
            let score = self.guard_means(cache, &[&run.tuned.config], job)[0];
            run.tuned.evaluations += r;
            if !best.as_ref().is_some_and(|(_, _, s)| *s <= score) {
                best = Some((seq, run.tuned, score));
            }
        }
        let (seq, tuned, _) = best.expect("at least one sequence candidate");
        Ok((seq, tuned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
    use vaqem_device::noise::NoiseParameters;
    use vaqem_mathkit::rng::SeedStream;
    use vaqem_pauli::models::tfim_paper;

    fn small_problem() -> VqeProblem {
        // Linear entanglement staggers the CX chain, so the outer qubits
        // idle while the chain progresses — guaranteeing idle windows.
        let ansatz = EfficientSu2::new(3, 1, Entanglement::Linear)
            .circuit()
            .unwrap();
        VqeProblem::new("tiny", tfim_paper(3), ansatz).unwrap()
    }

    fn small_backend() -> QuantumBackend {
        QuantumBackend::new(NoiseParameters::uniform(3), SeedStream::new(21)).with_shots(128)
    }

    fn tiny_config() -> WindowTunerConfig {
        WindowTunerConfig {
            sweep_resolution: 3,
            dd_sequence: DdSequence::Xx,
            max_repetitions: 4,
            guard_repeats: 2,
            zne_candidates: vec![
                ZneConfig::new(vec![0, 1], Extrapolation::Richardson { order: 1 }),
                ZneConfig::standard(),
            ],
        }
    }

    #[test]
    fn dd_tuning_produces_valid_config() {
        let p = small_problem();
        let b = small_backend();
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let params = vec![0.3; p.num_params()];
        let tuned = tuner.tune_dd(&params).unwrap();
        // Either the tuned DD config was accepted, or the guard reverted to
        // the baseline (both are valid outcomes under shot noise).
        if !tuned.config.is_baseline() {
            assert_eq!(tuned.config.dd_sequence, Some(DdSequence::Xx));
            assert_eq!(tuned.dd_choices.len(), tuned.config.dd_repetitions.len());
        }
        assert!(!tuned.dd_choices.is_empty(), "windows must have been swept");
        // Tuned config evaluates without error.
        let e = p.machine_energy(&b, &params, &tuned.config, 9_999).unwrap();
        assert!(e.is_finite());
    }

    #[test]
    fn tuned_objective_not_worse_than_baseline_in_sweep() {
        // Within the tuner's own evaluations, the chosen value is minimal by
        // construction; verify the invariant on the recorded choices.
        let p = small_problem();
        let b = small_backend();
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let params = vec![0.3; p.num_params()];
        let tuned = tuner.tune_dd(&params).unwrap();
        for c in &tuned.dd_choices {
            if c.objective.is_nan() {
                continue;
            }
            assert!(c.fraction_of_max >= 0.0 && c.fraction_of_max <= 1.0);
        }
        assert!(tuned.evaluations > 0);
    }

    #[test]
    fn gs_tuning_only_touches_movable_windows() {
        let p = small_problem();
        let b = small_backend();
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let params = vec![0.5; p.num_params()];
        let tuned = tuner.tune_gs(&params).unwrap();
        if !tuned.config.is_baseline() {
            assert_eq!(tuned.gs_choices.len(), tuned.config.gate_positions.len());
        }
        for c in &tuned.gs_choices {
            assert!((0.0..=1.0).contains(&c.value));
        }
    }

    #[test]
    fn sequence_selection_extension_picks_a_candidate() {
        let p = small_problem();
        let b = small_backend();
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let params = vec![0.3; p.num_params()];
        let (seq, tuned) = tuner
            .tune_dd_best_sequence(&params, &[DdSequence::Xx, DdSequence::Xy4])
            .unwrap();
        assert!(matches!(seq, DdSequence::Xx | DdSequence::Xy4));
        assert!(tuned.evaluations > 0);
        let e = p.machine_energy(&b, &params, &tuned.config, 8_888).unwrap();
        assert!(e.is_finite());
    }

    #[test]
    fn combined_tuning_composes_both() {
        let p = small_problem();
        let b = small_backend();
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let params = vec![0.4; p.num_params()];
        let tuned = tuner.tune_combined(&params).unwrap();
        assert!(tuned.evaluations > 0);
        let e = p.machine_energy(&b, &params, &tuned.config, 7_777).unwrap();
        assert!(e.is_finite());
    }

    #[test]
    fn noise_classes_are_stable_buckets() {
        let q = vaqem_device::noise::QubitNoise::default();
        let a = classify_qubit_noise(&q);
        let b = classify_qubit_noise(&q);
        assert_eq!(a, b);
        // Small wander stays in class; a 4x coherence jump must not.
        let mut wobble = q;
        wobble.t1_ns *= 1.05;
        assert_eq!(classify_qubit_noise(&wobble).t1, a.t1);
        let mut jumped = q;
        jumped.t1_ns *= 4.0;
        assert_ne!(classify_qubit_noise(&jumped).t1, a.t1);
        // Noiseless channels collapse to the sentinel class.
        let mut silent = q;
        silent.telegraph_rate_per_ns = 0.0;
        assert_eq!(classify_qubit_noise(&silent).telegraph, i16::MIN);
    }

    #[test]
    fn warm_start_replays_cold_choices_and_skips_sweeps() {
        let p = small_problem();
        let params = vec![0.3; p.num_params()];
        let calibration = NoiseParameters::uniform(3);

        // Deterministically scan backend seeds for one where the cold
        // run's guard *accepts* (so choices get published); on every
        // attempt the cold warm-path run must equal the plain path.
        let mut pinned = None;
        for seed in 21..36 {
            let b = QuantumBackend::new(NoiseParameters::uniform(3), SeedStream::new(seed))
                .with_shots(128);
            let tuner = WindowTuner::new(&p, &b, tiny_config());
            let mut store = MitigationConfigStore::new(256);
            let plain = tuner.tune_dd(&params).unwrap();
            let cold = {
                let mut session = FleetCacheSession {
                    store: &mut store,
                    device: "dev-test",
                    epoch: 0,
                    calibration: &calibration,
                };
                tuner.tune_dd_warm(&params, &mut session).unwrap()
            };
            assert_eq!(cold.tuned, plain, "cold warm-path run == plain run");
            assert_eq!(cold.stats.hits, 0);
            assert!(cold.stats.misses > 0);
            if !cold.stats.guard_rejected {
                pinned = Some((seed, store, cold));
                break;
            }
        }
        let (seed, mut store, cold) = pinned.expect("some seed's cold guard accepts");

        // Round 2: warm. Every window hits, the assembled config is
        // identical, and only the guard's evaluations are spent.
        let b =
            QuantumBackend::new(NoiseParameters::uniform(3), SeedStream::new(seed)).with_shots(128);
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let warm = {
            let mut session = FleetCacheSession {
                store: &mut store,
                device: "dev-test",
                epoch: 0,
                calibration: &calibration,
            };
            tuner.tune_dd_warm(&params, &mut session).unwrap()
        };
        assert_eq!(warm.stats.hits, cold.stats.misses, "all windows hit");
        assert_eq!(warm.stats.misses, 0);
        assert!(!warm.stats.guard_rejected, "replayed config re-accepts");
        assert_eq!(
            warm.tuned.config, cold.tuned.config,
            "guard-accepted warm result equals the cold-tuned result"
        );
        assert!(
            warm.tuned.evaluations < cold.tuned.evaluations,
            "warm {} must be cheaper than cold {}",
            warm.tuned.evaluations,
            cold.tuned.evaluations
        );

        // A different device or epoch misses naturally.
        let mut session = FleetCacheSession {
            store: &mut store,
            device: "dev-test",
            epoch: 1,
            calibration: &calibration,
        };
        let next_epoch = tuner.tune_dd_warm(&params, &mut session).unwrap();
        assert_eq!(next_epoch.stats.hits, 0, "new epoch must re-tune");
    }

    #[test]
    fn gs_warm_start_replays_positions() {
        let p = small_problem();
        let b = small_backend();
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let params = vec![0.5; p.num_params()];
        let calibration = NoiseParameters::uniform(3);
        let mut store = MitigationConfigStore::new(256);
        let run = |store: &mut MitigationConfigStore| {
            let mut session = FleetCacheSession {
                store,
                device: "dev-test",
                epoch: 0,
                calibration: &calibration,
            };
            tuner.tune_gs_warm(&params, &mut session).unwrap()
        };
        let cold = run(&mut store);
        let warm = run(&mut store);
        assert_eq!(cold.tuned, tuner.tune_gs(&params).unwrap());
        if !cold.stats.guard_rejected {
            assert_eq!(warm.stats.misses, 0);
            assert_eq!(warm.tuned.config, cold.tuned.config);
        }
        assert!(warm.tuned.evaluations <= cold.tuned.evaluations);
    }

    #[test]
    fn fingerprints_distinguish_modes_and_durations() {
        let p = small_problem();
        let b = small_backend();
        let cfg = tiny_config();
        let params = vec![0.3; p.num_params()];
        let cache = p.schedule_groups(&b, &params).unwrap();
        let scheduled =
            MitigationConfig::baseline().apply(cache.schedules().first().unwrap(), b.durations());
        let pulse = b.durations().single_qubit_ns();
        let windows = scheduled.idle_windows(pulse);
        assert!(!windows.is_empty());
        let noise = NoiseParameters::uniform(3);
        let w = &windows[0];
        let dd = window_fingerprint(
            TuningMode::Dd(DdSequence::Xx),
            w,
            0,
            &scheduled,
            &noise,
            pulse,
            &cfg,
        );
        let gs = window_fingerprint(TuningMode::Gs, w, 0, &scheduled, &noise, pulse, &cfg);
        assert_ne!(dd, gs, "mode is part of the fingerprint");
        let again = window_fingerprint(
            TuningMode::Dd(DdSequence::Xx),
            w,
            0,
            &scheduled,
            &noise,
            pulse,
            &cfg,
        );
        assert_eq!(dd, again, "fingerprints are pure");
        let other_ordinal = window_fingerprint(
            TuningMode::Dd(DdSequence::Xx),
            w,
            1,
            &scheduled,
            &noise,
            pulse,
            &cfg,
        );
        assert_ne!(dd, other_ordinal);
    }

    #[test]
    fn fingerprint_and_choice_codecs_round_trip() {
        let fp = WindowFingerprint {
            mode: TuningMode::Dd(DdSequence::Xy8),
            duration_slots: 37,
            qubit: 5,
            ordinal: 2,
            noise_class: NoiseClass {
                t1: 33,
                t2: -4,
                detuning: i16::MIN,
                telegraph: 0,
                readout: -7,
            },
            neighbors_active: 3,
            coupled_active: 1,
            sweep_resolution: 4,
            max_repetitions: 8,
        };
        let mut buf = Vec::new();
        fp.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(WindowFingerprint::decode(&mut input), Some(fp));
        assert!(input.is_empty());

        let choice = CachedChoice {
            fraction_of_max: 0.75,
            value: 6.0,
            objective: -1.25,
        };
        buf.clear();
        choice.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(CachedChoice::decode(&mut input), Some(choice));

        // Every tuning-mode tag survives the round trip.
        for mode in [
            TuningMode::Gs,
            TuningMode::Dd(DdSequence::Xx),
            TuningMode::Dd(DdSequence::Yy),
            TuningMode::Dd(DdSequence::Xy4),
            TuningMode::Dd(DdSequence::Xy8),
            TuningMode::Zne,
            TuningMode::Composed(DdSequence::Xy4),
        ] {
            buf.clear();
            mode.encode(&mut buf);
            assert_eq!(TuningMode::decode(&mut buf.as_slice()), Some(mode));
        }
        // Unknown tags fail cleanly instead of misparsing.
        assert_eq!(TuningMode::decode(&mut [9u8].as_slice()), None);
    }

    #[test]
    fn stored_choice_codec_round_trips_both_variants() {
        let window = StoredChoice::Window(CachedChoice {
            fraction_of_max: 0.5,
            value: 3.0,
            objective: -2.0,
        });
        let composed = StoredChoice::Composed(ComposedChoice {
            gate_positions: vec![0.25, 1.0, 0.0],
            dd_sequence: Some(DdSequence::Xy4),
            dd_repetitions: vec![2, 0, 7],
            zne: Some(ZneConfig::new(vec![0, 1, 3], Extrapolation::Exponential)),
            objective: -1.75,
        });
        for choice in [window, composed] {
            let mut buf = Vec::new();
            choice.encode(&mut buf);
            let mut input = buf.as_slice();
            assert_eq!(StoredChoice::decode(&mut input), Some(choice));
            assert!(input.is_empty());
        }
        // Unknown variant tags fail cleanly.
        assert_eq!(StoredChoice::decode(&mut [7u8].as_slice()), None);
        // A corrupted ZNE payload with duplicate folds must fail the
        // decode (Codec contract) rather than yield a ZneConfig that
        // panics at extrapolation time.
        let mut corrupt = vec![1u8]; // Composed tag
        0u32.encode(&mut corrupt); // no gate positions
        corrupt.push(0); // no dd sequence
        0u32.encode(&mut corrupt); // no dd repetitions
        corrupt.push(1); // zne present
        2u32.encode(&mut corrupt); // two folds...
        corrupt.extend_from_slice(&[1, 1]); // ...but duplicated
        corrupt.push(1); // exponential
        corrupt.push(0); // padding order byte
        0.0f64.encode(&mut corrupt); // objective
        assert_eq!(StoredChoice::decode(&mut corrupt.as_slice()), None);
        // A composed choice without DD or ZNE (GS-only composition).
        let bare = StoredChoice::Composed(ComposedChoice {
            gate_positions: vec![],
            dd_sequence: None,
            dd_repetitions: vec![],
            zne: None,
            objective: 0.0,
        });
        let mut buf = Vec::new();
        bare.encode(&mut buf);
        assert_eq!(StoredChoice::decode(&mut buf.as_slice()), Some(bare));
    }

    #[test]
    fn stored_choice_versioned_decode_reads_legacy_bytes() {
        // Format version 1 stored bare CachedChoice bytes; the versioned
        // decoder must lift them into StoredChoice::Window.
        let legacy = CachedChoice {
            fraction_of_max: 0.75,
            value: 6.0,
            objective: -1.25,
        };
        let mut buf = Vec::new();
        legacy.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(
            StoredChoice::decode_versioned(&mut input, 1),
            Some(StoredChoice::Window(legacy))
        );
        assert!(input.is_empty());
        // Current-version bytes go through the tagged decoder.
        let tagged = StoredChoice::Window(legacy);
        buf.clear();
        tagged.encode(&mut buf);
        assert_eq!(
            StoredChoice::decode_versioned(&mut buf.as_slice(), 2),
            Some(tagged)
        );
    }

    #[test]
    fn composed_choice_config_round_trip() {
        let cfg = MitigationConfig {
            gate_positions: vec![0.5, 0.0],
            dd_repetitions: vec![1, 2, 3],
            dd_sequence: Some(DdSequence::Xx),
            zne: Some(ZneConfig::standard()),
        };
        let choice = ComposedChoice::from_config(&cfg, -3.0);
        assert_eq!(choice.to_config(), cfg);
    }

    #[test]
    fn warm_tuning_runs_against_a_shared_sharded_store() {
        use std::sync::Arc;
        use vaqem_runtime::store::ShardedStore;
        let p = small_problem();
        let b = small_backend();
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let params = vec![0.3; p.num_params()];
        let calibration = NoiseParameters::uniform(3);
        let store: Arc<ShardedStore<WindowFingerprint, StoredChoice>> =
            Arc::new(ShardedStore::new(4, 256));
        let run = |handle: &mut Arc<ShardedStore<WindowFingerprint, StoredChoice>>| {
            let mut session = FleetCacheSession {
                store: handle,
                device: "dev-test",
                epoch: 0,
                calibration: &calibration,
            };
            tuner.tune_dd_warm(&params, &mut session).unwrap()
        };
        let mut handle = Arc::clone(&store);
        let cold = run(&mut handle);
        assert_eq!(cold.stats.hits, 0);
        // The plain single-owner path and the sharded path agree.
        assert_eq!(cold.tuned, tuner.tune_dd(&params).unwrap());
        if !cold.stats.guard_rejected {
            let warm = run(&mut handle);
            assert_eq!(warm.stats.misses, 0);
            assert_eq!(warm.tuned.config, cold.tuned.config);
        }
    }

    #[test]
    fn zne_tuning_selects_a_candidate_and_respects_the_guard() {
        let p = small_problem();
        let b = small_backend();
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let params = vec![0.3; p.num_params()];
        let tuned = tuner.tune_zne(&params).unwrap();
        assert!(tuned.evaluations > 0);
        // Either a candidate was accepted (config carries its protocol)
        // or the guard reverted to the baseline — both valid under shot
        // noise.
        if let Some(z) = &tuned.config.zne {
            assert!(tiny_config().zne_candidates.contains(z));
        } else {
            assert!(tuned.config.is_baseline());
        }
        // The tuned config evaluates end to end.
        let e = p.machine_energy(&b, &params, &tuned.config, 6_666).unwrap();
        assert!(e.is_finite());
    }

    #[test]
    fn zne_warm_start_adopts_the_cached_protocol() {
        let p = small_problem();
        let params = vec![0.3; p.num_params()];
        let calibration = NoiseParameters::uniform(3);
        // Scan seeds for a cold run whose guard accepts (so the protocol
        // publishes); each attempt must match the plain path exactly.
        let mut pinned = None;
        for seed in 21..40 {
            let b = QuantumBackend::new(NoiseParameters::uniform(3), SeedStream::new(seed))
                .with_shots(128);
            let tuner = WindowTuner::new(&p, &b, tiny_config());
            let mut store = MitigationConfigStore::new(256);
            let plain = tuner.tune_zne(&params).unwrap();
            let cold = {
                let mut session = FleetCacheSession {
                    store: &mut store,
                    device: "dev-test",
                    epoch: 0,
                    calibration: &calibration,
                };
                tuner.tune_zne_warm(&params, &mut session).unwrap()
            };
            assert_eq!(cold.tuned, plain, "cold warm-path run == plain run");
            assert_eq!(cold.stats.hits, 0);
            assert_eq!(cold.stats.misses, 1, "one circuit-level lookup");
            if !cold.stats.guard_rejected {
                pinned = Some((seed, store, cold));
                break;
            }
        }
        let (seed, mut store, cold) = pinned.expect("some seed's cold guard accepts");
        let b =
            QuantumBackend::new(NoiseParameters::uniform(3), SeedStream::new(seed)).with_shots(128);
        let tuner = WindowTuner::new(&p, &b, tiny_config());
        let warm = {
            let mut session = FleetCacheSession {
                store: &mut store,
                device: "dev-test",
                epoch: 0,
                calibration: &calibration,
            };
            tuner.tune_zne_warm(&params, &mut session).unwrap()
        };
        assert_eq!(warm.stats.hits, 1, "cached protocol adopted");
        assert_eq!(warm.stats.misses, 0);
        assert!(!warm.stats.guard_rejected, "replayed protocol re-accepts");
        assert_eq!(warm.tuned.config, cold.tuned.config);
        assert!(
            warm.tuned.evaluations < cold.tuned.evaluations,
            "warm skips the candidate sweep"
        );
        // A different epoch misses naturally.
        let mut session = FleetCacheSession {
            store: &mut store,
            device: "dev-test",
            epoch: 1,
            calibration: &calibration,
        };
        let next = tuner.tune_zne_warm(&params, &mut session).unwrap();
        assert_eq!(next.stats.hits, 0, "new epoch must re-tune");
    }

    #[test]
    fn composed_cache_round_trips_the_whole_configuration() {
        let p = small_problem();
        let params = vec![0.4; p.num_params()];
        let calibration = NoiseParameters::uniform(3);
        for seed in 21..40 {
            let b = QuantumBackend::new(NoiseParameters::uniform(3), SeedStream::new(seed))
                .with_shots(128);
            let tuner = WindowTuner::new(&p, &b, tiny_config());
            let mut store = MitigationConfigStore::new(256);
            let run = |store: &mut MitigationConfigStore| {
                let mut session = FleetCacheSession {
                    store,
                    device: "dev-test",
                    epoch: 0,
                    calibration: &calibration,
                };
                tuner.tune_combined_zne_warm(&params, &mut session).unwrap()
            };
            let cold = run(&mut store);
            assert_eq!(cold.stats.hits, 0, "cold run sweeps everything");
            assert!(cold.stats.misses > 0);
            // The composed entry is always published after a full tune.
            let warm = run(&mut store);
            if warm.stats.guard_rejected {
                continue; // shot noise rejected the replay; try another seed
            }
            assert_eq!(
                warm.stats.hits, 1,
                "the composed fingerprint answers the whole session"
            );
            assert_eq!(warm.stats.misses, 0, "no per-window traffic on a hit");
            assert_eq!(warm.tuned.config, cold.tuned.config);
            assert!(
                warm.tuned.evaluations < cold.tuned.evaluations.max(1),
                "one guard batch replaces three tuning stages"
            );
            return;
        }
        panic!("no seed produced an accepted composed replay");
    }

    #[test]
    fn circuit_fingerprints_are_pure_and_mode_distinct() {
        let p = small_problem();
        let b = small_backend();
        let cfg = tiny_config();
        let params = vec![0.3; p.num_params()];
        let cache = p.schedule_groups(&b, &params).unwrap();
        let scheduled =
            MitigationConfig::baseline().apply(cache.schedules().first().unwrap(), b.durations());
        let pulse = b.durations().single_qubit_ns();
        let noise = NoiseParameters::uniform(3);
        let zne = circuit_fingerprint(TuningMode::Zne, &scheduled, &noise, pulse, &cfg);
        let again = circuit_fingerprint(TuningMode::Zne, &scheduled, &noise, pulse, &cfg);
        assert_eq!(zne, again, "fingerprints are pure");
        let composed = circuit_fingerprint(
            TuningMode::Composed(cfg.dd_sequence),
            &scheduled,
            &noise,
            pulse,
            &cfg,
        );
        assert_ne!(zne, composed, "mode is part of the key");
        assert_eq!(zne.qubit, 3, "circuit width");
        assert!(zne.duration_slots > 0);
        // A coherence jump on any qubit splits the worst-case class.
        let mut jumped = NoiseParameters::uniform(3);
        jumped.qubit_mut(2).t1_ns /= 4.0;
        let moved = circuit_fingerprint(TuningMode::Zne, &scheduled, &jumped, pulse, &cfg);
        assert_ne!(zne.noise_class, moved.noise_class);
    }

    #[test]
    fn tuner_works_on_a_non_machine_substrate() {
        // The tuner is generic over the executor: tuning against the ideal
        // sampler runs end to end (and, with no idle-time noise to
        // mitigate, the guard accepts or reverts without error).
        let p = small_problem();
        let ideal = QuantumBackend::from_executor(vaqem_sim::exec::StateVectorSampler::new(
            3,
            SeedStream::new(23),
        ))
        .with_shots(128);
        let tuner = WindowTuner::new(&p, &ideal, tiny_config());
        let params = vec![0.3; p.num_params()];
        let tuned = tuner.tune_dd(&params).unwrap();
        assert!(tuned.evaluations > 0);
    }
}
