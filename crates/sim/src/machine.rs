//! The noisy "machine": a quantum-trajectory executor.
//!
//! This engine plays the role of the real IBM backend in the paper. Each
//! shot is a Monte-Carlo wave-function trajectory evolved along the
//! scheduled timeline:
//!
//! * **Quasi-static detuning** — every trajectory samples a per-qubit
//!   angular detuning from `N(0, sigma)`. The qubit accumulates phase
//!   `delta * t` during idle time. Because the detuning is constant within a
//!   trajectory, an X (or Y) pulse placed mid-window *refocuses* the phase —
//!   this is exactly the physics that makes Hahn echo (Fig. 4), gate
//!   scheduling (Fig. 6) and DD (Fig. 5) work on hardware, and that a
//!   Markovian calibration model misses (Fig. 9).
//! * **Telegraph noise** — the detuning sign flips at a Poisson rate within
//!   the trajectory, so refocusing degrades over long free-evolution
//!   stretches. Shorter DD periods track the noise better, while each pulse
//!   adds gate error: the resulting trade-off produces the interior optima
//!   of Fig. 5.
//! * **Markovian decoherence** — amplitude damping (T1) and pure dephasing
//!   (from T2) as stochastic jumps (MCWF); depolarizing gate errors as
//!   sampled Pauli insertions; classical readout flips.
//! * **ZZ crosstalk** — always-on `exp(-i zeta t ZZ/2)` between coupled
//!   pairs, which DD also decouples.
//!
//! # Hot-path structure
//!
//! A job replays one schedule for every shot, and the jobs of a batch
//! share one noise description, so everything no random draw touches is
//! resolved before the first shot. Once per batch (`NoiseTables`): each
//! distinct gate's unpacked matrix, and for each distinct segment length
//! every qubit's damping/dephasing probabilities and telegraph no-flip
//! threshold and every coupling's ZZ phase factors. Once per job
//! (`CompiledSchedule`): the timeline's steps, which qubits have started,
//! and each segment's entries copied from the batch's tables. Consecutive
//! jobs of one register width share one trajectory scratch.
//!
//! Every register, whatever its width, runs [`LANES`] consecutive shots in
//! lock-step through one step interpreter over a lane-major state
//! (`sim/lanes.rs`): every gate, phase and damping sweep updates all lanes
//! at once. The state takes `L * 2^n * 16` bytes, 256 KiB for a 10-qubit
//! register at sixteen lanes. The lanes draw from a lane-major generator
//! ([`LaneRng`]): one vector step makes every draw all lanes make, and a
//! one-lane view serves the rest, so each lane still consumes its own
//! `(job, shot)` stream in the original order. The lanes an event selects
//! come from one vector compare as a bit mask, and the rare per-lane
//! events — telegraph flips, MCWF jumps, dephasing flips, gate-error
//! Paulis and the fused product an error splits — run on that lane alone.
//! The quasi-static normals and the detuning phases come from lane calls
//! of `vaqem_mathkit::lanemath`, which compute every lane in vector code.
//!
//! The lane interpreter is compiled three times ([`LaneBuild`]): for
//! AVX-512 and for AVX2 with FMA, both at [`LANES`] lanes, and for the
//! target's default features at eight. The widest build the CPU supports
//! runs every job. All three compute the same bits: every lane does the
//! arithmetic of one trajectory of the per-op reference, and Rust never
//! contracts a multiply and an add into a fused multiply-add.
//!
//! Runs of same-qubit single-qubit gates with no free evolution between
//! them (e.g. virtual-RZ clusters) fuse optimistically into one 2x2 product:
//! per-gate error *draws* still happen at their original positions in the
//! RNG stream, and a firing error flushes that lane's accumulated product
//! before the Pauli lands, so the stream is consumed draw-for-draw exactly
//! as the original per-gate path consumed it. The original path survives in
//! [`crate::naive`] as the parity oracle.

use crate::counts::Counts;
use crate::fusion;
use crate::lanes::{LaneMajor, ZzPhase};
use rand::rngs::LaneRng;
use rand::Rng;
use std::ops::Range;
use std::sync::OnceLock;
use vaqem_circuit::gate::{Angle, Gate};
use vaqem_circuit::schedule::ScheduledCircuit;
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::lanemath;
use vaqem_mathkit::rng::{box_muller_lanes, indexed_seed, SeedStream};
use vaqem_mathkit::smallmat::{M2, M4};
use vaqem_mathkit::Complex64;

/// Default number of shots per execution, matching common IBM submissions.
pub const DEFAULT_SHOTS: u64 = 2048;

/// Shots a register runs abreast on the AVX2 and AVX-512 builds: two
/// AVX-512 vectors of `f64` per amplitude component.
pub const LANES: usize = 16;

/// Shots a register runs abreast on the default build. At two `f64`
/// per vector operation, sixteen lanes ran 6-qubit jobs about 15% slower
/// than eight.
const DEFAULT_BUILD_LANES: usize = 8;

/// Relative guard band under a segment's telegraph no-flip threshold. A
/// draw below `exp(-rate*dt) * (1 - TELEGRAPH_GUARD)` is far enough from the
/// threshold that `-ln(u)/rate >= dt` holds in floating point whatever the
/// rounding of `exp`, `ln` and the division (their errors are a few ulp,
/// i.e. ~1e-16 relative against a 1e-9 margin while `rate*dt < 745`, the
/// only range where the threshold is non-zero).
const TELEGRAPH_GUARD: f64 = 1e-9;

/// A noisy trajectory-based executor standing in for a quantum backend.
#[derive(Debug, Clone)]
pub struct MachineExecutor {
    noise: NoiseParameters,
    seeds: SeedStream,
    shots: u64,
}

/// A build of the lane interpreter. Each is the same code compiled for
/// wider vector units; the widest one the CPU supports
/// ([`LaneBuild::detected`]) runs every job. The AVX builds
/// run [`LANES`] shots abreast, the default build eight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneBuild {
    /// x86-64 with AVX-512 F, VL and DQ: eight `f64` per vector operation.
    Avx512,
    /// x86-64 with AVX2 and FMA: four `f64` per vector operation.
    Avx2,
    /// The target's default features (SSE2 on x86-64): two `f64` per
    /// vector operation. The only build on other architectures.
    Default,
}

impl LaneBuild {
    /// Every build, widest first.
    pub const ALL: [LaneBuild; 3] = [LaneBuild::Avx512, LaneBuild::Avx2, LaneBuild::Default];

    /// The build's name, as benchmark reports print it.
    pub fn name(self) -> &'static str {
        match self {
            LaneBuild::Avx512 => "avx512",
            LaneBuild::Avx2 => "avx2",
            LaneBuild::Default => "default",
        }
    }

    /// Whether this CPU has every feature the build is compiled for.
    pub fn is_supported(self) -> bool {
        match self {
            LaneBuild::Default => true,
            #[cfg(target_arch = "x86_64")]
            LaneBuild::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512dq")
            }
            #[cfg(target_arch = "x86_64")]
            LaneBuild::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            LaneBuild::Avx512 | LaneBuild::Avx2 => false,
        }
    }

    /// The widest build this CPU supports, chosen once per process.
    pub fn detected() -> LaneBuild {
        static DETECTED: OnceLock<LaneBuild> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            LaneBuild::ALL
                .into_iter()
                .find(|build| build.is_supported())
                .unwrap_or(LaneBuild::Default)
        })
    }
}

/// Per-qubit free-evolution parameters for one segment length, resolved
/// once per batch (everything here is noise- and length-determined).
#[derive(Debug, Clone)]
struct FreeQubit {
    q: usize,
    telegraph_rate: f64,
    /// A first telegraph draw below this cannot flip within the segment,
    /// so its `ln` is skipped (see [`TELEGRAPH_GUARD`]); `0.0` when no draw
    /// may skip it.
    no_flip_below: f64,
    /// Amplitude-damping probability scale `1 - exp(-dt/T1)`; `0.0` skips
    /// the damping step (and its RNG draw), matching the original early
    /// return for non-positive gamma.
    gamma: f64,
    /// Precomputed no-jump damping factor `sqrt(1 - gamma)`.
    damp: f64,
    /// Pure-dephasing flip probability; `None` when the dephasing rate is
    /// zero (no RNG draw), `Some(p)` when the rate is positive (one draw,
    /// even if `p` underflows to zero — as the original path drew).
    dephase_p: Option<f64>,
}

impl FreeQubit {
    /// Qubit `q`'s parameters over a segment of length `dt`.
    fn new(q: usize, noise: &NoiseParameters, dt: f64) -> Self {
        let qn = noise.qubit(q);
        let gamma = if qn.t1_ns.is_finite() {
            1.0 - (-dt / qn.t1_ns).exp()
        } else {
            0.0
        };
        let rate = qn.pure_dephasing_rate();
        let dephase_p = if rate > 0.0 {
            Some(0.5 * (1.0 - (-dt * rate).exp()))
        } else {
            None
        };
        let gamma = gamma.max(0.0);
        let telegraph_rate = qn.telegraph_rate_per_ns;
        FreeQubit {
            q,
            telegraph_rate,
            no_flip_below: no_flip_below(telegraph_rate, dt),
            gamma,
            damp: (1.0 - gamma).sqrt(),
            dephase_p,
        }
    }
}

/// One resolved free-evolution stretch of the timeline.
#[derive(Debug, Clone)]
struct FreeSegment {
    dt: f64,
    /// Index of `dt` among the batch's distinct segment lengths: a lane's
    /// phase angle repeats across segments of one length until its
    /// telegraph sign flips, so phases are memoized per length.
    length: usize,
    /// Started qubits in ascending order (the original iteration order), as
    /// a range of [`CompiledSchedule::free_qubits`].
    qubits: Range<usize>,
    /// Started coupled pairs' phase factors for `zeta * dt`, in pair order,
    /// as a range of [`CompiledSchedule::free_zz`].
    zz: Range<usize>,
}

/// One step of the compiled per-job program. A gate refers to its matrix
/// by index into [`NoiseTables::m2`] or [`NoiseTables::m4`].
#[derive(Debug, Clone)]
enum Step {
    Free(FreeSegment),
    Gate1 {
        q: usize,
        u: usize,
        err_p: f64,
    },
    Gate2 {
        q_hi: usize,
        q_lo: usize,
        u: usize,
        err_p: f64,
    },
}

/// A job's schedule compiled against a batch's [`NoiseTables`]: its steps
/// and its segments' entries, shared by every shot of the job.
#[derive(Debug, Clone)]
struct CompiledSchedule {
    num_qubits: usize,
    steps: Vec<Step>,
    /// Every free segment's qubit parameters, segment after segment.
    free_qubits: Vec<FreeQubit>,
    /// Every free segment's ZZ phase factors, segment after segment.
    free_zz: Vec<ZzPhase>,
}

/// Everything a batch's jobs share under one noise description, over the
/// qubits of its widest register: each distinct gate's matrix and each
/// distinct segment length's per-qubit and ZZ entries, resolved on first
/// use, and the per-qubit detuning sigmas and readout flips.
#[derive(Debug)]
struct NoiseTables<'a> {
    noise: &'a NoiseParameters,
    num_qubits: usize,
    /// Coupled pairs within the register, in pair order.
    zz: Vec<((usize, usize), f64)>,
    /// Each distinct single-qubit gate and its matrix, in order of first
    /// use.
    m2: Vec<(Gate, M2)>,
    /// Each distinct two-qubit gate and its matrix, in order of first use.
    m4: Vec<(Gate, M4)>,
    /// Bits of each distinct segment length, in order of first use.
    length_bits: Vec<u64>,
    /// Length `i`'s qubit entries are `i * num_qubits..`.
    length_qubits: Vec<FreeQubit>,
    /// Length `i`'s ZZ entries are `i * zz.len()..`.
    length_zz: Vec<ZzPhase>,
    /// Per-qubit quasi-static detuning sigma.
    sigma: Vec<f64>,
    /// Per-qubit readout flip probabilities `(p01, p10)`.
    readout: Vec<(f64, f64)>,
}

/// Gates that share a matrix. `Gate`'s `==` equates angles `0.0` and
/// `-0.0`, whose matrices differ in the sign of a zero, so angles compare
/// by their bits.
fn same_matrix(a: &Gate, b: &Gate) -> bool {
    let angle_bits = |g: &Gate| match *g {
        Gate::Rx(Angle::Fixed(t))
        | Gate::Ry(Angle::Fixed(t))
        | Gate::Rz(Angle::Fixed(t))
        | Gate::P(Angle::Fixed(t)) => Some(t.to_bits()),
        _ => None,
    };
    a == b && angle_bits(a) == angle_bits(b)
}

/// The index of `gate`'s matrix in `matrices`, fetching the matrix on the
/// gate's first use.
fn matrix_index<M>(matrices: &mut Vec<(Gate, M)>, gate: &Gate, fetch: fn(&Gate) -> M) -> usize {
    match matrices.iter().position(|(g, _)| same_matrix(g, gate)) {
        Some(i) => i,
        None => {
            matrices.push((*gate, fetch(gate)));
            matrices.len() - 1
        }
    }
}

impl<'a> NoiseTables<'a> {
    /// Empty tables for registers of up to `num_qubits` qubits.
    fn new(noise: &'a NoiseParameters, num_qubits: usize) -> Self {
        let n = num_qubits;
        NoiseTables {
            noise,
            num_qubits,
            zz: noise
                .zz_couplings()
                .filter(|((a, b), _)| *a < n && *b < n)
                .collect(),
            m2: Vec::new(),
            m4: Vec::new(),
            length_bits: Vec::new(),
            length_qubits: Vec::new(),
            length_zz: Vec::new(),
            sigma: (0..n)
                .map(|q| noise.qubit(q).quasi_static_sigma_rad_ns)
                .collect(),
            readout: (0..n)
                .map(|q| {
                    let qn = noise.qubit(q);
                    (qn.readout_p01, qn.readout_p10)
                })
                .collect(),
        }
    }

    /// Distinct segment lengths resolved so far.
    fn lengths(&self) -> usize {
        self.length_bits.len()
    }

    /// The index of segment length `dt`, resolving its entries on first
    /// use.
    fn length_index(&mut self, dt: f64) -> usize {
        if let Some(i) = self
            .length_bits
            .iter()
            .position(|&bits| bits == dt.to_bits())
        {
            return i;
        }
        let noise = self.noise;
        self.length_bits.push(dt.to_bits());
        self.length_qubits
            .extend((0..self.num_qubits).map(|q| FreeQubit::new(q, noise, dt)));
        self.length_zz.extend(
            self.zz
                .iter()
                .map(|&((a, b), zeta)| ZzPhase::new(a, b, zeta * dt)),
        );
        self.length_bits.len() - 1
    }

    /// Appends a free segment of length `dt` over the started qubits and
    /// pairs (`started` covers the tables' register).
    fn push_segment(&mut self, dt: f64, started: &[bool], compiled: &mut CompiledSchedule) {
        let length = self.length_index(dt);
        let (n, pairs) = (self.num_qubits, self.zz.len());
        let qubits = compiled.free_qubits.len();
        compiled.free_qubits.extend(
            self.length_qubits[length * n..][..n]
                .iter()
                .filter(|fq| started[fq.q])
                .cloned(),
        );
        let first_pair = compiled.free_zz.len();
        compiled.free_zz.extend(
            self.zz
                .iter()
                .zip(&self.length_zz[length * pairs..][..pairs])
                .filter(|(((a, b), _), _)| started[*a] && started[*b])
                .map(|(_, phase)| *phase),
        );
        compiled.steps.push(Step::Free(FreeSegment {
            dt,
            length,
            qubits: qubits..compiled.free_qubits.len(),
            zz: first_pair..compiled.free_zz.len(),
        }));
    }

    /// Resolves `scheduled` against the tables, replicating the original
    /// timeline walk: `now` tracks the previous op's start time and only
    /// advances when a gap above 1 ps opens, gaps therefore accumulate
    /// across sub-picosecond spacings exactly as before, and `started`
    /// flips after every non-barrier op (including measure/delay/id).
    fn compile(&mut self, scheduled: &ScheduledCircuit) -> CompiledSchedule {
        let n = scheduled.num_qubits();
        assert!(n <= self.num_qubits, "the tables cover the register");
        let mut compiled = CompiledSchedule {
            num_qubits: n,
            steps: Vec::with_capacity(2 * scheduled.ops().len() + 1),
            free_qubits: Vec::new(),
            free_zz: Vec::new(),
        };
        let mut now = 0.0f64;
        // Over the tables' register, so that qubits past this one's never
        // start.
        let mut started = vec![false; self.num_qubits];
        for op in scheduled.ops() {
            if matches!(op.gate, Gate::Barrier) {
                continue;
            }
            let dt = op.start_ns - now;
            if dt > 1e-9 {
                self.push_segment(dt, &started, &mut compiled);
                now = op.start_ns;
            }
            match op.gate {
                Gate::Measure | Gate::Delay { .. } | Gate::I => {}
                ref g => match op.qubits.len() {
                    1 => compiled.steps.push(Step::Gate1 {
                        q: op.qubits[0],
                        u: matrix_index(&mut self.m2, g, |g| {
                            fusion::gate_m2(g).expect("scheduled circuits are concrete")
                        }),
                        err_p: self.noise.qubit(op.qubits[0]).gate_error_1q,
                    }),
                    2 => compiled.steps.push(Step::Gate2 {
                        q_hi: op.qubits[0],
                        q_lo: op.qubits[1],
                        u: matrix_index(&mut self.m4, g, |g| {
                            fusion::gate_m4(g).expect("scheduled circuits are concrete")
                        }),
                        err_p: self.noise.cx_error(op.qubits[0], op.qubits[1]),
                    }),
                    k => panic!("unsupported arity {k}"),
                },
            }
            for &q in &op.qubits {
                started[q] = true;
            }
        }
        let tail = scheduled.total_ns() - now;
        if tail > 1e-9 {
            self.push_segment(tail, &started, &mut compiled);
        }
        compiled
    }
}

/// The Pauli a gate error drew (`1` X, `2` Y, `3` Z).
fn pauli(which: u8) -> &'static M2 {
    static PAULIS: OnceLock<[M2; 3]> = OnceLock::new();
    let paulis = PAULIS.get_or_init(|| {
        [Gate::X, Gate::Y, Gate::Z].map(|g| fusion::gate_m2(&g).expect("paulis are concrete"))
    });
    &paulis[usize::from(which) - 1]
}

/// One qubit's pending fused run of single-qubit gates. Lanes share one
/// product until a gate error splits a lane off: that lane has applied the
/// run up to its Pauli and fuses the rest of the run on its own.
#[derive(Debug, Clone, Copy)]
struct PendingRun<const L: usize> {
    /// The run's product, for every lane that has not split off.
    shared: Option<M2>,
    /// Lanes split off the run (bit `l` for lane `l`).
    split: u32,
    /// A split lane's product since its error.
    own: [Option<M2>; L],
}

impl<const L: usize> PendingRun<L> {
    const EMPTY: Self = PendingRun {
        shared: None,
        split: 0,
        own: [None; L],
    };

    /// Appends gate `u` to the run of every lane.
    #[inline(always)]
    fn push(&mut self, u: &M2) {
        let fuse = |prev: Option<M2>| match prev {
            Some(prev) => u.mul(&prev),
            None => *u,
        };
        self.shared = Some(fuse(self.shared));
        for l in lanes(self.split) {
            self.own[l] = Some(fuse(self.own[l]));
        }
    }

    /// Takes lane `l`'s pending product, splitting the lane off the run.
    #[inline(always)]
    fn take_lane(&mut self, l: usize) -> Option<M2> {
        if self.split & (1 << l) != 0 {
            self.own[l].take()
        } else {
            self.split |= 1 << l;
            self.shared
        }
    }
}

/// The lanes set in `mask` (bit `l` for lane `l`), lowest first.
#[inline(always)]
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// The lanes where `hit` holds, as a mask. Written over every lane, so the
/// tests compile to vector compares.
#[inline(always)]
fn lane_mask<const L: usize>(hit: impl Fn(usize) -> bool) -> u32 {
    (0..L).fold(0, |mask, l| mask | u32::from(hit(l)) << l)
}

/// Each lane's last detuning phase for one segment length and qubit, and
/// the bits of the angle it was computed from. The phase is a pure
/// function of the angle ([`detuning_phases`]), so an entry stays valid for
/// any later shot, or job of the batch, whose angle matches; entries start
/// as the phase of angle `0.0`.
#[derive(Debug, Clone, Copy)]
struct PhaseMemo<const L: usize> {
    angle_bits: [u64; L],
    phase: [Complex64; L],
}

/// Buffers reused across every shot of a batch's jobs of one register
/// width: the lanes' states, their quasi-static environments, the phase
/// memo, and the per-qubit pending fused runs (each group ends with every
/// run flushed, so the next starts with none).
#[derive(Debug)]
struct TrajectoryScratch<const L: usize> {
    state: LaneMajor<L>,
    /// Per qubit, each lane's detuning.
    detuning: Vec<[f64; L]>,
    /// Per qubit, each lane's telegraph sign.
    telegraph_sign: Vec<[f64; L]>,
    /// Per segment length and qubit, the lanes' detuning phases.
    phases: Vec<PhaseMemo<L>>,
    pending: Vec<PendingRun<L>>,
}

impl<const L: usize> TrajectoryScratch<L> {
    /// Scratch for registers of `num_qubits` qubits whose segments take
    /// `lengths` distinct lengths.
    fn new(num_qubits: usize, lengths: usize) -> Self {
        assert!(L <= 32, "a pending run tracks lanes in a u32 mask");
        TrajectoryScratch {
            state: LaneMajor::zero_state(num_qubits),
            detuning: vec![[0.0; L]; num_qubits],
            telegraph_sign: vec![[1.0; L]; num_qubits],
            phases: vec![
                PhaseMemo {
                    angle_bits: [0.0f64.to_bits(); L],
                    phase: [detuning_phases([0.0])[0]; L],
                };
                lengths * num_qubits
            ],
            pending: vec![PendingRun::EMPTY; num_qubits],
        }
    }

    fn num_qubits(&self) -> usize {
        self.detuning.len()
    }

    /// Applies and clears the pending fused run on `q`: one sweep over all
    /// lanes while none has split off, lane by lane once one has.
    #[inline(always)]
    fn flush(&mut self, q: usize, active: usize) {
        let run = &mut self.pending[q];
        if run.split == 0 {
            if let Some(u) = run.shared.take() {
                self.state.apply_m2(&u, q);
            }
            return;
        }
        for l in 0..active {
            if let Some(u) = run.take_lane(l) {
                self.state.apply_m2_lane(&u, q, l);
            }
        }
        *run = PendingRun::EMPTY;
    }

    #[inline(always)]
    fn flush_all(&mut self, active: usize) {
        for q in 0..self.pending.len() {
            self.flush(q, active);
        }
    }
}

impl MachineExecutor {
    /// Creates an executor with [`DEFAULT_SHOTS`] shots.
    pub fn new(noise: NoiseParameters, seeds: SeedStream) -> Self {
        MachineExecutor {
            noise,
            seeds,
            shots: DEFAULT_SHOTS,
        }
    }

    /// Overrides the shot count.
    pub fn with_shots(mut self, shots: u64) -> Self {
        assert!(shots > 0, "shot count must be positive");
        self.shots = shots;
        self
    }

    /// Shots per [`Self::run`].
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Noise parameters in use.
    pub fn noise(&self) -> &NoiseParameters {
        &self.noise
    }

    /// Replaces the noise parameters (e.g. after drift).
    pub fn set_noise(&mut self, noise: NoiseParameters) {
        self.noise = noise;
    }

    /// Executes a scheduled circuit, returning a histogram over all qubits.
    ///
    /// Deterministic: the same executor (seed stream) and circuit produce
    /// identical counts. Different `job_index` values decorrelate repeated
    /// runs of the same circuit (used by the drift experiment).
    pub fn run(&self, scheduled: &ScheduledCircuit) -> Counts {
        self.run_job(scheduled, 0)
    }

    /// Executes with an explicit job index for stream decorrelation.
    ///
    /// # Panics
    ///
    /// Panics if `scheduled` references qubits beyond the noise description.
    pub fn run_job(&self, scheduled: &ScheduledCircuit, job_index: u64) -> Counts {
        self.run_job_with_shots(scheduled, self.shots, job_index)
    }

    /// Executes with explicit shot count and job index.
    ///
    /// The per-shot noise streams depend only on the seed stream, the job
    /// index, and the shot index — never on the configured default shot
    /// count — so a batched caller supplying shots explicitly reproduces
    /// the sequential path bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `scheduled` references qubits beyond the noise description.
    pub fn run_job_with_shots(
        &self,
        scheduled: &ScheduledCircuit,
        shots: u64,
        job_index: u64,
    ) -> Counts {
        self.run_job_shot_range(scheduled, job_index, 0..shots)
    }

    /// Executes a contiguous range of a job's shots.
    ///
    /// Shot `s` draws from an RNG seeded only by `(seeds, job_index, s)`,
    /// so splitting `0..shots` into disjoint ranges — across calls, threads
    /// or processes — and merging the histograms reproduces
    /// [`Self::run_job_with_shots`] bit for bit. The core executor's batch
    /// dispatch uses this to spread a single large job over the pool.
    ///
    /// # Panics
    ///
    /// Panics if `scheduled` references qubits beyond the noise description.
    pub fn run_job_shot_range(
        &self,
        scheduled: &ScheduledCircuit,
        job_index: u64,
        shot_range: Range<u64>,
    ) -> Counts {
        self.run_job_shot_range_on(LaneBuild::detected(), scheduled, job_index, shot_range)
    }

    /// [`Self::run_job_shot_range`] on a given build of the lane
    /// interpreter: the one-job case of [`Self::run_jobs_on`].
    ///
    /// # Panics
    ///
    /// Panics if the CPU cannot run `build`, or if `scheduled` references
    /// qubits beyond the noise description.
    #[doc(hidden)]
    pub fn run_job_shot_range_on(
        &self,
        build: LaneBuild,
        scheduled: &ScheduledCircuit,
        job_index: u64,
        shot_range: Range<u64>,
    ) -> Counts {
        let mut counts = self.run_jobs_on(build, &[(scheduled, job_index, shot_range)]);
        counts.pop().expect("one job, one histogram")
    }

    /// Executes a batch of jobs, each a `(schedule, job_index, shot_range)`
    /// as [`Self::run_job_shot_range`] takes them, and returns their counts
    /// in order. Each job's counts equal its own call's bit for bit; the
    /// batch resolves each distinct gate matrix and segment length once
    /// for all its jobs, and runs them through one trajectory scratch.
    ///
    /// # Panics
    ///
    /// Panics if a schedule references qubits beyond the noise description.
    pub fn run_jobs(&self, jobs: &[(&ScheduledCircuit, u64, Range<u64>)]) -> Vec<Counts> {
        self.run_jobs_on(LaneBuild::detected(), jobs)
    }

    /// [`Self::run_jobs`] on a given build of the lane interpreter, so that
    /// tests and benchmarks can run every build the CPU supports. Counts do
    /// not depend on the build.
    ///
    /// # Panics
    ///
    /// Panics if the CPU cannot run `build`, or if a schedule references
    /// qubits beyond the noise description.
    #[doc(hidden)]
    pub fn run_jobs_on(
        &self,
        build: LaneBuild,
        jobs: &[(&ScheduledCircuit, u64, Range<u64>)],
    ) -> Vec<Counts> {
        assert!(
            build.is_supported(),
            "this CPU cannot run the {} lane build",
            build.name()
        );
        let width = jobs.iter().map(|(s, ..)| s.num_qubits()).max().unwrap_or(0);
        assert!(
            self.noise.num_qubits() >= width,
            "noise parameters must cover the register"
        );
        let mut tables = NoiseTables::new(&self.noise, width);
        let seed_base = self.seeds.child_seed("machine-trajectory");
        let mut batch: Vec<BatchJob> = jobs
            .iter()
            .map(|(scheduled, job_index, shot_range)| BatchJob {
                compiled: tables.compile(scheduled),
                streams: ShotStreams {
                    seed_base,
                    job_index: *job_index,
                },
                shot_range: shot_range.clone(),
                hist: vec![0; 1 << scheduled.num_qubits()],
            })
            .collect();
        run_lanes(build, &tables, &mut batch);
        batch
            .into_iter()
            .map(|job| Counts::from_index_histogram(job.compiled.num_qubits, job.hist))
            .collect()
    }
}

/// Where a job's per-shot RNG streams come from.
#[derive(Debug, Clone, Copy)]
struct ShotStreams {
    seed_base: u64,
    job_index: u64,
}

impl ShotStreams {
    /// The seed of shot `shot`'s stream.
    #[inline(always)]
    fn seed(&self, shot: u64) -> u64 {
        indexed_seed(
            self.seed_base,
            self.job_index.wrapping_mul(1_000_003) ^ shot,
        )
    }
}

/// One job of a batch: its compiled schedule, streams, shots and the
/// histogram its outcomes count into.
#[derive(Debug)]
struct BatchJob {
    compiled: CompiledSchedule,
    streams: ShotStreams,
    shot_range: Range<u64>,
    hist: Vec<u64>,
}

/// The first `active` lanes, as a mask.
#[inline(always)]
fn live_lanes(active: usize) -> u32 {
    u32::MAX >> (32 - active)
}

/// Runs a batch's jobs on `build`'s lane interpreter (the caller has
/// checked that the CPU supports it).
fn run_lanes(build: LaneBuild, tables: &NoiseTables, batch: &mut [BatchJob]) {
    match build {
        #[cfg(target_arch = "x86_64")]
        LaneBuild::Avx512 => {
            // SAFETY: `run_jobs_on` asserted that this CPU has every
            // feature the build enables.
            unsafe { run_lanes_avx512(tables, batch) }
        }
        #[cfg(target_arch = "x86_64")]
        LaneBuild::Avx2 => {
            // SAFETY: `run_jobs_on` asserted that this CPU has every
            // feature the build enables.
            unsafe { run_lanes_avx2(tables, batch) }
        }
        _ => run_batch::<DEFAULT_BUILD_LANES>(tables, batch),
    }
}

/// The lane interpreter compiled for AVX-512. Everything [`run_batch`]
/// calls per group is inlined into it, so it all compiles for AVX-512.
/// Calling it takes `unsafe`: the CPU must have the features it enables.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512dq")]
fn run_lanes_avx512(tables: &NoiseTables, batch: &mut [BatchJob]) {
    run_batch::<LANES>(tables, batch);
}

/// The lane interpreter compiled for AVX2 with FMA (see
/// [`run_lanes_avx512`]). Rust never contracts `a * b + c`, so FMA
/// changes no result.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn run_lanes_avx2(tables: &NoiseTables, batch: &mut [BatchJob]) {
    run_batch::<LANES>(tables, batch);
}

/// Runs the batch's jobs `L` shots abreast through one scratch, made anew
/// only when the register width changes.
#[inline(always)]
fn run_batch<const L: usize>(tables: &NoiseTables, batch: &mut [BatchJob]) {
    let mut scratch: Option<TrajectoryScratch<L>> = None;
    for job in batch.iter_mut() {
        let n = job.compiled.num_qubits;
        let scratch = match &mut scratch {
            Some(scratch) if scratch.num_qubits() == n => scratch,
            slot => slot.insert(TrajectoryScratch::new(n, tables.lengths())),
        };
        run_shots(tables, job, scratch);
    }
}

/// Runs a job's shot range in groups of `L` consecutive shots, lane `l` of
/// a group being its `l`-th shot, and counts each outcome into its
/// histogram. The last group may leave lanes idle: all-lane draws step
/// their streams, but no decision reads them and their outcomes are not
/// counted.
#[inline(always)]
fn run_shots<const L: usize>(
    tables: &NoiseTables,
    job: &mut BatchJob,
    scratch: &mut TrajectoryScratch<L>,
) {
    let Range { mut start, end } = job.shot_range;
    while start < end {
        let active = (end - start).min(L as u64) as usize;
        let mut rngs =
            LaneRng::seed_from_u64s(std::array::from_fn(|l| job.streams.seed(start + l as u64)));
        let outcomes = run_group(tables, &job.compiled, scratch, &mut rngs, active);
        for &index in &outcomes[..active] {
            job.hist[index] += 1;
        }
        start += active as u64;
    }
}

/// Runs the first `active` lanes' trajectories through a compiled schedule
/// in lock-step and returns each lane's measured basis index (with readout
/// error applied). Lane `l` consumes its column of `rngs` in exactly the
/// order of the original per-op path.
#[inline(always)]
fn run_group<const L: usize>(
    tables: &NoiseTables,
    compiled: &CompiledSchedule,
    scratch: &mut TrajectoryScratch<L>,
    rngs: &mut LaneRng<L>,
    active: usize,
) -> [usize; L] {
    let n = compiled.num_qubits;
    let live = live_lanes(active);
    scratch.state.reset_zero();

    // Per-trajectory quasi-static environment: each lane draws a normal
    // and a sign per qubit, in qubit order. Idle lanes' normals decide
    // nothing (every use is masked by `live`).
    for q in 0..n {
        let u1 = rngs.gen_range_f64s(f64::MIN_POSITIVE..1.0);
        let u2 = rngs.gen_f64s();
        let negative = rngs.gen_bools();
        let sigma = tables.sigma[q];
        scratch.detuning[q] = box_muller_lanes(u1, u2).map(|normal| sigma * normal);
        scratch.telegraph_sign[q] = negative.map(|negative| if negative { -1.0 } else { 1.0 });
    }

    for step in &compiled.steps {
        match step {
            Step::Free(seg) => {
                // Free evolution does not commute with pending products.
                scratch.flush_all(active);
                free_evolution(compiled, seg, scratch, rngs, live);
            }
            Step::Gate1 { q, u, err_p } => {
                let q = *q;
                scratch.pending[q].push(&tables.m2[*u].1);
                if *err_p > 0.0 {
                    let draws = rngs.gen_f64s();
                    for l in lanes(lane_mask::<L>(|l| draws[l] < *err_p) & live) {
                        // The Pauli lands after this gate: flush the lane's
                        // fused run up to and including it, then apply the
                        // error.
                        if let Some(run) = scratch.pending[q].take_lane(l) {
                            scratch.state.apply_m2_lane(&run, q, l);
                        }
                        let pauli = pauli(rngs.lane(l).gen_range(1..4u8));
                        scratch.state.apply_m2_lane(pauli, q, l);
                    }
                }
            }
            Step::Gate2 {
                q_hi,
                q_lo,
                u,
                err_p,
            } => {
                scratch.flush(*q_hi, active);
                scratch.flush(*q_lo, active);
                scratch.state.apply_m4(&tables.m4[*u].1, *q_hi, *q_lo);
                if *err_p > 0.0 {
                    let draws = rngs.gen_f64s();
                    for l in lanes(lane_mask::<L>(|l| draws[l] < *err_p) & live) {
                        // Uniform non-identity two-qubit Pauli.
                        let mut rng = rngs.lane(l);
                        loop {
                            let (a, b) = (rng.gen_range(0..4u8), rng.gen_range(0..4u8));
                            if a == 0 && b == 0 {
                                continue;
                            }
                            if a != 0 {
                                scratch.state.apply_m2_lane(pauli(a), *q_hi, l);
                            }
                            if b != 0 {
                                scratch.state.apply_m2_lane(pauli(b), *q_lo, l);
                            }
                            break;
                        }
                    }
                }
            }
        }
    }
    scratch.flush_all(active);

    // Sample the outcomes and apply readout flips.
    let mut outcomes = [0usize; L];
    for (l, index) in outcomes[..active].iter_mut().enumerate() {
        *index = scratch.state.sample_lane(&mut rngs.lane(l), l);
    }
    for (q, &(p01, p10)) in tables.readout[..n].iter().enumerate() {
        let bit = 1usize << q;
        let draws = rngs.gen_f64s();
        for (index, draw) in outcomes.iter_mut().zip(draws) {
            let flip_p = if *index & bit != 0 { p10 } else { p01 };
            if draw < flip_p {
                *index ^= bit;
            }
        }
    }
    outcomes
}

/// Applies one precompiled free-evolution segment to the lanes in `live`:
/// quasi-static phase with telegraph switching, T1/T2 stochastic jumps, and
/// ZZ coupling.
///
/// The detuning phase and the excited-population measurement the damping
/// draw needs fuse into one half sweep, and both MCWF branches fold their
/// renormalization into the update itself using the analytic norm of the
/// post-operator state (`1 - gamma*p1` for no-jump, `p1` for jump, both
/// exact for a unit-norm input). Relative to the original
/// phase/measure/damp/normalize sequence this halves the memory traffic
/// per qubit-segment; amplitudes agree with the reference to ~1e-15 per
/// segment (the analytic norm differs from a re-measured one only by the
/// accumulated unit-norm float drift), and every RNG draw happens at the
/// same stream position with a probability computed from the same sweep
/// arithmetic.
///
/// A lane without detuning takes the phase `1`, which leaves every non-zero
/// amplitude component unchanged bit for bit (only the sign of a zero can
/// differ, and no count depends on it); in practice the detuning is zero
/// exactly when the qubit's sigma is, so no lane takes a phase at all.
#[inline(always)]
fn free_evolution<const L: usize>(
    compiled: &CompiledSchedule,
    seg: &FreeSegment,
    scratch: &mut TrajectoryScratch<L>,
    rngs: &mut LaneRng<L>,
    live: u32,
) {
    let n = scratch.detuning.len();
    let state = &mut scratch.state;
    for fq in &compiled.free_qubits[seg.qubits.clone()] {
        let q = fq.q;
        let bit = 1usize << q;

        // Quasi-static phase with telegraph switching. Each lane's signed
        // time is `sign * dt` unless its first telegraph draw lands above
        // the no-flip threshold.
        let detuning = &scratch.detuning[q];
        let signs = &mut scratch.telegraph_sign[q];
        let phased = lane_mask::<L>(|l| detuning[l] != 0.0) & live;
        let mut phase = [Complex64::ONE; L];
        if phased != 0 {
            let mut time: [f64; L] = std::array::from_fn(|l| signs[l] * seg.dt);
            if fq.telegraph_rate > 0.0 {
                // Only a lane with detuning draws. Idle lanes' draws decide
                // nothing, so when every active lane draws, one step makes
                // all the draws.
                let first = if phased == live {
                    rngs.gen_range_f64s(f64::MIN_POSITIVE..1.0)
                } else {
                    let mut first = [0.0; L];
                    for l in lanes(phased) {
                        first[l] = rngs.lane(l).gen_range(f64::MIN_POSITIVE..1.0);
                    }
                    first
                };
                for l in lanes(lane_mask::<L>(|l| first[l] >= fq.no_flip_below) & phased) {
                    let rng = &mut rngs.lane(l);
                    time[l] = telegraph_time(fq, seg.dt, &mut signs[l], first[l], rng);
                }
            }
            let memo = &mut scratch.phases[seg.length * n + q];
            let angle: [f64; L] = std::array::from_fn(|l| detuning[l] * time[l]);
            let missed = lane_mask::<L>(|l| angle[l].to_bits() != memo.angle_bits[l]) & phased;
            if missed != 0 {
                // One lane call computes every lane's phase; only the
                // missed lanes store theirs.
                let computed = detuning_phases(angle);
                for l in lanes(missed) {
                    memo.angle_bits[l] = angle[l].to_bits();
                    memo.phase[l] = computed[l];
                }
            }
            for l in lanes(phased) {
                phase[l] = memo.phase[l];
            }
        }
        let any_phase = phased != 0;

        // Amplitude damping as an MCWF jump/no-jump step, with the phase
        // (when present) applied by the same sweep that measures P(|1>).
        if fq.gamma > 0.0 {
            let p1 = if any_phase {
                state.phase_and_population(bit, &phase)
            } else {
                state.population(bit)
            };
            // No-jump scales for every lane; a lane that jumps keeps 1.
            let mut scale0 = [0.0; L];
            let mut scale1 = [0.0; L];
            for l in 0..L {
                let inv = 1.0 / (1.0 - fq.gamma * p1[l]).sqrt();
                scale0[l] = inv;
                scale1[l] = fq.damp * inv;
            }
            let draws = rngs.gen_f64s();
            let jumps = lane_mask::<L>(|l| draws[l] < fq.gamma * p1[l]) & live;
            for l in lanes(jumps) {
                // Jump: |...1...> -> |...0...>; post-jump norm^2 is p1.
                let inv = if p1[l] > 1e-300 {
                    1.0 / p1[l].sqrt()
                } else {
                    1.0
                };
                state.mcwf_jump_lane(bit, inv, l);
                scale0[l] = 1.0;
                scale1[l] = 1.0;
            }
            if jumps != live {
                state.mcwf_no_jump(bit, &scale0, &scale1);
            }
        } else if any_phase {
            state.phase_if_one(bit, &phase);
        }

        // Pure dephasing as a stochastic Z flip.
        if let Some(p) = fq.dephase_p {
            let draws = rngs.gen_f64s();
            for l in lanes(lane_mask::<L>(|l| draws[l] < p) & live) {
                state.phase_if_one_lane(bit, Complex64::cis(std::f64::consts::PI), l);
            }
        }
    }
    // Always-on ZZ between started pairs.
    if !seg.zz.is_empty() {
        state.apply_zz(&compiled.free_zz[seg.zz.clone()]);
    }
}

/// Each lane's detuning phase `e^{i*angle}`, from
/// [`lanemath::sin_cos_lanes`]; the naive reference computes its phases
/// with the same function.
#[inline(always)]
fn detuning_phases<const L: usize>(angle: [f64; L]) -> [Complex64; L] {
    let (sin, cos) = lanemath::sin_cos_lanes(angle);
    std::array::from_fn(|l| Complex64::new(cos[l], sin[l]))
}

/// The telegraph no-flip threshold of a segment (see [`TELEGRAPH_GUARD`]):
/// a first draw `u` below it has `-ln(u)/rate >= dt`.
fn no_flip_below(rate: f64, dt: f64) -> f64 {
    if rate > 0.0 {
        (-rate * dt).exp() * (1.0 - TELEGRAPH_GUARD)
    } else {
        0.0
    }
}

/// Integrates one lane's telegraph-signed time over a segment of length
/// `dt` from a first draw `u` at or above the segment's no-flip threshold,
/// flipping `sign` at Poisson times and drawing again from `rng` after each
/// flip: the original draw loop. A first draw under the threshold would
/// exit it at once with `sign * dt`, so callers skip its `ln`.
fn telegraph_time(fq: &FreeQubit, dt: f64, sign: &mut f64, mut u: f64, rng: &mut impl Rng) -> f64 {
    let mut remaining = dt;
    let mut signed_time = 0.0;
    loop {
        let next_flip = -u.ln() / fq.telegraph_rate;
        if next_flip >= remaining {
            return signed_time + *sign * remaining;
        }
        signed_time += *sign * next_flip;
        *sign = -*sign;
        remaining -= next_flip;
        u = rng.gen_range(f64::MIN_POSITIVE..1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vaqem_circuit::circuit::QuantumCircuit;
    use vaqem_circuit::schedule::{schedule, DurationModel, ScheduleKind};
    use vaqem_device::noise::QubitNoise;

    fn sched(qc: &QuantumCircuit) -> ScheduledCircuit {
        schedule(qc, &DurationModel::ibm_default(), ScheduleKind::Asap).unwrap()
    }

    fn dephasing_only(sigma: f64, telegraph: f64) -> NoiseParameters {
        NoiseParameters::from_qubits(vec![QubitNoise {
            t1_ns: f64::INFINITY,
            t2_ns: f64::INFINITY,
            quasi_static_sigma_rad_ns: sigma,
            telegraph_rate_per_ns: telegraph,
            readout_p01: 0.0,
            readout_p10: 0.0,
            gate_error_1q: 0.0,
        }])
    }

    #[test]
    fn noiseless_machine_matches_ideal() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.measure_all();
        let exec = MachineExecutor::new(NoiseParameters::noiseless(2), SeedStream::new(1))
            .with_shots(4000);
        let counts = exec.run(&sched(&qc));
        assert_eq!(counts.total(), 4000);
        let p00 = counts.probability("00");
        let p11 = counts.probability("11");
        assert!((p00 - 0.5).abs() < 0.05, "p00 {p00}");
        assert!((p11 - 0.5).abs() < 0.05, "p11 {p11}");
        assert_eq!(counts.get("01") + counts.get("10"), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        // Two qubits / four outcomes: enough histogram resolution that two
        // decorrelated jobs colliding on every bin is vanishingly unlikely.
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.h(1).unwrap();
        qc.measure_all();
        let exec =
            MachineExecutor::new(NoiseParameters::uniform(2), SeedStream::new(5)).with_shots(256);
        let a = exec.run(&sched(&qc));
        let b = exec.run(&sched(&qc));
        assert_eq!(a, b);
        let c = exec.run_job(&sched(&qc), 1);
        assert_ne!(a, c, "different job indices should decorrelate");
    }

    #[test]
    fn compiled_trajectories_match_naive_reference() {
        // Full noise model on a multi-qubit circuit: the compiled executor
        // must consume the RNG stream exactly as the original per-op path
        // did, so counts agree shot for shot, on every build of the lane
        // interpreter this CPU runs.
        let mut noise = NoiseParameters::uniform(3);
        noise.set_zz(0, 1, 1.0e-4);
        noise.set_zz(1, 2, 8.0e-5);
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).unwrap();
        qc.rz(0.4, 0).unwrap();
        qc.sx(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.ry(0.8, 2).unwrap();
        qc.delay(5_000.0, 1).unwrap();
        qc.cx(1, 2).unwrap();
        qc.x(2).unwrap();
        qc.measure_all();
        let s = sched(&qc);
        let seeds = SeedStream::new(77);
        let exec = MachineExecutor::new(noise.clone(), seeds);
        let slow = naive::machine_run_job_with_shots(&noise, &seeds, &s, 2048, 3);
        for build in LaneBuild::ALL.into_iter().filter(|b| b.is_supported()) {
            let fast = exec.run_job_shot_range_on(build, &s, 3, 0..2048);
            assert_eq!(fast, slow, "{} build", build.name());
        }
    }

    /// A window on qubit 0 refocused by `reps` X pairs evenly spaced, as
    /// DD places them, so each repetition count has its own segment
    /// lengths.
    fn dd_job(n: usize, reps: usize, extra: Option<Gate>) -> ScheduledCircuit {
        let window = 4_000.0;
        let mut qc = QuantumCircuit::new(n);
        qc.h(0).unwrap();
        for q in 1..n {
            qc.cx(q - 1, q).unwrap();
        }
        let gap = window / (2 * reps + 1) as f64;
        qc.delay(gap, 0).unwrap();
        for _ in 0..2 * reps {
            qc.x(0).unwrap();
            qc.delay(gap, 0).unwrap();
        }
        if let Some(gate) = extra {
            qc.push(gate, &[n - 1]).unwrap();
        }
        qc.measure_all();
        sched(&qc)
    }

    #[test]
    fn batch_counts_equal_one_job_calls_on_every_build() {
        // DD repetitions 0-4 give the jobs different segment lengths, the
        // last 3-qubit job brings a gate no earlier job uses, the widths
        // change mid-batch (each change makes a new scratch, and the batch's
        // tables span the 7-qubit register), and 37 shots leave the last
        // lane group part-full.
        let mut noise = NoiseParameters::uniform(7);
        noise.set_zz(0, 1, 1.0e-4);
        noise.set_zz(1, 2, 8.0e-5);
        let exec = MachineExecutor::new(noise, SeedStream::new(91));
        let schedules = [
            dd_job(3, 0, None),
            dd_job(3, 2, None),
            dd_job(2, 1, None),
            dd_job(7, 1, None),
            dd_job(3, 4, Some(Gate::Ry(Angle::Fixed(0.37)))),
            dd_job(3, 1, None),
        ];
        let jobs: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(j, s)| (s, 40 + j as u64, 3..40))
            .collect();
        for build in LaneBuild::ALL.into_iter().filter(|b| b.is_supported()) {
            let batched = exec.run_jobs_on(build, &jobs);
            assert_eq!(batched.len(), jobs.len());
            for (j, (s, job_index, shots)) in jobs.iter().enumerate() {
                let alone = exec.run_job_shot_range_on(build, s, *job_index, shots.clone());
                assert_eq!(batched[j], alone, "{} build, job {j}", build.name());
                assert_eq!(alone.total(), 37);
            }
        }
        assert!(exec.run_jobs(&[]).is_empty());
    }

    #[test]
    fn detected_build_is_the_widest_supported() {
        let detected = LaneBuild::detected();
        assert!(detected.is_supported());
        assert!(LaneBuild::Default.is_supported());
        let widest = LaneBuild::ALL.into_iter().find(|b| b.is_supported());
        assert_eq!(Some(detected), widest);
    }

    #[test]
    fn telegraph_threshold_never_skips_a_flip() {
        // The largest draw under the threshold must still exit the flip
        // loop on its first `ln`. Rates and segment lengths are
        // log-uniform; without the guard band about one pair in 200 fails.
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20_000 {
            let rate = 10f64.powf(rng.gen_range(-9.0..1.0));
            let dt = 10f64.powf(rng.gen_range(-8.0..6.0));
            let below = no_flip_below(rate, dt);
            if below <= f64::MIN_POSITIVE {
                continue; // no draw can be under it
            }
            let u = f64::from_bits(below.to_bits() - 1);
            assert!(-u.ln() / rate >= dt, "rate {rate}, dt {dt}");
        }
        assert_eq!(no_flip_below(0.0, 35.0), 0.0);
    }

    #[test]
    fn shot_ranges_merge_to_full_run() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        qc.measure_all();
        let s = sched(&qc);
        let exec = MachineExecutor::new(NoiseParameters::uniform(2), SeedStream::new(12));
        let full = exec.run_job_with_shots(&s, 1000, 4);
        let mut merged = exec.run_job_shot_range(&s, 4, 0..300);
        merged.merge(&exec.run_job_shot_range(&s, 4, 300..900));
        merged.merge(&exec.run_job_shot_range(&s, 4, 900..1000));
        assert_eq!(full, merged);
    }

    #[test]
    fn quasi_static_dephasing_randomizes_plus_state() {
        // |+> idling long against sigma: X-basis measurement decays to 50/50.
        let sigma = 9.0e-5;
        let idle = 30_000.0; // sigma * t ~ 2.7 rad
        let mut qc = QuantumCircuit::new(1);
        qc.h(0).unwrap();
        qc.delay(idle, 0).unwrap();
        qc.h(0).unwrap();
        qc.measure(0).unwrap();
        let exec =
            MachineExecutor::new(dephasing_only(sigma, 0.0), SeedStream::new(2)).with_shots(2000);
        let counts = exec.run(&sched(&qc));
        let p1 = counts.probability("1");
        assert!(p1 > 0.3, "long idle should dephase: p1 = {p1}");
    }

    #[test]
    fn hahn_echo_refocuses_quasi_static_noise() {
        // The paper's Fig. 4/6 physics: a centered X pulse recovers the
        // state; the same X at the window edge does not.
        let sigma = 9.0e-5;
        let idle = 28_440.0; // the paper's 28.44 us window
        let exec =
            MachineExecutor::new(dephasing_only(sigma, 0.0), SeedStream::new(3)).with_shots(1500);

        // Centered echo: H, delay T/2, X, delay T/2, H -> expect |1>.
        let mut echo = QuantumCircuit::new(1);
        echo.h(0).unwrap();
        echo.delay(idle / 2.0, 0).unwrap();
        echo.x(0).unwrap();
        echo.delay(idle / 2.0, 0).unwrap();
        echo.h(0).unwrap();
        echo.measure(0).unwrap();

        // Edge echo (ALAP-style): H, delay T, X, H.
        let mut edge = QuantumCircuit::new(1);
        edge.h(0).unwrap();
        edge.delay(idle, 0).unwrap();
        edge.x(0).unwrap();
        edge.h(0).unwrap();
        edge.measure(0).unwrap();

        // X|+> = |+>, so the ideal outcome of both circuits is |0>.
        let p_echo = exec.run(&sched(&echo)).probability("0");
        let p_edge = exec.run(&sched(&edge)).probability("0");
        assert!(
            p_echo > 0.93,
            "centered echo should refocus almost perfectly: {p_echo}"
        );
        assert!(
            p_edge < p_echo - 0.2,
            "edge-positioned X should not refocus: edge {p_edge} vs echo {p_echo}"
        );
    }

    #[test]
    fn telegraph_noise_limits_single_echo() {
        let sigma = 9.0e-5;
        let idle = 28_440.0;
        let seeds = SeedStream::new(4);
        let mut echo = QuantumCircuit::new(1);
        echo.h(0).unwrap();
        echo.delay(idle / 2.0, 0).unwrap();
        echo.x(0).unwrap();
        echo.delay(idle / 2.0, 0).unwrap();
        echo.h(0).unwrap();
        echo.measure(0).unwrap();
        let s = sched(&echo);
        let quiet = MachineExecutor::new(dephasing_only(sigma, 0.0), seeds).with_shots(1500);
        let noisy = MachineExecutor::new(dephasing_only(sigma, 5.0e-5), seeds).with_shots(1500);
        let p_quiet = quiet.run(&s).probability("0");
        let p_noisy = noisy.run(&s).probability("0");
        assert!(
            p_noisy < p_quiet - 0.05,
            "telegraph switching should degrade a single echo: {p_noisy} vs {p_quiet}"
        );
    }

    #[test]
    fn t1_decay_on_machine() {
        let t1 = 50_000.0;
        let noise = NoiseParameters::from_qubits(vec![QubitNoise {
            t1_ns: t1,
            t2_ns: 2.0 * t1,
            quasi_static_sigma_rad_ns: 0.0,
            telegraph_rate_per_ns: 0.0,
            readout_p01: 0.0,
            readout_p10: 0.0,
            gate_error_1q: 0.0,
        }]);
        let mut qc = QuantumCircuit::new(1);
        qc.x(0).unwrap();
        qc.delay(t1, 0).unwrap(); // one T1
        qc.id(0).unwrap();
        qc.measure(0).unwrap();
        let exec = MachineExecutor::new(noise, SeedStream::new(6)).with_shots(3000);
        let p1 = exec.run(&sched(&qc)).probability("1");
        let expect = (-1.0f64).exp();
        assert!((p1 - expect).abs() < 0.05, "p1 {p1} vs {expect}");
    }

    #[test]
    fn readout_error_applies() {
        let mut noise = NoiseParameters::noiseless(1);
        noise.qubit_mut(0).readout_p01 = 0.15;
        let mut qc = QuantumCircuit::new(1);
        qc.id(0).unwrap();
        qc.measure(0).unwrap();
        let exec = MachineExecutor::new(noise, SeedStream::new(7)).with_shots(4000);
        let p1 = exec.run(&sched(&qc)).probability("1");
        assert!((p1 - 0.15).abs() < 0.03, "p1 {p1}");
    }

    #[test]
    fn gate_error_scales_with_gate_count() {
        let mut noise = NoiseParameters::noiseless(1);
        noise.qubit_mut(0).gate_error_1q = 0.02;
        let seeds = SeedStream::new(8);
        let run_len = |k: usize| {
            let mut qc = QuantumCircuit::new(1);
            for _ in 0..k {
                qc.x(0).unwrap();
                qc.x(0).unwrap();
            }
            qc.measure(0).unwrap();
            let exec = MachineExecutor::new(noise.clone(), seeds).with_shots(3000);
            exec.run(&sched(&qc)).probability("0")
        };
        let p_short = run_len(2);
        let p_long = run_len(40);
        assert!(
            p_long < p_short - 0.1,
            "more gates, more error: {p_long} vs {p_short}"
        );
    }

    #[test]
    fn zz_coupling_entangles_idle_neighbors() {
        // |+>|1| idling under ZZ picks up conditional phase; measuring the
        // first qubit in X basis drifts from deterministic.
        let mut noise = NoiseParameters::noiseless(2);
        noise.set_zz(0, 1, 2.5e-4);
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.x(1).unwrap();
        qc.delay(10_000.0, 0).unwrap();
        qc.delay(10_000.0, 1).unwrap();
        qc.id(0).unwrap();
        qc.id(1).unwrap();
        qc.h(0).unwrap();
        qc.measure_all();
        let exec = MachineExecutor::new(noise, SeedStream::new(9)).with_shots(2000);
        let counts = exec.run(&sched(&qc));
        // Without ZZ, qubit 0 would read 0 with certainty. zeta*t = 2.5 rad
        // rotates it far away.
        let p_q0_one = counts.probability("01") + counts.probability("11");
        assert!(
            p_q0_one > 0.2,
            "ZZ should rotate the idle qubit: {p_q0_one}"
        );
    }
}
