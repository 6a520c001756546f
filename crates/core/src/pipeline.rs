//! The end-to-end VAQEM pipeline (paper Fig. 11, feasible flow).
//!
//! Phase (a): tune ansatz angles with SPSA against the noise-free objective
//! (the paper shows simulation-found minima transfer to the machine,
//! Fig. 8). Phase (b): tune error mitigation per idle window on the
//! machine, then evaluate every comparison strategy of §VII-B:
//!
//! * `No-EM` — ALAP scheduling, no DD, no MEM (worst case),
//! * `Baseline/MEM` — ALAP + measurement error mitigation,
//! * `DD (XX | XY4)` — one uniform DD round per window, MEM on,
//! * `VAQEM: GS | XX | XY | GS+XY` — variationally tuned mitigation, MEM on,
//!
//! plus the §IX ZNE extension strategies (`ZNE (fixed)`, `VAQEM: ZNE`,
//! `VAQEM: GS+XY+ZNE` — see [`Strategy::WITH_ZNE`]): zero-noise
//! extrapolation as a fixed protocol, as a tuned protocol, and composed
//! on top of the tuned GS+DD configuration.

use crate::backend::QuantumBackend;
use crate::error::VaqemError;
use crate::executor::Executor;
use crate::metrics;
use crate::vqe::{GroupSchedules, VqeProblem};
use crate::window_tuner::{
    FleetCacheSession, MitigationConfigStore, MitigationStoreBackend, Stage, TunedMitigation,
    WarmStats, WindowTuner, WindowTunerConfig, GS_DD_ZNE,
};
use vaqem_device::noise::NoiseParameters;
use vaqem_mathkit::rng::SeedStream;
use vaqem_mitigation::combined::MitigationConfig;
use vaqem_mitigation::dd::{DdPass, DdSequence};
use vaqem_mitigation::zne::ZneConfig;
use vaqem_optim::spsa::{self, SpsaConfig};

/// The evaluation strategies of §VII-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// No mitigation at all.
    NoEm,
    /// Measurement error mitigation only (the baseline of Fig. 12).
    MemBaseline,
    /// One uniform round of XX DD per window (+ MEM).
    DdXx,
    /// One uniform round of XY4 DD per window (+ MEM).
    DdXy,
    /// VAQEM-tuned gate scheduling (+ MEM).
    VaqemGs,
    /// VAQEM-tuned XX repetition counts (+ MEM).
    VaqemXx,
    /// VAQEM-tuned XY4 repetition counts (+ MEM).
    VaqemXy,
    /// VAQEM-tuned GS then XY4 (+ MEM) — the headline configuration.
    VaqemGsXy,
    /// One fixed round of ZNE (`ZneConfig::standard`, + MEM) — the naive
    /// comparison for the §IX extension, analogous to the uniform-DD
    /// baselines.
    ZneFixed,
    /// VAQEM-tuned ZNE protocol (+ MEM): scale-factor set and
    /// extrapolation model swept under the acceptance guard.
    VaqemZne,
    /// The full composition: VAQEM-tuned GS, then XY4, then ZNE (+ MEM)
    /// — "VAQEM: GS+XY+ZNE".
    VaqemGsXyZne,
}

impl Strategy {
    /// All strategies in Fig. 12 presentation order.
    pub const ALL: [Strategy; 8] = [
        Strategy::NoEm,
        Strategy::MemBaseline,
        Strategy::VaqemGs,
        Strategy::DdXy,
        Strategy::VaqemXy,
        Strategy::DdXx,
        Strategy::VaqemXx,
        Strategy::VaqemGsXy,
    ];

    /// [`Self::ALL`] extended with the §IX ZNE strategies, in
    /// fixed-before-tuned order.
    pub const WITH_ZNE: [Strategy; 11] = [
        Strategy::NoEm,
        Strategy::MemBaseline,
        Strategy::VaqemGs,
        Strategy::DdXy,
        Strategy::VaqemXy,
        Strategy::DdXx,
        Strategy::VaqemXx,
        Strategy::VaqemGsXy,
        Strategy::ZneFixed,
        Strategy::VaqemZne,
        Strategy::VaqemGsXyZne,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::NoEm => "No-EM",
            Strategy::MemBaseline => "MEM (Base)",
            Strategy::DdXx => "XX",
            Strategy::DdXy => "XY",
            Strategy::VaqemGs => "VAQEM: GS",
            Strategy::VaqemXx => "VAQEM: XX",
            Strategy::VaqemXy => "VAQEM: XY",
            Strategy::VaqemGsXy => "VAQEM: GS+XY",
            Strategy::ZneFixed => "ZNE (fixed)",
            Strategy::VaqemZne => "VAQEM: ZNE",
            Strategy::VaqemGsXyZne => "VAQEM: GS+XY+ZNE",
        }
    }

    /// Returns `true` for strategies that require the variational tuner.
    pub fn is_vaqem(self) -> bool {
        self.tuning().is_some()
    }

    /// The tuner stages and DD sequence of a VAQEM strategy; `None` for
    /// the fixed ones.
    fn tuning(self) -> Option<(&'static [Stage], DdSequence)> {
        Some(match self {
            Strategy::VaqemGs => (&[Stage::Gs], DdSequence::Xy4),
            Strategy::VaqemXx => (&[Stage::Dd], DdSequence::Xx),
            Strategy::VaqemXy => (&[Stage::Dd], DdSequence::Xy4),
            Strategy::VaqemGsXy => (&[Stage::Gs, Stage::Dd], DdSequence::Xy4),
            Strategy::VaqemZne => (&[Stage::Zne], DdSequence::Xy4),
            Strategy::VaqemGsXyZne => (&GS_DD_ZNE, DdSequence::Xy4),
            _ => return None,
        })
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// SPSA settings for angle tuning.
    pub spsa: SpsaConfig,
    /// Shots per machine execution.
    pub shots: u64,
    /// Per-window sweep resolution.
    pub sweep_resolution: usize,
    /// Cap on DD repetitions per window.
    pub max_repetitions: usize,
    /// Root seed stream.
    pub seeds: SeedStream,
    /// Number of repeated final evaluations averaged per strategy.
    pub eval_repeats: usize,
}

impl PipelineConfig {
    /// Reduced settings for tests and quick runs.
    pub fn quick() -> Self {
        PipelineConfig {
            spsa: SpsaConfig::paper_default().with_iterations(60),
            shots: 256,
            sweep_resolution: 3,
            max_repetitions: 6,
            seeds: SeedStream::new(2024),
            eval_repeats: 1,
        }
    }
}

/// Result of evaluating one strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyResult {
    /// The strategy.
    pub strategy: Strategy,
    /// Mean measured energy over `eval_repeats` evaluations.
    pub energy: f64,
    /// Fraction of the simulated optimal (Fig. 13).
    pub fraction_of_optimal: f64,
    /// Improvement relative to the MEM baseline (Fig. 12).
    pub rel_baseline: f64,
    /// The mitigation configuration used.
    pub config: MitigationConfig,
    /// Machine evaluations spent tuning this strategy (0 for non-VAQEM).
    pub tuning_evaluations: usize,
}

/// Complete result of one benchmark run through the pipeline.
#[derive(Debug, Clone)]
pub struct BenchmarkRun {
    /// Benchmark label.
    pub label: String,
    /// Exact ground energy (simulated optimal).
    pub exact_ground: f64,
    /// Ideal (noise-free) energy at the tuned angles.
    pub ideal_tuned_energy: f64,
    /// Tuned angle parameters.
    pub tuned_params: Vec<f64>,
    /// SPSA convergence trace (Fig. 8 upper panel).
    pub angle_trace: Vec<f64>,
    /// Per-strategy outcomes.
    pub results: Vec<StrategyResult>,
    /// The GS+DD tuning detail for Fig. 14, when run.
    pub combined_tuning: Option<TunedMitigation>,
    /// Aggregate fleet-cache counters over every tuner run of this
    /// pipeline invocation (`None` when no cache session was supplied).
    pub cache_usage: Option<CacheUsage>,
}

/// Aggregate fleet-cache interaction counters of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheUsage {
    /// Windows warm-started from the store across all tuner stages.
    pub hits: usize,
    /// Windows swept in full across all tuner stages.
    pub misses: usize,
    /// Tuner *invocations* in which at least one stage's acceptance guard
    /// rejected the assembled config (a GS+DD run whose stages both
    /// reject still counts once — per-stage verdicts are merged in
    /// [`WarmStats::guard_rejected`]).
    pub guard_rejections: usize,
}

impl CacheUsage {
    fn absorb(&mut self, stats: WarmStats) {
        self.hits += stats.hits;
        self.misses += stats.misses;
        if stats.guard_rejected {
            self.guard_rejections += 1;
        }
    }
}

impl BenchmarkRun {
    /// The result for one strategy, if evaluated.
    pub fn result(&self, strategy: Strategy) -> Option<&StrategyResult> {
        self.results.iter().find(|r| r.strategy == strategy)
    }
}

/// Phase (a): SPSA angle tuning against the ideal objective.
///
/// Returns `(best_params, trace)`.
///
/// # Errors
///
/// Propagates objective errors.
pub fn tune_angles(
    problem: &VqeProblem,
    spsa_config: &SpsaConfig,
    seeds: &SeedStream,
) -> Result<(Vec<f64>, Vec<f64>), VaqemError> {
    let mut rng = seeds.rng("angle-init");
    use rand::Rng;
    let initial: Vec<f64> = (0..problem.num_params())
        .map(|_| rng.gen_range(-0.5..0.5))
        .collect();
    let result = spsa::minimize(
        |params| {
            problem
                .ideal_energy(params)
                .expect("valid parameter vector")
        },
        &initial,
        spsa_config,
        &seeds.substream("angle-spsa"),
    );
    Ok((result.best_params, result.trace))
}

/// Runs the full pipeline for one problem on one noise environment,
/// evaluating `strategies`.
///
/// # Errors
///
/// Propagates tuning and evaluation errors.
pub fn run_pipeline(
    problem: &VqeProblem,
    noise: &NoiseParameters,
    config: &PipelineConfig,
    strategies: &[Strategy],
) -> Result<BenchmarkRun, VaqemError> {
    run_pipeline_with_cache::<MitigationConfigStore>(problem, noise, config, strategies, None)
}

/// [`run_pipeline`] with an optional fleet-cache session: when `session`
/// is supplied, every VAQEM tuner stage warm-starts from the shared
/// config store (fingerprint hits skip their window's sweep; the §IX-C
/// acceptance guard still gates every assembled configuration) and the
/// run's [`CacheUsage`] is reported on the returned [`BenchmarkRun`].
///
/// Generic over the session's store backend: a deterministic replay
/// passes the single-owner [`MitigationConfigStore`], while a fleet
/// daemon passes an `Arc` of a shared sharded/durable store so many
/// pipelines can tune against one config pool concurrently.
///
/// # Errors
///
/// Propagates tuning and evaluation errors.
pub fn run_pipeline_with_cache<S: MitigationStoreBackend>(
    problem: &VqeProblem,
    noise: &NoiseParameters,
    config: &PipelineConfig,
    strategies: &[Strategy],
    mut session: Option<&mut FleetCacheSession<'_, S>>,
) -> Result<BenchmarkRun, VaqemError> {
    // Phase (a): angle tuning on the ideal simulator.
    let (params, angle_trace) = tune_angles(problem, &config.spsa, &config.seeds)?;
    let ideal_tuned_energy = problem.ideal_energy(&params)?;
    let exact_ground = problem.exact_ground_energy();
    // Metrics are computed on the traceless part: identity terms are a
    // constant no mitigation can touch (see metrics module docs).
    let identity_offset = problem.hamiltonian().identity_offset();

    // Machine backends: MEM-calibrated and raw.
    let mut backend = QuantumBackend::new(noise.clone(), config.seeds.substream("machine"))
        .with_shots(config.shots);
    backend.calibrate_mem();
    let mut backend_no_mem = backend.clone();
    backend_no_mem.clear_mem();

    let tuner_config = |seq: DdSequence| WindowTunerConfig {
        sweep_resolution: config.sweep_resolution,
        dd_sequence: seq,
        max_repetitions: config.max_repetitions,
        ..WindowTunerConfig::default()
    };

    // The strategy comparison shares one parameter vector, so the base
    // measurement-group schedules are computed once and reused by every
    // final evaluation (the per-strategy tuners hold their own caches).
    let cache = problem.schedule_groups(&backend, &params)?;

    // Phase (b) part 1: resolve each strategy to a mitigation config
    // (running the per-window tuner where required, warm-started against
    // the fleet cache when a session was supplied). Each VAQEM strategy
    // is tuned once and reused if it is listed again.
    let mut usage = session.as_ref().map(|_| CacheUsage::default());
    let mut tuned: Vec<(Strategy, TunedMitigation)> = Vec::new();
    let mut resolved: Vec<(Strategy, MitigationConfig, usize)> =
        Vec::with_capacity(strategies.len());
    for &strategy in strategies {
        let (cfg, tuning_evals) = match strategy.tuning() {
            Some((stages, seq)) => {
                if !tuned.iter().any(|(s, _)| *s == strategy) {
                    let tuner = WindowTuner::new(problem, &backend, tuner_config(seq));
                    let report = tuner.tune(&params, stages, session.as_deref_mut())?;
                    usage.iter_mut().for_each(|u| u.absorb(report.stats));
                    tuned.push((strategy, report.tuned));
                }
                let (_, t) = tuned.iter().find(|(s, _)| *s == strategy).expect("tuned");
                (t.config.clone(), t.evaluations)
            }
            None => (fixed_config(strategy, &backend, &cache)?, 0),
        };
        resolved.push((strategy, cfg, tuning_evals));
    }

    // Phase (b) part 2: all final evaluations — every strategy times every
    // repeat — go out as one batch per backend (MEM on vs. off), through
    // Executor::run_batch.
    let repeats = config.eval_repeats.max(1);
    let energies = evaluate_resolved(
        problem,
        &backend,
        &backend_no_mem,
        &cache,
        &resolved,
        repeats,
    );

    let mut results = Vec::with_capacity(strategies.len());
    let mut baseline_energy: Option<f64> = None;
    for ((strategy, cfg, tuning_evals), energy) in resolved.into_iter().zip(energies) {
        if strategy == Strategy::MemBaseline {
            baseline_energy = Some(energy);
        }
        results.push(StrategyResult {
            strategy,
            energy,
            fraction_of_optimal: metrics::fraction_of_optimal_adjusted(
                energy,
                exact_ground,
                identity_offset,
            ),
            rel_baseline: 1.0, // filled below once the baseline is known
            config: cfg,
            tuning_evaluations: tuning_evals,
        });
    }

    // Fill Fig. 12 ratios.
    if let Some(base) = baseline_energy {
        for r in results.iter_mut() {
            r.rel_baseline = metrics::improvement_rel_baseline_adjusted(
                r.energy,
                base,
                exact_ground,
                identity_offset,
            );
        }
    }

    Ok(BenchmarkRun {
        label: problem.label().to_string(),
        exact_ground,
        ideal_tuned_energy,
        tuned_params: params,
        angle_trace,
        results,
        combined_tuning: tuned
            .into_iter()
            .find(|(s, _)| *s == Strategy::VaqemGsXy)
            .map(|(_, t)| t),
        cache_usage: usage,
    })
}

/// Evaluates every resolved `(strategy, config)` with `repeats` averaged
/// repetitions, batching all jobs for each backend into a single
/// `run_batch` dispatch. Returns one mean energy per strategy, in order.
fn evaluate_resolved<E: Executor>(
    problem: &VqeProblem,
    backend: &QuantumBackend<E>,
    backend_no_mem: &QuantumBackend<E>,
    cache: &GroupSchedules,
    resolved: &[(Strategy, MitigationConfig, usize)],
    repeats: usize,
) -> Vec<f64> {
    // Partition evaluations by backend while remembering their slot.
    let mut with_mem: Vec<(usize, (MitigationConfig, u64))> = Vec::new();
    let mut without_mem: Vec<(usize, (MitigationConfig, u64))> = Vec::new();
    for (slot, (strategy, cfg, _)) in resolved.iter().enumerate() {
        let bucket = if *strategy == Strategy::NoEm {
            &mut without_mem
        } else {
            &mut with_mem
        };
        for r in 0..repeats {
            bucket.push((slot, (cfg.clone(), 500_000 + r as u64)));
        }
    }
    let mut sums = vec![0.0f64; resolved.len()];
    for (be, bucket) in [(backend, with_mem), (backend_no_mem, without_mem)] {
        let evals: Vec<(MitigationConfig, u64)> = bucket.iter().map(|(_, e)| e.clone()).collect();
        for ((slot, _), energy) in bucket
            .iter()
            .zip(problem.machine_energy_batch(be, cache, &evals))
        {
            sums[*slot] += energy;
        }
    }
    sums.into_iter().map(|s| s / repeats as f64).collect()
}

/// The configuration of a strategy that is not tuned. The naive DD
/// comparison is one repetition in every window (§VII-B: "a single round
/// / sequence of DD within the idle windows").
fn fixed_config<E: Executor>(
    strategy: Strategy,
    backend: &QuantumBackend<E>,
    cache: &GroupSchedules,
) -> Result<MitigationConfig, VaqemError> {
    let sequence = match strategy {
        Strategy::DdXx => DdSequence::Xx,
        Strategy::DdXy => DdSequence::Xy4,
        Strategy::ZneFixed => {
            return Ok(MitigationConfig::zero_noise_extrapolation(
                ZneConfig::standard(),
            ))
        }
        _ => return Ok(MitigationConfig::baseline()),
    };
    let scheduled = cache
        .schedules()
        .first()
        .ok_or_else(|| VaqemError::Config {
            message: "no measurement groups".into(),
        })?;
    let pulse = backend.durations().single_qubit_ns();
    let n = DdPass::new(sequence, pulse, pulse).windows(scheduled).len();
    Ok(MitigationConfig::dynamical_decoupling(sequence, vec![1; n]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
    use vaqem_pauli::models::tfim_paper;

    fn tiny_problem() -> VqeProblem {
        let ansatz = EfficientSu2::new(2, 1, Entanglement::Linear)
            .circuit()
            .unwrap();
        VqeProblem::new("tiny", tfim_paper(2), ansatz).unwrap()
    }

    #[test]
    fn angle_tuning_converges_toward_ground() {
        let p = tiny_problem();
        let cfg = SpsaConfig::paper_default().with_iterations(150);
        let (params, trace) = tune_angles(&p, &cfg, &SeedStream::new(31)).unwrap();
        let e = p.ideal_energy(&params).unwrap();
        let e0 = p.exact_ground_energy();
        assert!(e >= e0 - 1e-9, "variational bound");
        // Within 15% of ground for a 2-qubit TFIM.
        assert!((e - e0).abs() < 0.15 * e0.abs(), "tuned {e} vs ground {e0}");
        assert_eq!(trace.len(), 150);
    }

    #[test]
    fn pipeline_produces_all_requested_strategies() {
        let p = tiny_problem();
        let noise = vaqem_device::noise::NoiseParameters::uniform(2);
        let cfg = PipelineConfig::quick();
        let strategies = [Strategy::NoEm, Strategy::MemBaseline, Strategy::DdXx];
        let run = run_pipeline(&p, &noise, &cfg, &strategies).unwrap();
        assert_eq!(run.results.len(), 3);
        assert!(run.result(Strategy::MemBaseline).is_some());
        assert!(run.result(Strategy::VaqemGsXy).is_none());
        for r in &run.results {
            assert!(r.energy.is_finite());
            assert!((0.0..=1.0).contains(&r.fraction_of_optimal));
        }
    }

    #[test]
    fn vaqem_strategy_runs_and_is_sound() {
        let p = tiny_problem();
        let noise = vaqem_device::noise::NoiseParameters::uniform(2);
        let cfg = PipelineConfig::quick();
        let run = run_pipeline(
            &p,
            &noise,
            &cfg,
            &[Strategy::MemBaseline, Strategy::VaqemXx],
        )
        .unwrap();
        let vaqem = run.result(Strategy::VaqemXx).unwrap();
        // Soundness: measured energy never meaningfully below the optimum.
        assert!(crate::soundness::measured_energy_is_sound(
            vaqem.energy,
            run.exact_ground,
            0.5
        ));
        assert!(vaqem.rel_baseline > 0.0);
    }

    #[test]
    fn strategy_labels_match_paper() {
        assert_eq!(Strategy::VaqemGsXy.label(), "VAQEM: GS+XY");
        assert_eq!(Strategy::MemBaseline.label(), "MEM (Base)");
        assert!(Strategy::VaqemXy.is_vaqem());
        assert!(!Strategy::DdXy.is_vaqem());
        assert_eq!(Strategy::VaqemGsXyZne.label(), "VAQEM: GS+XY+ZNE");
        assert!(Strategy::VaqemZne.is_vaqem());
        assert!(!Strategy::ZneFixed.is_vaqem());
        assert_eq!(&Strategy::WITH_ZNE[..Strategy::ALL.len()], &Strategy::ALL);
    }

    #[test]
    fn zne_strategies_run_end_to_end() {
        let p = tiny_problem();
        let noise = vaqem_device::noise::NoiseParameters::uniform(2);
        let cfg = PipelineConfig::quick();
        let run = run_pipeline(
            &p,
            &noise,
            &cfg,
            &[
                Strategy::MemBaseline,
                Strategy::ZneFixed,
                Strategy::VaqemZne,
            ],
        )
        .unwrap();
        assert_eq!(run.results.len(), 3);
        let fixed = run.result(Strategy::ZneFixed).unwrap();
        assert_eq!(fixed.config.zne, Some(ZneConfig::standard()));
        assert_eq!(fixed.tuning_evaluations, 0, "fixed ZNE is not tuned");
        let tuned = run.result(Strategy::VaqemZne).unwrap();
        assert!(tuned.tuning_evaluations > 0);
        for r in &run.results {
            assert!(r.energy.is_finite());
            assert!(crate::soundness::measured_energy_is_sound(
                r.energy,
                run.exact_ground,
                0.5
            ));
        }
    }
}
