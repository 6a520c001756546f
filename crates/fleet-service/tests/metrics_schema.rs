//! Golden-schema pin for `FleetService::metrics_report()`.
//!
//! The scenario-matrix grid report and any external consumer walk the
//! JSON rendering of [`FleetMetricsReport`]; a silently renamed or
//! dropped field would break them downstream. This test runs a real
//! (tiny) daemon through one session — so every array in the report is
//! populated and contributes its inner paths — and compares the
//! flattened key paths of `metrics_report().to_json()` against the
//! committed golden list.
//!
//! On an *intentional* schema change: update
//! `tests/golden/metrics_schema.golden` to the `actual` list this test
//! prints, and bump the consumers named there.

use vaqem_ansatz::su2::{EfficientSu2, Entanglement};
use vaqem_circuit::schedule::DurationModel;
use vaqem_device::backend::DeviceModel;
use vaqem_device::drift::DriftModel;
use vaqem_device::noise::NoiseParameters;
use vaqem_fleet_service::{
    DeviceSpec, FleetService, FleetServiceConfig, SessionKind, SessionRequest, TenancyConfig,
};
use vaqem_mathkit::rng::SeedStream;
use vaqem_runtime::BatchDispatch;

const GOLDEN: &str = include_str!("golden/metrics_schema.golden");

fn tiny_service(store_dir: &std::path::Path) -> FleetService {
    let problem = vaqem::vqe::VqeProblem::new(
        "schema_tfim_2q",
        vaqem_pauli::models::tfim_paper(2),
        EfficientSu2::new(2, 1, Entanglement::Linear)
            .circuit()
            .expect("ansatz builds"),
    )
    .expect("problem builds");
    let noise = NoiseParameters::uniform(2);
    let device = DeviceSpec {
        name: "schema-device".into(),
        model: DeviceModel::new(
            "schema-device",
            2,
            vec![(0, 1)],
            DurationModel::ibm_default(),
            noise,
        ),
        drift: DriftModel::new(SeedStream::new(7).substream("drift")),
    };
    let config = FleetServiceConfig {
        store_dir: store_dir.to_path_buf(),
        shards: 2,
        capacity_per_shard: 64,
        shots: 64,
        tuner: vaqem::window_tuner::WindowTunerConfig {
            sweep_resolution: 2,
            max_repetitions: 2,
            guard_repeats: 1,
            ..Default::default()
        },
        circuit_ns: 8_000.0,
        estimate_windows: 4,
        dispatch: BatchDispatch::local(2),
        tenancy: TenancyConfig::default(),
    };
    let params = vec![0.3; problem.num_params()];
    let service =
        FleetService::open(config, vec![device], problem, SeedStream::new(7)).expect("opens");
    // One completed session populates every array of the report:
    // devices (always), its fair-queue lane (created at enqueue), the
    // client's quota usage, its attributed store traffic, and the
    // per-shard metrics.
    let rx = service.submit(SessionRequest {
        client: "schema-client".into(),
        t_hours: 1.0,
        params,
        device: Some(0),
        kind: SessionKind::Dd,
    });
    rx.recv().expect("worker alive").expect("tuning ok");
    service
}

#[test]
fn metrics_report_json_schema_matches_golden() {
    let store_dir = std::env::temp_dir().join(format!("vaqem-schema-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let service = tiny_service(&store_dir);
    let report = service.metrics_report();
    let json = report.to_json();

    // Precondition: every array is populated, so the flattened paths
    // cover the full schema (an empty array would hide its item shape).
    assert!(!report.devices.is_empty());
    assert!(!report.devices[0].lanes.is_empty(), "lane registered");
    assert!(!report.quotas.is_empty(), "quota usage recorded");
    assert!(
        !report.client_store_traffic.is_empty(),
        "traffic attributed"
    );
    assert!(!report.shards.is_empty());

    let actual = json.key_paths();
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(
        actual,
        golden,
        "metrics_report() JSON schema drifted.\n\
         If intentional, update tests/golden/metrics_schema.golden to:\n{}\n\
         and check the consumers: the scenario-matrix grid report \
         (crates/scenario) and anything parsing SCENARIO_matrix.json.",
        actual.join("\n")
    );

    service.shutdown().expect("checkpoint");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn unlimited_caps_render_as_null_not_numbers() {
    let store_dir = std::env::temp_dir().join(format!("vaqem-schema-null-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let service = tiny_service(&store_dir);
    let rendered = service.metrics_report().to_json().render();
    // The default quota is unlimited on both axes: usize::MAX would be
    // a lie in JSON (not representable faithfully everywhere) and
    // f64::INFINITY has no JSON encoding at all.
    assert!(
        rendered.contains("\"max_in_flight\":null"),
        "unlimited in-flight cap must render null: {rendered}"
    );
    assert!(
        rendered.contains("\"budget_min\":null"),
        "unlimited budget must render null: {rendered}"
    );
    assert!(!rendered.contains("18446744073709551615"));
    service.shutdown().expect("checkpoint");
    let _ = std::fs::remove_dir_all(&store_dir);
}
