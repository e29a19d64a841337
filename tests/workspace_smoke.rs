//! Workspace smoke test: fails fast if the manifest layer regresses — the
//! root facade must re-export every crate, and the paper's slim 4×4
//! configuration must construct a runnable simulator.

use patronoc_repro::{axi, packetnoc, patronoc, physical, scenario, simkit, traffic};

#[test]
fn facade_reexports_resolve() {
    // Touch one item per re-exported crate so a missing dependency or a
    // broken re-export fails this test rather than some distant suite.
    let params = axi::AxiParams::slim();
    assert!(params.data_width() > 0);
    let fifo: simkit::Fifo<u8> = simkit::Fifo::new(2);
    assert_eq!(fifo.len(), 0);
    let _ = traffic::TransferKind::Write;
    let _ = packetnoc::PacketNocConfig::noxim_compact();
    let _ = physical::AreaModel::calibrated();
    let _ = patronoc::Topology::mesh2x2();
    let _ = scenario::Scenario::patronoc();
}

#[test]
fn slim_4x4_constructs_and_runs() {
    let report = scenario::Scenario::patronoc()
        .traffic(scenario::TrafficSpec::uniform(0.5, 256))
        .warmup(500)
        .window(1_500)
        .seed(7)
        .run()
        .expect("slim_4x4 must be a valid scenario");
    assert!(report.payload_bytes > 0, "no traffic delivered");
}

#[test]
fn every_member_target_forbids_unsafe_code() {
    // No target may contain `unsafe` at all. The root `[workspace.lints]`
    // forbids it, and `[lints] workspace = true` carries that to every
    // target of a member: library, binaries, tests, examples and benches.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        workspace.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"),
        "the root manifest does not forbid unsafe_code for the workspace"
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(
        manifests.len() >= 9,
        "only {} manifests found",
        manifests.len()
    );
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("manifest readable");
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints",
            manifest.display()
        );
    }
}
