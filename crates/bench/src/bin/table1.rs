//! Regenerates **Table I** (the design-time parameter space of the PATRONoC
//! 2D mesh) by *validating* it: every in-range corner is accepted by the
//! configuration layer and instantiable as a simulator; every out-of-range
//! value is rejected. Also prints the §III power model.

#![expect(
    clippy::print_literal,
    reason = "tabular output reads better with aligned literal args"
)]

use axi::AxiParams;
use patronoc::Topology;
use physical::power::{platform_share, power_mw};
use scenario::Scenario;

fn main() {
    println!("Table I — main parameters of the PATRONoC 2D mesh");
    println!("{:<28} {}", "Parameter", "Values (validated)");
    println!(
        "{:<28} {}",
        "Mesh Dimension", "N x M (any; evaluated 2x2, 4x4)"
    );
    println!(
        "{:<28} {}",
        "Number of AXI Masters", "1 to N*M (default N*M)"
    );
    println!(
        "{:<28} {}",
        "Number of AXI Slaves", "1 to N*M (default N*M)"
    );
    println!("{:<28} {}", "Data Width", "8 to 1024 bits (powers of two)");
    println!("{:<28} {}", "Address Width", "32 or 64 bits");
    println!("{:<28} {}", "ID Width", "1 to 16 bits");
    println!("{:<28} {}", "Max #Outstanding Trans.", "1 to 128");
    println!(
        "{:<28} {}",
        "XBAR Connectivity", "Partial (default) or Full"
    );
    println!(
        "{:<28} {}",
        "Register Slice", ">= 1 stage per channel (default 1 = all channels)"
    );
    println!();

    // Exhaustive-corner validation through the Scenario builder: every
    // in-range corner must instantiate a simulator, every out-of-range
    // value must surface as a configuration error.
    let mut accepted = 0;
    let mut rejected = 0;
    for aw in [16u32, 32, 64, 128] {
        for dw in [4u32, 8, 48, 1024, 2048] {
            for iw in [0u32, 1, 16, 17] {
                for mot in [0u32, 1, 128, 129] {
                    let corner = Scenario::patronoc()
                        .topology(Topology::mesh2x2())
                        .addr_width(aw)
                        .data_width(dw)
                        .id_width(iw)
                        .max_outstanding(mot);
                    // The scenario must accept exactly the AXI parameter
                    // space: every valid corner instantiates a simulator,
                    // every invalid one surfaces a configuration error.
                    match AxiParams::new(aw, dw, iw, mot) {
                        Ok(axi) => {
                            accepted += 1;
                            assert!(corner.build_noc_sim().is_ok(), "{axi} failed to build");
                        }
                        Err(_) => {
                            rejected += 1;
                            assert!(
                                corner.build_noc_sim().is_err(),
                                "AW={aw} DW={dw} IW={iw} MOT={mot} built despite invalid params"
                            );
                        }
                    }
                }
            }
        }
    }
    println!(
        "parameter-space sweep: {accepted} corners accepted & instantiated, {rejected} rejected"
    );

    println!();
    println!("§III power model (4x4, 1 GHz, uniform random traffic):");
    for dw in [32u32, 512] {
        let axi = AxiParams::new(32, dw, 4, 8).expect("power sweep params");
        let p = power_mw(Topology::mesh4x4(), axi);
        let share = platform_share(Topology::mesh4x4(), axi, 150.0);
        println!(
            "  DW = {dw:>4}: {p:6.1} mW  ({:.1} % of a platform with 150 mW accelerators; paper: 45 / 171 mW, < 10 %)",
            100.0 * share
        );
    }
}
