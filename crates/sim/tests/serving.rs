//! The socket conformance transcripts, reproduced by the serving core's
//! simulated driver: the literals in `wdm-net`'s `tests/transcripts/`
//! must come out byte-identical under every schedule seed — random
//! read, write and delivery interleavings and chunk sizes — for a
//! strict v1 client, a v2 client, and the fault inject/repair script.

mod simulated;
#[path = "../../net/tests/transcripts/mod.rs"]
mod transcripts;

use simulated::run_simulated;
use transcripts::{
    conformance_backend, conformance_script, fault_backend, fault_script, pinned_fault_transcript,
    pinned_transcript,
};
use wdm_runtime::RuntimeConfig;
use wdm_sim::NetSim;

/// Both conformance transcripts (v1 and v2) and the fault transcript
/// under `seeds` schedule seeds each.
fn transcript_sweep(seeds: u64) {
    let runtime = RuntimeConfig::default;
    for seed in 0..seeds {
        for wire_version in [1u8, 2] {
            let sim = NetSim::new(conformance_backend(), 2, runtime());
            let got = run_simulated(sim, wire_version, &conformance_script(wire_version), seed);
            assert_eq!(
                got,
                pinned_transcript(wire_version),
                "v{wire_version} seed {seed}"
            );
        }
        let sim = NetSim::new(fault_backend(), 2, runtime());
        let got = run_simulated(sim, 2, &fault_script(), seed);
        assert_eq!(got, pinned_fault_transcript(), "fault script seed {seed}");
    }
}

#[test]
fn simulated_driver_reproduces_the_pinned_transcripts() {
    transcript_sweep(128);
}

/// The nightly depth of the same sweep.
#[test]
#[ignore = "2 048 seeds; run by the nightly serving cell"]
fn simulated_driver_reproduces_the_pinned_transcripts_deep() {
    transcript_sweep(2048);
}
