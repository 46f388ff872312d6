//! The conformance scripts of `transcripts` run on the serving core's
//! simulated driver: one [`NetSim`] lane calling sequentially, every
//! call stepped to quiescence under a seeded schedule. Shared by
//! `wdm-sim`'s `serving.rs` and tier-1's `tests/every_layer.rs`, each of
//! which includes `transcripts` at its crate root.

use crate::transcripts::{run_script, Driver};
use wdm_net::codec::encode_request;
use wdm_net::{Request, Response, WIRE_VERSION};
use wdm_runtime::{Backend, RuntimeReport};
use wdm_sim::{ChoiceStream, NetSim, Peer};

/// One lane of a [`NetSim`], calling sequentially.
struct Simulated<B: Backend> {
    sim: NetSim<B>,
    lane: usize,
    next_id: u64,
    choices: ChoiceStream,
}

impl<B: Backend> Driver<B> for Simulated<B> {
    fn call(&mut self, req: &Request) -> Response {
        let id = self.next_id;
        self.next_id += 1;
        self.sim.script(self.lane, encode_request(id, req));
        self.sim.run(&mut self.choices);
        let (version, got, resp) = self.sim.responses(self.lane).last().expect("answered");
        assert_eq!((*version, *got), (WIRE_VERSION, id), "reply to the call");
        resp.clone()
    }

    fn finish(self) -> RuntimeReport<B> {
        self.sim.finish()
    }
}

/// Run `script` on a fresh lane of `sim`, with every schedule choice
/// drawn from `seed`.
pub fn run_simulated<B: Backend>(mut sim: NetSim<B>, script: &[Request], seed: u64) -> Vec<String> {
    let lane = sim.lane(1, Peer::Reads);
    let driver = Simulated {
        sim,
        lane,
        next_id: 1,
        choices: ChoiceStream::new(seed),
    };
    run_script(driver, script)
}
