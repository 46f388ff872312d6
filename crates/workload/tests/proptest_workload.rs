//! Property-based tests for the workload generators.

use proptest::prelude::*;
use wdm_core::{MulticastAssignment, MulticastModel, NetworkConfig};
use wdm_workload::app_mix::AppMix;
use wdm_workload::{AssignmentGen, DynamicTraffic, RequestTrace, TraceEvent};

fn arb_net() -> impl Strategy<Value = NetworkConfig> {
    (2u32..=8, 1u32..=4).prop_map(|(n, k)| NetworkConfig::new(n, k))
}

fn arb_model() -> impl Strategy<Value = MulticastModel> {
    prop::sample::select(&MulticastModel::ALL)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn full_assignments_are_always_full((net, model, seed) in (arb_net(), arb_model(), any::<u64>())) {
        let mut gen = AssignmentGen::new(net, model, seed);
        let asg = gen.full_assignment();
        prop_assert!(asg.is_full());
        for c in asg.connections() {
            prop_assert!(model.allows(c), "{model}: {c}");
        }
    }

    #[test]
    fn any_assignments_are_model_legal((net, model, seed) in (arb_net(), arb_model(), any::<u64>())) {
        let mut gen = AssignmentGen::new(net, model, seed);
        for _ in 0..3 {
            let asg = gen.any_assignment();
            for c in asg.connections() {
                prop_assert!(model.allows(c));
            }
        }
    }

    #[test]
    fn churn_traces_replay_cleanly((net, model, seed) in (arb_net(), arb_model(), any::<u64>()), pct in 0u32..=60) {
        let trace = RequestTrace::churn(net, model, 120, pct, seed);
        let mut asg = MulticastAssignment::new(net, model);
        let ok = trace.replay(|event| match event {
            TraceEvent::Connect(c) => asg.add(c.clone()).map_err(|e| e.to_string()),
            TraceEvent::Disconnect(src) => asg.remove(*src).map(|_| ()).map_err(|e| e.to_string()),
        });
        prop_assert!(ok.is_ok(), "{:?}", ok.err());
    }

    #[test]
    fn trace_json_roundtrips((net, model, seed) in (arb_net(), arb_model(), any::<u64>())) {
        let trace = RequestTrace::churn(net, model, 60, 30, seed);
        let back = RequestTrace::from_json(&trace.to_json()).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn dynamic_traffic_events_are_causal(
        (net, model, seed) in (arb_net(), arb_model(), any::<u64>()),
        load in 1u32..=10,
    ) {
        let mut src = DynamicTraffic::new(net, model, load as f64, 1.0, 0, seed);
        let events = src.generate(50.0);
        let mut live = std::collections::BTreeSet::new();
        let mut last_t = 0.0f64;
        for e in &events {
            prop_assert!(e.time >= last_t, "time went backwards");
            last_t = e.time;
            match &e.event {
                TraceEvent::Connect(c) => prop_assert!(live.insert(c.source())),
                TraceEvent::Disconnect(s) => prop_assert!(live.remove(s)),
            }
        }
    }

    #[test]
    fn scenarios_generate_model_legal_loads(
        (net, model, seed) in (arb_net(), arb_model(), any::<u64>()),
        which in 0usize..3,
    ) {
        let scenario = [
            AppMix::VideoConference { group_size: 3 },
            AppMix::VideoOnDemand { servers: 2 },
            AppMix::ECommerce { multicast_pct: 25 },
        ][which];
        let asg = scenario.generate(net, model, seed);
        for c in asg.connections() {
            prop_assert!(model.allows(c), "{} under {model}: {c}", scenario.label());
        }
    }
}
