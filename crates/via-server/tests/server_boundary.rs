//! Request validation at the protocol boundary: what a client sends is
//! untrusted, and a malformed request must be a typed `BadRequest` that
//! leaves the controller exactly as it was, with the connection still
//! serving.

// Test code: panicking on a failed connect or round trip is the right
// behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use via_core::predictor::GeoPrior;
use via_core::BackboneFn;
use via_model::ids::RelayId;
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::SimTime;
use via_server::{serve, Client, ClientError, Controller, ErrorKind, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(10);
const T: SimTime = SimTime(10);

/// Two keys (New York, London) and two relays (Dublin, Frankfurt). The
/// backbone indexes a dense relay×relay table, as the CLI's does, so an
/// unknown relay id would panic inside it.
fn controller() -> Controller {
    let legs = [PathMetrics::new(20.0, 0.1, 1.0); 4];
    let backbone: BackboneFn =
        Arc::new(move |a: RelayId, b: RelayId| legs[a.index() * 2 + b.index()]);
    Controller::new(
        ServerConfig {
            epsilon: 0.0,
            ..ServerConfig::default()
        },
        GeoPrior::new(
            vec![
                via_netsim::GeoPoint::new(40.7, -74.0),
                via_netsim::GeoPoint::new(51.5, -0.1),
            ],
            vec![
                via_netsim::GeoPoint::new(53.3, -6.3),
                via_netsim::GeoPoint::new(50.1, 8.7),
            ],
        ),
        backbone,
    )
}

fn candidates() -> Vec<RelayOption> {
    vec![
        RelayOption::Direct,
        RelayOption::Bounce(RelayId(0)),
        RelayOption::Bounce(RelayId(1)),
    ]
}

fn assert_bad_request<T: std::fmt::Debug>(got: Result<T, ClientError>) {
    match got {
        Err(ClientError::Remote {
            kind: ErrorKind::BadRequest,
            ..
        }) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

#[test]
fn non_finite_or_negative_metrics_are_rejected_and_leave_the_selection_unchanged() {
    let worse = RelayOption::Bounce(RelayId(1));
    // JSON has no NaN: a NaN metric goes over the wire as `null`, and the
    // server decodes it back to NaN.
    let nan = PathMetrics {
        rtt_ms: f64::NAN,
        loss_pct: 0.1,
        jitter_ms: 1.0,
    };
    assert!(serde_json::to_string(&nan).unwrap().contains("null"));

    // The premise: absorbed, a NaN cost counts as zero, and 20 zero-cost
    // reports flip the choice to the worse arm.
    let absorbed = controller();
    assert_eq!(
        absorbed.select(0, T, 0, 1, &candidates()).option,
        RelayOption::Direct
    );
    for _ in 0..20 {
        absorbed.report(T, 0, 1, worse, &PathMetrics::new(0.0, 0.1, 1.0));
    }
    assert_eq!(absorbed.select(1, T, 0, 1, &candidates()).option, worse);

    let handle = serve(Arc::new(controller())).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let replica = controller();
    let first = client.select(0, T, 0, 1, &candidates()).unwrap();
    assert_eq!(first, replica.select(0, T, 0, 1, &candidates()));
    for _ in 0..20 {
        assert_bad_request(client.report(T, 0, 1, worse, nan));
    }
    for bad in [
        PathMetrics {
            rtt_ms: 80.0,
            loss_pct: f64::INFINITY,
            jitter_ms: 1.0,
        },
        PathMetrics {
            rtt_ms: 80.0,
            loss_pct: 0.1,
            jitter_ms: -1.0,
        },
        PathMetrics {
            rtt_ms: -5.0,
            loss_pct: 0.1,
            jitter_ms: 1.0,
        },
    ] {
        assert_bad_request(client.report(T, 0, 1, worse, bad));
    }
    let after = client.select(1, T, 0, 1, &candidates()).unwrap();
    assert_eq!(after, replica.select(1, T, 0, 1, &candidates()));
    assert_eq!(after.option, RelayOption::Direct);
    assert_eq!(
        client.snapshot().unwrap(),
        replica.selection_snapshot_json(),
        "rejected reports must not touch the controller"
    );
    handle.stop();
}

#[test]
fn unknown_relay_ids_are_rejected_and_the_connection_keeps_serving() {
    let handle = serve(Arc::new(controller())).unwrap();
    let mut client = Client::connect(handle.addr(), TIMEOUT).unwrap();
    let replica = controller();
    for bad in [
        RelayOption::Bounce(RelayId(2)),
        RelayOption::Transit(RelayId(0), RelayId(5)),
    ] {
        let mut cands = candidates();
        cands.push(bad);
        assert_bad_request(client.select(0, T, 0, 1, &cands));
        assert_bad_request(client.report(T, 0, 1, bad, PathMetrics::new(80.0, 0.1, 1.0)));
    }
    assert!(!handle
        .controller()
        .knows_option(RelayOption::Bounce(RelayId(2))));
    assert!(handle
        .controller()
        .knows_option(RelayOption::Transit(RelayId(1), RelayId(0))));

    // The same connection still serves, and the controller saw nothing of
    // the rejected requests.
    let sel = client.select(1, T, 0, 1, &candidates()).unwrap();
    assert_eq!(sel, replica.select(1, T, 0, 1, &candidates()));
    let m = PathMetrics::new(80.0, 0.1, 1.0);
    let w = client.report(T, 0, 1, sel.option, m).unwrap();
    assert_eq!(w, replica.report(T, 0, 1, sel.option, &m));
    assert_eq!(
        client.snapshot().unwrap(),
        replica.selection_snapshot_json()
    );
    handle.stop();
}
