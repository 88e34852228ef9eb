//! Pipelined requests over the real socket plane: a client that writes many
//! requests before reading any response gets exactly the bytes it would
//! have got one RPC at a time, in request order, and the handler's batched
//! writes never hold a response the client is waiting for.

// Test code: panicking on a failed connect or round trip is the right
// behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use via_core::predictor::GeoPrior;
use via_core::BackboneFn;
use via_model::ids::RelayId;
use via_model::metrics::PathMetrics;
use via_model::options::RelayOption;
use via_model::time::{SimTime, WindowLen};
use via_server::{serve, Controller, Request, Response, ServerConfig};
use via_testbed::protocol::{read_body, write_frame};

const TIMEOUT: Duration = Duration::from_secs(10);
const N_KEYS: u32 = 4;
const N_RELAYS: u32 = 3;

fn config() -> ServerConfig {
    ServerConfig {
        seed: 11,
        window: WindowLen::hours(1),
        epsilon: 0.1,
        budget: Some(0.5),
        shards: 4,
        start: SimTime::ZERO,
        ..ServerConfig::default()
    }
}

fn controller() -> Controller {
    let prior = GeoPrior::new(
        vec![
            via_netsim::GeoPoint::new(40.7, -74.0),
            via_netsim::GeoPoint::new(51.5, -0.1),
            via_netsim::GeoPoint::new(35.7, 139.7),
            via_netsim::GeoPoint::new(-33.9, 151.2),
        ],
        vec![
            via_netsim::GeoPoint::new(38.9, -77.5),
            via_netsim::GeoPoint::new(50.1, 8.7),
            via_netsim::GeoPoint::new(1.3, 103.8),
        ],
    );
    let backbone: BackboneFn = Arc::new(|a: RelayId, b: RelayId| {
        let d = (f64::from(a.0) - f64::from(b.0)).abs();
        PathMetrics::new(15.0 + 12.0 * d, 0.04, 0.8)
    });
    Controller::new(config(), prior, backbone)
}

fn candidates() -> Vec<RelayOption> {
    let mut c = vec![RelayOption::Direct];
    c.extend((0..N_RELAYS).map(|r| RelayOption::Bounce(RelayId(r))));
    c.push(RelayOption::Transit(RelayId(0), RelayId(1)));
    c
}

/// `calls` select/report request pairs spread over two windows (so the
/// batch crosses a rollover). Session 1 is the first id a fresh controller
/// issues.
fn select_report_pairs(calls: u64) -> Vec<Request> {
    let cands = candidates();
    let spacing = 2 * WindowLen::hours(1).secs() / calls;
    let mut reqs = Vec::new();
    for id in 0..calls {
        let src = (id % u64::from(N_KEYS)) as u32;
        let dst = (src + 1 + (id / 7 % 3) as u32) % N_KEYS;
        let t = SimTime(id * spacing);
        let option = cands[(id % cands.len() as u64) as usize];
        let m = PathMetrics::new(60.0 + (id * 37 % 90) as f64, 0.2, 1.0 + (id % 5) as f64);
        reqs.push(Request::Select {
            session: 1,
            call_id: id,
            t,
            src_key: src,
            dst_key: dst,
            candidates: cands.clone(),
        });
        reqs.push(Request::Report {
            session: 1,
            t,
            src_key: src,
            dst_key: dst,
            option,
            metrics: m,
        });
    }
    reqs
}

/// The response bodies an in-process controller gives `reqs`, in order.
fn replica_bodies(replica: &Controller, reqs: &[Request]) -> Vec<Vec<u8>> {
    reqs.iter()
        .map(|req| {
            let resp = match req {
                Request::Select {
                    call_id,
                    t,
                    src_key,
                    dst_key,
                    candidates,
                    ..
                } => {
                    let sel = replica.select(*call_id, *t, *src_key, *dst_key, candidates);
                    Response::Selected {
                        option: sel.option,
                        admitted: sel.admitted,
                        explored: sel.explored,
                        window: sel.window,
                    }
                }
                Request::Report {
                    t,
                    src_key,
                    dst_key,
                    option,
                    metrics,
                    ..
                } => Response::Reported {
                    window: replica.report(*t, *src_key, *dst_key, *option, metrics),
                },
                Request::Snapshot { .. } => Response::Snapshot {
                    json: replica.selection_snapshot_json(),
                },
                Request::Shutdown { .. } => Response::Bye,
                Request::Hello => unreachable!("the handshake is not replayed"),
            };
            body(&resp)
        })
        .collect()
}

fn frames(reqs: &[Request]) -> Vec<u8> {
    let mut wire = Vec::new();
    for r in reqs {
        write_frame(&mut wire, r).unwrap();
    }
    wire
}

fn body<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, msg).unwrap();
    wire.split_off(4)
}

fn next_body(stream: &mut TcpStream) -> Vec<u8> {
    let mut b = Vec::new();
    read_body(stream, &mut b).unwrap();
    b
}

/// A raw connection past the `Hello` handshake.
fn connect(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    write_frame(&mut stream, &Request::Hello).unwrap();
    assert_eq!(
        next_body(&mut stream),
        body(&Response::Welcome { session: 1 })
    );
    stream
}

#[test]
fn one_write_of_many_requests_gets_the_one_at_a_time_bytes() {
    let reqs = select_report_pairs(120);

    // Every request in one write_all (from a writer thread, so a full
    // socket buffer on either side cannot stall the test).
    let handle = serve(Arc::new(controller())).unwrap();
    let mut stream = connect(handle.addr());
    let mut writer = stream.try_clone().unwrap();
    let wire = frames(&reqs);
    let pipelined: Vec<Vec<u8>> = std::thread::scope(|s| {
        s.spawn(move || writer.write_all(&wire).unwrap());
        (0..reqs.len()).map(|_| next_body(&mut stream)).collect()
    });
    let pipelined_snapshot = handle.controller().selection_snapshot_json();
    handle.stop();

    // The same requests, one round trip each, on a fresh server.
    let handle = serve(Arc::new(controller())).unwrap();
    let mut stream = connect(handle.addr());
    let one_at_a_time: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| {
            write_frame(&mut stream, r).unwrap();
            next_body(&mut stream)
        })
        .collect();
    handle.stop();

    let replica = controller();
    let expected = replica_bodies(&replica, &reqs);
    assert_eq!(pipelined.len(), 2 * 120);
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(pipelined[i], *want, "pipelined response {i} differs");
        assert_eq!(one_at_a_time[i], *want, "round-trip response {i} differs");
    }
    assert_eq!(pipelined_snapshot, replica.selection_snapshot_json());
}

#[test]
fn shutdown_mid_batch_answers_everything_before_it_and_nothing_after() {
    let mut reqs = select_report_pairs(3);
    reqs.insert(3, Request::Shutdown { session: 1 });
    let handle = serve(Arc::new(controller())).unwrap();
    let ctrl = Arc::clone(handle.controller());
    let mut stream = connect(handle.addr());
    stream.write_all(&frames(&reqs)).unwrap();

    let replica = controller();
    let expected = replica_bodies(&replica, &reqs[..4]);
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(next_body(&mut stream), *want, "response {i} differs");
    }
    assert_eq!(expected[3], body(&Response::Bye));
    // The handler closes the connection after `Bye`: no further frame.
    let mut rest = Vec::new();
    assert!(
        read_body(&mut stream, &mut rest).is_err(),
        "a frame followed Bye"
    );
    handle.wait();
    assert_eq!(
        ctrl.selection_snapshot_json(),
        replica.selection_snapshot_json(),
        "requests after Shutdown must not reach the controller"
    );
}

#[test]
fn request_split_across_writes_with_a_response_pending_does_not_deadlock() {
    let reqs = select_report_pairs(2);
    let handle = serve(Arc::new(controller())).unwrap();
    let mut stream = connect(handle.addr());
    let first = frames(&reqs[..1]);
    let second = frames(&reqs[1..2]);
    let half = second.len() / 2;

    // A complete Select plus half of the Report: the Selected response must
    // arrive before the rest of the Report is sent.
    let mut part = first;
    part.extend_from_slice(&second[..half]);
    stream.write_all(&part).unwrap();
    let replica = controller();
    let expected = replica_bodies(&replica, &reqs[..2]);
    assert_eq!(next_body(&mut stream), expected[0]);
    stream.write_all(&second[half..]).unwrap();
    assert_eq!(next_body(&mut stream), expected[1]);
    handle.stop();
}

#[test]
fn snapshot_inside_a_batch_arrives_intact_and_in_order() {
    let mut reqs = select_report_pairs(40);
    reqs.insert(41, Request::Snapshot { session: 1 });
    let handle = serve(Arc::new(controller())).unwrap();
    let mut stream = connect(handle.addr());
    stream.write_all(&frames(&reqs)).unwrap();

    let replica = controller();
    let expected = replica_bodies(&replica, &reqs);
    for (i, want) in expected.iter().enumerate() {
        let got = next_body(&mut stream);
        assert_eq!(got, *want, "response {i} differs");
    }
    let snapshot: Response = serde_json::from_slice(&expected[41]).unwrap();
    assert!(
        matches!(&snapshot, Response::Snapshot { json } if json.len() > 1000),
        "the snapshot under test is a real one, got {snapshot:?}"
    );
    handle.stop();
}
