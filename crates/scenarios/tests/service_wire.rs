//! The what-if service over its actual TCP wire: N concurrent clients
//! against one server, racing submits/status/cancel, identical concurrent
//! requests deduplicating, validation errors crossing the wire with their
//! alternatives intact, and server-fetched artifacts byte-identical to a
//! serial input-order run.

use scenarios::server::Server;
use scenarios::service::{Service, ServiceConfig};
use scenarios::wire::Client;
use scenarios::{
    Error, JobOrder, Metrics, ParamValue, Params, Registry, Scenario, SweepRequest, SweepStatus,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

fn cache_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "wire-cache-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Sleepy {
    name: &'static str,
    millis: u64,
}

impl Scenario for Sleepy {
    fn name(&self) -> &'static str {
        self.name
    }
    fn title(&self) -> &'static str {
        "sleeps then reports"
    }
    fn default_params(&self) -> Params {
        Params::new().with("k", 1u64)
    }
    fn run(&self, sim: &mut des::Simulation, params: &Params) -> Metrics {
        std::thread::sleep(Duration::from_millis(self.millis));
        let mut m = Metrics::new();
        m.push("k", params.u64("k", 1) as f64);
        m.push("draw", sim.stream("draw").f64());
        m
    }
}

fn sleepy_registry() -> Registry {
    let mut registry = Registry::new();
    registry.register(Box::new(Sleepy {
        name: "slow",
        millis: 25,
    }));
    registry.register(Box::new(Sleepy {
        name: "fast",
        millis: 1,
    }));
    registry
}

/// Boot a server on an OS-picked port; returns its address and the thread
/// running the accept loop (joined after a client sends `shutdown`).
fn serve(registry: Registry, config: ServiceConfig) -> (SocketAddr, JoinHandle<()>) {
    let service = Service::start(registry, config).expect("service starts");
    let server = Server::bind(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

#[test]
fn server_artifact_bytes_match_the_direct_runner() {
    let request = SweepRequest::new()
        .scenario("fig07_latency")
        .axis(
            "reps",
            vec![ParamValue::parse("40"), ParamValue::parse("80")],
        )
        .with_seeds(2);

    // The reference: an in-process service with one worker, natural order.
    let direct = {
        let service = Service::start(Registry::standard(), ServiceConfig::new().with_threads(1))
            .expect("serial service starts");
        let id = service
            .submit(&request.clone().with_order(JobOrder::Input))
            .expect("serial submit")
            .id;
        let response = service.wait(id).expect("serial wait");
        assert!(matches!(response.status, SweepStatus::Done));
        response.artifact.expect("artifact")
    };

    let (addr, server) = serve(Registry::standard(), ServiceConfig::new().with_threads(2));
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    let receipt = client.submit(&request).expect("submit");
    let response = client.wait(receipt.id).expect("wait");
    assert!(matches!(response.status, SweepStatus::Done));
    assert_eq!(
        response.artifact.expect("artifact"),
        direct,
        "artifact bytes changed crossing the wire"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn validation_errors_cross_the_wire_with_alternatives() {
    let (addr, server) = serve(sleepy_registry(), ServiceConfig::new().with_threads(1));
    let mut client = Client::connect(addr).expect("connect");

    let err = client
        .submit(&SweepRequest::new().scenario("nonesuch"))
        .expect_err("unknown scenario must be refused");
    match &err {
        Error::Server { kind, message } => {
            assert_eq!(kind, "unknown_scenario");
            assert!(
                message.contains("slow") && message.contains("fast"),
                "error must list the known scenarios: {message}"
            );
        }
        other => panic!("expected a server error, got {other}"),
    }

    let err = client
        .submit(
            &SweepRequest::new()
                .scenario("fast")
                .axis("warp", vec![ParamValue::parse("9")]),
        )
        .expect_err("unknown axis must be refused");
    match &err {
        Error::Server { kind, message } => {
            assert_eq!(kind, "unknown_axis");
            assert!(
                message.contains("warp") && message.contains("tunables"),
                "error must name the axis and the tunables: {message}"
            );
        }
        other => panic!("expected a server error, got {other}"),
    }

    let err = client.status(4242).expect_err("unknown id must be refused");
    assert!(matches!(&err, Error::Server { kind, .. } if kind == "unknown_request"));

    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// N clients hammer one server with interleaved submit/status/cancel.
/// Every even client cancels its request, every odd one waits it out;
/// the registry must stay coherent (right terminal states, all ids
/// distinct, list sees everything).
#[test]
fn concurrent_clients_submit_status_and_cancel() {
    const CLIENTS: usize = 6;
    let (addr, server) = serve(sleepy_registry(), ServiceConfig::new().with_threads(2));

    let workers: Vec<JoinHandle<(u64, bool)>> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Distinct k-axis per client — no accidental dedup here.
                let request = SweepRequest::new()
                    .scenario("slow")
                    .axis(
                        "k",
                        (1..=4)
                            .map(|k| ParamValue::U64(k + 100 * i as u64))
                            .collect::<Vec<ParamValue>>(),
                    )
                    .with_seeds(2);
                let receipt = client.submit(&request).expect("submit");
                let cancels = i % 2 == 0;
                if cancels {
                    client.cancel(receipt.id).expect("cancel");
                }
                // Status polling must never error mid-flight.
                let status = client.status(receipt.id).expect("status");
                assert_eq!(status.id, receipt.id);
                let terminal = client.wait(receipt.id).expect("wait");
                if cancels {
                    assert!(
                        matches!(terminal.status, SweepStatus::Cancelled),
                        "client {i} cancelled but ended {}",
                        terminal.status
                    );
                } else {
                    assert!(
                        matches!(terminal.status, SweepStatus::Done),
                        "client {i} ended {}",
                        terminal.status
                    );
                    assert!(terminal.artifact.is_some());
                }
                (receipt.id, cancels)
            })
        })
        .collect();

    let outcomes: Vec<(u64, bool)> = workers
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let mut ids: Vec<u64> = outcomes.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CLIENTS, "request ids must be distinct");

    let mut client = Client::connect(addr).expect("connect");
    let listed = client.list().expect("list");
    // Ids are issued at submit, so ascending id order is submission order.
    let listed_ids: Vec<u64> = listed.iter().map(|r| r.id).collect();
    assert_eq!(
        listed_ids, ids,
        "list must return requests in submission order"
    );
    for (id, cancelled) in &outcomes {
        let row = listed
            .iter()
            .find(|r| r.id == *id)
            .unwrap_or_else(|| panic!("request {id} missing from list"));
        if *cancelled {
            assert!(matches!(row.status, SweepStatus::Cancelled));
        } else {
            assert!(matches!(row.status, SweepStatus::Done));
        }
    }
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// Two clients firing the *same* request concurrently: exactly one
/// executes, the other rides along on the same id and both get the same
/// bytes.
#[test]
fn identical_concurrent_requests_share_one_execution() {
    let (addr, server) = serve(sleepy_registry(), ServiceConfig::new().with_threads(2));
    let request = SweepRequest::new()
        .scenario("slow")
        .axis(
            "k",
            (1..=6).map(ParamValue::U64).collect::<Vec<ParamValue>>(),
        )
        .with_seeds(2);

    let racers: Vec<JoinHandle<(u64, bool, String)>> = (0..2)
        .map(|_| {
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let receipt = client.submit(&request).expect("submit");
                let response = client.wait(receipt.id).expect("wait");
                (
                    receipt.id,
                    receipt.deduped,
                    response.artifact.expect("artifact"),
                )
            })
        })
        .collect();
    let outcomes: Vec<(u64, bool, String)> = racers
        .into_iter()
        .map(|h| h.join().expect("racer"))
        .collect();

    assert_eq!(outcomes[0].0, outcomes[1].0, "racers must share one id");
    assert_eq!(
        outcomes.iter().filter(|(_, deduped, _)| *deduped).count(),
        1,
        "exactly one racer must be the dedup rider"
    );
    assert_eq!(outcomes[0].2, outcomes[1].2, "artifact bytes must match");
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

/// Warm re-submit over the wire: a second server generation on the same
/// cache directory answers the same request fully from cache.
#[test]
fn warm_resubmit_over_the_wire_is_fully_cache_served() {
    let dir = cache_dir("warm");
    let request = SweepRequest::new().scenario("fast").with_seeds(3);

    let cold_artifact = {
        let (addr, server) = serve(
            sleepy_registry(),
            ServiceConfig::new().with_threads(2).with_cache_dir(&dir),
        );
        let mut client = Client::connect(addr).expect("connect");
        let receipt = client.submit(&request).expect("cold submit");
        assert_eq!(receipt.cache_hits, 0);
        let artifact = client
            .wait(receipt.id)
            .expect("cold wait")
            .artifact
            .expect("artifact");
        client.shutdown().expect("shutdown");
        server.join().expect("server thread");
        artifact
    };

    let (addr, server) = serve(
        sleepy_registry(),
        ServiceConfig::new().with_threads(2).with_cache_dir(&dir),
    );
    let mut client = Client::connect(addr).expect("connect");
    let receipt = client.submit(&request).expect("warm submit");
    assert_eq!(
        receipt.cache_hits, receipt.total_jobs,
        "warm submit must be 100% cache-served"
    );
    assert!(
        matches!(receipt.status, SweepStatus::Done),
        "all-hit submit must come back terminal, got {}",
        receipt.status
    );
    assert_eq!(
        client
            .wait(receipt.id)
            .expect("warm wait")
            .artifact
            .expect("artifact"),
        cold_artifact,
        "cache-served artifact bytes diverged across server generations"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}
