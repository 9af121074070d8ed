//! Loopback integration tests of the wire front-end: bit-identity of
//! streamed responses, the blocking degenerate case, retry idempotency,
//! remote error reconstruction, graceful drain, and the load generator.

use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_net::frame::FrameDecoder;
use sccg_net::wire::{Message, WireRequestSpec, WireResponse};
use sccg_net::{ClientConfig, LoadGenConfig, NetConfig, WireClient, WireError, WireServer};
use sccg_serve::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A small deterministic workload registered into a fresh service.
fn service(tiles: u32, seed: u64) -> (Arc<ComparisonService>, SlideId, SlideId) {
    let dataset = generate_dataset(&DatasetSpec {
        name: "net-test".into(),
        tiles,
        polygons_per_tile: 60,
        tile_size: 512,
        seed,
        nucleus_radius: 6,
    });
    let store = SlideStore::new();
    let first = store.register_slide(
        "result-a",
        dataset.tiles.iter().map(|t| t.first.clone()).collect(),
    );
    let second = store.register_slide(
        "result-b",
        dataset.tiles.iter().map(|t| t.second.clone()).collect(),
    );
    let service = ComparisonService::new(store, ServiceConfig::default()).expect("service starts");
    (Arc::new(service), first, second)
}

/// Normalizes the one legitimately run-dependent field so the rest of the
/// response can be compared bit-for-bit.
fn without_cache_flag(mut response: WireResponse) -> WireResponse {
    response.cache_hit = false;
    response
}

#[test]
fn streamed_query_is_bit_identical_to_the_in_process_response() {
    let (service, first, second) = service(5, 41);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");

    // The wire query runs *cold*: the pool computes it via the wire path.
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");
    let mut streamed_positions = Vec::new();
    let outcome = client
        .query_streaming(&WireRequestSpec::new(first, second), |position, _| {
            streamed_positions.push(position)
        })
        .expect("streamed query resolves");

    // One tile frame per shard arrived before the summary.
    assert_eq!(
        outcome.tile_frames, 5,
        "every tile streamed before the summary"
    );
    let mut sorted = streamed_positions.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3, 4], "each position exactly once");

    // The same request in-process now hits the response cache, which stores
    // the *exact* response the wire query was built from — so equality here
    // is bit-identity of every area, count and similarity, including the
    // engine attribution per tile.
    let in_process = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        in_process.cache_hit,
        "wire query populated the shared cache"
    );
    assert_eq!(
        without_cache_flag(outcome.response.clone()),
        without_cache_flag(WireResponse::of_response(&in_process)),
        "wire response is bit-identical to the in-process response"
    );
    assert!(outcome.response.similarity() > 0.0);
}

#[test]
fn blocking_mode_is_the_one_frame_degenerate_case() {
    let (service, first, second) = service(3, 42);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");

    let blocking = client
        .query_blocking(&WireRequestSpec::new(first, second))
        .expect("blocking query resolves");
    assert_eq!(blocking.tile_frames, 0, "no tile frames in blocking mode");
    assert_eq!(blocking.response.tiles.len(), 3, "tile list travels inline");

    let streamed = client
        .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
        .expect("streamed repeat resolves");
    assert_eq!(
        without_cache_flag(streamed.response),
        without_cache_flag(blocking.response),
        "both modes resolve the identical response"
    );

    // The stats probe rides the same connection, bit-identical to the
    // in-process snapshot (nothing runs between the capture points: this
    // client's queries are done and the service is otherwise idle).
    let remote = client.stats().expect("stats probe resolves");
    let local = sccg_net::wire::WireStats::of_stats(&service.stats());
    assert_eq!(remote, local, "wire stats match the in-process snapshot");
    assert_eq!(remote.submitted, 2);
    assert_eq!(remote.cache_hits, 1, "the streamed repeat hit the cache");
    assert_eq!(
        remote.policy, "residency-aware",
        "the default placement policy travels by name"
    );
    assert_eq!(
        remote.engines.len(),
        remote.shards_per_engine.len(),
        "one health row per engine"
    );
    assert!(remote.engines.iter().all(|health| health.alive));
}

/// Raw-socket probe: a duplicated request (the client retry case) is
/// re-acked and answered from the routing cache without recomputing.
#[test]
fn duplicate_requests_replay_without_recomputation() {
    let (service, first, second) = service(2, 43);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let send = |stream: &mut TcpStream, message: &Message| {
        let frame = message.to_frame();
        let mut bytes = Vec::new();
        sccg_net::frame::encode_frame(frame.kind, &frame.body, &mut bytes);
        stream.write_all(&bytes).expect("send");
    };
    let mut recv = |stream: &mut TcpStream| -> Message {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = decoder.next_frame().expect("valid frame") {
                return Message::of_frame(&frame).expect("valid message");
            }
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "server closed early");
            decoder.feed(&buf[..n]);
        }
    };

    send(&mut stream, &Message::Hello { client_id: 0 });
    let client_id = match recv(&mut stream) {
        Message::HelloAck { client_id } => client_id,
        other => panic!("expected HelloAck, got {other:?}"),
    };
    assert!(client_id > 0);

    let query = Message::Query {
        request_id: 7,
        streaming: false,
        spec: WireRequestSpec::new(first, second),
    };
    send(&mut stream, &query);
    assert!(matches!(recv(&mut stream), Message::Ack { request_id: 7 }));
    let original = match recv(&mut stream) {
        Message::Summary { response, .. } => response,
        other => panic!("expected Summary, got {other:?}"),
    };
    let submitted_once = service.stats().submitted;

    // The retry: same request id. Must be re-acked and replayed, not rerun.
    send(&mut stream, &query);
    assert!(matches!(recv(&mut stream), Message::Ack { request_id: 7 }));
    let replayed = match recv(&mut stream) {
        Message::Summary {
            tiles_included,
            response,
            ..
        } => {
            assert!(tiles_included, "replays are self-contained");
            response
        }
        other => panic!("expected replayed Summary, got {other:?}"),
    };
    assert_eq!(
        replayed, original,
        "replay is byte-for-byte the stored response"
    );
    assert_eq!(
        service.stats().submitted,
        submitted_once,
        "the duplicate never reached the service"
    );
}

#[test]
fn remote_errors_reconstruct_their_variant_across_the_wire() {
    let (service, first, _second) = service(2, 44);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");

    let mut unknown = WireRequestSpec::new(first, first);
    unknown.second = 9_999;
    match client.query_blocking(&unknown) {
        Err(WireError::Remote(error)) => {
            assert_eq!(error, sccg::SccgError::UnknownSlide { slide: 9_999 });
        }
        other => panic!("expected a remote UnknownSlide error, got {other:?}"),
    }

    // The connection survives the failed query.
    let ok = client
        .query_blocking(&WireRequestSpec::new(first, first))
        .expect("same-slide comparison still works");
    assert_eq!(ok.response.tiles.len(), 2);
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_stops_accepting() {
    let (service, first, second) = service(3, 45);
    let mut server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let addr = server.local_addr();

    // A connected client with one finished query, connection held open.
    let mut client = WireClient::connect(addr, ClientConfig::default()).expect("connects");
    let outcome = client
        .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
        .expect("query before drain resolves");
    assert_eq!(outcome.response.tiles.len(), 3);

    // Drain must complete even though the client never disconnected, and
    // the flushed response above must have arrived intact (it did — we
    // already decoded it).
    server.shutdown();

    // Queries after the drain fail cleanly rather than hanging.
    let config = ClientConfig::default()
        .with_ack_timeout(Duration::from_millis(50))
        .with_max_retries(1);
    let err = client
        .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
        .expect_err("drained server answers nothing");
    assert!(
        matches!(err, WireError::Disconnected | WireError::Timeout { .. }),
        "got {err:?}"
    );
    // And new connections are refused or immediately closed.
    match WireClient::connect(addr, config) {
        Err(_) => {}
        Ok(_) => panic!("drained server accepted a new connection"),
    }
}

#[test]
fn loadgen_drives_concurrent_clients_and_reports_latency() {
    let (service, first, second) = service(4, 46);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");

    let baseline = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    let baseline = WireResponse::of_response(&baseline);

    let config = LoadGenConfig::new(vec![WireRequestSpec::new(first, second)])
        .with_clients(4)
        .with_queries_per_client(3);
    let report = sccg_net::run_loadgen(server.local_addr(), &config).expect("load run completes");

    assert_eq!(report.queries, 12);
    assert!(report.qps > 0.0);
    assert!(report.p50_ms > 0.0 && report.p99_ms >= report.p50_ms);
    assert!(report.max_ms >= report.p99_ms);
    assert!(report.tile_frames >= 4, "streaming tiles flowed");
    for outcome in &report.outcomes {
        assert_eq!(
            without_cache_flag(outcome.outcome.response.clone()),
            without_cache_flag(baseline.clone()),
            "every concurrent response is bit-identical to the baseline"
        );
    }
}

#[test]
fn injected_connection_reset_surfaces_typed_and_a_fresh_client_retries() {
    use sccg::{FaultInjector, FaultPlan};

    let (service, first, second) = service(4, 47);
    let baseline = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    let baseline = WireResponse::of_response(&baseline);

    // The server assigns client ids from 1; the first connection is client
    // 1. Its connection drops after 2 post-handshake frames: the ack plus
    // one tile — squarely mid-stream.
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(3).reset_connection(1, 2)));
    let server = WireServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_faults(Arc::clone(&injector)),
    )
    .expect("server starts");

    let mut victim =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");
    assert_eq!(victim.client_id(), 1);
    let err = victim
        .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
        .expect_err("the stream is cut after one tile");
    match err {
        WireError::ResetMidStream {
            request_id,
            tiles_received,
        } => {
            assert_eq!(request_id, 1);
            assert!(
                tiles_received <= 1,
                "at most the one pre-reset tile arrived, got {tiles_received}"
            );
        }
        other => panic!("expected ResetMidStream, got {other:?}"),
    }
    assert_eq!(injector.stats().connection_resets, 1);

    // The reset is retryable: a fresh connection (a new client id, so no
    // scheduled fault) replays the query and gets the bit-identical result.
    let mut retry =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("reconnects");
    let outcome = retry
        .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
        .expect("retry on a fresh connection succeeds");
    assert_eq!(
        without_cache_flag(outcome.response),
        without_cache_flag(baseline),
        "the retried response is bit-identical"
    );
}

#[test]
fn wire_deadline_round_trips_as_the_typed_error() {
    let (service, first, second) = service(3, 48);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");

    // A zero deadline is already expired when the first worker pops a
    // shard: the server answers with wire error code 12, which the client
    // surfaces as the dedicated variant (not a generic Remote error).
    let mut spec = WireRequestSpec::new(first, second);
    spec.deadline_ms = Some(0);
    let err = client
        .query_blocking(&spec)
        .expect_err("deadline already expired");
    match err {
        WireError::DeadlineExceeded {
            request_id,
            deadline_ms,
        } => {
            assert_eq!(request_id, 1);
            assert_eq!(deadline_ms, 0);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The connection survives; a deadline the query easily meets works.
    let mut relaxed = WireRequestSpec::new(first, second);
    relaxed.deadline_ms = Some(60_000);
    let outcome = client
        .query_blocking(&relaxed)
        .expect("a generous deadline resolves normally");
    assert_eq!(outcome.response.tiles.len(), 3);
}
