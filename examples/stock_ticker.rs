//! Stock-quote dissemination (§4.1) over real threaded endpoints.
//!
//! A quote feed publishes prices for three symbols through an LBRM
//! sender; broker terminals hold [`QuoteBoard`]s fed by LBRM receivers.
//! One terminal is partitioned during a price move and recovers the
//! missed quotes from the logging server after reconnecting — the
//! "intermittent connectivity" story, end to end on the in-process hub
//! transport (swap in `UdpTransport` for real multicast).
//!
//! ```sh
//! cargo run --example stock_ticker
//! ```

use std::time::{Duration, Instant};

use lbrm::apps::quotes::{QuoteBoard, QuoteFeed};
use lbrm::core::sender::Sender;
use lbrm::core::trace::Tracer;
use lbrm::harness::{DisScenarioConfig, GroupPlan};
use lbrm::net::{EndpointEvent, Hub};
use lbrm::wire::HostId;

fn main() {
    // The feed, one logging server and two broker desks, on hub hosts
    // h1, h2, ...
    let config = DisScenarioConfig {
        sites: 1,
        receivers_per_site: 2,
        secondary_loggers: false,
        ..DisScenarioConfig::default()
    };
    let mut hosts = 0;
    let plan = GroupPlan::place(&config, |_| {
        hosts += 1;
        HostId(hosts)
    });
    let hub = Hub::new();
    let group = plan.spawn(
        |role| hub.attach(role.host()),
        |_| Tracer::disabled(),
        Instant::now(),
    );
    let feed_handle = &group.sender;
    let desk_b = plan.receivers[0][1];
    let mut desks: Vec<_> = group
        .receivers
        .into_iter()
        .map(|(host, handle)| (host, handle, QuoteBoard::new()))
        .collect();
    // Let everyone join before the first quote.
    std::thread::sleep(Duration::from_millis(20));

    let mut feed = QuoteFeed::new();

    println!("stock ticker over LBRM (hub transport)\n");

    // Three rounds of quotes; desk B is partitioned during round two.
    let rounds: [&[(&str, u64)]; 3] = [
        &[("ACME", 10_000), ("GLOBX", 4_250), ("INITECH", 99)],
        &[("ACME", 10_450), ("GLOBX", 4_110)],
        &[("ACME", 10_700), ("INITECH", 120)],
    ];
    for (i, quotes) in rounds.iter().enumerate() {
        if i == 1 {
            println!("-- desk B loses connectivity --");
            hub.set_partitioned(desk_b, true);
        }
        for &(symbol, cents) in *quotes {
            let sym = symbol.to_owned();
            feed_send(feed_handle, &mut feed, sym, cents);
        }
        std::thread::sleep(Duration::from_millis(60));
        if i == 1 {
            println!("-- desk B reconnects --");
            hub.set_partitioned(desk_b, false);
        }
    }

    // Give recovery (heartbeat-driven detection + NACK) time to finish.
    std::thread::sleep(Duration::from_millis(800));

    for (host, handle, board) in &mut desks {
        while let Some(ev) = handle.event_timeout(Duration::from_millis(10)) {
            if let EndpointEvent::Delivery(d) = ev {
                board.on_delivery(&d);
            }
        }
        println!(
            "\ndesk {host}: {} quotes applied, {} superseded",
            board.applied, board.superseded
        );
        for symbol in ["ACME", "GLOBX", "INITECH"] {
            if let Some(q) = board.quote(symbol) {
                println!(
                    "  {symbol:<8} ${}.{:02}  (rev {})",
                    q.price_cents / 100,
                    q.price_cents % 100,
                    q.revision
                );
            }
        }
    }
    println!(
        "\nBoth desks converge to identical final prices: desk B recovered the\n\
         quotes it missed from the logging server, and last-revision-wins kept\n\
         recovered (stale) quotes from regressing fresher ones."
    );
}

/// Publishes one quote through the sender endpoint.
fn feed_send(
    handle: &lbrm::net::EndpointHandle<Sender>,
    feed: &mut QuoteFeed,
    symbol: String,
    cents: u64,
) {
    // QuoteFeed needs the Sender to publish; run it inside the endpoint.
    let mut feed_local = std::mem::take(feed);
    let (tx, rx) = std::sync::mpsc::channel();
    handle
        .call(move |s: &mut Sender, now, out| {
            let q = feed_local.publish(s, now, &symbol, cents, out);
            let _ = tx.send((feed_local, q));
        })
        .expect("endpoint alive");
    let (feed_back, q) = rx.recv().expect("publish ran");
    *feed = feed_back;
    println!(
        "published {:<8} ${}.{:02} (rev {})",
        q.symbol,
        q.price_cents / 100,
        q.price_cents % 100,
        q.revision
    );
}
