//! WWW page invalidation (§4.3, Appendix A), end to end in the
//! simulator.
//!
//! An HTTP server associates its documents with a multicast group via
//! the `<!MULTICAST...>` first-line tag. Two browsers cache a page; the
//! server edits it twice. The first update is a plain invalidation
//! (RELOAD lights up); the second carries the new body (the §4.3
//! auto-dissemination extension) so caches refresh in place. One
//! browser misses an update and recovers it from the logging process —
//! arriving with the `RETRANS` semantics of Appendix A.
//!
//! ```sh
//! cargo run --example web_invalidation
//! ```

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use lbrm::apps::invalidation::{update_payload, BrowserCache, DocServer};
use lbrm::core::receiver::Receiver;
use lbrm::core::sender::Sender;
use lbrm::harness::{call_at, DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm::wire::text::multicast_tag;

const URL: &str = "http://www-DSG.Stanford.EDU/groupMembers.html";

fn main() {
    println!("HTML document invalidation (Appendix A)\n");
    println!(
        "document head: {}",
        multicast_tag(Ipv4Addr::new(234, 12, 29, 72))
    );
    println!("document url:  {URL}\n");

    // The server and its logging process share a site; each browser
    // sits at a site of its own and recovers from the logging process.
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 2,
        receivers_per_site: 1,
        secondary_loggers: false,
        // Browser 2 sits behind a flaky link that eats the first update.
        site_params_for: Some(Arc::new(|site| match site {
            1 => SiteParams {
                tail_in_loss: LossModel::outage(
                    SimTime::from_millis(9_900),
                    Duration::from_millis(300),
                ),
                ..SiteParams::distant()
            },
            _ => SiteParams::distant(),
        })),
        seed: 72,
        ..DisScenarioConfig::default()
    });
    let (server, browsers) = (sc.plan.src_host, sc.all_receivers());

    // The HTTP server: two edits to the same document.
    call_at(
        &mut sc.world,
        server,
        SimTime::from_secs(10),
        |s: &mut Sender, now, out| {
            DocServer::new().publish_update(s, now, URL, None, out);
        },
    );
    call_at(
        &mut sc.world,
        server,
        SimTime::from_secs(20),
        |s: &mut Sender, now, out| {
            let body = Some("<h1>members: 42</h1>");
            s.send(now, update_payload(s.next_seq(), URL, body), out);
        },
    );
    let world = &mut sc.world;
    world.run_until(SimTime::from_secs(40));

    for (name, browser) in [
        ("browser-1", browsers[0]),
        ("browser-2 (flaky link)", browsers[1]),
    ] {
        let a = world.actor::<MachineActor<Receiver>>(browser);
        let mut cache = BrowserCache::new();
        cache.store(URL, "<h1>members: 41</h1>");
        println!("{name}:");
        for (at, d) in &a.deliveries {
            let wire_line = String::from_utf8_lossy(&d.payload);
            let line = wire_line.lines().next().unwrap_or("");
            let shown = if d.recovered {
                line.replacen("TRANS", "RETRANS", 1)
            } else {
                line.to_owned()
            };
            cache.on_delivery(d).expect("valid invalidation");
            let state = if cache.is_valid(URL) {
                "cache fresh".to_owned()
            } else {
                "RELOAD highlighted".to_owned()
            };
            println!("  {at}  {shown}  → {state}");
        }
        println!(
            "  final body: {:?}  (invalidations: {}, auto-refreshed: {})\n",
            cache.get(URL).map(|p| p.body.clone()).unwrap_or_default(),
            cache.invalidations,
            cache.auto_refreshed
        );
    }
    println!(
        "browser-2 missed update #1, learned of it from the heartbeat, and\n\
         pulled the retransmission from the server's logging process."
    );
}
