//! The host kernel's metrics registry: after a 2-site write ping-pong
//! over the channel wire, `HostCluster::metrics().render()` carries
//! exactly the keys it always has — the benchmark reads `fault.write`,
//! `deliver.msgs`, `timer.fired` and `wire.tx.*` by name.

use mirage_core::ProtocolConfig;
use mirage_host::{
    ClusterOpts,
    HostCluster,
    WireChoice,
};
use mirage_types::{
    Delta,
    PageNum,
};

/// The rendered key set, taken from the string-keyed counters the typed
/// ones replaced.
const KEYS: &[&str] = &[
    // counters
    "s0.deliver.msgs",
    "s0.fault.write",
    "s0.proto.CopyRelinquished",
    "s0.proto.DoneSent",
    "s0.proto.FaultTaken",
    "s0.proto.GrantSent",
    "s0.proto.Installed",
    "s0.proto.RequestQueued",
    "s0.proto.RequestSent",
    "s0.proto.RoundStart",
    "s0.proto.ServeDone",
    "s0.proto.ServeStart",
    "s0.send.msgs",
    "s1.deliver.msgs",
    "s1.fault.write",
    "s1.proto.CopyRelinquished",
    "s1.proto.DoneSent",
    "s1.proto.FaultTaken",
    "s1.proto.GrantSent",
    "s1.proto.Installed",
    "s1.proto.RequestSent",
    "s1.proto.RoundStart",
    "s1.send.msgs",
    // gauges
    "s0.wire.reconnects",
    "s0.wire.rx.bytes",
    "s0.wire.rx.dup",
    "s0.wire.rx.frames",
    "s0.wire.rx.gap",
    "s0.wire.rx.stale",
    "s0.wire.tx.bytes",
    "s0.wire.tx.dropped",
    "s0.wire.tx.frames",
    "s1.wire.reconnects",
    "s1.wire.rx.bytes",
    "s1.wire.rx.dup",
    "s1.wire.rx.frames",
    "s1.wire.rx.gap",
    "s1.wire.rx.stale",
    "s1.wire.tx.bytes",
    "s1.wire.tx.dropped",
    "s1.wire.tx.frames",
];

#[test]
fn ping_pong_metrics_keep_their_key_set() {
    let mut config = ProtocolConfig::paper(Delta(0));
    config.trace = true;
    let cluster = HostCluster::start_with(ClusterOpts {
        sites: 2,
        config,
        wire: WireChoice::Chan,
        advisor: None,
    });
    let seg = cluster.create_segment(0, 1);
    let views = [cluster.view(0, seg), cluster.view(1, seg)];
    for i in 0..20u32 {
        views[1 - (i % 2) as usize].write_u32(PageNum(0), 0, i);
    }
    let render = cluster.metrics().render();
    let keys: Vec<&str> = render
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .collect();
    assert_eq!(keys, KEYS, "{render}");
}
