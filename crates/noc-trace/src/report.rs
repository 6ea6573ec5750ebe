//! Textual per-packet lifetime report.
//!
//! Merges every node's event ring into per-packet timelines: one block
//! per packet id, one line per event, in exact recording order. This is
//! the "why did packet N take 400 cycles" view — grep for the packet id
//! and read its life story.

use crate::event::TraceRecord;
use crate::Tracer;
use std::fmt::Write as _;
use std::io;

/// Writes the lifetime of every traced packet onto `out`, ordered by
/// packet id, one line at a time: the records are borrowed from the
/// tracer's rings, never copied or rendered whole.
///
/// Events lost to ring overwriting are summarized in a header line so a
/// truncated lifetime is never mistaken for a complete one.
///
/// # Errors
///
/// Propagates `out`'s write errors.
pub fn packet_lifetimes(tracer: &Tracer, mut out: impl io::Write) -> io::Result<()> {
    let records = tracer.held_records_by(|r| (r.event.pkt().raw(), r.seq));
    writeln!(
        out,
        "# packet lifetimes: {} events from {} nodes ({} dropped by ring overwrite)",
        records.len(),
        tracer.num_nodes(),
        tracer.dropped_events()
    )?;
    let mut current: Option<u64> = None;
    for rec in records {
        let pkt = rec.event.pkt();
        if current != Some(pkt.raw()) {
            writeln!(out, "\npacket {pkt}:")?;
            current = Some(pkt.raw());
        }
        writeln!(
            out,
            "  cycle {:>8}  node {:>4}  {}",
            rec.cycle,
            rec.node.index(),
            rec.event
        )?;
    }
    Ok(())
}

/// Renders the lifetime of one packet (empty string if never traced).
pub fn packet_lifetime(tracer: &Tracer, pkt_raw: u64) -> String {
    let mut records: Vec<TraceRecord> = tracer.records_in_order();
    records.retain(|r| r.event.pkt().raw() == pkt_raw);
    if records.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "packet P{pkt_raw}:");
    for rec in &records {
        let _ = writeln!(
            out,
            "  cycle {:>8}  node {:>4}  {}",
            rec.cycle,
            rec.node.index(),
            rec.event
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::TraceConfig;
    use noc_core::packet::{MessageClass, Packet, PacketStore};
    use noc_core::topology::NodeId;

    #[test]
    fn lifetimes_group_events_by_packet_in_order() {
        let mut store = PacketStore::new();
        let a = store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(3),
            MessageClass::Request,
            1,
            0,
        ));
        let b = store.insert(Packet::new(
            NodeId::new(1),
            NodeId::new(2),
            MessageClass::Response,
            1,
            0,
        ));
        let cfg = TraceConfig::full();
        let mut t = Tracer::new(&cfg, 4);
        t.set_now(1);
        t.push_event(NodeId::new(0), TraceEvent::Inject { pkt: a, vc: 0 });
        t.push_event(NodeId::new(1), TraceEvent::Inject { pkt: b, vc: 1 });
        t.set_now(2);
        t.push_event(NodeId::new(3), TraceEvent::Eject { pkt: a });
        let mut text = Vec::new();
        packet_lifetimes(&t, &mut text).expect("in-memory write");
        let text = String::from_utf8(text).expect("UTF-8");
        let a_pos = text.find(&format!("packet {a}:")).expect("packet a block");
        let b_pos = text.find(&format!("packet {b}:")).expect("packet b block");
        assert!(a_pos < b_pos, "blocks ordered by packet id");
        // Within a's block, inject precedes eject.
        let inj = text.find("inject vc=0").expect("inject line");
        let ej = text.find("node    3  eject").expect("eject line");
        assert!(a_pos < inj && inj < ej && ej < b_pos);
        // Single-packet view contains only that packet.
        let only_b = packet_lifetime(&t, b.raw());
        assert!(only_b.contains("inject vc=1"));
        assert!(!only_b.contains("eject"));
        assert_eq!(packet_lifetime(&t, 999), "");
    }
}
