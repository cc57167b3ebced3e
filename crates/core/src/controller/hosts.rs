//! Hosts: the packet-in demux, the location rule, the ARP and DHCP
//! proxies, service-element messages and departures.

use super::*;

impl Controller {
    /// Locates the sender of one packet-in from switch `dpid`, then
    /// demultiplexes it: LLDP, ARP, SE control, DHCP, or a flow to set
    /// up. The frame is read in place: messages decode from its
    /// payload's bytes, and a flow's first packet is released as the
    /// frame itself.
    pub(super) fn on_packet_in(&mut self, now: SimTime, dpid: u64, in_port: u32, data: &[u8]) {
        let Ok((pkt, payload)) = wire::parse_in_place(data) else {
            return;
        };
        // What arrives on the uplink was sent elsewhere and echoed
        // through the legacy fabric: it locates nobody. An echoed
        // location announcement gets here only until the switch holds
        // its uplink guard, which drops ARP on the uplink.
        let at_access = Some(in_port) != self.topo.uplink_of(dpid);
        if at_access {
            self.locate(now, &pkt, (dpid, in_port));
        }

        if let Some(lldp) = pkt.lldp() {
            self.observe_lldp(now, (lldp.chassis_id, lldp.port_id), (dpid, in_port));
            return;
        }
        if let Some(arp) = pkt.arp() {
            // Directory proxy: answer centrally instead of flooding.
            let asked = at_access && arp.op == ArpOp::Request && !arp.is_gratuitous();
            if let Some((mac, _)) = self.locations.lookup_ip(arp.tpa).filter(|_| asked) {
                self.arp_replies += 1;
                self.emit(dpid, in_port, &arp_frame(ArpPacket::reply_to(arp, mac)));
            }
            return;
        }
        if let Some(udp) = pkt.udp() {
            if udp.dst_port == SE_CONTROL_PORT && SeMessage::is_control_payload(payload) {
                if let Some(msg) = SeMessage::decode(payload) {
                    self.handle_se_message(now, pkt.eth.src, msg);
                }
                // Never install an entry for the control flow: every
                // message must keep reaching the controller.
                return;
            }
            if udp.dst_port == DhcpMessage::SERVER_PORT {
                self.handle_dhcp(dpid, in_port, payload);
                return;
            }
        }
        if let Some(key) = FlowKey::of(&pkt) {
            self.handle_flow(now, dpid, in_port, key, data);
        }
    }

    /// The location rule (paper §III-C.2), the one place a MAC is
    /// located: the sender of a packet-in at access port `at` is there.
    /// A first sighting joins it, only an ARP may move it, and anything
    /// else refreshes it. A sender with no address yet (a DHCP client
    /// before its lease) is placed nowhere, and so is an ARP claiming a
    /// sender MAC not its frame's source, which would move that host to
    /// the claimant's port.
    fn locate(&mut self, now: SimTime, pkt: &Packet, at: (u64, u32)) {
        let (mac, ip, may_move) = match (pkt.arp(), pkt.ipv4()) {
            (Some(arp), _) if arp.sha == pkt.eth.src => (arp.sha, arp.spa, true),
            (Some(_), _) => return,
            (None, Some(v4)) => (pkt.eth.src, v4.header.src, false),
            (None, None) => return,
        };
        if ip.is_unspecified() {
            return;
        }
        let kind = match self.locations.learn(mac, ip, at, now, may_move) {
            LearnOutcome::New => EventKind::UserJoin { mac, ip, at },
            LearnOutcome::Moved { from } => EventKind::UserMoved { mac, from, to: at },
            LearnOutcome::Refreshed => return,
        };
        self.monitor.record(now, kind);
        self.announce_location(at.0, mac, ip);
    }

    /// Teaches the legacy fabric where a newly-learned host lives by
    /// re-emitting its gratuitous ARP through the ingress switch's
    /// uplink (PortLand-style location announcement). Without this the
    /// first cross-switch frame toward the host would flood.
    fn announce_location(&mut self, dpid: u64, mac: MacAddr, ip: Ipv4Addr) {
        if let Some(up) = self.topo.uplink_of(dpid) {
            self.emit(dpid, up, &arp_frame(ArpPacket::gratuitous(mac, ip)));
        }
    }

    /// Answers the DHCP message `payload` for the directory proxy.
    fn handle_dhcp(&mut self, dpid: u64, in_port: u32, payload: &[u8]) {
        let Some(proxy) = self.directory.as_mut() else {
            return;
        };
        let Some(request) = DhcpMessage::decode(payload) else {
            return;
        };
        let Some(reply) = proxy.handle(&request) else {
            return;
        };
        let server = MacAddr::new([0x02, 0x00, 0x00, 0x00, 0x00, 0x01]);
        let frame = PacketBuilder::udp(server, request.chaddr)
            .ips(Ipv4Addr::UNSPECIFIED, reply.yiaddr)
            .ports(DhcpMessage::SERVER_PORT, DhcpMessage::CLIENT_PORT)
            .payload_bytes(reply.encode())
            .build();
        self.emit(dpid, in_port, &frame);
    }

    fn cert_ok(&mut self, msg: &SeMessage) -> bool {
        let (SeMessage::Online { cert, .. } | SeMessage::Event { cert, .. }) = msg;
        let ok = self
            .required_certs
            .as_ref()
            .is_none_or(|r| r.contains(cert));
        self.rejected_se_msgs += u64::from(!ok);
        ok
    }

    fn handle_se_message(&mut self, now: SimTime, mac: MacAddr, msg: SeMessage) {
        if !self.cert_ok(&msg) {
            return;
        }
        self.se_msgs += 1;
        match msg {
            SeMessage::Online {
                service,
                cpu,
                pps,
                bps,
                ..
            } => {
                if self.locations.heartbeat(mac, &msg, now) {
                    self.monitor
                        .record(now, EventKind::SeOnline { mac, service });
                }
                self.monitor
                    .record(now, EventKind::SeLoad { mac, cpu, pps, bps });
            }
            SeMessage::Event { flow, verdict, .. } => {
                self.dispatch_verdict(now, mac, flow, verdict);
            }
        }
    }

    /// The tick's expiry sweep: hosts silent past the ARP timeout
    /// depart, then elements silent past the heartbeat timeout go
    /// offline with their steering state.
    pub(super) fn expire_hosts(&mut self, now: SimTime) {
        let (departed, offline) = self
            .locations
            .expire(now, self.arp_timeout, self.se_timeout);
        for mac in departed {
            self.depart(now, mac);
        }
        for mac in offline {
            self.se_offline(now, mac);
        }
    }

    /// An attachment point is gone — `port` of switch `dpid`, or with
    /// no port the whole switch — and the hosts there depart, in MAC
    /// order (the location table is a BTreeMap), so the event order is
    /// run-stable. Compiled programs may have routed through it, so
    /// every fast-pass goes; packets in flight through it died honestly
    /// (a deregistration also truncates attestation chains), so the
    /// accountability drop sweep goes quiet for a window.
    pub(super) fn detach(&mut self, now: SimTime, dpid: u64, port: Option<u32>) {
        self.detector.note_turbulence(now);
        self.topology_changed();
        for mac in self.locations.attached(dpid, port) {
            self.depart(now, mac);
        }
    }

    /// The one way out of the location table, whatever the cause:
    /// `mac`'s location and any element view go together, the host
    /// leaves, and an online element goes offline with its steering
    /// state.
    fn depart(&mut self, now: SimTime, mac: MacAddr) {
        let was_online = self.locations.remove(mac);
        self.monitor.record(now, EventKind::UserLeave { mac });
        if was_online {
            self.se_offline(now, mac);
        }
    }

    /// Records that an element went offline and removes its steering
    /// state: its relay entries everywhere, the ingress entries of flows
    /// using it (so their next packet re-balances), and the active-flow
    /// records.
    fn se_offline(&mut self, now: SimTime, se_mac: MacAddr) {
        self.monitor
            .record(now, EventKind::SeOffline { mac: se_mac });
        self.send_to_all(&OfMessage::delete_flows(Match::any().with_dl_dst(se_mac)));
        let affected: Vec<FlowKey> = self
            .active
            .iter()
            .filter(|(_, rec)| rec.elements.contains(&se_mac))
            .map(|(k, _)| *k)
            .collect();
        // `active` is a BTreeMap: `affected` comes out in FlowKey
        // order, so the delete order is run-stable by construction.
        for key in affected {
            if let Some(rec) = self.retire_flow(&key, None) {
                self.send_to_dpid(
                    rec.ingress_dpid,
                    &OfMessage::delete_flows(Match::exact_any_port(&key)),
                );
                self.send_to_all(&OfMessage::delete_flows(Match::exact_any_port(
                    &key.reversed(),
                )));
            }
        }
    }
}
