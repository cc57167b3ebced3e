//! Hosts: the packet-in demux, ARP, DHCP, location learning,
//! service-element messages and departures.

use super::*;

impl Controller {
    /// Demultiplexes one packet-in from switch `dpid`: LLDP, ARP, SE
    /// control, DHCP, or a flow to set up. The frame is read in place:
    /// messages decode from its payload's bytes, and a flow's first
    /// packet is released as the frame itself.
    pub(super) fn on_packet_in(&mut self, now: SimTime, dpid: u64, in_port: u32, data: &[u8]) {
        let Ok((pkt, payload)) = wire::parse_in_place(data) else {
            return;
        };

        if let Some(lldp) = pkt.lldp() {
            self.observe_lldp(now, (lldp.chassis_id, lldp.port_id), (dpid, in_port));
            return;
        }
        if let Some(arp) = pkt.arp() {
            let arp = *arp;
            self.handle_arp(now, dpid, in_port, arp);
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

    fn handle_arp(&mut self, now: SimTime, dpid: u64, in_port: u32, arp: ArpPacket) {
        if Some(in_port) == self.topo.uplink_of(dpid) {
            return; // an announcement echoed through the legacy fabric
        }
        match self.locations.learn(arp.sha, arp.spa, dpid, in_port, now) {
            LearnOutcome::New => self.host_joined(now, arp.sha, arp.spa, (dpid, in_port)),
            LearnOutcome::Moved { from } => {
                self.monitor.record(
                    now,
                    EventKind::UserMoved {
                        mac: arp.sha,
                        from,
                        to: (dpid, in_port),
                    },
                );
                self.announce_location(dpid, arp.sha, arp.spa);
            }
            LearnOutcome::Refreshed => {}
        }
        if arp.op == ArpOp::Request && !arp.is_gratuitous() {
            // Directory proxy: answer centrally instead of flooding.
            if let Some((mac, _)) = self.locations.lookup_ip(arp.tpa) {
                self.arp_replies += 1;
                self.emit(dpid, in_port, &arp_frame(ArpPacket::reply_to(&arp, mac)));
            }
        }
    }

    /// Records a host learned for the first time, at `at` — by ARP or
    /// by the data path — and announces it to the legacy fabric.
    pub(super) fn host_joined(&mut self, now: SimTime, mac: MacAddr, ip: Ipv4Addr, at: (u64, u32)) {
        self.monitor
            .record(now, EventKind::UserJoin { mac, ip, at });
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
        self.locations.touch(mac, now);
        match msg {
            SeMessage::Online {
                service,
                cpu,
                pps,
                bps,
                ..
            } => {
                if self.registry.heartbeat(mac, &msg, now) {
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
    /// leave, and elements silent past the heartbeat timeout go
    /// offline with their steering state.
    pub(super) fn expire_hosts(&mut self, now: SimTime) {
        for mac in self.locations.expire(now, self.arp_timeout) {
            self.monitor.record(now, EventKind::UserLeave { mac });
        }
        for mac in self.registry.expire(now, self.se_timeout) {
            self.monitor.record(now, EventKind::SeOffline { mac });
            self.cleanup_se(mac);
        }
    }

    /// An attachment point is gone — a dead port or a dead switch — and
    /// the hosts `evicted` from it depart, in MAC order (the location
    /// table is a BTreeMap), so the event order is run-stable. Compiled
    /// programs may have routed through it, so every fast-pass goes;
    /// packets in flight through it died honestly (a deregistration
    /// also truncates attestation chains), so the accountability drop
    /// sweep goes quiet for a window. A departed host that was a
    /// service element goes offline with its steering state.
    pub(super) fn detach(&mut self, now: SimTime, evicted: Vec<MacAddr>) {
        self.detector.note_turbulence(now);
        self.topology_changed();
        for mac in evicted {
            self.monitor.record(now, EventKind::UserLeave { mac });
            if self.registry.force_offline(mac) {
                self.monitor.record(now, EventKind::SeOffline { mac });
                self.cleanup_se(mac);
            }
        }
    }

    /// Removes a dead service element's steering state: its relay
    /// entries everywhere, the ingress entries of flows using it (so
    /// their next packet re-balances), and the active-flow records.
    fn cleanup_se(&mut self, se_mac: MacAddr) {
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
