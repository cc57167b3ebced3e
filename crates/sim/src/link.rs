//! Link model: rate, propagation delay and a bounded egress queue.

use crate::ids::{NodeId, PortId};
use crate::time::{SimDuration, SimTime};

/// Static parameters of one link.
///
/// The queue is modeled virtually: each direction tracks the time its
/// transmitter becomes free (`busy_until`); a frame whose queueing
/// delay would exceed the configured buffer is tail-dropped. This
/// reproduces FIFO/tail-drop behaviour without per-frame buffer
/// bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LinkSpec {
    /// Transmission rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Egress buffer size in bytes (per direction).
    pub queue_bytes: usize,
}

impl LinkSpec {
    /// A Gigabit Ethernet link with 5 µs propagation delay and a
    /// 256 KiB buffer — the workhorse wired link of the testbed.
    pub fn gigabit() -> Self {
        LinkSpec {
            rate_bps: 1_000_000_000,
            delay: SimDuration::from_micros(5),
            queue_bytes: 256 * 1024,
        }
    }

    /// A Fast Ethernet (100 Mbps) access link, as provided to each user
    /// in the FIT-building deployment.
    pub fn fast_ethernet() -> Self {
        LinkSpec {
            rate_bps: 100_000_000,
            delay: SimDuration::from_micros(5),
            queue_bytes: 128 * 1024,
        }
    }

    /// The paper's measured Pantou (OpenWrt OpenFlow AP) wireless rate:
    /// 43 Mbps, with a longer air/processing delay.
    pub fn pantou_wifi() -> Self {
        LinkSpec {
            rate_bps: 43_000_000,
            delay: SimDuration::from_micros(500),
            queue_bytes: 64 * 1024,
        }
    }

    /// A 10 Gbps core link for the legacy backbone.
    pub fn ten_gigabit() -> Self {
        LinkSpec {
            rate_bps: 10_000_000_000,
            delay: SimDuration::from_micros(5),
            queue_bytes: 1024 * 1024,
        }
    }

    /// Sets the propagation delay, keeping other parameters.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// The maximum tolerated queueing delay implied by the buffer size.
    pub fn max_queue_delay(&self) -> SimDuration {
        SimDuration::transmission(self.queue_bytes, self.rate_bps)
    }
}

/// Dynamic state of one link direction: where it leads and when its
/// transmitter frees up.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkDir {
    pub to_node: NodeId,
    pub to_port: PortId,
    pub spec: LinkSpec,
    pub busy_until: SimTime,
}

/// Outcome of offering a frame to a link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Offer {
    /// Frame accepted; it arrives at the far end at this time.
    Deliver(SimTime),
    /// Queue full; frame dropped.
    Drop,
}

impl LinkDir {
    /// Offers a frame of `bytes` at time `now`; updates `busy_until`.
    pub fn offer(&mut self, now: SimTime, bytes: usize) -> Offer {
        let backlog = self.busy_until.saturating_since(now);
        if backlog > self.spec.max_queue_delay() {
            return Offer::Drop;
        }
        let start = self.busy_until.max(now);
        let tx = SimDuration::transmission(bytes, self.spec.rate_bps);
        self.busy_until = start + tx;
        Offer::Deliver(self.busy_until + self.spec.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(spec: LinkSpec) -> LinkDir {
        LinkDir {
            to_node: NodeId(1),
            to_port: PortId(1),
            spec,
            busy_until: SimTime::ZERO,
        }
    }

    #[test]
    fn idle_link_delivers_after_tx_plus_delay() {
        let mut d = dir(LinkSpec::gigabit());
        let got = d.offer(SimTime::ZERO, 1250);
        // 10 us transmission + 5 us propagation.
        assert_eq!(got, Offer::Deliver(SimTime::from_nanos(15_000)));
    }

    #[test]
    fn back_to_back_frames_serialize() {
        let mut d = dir(LinkSpec::gigabit());
        let first = d.offer(SimTime::ZERO, 1250);
        let second = d.offer(SimTime::ZERO, 1250);
        assert_eq!(first, Offer::Deliver(SimTime::from_nanos(15_000)));
        // The second frame waits for the first's 10us transmission.
        assert_eq!(second, Offer::Deliver(SimTime::from_nanos(25_000)));
    }

    #[test]
    fn saturated_queue_drops() {
        let mut spec = LinkSpec::gigabit();
        spec.queue_bytes = 2500; // room for ~2 MTU frames of backlog
        let mut d = dir(spec);
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match d.offer(SimTime::ZERO, 1250) {
                Offer::Deliver(_) => delivered += 1,
                Offer::Drop => dropped += 1,
            }
        }
        assert!(delivered >= 2, "first frames should fit");
        assert!(dropped > 0, "overload must drop");
    }

    #[test]
    fn queue_drains_over_time() {
        let mut spec = LinkSpec::gigabit();
        spec.queue_bytes = 1250;
        let mut d = dir(spec);
        // Fill the queue at t=0.
        while d.offer(SimTime::ZERO, 1250) != Offer::Drop {}
        // After the backlog drains, frames are accepted again.
        let later = SimTime::from_nanos(1_000_000);
        assert_ne!(d.offer(later, 1250), Offer::Drop);
    }

    #[test]
    fn presets_have_expected_rates() {
        assert_eq!(LinkSpec::gigabit().rate_bps, 1_000_000_000);
        assert_eq!(LinkSpec::fast_ethernet().rate_bps, 100_000_000);
        assert_eq!(LinkSpec::pantou_wifi().rate_bps, 43_000_000);
        assert_eq!(LinkSpec::ten_gigabit().rate_bps, 10_000_000_000);
    }
}
