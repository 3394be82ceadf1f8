//! Test-only fault injection for the chaos suite.
//!
//! A [`FaultPlan`] names *which* tagged point in request handling
//! should panic on *which* hit. A test arms it on the runtime it is
//! about to serve ([`crate::Runtime::arm_faults`]); the service's
//! panic-isolation machinery must then contain the blast radius to the
//! offending session, which is exactly what `tests/chaos.rs` asserts.
//! A plan belongs to the one runtime it is armed on, so tests running
//! side by side cannot fire or consume each other's points. With
//! nothing armed, a point costs one emptiness check.
//!
//! Wire-level faults (torn frames, garbage, oversized lines) don't go
//! through this module — they are injected by writing the faulty bytes
//! directly to a socket; [`WireFault`] enumerates the canned payloads
//! so the chaos suite drives every shape through one loop.

#[derive(Debug)]
struct PointState {
    tag: String,
    /// Fire on the nth hit (1-based).
    after: u64,
    seen: u64,
    fired: bool,
}

/// A set of panic-injection points, armed on a runtime with
/// [`crate::Runtime::arm_faults`].
///
/// Point tags are stable names: `execute:<request kind>` (e.g.
/// `execute:eval`, `execute:continue`) at the top of request handling,
/// `slice` between two slices of a service-thread `continue`, and
/// `snapshot` / `restore` inside checkpoint capture and rewind.
#[derive(Debug, Default)]
pub struct FaultPlan {
    points: Vec<PointState>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until points are added).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panic at the tagged point on its `nth` hit (1-based; clamped to
    /// at least 1). Each point fires once.
    #[must_use]
    pub fn panic_at(mut self, tag: &str, nth: u64) -> FaultPlan {
        self.points.push(PointState {
            tag: tag.to_owned(),
            after: nth.max(1),
            seen: 0,
            fired: false,
        });
        self
    }

    /// Counts a hit of the point `tag` and panics iff an unfired point
    /// of that tag just came due.
    pub(crate) fn hit(&mut self, tag: &str) {
        let mut fire = false;
        for point in &mut self.points {
            if !point.fired && point.tag == tag {
                point.seen += 1;
                if point.seen >= point.after {
                    point.fired = true;
                    fire = true;
                }
            }
        }
        if fire {
            panic!("fault injected at {tag}");
        }
    }

    /// [`FaultPlan::hit`] at `execute:<kind>`, formatting the tag only
    /// when something is armed.
    pub(crate) fn hit_request(&mut self, kind: &str) {
        if !self.points.is_empty() {
            self.hit(&format!("execute:{kind}"));
        }
    }
}

/// Canned malformed-wire payloads for chaos tests. Each is the byte
/// stream one faulty peer sends before (optionally) vanishing; the
/// suite loops over [`WireFault::ALL`] and asserts the server survives
/// every one with other sessions intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Half a JSON frame, then disconnect mid-line.
    TornFrame,
    /// A single unterminated line far past any sane cap.
    OversizedLine,
    /// Binary garbage that is framed (newline-terminated) but not JSON.
    FramedGarbage,
    /// Connect and immediately disconnect without sending anything.
    MidHandshakeDisconnect,
}

impl WireFault {
    /// Every wire-fault shape, for exhaustive chaos loops.
    pub const ALL: [WireFault; 4] = [
        WireFault::TornFrame,
        WireFault::OversizedLine,
        WireFault::FramedGarbage,
        WireFault::MidHandshakeDisconnect,
    ];

    /// The bytes this faulty peer writes. `cap` is the server's
    /// configured max line length, so the oversized payload reliably
    /// crosses it.
    pub fn bytes(self, cap: usize) -> Vec<u8> {
        match self {
            WireFault::TornFrame => b"{\"type\":\"ti".to_vec(),
            WireFault::OversizedLine => vec![b'x'; cap + 4096],
            WireFault::FramedGarbage => {
                let mut b = vec![0xff, 0xfe, 0x00, b'{', 0x80];
                b.push(b'\n');
                b
            }
            WireFault::MidHandshakeDisconnect => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        let mut plan = FaultPlan::new();
        plan.hit("slice");
        plan.hit_request("eval");
    }

    #[test]
    fn armed_point_fires_on_nth_hit_once() {
        let mut plan = FaultPlan::new().panic_at("execute:eval", 2);
        plan.hit_request("eval");
        plan.hit_request("time");
        let hit =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.hit_request("eval")));
        assert!(hit.is_err(), "second hit fires");
        plan.hit_request("eval");
    }
}
