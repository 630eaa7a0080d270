//! Static membership with a dynamic liveness overlay.
//!
//! The mesh's node set is fixed at start (the build containers have no
//! discovery service to talk to); what changes at runtime is *liveness*:
//! the failure detector marks nodes dead, promotions consult the live
//! view. **Each node owns its own [`Membership`] view** — even when the
//! nodes share a process — and converges through its own detector:
//! [`Membership::mark_dead`]'s changed-the-view return is what makes each
//! node's promotion callback fire exactly once, so a view shared between
//! nodes would let one node's detector consume another node's promotion.
//! Views only need to agree eventually, because a stale view yields
//! `NotPrimary` bounces, not wrong data.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One mesh node: a stable name (the placement identity) and the address
/// its wire-protocol listener is bound to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeInfo {
    /// Stable node name — hashing identity for placement; never reused.
    pub name: String,
    /// Wire-protocol listener address.
    pub addr: SocketAddr,
}

/// The fixed node set plus the set currently believed dead.
#[derive(Debug)]
pub struct Membership {
    nodes: Vec<NodeInfo>,
    dead: Mutex<BTreeSet<String>>,
    /// Bumped on every liveness change, so readers can cache what they
    /// derive from the live view (see [`Membership::version`]). Bumped
    /// with `Release` under the `dead` lock, after the change; read with
    /// `Acquire`, before the reader takes that lock for the view.
    version: AtomicU64,
}

impl Membership {
    /// A membership over `nodes`, all initially live.
    pub fn new(nodes: Vec<NodeInfo>) -> Self {
        Self { nodes, dead: Mutex::new(BTreeSet::new()), version: AtomicU64::new(0) }
    }

    /// Every configured node, live or not, in declaration order.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// The listener address of `name`, if it is a configured node.
    pub fn addr_of(&self, name: &str) -> Option<SocketAddr> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.addr)
    }

    /// Marks `name` dead; returns `true` when this call changed the view
    /// (so exactly one detector observation drives the promotion logic).
    pub fn mark_dead(&self, name: &str) -> bool {
        let mut dead = self.dead.lock().expect("membership lock poisoned");
        let changed = dead.insert(name.to_string());
        if changed {
            self.version.fetch_add(1, Ordering::Release);
        }
        changed
    }

    /// Marks `name` live again (a healed node re-joins placement).
    pub fn mark_live(&self, name: &str) {
        let mut dead = self.dead.lock().expect("membership lock poisoned");
        if dead.remove(name) {
            self.version.fetch_add(1, Ordering::Release);
        }
    }

    /// A counter that moves whenever the live view changes. Anything
    /// computed from [`Membership::live_names`] after reading version `v`
    /// stays current while `version()` still returns `v`.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Whether `name` is currently believed dead.
    pub fn is_dead(&self, name: &str) -> bool {
        self.dead.lock().expect("membership lock poisoned").contains(name)
    }

    /// Names of the nodes currently believed live, in declaration order.
    pub fn live_names(&self) -> Vec<String> {
        let dead = self.dead.lock().expect("membership lock poisoned");
        self.nodes.iter().filter(|n| !dead.contains(&n.name)).map(|n| n.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(name: &str, port: u16) -> NodeInfo {
        NodeInfo { name: name.into(), addr: format!("127.0.0.1:{port}").parse().unwrap() }
    }

    #[test]
    fn liveness_overlay_tracks_marks() {
        let m = Membership::new(vec![info("a", 1), info("b", 2), info("c", 3)]);
        assert_eq!(m.live_names(), ["a", "b", "c"]);
        let v0 = m.version();
        assert!(m.mark_dead("b"), "first observation changes the view");
        let v1 = m.version();
        assert_ne!(v0, v1, "a view change moves the version");
        assert!(!m.mark_dead("b"), "repeat observation does not");
        assert_eq!(m.version(), v1, "nor does it move the version");
        assert!(m.is_dead("b"));
        assert_eq!(m.live_names(), ["a", "c"]);
        m.mark_live("b");
        assert_eq!(m.live_names(), ["a", "b", "c"]);
        assert_ne!(m.version(), v1, "re-joining moves the version");
        assert_eq!(m.addr_of("c"), Some("127.0.0.1:3".parse().unwrap()));
        assert_eq!(m.addr_of("zz"), None);
    }
}
