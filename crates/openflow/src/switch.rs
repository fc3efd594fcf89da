//! The combined OpenFlow switch lookup: exact entries take precedence
//! over wildcard entries; misses punt to the controller (§6.2.3).

use ps_net::FlowKey;

use crate::action::Action;
use crate::exact::ExactTable;
use crate::wildcard::{WildcardEntry, WildcardTable};

/// The switch: both tables plus miss accounting.
#[derive(Debug, Default)]
pub struct OpenFlowSwitch {
    /// Exact-match table.
    pub exact: ExactTable,
    /// Wildcard table.
    pub wildcard: WildcardTable,
    /// Packets punted to the controller.
    pub misses: u64,
}

impl OpenFlowSwitch {
    /// An empty switch.
    pub fn new() -> OpenFlowSwitch {
        OpenFlowSwitch::default()
    }

    /// Install an exact-match flow.
    pub fn add_exact(&mut self, key: FlowKey, action: Action) {
        self.exact.insert(key, action);
    }

    /// Install a wildcard flow.
    pub fn add_wildcard(&mut self, entry: WildcardEntry) {
        self.wildcard.insert(entry);
    }

    /// The switch's one walk, for a packet of `bytes` length whose
    /// flow-key hash is `hash`: the exact entry, else the wildcard
    /// match, else the controller (counted in `misses`). `wildcard`
    /// is the wildcard scan's result when it already ran (the GPU
    /// scans every packet); otherwise the walk scans on an exact
    /// miss. Returns the action and the wildcard entries this call
    /// scanned.
    pub fn lookup(
        &mut self,
        hash: u32,
        key: &FlowKey,
        bytes: u64,
        wildcard: Option<Option<Action>>,
    ) -> (Action, usize) {
        if let Some(action) = self.exact.lookup_with_hash(hash, key, bytes) {
            return (action, 0);
        }
        let (action, scanned) = wildcard.map_or_else(|| self.wildcard.lookup(key), |a| (a, 0));
        match action {
            Some(action) => (action, scanned),
            None => {
                self.misses += 1;
                (Action::Controller, scanned)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::flow_hash;
    use crate::wildcard::wc;

    fn lookup(sw: &mut OpenFlowSwitch, k: &FlowKey) -> (Action, usize) {
        sw.lookup(flow_hash(k), k, 64, None)
    }

    fn key(n: u16) -> FlowKey {
        FlowKey {
            in_port: 1,
            dl_type: 0x0800,
            nw_src: 0x0A000000 | u32::from(n),
            nw_dst: 0x0B000000,
            nw_proto: 17,
            tp_src: n,
            tp_dst: 53,
            ..FlowKey::default()
        }
    }

    fn wild(priority: u16, action: Action) -> WildcardEntry {
        WildcardEntry {
            fields: wc::NW_DST,
            priority,
            key: key(0),
            nw_src_mask: u32::MAX,
            nw_dst_mask: 0xFF000000,
            action,
        }
    }

    #[test]
    fn exact_takes_precedence() {
        let mut sw = OpenFlowSwitch::new();
        sw.add_wildcard(wild(100, Action::Drop));
        sw.add_exact(key(1), Action::Output(5));
        assert_eq!(lookup(&mut sw, &key(1)), (Action::Output(5), 0));
        assert_eq!(sw.exact.stats(&key(1)).map(|s| s.packets), Some(1));
        // A precomputed wildcard result does not outrank the entry.
        let h = flow_hash(&key(1));
        let r = sw.lookup(h, &key(1), 64, Some(Some(Action::Drop)));
        assert_eq!(r, (Action::Output(5), 0));
    }

    #[test]
    fn wildcard_fallback() {
        let mut sw = OpenFlowSwitch::new();
        sw.add_wildcard(wild(100, Action::Output(2)));
        assert_eq!(lookup(&mut sw, &key(9)), (Action::Output(2), 1));
        assert_eq!(sw.misses, 0);
        // The GPU's scan result stands in for the walk's own scan.
        let h = flow_hash(&key(9));
        let r = sw.lookup(h, &key(9), 64, Some(Some(Action::Output(2))));
        assert_eq!(r, (Action::Output(2), 0));
    }

    #[test]
    fn total_miss_goes_to_controller() {
        let mut sw = OpenFlowSwitch::new();
        let mut k = key(9);
        k.nw_dst = 0x0C000000; // outside the wildcard's /8
        sw.add_wildcard(wild(100, Action::Output(2)));
        assert_eq!(lookup(&mut sw, &k).0, Action::Controller);
        assert_eq!(sw.misses, 1);
        // A precomputed miss goes to the controller the same way.
        assert_eq!(
            sw.lookup(flow_hash(&k), &k, 64, Some(None)).0,
            Action::Controller
        );
        assert_eq!(sw.misses, 2);
    }

    #[test]
    fn empty_switch_misses_everything() {
        let mut sw = OpenFlowSwitch::new();
        assert_eq!(lookup(&mut sw, &key(0)), (Action::Controller, 0));
    }
}
