//! Flow actions (the subset the data-path evaluation exercises).

/// What to do with a matched packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Forward out a port.
    Output(u16),
    /// Drop silently.
    Drop,
    /// Punt to the controller (slow path).
    Controller,
}

impl Action {
    /// Encode for the serialized wildcard image: output ports are
    /// their index, 0xFFFE = drop, 0xFFFF = controller.
    pub(crate) fn encode(&self) -> u16 {
        match self {
            Action::Output(p) => {
                assert!(*p < 0xFFFE, "port index too large");
                *p
            }
            Action::Drop => 0xFFFE,
            Action::Controller => 0xFFFF,
        }
    }

    /// Decode from the serialized form.
    pub fn decode(raw: u16) -> Action {
        match raw {
            0xFFFE => Action::Drop,
            0xFFFF => Action::Controller,
            p => Action::Output(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for a in [
            Action::Output(0),
            Action::Output(7),
            Action::Drop,
            Action::Controller,
        ] {
            assert_eq!(Action::decode(a.encode()), a);
        }
    }

    #[test]
    #[should_panic(expected = "port index too large")]
    fn reserved_port_rejected() {
        let _ = Action::Output(0xFFFE).encode();
    }
}
