//! CLASH protocol messages (§5 of the paper).
//!
//! Servers exchange four kinds of messages on top of the DHT:
//!
//! * `ACCEPT_OBJECT` — a client (or its proxy server) probes for the
//!   correct depth of a key and, once correct, stores/queries the object;
//! * `ACCEPT_KEYGROUP` — an overloaded server transfers responsibility for
//!   a right-child key group ("CLASH requires the child node to accept all
//!   ACCEPT_KEYGROUP messages");
//! * `RELEASE_KEYGROUP` — a parent reclaims a cold right child during
//!   bottom-up consolidation (refusable: the child may have split since
//!   the last report);
//! * `LOAD_REPORT` — leaf groups periodically report load to the server
//!   holding their parent entry.

use crate::load::GroupLoad;

/// Server responses to `ACCEPT_OBJECT` (§5 cases a–c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptObjectResponse {
    /// Case (a): the estimated depth was correct.
    Ok {
        /// The (confirmed) depth.
        depth: u32,
    },
    /// Case (b): wrong depth, but this server owns the object anyway; the
    /// correct depth is returned.
    OkCorrected {
        /// The corrected depth.
        depth: u32,
    },
    /// Case (c): wrong depth and wrong server; `d_min` is the longest
    /// prefix match between the key and this server's entries.
    ///
    /// `d_min = None` means the responder holds *no entries at all* — a
    /// corner case the paper leaves implicit (with 1000 servers and 64
    /// initial groups most servers are empty). An empty responder still
    /// carries information: had the guessed depth been ≤ the true depth,
    /// the CLASH placement invariant (`Map(f(virtual key))` owns every
    /// group) guarantees the contacted server would hold the group of the
    /// zero-padded probe key — so an empty table proves the guess was too
    /// deep.
    IncorrectDepth {
        /// The longest prefix match length, or `None` if the responder
        /// has no entries.
        d_min: Option<u32>,
    },
}

impl AcceptObjectResponse {
    /// The confirmed depth if the probe succeeded (cases a and b).
    pub fn accepted_depth(self) -> Option<u32> {
        match self {
            AcceptObjectResponse::Ok { depth } | AcceptObjectResponse::OkCorrected { depth } => {
                Some(depth)
            }
            AcceptObjectResponse::IncorrectDepth { .. } => None,
        }
    }
}

/// Server response to `RELEASE_KEYGROUP`.
#[derive(Debug, Clone, PartialEq)]
pub enum ReleaseResponse {
    /// The group is returned together with its load state.
    Released {
        /// Load state handed back to the parent.
        load: GroupLoad,
    },
    /// The child has split the group since the parent's last report;
    /// consolidation is aborted.
    Refused,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_depth_extraction() {
        assert_eq!(
            AcceptObjectResponse::Ok { depth: 5 }.accepted_depth(),
            Some(5)
        );
        assert_eq!(
            AcceptObjectResponse::OkCorrected { depth: 3 }.accepted_depth(),
            Some(3)
        );
        assert_eq!(
            AcceptObjectResponse::IncorrectDepth { d_min: Some(4) }.accepted_depth(),
            None
        );
        assert_eq!(
            AcceptObjectResponse::IncorrectDepth { d_min: None }.accepted_depth(),
            None
        );
    }
}
