//! Identities of the register-to-register transfers a binding implies.
//!
//! Transfers are the SALSA model's slack nodes in action: whenever two
//! adjacent segments of a chain sit in different registers, a copy chain is
//! fed, or a loop boundary moves a value into a state register, data must
//! flow between registers at a step boundary — directly, or through a
//! pass-through functional unit (moves F4/F5).

use std::fmt;

use salsa_cdfg::ValueId;

/// A stable identity for one potential transfer. Keys exist structurally
/// (per chain adjacency / copy feed / state boundary) whether or not the
/// involved registers currently differ; a key whose registers coincide
/// contributes no connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransferKey {
    /// Between lifetime indices `idx` and `idx + 1` of chain `chain` of
    /// `value` (executed during the step of index `idx`).
    Intra {
        /// The stored value.
        value: ValueId,
        /// Chain index within the value (0 = primal).
        chain: usize,
        /// Position within the chain's covered lifetime indices.
        idx: usize,
    },
    /// Feeding the first segment of copy chain `chain` of `value` from the
    /// primal chain (executed during the step before the copy starts).
    CopyFeed {
        /// The copied value.
        value: ValueId,
        /// The copy chain index (> 0).
        chain: usize,
    },
    /// The iteration-boundary transfer into state `state`'s step-0 register
    /// from its feedback source's final segment (executed during the final
    /// step). Not present when the source is boundary-born (its producer
    /// writes the state register directly).
    Boundary {
        /// The receiving state value.
        state: ValueId,
    },
}

impl fmt::Display for TransferKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferKey::Intra { value, chain, idx } => {
                write!(f, "intra({value}.{chain}@{idx})")
            }
            TransferKey::CopyFeed { value, chain } => write!(f, "feed({value}.{chain})"),
            TransferKey::Boundary { state } => write!(f, "boundary({state})"),
        }
    }
}

impl TransferKey {
    /// Appends the key's token spelling — `i<value>.<chain>.<idx>`,
    /// `c<value>.<chain>` or `b<state>` — shared by the move-trace text
    /// and the binding-image text.
    pub(crate) fn write_token(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = match *self {
            TransferKey::Intra { value, chain, idx } => {
                write!(out, "i{}.{}.{}", value.index(), chain, idx)
            }
            TransferKey::CopyFeed { value, chain } => write!(out, "c{}.{}", value.index(), chain),
            TransferKey::Boundary { state } => write!(out, "b{}", state.index()),
        };
    }

    /// Parses a token written by [`write_token`](Self::write_token).
    pub(crate) fn parse_token(tok: &str) -> Result<TransferKey, String> {
        let malformed = || format!("bad transfer key `{tok}`");
        let (tag, rest) = tok.split_at_checked(1).ok_or_else(malformed)?;
        let nums: Vec<usize> = rest
            .split('.')
            .map(|p| p.parse().map_err(|_| malformed()))
            .collect::<Result<_, _>>()?;
        match (tag, nums.as_slice()) {
            ("i", [v, chain, idx]) => Ok(TransferKey::Intra {
                value: ValueId::from_index(*v),
                chain: *chain,
                idx: *idx,
            }),
            ("c", [v, chain]) => {
                Ok(TransferKey::CopyFeed { value: ValueId::from_index(*v), chain: *chain })
            }
            ("b", [v]) => Ok(TransferKey::Boundary { state: ValueId::from_index(*v) }),
            _ => Err(malformed()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_ordering() {
        let v = ValueId::from_index(3);
        let a = TransferKey::Intra { value: v, chain: 0, idx: 1 };
        let b = TransferKey::CopyFeed { value: v, chain: 1 };
        let c = TransferKey::Boundary { state: v };
        assert!(a.to_string().contains("v3"));
        assert!(b.to_string().contains("feed"));
        assert!(c.to_string().contains("boundary"));
        let mut keys = [c, b, a];
        keys.sort();
        assert_eq!(keys[0], a, "Intra sorts first by variant order");
    }
}
