//! Type-erased sketches: the engine's uniform query representation.
//!
//! The cluster transports summaries as wire bytes along every tree edge —
//! exactly what the real system does over gRPC — so internally it handles
//! queries through the object-safe [`ErasedSketch`] interface. Vizketch
//! authors never see this: they implement the typed
//! [`hillview_sketch::Sketch`] trait and the blanket adapter
//! [`Erased`] does the rest (paper §5.5: developers "implement the
//! summarize and merge functions ... the architecture handles all such
//! issues in a uniform and transparent manner").

use crate::error::{EngineError, EngineResult};
use bytes::Bytes;
use hillview_net::Wire;
use hillview_sketch::{Scope, Sketch, TableView};
use std::sync::Arc;

/// Object-safe sketch interface operating on wire bytes.
pub trait ErasedSketch: Send + Sync + 'static {
    /// Sketch name (diagnostics, cache keys).
    fn name(&self) -> &'static str;
    /// Summarize the rows of one partition that `scope` covers, to wire
    /// bytes (see `hillview_sketch::Sketch::summarize_scoped`).
    fn summarize_to_bytes(
        &self,
        view: &TableView,
        scope: &Scope<'_>,
        seed: u64,
    ) -> EngineResult<Bytes>;
    /// True when the sketch honours bounded scopes; the leaf executor only
    /// fans a partition into sub-range tasks for splittable sketches.
    fn splittable(&self) -> bool;
    /// Fold wire-encoded summaries with the sketch's merge, in the given
    /// order, starting from its identity: each piece is decoded once, the
    /// typed summaries merge left to right, and the result is encoded once.
    fn fold_bytes(&self, pieces: &[&Bytes]) -> EngineResult<Bytes>;
    /// The identity summary, wire-encoded.
    fn identity_bytes(&self) -> Bytes;
    /// The sketch's cacheable parameter identity
    /// ([`hillview_sketch::Sketch::cache_identity`]): `Some(bytes)` when
    /// the summary is a pure, seed-independent function of the data and
    /// the bytes encode every result-shaping parameter; `None` disables
    /// the sketch-result cache for this query.
    fn cache_identity(&self) -> Option<Vec<u8>>;
}

/// Adapter from a typed [`Sketch`] to [`ErasedSketch`].
pub struct Erased<S: Sketch>(pub Arc<S>);

impl<S: Sketch> ErasedSketch for Erased<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn summarize_to_bytes(
        &self,
        view: &TableView,
        scope: &Scope<'_>,
        seed: u64,
    ) -> EngineResult<Bytes> {
        let summary = self.0.summarize_scoped(view, scope, seed)?;
        Ok(summary.to_bytes())
    }

    fn splittable(&self) -> bool {
        self.0.splittable()
    }

    fn fold_bytes(&self, pieces: &[&Bytes]) -> EngineResult<Bytes> {
        use hillview_sketch::Summary as _;
        let mut acc = self.0.identity();
        for &piece in pieces {
            let s = S::Summary::from_bytes(piece.clone()).map_err(EngineError::from)?;
            acc = acc.merge(&s);
        }
        Ok(acc.to_bytes())
    }

    fn identity_bytes(&self) -> Bytes {
        self.0.identity().to_bytes()
    }

    fn cache_identity(&self) -> Option<Vec<u8>> {
        self.0.cache_identity()
    }
}

/// Convenience: erase a typed sketch.
pub fn erase<S: Sketch>(sketch: S) -> Arc<dyn ErasedSketch> {
    Arc::new(Erased(Arc::new(sketch)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{Column, I64Column};
    use hillview_columnar::{ColumnKind, Table};
    use hillview_sketch::count::{CountSketch, CountSummary};

    fn view() -> TableView {
        let t = Table::builder()
            .column(
                "X",
                ColumnKind::Int,
                Column::Int(I64Column::from_options((0..10).map(Some))),
            )
            .build()
            .unwrap();
        TableView::full(Arc::new(t))
    }

    #[test]
    fn erased_summarize_and_merge_round_trip() {
        let e = erase(CountSketch::rows());
        let a = e.summarize_to_bytes(&view(), &Scope::default(), 0).unwrap();
        let b = e.summarize_to_bytes(&view(), &Scope::default(), 0).unwrap();
        let folded = e.fold_bytes(&[&a, &b]).unwrap();
        let s = CountSummary::from_bytes(folded).unwrap();
        assert_eq!(s.rows, 20);
    }

    #[test]
    fn identity_is_merge_unit_through_bytes() {
        let e = erase(CountSketch::rows());
        let a = e.summarize_to_bytes(&view(), &Scope::default(), 0).unwrap();
        assert_eq!(e.fold_bytes(&[]).unwrap(), e.identity_bytes());
        assert_eq!(e.fold_bytes(&[&a, &e.identity_bytes()]).unwrap(), a);
    }

    /// A typed fold is bit-identical to folding pairwise through the wire
    /// (decode, merge and re-encode at every step) from the identity.
    #[test]
    fn fold_matches_pairwise_merges() {
        use hillview_sketch::moments::{MomentsSketch, MomentsSummary};
        use hillview_sketch::Summary as _;
        let sk = MomentsSketch::new("X", 3);
        let e = erase(sk.clone());
        let v = view();
        let pieces: Vec<Bytes> = [(0, 3), (3, 7), (7, 10)]
            .iter()
            .map(|&rows| {
                let scope = Scope {
                    rows: Some(rows),
                    filter: None,
                };
                e.summarize_to_bytes(&v, &scope, 0).unwrap()
            })
            .collect();
        let mut acc = sk.identity().to_bytes();
        for p in &pieces {
            let a = MomentsSummary::from_bytes(acc).unwrap();
            let b = MomentsSummary::from_bytes(p.clone()).unwrap();
            acc = a.merge(&b).to_bytes();
        }
        let refs: Vec<&Bytes> = pieces.iter().collect();
        assert_eq!(e.fold_bytes(&refs).unwrap(), acc);
    }

    #[test]
    fn corrupt_bytes_error_cleanly() {
        let e = erase(CountSketch::rows());
        let bad = Bytes::from_static(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(e.fold_bytes(&[&e.identity_bytes(), &bad]).is_err());
    }

    #[test]
    fn sketch_errors_propagate() {
        let e = erase(CountSketch::of_column("Nope"));
        assert!(matches!(
            e.summarize_to_bytes(&view(), &Scope::default(), 0),
            Err(EngineError::Sketch(_))
        ));
    }
}
