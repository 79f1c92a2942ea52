//! Ghost attributes (§4.4).
//!
//! A ghost attribute conceptually extends every route with an extra
//! boolean field that does not affect routing but lets properties refer to
//! provenance ("did this route come from ISP1?", "did it pass through
//! router W?"). The user defines how each filter updates the attribute:
//! set it true, set it false, or leave it unchanged; origination uses a
//! default value (false unless configured).
//!
//! Edge ids are dense, so an attribute's per-edge rules are `Vec`s
//! indexed by edge id, grown on first write; an edge past the end, like
//! an unset one, leaves the attribute unchanged.

use bgp_model::topology::EdgeId;

/// How a filter updates a ghost attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GhostUpdate {
    /// Set the attribute to true.
    SetTrue,
    /// Set the attribute to false.
    SetFalse,
    /// Leave the attribute unchanged.
    #[default]
    Unchanged,
}

/// A user-defined ghost attribute.
#[derive(Clone, Debug)]
pub struct GhostAttr {
    /// The attribute name (referenced by [`crate::pred::RoutePred::Ghost`]).
    pub name: String,
    /// Import-filter updates by edge id.
    import_rules: Vec<GhostUpdate>,
    /// Export-filter updates by edge id.
    export_rules: Vec<GhostUpdate>,
    /// Value on originated routes (default false).
    pub originate_value: bool,
}

impl GhostAttr {
    /// A new ghost attribute, unchanged everywhere, false on origination.
    pub fn new(name: impl Into<String>) -> Self {
        GhostAttr {
            name: name.into(),
            import_rules: Vec::new(),
            export_rules: Vec::new(),
            originate_value: false,
        }
    }

    /// Set the update applied by the import filter on `edge`.
    pub fn on_import(&mut self, edge: EdgeId, update: GhostUpdate) -> &mut Self {
        *rule(&mut self.import_rules, edge) = update;
        self
    }

    /// Set the update applied by the export filter on `edge`.
    pub fn on_export(&mut self, edge: EdgeId, update: GhostUpdate) -> &mut Self {
        *rule(&mut self.export_rules, edge) = update;
        self
    }

    /// Builder-style [`GhostAttr::on_import`].
    pub fn with_import(mut self, edge: EdgeId, update: GhostUpdate) -> Self {
        self.on_import(edge, update);
        self
    }

    /// Set the origination default.
    pub fn with_originate_value(mut self, v: bool) -> Self {
        self.originate_value = v;
        self
    }

    /// The update applied by the import filter on `edge`.
    pub fn import_update(&self, edge: EdgeId) -> GhostUpdate {
        self.import_rules
            .get(edge.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The update applied by the export filter on `edge`.
    pub fn export_update(&self, edge: EdgeId) -> GhostUpdate {
        self.export_rules
            .get(edge.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Apply an update to a concrete value.
    pub fn apply(update: GhostUpdate, current: bool) -> bool {
        match update {
            GhostUpdate::SetTrue => true,
            GhostUpdate::SetFalse => false,
            GhostUpdate::Unchanged => current,
        }
    }
}

/// The rule slot of `edge`, growing `rules` to reach it.
fn rule(rules: &mut Vec<GhostUpdate>, edge: EdgeId) -> &mut GhostUpdate {
    let i = edge.0 as usize;
    if rules.len() <= i {
        rules.resize(i + 1, GhostUpdate::Unchanged);
    }
    &mut rules[i]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_unchanged_and_false() {
        let g = GhostAttr::new("G");
        assert_eq!(g.import_update(EdgeId(0)), GhostUpdate::Unchanged);
        assert_eq!(g.export_update(EdgeId(0)), GhostUpdate::Unchanged);
        assert!(!g.originate_value);
    }

    #[test]
    fn rules_apply_per_edge() {
        let g = GhostAttr::new("FromISP1")
            .with_import(EdgeId(1), GhostUpdate::SetTrue)
            .with_import(EdgeId(2), GhostUpdate::SetFalse);
        assert_eq!(g.import_update(EdgeId(1)), GhostUpdate::SetTrue);
        assert_eq!(g.import_update(EdgeId(2)), GhostUpdate::SetFalse);
        assert_eq!(g.import_update(EdgeId(3)), GhostUpdate::Unchanged);
    }

    #[test]
    fn apply_semantics() {
        assert!(GhostAttr::apply(GhostUpdate::SetTrue, false));
        assert!(!GhostAttr::apply(GhostUpdate::SetFalse, true));
        assert!(GhostAttr::apply(GhostUpdate::Unchanged, true));
        assert!(!GhostAttr::apply(GhostUpdate::Unchanged, false));
    }
}
