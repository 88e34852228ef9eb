//! World generation: countries, eyeball ASes, relay fleet, and candidate
//! relaying options.

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use via_model::ids::{AsId, CountryId, RelayId};
use via_model::options::RelayOption;
use via_model::seed;

use crate::catalog;
use crate::config::WorldConfig;
use crate::geo::GeoPoint;
use crate::perf::PerfModel;

/// A country instantiated in the world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Country {
    /// Dense id.
    pub id: CountryId,
    /// Catalog name.
    pub name: String,
    /// Representative location.
    pub pos: GeoPoint,
    /// Quality tier, 1 (excellent) … 4 (poor).
    pub tier: u8,
    /// Relative call-traffic weight.
    pub weight: f64,
}

/// An eyeball AS (ISP) instantiated in the world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsInfo {
    /// Dense id.
    pub id: AsId,
    /// Country this AS serves.
    pub country: CountryId,
    /// PoP location (country centroid plus jitter).
    pub pos: GeoPoint,
    /// Quality tier; mostly the country tier, occasionally one better or
    /// worse (ISPs within a country differ — the reason Figure 17a finds
    /// AS-level decisions beat country-level ones).
    pub tier: u8,
    /// Relative share of the country's calls carried by this AS.
    pub weight: f64,
}

/// A relay datacenter in the managed network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relay {
    /// Dense id.
    pub id: RelayId,
    /// Site name.
    pub name: String,
    /// Site location.
    pub pos: GeoPoint,
}

/// The fully generated world: topology plus the ground-truth performance
/// model. Everything is deterministic in `(config, seed)`.
#[derive(Debug)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// Seed the world was generated from.
    pub seed: u64,
    /// Instantiated countries.
    pub countries: Vec<Country>,
    /// Instantiated ASes, grouped contiguously by country.
    pub ases: Vec<AsInfo>,
    /// Relay fleet.
    pub relays: Vec<Relay>,
    geometry: Arc<RelayGeometry>,
    perf: PerfModel,
}

impl World {
    /// Generates a world from a configuration and a seed.
    ///
    /// # Panics
    /// Panics if the configuration requests more countries or relays than the
    /// catalog provides, or zero ASes per country.
    pub fn generate(config: &WorldConfig, world_seed: u64) -> World {
        assert!(
            config.n_countries >= 2 && config.n_countries <= catalog::COUNTRIES.len(),
            "n_countries out of range"
        );
        assert!(
            config.n_relays >= 2 && config.n_relays <= catalog::SITES.len(),
            "n_relays out of range"
        );
        assert!(config.ases_per_country >= 1, "need at least one AS/country");

        let mut rng = StdRng::seed_from_u64(seed::derive(world_seed, "topology"));

        let countries: Vec<Country> = catalog::COUNTRIES[..config.n_countries]
            .iter()
            .zip(0u32..)
            .map(|(c, i)| Country {
                id: CountryId(i),
                name: c.name.to_string(),
                pos: GeoPoint::new(c.lat, c.lon),
                tier: c.tier,
                weight: c.call_weight,
            })
            .collect();

        let mut ases = Vec::new();
        let mut next_as_id: u32 = 0;
        for country in &countries {
            // Bigger countries host more ASes: scale by sqrt(weight).
            let scale = (country.weight / 3.0).sqrt().clamp(0.5, 2.5);
            let n = ((config.ases_per_country as f64 * scale).round() as usize).max(1);
            for k in 0..n {
                let id = AsId(next_as_id);
                next_as_id += 1;
                // Jitter the PoP position around the country centroid.
                let lat = (country.pos.lat_deg + rng.random_range(-3.0..3.0)).clamp(-89.0, 89.0);
                let lon = wrap_lon(country.pos.lon_deg + rng.random_range(-4.0..4.0));
                // Tier varies ±1 around the country tier for some ASes.
                let tier_delta: i8 = match rng.random_range(0..10) {
                    0 => -1,
                    1 | 2 => 1,
                    _ => 0,
                };
                let tier = country.tier.saturating_add_signed(tier_delta).clamp(1, 4);
                // Zipf-ish within-country market share.
                let weight = 1.0 / (k as f64 + 1.0);
                ases.push(AsInfo {
                    id,
                    country: country.id,
                    pos: GeoPoint::new(lat, lon),
                    tier,
                    weight,
                });
            }
        }

        let relays: Vec<Relay> = catalog::SITES[..config.n_relays]
            .iter()
            .zip(0u32..)
            .map(|(s, i)| Relay {
                id: RelayId(i),
                name: s.name.to_string(),
                pos: GeoPoint::new(s.lat, s.lon),
            })
            .collect();

        let geometry = Arc::new(RelayGeometry::new(&ases, &relays));
        let perf = PerfModel::new(world_seed, config.clone(), &ases, &relays, geometry.clone());

        World {
            config: config.clone(),
            seed: world_seed,
            countries,
            ases,
            relays,
            geometry,
            perf,
        }
    }

    /// The ground-truth performance model.
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// Country of an AS.
    pub fn country_of(&self, a: AsId) -> CountryId {
        self.ases[a.index()].country
    }

    /// True if the two ASes are in different countries — the paper's
    /// definition of an international call.
    pub fn is_international(&self, a: AsId, b: AsId) -> bool {
        self.country_of(a) != self.country_of(b)
    }

    /// Enumerates the candidate relaying options for a source–destination AS
    /// pair: the direct path, the `bounce_candidates` single relays with the
    /// smallest geographic detour, and up to `transit_candidates` transit
    /// pairs formed from relays near each endpoint.
    ///
    /// The managed overlay never considers *every* O(R²) pair for every call;
    /// like the paper's deployment (9–20 options per pair, §5.5), the
    /// candidate set is small and geographically sensible. Options are
    /// returned in canonical form, deduplicated, `Direct` first.
    pub fn candidate_options(&self, src: AsId, dst: AsId) -> Vec<RelayOption> {
        let mut scratch = CandidateScratch::default();
        let mut options = Vec::new();
        self.candidate_options_into(src, dst, &mut scratch, &mut options);
        options
    }

    /// Allocation-free form of [`World::candidate_options`]: fills `out`
    /// (cleared first) using `scratch`'s reusable ranking buffers. Replay
    /// workers hold one [`CandidateScratch`] each, so steady-state candidate
    /// enumeration performs no heap allocation. The produced options (content
    /// and order) are identical to [`World::candidate_options`].
    ///
    /// No trigonometry runs here: every distance is a load from the world's
    /// static geometry tables, and each AS's relays come pre-sorted by
    /// distance, so only the pair-dependent rankings (bounce detour and
    /// stitched transit length) are sorted per call.
    pub fn candidate_options_into(
        &self,
        src: AsId,
        dst: AsId,
        scratch: &mut CandidateScratch,
        out: &mut Vec<RelayOption>,
    ) {
        let geo = &*self.geometry;

        // Rank relays by bounce detour distance.
        let by_detour = &mut scratch.by_detour;
        by_detour.clear();
        by_detour.extend(
            geo.as_relay_row(src)
                .iter()
                .zip(geo.relay_as_row(dst))
                .zip(&self.relays)
                .map(|((&to_relay, &from_relay), r)| (to_relay + from_relay, r.id)),
        );
        by_detour.sort_by(|a, b| a.0.total_cmp(&b.0));

        out.clear();
        out.push(RelayOption::Direct);
        for &(_, r) in by_detour.iter().take(self.config.bounce_candidates) {
            out.push(RelayOption::Bounce(r));
        }

        // Transit: ingress relays near the source, egress relays near the
        // destination, ranked by total stitched distance.
        let k = self.config.transit_candidates.max(1);
        let take = (k as f64).sqrt().ceil() as usize + 1;
        let transits = &mut scratch.transits;
        transits.clear();
        for &(d_in, r_in) in geo.nearest(src).iter().take(take) {
            for &(d_out, r_out) in geo.nearest(dst).iter().take(take) {
                if r_in == r_out {
                    continue;
                }
                let total = d_in + geo.relay_relay_km(r_in, r_out) + d_out;
                transits.push((total, RelayOption::Transit(r_in, r_out).canonical()));
            }
        }
        transits.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, t) in transits.iter() {
            if out.len() >= 1 + self.config.bounce_candidates + self.config.transit_candidates {
                break;
            }
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
}

/// Reusable ranking buffers for [`World::candidate_options_into`]. Holding
/// one per worker keeps candidate enumeration allocation-free after the
/// first few calls (buffers retain their high-water capacity). Only the
/// pair-dependent rankings need a buffer; per-AS nearest-relay orders are
/// precomputed once per world.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    by_detour: Vec<(f64, RelayId)>,
    transits: Vec<(f64, RelayOption)>,
}

/// Great-circle distances between a world's static positions, computed once
/// at generation so that candidate enumeration and the performance model's
/// transit orientation are table loads instead of haversines per query.
///
/// Each entry is the exact `distance_km` call it replaces, in the same
/// orientation (`a.distance_km(b)` and `b.distance_km(a)` are kept apart),
/// so results are bit-identical to computing on demand. Memory is
/// O(ASes·R + R²).
#[derive(Debug)]
pub(crate) struct RelayGeometry {
    n_relays: usize,
    /// `ases[a].pos.distance_km(&relays[r].pos)` at `a * n_relays + r`.
    as_relay_km: Box<[f64]>,
    /// `relays[r].pos.distance_km(&ases[a].pos)` at `a * n_relays + r`.
    relay_as_km: Box<[f64]>,
    /// `relays[i].pos.distance_km(&relays[j].pos)` at `i * n_relays + j`.
    relay_relay_km: Box<[f64]>,
    /// Row `a`: every relay with its `as_relay_km` distance, ascending by
    /// distance; ties keep relay-id order (stable sort).
    nearest: Box<[(f64, RelayId)]>,
}

impl RelayGeometry {
    fn new(ases: &[AsInfo], relays: &[Relay]) -> Self {
        let n_relays = relays.len();
        let as_relay_km: Box<[f64]> = ases
            .iter()
            .flat_map(|a| relays.iter().map(|r| a.pos.distance_km(&r.pos)))
            .collect();
        let relay_as_km = ases
            .iter()
            .flat_map(|a| relays.iter().map(|r| r.pos.distance_km(&a.pos)))
            .collect();
        let relay_relay_km = relays
            .iter()
            .flat_map(|p| relays.iter().map(|q| p.pos.distance_km(&q.pos)))
            .collect();
        let mut nearest: Box<[(f64, RelayId)]> = as_relay_km
            .iter()
            .zip(relays.iter().cycle())
            .map(|(&d, r)| (d, r.id))
            .collect();
        for row in nearest.chunks_mut(n_relays) {
            row.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        Self {
            n_relays,
            as_relay_km,
            relay_as_km,
            relay_relay_km,
            nearest,
        }
    }

    fn row(&self, a: AsId) -> std::ops::Range<usize> {
        a.index() * self.n_relays..(a.index() + 1) * self.n_relays
    }

    /// AS `a` → relay `r` distance, km.
    pub(crate) fn as_relay_km(&self, a: AsId, r: RelayId) -> f64 {
        self.as_relay_km[a.index() * self.n_relays + r.index()]
    }

    fn as_relay_row(&self, a: AsId) -> &[f64] {
        &self.as_relay_km[self.row(a)]
    }

    fn relay_as_row(&self, a: AsId) -> &[f64] {
        &self.relay_as_km[self.row(a)]
    }

    fn relay_relay_km(&self, from: RelayId, to: RelayId) -> f64 {
        self.relay_relay_km[from.index() * self.n_relays + to.index()]
    }

    fn nearest(&self, a: AsId) -> &[(f64, RelayId)] {
        &self.nearest[self.row(a)]
    }
}

fn wrap_lon(lon: f64) -> f64 {
    let mut l = lon;
    while l > 180.0 {
        l -= 360.0;
    }
    while l < -180.0 {
        l += 360.0;
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&WorldConfig::tiny(), 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = world();
        let w2 = world();
        assert_eq!(w1.ases.len(), w2.ases.len());
        for (a, b) in w1.ases.iter().zip(&w2.ases) {
            assert_eq!(a.pos, b.pos);
            assert_eq!(a.tier, b.tier);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = World::generate(&WorldConfig::tiny(), 1);
        let w2 = World::generate(&WorldConfig::tiny(), 2);
        let same = w1
            .ases
            .iter()
            .zip(&w2.ases)
            .all(|(a, b)| a.pos == b.pos && a.tier == b.tier);
        assert!(!same);
    }

    #[test]
    fn entities_have_dense_ids() {
        let w = world();
        for (i, a) in w.ases.iter().enumerate() {
            assert_eq!(a.id.index(), i);
        }
        for (i, r) in w.relays.iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
        assert_eq!(w.countries.len(), 6);
        assert_eq!(w.relays.len(), 6);
    }

    #[test]
    fn as_tiers_within_range() {
        let w = World::generate(&WorldConfig::small(), 9);
        for a in &w.ases {
            assert!((1..=4).contains(&a.tier));
            // AS must be near its country.
            let c = &w.countries[a.country.index()];
            assert!(a.pos.distance_km(&c.pos) < 900.0);
        }
    }

    #[test]
    fn international_classification() {
        let w = world();
        let first_country = w.ases[0].country;
        let other = w
            .ases
            .iter()
            .find(|a| a.country != first_country)
            .expect("tiny world has multiple countries");
        assert!(w.is_international(w.ases[0].id, other.id));
        assert!(!w.is_international(w.ases[0].id, w.ases[0].id));
    }

    #[test]
    fn candidate_options_shape() {
        let w = world();
        let src = w.ases[0].id;
        let dst = w.ases.last().unwrap().id;
        let opts = w.candidate_options(src, dst);
        assert_eq!(opts[0], RelayOption::Direct);
        let bounces = opts.iter().filter(|o| o.is_bounce()).count();
        let transits = opts.iter().filter(|o| o.is_transit()).count();
        assert_eq!(bounces, w.config.bounce_candidates.min(w.relays.len()));
        assert!(transits >= 1, "expected at least one transit candidate");
        assert!(opts.len() <= 1 + w.config.bounce_candidates + w.config.transit_candidates);
        // No duplicates.
        let mut dedup = opts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), opts.len());
    }

    #[test]
    fn candidate_options_are_canonical() {
        let w = world();
        for o in w.candidate_options(w.ases[0].id, w.ases[1].id) {
            assert_eq!(o, o.canonical());
        }
    }

    /// The on-demand haversine enumeration the geometry tables replace:
    /// three distance rankings recomputed per pair. Kept as the reference
    /// the table-driven path must reproduce exactly.
    fn reference_candidates(w: &World, src: AsId, dst: AsId) -> Vec<RelayOption> {
        let src_pos = w.ases[src.index()].pos;
        let dst_pos = w.ases[dst.index()].pos;
        let ranked = |f: &dyn Fn(&Relay) -> f64| {
            let mut v: Vec<(f64, RelayId)> = w.relays.iter().map(|r| (f(r), r.id)).collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            v
        };
        let by_detour = ranked(&|r| src_pos.distance_km(&r.pos) + r.pos.distance_km(&dst_pos));
        let near_src = ranked(&|r| src_pos.distance_km(&r.pos));
        let near_dst = ranked(&|r| dst_pos.distance_km(&r.pos));
        let mut out = vec![RelayOption::Direct];
        for &(_, r) in by_detour.iter().take(w.config.bounce_candidates) {
            out.push(RelayOption::Bounce(r));
        }
        let take = (w.config.transit_candidates.max(1) as f64).sqrt().ceil() as usize + 1;
        let mut transits = Vec::new();
        for &(d_in, r_in) in near_src.iter().take(take) {
            for &(d_out, r_out) in near_dst.iter().take(take) {
                if r_in != r_out {
                    let bb = w.relays[r_in.index()]
                        .pos
                        .distance_km(&w.relays[r_out.index()].pos);
                    transits.push((
                        d_in + bb + d_out,
                        RelayOption::Transit(r_in, r_out).canonical(),
                    ));
                }
            }
        }
        transits.sort_by(|a, b| a.0.total_cmp(&b.0));
        let cap = 1 + w.config.bounce_candidates + w.config.transit_candidates;
        for (_, t) in transits {
            if out.len() >= cap {
                break;
            }
            if !out.contains(&t) {
                out.push(t);
            }
        }
        out
    }

    #[test]
    fn table_candidates_match_haversine_reference_for_every_pair() {
        for (cfg, seed) in [
            (WorldConfig::tiny(), 42),
            (WorldConfig::small(), 7),
            (WorldConfig::paper_scale(), 7),
        ] {
            let w = World::generate(&cfg, seed);
            let mut scratch = CandidateScratch::default();
            let mut got = Vec::new();
            for src in &w.ases {
                for dst in &w.ases {
                    w.candidate_options_into(src.id, dst.id, &mut scratch, &mut got);
                    assert_eq!(
                        got,
                        reference_candidates(&w, src.id, dst.id),
                        "{} ASes: pair {:?}→{:?}",
                        w.ases.len(),
                        src.id,
                        dst.id
                    );
                }
            }
        }
    }

    #[test]
    fn geometry_tables_are_bit_identical_to_haversine() {
        let w = World::generate(&WorldConfig::small(), 7);
        let g = &w.geometry;
        for a in &w.ases {
            let near = g.nearest(a.id);
            assert!(near.windows(2).all(|p| p[0].0 <= p[1].0));
            for r in &w.relays {
                let to = a.pos.distance_km(&r.pos);
                assert_eq!(g.as_relay_km(a.id, r.id).to_bits(), to.to_bits());
                let from = r.pos.distance_km(&a.pos);
                assert_eq!(g.relay_as_row(a.id)[r.id.index()].to_bits(), from.to_bits());
                assert!(near.contains(&(to, r.id)));
            }
        }
        for p in &w.relays {
            for q in &w.relays {
                let d = p.pos.distance_km(&q.pos);
                assert_eq!(g.relay_relay_km(p.id, q.id).to_bits(), d.to_bits());
            }
        }
    }

    #[test]
    fn wrap_lon_behaviour() {
        assert_eq!(wrap_lon(190.0), -170.0);
        assert_eq!(wrap_lon(-185.0), 175.0);
        assert_eq!(wrap_lon(45.0), 45.0);
    }

    #[test]
    #[should_panic(expected = "n_countries out of range")]
    fn rejects_oversized_config() {
        let mut cfg = WorldConfig::tiny();
        cfg.n_countries = 1000;
        World::generate(&cfg, 1);
    }
}
