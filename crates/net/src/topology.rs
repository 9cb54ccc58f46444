//! The dual-plane, rail-optimized Clos topology (HPN7.0-style, paper ref. 27).
//!
//! Layout, parameterized by [`ClosConfig`]:
//!
//! * Each **host** carries `rails` RNICs (rail-optimized: GPU *i* of every
//!   host talks through RNIC *i*).
//! * Each RNIC has one port per **plane** (the paper's dual-plane design:
//!   two ports on independent network planes joined only at the top).
//! * Each network **segment** (pod) has one ToR per `(rail, plane)` pair;
//!   every host in the segment connects its rail-*r*, plane-*p* port to
//!   that ToR.
//! * A shared **aggregation layer** of `aggs_per_plane` switches per plane
//!   interconnects all ToRs of that plane (the paper's 60 aggregation
//!   switches, the escape layer for cross-segment and cross-rail traffic).
//!
//! Routing: intra-segment, same-rail, same-plane traffic turns around at
//! the ToR; everything else goes ToR → aggregation → ToR. The aggregation
//! switch is chosen by an ECMP-style hash of `(flow, path_id)` — the
//! *path id* is the entropy the multipath transport injects, so
//! `path_id = const` reproduces classic single-path ECMP and spraying over
//! 128 path ids approximates uniform coverage of the aggregation layer.


/// Identifier of an RNIC endpoint (one NIC of one host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NicId(pub u32);

/// Identifier of any node (NIC or switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a directed link (an egress port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Node classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An RNIC of a host: `(host, rail)`.
    Nic {
        /// Host index.
        host: u32,
        /// Rail (RNIC index within the host).
        rail: u32,
    },
    /// A ToR switch: `(segment, rail, plane)`.
    Tor {
        /// Segment (pod) index.
        segment: u32,
        /// Rail.
        rail: u32,
        /// Plane.
        plane: u32,
    },
    /// An aggregation switch: `(plane, index)`.
    Agg {
        /// Plane.
        plane: u32,
        /// Index within the plane.
        index: u32,
    },
}

/// Clos topology parameters.
#[derive(Debug, Clone)]
pub struct ClosConfig {
    /// Network segments (pods).
    pub segments: usize,
    /// Hosts per segment.
    pub hosts_per_segment: usize,
    /// RNICs (rails) per host.
    pub rails: usize,
    /// Planes (ports per RNIC).
    pub planes: usize,
    /// Aggregation switches per plane.
    pub aggs_per_plane: usize,
}

impl Default for ClosConfig {
    fn default() -> Self {
        // A scaled-down HPN7.0 slice: 2 segments × 15 hosts × 4 rails,
        // dual plane, 60-wide aggregation (the paper's agg count).
        ClosConfig {
            segments: 2,
            hosts_per_segment: 15,
            rails: 4,
            planes: 2,
            aggs_per_plane: 60,
        }
    }
}

/// Why a [`ClosConfig`] cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosConfigError {
    /// A dimension is 0; names the field.
    Zero(&'static str),
    /// `planes` is above 32: the fluid model keeps a flow's planes in a
    /// 32-bit set.
    TooManyPlanes(usize),
    /// The node count does not fit the `u32` node ids.
    TooManyNodes,
    /// The link count does not fit the `u32` link ids.
    TooManyLinks,
}

impl std::fmt::Display for ClosConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClosConfigError::Zero(field) => write!(f, "clos config: {field} is 0"),
            ClosConfigError::TooManyPlanes(n) => {
                write!(f, "clos config: planes {n} is above 32")
            }
            ClosConfigError::TooManyNodes => {
                write!(f, "clos config: the node count does not fit 32-bit ids")
            }
            ClosConfigError::TooManyLinks => {
                write!(f, "clos config: the link count does not fit 32-bit ids")
            }
        }
    }
}

impl std::error::Error for ClosConfigError {}

impl ClosConfig {
    /// Check that the layout can be built: every dimension nonzero, at
    /// most 32 planes (the fluid model's per-flow plane set is a `u32`
    /// bit set), and node and link counts that fit the `u32` ids
    /// [`ClosTopology::build`] hands out.
    pub fn validate(&self) -> Result<(), ClosConfigError> {
        for (field, n) in [
            ("segments", self.segments),
            ("hosts_per_segment", self.hosts_per_segment),
            ("rails", self.rails),
            ("planes", self.planes),
            ("aggs_per_plane", self.aggs_per_plane),
        ] {
            if n == 0 {
                return Err(ClosConfigError::Zero(field));
            }
        }
        if self.planes > 32 {
            return Err(ClosConfigError::TooManyPlanes(self.planes));
        }
        // Widened and saturating: a product past `u128` still exceeds
        // the `u32` id space.
        let [segments, hosts, rails, planes, aggs] = [
            self.segments,
            self.hosts_per_segment,
            self.rails,
            self.planes,
            self.aggs_per_plane,
        ]
        .map(|n| n as u128);
        let nics = segments.saturating_mul(hosts).saturating_mul(rails);
        let tors = segments.saturating_mul(rails).saturating_mul(planes);
        let nodes = nics
            .saturating_add(tors)
            .saturating_add(planes.saturating_mul(aggs));
        if nodes > u128::from(u32::MAX) {
            return Err(ClosConfigError::TooManyNodes);
        }
        let links = nics
            .saturating_mul(planes)
            .saturating_add(tors.saturating_mul(aggs))
            .saturating_mul(2);
        if links > u128::from(u32::MAX) {
            return Err(ClosConfigError::TooManyLinks);
        }
        Ok(())
    }
}

/// A built topology with dense node/link id spaces.
///
/// Link ids follow one arithmetic layout, so a route is computed, not
/// looked up. Each link comes with its reverse at the next id:
///
/// * NIC port `(nic, plane)`: uplink `2·(nic·planes + plane)`, the ToR's
///   downlink to it one above;
/// * ToR `t` (dense `(segment·rails + rail)·planes + plane`) to agg `a`
///   of its plane: uplink `2·nics·planes + 2·(t·aggs_per_plane + a)`,
///   the agg's downlink to it one above.
#[derive(Debug, Clone)]
pub struct ClosTopology {
    config: ClosConfig,
    nodes: Vec<NodeKind>,
    /// `links[i] = (from, to)`.
    links: Vec<(NodeId, NodeId)>,
}

impl ClosTopology {
    /// Build the topology.
    ///
    /// # Panics
    /// If `config` fails [`ClosConfig::validate`], with the error's
    /// message.
    pub fn build(config: ClosConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }

        let mut nodes = Vec::new();
        let mut links = Vec::new();

        let total_hosts = config.segments * config.hosts_per_segment;
        let nic_count = total_hosts * config.rails;

        // NIC nodes first (dense NicId == node id).
        for host in 0..total_hosts {
            for rail in 0..config.rails {
                nodes.push(NodeKind::Nic {
                    host: host as u32,
                    rail: rail as u32,
                });
            }
        }
        // ToRs.
        let tor_count = config.segments * config.rails * config.planes;
        let tor_base = nodes.len();
        for segment in 0..config.segments {
            for rail in 0..config.rails {
                for plane in 0..config.planes {
                    nodes.push(NodeKind::Tor {
                        segment: segment as u32,
                        rail: rail as u32,
                        plane: plane as u32,
                    });
                }
            }
        }
        // Aggs.
        let agg_base = nodes.len();
        for plane in 0..config.planes {
            for index in 0..config.aggs_per_plane {
                nodes.push(NodeKind::Agg {
                    plane: plane as u32,
                    index: index as u32,
                });
            }
        }

        let tor_node = |segment: usize, rail: usize, plane: usize| -> NodeId {
            NodeId(
                (tor_base + (segment * config.rails + rail) * config.planes + plane) as u32,
            )
        };
        let agg_node = |plane: usize, index: usize| -> NodeId {
            NodeId((agg_base + plane * config.aggs_per_plane + index) as u32)
        };

        // NIC <-> ToR links, in the order `nic_link` numbers them.
        for host in 0..total_hosts {
            let segment = host / config.hosts_per_segment;
            for rail in 0..config.rails {
                let nic = NodeId((host * config.rails + rail) as u32);
                for plane in 0..config.planes {
                    let tor = tor_node(segment, rail, plane);
                    links.push((nic, tor));
                    links.push((tor, nic));
                }
            }
        }
        debug_assert_eq!(links.len(), 2 * nic_count * config.planes);

        // ToR <-> Agg links (full mesh within a plane), in the order
        // `tor_link` numbers them.
        for segment in 0..config.segments {
            for rail in 0..config.rails {
                for plane in 0..config.planes {
                    let tor = tor_node(segment, rail, plane);
                    for agg in 0..config.aggs_per_plane {
                        let a = agg_node(plane, agg);
                        links.push((tor, a));
                        links.push((a, tor));
                    }
                }
            }
        }
        debug_assert_eq!(
            links.len(),
            2 * (nic_count * config.planes + tor_count * config.aggs_per_plane)
        );

        ClosTopology {
            config,
            nodes,
            links,
        }
    }

    /// The uplink of NIC port `(nic, plane)`; its downlink is the next
    /// id.
    #[inline]
    fn nic_link(&self, nic: usize, plane: usize) -> u32 {
        (2 * (nic * self.config.planes + plane)) as u32
    }

    /// The plane of NIC port link `link` (an uplink or a downlink): the
    /// plane a route whose first hop is `link` rides.
    #[inline]
    pub(crate) fn nic_link_plane(&self, link: LinkId) -> usize {
        debug_assert!((link.0 as usize) < 2 * self.total_nics() * self.config.planes);
        (link.0 as usize / 2) % self.config.planes
    }

    /// The uplink from dense ToR `tor` to agg `agg` of its plane; the
    /// agg's downlink to the ToR is the next id.
    #[inline]
    fn tor_link(&self, tor: usize, agg: usize) -> u32 {
        let nic_links = 2 * self.total_nics() * self.config.planes;
        (nic_links + 2 * (tor * self.config.aggs_per_plane + agg)) as u32
    }

    /// The configuration this topology was built from.
    pub fn config(&self) -> &ClosConfig {
        &self.config
    }

    /// The NIC id for `(host, rail)`.
    pub fn nic(&self, host: usize, rail: usize) -> NicId {
        assert!(rail < self.config.rails, "rail out of range");
        let total_hosts = self.config.segments * self.config.hosts_per_segment;
        assert!(host < total_hosts, "host out of range");
        NicId((host * self.config.rails + rail) as u32)
    }

    /// `(host, rail)` of a NIC.
    pub fn nic_location(&self, nic: NicId) -> (usize, usize) {
        let idx = nic.0 as usize;
        (idx / self.config.rails, idx % self.config.rails)
    }

    /// The segment a host belongs to.
    pub fn segment_of_host(&self, host: usize) -> usize {
        host / self.config.hosts_per_segment
    }

    /// Total hosts.
    pub fn total_hosts(&self) -> usize {
        self.config.segments * self.config.hosts_per_segment
    }

    /// Total NICs.
    pub fn total_nics(&self) -> usize {
        self.total_hosts() * self.config.rails
    }

    /// Total nodes (NICs and switches).
    pub(crate) fn total_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total links.
    pub fn total_links(&self) -> usize {
        self.links.len()
    }

    /// Endpoints of a link.
    pub fn link_endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        self.links[link.0 as usize]
    }

    /// Every directed link touching `node` (either endpoint) — the set a
    /// switch failure takes down atomically.
    pub fn links_of_node(&self, node: NodeId) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, &(from, to))| from == node || to == node)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// The `(uplink, downlink)` pair of one NIC port: the two directed
    /// links between `nic` and its plane-`plane` ToR. A NIC-port failure
    /// takes both down.
    pub fn nic_port_links(&self, nic: NicId, plane: usize) -> (LinkId, LinkId) {
        assert!(plane < self.config.planes, "plane out of range");
        let up = self.nic_link(nic.0 as usize, plane);
        (LinkId(up), LinkId(up + 1))
    }

    /// The ToR node for `(segment, rail, plane)`.
    pub fn tor_node(&self, segment: usize, rail: usize, plane: usize) -> NodeId {
        assert!(segment < self.config.segments, "segment out of range");
        assert!(rail < self.config.rails, "rail out of range");
        assert!(plane < self.config.planes, "plane out of range");
        let tor_base = self.total_nics();
        NodeId((tor_base + self.dense_tor(segment, rail, plane)) as u32)
    }

    /// The aggregation-switch node for `(plane, index)`.
    pub fn agg_node(&self, plane: usize, index: usize) -> NodeId {
        assert!(plane < self.config.planes, "plane out of range");
        assert!(index < self.config.aggs_per_plane, "agg index out of range");
        let agg_base =
            self.total_nics() + self.config.segments * self.config.rails * self.config.planes;
        NodeId((agg_base + plane * self.config.aggs_per_plane + index) as u32)
    }

    /// The node descriptor.
    pub fn node_kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.0 as usize]
    }

    /// Every ToR→Agg uplink (the ports whose balance Fig. 12 measures and
    /// whose queues Fig. 9 plots).
    pub fn tor_uplinks(&self) -> Vec<LinkId> {
        let c = &self.config;
        let first = self.tor_link(0, 0);
        let count = (c.segments * c.rails * c.planes * c.aggs_per_plane) as u32;
        (0..count).map(|k| LinkId(first + 2 * k)).collect()
    }

    fn dense_tor(&self, segment: usize, rail: usize, plane: usize) -> usize {
        (segment * self.config.rails + rail) * self.config.planes + plane
    }

    /// Deterministic ECMP hash (SplitMix64-style avalanche).
    fn ecmp_hash(flow: u64, path_id: u32, salt: u64) -> u64 {
        let mut z = flow
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(path_id as u64)
            .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Compute the link sequence from `src` to `dst` for `(flow, path_id)`.
    ///
    /// Returns an empty route when `src == dst` (host-local transfer).
    pub fn route(&self, src: NicId, dst: NicId, flow: u64, path_id: u32) -> Route {
        if src == dst {
            return Route::EMPTY;
        }
        let (src_host, src_rail) = self.nic_location(src);
        let (dst_host, dst_rail) = self.nic_location(dst);
        let src_seg = self.segment_of_host(src_host);
        let dst_seg = self.segment_of_host(dst_host);

        // The path id indexes the connection's path table: a per-flow
        // random offset (the ECMP hash of the flow) plus the path id,
        // striding across the (plane × agg) uplink space. Real multipath
        // RNICs program exactly such a table, which is why 128 paths
        // cover the paper's 120 uplinks almost perfectly (Fig. 12), while
        // path_id = 0 degenerates to classic per-flow ECMP.
        let slots = (self.config.planes * self.config.aggs_per_plane) as u64;
        let slot = (Self::ecmp_hash(flow, 0, 1).wrapping_add(path_id as u64)) % slots;
        let plane = (slot % self.config.planes as u64) as usize;

        let src_nic_idx = src.0 as usize;
        let dst_nic_idx = dst.0 as usize;

        // Same segment + same rail: turn around at the shared ToR.
        if src_seg == dst_seg && src_rail == dst_rail {
            return Route::two(
                LinkId(self.nic_link(src_nic_idx, plane)),
                LinkId(self.nic_link(dst_nic_idx, plane) + 1),
            );
        }

        // Cross-segment or cross-rail: via the aggregation layer. The
        // destination must be reached on the same plane (planes only meet
        // at the core, which we fold into the agg layer).
        assert_eq!(
            src_rail, dst_rail,
            "cross-rail traffic requires host-internal forwarding (NVLink), \
             not modelled; collective workloads are rail-aligned"
        );
        let agg = (slot / self.config.planes as u64) as usize;
        let src_tor = self.dense_tor(src_seg, src_rail, plane);
        let dst_tor = self.dense_tor(dst_seg, dst_rail, plane);
        Route::four(
            LinkId(self.nic_link(src_nic_idx, plane)),
            LinkId(self.tor_link(src_tor, agg)),
            LinkId(self.tor_link(dst_tor, agg) + 1),
            LinkId(self.nic_link(dst_nic_idx, plane) + 1),
        )
    }
}

/// A route through the Clos fabric, stored inline (a 2-tier Clos never
/// exceeds 4 hops: NIC up, ToR up, Agg down, ToR down).
///
/// [`ClosTopology::route`] runs once per simulated packet, so the route
/// must not heap-allocate. It dereferences to `&[LinkId]`, so call sites
/// index, iterate and `len()` exactly as they did when this was a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    links: [LinkId; 4],
    len: u8,
}

impl Route {
    /// The empty (host-local) route.
    pub const EMPTY: Route = Route {
        links: [LinkId(0); 4],
        len: 0,
    };

    fn two(a: LinkId, b: LinkId) -> Route {
        Route {
            links: [a, b, LinkId(0), LinkId(0)],
            len: 2,
        }
    }

    fn four(a: LinkId, b: LinkId, c: LinkId, d: LinkId) -> Route {
        Route {
            links: [a, b, c, d],
            len: 4,
        }
    }
}

impl std::ops::Deref for Route {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        &self.links[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Route {
    type Item = &'a LinkId;
    type IntoIter = std::slice::Iter<'a, LinkId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Route {
    type Item = LinkId;
    type IntoIter = std::iter::Take<std::array::IntoIter<LinkId, 4>>;

    fn into_iter(self) -> Self::IntoIter {
        self.links.into_iter().take(self.len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClosTopology {
        ClosTopology::build(ClosConfig {
            segments: 2,
            hosts_per_segment: 4,
            rails: 2,
            planes: 2,
            aggs_per_plane: 8,
        })
    }

    /// `validate` on the `small()` layout with one field changed.
    fn validate_with(change: impl FnOnce(&mut ClosConfig)) -> Result<(), ClosConfigError> {
        let mut config = small().config().clone();
        change(&mut config);
        config.validate()
    }

    #[test]
    fn validate_accepts_the_default_and_the_edges() {
        assert_eq!(ClosConfig::default().validate(), Ok(()));
        assert_eq!(validate_with(|_| {}), Ok(()));
        assert_eq!(validate_with(|c| c.planes = 32), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_segments() {
        assert_eq!(
            validate_with(|c| c.segments = 0),
            Err(ClosConfigError::Zero("segments"))
        );
    }

    #[test]
    fn validate_rejects_zero_hosts() {
        assert_eq!(
            validate_with(|c| c.hosts_per_segment = 0),
            Err(ClosConfigError::Zero("hosts_per_segment"))
        );
    }

    #[test]
    fn validate_rejects_zero_rails() {
        assert_eq!(
            validate_with(|c| c.rails = 0),
            Err(ClosConfigError::Zero("rails"))
        );
    }

    #[test]
    fn validate_rejects_zero_planes() {
        assert_eq!(
            validate_with(|c| c.planes = 0),
            Err(ClosConfigError::Zero("planes"))
        );
    }

    #[test]
    fn validate_rejects_zero_aggs() {
        assert_eq!(
            validate_with(|c| c.aggs_per_plane = 0),
            Err(ClosConfigError::Zero("aggs_per_plane"))
        );
    }

    #[test]
    fn validate_rejects_more_than_32_planes() {
        assert_eq!(
            validate_with(|c| c.planes = 33),
            Err(ClosConfigError::TooManyPlanes(33))
        );
    }

    #[test]
    fn validate_rejects_a_node_count_beyond_u32_ids() {
        // 2^33 NICs; and a product that overflows `usize` itself.
        assert_eq!(
            validate_with(|c| c.hosts_per_segment = 1 << 31),
            Err(ClosConfigError::TooManyNodes)
        );
        assert_eq!(
            validate_with(|c| c.segments = usize::MAX),
            Err(ClosConfigError::TooManyNodes)
        );
    }

    #[test]
    fn validate_rejects_a_link_count_beyond_u32_ids() {
        // 4 ToRs per plane, 2^27 aggs per plane: ~2^30 nodes, but 2^33
        // links.
        let config = ClosConfig {
            segments: 4,
            hosts_per_segment: 1,
            rails: 1,
            planes: 8,
            aggs_per_plane: 1 << 27,
        };
        assert_eq!(config.validate(), Err(ClosConfigError::TooManyLinks));
    }

    #[test]
    #[should_panic(expected = "clos config: planes 33 is above 32")]
    fn build_panics_with_the_validation_message() {
        ClosTopology::build(ClosConfig {
            planes: 33,
            ..ClosConfig::default()
        });
    }

    #[test]
    fn node_and_link_counts() {
        let t = small();
        assert_eq!(t.total_hosts(), 8);
        assert_eq!(t.total_nics(), 16);
        // NIC links: 16 NICs × 2 planes × 2 directions = 64.
        // ToR-agg: 2 seg × 2 rails × 2 planes = 8 ToRs × 8 aggs × 2 = 128.
        assert_eq!(t.total_links(), 64 + 128);
        assert_eq!(t.tor_uplinks().len(), 64);
    }

    #[test]
    fn nic_round_trip() {
        let t = small();
        let nic = t.nic(5, 1);
        assert_eq!(t.nic_location(nic), (5, 1));
        assert!(matches!(
            t.node_kind(NodeId(nic.0)),
            NodeKind::Nic { host: 5, rail: 1 }
        ));
    }

    #[test]
    fn same_rail_same_segment_stays_under_tor() {
        let t = small();
        let route = t.route(t.nic(0, 0), t.nic(1, 0), 42, 0);
        assert_eq!(route.len(), 2);
        // Both hops touch the same ToR.
        let (_, tor_in) = t.link_endpoints(route[0]);
        let (tor_out, _) = t.link_endpoints(route[1]);
        assert_eq!(tor_in, tor_out);
        assert!(matches!(t.node_kind(tor_in), NodeKind::Tor { .. }));
    }

    #[test]
    fn cross_segment_goes_via_agg() {
        let t = small();
        let route = t.route(t.nic(0, 0), t.nic(4, 0), 42, 0);
        assert_eq!(route.len(), 4);
        let (_, agg) = t.link_endpoints(route[1]);
        assert!(matches!(t.node_kind(agg), NodeKind::Agg { .. }));
    }

    #[test]
    fn route_is_contiguous() {
        let t = small();
        for path in 0..32 {
            let route = t.route(t.nic(1, 1), t.nic(6, 1), 7, path);
            for pair in route.windows(2) {
                let (_, a_to) = t.link_endpoints(pair[0]);
                let (b_from, _) = t.link_endpoints(pair[1]);
                assert_eq!(a_to, b_from, "hop discontinuity on path {path}");
            }
            let (first_from, _) = t.link_endpoints(route[0]);
            let (_, last_to) = t.link_endpoints(*route.last().unwrap());
            assert_eq!(first_from, NodeId(t.nic(1, 1).0));
            assert_eq!(last_to, NodeId(t.nic(6, 1).0));
        }
    }

    #[test]
    fn single_path_is_stable_but_multi_path_diversifies() {
        let t = small();
        let src = t.nic(0, 0);
        let dst = t.nic(4, 0);
        // Same (flow, path) always routes identically.
        assert_eq!(t.route(src, dst, 9, 3), t.route(src, dst, 9, 3));
        // Different path ids reach several distinct agg uplinks.
        let distinct: std::collections::HashSet<_> = (0..64)
            .map(|p| t.route(src, dst, 9, p)[1])
            .collect();
        assert!(distinct.len() > 8, "only {} distinct uplinks", distinct.len());
    }

    #[test]
    fn distinct_flows_hash_differently_on_fixed_path() {
        let t = small();
        let src = t.nic(0, 0);
        let dst = t.nic(4, 0);
        let distinct: std::collections::HashSet<_> =
            (0..64u64).map(|f| t.route(src, dst, f, 0)[1]).collect();
        assert!(distinct.len() > 8);
    }

    /// The computed link ids are the links `build` laid out: on small,
    /// asymmetric shapes, every hop of every route, for every rail-aligned
    /// NIC pair and enough path ids to hit every (plane, agg) slot, is
    /// the link between that hop's two nodes.
    #[test]
    fn arithmetic_routes_match_the_built_links() {
        for config in [
            ClosConfig {
                segments: 3,
                hosts_per_segment: 5,
                rails: 3,
                planes: 2,
                aggs_per_plane: 7,
            },
            ClosConfig {
                segments: 2,
                hosts_per_segment: 3,
                rails: 2,
                planes: 3,
                aggs_per_plane: 5,
            },
        ] {
            let t = ClosTopology::build(config.clone());
            let slots = (config.planes * config.aggs_per_plane) as u64;
            let nics = t.total_nics() as u32;
            let mut hops = 0;
            for (src, dst) in (0..nics).flat_map(|s| (0..nics).map(move |d| (NicId(s), NicId(d)))) {
                let ((src_host, rail), (dst_host, dst_rail)) =
                    (t.nic_location(src), t.nic_location(dst));
                if src == dst || rail != dst_rail {
                    continue;
                }
                let flow = u64::from(src.0) * 31 + u64::from(dst.0);
                for path in 0..slots as u32 + 3 {
                    let slot =
                        ClosTopology::ecmp_hash(flow, 0, 1).wrapping_add(u64::from(path)) % slots;
                    let plane = (slot % config.planes as u64) as usize;
                    let agg = (slot / config.planes as u64) as usize;
                    let (src_seg, dst_seg) =
                        (t.segment_of_host(src_host), t.segment_of_host(dst_host));
                    let src_tor = t.tor_node(src_seg, rail, plane);
                    let dst_tor = t.tor_node(dst_seg, rail, plane);
                    let nodes = if src_seg == dst_seg {
                        vec![NodeId(src.0), src_tor, NodeId(dst.0)]
                    } else {
                        let a = t.agg_node(plane, agg);
                        vec![NodeId(src.0), src_tor, a, dst_tor, NodeId(dst.0)]
                    };
                    let route = t.route(src, dst, flow, path);
                    assert_eq!(
                        route.len(),
                        nodes.len() - 1,
                        "{src:?} -> {dst:?} path {path}"
                    );
                    for (link, hop) in route.iter().zip(nodes.windows(2)) {
                        assert_eq!(t.link_endpoints(*link), (hop[0], hop[1]));
                        hops += 1;
                    }
                }
            }
            assert!(hops > 1000, "{hops} hops checked");
            // NIC ports and the ToR uplink list use the same layout.
            for nic in 0..nics {
                for plane in 0..config.planes {
                    let (up, down) = t.nic_port_links(NicId(nic), plane);
                    let (host, rail) = t.nic_location(NicId(nic));
                    let tor = t.tor_node(t.segment_of_host(host), rail, plane);
                    assert_eq!(t.link_endpoints(up), (NodeId(nic), tor));
                    assert_eq!(t.link_endpoints(down), (tor, NodeId(nic)));
                }
            }
            let uplinks = t.tor_uplinks();
            assert_eq!(
                uplinks.len(),
                config.segments * config.rails * config.planes * config.aggs_per_plane
            );
            for l in uplinks {
                let (from, to) = t.link_endpoints(l);
                assert!(matches!(t.node_kind(from), NodeKind::Tor { .. }));
                assert!(matches!(t.node_kind(to), NodeKind::Agg { .. }));
            }
        }
    }

    #[test]
    fn loopback_is_empty() {
        let t = small();
        assert!(t.route(t.nic(2, 1), t.nic(2, 1), 1, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "rail-aligned")]
    fn cross_rail_rejected() {
        let t = small();
        t.route(t.nic(0, 0), t.nic(1, 1), 1, 0);
    }
}
