//! Property tests: VM→NC lookups agree with a plain `HashMap` model on
//! arbitrary maps and queries (duplicates, hits and misses included).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use albatross_gateway::vmnc::{NcInfo, VmNcMap};
use albatross_testkit::prelude::*;

props! {
    #![cases(128)]

    fn lookup_matches_hashmap_model(
        entries in vec_of((0u32..8, any::<u32>(), any::<u32>(), any::<u32>()), 0..64),
        queries in vec_of((0u32..8, any::<u32>()), 1..80),
    ) {
        // Small VNI space so a good fraction of queries hit; last write
        // wins on duplicate (vni, ip) keys in both the map and the model.
        let mut map = VmNcMap::new();
        let mut model = HashMap::new();
        for &(vni, ip, nc, evni) in &entries {
            let info = NcInfo {
                nc_addr: Ipv4Addr::from(nc),
                encap_vni: evni,
            };
            map.insert(vni, Ipv4Addr::from(ip), info);
            model.insert((vni, ip), info);
        }
        assert_eq!(map.len(), model.len());
        // Query every installed key as well, so hits are always exercised.
        let installed = entries.iter().map(|&(vni, ip, _, _)| (vni, ip));
        for (vni, ip) in queries.iter().copied().chain(installed) {
            assert_eq!(
                map.lookup(vni, Ipv4Addr::from(ip)),
                model.get(&(vni, ip)).copied(),
                "vni {vni} ip {}", Ipv4Addr::from(ip)
            );
        }
    }
}
