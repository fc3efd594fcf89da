//! One module per paper artifact. Every function both prints its
//! table and returns the data, so integration tests can assert the
//! shapes (who wins, crossovers, ceilings) without parsing text.

pub(crate) mod ablations;
pub mod apps;
pub mod faults;
pub mod fig2;
pub mod io;
pub mod latency;
pub mod micro;
pub mod nfv;
pub mod overload;
pub mod staging;
pub mod trace;

/// Every experiment by its `ps-bench` name, in paper order. Each
/// prints its own table; the rows it returns are for the tests.
pub const BY_NAME: [(&str, fn()); 22] = [
    ("spec", || _ = micro::spec_table2()),
    ("table1", || _ = micro::table1_pcie()),
    ("launch", || _ = micro::launch_latency()),
    ("fig2", || _ = fig2::run()),
    ("table3", || _ = io::table3_breakdown()),
    ("fig5", || _ = io::fig5_batching()),
    ("fig6", || _ = io::fig6_io_engine()),
    ("numa", || _ = io::numa_placement()),
    ("fig11a", || _ = apps::fig11a_ipv4()),
    ("fig11b", || _ = apps::fig11b_ipv6()),
    ("fig11c", || _ = apps::fig11c_openflow()),
    ("fig11d", || _ = apps::fig11d_ipsec()),
    ("fig12", || _ = latency::fig12()),
    ("ablate-gather", || _ = ablations::gather_scatter()),
    ("ablate-streams", || _ = ablations::concurrent_copy()),
    ("ablate-opportunistic", || _ = ablations::opportunistic()),
    ("ablate-staging", || _ = staging::run()),
    ("nfv", nfv::run),
    ("nfv-apps", || _ = nfv::cross_nf()),
    ("nfv-pressure", nfv::flow_pressure),
    ("overload", || _ = overload::run()),
    ("trace-breakdown", || _ = trace::stage_breakdown()),
];

/// Run everything in paper order (the `ps-bench all` entry point);
/// `nfv` already covers `nfv-apps` and `nfv-pressure`.
pub fn run_all() {
    for (name, run) in BY_NAME {
        if !matches!(name, "nfv-apps" | "nfv-pressure") {
            run();
        }
    }
}
