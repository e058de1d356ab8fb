//! One test body under both replica layouts of the cluster engine.
//! Included by `crates/core/tests/{cluster,concurrency}.rs`.

/// Runs `$body` twice: first with `Cluster` naming
/// [`GhbaCluster`](ghba_core::GhbaCluster) (G-HBA's groups) and
/// `MIRRORED` false, then with `Cluster` naming
/// [`HbaCluster`](ghba_core::HbaCluster) (HBA's full mirror) and
/// `MIRRORED` true. The two aliases share no trait a test could be
/// generic over (the layout trait is crate-private), so the body is
/// expanded once per layout; `MIRRORED` picks an expectation that
/// differs by layout.
macro_rules! on_each_layout {
    ($body:block) => {{
        on_each_layout!(@ ghba_core::GhbaCluster, false, $body);
        on_each_layout!(@ ghba_core::HbaCluster, true, $body);
    }};
    (@ $cluster:ty, $mirrored:expr, $body:block) => {{
        #[allow(dead_code)]
        type Cluster = $cluster;
        #[allow(dead_code)]
        const MIRRORED: bool = $mirrored;
        $body
    }};
}
