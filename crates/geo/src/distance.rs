//! Geodesic distance and fiber-latency constants.
//!
//! The paper reports propagation delays in milliseconds and converts between
//! distance and delay at roughly 5 µs/km ("100 microseconds, i.e.,
//! approximately 20 km", §5.3). We use the physically-derived value for
//! standard single-mode fiber (refractive index ≈ 1.468): 4.9 µs/km.

use crate::GeoPoint;

/// Mean Earth radius in kilometers (IUGG).
pub const EARTH_RADIUS_KM: f64 = 6371.0088;

/// Speed of light in vacuum, km/s.
pub const SPEED_OF_LIGHT_KM_PER_S: f64 = 299_792.458;

/// One-way propagation delay along single-mode fiber, microseconds per km.
///
/// `1e6 * n / c` with refractive index `n = 1.468`; ≈ 4.897 µs/km. The paper's
/// "100 µs ≈ 20 km" equivalence corresponds to 5 µs/km.
pub const FIBER_US_PER_KM: f64 = 1e6 * 1.468 / SPEED_OF_LIGHT_KM_PER_S;

/// Great-circle (haversine) distance between two points, in kilometers.
///
/// Accurate to ~0.5 % against the WGS84 ellipsoid, which is far below the
/// geographic uncertainty of any fiber-route data; the paper's analysis
/// tolerates tens of kilometers.
pub fn haversine_km(a: &GeoPoint, b: &GeoPoint) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

/// One-way propagation delay over `km` kilometers of fiber, in microseconds.
pub fn fiber_delay_us(km: f64) -> f64 {
    km * FIBER_US_PER_KM
}

/// One-way line-of-sight (great-circle) delay between two points assuming
/// fiber laid exactly along the geodesic — the paper's LOS lower bound.
pub fn los_delay_us(a: &GeoPoint, b: &GeoPoint) -> f64 {
    fiber_delay_us(haversine_km(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_constant_matches_papers_rule_of_thumb() {
        // Paper: 100 µs ≈ 20 km → 5 µs/km. Physical value is within 3 %.
        assert!((FIBER_US_PER_KM - 5.0).abs() < 0.15, "{FIBER_US_PER_KM}");
    }

    #[test]
    fn nyc_la_is_about_3940_km() {
        let nyc = GeoPoint::new_unchecked(40.7128, -74.0060);
        let la = GeoPoint::new_unchecked(34.0522, -118.2437);
        let d = haversine_km(&nyc, &la);
        assert!((d - 3940.0).abs() < 30.0, "got {d}");
    }

    #[test]
    fn transcontinental_los_delay_is_about_19_ms() {
        let nyc = GeoPoint::new_unchecked(40.7128, -74.0060);
        let la = GeoPoint::new_unchecked(34.0522, -118.2437);
        let us = los_delay_us(&nyc, &la);
        assert!((us - 19_300.0).abs() < 500.0, "got {us} µs");
    }

    #[test]
    fn delay_is_linear_in_distance() {
        assert!((fiber_delay_us(200.0) - 2.0 * fiber_delay_us(100.0)).abs() < 1e-9);
        assert_eq!(fiber_delay_us(0.0), 0.0);
    }

    #[test]
    fn antipodal_distance_near_half_circumference() {
        let a = GeoPoint::new_unchecked(0.0, 0.0);
        let b = GeoPoint::new_unchecked(0.0, 180.0);
        let d = haversine_km(&a, &b);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
    }

    /// External oracle: the Internet2/OS3E topology file lists link delays
    /// that are exact great-circle lengths at R = 6 370 km divided by
    /// 200 000 km/s (light in fiber). Rescaling our haversine to that
    /// radius must reproduce every listed delay.
    #[test]
    fn haversine_reproduces_os3e_link_delays() {
        // (lon, lat) as the topology file lists them.
        const BATON_ROUGE: (f64, f64) = (-91.186994, 30.443335);
        const HOUSTON: (f64, f64) = (-95.369784, 29.760450);
        const JACKSONVILLE: (f64, f64) = (-81.655799, 30.331380);
        const JACKSON: (f64, f64) = (-90.180489, 32.298690);
        const MEMPHIS: (f64, f64) = (-90.048929, 35.149680);
        const CHICAGO: (f64, f64) = (-87.632409, 41.884150);
        const INDIANAPOLIS: (f64, f64) = (-86.149964, 39.766910);
        const KANSAS_CITY: (f64, f64) = (-94.583062, 39.102960);
        const MINNEAPOLIS: (f64, f64) = (-93.264929, 44.979035);
        const CLEVELAND: (f64, f64) = (-81.690459, 41.504365);
        const PHILADELPHIA: (f64, f64) = (-75.162369, 39.952270);
        const NEW_YORK: (f64, f64) = (-74.007124, 40.714550);
        let links = [
            (BATON_ROUGE, HOUSTON, 0.00204694783608),
            (BATON_ROUGE, JACKSONVILLE, 0.00456949380551),
            (JACKSON, HOUSTON, 0.00284566493052),
            (JACKSON, MEMPHIS, 0.00158599557917),
            (CHICAGO, INDIANAPOLIS, 0.00133187913866),
            (CHICAGO, KANSAS_CITY, 0.00331874650553),
            (CHICAGO, MINNEAPOLIS, 0.00285011350871),
            (CHICAGO, CLEVELAND, 0.00247492350823),
            (PHILADELPHIA, NEW_YORK, 0.000647444847461),
        ];
        for ((alon, alat), (blon, blat), listed_s) in links {
            let a = GeoPoint::new_unchecked(alat, alon);
            let b = GeoPoint::new_unchecked(blat, blon);
            let delay_s = haversine_km(&a, &b) * 6370.0 / EARTH_RADIUS_KM / 200_000.0;
            let rel = (delay_s - listed_s).abs() / listed_s;
            assert!(
                rel < 1e-9,
                "({alat}, {alon})–({blat}, {blon}): {delay_s} vs {listed_s}"
            );
        }
    }
}
