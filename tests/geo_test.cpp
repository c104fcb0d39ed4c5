#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "geo/geodesy.hpp"
#include "geo/places.hpp"

namespace satnet::geo {
namespace {

// -------------------------------------------------------------- geodesy

TEST(GeodesyTest, DegRadRoundTrip) {
  EXPECT_NEAR(rad_to_deg(deg_to_rad(123.4)), 123.4, 1e-9);
  EXPECT_NEAR(deg_to_rad(180.0), 3.14159265358979, 1e-9);
}

TEST(GeodesyTest, EcefOnEquatorPrimeMeridian) {
  const Ecef e = to_ecef({0, 0, 0});
  EXPECT_NEAR(e.x, kEarthRadiusKm, 1e-6);
  EXPECT_NEAR(e.y, 0, 1e-6);
  EXPECT_NEAR(e.z, 0, 1e-6);
}

TEST(GeodesyTest, EcefAtNorthPole) {
  const Ecef e = to_ecef({90, 0, 0});
  EXPECT_NEAR(e.z, kEarthRadiusKm, 1e-6);
  EXPECT_NEAR(std::hypot(e.x, e.y), 0, 1e-6);
}

TEST(GeodesyTest, EcefAltitudeExtendsRadius) {
  const Ecef e = to_ecef({0, 0, 550});
  EXPECT_NEAR(e.x, kEarthRadiusKm + 550, 1e-6);
}

TEST(GeodesyTest, SurfaceDistanceSymmetric) {
  const GeoPoint a{40.7, -74.0, 0}, b{51.5, -0.1, 0};
  EXPECT_NEAR(surface_distance_km(a, b), surface_distance_km(b, a), 1e-9);
}

TEST(GeodesyTest, SurfaceDistanceKnownPair) {
  // New York to London: ~5570 km great circle.
  const double d = surface_distance_km({40.71, -74.01, 0}, {51.51, -0.13, 0});
  EXPECT_NEAR(d, 5570, 60);
}

TEST(GeodesyTest, SurfaceDistanceZeroForSamePoint) {
  EXPECT_NEAR(surface_distance_km({12, 34, 0}, {12, 34, 0}), 0, 1e-9);
}

TEST(GeodesyTest, AntipodalDistanceIsHalfCircumference) {
  const double d = surface_distance_km({0, 0, 0}, {0, 180, 0});
  EXPECT_NEAR(d, 3.14159265 * kEarthRadiusKm, 1.0);
}

TEST(GeodesyTest, SlantRangeOverheadSatellite) {
  // Satellite directly overhead: slant equals altitude.
  const double d = slant_range_km({10, 20, 0}, {10, 20, 550});
  EXPECT_NEAR(d, 550, 0.5);
}

TEST(GeodesyTest, SlantRangeChordLeqSurfacePath) {
  const GeoPoint a{0, 0, 0}, b{0, 90, 0};
  EXPECT_LT(slant_range_km(a, b), surface_distance_km(a, b));
}

TEST(GeodesyTest, ElevationOverheadIsNinety) {
  EXPECT_NEAR(elevation_deg({45, 45, 0}, {45, 45, 550}), 90.0, 0.01);
}

TEST(GeodesyTest, ElevationBelowHorizonIsNegative) {
  // Satellite on the opposite side of the planet.
  EXPECT_LT(elevation_deg({0, 0, 0}, {0, 180, 550}), 0.0);
}

TEST(GeodesyTest, GeoSlotElevationDropsWithLatitude) {
  const GeoPoint slot{0, -100, kGeoAltitudeKm};
  const double eq = elevation_deg({0, -100, 0}, slot);
  const double mid = elevation_deg({40, -100, 0}, slot);
  const double high = elevation_deg({65, -100, 0}, slot);
  EXPECT_GT(eq, mid);
  EXPECT_GT(mid, high);
  EXPECT_NEAR(eq, 90.0, 0.1);
}

TEST(GeodesyTest, RadioDelayMatchesLightSpeed) {
  EXPECT_NEAR(radio_delay_ms(299792.458), 1000.0, 1e-6);
  // GEO one-way up-leg: ~119 ms.
  EXPECT_NEAR(radio_delay_ms(35786.0), 119.4, 1.0);
}

TEST(GeodesyTest, FiberSlowerThanRadio) {
  EXPECT_GT(fiber_delay_ms(1000.0, 1.0), radio_delay_ms(1000.0));
}

TEST(GeodesyTest, FiberStretchScalesLinearly) {
  EXPECT_NEAR(fiber_delay_ms(1000, 2.0), 2 * fiber_delay_ms(1000, 1.0), 1e-9);
}

// --------------------------------------------------------------- places

TEST(PlacesTest, FindKnownCity) {
  const auto c = find_city("auckland");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->country_code, "NZ");
  EXPECT_NEAR(c->lat_deg, -36.85, 0.01);
}

TEST(PlacesTest, UnknownCityReturnsNullopt) {
  EXPECT_FALSE(find_city("atlantis").has_value());
}

TEST(PlacesTest, CityPointThrowsForUnknown) {
  EXPECT_THROW(city_point("atlantis"), std::out_of_range);
}

TEST(PlacesTest, EveryCityHasKnownCountry) {
  for (const auto& c : cities()) {
    EXPECT_TRUE(find_country(c.country_code).has_value())
        << c.name << " has unknown country " << c.country_code;
  }
}

TEST(PlacesTest, EveryCityCoordinateInRange) {
  for (const auto& c : cities()) {
    EXPECT_GE(c.lat_deg, -90.0);
    EXPECT_LE(c.lat_deg, 90.0);
    EXPECT_GE(c.lon_deg, -180.0);
    EXPECT_LE(c.lon_deg, 180.0);
  }
}

TEST(PlacesTest, ContinentLookup) {
  EXPECT_EQ(continent_of("NZ"), Continent::oceania);
  EXPECT_EQ(continent_of("US"), Continent::north_america);
  EXPECT_EQ(continent_of("DE"), Continent::europe);
  EXPECT_EQ(continent_of("CL"), Continent::south_america);
  EXPECT_EQ(continent_of("PH"), Continent::asia);
  EXPECT_THROW(continent_of("XX"), std::out_of_range);
}

TEST(PlacesTest, UsStatesHaveRegions) {
  for (const auto& s : us_states()) {
    EXPECT_FALSE(s.region.empty()) << s.code;
  }
  EXPECT_EQ(find_us_state("AK")->region, "Alaska");
  EXPECT_EQ(find_us_state("WA")->region, "Northwest");
  EXPECT_EQ(find_us_state("AZ")->region, "Southwest");
}

TEST(PlacesTest, Fig8aStatesPresent) {
  // Every state the paper's Figure 8a references must exist.
  for (const char* code : {"OR", "WA", "VA", "NY", "PA", "AZ", "AK", "NV"}) {
    EXPECT_TRUE(find_us_state(code).has_value()) << code;
  }
}

TEST(PlacesTest, StudyCitiesPresent) {
  // Cities the paper's narrative depends on.
  for (const char* name :
       {"seattle", "tokyo", "manila", "auckland", "sydney", "santiago",
        "frankfurt", "london", "amsterdam", "denver", "los angeles"}) {
    EXPECT_TRUE(find_city(name).has_value()) << name;
  }
}

TEST(PlacesTest, ManilaTokyoDistanceMatchesPaperScenario) {
  // The Philippines PoP detour: Manila to Tokyo is ~3,000 km.
  const double d = surface_distance_km(city_point("manila"), city_point("tokyo"));
  EXPECT_NEAR(d, 3000, 150);
}

TEST(PlacesTest, AnchorageSeattleDistanceMatchesPaperScenario) {
  // Paper: the Alaska probe's PoP (Seattle) is ~2,697 km away.
  const double d = surface_distance_km(city_point("anchorage"), city_point("seattle"));
  EXPECT_NEAR(d, 2290, 150);  // great-circle; the paper quotes road-ish distance
}

struct CountryCase {
  const char* code;
  Continent continent;
};

// Printing the code (not the default pointer dump) keeps the discovered
// ctest names stable across runs: they embed the printed parameter.
std::ostream& operator<<(std::ostream& os, const CountryCase& c) { return os << c.code; }

class ContinentParam : public ::testing::TestWithParam<CountryCase> {};

TEST_P(ContinentParam, MapsCorrectly) {
  EXPECT_EQ(continent_of(GetParam().code), GetParam().continent);
}

INSTANTIATE_TEST_SUITE_P(
    Countries, ContinentParam,
    ::testing::Values(CountryCase{"GB", Continent::europe},
                      CountryCase{"FR", Continent::europe},
                      CountryCase{"AU", Continent::oceania},
                      CountryCase{"FJ", Continent::oceania},
                      CountryCase{"JP", Continent::asia},
                      CountryCase{"BR", Continent::south_america},
                      CountryCase{"CA", Continent::north_america},
                      CountryCase{"NG", Continent::africa}));

}  // namespace
}  // namespace satnet::geo
