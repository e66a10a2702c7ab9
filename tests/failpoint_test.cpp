// Tests for the failpoint fault-injection registry: spec parsing, action
// semantics (error / throw / delay / 1in), determinism of the 1in counter,
// and catalog enumeration.  The registry itself is always compiled (only
// the CMC_FAILPOINT macro is gated), so these run in every build.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "util/failpoint.hpp"

namespace cmc::util {
namespace {

/// Every test leaves the global registry disarmed (it is process-wide).
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoint::disarmAll(); }
};

TEST_F(FailpointTest, CatalogSitesAreEnumerableBeforeFirstHit) {
  const std::vector<Failpoint::SiteInfo> sites = Failpoint::sites();
  const auto has = [&](const char* name) {
    for (const Failpoint::SiteInfo& s : sites) {
      if (s.name == name) return !s.description.empty();
    }
    return false;
  };
  EXPECT_TRUE(has("bdd.alloc_node"));
  EXPECT_TRUE(has("smv.elaborate"));
  EXPECT_TRUE(has("cache.disk_append"));
  EXPECT_TRUE(has("cache.disk_load"));
  EXPECT_TRUE(has("trace.write"));
  EXPECT_TRUE(has("scheduler.dispatch"));
  EXPECT_TRUE(has("scheduler.retry"));
  EXPECT_TRUE(has("scheduler.import"));
}

TEST_F(FailpointTest, DisarmedSiteIsANoOp) {
  Failpoint& fp = Failpoint::site("test.noop");
  EXPECT_NO_THROW(fp.evaluate());
  EXPECT_EQ(fp.hits(), 0u);
}

TEST_F(FailpointTest, ErrorActionThrowsFailpointErrorEveryHit) {
  Failpoint::configure("test.err=error");
  Failpoint& fp = Failpoint::site("test.err");
  EXPECT_THROW(fp.evaluate(), FailpointError);
  EXPECT_THROW(fp.evaluate(), Error);  // FailpointError IS-A cmc::Error
  EXPECT_EQ(fp.hits(), 2u);
}

TEST_F(FailpointTest, ThrowActionIsNotACmcError) {
  // The quarantine path distinguishes expected (cmc::Error) failures from
  // foreign exceptions; `throw` must model the latter.
  Failpoint::configure("test.foreign=throw");
  Failpoint& fp = Failpoint::site("test.foreign");
  try {
    fp.evaluate();
    FAIL() << "armed site did not fire";
  } catch (const Error&) {
    FAIL() << "`throw` action must not produce a cmc::Error";
  } catch (const std::runtime_error&) {
    // expected
  }
}

TEST_F(FailpointTest, OneInFiresDeterministicallyOnEveryNthHit) {
  Failpoint::configure("test.oneIn=1in(3)");
  Failpoint& fp = Failpoint::site("test.oneIn");
  for (int round = 0; round < 3; ++round) {
    EXPECT_NO_THROW(fp.evaluate());
    EXPECT_NO_THROW(fp.evaluate());
    EXPECT_THROW(fp.evaluate(), FailpointError);
  }
  EXPECT_EQ(fp.hits(), 9u);
  // Re-arming resets the counter, so a configured workload replays
  // identically from any starting point.
  Failpoint::configure("test.oneIn=1in(3)");
  EXPECT_EQ(fp.hits(), 0u);
  EXPECT_NO_THROW(fp.evaluate());
}

TEST_F(FailpointTest, DelaySleepsWithoutThrowing) {
  Failpoint::configure("test.slow=delay(20)");
  Failpoint& fp = Failpoint::site("test.slow");
  const auto before = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(fp.evaluate());
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10);
}

TEST_F(FailpointTest, OffActionDisarms) {
  Failpoint::configure("test.toggle=error");
  Failpoint& fp = Failpoint::site("test.toggle");
  EXPECT_THROW(fp.evaluate(), FailpointError);
  Failpoint::configure("test.toggle=off");
  EXPECT_NO_THROW(fp.evaluate());
}

TEST_F(FailpointTest, ConfigureListArmsEverySpec) {
  Failpoint::configureList("test.a=error,test.b=1in(2),,test.c=delay(0)");
  EXPECT_THROW(Failpoint::site("test.a").evaluate(), FailpointError);
  Failpoint& b = Failpoint::site("test.b");
  EXPECT_NO_THROW(b.evaluate());
  EXPECT_THROW(b.evaluate(), FailpointError);
  EXPECT_NO_THROW(Failpoint::site("test.c").evaluate());
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  EXPECT_THROW(Failpoint::configure("noequals"), Error);
  EXPECT_THROW(Failpoint::configure("=error"), Error);
  EXPECT_THROW(Failpoint::configure("test.x="), Error);
  EXPECT_THROW(Failpoint::configure("test.x=bogus"), Error);
  EXPECT_THROW(Failpoint::configure("test.x=delay"), Error);
  EXPECT_THROW(Failpoint::configure("test.x=delay(abc)"), Error);
  EXPECT_THROW(Failpoint::configure("test.x=1in()"), Error);
  EXPECT_THROW(Failpoint::configure("test.x=1in(0)"), Error);
}

TEST_F(FailpointTest, DisarmAllResetsActionsAndCounters) {
  Failpoint::configure("test.reset=1in(2)");
  Failpoint& fp = Failpoint::site("test.reset");
  EXPECT_NO_THROW(fp.evaluate());
  Failpoint::disarmAll();
  EXPECT_EQ(fp.hits(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_NO_THROW(fp.evaluate());
}

TEST_F(FailpointTest, CompiledInMatchesTheBuildFlag) {
#if defined(CMC_FAILPOINTS_ENABLED)
  EXPECT_TRUE(Failpoint::compiledIn());
#else
  EXPECT_FALSE(Failpoint::compiledIn());
#endif
}

}  // namespace
}  // namespace cmc::util
