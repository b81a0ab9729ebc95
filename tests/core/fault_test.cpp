// Fault-injection registry unit tests (core/fault.hpp): exact-hit firing,
// spec parsing, and the disarmed fast path staying inert.
#include "core/fault.hpp"

#include <gtest/gtest.h>

namespace mts::fault {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::instance().reset(); }
  void TearDown() override { FaultRegistry::instance().reset(); }
};

TEST_F(FaultTest, DisarmedByDefaultAfterReset) {
  EXPECT_FALSE(faults_enabled());
  // The macro short-circuits on faults_enabled(); nothing fires, nothing
  // throws.
  MTS_FAULT_POINT("fault-test.disarmed");
  EXPECT_EQ(MTS_FAULT_ACTION("fault-test.disarmed"), Action::None);
}

TEST_F(FaultTest, FiresExactlyOnTheArmedHit) {
  auto& registry = FaultRegistry::instance();
  registry.arm("fault-test.exact", 3, Action::Throw);
  EXPECT_TRUE(faults_enabled());
  const PointId id = registry.point("fault-test.exact");
  EXPECT_EQ(registry.hit(id), Action::None);
  EXPECT_EQ(registry.hit(id), Action::None);
  EXPECT_EQ(registry.hit(id), Action::Throw);
  // One-shot: later hits are silent again.
  EXPECT_EQ(registry.hit(id), Action::None);
  EXPECT_EQ(registry.hit(id), Action::None);
}

TEST_F(FaultTest, PlainSiteEscalatesEveryActionToThrow) {
  for (const Action action : {Action::Throw, Action::Nan, Action::Limit}) {
    FaultRegistry::instance().reset();
    FaultRegistry::instance().arm("fault-test.plain", 1, action);
    EXPECT_THROW(MTS_FAULT_POINT("fault-test.plain"), FaultInjected) << to_string(action);
  }
}

TEST_F(FaultTest, ValueSiteReportsTheArmedAction) {
  FaultRegistry::instance().arm("fault-test.value", 2, Action::Nan);
  EXPECT_EQ(MTS_FAULT_ACTION("fault-test.value"), Action::None);
  EXPECT_EQ(MTS_FAULT_ACTION("fault-test.value"), Action::Nan);
  EXPECT_EQ(MTS_FAULT_ACTION("fault-test.value"), Action::None);
}

TEST_F(FaultTest, ArmValidatesItsArguments) {
  EXPECT_THROW(FaultRegistry::instance().arm("p", 0, Action::Throw), PreconditionViolation);
  EXPECT_THROW(FaultRegistry::instance().arm("p", 1, Action::None), PreconditionViolation);
}

TEST_F(FaultTest, SpecParsingArmsEveryEntry) {
  auto& registry = FaultRegistry::instance();
  registry.arm_from_spec("fault-test.a:after=1:throw,fault-test.b:after=7:limit");
  EXPECT_TRUE(faults_enabled());
  EXPECT_EQ(registry.hit(registry.point("fault-test.a")), Action::Throw);
  const PointId b = registry.point("fault-test.b");
  for (int i = 0; i < 6; ++i) EXPECT_EQ(registry.hit(b), Action::None);
  EXPECT_EQ(registry.hit(b), Action::Limit);
}

TEST_F(FaultTest, SpecParsingRejectsMalformedEntries) {
  auto& registry = FaultRegistry::instance();
  EXPECT_THROW(registry.arm_from_spec("lp.pivot"), InvalidInput);
  EXPECT_THROW(registry.arm_from_spec("lp.pivot:after=100"), InvalidInput);
  EXPECT_THROW(registry.arm_from_spec("lp.pivot:count=100:throw"), InvalidInput);
  EXPECT_THROW(registry.arm_from_spec("lp.pivot:after=0:throw"), InvalidInput);
  EXPECT_THROW(registry.arm_from_spec("lp.pivot:after=ten:throw"), InvalidInput);
  EXPECT_THROW(registry.arm_from_spec("lp.pivot:after=18446744073709551616:throw"), InvalidInput);
  EXPECT_THROW(registry.arm_from_spec("lp.pivot:after=1:explode"), InvalidInput);
  EXPECT_THROW(registry.arm_from_spec(":after=1:throw"), InvalidInput);
}

TEST_F(FaultTest, ThrowInjectedNamesThePointAndTaxonomyClassifiesIt) {
  try {
    throw_injected("oracle.solve", Action::Limit);
    FAIL() << "throw_injected returned";
  } catch (const FaultInjected& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("oracle.solve"), std::string::npos);
    EXPECT_NE(what.find("limit"), std::string::npos);
  }
  try {
    throw_injected("lp.pivot", Action::Throw);
  } catch (...) {
    const std::string taxonomy = current_exception_taxonomy();
    EXPECT_EQ(taxonomy.rfind("fault-injected: ", 0), 0u) << taxonomy;
  }
}

TEST_F(FaultTest, StallActionParsesAndReportsAtValueSites) {
  // `stall` joins the spec grammar; plain sites still escalate it to a
  // throw (they have no way to emulate a wedge), value sites see it and
  // sleep natively (net.write does).
  auto& registry = FaultRegistry::instance();
  registry.arm_from_spec("fault-test.stall:after=2:stall");
  EXPECT_EQ(MTS_FAULT_ACTION("fault-test.stall"), Action::None);
  EXPECT_EQ(MTS_FAULT_ACTION("fault-test.stall"), Action::Stall);
  EXPECT_EQ(to_string(Action::Stall), "stall");
  registry.reset();
  registry.arm("fault-test.stall-plain", 1, Action::Stall);
  EXPECT_THROW(MTS_FAULT_POINT("fault-test.stall-plain"), FaultInjected);
}

TEST_F(FaultTest, KnownPointsAreArmable) {
  for (const char* name : kKnownPoints) {
    FaultRegistry::instance().arm(name, 1, Action::Throw);
    const PointId id = FaultRegistry::instance().point(name);
    EXPECT_EQ(FaultRegistry::instance().hit(id), Action::Throw) << name;
  }
}

}  // namespace
}  // namespace mts::fault
