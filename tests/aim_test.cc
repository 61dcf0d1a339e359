// Tests for the Access Isolation Mechanism: labels, ACLs, and the reference
// monitor's mandatory checks.
#include <gtest/gtest.h>

#include "src/aim/monitor.h"

namespace mks {
namespace {

TEST(Label, DominanceBasics) {
  const Label low(0, 0);
  const Label secret(3, 0b101);
  EXPECT_TRUE(secret.Dominates(low));
  EXPECT_FALSE(low.Dominates(secret));
  EXPECT_TRUE(secret.Dominates(secret));
}

TEST(Label, CompartmentsMatter) {
  const Label a(3, 0b01);
  const Label b(3, 0b10);
  EXPECT_FALSE(a.Dominates(b));
  EXPECT_FALSE(b.Dominates(a));
  EXPECT_FALSE(a.Comparable(b));
}

TEST(Label, SystemHighDominatesEverythingLowIsDominated) {
  for (uint8_t level = 0; level <= Label::kMaxLevel; ++level) {
    const Label l(level, (1u << level) - 1);
    EXPECT_TRUE(Label::SystemHigh().Dominates(l));
    EXPECT_TRUE(l.Dominates(Label::SystemLow()));
  }
}

TEST(Label, ClampsOutOfRangeInputs) {
  const Label l(200, 0xffffffff);
  EXPECT_EQ(l.level(), Label::kMaxLevel);
  EXPECT_EQ(l.compartments(), Label::kCompartmentMask);
}

TEST(Label, ToStringReadable) {
  EXPECT_EQ(Label(3, 0b100001).ToString(), "L3{0,5}");
  EXPECT_EQ(Label::SystemLow().ToString(), "L0{}");
}

// Property sweep: lub/glb are the least upper / greatest lower bounds.
class LabelLatticeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LabelLatticeTest, LubGlbAreBounds) {
  const auto [la, lb] = GetParam();
  const Label a(static_cast<uint8_t>(la % 8), static_cast<uint32_t>(la * 2654435761u));
  const Label b(static_cast<uint8_t>(lb % 8), static_cast<uint32_t>(lb * 40503u));
  const Label up = Label::Lub(a, b);
  const Label down = Label::Glb(a, b);
  EXPECT_TRUE(up.Dominates(a));
  EXPECT_TRUE(up.Dominates(b));
  EXPECT_TRUE(a.Dominates(down));
  EXPECT_TRUE(b.Dominates(down));
  // Tightness: lub is dominated by any common upper bound we can build.
  const Label common(7, Label::kCompartmentMask);
  EXPECT_TRUE(common.Dominates(up));
}

INSTANTIATE_TEST_SUITE_P(Pairs, LabelLatticeTest,
                         ::testing::Combine(::testing::Values(0, 1, 3, 5, 7, 11),
                                            ::testing::Values(0, 2, 4, 6, 9, 13)));

TEST(Acl, FirstMatchWins) {
  Acl acl;
  acl.Add(AclEntry{"Jones", "Projx", AccessModes::None()});
  acl.Add(AclEntry{"*", "Projx", AccessModes::RW()});
  EXPECT_FALSE(acl.ModesFor(Principal{"Jones", "Projx"}).any());
  EXPECT_TRUE(acl.ModesFor(Principal{"Smith", "Projx"}).write);
  EXPECT_FALSE(acl.ModesFor(Principal{"Smith", "Other"}).any());
}

TEST(Acl, WildcardsMatchEitherComponent) {
  Acl acl;
  acl.Add(AclEntry{"Admin", "*", AccessModes::RWE()});
  EXPECT_TRUE(acl.ModesFor(Principal{"Admin", "Anything"}).execute);
  EXPECT_FALSE(acl.ModesFor(Principal{"NotAdmin", "Anything"}).any());
}

struct MonitorFixture {
  Clock clock;
  ReferenceMonitor monitor{&clock};
};

TEST(ReferenceMonitor, SimpleSecurityNoReadUp) {
  MonitorFixture fx;
  const Subject low{Principal{"Jones", "P"}, Label(1, 0), 4};
  EXPECT_TRUE(fx.monitor.CheckFlow(low, Label(1, 0), FlowDirection::kObserve).ok());
  EXPECT_TRUE(fx.monitor.CheckFlow(low, Label(0, 0), FlowDirection::kObserve).ok());
  EXPECT_EQ(fx.monitor.CheckFlow(low, Label(2, 0), FlowDirection::kObserve).code(),
            Code::kNoAccess);
}

TEST(ReferenceMonitor, StarPropertyNoWriteDown) {
  MonitorFixture fx;
  const Subject high{Principal{"Jones", "P"}, Label(3, 0), 4};
  EXPECT_TRUE(fx.monitor.CheckFlow(high, Label(3, 0), FlowDirection::kModify).ok());
  EXPECT_TRUE(fx.monitor.CheckFlow(high, Label(4, 0), FlowDirection::kModify).ok());
  EXPECT_EQ(fx.monitor.CheckFlow(high, Label(2, 0), FlowDirection::kModify).code(),
            Code::kNoAccess);
}

TEST(ReferenceMonitor, AclAndMandatoryBothRequired) {
  MonitorFixture fx;
  Acl acl;
  acl.Add(AclEntry{"Jones", "P", AccessModes::RW()});
  const Subject subject{Principal{"Jones", "P"}, Label(2, 0), 4};
  // ACL grants but the label forbids observing up.
  EXPECT_EQ(fx.monitor
                .CheckAccess(subject, acl, Label(3, 0), FlowDirection::kObserve, true, false,
                             false, "read", "x")
                .code(),
            Code::kNoAccess);
  // Label fine but ACL missing for another principal.
  const Subject other{Principal{"Smith", "P"}, Label(3, 0), 4};
  EXPECT_EQ(fx.monitor
                .CheckAccess(other, acl, Label(2, 0), FlowDirection::kObserve, true, false,
                             false, "read", "x")
                .code(),
            Code::kNoAccess);
  // Both fine.
  EXPECT_TRUE(fx.monitor
                  .CheckAccess(subject, acl, Label(2, 0), FlowDirection::kObserve, true, false,
                               false, "read", "x")
                  .ok());
}

TEST(ReferenceMonitor, ReadWriteNeedsLabelEquality) {
  MonitorFixture fx;
  Acl acl;
  acl.Add(AclEntry{"*", "*", AccessModes::RW()});
  const Subject subject{Principal{"Jones", "P"}, Label(2, 0), 4};
  // Observe+modify together requires both properties: only an equal label works.
  EXPECT_TRUE(fx.monitor
                  .CheckAccess(subject, acl, Label(2, 0), FlowDirection::kObserve, true, true,
                               false, "rw", "x")
                  .ok());
  EXPECT_FALSE(fx.monitor
                   .CheckAccess(subject, acl, Label(1, 0), FlowDirection::kObserve, true, true,
                                false, "rw", "x")
                   .ok());
  EXPECT_FALSE(fx.monitor
                   .CheckAccess(subject, acl, Label(3, 0), FlowDirection::kObserve, true, true,
                                false, "rw", "x")
                   .ok());
}

TEST(AuditLog, RecordsAndCountsDenials) {
  MonitorFixture fx;
  Acl empty;
  const Subject subject{Principal{"Mallory", "P"}, Label(0, 0), 4};
  for (int i = 0; i < 3; ++i) {
    (void)fx.monitor.CheckAccess(subject, empty, Label(0, 0), FlowDirection::kObserve, true,
                                 false, false, "read", "target" + std::to_string(i));
  }
  EXPECT_EQ(fx.monitor.audit_log().denial_count(), 3u);
  EXPECT_EQ(fx.monitor.audit_log().total_count(), 3u);
  EXPECT_EQ(fx.monitor.audit_log().records().back().subject, "Mallory.P");
}

TEST(AuditLog, BoundedCapacity) {
  AuditLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Append(AuditRecord{0, "s", "op", "t", Code::kOk});
  }
  EXPECT_EQ(log.records().size(), 4u);
  EXPECT_EQ(log.total_count(), 10u);
}

}  // namespace
}  // namespace mks
