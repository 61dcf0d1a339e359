// Certification tests: the kernel's reference monitor against the
// independently-stated MITRE model, checked exhaustively over the finite
// label space — the machine-checkable slice of the paper's boxes 4 and 6.
#include <gtest/gtest.h>

#include "src/verify/flow_model.h"

namespace mks {
namespace {

TEST(FlowModel, SpecificationIsSelfConsistent) {
  // The access-rule phrasing and the information-flow phrasing of the model
  // must agree everywhere (8 levels, all subsets of 5 categories: 102,400
  // decisions).
  EXPECT_EQ(CheckSpecificationSelfConsistency(5), 0);
}

TEST(FlowModel, ModelSpotChecks) {
  const ModelLabel low{0, 0};
  const ModelLabel secret{3, 0b011};
  const ModelLabel partial{3, 0b100};
  EXPECT_TRUE(ModelDecision(secret, low, ModelOp::kObserve));    // read down
  EXPECT_FALSE(ModelDecision(low, secret, ModelOp::kObserve));   // no read up
  EXPECT_TRUE(ModelDecision(low, secret, ModelOp::kModify));     // write up
  EXPECT_FALSE(ModelDecision(secret, low, ModelOp::kModify));    // no write down
  // Incomparable categories: neither observe nor be observed.
  EXPECT_FALSE(ModelDecision(secret, partial, ModelOp::kObserve));
  EXPECT_FALSE(ModelDecision(partial, secret, ModelOp::kObserve));
}

TEST(FlowModel, MonitorCompliesExhaustively) {
  Clock clock;
  ReferenceMonitor monitor(&clock);
  // 8 levels x 8 levels x 16 x 16 category subsets x 2 ops = 32,768 decisions.
  const auto divergences = VerifyMonitorAgainstModel(&monitor, /*category_width=*/4);
  EXPECT_TRUE(divergences.empty()) << [&] {
    std::string out;
    for (size_t i = 0; i < divergences.size() && i < 5; ++i) {
      out += divergences[i].ToString() + "\n";
    }
    return out + std::to_string(divergences.size()) + " total divergences";
  }();
}

TEST(FlowModel, WiderCategorySweepStillComplies) {
  Clock clock;
  ReferenceMonitor monitor(&clock);
  // 6 categories: 8*8*64*64*2 = 524,288 decisions; still fast.
  EXPECT_TRUE(VerifyMonitorAgainstModel(&monitor, /*category_width=*/6).empty());
}

TEST(FlowModel, DetectsANonCompliantMonitorStandIn) {
  // Sanity of the checker itself: a deliberately wrong decision procedure
  // diverges.  (We fake it by flipping the operation we ask about.)
  Clock clock;
  ReferenceMonitor monitor(&clock);
  int flipped_divergences = 0;
  for (int ls = 0; ls <= 7; ++ls) {
    for (int lo = 0; lo <= 7; ++lo) {
      const Subject subject{Principal{"x", "y"}, Label(static_cast<uint8_t>(ls), 0), 4};
      const Label object(static_cast<uint8_t>(lo), 0);
      const bool model_allows =
          ModelDecision(ModelLabel{ls, 0}, ModelLabel{lo, 0}, ModelOp::kObserve);
      // Ask the monitor the WRONG question (modify instead of observe).
      const bool wrong_monitor =
          monitor.CheckFlow(subject, object, FlowDirection::kModify).ok();
      if (model_allows != wrong_monitor) {
        ++flipped_divergences;
      }
    }
  }
  EXPECT_GT(flipped_divergences, 0);
}

}  // namespace
}  // namespace mks
