// Runtime checker for SELF : SPEC (paper Figure 7) — Self Delivery.
//
// Extends WvRfifoChecker with Figure 7's extra view precondition: an
// end-point may not deliver a new view before it has delivered every message
// its own application sent in the current view. This holds only when clients
// satisfy CLIENT:SPEC (Figure 12) — tests pair this checker with
// ClientChecker and a blocking client.
#pragma once

#include "spec/wv_rfifo_checker.hpp"

namespace vsgc::spec {

class SelfChecker : public WvRfifoChecker {
 protected:
  void check_view(const GcsView& e, ViewRef to) override {
    const std::size_t own_sent = sent_in_current_view(e.p);
    const std::int64_t own_delivered = delivered_from(e.p, e.p);
    VSGC_REQUIRE(
        own_delivered == static_cast<std::int64_t>(own_sent),
        "SELF: Self Delivery violated at "
            << to_string(e.p) << " moving to " << to_string(e.view.id)
            << ": delivered " << own_delivered << " of " << own_sent
            << " own messages sent in "
            << to_string(view(current_view_ref(e.p)).id));
    WvRfifoChecker::check_view(e, to);
  }
};

}  // namespace vsgc::spec
