// The derived JSON codec (obs/json_codec.hpp): every trace event round-trips
// through JSONL, and hostile input is rejected with `false`, never an
// exception.
#include "obs/json_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/schedule_script.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/failure_injector.hpp"
#include "spec/events.hpp"
#include "util/serialization.hpp"

namespace vsgc {
namespace {

// --- Round trip of every event type ----------------------------------------

/// Gives every field of a field list a non-default value: large integers
/// (above INT64_MAX for uint64, above INT32_MAX for uint32), strings that
/// need escaping, true bools, and three-element sets and maps.
struct Filler {
  std::uint64_t n = 1;

  template <class... F>
  void operator()(F&&... f) {
    (fill(f), ...);
  }

  template <class T>
  void fill(T& v) {
    ++n;
    if constexpr (codec::IsNamed<T>::value || codec::IsFlat<T>::value) {
      fill(v.value);
    } else if constexpr (std::is_same_v<T, bool>) {
      v = true;
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(std::numeric_limits<T>::max() - n);
    } else if constexpr (IntegerId<T>) {
      fill(v.value);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = "q\"b\\n\nt\t\x01\x7f\xff end " + std::to_string(n);
    } else if constexpr (codec::IsMap<T>::value) {
      for (int i = 0; i < 3; ++i) {
        typename T::key_type key{};
        fill(key);
        fill(v[key]);
      }
    } else if constexpr (codec::IsSet<T>::value || codec::IsVector<T>::value) {
      for (int i = 0; i < 3; ++i) {
        typename T::value_type e{};
        fill(e);
        v.insert(v.end(), std::move(e));
      }
    } else {
      v.fields(*this);
    }
  }
};

std::string jsonl(const std::vector<spec::Event>& events) {
  std::ostringstream os;
  obs::write_jsonl(events, os);
  return os.str();
}

template <class Body>
void expect_round_trip(std::set<std::string>* types) {
  SCOPED_TRACE(Body::kType);
  EXPECT_TRUE(types->insert(Body::kType).second) << "duplicate kType";
  spec::Event ev;
  ev.at = 1'234'567'890'123;
  Body body{};
  Filler filler;
  body.fields(filler);
  // Equality of every field, through the wire encoding of the same list.
  ASSERT_NE(encode(body), encode(Body{})) << "the filler left a default body";
  ev.body = body;

  const std::string text = jsonl({ev});
  std::istringstream is(text);
  std::vector<spec::Event> back;
  ASSERT_TRUE(obs::read_jsonl(is, &back)) << text;
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].at, ev.at);
  const Body* read = std::get_if<Body>(&back[0].body);
  ASSERT_NE(read, nullptr) << text;
  EXPECT_EQ(encode(*read), encode(body)) << text;
  EXPECT_EQ(jsonl(back), text);
}

template <std::size_t... I>
void expect_round_trip_all(std::index_sequence<I...>) {
  std::set<std::string> types;
  (expect_round_trip<std::variant_alternative_t<I, spec::EventBody>>(&types),
   ...);
}

TEST(JsonCodec, EveryEventTypeRoundTripsThroughJsonl) {
  expect_round_trip_all(
      std::make_index_sequence<std::variant_size_v<spec::EventBody>>{});
}

TEST(JsonCodec, EventRecordLayoutIsFixed) {
  View v;
  v.id = ViewId{3, 1};
  v.members = {ProcessId{1}, ProcessId{2}};
  v.start_id = {{ProcessId{1}, StartChangeId{4}},
                {ProcessId{2}, StartChangeId{5}}};
  const std::vector<spec::Event> events = {
      {7, spec::GcsView{ProcessId{1}, v, {ProcessId{1}}}},
      {8, spec::MsgRecv{ProcessId{2}, ProcessId{1}, ProcessId{1}, 9, true}},
  };
  EXPECT_EQ(jsonl(events),
            "{\"at\":7,\"type\":\"gcs_view\",\"p\":1,\"view\":{\"epoch\":3,"
            "\"origin\":1,\"members\":[1,2],\"start_id\":{\"1\":4,\"2\":5}},"
            "\"transitional\":[1]}\n"
            "{\"at\":8,\"type\":\"msg_recv\",\"p\":2,\"from\":1,\"sender\":1,"
            "\"uid\":9,\"fwd\":true}\n");
}

// --- Hostile input -----------------------------------------------------------

bool reads(const std::string& line) {
  std::istringstream is(line + "\n");
  std::vector<spec::Event> out;
  bool ok = true;
  EXPECT_NO_THROW(ok = obs::read_jsonl(is, &out)) << line;
  return ok;
}

TEST(JsonCodec, HostileJsonlIsRejectedWithoutThrowing) {
  const std::string view_prefix =
      R"({"at":1,"type":"mbr_view","p":1,"view":{"epoch":1,"origin":0,)"
      R"("members":[1],"start_id":)";
  ASSERT_TRUE(reads(view_prefix + R"({"1":1}}})"));
  EXPECT_FALSE(reads(view_prefix + R"({"x":1}}})"));
  EXPECT_FALSE(reads(view_prefix + R"({"start_id":{"x":1}}}})"));
  EXPECT_FALSE(reads(view_prefix + R"({"-1":1}}})"));
  EXPECT_FALSE(reads(view_prefix + R"({"":1}}})"));

  ASSERT_TRUE(reads(R"({"at":1,"type":"crash","p":4294967295})"));
  EXPECT_FALSE(reads(R"({"at":1,"type":"crash","p":-1})"));
  EXPECT_FALSE(reads(R"({"at":1,"type":"crash","p":99999999999})"));
  EXPECT_FALSE(reads(R"({"at":1,"type":"crash","p":1.5})"));
  EXPECT_FALSE(reads(R"({"at":1,"type":"crash"})"));

  const std::string send =
      R"({"at":1,"type":"gcs_send","p":1,"msg":{"sender":1,"uid":7,"payload":"x"}})";
  ASSERT_TRUE(reads(send));
  EXPECT_FALSE(reads(
      R"({"at":1,"type":"gcs_send","p":1,"msg":{"sender":1,"uid":"7","payload":"x"}})"));
  EXPECT_FALSE(reads(
      R"({"at":1,"type":"gcs_send","p":1,"msg":{"sender":1,"uid":-7,"payload":"x"}})"));
  for (std::size_t cut = 1; cut < send.size(); ++cut) {
    EXPECT_FALSE(reads(send.substr(0, cut))) << "truncated at " << cut;
  }

  EXPECT_FALSE(reads(R"({"at":1,"type":"nonsense","p":1})"));
  EXPECT_FALSE(reads(R"({"at":1,"type":7,"p":1})"));
  EXPECT_FALSE(reads(R"({"at":"1","type":"crash","p":1})"));
  EXPECT_FALSE(reads(R"([{"at":1,"type":"crash","p":1}])"));
  EXPECT_FALSE(reads(std::string(100000, '[')));
}

TEST(JsonCodec, WrongTypedScriptFieldsAreRejected) {
  sim::FaultScript script;
  ASSERT_TRUE(obs::parse_json(
      R"({"seed":1,"ops":[{"at":5,"kind":"crash","a":0}]})", &script));
  EXPECT_FALSE(obs::parse_json(
      R"({"seed":1,"ops":[{"at":"5","kind":"crash","a":0}]})", &script));
  EXPECT_FALSE(obs::parse_json(
      R"({"seed":1,"ops":[{"at":5,"kind":"crash","a":"0"}]})", &script));
  EXPECT_FALSE(obs::parse_json(
      R"({"seed":1,"ops":[{"at":5,"kind":"crash"}]})", &script));
  EXPECT_FALSE(obs::parse_json(
      R"({"seed":1,"ops":[{"at":5,"kind":"meteor","a":0}]})", &script));
  EXPECT_FALSE(obs::parse_json(
      R"({"seed":1,"ops":[{"at":5,"kind":"crash","a":4294967296}]})",
      &script));

  mc::ScheduleScript schedule;
  ASSERT_TRUE(obs::parse_json(
      R"({"seed":1,"choices":[{"kind":"x","n":2,"pick":1}]})", &schedule));
  EXPECT_FALSE(obs::parse_json(
      R"({"seed":1,"choices":[{"kind":"x","n":"2","pick":1}]})", &schedule));

  const std::string scenario = obs::to_json(mc::ScenarioConfig{});
  mc::ScenarioConfig sc;
  ASSERT_TRUE(obs::parse_json(scenario, &sc));
  const std::string flag = "\"trigger_leave\":true";
  ASSERT_NE(scenario.find(flag), std::string::npos);
  std::string wrong = scenario;
  wrong.replace(wrong.find(flag), flag.size(), "\"trigger_leave\":1");
  EXPECT_FALSE(obs::parse_json(wrong, &sc));
}

TEST(JsonCodec, FaultOpIndicesAreCheckedAgainstTheWorld) {
  sim::FaultOp crash;
  crash.kind = sim::FaultOp::Kind::kCrash;
  crash.a = 3;
  EXPECT_EQ(crash.index_error(4, 1), "");
  crash.a = 99;
  EXPECT_NE(crash.index_error(4, 1), "");

  sim::FaultOp down;
  down.kind = sim::FaultOp::Kind::kServerDown;
  down.a = 1;
  EXPECT_NE(down.index_error(4, 1), "");
  EXPECT_EQ(down.index_error(4, 2), "");

  sim::FaultOp link;
  link.kind = sim::FaultOp::Kind::kLinkDown;
  link.a = sim::encode_process(0);
  link.b = sim::encode_server(0);
  EXPECT_EQ(link.index_error(4, 1), "");
  link.b = std::numeric_limits<int>::min();
  EXPECT_NE(link.index_error(4, 1), "");

  sim::FaultOp part;
  part.kind = sim::FaultOp::Kind::kPartition;
  part.groups = {{0, 1}, {2, sim::encode_server(0)}};
  EXPECT_EQ(part.index_error(3, 1), "");
  EXPECT_NE(part.index_error(2, 1), "");

  sim::FaultOp seq;
  seq.kind = sim::FaultOp::Kind::kCorruptSeq;
  seq.a = 0;
  seq.b = 4;
  EXPECT_NE(seq.index_error(4, 1), "");
}

TEST(JsonCodec, PrettyLayoutMatchesJsonValue) {
  mc::ScheduleScript schedule;
  schedule.seed = 3;
  schedule.choices = {{"sim.tiebreak", 3, 1}};
  const std::string pretty = obs::to_json(schedule, obs::JsonStyle::kPretty);
  EXPECT_EQ(pretty, obs::to_json(obs::JsonValue::parse(pretty),
                                 obs::JsonStyle::kPretty));
  const mc::ScheduleScript empty;
  EXPECT_EQ(obs::to_json(empty, obs::JsonStyle::kPretty),
            "{\n  \"seed\": 0,\n  \"choices\": []\n}");
}

}  // namespace
}  // namespace vsgc
