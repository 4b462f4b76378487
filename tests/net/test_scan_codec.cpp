// The POST /v1/scans codec against the tree decoder it replaced.
//
// The streaming decoder must answer every body exactly as parsing it
// into a JsonValue tree and walking that tree did: equal batches
// (bit-equal doubles, same reading order) for accepted bodies and the
// same error text, hence the same 400 body, for rejected ones. The
// tree walk lives on here as the reference. The corpus is seeded, and
// the mutation fuzz grows it with byte flips, overwrites, truncations,
// insertions and splices.
#include "net/scan_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "../json_tree.hpp"
#include "net/json.hpp"
#include "util/json_num.hpp"
#include "util/rng.hpp"

namespace wiloc::net {
namespace {

using Batch = std::vector<core::ScanSubmission>;

bool reading_order(const rf::ApReading& a, const rf::ApReading& b) {
  if (a.rssi_dbm != b.rssi_dbm) return a.rssi_dbm > b.rssi_dbm;
  return a.ap < b.ap;
}

/// The decoder before the streaming pass: parse_json, then a walk of
/// the tree.
std::optional<Batch> reference_decode(const std::string& body,
                                      std::string* error) {
  const auto fail = [error](std::string message) -> std::optional<Batch> {
    *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = parse_json(body, &parse_error);
  if (!doc.has_value()) return fail("bad JSON: " + parse_error);
  const JsonValue* scans = doc->get("scans");
  const std::vector<JsonValue>* items =
      scans != nullptr ? scans->as_array() : nullptr;
  if (items == nullptr) return fail("missing \"scans\" array");
  Batch batch;
  for (const JsonValue& item : *items) {
    const auto trip = checked_integer<std::uint32_t>(item.get_number("trip"));
    const auto t = item.get_number("t");
    const JsonValue* readings = item.get("readings");
    const std::vector<JsonValue>* pairs =
        readings != nullptr ? readings->as_array() : nullptr;
    if (!trip.has_value() || !t.has_value() || pairs == nullptr)
      return fail("scan needs trip, t and readings");
    rf::WifiScan scan;
    scan.time = *t;
    for (const JsonValue& pair : *pairs) {
      const std::vector<JsonValue>* rd = pair.as_array();
      if (rd == nullptr || rd->size() != 2)
        return fail("reading must be [ap, rssi_dbm]");
      const auto ap = checked_integer<std::uint32_t>((*rd)[0].as_number());
      const auto rssi = (*rd)[1].as_number();
      if (!ap.has_value() || !rssi.has_value())
        return fail("reading must be [ap, rssi_dbm]");
      scan.readings.push_back({rf::ApId(*ap), *rssi});
    }
    std::sort(scan.readings.begin(), scan.readings.end(), reading_order);
    batch.push_back({roadnet::TripId(*trip), std::move(scan)});
  }
  return batch;
}

/// The encoder before it appended through to_chars: an ostringstream.
std::string reference_encode(const Batch& batch) {
  std::ostringstream out;
  out << "{\"scans\":[";
  bool first_scan = true;
  for (const core::ScanSubmission& sub : batch) {
    if (!first_scan) out << ',';
    first_scan = false;
    out << "{\"trip\":" << sub.trip.value()
        << ",\"t\":" << json_num(sub.scan.time) << ",\"readings\":[";
    bool first_reading = true;
    for (const rf::ApReading& r : sub.scan.readings) {
      if (!first_reading) out << ',';
      first_reading = false;
      out << '[' << r.ap.value() << ',' << json_num(r.rssi_dbm) << ']';
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

/// Uniform in [0, n); n > 0.
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Empty when the batches are equal field by field, bit for bit;
/// otherwise where they first differ.
std::string batch_diff(const Batch& a, const Batch& b) {
  if (a.size() != b.size())
    return "scan count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string at = "scan " + std::to_string(i) + ": ";
    if (a[i].trip != b[i].trip) return at + "trip";
    if (!bit_equal(a[i].scan.time, b[i].scan.time)) return at + "t";
    const auto& ra = a[i].scan.readings;
    const auto& rb = b[i].scan.readings;
    if (ra.size() != rb.size()) return at + "reading count";
    for (std::size_t k = 0; k < ra.size(); ++k)
      if (ra[k].ap != rb[k].ap || !bit_equal(ra[k].rssi_dbm, rb[k].rssi_dbm))
        return at + "reading " + std::to_string(k);
  }
  return {};
}

/// Empty when both decoders answer `body` the same way.
std::string parity_diff(const std::string& body) {
  std::string want_error, got_error;
  const auto want = reference_decode(body, &want_error);
  const auto got = decode_scan_batch(body, &got_error);
  if (want.has_value() != got.has_value())
    return want.has_value() ? "rejected (" + got_error + ") a body the tree "
                                                         "decoder accepts"
                            : "accepted a body the tree decoder rejects (" +
                                  want_error + ")";
  if (!want.has_value())
    return want_error == got_error
               ? std::string()
               : "error \"" + got_error + "\", want \"" + want_error + "\"";
  return batch_diff(*want, *got);
}

Batch random_batch(Rng& rng) {
  Batch batch(pick(rng, 6));
  for (core::ScanSubmission& sub : batch) {
    const std::uint32_t trips[] = {0, 1, 7, 4096,
                                   std::numeric_limits<std::uint32_t>::max()};
    sub.trip = roadnet::TripId(rng.bernoulli(0.2)
                                   ? trips[pick(rng, 5)]
                                   : static_cast<std::uint32_t>(
                                         pick(rng, 100000)));
    sub.scan.time = rng.bernoulli(0.5)
                        ? std::round(rng.uniform(0.0, 2.0e6) * 4.0) / 4.0
                        : rng.uniform(-1.0e3, 1.0e7);
    const std::size_t n = pick(rng, 7);
    for (std::size_t k = 0; k < n; ++k)
      sub.scan.readings.push_back(
          {rf::ApId(static_cast<std::uint32_t>(pick(rng, 64))),
           std::round(rng.uniform(-95.0, -30.0)) +
               (rng.bernoulli(0.2) ? 0.5 : 0.0)});
    // Left unsorted on purpose: the decoders sort.
  }
  return batch;
}

/// Bodies that pin the tree decoder's quirks and every error path.
const std::vector<std::string>& quirk_bodies() {
  static const std::vector<std::string> bodies = {
      // Accepted shapes.
      R"({"scans":[]})",
      R"( {"scans" : [ ] } )",
      R"({"scans":[{"trip":1,"t":2,"readings":[]}]})",
      R"({"scans":[{"readings":[[3,-70],[1,-70],[2,-40]],"t":5.5,"trip":9}]})",
      // A repeated key's last value wins, at both levels.
      R"({"scans":[{"trip":"x","trip":4,"t":1,"readings":[]}]})",
      R"({"scans":[{"trip":4,"t":1,"readings":[[1]],"readings":[[2,-50]]}]})",
      R"({"scans":[{"trip":4,"t":1,"readings":[[2,-50]],"readings":{}}]})",
      R"({"scans":[{"trip":1}],"scans":[{"trip":2,"t":3,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[]}],"scans":[{"trip":2,)"
      R"("t":3,"readings":[]}]})",
      R"({"scans":[{"trip":2,"t":3,"readings":[]}],"scans":5})",
      R"({"scans":[{"trip":2,"t":3,"readings":[]}],"scans":[{}]})",
      // Escaped keys match.
      R"({"scans":[{"tr\u0069p":1,"\u0074":2,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":2,"re\/adings":[],"readings":[]}]})",
      // Unknown members are skipped at any depth.
      R"({"v":{"a":[1,{"b":[null,true,false,"s\n"]}]},"scans":[{"x":[[[]]],)"
      R"("trip":1,"t":2,"readings":[[1,-60]],"y":{"z":{}}}],"w":"\ud800"})",
      // RFC 8259 numbers: exponents, fractions, -0.
      R"({"scans":[{"trip":1e0,"t":-0,"readings":[[2.0,-1E2],[3,1.5e+1]]}]})",
      R"({"scans":[{"trip":4294967295,"t":1e308,"readings":[[0,-0.0]]}]})",
      R"({"scans":[{"trip":10E-1,"t":0.25e-0,"readings":[[0,-1e1]]}]})",
      // Rejected: each error, and their precedence.
      R"([])",
      R"(5)",
      R"({})",
      R"({"scans":{}})",
      R"({"scans":null})",
      R"({"scans":[1]})",
      R"({"scans":[{"t":1,"readings":[]}]})",
      R"({"scans":[{"trip":-1,"t":1,"readings":[]}]})",
      R"({"scans":[{"trip":4294967296,"t":1,"readings":[]}]})",
      R"({"scans":[{"trip":1.5,"t":1,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":"1","readings":[]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":{}}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[[1,-50,3]]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[[1]]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[1]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[[-1,-50]]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[[1,null]]}]})",
      R"({"scans":[{"trip":1,"readings":[[1]]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[[1]]},{"trip":1}]})",
      R"({"scans":[{"trip":1},{"trip":1,"t":1,"readings":[[1]]}]})",
      R"({"scans":[{"trip":1}]} x)",
      R"({"scans":[{"trip":1}],})",
      R"({"scans":[{"trip":1},]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[]}],"x":nul})",
      R"({"scans":[{"trip":1,"t":1,"readings":[]}],"x":"\q"})",
      R"({"scans":[{"trip":1,"t":1,"readings":[]}],"x":"\u12G4"})",
      R"({"scans":[{"trip":1,"t":1e999,"readings":[]}]})",
      R"({"scans":[{"trip":+1,"t":1,"readings":[]}]})",
      // Numbers from_chars takes but JSON does not: inf and nan
      // spellings, a bare or leading point, a leading zero, an empty
      // exponent.
      R"({"scans":[{"trip":1,"t":inf,"readings":[[2,-nan],[3,INF]]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[[2,-nan]]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[[3,INF]]}]})",
      R"({"scans":[{"trip":1,"t":nan,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":-Infinity,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":1.,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[[3,1.]]}]})",
      R"({"scans":[{"trip":1,"t":.5,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":1.e5,"readings":[]}]})",
      R"({"scans":[{"trip":01,"t":1,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":-,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":1e,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":1e+,"readings":[]}]})",
      R"({"scans":[{"trip":1,"t":1,"readings":[]})",
      R"({"scans":[{"trip":1 "t":1,"readings":[]}]})",
      R"({"scans" [})",
      R"({scans:[]})",
      "",
      "   ",
      "{\"scans\":[{\"trip\":1,\"t\":1,\"readings\":[],\"x\":\"\x01\"}]}",
      std::string("{\"scans\":[]}\0", 13),
      std::string(64, '[') + std::string(64, ']'),
      std::string(65, '[') + std::string(65, ']'),
      "{\"scans\":" + std::string(63, '[') + std::string(63, ']') + "}",
      "{\"scans\":[{\"trip\":1,\"t\":1,\"readings\":[],\"x\":" +
          std::string(60, '[') + std::string(60, ']') + "}]}",
      "{\"scans\":[{\"trip\":1,\"t\":1,\"readings\":[],\"x\":" +
          std::string(62, '[') + std::string(62, ']') + "}]}",
  };
  return bodies;
}

/// The seeded parity corpus: the quirk bodies plus encoder output.
std::vector<std::string> corpus() {
  std::vector<std::string> out = quirk_bodies();
  Rng rng(0x5ca9c0de);
  for (int i = 0; i < 200; ++i)
    out.push_back(encode_scan_batch(random_batch(rng)));
  return out;
}

TEST(ScanCodec, StreamingDecodeMatchesTreeDecoderOnCorpus) {
  std::size_t accepted = 0;
  for (const std::string& body : corpus()) {
    const std::string diff = parity_diff(body);
    EXPECT_TRUE(diff.empty()) << diff << "\n  body: " << body;
    std::string error;
    if (decode_scan_batch(body, &error).has_value()) ++accepted;
  }
  // Both outcomes are covered.
  EXPECT_GT(accepted, 200u);
  EXPECT_GT(corpus().size() - accepted, 40u);
}

TEST(ScanCodec, RejectionNamesTheFirstFault) {
  std::string error;
  EXPECT_FALSE(decode_scan_batch(R"({"scans":[{"trip":1}]} x)", &error));
  EXPECT_EQ(error, "bad JSON: trailing garbage");
  EXPECT_FALSE(decode_scan_batch(R"({"scans":[{"trip":1},]})", &error));
  EXPECT_EQ(error, "bad JSON: bad number at offset 21");
  EXPECT_FALSE(
      decode_scan_batch(R"({"scans":[{"trip":1,"t":1.,"readings":[]}]})",
                        &error));
  EXPECT_EQ(error, "bad JSON: bad number at offset 24");
  EXPECT_FALSE(decode_scan_batch(R"({"scan":[]})", &error));
  EXPECT_EQ(error, "missing \"scans\" array");
  EXPECT_FALSE(decode_scan_batch(
      R"({"scans":[{"trip":1,"readings":[[1]]}]})", &error));
  EXPECT_EQ(error, "scan needs trip, t and readings");
  EXPECT_FALSE(decode_scan_batch(
      R"({"scans":[{"trip":1,"t":1,"readings":[[1]]},{"trip":1}]})", &error));
  EXPECT_EQ(error, "reading must be [ap, rssi_dbm]");
}

TEST(ScanCodec, DecodeNormalizesReadingOrder) {
  std::string error;
  const auto batch = decode_scan_batch(
      R"({"scans":[{"trip":3,"t":1.5,"readings":[[9,-80],[4,-60],[2,-80]]}]})",
      &error);
  ASSERT_TRUE(batch.has_value()) << error;
  ASSERT_EQ(batch->size(), 1u);
  const auto& r = batch->front().scan.readings;
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].ap, rf::ApId(4));
  EXPECT_EQ(r[1].ap, rf::ApId(2));
  EXPECT_EQ(r[2].ap, rf::ApId(9));
  // Each scan's readings are held at their exact size.
  EXPECT_EQ(r.capacity(), 3u);
}

TEST(ScanCodec, EncodeBytesAreUnchangedOnJsonNumEdgeValues) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           1e15,
                           1e16,
                           999999999999.5,
                           9007199254740993.0,
                           0.00001,
                           0.1 + 0.2,
                           -60.5,
                           1728000.25};
  const std::uint32_t ids[] = {0, 1, 10, 4294967295u};
  Batch batch;
  for (const double v : values)
    for (const std::uint32_t id : ids)
      batch.push_back(
          {roadnet::TripId(id),
           rf::WifiScan{v, {{rf::ApId(id), v}, {rf::ApId(1), -v}}}});
  batch.push_back({roadnet::TripId(5), rf::WifiScan{1.0, {}}});
  EXPECT_EQ(encode_scan_batch(batch), reference_encode(batch));
  EXPECT_EQ(encode_scan_batch({}), reference_encode({}));
  Rng rng(0x656e63);
  for (int i = 0; i < 200; ++i) {
    const Batch b = random_batch(rng);
    ASSERT_EQ(encode_scan_batch(b), reference_encode(b));
  }
}

// -- seeded mutation fuzz -------------------------------------------------

/// Tokens that steer mutations into the grammar's corners.
const char* const kTokens[] = {
    "\"trip\"", "\"t\"", "\"readings\"", "\"scans\"", "[", "]", "{", "}",
    ",",        ":",     "\"",           "\\",        "\\u0074", "null",
    "true",     "-nan",  "inf",          "1e999",     "-0",      "4294967296",
    "0.5",      " ",     "[[1,-50]]",    "\x01",      "\xff"};

std::string mutate(const std::vector<std::string>& seeds, Rng& rng,
                   std::span<const char* const> tokens = kTokens) {
  std::string s = seeds[pick(rng, seeds.size())];
  const std::size_t edits = 1 + pick(rng, 3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = pick(rng, s.size() + 1);
    switch (pick(rng, 7)) {
      case 0:  // flip one bit
        if (at < s.size())
          s[at] = static_cast<char>(s[at] ^ (1 << pick(rng, 8)));
        break;
      case 1:  // overwrite one byte
        if (at < s.size()) s[at] = static_cast<char>(pick(rng, 256));
        break;
      case 2:  // truncate
        s.resize(at);
        break;
      case 3:  // insert a grammar token
        s.insert(at, tokens[pick(rng, tokens.size())]);
        break;
      case 4:  // delete a run
        s.erase(at, 1 + pick(rng, 8));
        break;
      case 5:  // overwrite one byte with a number character
        if (at < s.size()) s[at] = "0123456789.-eE+"[pick(rng, 15)];
        break;
      default: {  // splice: this prefix, another seed's suffix
        const std::string& other = seeds[pick(rng, seeds.size())];
        s = s.substr(0, at) +
            other.substr(other.empty() ? 0 : pick(rng, other.size()));
      }
    }
  }
  return s;
}

/// A batch as the wire carries it: each double rounded to the codec's
/// 12 significant digits, readings re-normalized.
Batch wire_rounded(Batch batch) {
  const auto round12 = [](double v) {
    const std::string text = json_num(v);
    double out = 0.0;
    std::from_chars(text.data(), text.data() + text.size(), out);
    return out;
  };
  for (core::ScanSubmission& sub : batch) {
    sub.scan.time = round12(sub.scan.time);
    for (rf::ApReading& r : sub.scan.readings) r.rssi_dbm = round12(r.rssi_dbm);
    std::sort(sub.scan.readings.begin(), sub.scan.readings.end(),
              reading_order);
  }
  return batch;
}

bool all_finite(const Batch& batch) {
  for (const core::ScanSubmission& sub : batch) {
    if (!std::isfinite(sub.scan.time)) return false;
    for (const rf::ApReading& r : sub.scan.readings)
      if (!std::isfinite(r.rssi_dbm)) return false;
  }
  return true;
}

TEST(ScanCodec, MutationFuzzKeepsParityAndRoundTrips) {
  const std::vector<std::string> seeds = corpus();
  Rng rng(0xf022);
  constexpr int kMutants = 20000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string body = mutate(seeds, rng);
    std::string error;
    std::optional<Batch> batch;
    ASSERT_NO_THROW(batch = decode_scan_batch(body, &error)) << body;
    const std::string diff = parity_diff(body);
    ASSERT_TRUE(diff.empty()) << diff << "\n  mutant " << i << ": " << body;
    if (!batch.has_value()) {
      ASSERT_FALSE(error.empty()) << body;
      continue;
    }
    ++accepted;
    // A JSON number is finite (an overflowing one is rejected), so what
    // the decoder accepts survives the wire: encode, decode again.
    ASSERT_TRUE(all_finite(*batch)) << body;
    const std::string wire = encode_scan_batch(*batch);
    const auto again = decode_scan_batch(wire, &error);
    ASSERT_TRUE(again.has_value()) << error << "\n  body: " << body;
    ASSERT_EQ(batch_diff(*again, wire_rounded(*batch)), "") << body;
  }
  // The budget reaches both outcomes.
  EXPECT_GT(accepted, kMutants / 50);
  EXPECT_LT(accepted, kMutants / 2);
}

// -- POST /v1/trips bodies and upstream replies ---------------------------

/// The trip decoder before the streaming pass: parse_json, then the walk
/// the service and the router each made of the tree.
std::optional<TripRequest> reference_trip(const std::string& body,
                                          std::string* error) {
  const auto fail = [error](std::string message) -> std::optional<TripRequest> {
    *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = parse_json(body, &parse_error);
  if (!doc.has_value()) return fail("bad JSON: " + parse_error);
  const auto trip = checked_integer<std::uint32_t>(doc->get_number("trip"));
  if (!trip.has_value()) return fail("missing or bad \"trip\"");
  const JsonValue* end = doc->get("end");
  TripRequest out{.trip = roadnet::TripId(*trip),
                  .end = end != nullptr && end->as_bool().value_or(false)};
  if (const auto route =
          checked_integer<std::uint32_t>(doc->get_number("route")))
    out.route = roadnet::RouteId(*route);
  else if (!out.end)
    return fail("missing or bad \"route\" (or \"end\":true)");
  return out;
}

/// The router's ack read before: every count of a body that does not
/// parse, or that is absent or not an integer, reads 0.
ScanAck reference_ack(const std::string& body) {
  const auto doc = parse_json(body);
  if (!doc.has_value()) return {};
  const auto count = [&](const char* key) {
    return checked_integer<std::uint64_t>(doc->get_number(key)).value_or(0);
  };
  return {count("submitted"), count("enqueued")};
}

std::optional<double> reference_member(const std::string& body,
                                       const std::string& key) {
  const auto doc = parse_json(body);
  return doc.has_value() ? doc->get_number(key) : std::nullopt;
}

/// Empty when the trip decoder, the ack reader and the member reader
/// each answer `body` as the tree walk does.
std::string reply_parity_diff(const std::string& body) {
  std::string want_error, got_error;
  const auto want = reference_trip(body, &want_error);
  const auto got = decode_trip_request(body, &got_error);
  if (want.has_value() != got.has_value())
    return want.has_value() ? "trip: rejected (" + got_error +
                                  ") a body the tree walk accepts"
                            : "trip: accepted a body the tree walk rejects (" +
                                  want_error + ")";
  if (!want.has_value() && want_error != got_error)
    return "trip: error \"" + got_error + "\", want \"" + want_error + "\"";
  if (want.has_value() &&
      (want->trip != got->trip || want->route != got->route ||
       want->end != got->end))
    return "trip: fields differ";
  const ScanAck ack = decode_scan_ack(body);
  const ScanAck want_ack = reference_ack(body);
  if (ack.submitted != want_ack.submitted || ack.enqueued != want_ack.enqueued)
    return "ack: counts differ";
  for (const char* key : {"arrival_time", "trip", "submitted"}) {
    const auto member = json_number_member(body, key);
    const auto want_member = reference_member(body, key);
    if (member.has_value() != want_member.has_value() ||
        (member.has_value() && !bit_equal(*member, *want_member)))
      return std::string("member ") + key + " differs";
  }
  return {};
}

/// Bodies that pin the tree walk's quirks and every error path.
std::vector<std::string> reply_corpus() {
  std::vector<std::string> out = {
      // Accepted trip bodies.
      R"({"trip":5,"route":0})",
      R"({"trip":5,"end":true})",
      R"( { "route" : 2 , "trip" : 4294967295 } )",
      R"({"trip":5,"route":1,"end":false})",
      R"({"trip":5,"end":true,"route":3})",
      R"({"trip":5,"end":true,"route":-3})",
      R"({"trip":-0,"route":0e0})",
      R"({"trip":1e1,"route":2.0})",
      R"({"trip":5,"route":0})",
      R"({"trip":5,"route":0,"x":{"trip":9,"end":true,"route":[1]}})",
      // A repeated key's last value wins.
      R"({"trip":"5","trip":6,"route":0})",
      R"({"trip":5,"trip":null,"route":0})",
      R"({"trip":5,"end":true,"end":false,"route":1})",
      R"({"trip":5,"end":false,"end":true})",
      R"({"trip":5,"route":0,"route":"0"})",
      // Rejected: each error, and their precedence.
      R"({"trip":5})",
      R"({"trip":5,"end":"true"})",
      R"({"trip":5,"end":1})",
      R"({"trip":5,"end":null})",
      R"({"route":0})",
      R"({"trip":4294967296,"route":0})",
      R"({"trip":1.5,"end":true})",
      R"({"trip":5,"route":-1})",
      R"({"trip":5,"route":0.5})",
      R"({})",
      R"([])",
      R"([{"trip":5,"route":0}])",
      R"(5)",
      R"("trip")",
      R"(null)",
      R"({"trip":5,"route":0} x)",
      R"({"trip":5,"route":0,})",
      R"({"trip":5,"route":.5})",
      R"({"trip":5,"route":1.})",
      R"({"trip":5,"route":nan})",
      R"({"trip":5,"end":tru})",
      R"({"trip":5 "route":0})",
      "",
      "{",
      "{\"trip\":5,\"route\":0,\"x\":\"\x01\"}",
      "{\"trip\":5,\"route\":0,\"x\":" + std::string(63, '[') +
          std::string(63, ']') + "}",
      "{\"trip\":5,\"route\":0,\"x\":" + std::string(64, '[') +
          std::string(64, ']') + "}",
      // Upstream replies: acks and arrival answers.
      R"({"submitted":3,"enqueued":2})",
      R"({"submitted":3})",
      R"({"enqueued":1.5,"submitted":-1})",
      R"({"submitted":1e30,"enqueued":0})",
      R"({"submitted":3,"enqueued":2,"submitted":4})",
      R"({"submitted":"3","enqueued":null})",
      R"({"error":"no replica"})",
      R"([3,2])",
      R"({"trip":5,"stop":3,"now":100.5,"arrival_time":1234.25})",
      R"({"trip":5,"stop":3,"arrival_time":-0.0,"arrival_time":7})",
      R"({"trip":5,"stop":3,"arrival_time":"7"})",
      R"({"arrival_time":1e308})",
      R"({"arrival_time":1e309})",
  };
  Rng rng(0xac4);
  const auto n = [&] {
    return static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  };
  for (int i = 0; i < 40; ++i) {
    out.push_back("{\"trip\":" + std::to_string(n()) +
                  ",\"route\":" + std::to_string(n()) + "}");
    out.push_back("{\"trip\":" + std::to_string(n()) + ",\"end\":true}");
    out.push_back(encode_scan_ack({n(), n()}));
  }
  return out;
}

TEST(TripCodec, DecodeMatchesTreeWalkOnCorpus) {
  std::size_t accepted = 0;
  for (const std::string& body : reply_corpus()) {
    const std::string diff = reply_parity_diff(body);
    EXPECT_TRUE(diff.empty()) << diff << "\n  body: " << body;
    std::string error;
    if (decode_trip_request(body, &error).has_value()) ++accepted;
  }
  EXPECT_EQ(accepted, 15u + 80u);
}

TEST(TripCodec, DecodesEachShape) {
  std::string error;
  const auto begin = decode_trip_request(R"({"trip":5,"route":2})", &error);
  ASSERT_TRUE(begin.has_value()) << error;
  EXPECT_EQ(begin->trip, roadnet::TripId(5));
  EXPECT_EQ(begin->route, roadnet::RouteId(2));
  EXPECT_FALSE(begin->end);
  const auto end = decode_trip_request(R"({"trip":5,"end":true})", &error);
  ASSERT_TRUE(end.has_value()) << error;
  EXPECT_TRUE(end->end);
  EXPECT_FALSE(end->route.has_value());
  EXPECT_FALSE(decode_trip_request(R"({"trip":5})", &error));
  EXPECT_EQ(error, R"(missing or bad "route" (or "end":true))");
  EXPECT_FALSE(decode_trip_request(R"({"trip":5.5,"route":2})", &error));
  EXPECT_EQ(error, R"(missing or bad "trip")");
  EXPECT_FALSE(decode_trip_request(R"({"trip":5,"route":2.})", &error));
  EXPECT_EQ(error, "bad JSON: bad number at offset 18");
}

TEST(ScanAck, EncodesTheOldBytesAndRoundTrips) {
  Rng rng(0xac5);
  for (int i = 0; i < 200; ++i) {
    // Counts up to 2^53 are exact as JSON doubles.
    const ScanAck ack{
        static_cast<std::uint64_t>(rng.uniform_int(0, std::int64_t{1} << 53)),
        static_cast<std::uint64_t>(rng.uniform_int(0, 1000))};
    std::ostringstream old;
    old << "{\"submitted\":" << ack.submitted
        << ",\"enqueued\":" << ack.enqueued << "}";
    const std::string wire = encode_scan_ack(ack);
    ASSERT_EQ(wire, old.str());
    const ScanAck back = decode_scan_ack(wire);
    ASSERT_EQ(back.submitted, ack.submitted) << wire;
    ASSERT_EQ(back.enqueued, ack.enqueued) << wire;
  }
  EXPECT_EQ(encode_scan_ack({}), R"({"submitted":0,"enqueued":0})");
}

/// Tokens that steer mutations into the trip body's and the replies'
/// corners.
const char* const kReplyTokens[] = {
    "\"trip\"", "\"route\"", "\"end\"", "\"submitted\"", "\"enqueued\"",
    "\"arrival_time\"", "true", "false", "null", "[", "]", "{", "}", ",",
    ":", "\"", "\\", "\\u0074", "-0", "4294967296", "0.5", "1.", ".5",
    "1e999", "nan", " ", "\x01", "\xff"};

TEST(TripCodec, MutationFuzzKeepsParityWithTreeWalk) {
  const std::vector<std::string> seeds = reply_corpus();
  Rng rng(0x7219);
  constexpr int kMutants = 20000;
  int accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string body = mutate(seeds, rng, kReplyTokens);
    std::string diff;
    ASSERT_NO_THROW(diff = reply_parity_diff(body)) << body;
    ASSERT_TRUE(diff.empty()) << diff << "\n  mutant " << i << ": " << body;
    std::string error;
    if (decode_trip_request(body, &error).has_value()) ++accepted;
  }
  // The budget reaches both outcomes.
  EXPECT_GT(accepted, kMutants / 50);
  EXPECT_LT(accepted, kMutants / 2);
}

}  // namespace
}  // namespace wiloc::net
