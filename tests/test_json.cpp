// Adversarial inputs for the hand-written JSON parser (obs/json): every
// input must either parse or throw std::invalid_argument — never crash,
// hang or throw anything else. Covers truncation at every offset of a real
// metrics document, seeded byte mutations of it, bad escapes and
// surrogates, extreme numbers, and nesting deep enough to exhaust the stack
// of a parser without a depth limit.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/exporters.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using obs::JsonValue;

// A real tshmem.metrics.v1 document: every value type, escapes included.
std::string metrics_document() {
  obs::MetricsRegistry reg;
  reg.counter("shmem.put.calls", 0).add(7);
  reg.counter("shmem.put.bytes", 1).add(1ull << 40);
  reg.gauge("shmem.nbi.queue_depth", 0).set(-3);
  reg.histogram("shmem.put.latency_ps", 0).record(1000);
  reg.histogram("shmem.put.latency_ps", 1).record(3'000'000'000ull);
  std::ostringstream os;
  obs::write_metrics_json(os, reg.snapshot("gx\"36\\\n", 2));
  return os.str();
}

enum class Outcome { kParsed, kRejected };

// Parses `text`; any exception but std::invalid_argument fails the test.
Outcome parse_or_reject(const std::string& text) {
  try {
    (void)JsonValue::parse(text);
    return Outcome::kParsed;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
    return Outcome::kRejected;
  }
}

TEST(JsonAdversarial, TruncationAtEveryOffset) {
  const std::string doc = metrics_document();
  ASSERT_EQ(parse_or_reject(doc), Outcome::kParsed);
  // An object document has no valid strict prefix other than the one
  // dropping only trailing whitespace.
  std::size_t end = doc.size();
  while (end > 0 && (doc[end - 1] == '\n' || doc[end - 1] == ' ')) --end;
  for (std::size_t n = 0; n < doc.size(); ++n) {
    SCOPED_TRACE(n);
    EXPECT_EQ(parse_or_reject(doc.substr(0, n)),
              n >= end ? Outcome::kParsed : Outcome::kRejected);
  }
}

TEST(JsonAdversarial, SeededMutationsParseOrReject) {
  const std::string doc = metrics_document();
  const std::string alphabet = "{}[]\":,\\/-+.eE0123456789tfnu \n\x01\xff";
  std::mt19937_64 rng(0x75A3E1);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text = doc;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng() % text.size();
      const char c = alphabet[rng() % alphabet.size()];
      switch (rng() % 3) {
        case 0: text[at] = c; break;
        case 1: text.insert(at, 1, c); break;
        default: text.erase(at, 1); break;
      }
    }
    SCOPED_TRACE(text);
    (void)parse_or_reject(text);
  }
}

TEST(JsonAdversarial, BadEscapesAndSurrogates) {
  for (const char* bad :
       {R"("\x")", R"("\u12G4")", R"("\u12")", R"("\u")", R"("\)",
        R"("abc)", R"({"a\q":1})", R"(["\uZZZZ"])"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse_or_reject(bad), Outcome::kRejected);
  }
  // A surrogate half only encodes a character as the first half of a
  // pair: a lone high or low half, a reversed pair, or a high half followed
  // by anything but a low half is rejected.
  for (const char* lone :
       {R"("\ud800")", R"("\udfff")", R"("\udc00\ud800")", R"("\ud83dx")",
        R"("\ud83d\u0041")", R"("\ud83d\")"}) {
    SCOPED_TRACE(lone);
    EXPECT_EQ(parse_or_reject(lone), Outcome::kRejected);
  }
  for (const char* ok :
       {"\"\xf0\x9f\x98\x80\"", R"("\u0000")", "\"\xef\xbf\xbf\"",
        R"("\uffff")", R"("\ud83d\ude00")"}) {
    SCOPED_TRACE(ok);
    EXPECT_EQ(parse_or_reject(ok), Outcome::kParsed);
  }
  // A pair decodes to one 4-byte UTF-8 character.
  EXPECT_EQ(JsonValue::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_EQ(JsonValue::parse(R"("a\udbff\udfffb")").as_string(),
            "a\xf4\x8f\xbf\xbf" "b");
  EXPECT_EQ(JsonValue::parse(R"("é")").as_string(), "\xc3\xa9");
}

TEST(JsonAdversarial, ExtremeNumbers) {
  for (const char* ok :
       {"1e999999999", "-1e999999999", "1e-999999999", "1.7976931348623157e308",
        "123456789012345678901234567890", "-9223372036854775808",
        "18446744073709551615", "18446744073709551616", "-0", "0.0e0"}) {
    SCOPED_TRACE(ok);
    EXPECT_EQ(parse_or_reject(ok), Outcome::kParsed);
  }
  EXPECT_EQ(JsonValue::parse("18446744073709551615").as_uint(),
            UINT64_MAX);
  EXPECT_EQ(JsonValue::parse("-9223372036854775808").as_int(), INT64_MIN);
  for (const char* bad : {"-", "1e", "1e+", "--1", "1.2.3", "+", "1-2", "e5"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(parse_or_reject(bad), Outcome::kRejected);
  }
  EXPECT_EQ(parse_or_reject(std::string(100000, '9')), Outcome::kParsed);
  EXPECT_EQ(parse_or_reject(std::string(100000, '9') + "x"),
            Outcome::kRejected);
}

TEST(JsonAdversarial, DeepNestingIsRejectedNotFatal) {
  // 100 KB of brackets: recursed level by level this overflows an 8 MiB
  // stack; the depth limit turns it into a parse error.
  constexpr std::size_t kDeep = 50'000;
  EXPECT_EQ(parse_or_reject(std::string(kDeep, '[') + std::string(kDeep, ']')),
            Outcome::kRejected);
  std::string objects;
  for (std::size_t i = 0; i < kDeep; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kDeep, '}');
  EXPECT_EQ(parse_or_reject(objects), Outcome::kRejected);
  // Unterminated deep nesting fails the same way.
  EXPECT_EQ(parse_or_reject(std::string(kDeep, '[')), Outcome::kRejected);

  // The limit itself: kMaxDepth levels parse, one more does not.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "0" +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const JsonValue at_limit = JsonValue::parse(nested(JsonValue::kMaxDepth));
  EXPECT_EQ(at_limit.size(), 1u);
  EXPECT_EQ(parse_or_reject(nested(JsonValue::kMaxDepth + 1)),
            Outcome::kRejected);
  // Depth is per path, not per document: many shallow siblings are fine.
  std::string wide = "[";
  for (int i = 0; i < 10'000; ++i) wide += (i ? ",[[1]]" : "[[1]]");
  wide += "]";
  EXPECT_EQ(JsonValue::parse(wide).size(), 10'000u);
}

}  // namespace
