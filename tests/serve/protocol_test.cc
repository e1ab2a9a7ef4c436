#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace vulnds::serve {
namespace {

TEST(ProtocolTest, BlankAndCommentLinesAreNone) {
  EXPECT_EQ(ParseServeRequest("")->command, ServeCommand::kNone);
  EXPECT_EQ(ParseServeRequest("   \t ")->command, ServeCommand::kNone);
  EXPECT_EQ(ParseServeRequest("# a comment")->command, ServeCommand::kNone);
}

TEST(ProtocolTest, Load) {
  Result<ServeRequest> r = ParseServeRequest("load mygraph /tmp/g.snap");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->command, ServeCommand::kLoad);
  EXPECT_EQ(r->name, "mygraph");
  EXPECT_EQ(r->path, "/tmp/g.snap");
}

TEST(ProtocolTest, SaveDefaultsToBinary) {
  Result<ServeRequest> r = ParseServeRequest("save g /tmp/out.snap");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->command, ServeCommand::kSave);
  EXPECT_EQ(r->format, GraphFileFormat::kBinary);
  r = ParseServeRequest("save g /tmp/out.graph text");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->format, GraphFileFormat::kText);
  EXPECT_FALSE(ParseServeRequest("save g /tmp/out.graph xml").ok());
}

TEST(ProtocolTest, DetectMinimal) {
  Result<ServeRequest> r = ParseServeRequest("detect g 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->command, ServeCommand::kDetect);
  EXPECT_EQ(r->name, "g");
  EXPECT_EQ(r->options.k, 5u);
  EXPECT_EQ(r->options.method, Method::kBsrbk);  // default
}

TEST(ProtocolTest, DetectWithMethodAndFlags) {
  Result<ServeRequest> r = ParseServeRequest(
      "detect g 3 BSR eps=0.2 delta=0.05 seed=9 order=3 bk=8 samples=500");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->options.method, Method::kBsr);
  EXPECT_EQ(r->options.k, 3u);
  EXPECT_DOUBLE_EQ(r->options.eps, 0.2);
  EXPECT_DOUBLE_EQ(r->options.delta, 0.05);
  EXPECT_EQ(r->options.seed, 9u);
  EXPECT_EQ(r->options.bound_order, 3);
  EXPECT_EQ(r->options.bk, 8);
  EXPECT_EQ(r->options.naive_samples, 500u);
}

TEST(ProtocolTest, DetectMethodAsFlag) {
  Result<ServeRequest> r = ParseServeRequest("detect g 2 method=sn");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->options.method, Method::kSampleNaive);
}

TEST(ProtocolTest, DetectRejectsIntOverflowInsteadOfTruncating) {
  // 4294967298 == 2^32 + 2: a static_cast<int> would silently run order=2.
  EXPECT_FALSE(ParseServeRequest("detect g 5 order=4294967298").ok());
  EXPECT_FALSE(ParseServeRequest("detect g 5 bk=4294967298").ok());
}

TEST(ProtocolTest, DetectRejectsGarbage) {
  EXPECT_FALSE(ParseServeRequest("detect g").ok());
  EXPECT_FALSE(ParseServeRequest("detect g abc").ok());  // k must be numeric
  EXPECT_FALSE(ParseServeRequest("detect g 3 NOPE").ok());
  EXPECT_FALSE(ParseServeRequest("detect g 3 eps=zero").ok());
  EXPECT_FALSE(ParseServeRequest("detect g 3 wat=1").ok());
  EXPECT_FALSE(ParseServeRequest("detect g 3 eps=").ok());
  EXPECT_FALSE(ParseServeRequest("detect g -1").ok());
}

TEST(ProtocolTest, DetectWaveFlag) {
  // wave= is not a detect flag: BSRBK's wave schedule has no options.
  ASSERT_TRUE(ParseServeRequest("detect g 2 bsrbk").ok());
  for (const char* line :
       {"detect g 2 bsrbk wave=adaptive", "detect g 2 wave=FIXED:250",
        "detect g 2 wave=fixed", "detect g 2 wave=maybe"}) {
    const Result<ServeRequest> r = ParseServeRequest(line);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(r.status().message().find("unknown detect flag 'wave'"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(ProtocolTest, Truth) {
  Result<ServeRequest> r = ParseServeRequest("truth g 10 5000 123");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->command, ServeCommand::kTruth);
  EXPECT_EQ(r->k, 10u);
  EXPECT_EQ(r->samples, 5000u);
  EXPECT_EQ(r->seed, 123u);
  // Defaults.
  r = ParseServeRequest("truth g 10");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->samples, 0u);  // 0 = paper default, resolved by the loop
  EXPECT_FALSE(ParseServeRequest("truth g ten").ok());
}

TEST(ProtocolTest, StatsCatalogEvictQuit) {
  EXPECT_EQ(ParseServeRequest("stats")->command, ServeCommand::kStats);
  EXPECT_EQ(ParseServeRequest("stats g")->name, "g");
  EXPECT_EQ(ParseServeRequest("catalog")->command, ServeCommand::kCatalog);
  EXPECT_EQ(ParseServeRequest("evict g")->command, ServeCommand::kEvict);
  EXPECT_EQ(ParseServeRequest("quit")->command, ServeCommand::kQuit);
  EXPECT_EQ(ParseServeRequest("exit")->command, ServeCommand::kQuit);
}

TEST(ProtocolTest, Shutdown) {
  EXPECT_EQ(ParseServeRequest("shutdown")->command, ServeCommand::kShutdown);
  EXPECT_EQ(ServeCommandName(ServeCommand::kShutdown),
            std::string("shutdown"));
  EXPECT_FALSE(ParseServeRequest("shutdown now").ok());
}

TEST(ProtocolTest, UpdateVerbs) {
  Result<ServeRequest> add = ParseServeRequest("addedge g 3 7 0.25");
  ASSERT_TRUE(add.ok());
  EXPECT_EQ(add->command, ServeCommand::kAddEdge);
  EXPECT_EQ(add->name, "g");
  EXPECT_EQ(add->src, 3u);
  EXPECT_EQ(add->dst, 7u);
  EXPECT_EQ(add->prob, 0.25);

  Result<ServeRequest> del = ParseServeRequest("deledge g 3 7");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->command, ServeCommand::kDelEdge);
  EXPECT_EQ(del->src, 3u);
  EXPECT_EQ(del->dst, 7u);

  Result<ServeRequest> set = ParseServeRequest("SETPROB g 3 7 0.75");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->command, ServeCommand::kSetProb);
  EXPECT_EQ(set->prob, 0.75);

  EXPECT_EQ(ParseServeRequest("commit g")->command, ServeCommand::kCommit);
  EXPECT_EQ(ParseServeRequest("versions g")->command, ServeCommand::kVersions);
  EXPECT_EQ(ParseServeRequest("versions g")->name, "g");
}

TEST(ProtocolTest, UpdateVerbsRejectMalformedArguments) {
  EXPECT_FALSE(ParseServeRequest("addedge g 3 7").ok());       // missing prob
  EXPECT_FALSE(ParseServeRequest("addedge g 3 7 0.2 x").ok()); // extra token
  EXPECT_FALSE(ParseServeRequest("addedge g -1 7 0.2").ok());  // negative id
  EXPECT_FALSE(ParseServeRequest("addedge g a 7 0.2").ok());   // not a number
  EXPECT_FALSE(ParseServeRequest("addedge g 3 7 nope").ok());  // bad prob
  EXPECT_FALSE(ParseServeRequest("addedge g 5000000000 7 0.2").ok())
      << "node ids beyond 32 bits must be rejected, not truncated";
  EXPECT_FALSE(ParseServeRequest("deledge g 3").ok());
  EXPECT_FALSE(ParseServeRequest("commit").ok());
  EXPECT_FALSE(ParseServeRequest("commit g extra").ok());
  EXPECT_FALSE(ParseServeRequest("versions").ok());
}

TEST(ProtocolTest, DetectRejectsNonFiniteNumbers) {
  // "nan"/"inf" parse as doubles under from_chars and every comparison with
  // NaN is false, so these must die in ParseDouble, long before the
  // open-interval option checks run.
  EXPECT_FALSE(ParseServeRequest("detect g 1 eps=nan").ok());
  EXPECT_FALSE(ParseServeRequest("detect g 1 eps=inf").ok());
  EXPECT_FALSE(ParseServeRequest("detect g 1 delta=nan").ok());
  EXPECT_FALSE(ParseServeRequest("detect g 1 delta=-inf").ok());
  EXPECT_FALSE(ParseServeRequest("addedge g 0 1 nan").ok());
  EXPECT_FALSE(ParseServeRequest("setprob g 0 1 inf").ok());
}

TEST(ProtocolTest, DetectThreadsFlag) {
  // threads= is not a detect flag: a served detect runs on the engine's one
  // pool, sized by `serve threads=N`.
  for (const char* line :
       {"detect g 2 bsrbk threads=4", "detect g 2 THREADS=1",
        "detect g 2 threads=four", "detect g 2 threads=-1"}) {
    const Result<ServeRequest> r = ParseServeRequest(line);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(r.status().message().find("unknown detect flag 'threads'"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(ProtocolTest, UnknownVerbRejected) {
  EXPECT_EQ(ParseServeRequest("frobnicate g").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, ArityErrors) {
  EXPECT_FALSE(ParseServeRequest("load g").ok());
  EXPECT_FALSE(ParseServeRequest("load g p extra").ok());
  EXPECT_FALSE(ParseServeRequest("evict").ok());
  EXPECT_FALSE(ParseServeRequest("quit now").ok());
}

TEST(ProtocolTest, CaseInsensitiveVerbsAndMethods) {
  EXPECT_EQ(ParseServeRequest("DETECT g 2 bsrbk")->command,
            ServeCommand::kDetect);
  EXPECT_EQ(ParseServeRequest("Load g /p")->command, ServeCommand::kLoad);
}

TEST(ProtocolTest, StripWallClockTokensPreservesEveryOtherByte) {
  // Mid-line token: only " time=<v>" goes; spacing elsewhere untouched.
  EXPECT_EQ(StripWallClockTokens(
                "ok detect g method=BSRBK cached=1 time=3.1e-06 samples=16"),
            "ok detect g method=BSRBK cached=1 samples=16");
  // Token at end of line (commit responses).
  EXPECT_EQ(StripWallClockTokens("ok committed g@v1 ops=3 time=0.0002"),
            "ok committed g@v1 ops=3");
  // Token at start of line.
  EXPECT_EQ(StripWallClockTokens("time=1.5 rest"), "rest");
  // Substrings of larger tokens are not wall-clock tokens.
  EXPECT_EQ(StripWallClockTokens("uptime=5 x"), "uptime=5 x");
  // Lines without the token — including payload rows — pass through
  // byte-identical, double spaces and all.
  EXPECT_EQ(StripWallClockTokens("1 46 0.999  trailing"),
            "1 46 0.999  trailing");
  EXPECT_EQ(StripWallClockTokens(""), "");
}

// Every request line of the tests above (single-space form), plus a detect
// line with more flags than the tokenizer keeps inline.
const std::vector<std::string>& RequestCorpus() {
  static const std::vector<std::string> corpus = [] {
    std::vector<std::string> lines = {
        "", "# a comment", "DETECT g 2 bsrbk", "Load g /p",
        "SETPROB g 3 7 0.75", "addedge g -1 7 0.2", "addedge g 0 1 nan",
        "addedge g 3 7 0.2 x", "addedge g 3 7 0.25", "addedge g 3 7 nope",
        "addedge g 3 7", "addedge g 5000000000 7 0.2", "addedge g a 7 0.2",
        "catalog", "commit g extra", "commit g", "commit", "deledge g 3 7",
        "deledge g 3", "detect g -1", "detect g 1 delta=-inf",
        "detect g 1 delta=nan", "detect g 1 eps=inf", "detect g 1 eps=nan",
        "detect g 2 bsrbk threads=4", "detect g 2 bsrbk wave=adaptive",
        "detect g 2 method=sn", "detect g 2 threads=-1",
        "detect g 2 threads=four", "detect g 2 wave=FIXED:250",
        "detect g 2 wave=fixed", "detect g 2 wave=fixed:-3",
        "detect g 2 wave=fixed:abc", "detect g 2 wave=maybe", "detect g 2",
        "detect g 3 NOPE", "detect g 3 eps=", "detect g 3 eps=zero",
        "detect g 3 wat=1", "detect g 5 bk=4294967298",
        "detect g 5 order=4294967298", "detect g 5", "detect g abc",
        "detect g", "evict g", "evict", "exit", "frobnicate g",
        "load g p extra", "load g", "load mygraph /tmp/g.snap", "quit now",
        "quit", "save g /tmp/out.graph text", "save g /tmp/out.graph xml",
        "save g /tmp/out.snap", "setprob g 0 1 inf", "shutdown now",
        "shutdown", "stats g", "stats", "truth g 10 5000 123", "truth g 10",
        "truth g ten", "versions g", "versions", "metrics",
        "detect g 3 BSR eps=0.2 delta=0.05 seed=9 order=3 bk=8 samples=500",
        "detect g 3 simd=scalar", "detect g 3 simd=gpu", "save g /p TEXT",
        "detect g 3 WAT=1"};
    std::string many = "detect g 3 sn";
    for (int i = 0; i < 20; ++i) many += " seed=" + std::to_string(i);
    lines.push_back(many);
    return lines;
  }();
  return corpus;
}

// Every field of a parse result, so two results compare as strings.
std::string Describe(const Result<ServeRequest>& r) {
  if (!r.ok()) return "err " + r.status().ToString();
  const DetectorOptions& o = r->options;
  return "ok " + std::string(ServeCommandName(r->command)) + " name=" +
         r->name + " path=" + r->path +
         " format=" + std::to_string(static_cast<int>(r->format)) +
         " k=" + std::to_string(r->k) + " samples=" +
         std::to_string(r->samples) + " seed=" + std::to_string(r->seed) +
         " src=" + std::to_string(r->src) + " dst=" + std::to_string(r->dst) +
         " prob=" + FormatRoundTrip(r->prob) +
         " | method=" + MethodName(o.method) + " k=" + std::to_string(o.k) +
         " eps=" + FormatRoundTrip(o.eps) + " delta=" +
         FormatRoundTrip(o.delta) + " naive=" +
         std::to_string(o.naive_samples) + " order=" +
         std::to_string(o.bound_order) + " bk=" + std::to_string(o.bk) +
         " seed=" + std::to_string(o.seed) +
         " simd=" + std::to_string(static_cast<int>(o.simd_mode));
}

std::vector<std::string> SplitOnSpace(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (begin < line.size()) {
    std::size_t end = line.find(' ', begin);
    if (end == std::string::npos) end = line.size();
    tokens.push_back(line.substr(begin, end - begin));
    begin = end + 1;
  }
  return tokens;
}

TEST(ProtocolTest, RankedRowFitsItsBoundAtTheWidestValues) {
  // The widest rank, node and score fill kMaxRankedRowBytes exactly. The
  // heap buffer has that size, so a sanitizer build catches a write past it.
  std::vector<char> buf(kMaxRankedRowBytes);
  char* end = WriteRankedRow(buf.data(), UINT64_MAX, UINT32_MAX,
                             -2.2250738585072014e-308);
  EXPECT_EQ(std::string(buf.data(), end),
            "18446744073709551615 4294967295 -2.2250738585072014e-308\n");
  EXPECT_EQ(end - buf.data(), static_cast<std::ptrdiff_t>(kMaxRankedRowBytes));

  std::vector<char> usual(kMaxRankedRowBytes);
  end = WriteRankedRow(usual.data(), 3, 17, 0.1);
  EXPECT_EQ(std::string(usual.data(), end), "3 17 0.10000000000000001\n");
}

TEST(ProtocolTest, WhitespaceAndCommentsAreTokenBoundaries) {
  // operator>>'s separator set; '\n' never survives line framing.
  static const char kSeparators[] = {' ', '\t', '\v', '\f', '\r'};
  Rng rng(91);
  const auto run = [&](std::size_t min_len) {
    std::string sep;
    const std::size_t len = min_len + rng.NextU64() % 4;
    for (std::size_t i = 0; i < len; ++i) {
      sep += kSeparators[rng.NextU64() % sizeof(kSeparators)];
    }
    return sep;
  };
  for (const std::string& line : RequestCorpus()) {
    const std::string want = Describe(ParseServeRequest(line));
    const std::vector<std::string> tokens = SplitOnSpace(line);
    for (int trial = 0; trial < 20; ++trial) {
      std::string joined = run(0);
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (i > 0) joined += run(1);
        joined += tokens[i];
      }
      if (rng.NextU64() % 2 == 0) {
        joined += run(1) + "#" + (rng.NextU64() % 2 == 0 ? "" : " trailing x=1");
      }
      joined += run(0);
      EXPECT_EQ(Describe(ParseServeRequest(joined)), want)
          << "line '" << line << "' joined as '" << joined << "'";
    }
  }
}

TEST(ProtocolTest, MutatedLinesNeverCrash) {
  // Runs under the ASan/UBSan job: any out-of-bounds view, overflow or
  // unchecked conversion on hostile bytes fails there.
  static const char kInserted[] = {'=', '#', '\0', '\xFF', ' ', ':'};
  Rng rng(4242);
  std::size_t ok = 0, err = 0;
  const auto check = [&](const std::string& mutated) {
    const Result<ServeRequest> r = ParseServeRequest(mutated);
    if (r.ok()) {
      ++ok;
      EXPECT_LE(static_cast<int>(r->command),
                static_cast<int>(ServeCommand::kNone));
    } else {
      ++err;
      EXPECT_FALSE(r.status().message().empty()) << mutated;
    }
  };
  for (const std::string& line : RequestCorpus()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string m = line;
      const int edits = 1 + static_cast<int>(rng.NextU64() % 3);
      for (int e = 0; e < edits; ++e) {
        const std::size_t pos = m.empty() ? 0 : rng.NextU64() % (m.size() + 1);
        switch (rng.NextU64() % 3) {
          case 0:  // flip bits of one byte
            if (pos < m.size()) {
              m[pos] = static_cast<char>(m[pos] ^ (1 + rng.NextU64() % 255));
            }
            break;
          case 1:  // insert a delimiter-ish byte
            m.insert(pos, 1, kInserted[rng.NextU64() % sizeof(kInserted)]);
            break;
          default:  // truncate
            m.resize(pos);
            break;
        }
      }
      check(m);
    }
    // 64 KiB tokens: a huge number, a huge flag value, a huge name.
    const std::string huge_digits(64 * 1024, '9');
    const std::string huge_name(64 * 1024, 'g');
    for (const std::string& token :
         {huge_digits, "eps=" + huge_digits, huge_name, "seed=" + huge_digits}) {
      std::string m = line;
      m.insert(m.empty() ? 0 : rng.NextU64() % (m.size() + 1), " " + token + " ");
      check(m);
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(err, 0u);
}

}  // namespace
}  // namespace vulnds::serve
